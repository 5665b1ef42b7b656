//! Implementations of experiments T1–T6, F1–F7 and `serve-soak`.

use sdp_core::{FlowConfig, FlowOutput, StructurePlacer};
use sdp_dpgen::{generate, GenConfig, GeneratedDesign};
use sdp_eval::{hpwl_breakdown, Table};
use sdp_extract::{extract, metrics, ExtractConfig};
use sdp_gp::WirelengthModel;
use sdp_netlist::NetlistStats;
use sdp_route::{route, RouteConfig};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Effort level of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reduced designs and placer effort (smoke-test the harness).
    Quick,
    /// The full reconstructed evaluation.
    Full,
}

/// A rendered experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id (`t1` … `f5`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The measured table.
    pub table: Table,
    /// The shape the reconstructed evaluation predicts (what the paper's
    /// version of this table is expected to show).
    pub expected: &'static str,
    /// Wall-clock seconds the experiment took.
    pub seconds: f64,
}

/// All experiment ids in presentation order.
pub fn all_ids() -> &'static [&'static str] {
    &[
        "t1",
        "t2",
        "t3",
        "t4",
        "t5",
        "t6",
        "f1",
        "f2",
        "f3",
        "f4",
        "f5",
        "f6",
        "f7",
        "serve-soak",
    ]
}

const SEED: u64 = 2012; // the venue year, pinned everywhere

fn suite(mode: Mode) -> Vec<&'static str> {
    match mode {
        Mode::Quick => vec!["dp_tiny", "dp_small"],
        Mode::Full => vec!["dp_tiny", "dp_small", "dp_medium", "dp_large"],
    }
}

fn flow_config(mode: Mode) -> FlowConfig {
    match mode {
        Mode::Quick => FlowConfig::fast(),
        Mode::Full => FlowConfig::default(),
    }
}

fn gen(name: &str) -> GeneratedDesign {
    generate(&GenConfig::named(name, SEED).expect("suite preset"))
}

/// Runs both flows on a design with pinned seeds. Results are memoized
/// per (design, mode) so T3/T4/T5 share one set of placements within a
/// harness invocation (the flows are deterministic, so this changes
/// nothing but wall-clock time).
fn run_both(mode: Mode, d: &GeneratedDesign) -> (FlowOutput, FlowOutput) {
    type Key = (String, usize, usize, bool);
    static CACHE: OnceLock<Mutex<HashMap<Key, (FlowOutput, FlowOutput)>>> = OnceLock::new();
    let key = (
        d.name.clone(),
        d.netlist.num_cells(),
        d.netlist.num_pins(),
        mode == Mode::Quick,
    );
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("cache lock").get(&key) {
        return hit.clone();
    }
    let base = StructurePlacer::new(flow_config(mode).baseline()).place(
        &d.netlist,
        &d.design,
        &d.placement,
    );
    let aware = StructurePlacer::new(flow_config(mode)).place(&d.netlist, &d.design, &d.placement);
    cache
        .lock()
        .expect("cache lock")
        .insert(key, (base.clone(), aware.clone()));
    (base, aware)
}

/// Runs one experiment by id. Returns `None` for unknown ids.
pub fn run_experiment(id: &str, mode: Mode) -> Option<ExperimentResult> {
    let start = Instant::now();
    let (id, title, table, expected) = match id {
        "t1" => t1(mode),
        "t2" => t2(mode),
        "t3" => t3(mode),
        "t4" => t4(mode),
        "t5" => t5(mode),
        "t6" => t6(mode),
        "f1" => f1(mode),
        "f2" => f2(mode),
        "f3" => f3(mode),
        "f4" => f4(mode),
        "f5" => f5(mode),
        "f6" => f6(mode),
        "f7" => f7(mode),
        "serve-soak" => serve_soak(mode),
        _ => return None,
    };
    Some(ExperimentResult {
        id,
        title,
        table,
        expected,
        seconds: start.elapsed().as_secs_f64(),
    })
}

type Exp = (&'static str, &'static str, Table, &'static str);

/// T1 — benchmark characteristics.
fn t1(mode: Mode) -> Exp {
    let mut t = Table::new([
        "design", "cells", "movable", "nets", "pins", "avg deg", "dp frac", "groups",
    ]);
    let mut names = suite(mode);
    if mode == Mode::Full {
        names.push("dp_huge");
    }
    for name in names {
        let d = gen(name);
        let s = NetlistStats::of(&d.netlist);
        t.row([
            name.to_string(),
            s.cells.to_string(),
            s.movable.to_string(),
            s.nets.to_string(),
            s.pins.to_string(),
            format!("{:.2}", s.avg_net_degree),
            format!("{:.2}", d.truth.datapath_fraction(&d.netlist)),
            d.truth.groups.len().to_string(),
        ]);
    }
    (
        "t1",
        "Benchmark characteristics",
        t,
        "Datapath-intensive suite: datapath fractions ~0.2-0.6, sizes spanning \
         two orders of magnitude; mirrors the paper's benchmark table.",
    )
}

/// T2 — extraction quality vs ground truth.
fn t2(mode: Mode) -> Exp {
    let mut t = Table::new([
        "design",
        "rounds",
        "classes",
        "groups",
        "precision",
        "recall",
        "f1",
        "coherence",
        "ms",
    ]);
    for name in suite(mode) {
        let d = gen(name);
        for rounds in [1usize, 2] {
            let cfg = ExtractConfig { rounds };
            let r = extract(&d.netlist, &cfg);
            let m = metrics::score(&r.groups, &d.truth.groups, &d.netlist);
            t.row([
                name.to_string(),
                rounds.to_string(),
                r.num_classes.to_string(),
                r.groups.len().to_string(),
                format!("{:.3}", m.precision),
                format!("{:.3}", m.recall),
                format!("{:.3}", m.f1),
                format!("{:.3}", m.column_coherence),
                format!("{:.1}", r.seconds * 1e3),
            ]);
        }
    }
    (
        "t2",
        "Datapath extraction quality",
        t,
        "High precision (>0.95) and recall (>0.85) at the default depth; \
         extraction runtime negligible vs placement. The paper could only \
         spot-check this; ground-truth labels make it exact here.",
    )
}

/// T3 — the headline: HPWL baseline vs structure-aware.
fn t3(mode: Mode) -> Exp {
    let mut t = Table::new([
        "design",
        "total base",
        "total aware",
        "ratio",
        "dp base",
        "dp aware",
        "dp ratio",
        "aligned rows",
    ]);
    for name in suite(mode) {
        let d = gen(name);
        let (base, aware) = run_both(mode, &d);
        let bb = hpwl_breakdown(&d.netlist, &base.placement, &aware.groups);
        t.row([
            name.to_string(),
            format!("{:.0}", bb.total),
            format!("{:.0}", aware.report.hpwl.total),
            format!("{:.3}", aware.report.hpwl.total / bb.total),
            format!("{:.0}", bb.datapath),
            format!("{:.0}", aware.report.hpwl.datapath),
            format!("{:.3}", aware.report.hpwl.datapath / bb.datapath),
            format!("{:.2}", aware.report.alignment.aligned_row_fraction),
        ]);
    }
    (
        "t3",
        "HPWL: baseline vs structure-aware (headline)",
        t,
        "Datapath-net HPWL ratio < 1 (structure-aware wins on the nets it \
         targets); total HPWL within a few percent. The paper reports \
         datapath improvements of several percent on its suite.",
    )
}

/// T4 — routed wirelength and congestion.
fn t4(mode: Mode) -> Exp {
    let mut t = Table::new([
        "design",
        "rWL base",
        "rWL aware",
        "ratio",
        "ovfl base",
        "ovfl aware",
        "maxutil base",
        "maxutil aware",
    ]);
    let rc = RouteConfig::default();
    for name in suite(mode) {
        let d = gen(name);
        let (base, aware) = run_both(mode, &d);
        let rb = route(&d.netlist, &base.placement, &d.design, &rc);
        let ra = route(&d.netlist, &aware.placement, &d.design, &rc);
        t.row([
            name.to_string(),
            format!("{:.0}", rb.wirelength),
            format!("{:.0}", ra.wirelength),
            format!("{:.3}", ra.wirelength / rb.wirelength),
            rb.overflow.to_string(),
            ra.overflow.to_string(),
            format!("{:.2}", rb.max_utilization),
            format!("{:.2}", ra.max_utilization),
        ]);
    }
    (
        "t4",
        "Routed wirelength and overflow",
        t,
        "Routed-wirelength ratios track the HPWL ratios; overflow stays \
         comparable. The paper emphasises routability wins on its densest \
         designs.",
    )
}

/// T5 — runtime breakdown.
fn t5(mode: Mode) -> Exp {
    let mut t = Table::new([
        "design",
        "flow",
        "extract s",
        "global s",
        "legalize s",
        "detailed s",
        "total s",
    ]);
    for name in suite(mode) {
        let d = gen(name);
        let (base, aware) = run_both(mode, &d);
        for (label, out) in [("base", &base), ("aware", &aware)] {
            let ts = out.report.times;
            t.row([
                name.to_string(),
                label.to_string(),
                format!("{:.2}", ts.extract),
                format!("{:.2}", ts.global),
                format!("{:.2}", ts.legalize),
                format!("{:.2}", ts.detailed),
                format!("{:.2}", ts.total()),
            ]);
        }
    }
    (
        "t5",
        "Runtime breakdown",
        t,
        "Extraction is a negligible fraction; structure-aware global \
         placement costs a modest factor over the baseline (the paper \
         reports small overhead too).",
    )
}

/// T6 — kernel thread scaling: wall-clock of one smooth-wirelength and
/// one density gradient evaluation at 1/2/4 threads, each on a model
/// built once (as a placement run builds it), plus a bitwise identity
/// check of the parallel results against the sequential path.
fn t6(mode: Mode) -> Exp {
    use sdp_geom::Point;
    use sdp_gp::{DensityModel, Executor, WirelengthKernel};

    let name = match mode {
        Mode::Quick => "dp_small",
        Mode::Full => "dp_medium",
    };
    let d = gen(name);
    let region = d.design.region();
    let pos: Vec<Point> = (0..d.netlist.num_cells())
        .map(|i| {
            let k = i as f64;
            region.clamp_point(Point::new(
                region.x1() + (k * 7.31) % region.width(),
                region.y1() + (k * 3.17) % region.height(),
            ))
        })
        .collect();
    let reps = match mode {
        Mode::Quick => 5,
        Mode::Full => 20,
    };
    let res = DensityModel::default_resolution(d.netlist.num_movable());
    let mut density = DensityModel::new(&d.netlist, region, &pos, 0.9, res, res);
    // Built once, as a placement run builds it: the timed evaluations
    // exclude the pin view's construction.
    let mut wirelength = WirelengthKernel::new(WirelengthModel::Wa, &d.netlist);

    // Best-of-`reps` wall-clock of one evaluation, plus its outputs.
    let time_eval = |f: &mut dyn FnMut(&mut Vec<Point>) -> f64| {
        let mut grad = vec![Point::ORIGIN; pos.len()];
        let mut best = f64::INFINITY;
        let mut value = 0.0;
        for _ in 0..reps {
            grad.fill(Point::ORIGIN);
            let t0 = Instant::now();
            value = f(&mut grad);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, value, grad)
    };

    let mut t = Table::new(["kernel", "threads", "ms/eval", "speedup", "identical"]);
    for kernel in ["wirelength(WA)", "density"] {
        let mut reference: Option<(f64, Vec<Point>)> = None;
        let mut base_time = 0.0;
        for threads in [1usize, 2, 4] {
            let exec = Executor::new(threads);
            let (secs, value, grad) = match kernel {
                "wirelength(WA)" => time_eval(&mut |grad| wirelength.eval(&pos, 2.0, grad, &exec)),
                _ => time_eval(&mut |grad| density.eval_with(&d.netlist, &pos, grad, &exec)),
            };
            let identical = match &reference {
                None => {
                    base_time = secs;
                    reference = Some((value, grad));
                    "-".to_string()
                }
                Some((v0, g0)) => {
                    let same = v0.to_bits() == value.to_bits()
                        && g0.len() == grad.len()
                        && g0.iter().zip(&grad).all(|(a, b)| {
                            a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
                        });
                    if same { "yes" } else { "NO" }.to_string()
                }
            };
            t.row([
                kernel.to_string(),
                threads.to_string(),
                format!("{:.2}", secs * 1e3),
                format!("{:.2}x", base_time / secs.max(1e-12)),
                identical,
            ]);
        }
    }
    (
        "t6",
        "Kernel thread scaling (deterministic parallel gradients)",
        t,
        "Near-linear speedup of the wirelength/density gradient kernels up \
         to the physical core count (a 1-core host shows ~1.0x throughout), \
         with bitwise-identical values and gradients at every thread count \
         — parallelism never perturbs the optimization trajectory.",
    )
}

/// F1 — convergence trace (objective/overflow vs outer iteration).
fn f1(mode: Mode) -> Exp {
    let name = match mode {
        Mode::Quick => "dp_small",
        Mode::Full => "dp_medium",
    };
    let d = gen(name);
    let (base, aware) = run_both(mode, &d);
    let mut t = Table::new([
        "outer",
        "hpwl base",
        "ovfl base",
        "hpwl aware",
        "ovfl aware",
    ]);
    let n = base.report.gp.trace.len().max(aware.report.gp.trace.len());
    for i in 0..n {
        let b = base.report.gp.trace.get(i);
        let a = aware.report.gp.trace.get(i);
        t.row([
            i.to_string(),
            b.map_or("-".into(), |x| format!("{:.0}", x.hpwl)),
            b.map_or("-".into(), |x| format!("{:.3}", x.overflow)),
            a.map_or("-".into(), |x| format!("{:.0}", x.hpwl)),
            a.map_or("-".into(), |x| format!("{:.3}", x.overflow)),
        ]);
    }
    (
        "f1",
        "Convergence: HPWL and overflow per outer iteration",
        t,
        "Both flows: HPWL rises as density spreading kicks in, overflow \
         decays monotonically to the target; the structure-aware curve runs \
         slightly above in HPWL after alignment activates (~overflow 0.6).",
    )
}

/// F2 — improvement vs datapath fraction.
fn f2(mode: Mode) -> Exp {
    let (total, fracs): (usize, &[f64]) = match mode {
        Mode::Quick => (1500, &[0.0, 0.4, 0.8]),
        Mode::Full => (5000, &[0.0, 0.2, 0.4, 0.6, 0.8]),
    };
    let mut t = Table::new([
        "dp fraction",
        "total ratio",
        "dp ratio",
        "aligned rows",
        "groups",
    ]);
    for &frac in fracs {
        let name = format!("frac_{:02}", (frac * 10.0) as u32);
        let cfg = GenConfig::with_datapath_fraction(name, SEED, total, frac);
        let d = generate(&cfg);
        let (base, aware) = run_both(mode, &d);
        let bb = hpwl_breakdown(&d.netlist, &base.placement, &aware.groups);
        let dp_ratio = if bb.datapath > 0.0 {
            format!("{:.3}", aware.report.hpwl.datapath / bb.datapath)
        } else {
            "-".to_string()
        };
        t.row([
            format!("{:.1}", frac),
            format!("{:.3}", aware.report.hpwl.total / bb.total),
            dp_ratio,
            format!("{:.2}", aware.report.alignment.aligned_row_fraction),
            aware.report.num_groups.to_string(),
        ]);
    }
    (
        "f2",
        "Effect of datapath fraction",
        t,
        "At fraction 0 the flows coincide (ratio 1.0, nothing extracted); \
         the datapath-net win grows with the fraction — the crossover the \
         paper motivates with 'datapath-intensive' designs.",
    )
}

/// F3 — ablation: alignment strength and rigid snapping.
fn f3(mode: Mode) -> Exp {
    let name = match mode {
        Mode::Quick => "dp_tiny",
        Mode::Full => "dp_small",
    };
    let d = gen(name);
    let base = StructurePlacer::new(flow_config(mode).baseline()).place(
        &d.netlist,
        &d.design,
        &d.placement,
    );
    let mut t = Table::new([
        "variant",
        "beta",
        "total ratio",
        "dp ratio",
        "aligned rows",
        "row spread",
    ]);
    let mut run_variant = |label: &str, beta: f64, rigid: bool, dpw: f64| {
        let mut cfg = flow_config(mode);
        cfg.align.beta = beta;
        cfg.dp_net_weight = dpw;
        if rigid {
            cfg = cfg.rigid();
            cfg.align.beta = beta.max(1.0);
        }
        let out = StructurePlacer::new(cfg).place(&d.netlist, &d.design, &d.placement);
        let bb = hpwl_breakdown(&d.netlist, &base.placement, &out.groups);
        t.row([
            label.to_string(),
            format!("{beta}"),
            format!("{:.3}", out.report.hpwl.total / bb.total),
            format!("{:.3}", out.report.hpwl.datapath / bb.datapath),
            format!("{:.2}", out.report.alignment.aligned_row_fraction),
            format!("{:.2}", out.report.alignment.mean_row_y_spread),
        ]);
    };
    run_variant("no structure", 0.0, false, 1.0);
    run_variant("boost only", 0.0, false, 2.0);
    for beta in [0.1, 0.5, 1.0, 2.0] {
        run_variant("soft", beta, false, 2.0);
    }
    run_variant("rigid", 1.0, true, 2.0);
    (
        "f3",
        "Ablation: alignment strength vs wirelength",
        t,
        "A monotone trade-off: stronger alignment raises regularity (row \
         spread falls, aligned fraction rises to 1.0 for rigid) while total \
         HPWL degrades gracefully, then sharply for rigid snapping — the \
         design-space curve behind the paper's chosen operating point.",
    )
}

/// F4 — scalability: runtime vs design size.
fn f4(mode: Mode) -> Exp {
    let names: &[&str] = match mode {
        Mode::Quick => &["dp_tiny", "dp_small"],
        Mode::Full => &["dp_tiny", "dp_small", "dp_medium", "dp_large", "dp_huge"],
    };
    let mut t = Table::new(["design", "movable cells", "base s", "aware s", "overhead"]);
    for name in names {
        let d = gen(name);
        // Scalability uses the fast profile so dp_huge stays tractable.
        let base = StructurePlacer::new(FlowConfig::fast().baseline()).place(
            &d.netlist,
            &d.design,
            &d.placement,
        );
        let aware =
            StructurePlacer::new(FlowConfig::fast()).place(&d.netlist, &d.design, &d.placement);
        let (tb, ta) = (base.report.times.total(), aware.report.times.total());
        t.row([
            name.to_string(),
            d.netlist.num_movable().to_string(),
            format!("{tb:.2}"),
            format!("{ta:.2}"),
            format!("{:.2}x", ta / tb.max(1e-9)),
        ]);
    }
    (
        "f4",
        "Scalability: runtime vs cells",
        t,
        "Near-linear growth for both flows; the structure-aware overhead \
         stays a small constant factor across two orders of magnitude.",
    )
}

/// F5 — wirelength-model ablation: LSE vs WA.
fn f5(mode: Mode) -> Exp {
    let mut t = Table::new([
        "design",
        "model",
        "final HPWL",
        "overflow",
        "outer iters",
        "s",
    ]);
    for name in suite(mode) {
        let d = gen(name);
        for (label, model) in [("LSE", WirelengthModel::Lse), ("WA", WirelengthModel::Wa)] {
            let mut cfg = flow_config(mode).baseline();
            cfg.gp.model = model;
            let out = StructurePlacer::new(cfg).place(&d.netlist, &d.design, &d.placement);
            t.row([
                name.to_string(),
                label.to_string(),
                format!("{:.0}", out.report.hpwl.total),
                format!("{:.3}", out.report.gp.final_overflow),
                out.report.gp.outer_iters.to_string(),
                format!("{:.2}", out.report.times.total()),
            ]);
        }
    }
    (
        "f5",
        "Wirelength-model ablation: LSE vs WA",
        t,
        "WA (this group's DAC'11 model) matches or slightly beats LSE at \
         equal effort — consistent with the published claim that WA's \
         modelling error is smaller for the same smoothing parameter.",
    )
}

/// F6 — extension: routability-driven cell inflation (`FlowMode::Route`
/// against the one-shot `FlowMode::Hpwl` flow).
fn f6(mode: Mode) -> Exp {
    use sdp_core::FlowMode;
    let names: &[&str] = match mode {
        Mode::Quick => &["dp_small"],
        Mode::Full => &["dp_medium", "dp_large"],
    };
    let mut t = Table::new([
        "design", "mode", "hpwl", "rWL", "overflow", "max util", "rounds",
    ]);
    // HPWL mode never routes; its row is routed here with the router
    // configuration route mode uses internally, so both rows compare
    // like for like (route mode's kept result is the same measurement).
    let rc = RouteConfig::default();
    for name in names {
        let d = gen(name);
        for flow_mode in [FlowMode::Hpwl, FlowMode::Route] {
            let mut cfg = flow_config(mode);
            cfg.mode = flow_mode;
            let out = StructurePlacer::new(cfg).place(&d.netlist, &d.design, &d.placement);
            let r = match out.report.route.clone() {
                Some(r) => r,
                None => route(&d.netlist, &out.placement, &d.design, &rc),
            };
            t.row([
                name.to_string(),
                flow_mode.name().to_string(),
                format!("{:.0}", out.report.hpwl.total),
                format!("{:.0}", r.wirelength),
                r.overflow.to_string(),
                format!("{:.2}", r.max_utilization),
                out.report.route_rounds.to_string(),
            ]);
        }
    }
    (
        "f6",
        "Extension: routability-driven cell inflation (route mode vs HPWL mode)",
        t,
        "Route mode inflates cells under RUDY hotspots, re-spreads, \
         re-legalizes and re-routes, keeping a round only when routed \
         overflow improves (the cell-inflation trade-off this paper's \
         successors formalized in routability-driven NTUplace4). Its row \
         therefore never routes worse than the HPWL-mode row; on congested \
         designs overflow drops at a small HPWL cost, and on \
         already-routable designs the loop stops after the first route \
         and the rows coincide.",
    )
}

/// F7 — substrate ablation: Tetris vs Abacus legalization.
fn f7(mode: Mode) -> Exp {
    use sdp_core::LegalizerKind;
    let names: &[&str] = match mode {
        Mode::Quick => &["dp_tiny"],
        Mode::Full => &["dp_small", "dp_medium"],
    };
    let mut t = Table::new([
        "design",
        "legalizer",
        "hpwl",
        "avg disp",
        "max disp",
        "legalize s",
    ]);
    for name in names {
        let d = gen(name);
        for (label, kind) in [
            ("tetris", LegalizerKind::Tetris),
            ("abacus", LegalizerKind::Abacus),
        ] {
            let mut cfg = flow_config(mode).baseline();
            cfg.legalizer = kind;
            let out = StructurePlacer::new(cfg).place(&d.netlist, &d.design, &d.placement);
            let r = &out.report;
            t.row([
                name.to_string(),
                label.to_string(),
                format!("{:.0}", r.hpwl.total),
                format!(
                    "{:.2}",
                    r.legal.total_displacement / r.legal.placed.max(1) as f64
                ),
                format!("{:.1}", r.legal.max_displacement),
                format!("{:.2}", r.times.legalize),
            ]);
        }
    }
    (
        "f7",
        "Substrate ablation: Tetris vs Abacus legalization",
        t,
        "Abacus minimizes *quadratic* displacement, so it slashes the \
         displacement tail (max disp) while the linear average can exceed \
         Tetris' under our row weighting; HPWL stays comparable on small \
         designs. The tail matters for timing-driven flows — the trade the \
         legalization literature reports.",
    )
}

/// What one duplicate-heavy stream measured.
struct SoakStats {
    wall: f64,
    jobs_per_sec: f64,
    /// Fraction of submissions absorbed by determinism — answered from
    /// the cache or attached to an in-flight identical run.
    hit_ratio: f64,
    hits: f64,
    coalesced: f64,
    /// Placements that actually ran (the server's `completed` counter).
    completed: f64,
}

/// Drives `n_jobs` submissions cycling through `unique` distinct seeds
/// (dp_tiny, with the given `flow` overrides JSON) through a fresh
/// loopback server and scrapes the cache/coalescing counters
/// afterwards.
fn run_soak_stream(
    n_jobs: usize,
    unique: usize,
    workers: usize,
    client_threads: usize,
    flow: &'static str,
) -> SoakStats {
    use sdp_serve::client::{request, wait_for_job};
    use sdp_serve::{Server, ServerConfig};
    use std::time::Duration;

    let server = Server::start(ServerConfig {
        port: 0,
        workers,
        queue_depth: n_jobs,
        ..ServerConfig::default()
    })
    .expect("loopback server on an ephemeral port");
    let port = server.port();

    // A few client threads drain the submission stream; seed = k %
    // unique makes the tail of the stream pure repeats.
    let t0 = Instant::now();
    let next = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let clients: Vec<_> = (0..client_threads)
        .map(|_| {
            let next = std::sync::Arc::clone(&next);
            std::thread::spawn(move || loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if k >= n_jobs {
                    return;
                }
                let spec = format!(
                    r#"{{"design": {{"preset": "dp_tiny", "seed": {}}}, "flow": {flow}}}"#,
                    k % unique
                );
                let (status, body) = request(port, "POST", "/jobs", &spec).expect("submit");
                assert_eq!(status, 202, "submit: {body}");
                let id = sdp_json::parse(&body)
                    .ok()
                    .and_then(|v| v.get("id").and_then(sdp_json::Json::as_u64))
                    .expect("202 body carries the job id");
                let status_body =
                    wait_for_job(port, id, Duration::from_secs(600)).expect("job settles");
                assert!(
                    status_body.contains(r#""state":"done""#),
                    "job {id}: {status_body}"
                );
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let wall = t0.elapsed().as_secs_f64();

    let (_, metrics_text) = request(port, "GET", "/metrics", "").expect("metrics");
    let counter = |name: &str| -> f64 {
        metrics_text
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let hits = counter("sdp_serve_cache_hits_total");
    let coalesced = counter("sdp_serve_coalesced_total");
    SoakStats {
        wall,
        jobs_per_sec: n_jobs as f64 / wall.max(1e-9),
        hit_ratio: (hits + coalesced) / n_jobs as f64,
        hits,
        coalesced,
        completed: counter("sdp_serve_jobs_completed_total"),
    }
}

/// serve-soak — duplicate-heavy job streams through a real loopback
/// `sdp-serve` instance, exercising the content-addressed result cache
/// and request coalescing: `jobs` submissions cycle through `unique`
/// distinct seeds, so only `unique` placements should ever run and the
/// rest should be answered from the cache (or attach to an in-flight
/// run). Runs one plain-flow stream and one `mode=route` stream (the
/// feedback loop behind the same cache guarantees). Reports the
/// measured hit ratio, end-to-end jobs/sec, and peak RSS; a full run
/// writes them to `BENCH_serve.json`.
fn serve_soak(mode: Mode) -> Exp {
    let (n_jobs, unique, workers, client_threads) = match mode {
        Mode::Quick => (60usize, 6usize, 2usize, 3usize),
        Mode::Full => (2000, 25, 4, 8),
    };
    // The route-mode stream is smaller per stream — each miss runs the
    // full feedback loop — but just as duplicate-heavy, so it drives
    // the same cache/coalescing fast paths through `mode=route` specs.
    let (route_jobs, route_unique) = match mode {
        Mode::Quick => (20usize, 4usize),
        Mode::Full => (400, 10),
    };
    let streams = [
        (
            "hpwl",
            n_jobs,
            unique,
            run_soak_stream(n_jobs, unique, workers, client_threads, r#"{"fast": true}"#),
        ),
        (
            "route",
            route_jobs,
            route_unique,
            run_soak_stream(
                route_jobs,
                route_unique,
                workers,
                client_threads,
                r#"{"fast": true, "mode": "route"}"#,
            ),
        ),
    ];
    for (label, _, uniq, s) in &streams {
        assert!(
            s.completed as usize <= uniq + 5,
            "roughly one placement per distinct seed may run (a benign \
             submit/complete race can add a rare duplicate): stream={label} \
             completed={} unique={uniq}",
            s.completed
        );
    }
    let rss = peak_rss_bytes();

    if mode == Mode::Full {
        use sdp_json::Json;
        let stream_json = |(_, jobs, uniq, s): &(&str, usize, usize, SoakStats)| {
            Json::obj([
                ("jobs", Json::num(*jobs as f64)),
                ("unique_specs", Json::num(*uniq as f64)),
                ("workers", Json::num(workers as f64)),
                ("wall_s", Json::num(s.wall)),
                ("jobs_per_sec", Json::num(s.jobs_per_sec)),
                ("hit_ratio", Json::num(s.hit_ratio)),
                ("cache_hits", Json::num(s.hits)),
                ("coalesced", Json::num(s.coalesced)),
                ("placements_run", Json::num(s.completed)),
            ])
        };
        let json = Json::obj([
            ("hpwl", stream_json(&streams[0])),
            ("route", stream_json(&streams[1])),
            ("peak_rss_bytes", Json::num(rss)),
        ]);
        let out_path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
        std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_serve.json");
    }

    let mut t = Table::new([
        "flow",
        "jobs",
        "unique",
        "workers",
        "wall s",
        "jobs/s",
        "hit ratio",
        "hits",
        "coalesced",
        "placements",
    ]);
    for (label, jobs, uniq, s) in &streams {
        t.row([
            label.to_string(),
            jobs.to_string(),
            uniq.to_string(),
            workers.to_string(),
            format!("{:.2}", s.wall),
            format!("{:.2}", s.jobs_per_sec),
            format!("{:.3}", s.hit_ratio),
            format!("{:.0}", s.hits),
            format!("{:.0}", s.coalesced),
            format!("{:.0}", s.completed),
        ]);
    }
    (
        "serve-soak",
        "Serving soak: duplicate-heavy stream through the result cache",
        t,
        "With jobs ≫ unique specs, the hit ratio approaches \
         1 − unique/jobs: placement runs once per distinct spec and \
         every repeat is answered from the content-addressed cache (or \
         coalesces onto an in-flight run), so jobs/sec is far above the \
         raw placement rate. Wall-clock numbers are machine-dependent \
         and live in BENCH_serve.json, not the deterministic tables \
         output.",
    )
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `0.0` where that file is unavailable
/// (non-Linux).
fn peak_rss_bytes() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb * 1024.0;
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_run_in_quick_mode() {
        for &id in all_ids() {
            let r = run_experiment(id, Mode::Quick).expect("known id");
            assert!(!r.table.is_empty(), "{id} produced no rows");
            assert!(!r.expected.is_empty());
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("t9", Mode::Quick).is_none());
    }

    #[test]
    fn experiments_are_deterministic() {
        let a = run_experiment("t1", Mode::Quick).expect("t1");
        let b = run_experiment("t1", Mode::Quick).expect("t1");
        assert_eq!(a.table.to_string(), b.table.to_string());
    }
}
