//! The flow workloads (`place_huge`, `route_congested`) and the layer
//! breakdown of a traced flow, shared with `serve_mixed`'s traced job.

use crate::measure;
use crate::stats::{median, quantile};
use crate::trace::{self, Recorder, Span};
use crate::{Metrics, Opts, Outcome, Workload, DESIGN_SEED};
use sdp_core::{
    AlignConfig, AlignTerm, FlowConfig, FlowMode, FlowOutput, Observer, StructurePlacer,
};
use sdp_dpgen::{generate, GenConfig, GeneratedDesign};
use sdp_geom::Point;
use sdp_gp::{eval_wirelength_with, DensityModel, Executor, ExtraTerm};
use sdp_route::{inflate_cells, rudy_map_exec, InflateConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Flow repetitions run whatever the time budget: two, so every run
/// checks that the flow is deterministic.
const FLOW_MIN_REPS: usize = 2;

/// Calls per kernel when timing the GP and route-loop kernels.
const KERNEL_CALLS: usize = 30;

/// A flow workload: one design (dpgen seed [`DESIGN_SEED`]) and one flow
/// configuration.
pub struct FlowSpec {
    pub preset: &'static str,
    /// Placement utilization override (`None` keeps the preset's).
    pub utilization: Option<f64>,
    pub config: FlowConfig,
}

impl FlowSpec {
    /// `dp_huge` (38,971 cells) through the default structure-aware HPWL
    /// flow on 2 threads: the ROADMAP's north-star size, GP-dominated,
    /// and the only workload large enough for the multilevel V-cycle.
    pub fn place_huge() -> Self {
        FlowSpec {
            preset: "dp_huge",
            utilization: None,
            config: FlowConfig::default().with_threads(2),
        }
    }

    /// `dp_medium` at 0.92 utilization through the route-mode flow on 2
    /// threads (the `BENCH_route.json` design): the router and the
    /// RUDY → inflate → re-spread loop take half the time.
    pub fn route_congested() -> Self {
        let mut config = FlowConfig::default().with_threads(2);
        config.mode = FlowMode::Route;
        FlowSpec {
            preset: "dp_medium",
            utilization: Some(0.92),
            config,
        }
    }

    fn gen_config(&self) -> GenConfig {
        let mut gc = GenConfig::named(self.preset, DESIGN_SEED).expect("a dpgen suite preset");
        if let Some(u) = self.utilization {
            gc.utilization = u;
        }
        gc
    }
}

/// A flow workload after set-up: the generated design and what its
/// untraced repetitions measured so far.
pub struct Flow {
    spec: FlowSpec,
    design: GeneratedDesign,
    setup_s: f64,
    walls: Vec<f64>,
    refs: Vec<f64>,
    peak_rss: f64,
    first: Option<FlowOutput>,
    out: Outcome,
}

impl Flow {
    /// Generates the design, timing repeated generations for `setup_s`.
    pub fn setup(spec: FlowSpec, opts: &Opts) -> Self {
        let gc = spec.gen_config();
        let mut design = None;
        let setup_s = measure::setup_s(opts.seconds, || {
            let t = Instant::now();
            design = Some(generate(&gc));
            t.elapsed().as_secs_f64()
        });
        Flow {
            spec,
            design: design.expect("set-up runs at least once"),
            setup_s,
            walls: Vec::new(),
            refs: Vec::new(),
            peak_rss: 0.0,
            first: None,
            out: Outcome::default(),
        }
    }
}

impl Workload for Flow {
    fn min_reps(&self) -> usize {
        FLOW_MIN_REPS
    }

    fn rep(&mut self, _rep: usize) {
        self.refs.push(measure::host_ref_ms());
        measure::reset_peak_rss();
        let (wall, fo) = place(&self.design, &self.spec.config, None);
        self.peak_rss = self.peak_rss.max(measure::peak_rss_bytes());
        self.walls.push(wall);
        self.out.record(check(&fo, self.first.as_ref()));
        self.first.get_or_insert(fo);
    }

    fn finish(self: Box<Self>, opts: &Opts) -> Outcome {
        let Flow {
            spec,
            design: d,
            setup_s,
            walls,
            refs,
            peak_rss,
            first,
            mut out,
        } = *self;
        let first = first.expect("min_reps > 0");
        let m = &mut out.metrics;
        m.set("flow_wall_s", median(&walls));
        m.set("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
        m.set("setup_s", setup_s);
        m.set("hpwl", first.report.hpwl.total);
        m.set("dp_hpwl", first.report.hpwl.datapath);
        m.set("peak_rss_bytes", peak_rss);
        m.set("flow.p25_s", quantile(&walls, 0.25));
        m.set("flow.p75_s", quantile(&walls, 0.75));
        m.set("flow.n", walls.len() as f64);
        m.set("host.ref_ms", median(&refs));
        m.set("dpgen.generate_s", setup_s);
        count_metrics(m, &first);

        if opts.trace {
            let (wall, fo, spans) = traced(&d, &spec.config);
            out.record(check(&fo, Some(&first)));
            let layers = layer_metrics(&mut out.metrics, &d, &spec.config, &fo, &spans);
            out.record(layers);
            out.metrics
                .set("trace.overhead_frac", wall / median(&walls) - 1.0);
            out.write_trace(opts, &spans);
        }
        out
    }
}

/// One untraced (`obs: None`, the library's own no-op observer) or
/// observed flow call; returns its wall seconds and output.
pub fn place(d: &GeneratedDesign, cfg: &FlowConfig, obs: Option<&Observer>) -> (f64, FlowOutput) {
    let placer = StructurePlacer::new(cfg.clone());
    let t = Instant::now();
    let out = match obs {
        None => placer.place(&d.netlist, &d.design, &d.placement),
        Some(obs) => placer
            .place_with(&d.netlist, &d.design, &d.placement, obs)
            .expect("the benchmark's observer never cancels"),
    };
    (t.elapsed().as_secs_f64(), out)
}

/// One flow call under a recording observer, with its rebuilt spans.
pub fn traced(d: &GeneratedDesign, cfg: &FlowConfig) -> (f64, FlowOutput, Vec<Span>) {
    let rec = Arc::new(Recorder::new());
    let obs = Observer::new(rec.clone(), rec.clone());
    let start = rec.seconds();
    let (_, out) = place(d, cfg, Some(&obs));
    let end = rec.seconds();
    let vcycle = cfg.gp.cluster_threshold > 0 && d.netlist.num_movable() > cfg.gp.cluster_threshold;
    (
        end - start,
        out,
        trace::flow_spans(start, end, &rec.reports(), vcycle),
    )
}

/// A flow output's checks: legal, never routed worse than the one-shot
/// route of round 0, and bitwise identical to `reference` (an earlier
/// repetition of the same input) when given.
pub fn check(out: &FlowOutput, reference: Option<&FlowOutput>) -> Result<(), String> {
    if out.legal_violations != 0 {
        return Err(format!("{} legality violations", out.legal_violations));
    }
    if let (Some(r), Some(r0)) = (&out.report.route, out.report.route_trace.first()) {
        if (r.overflow, r.wirelength) > (r0.overflow, r0.wirelength) {
            return Err(format!(
                "routed result (overflow {}, wl {}) is worse than the one-shot route (overflow {}, wl {})",
                r.overflow, r.wirelength, r0.overflow, r0.wirelength
            ));
        }
    }
    if let Some(reference) = reference {
        let hpwl = |o: &FlowOutput| {
            (
                o.report.hpwl.total.to_bits(),
                o.report.hpwl.datapath.to_bits(),
            )
        };
        if hpwl(out) != hpwl(reference)
            || out.report.route != reference.report.route
            || out.placement.positions() != reference.placement.positions()
        {
            return Err(format!(
                "repetition differs: hpwl {} vs {}",
                out.report.hpwl.total, reference.report.hpwl.total
            ));
        }
    }
    Ok(())
}

/// Layer counters a flow report carries, measured without tracing.
pub fn count_metrics(m: &mut Metrics, out: &FlowOutput) {
    let r = &out.report;
    m.set("gp.evals", r.gp.evals as f64);
    m.set("gp.outer_iters", r.gp.outer_iters as f64);
    m.set("legal.displacement", r.legal.total_displacement);
    let Some(kept) = &r.route else {
        return;
    };
    let mut best = &r.route_trace[0];
    let mut kept_rounds = 0;
    for rep in &r.route_trace[1..] {
        if (rep.overflow, rep.wirelength) < (best.overflow, best.wirelength) {
            best = rep;
            kept_rounds += 1;
        }
    }
    m.set("route.calls", r.route_trace.len() as f64);
    m.set(
        "route.rrr_iters",
        r.route_trace.iter().map(|t| t.iterations).sum::<usize>() as f64,
    );
    m.set("route.segments", kept.segments as f64);
    m.set("route.feedback_rounds", r.route_rounds as f64);
    m.set("route.kept_rounds", kept_rounds as f64);
    m.set(
        "route.kept_round_ratio",
        if r.route_rounds > 0 {
            kept_rounds as f64 / r.route_rounds as f64
        } else {
            0.0
        },
    );
    m.set("route.overflow", kept.overflow as f64);
    m.set("route.overflow_oneshot", r.route_trace[0].overflow as f64);
    m.set("route.wl", kept.wirelength);
}

/// Median seconds per call of the public kernels behind each GP
/// objective evaluation and each route-loop round, replayed at a flow's
/// final positions.
struct Kernels {
    wl: f64,
    density: f64,
    align: f64,
    rudy: f64,
    inflate: f64,
}

fn per_call(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..KERNEL_CALLS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn time_kernels(d: &GeneratedDesign, cfg: &FlowConfig, out: &FlowOutput) -> Kernels {
    let nl = &d.netlist;
    let pos = out.placement.positions();
    let exec = Executor::new(cfg.gp.threads);
    let res = cfg
        .gp
        .bins
        .unwrap_or_else(|| DensityModel::default_resolution(nl.num_movable()));
    let mut density =
        DensityModel::new(nl, d.design.region(), pos, cfg.gp.target_density, res, res);
    // The placer's starting smoothing parameter; the kernels' cost does
    // not depend on it.
    let gamma = 8.0 * density.grid().bin_w().max(density.grid().bin_h());
    let mut grad = vec![Point::ORIGIN; pos.len()];
    let wl = per_call(|| {
        grad.fill(Point::ORIGIN);
        black_box(eval_wirelength_with(
            cfg.gp.model,
            nl,
            pos,
            gamma,
            &mut grad,
            &exec,
        ));
    });
    let density_s = per_call(|| {
        grad.fill(Point::ORIGIN);
        black_box(density.eval_with(nl, pos, &mut grad, &exec));
    });
    let align = if cfg.structure_aware && !out.groups.is_empty() {
        let mut term = AlignTerm::new(
            out.groups.clone(),
            AlignConfig {
                row_height: d.design.row_height(),
                ..cfg.align
            },
        );
        // Zero overflow activates the term, as late in GP.
        term.begin_outer(0, 0.0, pos);
        per_call(|| {
            black_box(term.eval(nl, pos, &mut grad));
        })
    } else {
        0.0
    };
    let (rudy, inflate) = if cfg.mode == FlowMode::Route {
        // The route loop's RUDY map is twice the default density grid.
        let res = 2 * DensityModel::default_resolution(nl.num_movable());
        let rudy = per_call(|| {
            black_box(rudy_map_exec(
                nl,
                &out.placement,
                &d.design,
                res,
                res,
                &exec,
            ));
        });
        let (grid, demand) = rudy_map_exec(nl, &out.placement, &d.design, res, res, &exec);
        let mut factors = vec![1.0; nl.num_cells()];
        let inflate = per_call(|| {
            factors.fill(1.0);
            black_box(inflate_cells(
                nl,
                &out.placement,
                &grid,
                &demand,
                &InflateConfig::default(),
                &mut factors,
                &exec,
            ));
        });
        (rudy, inflate)
    } else {
        (0.0, 0.0)
    };
    Kernels {
        wl,
        density: density_s,
        align,
        rudy,
        inflate,
    }
}

/// The layer breakdown of one traced flow. Phase and stage seconds are
/// spans; the GP kernel seconds are *computed*: median seconds per call
/// times the flow's exact evaluation count, with `gp.other_s` the rest
/// of `gp.s` (solver bookkeeping, preconditioner, V-cycle). Fails when
/// the spans lost an outer iteration the report counted.
pub fn layer_metrics(
    m: &mut Metrics,
    d: &GeneratedDesign,
    cfg: &FlowConfig,
    out: &FlowOutput,
    spans: &[Span],
) -> Result<(), String> {
    let k = time_kernels(d, cfg, out);
    let total = |name| trace::total(spans, name);
    let count = |name| spans.iter().filter(|s| s.name == name).count() as f64;
    m.set("flow.self_s", trace::self_times(spans)[0]);
    m.set("extract.s", total("extract"));
    m.set("extract.signatures_s", total("extract.signatures"));
    m.set("extract.relations_s", total("extract.relations"));
    m.set("extract.grow_s", total("extract.grow"));

    let gp_s = total("gp");
    let flat_outers: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "gp.outer" && s.parent.is_some_and(|p| spans[p].name == "gp.run"))
        .map(Span::dur)
        .collect();
    let evals = out.report.gp.evals as f64;
    // Only the main and refinement runs carry the alignment term; their
    // outers are the ones in the report's convergence trace.
    let align_evals: usize = out.report.gp.trace.iter().map(|t| t.evals).sum();
    let wl = k.wl * evals;
    let density = k.density * evals;
    let align = k.align * align_evals as f64;
    m.set("gp.s", gp_s);
    m.set("gp.coarse_s", total("gp.vcycle"));
    m.set(
        "gp.outer_p50_s",
        if flat_outers.is_empty() {
            0.0
        } else {
            median(&flat_outers)
        },
    );
    m.set("gp.wl_grad_s", wl);
    m.set("gp.density_grad_s", density);
    m.set("align.s", align);
    m.set("gp.other_s", gp_s - wl - density - align);
    m.set("gp.wl_call_ms", k.wl * 1e3);
    m.set("gp.density_call_ms", k.density * 1e3);
    m.set("align.call_ms", k.align * 1e3);

    m.set("legal.s", total("legal"));
    m.set("legal.calls", count("legal"));
    m.set("detailed.s", total("detailed"));
    m.set("detailed.calls", count("detailed"));

    m.set("route.s", total("route"));
    m.set("route.pattern_s", total("route.pattern"));
    m.set("route.rrr_s", total("route.rrr"));
    m.set("route.rudy_call_ms", k.rudy * 1e3);
    m.set("route.inflate_call_ms", k.inflate * 1e3);
    if flat_outers.len() == out.report.gp.outer_iters {
        Ok(())
    } else {
        Err(format!(
            "trace shows {} GP outer iterations, the report {}",
            flat_outers.len(),
            out.report.gp.outer_iters
        ))
    }
}
