//! The global-placement outer loop: wirelength + λ·density (+ optional
//! extra terms), with λ scheduling, γ annealing, and an optional multilevel
//! V-cycle.

use crate::cluster::{self, Clustering};
use crate::density::DensityModel;
use crate::exec::Executor;
use crate::nesterov::{minimize_nesterov, NesterovOptions, Objective};
use crate::wirelength::{hpwl, WirelengthKernel, WirelengthModel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sdp_geom::{Point, Rect};
use sdp_netlist::{CellId, Design, Netlist, Placement};
use sdp_progress::{Cancelled, Observer, Phase};

/// A pluggable extra objective term (how `sdp-core` injects its alignment
/// forces without this crate knowing about datapaths).
pub trait ExtraTerm {
    /// Evaluates the extra term at the full per-cell position array,
    /// accumulating gradients into `grad` (full length, pre-zeroed slots
    /// may already hold other terms — *add*, don't overwrite). Returns the
    /// term's value (already weighted).
    fn eval(&mut self, netlist: &Netlist, pos: &[Point], grad: &mut [Point]) -> f64;

    /// Called at the start of every outer iteration with the current
    /// overflow and cell positions, letting the term anneal its own weight
    /// and refit any internal targets.
    fn begin_outer(&mut self, _outer: usize, _overflow: f64, _pos: &[Point]) {}
}

/// λ (density-weight) multiplier per outer iteration.
pub const LAMBDA_FACTOR: f64 = 2.0;

/// Global placement configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Smooth wirelength model to differentiate.
    pub model: WirelengthModel,
    /// Per-bin density ceiling (fraction of bin area).
    pub target_density: f64,
    /// Stop once total overflow drops below this fraction of movable area.
    pub target_overflow: f64,
    /// Maximum outer iterations (λ doublings).
    pub max_outer: usize,
    /// Nesterov iterations per outer iteration.
    pub inner_iters: usize,
    /// Bin-grid resolution per axis; `None` = automatic.
    pub bins: Option<usize>,
    /// Seed for the initial-placement jitter.
    pub seed: u64,
    /// Cluster the netlist first when it has more movable cells than this
    /// (`0` disables the multilevel cycle).
    pub cluster_threshold: usize,
    /// Worker threads for the wirelength/density kernels: `0` = available
    /// parallelism, `1` = the sequential legacy path. Results are bitwise
    /// identical at every thread count.
    pub threads: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            model: WirelengthModel::Lse,
            target_density: 0.9,
            target_overflow: 0.12,
            max_outer: 24,
            inner_iters: 60,
            bins: None,
            seed: 1,
            cluster_threshold: 12_000,
            threads: 0,
        }
    }
}

impl GpConfig {
    /// A reduced-effort profile for unit tests and examples.
    pub fn fast() -> Self {
        GpConfig {
            max_outer: 12,
            inner_iters: 30,
            target_overflow: 0.25,
            ..GpConfig::default()
        }
    }
}

/// One outer-iteration sample of the convergence trace (figure F1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTrace {
    /// Outer iteration index.
    pub outer: usize,
    /// Exact HPWL at the end of the iteration.
    pub hpwl: f64,
    /// Density overflow ratio.
    pub overflow: f64,
    /// Composite objective value.
    pub objective: f64,
    /// Density weight λ used this iteration.
    pub lambda: f64,
    /// Objective evaluations the inner solver spent this iteration.
    pub evals: usize,
}

/// Result of a global-placement run.
#[derive(Debug, Clone)]
pub struct PlaceStats {
    /// HPWL of the final placement.
    pub final_hpwl: f64,
    /// Final density overflow ratio.
    pub final_overflow: f64,
    /// Outer iterations executed.
    pub outer_iters: usize,
    /// Per-iteration convergence trace.
    pub trace: Vec<IterationTrace>,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Total objective evaluations across all outer iterations (the
    /// solver-efficiency metric `BENCH_gp.json` reports).
    pub evals: usize,
}

/// The analytical global placer (structure-oblivious baseline).
#[derive(Debug, Clone)]
pub struct GlobalPlacer {
    config: GpConfig,
}

/// The composed objective: wirelength + λ·density + extra.
struct Composed<'n, 'd, 'e, 't, 'x> {
    netlist: &'n Netlist,
    movable: &'n [CellId],
    pos: Vec<Point>,
    grad_full: Vec<Point>,
    dgrad: Vec<Point>,
    density: &'d mut DensityModel,
    wirelength: &'d mut WirelengthKernel,
    extra: Option<&'e mut (dyn ExtraTerm + 't)>,
    gamma: f64,
    lambda: f64,
    /// Each movable cell's centre bounds, in `movable` order.
    bounds: &'n [Bounds],
    wl_scale: f64,
    exec: &'x Executor,
}

impl Composed<'_, '_, '_, '_, '_> {
    fn scatter(&mut self, x: &[Point]) {
        for (k, &c) in self.movable.iter().enumerate() {
            self.pos[c.ix()] = x[k];
        }
    }
}

impl Objective for Composed<'_, '_, '_, '_, '_> {
    fn eval(&mut self, x: &[Point], grad: &mut [Point]) -> f64 {
        self.scatter(x);
        self.grad_full.fill(Point::ORIGIN);
        let wl = self
            .wirelength
            .eval(&self.pos, self.gamma, &mut self.grad_full, self.exec);
        self.dgrad.fill(Point::ORIGIN);
        let dens = self
            .density
            .eval_with(self.netlist, &self.pos, &mut self.dgrad, self.exec);
        for (g, d) in self.grad_full.iter_mut().zip(&self.dgrad) {
            *g = *g * self.wl_scale + *d * self.lambda;
        }
        let extra_val = match self.extra.as_mut() {
            Some(e) => e.eval(self.netlist, &self.pos, &mut self.grad_full),
            None => 0.0,
        };
        for (k, &c) in self.movable.iter().enumerate() {
            grad[k] = self.grad_full[c.ix()];
        }
        wl * self.wl_scale + self.lambda * dens + extra_val
    }

    fn project(&self, x: &mut [Point]) {
        for (p, b) in x.iter_mut().zip(self.bounds) {
            p.x = p.x.clamp(b.x.0, b.x.1);
            p.y = p.y.clamp(b.y.0, b.y.1);
        }
    }
}

/// The range a movable cell's centre is clamped to on each axis: the
/// region shrunk by the cell's half size, or to its centre line when the
/// cell is larger than the region.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    x: (f64, f64),
    y: (f64, f64),
}

impl Bounds {
    /// Every movable cell's bounds in `region`, in `movable` order. The
    /// projection runs twice per solver step, so a placement call builds
    /// these once rather than re-reading each cell's master every time.
    fn of(netlist: &Netlist, movable: &[CellId], region: Rect) -> Vec<Bounds> {
        movable
            .iter()
            .map(|&c| {
                let m = netlist.master_of(c);
                let hw = (m.width / 2.0).min(region.width() / 2.0);
                let hh = (m.height / 2.0).min(region.height() / 2.0);
                Bounds {
                    x: (region.x1() + hw, region.x2() - hw),
                    y: (region.y1() + hh, region.y2() - hh),
                }
            })
            .collect()
    }
}

impl GlobalPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: GpConfig) -> Self {
        GlobalPlacer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpConfig {
        &self.config
    }

    /// Runs global placement, updating `placement` in place.
    ///
    /// Fixed cells never move. `extra` is an optional additional objective
    /// (structure-aware alignment). Returns statistics and the convergence
    /// trace.
    pub fn place(
        &self,
        netlist: &Netlist,
        design: &Design,
        placement: &mut Placement,
        extra: Option<&mut dyn ExtraTerm>,
    ) -> PlaceStats {
        self.place_inflated(netlist, design, placement, extra, None, None)
    }

    /// Like [`GlobalPlacer::place`], with optional per-cell area inflation
    /// factors (≥ 1, one per cell) for routability-driven spreading: cells
    /// in congested regions demand more bin capacity and push their
    /// neighbours away.
    ///
    /// # Panics
    ///
    /// Panics if `inflation` is given with the wrong length or factors
    /// below 1.
    /// `eval_netlist`, when given, is used for the HPWL numbers in the
    /// returned statistics and per-iteration trace instead of the netlist
    /// being optimized — callers that optimize a *re-weighted* clone (the
    /// structure-aware flow boosts datapath nets) pass the original here
    /// so reported HPWL stays on the unweighted scale.
    pub fn place_inflated(
        &self,
        netlist: &Netlist,
        design: &Design,
        placement: &mut Placement,
        extra: Option<&mut dyn ExtraTerm>,
        inflation: Option<&[f64]>,
        eval_netlist: Option<&Netlist>,
    ) -> PlaceStats {
        match self.place_inflated_observed(
            netlist,
            design,
            placement,
            extra,
            inflation,
            eval_netlist,
            &Observer::noop(),
        ) {
            Ok(stats) => stats,
            Err(Cancelled) => unreachable!("the noop observer never cancels"),
        }
    }

    /// [`GlobalPlacer::place_inflated`] with progress reporting and
    /// cooperative cancellation: `obs` is polled once per outer iteration
    /// (including the coarse V-cycle pass) and supplies the clock for the
    /// `seconds` field. Progress is reported against `max_outer`; runs
    /// that converge early jump to completion. On `Err(Cancelled)` the
    /// placement holds the last completed outer iteration's positions.
    #[allow(
        clippy::too_many_arguments,
        reason = "the observed form of `place_inflated`: its arguments plus the observer"
    )]
    pub fn place_inflated_observed(
        &self,
        netlist: &Netlist,
        design: &Design,
        placement: &mut Placement,
        mut extra: Option<&mut dyn ExtraTerm>,
        inflation: Option<&[f64]>,
        eval_netlist: Option<&Netlist>,
        obs: &Observer,
    ) -> Result<PlaceStats, Cancelled> {
        let start = obs.now();
        // One pool per run, shared by every kernel evaluation.
        let exec = Executor::new(self.config.threads);

        // Optional multilevel V-cycle: place a clustered netlist first and
        // seed the flat placement from it.
        if self.config.cluster_threshold > 0
            && netlist.num_movable() > self.config.cluster_threshold
        {
            self.coarse_seed(netlist, design, placement, obs)?;
        }

        let movable: Vec<CellId> = netlist.movable_ids().collect();
        let region = design.region();
        self.initialize(netlist, &movable, region, placement);

        let res = self
            .config
            .bins
            .unwrap_or_else(|| DensityModel::default_resolution(movable.len()));
        let mut density = DensityModel::new(
            netlist,
            region,
            placement.positions(),
            self.config.target_density,
            res,
            res,
        );
        if let Some(f) = inflation {
            density.set_inflation(f.to_vec());
        }
        let mut wirelength = WirelengthKernel::new(self.config.model, netlist);
        let bounds = Bounds::of(netlist, &movable, region);
        let bin_w = density.grid().bin_w();
        let bin_h = density.grid().bin_h();

        let mut x: Vec<Point> = movable.iter().map(|&c| placement.get(c)).collect();
        let pos: Vec<Point> = placement.positions().to_vec();

        // Gradient balancing: λ0 = Σ|∇WL| / Σ|∇D| (then annealed upward).
        let mut gamma = 8.0 * bin_w.max(bin_h);
        let (lambda0, wl_scale) = {
            let mut gwl = vec![Point::ORIGIN; pos.len()];
            wirelength.eval(&pos, gamma, &mut gwl, &exec);
            let mut gd = vec![Point::ORIGIN; pos.len()];
            density.eval_with(netlist, &pos, &mut gd, &exec);
            let swl: f64 = gwl.iter().map(|g| g.manhattan()).sum();
            let sd: f64 = gd.iter().map(|g| g.manhattan()).sum();
            let lambda0 = if sd > 1e-12 { swl / sd } else { 1.0 };
            // Scale wirelength so gradients are O(1) per cell.
            let wl_scale = if swl > 1e-12 {
                movable.len() as f64 / swl
            } else {
                1.0
            };
            (lambda0 * wl_scale, wl_scale)
        };

        let mut lambda = lambda0;
        let mut trace = Vec::new();
        let mut outer_done = 0;
        let mut total_evals = 0usize;
        let bin_area = bin_w * bin_h;
        let step_hint = 0.5 * bin_w.max(bin_h);
        let mut precond: Vec<f64> = Vec::new();

        for outer in 0..self.config.max_outer {
            obs.checkpoint()?;
            if let Some(e) = extra.as_deref_mut() {
                e.begin_outer(outer, density.overflow(), placement.positions());
            }
            // The diagonal preconditioner tracks λ, so rebuild it every
            // outer iteration.
            build_preconditioner(netlist, &movable, wl_scale, lambda, bin_area, &mut precond);
            let solve = {
                let mut obj = Composed {
                    netlist,
                    movable: &movable,
                    pos: placement.positions().to_vec(),
                    grad_full: vec![Point::ORIGIN; placement.len()],
                    dgrad: vec![Point::ORIGIN; placement.len()],
                    density: &mut density,
                    wirelength: &mut wirelength,
                    extra: extra.as_deref_mut(),
                    gamma,
                    lambda,
                    bounds: &bounds,
                    wl_scale,
                    exec: &exec,
                };
                let mut r = minimize_nesterov(
                    &mut obj,
                    &mut x,
                    &precond,
                    &NesterovOptions {
                        max_iters: self.config.inner_iters,
                        step_hint,
                        ..NesterovOptions::default()
                    },
                    &exec,
                );
                // Nesterov's last evaluation was at the reference point,
                // not the returned major solution; re-evaluate at `x` so the
                // density state behind `overflow()` (and the λ schedule it
                // drives) matches the positions kept.
                let mut g = vec![Point::ORIGIN; x.len()];
                r.value = obj.eval(&x, &mut g);
                r.evals += 1;
                r
            };
            for (k, &c) in movable.iter().enumerate() {
                placement.set(c, x[k]);
            }
            let overflow = density.overflow();
            let cur_hpwl = hpwl(eval_netlist.unwrap_or(netlist), placement.positions());
            total_evals += solve.evals;
            trace.push(IterationTrace {
                outer,
                hpwl: cur_hpwl,
                overflow,
                objective: solve.value,
                lambda,
                evals: solve.evals,
            });
            outer_done = outer + 1;
            obs.report(
                Phase::Global,
                outer_done as f64 / self.config.max_outer.max(1) as f64,
            );
            if overflow <= self.config.target_overflow {
                break;
            }
            lambda *= LAMBDA_FACTOR;
            gamma = (gamma * 0.75).max(1.0);
        }
        obs.report(Phase::Global, 1.0);

        Ok(PlaceStats {
            final_hpwl: hpwl(eval_netlist.unwrap_or(netlist), placement.positions()),
            final_overflow: density.overflow(),
            outer_iters: outer_done,
            trace,
            seconds: obs.seconds_since(start),
            evals: total_evals,
        })
    }

    /// Spreads stacked initial positions: cells that all sit within a tiny
    /// bounding box are re-seeded near the region centre with deterministic
    /// jitter (a stacked start has zero wirelength gradient diversity).
    fn initialize(
        &self,
        netlist: &Netlist,
        movable: &[CellId],
        region: Rect,
        placement: &mut Placement,
    ) {
        if movable.is_empty() {
            return;
        }
        let mut bb = sdp_geom::BBox::new();
        for &c in movable {
            bb.add_point(placement.get(c));
        }
        let spread = bb.half_perimeter();
        if spread > 0.05 * region.half_perimeter() {
            return; // caller supplied a meaningful start (e.g. coarse seed)
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let c = region.center();
        let (jw, jh) = (region.width() * 0.25, region.height() * 0.25);
        for &cell in movable {
            let p = Point::new(
                c.x + (rng.random::<f64>() - 0.5) * jw,
                c.y + (rng.random::<f64>() - 0.5) * jh,
            );
            placement.set(cell, p);
        }
        placement.clamp_into(netlist, region);
    }

    /// One clustering level: place the coarse netlist, then seed each flat
    /// cell at its cluster's position (plus a small deterministic offset).
    /// The coarse pass polls `obs` too, so cancellation lands within one
    /// outer iteration even before the flat placement starts.
    fn coarse_seed(
        &self,
        netlist: &Netlist,
        design: &Design,
        placement: &mut Placement,
        obs: &Observer,
    ) -> Result<(), Cancelled> {
        let clustering: Clustering = cluster::cluster_netlist(netlist, 0.25);
        let mut coarse_pl = Placement::new(&clustering.coarse);
        // Fixed cells keep their positions in the coarse netlist.
        for c in netlist.cell_ids() {
            if netlist.cell(c).fixed {
                coarse_pl.set(clustering.cluster_of[c.ix()], placement.get(c));
            }
        }
        let sub = GlobalPlacer::new(GpConfig {
            cluster_threshold: 0, // no recursion
            max_outer: self.config.max_outer.min(14),
            ..self.config
        });
        sub.place_inflated_observed(
            &clustering.coarse,
            design,
            &mut coarse_pl,
            None,
            None,
            None,
            obs,
        )?;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9e3779b97f4a7c15);
        for c in netlist.movable_ids() {
            let at = coarse_pl.get(clustering.cluster_of[c.ix()]);
            let jitter = Point::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5);
            placement.set(c, at + jitter);
        }
        placement.clamp_into(netlist, design.region());
        Ok(())
    }
}

/// Builds the per-cell diagonal preconditioner for the Nesterov solver
/// into `out` (one entry per movable cell, reusing the allocation).
///
/// The diagonal approximates each cell's objective curvature: the smooth
/// wirelength contributes proportionally to the cell's pin count (scaled
/// like the gradient, by `wl_scale`), the density term proportionally to
/// λ times the cell's footprint in bins. Dividing the gradient by it
/// equalizes the step response of a 40-pin control cell and a wide
/// datapath cell, so one predicted step length fits both. The diagonal is
/// normalized to mean 1 (a plain sequential reduction — deterministic by
/// construction) so preconditioned gradients keep the raw gradient's
/// scale and the solver's `step_hint` logic is unaffected, then clamped
/// below to keep near-zero-curvature cells from taking huge steps.
fn build_preconditioner(
    netlist: &Netlist,
    movable: &[CellId],
    wl_scale: f64,
    lambda: f64,
    bin_area: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.reserve(movable.len());
    let mut sum = 0.0;
    for &c in movable {
        let pins = netlist.cell(c).pins.len() as f64;
        let area = netlist.cell_area(c);
        let h = wl_scale * pins + lambda * (area / bin_area.max(1e-18));
        sum += h;
        out.push(h);
    }
    if out.is_empty() {
        return;
    }
    let mean = sum / out.len() as f64;
    if mean <= 1e-18 {
        out.iter_mut().for_each(|h| *h = 1.0);
        return;
    }
    for h in out.iter_mut() {
        *h = (*h / mean).max(1e-2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_dpgen::{generate, GenConfig};

    #[test]
    fn places_tiny_design_with_spreading() {
        let mut d = generate(&GenConfig::named("dp_tiny", 3).unwrap());
        let placer = GlobalPlacer::new(GpConfig::fast());
        let before = hpwl(&d.netlist, d.placement.positions());
        let stats = placer.place(&d.netlist, &d.design, &mut d.placement, None);
        // Overflow must come down to the target band.
        assert!(
            stats.final_overflow <= 0.5,
            "overflow {}",
            stats.final_overflow
        );
        assert!(stats.final_hpwl > 0.0);
        assert!(!stats.trace.is_empty());
        // Everything inside the region.
        for c in d.netlist.movable_ids() {
            assert!(
                d.design.region().contains(d.placement.get(c)),
                "cell escaped region"
            );
        }
        let _ = before;
    }

    #[test]
    fn overflow_decreases_along_trace() {
        let mut d = generate(&GenConfig::named("dp_tiny", 5).unwrap());
        let placer = GlobalPlacer::new(GpConfig::fast());
        let stats = placer.place(&d.netlist, &d.design, &mut d.placement, None);
        let first = stats.trace.first().unwrap().overflow;
        let last = stats.trace.last().unwrap().overflow;
        assert!(
            last < first || last <= placer.config().target_overflow,
            "overflow should fall: {first} → {last}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut d = generate(&GenConfig::named("dp_tiny", 9).unwrap());
            let placer = GlobalPlacer::new(GpConfig::fast());
            placer.place(&d.netlist, &d.design, &mut d.placement, None);
            d.placement.positions().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn thread_count_does_not_change_the_placement() {
        let run = |threads: usize| {
            let mut d = generate(&GenConfig::named("dp_tiny", 9).unwrap());
            let placer = GlobalPlacer::new(GpConfig {
                threads,
                ..GpConfig::fast()
            });
            placer.place(&d.netlist, &d.design, &mut d.placement, None);
            d.placement.positions().to_vec()
        };
        let p1 = run(1);
        for threads in [2usize, 4] {
            let pn = run(threads);
            assert_eq!(p1.len(), pn.len());
            for (k, (a, b)) in p1.iter().zip(&pn).enumerate() {
                assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits()),
                    "cell {k} differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn default_solver_tracks_evals_in_trace() {
        let mut d = generate(&GenConfig::named("dp_tiny", 3).unwrap());
        let placer = GlobalPlacer::new(GpConfig::fast());
        let stats = placer.place(&d.netlist, &d.design, &mut d.placement, None);
        assert!(stats.evals > 0);
        assert_eq!(
            stats.evals,
            stats.trace.iter().map(|t| t.evals).sum::<usize>()
        );
        assert!(stats.trace.iter().all(|t| t.evals > 0));
    }

    #[test]
    fn wa_model_also_places() {
        let mut d = generate(&GenConfig::named("dp_tiny", 4).unwrap());
        let placer = GlobalPlacer::new(GpConfig {
            model: WirelengthModel::Wa,
            ..GpConfig::fast()
        });
        let stats = placer.place(&d.netlist, &d.design, &mut d.placement, None);
        assert!(stats.final_overflow <= 0.5);
    }

    /// A do-nothing extra term must not change the result.
    struct Noop;
    impl ExtraTerm for Noop {
        fn eval(&mut self, _nl: &Netlist, _pos: &[Point], _grad: &mut [Point]) -> f64 {
            0.0
        }
    }

    #[test]
    fn noop_extra_term_matches_baseline() {
        let place = |extra: bool| {
            let mut d = generate(&GenConfig::named("dp_tiny", 2).unwrap());
            let placer = GlobalPlacer::new(GpConfig::fast());
            let mut noop = Noop;
            let e: Option<&mut dyn ExtraTerm> = if extra { Some(&mut noop) } else { None };
            placer.place(&d.netlist, &d.design, &mut d.placement, e);
            d.placement.positions().to_vec()
        };
        assert_eq!(place(false), place(true));
    }

    #[test]
    fn multilevel_path_produces_sane_placement() {
        // Force the clustering V-cycle even on the tiny design.
        let mut d = generate(&GenConfig::named("dp_tiny", 6).unwrap());
        let placer = GlobalPlacer::new(GpConfig {
            cluster_threshold: 50,
            ..GpConfig::fast()
        });
        let stats = placer.place(&d.netlist, &d.design, &mut d.placement, None);
        assert!(
            stats.final_overflow <= 0.5,
            "overflow {}",
            stats.final_overflow
        );
        for c in d.netlist.movable_ids() {
            assert!(d.design.region().contains(d.placement.get(c)));
        }
    }

    #[test]
    fn explicit_bin_resolution_is_respected() {
        let mut d = generate(&GenConfig::named("dp_tiny", 7).unwrap());
        let placer = GlobalPlacer::new(GpConfig {
            bins: Some(12),
            ..GpConfig::fast()
        });
        let stats = placer.place(&d.netlist, &d.design, &mut d.placement, None);
        assert!(stats.final_hpwl > 0.0);
    }

    #[test]
    fn trace_records_every_outer_iteration() {
        let mut d = generate(&GenConfig::named("dp_tiny", 8).unwrap());
        let placer = GlobalPlacer::new(GpConfig::fast());
        let stats = placer.place(&d.netlist, &d.design, &mut d.placement, None);
        assert_eq!(stats.trace.len(), stats.outer_iters);
        for (i, t) in stats.trace.iter().enumerate() {
            assert_eq!(t.outer, i);
            assert!(t.hpwl.is_finite() && t.overflow.is_finite());
            assert!(t.lambda > 0.0);
        }
    }

    #[test]
    fn fixed_cells_never_move() {
        let mut d = generate(&GenConfig::named("dp_tiny", 8).unwrap());
        let before: Vec<(sdp_netlist::CellId, Point)> = d
            .netlist
            .cell_ids()
            .filter(|&c| d.netlist.cell(c).fixed)
            .map(|c| (c, d.placement.get(c)))
            .collect();
        let placer = GlobalPlacer::new(GpConfig::fast());
        placer.place(&d.netlist, &d.design, &mut d.placement, None);
        for (c, p) in before {
            assert_eq!(d.placement.get(c), p);
        }
    }
}
