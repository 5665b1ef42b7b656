//! Preconditioned Nesterov accelerated-gradient minimizer (ePlace-style).
//!
//! The inner solver of the global placer (Lu et al., *ePlace*, TODAES'15;
//! carried forward by RePlAce and DG-RePlAce): a major/reference solution
//! pair driven by Nesterov's
//! optimal first-order momentum schedule, a **Lipschitz-constant step
//! prediction** in place of a back-tracking line search (typically 1–2
//! objective evaluations per iteration where Armijo back-tracking may
//! burn up to 20), and a **per-cell diagonal preconditioner** that
//! equalizes the force scale between high-pin-count cells and large
//! cells so one step length fits every coordinate.
//!
//! Determinism: every vector reduction in this module (norms, step
//! prediction distances) is computed as fixed-size chunk partials mapped
//! over the [`Executor`] and folded in chunk-index order — boundaries
//! depend only on the vector length, never on the thread count — so the
//! solver trajectory is bitwise identical at any `--threads` setting.

use crate::exec::{chunk_count, chunk_range, Executor};
use sdp_geom::Point;

/// A differentiable objective over a point vector.
pub trait Objective {
    /// Evaluates the objective at `x`, writing the gradient into `grad`
    /// (same length as `x`, pre-zeroed by the *callee*). Returns the value.
    fn eval(&mut self, x: &[Point], grad: &mut [Point]) -> f64;

    /// Optional projection applied after every accepted step (e.g. clamping
    /// into the placement region).
    fn project(&self, _x: &mut [Point]) {}
}

/// Result of a [`minimize_nesterov`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveResult {
    /// Final objective value.
    pub value: f64,
    /// Iterations actually performed.
    pub iters: usize,
    /// Function evaluations performed.
    pub evals: usize,
    /// `true` if stopped on the gradient tolerance.
    pub converged: bool,
}

/// Options for [`minimize_nesterov`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NesterovOptions {
    /// Maximum Nesterov iterations.
    pub max_iters: usize,
    /// Stop when the gradient's RMS norm falls below this.
    pub grad_tol: f64,
    /// Initial trial step as a distance: the first step moves cells about
    /// `step_hint` units (the caller usually passes a bin-width fraction).
    pub step_hint: f64,
    /// A predicted step is accepted when it is at least this fraction of
    /// the step just tried (the ePlace back-tracking criterion).
    pub accept_ratio: f64,
    /// Maximum step re-predictions per iteration.
    pub max_backtracks: usize,
    /// Stop when the relative objective change stays below this for
    /// [`NesterovOptions::stall_window`] consecutive iterations.
    pub stall_tol: f64,
    /// Consecutive stalled iterations that end the run.
    pub stall_window: usize,
}

impl Default for NesterovOptions {
    fn default() -> Self {
        NesterovOptions {
            max_iters: 50,
            grad_tol: 1e-6,
            step_hint: 1.0,
            accept_ratio: 0.95,
            max_backtracks: 6,
            stall_tol: 1e-4,
            stall_window: 3,
        }
    }
}

/// Reduction chunk size: fixed, so partial-sum boundaries depend only on
/// the vector length (see [`chunk_range`]).
const REDUCE_CHUNK: usize = 4096;

/// Sums `term(i)` for `i in 0..len` as chunk partials folded in index
/// order — bitwise identical at any executor thread count. Chunk bounds
/// are computed by index so the solver's inner loop allocates nothing.
fn chunked_sum(exec: &Executor, len: usize, term: &(impl Fn(usize) -> f64 + Sync)) -> f64 {
    let parts: Vec<f64> = exec.map(chunk_count(len, REDUCE_CHUNK), |ci| {
        let mut s = 0.0;
        for i in chunk_range(len, REDUCE_CHUNK, ci) {
            s += term(i);
        }
        s
    });
    let mut total = 0.0;
    for p in &parts {
        total += p;
    }
    total
}

/// RMS norm of a point vector via the chunked reduction.
fn rms(exec: &Executor, a: &[Point]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    (chunked_sum(exec, a.len(), &|i| a[i].norm_sq()) / a.len() as f64).sqrt()
}

/// Euclidean distance between two equal-length point vectors via the
/// chunked reduction.
fn dist(exec: &Executor, a: &[Point], b: &[Point]) -> f64 {
    chunked_sum(exec, a.len(), &|i| (a[i] - b[i]).norm_sq()).sqrt()
}

/// Applies the diagonal preconditioner: `out[i] = g[i] / h[i]`. An empty
/// `h` is the identity.
fn precondition(out: &mut [Point], g: &[Point], h: &[f64]) {
    if h.is_empty() {
        out.copy_from_slice(g);
    } else {
        for i in 0..g.len() {
            out[i] = g[i] * (1.0 / h[i]);
        }
    }
}

/// Minimizes `obj` starting from `x` (updated in place) with Nesterov's
/// accelerated gradient method.
///
/// `precond` is a per-coordinate positive diagonal (one entry per point;
/// an empty slice means identity): the descent direction is `g[i] /
/// precond[i]`, which equalizes step response between coordinates whose
/// objective curvature differs by orders of magnitude — in placement,
/// high-pin-count cells versus large-area cells. The caller rebuilds it
/// per outer iteration as the density weight λ grows.
///
/// The step length is predicted from the local Lipschitz constant
/// (`|Δv| / |Δĝ|` between consecutive reference points) and re-predicted
/// at the trial point until it stabilizes (the ePlace back-tracking
/// rule, [`NesterovOptions::accept_ratio`]) — usually 1–2 objective
/// evaluations per iteration. Momentum restarts (the reference sequence
/// collapses onto the major sequence) whenever the objective increases.
///
/// On return `x` holds the best major solution; the reported value is
/// the objective at the last accepted reference point.
///
/// # Panics
///
/// Panics if `precond` is non-empty with a length different from `x`.
pub fn minimize_nesterov<O: Objective>(
    obj: &mut O,
    x: &mut [Point],
    precond: &[f64],
    opts: &NesterovOptions,
    exec: &Executor,
) -> SolveResult {
    let n = x.len();
    assert!(
        precond.is_empty() || precond.len() == n,
        "preconditioner length {} != vector length {n}",
        precond.len()
    );

    // Major (u) and reference (v) sequences. `x` enters as u_0 = v_0.
    let mut u: Vec<Point> = x.to_vec();
    let mut v: Vec<Point> = x.to_vec();
    let mut grad = vec![Point::ORIGIN; n];
    let mut value = obj.eval(&v, &mut grad);
    let mut evals = 1usize;
    let mut pg = vec![Point::ORIGIN; n];
    precondition(&mut pg, &grad, precond);

    // Scratch for the trial state so the hot loop allocates nothing.
    let mut u_new = vec![Point::ORIGIN; n];
    let mut v_new = vec![Point::ORIGIN; n];
    let mut grad_new = vec![Point::ORIGIN; n];
    let mut pg_new = vec![Point::ORIGIN; n];

    // First step moves cells about `step_hint` units.
    let mut alpha = opts.step_hint / rms(exec, &pg).max(1e-18);
    let mut ak = 1.0f64;
    let mut stalled = 0usize;

    for iter in 0..opts.max_iters {
        let gnorm = rms(exec, &grad);
        if gnorm < opts.grad_tol {
            x.copy_from_slice(&u);
            return SolveResult {
                value,
                iters: iter,
                evals,
                converged: true,
            };
        }

        let ak_next = 0.5 * (1.0 + (4.0 * ak * ak + 1.0).sqrt());
        let coef = (ak - 1.0) / ak_next;

        // Trial step + Lipschitz re-prediction (ePlace back-tracking).
        let mut accepted_alpha = alpha;
        let mut value_new = value;
        for bt in 0..opts.max_backtracks.max(1) {
            for i in 0..n {
                u_new[i] = v[i] - pg[i] * accepted_alpha;
            }
            obj.project(&mut u_new);
            for i in 0..n {
                v_new[i] = u_new[i] + (u_new[i] - u[i]) * coef;
            }
            obj.project(&mut v_new);
            grad_new.fill(Point::ORIGIN);
            value_new = obj.eval(&v_new, &mut grad_new);
            evals += 1;
            precondition(&mut pg_new, &grad_new, precond);
            // Local Lipschitz prediction between consecutive references.
            let dv = dist(exec, &v_new, &v);
            let dg = dist(exec, &pg_new, &pg);
            let predicted = if dg > 1e-18 { dv / dg } else { accepted_alpha };
            if predicted >= opts.accept_ratio * accepted_alpha || bt + 1 == opts.max_backtracks {
                accepted_alpha = predicted.max(1e-18);
                break;
            }
            accepted_alpha = predicted.max(1e-18);
        }

        // Relative objective progress drives the stall stop.
        let rel = (value - value_new).abs() / value.abs().max(1e-18);
        let increased = value_new > value;

        std::mem::swap(&mut u, &mut u_new);
        std::mem::swap(&mut v, &mut v_new);
        std::mem::swap(&mut grad, &mut grad_new);
        std::mem::swap(&mut pg, &mut pg_new);
        value = value_new;
        alpha = accepted_alpha;
        // Momentum restart on objective increase: the reference sequence
        // collapses onto the major one next iteration (coef = 0).
        ak = if increased { 1.0 } else { ak_next };

        if rel < opts.stall_tol {
            stalled += 1;
            if stalled >= opts.stall_window {
                x.copy_from_slice(&u);
                return SolveResult {
                    value,
                    iters: iter + 1,
                    evals,
                    converged: true,
                };
            }
        } else {
            stalled = 0;
        }
    }

    x.copy_from_slice(&u);
    SolveResult {
        value,
        iters: opts.max_iters,
        evals,
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convex quadratic bowl: f = Σ |p − target|².
    struct Bowl {
        targets: Vec<Point>,
    }

    impl Objective for Bowl {
        fn eval(&mut self, x: &[Point], grad: &mut [Point]) -> f64 {
            let mut v = 0.0;
            for i in 0..x.len() {
                let d = x[i] - self.targets[i];
                v += d.norm_sq();
                grad[i] = d * 2.0;
            }
            v
        }
    }

    /// Rosenbrock in 2-D embedded in one Point.
    struct Rosenbrock;

    impl Objective for Rosenbrock {
        fn eval(&mut self, x: &[Point], grad: &mut [Point]) -> f64 {
            let (a, b) = (x[0].x, x[0].y);
            let v = (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2);
            grad[0] = Point::new(
                -2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                200.0 * (b - a * a),
            );
            v
        }
    }

    /// Projection must be respected: constrain to x ≥ 1.
    struct ProjectedBowl;

    impl Objective for ProjectedBowl {
        fn eval(&mut self, x: &[Point], grad: &mut [Point]) -> f64 {
            grad[0] = x[0] * 2.0;
            x[0].norm_sq()
        }
        fn project(&self, x: &mut [Point]) {
            x[0].x = x[0].x.max(1.0);
        }
    }

    fn seq() -> Executor {
        Executor::sequential()
    }

    #[test]
    fn minimizes_quadratic_bowl() {
        let targets: Vec<Point> = (0..10)
            .map(|i| Point::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut bowl = Bowl {
            targets: targets.clone(),
        };
        let mut x = vec![Point::new(100.0, 100.0); 10];
        let r = minimize_nesterov(
            &mut bowl,
            &mut x,
            &[],
            &NesterovOptions {
                max_iters: 300,
                step_hint: 10.0,
                stall_tol: 0.0,
                ..NesterovOptions::default()
            },
            &seq(),
        );
        assert!(r.value < 1e-4, "value {} after {} iters", r.value, r.iters);
        for (p, t) in x.iter().zip(&targets) {
            assert!((*p - *t).norm() < 1e-2);
        }
    }

    #[test]
    fn makes_progress_on_rosenbrock() {
        let mut x = vec![Point::new(-1.2, 1.0)];
        let mut g = vec![Point::ORIGIN];
        let start = Rosenbrock.eval(&x, &mut g);
        let r = minimize_nesterov(
            &mut Rosenbrock,
            &mut x,
            &[],
            &NesterovOptions {
                max_iters: 500,
                step_hint: 0.5,
                stall_tol: 0.0,
                ..NesterovOptions::default()
            },
            &seq(),
        );
        assert!(r.value < start * 0.01, "start {start}, end {}", r.value);
    }

    #[test]
    fn projection_is_enforced() {
        let mut x = vec![Point::new(5.0, 5.0)];
        minimize_nesterov(
            &mut ProjectedBowl,
            &mut x,
            &[],
            &NesterovOptions {
                max_iters: 300,
                step_hint: 2.0,
                stall_tol: 0.0,
                ..NesterovOptions::default()
            },
            &seq(),
        );
        assert!(x[0].x >= 1.0 - 1e-12, "x constrained: {}", x[0].x);
        assert!(x[0].y.abs() < 0.5, "y should shrink toward 0: {}", x[0].y);
    }

    #[test]
    fn zero_length_vector_is_ok() {
        let mut bowl = Bowl { targets: vec![] };
        let mut x: Vec<Point> = vec![];
        let r = minimize_nesterov(&mut bowl, &mut x, &[], &NesterovOptions::default(), &seq());
        assert!(r.converged);
    }

    #[test]
    fn already_at_minimum_converges_immediately() {
        let mut bowl = Bowl {
            targets: vec![Point::new(1.0, 2.0)],
        };
        let mut x = vec![Point::new(1.0, 2.0)];
        let r = minimize_nesterov(&mut bowl, &mut x, &[], &NesterovOptions::default(), &seq());
        assert!(r.converged);
        assert_eq!(r.iters, 0);
    }

    #[test]
    fn preconditioner_rescales_but_still_converges() {
        let targets: Vec<Point> = (0..8).map(|i| Point::new(i as f64, 1.0)).collect();
        let mut bowl = Bowl {
            targets: targets.clone(),
        };
        let mut x = vec![Point::new(50.0, -50.0); 8];
        // A wildly uneven diagonal must not break convergence.
        let h: Vec<f64> = (0..8).map(|i| 1.0 + i as f64 * 3.0).collect();
        let r = minimize_nesterov(
            &mut bowl,
            &mut x,
            &h,
            &NesterovOptions {
                max_iters: 500,
                step_hint: 10.0,
                stall_tol: 0.0,
                ..NesterovOptions::default()
            },
            &seq(),
        );
        assert!(r.value < 1e-2, "value {}", r.value);
    }

    #[test]
    #[should_panic(expected = "preconditioner length")]
    fn wrong_precond_length_panics() {
        let mut bowl = Bowl {
            targets: vec![Point::ORIGIN; 4],
        };
        let mut x = vec![Point::ORIGIN; 4];
        minimize_nesterov(
            &mut bowl,
            &mut x,
            &[1.0, 2.0],
            &NesterovOptions::default(),
            &seq(),
        );
    }

    #[test]
    fn chunked_reductions_match_at_any_thread_count() {
        let a: Vec<Point> = (0..10_000)
            .map(|i| Point::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let b: Vec<Point> = (0..10_000)
            .map(|i| Point::new((i as f64 * 1.3).cos(), (i as f64).sqrt()))
            .collect();
        let e1 = Executor::new(1);
        let (r1, d1) = (rms(&e1, &a), dist(&e1, &a, &b));
        for threads in [2usize, 4, 8] {
            let en = Executor::new(threads);
            assert_eq!(rms(&en, &a).to_bits(), r1.to_bits(), "{threads} threads");
            assert_eq!(
                dist(&en, &a, &b).to_bits(),
                d1.to_bits(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn solver_trajectory_is_thread_count_independent() {
        let run = |threads: usize| {
            let targets: Vec<Point> = (0..5000)
                .map(|i| Point::new((i % 71) as f64, (i % 37) as f64))
                .collect();
            let mut bowl = Bowl { targets };
            let mut x = vec![Point::new(500.0, -300.0); 5000];
            let exec = Executor::new(threads);
            let r = minimize_nesterov(
                &mut bowl,
                &mut x,
                &[],
                &NesterovOptions {
                    max_iters: 40,
                    step_hint: 25.0,
                    stall_tol: 0.0,
                    ..NesterovOptions::default()
                },
                &exec,
            );
            (r.value.to_bits(), r.evals, x)
        };
        let (v1, e1, x1) = run(1);
        let (v4, e4, x4) = run(4);
        assert_eq!(v1, v4);
        assert_eq!(e1, e4);
        for (a, b) in x1.iter().zip(&x4) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
    }
}
