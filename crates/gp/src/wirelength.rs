//! Smooth wirelength models with analytic gradients.
//!
//! Global placement needs a differentiable stand-in for the half-perimeter
//! wirelength. Two classic models are provided:
//!
//! * **LSE** (log-sum-exp, the NTUplace3 model):
//!   `WL(e) = γ·ln Σᵢ e^{xᵢ/γ} + γ·ln Σᵢ e^{−xᵢ/γ}` per axis — a smooth
//!   over-approximation of `max − min` that approaches HPWL as γ → 0.
//! * **WA** (weighted-average, the model this research group introduced at
//!   DAC'11): `WL(e) = Σᵢ xᵢ e^{xᵢ/γ} / Σᵢ e^{xᵢ/γ} − Σᵢ xᵢ e^{−xᵢ/γ} / Σᵢ
//!   e^{−xᵢ/γ}` — a smooth under-approximation with provably smaller
//!   modelling error than LSE for the same γ.
//!
//! Both are evaluated with max-shifted exponentials for numerical
//! stability, and accumulate gradients per *cell* (pin offsets are rigid).

use crate::exec::{chunk_count, chunk_range, Executor};
use sdp_geom::Point;
use sdp_netlist::{NetId, Netlist};

/// Which smooth wirelength model the placer differentiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WirelengthModel {
    /// Log-sum-exp (NTUplace3).
    #[default]
    Lse,
    /// Weighted-average (DAC'11 / TCAD'13).
    Wa,
}

/// Exact total weighted HPWL at the given positions (`pos[cell_ix]` are
/// cell centres).
///
/// # Examples
///
/// ```
/// # use sdp_netlist::{NetlistBuilder, PinDir};
/// # use sdp_geom::Point;
/// # let mut b = NetlistBuilder::new();
/// # let l = b.add_lib_cell("INV", 1.0, 1.0, 1, 1);
/// # let u = b.add_cell("u", l); let v = b.add_cell("v", l);
/// # b.add_net("n", [(u, Point::ORIGIN, PinDir::Output), (v, Point::ORIGIN, PinDir::Input)]);
/// # let nl = b.finish().unwrap();
/// let pos = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
/// assert_eq!(sdp_gp::hpwl(&nl, &pos), 7.0);
/// ```
pub fn hpwl(netlist: &Netlist, pos: &[Point]) -> f64 {
    let mut total = 0.0;
    for n in netlist.net_ids() {
        let net = netlist.net(n);
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &p in &net.pins {
            let pin = netlist.pin(p);
            let at = pos[pin.cell.ix()] + pin.offset;
            min = min.min(at);
            max = max.max(at);
        }
        if net.pins.len() >= 2 {
            total += net.weight * ((max.x - min.x) + (max.y - min.y));
        }
    }
    total
}

/// Evaluates the smooth wirelength and accumulates `∂WL/∂(cell centre)`
/// into `grad` (which must be zeroed by the caller and have one entry per
/// cell). Fixed cells receive gradient contributions too; the caller is
/// expected to ignore them.
///
/// Returns the smooth wirelength value.
pub fn eval_wirelength(
    model: WirelengthModel,
    netlist: &Netlist,
    pos: &[Point],
    gamma: f64,
    grad: &mut [Point],
) -> f64 {
    debug_assert!(gamma > 0.0, "gamma must be positive");
    debug_assert_eq!(grad.len(), pos.len());
    let mut total = 0.0;
    // Scratch buffers reused across nets.
    let mut scratch = NetScratch::default();
    for n in netlist.net_ids() {
        total += eval_net(model, netlist, n, pos, gamma, &mut scratch, |cell, g| {
            grad[cell].x += g.x;
            grad[cell].y += g.y;
        });
    }
    total
}

/// Like [`eval_wirelength`], evaluated across `exec`'s thread pool.
///
/// Nets are split into contiguous index chunks (boundaries depend only on
/// the net count, see [`chunk_ranges`](crate::exec::chunk_ranges)); each
/// chunk records its per-net values and per-pin gradient contributions,
/// and the caller folds those records in net order. Every floating-point
/// operation therefore happens in exactly the sequence the sequential path
/// uses, making the result — total and gradient — bitwise identical to
/// [`eval_wirelength`] at any thread count.
pub fn eval_wirelength_with(
    model: WirelengthModel,
    netlist: &Netlist,
    pos: &[Point],
    gamma: f64,
    grad: &mut [Point],
    exec: &Executor,
) -> f64 {
    if exec.threads() == 1 {
        return eval_wirelength(model, netlist, pos, gamma, grad);
    }
    debug_assert!(gamma > 0.0, "gamma must be positive");
    debug_assert_eq!(grad.len(), pos.len());

    let num_nets = netlist.num_nets();
    let parts: Vec<WlChunk> = exec.map(chunk_count(num_nets, NET_CHUNK), |ci| {
        let nets = chunk_range(num_nets, NET_CHUNK, ci);
        let mut scratch = NetScratch::default();
        let mut part = WlChunk {
            // sdp-lint: allow(hot-loop-alloc) -- one exact-sized buffer per
            // 256-net chunk, amortized over the chunk's evaluation.
            values: Vec::with_capacity(nets.len()),
            // sdp-lint: allow(hot-loop-alloc) -- per-chunk deposit list;
            // grows once then amortizes across the chunk's pins.
            deposits: Vec::new(),
        };
        for i in nets {
            #[allow(
                clippy::cast_possible_truncation,
                reason = "`cell` is a `CellId` index, which is u32-backed"
            )]
            let v = eval_net(
                model,
                netlist,
                NetId::new(i),
                pos,
                gamma,
                &mut scratch,
                |cell, g| part.deposits.push((cell as u32, g)),
            );
            part.values.push(v);
        }
        part
    });

    // Reduce in chunk-index order: per-net values and per-pin deposits are
    // folded individually, replaying the sequential addition sequence.
    let mut total = 0.0;
    for part in parts {
        for v in part.values {
            total += v;
        }
        for (cell, g) in part.deposits {
            let cell = cell as usize;
            grad[cell].x += g.x;
            grad[cell].y += g.y;
        }
    }
    total
}

/// Net-index chunk size for parallel evaluation. Purely a scheduling
/// granularity: results never depend on it.
const NET_CHUNK: usize = 256;

/// One chunk's contributions: per-net smooth values (in net order) and
/// per-pin gradient deposits (in pin-visit order).
struct WlChunk {
    values: Vec<f64>,
    deposits: Vec<(u32, Point)>,
}

/// Reusable per-net buffers: pin coordinates, max/min-shifted
/// exponentials, and the per-pin axis gradients. Owning them here keeps
/// [`lse_axis`]/[`wa_axis`] allocation-free per net — they are called
/// once per net per objective evaluation, squarely inside the solver's
/// inner loop.
#[derive(Default)]
struct NetScratch {
    xs: Vec<f64>,
    ys: Vec<f64>,
    e_p: Vec<f64>,
    e_n: Vec<f64>,
    gx: Vec<f64>,
    gy: Vec<f64>,
}

/// Evaluates one net, emitting each pin's weighted gradient contribution
/// through `emit(cell_ix, contribution)` in pin order. Returns the net's
/// weighted smooth wirelength (`0.0` for degenerate nets).
///
/// Both the sequential and the parallel evaluators funnel through this
/// function, so their arithmetic is identical by construction.
#[inline]
fn eval_net(
    model: WirelengthModel,
    netlist: &Netlist,
    n: NetId,
    pos: &[Point],
    gamma: f64,
    scratch: &mut NetScratch,
    mut emit: impl FnMut(usize, Point),
) -> f64 {
    let net = netlist.net(n);
    if net.pins.len() < 2 {
        return 0.0;
    }
    scratch.xs.clear();
    scratch.ys.clear();
    for &p in &net.pins {
        let pin = netlist.pin(p);
        let at = pos[pin.cell.ix()] + pin.offset;
        scratch.xs.push(at.x);
        scratch.ys.push(at.y);
    }
    let w = net.weight;
    let NetScratch {
        xs,
        ys,
        e_p,
        e_n,
        gx,
        gy,
    } = scratch;
    let (vx, vy) = match model {
        WirelengthModel::Lse => (
            lse_axis(xs, gamma, e_p, e_n, gx),
            lse_axis(ys, gamma, e_p, e_n, gy),
        ),
        WirelengthModel::Wa => (
            wa_axis(xs, gamma, e_p, e_n, gx),
            wa_axis(ys, gamma, e_p, e_n, gy),
        ),
    };
    for (k, &p) in net.pins.iter().enumerate() {
        let cell = netlist.pin(p).cell.ix();
        emit(cell, Point::new(w * scratch.gx[k], w * scratch.gy[k]));
    }
    w * (vx + vy)
}

/// Fills the shared max/min-shifted exponential buffers for one axis:
/// `e_p[k] = e^{(x_k − max)/γ}` and `e_n[k] = e^{(min − x_k)/γ}`, so no
/// exponential ever overflows. Returns their sums `(Σe_p, Σe_n)`.
fn shifted_exps(
    xs: &[f64],
    gamma: f64,
    e_p: &mut Vec<f64>,
    e_n: &mut Vec<f64>,
) -> (f64, f64, f64, f64) {
    let x_max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let x_min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    e_p.clear();
    e_p.extend(xs.iter().map(|&x| ((x - x_max) / gamma).exp()));
    e_n.clear();
    e_n.extend(xs.iter().map(|&x| ((x_min - x) / gamma).exp()));
    (x_max, x_min, e_p.iter().sum(), e_n.iter().sum())
}

/// LSE on one axis: the value, with per-pin gradients written to `grad`.
///
/// `γ ln Σ e^{(x−M)/γ} + M` for the max side (M = max x), mirrored for the
/// min side. The caller owns the scratch buffers (see [`NetScratch`]), so
/// repeated evaluation allocates nothing once they reach net degree.
fn lse_axis(
    xs: &[f64],
    gamma: f64,
    e_p: &mut Vec<f64>,
    e_n: &mut Vec<f64>,
    grad: &mut Vec<f64>,
) -> f64 {
    let (x_max, x_min, sum_p, sum_n) = shifted_exps(xs, gamma, e_p, e_n);
    let value = gamma * sum_p.ln() + x_max + gamma * sum_n.ln() - x_min;
    grad.clear();
    grad.extend((0..xs.len()).map(|k| e_p[k] / sum_p - e_n[k] / sum_n));
    value
}

/// WA on one axis: the value, with per-pin gradients written to `grad`.
fn wa_axis(
    xs: &[f64],
    gamma: f64,
    e_p: &mut Vec<f64>,
    e_n: &mut Vec<f64>,
    grad: &mut Vec<f64>,
) -> f64 {
    let (_, _, sp, sn) = shifted_exps(xs, gamma, e_p, e_n);
    let (mut sxp, mut sxn) = (0.0, 0.0);
    for (k, &x) in xs.iter().enumerate() {
        sxp += x * e_p[k];
        sxn += x * e_n[k];
    }
    let f_max = sxp / sp; // smooth max
    let f_min = sxn / sn; // smooth min
    grad.clear();
    grad.extend(xs.iter().enumerate().map(|(k, &x)| {
        let g_max = e_p[k] * (1.0 + (x - f_max) / gamma) / sp;
        let g_min = e_n[k] * (1.0 - (x - f_min) / gamma) / sn;
        g_max - g_min
    }));
    f_max - f_min
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_netlist::{NetlistBuilder, PinDir};

    fn chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("INV", 1.0, 1.0, 1, 1);
        let cells: Vec<_> = (0..n).map(|i| b.add_cell(&format!("u{i}"), l)).collect();
        for w in cells.windows(2) {
            b.add_net(
                &format!("n{}", w[0]),
                [
                    (w[0], Point::ORIGIN, PinDir::Output),
                    (w[1], Point::ORIGIN, PinDir::Input),
                ],
            );
        }
        b.finish().unwrap()
    }

    fn star() -> Netlist {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("INV", 1.0, 1.0, 1, 1);
        let cells: Vec<_> = (0..5).map(|i| b.add_cell(&format!("u{i}"), l)).collect();
        b.add_net(
            "hub",
            cells.iter().enumerate().map(|(i, &c)| {
                (
                    c,
                    Point::ORIGIN,
                    if i == 0 {
                        PinDir::Output
                    } else {
                        PinDir::Input
                    },
                )
            }),
        );
        b.finish().unwrap()
    }

    fn spread_positions(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i as f64 * 7.3) % 13.0, (i as f64 * 3.1) % 9.0))
            .collect()
    }

    #[test]
    fn lse_upper_bounds_hpwl_wa_lower_bounds() {
        let nl = star();
        let pos = spread_positions(5);
        let h = hpwl(&nl, &pos);
        let mut g = vec![Point::ORIGIN; 5];
        let lse = eval_wirelength(WirelengthModel::Lse, &nl, &pos, 1.0, &mut g);
        g.fill(Point::ORIGIN);
        let wa = eval_wirelength(WirelengthModel::Wa, &nl, &pos, 1.0, &mut g);
        assert!(lse >= h, "LSE {lse} >= HPWL {h}");
        assert!(wa <= h + 1e-9, "WA {wa} <= HPWL {h}");
    }

    #[test]
    fn both_models_converge_to_hpwl_as_gamma_shrinks() {
        let nl = star();
        let pos = spread_positions(5);
        let h = hpwl(&nl, &pos);
        let mut g = vec![Point::ORIGIN; 5];
        for model in [WirelengthModel::Lse, WirelengthModel::Wa] {
            let coarse = eval_wirelength(model, &nl, &pos, 2.0, &mut g);
            g.fill(Point::ORIGIN);
            let fine = eval_wirelength(model, &nl, &pos, 0.05, &mut g);
            g.fill(Point::ORIGIN);
            assert!(
                (fine - h).abs() < (coarse - h).abs(),
                "{model:?}: error must shrink with gamma"
            );
            assert!((fine - h).abs() / h < 0.02, "{model:?} fine error too big");
        }
    }

    /// Central finite differences validate the analytic gradient.
    fn check_gradient(model: WirelengthModel, netlist: &Netlist, pos: &[Point], gamma: f64) {
        let n = pos.len();
        let mut grad = vec![Point::ORIGIN; n];
        eval_wirelength(model, netlist, pos, gamma, &mut grad);
        let h = 1e-5;
        let mut scratch = vec![Point::ORIGIN; n];
        for i in 0..n {
            for axis in 0..2 {
                let mut p1 = pos.to_vec();
                let mut p2 = pos.to_vec();
                if axis == 0 {
                    p1[i].x -= h;
                    p2[i].x += h;
                } else {
                    p1[i].y -= h;
                    p2[i].y += h;
                }
                scratch.fill(Point::ORIGIN);
                let f1 = eval_wirelength(model, netlist, &p1, gamma, &mut scratch);
                scratch.fill(Point::ORIGIN);
                let f2 = eval_wirelength(model, netlist, &p2, gamma, &mut scratch);
                let fd = (f2 - f1) / (2.0 * h);
                let an = if axis == 0 { grad[i].x } else { grad[i].y };
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                    "{model:?} cell {i} axis {axis}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn lse_gradient_matches_finite_difference() {
        let nl = star();
        check_gradient(WirelengthModel::Lse, &nl, &spread_positions(5), 0.8);
        let chain_nl = chain(6);
        check_gradient(WirelengthModel::Lse, &chain_nl, &spread_positions(6), 0.5);
    }

    #[test]
    fn wa_gradient_matches_finite_difference() {
        let nl = star();
        check_gradient(WirelengthModel::Wa, &nl, &spread_positions(5), 0.8);
        let chain_nl = chain(6);
        check_gradient(WirelengthModel::Wa, &chain_nl, &spread_positions(6), 0.5);
    }

    #[test]
    fn stable_at_extreme_coordinates() {
        // Without max-shifting these would overflow e^{1e6}.
        let nl = star();
        let pos: Vec<Point> = (0..5)
            .map(|i| Point::new(1e6 + i as f64, -1e6 - i as f64))
            .collect();
        let mut g = vec![Point::ORIGIN; 5];
        for model in [WirelengthModel::Lse, WirelengthModel::Wa] {
            g.fill(Point::ORIGIN);
            let v = eval_wirelength(model, &nl, &pos, 1.0, &mut g);
            assert!(v.is_finite(), "{model:?} value finite");
            assert!(g.iter().all(|p| p.is_finite()), "{model:?} grad finite");
        }
    }

    #[test]
    fn pin_offsets_shift_the_bbox() {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("W", 4.0, 1.0, 1, 1);
        let u = b.add_cell("u", l);
        let v = b.add_cell("v", l);
        b.add_net(
            "n",
            [
                (u, Point::new(2.0, 0.0), PinDir::Output),
                (v, Point::new(-2.0, 0.0), PinDir::Input),
            ],
        );
        let nl = b.finish().unwrap();
        let pos = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        // pins at 2 and 8 → HPWL 6, not 10.
        assert_eq!(hpwl(&nl, &pos), 6.0);
    }

    #[test]
    fn parallel_eval_is_bitwise_identical_to_sequential() {
        use crate::exec::Executor;
        use sdp_dpgen::{generate, GenConfig};
        let d = generate(&GenConfig::named("dp_tiny", 11).unwrap());
        let pos = d.placement.positions();
        for model in [WirelengthModel::Lse, WirelengthModel::Wa] {
            let mut g1 = vec![Point::ORIGIN; pos.len()];
            let v1 = eval_wirelength(model, &d.netlist, pos, 0.7, &mut g1);
            for threads in [2usize, 4, 8] {
                let exec = Executor::new(threads);
                let mut gn = vec![Point::ORIGIN; pos.len()];
                let vn = eval_wirelength_with(model, &d.netlist, pos, 0.7, &mut gn, &exec);
                assert_eq!(
                    v1.to_bits(),
                    vn.to_bits(),
                    "{model:?} value @ {threads} threads"
                );
                for (k, (a, b)) in g1.iter().zip(&gn).enumerate() {
                    assert_eq!(
                        (a.x.to_bits(), a.y.to_bits()),
                        (b.x.to_bits(), b.y.to_bits()),
                        "{model:?} grad[{k}] @ {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_pushes_pins_together() {
        let nl = chain(2);
        let pos = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let mut g = vec![Point::ORIGIN; 2];
        eval_wirelength(WirelengthModel::Lse, &nl, &pos, 1.0, &mut g);
        assert!(
            g[0].x < 0.0,
            "left cell pulled right means negative grad? g0={}",
            g[0].x
        );
        assert!(g[1].x > 0.0);
        // Descending the gradient shrinks wirelength: x0 −= η g0 moves x0 right.
    }
}
