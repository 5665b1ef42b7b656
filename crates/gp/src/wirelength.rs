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
//!
//! # The kernel
//!
//! [`WirelengthKernel`] is built once per global-placement call. It holds
//! a pin view of the netlist (each pin's cell and offset in net order,
//! each net's first pin and weight, and each cell's pins in net order)
//! and all evaluation scratch, which every evaluation reuses.
//!
//! **Shared exponentials.** On one net axis with maximum `M` and minimum
//! `m`, the shifted exponentials are `e_p = e^{(x−M)/γ}` and
//! `e_n = e^{(m−x)/γ}`. A pin at `M` has `e_p = e^0 = 1`, a pin at `m`
//! has `e_n = 1`, and a pin at `m`'s `e_p` is the same expression as a pin
//! at `M`'s `e_n`, `e^{(m−M)/γ}`, so it is computed once: a `k`-pin axis
//! takes `2k − 3` exponentials instead of `2k`. On a two-pin LSE axis both
//! sums are `1 + e^{(m−M)/γ}`, so it takes one exponential, one logarithm
//! and two divisions. A pin counts as being at `M` or `m` only when its
//! coordinate has the same bits, and the sharing runs only while
//! `(m − M)/γ` is finite; otherwise the axis takes every exponential as
//! written above. Each shared value is therefore the one the formula
//! gives, for every input (NaN and ±∞ coordinates included).
//!
//! **Threads.** On one thread, each net adds its pins' gradients straight
//! into the caller's buffer, net after net. On more, fixed chunks of nets
//! write each pin's weighted gradient into the pin's own slot, and fixed
//! chunks of cells then add each cell's slots in (net, position in net)
//! order — the order of the one-thread pass. Per-net values are folded in
//! net order. The value and every gradient bit are therefore the same on
//! any [`Executor`].

use crate::exec::{chunk_count, chunk_range, Executor};
use sdp_geom::Point;
use sdp_netlist::{CellId, Netlist};

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
/// into `grad` (one entry per cell, usually zeroed by the caller). Fixed
/// cells receive gradient contributions too; the caller is expected to
/// ignore them.
///
/// Returns the smooth wirelength value. This builds a one-use
/// [`WirelengthKernel`]; a caller that evaluates repeatedly should build
/// the kernel once and call [`WirelengthKernel::eval`].
pub fn eval_wirelength(
    model: WirelengthModel,
    netlist: &Netlist,
    pos: &[Point],
    gamma: f64,
    grad: &mut [Point],
) -> f64 {
    eval_wirelength_with(model, netlist, pos, gamma, grad, &Executor::sequential())
}

/// Like [`eval_wirelength`], evaluated across `exec`'s thread pool; the
/// value and every gradient bit are the same at any thread count.
pub fn eval_wirelength_with(
    model: WirelengthModel,
    netlist: &Netlist,
    pos: &[Point],
    gamma: f64,
    grad: &mut [Point],
    exec: &Executor,
) -> f64 {
    WirelengthKernel::new(model, netlist).eval(pos, gamma, grad, exec)
}

/// Net-index chunk size for parallel evaluation. Purely a scheduling
/// granularity: results never depend on it.
const NET_CHUNK: usize = 256;

/// Cell-index chunk size for the parallel gather. Purely a scheduling
/// granularity: results never depend on it.
const CELL_CHUNK: usize = 1024;

/// Where one pin's weighted gradient lands in a parallel evaluation: the
/// net chunk that evaluates the pin's net, and the pin's index among that
/// chunk's pins.
#[derive(Debug, Clone, Copy)]
struct Slot {
    chunk: u32,
    at: u32,
}

/// Scratch for one [`NET_CHUNK`]-net chunk.
#[derive(Debug, Default)]
struct NetChunk {
    scratch: NetScratch,
    /// Each net's weighted value at the last parallel evaluation.
    values: Vec<f64>,
    /// Each pin's weighted gradient at the last parallel evaluation, in
    /// pin order. The slots of nets with fewer than two pins are never
    /// written or read.
    grads: Vec<Point>,
}

/// The wirelength model over one netlist: its pin view and evaluation
/// scratch (see the module docs). Build it once per placement call and
/// evaluate it as often as needed; an evaluation allocates nothing once
/// the scratch has reached the largest net degree.
#[derive(Debug)]
pub struct WirelengthKernel {
    model: WirelengthModel,
    /// Each pin's cell and offset, net after net, in each net's pin order.
    pin_cell: Vec<CellId>,
    pin_offset: Vec<Point>,
    /// Net `n`'s pins are `net_start[n]..net_start[n + 1]` of the pin
    /// arrays.
    net_start: Vec<usize>,
    net_weight: Vec<f64>,
    /// Cell `c`'s slots are `cell_slots[cell_start[c]..cell_start[c + 1]]`,
    /// in pin order; pins of nets with fewer than two pins have none.
    cell_start: Vec<usize>,
    cell_slots: Vec<Slot>,
    /// Scratch: one entry per [`NET_CHUNK`]-net chunk.
    nets: Vec<NetChunk>,
    /// Scratch: each cell's gathered gradient, one entry per
    /// [`CELL_CHUNK`]-cell chunk.
    cells: Vec<Vec<Point>>,
}

/// What every per-net evaluation reads.
struct View<'a> {
    model: WirelengthModel,
    pin_cell: &'a [CellId],
    pin_offset: &'a [Point],
    net_start: &'a [usize],
    net_weight: &'a [f64],
    pos: &'a [Point],
    gamma: f64,
}

impl WirelengthKernel {
    /// Builds the pin view of `netlist` and sizes the scratch for `model`.
    pub fn new(model: WirelengthModel, netlist: &Netlist) -> Self {
        let (num_nets, num_cells) = (netlist.num_nets(), netlist.num_cells());
        let mut pin_cell = Vec::with_capacity(netlist.num_pins());
        let mut pin_offset = Vec::with_capacity(netlist.num_pins());
        let mut net_start = Vec::with_capacity(num_nets + 1);
        let mut net_weight = Vec::with_capacity(num_nets);
        let mut cell_start = vec![0usize; num_cells + 1];
        for n in netlist.net_ids() {
            let net = netlist.net(n);
            net_start.push(pin_cell.len());
            net_weight.push(net.weight);
            for &p in &net.pins {
                let pin = netlist.pin(p);
                pin_cell.push(pin.cell);
                pin_offset.push(pin.offset);
                if net.pins.len() >= 2 {
                    cell_start[pin.cell.ix() + 1] += 1;
                }
            }
        }
        net_start.push(pin_cell.len());
        for c in 0..num_cells {
            cell_start[c + 1] += cell_start[c];
        }

        // Nets in index order visit the pins in index order, so every
        // cell's slots come out in (net, position in net) order.
        let mut next = cell_start.clone();
        let mut cell_slots = vec![Slot { chunk: 0, at: 0 }; cell_start[num_cells]];
        let nets = (0..chunk_count(num_nets, NET_CHUNK))
            .map(|ci| {
                let range = chunk_range(num_nets, NET_CHUNK, ci);
                let base = net_start[range.start];
                for n in range.clone() {
                    let pins = net_start[n]..net_start[n + 1];
                    if pins.len() < 2 {
                        continue;
                    }
                    for k in pins {
                        let c = pin_cell[k].ix();
                        cell_slots[next[c]] = Slot {
                            chunk: narrow(ci),
                            at: narrow(k - base),
                        };
                        next[c] += 1;
                    }
                }
                NetChunk {
                    values: Vec::with_capacity(range.len()),
                    grads: vec![Point::ORIGIN; net_start[range.end] - base],
                    ..NetChunk::default()
                }
            })
            .collect();
        let cells = (0..chunk_count(num_cells, CELL_CHUNK))
            .map(|ci| Vec::with_capacity(chunk_range(num_cells, CELL_CHUNK, ci).len()))
            .collect();
        WirelengthKernel {
            model,
            pin_cell,
            pin_offset,
            net_start,
            net_weight,
            cell_start,
            cell_slots,
            nets,
            cells,
        }
    }

    /// Evaluates the smooth wirelength at `pos` (cell centres) and adds
    /// `∂WL/∂(cell centre)` into `grad` (one entry per cell), spreading
    /// the work over `exec`. Returns the smooth wirelength value, bitwise
    /// the same at any thread count (see the module docs).
    pub fn eval(&mut self, pos: &[Point], gamma: f64, grad: &mut [Point], exec: &Executor) -> f64 {
        debug_assert!(gamma > 0.0, "gamma must be positive");
        debug_assert_eq!(grad.len(), pos.len());
        let num_nets = self.net_weight.len();
        let view = View {
            model: self.model,
            pin_cell: &self.pin_cell,
            pin_offset: &self.pin_offset,
            net_start: &self.net_start,
            net_weight: &self.net_weight,
            pos,
            gamma,
        };

        if exec.threads() == 1 {
            let mut total = 0.0;
            for (ci, chunk) in self.nets.iter_mut().enumerate() {
                for n in chunk_range(num_nets, NET_CHUNK, ci) {
                    let cells = &view.pin_cell[view.net_start[n]..];
                    total += view.eval_net(n, &mut chunk.scratch, |k, g| {
                        let c = cells[k].ix();
                        grad[c].x += g.x;
                        grad[c].y += g.y;
                    });
                }
            }
            return total;
        }

        // Net chunks: each pin's weighted gradient into its slot. A job
        // grows its scratch and values on its own stack: the chunk structs
        // sit side by side, so pushing to them in place would keep writing
        // cache lines that the neighbouring job writes too.
        exec.for_each_mut(&mut self.nets, |ci, chunk| {
            let mut scratch = std::mem::take(&mut chunk.scratch);
            let mut values = std::mem::take(&mut chunk.values);
            let nets = chunk_range(num_nets, NET_CHUNK, ci);
            let base = view.net_start[nets.start];
            values.clear();
            for n in nets {
                let slots = &mut chunk.grads[view.net_start[n] - base..];
                values.push(view.eval_net(n, &mut scratch, |k, g| slots[k] = g));
            }
            chunk.scratch = scratch;
            chunk.values = values;
        });

        // Cell chunks: each cell adds its slots in pin order, starting
        // from the caller's value, as the one-thread pass does.
        let (nets, num_cells) = (&self.nets[..], self.cell_start.len() - 1);
        let (cell_start, cell_slots) = (&self.cell_start[..], &self.cell_slots[..]);
        let start: &[Point] = grad;
        exec.for_each_mut(&mut self.cells, |ci, out| {
            out.clear();
            for c in chunk_range(num_cells, CELL_CHUNK, ci) {
                let mut g = start[c];
                for s in &cell_slots[cell_start[c]..cell_start[c + 1]] {
                    let d = nets[s.chunk as usize].grads[s.at as usize];
                    g.x += d.x;
                    g.y += d.y;
                }
                out.push(g);
            }
        });
        for (ci, out) in self.cells.iter().enumerate() {
            grad[chunk_range(num_cells, CELL_CHUNK, ci)].copy_from_slice(out);
        }

        let mut total = 0.0;
        for chunk in &self.nets {
            for &v in &chunk.values {
                total += v;
            }
        }
        total
    }
}

/// `ix` as a slot coordinate. Pin and net indices fit in `u32` because
/// the netlist's ids are `u32`-backed.
fn narrow(ix: usize) -> u32 {
    u32::try_from(ix).unwrap_or_else(|_| unreachable!("pin index {ix} exceeds u32"))
}

/// Reusable per-net buffers: pin coordinates, max/min-shifted
/// exponentials, and the per-pin axis gradients. Owning them here keeps
/// [`lse_axis`]/[`wa_axis`] allocation-free per net — they are called
/// once per net per objective evaluation, squarely inside the solver's
/// inner loop.
#[derive(Debug, Default)]
struct NetScratch {
    xs: Vec<f64>,
    ys: Vec<f64>,
    e_p: Vec<f64>,
    e_n: Vec<f64>,
    gx: Vec<f64>,
    gy: Vec<f64>,
}

impl View<'_> {
    /// Evaluates net `n`, emitting each pin's weighted gradient through
    /// `emit(k, contribution)` for its position `k` in the net, in pin
    /// order. Returns the net's weighted smooth wirelength (`0.0`, with
    /// nothing emitted, for nets with fewer than two pins).
    ///
    /// Both the one-thread and the parallel evaluation funnel through
    /// this function, so their arithmetic is identical by construction.
    #[inline]
    fn eval_net(
        &self,
        n: usize,
        scratch: &mut NetScratch,
        mut emit: impl FnMut(usize, Point),
    ) -> f64 {
        let pins = self.net_start[n]..self.net_start[n + 1];
        if pins.len() < 2 {
            return 0.0;
        }
        let NetScratch {
            xs,
            ys,
            e_p,
            e_n,
            gx,
            gy,
        } = scratch;
        xs.clear();
        ys.clear();
        for (c, &offset) in self.pin_cell[pins.clone()]
            .iter()
            .zip(&self.pin_offset[pins])
        {
            let at = self.pos[c.ix()] + offset;
            xs.push(at.x);
            ys.push(at.y);
        }
        let w = self.net_weight[n];
        let gamma = self.gamma;
        let (vx, vy) = match self.model {
            WirelengthModel::Lse => (
                lse_axis(xs, gamma, e_p, e_n, gx),
                lse_axis(ys, gamma, e_p, e_n, gy),
            ),
            WirelengthModel::Wa => (
                wa_axis(xs, gamma, e_p, e_n, gx),
                wa_axis(ys, gamma, e_p, e_n, gy),
            ),
        };
        for (k, (&x, &y)) in gx.iter().zip(gy.iter()).enumerate() {
            emit(k, Point::new(w * x, w * y));
        }
        w * (vx + vy)
    }
}

/// Whether two coordinates have the same bits: the test for "this pin is
/// at the axis maximum (minimum)" under which a shared exponential is
/// exactly the one the formula gives.
#[inline]
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Fills the shared max/min-shifted exponential buffers for one axis:
/// `e_p[k] = e^{(x_k − max)/γ}` and `e_n[k] = e^{(min − x_k)/γ}`, so no
/// exponential ever overflows. Returns `(max, min, Σe_p, Σe_n)`.
///
/// While `(min − max)/γ` is finite, a pin at the maximum takes `e_p = 1`,
/// a pin at the minimum `e_n = 1`, and both share `e^{(min − max)/γ}` for
/// their other exponential (see the module docs); each is bitwise the
/// value the formula gives.
fn shifted_exps(
    xs: &[f64],
    gamma: f64,
    e_p: &mut Vec<f64>,
    e_n: &mut Vec<f64>,
) -> (f64, f64, f64, f64) {
    let x_max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let x_min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    e_p.clear();
    e_n.clear();
    let shift = (x_min - x_max) / gamma;
    if shift.is_finite() {
        let shared = shift.exp();
        for &x in xs {
            let (p, n) = match (same(x, x_max), same(x, x_min)) {
                (true, true) => (1.0, 1.0),
                (true, false) => (1.0, shared),
                (false, true) => (shared, 1.0),
                (false, false) => (((x - x_max) / gamma).exp(), ((x_min - x) / gamma).exp()),
            };
            e_p.push(p);
            e_n.push(n);
        }
    } else {
        e_p.extend(xs.iter().map(|&x| ((x - x_max) / gamma).exp()));
        e_n.extend(xs.iter().map(|&x| ((x_min - x) / gamma).exp()));
    }
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
    if let [a, b] = *xs {
        if let Some(value) = lse_two_pins(a, b, gamma, grad) {
            return value;
        }
    }
    let (x_max, x_min, sum_p, sum_n) = shifted_exps(xs, gamma, e_p, e_n);
    let value = gamma * sum_p.ln() + x_max + gamma * sum_n.ln() - x_min;
    grad.clear();
    grad.extend((0..xs.len()).map(|k| e_p[k] / sum_p - e_n[k] / sum_n));
    value
}

/// LSE on a two-pin axis at coordinates `a`, `b`: [`lse_axis`]'s value and
/// gradients from one exponential, one logarithm and two divisions, or
/// `None` (nothing written) where the shared form does not apply.
///
/// With `s = e^{(min − max)/γ}`, the pin at the maximum has `(e_p, e_n) =
/// (1, s)` and the other `(s, 1)`, so both sums are `1 + s` (addition is
/// commutative bit for bit) and the gradients are `±(1/(1+s) − s/(1+s))`.
fn lse_two_pins(a: f64, b: f64, gamma: f64, grad: &mut Vec<f64>) -> Option<f64> {
    let x_max = f64::NEG_INFINITY.max(a).max(b);
    let x_min = f64::INFINITY.min(a).min(b);
    let shift = (x_min - x_max) / gamma;
    let a_at_max = same(a, x_max) && same(b, x_min);
    if !shift.is_finite() || !(a_at_max || same(b, x_max) && same(a, x_min)) {
        return None;
    }
    let shared = shift.exp();
    let sum = 1.0 + shared;
    let log = gamma * sum.ln();
    let (one, other) = (1.0 / sum, shared / sum);
    let (at_max, at_min) = (one - other, other - one);
    grad.clear();
    if a_at_max {
        grad.extend([at_max, at_min]);
    } else {
        grad.extend([at_min, at_max]);
    }
    Some(log + x_max + log - x_min)
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

    /// Today's kernel before the pin view, kept as the reference: one
    /// pass over the nets in index order, every exponential taken as
    /// written, each pin's gradient added straight into `grad`.
    mod reference {
        use super::super::WirelengthModel;
        use sdp_geom::Point;
        use sdp_netlist::{NetId, Netlist};

        pub fn eval_wirelength(
            model: WirelengthModel,
            netlist: &Netlist,
            pos: &[Point],
            gamma: f64,
            grad: &mut [Point],
        ) -> f64 {
            let mut total = 0.0;
            for n in netlist.net_ids() {
                total += eval_net(model, netlist, n, pos, gamma, grad);
            }
            total
        }

        fn eval_net(
            model: WirelengthModel,
            netlist: &Netlist,
            n: NetId,
            pos: &[Point],
            gamma: f64,
            grad: &mut [Point],
        ) -> f64 {
            let net = netlist.net(n);
            if net.pins.len() < 2 {
                return 0.0;
            }
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            for &p in &net.pins {
                let pin = netlist.pin(p);
                let at = pos[pin.cell.ix()] + pin.offset;
                xs.push(at.x);
                ys.push(at.y);
            }
            let w = net.weight;
            let axis = match model {
                WirelengthModel::Lse => lse_axis,
                WirelengthModel::Wa => wa_axis,
            };
            let (vx, gx) = axis(&xs, gamma);
            let (vy, gy) = axis(&ys, gamma);
            for (k, &p) in net.pins.iter().enumerate() {
                let cell = netlist.pin(p).cell.ix();
                let g = Point::new(w * gx[k], w * gy[k]);
                grad[cell].x += g.x;
                grad[cell].y += g.y;
            }
            w * (vx + vy)
        }

        fn shifted_exps(xs: &[f64], gamma: f64) -> (f64, f64, Vec<f64>, Vec<f64>) {
            let x_max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let x_min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let e_p = xs.iter().map(|&x| ((x - x_max) / gamma).exp()).collect();
            let e_n = xs.iter().map(|&x| ((x_min - x) / gamma).exp()).collect();
            (x_max, x_min, e_p, e_n)
        }

        fn lse_axis(xs: &[f64], gamma: f64) -> (f64, Vec<f64>) {
            let (x_max, x_min, e_p, e_n) = shifted_exps(xs, gamma);
            let (sum_p, sum_n): (f64, f64) = (e_p.iter().sum(), e_n.iter().sum());
            let value = gamma * sum_p.ln() + x_max + gamma * sum_n.ln() - x_min;
            let grad = (0..xs.len())
                .map(|k| e_p[k] / sum_p - e_n[k] / sum_n)
                .collect();
            (value, grad)
        }

        fn wa_axis(xs: &[f64], gamma: f64) -> (f64, Vec<f64>) {
            let (_, _, e_p, e_n) = shifted_exps(xs, gamma);
            let (sp, sn): (f64, f64) = (e_p.iter().sum(), e_n.iter().sum());
            let (mut sxp, mut sxn) = (0.0, 0.0);
            for (k, &x) in xs.iter().enumerate() {
                sxp += x * e_p[k];
                sxn += x * e_n[k];
            }
            let f_max = sxp / sp;
            let f_min = sxn / sn;
            let grad = xs
                .iter()
                .enumerate()
                .map(|(k, &x)| {
                    let g_max = e_p[k] * (1.0 + (x - f_max) / gamma) / sp;
                    let g_min = e_n[k] * (1.0 - (x - f_min) / gamma) / sn;
                    g_max - g_min
                })
                .collect();
            (f_max - f_min, grad)
        }
    }

    /// A hand-built netlist with every case the shared exponentials and
    /// the pin slots must get right, and position sets that reach them.
    ///
    /// Nets: pin offsets on three cells; one cell holding two pins of a
    /// net; a two-pin net; four pins with two at each end of both axes; a
    /// weighted 2-pin net on a fixed cell; a 220-pin net.
    fn corner_case_netlist() -> (Netlist, Vec<Vec<Point>>) {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("C", 2.0, 1.0, 1, 1);
        let u: Vec<_> = (0..8).map(|i| b.add_cell(&format!("u{i}"), l)).collect();
        let pad = b.add_fixed_cell("pad", l);
        let wide: Vec<_> = (0..220).map(|i| b.add_cell(&format!("w{i}"), l)).collect();
        let pin = |c, x: f64, y: f64| (c, Point::new(x, y), PinDir::Input);
        b.add_net(
            "offsets",
            [
                pin(u[0], 1.0, 0.5),
                pin(u[1], -2.0, 0.0),
                pin(u[2], 0.5, -1.0),
            ],
        );
        b.add_net(
            "two_on_one_cell",
            [
                pin(u[3], -1.0, 0.0),
                pin(u[3], 1.0, 0.25),
                pin(u[4], 0.0, 0.0),
            ],
        );
        b.add_net("two_pins", [pin(u[1], 0.0, 0.0), pin(u[5], 0.0, 0.0)]);
        b.add_net(
            "coincident_ends",
            [
                pin(u[4], 0.0, 0.0),
                pin(u[5], 0.0, 0.0),
                pin(u[6], 0.0, 0.0),
                pin(u[7], 0.0, 0.0),
            ],
        );
        b.add_weighted_net("pad", 2.5, [pin(pad, 0.0, 0.0), pin(u[6], 0.5, 0.5)]);
        b.add_net(
            "wide",
            std::iter::once(pin(u[0], 0.0, 0.0)).chain(wide.iter().map(|&c| pin(c, 0.0, 0.0))),
        );
        let nl = b.finish().unwrap();

        let n = nl.num_cells();
        let spread: Vec<Point> = (0..n)
            .map(|i| Point::new((i as f64 * 7.3) % 31.0, (i as f64 * 3.1) % 17.0))
            .collect();
        // Two pins at each end of both axes of `coincident_ends`, and the
        // two-pin net's ends on one point.
        let mut coincident = spread.clone();
        for (c, p) in [
            (4, (1.0, 2.0)),
            (5, (1.0, 9.0)),
            (6, (8.0, 2.0)),
            (7, (8.0, 9.0)),
        ] {
            coincident[u[c].ix()] = Point::new(p.0, p.1);
        }
        coincident[u[1].ix()] = coincident[u[5].ix()];
        // Signed zeros on the two-pin net and the coincident net.
        let mut zeros = coincident.clone();
        zeros[u[1].ix()] = Point::new(0.0, -0.0);
        zeros[u[5].ix()] = Point::new(-0.0, 0.0);
        zeros[u[4].ix()] = Point::new(-0.0, -0.0);
        // Non-finite coordinates: NaN beside finite pins, a whole NaN
        // axis, ±∞, and ends so far apart that `max − min` overflows.
        let mut non_finite = spread.clone();
        non_finite[u[0].ix()] = Point::new(f64::NAN, 3.0);
        non_finite[u[3].ix()] = Point::new(f64::INFINITY, 1.0);
        non_finite[u[5].ix()] = Point::new(2.0, f64::NEG_INFINITY);
        non_finite[u[1].ix()] = Point::new(f64::NAN, f64::NAN);
        non_finite[wide[7].ix()] = Point::new(f64::NEG_INFINITY, f64::INFINITY);
        non_finite[u[6].ix()] = Point::new(-1e308, 1e308);
        non_finite[u[7].ix()] = Point::new(1e308, -1e308);
        (nl, vec![spread, coincident, zeros, non_finite])
    }

    /// Positions scattered over the whole region, one per cell.
    fn scattered(d: &sdp_netlist::Design, n: usize) -> Vec<Point> {
        let r = d.region();
        (0..n)
            .map(|i| {
                let k = i as f64;
                Point::new(
                    r.x1() + (k * 7.31) % r.width(),
                    r.y1() + (k * 3.17) % r.height(),
                )
            })
            .collect()
    }

    /// A gradient buffer the evaluation adds into: varied values and
    /// signed zeros, so the test also pins the accumulate contract.
    fn prefilled(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| match i % 3 {
                0 => Point::new(-0.0, 0.0),
                1 => Point::new(0.0, -0.0),
                _ => Point::new(i as f64 * 0.125 - 3.0, 1.5 - i as f64),
            })
            .collect()
    }

    /// Bitwise equality, with any two NaNs equal: Rust leaves the sign
    /// and payload of a NaN result unspecified, so two builds of one
    /// formula may differ there (a NaN from `−∞ − −∞` came out with
    /// either sign between the reference and the kernel).
    fn bitwise(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan()
    }

    #[test]
    fn kernel_is_bitwise_the_per_net_reference() {
        use crate::exec::Executor;
        use crate::placer::{GlobalPlacer, GpConfig};
        use sdp_dpgen::{generate, GenConfig};

        let mut cases: Vec<(String, Netlist, Vec<Point>)> = Vec::new();
        for (name, outers) in [("dp_tiny", 12), ("dp_small", 3)] {
            let mut d = generate(&GenConfig::named(name, 11).unwrap());
            let spread = scattered(&d.design, d.netlist.num_cells());
            cases.push((format!("{name} scattered"), d.netlist.clone(), spread));
            let gp = GpConfig {
                max_outer: outers,
                ..GpConfig::fast()
            };
            GlobalPlacer::new(gp).place(&d.netlist, &d.design, &mut d.placement, None);
            let placed = d.placement.positions().to_vec();
            cases.push((format!("{name} placed"), d.netlist, placed));
        }
        let (nl, sets) = corner_case_netlist();
        for (k, pos) in sets.into_iter().enumerate() {
            cases.push((format!("hand-built set {k}"), nl.clone(), pos));
        }

        for model in [WirelengthModel::Lse, WirelengthModel::Wa] {
            for threads in [1usize, 2, 3, 8] {
                let exec = Executor::new(threads);
                for (name, netlist, pos) in &cases {
                    // One kernel per netlist, reused across every γ.
                    let mut kernel = WirelengthKernel::new(model, netlist);
                    for gamma in [50.0, 8.0, 1.0, 0.3, 0.01] {
                        let mut want = prefilled(pos.len());
                        let v0 = reference::eval_wirelength(model, netlist, pos, gamma, &mut want);
                        let mut got = prefilled(pos.len());
                        let v = kernel.eval(pos, gamma, &mut got, &exec);
                        let at = format!("{model:?} {name} γ={gamma} @ {threads} threads");
                        assert!(bitwise(v0, v), "value, {at}: {v0} vs {v}");
                        for (c, (a, b)) in want.iter().zip(&got).enumerate() {
                            assert!(
                                bitwise(a.x, b.x) && bitwise(a.y, b.y),
                                "grad[{c}], {at}: {a:?} vs {b:?}"
                            );
                        }
                    }
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
