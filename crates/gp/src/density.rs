//! NTUplace3-style bell-shaped density penalty.
//!
//! The placement region is divided into a uniform bin grid. Every movable
//! cell spreads a smooth "potential" over nearby bins through the classic
//! C¹-continuous bell-shaped kernel; the penalty is the squared overfill of
//! each bin:
//!
//! ```text
//! D(x, y) = Σ_b ( max(0, pot_b − cap_b) )²
//! ```
//!
//! where `cap_b` is the bin's capacity (bin area × target density − fixed
//! area already in the bin). Both the value and the analytic gradient with
//! respect to every movable cell centre are provided.
//!
//! # Table-driven evaluation
//!
//! The kernel is separable, `θ(bin) = θx(column) · θy(row)`, and a bin
//! centre's x depends only on its column (its y only on its row). A cell's
//! two one-axis kernels depend only on its size, its inflation and the bin
//! size, so the model builds them once per movable cell on the first
//! evaluation and again on the first one after
//! [`DensityModel::set_inflation`]. One evaluation then runs in three
//! phases over scratch the model owns and reuses:
//!
//! 1. **Tables.** In parallel over fixed chunks of the movable cells, each
//!    cell's bin window is clipped to the grid and θ is tabulated once per
//!    window column and once per window row. The cell's kernel mass
//!    `Σ θx·θy` (which normalizes its potential to its area) is summed
//!    from the table.
//! 2. **Potential.** In parallel over fixed bands of grid rows, each band
//!    adds the deposits `c_i · θx·θy` of the cells whose windows reach it,
//!    in movable-cell order.
//! 3. **Gradients.** In parallel over the cell chunks, each cell computes
//!    its signed dθ once per window column and row, then folds its
//!    gradient from those, its θ table, and the bins' `2·overfill`. Only
//!    this phase needs dθ, so it is not stored: the tables hold one `f64`
//!    per window column and row, which halves them and measured no slower.
//!
//! The per-bin penalty fold between phases 2 and 3 stays sequential
//! (it is O(bins)); beside the penalty it stores each bin's `2·overfill`,
//! `0.0` where the bin is at or under capacity. The per-cell gradients
//! are added into the caller's buffer in movable-cell order. Every value
//! is the product or sum that a per-bin evaluation forms (the tests keep
//! one as the reference), in the same order; only the repeated
//! evaluations of the kernels, θ and dθ are shared.
//!
//! **No branches in the bin loops.** The per-bin reference skips the
//! deposits with `θx·θy = 0` and the gradient terms of bins that are not
//! overfilled; the loops here add those terms instead. That changes no
//! bit. With finite inputs each such term is `+0` or `−0`, because every
//! product keeps its operand order and one operand is `+0`: θ is never
//! negative (its first piece bottoms out at `2wb / (w + 4wb)` at the
//! knee), and the stored `2·overfill` is `+0`. Adding `±0` to a sum
//! `s` gives `s`, unless `s` is `−0` and the term `+0`. No running sum can
//! be `−0`: every sum starts at `+0`, and round-to-nearest addition gives
//! `−0` only from two `−0` operands. A NaN overfill is not `<= 0`, so it
//! stays NaN in the field and reaches the gradient as it did in the
//! reference.
//!
//! **Determinism.** Every bin belongs to exactly one band, and a band
//! visits its cells in movable-cell order, so every bin sums its deposits
//! in cell order — the addition sequence of a one-cell-at-a-time serial
//! pass — whatever the band split or thread count. Everything else a
//! thread computes belongs to one cell. The result is bitwise identical
//! on any [`Executor`]; [`DensityModel::eval`] is the same code on a
//! one-thread executor.

use crate::exec::Executor;
use sdp_geom::{BinGrid, Point, Rect};
use sdp_netlist::{CellId, Netlist};

/// The bell-shaped kernel on one axis.
///
/// For a cell of width `w` and bin width `wb` at centre distance `d`:
///
/// ```text
/// θ(d) = 1 − a·d²                      0 ≤ d ≤ w/2 + wb
///      = b·(d − w/2 − 2wb)²            w/2 + wb ≤ d ≤ w/2 + 2wb
///      = 0                             otherwise
/// a = 4 / ((w + 2wb)(w + 4wb)),  b = 2 / (wb (w + 4wb))
/// ```
#[derive(Debug, Clone, Copy)]
struct Bell {
    half_w: f64,
    wb: f64,
    a: f64,
    b: f64,
}

impl Bell {
    fn new(w: f64, wb: f64) -> Self {
        Bell {
            half_w: w / 2.0,
            wb,
            a: 4.0 / ((w + 2.0 * wb) * (w + 4.0 * wb)),
            b: 2.0 / (wb * (w + 4.0 * wb)),
        }
    }

    /// Influence radius: beyond this distance θ = 0.
    fn radius(&self) -> f64 {
        self.half_w + 2.0 * self.wb
    }

    /// Kernel value at distance `d ≥ 0`.
    fn theta(&self, d: f64) -> f64 {
        if d <= self.half_w + self.wb {
            1.0 - self.a * d * d
        } else if d <= self.half_w + 2.0 * self.wb {
            let t = d - self.half_w - 2.0 * self.wb;
            self.b * t * t
        } else {
            0.0
        }
    }

    /// Kernel derivative dθ/dd at distance `d ≥ 0`.
    fn dtheta(&self, d: f64) -> f64 {
        if d <= self.half_w + self.wb {
            -2.0 * self.a * d
        } else if d <= self.half_w + 2.0 * self.wb {
            2.0 * self.b * (d - self.half_w - 2.0 * self.wb)
        } else {
            0.0
        }
    }
}

/// Grid rows per potential band. Purely a scheduling granularity: results
/// never depend on it (see the module docs).
const BAND_ROWS: usize = 4;

/// Movable-cell chunk size for the table and gradient phases. Purely a
/// scheduling granularity: results never depend on it.
const CELL_CHUNK: usize = 128;

/// One movable cell's bin window at the current evaluation.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    /// First column and row of the window.
    ix: usize,
    iy: usize,
    /// Column and row counts; both `0` when the kernel misses the region.
    nx: usize,
    ny: usize,
    /// Where the cell's θ values start in its chunk's table: one per
    /// window column, then one per window row.
    at: usize,
    /// Kernel normalization: cell area over kernel mass, or `0.0` when
    /// the mass vanishes (the cell then deposits nothing).
    norm: f64,
}

/// Table and gradient scratch for one chunk of movable cells.
#[derive(Debug, Clone, Default)]
struct CellChunk {
    windows: Vec<Window>,
    /// θ per window column, then per window row, cell after cell.
    theta: Vec<f64>,
    /// One cell's signed dθ per window column, then per row.
    slope: Vec<f64>,
    /// Each cell's gradient at the last evaluation.
    grad: Vec<Point>,
}

/// What every job of one evaluation reads: the inputs and the grid.
struct Frame<'a> {
    netlist: &'a Netlist,
    pos: &'a [Point],
    inflation: &'a [f64],
    grid: &'a BinGrid,
    /// Bin-centre x of every grid column and y of every grid row.
    col_x: &'a [f64],
    row_y: &'a [f64],
}

/// Potential scratch for one band of grid rows.
#[derive(Debug, Clone, Default)]
struct Band {
    /// Movable-list index of every depositing cell whose window reaches
    /// the band, in movable-cell order.
    cells: Vec<usize>,
    /// Potential of the band's bins, row-major.
    potential: Vec<f64>,
}

/// The density model: bin grid, capacities, and evaluation scratch.
#[derive(Debug, Clone)]
pub struct DensityModel {
    grid: BinGrid,
    /// Per-bin capacity after subtracting fixed-cell area.
    capacity: Vec<f64>,
    /// Per-bin accumulated potential at the last evaluation.
    potential: Vec<f64>,
    /// Per-bin `2·(potential − capacity)` at the last evaluation, `0.0`
    /// where the bin is at or under capacity.
    twice_overfill: Vec<f64>,
    /// Per-cell area inflation factors (routability-driven placement
    /// widens cells in congested regions); `1.0` = no inflation.
    inflation: Vec<f64>,
    /// Movable-cell ids in netlist order, cached so evaluation does not
    /// rebuild the list every call.
    movable: Vec<CellId>,
    /// Each movable cell's kernels along x (inflated width) and y, in
    /// `movable` order. Empty until the first evaluation after
    /// [`DensityModel::new`] or [`DensityModel::set_inflation`] builds it.
    kernels: Vec<(Bell, Bell)>,
    /// Bin-centre x of every grid column and y of every grid row.
    col_x: Vec<f64>,
    row_y: Vec<f64>,
    /// Scratch: one entry per [`CELL_CHUNK`]-cell chunk of `movable`.
    chunks: Vec<CellChunk>,
    /// Scratch: one entry per [`BAND_ROWS`]-row band of the grid.
    bands: Vec<Band>,
    /// Total movable area, for the overflow ratio.
    movable_area: f64,
}

impl DensityModel {
    /// Builds the model for a netlist over `region` with the given target
    /// density (utilization ceiling) and grid resolution.
    ///
    /// Fixed cells overlapping the region consume bin capacity. `fixed_pos`
    /// supplies all cell positions (only fixed ones are read).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_density <= 1` and `nx, ny > 0`.
    pub fn new(
        netlist: &Netlist,
        region: Rect,
        fixed_pos: &[Point],
        target_density: f64,
        nx: usize,
        ny: usize,
    ) -> Self {
        assert!(
            target_density > 0.0 && target_density <= 1.0,
            "target density must be in (0, 1]"
        );
        let grid = BinGrid::new(region, nx, ny);
        let mut capacity = vec![grid.bin_area() * target_density; grid.len()];
        for c in netlist.cell_ids() {
            if !netlist.cell(c).fixed {
                continue;
            }
            let m = netlist.master_of(c);
            let r = Rect::centered_at(fixed_pos[c.ix()], m.width, m.height);
            if let Some(overlap) = r.intersection(&region) {
                grid.splat_area(&overlap, |bix, a| {
                    let f = grid.flat(bix);
                    capacity[f] = (capacity[f] - a).max(0.0);
                });
            }
        }
        let movable: Vec<CellId> = netlist.movable_ids().collect();
        let bands = (0..ny.div_ceil(BAND_ROWS))
            .map(|b| Band {
                cells: Vec::new(),
                potential: vec![0.0; band_rows(b, ny).len() * nx],
            })
            .collect();
        DensityModel {
            capacity,
            potential: vec![0.0; grid.len()],
            twice_overfill: vec![0.0; grid.len()],
            inflation: vec![1.0; netlist.num_cells()],
            col_x: (0..nx).map(|ix| grid.bin_center((ix, 0)).x).collect(),
            row_y: (0..ny).map(|iy| grid.bin_center((0, iy)).y).collect(),
            chunks: (0..movable.len().div_ceil(CELL_CHUNK))
                .map(|ci| {
                    let n = chunk_of(&movable, ci).len();
                    CellChunk {
                        windows: Vec::with_capacity(n),
                        grad: Vec::with_capacity(n),
                        ..CellChunk::default()
                    }
                })
                .collect(),
            bands,
            movable,
            kernels: Vec::new(),
            grid,
            movable_area: netlist.movable_area().max(1e-12),
        }
    }

    /// Sets per-cell area inflation factors (≥ 1). Inflated cells demand
    /// proportionally more bin capacity, pushing neighbours away — the
    /// classic cell-inflation mechanism of routability-driven placement.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the netlist or any
    /// factor is below 1.
    pub fn set_inflation(&mut self, inflation: Vec<f64>) {
        assert_eq!(inflation.len(), self.inflation.len(), "one factor per cell");
        assert!(
            inflation.iter().all(|&f| f >= 1.0),
            "inflation factors must be >= 1"
        );
        // `movable_area` (the overflow denominator) deliberately stays the
        // *uninflated* area: inflation raises measured overflow, which is
        // exactly the spreading pressure the caller wants.
        self.inflation = inflation;
        // The x kernels follow the inflated widths; the next evaluation
        // rebuilds them from the netlist it is given.
        self.kernels.clear();
    }

    /// A sensible default grid resolution for a netlist: roughly
    /// `√(movable cells)/2` bins per axis, clamped to `[8, 160]`.
    pub fn default_resolution(num_movable: usize) -> usize {
        sdp_geom::cast::saturating_usize(((num_movable as f64).sqrt() / 2.0).round()).clamp(8, 160)
    }

    /// The bin grid.
    pub fn grid(&self) -> &BinGrid {
        &self.grid
    }

    /// Evaluates the density penalty `Σ (overfill)²` at `pos`, accumulating
    /// the gradient into `grad` (one entry per cell; caller zeroes it).
    /// Also refreshes the internal potential field used by
    /// [`DensityModel::overflow`]. This is [`DensityModel::eval_with`] on
    /// a one-thread executor.
    pub fn eval(&mut self, netlist: &Netlist, pos: &[Point], grad: &mut [Point]) -> f64 {
        self.eval_with(netlist, pos, grad, &Executor::sequential())
    }

    /// Like [`DensityModel::eval`], with the table, potential and gradient
    /// phases (see the module docs) spread over `exec`'s thread pool. The
    /// result is bitwise identical at any thread count.
    pub fn eval_with(
        &mut self,
        netlist: &Netlist,
        pos: &[Point],
        grad: &mut [Point],
        exec: &Executor,
    ) -> f64 {
        // Built once per model and inflation (see the module docs).
        if self.kernels.len() != self.movable.len() {
            let (bin_w, bin_h) = (self.grid.bin_w(), self.grid.bin_h());
            self.kernels.extend(self.movable.iter().map(|&c| {
                let m = netlist.master_of(c);
                (
                    Bell::new(m.width * self.inflation[c.ix()], bin_w),
                    Bell::new(m.height, bin_h),
                )
            }));
        }
        let frame = Frame {
            netlist,
            pos,
            inflation: &self.inflation,
            grid: &self.grid,
            col_x: &self.col_x,
            row_y: &self.row_y,
        };
        let (movable, kernels) = (&self.movable[..], &self.kernels[..]);

        // Phase 1: per-cell windows, θ tables and normalizations.
        exec.for_each_mut(&mut self.chunks, |ci, chunk| {
            chunk.tabulate(chunk_of(movable, ci), chunk_of(kernels, ci), &frame);
        });

        // Phase 2: each band collects the depositing cells that reach it,
        // in movable order, then accumulates its own rows' potential.
        for band in &mut self.bands {
            band.cells.clear();
        }
        for (ci, chunk) in self.chunks.iter().enumerate() {
            for (k, w) in (ci * CELL_CHUNK..).zip(&chunk.windows) {
                // Exact sentinel: `norm` is either a guarded quotient or
                // literal 0.0, and a zero-norm cell deposits nothing.
                if w.norm == 0.0 {
                    continue;
                }
                let bands = w.iy / BAND_ROWS..=(w.iy + w.ny - 1) / BAND_ROWS;
                for band in &mut self.bands[bands] {
                    band.cells.push(k);
                }
            }
        }
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let chunks = &self.chunks[..];
        exec.for_each_mut(&mut self.bands, |b, band| {
            band.deposit(band_rows(b, ny), chunks, nx);
        });
        for (rows, band) in self.potential.chunks_mut(BAND_ROWS * nx).zip(&self.bands) {
            rows.copy_from_slice(&band.potential);
        }

        // Per-bin penalty and 2·overfill (sequential, cheap).
        let penalty =
            penalty_and_overfill(&self.potential, &self.capacity, &mut self.twice_overfill);

        // Phase 3: per-cell gradients from the θ tables.
        let twice_overfill = &self.twice_overfill[..];
        exec.for_each_mut(&mut self.chunks, |ci, chunk| {
            chunk.gradients(
                chunk_of(movable, ci),
                chunk_of(kernels, ci),
                &frame,
                twice_overfill,
            );
        });
        for (ci, chunk) in self.chunks.iter().enumerate() {
            for (&c, g) in chunk_of(movable, ci).iter().zip(&chunk.grad) {
                grad[c.ix()].x += g.x;
                grad[c.ix()].y += g.y;
            }
        }
        penalty
    }

    /// Total overflow ratio at the last-evaluated positions: the summed
    /// per-bin overfill divided by the total movable area. `0` means every
    /// bin is at or under its capacity.
    pub fn overflow(&self) -> f64 {
        let over: f64 = self
            .potential
            .iter()
            .zip(&self.capacity)
            .map(|(&p, &c)| (p - c).max(0.0))
            .sum();
        over / self.movable_area
    }
}

/// The entries of chunk `ci` in a per-movable-cell list: [`CELL_CHUNK`]
/// entries from `ci · CELL_CHUNK`, fewer in the last chunk.
fn chunk_of<T>(per_cell: &[T], ci: usize) -> &[T] {
    let start = ci * CELL_CHUNK;
    &per_cell[start..(start + CELL_CHUNK).min(per_cell.len())]
}

/// The penalty fold `Σ (overfill)²` over a potential field. Beside it,
/// stores each bin's `2·overfill` for the gradient phase, `0.0` where
/// the bin is at or under capacity (a NaN overfill stays NaN).
fn penalty_and_overfill(potential: &[f64], capacity: &[f64], twice_overfill: &mut [f64]) -> f64 {
    let mut penalty = 0.0;
    for ((&p, &cap), twice) in potential.iter().zip(capacity).zip(twice_overfill) {
        let over = p - cap;
        if over > 0.0 {
            penalty += over * over;
        }
        *twice = if over <= 0.0 { 0.0 } else { 2.0 * over };
    }
    penalty
}

/// The grid rows of band `b`: [`BAND_ROWS`] rows from `b · BAND_ROWS`,
/// fewer in the last band.
fn band_rows(b: usize, ny: usize) -> std::ops::Range<usize> {
    let top = b * BAND_ROWS;
    top..(top + BAND_ROWS).min(ny)
}

impl CellChunk {
    /// Clips every cell's kernel window to the grid, tabulates θ once per
    /// window column and once per window row, and sums the kernel mass
    /// `Σ θx·θy` in row-major bin order for the normalization.
    ///
    /// The windows come first so the table can be sized exactly: a run
    /// keeps its tables for every evaluation, and growth slack would
    /// stay resident with them.
    fn tabulate(&mut self, cells: &[CellId], kernels: &[(Bell, Bell)], frame: &Frame<'_>) {
        self.windows.clear();
        let mut at = 0;
        for (&c, (bx, by)) in cells.iter().zip(kernels) {
            let center = frame.pos[c.ix()];
            let mut w = Window {
                at,
                ..Window::default()
            };
            let r = Rect::centered_at(center, 2.0 * bx.radius(), 2.0 * by.radius());
            if let Some(clipped) = r.intersection(&frame.grid.region()) {
                let ((ix_lo, ix_hi), (iy_lo, iy_hi)) = frame.grid.bins_overlapping(&clipped);
                (w.ix, w.nx) = (ix_lo, ix_hi + 1 - ix_lo);
                (w.iy, w.ny) = (iy_lo, iy_hi + 1 - iy_lo);
            }
            at += w.nx + w.ny;
            self.windows.push(w);
        }
        self.theta.clear();
        self.theta.reserve_exact(at);
        for ((w, &c), (bx, by)) in self.windows.iter_mut().zip(cells).zip(kernels) {
            let center = frame.pos[c.ix()];
            let cols = frame.col_x[w.ix..][..w.nx].iter();
            let rows = frame.row_y[w.iy..][..w.ny].iter();
            self.theta.extend(
                cols.map(|&x| bx.theta((center.x - x).abs()))
                    .chain(rows.map(|&y| by.theta((center.y - y).abs()))),
            );
            let (theta_x, theta_y) = self.theta[w.at..].split_at(w.nx);
            let mut mass = 0.0;
            for &ty in theta_y {
                for &tx in theta_x {
                    mass += tx * ty;
                }
            }
            if mass > 1e-12 {
                let area = frame.netlist.master_of(c).area();
                w.norm = area * frame.inflation[c.ix()] / mass;
            }
        }
    }

    /// Each cell's gradient `Σ 2·over_b·c_i·(dθx·θy, θx·dθy)` over the
    /// bins of its window, in row-major bin order; a bin that is not
    /// overfilled adds a `±0` term (see the module docs). Only this
    /// phase needs the signed dθ, so it computes it here, once per window
    /// column and row, rather than storing it beside θ.
    fn gradients(
        &mut self,
        cells: &[CellId],
        kernels: &[(Bell, Bell)],
        frame: &Frame<'_>,
        twice_overfill: &[f64],
    ) {
        let nx = frame.grid.nx();
        let slope = |bell: &Bell, d: f64| bell.dtheta(d.abs()) * d.signum();
        self.grad.clear();
        for ((w, &c), (bx, by)) in self.windows.iter().zip(cells).zip(kernels) {
            // Exact sentinel: see the deposit filter in `eval_with`.
            if w.norm == 0.0 {
                self.grad.push(Point::ORIGIN);
                continue;
            }
            let center = frame.pos[c.ix()];
            let cols = frame.col_x[w.ix..][..w.nx].iter();
            let rows = frame.row_y[w.iy..][..w.ny].iter();
            self.slope.clear();
            self.slope.extend(
                cols.map(|&x| slope(bx, center.x - x))
                    .chain(rows.map(|&y| slope(by, center.y - y))),
            );
            let (theta_x, theta_y) = self.theta[w.at..][..w.nx + w.ny].split_at(w.nx);
            let (slope_x, slope_y) = self.slope.split_at(w.nx);
            let mut gx = 0.0;
            let mut gy = 0.0;
            for (iy, (&ty, &dty)) in (w.iy..).zip(theta_y.iter().zip(slope_y)) {
                let row = iy * nx + w.ix;
                let overfill = &twice_overfill[row..row + w.nx];
                for ((&tx, &dtx), &twice) in theta_x.iter().zip(slope_x).zip(overfill) {
                    gx += twice * w.norm * dtx * ty;
                    gy += twice * w.norm * tx * dty;
                }
            }
            self.grad.push(Point::new(gx, gy));
        }
    }
}

impl Band {
    /// Recomputes the potential of the band's `rows` from its cell list.
    fn deposit(&mut self, rows: std::ops::Range<usize>, chunks: &[CellChunk], nx: usize) {
        self.potential.fill(0.0);
        for &k in &self.cells {
            let chunk = &chunks[k / CELL_CHUNK];
            let w = &chunk.windows[k % CELL_CHUNK];
            let (theta_x, theta_y) = chunk.theta[w.at..][..w.nx + w.ny].split_at(w.nx);
            for iy in w.iy.max(rows.start)..(w.iy + w.ny).min(rows.end) {
                let ty = theta_y[iy - w.iy];
                let at = (iy - rows.start) * nx + w.ix;
                for (p, &tx) in self.potential[at..at + w.nx].iter_mut().zip(theta_x) {
                    *p += w.norm * (tx * ty);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_netlist::{CellId, NetlistBuilder, PinDir};

    fn nl_with_cells(n: usize, w: f64) -> Netlist {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("C", w, 1.0, 1, 1);
        let cells: Vec<CellId> = (0..n).map(|i| b.add_cell(&format!("u{i}"), l)).collect();
        for pair in cells.windows(2) {
            b.add_net(
                &format!("n{}", pair[0]),
                [
                    (pair[0], Point::ORIGIN, PinDir::Output),
                    (pair[1], Point::ORIGIN, PinDir::Input),
                ],
            );
        }
        b.finish().unwrap()
    }

    #[test]
    fn bell_kernel_is_continuous() {
        let bell = Bell::new(3.0, 2.0);
        let d1 = 3.0 / 2.0 + 2.0;
        let d2 = 3.0 / 2.0 + 4.0;
        // Continuity at the knee and at the support edge.
        assert!((bell.theta(d1 - 1e-9) - bell.theta(d1 + 1e-9)).abs() < 1e-6);
        assert!(bell.theta(d2 + 1e-9) == 0.0);
        assert!(bell.theta(d2 - 1e-6) < 1e-9);
        // Derivative continuity at the knee.
        assert!((bell.dtheta(d1 - 1e-9) - bell.dtheta(d1 + 1e-9)).abs() < 1e-6);
        // Peak at zero.
        assert_eq!(bell.theta(0.0), 1.0);
        assert_eq!(bell.dtheta(0.0), 0.0);
    }

    #[test]
    fn clustered_cells_overflow_spread_cells_do_not() {
        let nl = nl_with_cells(16, 2.0);
        let region = Rect::new(0.0, 0.0, 32.0, 32.0);
        let mut model = DensityModel::new(&nl, region, &vec![Point::ORIGIN; 16], 0.7, 8, 8);
        let mut grad = vec![Point::ORIGIN; 16];

        // All cells in one corner → overflow.
        let clustered: Vec<Point> = (0..16).map(|_| Point::new(2.0, 2.0)).collect();
        let p1 = model.eval(&nl, &clustered, &mut grad);
        let of1 = model.overflow();

        // Spread on a grid → little or no overflow.
        let spread: Vec<Point> = (0..16)
            .map(|i| Point::new(4.0 + 8.0 * (i % 4) as f64, 4.0 + 8.0 * (i / 4) as f64))
            .collect();
        grad.fill(Point::ORIGIN);
        let p2 = model.eval(&nl, &spread, &mut grad);
        let of2 = model.overflow();

        assert!(p1 > p2 * 10.0, "clustered {p1} >> spread {p2}");
        assert!(of1 > of2, "overflow {of1} > {of2}");
        assert!(of2 < 0.05, "spread overflow {of2} should be tiny");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let nl = nl_with_cells(4, 2.0);
        let region = Rect::new(0.0, 0.0, 16.0, 16.0);
        let mut model = DensityModel::new(&nl, region, &[Point::ORIGIN; 4], 0.6, 8, 8);
        // Overlapping positions so overfill (and gradient) is nonzero.
        let pos = vec![
            Point::new(5.0, 5.0),
            Point::new(5.5, 5.2),
            Point::new(6.0, 5.4),
            Point::new(5.2, 5.8),
        ];
        let mut grad = vec![Point::ORIGIN; 4];
        model.eval(&nl, &pos, &mut grad);
        let h = 1e-5;
        let mut scratch = vec![Point::ORIGIN; 4];
        for i in 0..4 {
            for axis in 0..2 {
                let mut p1 = pos.clone();
                let mut p2 = pos.clone();
                if axis == 0 {
                    p1[i].x -= h;
                    p2[i].x += h;
                } else {
                    p1[i].y -= h;
                    p2[i].y += h;
                }
                scratch.fill(Point::ORIGIN);
                let f1 = model.eval(&nl, &p1, &mut scratch);
                scratch.fill(Point::ORIGIN);
                let f2 = model.eval(&nl, &p2, &mut scratch);
                let fd = (f2 - f1) / (2.0 * h);
                let an = if axis == 0 { grad[i].x } else { grad[i].y };
                // The normalization constant is treated as locally constant,
                // so allow a few percent slack.
                assert!(
                    (fd - an).abs() < 0.05 * (1.0 + an.abs().max(fd.abs())),
                    "cell {i} axis {axis}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn fixed_cells_consume_capacity() {
        let mut b = NetlistBuilder::new();
        let big = b.add_lib_cell("MACRO", 8.0, 8.0, 1, 1);
        let small = b.add_lib_cell("INV", 2.0, 1.0, 1, 1);
        let m = b.add_fixed_cell("m", big);
        let u = b.add_cell("u", small);
        b.add_net(
            "n",
            [
                (m, Point::ORIGIN, PinDir::Output),
                (u, Point::ORIGIN, PinDir::Input),
            ],
        );
        let nl = b.finish().unwrap();
        let region = Rect::new(0.0, 0.0, 16.0, 16.0);
        let mut pos = vec![Point::ORIGIN; 2];
        pos[m.ix()] = Point::new(4.0, 4.0); // macro occupies lower-left quadrant
        pos[u.ix()] = Point::new(4.0, 4.0);

        let model_with = DensityModel::new(&nl, region, &pos, 1.0, 4, 4);
        // Bin (0,0) covers [0,4)², fully under the macro → zero capacity.
        assert_eq!(model_with.capacity[0], 0.0);
        // Far bin keeps full capacity.
        assert_eq!(model_with.capacity[15], 16.0);

        // A movable cell sitting on the macro must overflow immediately.
        let mut model = model_with.clone();
        let mut grad = vec![Point::ORIGIN; 2];
        let pen = model.eval(&nl, &pos, &mut grad);
        assert!(pen > 0.0);
        assert!(model.overflow() > 0.0);
    }

    #[test]
    fn total_potential_equals_movable_area() {
        let nl = nl_with_cells(9, 3.0);
        let region = Rect::new(0.0, 0.0, 24.0, 24.0);
        let mut model = DensityModel::new(&nl, region, &[Point::ORIGIN; 9], 0.8, 6, 6);
        let pos: Vec<Point> = (0..9)
            .map(|i| Point::new(4.0 + 8.0 * (i % 3) as f64, 4.0 + 8.0 * (i / 3) as f64))
            .collect();
        let mut grad = vec![Point::ORIGIN; 9];
        model.eval(&nl, &pos, &mut grad);
        let total: f64 = model.potential.iter().sum();
        let area = nl.movable_area();
        assert!(
            (total - area).abs() / area < 1e-6,
            "potential {total} vs area {area}"
        );
    }

    #[test]
    fn inflation_raises_demand() {
        let nl = nl_with_cells(8, 2.0);
        let region = Rect::new(0.0, 0.0, 16.0, 16.0);
        let pos: Vec<Point> = (0..8).map(|_| Point::new(8.0, 8.0)).collect();
        let mut grad = vec![Point::ORIGIN; 8];
        let mut plain = DensityModel::new(&nl, region, &pos, 0.7, 8, 8);
        let p0 = plain.eval(&nl, &pos, &mut grad);
        let of0 = plain.overflow();

        let mut inflated = DensityModel::new(&nl, region, &pos, 0.7, 8, 8);
        inflated.set_inflation(vec![2.0; 8]);
        grad.fill(Point::ORIGIN);
        let p1 = inflated.eval(&nl, &pos, &mut grad);
        let of1 = inflated.overflow();
        assert!(p1 > p0, "inflated penalty {p1} > {p0}");
        assert!(of1 > of0, "inflated overflow {of1} > {of0}");
    }

    #[test]
    #[should_panic(expected = "one factor per cell")]
    fn wrong_inflation_length_panics() {
        let nl = nl_with_cells(4, 2.0);
        let region = Rect::new(0.0, 0.0, 8.0, 8.0);
        let mut m = DensityModel::new(&nl, region, &[Point::ORIGIN; 4], 0.7, 4, 4);
        m.set_inflation(vec![1.0; 3]);
    }

    /// Visits every bin whose centre lies within the kernel radius of
    /// `center` (reference kernel).
    fn for_bins_in_radius<F: FnMut((usize, usize))>(
        grid: &BinGrid,
        center: Point,
        bx: &Bell,
        by: &Bell,
        mut f: F,
    ) {
        let r = Rect::centered_at(center, 2.0 * bx.radius(), 2.0 * by.radius());
        let clipped = match r.intersection(&grid.region()) {
            Some(c) => c,
            None => return,
        };
        let ((ix_lo, ix_hi), (iy_lo, iy_hi)) = grid.bins_overlapping(&clipped);
        for iy in iy_lo..=iy_hi {
            for ix in ix_lo..=ix_hi {
                f((ix, iy));
            }
        }
    }

    /// The per-bin kernel the table-driven one replaced, kept as the
    /// reference it must match bit for bit: θx·θy is evaluated afresh for
    /// every bin of a cell's window in three passes (mass, deposit,
    /// gradient), one cell at a time. Returns the penalty, the overflow
    /// ratio, and the gradient.
    fn reference_eval(
        model: &DensityModel,
        netlist: &Netlist,
        pos: &[Point],
    ) -> (f64, f64, Vec<Point>) {
        let grid = &model.grid;
        let kernels = |c: CellId| {
            let m = netlist.master_of(c);
            let infl = model.inflation[c.ix()];
            (
                Bell::new(m.width * infl, grid.bin_w()),
                Bell::new(m.height, grid.bin_h()),
            )
        };

        // Potential and per-cell normalizations.
        let mut potential = vec![0.0; grid.len()];
        let mut norm = vec![0.0; netlist.num_cells()];
        for c in netlist.movable_ids() {
            let center = pos[c.ix()];
            let (bx, by) = kernels(c);
            let mut mass = 0.0;
            for_bins_in_radius(grid, center, &bx, &by, |bix| {
                let bc = grid.bin_center(bix);
                mass += bx.theta((center.x - bc.x).abs()) * by.theta((center.y - bc.y).abs());
            });
            let ci = if mass > 1e-12 {
                netlist.master_of(c).area() * model.inflation[c.ix()] / mass
            } else {
                0.0
            };
            norm[c.ix()] = ci;
            if ci == 0.0 {
                continue;
            }
            for_bins_in_radius(grid, center, &bx, &by, |bix| {
                let bc = grid.bin_center(bix);
                let t = bx.theta((center.x - bc.x).abs()) * by.theta((center.y - bc.y).abs());
                if t > 0.0 {
                    potential[grid.flat(bix)] += ci * t;
                }
            });
        }

        let mut penalty = 0.0;
        for (f, &p) in potential.iter().enumerate() {
            let over = p - model.capacity[f];
            if over > 0.0 {
                penalty += over * over;
            }
        }
        let over: f64 = potential
            .iter()
            .zip(&model.capacity)
            .map(|(&p, &c)| (p - c).max(0.0))
            .sum();
        let overflow = over / model.movable_area;

        let mut grad = vec![Point::ORIGIN; netlist.num_cells()];
        for c in netlist.movable_ids() {
            let center = pos[c.ix()];
            let (bx, by) = kernels(c);
            let ci = norm[c.ix()];
            let g = if ci == 0.0 {
                Point::ORIGIN
            } else {
                let mut gx = 0.0;
                let mut gy = 0.0;
                for_bins_in_radius(grid, center, &bx, &by, |bix| {
                    let bc = grid.bin_center(bix);
                    let f = grid.flat(bix);
                    let over = potential[f] - model.capacity[f];
                    if over <= 0.0 {
                        return;
                    }
                    let dx = center.x - bc.x;
                    let dy = center.y - bc.y;
                    let tx = bx.theta(dx.abs());
                    let ty = by.theta(dy.abs());
                    let dtx = bx.dtheta(dx.abs()) * dx.signum();
                    let dty = by.dtheta(dy.abs()) * dy.signum();
                    gx += 2.0 * over * ci * dtx * ty;
                    gy += 2.0 * over * ci * tx * dty;
                });
                Point::new(gx, gy)
            };
            grad[c.ix()].x += g.x;
            grad[c.ix()].y += g.y;
        }
        (penalty, overflow, grad)
    }

    /// Position sets that reach every branch of the kernel: the generated
    /// placement, a jittered copy (bins straddled as in mid-GP states),
    /// every cell stacked on one point, cells pushed past the region
    /// edge — clipped windows, windows that miss the region entirely, and
    /// windows that meet it only where θ vanishes (zero-mass cells) — and
    /// cells spread evenly over the region, as late in GP, where most
    /// windows hold no overfilled bin.
    fn position_sets(
        nl: &Netlist,
        generated: &[Point],
        grid: &BinGrid,
        inflation: &[f64],
    ) -> Vec<Vec<Point>> {
        let region = grid.region();
        let jittered: Vec<Point> = generated
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let k = i as f64;
                region.clamp_point(Point::new(
                    p.x + ((k * 7.31) % 5.0 - 2.5) * grid.bin_w(),
                    p.y + ((k * 3.17) % 3.0 - 1.5) * grid.bin_h(),
                ))
            })
            .collect();
        let stacked = vec![region.center(); generated.len()];
        let pushed: Vec<Point> = nl
            .cell_ids()
            .map(|c| {
                let p = generated[c.ix()];
                // Case 3 reaches 1e-3 bin widths into the region: its window
                // keeps the edge column, whose centre lies beyond the
                // kernel's reach, so the window is non-empty with zero mass.
                let reach = nl.master_of(c).width * inflation[c.ix()] / 2.0 + 2.0 * grid.bin_w();
                match c.ix() % 5 {
                    0 => Point::new(region.x1() - 0.3 * grid.bin_w(), p.y),
                    1 => Point::new(region.x2() + 10.0 * region.width(), p.y),
                    2 => Point::new(
                        region.x2() + 0.7 * grid.bin_w(),
                        region.y2() + 0.4 * grid.bin_h(),
                    ),
                    3 => Point::new(region.x1() - reach + 1e-3 * grid.bin_w(), p.y),
                    _ => Point::new(p.x, region.y1() - 1.2 * grid.bin_h()),
                }
            })
            .collect();
        let side = (generated.len() as f64).sqrt().ceil();
        let spread: Vec<Point> = (0..generated.len())
            .map(|i| {
                let (col, row) = (i as f64 % side, (i as f64 / side).floor());
                Point::new(
                    region.x1() + (col + 0.5) * region.width() / side,
                    region.y1() + (row + 0.5) * region.height() / side,
                )
            })
            .collect();
        vec![generated.to_vec(), jittered, stacked, pushed, spread]
    }

    /// Which kernel branches a test's inputs reached.
    #[derive(Default)]
    struct Reached {
        /// A window that missed the region.
        missed: bool,
        /// A window that met the region only where θ vanishes.
        zero_mass: bool,
        /// A window that spanned two bands.
        multi_band: bool,
        /// A depositing window with no overfilled bin, where every
        /// gradient term is ±0.
        unloaded: bool,
        /// A window holding both overfilled and under-capacity bins.
        mixed: bool,
    }

    impl Reached {
        /// Records the windows of the model's last evaluation, and checks
        /// that every unloaded window's gradient is exactly `(+0, +0)`.
        fn record(&mut self, model: &DensityModel, case: &str) {
            let nx = model.grid.nx();
            for chunk in &model.chunks {
                for (w, g) in chunk.windows.iter().zip(&chunk.grad) {
                    self.missed |= w.nx == 0;
                    self.zero_mass |= w.nx > 0 && w.norm == 0.0;
                    self.multi_band |= w.iy % BAND_ROWS + w.ny > BAND_ROWS;
                    if w.norm == 0.0 {
                        continue;
                    }
                    let overfilled = (w.iy..w.iy + w.ny)
                        .flat_map(|iy| (iy * nx + w.ix..).take(w.nx))
                        .filter(|&f| model.potential[f] - model.capacity[f] > 0.0)
                        .count();
                    if overfilled == 0 {
                        self.unloaded = true;
                        assert_eq!(
                            (g.x.to_bits(), g.y.to_bits()),
                            (0, 0),
                            "gradient of a window with no overfilled bin: {case}"
                        );
                    }
                    self.mixed |= overfilled > 0 && overfilled < w.nx * w.ny;
                }
            }
        }
    }

    #[test]
    fn table_kernel_matches_the_per_bin_reference_bitwise() {
        use crate::exec::Executor;
        use sdp_dpgen::{generate, GenConfig};
        let execs: Vec<Executor> = [1, 2, 3, 8].into_iter().map(Executor::new).collect();
        let mut reached = Reached::default();
        for name in ["dp_tiny", "dp_small"] {
            let d = generate(&GenConfig::named(name, 13).unwrap());
            let nl = &d.netlist;
            let generated = d.placement.positions();
            let region = d.design.region();
            let stretched: Vec<f64> = (0..nl.num_cells())
                .map(|i| 1.0 + (i % 5) as f64 / 4.0)
                .collect();
            // 43 and 98 are the dp_medium/dp_huge grids, and neither is a
            // multiple of the band height.
            for bins in [16, 43, 98] {
                // One model per grid: its scratch is reused across every
                // position set, inflation and executor below.
                let mut model = DensityModel::new(nl, region, generated, 0.8, bins, bins);
                for (infl, inflation) in [
                    ("1x", vec![1.0; nl.num_cells()]),
                    ("<=2x", stretched.clone()),
                ] {
                    model.set_inflation(inflation.clone());
                    let sets = position_sets(nl, generated, model.grid(), &inflation);
                    for (set, pos) in sets.iter().enumerate() {
                        let case = format!("{name} {bins}x{bins} set {set} infl {infl}");
                        let (penalty, overflow, reference) = reference_eval(&model, nl, pos);
                        for exec in &execs {
                            let at = format!("{case} @ {} threads", exec.threads());
                            let mut grad = vec![Point::ORIGIN; pos.len()];
                            let p = model.eval_with(nl, pos, &mut grad, exec);
                            assert_eq!(p.to_bits(), penalty.to_bits(), "penalty: {at}");
                            assert_eq!(
                                model.overflow().to_bits(),
                                overflow.to_bits(),
                                "overflow: {at}"
                            );
                            for (k, (a, b)) in grad.iter().zip(&reference).enumerate() {
                                assert_eq!(
                                    (a.x.to_bits(), a.y.to_bits()),
                                    (b.x.to_bits(), b.y.to_bits()),
                                    "grad[{k}]: {at}"
                                );
                            }
                        }
                        reached.record(&model, &case);
                    }
                }
            }
        }
        assert!(reached.missed, "no window missed the region");
        assert!(
            reached.zero_mass,
            "no window met the region only where θ vanishes"
        );
        assert!(reached.multi_band, "no window spanned two bands");
        assert!(
            reached.unloaded,
            "no depositing window was free of overfilled bins"
        );
        assert!(
            reached.mixed,
            "no window mixed overfilled and under-capacity bins"
        );
    }

    #[test]
    fn default_resolution_clamps() {
        assert_eq!(DensityModel::default_resolution(4), 8);
        assert_eq!(DensityModel::default_resolution(10_000), 50);
        assert_eq!(DensityModel::default_resolution(10_000_000), 160);
    }
}
