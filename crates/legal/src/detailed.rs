//! Detailed placement: strictly-improving relocation and swapping on a
//! legal placement.

use sdp_geom::{BBox, Point};
use sdp_netlist::{CellId, Design, NetId, Netlist, Placement};
use std::collections::HashSet;

/// Horizontal search window (in site widths) around a cell's optimal
/// position when looking for gaps and swap partners.
const WINDOW_SITES: f64 = 24.0;

/// Options for [`detailed_place`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedOptions {
    /// Improvement passes over all cells.
    pub passes: usize,
    /// Cells that may move only *within their current row* (aligned
    /// datapath cells: sliding in x preserves row alignment, changing
    /// rows would break it).
    pub row_locked: HashSet<CellId>,
    /// Run the window-reordering pass: every run of three consecutive
    /// cells in a row is re-permuted (left-packed into its span) when a
    /// permutation improves HPWL.
    pub reorder_windows: bool,
}

impl Default for DetailedOptions {
    fn default() -> Self {
        DetailedOptions {
            passes: 2,
            row_locked: HashSet::new(),
            reorder_windows: true,
        }
    }
}

/// Result of a detailed-placement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedStats {
    /// Accepted relocations.
    pub moves: usize,
    /// Accepted swaps.
    pub swaps: usize,
    /// Accepted window reorderings.
    pub reorders: usize,
    /// Total HPWL before.
    pub hpwl_before: f64,
    /// Total HPWL after.
    pub hpwl_after: f64,
}

/// Per-row occupancy: sorted cell lists for gap and neighbour queries.
struct Occupancy {
    /// Per row: `(left_edge, cell)` sorted by `left_edge`.
    rows: Vec<Vec<(f64, CellId)>>,
    row_of: Vec<usize>,
}

impl Occupancy {
    fn build(netlist: &Netlist, design: &Design, placement: &Placement) -> Self {
        let mut rows: Vec<Vec<(f64, CellId)>> = vec![Vec::new(); design.rows().len()];
        let mut row_of = vec![usize::MAX; netlist.num_cells()];
        for c in netlist.cell_ids() {
            let r = placement.cell_rect(netlist, c);
            if netlist.cell(c).fixed {
                // Fixed blockages occupy every row they overlap (macros
                // span many); they are never moved, so `row_of` stays
                // unset. Cells fully outside the region are irrelevant.
                if r.intersection(&design.region()).is_none() {
                    continue;
                }
                for (ri, row) in design.rows().iter().enumerate() {
                    if r.y2() > row.y && r.y1() < row.y + row.height {
                        rows[ri].push((r.x1(), c));
                    }
                }
                continue;
            }
            let ri = design.row_at_y(placement.get(c).y - 1e-9);
            rows[ri].push((r.x1(), c));
            row_of[c.ix()] = ri;
        }
        for row in &mut rows {
            row.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        Occupancy { rows, row_of }
    }

    fn remove(&mut self, c: CellId) {
        let ri = self.row_of[c.ix()];
        if ri == usize::MAX {
            return;
        }
        if let Some(pos) = self.rows[ri].iter().position(|&(_, x)| x == c) {
            self.rows[ri].remove(pos);
        }
        self.row_of[c.ix()] = usize::MAX;
    }

    fn insert(&mut self, c: CellId, left: f64, ri: usize) {
        let row = &mut self.rows[ri];
        let pos = row.partition_point(|&(x, _)| x < left);
        row.insert(pos, (left, c));
        self.row_of[c.ix()] = ri;
    }

    /// Free gaps `(start, end)` within `[lo, hi]` of a row.
    fn gaps(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        design: &Design,
        ri: usize,
        lo: f64,
        hi: f64,
    ) -> Vec<(f64, f64)> {
        let row = &design.rows()[ri];
        let lo = lo.max(row.x1);
        let hi = hi.min(row.x2);
        let mut gaps = Vec::new();
        let mut cursor = lo;
        let cells = &self.rows[ri];
        let start = cells.partition_point(|&(x, c)| x + netlist.cell_width(c) <= lo);
        for &(x1, c) in &cells[start..] {
            if x1 >= hi {
                break;
            }
            if x1 > cursor {
                gaps.push((cursor, x1));
            }
            cursor = cursor.max(x1 + netlist.cell_width(c));
            let _ = placement;
        }
        if cursor < hi {
            gaps.push((cursor, hi));
        }
        gaps
    }

    /// Cells of a row whose left edge lies in `[lo, hi]`.
    fn cells_in(&self, ri: usize, lo: f64, hi: f64) -> &[(f64, CellId)] {
        let row = &self.rows[ri];
        let a = row.partition_point(|&(x, _)| x < lo);
        let b = row.partition_point(|&(x, _)| x <= hi);
        &row[a..b]
    }
}

/// Whether two coordinates have the same bits. A pin counts as on a side
/// of its net's box only then, so a side's value is always some pin's
/// coordinate and its count is exact.
#[inline]
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// One side of a net's box as the smallest of a set of values: the lower
/// sides keep the pins' coordinates, the upper sides the negated ones.
/// Beside the extreme value it keeps the next one (the smallest value
/// without the extreme's bits), each with its number of pins, so that
/// the pins at the extreme can leave without a re-scan.
#[derive(Debug, Clone, Copy)]
struct Side {
    first: f64,
    at_first: u32,
    second: f64,
    at_second: u32,
}

impl Side {
    const EMPTY: Side = Side {
        first: f64::INFINITY,
        at_first: 0,
        second: f64::INFINITY,
        at_second: 0,
    };

    /// Adds a pin at value `v`. A NaN is ignored, as `f64::min` ignores
    /// it in [`BBox`].
    fn add(&mut self, v: f64) {
        if v < self.first {
            (self.second, self.at_second) = (self.first, self.at_first);
            (self.first, self.at_first) = (v, 1);
        } else if same(v, self.first) {
            self.at_first += 1;
        } else if v < self.second {
            (self.second, self.at_second) = (v, 1);
        } else if same(v, self.second) {
            self.at_second += 1;
        }
    }

    /// The side's value once the pins at `gone` have left, or `None` if
    /// they held both kept values (a re-scan must find it).
    fn without(&self, gone: impl Iterator<Item = f64>) -> Option<f64> {
        let (mut first, mut second) = (0, 0);
        for v in gone {
            if same(v, self.first) {
                first += 1;
            } else if same(v, self.second) {
                second += 1;
            }
        }
        if first < self.at_first {
            Some(self.first)
        } else if second < self.at_second {
            Some(self.second)
        } else {
            None
        }
    }
}

/// One net's cached pin bounding box: its four [`Side`]s.
#[derive(Debug, Clone, Copy)]
struct NetBox {
    lo_x: Side,
    hi_x: Side,
    lo_y: Side,
    hi_y: Side,
}

impl NetBox {
    const EMPTY: NetBox = NetBox {
        lo_x: Side::EMPTY,
        hi_x: Side::EMPTY,
        lo_y: Side::EMPTY,
        hi_y: Side::EMPTY,
    };

    fn add(&mut self, p: Point) {
        self.lo_x.add(p.x);
        self.hi_x.add(-p.x);
        self.lo_y.add(p.y);
        self.hi_y.add(-p.y);
    }

    /// The half-perimeter [`BBox`] gives for the same pins: the same min
    /// and max, so the same value.
    fn half_perimeter(&self) -> f64 {
        (-self.hi_x.first - self.lo_x.first) + (-self.hi_y.first - self.lo_y.first)
    }
}

/// A pin of a cell being moved: its net, the cell's index in the moving
/// set, its offset from the cell centre, and where it is now.
#[derive(Debug, Clone, Copy)]
struct MovingPin {
    net: NetId,
    cell: usize,
    offset: Point,
    at: Point,
}

/// Every net's [`NetBox`] at the current placement, and the scratch that
/// prices a move of one to three cells against them.
///
/// A priced net takes each side from its cached box without the moving
/// cells' old pins: the extreme value while a pin that stays holds it,
/// else the next value while a pin that stays holds that. Only when
/// neither is left is the net re-scanned. Then the moving cells' new
/// pins are added. The min and max are the ones a full scan finds, so
/// each HPWL sum, taken in net-index order, is the one a full re-scan
/// gives, and no accept/reject decision moves.
struct NetBoxes {
    boxes: Vec<NetBox>,
    /// The cells of the move being priced.
    cells: Vec<CellId>,
    /// Their pins, sorted by net (stable).
    pins: Vec<MovingPin>,
}

impl NetBoxes {
    fn build(netlist: &Netlist, placement: &Placement) -> Self {
        let mut boxes = NetBoxes {
            boxes: vec![NetBox::EMPTY; netlist.num_nets()],
            cells: Vec::new(),
            pins: Vec::new(),
        };
        for n in netlist.net_ids() {
            boxes.rescan(netlist, placement, n);
        }
        boxes
    }

    /// Rebuilds net `n`'s box from all its pins at the current placement.
    fn rescan(&mut self, netlist: &Netlist, placement: &Placement, n: NetId) {
        let mut b = NetBox::EMPTY;
        for &q in &netlist.net(n).pins {
            b.add(placement.pin_position(netlist, q));
        }
        self.boxes[n.ix()] = b;
    }

    /// Makes `cells` the moving set that the next calls price.
    fn load(&mut self, netlist: &Netlist, placement: &Placement, cells: &[CellId]) {
        self.cells.clear();
        self.cells.extend_from_slice(cells);
        self.pins.clear();
        for (i, &c) in cells.iter().enumerate() {
            for &q in &netlist.cell(c).pins {
                let pin = netlist.pin(q);
                self.pins.push(MovingPin {
                    net: pin.net,
                    cell: i,
                    offset: pin.offset,
                    at: placement.pin_position(netlist, q),
                });
            }
        }
        self.pins.sort_by_key(|m| m.net);
    }

    /// The moving cells' pins, one run per net, in net-index order.
    fn runs(pins: &[MovingPin]) -> impl Iterator<Item = (NetId, &[MovingPin])> {
        pins.chunk_by(|a, b| a.net == b.net)
            .filter_map(|run| run.first().map(|m| (m.net, run)))
    }

    /// The box of net `n`'s pins outside the moving set, given the moving
    /// cells' `run` of pins on it: from the cache, or by a re-scan when
    /// the moving pins held both values a side keeps; `None` when no other
    /// pin is on the net.
    fn others(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        n: NetId,
        run: &[MovingPin],
    ) -> Option<BBox> {
        let b = &self.boxes[n.ix()];
        let sides = (
            b.lo_x.without(run.iter().map(|m| m.at.x)),
            b.hi_x.without(run.iter().map(|m| -m.at.x)),
            b.lo_y.without(run.iter().map(|m| m.at.y)),
            b.hi_y.without(run.iter().map(|m| -m.at.y)),
        );
        if let (Some(lo_x), Some(hi_x), Some(lo_y), Some(hi_y)) = sides {
            let corners = [Point::new(lo_x, lo_y), Point::new(-hi_x, -hi_y)];
            return Some(corners.into_iter().collect());
        }
        let mut b = BBox::new();
        for &q in &netlist.net(n).pins {
            let pin = netlist.pin(q);
            if !self.cells.contains(&pin.cell) {
                b.add_point(placement.get(pin.cell) + pin.offset);
            }
        }
        (!b.is_empty()).then_some(b)
    }

    /// Σ weight·HPWL over the moving cells' nets, in net-index order, at
    /// the current placement.
    fn current(&self, netlist: &Netlist) -> f64 {
        Self::runs(&self.pins)
            .map(|(n, _)| netlist.net(n).weight * self.boxes[n.ix()].half_perimeter())
            .sum()
    }

    /// Σ weight·HPWL over the moving cells' nets, in net-index order, with
    /// moving cell `i` centred at `to[i]`. The placement is not touched.
    fn price(&self, netlist: &Netlist, placement: &Placement, to: &[Point]) -> f64 {
        Self::runs(&self.pins)
            .map(|(n, run)| {
                let mut b = self.others(netlist, placement, n, run).unwrap_or_default();
                for m in run {
                    b.add_point(to[m.cell] + m.offset);
                }
                netlist.net(n).weight * b.half_perimeter()
            })
            .sum()
    }

    /// Rebuilds the boxes of the moving cells' nets; call it once the
    /// move is applied to the placement.
    fn commit(&mut self, netlist: &Netlist, placement: &Placement) {
        let pins = std::mem::take(&mut self.pins);
        for (n, _) in Self::runs(&pins) {
            self.rescan(netlist, placement, n);
        }
        self.pins = pins;
    }

    /// The x/y medians of the bounding boxes of the loaded cell's nets,
    /// excluding its own pins — the classic "optimal region" centre. Each
    /// of the cell's pins contributes its net's box once, as a scan per
    /// pin would.
    fn optimal_point(&self, netlist: &Netlist, placement: &Placement) -> Option<Point> {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for (n, run) in Self::runs(&self.pins) {
            if let Some(b) = self.others(netlist, placement, n, run) {
                for _ in run {
                    xs.extend([b.min().x, b.max().x]);
                    ys.extend([b.min().y, b.max().y]);
                }
            }
        }
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(f64::total_cmp);
        ys.sort_by(f64::total_cmp);
        Some(Point::new(xs[xs.len() / 2], ys[ys.len() / 2]))
    }
}

/// Runs detailed placement. The placement must already be legal; it stays
/// legal (every accepted move goes into a verified gap or an equal-width
/// swap). Returns statistics including the HPWL before/after.
///
/// Every candidate is priced on cached net boxes, which give the HPWL
/// sums a full re-scan of each touched net gives.
pub fn detailed_place(
    netlist: &Netlist,
    design: &Design,
    placement: &mut Placement,
    options: &DetailedOptions,
) -> DetailedStats {
    let hpwl_before = placement.total_hpwl(netlist);
    let mut occ = Occupancy::build(netlist, design, placement);
    let mut boxes = NetBoxes::build(netlist, placement);
    let mut stats = DetailedStats {
        moves: 0,
        swaps: 0,
        reorders: 0,
        hpwl_before,
        hpwl_after: hpwl_before,
    };
    let site = design.rows().first().map_or(1.0, |r| r.site_width);
    let window = WINDOW_SITES * site;

    let order: Vec<CellId> = netlist.movable_ids().collect();

    for _pass in 0..options.passes {
        let mut improved = false;
        for &c in &order {
            boxes.load(netlist, placement, &[c]);
            let Some(target) = boxes.optimal_point(netlist, placement) else {
                continue;
            };
            let w = netlist.cell_width(c);
            let cur = placement.get(c);
            if cur.manhattan_to(target) < site {
                continue; // already at its optimum
            }
            let row_locked = options.row_locked.contains(&c);
            let tri = if row_locked {
                design.row_at_y(cur.y - 1e-9)
            } else {
                design.row_at_y(target.y)
            };

            // Try relocation into a gap near the target.
            let before = boxes.current(netlist);
            let mut best: Option<(f64, Point)> = None;
            let (row_lo, row_hi) = if row_locked {
                (tri, tri)
            } else {
                (
                    tri.saturating_sub(1),
                    (tri + 1).min(design.rows().len() - 1),
                )
            };
            for ri in row_lo..=row_hi {
                let r = &design.rows()[ri];
                for (g1, g2) in occ.gaps(
                    netlist,
                    placement,
                    design,
                    ri,
                    target.x - window,
                    target.x + window,
                ) {
                    if g2 - g1 < w - 1e-9 {
                        continue;
                    }
                    let lo = r.snap_x(g1);
                    let lo = if lo < g1 - 1e-9 {
                        lo + r.site_width
                    } else {
                        lo
                    };
                    let hi = g2 - w;
                    if hi < lo - 1e-9 {
                        continue;
                    }
                    let x = r.snap_x((target.x - w / 2.0).clamp(lo, hi)).clamp(lo, hi);
                    let cand = Point::new(x + w / 2.0, r.y + r.height / 2.0);
                    let after = boxes.price(netlist, placement, &[cand]);
                    let delta = after - before;
                    if delta < -1e-9 && best.is_none_or(|(d, _)| delta < d) {
                        best = Some((delta, cand));
                    }
                }
            }
            if let Some((_, cand)) = best {
                occ.remove(c);
                placement.set(c, cand);
                boxes.commit(netlist, placement);
                occ.insert(c, cand.x - w / 2.0, design.row_at_y(cand.y - 1e-9));
                stats.moves += 1;
                improved = true;
                continue;
            }

            // Try swapping with an equal-width cell near the target.
            let mut best_swap: Option<(f64, CellId)> = None;
            let partners: Vec<CellId> = occ
                .cells_in(tri, target.x - window, target.x + window)
                .iter()
                .map(|&(_, p)| p)
                .filter(|&p| {
                    p != c
                        && !netlist.cell(p).fixed
                        && (netlist.cell_width(p) - w).abs() < 1e-9
                        // A row-locked partner may only swap within its
                        // own row; the candidate pool is drawn from row
                        // `tri`, so that is automatic for `c`. For the
                        // partner, a cross-row swap would move it.
                        && (!options.row_locked.contains(&p)
                            || design.row_at_y(cur.y - 1e-9) == tri)
                })
                .collect();
            for p in partners {
                boxes.load(netlist, placement, &[c, p]);
                let before = boxes.current(netlist);
                let (pc, pp) = (placement.get(c), placement.get(p));
                let after = boxes.price(netlist, placement, &[pp, pc]);
                let delta = after - before;
                if delta < -1e-9 && best_swap.is_none_or(|(d, _)| delta < d) {
                    best_swap = Some((delta, p));
                }
            }
            if let Some((_, p)) = best_swap {
                let (pc, pp) = (placement.get(c), placement.get(p));
                boxes.load(netlist, placement, &[c, p]);
                let (ri_c, ri_p) = (occ.row_of[c.ix()], occ.row_of[p.ix()]);
                occ.remove(c);
                occ.remove(p);
                placement.set(c, pp);
                placement.set(p, pc);
                boxes.commit(netlist, placement);
                occ.insert(c, pp.x - w / 2.0, ri_p);
                occ.insert(p, pc.x - w / 2.0, ri_c);
                stats.swaps += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    if options.reorder_windows && options.passes > 0 {
        stats.reorders = reorder_pass(netlist, design, placement, &mut occ, &mut boxes);
    }
    stats.hpwl_after = placement.total_hpwl(netlist);
    stats
}

/// All 6 permutations of three indices.
const PERM3: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Window reordering: for every run of three consecutive movable cells in
/// a row, try all left-packed permutations inside the window's span and
/// keep the best. Left-packing inside the original span cannot create
/// overlaps with the outside world, and integral widths on a unit site
/// grid keep every position site-aligned.
fn reorder_pass(
    netlist: &Netlist,
    design: &Design,
    placement: &mut Placement,
    occ: &mut Occupancy,
    boxes: &mut NetBoxes,
) -> usize {
    let mut accepted = 0usize;
    for ri in 0..design.rows().len() {
        // Snapshot the row ordering; refreshed after each accepted change.
        let mut idx = 0usize;
        loop {
            let row = &occ.rows[ri];
            if idx + 3 > row.len() {
                break;
            }
            let trio = [row[idx].1, row[idx + 1].1, row[idx + 2].1];
            idx += 1;
            if trio.iter().any(|c| netlist.cell(*c).fixed) {
                continue;
            }
            let [t0, ..] = trio;
            let x0 = placement.cell_rect(netlist, t0).x1();
            let widths = trio.map(|c| netlist.cell_width(c));
            let y = trio.map(|c| placement.get(c).y);
            // The trio's centres when left-packed from `x0` in `perm` order.
            let packed = |perm: &[usize; 3]| {
                let mut to = [Point::ORIGIN; 3];
                let mut cursor = x0;
                for &k in perm {
                    to[k] = Point::new(cursor + widths[k] / 2.0, y[k]);
                    cursor += widths[k];
                }
                to
            };
            boxes.load(netlist, placement, &trio);
            let before = boxes.current(netlist);
            let mut best: Option<(f64, [usize; 3])> = None;
            for perm in PERM3.iter().skip(1) {
                let after = boxes.price(netlist, placement, &packed(perm));
                let delta = after - before;
                if delta < -1e-9 && best.is_none_or(|(d, _)| delta < d) {
                    best = Some((delta, *perm));
                }
            }
            if let Some((_, perm)) = best {
                let to = packed(&perm);
                for &c in &trio {
                    occ.remove(c);
                }
                let mut cursor = x0;
                for &k in &perm {
                    placement.set(trio[k], to[k]);
                    occ.insert(trio[k], cursor, ri);
                    cursor += widths[k];
                }
                boxes.commit(netlist, placement);
                accepted += 1;
            }
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_legal, legalize, LegalizeOptions};
    use sdp_dpgen::{generate, GenConfig};
    use sdp_gp::{GlobalPlacer, GpConfig};
    use sdp_netlist::Netlist;

    /// Detailed placement before the net-box cache, kept as the
    /// reference: every candidate re-scans each touched net in full.
    mod reference {
        use super::super::{DetailedOptions, DetailedStats, Occupancy, PERM3, WINDOW_SITES};
        use sdp_geom::{BBox, Point};
        use sdp_netlist::{CellId, Design, NetId, Netlist, Placement};

        /// HPWL of the given nets at the current placement.
        fn nets_hpwl(netlist: &Netlist, placement: &Placement, nets: &[NetId]) -> f64 {
            nets.iter()
                .map(|&n| netlist.net(n).weight * placement.net_hpwl(netlist, n))
                .sum()
        }

        /// The x/y medians of the bounding boxes of `c`'s nets, excluding `c`'s own
        /// pins — the classic "optimal region" centre.
        fn optimal_point(netlist: &Netlist, placement: &Placement, c: CellId) -> Option<Point> {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for &p in &netlist.cell(c).pins {
                let net = netlist.pin(p).net;
                let mut bb = BBox::new();
                for &q in &netlist.net(net).pins {
                    if netlist.pin(q).cell != c {
                        bb.add_point(placement.pin_position(netlist, q));
                    }
                }
                if let Some(r) = bb.rect() {
                    xs.push(r.x1());
                    xs.push(r.x2());
                    ys.push(r.y1());
                    ys.push(r.y2());
                }
            }
            if xs.is_empty() {
                return None;
            }
            xs.sort_by(f64::total_cmp);
            ys.sort_by(f64::total_cmp);
            Some(Point::new(xs[xs.len() / 2], ys[ys.len() / 2]))
        }

        /// Runs detailed placement. The placement must already be legal; it stays
        /// legal (every accepted move goes into a verified gap or an equal-width
        /// swap). Returns statistics including the HPWL before/after.
        pub fn detailed_place(
            netlist: &Netlist,
            design: &Design,
            placement: &mut Placement,
            options: &DetailedOptions,
        ) -> DetailedStats {
            let hpwl_before = placement.total_hpwl(netlist);
            let mut occ = Occupancy::build(netlist, design, placement);
            let mut stats = DetailedStats {
                moves: 0,
                swaps: 0,
                reorders: 0,
                hpwl_before,
                hpwl_after: hpwl_before,
            };
            let site = design.rows().first().map_or(1.0, |r| r.site_width);
            let window = WINDOW_SITES * site;

            let order: Vec<CellId> = netlist.movable_ids().collect();

            for _pass in 0..options.passes {
                let mut improved = false;
                for &c in &order {
                    let Some(target) = optimal_point(netlist, placement, c) else {
                        continue;
                    };
                    let w = netlist.cell_width(c);
                    let my_nets: Vec<NetId> = {
                        let mut v: Vec<NetId> = netlist.nets_of_cell(c).collect();
                        v.sort_unstable();
                        v.dedup();
                        v
                    };
                    let cur = placement.get(c);
                    if cur.manhattan_to(target) < site {
                        continue; // already at its optimum
                    }
                    let row_locked = options.row_locked.contains(&c);
                    let tri = if row_locked {
                        design.row_at_y(cur.y - 1e-9)
                    } else {
                        design.row_at_y(target.y)
                    };

                    // Try relocation into a gap near the target.
                    let before = nets_hpwl(netlist, placement, &my_nets);
                    let mut best: Option<(f64, Point)> = None;
                    let (row_lo, row_hi) = if row_locked {
                        (tri, tri)
                    } else {
                        (
                            tri.saturating_sub(1),
                            (tri + 1).min(design.rows().len() - 1),
                        )
                    };
                    for ri in row_lo..=row_hi {
                        let r = &design.rows()[ri];
                        for (g1, g2) in occ.gaps(
                            netlist,
                            placement,
                            design,
                            ri,
                            target.x - window,
                            target.x + window,
                        ) {
                            if g2 - g1 < w - 1e-9 {
                                continue;
                            }
                            let lo = r.snap_x(g1);
                            let lo = if lo < g1 - 1e-9 {
                                lo + r.site_width
                            } else {
                                lo
                            };
                            let hi = g2 - w;
                            if hi < lo - 1e-9 {
                                continue;
                            }
                            let x = r.snap_x((target.x - w / 2.0).clamp(lo, hi)).clamp(lo, hi);
                            let cand = Point::new(x + w / 2.0, r.y + r.height / 2.0);
                            placement.set(c, cand);
                            let after = nets_hpwl(netlist, placement, &my_nets);
                            placement.set(c, cur);
                            let delta = after - before;
                            if delta < -1e-9 && best.is_none_or(|(d, _)| delta < d) {
                                best = Some((delta, cand));
                            }
                        }
                    }
                    if let Some((_, cand)) = best {
                        occ.remove(c);
                        placement.set(c, cand);
                        occ.insert(c, cand.x - w / 2.0, design.row_at_y(cand.y - 1e-9));
                        stats.moves += 1;
                        improved = true;
                        continue;
                    }

                    // Try swapping with an equal-width cell near the target.
                    let mut best_swap: Option<(f64, CellId)> = None;
                    let partners: Vec<CellId> = occ
                        .cells_in(tri, target.x - window, target.x + window)
                        .iter()
                        .map(|&(_, p)| p)
                        .filter(|&p| {
                            p != c
                                && !netlist.cell(p).fixed
                                && (netlist.cell_width(p) - w).abs() < 1e-9
                                // A row-locked partner may only swap within its
                                // own row; the candidate pool is drawn from row
                                // `tri`, so that is automatic for `c`. For the
                                // partner, a cross-row swap would move it.
                                && (!options.row_locked.contains(&p)
                                    || design.row_at_y(cur.y - 1e-9) == tri)
                        })
                        .collect();
                    for p in partners {
                        let mut nets: Vec<NetId> = my_nets.clone();
                        nets.extend(netlist.nets_of_cell(p));
                        nets.sort_unstable();
                        nets.dedup();
                        let before = nets_hpwl(netlist, placement, &nets);
                        let (pc, pp) = (placement.get(c), placement.get(p));
                        placement.set(c, pp);
                        placement.set(p, pc);
                        let after = nets_hpwl(netlist, placement, &nets);
                        placement.set(c, pc);
                        placement.set(p, pp);
                        let delta = after - before;
                        if delta < -1e-9 && best_swap.is_none_or(|(d, _)| delta < d) {
                            best_swap = Some((delta, p));
                        }
                    }
                    if let Some((_, p)) = best_swap {
                        let (pc, pp) = (placement.get(c), placement.get(p));
                        let (ri_c, ri_p) = (occ.row_of[c.ix()], occ.row_of[p.ix()]);
                        occ.remove(c);
                        occ.remove(p);
                        placement.set(c, pp);
                        placement.set(p, pc);
                        occ.insert(c, pp.x - w / 2.0, ri_p);
                        occ.insert(p, pc.x - w / 2.0, ri_c);
                        stats.swaps += 1;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
            if options.reorder_windows && options.passes > 0 {
                stats.reorders = reorder_pass(netlist, design, placement, &mut occ);
            }
            stats.hpwl_after = placement.total_hpwl(netlist);
            stats
        }

        /// Window reordering: for every run of three consecutive movable cells in
        /// a row, try all left-packed permutations inside the window's span and
        /// keep the best. Left-packing inside the original span cannot create
        /// overlaps with the outside world, and integral widths on a unit site
        /// grid keep every position site-aligned.
        fn reorder_pass(
            netlist: &Netlist,
            design: &Design,
            placement: &mut Placement,
            occ: &mut Occupancy,
        ) -> usize {
            let mut accepted = 0usize;
            for ri in 0..design.rows().len() {
                // Snapshot the row ordering; refreshed after each accepted change.
                let mut idx = 0usize;
                loop {
                    let row = &occ.rows[ri];
                    if idx + 3 > row.len() {
                        break;
                    }
                    let trio = [row[idx].1, row[idx + 1].1, row[idx + 2].1];
                    let [t0, t1, t2] = trio;
                    idx += 1;
                    if trio.iter().any(|c| netlist.cell(*c).fixed) {
                        continue;
                    }
                    let x0 = placement.cell_rect(netlist, t0).x1();
                    let widths = trio.map(|c| netlist.cell_width(c));
                    let y = [t0, t1, t2].map(|c| placement.get(c).y);
                    let originals = trio.map(|c| placement.get(c));
                    let mut nets: Vec<NetId> =
                        trio.iter().flat_map(|&c| netlist.nets_of_cell(c)).collect();
                    nets.sort_unstable();
                    nets.dedup();
                    let before = nets_hpwl(netlist, placement, &nets);
                    let mut best: Option<(f64, [usize; 3])> = None;
                    for perm in PERM3.iter().skip(1) {
                        let mut cursor = x0;
                        for &k in perm {
                            placement.set(trio[k], Point::new(cursor + widths[k] / 2.0, y[k]));
                            cursor += widths[k];
                        }
                        let after = nets_hpwl(netlist, placement, &nets);
                        let delta = after - before;
                        if delta < -1e-9 && best.is_none_or(|(d, _)| delta < d) {
                            best = Some((delta, *perm));
                        }
                        for (k, &c) in trio.iter().enumerate() {
                            placement.set(c, originals[k]);
                        }
                    }
                    if let Some((_, perm)) = best {
                        for &c in &trio {
                            occ.remove(c);
                        }
                        let mut cursor = x0;
                        for &k in &perm {
                            placement.set(trio[k], Point::new(cursor + widths[k] / 2.0, y[k]));
                            occ.insert(trio[k], cursor, ri);
                            cursor += widths[k];
                        }
                        accepted += 1;
                    }
                }
            }
            accepted
        }
    }

    fn legal_tiny(seed: u64) -> (sdp_netlist::Netlist, Design, Placement) {
        let mut d = generate(&GenConfig::named("dp_tiny", seed).unwrap());
        GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
        legalize(
            &d.netlist,
            &d.design,
            &mut d.placement,
            &LegalizeOptions::default(),
        );
        (d.netlist, d.design, d.placement)
    }

    /// A hand-built legal design: 160 cells of widths 1–3 on 12 rows, a
    /// 140-pin net with pin offsets, chains, 3-pin nets, a cell with two
    /// pins on one net, and a fixed pad; every fifth cell is row-locked.
    fn hand_built() -> (Netlist, Design, Placement, HashSet<CellId>) {
        use sdp_netlist::{NetlistBuilder, PinDir};
        let mut b = NetlistBuilder::new();
        let libs: Vec<_> = (1..=3)
            .map(|w| b.add_lib_cell(&format!("W{w}"), w as f64, 1.0, 1, 1))
            .collect();
        let cells: Vec<_> = (0..160)
            .map(|i| b.add_cell(&format!("u{i}"), libs[(i * 7 + i / 5) % 3]))
            .collect();
        let pad = b.add_fixed_cell("pad", libs[0]);
        let pin = |c, x: f64| (c, Point::new(x, 0.25), PinDir::Input);
        b.add_net(
            "hub",
            cells[..140]
                .iter()
                .enumerate()
                .map(|(i, &c)| pin(c, (i % 3) as f64 * 0.5 - 0.5)),
        );
        for (i, w) in cells.windows(2).enumerate() {
            b.add_net(&format!("chain{i}"), [pin(w[0], 0.5), pin(w[1], -0.5)]);
        }
        for i in 0..cells.len() {
            let (a, c, d) = (cells[i], cells[(i + 7) % 160], cells[(i + 31) % 160]);
            b.add_net(&format!("tri{i}"), [pin(a, 0.0), pin(c, 0.0), pin(d, 0.0)]);
        }
        b.add_net(
            "twice",
            [pin(cells[3], -0.5), pin(cells[3], 0.5), pin(cells[90], 0.0)],
        );
        b.add_net(
            "pad",
            [pin(pad, 0.0), pin(cells[10], 0.0), pin(cells[150], 0.0)],
        );
        let nl = b.finish().unwrap();
        let design = Design::uniform_rows(60.0, 1.0, 12, 1.0);
        let mut pl = Placement::new(&nl);
        for (i, &c) in cells.iter().enumerate() {
            let k = i as f64;
            pl.set(
                c,
                Point::new((k * 13.7) % 58.0 + 1.0, (k * 5.3) % 11.0 + 0.5),
            );
        }
        pl.set(pad, Point::new(-2.0, 6.0));
        legalize(&nl, &design, &mut pl, &LegalizeOptions::default());
        assert!(check_legal(&nl, &design, &pl).is_empty());
        let locked = cells.iter().step_by(5).copied().collect();
        (nl, design, pl, locked)
    }

    #[test]
    fn cached_boxes_place_bitwise_as_full_rescans() {
        let mut cases = vec![("hand-built", hand_built())];
        for (name, outers) in [("dp_tiny", 12), ("dp_small", 4)] {
            let mut d = generate(&GenConfig::named(name, 7).unwrap());
            let gp = GpConfig {
                max_outer: outers,
                ..GpConfig::fast()
            };
            GlobalPlacer::new(gp).place(&d.netlist, &d.design, &mut d.placement, None);
            legalize(
                &d.netlist,
                &d.design,
                &mut d.placement,
                &LegalizeOptions::default(),
            );
            let locked = d.netlist.movable_ids().step_by(3).collect();
            cases.push((name, (d.netlist, d.design, d.placement, locked)));
        }
        for (name, (nl, design, start, locked)) in &cases {
            let mut moved = 0;
            for passes in [1, 2] {
                for reorder_windows in [false, true] {
                    for row_locked in [HashSet::new(), locked.clone()] {
                        let options = DetailedOptions {
                            passes,
                            row_locked,
                            reorder_windows,
                        };
                        let (mut want, mut got) = (start.clone(), start.clone());
                        let a = reference::detailed_place(nl, design, &mut want, &options);
                        let b = detailed_place(nl, design, &mut got, &options);
                        let at = format!(
                            "{name}, {passes} passes, reorder {reorder_windows}, {} locked",
                            options.row_locked.len()
                        );
                        assert_eq!(
                            (a.moves, a.swaps, a.reorders),
                            (b.moves, b.swaps, b.reorders),
                            "{at}"
                        );
                        assert_eq!(a.hpwl_before.to_bits(), b.hpwl_before.to_bits(), "{at}");
                        assert_eq!(a.hpwl_after.to_bits(), b.hpwl_after.to_bits(), "{at}");
                        for (c, (p, q)) in want.positions().iter().zip(got.positions()).enumerate()
                        {
                            assert_eq!(
                                (p.x.to_bits(), p.y.to_bits()),
                                (q.x.to_bits(), q.y.to_bits()),
                                "cell {c}, {at}"
                            );
                        }
                        moved += b.moves + b.swaps + b.reorders;
                    }
                }
            }
            assert!(moved > 0, "{name}: no move, swap or reorder was accepted");
        }
    }

    #[test]
    fn improves_hpwl_and_stays_legal() {
        let (nl, design, mut pl) = legal_tiny(1);
        let stats = detailed_place(&nl, &design, &mut pl, &DetailedOptions::default());
        assert!(
            stats.hpwl_after <= stats.hpwl_before,
            "{} -> {}",
            stats.hpwl_before,
            stats.hpwl_after
        );
        assert!(stats.moves + stats.swaps > 0, "should find improvements");
        let violations = check_legal(&nl, &design, &pl);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn deterministic() {
        let (nl, design, mut p1) = legal_tiny(3);
        let mut p2 = p1.clone();
        detailed_place(&nl, &design, &mut p1, &DetailedOptions::default());
        detailed_place(&nl, &design, &mut p2, &DetailedOptions::default());
        assert_eq!(p1.positions(), p2.positions());
    }

    #[test]
    fn reordering_helps_and_stays_legal() {
        let (nl, design, mut pl) = legal_tiny(5);
        // Run with reordering off, then on, from the same start.
        let mut pl_off = pl.clone();
        let off = detailed_place(
            &nl,
            &design,
            &mut pl_off,
            &DetailedOptions {
                reorder_windows: false,
                ..DetailedOptions::default()
            },
        );
        let on = detailed_place(&nl, &design, &mut pl, &DetailedOptions::default());
        assert!(
            on.hpwl_after <= off.hpwl_after + 1e-9,
            "reordering never hurts: {} vs {}",
            on.hpwl_after,
            off.hpwl_after
        );
        assert!(check_legal(&nl, &design, &pl).is_empty());
    }

    #[test]
    fn reorder_counts_are_reported() {
        let (nl, design, mut pl) = legal_tiny(6);
        let stats = detailed_place(&nl, &design, &mut pl, &DetailedOptions::default());
        // Trivial smoke: the field exists and the run stayed legal.
        let _ = stats.reorders;
        assert!(check_legal(&nl, &design, &pl).is_empty());
    }

    #[test]
    fn zero_passes_is_identity() {
        let (nl, design, mut pl) = legal_tiny(4);
        let before = pl.positions().to_vec();
        let options = DetailedOptions {
            passes: 0,
            ..DetailedOptions::default()
        };
        let stats = detailed_place(&nl, &design, &mut pl, &options);
        assert_eq!(pl.positions(), &before[..]);
        assert_eq!(stats.hpwl_before, stats.hpwl_after);
    }
}
