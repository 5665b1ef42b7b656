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
            let mut nets: Vec<NetId> = trio.iter().flat_map(|&c| netlist.nets_of_cell(c)).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_legal, legalize, LegalizeOptions};
    use sdp_dpgen::{generate, GenConfig};
    use sdp_gp::{GlobalPlacer, GpConfig};

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
