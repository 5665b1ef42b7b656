//! Abacus-style legalization: per-row cluster dynamic programming that
//! minimizes total quadratic displacement.
//!
//! Cells are inserted in x order; each insertion trials the nearby rows
//! and commits to the cheapest. Within a row (or row *segment* between
//! blockages), abutting cells merge into clusters whose optimal position
//! minimizes `Σ wᵢ·(xᵢ − xᵢ*)²` in closed form — the classic Abacus
//! recurrence (Spindler, Schlichtmann, Johannes; ISPD 2008). Compared with
//! the greedy Tetris sweep, Abacus trades runtime for noticeably lower
//! displacement on dense rows.

use crate::tetris::{LegalStats, LegalizeOptions, Y_WEIGHT};
use sdp_geom::Point;
use sdp_netlist::{CellId, Design, Netlist, Placement};

/// One Abacus cluster: a maximal run of abutting cells with an optimal
/// packed position.
#[derive(Debug, Clone)]
struct Cluster {
    /// Member cells in order.
    cells: Vec<CellId>,
    /// Σ weights (cell areas; wider cells resist displacement more).
    e: f64,
    /// Σ eᵢ·(xᵢ* − offsetᵢ): the numerator of the optimal position.
    q: f64,
    /// Total width.
    w: f64,
    /// Current left edge.
    x: f64,
}

/// One blockage-free segment of a row, holding its clusters.
#[derive(Debug, Clone)]
struct Segment {
    x1: f64,
    x2: f64,
    clusters: Vec<Cluster>,
    used: f64,
}

impl Segment {
    /// Inserts a cell with target left edge `tx` and width `w`; returns
    /// the resulting left edge. The caller has verified capacity.
    fn insert(&mut self, cell: CellId, weight: f64, tx: f64, w: f64) {
        let mut c = Cluster {
            cells: vec![cell],
            e: weight,
            q: weight * tx,
            w,
            x: 0.0,
        };
        place_cluster(&mut c, self.x1, self.x2);
        // Merge with predecessors while overlapping.
        while self
            .clusters
            .last()
            .is_some_and(|prev| prev.x + prev.w > c.x + 1e-9)
        {
            if let Some(prev) = self.clusters.pop() {
                c = merge(prev, c);
                place_cluster(&mut c, self.x1, self.x2);
            }
        }
        self.used += w;
        self.clusters.push(c);
    }

    /// Displacement cost of hypothetically inserting `(tx, w)` — runs the
    /// insertion on a scratch copy and sums the squared-displacement
    /// change. Abacus' trial step.
    #[allow(
        clippy::too_many_arguments,
        reason = "a trial insertion needs the full Abacus row state"
    )]
    fn trial_cost(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        row_yc: f64,
        cell: CellId,
        weight: f64,
        tx: f64,
        w: f64,
    ) -> Option<f64> {
        if self.x2 - self.x1 - self.used < w - 1e-9 {
            return None;
        }
        let mut scratch = self.clone();
        scratch.insert(cell, weight, tx, w);
        let mut cost = 0.0;
        for c in &scratch.clusters {
            let mut cursor = c.x;
            for &m in &c.cells {
                let mw = netlist.cell_width(m);
                let target = if m == cell {
                    Point::new(tx + w / 2.0, row_yc)
                } else {
                    placement.get(m)
                };
                let dx = cursor + mw / 2.0 - target.x;
                let dy = row_yc - target.y;
                cost += dx * dx + dy * dy;
                cursor += mw;
            }
        }
        Some(cost)
    }
}

/// Optimal clamped position of a cluster.
fn place_cluster(c: &mut Cluster, x1: f64, x2: f64) {
    let ideal = c.q / c.e;
    c.x = ideal.clamp(x1, (x2 - c.w).max(x1));
}

/// Abacus cluster merge.
fn merge(a: Cluster, b: Cluster) -> Cluster {
    let mut cells = a.cells;
    cells.extend(b.cells);
    Cluster {
        cells,
        e: a.e + b.e,
        // b's members sit `a.w` to the right of the merged cluster start.
        q: a.q + b.q - b.e * a.w,
        w: a.w + b.w,
        x: a.x,
    }
}

/// Legalizes with the Abacus row-clustering algorithm. Same contract as
/// [`crate::legalize`]: fixed and `options.locked` cells become blockages,
/// everything else lands on rows/sites, and cells that fit nowhere are
/// counted in `failed`.
///
/// Positions are snapped to the site grid after the quadratic optimum is
/// found (Abacus operates in continuous x).
pub fn legalize_abacus(
    netlist: &Netlist,
    design: &Design,
    placement: &mut Placement,
    options: &LegalizeOptions,
) -> LegalStats {
    let rows = design.rows();
    // A rowless (degenerate) design can host nothing: report every
    // movable, non-locked cell as failed instead of panicking on
    // `rows[0]` below.
    if rows.is_empty() {
        return LegalStats {
            placed: 0,
            failed: netlist
                .movable_ids()
                .filter(|c| !options.locked.contains(c))
                .count(),
            total_displacement: 0.0,
            max_displacement: 0.0,
        };
    }
    // Build per-row segments between blockages.
    let mut segments: Vec<Vec<Segment>> = rows
        .iter()
        .map(|r| {
            vec![Segment {
                x1: r.x1,
                x2: r.x2,
                clusters: Vec::new(),
                used: 0.0,
            }]
        })
        .collect();
    for c in netlist.cell_ids() {
        let blocked = netlist.cell(c).fixed || options.locked.contains(&c);
        if !blocked {
            continue;
        }
        let r = placement.cell_rect(netlist, c);
        for (ri, row) in rows.iter().enumerate() {
            if r.y2() <= row.y || r.y1() >= row.y + row.height {
                continue;
            }
            let mut next = Vec::new();
            for seg in segments[ri].drain(..) {
                if r.x2() <= seg.x1 || r.x1() >= seg.x2 {
                    next.push(seg);
                    continue;
                }
                if r.x1() > seg.x1 {
                    next.push(Segment {
                        x1: seg.x1,
                        x2: r.x1(),
                        clusters: Vec::new(),
                        used: 0.0,
                    });
                }
                if r.x2() < seg.x2 {
                    next.push(Segment {
                        x1: r.x2(),
                        x2: seg.x2,
                        clusters: Vec::new(),
                        used: 0.0,
                    });
                }
            }
            segments[ri] = next;
        }
    }

    // Insert cells in x order.
    let mut order: Vec<CellId> = netlist
        .movable_ids()
        .filter(|c| !options.locked.contains(c))
        .collect();
    order.sort_by(|&a, &b| {
        let (pa, pb) = (placement.get(a), placement.get(b));
        pa.x.total_cmp(&pb.x)
            .then(pa.y.total_cmp(&pb.y))
            .then(a.cmp(&b))
    });

    // Remember which (row, segment) every cell committed to.
    let mut assignment: Vec<(usize, usize)> = Vec::with_capacity(order.len());
    let mut failed = 0usize;

    for &cell in &order {
        let w = netlist.cell_width(cell);
        let weight = netlist.cell_area(cell).max(1e-6);
        let target = placement.get(cell);
        let tx = target.x - w / 2.0;
        let home = design.row_at_y(target.y);

        let mut best: Option<(f64, usize, usize)> = None;
        let row_height = rows.first().map_or(0.0, |r| r.height);
        // Search rows outward; stop when the pure-dy cost already exceeds
        // the best found.
        for dist in 0..rows.len() {
            if let Some((cost, _, _)) = best {
                let dy = dist as f64 * row_height;
                if dy * dy * Y_WEIGHT >= cost {
                    break;
                }
            }
            for ri in [home.checked_sub(dist), Some(home + dist)]
                .into_iter()
                .flatten()
                .filter(|&ri| ri < rows.len())
            {
                let yc = rows[ri].y + rows[ri].height / 2.0;
                for (si, seg) in segments[ri].iter().enumerate() {
                    if let Some(c) = seg.trial_cost(netlist, placement, yc, cell, weight, tx, w) {
                        if best.is_none_or(|(b, _, _)| c < b) {
                            best = Some((c, ri, si));
                        }
                    }
                }
            }
            if dist > 0 && best.is_some() && dist > 8 {
                break; // bounded search once something was found
            }
        }

        match best {
            Some((_, ri, si)) => {
                segments[ri][si].insert(cell, weight, tx, w);
                assignment.push((ri, si));
            }
            None => {
                assignment.push((usize::MAX, usize::MAX));
                failed += 1;
            }
        }
    }

    // Write back final positions, snapped to sites.
    let mut stats = LegalStats {
        placed: 0,
        failed,
        total_displacement: 0.0,
        max_displacement: 0.0,
    };
    for (ri, row_segments) in segments.iter().enumerate() {
        let row = &rows[ri];
        let yc = row.y + row.height / 2.0;
        for seg in row_segments {
            for cl in &seg.clusters {
                // Snap the cluster start down to a site, clamped into the
                // segment (integral widths keep members aligned).
                let snapped = row.snap_x(cl.x).clamp(seg.x1, (seg.x2 - cl.w).max(seg.x1));
                let snapped = if snapped < seg.x1 - 1e-9 {
                    seg.x1
                } else {
                    snapped
                };
                let mut cursor = snapped;
                for &m in &cl.cells {
                    let mw = netlist.cell_width(m);
                    let new = Point::new(cursor + mw / 2.0, yc);
                    let d = new.manhattan_to(placement.get(m));
                    stats.total_displacement += d;
                    stats.max_displacement = stats.max_displacement.max(d);
                    stats.placed += 1;
                    placement.set(m, new);
                    cursor += mw;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_legal, legalize};
    use sdp_dpgen::{generate, GenConfig};
    use sdp_gp::{GlobalPlacer, GpConfig};

    fn placed(seed: u64) -> (Netlist, Design, Placement) {
        let mut d = generate(&GenConfig::named("dp_tiny", seed).unwrap());
        GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
        (d.netlist, d.design, d.placement)
    }

    #[test]
    fn produces_legal_placement() {
        let (nl, design, mut pl) = placed(1);
        let stats = legalize_abacus(&nl, &design, &mut pl, &LegalizeOptions::default());
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.placed, nl.num_movable());
        let v = check_legal(&nl, &design, &pl);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn displacement_beats_or_matches_tetris() {
        let (nl, design, pl0) = placed(2);
        let mut pl_t = pl0.clone();
        let t = legalize(&nl, &design, &mut pl_t, &LegalizeOptions::default());
        let mut pl_a = pl0.clone();
        let a = legalize_abacus(&nl, &design, &mut pl_a, &LegalizeOptions::default());
        assert!(
            a.total_displacement <= t.total_displacement * 1.1,
            "abacus {:.1} vs tetris {:.1}",
            a.total_displacement,
            t.total_displacement
        );
    }

    #[test]
    fn respects_locked_blockages() {
        let (nl, design, mut pl) = placed(3);
        let locked: std::collections::HashSet<CellId> = nl.movable_ids().take(4).collect();
        for (k, &c) in locked.iter().enumerate() {
            let m = nl.master_of(c);
            let row = &design.rows()[2 * k];
            pl.set(c, Point::new(4.0 + m.width / 2.0, row.y + row.height / 2.0));
        }
        let before: Vec<Point> = locked.iter().map(|&c| pl.get(c)).collect();
        let stats = legalize_abacus(
            &nl,
            &design,
            &mut pl,
            &LegalizeOptions {
                locked: locked.clone(),
            },
        );
        assert_eq!(stats.failed, 0);
        for (&c, &p) in locked.iter().zip(&before) {
            assert_eq!(pl.get(c), p);
        }
        assert!(check_legal(&nl, &design, &pl).is_empty());
    }

    #[test]
    fn deterministic() {
        let (nl, design, pl0) = placed(4);
        let mut a = pl0.clone();
        let mut b = pl0.clone();
        legalize_abacus(&nl, &design, &mut a, &LegalizeOptions::default());
        legalize_abacus(&nl, &design, &mut b, &LegalizeOptions::default());
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn rowless_design_fails_all_cells_without_panicking() {
        let (nl, _design, mut pl) = placed(5);
        let rowless = Design::new(sdp_geom::Rect::new(0.0, 0.0, 10.0, 10.0), vec![]);
        let before = pl.positions().to_vec();
        let stats = legalize_abacus(&nl, &rowless, &mut pl, &LegalizeOptions::default());
        assert_eq!(stats.placed, 0);
        assert_eq!(stats.failed, nl.num_movable());
        assert_eq!(stats.total_displacement, 0.0);
        assert_eq!(stats.max_displacement, 0.0);
        // Nothing moved.
        assert_eq!(pl.positions(), &before[..]);
    }

    #[test]
    fn cluster_merge_math() {
        // Two unit-weight cells targeting 0 and 10 with width 4 each:
        // merged cluster optimum is the mean of (0, 10−4) = 3.
        let a = Cluster {
            cells: vec![CellId::new(0)],
            e: 1.0,
            q: 0.0,
            w: 4.0,
            x: 0.0,
        };
        let b = Cluster {
            cells: vec![CellId::new(1)],
            e: 1.0,
            q: 10.0,
            w: 4.0,
            x: 0.0,
        };
        let mut m = merge(a, b);
        place_cluster(&mut m, 0.0, 100.0);
        assert!((m.x - 3.0).abs() < 1e-9, "optimal start {}", m.x);
        assert_eq!(m.w, 8.0);
    }

    use sdp_netlist::Netlist;
}
