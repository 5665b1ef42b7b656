//! Tetris-style greedy legalization.

use crate::rows::RowSpace;
use sdp_geom::Point;
use sdp_netlist::{CellId, Design, Netlist, Placement};
use std::collections::HashSet;

/// Relative weight of vertical displacement in the row-choice cost of
/// both legalizers (vertical moves cross routing rows and are usually
/// worse).
pub(crate) const Y_WEIGHT: f64 = 2.0;

/// Options for [`legalize`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LegalizeOptions {
    /// Cells that must not be moved; they become blockages. Pre-placed
    /// datapath arrays and macros go here.
    pub locked: HashSet<CellId>,
}

/// Result of a legalization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalStats {
    /// Cells legalized (moved onto rows/sites).
    pub placed: usize,
    /// Cells that could not be placed (no free space); these keep their
    /// global-placement position and are reported, never silently dropped.
    pub failed: usize,
    /// Total displacement incurred (sum of Manhattan moves).
    pub total_displacement: f64,
    /// Maximum single-cell displacement.
    pub max_displacement: f64,
}

/// Legalizes all unlocked movable cells onto rows and sites.
///
/// Fixed cells and `options.locked` cells are treated as blockages where
/// they overlap the core region. Cells are processed in ascending x order
/// (the classic Tetris sweep) and each claims the free position minimizing
/// `|Δx| + 2·|Δy|`.
pub fn legalize(
    netlist: &Netlist,
    design: &Design,
    placement: &mut Placement,
    options: &LegalizeOptions,
) -> LegalStats {
    let rows = design.rows();
    let mut spaces: Vec<RowSpace> = rows.iter().map(RowSpace::new).collect();

    // Blockages: fixed cells and locked cells overlapping the core.
    for c in netlist.cell_ids() {
        let blocked = netlist.cell(c).fixed || options.locked.contains(&c);
        if !blocked {
            continue;
        }
        let r = placement.cell_rect(netlist, c);
        for (ri, row) in rows.iter().enumerate() {
            if r.y2() > row.y && r.y1() < row.y + row.height {
                spaces[ri].block(r.x1(), r.width());
            }
        }
    }

    // Tetris sweep: left to right.
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

    let mut stats = LegalStats {
        placed: 0,
        failed: 0,
        total_displacement: 0.0,
        max_displacement: 0.0,
    };

    for c in order {
        let m = netlist.master_of(c);
        let target = placement.get(c);
        let target_left = target.x - m.width / 2.0;

        // Rows sorted by vertical distance; prune once dy alone exceeds
        // the best cost found.
        let mut row_ix: Vec<usize> = (0..rows.len()).collect();
        row_ix.sort_by(|&i, &j| {
            let di = (rows[i].y + rows[i].height / 2.0 - target.y).abs();
            let dj = (rows[j].y + rows[j].height / 2.0 - target.y).abs();
            di.total_cmp(&dj)
        });

        let mut best: Option<(f64, usize)> = None;
        for &ri in &row_ix {
            let row = &rows[ri];
            let dy = (row.y + row.height / 2.0 - target.y).abs() * Y_WEIGHT;
            if let Some((cost, _)) = best {
                if dy >= cost {
                    break; // rows only get farther from here on
                }
            }
            if let Some(dx) = spaces[ri].peek_cost(target_left, m.width) {
                let cost = dx + dy;
                if best.is_none_or(|(c0, _)| cost < c0) {
                    best = Some((cost, ri));
                }
            }
        }

        match best {
            Some((_, ri)) => {
                let row = &rows[ri];
                let Some(x) = spaces[ri].place_near(target_left, m.width) else {
                    unreachable!("peek_cost guaranteed a fit for this width")
                };
                let new = Point::new(x + m.width / 2.0, row.y + row.height / 2.0);
                let d = new.manhattan_to(target);
                stats.total_displacement += d;
                stats.max_displacement = stats.max_displacement.max(d);
                stats.placed += 1;
                placement.set(c, new);
            }
            None => {
                stats.failed += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_legal;
    use sdp_dpgen::{generate, GenConfig};
    use sdp_gp::{GlobalPlacer, GpConfig};

    fn placed_tiny(seed: u64) -> (sdp_netlist::Netlist, Design, Placement) {
        let mut d = generate(&GenConfig::named("dp_tiny", seed).unwrap());
        GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
        (d.netlist, d.design, d.placement)
    }

    #[test]
    fn legalizes_everything() {
        let (nl, design, mut pl) = placed_tiny(1);
        let stats = legalize(&nl, &design, &mut pl, &LegalizeOptions::default());
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.placed, nl.num_movable());
        assert!(check_legal(&nl, &design, &pl).is_empty());
    }

    #[test]
    fn displacement_is_reasonable() {
        let (nl, design, mut pl) = placed_tiny(2);
        let stats = legalize(&nl, &design, &mut pl, &LegalizeOptions::default());
        let avg = stats.total_displacement / stats.placed as f64;
        // After a decent global placement, average displacement should be
        // a few row heights, not a region diameter.
        assert!(
            avg < design.region().half_perimeter() * 0.1,
            "avg displacement {avg}"
        );
        assert!(stats.max_displacement.is_finite());
    }

    #[test]
    fn locked_cells_do_not_move_and_are_avoided() {
        let (nl, design, mut pl) = placed_tiny(3);
        // Lock a handful of cells at legal-looking positions first.
        let locked_ids: Vec<CellId> = nl.movable_ids().take(5).collect();
        for (k, &c) in locked_ids.iter().enumerate() {
            let m = nl.master_of(c);
            let row = &design.rows()[k];
            pl.set(c, Point::new(2.0 + m.width / 2.0, row.y + row.height / 2.0));
        }
        let options = LegalizeOptions {
            locked: locked_ids.iter().copied().collect(),
        };
        let before: Vec<Point> = locked_ids.iter().map(|&c| pl.get(c)).collect();
        let stats = legalize(&nl, &design, &mut pl, &options);
        assert_eq!(stats.failed, 0);
        for (&c, &p) in locked_ids.iter().zip(&before) {
            assert_eq!(pl.get(c), p, "locked cell moved");
        }
        // Everyone else is legal and does not overlap the locked cells.
        assert!(check_legal(&nl, &design, &pl).is_empty());
    }

    #[test]
    fn deterministic() {
        let (nl, design, mut p1) = placed_tiny(4);
        let mut p2 = p1.clone();
        legalize(&nl, &design, &mut p1, &LegalizeOptions::default());
        legalize(&nl, &design, &mut p2, &LegalizeOptions::default());
        assert_eq!(p1.positions(), p2.positions());
    }

    #[test]
    fn impossible_fit_reports_failed() {
        // A design whose rows cannot hold a giant cell.
        use sdp_netlist::{NetlistBuilder, PinDir};
        let mut b = NetlistBuilder::new();
        let big = b.add_lib_cell("BIG", 100.0, 1.0, 1, 1);
        let u = b.add_cell("u", big);
        let v = b.add_cell("v", big);
        b.add_net(
            "n",
            [
                (u, Point::ORIGIN, PinDir::Output),
                (v, Point::ORIGIN, PinDir::Input),
            ],
        );
        let nl = b.finish().unwrap();
        let design = Design::uniform_rows(10.0, 1.0, 2, 1.0);
        let mut pl = Placement::new(&nl);
        let stats = legalize(&nl, &design, &mut pl, &LegalizeOptions::default());
        assert_eq!(stats.failed, 2);
    }
}
