//! Tetris-style greedy legalization.

use crate::rows::RowSpace;
use sdp_geom::Point;
use sdp_netlist::{CellId, Design, Netlist, Placement, Row};
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

    let mut walk = RowWalk::new(rows);
    for c in order {
        let m = netlist.master_of(c);
        let target = placement.get(c);
        let target_left = target.x - m.width / 2.0;

        // Rows by vertical distance; prune once dy alone exceeds the best
        // cost found.
        walk.start(target.y);
        let mut best: Option<(f64, usize)> = None;
        for ri in &mut walk {
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

/// The rows in ascending `|centre − y|`, ties by row index: the order a
/// stable sort of every row by that distance gives. It walks outward
/// from `y` over the rows sorted by centre, so a cell whose search stops
/// after a few rows touches only those.
///
/// Along each side of `y` the rounded distance never falls as the walk
/// moves away, so the rows at one distance are adjacent on each side;
/// each step takes every row at the nearest distance from both fronts
/// and visits them in index order.
struct RowWalk {
    /// Each row's centre `y + height / 2`.
    centres: Vec<f64>,
    /// Row indices sorted by centre, ties by index.
    by_centre: Vec<usize>,
    /// Where the walk started.
    y: f64,
    /// `by_centre[..below]` are the unvisited rows below `y`, walked
    /// downward; `by_centre[above..]` those at or above it, walked upward.
    below: usize,
    above: usize,
    /// The unvisited rows at the current distance, largest index first.
    tied: Vec<usize>,
}

impl RowWalk {
    fn new(rows: &[Row]) -> Self {
        let centres: Vec<f64> = rows.iter().map(|r| r.y + r.height / 2.0).collect();
        let mut by_centre: Vec<usize> = (0..rows.len()).collect();
        by_centre.sort_by(|&i, &j| centres[i].total_cmp(&centres[j]).then(i.cmp(&j)));
        RowWalk {
            centres,
            by_centre,
            y: 0.0,
            below: 0,
            above: 0,
            tied: Vec::new(),
        }
    }

    /// Restarts the walk at `y`.
    fn start(&mut self, y: f64) {
        self.y = y;
        self.above = self.by_centre.partition_point(|&ri| self.centres[ri] < y);
        self.below = self.above;
        self.tied.clear();
    }

    /// The distance from the start of the row at `by_centre[k]`, as the
    /// sort computed it.
    fn distance(&self, k: usize) -> f64 {
        (self.centres[self.by_centre[k]] - self.y).abs()
    }
}

impl Iterator for RowWalk {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if let Some(ri) = self.tied.pop() {
            return Some(ri);
        }
        let down = self.below.checked_sub(1).map(|k| self.distance(k));
        let up = (self.above < self.by_centre.len()).then(|| self.distance(self.above));
        let nearest = match (down, up) {
            (Some(d), Some(u)) => std::cmp::min_by(d, u, f64::total_cmp),
            (d, u) => d.or(u)?,
        };
        while self.below > 0 && self.distance(self.below - 1).total_cmp(&nearest).is_eq() {
            self.below -= 1;
            self.tied.push(self.by_centre[self.below]);
        }
        while self.above < self.by_centre.len()
            && self.distance(self.above).total_cmp(&nearest).is_eq()
        {
            self.tied.push(self.by_centre[self.above]);
            self.above += 1;
        }
        self.tied.sort_unstable_by(|a, b| b.cmp(a));
        self.tied.pop()
    }
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

    /// The legalizer as it was before [`RowWalk`]: it sorts every row by
    /// distance for every cell. Kept as the reference the walk must
    /// match placement for placement.
    fn legalize_sorting_rows(
        netlist: &Netlist,
        design: &Design,
        placement: &mut Placement,
    ) -> LegalStats {
        let rows = design.rows();
        let mut spaces: Vec<RowSpace> = rows.iter().map(RowSpace::new).collect();
        for c in netlist.cell_ids().filter(|&c| netlist.cell(c).fixed) {
            let r = placement.cell_rect(netlist, c);
            for (ri, row) in rows.iter().enumerate() {
                if r.y2() > row.y && r.y1() < row.y + row.height {
                    spaces[ri].block(r.x1(), r.width());
                }
            }
        }
        let mut order: Vec<CellId> = netlist.movable_ids().collect();
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
                if best.is_some_and(|(cost, _)| dy >= cost) {
                    break;
                }
                if let Some(dx) = spaces[ri].peek_cost(target_left, m.width) {
                    let cost = dx + dy;
                    if best.is_none_or(|(c0, _)| cost < c0) {
                        best = Some((cost, ri));
                    }
                }
            }
            let Some((_, ri)) = best else {
                stats.failed += 1;
                continue;
            };
            let row = &rows[ri];
            let x = spaces[ri].place_near(target_left, m.width).unwrap();
            let new = Point::new(x + m.width / 2.0, row.y + row.height / 2.0);
            let d = new.manhattan_to(target);
            stats.total_displacement += d;
            stats.max_displacement = stats.max_displacement.max(d);
            stats.placed += 1;
            placement.set(c, new);
        }
        stats
    }

    /// Rows with unequal heights, two rows at one coordinate, and one
    /// row listed out of order; centres -0.5, 0.5, 2, 3.5, 3.5, 4.75.
    fn uneven_design() -> Design {
        let row = |y: f64, height: f64| sdp_netlist::Row {
            y,
            height,
            x1: 0.0,
            x2: 20.0,
            site_width: 1.0,
        };
        let rows = vec![
            row(0.0, 1.0),
            row(1.0, 2.0),
            row(3.0, 1.0),
            row(3.0, 1.0),
            row(4.0, 1.5),
            row(-1.0, 1.0),
        ];
        Design::new(sdp_geom::Rect::new(0.0, -1.0, 20.0, 5.5), rows)
    }

    /// Targets on every centre, exactly midway between neighbouring
    /// centres, next to both, and beyond either end.
    fn uneven_targets() -> Vec<f64> {
        let mut centres: Vec<f64> = uneven_design()
            .rows()
            .iter()
            .map(|r| r.y + r.height / 2.0)
            .collect();
        centres.sort_by(f64::total_cmp);
        let mut targets = vec![-40.0, 40.0];
        for (k, &c) in centres.iter().enumerate() {
            targets.extend([c, c - 1e-9, c + 1e-9]);
            if let Some(&next) = centres.get(k + 1) {
                targets.push((c + next) / 2.0);
            }
        }
        targets
    }

    #[test]
    fn row_walk_visits_rows_in_the_stable_sort_order() {
        let design = uneven_design();
        let rows = design.rows();
        let mut walk = RowWalk::new(rows);
        let mut targets = uneven_targets();
        targets.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        for y in targets {
            let mut sorted: Vec<usize> = (0..rows.len()).collect();
            sorted.sort_by(|&i, &j| {
                let di = (rows[i].y + rows[i].height / 2.0 - y).abs();
                let dj = (rows[j].y + rows[j].height / 2.0 - y).abs();
                di.total_cmp(&dj)
            });
            walk.start(y);
            assert_eq!(walk.by_ref().collect::<Vec<_>>(), sorted, "target {y}");
        }
        // Midway between centres 0.5 and 2 both rows tie; between 2 and
        // 3.5 the two rows at one coordinate tie with row 1 as well.
        walk.start(1.25);
        assert_eq!(walk.by_ref().take(2).collect::<Vec<_>>(), [0, 1]);
        walk.start(2.75);
        assert_eq!(walk.by_ref().take(3).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn row_walk_places_exactly_as_sorting_every_row() {
        use sdp_netlist::{NetlistBuilder, PinDir};
        let check = |nl: &Netlist, design: &Design, pl: &Placement, what: &str| {
            let (mut walked, mut sorted) = (pl.clone(), pl.clone());
            let a = legalize(nl, design, &mut walked, &LegalizeOptions::default());
            let b = legalize_sorting_rows(nl, design, &mut sorted);
            assert_eq!(a, b, "{what}: stats");
            let bits = |p: &Placement| -> Vec<(u64, u64)> {
                p.positions()
                    .iter()
                    .map(|q| (q.x.to_bits(), q.y.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&walked), bits(&sorted), "{what}: positions");
        };

        // Generated designs: globally placed, every cell on the region
        // centre, and cells scattered over the region.
        let (nl, design, pl) = placed_tiny(5);
        check(&nl, &design, &pl, "dp_tiny placed");
        for name in ["dp_tiny", "dp_small"] {
            let d = generate(&GenConfig::named(name, 5).unwrap());
            check(
                &d.netlist,
                &d.design,
                &d.placement,
                &format!("{name} centred"),
            );
            let region = d.design.region();
            let mut scattered = d.placement.clone();
            for (k, c) in d.netlist.movable_ids().enumerate() {
                let (u, v) = ((k as f64 * 0.618_034) % 1.0, (k as f64 * 0.414_214) % 1.0);
                let at = Point::new(
                    region.x1() + u * region.width(),
                    region.y1() + v * region.height(),
                );
                scattered.set(c, at);
            }
            check(
                &d.netlist,
                &d.design,
                &scattered,
                &format!("{name} scattered"),
            );
        }

        // The uneven rows, with more cells than fit near each target, so
        // searches walk far from it.
        let mut b = NetlistBuilder::new();
        let lib = b.add_lib_cell("C", 2.0, 1.0, 1, 1);
        let cells: Vec<CellId> = (0..50).map(|i| b.add_cell(&format!("u{i}"), lib)).collect();
        for pair in cells.windows(2) {
            b.add_net(
                &format!("n{}", pair[0]),
                [
                    (pair[0], Point::ORIGIN, PinDir::Output),
                    (pair[1], Point::ORIGIN, PinDir::Input),
                ],
            );
        }
        let nl = b.finish().unwrap();
        let targets = uneven_targets();
        let mut pl = Placement::new(&nl);
        for (k, &c) in cells.iter().enumerate() {
            let x = (k * 7 % 20) as f64;
            pl.set(c, Point::new(x, targets[k % targets.len()]));
        }
        check(&nl, &uneven_design(), &pl, "uneven rows");
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
