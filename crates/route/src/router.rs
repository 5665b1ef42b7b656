//! Net decomposition, L-pattern routing, and negotiated-congestion rip-up
//! & reroute (a compact PathFinder) whose maze search is A* toward the
//! segment's far end.

use crate::grid::{Dir, RoutingGrid};
use sdp_geom::Point;
use sdp_netlist::{Design, Netlist, Placement};
use sdp_progress::{Cancelled, Observer, Phase};
use std::collections::BinaryHeap;

/// Segments between cancellation checkpoints in the per-segment loops.
/// Small enough that a `DELETE /jobs/:id` lands within milliseconds even
/// on congested designs, large enough that the atomic poll is free.
const CHECKPOINT_STRIDE: usize = 256;

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// Gcells per axis; `None` sizes gcells to about 4 row heights.
    pub grid: Option<(usize, usize)>,
    /// Routing tracks per gcell edge (both directions).
    pub tracks_per_gcell: u32,
    /// Maximum rip-up & reroute iterations.
    pub rrr_iters: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            grid: None,
            tracks_per_gcell: 12,
            rrr_iters: 8,
        }
    }
}

/// Result of routing one placement.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteReport {
    /// Total routed wirelength (physical units).
    pub wirelength: f64,
    /// Total edge overflow after the final iteration.
    pub overflow: u64,
    /// Number of overflowed edges.
    pub overflowed_edges: usize,
    /// Maximum edge utilization.
    pub max_utilization: f64,
    /// Rip-up & reroute iterations actually run.
    pub iterations: usize,
    /// Number of 2-pin segments routed.
    pub segments: usize,
    /// Gcell grid dimensions actually used (explicit or auto-sized).
    pub grid: (usize, usize),
}

/// One routed 2-pin segment: the sequence of gcells it passes through.
#[derive(Debug, Clone)]
struct Segment {
    a: (usize, usize),
    b: (usize, usize),
    path: Vec<(usize, usize)>,
}

/// Routes a placed netlist and reports wirelength and congestion.
///
/// Pipeline: per-net rectilinear MST decomposition into 2-pin segments →
/// initial best-L routing → iterative rip-up of segments crossing
/// overflowed edges and maze rerouting with history costs.
pub fn route(
    netlist: &Netlist,
    placement: &Placement,
    design: &Design,
    config: &RouteConfig,
) -> RouteReport {
    match route_observed(netlist, placement, design, config, &Observer::noop()) {
        Ok(r) => r,
        Err(Cancelled) => unreachable!("the noop observer never cancels"),
    }
}

/// [`route`] with progress reporting and cooperative cancellation:
/// `obs` is polled every [`CHECKPOINT_STRIDE`] segments and at every
/// rip-up & reroute iteration boundary, and [`Phase::Route`] progress is
/// reported against the configured `rrr_iters` maximum. On
/// `Err(Cancelled)` no partial report escapes.
pub fn route_observed(
    netlist: &Netlist,
    placement: &Placement,
    design: &Design,
    config: &RouteConfig,
    obs: &Observer,
) -> Result<RouteReport, Cancelled> {
    obs.checkpoint()?;
    let region = design.region();
    let (nx, ny) = config.grid.unwrap_or_else(|| {
        let pitch = design.row_height() * 4.0;
        (
            ((region.width() / pitch).round() as usize).clamp(2, 256),
            ((region.height() / pitch).round() as usize).clamp(2, 256),
        )
    });
    let mut grid = RoutingGrid::new(
        region,
        nx,
        ny,
        config.tracks_per_gcell,
        config.tracks_per_gcell,
    );

    // Decompose nets into 2-pin gcell segments.
    let mut segments: Vec<Segment> = Vec::new();
    for n in netlist.net_ids() {
        let net = netlist.net(n);
        let mut cells: Vec<(usize, usize)> = net
            .pins
            .iter()
            .map(|&p| {
                let at = placement.pin_position(netlist, p);
                grid.gcell_of(region.clamp_point(at))
            })
            .collect();
        cells.sort_unstable();
        cells.dedup();
        if cells.len() < 2 {
            continue;
        }
        for (a, b) in mst_edges(&cells) {
            segments.push(Segment {
                a,
                b,
                path: Vec::new(),
            });
        }
    }

    // Initial routing: best of the two L shapes by current congestion.
    let mut history = vec![0.0f64; nx * ny * 2]; // per edge: [h..., v...]
    for (i, seg) in segments.iter_mut().enumerate() {
        if i % CHECKPOINT_STRIDE == 0 {
            obs.checkpoint()?;
        }
        let path = best_l_path(seg.a, seg.b, &grid, &history);
        commit(&mut grid, &path, 1);
        seg.path = path;
    }

    // Negotiated-congestion rip-up & reroute. Not monotone in general, so
    // the best solution seen is kept and restored at the end.
    type SavedPaths = Vec<Vec<(usize, usize)>>;
    let mut iterations = 0;
    let mut best_paths: Option<(u64, SavedPaths)> = None;
    for iter in 0..config.rrr_iters {
        obs.checkpoint()?;
        obs.report(Phase::Route, iter as f64 / config.rrr_iters.max(1) as f64);
        let (overflow, _) = grid.total_overflow();
        if best_paths.as_ref().is_none_or(|&(b, _)| overflow < b) {
            best_paths = Some((overflow, segments.iter().map(|s| s.path.clone()).collect()));
        }
        if overflow == 0 {
            break;
        }
        iterations += 1;
        // Bump history on overflowed edges.
        for y in 0..ny {
            for x in 0..nx.saturating_sub(1) {
                if grid.edge_overflow(x, y, Dir::Horizontal) > 0 {
                    history[h_hist(nx, x, y)] += HISTORY_INCREMENT;
                }
            }
        }
        for y in 0..ny.saturating_sub(1) {
            for x in 0..nx {
                if grid.edge_overflow(x, y, Dir::Vertical) > 0 {
                    history[v_hist(nx, ny, x, y)] += HISTORY_INCREMENT;
                }
            }
        }
        // Rip up and reroute segments crossing overflowed edges.
        for (i, seg) in segments.iter_mut().enumerate() {
            if i % CHECKPOINT_STRIDE == 0 {
                obs.checkpoint()?;
            }
            if !crosses_overflow(&grid, &seg.path) {
                continue;
            }
            commit(&mut grid, &seg.path, -1);
            let path = maze_route(seg.a, seg.b, &grid, &history);
            commit(&mut grid, &path, 1);
            seg.path = path;
        }
    }

    // Restore the best solution if the last iteration regressed.
    if let Some((best, paths)) = best_paths {
        if grid.total_overflow().0 > best {
            for (seg, path) in segments.iter_mut().zip(paths) {
                commit(&mut grid, &seg.path, -1);
                commit(&mut grid, &path, 1);
                seg.path = path;
            }
        }
    }

    obs.report(Phase::Route, 1.0);
    let (overflow, overflowed_edges) = grid.total_overflow();
    Ok(RouteReport {
        wirelength: grid.total_wirelength(),
        overflow,
        overflowed_edges,
        max_utilization: grid.max_utilization(),
        iterations,
        segments: segments.len(),
        grid: (nx, ny),
    })
}

fn h_hist(nx: usize, x: usize, y: usize) -> usize {
    y * (nx - 1) + x
}

fn v_hist(nx: usize, ny: usize, x: usize, y: usize) -> usize {
    (nx - 1) * ny + y * nx + x
}

/// Rectilinear MST edges over distinct gcells (Prim, O(n²)).
fn mst_edges(cells: &[(usize, usize)]) -> Vec<((usize, usize), (usize, usize))> {
    let n = cells.len();
    let dist =
        |a: (usize, usize), b: (usize, usize)| -> usize { a.0.abs_diff(b.0) + a.1.abs_diff(b.1) };
    let Some(&c0) = cells.first() else {
        return Vec::new();
    };
    let mut in_tree: Vec<bool> = (0..n).map(|i| i == 0).collect();
    // (dist, parent)
    let mut best: Vec<(usize, usize)> = cells.iter().map(|&c| (dist(c0, c), 0)).collect();
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut pick_d = usize::MAX;
        for i in 0..n {
            if !in_tree[i] && best[i].0 < pick_d {
                pick_d = best[i].0;
                pick = i;
            }
        }
        in_tree[pick] = true;
        edges.push((cells[best[pick].1], cells[pick]));
        for i in 0..n {
            if !in_tree[i] {
                let d = dist(cells[pick], cells[i]);
                if d < best[i].0 {
                    best[i] = (d, pick);
                }
            }
        }
    }
    edges
}

/// Congestion penalty multiplier per unit of overflow.
const CONGESTION_PENALTY: f64 = 2.0;

/// History cost added to an overflowed edge on each rip-up & reroute pass.
const HISTORY_INCREMENT: f64 = 0.5;

/// Cost of pushing one more wire over the edge leaving `(x, y)` toward `d`:
/// `(1 + history)·(1 + CONGESTION_PENALTY·overflow)`.
///
/// Every edge costs at least 1, because history and overflow are never
/// negative. [`maze_route`]'s A* heuristic relies on that bound. Every
/// cost is also a multiple of 0.5, so path costs sum exactly.
fn edge_cost(grid: &RoutingGrid, history: &[f64], x: usize, y: usize, d: Dir) -> f64 {
    let usage = grid.usage(x, y, d);
    let cap = grid.capacity(d);
    let hist = match d {
        Dir::Horizontal => history[h_hist(grid.nx(), x, y)],
        Dir::Vertical => history[v_hist(grid.nx(), grid.ny(), x, y)],
    };
    let over = (usage as i64 + 1 - cap as i64).max(0) as f64;
    (1.0 + hist) * (1.0 + CONGESTION_PENALTY * over)
}

/// The cheaper of the two L-shaped paths from `a` to `b`.
fn best_l_path(
    a: (usize, usize),
    b: (usize, usize),
    grid: &RoutingGrid,
    history: &[f64],
) -> Vec<(usize, usize)> {
    let via_corner = |corner: (usize, usize)| -> (f64, Vec<(usize, usize)>) {
        let mut path = vec![a];
        let mut cost = 0.0;
        let mut cur = a;
        for target in [corner, b] {
            while cur.0 != target.0 {
                let (x, step) = if cur.0 < target.0 {
                    (cur.0, 1i64)
                } else {
                    (cur.0 - 1, -1)
                };
                cost += edge_cost(grid, history, x, cur.1, Dir::Horizontal);
                cur.0 = (cur.0 as i64 + step) as usize;
                path.push(cur);
            }
            while cur.1 != target.1 {
                let (y, step) = if cur.1 < target.1 {
                    (cur.1, 1i64)
                } else {
                    (cur.1 - 1, -1)
                };
                cost += edge_cost(grid, history, cur.0, y, Dir::Vertical);
                cur.1 = (cur.1 as i64 + step) as usize;
                path.push(cur);
            }
        }
        (cost, path)
    };
    let (c1, p1) = via_corner((b.0, a.1));
    let (c2, p2) = via_corner((a.0, b.1));
    if c1 <= c2 {
        p1
    } else {
        p2
    }
}

/// A* maze routing with congestion + history costs.
///
/// The heuristic is the Manhattan gcell distance to `b`. Every edge costs
/// at least 1 ([`edge_cost`]), so it never overestimates and is
/// consistent: the first pop of `b` ends a cheapest path. The heap pops
/// the least `g + h` first, ties by gcell `(x, y)`, so the path is the
/// same on every run.
fn maze_route(
    a: (usize, usize),
    b: (usize, usize),
    grid: &RoutingGrid,
    history: &[f64],
) -> Vec<(usize, usize)> {
    let (nx, ny) = (grid.nx(), grid.ny());
    let ix = |c: (usize, usize)| c.1 * nx + c.0;
    let h = |c: (usize, usize)| (c.0.abs_diff(b.0) + c.1.abs_diff(b.1)) as f64;
    let mut dist = vec![f64::INFINITY; nx * ny];
    let mut prev = vec![u32::MAX; nx * ny];

    /// A heap entry: `f = g + h`, the path cost `g`, and the gcell.
    /// Ordered by `(f, gcell)` only.
    struct Item(f64, f64, (usize, usize));
    impl PartialEq for Item {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other).is_eq()
        }
    }
    impl Eq for Item {}
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .total_cmp(&self.0)
                .then_with(|| (other.2).cmp(&self.2))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = BinaryHeap::new();
    dist[ix(a)] = 0.0;
    heap.push(Item(h(a), 0.0, a));
    while let Some(Item(_, g, cur)) = heap.pop() {
        if cur == b {
            break;
        }
        if g > dist[ix(cur)] {
            continue;
        }
        let (x, y) = cur;
        let mut relax = |nxt: (usize, usize), ecost: f64, heap: &mut BinaryHeap<Item>| {
            let ng = g + ecost;
            if ng < dist[ix(nxt)] {
                dist[ix(nxt)] = ng;
                prev[ix(nxt)] = ix(cur) as u32;
                heap.push(Item(ng + h(nxt), ng, nxt));
            }
        };
        if x + 1 < nx {
            let c = edge_cost(grid, history, x, y, Dir::Horizontal);
            relax((x + 1, y), c, &mut heap);
        }
        if x > 0 {
            let c = edge_cost(grid, history, x - 1, y, Dir::Horizontal);
            relax((x - 1, y), c, &mut heap);
        }
        if y + 1 < ny {
            let c = edge_cost(grid, history, x, y, Dir::Vertical);
            relax((x, y + 1), c, &mut heap);
        }
        if y > 0 {
            let c = edge_cost(grid, history, x, y - 1, Dir::Vertical);
            relax((x, y - 1), c, &mut heap);
        }
    }
    // Reconstruct.
    let mut path = vec![b];
    let mut cur = ix(b);
    while cur != ix(a) {
        let p = prev[cur];
        debug_assert!(p != u32::MAX, "maze route failed to reach the source");
        cur = p as usize;
        path.push((cur % nx, cur / nx));
    }
    path.reverse();
    path
}

/// Adds (`delta`=1) or removes (`delta`=-1) a path's usage.
fn commit(grid: &mut RoutingGrid, path: &[(usize, usize)], delta: i32) {
    for w in path.windows(2) {
        let &[a, b] = w else { continue };
        if a.1 == b.1 {
            grid.add_usage(a.0.min(b.0), a.1, Dir::Horizontal, delta);
        } else {
            grid.add_usage(a.0, a.1.min(b.1), Dir::Vertical, delta);
        }
    }
}

/// Does the path cross any currently-overflowed edge?
fn crosses_overflow(grid: &RoutingGrid, path: &[(usize, usize)]) -> bool {
    path.windows(2).any(|w| {
        let (a, b) = (w[0], w[1]);
        if a.1 == b.1 {
            grid.edge_overflow(a.0.min(b.0), a.1, Dir::Horizontal) > 0
        } else {
            grid.edge_overflow(a.0, a.1.min(b.1), Dir::Vertical) > 0
        }
    })
}

/// Lower-bound wirelength: sum of HPWLs snapped to the grid (for sanity
/// checks: routed length can never beat it).
pub fn grid_hpwl_lower_bound(
    netlist: &Netlist,
    placement: &Placement,
    design: &Design,
    nx: usize,
    ny: usize,
) -> f64 {
    let region = design.region();
    let grid = RoutingGrid::new(region, nx, ny, 1, 1);
    let mut total = 0.0;
    for n in netlist.net_ids() {
        let net = netlist.net(n);
        let mut min = (usize::MAX, usize::MAX);
        let mut max = (0usize, 0usize);
        let mut pins = 0;
        for &p in &net.pins {
            let at: Point = placement.pin_position(netlist, p);
            let g = grid.gcell_of(region.clamp_point(at));
            min = (min.0.min(g.0), min.1.min(g.1));
            max = (max.0.max(g.0), max.1.max(g.1));
            pins += 1;
        }
        if pins >= 2 {
            total +=
                (max.0 - min.0) as f64 * grid.pitch_x() + (max.1 - min.1) as f64 * grid.pitch_y();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_dpgen::{generate, GenConfig};
    use sdp_gp::{GlobalPlacer, GpConfig};
    use sdp_legal::{legalize, LegalizeOptions};

    fn placed(seed: u64) -> (Netlist, Design, Placement) {
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
    fn routes_a_placed_design() {
        let (nl, design, pl) = placed(1);
        let report = route(&nl, &pl, &design, &RouteConfig::default());
        assert!(report.segments > 0);
        assert!(report.wirelength > 0.0);
        // Routed length must be at least the grid HPWL lower bound.
        let lb = grid_hpwl_lower_bound(&nl, &pl, &design, 16, 16);
        assert!(
            report.wirelength >= lb * 0.5,
            "routed {} vs lower bound {lb}",
            report.wirelength
        );
    }

    #[test]
    fn rrr_reduces_overflow() {
        let (nl, design, pl) = placed(2);
        // Starve the router to force congestion.
        let starved = RouteConfig {
            tracks_per_gcell: 2,
            rrr_iters: 0,
            ..RouteConfig::default()
        };
        let before = route(&nl, &pl, &design, &starved);
        let with_rrr = RouteConfig {
            tracks_per_gcell: 2,
            rrr_iters: 10,
            ..RouteConfig::default()
        };
        let after = route(&nl, &pl, &design, &with_rrr);
        assert!(
            after.overflow <= before.overflow,
            "rrr must not worsen overflow: {} -> {}",
            before.overflow,
            after.overflow
        );
        if before.overflow > 0 {
            assert!(after.iterations > 0);
        }
    }

    #[test]
    fn cancellation_aborts_mid_route() {
        use sdp_progress::{CancelToken, ManualClock, TokenSink};
        use std::sync::Arc;
        let (nl, design, pl) = placed(4);
        let token = CancelToken::new();
        token.cancel();
        let sink = TokenSink::new(token, |_, _| {});
        let obs = Observer::new(Arc::new(ManualClock::new()), Arc::new(sink));
        let r = route_observed(&nl, &pl, &design, &RouteConfig::default(), &obs);
        assert_eq!(r, Err(Cancelled));
    }

    #[test]
    fn observed_route_reports_progress_and_matches_unobserved() {
        use sdp_progress::{CancelToken, ManualClock, TokenSink};
        use std::sync::{Arc, Mutex};
        let (nl, design, pl) = placed(2);
        let starved = RouteConfig {
            tracks_per_gcell: 2,
            ..RouteConfig::default()
        };
        let seen: Arc<Mutex<Vec<(Phase, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let sink = TokenSink::new(CancelToken::new(), move |p, f| {
            seen2.lock().unwrap().push((p, f));
        });
        let obs = Observer::new(Arc::new(ManualClock::new()), Arc::new(sink));
        let observed = route_observed(&nl, &pl, &design, &starved, &obs).unwrap();
        assert_eq!(observed, route(&nl, &pl, &design, &starved));
        let seen = seen.lock().unwrap();
        assert!(seen.iter().all(|&(p, _)| p == Phase::Route));
        assert_eq!(seen.last(), Some(&(Phase::Route, 1.0)));
    }

    #[test]
    fn deterministic() {
        let (nl, design, pl) = placed(3);
        let a = route(&nl, &pl, &design, &RouteConfig::default());
        let b = route(&nl, &pl, &design, &RouteConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_grid_is_respected_and_tighter_grids_cost_more() {
        let (nl, design, pl) = placed(5);
        let coarse = route(
            &nl,
            &pl,
            &design,
            &RouteConfig {
                grid: Some((8, 8)),
                ..RouteConfig::default()
            },
        );
        let fine = route(
            &nl,
            &pl,
            &design,
            &RouteConfig {
                grid: Some((32, 32)),
                ..RouteConfig::default()
            },
        );
        assert!(coarse.segments > 0 && fine.segments > 0);
        // Finer grids resolve more detail; both wirelengths stay sane.
        assert!(coarse.wirelength > 0.0 && fine.wirelength > 0.0);
    }

    #[test]
    fn zero_rrr_iters_reports_initial_solution() {
        let (nl, design, pl) = placed(6);
        let r = route(
            &nl,
            &pl,
            &design,
            &RouteConfig {
                rrr_iters: 0,
                ..RouteConfig::default()
            },
        );
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn mst_edges_span_all_cells() {
        let cells = vec![(0, 0), (3, 0), (0, 4), (5, 5)];
        let edges = mst_edges(&cells);
        assert_eq!(edges.len(), 3);
        // Union-find check that the edges connect everything.
        let mut parent: Vec<usize> = (0..cells.len()).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] != i {
                let r = find(p, p[i]);
                p[i] = r;
            }
            p[i]
        }
        for (a, b) in &edges {
            let ia = cells.iter().position(|c| c == a).unwrap();
            let ib = cells.iter().position(|c| c == b).unwrap();
            let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
            parent[ra] = rb;
        }
        let root = find(&mut parent, 0);
        assert!((0..cells.len()).all(|i| find(&mut parent, i) == root));
    }

    #[test]
    fn l_path_is_monotone_and_connected() {
        let grid = RoutingGrid::new(sdp_geom::Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10, 4, 4);
        let hist = vec![0.0; 10 * 10 * 2];
        let p = best_l_path((1, 1), (7, 5), &grid, &hist);
        assert_eq!(p.first(), Some(&(1, 1)));
        assert_eq!(p.last(), Some(&(7, 5)));
        assert_eq!(p.len(), 1 + 6 + 4);
        for w in p.windows(2) {
            let d = w[0].0.abs_diff(w[1].0) + w[0].1.abs_diff(w[1].1);
            assert_eq!(d, 1, "path steps one gcell at a time");
        }
    }

    #[test]
    fn maze_route_avoids_congestion() {
        let mut grid = RoutingGrid::new(sdp_geom::Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8, 2, 2);
        // Saturate the straight corridor between (0,4) and (7,4).
        for x in 0..7 {
            grid.add_usage(x, 4, Dir::Horizontal, 2);
        }
        let hist = vec![0.0; 8 * 8 * 2];
        let p = maze_route((0, 4), (7, 4), &grid, &hist);
        assert_eq!(p.first(), Some(&(0, 4)));
        assert_eq!(p.last(), Some(&(7, 4)));
        // The path must detour off row 4 somewhere.
        assert!(
            p.iter().any(|&(_, y)| y != 4),
            "maze route should detour around the saturated corridor: {p:?}"
        );
    }

    /// Dijkstra maze routing: the search [`maze_route`] replaced with A*,
    /// kept as the reference for its cost. Heap order is `(g, gcell)`.
    fn reference_maze_route(
        a: (usize, usize),
        b: (usize, usize),
        grid: &RoutingGrid,
        history: &[f64],
    ) -> Vec<(usize, usize)> {
        let (nx, ny) = (grid.nx(), grid.ny());
        let ix = |c: (usize, usize)| c.1 * nx + c.0;
        let mut dist = vec![f64::INFINITY; nx * ny];
        let mut prev = vec![u32::MAX; nx * ny];

        #[derive(PartialEq)]
        struct Item(f64, (usize, usize));
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .0
                    .total_cmp(&self.0)
                    .then_with(|| (other.1).cmp(&self.1))
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut heap = BinaryHeap::new();
        dist[ix(a)] = 0.0;
        heap.push(Item(0.0, a));
        while let Some(Item(d, cur)) = heap.pop() {
            if cur == b {
                break;
            }
            if d > dist[ix(cur)] {
                continue;
            }
            let (x, y) = cur;
            let mut relax = |nxt: (usize, usize), ecost: f64, heap: &mut BinaryHeap<Item>| {
                let nd = d + ecost;
                if nd < dist[ix(nxt)] {
                    dist[ix(nxt)] = nd;
                    prev[ix(nxt)] = ix(cur) as u32;
                    heap.push(Item(nd, nxt));
                }
            };
            if x + 1 < nx {
                let c = edge_cost(grid, history, x, y, Dir::Horizontal);
                relax((x + 1, y), c, &mut heap);
            }
            if x > 0 {
                let c = edge_cost(grid, history, x - 1, y, Dir::Horizontal);
                relax((x - 1, y), c, &mut heap);
            }
            if y + 1 < ny {
                let c = edge_cost(grid, history, x, y, Dir::Vertical);
                relax((x, y + 1), c, &mut heap);
            }
            if y > 0 {
                let c = edge_cost(grid, history, x, y - 1, Dir::Vertical);
                relax((x, y - 1), c, &mut heap);
            }
        }
        let mut path = vec![b];
        let mut cur = ix(b);
        while cur != ix(a) {
            cur = prev[cur] as usize;
            path.push((cur % nx, cur / nx));
        }
        path.reverse();
        path
    }

    /// Sum of [`edge_cost`] over a path's steps.
    fn path_cost(grid: &RoutingGrid, history: &[f64], path: &[(usize, usize)]) -> f64 {
        path.windows(2)
            .map(|w| {
                let (p, q) = (w[0], w[1]);
                if p.1 == q.1 {
                    edge_cost(grid, history, p.0.min(q.0), p.1, Dir::Horizontal)
                } else {
                    edge_cost(grid, history, p.0, p.1.min(q.1), Dir::Vertical)
                }
            })
            .sum()
    }

    #[test]
    fn a_star_paths_cost_exactly_what_dijkstra_paths_cost() {
        // splitmix64: a seeded stream, so every run checks the same cases.
        let mut state = 0x005e_ed0f_a5a5_u64;
        let mut next = |n: usize| -> usize {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let (mut cases, mut detours) = (0, 0);
        for _ in 0..240 {
            let (nx, ny) = (2 + next(42), 2 + next(42));
            let cap = 1 + next(4) as u32;
            let mut grid = RoutingGrid::new(
                sdp_geom::Rect::new(0.0, 0.0, nx as f64, ny as f64),
                nx,
                ny,
                cap,
                cap,
            );
            let mut history = vec![0.0; nx * ny * 2];
            for y in 0..ny {
                for x in 0..nx {
                    if x + 1 < nx {
                        grid.add_usage(x, y, Dir::Horizontal, next(cap as usize + 3) as i32);
                        history[h_hist(nx, x, y)] = next(4) as f64 * HISTORY_INCREMENT;
                    }
                    if y + 1 < ny {
                        grid.add_usage(x, y, Dir::Vertical, next(cap as usize + 3) as i32);
                        history[v_hist(nx, ny, x, y)] = next(4) as f64 * HISTORY_INCREMENT;
                    }
                }
            }
            for _ in 0..10 {
                let a = (next(nx), next(ny));
                let b = (next(nx), next(ny));
                let path = maze_route(a, b, &grid, &history);
                assert_eq!(path.first(), Some(&a));
                assert_eq!(path.last(), Some(&b));
                for w in path.windows(2) {
                    let d = w[0].0.abs_diff(w[1].0) + w[0].1.abs_diff(w[1].1);
                    assert_eq!(d, 1, "path steps one gcell at a time: {path:?}");
                }
                let reference = reference_maze_route(a, b, &grid, &history);
                let (got, want) = (
                    path_cost(&grid, &history, &path),
                    path_cost(&grid, &history, &reference),
                );
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{nx}x{ny} grid, {a:?} -> {b:?}: A* cost {got}, Dijkstra cost {want}"
                );
                cases += 1;
                if path.len() > 1 + a.0.abs_diff(b.0) + a.1.abs_diff(b.1) {
                    detours += 1;
                }
            }
        }
        // Congestion must make many cheapest paths longer than the
        // Manhattan distance, or the heuristic was never put to the test.
        assert!(
            detours > cases / 4,
            "only {detours} of {cases} paths detour"
        );
    }
}
