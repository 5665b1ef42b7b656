//! Net decomposition, L-pattern routing, and negotiated-congestion rip-up
//! & reroute (a compact PathFinder) whose maze search is A* toward the
//! segment's far end.

use crate::grid::{Dir, RoutingGrid};
use sdp_geom::Point;
use sdp_netlist::{Design, Netlist, Placement};
use sdp_progress::{Cancelled, Observer, Phase};
use std::cmp::Reverse;
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
    /// Routing tracks per gcell edge (both directions). Must be at least
    /// 1: at 0 every wire overflows and utilization is infinite.
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
///
/// # Panics
///
/// As [`route_observed`], only for an `rrr_iters` far beyond any use.
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
///
/// # Panics
///
/// Panics if the edge costs that `rrr_iters` passes over this many
/// segments could reach do not fit the maze search's exact integer key.
/// On an auto-sized grid that takes `(2 + rrr_iters)·(3 + 2·segments)`
/// past `u32::MAX`: about 175,000 passes over `dp_medium`'s 12,214
/// segments, or 2·10⁸ segments at the default 8 passes.
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
    let grid = RoutingGrid::new(
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
    let mut congestion = Congestion::new(grid, segments.len(), config.rrr_iters);
    let mut search = Search::new(&congestion);

    // Initial routing: best of the two L shapes by current congestion.
    for (i, seg) in segments.iter_mut().enumerate() {
        if i % CHECKPOINT_STRIDE == 0 {
            obs.checkpoint()?;
        }
        let path = congestion.best_l_path(seg.a, seg.b);
        congestion.commit(&path, 1);
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
        let (overflow, _) = congestion.grid.total_overflow();
        if best_paths.as_ref().is_none_or(|&(b, _)| overflow < b) {
            best_paths = Some((overflow, segments.iter().map(|s| s.path.clone()).collect()));
        }
        if overflow == 0 {
            break;
        }
        iterations += 1;
        congestion.bump_history();
        // Rip up and reroute segments crossing overflowed edges.
        for (i, seg) in segments.iter_mut().enumerate() {
            if i % CHECKPOINT_STRIDE == 0 {
                obs.checkpoint()?;
            }
            if !crosses_overflow(&congestion.grid, &seg.path) {
                continue;
            }
            congestion.commit(&seg.path, -1);
            let path = search.maze_route(seg.a, seg.b, &congestion);
            congestion.commit(&path, 1);
            seg.path = path;
        }
    }

    // Restore the best solution if the last iteration regressed.
    if let Some((best, paths)) = best_paths {
        if congestion.grid.total_overflow().0 > best {
            for (seg, path) in segments.iter_mut().zip(paths) {
                congestion.commit(&seg.path, -1);
                congestion.commit(&path, 1);
                seg.path = path;
            }
        }
    }

    obs.report(Phase::Route, 1.0);
    let grid = &congestion.grid;
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
const CONGESTION_PENALTY: u64 = 2;

/// History added to an overflowed edge on each rip-up & reroute pass, in
/// half-units (0.5).
const HISTORY_INCREMENT: u32 = 1;

/// Cost of pushing one more wire over an edge that carries `usage` wires
/// of `capacity` and has `history` half-units of history:
/// `(1 + history)·(1 + CONGESTION_PENALTY·overflow)`, returned in
/// half-units.
///
/// Every edge costs at least 1 (2 half-units), because history and
/// overflow are never negative. [`Search::maze_route`]'s A* heuristic
/// relies on that bound. History grows in steps of 0.5, so every cost is a
/// multiple of 0.5: in half-units every cost and every path sum is an
/// exact integer.
fn edge_cost(usage: u32, capacity: u32, history: u32) -> u64 {
    let over = (u64::from(usage) + 1).saturating_sub(u64::from(capacity));
    (2 + u64::from(history)) * (1 + CONGESTION_PENALTY * over)
}

/// Every edge of an `nx × ny` grid as `(x, y, direction)`.
fn grid_edges(nx: usize, ny: usize) -> impl Iterator<Item = (usize, usize, Dir)> {
    let h = (0..ny).flat_map(move |y| (0..nx - 1).map(move |x| (x, y, Dir::Horizontal)));
    let v = (0..ny - 1).flat_map(move |y| (0..nx).map(move |x| (x, y, Dir::Vertical)));
    h.chain(v)
}

/// Grid usage, per-edge history and the cached [`edge_cost`] of every
/// edge, kept consistent by the one [`Congestion::commit`]. Both searches
/// read edge costs from the cache; an entry is recomputed only when its
/// usage or history changes.
///
/// Gcell `(x, y)` has the id `(x << y_bits) | y`, so ids order exactly
/// like `(x, y)`. Edge slot `2·id` is the edge toward `x + 1`, slot
/// `2·id + 1` the edge toward `y + 1`.
struct Congestion {
    grid: RoutingGrid,
    /// Bits of the `y` field of a gcell id.
    y_bits: u32,
    /// Bits of a whole gcell id.
    id_bits: u32,
    /// History per edge slot, in half-units.
    history: Vec<u32>,
    /// [`edge_cost`] per edge slot, in half-units.
    cost: Vec<u32>,
}

impl Congestion {
    /// Takes over `grid` and its usage for a route of `segments` 2-pin
    /// segments and at most `passes` history bumps, and fills the cost
    /// cache.
    ///
    /// [`Search`] orders its open list by one `u64` key, `2·f` above the
    /// gcell id, which sorts exactly like `(f, x, y)` while
    /// `2·f < 2^(64 - id_bits)`. Every committed path is simple, so no edge
    /// carries more than `segments` wires and no edge costs more than
    /// `max_cost` half-units. A* pops nothing above the cheapest path's
    /// `f`, which is at most an L path's `(nx + ny - 2)·max_cost`, and a
    /// push adds one edge and an `h` of at most `nx + ny - 2` to a popped
    /// `g`. So every key's `2·f` stays below `(nx + ny)·(max_cost + 2)`.
    /// An auto-sized grid (at most 256 gcells per axis) leaves 48 bits for
    /// `2·f`; at the default 8 passes the `u32` cost cache binds first, at
    /// about 2·10⁸ segments.
    ///
    /// # Panics
    ///
    /// Panics if that bound does not fit the key, or `max_cost` does not
    /// fit the `u32` cache.
    fn new(grid: RoutingGrid, segments: usize, passes: usize) -> Self {
        let (nx, ny) = (grid.nx(), grid.ny());
        let bits = |n: usize| usize::BITS - (n - 1).leading_zeros();
        let (y_bits, id_bits) = (bits(ny), bits(nx) + bits(ny));
        let max_cost = (2 + u128::from(HISTORY_INCREMENT) * passes as u128)
            * (1 + u128::from(CONGESTION_PENALTY) * (segments as u128 + 1));
        let max_key_f = (nx + ny) as u128 * (max_cost + 2);
        assert!(
            id_bits <= u32::BITS
                && max_cost <= u128::from(u32::MAX)
                && max_key_f < 1 << (64 - id_bits),
            "{nx}x{ny} gcells, {segments} segments and {passes} passes exceed the exact A* key"
        );
        let slots = 2 * (nx << y_bits);
        let mut congestion = Congestion {
            grid,
            y_bits,
            id_bits,
            history: vec![0; slots],
            cost: vec![0; slots],
        };
        for (x, y, d) in grid_edges(nx, ny) {
            congestion.refresh(x, y, d);
        }
        congestion
    }

    fn id(&self, (x, y): (usize, usize)) -> usize {
        (x << self.y_bits) | y
    }

    fn slot(&self, x: usize, y: usize, d: Dir) -> usize {
        2 * self.id((x, y)) + usize::from(d == Dir::Vertical)
    }

    /// The cached cost of the edge leaving `(x, y)` toward `d`.
    fn cost(&self, x: usize, y: usize, d: Dir) -> u64 {
        u64::from(self.cost[self.slot(x, y, d)])
    }

    /// Recomputes one edge's cached cost.
    fn refresh(&mut self, x: usize, y: usize, d: Dir) {
        let s = self.slot(x, y, d);
        let cost = edge_cost(
            self.grid.usage(x, y, d),
            self.grid.capacity(d),
            self.history[s],
        );
        debug_assert!(
            cost <= u64::from(u32::MAX),
            "edge cost {cost} past the bound"
        );
        self.cost[s] = cost as u32;
    }

    /// Adds (`delta`=1) or removes (`delta`=-1) a path's usage.
    fn commit(&mut self, path: &[(usize, usize)], delta: i32) {
        for w in path.windows(2) {
            let &[a, b] = w else { continue };
            let (x, y, d) = if a.1 == b.1 {
                (a.0.min(b.0), a.1, Dir::Horizontal)
            } else {
                (a.0, a.1.min(b.1), Dir::Vertical)
            };
            self.grid.add_usage(x, y, d, delta);
            self.refresh(x, y, d);
        }
    }

    /// Adds [`HISTORY_INCREMENT`] to every overflowed edge.
    fn bump_history(&mut self) {
        for (x, y, d) in grid_edges(self.grid.nx(), self.grid.ny()) {
            if self.grid.edge_overflow(x, y, d) > 0 {
                let s = self.slot(x, y, d);
                self.history[s] += HISTORY_INCREMENT;
                self.refresh(x, y, d);
            }
        }
    }

    /// The cheaper of the two L-shaped paths from `a` to `b`.
    fn best_l_path(&self, a: (usize, usize), b: (usize, usize)) -> Vec<(usize, usize)> {
        let via_corner = |corner: (usize, usize)| -> (u64, Vec<(usize, usize)>) {
            let mut path = vec![a];
            let mut cost = 0;
            let mut cur = a;
            for target in [corner, b] {
                while cur.0 != target.0 {
                    let (x, step) = if cur.0 < target.0 {
                        (cur.0, 1i64)
                    } else {
                        (cur.0 - 1, -1)
                    };
                    cost += self.cost(x, cur.1, Dir::Horizontal);
                    cur.0 = (cur.0 as i64 + step) as usize;
                    path.push(cur);
                }
                while cur.1 != target.1 {
                    let (y, step) = if cur.1 < target.1 {
                        (cur.1, 1i64)
                    } else {
                        (cur.1 - 1, -1)
                    };
                    cost += self.cost(cur.0, y, Dir::Vertical);
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
}

/// One gcell's A* state, valid only while `stamp` is the current search.
#[derive(Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    /// Predecessor gcell id on the cheapest known path.
    prev: u32,
    /// Cheapest known path cost from the source, in half-units.
    g: u64,
}

/// A* scratch reused across searches: one [`Slot`] per gcell id, stamped
/// with a generation instead of cleared, and the open list.
struct Search {
    slots: Vec<Slot>,
    generation: u32,
    open: BinaryHeap<Reverse<u64>>,
}

impl Search {
    fn new(congestion: &Congestion) -> Self {
        Search {
            slots: vec![Slot::default(); congestion.cost.len() / 2],
            generation: 0,
            open: BinaryHeap::new(),
        }
    }

    /// A* maze routing over the cached congestion + history costs.
    ///
    /// The heuristic is the Manhattan gcell distance to `b`. Every edge
    /// costs at least 1 ([`edge_cost`]), so it never overestimates and is
    /// consistent: the first pop of `b` ends a cheapest path. The open list
    /// pops the least `(g + h, x, y)` first, so the path is the same on
    /// every run. Each key packs `2·(g + h)` above the gcell id, an exact
    /// integer with that order ([`Congestion::new`] bounds it).
    fn maze_route(
        &mut self,
        a: (usize, usize),
        b: (usize, usize),
        congestion: &Congestion,
    ) -> Vec<(usize, usize)> {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // A stamp from 2³² searches ago would look current: clear.
            self.slots.fill(Slot::default());
            self.generation = 1;
        }
        let stamp = self.generation;
        let (nx, ny) = (congestion.grid.nx(), congestion.grid.ny());
        let (y_bits, id_bits) = (congestion.y_bits, congestion.id_bits);
        let y_mask = (1 << y_bits) - 1;
        let x_step = 1 << y_bits;
        let cost = &congestion.cost;
        let h2 =
            |id: usize| 2 * ((id >> y_bits).abs_diff(b.0) + (id & y_mask).abs_diff(b.1)) as u64;
        let (src, dst) = (congestion.id(a), congestion.id(b));
        self.slots[src] = Slot {
            stamp,
            prev: src as u32,
            g: 0,
        };
        self.open.clear();
        self.open.push(Reverse((h2(src) << id_bits) | src as u64));
        while let Some(Reverse(key)) = self.open.pop() {
            let id = (key & ((1 << id_bits) - 1)) as usize;
            if id == dst {
                break;
            }
            let g = (key >> id_bits) - h2(id);
            if g > self.slots[id].g {
                continue;
            }
            let (x, y) = (id >> y_bits, id & y_mask);
            let mut relax = |next: usize, edge: u32| {
                let ng = g + u64::from(edge);
                let slot = &mut self.slots[next];
                if slot.stamp != stamp || ng < slot.g {
                    *slot = Slot {
                        stamp,
                        prev: id as u32,
                        g: ng,
                    };
                    self.open
                        .push(Reverse(((ng + h2(next)) << id_bits) | next as u64));
                }
            };
            if x + 1 < nx {
                relax(id + x_step, cost[2 * id]);
            }
            if x > 0 {
                relax(id - x_step, cost[2 * (id - x_step)]);
            }
            if y + 1 < ny {
                relax(id + 1, cost[2 * id + 1]);
            }
            if y > 0 {
                relax(id - 1, cost[2 * (id - 1) + 1]);
            }
        }
        // Reconstruct.
        let mut path = vec![b];
        let mut cur = dst;
        while cur != src {
            debug_assert_eq!(
                self.slots[cur].stamp, stamp,
                "maze route failed to reach the source"
            );
            cur = self.slots[cur].prev as usize;
            path.push((cur >> y_bits, cur & y_mask));
        }
        path.reverse();
        path
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
        let p = Congestion::new(grid, 0, 0).best_l_path((1, 1), (7, 5));
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
        let congestion = Congestion::new(grid, 2, 0);
        let p = Search::new(&congestion).maze_route((0, 4), (7, 4), &congestion);
        assert_eq!(p.first(), Some(&(0, 4)));
        assert_eq!(p.last(), Some(&(7, 4)));
        // The path must detour off row 4 somewhere.
        assert!(
            p.iter().any(|&(_, y)| y != 4),
            "maze route should detour around the saturated corridor: {p:?}"
        );
    }

    #[test]
    #[should_panic(expected = "exceed the exact A* key")]
    fn costs_past_the_key_bound_are_refused() {
        let grid = RoutingGrid::new(sdp_geom::Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4, 1, 1);
        let _ = Congestion::new(grid, 10, usize::MAX);
    }

    /// splitmix64: a seeded stream, so every run checks the same cases.
    /// `next(n)` draws from `0..n`.
    fn seeded(mut state: u64) -> impl FnMut(usize) -> usize {
        move |n| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random grid of 2 to `max_axis` gcells per axis and capacity 1–4.
    /// One edge in `hot_one_in` carries up to `max_over` wires over
    /// capacity and up to `max_bumps` history bumps; the others stay under
    /// capacity with no history, so equal-cost paths are common.
    fn random_congestion(
        next: &mut impl FnMut(usize) -> usize,
        max_axis: usize,
        hot_one_in: usize,
        max_over: usize,
        max_bumps: usize,
    ) -> Congestion {
        let (nx, ny) = (2 + next(max_axis - 1), 2 + next(max_axis - 1));
        let cap = 1 + next(4);
        let mut grid = RoutingGrid::new(
            sdp_geom::Rect::new(0.0, 0.0, nx as f64, ny as f64),
            nx,
            ny,
            cap as u32,
            cap as u32,
        );
        let mut bumps = Vec::new();
        for (x, y, d) in grid_edges(nx, ny) {
            let (usage, k) = if next(hot_one_in) == 0 {
                (next(cap + max_over + 1), next(max_bumps + 1))
            } else {
                (next(cap), 0)
            };
            grid.add_usage(x, y, d, usage as i32);
            bumps.push(k as u32);
        }
        // Room for the paths and bumps the tests add on top.
        let mut congestion = Congestion::new(grid, cap + max_over + 1000, max_bumps + 1000);
        for ((x, y, d), k) in grid_edges(nx, ny).zip(bumps) {
            let s = congestion.slot(x, y, d);
            congestion.history[s] = k * HISTORY_INCREMENT;
            congestion.refresh(x, y, d);
        }
        congestion
    }

    /// An edge's cost as the router computed it before the cache: in `f64`,
    /// from the grid's usage and the history, on every read.
    fn float_cost(c: &Congestion, x: usize, y: usize, d: Dir) -> f64 {
        let usage = c.grid.usage(x, y, d);
        let cap = c.grid.capacity(d);
        let hist = f64::from(c.history[c.slot(x, y, d)]) * 0.5;
        let over = (usage as i64 + 1 - cap as i64).max(0) as f64;
        (1.0 + hist) * (1.0 + 2.0 * over)
    }

    /// The A* search [`Search::maze_route`] replaced, kept as the reference
    /// for its paths: `f64` costs read through [`float_cost`], a fresh
    /// `dist`/`prev` per call, and a heap of `(f, g, gcell)` entries ordered
    /// by `(f, gcell)`. Without the heuristic it is the Dijkstra search the
    /// A* replaced, whose order is `(g, gcell)`.
    fn reference_a_star(
        a: (usize, usize),
        b: (usize, usize),
        c: &Congestion,
        heuristic: bool,
    ) -> Vec<(usize, usize)> {
        let (nx, ny) = (c.grid.nx(), c.grid.ny());
        let ix = |c: (usize, usize)| c.1 * nx + c.0;
        let h = |c: (usize, usize)| {
            if heuristic {
                (c.0.abs_diff(b.0) + c.1.abs_diff(b.1)) as f64
            } else {
                0.0
            }
        };
        let mut dist = vec![f64::INFINITY; nx * ny];
        let mut prev = vec![u32::MAX; nx * ny];

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
                relax((x + 1, y), float_cost(c, x, y, Dir::Horizontal), &mut heap);
            }
            if x > 0 {
                relax(
                    (x - 1, y),
                    float_cost(c, x - 1, y, Dir::Horizontal),
                    &mut heap,
                );
            }
            if y + 1 < ny {
                relax((x, y + 1), float_cost(c, x, y, Dir::Vertical), &mut heap);
            }
            if y > 0 {
                relax(
                    (x, y - 1),
                    float_cost(c, x, y - 1, Dir::Vertical),
                    &mut heap,
                );
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

    /// Sum of [`float_cost`] over a path's steps.
    fn path_cost(c: &Congestion, path: &[(usize, usize)]) -> f64 {
        path.windows(2)
            .map(|w| {
                let (p, q) = (w[0], w[1]);
                if p.1 == q.1 {
                    float_cost(c, p.0.min(q.0), p.1, Dir::Horizontal)
                } else {
                    float_cost(c, p.0, p.1.min(q.1), Dir::Vertical)
                }
            })
            .sum()
    }

    fn detours(a: (usize, usize), b: (usize, usize), path: &[(usize, usize)]) -> bool {
        path.len() > 1 + a.0.abs_diff(b.0) + a.1.abs_diff(b.1)
    }

    #[test]
    fn a_star_paths_cost_exactly_what_dijkstra_paths_cost() {
        let mut next = seeded(0x005e_ed0f_a5a5);
        let (mut cases, mut detoured) = (0, 0);
        for _ in 0..240 {
            let c = random_congestion(&mut next, 43, 1, 2, 3);
            let mut search = Search::new(&c);
            for _ in 0..10 {
                let a = (next(c.grid.nx()), next(c.grid.ny()));
                let b = (next(c.grid.nx()), next(c.grid.ny()));
                let path = search.maze_route(a, b, &c);
                assert_eq!(path.first(), Some(&a));
                assert_eq!(path.last(), Some(&b));
                for w in path.windows(2) {
                    let d = w[0].0.abs_diff(w[1].0) + w[0].1.abs_diff(w[1].1);
                    assert_eq!(d, 1, "path steps one gcell at a time: {path:?}");
                }
                let dijkstra = reference_a_star(a, b, &c, false);
                let (got, want) = (path_cost(&c, &path), path_cost(&c, &dijkstra));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{a:?} -> {b:?}: A* cost {got}, Dijkstra cost {want}"
                );
                cases += 1;
                detoured += usize::from(detours(a, b, &path));
            }
        }
        // Congestion must make many cheapest paths longer than the
        // Manhattan distance, or the heuristic was never put to the test.
        assert!(
            detoured > cases / 4,
            "only {detoured} of {cases} paths detour"
        );
    }

    #[test]
    fn maze_route_returns_the_reference_a_star_path() {
        let mut next = seeded(0x00a5_7a12_2019);
        let (mut cases, mut detoured) = (0, 0);
        for _ in 0..600 {
            let mut c = random_congestion(&mut next, 61, 3, 50, 20);
            let mut search = Search::new(&c);
            for case in 0..10 {
                let a = (next(c.grid.nx()), next(c.grid.ny()));
                let b = (next(c.grid.nx()), next(c.grid.ny()));
                let path = search.maze_route(a, b, &c);
                let reference = reference_a_star(a, b, &c, true);
                assert_eq!(path, reference, "{a:?} -> {b:?}");
                cases += 1;
                detoured += usize::from(detours(a, b, &path));
                // Move the cache the way the router does between searches.
                c.commit(&path, 1);
                if case % 5 == 4 {
                    c.bump_history();
                }
            }
        }
        assert_eq!(cases, 6000);
        assert!(
            detoured > cases / 2,
            "only {detoured} of {cases} paths detour"
        );
    }
}
