//! The global-routing gcell grid and its edge capacities.

use sdp_geom::{BinGrid, Point, Rect};

/// A routing grid: gcells plus capacitated horizontal/vertical edges.
///
/// Edge `(x, y, Horizontal)` connects gcell `(x, y)` to `(x+1, y)`;
/// `(x, y, Vertical)` connects `(x, y)` to `(x, y+1)`.
#[derive(Debug, Clone)]
pub struct RoutingGrid {
    bins: BinGrid,
    /// Usage of horizontal edges, `(nx-1) * ny`.
    h_usage: Vec<u32>,
    /// Usage of vertical edges, `nx * (ny-1)`.
    v_usage: Vec<u32>,
    /// Capacity per horizontal edge.
    pub h_cap: u32,
    /// Capacity per vertical edge.
    pub v_cap: u32,
}

/// Edge direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Toward larger x.
    Horizontal,
    /// Toward larger y.
    Vertical,
}

impl RoutingGrid {
    /// Creates a grid of `nx × ny` gcells over `region` with uniform edge
    /// capacities.
    ///
    /// # Panics
    ///
    /// Panics if `nx < 2` or `ny < 2`.
    pub fn new(region: Rect, nx: usize, ny: usize, h_cap: u32, v_cap: u32) -> Self {
        assert!(nx >= 2 && ny >= 2, "routing grid needs at least 2x2 gcells");
        RoutingGrid {
            bins: BinGrid::new(region, nx, ny),
            h_usage: vec![0; (nx - 1) * ny],
            v_usage: vec![0; nx * (ny - 1)],
            h_cap,
            v_cap,
        }
    }

    /// Gcell count horizontally.
    pub fn nx(&self) -> usize {
        self.bins.nx()
    }

    /// Gcell count vertically.
    pub fn ny(&self) -> usize {
        self.bins.ny()
    }

    /// The gcell containing a point.
    pub fn gcell_of(&self, p: Point) -> (usize, usize) {
        self.bins.bin_of(p)
    }

    /// Physical length of one horizontal step (gcell pitch).
    pub fn pitch_x(&self) -> f64 {
        self.bins.bin_w()
    }

    /// Physical length of one vertical step.
    pub fn pitch_y(&self) -> f64 {
        self.bins.bin_h()
    }

    fn h_ix(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.nx() - 1 && y < self.ny());
        y * (self.nx() - 1) + x
    }

    fn v_ix(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.nx() && y < self.ny() - 1);
        y * self.nx() + x
    }

    /// Usage of the edge leaving `(x, y)` in direction `d`.
    pub fn usage(&self, x: usize, y: usize, d: Dir) -> u32 {
        match d {
            Dir::Horizontal => self.h_usage[self.h_ix(x, y)],
            Dir::Vertical => self.v_usage[self.v_ix(x, y)],
        }
    }

    /// Capacity of edges in direction `d`.
    pub fn capacity(&self, d: Dir) -> u32 {
        match d {
            Dir::Horizontal => self.h_cap,
            Dir::Vertical => self.v_cap,
        }
    }

    /// Adds `delta` (may be negative) to an edge's usage.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if usage would go negative.
    pub fn add_usage(&mut self, x: usize, y: usize, d: Dir, delta: i32) {
        let u = match d {
            Dir::Horizontal => {
                let i = self.h_ix(x, y);
                &mut self.h_usage[i]
            }
            Dir::Vertical => {
                let i = self.v_ix(x, y);
                &mut self.v_usage[i]
            }
        };
        let new = *u as i64 + delta as i64;
        debug_assert!(new >= 0, "edge usage underflow");
        *u = new.max(0) as u32;
    }

    /// Overflow of one edge: `max(0, usage - capacity)`.
    pub fn edge_overflow(&self, x: usize, y: usize, d: Dir) -> u32 {
        self.usage(x, y, d).saturating_sub(self.capacity(d))
    }

    /// Total overflow and the number of overflowed edges.
    pub fn total_overflow(&self) -> (u64, usize) {
        let mut total = 0u64;
        let mut edges = 0usize;
        for &u in &self.h_usage {
            if u > self.h_cap {
                total += (u - self.h_cap) as u64;
                edges += 1;
            }
        }
        for &u in &self.v_usage {
            if u > self.v_cap {
                total += (u - self.v_cap) as u64;
                edges += 1;
            }
        }
        (total, edges)
    }

    /// Maximum edge utilization (`usage / capacity`) over all edges.
    pub fn max_utilization(&self) -> f64 {
        let h = self
            .h_usage
            .iter()
            .map(|&u| u as f64 / self.h_cap as f64)
            .fold(0.0, f64::max);
        let v = self
            .v_usage
            .iter()
            .map(|&u| u as f64 / self.v_cap as f64)
            .fold(0.0, f64::max);
        h.max(v)
    }

    /// Total wire usage across all edges, in physical length.
    pub fn total_wirelength(&self) -> f64 {
        let h: u64 = self.h_usage.iter().map(|&u| u as u64).sum();
        let v: u64 = self.v_usage.iter().map(|&u| u as u64).sum();
        h as f64 * self.pitch_x() + v as f64 * self.pitch_y()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> RoutingGrid {
        RoutingGrid::new(Rect::new(0.0, 0.0, 40.0, 40.0), 4, 4, 10, 8)
    }

    #[test]
    fn dims_and_lookup() {
        let g = grid();
        assert_eq!(g.nx(), 4);
        assert_eq!(g.ny(), 4);
        assert_eq!(g.gcell_of(Point::new(15.0, 35.0)), (1, 3));
        assert_eq!(g.pitch_x(), 10.0);
    }

    #[test]
    fn usage_accounting() {
        let mut g = grid();
        g.add_usage(0, 0, Dir::Horizontal, 3);
        g.add_usage(0, 0, Dir::Vertical, 2);
        assert_eq!(g.usage(0, 0, Dir::Horizontal), 3);
        assert_eq!(g.usage(0, 0, Dir::Vertical), 2);
        g.add_usage(0, 0, Dir::Horizontal, -1);
        assert_eq!(g.usage(0, 0, Dir::Horizontal), 2);
        assert_eq!(g.total_wirelength(), 2.0 * 10.0 + 2.0 * 10.0);
    }

    #[test]
    fn overflow_detection() {
        let mut g = grid();
        g.add_usage(1, 1, Dir::Horizontal, 15);
        g.add_usage(2, 2, Dir::Vertical, 7); // under v_cap 8
        assert_eq!(g.edge_overflow(1, 1, Dir::Horizontal), 5);
        assert_eq!(g.edge_overflow(2, 2, Dir::Vertical), 0);
        let (total, edges) = g.total_overflow();
        assert_eq!(total, 5);
        assert_eq!(edges, 1);
        assert_eq!(g.max_utilization(), 1.5);
    }

    #[test]
    #[should_panic(expected = "2x2")]
    fn tiny_grid_panics() {
        let _ = RoutingGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 1, 4, 1, 1);
    }
}
