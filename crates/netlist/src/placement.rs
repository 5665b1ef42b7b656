//! Placement state: one centre coordinate per cell.

use crate::{CellId, NetId, Netlist, PinId};
use sdp_geom::{BBox, Point, Rect};

/// The positions of every cell in a netlist (cell *centres*).
///
/// Kept separate from [`Netlist`] so optimizers can clone/iterate cheap
/// coordinate vectors while the netlist stays shared and immutable.
///
/// # Examples
///
/// ```
/// use sdp_netlist::{NetlistBuilder, Placement, PinDir};
/// use sdp_geom::Point;
///
/// let mut b = NetlistBuilder::new();
/// let l = b.add_lib_cell("INV", 2.0, 1.0, 1, 1);
/// let u = b.add_cell("u", l);
/// let v = b.add_cell("v", l);
/// b.add_net("n", [(u, Point::ORIGIN, PinDir::Output),
///                 (v, Point::ORIGIN, PinDir::Input)]);
/// let nl = b.finish().unwrap();
/// let mut p = Placement::new(&nl);
/// p.set(u, Point::new(1.0, 1.0));
/// p.set(v, Point::new(4.0, 5.0));
/// assert_eq!(p.net_hpwl(&nl, sdp_netlist::NetId::new(0)), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pos: Vec<Point>,
}

impl Placement {
    /// Creates a placement with every cell at the origin.
    pub fn new(netlist: &Netlist) -> Self {
        Placement {
            pos: vec![Point::ORIGIN; netlist.num_cells()],
        }
    }

    /// Number of cells tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// `true` if the placement tracks no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Centre position of a cell.
    #[inline]
    pub fn get(&self, c: CellId) -> Point {
        self.pos[c.ix()]
    }

    /// Sets the centre position of a cell.
    #[inline]
    pub fn set(&mut self, c: CellId, p: Point) {
        self.pos[c.ix()] = p;
    }

    /// Raw coordinate slice (indexed by `CellId::ix`).
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.pos
    }

    /// Absolute position of a pin (cell centre + pin offset).
    #[inline]
    pub fn pin_position(&self, netlist: &Netlist, pin: PinId) -> Point {
        let p = netlist.pin(pin);
        self.pos[p.cell.ix()] + p.offset
    }

    /// Outline rectangle of a cell at its current position.
    pub fn cell_rect(&self, netlist: &Netlist, c: CellId) -> Rect {
        let m = netlist.master_of(c);
        Rect::centered_at(self.pos[c.ix()], m.width, m.height)
    }

    /// Half-perimeter wirelength of one net (unweighted).
    pub fn net_hpwl(&self, netlist: &Netlist, n: NetId) -> f64 {
        let mut bb = BBox::new();
        for &pin in &netlist.net(n).pins {
            bb.add_point(self.pin_position(netlist, pin));
        }
        bb.half_perimeter()
    }

    /// Bounding box of one net's pins.
    pub fn net_bbox(&self, netlist: &Netlist, n: NetId) -> Option<Rect> {
        let mut bb = BBox::new();
        for &pin in &netlist.net(n).pins {
            bb.add_point(self.pin_position(netlist, pin));
        }
        bb.rect()
    }

    /// Total weighted half-perimeter wirelength over all nets.
    pub fn total_hpwl(&self, netlist: &Netlist) -> f64 {
        netlist
            .net_ids()
            .map(|n| netlist.net(n).weight * self.net_hpwl(netlist, n))
            .sum()
    }

    /// Clamps every movable cell's outline inside `region` (fixed cells are
    /// untouched).
    pub fn clamp_into(&mut self, netlist: &Netlist, region: Rect) {
        for c in netlist.movable_ids() {
            let m = netlist.master_of(c);
            let hw = (m.width / 2.0).min(region.width() / 2.0);
            let hh = (m.height / 2.0).min(region.height() / 2.0);
            let inner = Rect::new(
                region.x1() + hw,
                region.y1() + hh,
                region.x2() - hw,
                region.y2() - hh,
            );
            self.pos[c.ix()] = inner.clamp_point(self.pos[c.ix()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetlistBuilder, PinDir};

    fn pair() -> (Netlist, CellId, CellId, NetId) {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("INV", 2.0, 1.0, 1, 1);
        let u = b.add_cell("u", l);
        let v = b.add_cell("v", l);
        let n = b.add_net(
            "n",
            [
                (u, Point::new(0.5, 0.0), PinDir::Output),
                (v, Point::new(-0.5, 0.0), PinDir::Input),
            ],
        );
        (b.finish().unwrap(), u, v, n)
    }

    #[test]
    fn pin_positions_include_offsets() {
        let (nl, u, v, n) = pair();
        let mut p = Placement::new(&nl);
        p.set(u, Point::new(0.0, 0.0));
        p.set(v, Point::new(10.0, 0.0));
        // pins at 0.5 and 9.5 → hpwl 9.0
        assert_eq!(p.net_hpwl(&nl, n), 9.0);
        let pin0 = nl.net(n).pins[0];
        assert_eq!(p.pin_position(&nl, pin0), Point::new(0.5, 0.0));
    }

    #[test]
    fn total_hpwl_weights() {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("INV", 2.0, 1.0, 1, 1);
        let u = b.add_cell("u", l);
        let v = b.add_cell("v", l);
        b.add_weighted_net(
            "n",
            2.0,
            [
                (u, Point::ORIGIN, PinDir::Output),
                (v, Point::ORIGIN, PinDir::Input),
            ],
        );
        let nl = b.finish().unwrap();
        let mut p = Placement::new(&nl);
        p.set(v, Point::new(3.0, 4.0));
        assert_eq!(p.total_hpwl(&nl), 14.0);
    }

    #[test]
    fn cell_rect_centered() {
        let (nl, u, _, _) = pair();
        let mut p = Placement::new(&nl);
        p.set(u, Point::new(5.0, 5.0));
        assert_eq!(p.cell_rect(&nl, u), Rect::new(4.0, 4.5, 6.0, 5.5));
    }

    #[test]
    fn clamp_keeps_outline_inside() {
        let (nl, u, v, _) = pair();
        let mut p = Placement::new(&nl);
        p.set(u, Point::new(-100.0, 50.0));
        p.set(v, Point::new(3.0, 3.0));
        let region = Rect::new(0.0, 0.0, 10.0, 10.0);
        p.clamp_into(&nl, region);
        assert_eq!(p.get(u), Point::new(1.0, 9.5)); // half-width 1, half-height 0.5
        assert_eq!(p.get(v), Point::new(3.0, 3.0));
        assert!(region.contains_rect(&p.cell_rect(&nl, u)));
    }

    #[test]
    fn net_bbox() {
        let (nl, u, v, n) = pair();
        let mut p = Placement::new(&nl);
        p.set(u, Point::new(0.0, 0.0));
        p.set(v, Point::new(4.0, 2.0));
        let bb = p.net_bbox(&nl, n).unwrap();
        assert_eq!(bb, Rect::new(0.5, 0.0, 3.5, 2.0));
    }
}
