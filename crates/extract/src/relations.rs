//! Per-cell slot relations over low-fanout nets.
//!
//! For every cell, records which cell drives each of its input pin *slots*
//! and which cells its output drives. Input slots are identified by the
//! vertical order of input-pin offsets on the cell outline (the library
//! assigns each logical input a distinct y offset), which survives
//! Bookshelf round-trips — pin storage order does not.

use sdp_netlist::{CellId, Netlist, PinDir};

/// Driver/sink relations restricted to nets of bounded degree.
#[derive(Debug, Clone)]
pub struct Relations {
    /// `drivers[cell.ix()][slot]` = the cell driving that input slot, if
    /// the net is low-fanout and has a unique driver.
    drivers: Vec<Vec<Option<CellId>>>,
    /// `sinks[cell.ix()]` = cells receiving this cell's output through
    /// low-fanout nets (deduplicated, sorted).
    sinks: Vec<Vec<CellId>>,
}

impl Relations {
    /// Builds the relations for a netlist.
    pub fn build(netlist: &Netlist, max_net_degree: usize) -> Self {
        let n = netlist.num_cells();
        let mut drivers: Vec<Vec<Option<CellId>>> = Vec::with_capacity(n);
        let mut sinks: Vec<Vec<CellId>> = vec![Vec::new(); n];

        for i in 0..n {
            let c = CellId::new(i);
            let cell = netlist.cell(c);
            // Input pins sorted by their y offset = slot order.
            let mut inputs: Vec<_> = cell
                .pins
                .iter()
                .copied()
                .filter(|&p| netlist.pin(p).dir == PinDir::Input)
                .collect();
            inputs.sort_by(|&a, &b| {
                let (oa, ob) = (netlist.pin(a).offset, netlist.pin(b).offset);
                oa.y.total_cmp(&ob.y).then(oa.x.total_cmp(&ob.x))
            });
            let mut slot_drivers = Vec::with_capacity(inputs.len());
            for p in inputs {
                let net_id = netlist.pin(p).net;
                let net = netlist.net(net_id);
                let driver = if net.pins.len() <= max_net_degree {
                    netlist
                        .driver_of_net(net_id)
                        .map(|d| netlist.pin(d).cell)
                        .filter(|&d| d != c)
                } else {
                    None
                };
                slot_drivers.push(driver);
            }
            drivers.push(slot_drivers);
        }

        // Sinks from the driver side.
        for net_id in netlist.net_ids() {
            let net = netlist.net(net_id);
            if net.pins.len() > max_net_degree {
                continue;
            }
            let Some(dpin) = netlist.driver_of_net(net_id) else {
                continue;
            };
            let driver = netlist.pin(dpin).cell;
            for &p in &net.pins {
                let pin = netlist.pin(p);
                if pin.dir != PinDir::Output && pin.cell != driver {
                    sinks[driver.ix()].push(pin.cell);
                }
            }
        }
        for s in &mut sinks {
            s.sort_unstable();
            s.dedup();
        }
        Relations { drivers, sinks }
    }

    /// The driver of `cell`'s input slot `slot`, if any.
    pub fn driver(&self, cell: CellId, slot: usize) -> Option<CellId> {
        self.drivers[cell.ix()].get(slot).copied().flatten()
    }

    /// Number of input slots recorded for `cell`.
    pub fn num_slots(&self, cell: CellId) -> usize {
        self.drivers[cell.ix()].len()
    }

    /// Cells fed by `cell`'s output over low-fanout nets.
    pub fn sinks(&self, cell: CellId) -> &[CellId] {
        &self.sinks[cell.ix()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_dpgen::test_support::lone_adder;

    #[test]
    fn adder_carry_relations_exist() {
        let (nl, truth) = lone_adder(8);
        let rel = Relations::build(&nl, 6);
        let g = &truth[0];
        // The OR (stage 4) of bit i drives the XOR-sum (stage 1) and the
        // AND (stage 3) of bit i+1 through the carry net.
        for bit in 0..7 {
            let or_i = g.cell_at(bit, 4).unwrap();
            let sum_next = g.cell_at(bit + 1, 1).unwrap();
            assert!(
                rel.sinks(or_i).contains(&sum_next),
                "carry of bit {bit} feeds sum of bit {}",
                bit + 1
            );
        }
    }

    #[test]
    fn slot_drivers_are_consistent() {
        let (nl, truth) = lone_adder(8);
        let rel = Relations::build(&nl, 6);
        let g = &truth[0];
        // XOR-sum (stage 1) has 2 input slots; one is driven by the
        // first XOR (stage 0) of the same bit.
        for bit in 1..8 {
            let sum = g.cell_at(bit, 1).unwrap();
            assert_eq!(rel.num_slots(sum), 2);
            let drivers: Vec<_> = (0..2).filter_map(|s| rel.driver(sum, s)).collect();
            let axb = g.cell_at(bit, 0).unwrap();
            assert!(drivers.contains(&axb), "bit {bit} sum driven by its xor");
        }
    }

    #[test]
    fn high_fanout_nets_are_ignored() {
        let (nl, truth) = lone_adder(8);
        // With a tiny degree bound, the two-pin carry nets still pass but
        // bus pads feeding one sink do too; with bound 1 nothing passes.
        let rel = Relations::build(&nl, 1);
        let g = &truth[0];
        let sum = g.cell_at(4, 1).unwrap();
        assert_eq!(rel.driver(sum, 0), None);
        assert_eq!(rel.driver(sum, 1), None);
        assert!(rel.sinks(sum).is_empty());
    }
}
