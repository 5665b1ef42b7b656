//! Wire-level intermediate representation used while generating circuits.
//!
//! Generators create gates one at a time against named wires; the finished
//! [`WireCircuit`] is then lowered to an [`sdp_netlist::Netlist`] in which
//! every wire with a driver and at least one sink becomes a net.

use sdp_geom::Point;
use sdp_netlist::{CellId, Netlist, NetlistBuilder, NetlistError, PinDir};
use std::fmt;

/// Index of a wire in a [`WireCircuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireId(pub(crate) u32);

/// Index of a gate in a [`WireCircuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Raw index.
    pub fn ix(self) -> usize {
        self.0 as usize
    }
}

impl WireId {
    /// Raw index.
    pub fn ix(self) -> usize {
        self.0 as usize
    }
}

/// The gate alphabet of the generator's standard-cell library.
///
/// Widths loosely mirror a real library (more transistors → wider cell);
/// all gates are one row tall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2-to-1 multiplexer (`d0`, `d1`, `sel`).
    Mux2,
    /// AND-OR-invert 2-1.
    Aoi21,
    /// D flip-flop (`d`, `clk`).
    Dff,
}

impl GateKind {
    /// All gate kinds.
    pub const ALL: [GateKind; 11] = [
        GateKind::Inv,
        GateKind::Buf,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
        GateKind::Xnor2,
        GateKind::Mux2,
        GateKind::Aoi21,
        GateKind::Dff,
    ];

    /// Library master name.
    pub fn master_name(self) -> &'static str {
        match self {
            GateKind::Inv => "INV",
            GateKind::Buf => "BUF",
            GateKind::Nand2 => "NAND2",
            GateKind::Nor2 => "NOR2",
            GateKind::And2 => "AND2",
            GateKind::Or2 => "OR2",
            GateKind::Xor2 => "XOR2",
            GateKind::Xnor2 => "XNOR2",
            GateKind::Mux2 => "MUX2",
            GateKind::Aoi21 => "AOI21",
            GateKind::Dff => "DFF",
        }
    }

    /// Number of data inputs the gate expects.
    pub fn num_inputs(self) -> usize {
        match self {
            GateKind::Inv | GateKind::Buf => 1,
            GateKind::Nand2
            | GateKind::Nor2
            | GateKind::And2
            | GateKind::Or2
            | GateKind::Xor2
            | GateKind::Xnor2
            | GateKind::Dff => 2,
            GateKind::Mux2 | GateKind::Aoi21 => 3,
        }
    }

    /// Cell width in placement units.
    pub fn width(self) -> f64 {
        match self {
            GateKind::Inv => 2.0,
            GateKind::Buf => 2.0,
            GateKind::Nand2 | GateKind::Nor2 => 3.0,
            GateKind::And2 | GateKind::Or2 => 3.0,
            GateKind::Xor2 | GateKind::Xnor2 => 5.0,
            GateKind::Mux2 => 5.0,
            GateKind::Aoi21 => 4.0,
            GateKind::Dff => 8.0,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.master_name())
    }
}

/// A gate instance in the intermediate representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Gate function.
    pub kind: GateKind,
    /// Input wires, in pin order.
    pub inputs: Vec<WireId>,
    /// Output wire (every gate drives exactly one).
    pub output: WireId,
}

/// A circuit under construction: gates, wires, and primary I/O.
///
/// # Examples
///
/// ```
/// use sdp_dpgen::{WireCircuit, GateKind};
///
/// let mut c = WireCircuit::new();
/// let a = c.input("a");
/// let b = c.input("b");
/// let (s, _g) = c.gate(GateKind::Xor2, &[a, b]);
/// c.output("sum", s);
/// let lowered = c.lower("tiny").unwrap();
/// assert_eq!(lowered.netlist.num_cells(), 4); // 1 gate + 3 pads
/// ```
#[derive(Debug, Clone, Default)]
pub struct WireCircuit {
    gates: Vec<Gate>,
    num_wires: u32,
    inputs: Vec<(String, WireId)>,
    outputs: Vec<(String, WireId)>,
    macros: Vec<MacroSpec>,
}

/// A hard macro: a fixed rectangular blockage with input ports.
#[derive(Debug, Clone)]
struct MacroSpec {
    name: String,
    width: f64,
    height: f64,
    inputs: Vec<WireId>,
}

/// The result of lowering a [`WireCircuit`] to a netlist.
#[derive(Debug, Clone)]
pub struct LoweredCircuit {
    /// The flat netlist (gates first, then I/O pads).
    pub netlist: Netlist,
    /// `gate_cells[gate.ix()]` is the netlist cell of that gate.
    pub gate_cells: Vec<CellId>,
    /// Cells of the input pads, in declaration order.
    pub input_pads: Vec<CellId>,
    /// Cells of the output pads, in declaration order.
    pub output_pads: Vec<CellId>,
    /// Cells of the hard macros, in declaration order.
    pub macro_cells: Vec<CellId>,
}

impl WireCircuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        WireCircuit::default()
    }

    /// Allocates a fresh, undriven wire.
    pub fn wire(&mut self) -> WireId {
        let id = WireId(self.num_wires);
        self.num_wires += 1;
        id
    }

    /// Declares a primary input and returns its wire.
    pub fn input(&mut self, name: impl Into<String>) -> WireId {
        let w = self.wire();
        self.inputs.push((name.into(), w));
        w
    }

    /// Declares a primary output driven by `w`.
    pub fn output(&mut self, name: impl Into<String>, w: WireId) {
        self.outputs.push((name.into(), w));
    }

    /// Declares a hard macro of the given size whose ports read `inputs`.
    /// The macro becomes a fixed cell at lowering time; the caller places
    /// it (fixed cells keep whatever position the placement assigns).
    pub fn macro_block(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        inputs: &[WireId],
    ) {
        self.macros.push(MacroSpec {
            name: name.into(),
            width,
            height,
            inputs: inputs.to_vec(),
        });
    }

    /// Adds a gate and returns `(output_wire, gate_id)`.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match the gate kind.
    pub fn gate(&mut self, kind: GateKind, inputs: &[WireId]) -> (WireId, GateId) {
        let output = self.wire();
        let id = self.gate_into(kind, inputs, output);
        (output, id)
    }

    /// Adds a gate driving a pre-allocated wire (needed for feedback loops
    /// such as a register's hold path).
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match the gate kind.
    pub fn gate_into(&mut self, kind: GateKind, inputs: &[WireId], output: WireId) -> GateId {
        assert_eq!(
            inputs.len(),
            kind.num_inputs(),
            "{kind} takes {} inputs, got {}",
            kind.num_inputs(),
            inputs.len()
        );
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        id
    }

    /// Number of gates so far.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of wires so far.
    pub fn num_wires(&self) -> usize {
        self.num_wires as usize
    }

    /// Gates added so far.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary inputs declared so far.
    pub fn inputs(&self) -> &[(String, WireId)] {
        &self.inputs
    }

    /// Primary outputs declared so far.
    pub fn outputs(&self) -> &[(String, WireId)] {
        &self.outputs
    }

    /// Lowers the circuit to a flat netlist.
    ///
    /// Wires become nets; primary I/O becomes fixed `PAD` cells. Undriven
    /// or unread wires are dropped silently (generators produce them for
    /// unused carry-outs and the like).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors (duplicate pad names).
    pub fn lower(&self, design_name: &str) -> Result<LoweredCircuit, NetlistError> {
        let mut b = NetlistBuilder::new();
        // Library.
        let pad_lib = b.add_lib_cell("PAD", 1.0, 1.0, 1, 1);
        let libs: Vec<_> = GateKind::ALL
            .iter()
            .map(|&k| b.add_lib_cell(k.master_name(), k.width(), 1.0, k.num_inputs() as u8, 1))
            .collect();
        let lib_of = |k: GateKind| {
            let Some(pos) = GateKind::ALL.iter().position(|&x| x == k) else {
                unreachable!("GateKind::ALL contains every variant");
            };
            libs[pos]
        };

        // Cells.
        let gate_cells: Vec<CellId> = self
            .gates
            .iter()
            .enumerate()
            .map(|(i, g)| b.add_cell(&format!("{}_{i}", design_name), lib_of(g.kind)))
            .collect();
        let input_pads: Vec<CellId> = self
            .inputs
            .iter()
            .map(|(n, _)| b.add_fixed_cell(&format!("pi_{n}"), pad_lib))
            .collect();
        let output_pads: Vec<CellId> = self
            .outputs
            .iter()
            .map(|(n, _)| b.add_fixed_cell(&format!("po_{n}"), pad_lib))
            .collect();
        let macro_cells: Vec<CellId> = self
            .macros
            .iter()
            .map(|m| {
                let lib = b.add_lib_cell(
                    &format!("MACRO_{}x{}", m.width, m.height),
                    m.width,
                    m.height,
                    m.inputs.len().min(u8::MAX as usize) as u8,
                    0,
                );
                b.add_fixed_cell(&m.name, lib)
            })
            .collect();

        // Wire → connections.
        #[derive(Default, Clone)]
        struct WireUse {
            driver: Option<(CellId, Point)>,
            sinks: Vec<(CellId, Point)>,
        }
        let mut uses = vec![WireUse::default(); self.num_wires as usize];
        for (i, g) in self.gates.iter().enumerate() {
            let c = gate_cells[i];
            let w = g.kind.width();
            uses[g.output.ix()].driver = Some((c, Point::new(w / 2.0 - 0.25, 0.0)));
            for (k, &inp) in g.inputs.iter().enumerate() {
                // Input pins spread along the left edge.
                let frac = (k as f64 + 1.0) / (g.inputs.len() as f64 + 1.0);
                uses[inp.ix()]
                    .sinks
                    .push((c, Point::new(-w / 2.0 + 0.25, frac - 0.5)));
            }
        }
        for (i, (_, w)) in self.inputs.iter().enumerate() {
            uses[w.ix()].driver = Some((input_pads[i], Point::ORIGIN));
        }
        for (i, (_, w)) in self.outputs.iter().enumerate() {
            uses[w.ix()].sinks.push((output_pads[i], Point::ORIGIN));
        }
        for (mi, m) in self.macros.iter().enumerate() {
            for (k, &w) in m.inputs.iter().enumerate() {
                // Ports spread along the macro's left edge.
                let frac = (k as f64 + 1.0) / (m.inputs.len() as f64 + 1.0);
                uses[w.ix()].sinks.push((
                    macro_cells[mi],
                    Point::new(-m.width / 2.0 + 0.25, (frac - 0.5) * m.height),
                ));
            }
        }

        // Nets.
        for (wi, u) in uses.iter().enumerate() {
            let Some((drv, doff)) = u.driver else {
                continue;
            };
            if u.sinks.is_empty() {
                continue;
            }
            let conns = std::iter::once((drv, doff, PinDir::Output))
                .chain(u.sinks.iter().map(|&(c, off)| (c, off, PinDir::Input)));
            b.add_net(&format!("w{wi}"), conns);
        }

        Ok(LoweredCircuit {
            netlist: b.finish()?,
            gate_cells,
            input_pads,
            output_pads,
            macro_cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_metadata_consistent() {
        for k in GateKind::ALL {
            assert!(k.width() > 0.0);
            assert!(!k.master_name().is_empty());
            assert!(k.num_inputs() >= 1 && k.num_inputs() <= 3);
        }
    }

    #[test]
    fn build_and_lower_full_adder() {
        let mut c = WireCircuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let cin = c.input("cin");
        let (axb, _) = c.gate(GateKind::Xor2, &[a, b]);
        let (sum, _) = c.gate(GateKind::Xor2, &[axb, cin]);
        let (t1, _) = c.gate(GateKind::And2, &[a, b]);
        let (t2, _) = c.gate(GateKind::And2, &[axb, cin]);
        let (cout, _) = c.gate(GateKind::Or2, &[t1, t2]);
        c.output("sum", sum);
        c.output("cout", cout);

        let lo = c.lower("fa").unwrap();
        // 5 gates + 3 input pads + 2 output pads.
        assert_eq!(lo.netlist.num_cells(), 10);
        assert_eq!(lo.gate_cells.len(), 5);
        assert_eq!(lo.input_pads.len(), 3);
        // Wires: a (3 sinks? a→xor1,and1 = 2 sinks), all driven & read → nets:
        // a, b, cin, axb, sum, t1, t2, cout = 8 nets.
        assert_eq!(lo.netlist.num_nets(), 8);
        // Every net has exactly one driver.
        for n in lo.netlist.net_ids() {
            assert!(lo.netlist.driver_of_net(n).is_some());
        }
    }

    #[test]
    fn dangling_wires_are_dropped() {
        let mut c = WireCircuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let (o, _) = c.gate(GateKind::And2, &[a, b]);
        // `o` has no sink; `unused` has no driver.
        let _unused = c.wire();
        let _ = o;
        // Add a read path so at least one net exists.
        let (o2, _) = c.gate(GateKind::Inv, &[a]);
        c.output("y", o2);
        let lo = c.lower("d").unwrap();
        // nets: a (2 sinks), o2. `b` feeds only the AND gate → net b exists too.
        assert_eq!(lo.netlist.num_nets(), 3);
    }

    #[test]
    #[should_panic(expected = "takes 2 inputs")]
    fn wrong_arity_panics() {
        let mut c = WireCircuit::new();
        let a = c.input("a");
        let _ = c.gate(GateKind::And2, &[a]);
    }

    #[test]
    fn pin_offsets_inside_cell() {
        let mut c = WireCircuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let s = c.input("s");
        let (o, _) = c.gate(GateKind::Mux2, &[a, b, s]);
        c.output("y", o);
        let lo = c.lower("m").unwrap();
        let mux = lo.gate_cells[0];
        let m = lo.netlist.master_of(mux);
        for &p in &lo.netlist.cell(mux).pins {
            let off = lo.netlist.pin(p).offset;
            assert!(off.x.abs() <= m.width / 2.0, "x offset {off}");
            assert!(off.y.abs() <= m.height / 2.0, "y offset {off}");
        }
    }
}
