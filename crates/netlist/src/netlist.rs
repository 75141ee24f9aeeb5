use std::collections::HashMap;
use std::fmt;

/// Index of a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

/// Index of a gate instance within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl NetId {
    /// Returns the id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// Returns the id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Distinguishes combinational gates from sequential (state-holding)
/// elements without consulting a cell library.
///
/// Sequential gates break combinational paths: their outputs act as
/// sources and their inputs as sinks for topological ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// A combinational gate (output is a pure function of its inputs).
    Comb,
    /// A clocked storage element (D flip-flop or WDDL register).
    Seq,
    /// A constant driver (tie-low / tie-high cell).
    Tie,
}

/// A reference to one pin of one gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinRef {
    /// The gate owning the pin.
    pub gate: GateId,
    /// Pin position: index into the gate's input or output list.
    pub pin: u32,
    /// True if this is an output pin.
    pub is_output: bool,
}

/// A gate instance: a named reference to a library cell plus its
/// connections.
///
/// Input and output pins are positional; the structural Verilog
/// writer/reader maps positions to the conventional pin names
/// `A, B, C, D, E, F` (inputs) and `Y` / `Q` (outputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Unique instance name.
    pub name: String,
    /// Library cell name, e.g. `"AOI32"`.
    pub cell: String,
    /// Combinational / sequential / tie classification.
    pub kind: GateKind,
    /// Nets connected to the input pins, in pin order.
    pub inputs: Vec<NetId>,
    /// Nets driven by the output pins, in pin order.
    pub outputs: Vec<NetId>,
}

/// A net: a single electrical node connecting one driver to zero or
/// more sinks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Net {
    /// Unique net name.
    pub name: String,
    /// The gate output pin driving this net, if any. Primary inputs
    /// have no driver.
    pub driver: Option<PinRef>,
    /// All gate input pins reading this net.
    pub sinks: Vec<PinRef>,
}

/// A flat, technology-mapped gate-level netlist.
///
/// Nets and gates are stored in arenas and referenced by [`NetId`] /
/// [`GateId`]. Connectivity (driver and sink pin lists per net) is
/// maintained automatically by [`Netlist::add_gate`].
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// Module name.
    pub name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    net_names: HashMap<String, NetId>,
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds an internal net. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a net with the same name already exists; net names must
    /// be unique (use [`Netlist::fresh_net`] for auto-generated names).
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let id = NetId(self.nets.len() as u32);
        assert!(
            self.net_names.insert(name.clone(), id).is_none(),
            "duplicate net name `{name}`"
        );
        self.nets.push(Net {
            name,
            driver: None,
            sinks: Vec::new(),
        });
        id
    }

    /// Adds a net with a guaranteed-fresh generated name based on `stem`.
    pub fn fresh_net(&mut self, stem: &str) -> NetId {
        let mut n = self.nets.len();
        loop {
            let candidate = format!("{stem}_{n}");
            if !self.net_names.contains_key(&candidate) {
                return self.add_net(candidate);
            }
            n += 1;
        }
    }

    /// Adds a primary input: a net driven from outside the module.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.inputs.push(id);
        id
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Adds a gate instance and wires up driver/sink records on the
    /// connected nets. Returns the new gate's id.
    ///
    /// # Panics
    ///
    /// Panics if any output net already has a driver.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        cell: impl Into<String>,
        kind: GateKind,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> GateId {
        let gid = GateId(self.gates.len() as u32);
        for (pin, &net) in inputs.iter().enumerate() {
            self.nets[net.index()].sinks.push(PinRef {
                gate: gid,
                pin: pin as u32,
                is_output: false,
            });
        }
        for (pin, &net) in outputs.iter().enumerate() {
            let slot = &mut self.nets[net.index()].driver;
            assert!(
                slot.is_none(),
                "net `{}` already has a driver",
                self.nets[net.index()].name
            );
            *slot = Some(PinRef {
                gate: gid,
                pin: pin as u32,
                is_output: true,
            });
        }
        self.gates.push(Gate {
            name: name.into(),
            cell: cell.into(),
            kind,
            inputs,
            outputs,
        });
        gid
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Returns the net record for `id`.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Returns the gate record for `id`.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// All nets, indexable by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All gates, indexable by [`GateId`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Number of gate instances.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Iterator over all gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Iterator over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Removes gates for which `dead(gate)` returns true, compacting the
    /// gate arena and fixing up all pin references. Nets are preserved
    /// (their driver records are cleared when the driver dies).
    pub fn retain_gates(&mut self, mut keep: impl FnMut(&Gate) -> bool) {
        let mut remap: Vec<Option<GateId>> = vec![None; self.gates.len()];
        let mut new_gates = Vec::with_capacity(self.gates.len());
        for (i, g) in self.gates.drain(..).enumerate() {
            if keep(&g) {
                remap[i] = Some(GateId(new_gates.len() as u32));
                new_gates.push(g);
            }
        }
        self.gates = new_gates;
        for net in &mut self.nets {
            if let Some(d) = net.driver {
                match remap[d.gate.index()] {
                    Some(ng) => net.driver = Some(PinRef { gate: ng, ..d }),
                    None => net.driver = None,
                }
            }
            net.sinks.retain_mut(|s| match remap[s.gate.index()] {
                Some(ng) => {
                    s.gate = ng;
                    true
                }
                None => false,
            });
        }
    }

    /// Per-cell-name instance histogram, sorted by name.
    pub fn cell_histogram(&self) -> Vec<(String, usize)> {
        let mut map: HashMap<&str, usize> = HashMap::new();
        for g in &self.gates {
            *map.entry(g.cell.as_str()).or_insert(0) += 1;
        }
        let mut v: Vec<(String, usize)> =
            map.into_iter().map(|(k, n)| (k.to_string(), n)).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![y]);
        nl.mark_output(y);
        nl
    }

    #[test]
    fn build_and_query() {
        let nl = tiny();
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.net_count(), 3);
        let y = nl.net_by_name("y").unwrap();
        let d = nl.net(y).driver.unwrap();
        assert_eq!(nl.gate(d.gate).cell, "AND2");
        assert_eq!(nl.net(nl.net_by_name("a").unwrap()).sinks.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already has a driver")]
    fn double_drive_panics() {
        let mut nl = tiny();
        let a = nl.net_by_name("a").unwrap();
        let b = nl.net_by_name("b").unwrap();
        let y = nl.net_by_name("y").unwrap();
        nl.add_gate("g1", "OR2", GateKind::Comb, vec![a, b], vec![y]);
    }

    #[test]
    #[should_panic(expected = "duplicate net name")]
    fn duplicate_net_panics() {
        let mut nl = tiny();
        nl.add_net("a");
    }

    #[test]
    fn fresh_net_is_unique() {
        let mut nl = tiny();
        let n1 = nl.fresh_net("w");
        let n2 = nl.fresh_net("w");
        assert_ne!(n1, n2);
        assert_ne!(nl.net(n1).name, nl.net(n2).name);
    }

    #[test]
    fn retain_gates_fixes_references() {
        let mut nl = tiny();
        let a = nl.net_by_name("a").unwrap();
        let b = nl.net_by_name("b").unwrap();
        let z = nl.add_net("z");
        nl.add_gate("g1", "OR2", GateKind::Comb, vec![a, b], vec![z]);
        nl.retain_gates(|g| g.name != "g0");
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.gate(GateId(0)).name, "g1");
        let y = nl.net_by_name("y").unwrap();
        assert!(nl.net(y).driver.is_none());
        let d = nl.net(z).driver.unwrap();
        assert_eq!(d.gate, GateId(0));
        assert_eq!(nl.net(a).sinks.len(), 1);
    }

    #[test]
    fn histogram_counts_cells() {
        let mut nl = tiny();
        let a = nl.net_by_name("a").unwrap();
        let b = nl.net_by_name("b").unwrap();
        let z = nl.add_net("z");
        nl.add_gate("g1", "AND2", GateKind::Comb, vec![a, b], vec![z]);
        let h = nl.cell_histogram();
        assert_eq!(h, vec![("AND2".to_string(), 2)]);
    }
}
