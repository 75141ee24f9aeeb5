//! The zero-delay evaluator: a netlist's combinational gates compiled
//! once into a [`Program`] that walks them in topological order over
//! any value type a [`Logic`] defines. [`Bools`] evaluates one source
//! assignment, [`Words`] 64 at once, and the equivalence checker
//! builds BDDs with the same walk; the WDDL rail checks run on it too.
//! [`run_cycles`] on top of it is the reference the event kernel is
//! checked against (`tests/sim_cross_check.rs`).

use std::collections::HashMap;
use std::ops::Range;

use secflow_cells::{CellFunction, Library, TruthTable};
use secflow_netlist::{GateKind, NetId, Netlist};

use crate::load::check_pins;
use crate::SimError;

/// How a walk computes net values. A gate's output is by default the
/// Shannon expansion of its truth table over its inputs: minterm index
/// bit `n-1` selects the table half, so each level builds the low half,
/// then the high half, then `ite(ins[n-1], high, low)`. The equivalence
/// checker's BDDs are built in exactly this order of `ite` calls.
pub trait Logic {
    /// One net's value.
    type Value: Copy;
    /// The constant `v`.
    fn constant(&mut self, v: bool) -> Self::Value;
    /// `hi` where `s` holds, `lo` elsewhere.
    fn ite(&mut self, s: Self::Value, hi: Self::Value, lo: Self::Value) -> Self::Value;
    /// The output of a gate with table `tt` over `ins` (pin order).
    fn gate(&mut self, tt: TruthTable, ins: &[Self::Value]) -> Self::Value {
        shannon(self, tt.vars(), tt.bits(), ins)
    }
    /// The output of a tie cell driving `v`.
    fn tie(&mut self, v: bool) -> Self::Value {
        self.constant(v)
    }
}

/// The Shannon expansion of the `n`-input table `bits` (see [`Logic`]).
fn shannon<L: Logic + ?Sized>(l: &mut L, n: u8, bits: u64, ins: &[L::Value]) -> L::Value {
    if n == 0 {
        return l.constant(bits & 1 == 1);
    }
    // n ≤ 6 so half ≤ 32 and the shifts below are in range.
    let half = 1u32 << (n - 1);
    let lo = shannon(l, n - 1, bits & ((1u64 << half) - 1), ins);
    let hi = shannon(l, n - 1, bits >> half, ins);
    l.ite(ins[n as usize - 1], hi, lo)
}

/// One source assignment: a gate reads its table at its packed inputs.
pub struct Bools;

impl Logic for Bools {
    type Value = bool;
    fn constant(&mut self, v: bool) -> bool {
        v
    }
    fn ite(&mut self, s: bool, hi: bool, lo: bool) -> bool {
        if s {
            hi
        } else {
            lo
        }
    }
    fn gate(&mut self, tt: TruthTable, ins: &[bool]) -> bool {
        let idx = (ins.iter().enumerate()).fold(0u32, |idx, (i, &v)| idx | (u32::from(v) << i));
        tt.eval(idx)
    }
}

/// 64 source assignments, one per bit of a word.
pub struct Words;

impl Logic for Words {
    type Value = u64;
    fn constant(&mut self, v: bool) -> u64 {
        u64::from(v).wrapping_neg()
    }
    fn ite(&mut self, s: u64, hi: u64, lo: u64) -> u64 {
        (s & hi) | (!s & lo)
    }
}

/// The `(D, Q)` nets of the single-ended registers, in declaration
/// order: the register sources and next-state compare points of a walk.
pub fn registers(nl: &Netlist) -> Vec<(NetId, NetId)> {
    (nl.gates().iter())
        .filter(|g| g.kind == GateKind::Seq)
        .map(|g| (g.inputs[0], g.outputs[0]))
        .collect()
}

/// What one step computes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Gate(TruthTable),
    Tie(bool),
}

/// One combinational gate: its operation, its inputs as a range of
/// [`Program::in_nets`], and its output net.
#[derive(Debug, Clone)]
struct Step {
    op: Op,
    ins: Range<usize>,
    out: NetId,
}

/// A netlist's combinational gates in topological order, each cell
/// resolved and its pin counts checked once. Registers are skipped:
/// their outputs are sources the caller assigns.
#[derive(Debug, Clone)]
pub struct Program {
    net_count: usize,
    steps: Vec<Step>,
    in_nets: Vec<NetId>,
    memo_hits: u64,
}

impl Program {
    /// Compiles the combinational portion of `nl` over `lib`.
    ///
    /// # Errors
    ///
    /// [`SimError::CombinationalCycle`] if no evaluation order exists;
    /// otherwise [`SimError::UnknownCell`] or [`SimError::PinCount`] for
    /// the first offending gate in topological order.
    pub fn compile(nl: &Netlist, lib: &Library) -> Result<Program, SimError> {
        let order =
            secflow_netlist::topo_order(nl).ok_or_else(|| SimError::CombinationalCycle {
                netlist: nl.name.clone(),
            })?;
        // Mapped netlists instantiate a handful of distinct cells tens
        // of thousands of times; resolve each name once, not per gate.
        let mut memo: HashMap<&str, usize> = HashMap::new();
        let mut prog = Program {
            net_count: nl.net_count(),
            steps: Vec::with_capacity(order.len()),
            in_nets: Vec::new(),
            memo_hits: 0,
        };
        for gid in order {
            let g = nl.gate(gid);
            if g.kind == GateKind::Seq {
                continue;
            }
            let idx = match memo.get(g.cell.as_str()) {
                Some(&i) => {
                    prog.memo_hits += 1;
                    i
                }
                None => {
                    let i = lib.index_of(&g.cell).ok_or_else(|| SimError::UnknownCell {
                        gate: g.name.clone(),
                        cell: g.cell.clone(),
                    })?;
                    memo.insert(g.cell.as_str(), i);
                    i
                }
            };
            let cell = lib.cell_at(idx);
            check_pins(g, cell)?;
            let op = match cell.function() {
                CellFunction::Comb(tt) => Op::Gate(*tt),
                CellFunction::Tie(v) => Op::Tie(*v),
                CellFunction::Dff | CellFunction::WddlDff => continue,
            };
            let start = prog.in_nets.len();
            prog.in_nets.extend_from_slice(&g.inputs);
            prog.steps.push(Step {
                op,
                ins: start..prog.in_nets.len(),
                out: g.outputs[0],
            });
        }
        Ok(prog)
    }

    /// Gates whose cell came from the compile's name memo instead of a
    /// library lookup.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Every net's value with the `sources` assigned (primary inputs and
    /// register outputs; any other net starts at `fill`), after one walk
    /// of the gates in topological order.
    pub fn eval<L: Logic + ?Sized>(
        &self,
        logic: &mut L,
        fill: L::Value,
        sources: impl IntoIterator<Item = (NetId, L::Value)>,
    ) -> Vec<L::Value> {
        let mut values = vec![fill; self.net_count];
        for (n, v) in sources {
            values[n.index()] = v;
        }
        let mut ins = Vec::with_capacity(usize::from(TruthTable::MAX_VARS));
        for s in &self.steps {
            values[s.out.index()] = match s.op {
                Op::Gate(tt) => {
                    ins.clear();
                    ins.extend(
                        self.in_nets[s.ins.clone()]
                            .iter()
                            .map(|n| values[n.index()]),
                    );
                    logic.gate(tt, &ins)
                }
                Op::Tie(v) => logic.tie(v),
            };
        }
        values
    }
}

/// Cycle-accurate zero-delay simulation of a single-ended sequential
/// netlist. Registers reset to 0. Returns the primary-output values at
/// the end of each cycle.
///
/// # Errors
///
/// Returns [`SimError`] if the netlist is cyclic, references unknown
/// cells or has a gate whose pin count differs from its cell's.
///
/// # Panics
///
/// Panics if an input vector's length does not match the netlist's
/// primary input count (caller contract).
pub fn run_cycles(
    nl: &Netlist,
    lib: &Library,
    input_vectors: &[Vec<bool>],
) -> Result<Vec<Vec<bool>>, SimError> {
    let prog = Program::compile(nl, lib)?;
    let regs = registers(nl);
    let mut state = vec![false; regs.len()];
    let mut outs = Vec::with_capacity(input_vectors.len());
    for vector in input_vectors {
        assert_eq!(vector.len(), nl.inputs().len());
        let sources = nl.inputs().iter().copied().zip(vector.iter().copied());
        let regs_q = regs.iter().map(|&(_, q)| q).zip(state.iter().copied());
        let values = prog.eval(&mut Bools, false, sources.chain(regs_q));
        for (s, (d, _)) in state.iter_mut().zip(&regs) {
            *s = values[d.index()];
        }
        outs.push(nl.outputs().iter().map(|&o| values[o.index()]).collect());
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_testkit::Gen;

    fn eval_bools(nl: &Netlist, lib: &Library, sources: &[(NetId, bool)]) -> Vec<bool> {
        Program::compile(nl, lib)
            .unwrap()
            .eval(&mut Bools, false, sources.iter().copied())
    }

    #[test]
    fn bools_compute_logic() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_gate("g", "NAND2", GateKind::Comb, vec![a, b], vec![y]);
        let v = eval_bools(&nl, &lib, &[(a, true), (b, true)]);
        assert!(!v[y.index()]);
        let v = eval_bools(&nl, &lib, &[(a, true), (b, false)]);
        assert!(v[y.index()]);
    }

    #[test]
    fn run_cycles_advances_registers() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let q = nl.add_net("q");
        nl.add_gate("r", "DFF", GateKind::Seq, vec![a], vec![q]);
        nl.mark_output(q);
        let outs = run_cycles(&nl, &lib, &[vec![true], vec![false], vec![true]]).unwrap();
        // Output shows the previous cycle's input.
        assert_eq!(outs, vec![vec![false], vec![true], vec![false]]);
    }

    #[test]
    fn tie_cells_evaluate() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let hi = nl.add_net("hi");
        nl.add_gate("t1", "TIEHI", GateKind::Tie, vec![], vec![hi]);
        nl.mark_output(hi);
        assert!(eval_bools(&nl, &lib, &[])[hi.index()]);
    }

    #[test]
    fn unknown_cell_is_typed_error() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g", "BOGUS", GateKind::Comb, vec![a], vec![y]);
        let err = Program::compile(&nl, &lib).unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownCell {
                gate: "g".into(),
                cell: "BOGUS".into()
            }
        );
    }

    #[test]
    fn wrong_pin_count_is_typed_error() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g", "AND2", GateKind::Comb, vec![a], vec![y]);
        let err = Program::compile(&nl, &lib).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::PinCount {
                    pins: "input",
                    got: 1,
                    expected: 2,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn combinational_cycle_is_typed_error() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("loopy");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, y], vec![x]);
        nl.add_gate("g1", "BUF", GateKind::Comb, vec![x], vec![y]);
        let err = Program::compile(&nl, &lib).unwrap_err();
        assert_eq!(
            err,
            SimError::CombinationalCycle {
                netlist: "loopy".into()
            }
        );
    }

    /// A random acyclic netlist over every combinational and tie cell of
    /// `lib`, with an occasional DFF whose output is one more source.
    fn random_netlist(g: &mut Gen, lib: &Library) -> Netlist {
        let cells: Vec<_> = lib.cells().iter().filter(|c| !c.is_sequential()).collect();
        let mut nl = Netlist::new("prop");
        let n_inputs = g.len_in(1..7);
        let mut pool: Vec<NetId> = (0..n_inputs)
            .map(|i| nl.add_input(format!("i{i}")))
            .collect();
        for k in 0..g.len_in(1..40) {
            let out = nl.add_net(format!("n{k}"));
            if g.random_bool(0.1) {
                let d = *g.choose(&pool);
                nl.add_gate(format!("g{k}"), "DFF", GateKind::Seq, vec![d], vec![out]);
            } else {
                let cell = *g.choose(&cells);
                let kind = match cell.function() {
                    CellFunction::Tie(_) => GateKind::Tie,
                    _ => GateKind::Comb,
                };
                let ins = (0..cell.input_count()).map(|_| *g.choose(&pool)).collect();
                nl.add_gate(format!("g{k}"), cell.name(), kind, ins, vec![out]);
            }
            pool.push(out);
        }
        nl
    }

    /// Lane `l` of a 64-lane word walk equals the one-assignment walk
    /// of lane `l`'s sources, on every net.
    #[test]
    fn prop_words_equal_64_bool_walks_lane_by_lane() {
        secflow_testkit::prop_check!(cases: 64, seed: 0x2E50_DE1A, |g| {
            let lib = Library::lib180();
            let nl = random_netlist(g, &lib);
            let prog = Program::compile(&nl, &lib).unwrap();
            let regs = registers(&nl).into_iter().map(|(_, q)| q);
            let sources: Vec<NetId> = nl.inputs().iter().copied().chain(regs).collect();
            let words: Vec<u64> = sources.iter().map(|_| g.random()).collect();
            let packed = prog.eval(&mut Words, 0, sources.iter().copied().zip(words.iter().copied()));
            for lane in 0..64 {
                let bits = words.iter().map(|w| w >> lane & 1 == 1);
                let single = prog.eval(&mut Bools, false, sources.iter().copied().zip(bits));
                for (net, (&w, &b)) in packed.iter().zip(&single).enumerate() {
                    assert_eq!(w >> lane & 1 == 1, b, "net {net}, lane {lane}");
                }
            }
        });
    }
}
