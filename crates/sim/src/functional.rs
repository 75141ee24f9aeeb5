//! Zero-delay functional simulation of mapped netlists, the reference
//! that `tests/sim_cross_check.rs` checks the event kernel against.
//! The logic equivalence checker's random-vector mode does not use it:
//! it compiles its own evaluator (`secflow_lec`'s `CompiledComb`).

use secflow_cells::{CellFunction, Library};
use secflow_netlist::{GateKind, NetId, Netlist};

use crate::SimError;

/// Evaluates the combinational portion of `nl` under the given
/// net-value assignments for primary inputs and sequential outputs,
/// returning the value of every net.
///
/// `forced` assigns values to source nets (primary inputs and register
/// outputs); unassigned sources default to 0.
///
/// # Errors
///
/// Returns [`SimError`] if the netlist is cyclic or references unknown
/// cells.
pub fn eval_comb(
    nl: &Netlist,
    lib: &Library,
    forced: &[(NetId, bool)],
) -> Result<Vec<bool>, SimError> {
    let mut values = vec![false; nl.net_count()];
    for &(n, v) in forced {
        values[n.index()] = v;
    }
    let order = secflow_netlist::topo_order(nl).ok_or_else(|| SimError::CombinationalCycle {
        netlist: nl.name.clone(),
    })?;
    for gid in order {
        let g = nl.gate(gid);
        if g.kind == GateKind::Seq {
            continue;
        }
        let cell = lib.by_name(&g.cell).ok_or_else(|| SimError::UnknownCell {
            gate: g.name.clone(),
            cell: g.cell.clone(),
        })?;
        match cell.function() {
            CellFunction::Comb(tt) => {
                let mut idx = 0u32;
                for (i, &inp) in g.inputs.iter().enumerate() {
                    if values[inp.index()] {
                        idx |= 1 << i;
                    }
                }
                values[g.outputs[0].index()] = tt.eval(idx);
            }
            CellFunction::Tie(v) => values[g.outputs[0].index()] = *v,
            CellFunction::Dff | CellFunction::WddlDff => {}
        }
    }
    Ok(values)
}

/// Cycle-accurate zero-delay simulation of a single-ended sequential
/// netlist. Registers reset to 0. Returns the primary-output values at
/// the end of each cycle.
///
/// # Errors
///
/// Returns [`SimError`] if the netlist is cyclic or references unknown
/// cells.
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
    let regs: Vec<(NetId, NetId)> = nl
        .gates()
        .iter()
        .filter(|g| g.kind == GateKind::Seq)
        .map(|g| (g.inputs[0], g.outputs[0]))
        .collect();
    let mut state = vec![false; regs.len()];
    let mut outs = Vec::with_capacity(input_vectors.len());
    for vector in input_vectors {
        assert_eq!(vector.len(), nl.inputs().len());
        let mut forced: Vec<(NetId, bool)> = nl
            .inputs()
            .iter()
            .copied()
            .zip(vector.iter().copied())
            .collect();
        for ((_, q), &v) in regs.iter().zip(&state) {
            forced.push((*q, v));
        }
        let values = eval_comb(nl, lib, &forced)?;
        for (i, (d, _)) in regs.iter().enumerate() {
            state[i] = values[d.index()];
        }
        outs.push(nl.outputs().iter().map(|&o| values[o.index()]).collect());
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_comb_computes_logic() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_gate("g", "NAND2", GateKind::Comb, vec![a, b], vec![y]);
        let v = eval_comb(&nl, &lib, &[(a, true), (b, true)]).unwrap();
        assert!(!v[y.index()]);
        let v = eval_comb(&nl, &lib, &[(a, true), (b, false)]).unwrap();
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
        let v = eval_comb(&nl, &lib, &[]).unwrap();
        assert!(v[hi.index()]);
    }

    #[test]
    fn unknown_cell_is_typed_error() {
        let lib = Library::lib180();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g", "BOGUS", GateKind::Comb, vec![a], vec![y]);
        let err = eval_comb(&nl, &lib, &[]).unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownCell {
                gate: "g".into(),
                cell: "BOGUS".into()
            }
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
        let err = eval_comb(&nl, &lib, &[]).unwrap_err();
        assert_eq!(
            err,
            SimError::CombinationalCycle {
                netlist: "loopy".into()
            }
        );
    }
}
