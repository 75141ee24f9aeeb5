//! WDDL-specific verification: the precharge wave and dual-rail
//! complementarity of the differential netlist, on the zero-delay
//! evaluator of `secflow_sim::functional`.

use std::fmt;

use secflow_cells::{Library, TruthTable};
use secflow_netlist::{NetId, Netlist};
use secflow_rand::SplitMix;
use secflow_sim::functional::{registers, Bools, Logic, Program};
use secflow_sim::SimError;

use crate::substitute::Substitution;
use crate::wddl::WDDL_REGISTER;

/// Violations of the WDDL invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RailCheckError {
    /// During precharge (all sources 0) some net stayed high.
    PrechargeLeak {
        /// Name of the offending net.
        net: String,
    },
    /// In the evaluation phase the two rails of a pair were not
    /// complementary.
    NotComplementary {
        /// True-rail net name.
        t: String,
        /// False-rail net name.
        f: String,
    },
    /// A differential output pair disagrees with the original
    /// netlist's output.
    OutputMismatch {
        /// Index of the original primary output.
        index: usize,
    },
    /// A netlist under check cannot be evaluated: it has a
    /// combinational cycle, a gate references a cell missing from the
    /// library under check, or a gate's pin count differs from its
    /// cell's.
    BadNetlist(SimError),
    /// The original and differential netlists disagree on register
    /// count, so no rail correspondence exists.
    RegisterCountMismatch {
        /// Registers in the original netlist.
        original: usize,
        /// WDDL registers in the differential netlist.
        differential: usize,
    },
}

impl fmt::Display for RailCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RailCheckError::PrechargeLeak { net } => {
                write!(f, "net `{net}` stays high during precharge")
            }
            RailCheckError::NotComplementary { t, f: fr } => {
                write!(f, "rails `{t}`/`{fr}` are not complementary")
            }
            RailCheckError::OutputMismatch { index } => {
                write!(f, "differential output {index} disagrees with the original")
            }
            RailCheckError::BadNetlist(e) => e.fmt(f),
            RailCheckError::RegisterCountMismatch {
                original,
                differential,
            } => {
                write!(
                    f,
                    "register count mismatch: {original} original vs {differential} WDDL"
                )
            }
        }
    }
}

impl std::error::Error for RailCheckError {}

impl From<SimError> for RailCheckError {
    fn from(e: SimError) -> Self {
        RailCheckError::BadNetlist(e)
    }
}

/// The precharge phase: tie cells are precharged like every other net.
struct Precharge;

impl Logic for Precharge {
    type Value = bool;
    fn constant(&mut self, v: bool) -> bool {
        v
    }
    fn ite(&mut self, s: bool, hi: bool, lo: bool) -> bool {
        Bools.ite(s, hi, lo)
    }
    fn gate(&mut self, tt: TruthTable, ins: &[bool]) -> bool {
        Bools.gate(tt, ins)
    }
    fn tie(&mut self, _: bool) -> bool {
        false
    }
}

/// Verifies the pre-discharge wave: with every primary-input rail and
/// register output at 0 (and constants treated as precharged), every
/// net of the differential netlist must evaluate to 0 — the WDDL
/// networks are positive-monotone, so the 0-wave traverses the whole
/// combinational logic.
///
/// # Errors
///
/// Returns [`RailCheckError::PrechargeLeak`] naming the first net that
/// stays high.
pub fn verify_precharge_wave(sub: &Substitution) -> Result<(), RailCheckError> {
    let nl = &sub.differential;
    let values = Program::compile(nl, &sub.diff_lib)?.eval(&mut Precharge, false, []);
    match nl.net_ids().find(|id| values[id.index()]) {
        Some(id) => Err(RailCheckError::PrechargeLeak {
            net: nl.net(id).name.clone(),
        }),
        None => Ok(()),
    }
}

/// Verifies dual-rail complementarity and output correctness of the
/// differential netlist against the original single-ended netlist on
/// `rounds` random source assignments (sources: primary inputs and
/// register values).
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify_rail_complementarity(
    original: &Netlist,
    base_lib: &Library,
    sub: &Substitution,
    rounds: usize,
    seed: u64,
) -> Result<(), RailCheckError> {
    let diff = &sub.differential;
    let mut rng = SplitMix(seed);

    // Register correspondences: original DFFs in order vs WDDL
    // registers in order.
    let orig_regs = registers(original);
    // The WDDL registers' true D rail and (true, false) Q rails.
    let diff_regs: Vec<(NetId, (NetId, NetId))> = (diff.gates().iter())
        .filter(|g| g.cell == WDDL_REGISTER)
        .map(|g| (g.inputs[0], (g.outputs[0], g.outputs[1])))
        .collect();
    if orig_regs.len() != diff_regs.len() {
        return Err(RailCheckError::RegisterCountMismatch {
            original: orig_regs.len(),
            differential: diff_regs.len(),
        });
    }
    let orig_prog = Program::compile(original, base_lib)?;
    let diff_prog = Program::compile(diff, &sub.diff_lib)?;
    // Source nets in draw order: the primary inputs, then the registers.
    let orig_sources: Vec<NetId> = (original.inputs().iter().copied())
        .chain(orig_regs.iter().map(|&(_, q)| q))
        .collect();
    let n_out = original.outputs().len();

    for _ in 0..rounds {
        // Random source assignment.
        let vals: Vec<bool> = orig_sources.iter().map(|_| rng.next() & 1 == 1).collect();
        let orig_values = orig_prog.eval(
            &mut Bools,
            false,
            orig_sources.iter().copied().zip(vals.iter().copied()),
        );
        let (pi_vals, reg_vals) = vals.split_at(original.inputs().len());
        let rails = (sub.input_pairs.iter().zip(pi_vals))
            .chain(diff_regs.iter().map(|(_, q)| q).zip(reg_vals))
            .flat_map(|(&(t, f), &v)| [(t, v), (f, !v)]);
        let diff_values = diff_prog.eval(&mut Bools, false, rails);

        // Every rail pair complementary.
        for p in &sub.pairs {
            if diff_values[p.t.index()] == diff_values[p.f.index()] {
                return Err(RailCheckError::NotComplementary {
                    t: diff.net(p.t).name.clone(),
                    f: diff.net(p.f).name.clone(),
                });
            }
        }
        // Output pairs reproduce the original outputs, and register D
        // pairs store the original D value.
        let outputs = (original.outputs().iter().zip(&sub.output_pairs))
            .map(|(&o, &(t, _))| (o, t))
            .enumerate();
        let regs = (orig_regs.iter().zip(&diff_regs))
            .map(|(&(d, _), &(dt, _))| (d, dt))
            .enumerate()
            .map(|(i, pair)| (n_out + i, pair));
        if let Some((index, _)) = outputs
            .chain(regs)
            .find(|&(_, (o, t))| orig_values[o.index()] != diff_values[t.index()])
        {
            return Err(RailCheckError::OutputMismatch { index });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substitute::substitute;
    use secflow_netlist::GateKind;

    fn sample() -> (Netlist, Library) {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let na = nl.add_net("na");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_gate("i0", "INV", GateKind::Comb, vec![a], vec![na]);
        nl.add_gate("g0", "XOR2", GateKind::Comb, vec![na, b], vec![x]);
        nl.add_gate("g1", "AOI21", GateKind::Comb, vec![x, c, q], vec![y]);
        nl.add_gate("r0", "DFF", GateKind::Seq, vec![x], vec![q]);
        nl.mark_output(y);
        (nl, Library::lib180())
    }

    #[test]
    fn precharge_wave_reaches_everything() {
        let (nl, lib) = sample();
        let sub = substitute(&nl, &lib).unwrap();
        verify_precharge_wave(&sub).unwrap();
    }

    #[test]
    fn rails_complementary_and_outputs_match() {
        let (nl, lib) = sample();
        let sub = substitute(&nl, &lib).unwrap();
        verify_rail_complementarity(&nl, &lib, &sub, 64, 7).unwrap();
    }

    #[test]
    fn sabotage_is_detected() {
        let (nl, lib) = sample();
        let mut sub = substitute(&nl, &lib).unwrap();
        // Swap a pair's rails in the pair table: complementarity still
        // holds, but output checks catch a swapped OUTPUT pair.
        let o = sub.output_pairs[0];
        sub.output_pairs[0] = (o.1, o.0);
        assert!(matches!(
            verify_rail_complementarity(&nl, &lib, &sub, 32, 3),
            Err(RailCheckError::OutputMismatch { .. })
        ));
    }
}
