//! §4.3 — Differential Fault Analysis: clock-glitch injection against
//! a WDDL design, and the redundant-encoding alarm.
//!
//! A glitch attack raises the clock frequency so that some
//! combinational path misses the capturing edge. In single-ended
//! logic this silently captures a wrong bit; in WDDL the incomplete
//! path leaves the register's input pair at `(0, 0)` — an invalid
//! code word — which the circuit detects and turns into an alarm.

use secflow_cells::Library;
use secflow_extract::Parasitics;
use secflow_netlist::{NetId, Netlist};
use secflow_sim::{simulate_wddl, CompiledSim, EngineScratch, LoadModel, SimConfig, SimError, SimResult};

/// One point of a clock-glitch sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GlitchPoint {
    /// Fraction of the cycle spent in precharge (0.5 = nominal; larger
    /// values squeeze the evaluation phase, emulating a faster clock).
    pub precharge_fraction: f64,
    /// Total register captures that saw `(0, 0)` — raised alarms.
    pub alarms: usize,
    /// Encryption outputs that differ from the nominal run — faults an
    /// attacker could exploit.
    pub corrupted_outputs: usize,
    /// True if every corrupted output was accompanied by at least one
    /// alarm in its cycle (the countermeasure catches the fault).
    pub faults_detected: bool,
}

/// Sweeps the evaluation-phase duration and reports, for each point,
/// whether glitz-induced faults are caught by the `(0, 0)` alarm.
///
/// `vectors` are logical input values per cycle (see
/// [`simulate_wddl`]).
///
/// # Errors
///
/// Returns [`SimError`] if the netlist is cyclic or references cells
/// missing from `lib`.
pub fn glitch_sweep(
    nl: &Netlist,
    lib: &Library,
    parasitics: Option<&Parasitics>,
    base_cfg: &SimConfig,
    input_pairs: &[(NetId, NetId)],
    vectors: &[Vec<bool>],
    fractions: &[f64],
) -> Result<Vec<GlitchPoint>, SimError> {
    let nominal = simulate_wddl(nl, lib, parasitics, base_cfg, input_pairs, vectors)?;
    // The load model is clock-independent; share it across the sweep
    // and recompile only the (cheap) per-fraction timing.
    let load = LoadModel::try_build(nl, lib, parasitics)?;
    let mut scratch = EngineScratch::new();
    let mut points = Vec::with_capacity(fractions.len());
    for &frac in fractions {
        let cfg = SimConfig {
            precharge_fraction: frac,
            ..base_cfg.clone()
        };
        let comp = CompiledSim::build(nl, lib, &load, &cfg)?;
        comp.run_wddl(&mut scratch, input_pairs, vectors, ..);
        points.push(summarize(&nominal, &scratch.take_sim_result(), frac));
    }
    Ok(points)
}

fn summarize(nominal: &SimResult, run: &SimResult, frac: f64) -> GlitchPoint {
    let mut corrupted = 0usize;
    let mut all_detected = true;
    for (c, (a, b)) in nominal
        .outputs_per_cycle
        .iter()
        .zip(&run.outputs_per_cycle)
        .enumerate()
    {
        if a != b {
            corrupted += 1;
            // The wrong value was captured in some earlier cycle; the
            // alarm for capture at cycle c-1 covers outputs at c. Check
            // the current and previous cycles.
            let alarmed = run.wddl_alarms[c] > 0 || (c > 0 && run.wddl_alarms[c - 1] > 0);
            if !alarmed {
                all_detected = false;
            }
        }
    }
    GlitchPoint {
        precharge_fraction: frac,
        alarms: run.wddl_alarms.iter().sum(),
        corrupted_outputs: corrupted,
        faults_detected: all_detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_cells::{CellFunction, LefMacro, LibCell};
    use secflow_netlist::GateKind;

    /// Differential AND chain with a register (same fixture style as
    /// the simulator's tests).
    fn fixture() -> (Netlist, Library, Vec<(NetId, NetId)>) {
        let mut nl = Netlist::new("wddl");
        let at = nl.add_input("a_t");
        let af = nl.add_input("a_f");
        let bt = nl.add_input("b_t");
        let bf = nl.add_input("b_f");
        let mut t = at;
        let mut f = af;
        // A chain of 6 differential AND stages to get a long path.
        for i in 0..6 {
            let nt = nl.add_net(format!("n{i}_t"));
            let nf = nl.add_net(format!("n{i}_f"));
            nl.add_gate(
                format!("g{i}_t"),
                "AND2",
                GateKind::Comb,
                vec![t, bt],
                vec![nt],
            );
            nl.add_gate(
                format!("g{i}_f"),
                "OR2",
                GateKind::Comb,
                vec![f, bf],
                vec![nf],
            );
            t = nt;
            f = nf;
        }
        let qt = nl.add_net("q_t");
        let qf = nl.add_net("q_f");
        nl.add_gate("r0", "WDDLDFF", GateKind::Seq, vec![t, f], vec![qt, qf]);
        nl.mark_output(qt);
        nl.mark_output(qf);

        let mut cells = Library::lib180().cells().to_vec();
        cells.push(LibCell::new(
            "WDDLDFF",
            CellFunction::WddlDff,
            vec![2.8, 2.8],
            4.0,
            120.0,
            LefMacro::evenly_spread(24, 2, 2),
        ));
        (nl, Library::new(cells), vec![(at, af), (bt, bf)])
    }

    #[test]
    fn nominal_clock_raises_no_alarm() {
        let (nl, lib, pairs) = fixture();
        let cfg = SimConfig {
            samples_per_cycle: 80,
            ..Default::default()
        };
        let vectors = vec![vec![true, true]; 4];
        let pts = glitch_sweep(&nl, &lib, None, &cfg, &pairs, &vectors, &[0.5]).unwrap();
        assert_eq!(pts[0].alarms, 0);
        assert_eq!(pts[0].corrupted_outputs, 0);
        assert!(pts[0].faults_detected);
    }

    #[test]
    fn aggressive_glitch_is_detected() {
        let (nl, lib, pairs) = fixture();
        let cfg = SimConfig {
            samples_per_cycle: 80,
            ..Default::default()
        };
        let vectors = vec![vec![true, true]; 4];
        let pts = glitch_sweep(&nl, &lib, None, &cfg, &pairs, &vectors, &[0.5, 0.9, 0.99]).unwrap();
        // Squeezing evaluation to 1% must starve the 6-gate chain.
        let worst = &pts[2];
        assert!(worst.alarms > 0, "no alarm at 1% evaluation");
        assert!(worst.faults_detected, "fault escaped detection");
    }
}
