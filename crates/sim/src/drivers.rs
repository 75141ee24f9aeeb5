//! Cycle drivers: single-ended CMOS and two-phase WDDL simulation
//! loops around the event engine.
//!
//! These one-shot entry points compile the netlist
//! ([`crate::CompiledSim::build`]) and run a single window. Campaign
//! code that simulates many windows of the same netlist should compile
//! once and call `CompiledSim::run_*` with a reused
//! [`crate::EngineScratch`] instead — same results, no per-window
//! setup.

use secflow_cells::Library;
use secflow_extract::Parasitics;
use secflow_netlist::{NetId, Netlist};

use crate::compiled::{CompiledSim, EngineScratch};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::load::LoadModel;
use crate::noise::add_gaussian_noise;

/// The output of a power simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Supply-current trace: charge (fC) drawn per sample bin,
    /// `cycles × samples_per_cycle` entries.
    pub trace: Vec<f64>,
    /// Energy drawn from the supply per cycle, in fJ.
    pub cycle_energy_fj: Vec<f64>,
    /// Rising-transition count per cycle (switching activity).
    pub cycle_rises: Vec<u64>,
    /// Primary-output net values sampled at the end of each cycle.
    pub outputs_per_cycle: Vec<Vec<bool>>,
    /// For WDDL runs: per cycle, the number of registers whose input
    /// pair was still `(0, 0)` at the capturing clock edge — the DFA
    /// alarm condition of §4.3.
    pub wddl_alarms: Vec<usize>,
    /// Net transitions `(time_ps, net, new value)` when
    /// [`SimConfig::record_waveform`] is enabled.
    pub waveform: Vec<(u64, NetId, bool)>,
}

impl SimResult {
    /// Mean energy per cycle in fJ.
    pub fn mean_energy_fj(&self) -> f64 {
        if self.cycle_energy_fj.is_empty() {
            return 0.0;
        }
        self.cycle_energy_fj.iter().sum::<f64>() / self.cycle_energy_fj.len() as f64
    }

    /// The samples of one cycle.
    pub fn cycle_trace(&self, cycle: usize, samples_per_cycle: usize) -> &[f64] {
        &self.trace[cycle * samples_per_cycle..(cycle + 1) * samples_per_cycle]
    }
}

/// Applies the post-simulation measurement-noise model, if configured.
fn finish(mut result: SimResult, cfg: &SimConfig) -> SimResult {
    if cfg.noise_sigma > 0.0 {
        add_gaussian_noise(&mut result.trace, cfg.noise_sigma, cfg.noise_seed);
    }
    result
}

/// Simulates a single-ended (regular CMOS) netlist.
///
/// `input_vectors[c][i]` is the value of primary input `i` (in
/// [`Netlist::inputs`] order) during cycle `c`. Registers reset to 0.
///
/// # Errors
///
/// [`SimError::UnknownCell`] if a gate references a cell missing from
/// `lib`; [`SimError::CombinationalCycle`] if the netlist is cyclic.
///
/// # Panics
///
/// Panics if any vector length differs from the input count.
pub fn simulate_single_ended(
    nl: &Netlist,
    lib: &Library,
    parasitics: Option<&Parasitics>,
    cfg: &SimConfig,
    input_vectors: &[Vec<bool>],
) -> Result<SimResult, SimError> {
    let load = LoadModel::try_build(nl, lib, parasitics)?;
    simulate_single_ended_with_load(nl, lib, &load, cfg, input_vectors)
}

/// [`simulate_single_ended`] with a caller-built [`LoadModel`].
///
/// Building the load model walks every gate and net; callers that
/// simulate the same netlist many times (trace campaigns) build it
/// once and reuse it across runs — or better, compile a
/// [`CompiledSim`] once and skip per-window setup entirely.
///
/// # Errors
///
/// See [`simulate_single_ended`].
pub fn simulate_single_ended_with_load(
    nl: &Netlist,
    lib: &Library,
    load: &LoadModel,
    cfg: &SimConfig,
    input_vectors: &[Vec<bool>],
) -> Result<SimResult, SimError> {
    let comp = CompiledSim::build(nl, lib, load, cfg)?;
    let mut scratch = EngineScratch::new();
    comp.run_single_ended(&mut scratch, input_vectors, ..);
    Ok(finish(scratch.take_sim_result(), cfg))
}

/// Simulates a WDDL differential netlist through the two-phase
/// precharge/evaluate protocol.
///
/// `input_pairs[i]` is the `(true-rail, false-rail)` net pair of
/// logical input `i`; `input_vectors[c][i]` its logical value during
/// cycle `c`. In the first (precharge) phase of every cycle all input
/// pairs and register outputs are driven to `(0, 0)`; in the
/// evaluation phase to `(v, ¬v)`.
///
/// # Errors
///
/// See [`simulate_single_ended`].
///
/// # Panics
///
/// Panics if vector lengths are inconsistent.
pub fn simulate_wddl(
    nl: &Netlist,
    lib: &Library,
    parasitics: Option<&Parasitics>,
    cfg: &SimConfig,
    input_pairs: &[(NetId, NetId)],
    input_vectors: &[Vec<bool>],
) -> Result<SimResult, SimError> {
    let load = LoadModel::try_build(nl, lib, parasitics)?;
    simulate_wddl_with_load(nl, lib, &load, cfg, input_pairs, input_vectors)
}

/// [`simulate_wddl`] with a caller-built [`LoadModel`]; see
/// [`simulate_single_ended_with_load`].
///
/// # Errors
///
/// See [`simulate_single_ended`].
pub fn simulate_wddl_with_load(
    nl: &Netlist,
    lib: &Library,
    load: &LoadModel,
    cfg: &SimConfig,
    input_pairs: &[(NetId, NetId)],
    input_vectors: &[Vec<bool>],
) -> Result<SimResult, SimError> {
    let comp = CompiledSim::build(nl, lib, load, cfg)?;
    let mut scratch = EngineScratch::new();
    comp.run_wddl(&mut scratch, input_pairs, input_vectors, ..);
    Ok(finish(scratch.take_sim_result(), cfg))
}

/// Simulates a single-ended netlist with an idealized **glitch-free**
/// power model: per cycle, every net settles directly to its final
/// value and draws `C·Vdd` once if it rose — the power a designer
/// might naively predict from switching activity alone. Comparing DPA
/// outcomes against [`simulate_single_ended`] isolates how much
/// leakage the glitches contribute (ablation of the inertial-delay
/// model).
///
/// The whole cycle's charge is deposited uniformly over the first
/// quarter of the cycle (temporal structure is not modelled).
///
/// # Errors
///
/// See [`simulate_single_ended`].
///
/// # Panics
///
/// Panics if vector lengths are inconsistent.
pub fn simulate_single_ended_glitch_free(
    nl: &Netlist,
    lib: &Library,
    parasitics: Option<&Parasitics>,
    cfg: &SimConfig,
    input_vectors: &[Vec<bool>],
) -> Result<SimResult, SimError> {
    let load = LoadModel::try_build(nl, lib, parasitics)?;
    simulate_single_ended_glitch_free_with_load(nl, lib, &load, cfg, input_vectors)
}

/// [`simulate_single_ended_glitch_free`] with a caller-built
/// [`LoadModel`]; see [`simulate_single_ended_with_load`].
///
/// # Errors
///
/// See [`simulate_single_ended`].
pub fn simulate_single_ended_glitch_free_with_load(
    nl: &Netlist,
    lib: &Library,
    load: &LoadModel,
    cfg: &SimConfig,
    input_vectors: &[Vec<bool>],
) -> Result<SimResult, SimError> {
    let comp = CompiledSim::build(nl, lib, load, cfg)?;
    let mut scratch = EngineScratch::new();
    comp.run_single_ended_glitch_free(&mut scratch, input_vectors, ..);
    Ok(finish(scratch.take_sim_result(), cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;

    /// y = a AND b, q = DFF(y).
    fn se_netlist() -> Netlist {
        let mut nl = Netlist::new("se");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![y]);
        nl.add_gate("r0", "DFF", GateKind::Seq, vec![y], vec![q]);
        nl.mark_output(q);
        nl
    }

    #[test]
    fn single_ended_functional_behaviour() {
        let nl = se_netlist();
        let lib = Library::lib180();
        let cfg = SimConfig::default();
        let vectors = vec![
            vec![true, true],
            vec![false, true],
            vec![true, true],
            vec![true, true],
        ];
        let r = simulate_single_ended(&nl, &lib, None, &cfg, &vectors).unwrap();
        // q lags y by one cycle: cycles observe q = prev cycle's a&b.
        let qs: Vec<bool> = r.outputs_per_cycle.iter().map(|o| o[0]).collect();
        assert_eq!(qs, vec![false, true, false, true]);
        assert_eq!(r.trace.len(), 4 * cfg.samples_per_cycle);
    }

    #[test]
    fn single_ended_power_depends_on_data() {
        let nl = se_netlist();
        let lib = Library::lib180();
        let cfg = SimConfig::default();
        // Cycle 1 with activity, cycle 2 without.
        let vectors = vec![vec![true, true], vec![true, true], vec![true, true]];
        let r = simulate_single_ended(&nl, &lib, None, &cfg, &vectors).unwrap();
        // After the first cycle everything is stable: no switching.
        assert!(r.cycle_energy_fj[0] > 0.0);
        assert_eq!(r.cycle_energy_fj[2], 0.0);
    }

    #[test]
    fn unknown_cell_surfaces_as_error() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g0", "NO_SUCH_CELL", GateKind::Comb, vec![a], vec![y]);
        nl.mark_output(y);
        let lib = Library::lib180();
        let cfg = SimConfig::default();
        let err = simulate_single_ended(&nl, &lib, None, &cfg, &[vec![false]]).unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownCell {
                gate: "g0".into(),
                cell: "NO_SUCH_CELL".into()
            }
        );
    }

    /// A tiny hand-built WDDL netlist: differential AND of one input
    /// pair with a register pair.
    /// (yt, yf) = WDDL-AND((at, af), (bt, bf)) = (at·bt, af+bf).
    fn wddl_netlist() -> (Netlist, Vec<(NetId, NetId)>) {
        let mut nl = Netlist::new("wddl");
        let at = nl.add_input("a_t");
        let af = nl.add_input("a_f");
        let bt = nl.add_input("b_t");
        let bf = nl.add_input("b_f");
        let yt = nl.add_net("y_t");
        let yf = nl.add_net("y_f");
        let qt = nl.add_net("q_t");
        let qf = nl.add_net("q_f");
        nl.add_gate("g_t", "AND2", GateKind::Comb, vec![at, bt], vec![yt]);
        nl.add_gate("g_f", "OR2", GateKind::Comb, vec![af, bf], vec![yf]);
        nl.add_gate("r0", "WDDLDFF", GateKind::Seq, vec![yt, yf], vec![qt, qf]);
        nl.mark_output(qt);
        nl.mark_output(qf);
        (nl, vec![(at, af), (bt, bf)])
    }

    /// Library with a WDDLDFF added.
    fn wddl_lib() -> Library {
        use secflow_cells::{CellFunction, LefMacro, LibCell};
        let mut cells: Vec<LibCell> = Library::lib180().cells().to_vec();
        cells.push(LibCell::new(
            "WDDLDFF",
            CellFunction::WddlDff,
            vec![2.8, 2.8],
            4.0,
            120.0,
            LefMacro::evenly_spread(24, 2, 2),
        ));
        Library::new(cells)
    }

    #[test]
    fn wddl_register_captures_differential_value() {
        let (nl, pairs) = wddl_netlist();
        let lib = wddl_lib();
        let cfg = SimConfig::default();
        let vectors = vec![vec![true, true], vec![false, true], vec![true, false]];
        let r = simulate_wddl(&nl, &lib, None, &cfg, &pairs, &vectors).unwrap();
        // Outputs (qt, qf) show previous cycle's AND value.
        let got: Vec<(bool, bool)> = r.outputs_per_cycle.iter().map(|o| (o[0], o[1])).collect();
        // At the end of cycle c the register outputs hold the value
        // captured at the end of cycle c-1 (evaluation phase drove
        // them).
        assert_eq!(got[1], (true, false)); // a&b of cycle 0 = 1
        assert_eq!(got[2], (false, true)); // a&b of cycle 1 = 0
                                           // Every cycle completes: no alarms.
        assert_eq!(r.wddl_alarms, vec![0, 0, 0]);
    }

    #[test]
    fn wddl_switching_count_is_data_independent() {
        let (nl, pairs) = wddl_netlist();
        let lib = wddl_lib();
        let cfg = SimConfig::default();
        // Two very different input sequences.
        let run = |vectors: Vec<Vec<bool>>| {
            simulate_wddl(&nl, &lib, None, &cfg, &pairs, &vectors).unwrap()
        };
        let r1 = run(vec![vec![true, true]; 4]);
        let r2 = run(vec![
            vec![false, false],
            vec![true, false],
            vec![false, true],
            vec![false, false],
        ]);
        // After the pipeline fills (cycle >= 1), each cycle has exactly
        // one rising event per dual-rail signal: identical counts.
        assert_eq!(r1.cycle_rises[2], r2.cycle_rises[2]);
        assert_eq!(r1.cycle_rises[3], r2.cycle_rises[3]);
    }

    #[test]
    fn short_evaluation_phase_raises_dfa_alarm() {
        let (nl, pairs) = wddl_netlist();
        let lib = wddl_lib();
        // Evaluation phase squeezed to 0.1% of the cycle (8 ps —
        // shorter than even the input driver delay): the wave cannot
        // reach the register.
        let cfg = SimConfig {
            precharge_fraction: 0.999,
            ..Default::default()
        };
        let vectors = vec![vec![true, true]; 3];
        let r = simulate_wddl(&nl, &lib, None, &cfg, &pairs, &vectors).unwrap();
        assert!(r.wddl_alarms.iter().any(|&a| a > 0), "no alarm raised");
    }

    #[test]
    fn compiled_campaign_matches_one_shot_driver() {
        // The compile-once path must be byte-identical to the legacy
        // per-window entry point, including across scratch reuse.
        let (nl, pairs) = wddl_netlist();
        let lib = wddl_lib();
        let cfg = SimConfig {
            samples_per_cycle: 40,
            ..Default::default()
        };
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let comp = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap();
        let mut scratch = EngineScratch::new();
        let windows = [
            vec![vec![true, true], vec![false, true]],
            vec![vec![false, false], vec![true, false], vec![true, true]],
        ];
        for vectors in &windows {
            let legacy = simulate_wddl(&nl, &lib, None, &cfg, &pairs, vectors).unwrap();
            comp.run_wddl(&mut scratch, &pairs, vectors, ..);
            let legacy_bits: Vec<u64> = legacy.trace.iter().map(|x| x.to_bits()).collect();
            let compiled_bits: Vec<u64> = scratch.trace().iter().map(|x| x.to_bits()).collect();
            assert_eq!(legacy_bits, compiled_bits);
            assert_eq!(legacy.wddl_alarms, scratch.wddl_alarms());
        }
    }
}

#[cfg(test)]
mod glitch_free_tests {
    use super::*;
    use secflow_netlist::GateKind;

    #[test]
    fn glitch_free_matches_functional_outputs() {
        let mut nl = Netlist::new("gf");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_gate("g0", "XOR2", GateKind::Comb, vec![a, b], vec![y]);
        nl.add_gate("r0", "DFF", GateKind::Seq, vec![y], vec![q]);
        nl.mark_output(q);
        let lib = Library::lib180();
        let cfg = SimConfig {
            samples_per_cycle: 40,
            ..Default::default()
        };
        let vectors = vec![
            vec![true, false],
            vec![true, true],
            vec![false, true],
            vec![false, true],
            vec![false, true],
        ];
        let r = simulate_single_ended_glitch_free(&nl, &lib, None, &cfg, &vectors).unwrap();
        let qs: Vec<bool> = r.outputs_per_cycle.iter().map(|o| o[0]).collect();
        assert_eq!(qs, vec![false, true, false, true, true]);
        // Fully settled last cycle (inputs and state unchanged): zero
        // energy.
        assert_eq!(*r.cycle_energy_fj.last().unwrap(), 0.0);
    }

    #[test]
    fn glitch_free_energy_is_a_lower_bound() {
        // Event-driven simulation of a glitchy cone must draw at least
        // as much energy as the glitch-free model.
        let mut nl = Netlist::new("gl");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate("g0", "XOR2", GateKind::Comb, vec![a, b], vec![x]);
        nl.add_gate("g1", "AND2", GateKind::Comb, vec![x, c], vec![y]);
        nl.mark_output(y);
        let lib = Library::lib180();
        let cfg = SimConfig {
            samples_per_cycle: 40,
            ..Default::default()
        };
        let vectors: Vec<Vec<bool>> = (0..16u32)
            .map(|i| vec![i & 1 == 1, i >> 1 & 1 == 1, i >> 2 & 1 == 1])
            .collect();
        let ev = simulate_single_ended(&nl, &lib, None, &cfg, &vectors).unwrap();
        let gf = simulate_single_ended_glitch_free(&nl, &lib, None, &cfg, &vectors).unwrap();
        let ev_total: f64 = ev.cycle_energy_fj.iter().sum();
        let gf_total: f64 = gf.cycle_energy_fj.iter().sum();
        assert!(ev_total >= gf_total * 0.999, "{ev_total} < {gf_total}");
    }
}

#[cfg(test)]
mod crosstalk_tests {
    use super::*;
    use secflow_extract::{NetParasitics, Parasitics};
    use secflow_netlist::GateKind;

    /// `x = BUF(a)` and `y = INV(b)` with capacitively coupled
    /// outputs. The INV is faster than the BUF, so y's transition
    /// always commits before x's — deterministic crosstalk windows.
    fn coupled_fixture(cc: f64) -> (Netlist, Parasitics) {
        let mut nl = Netlist::new("xt");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate("g0", "BUF", GateKind::Comb, vec![a], vec![x]);
        nl.add_gate("g1", "INV", GateKind::Comb, vec![b], vec![y]);
        nl.mark_output(x);
        nl.mark_output(y);
        let mut nets = vec![NetParasitics::default(); nl.net_count()];
        nets[x.index()].c_ground_ff = 10.0;
        nets[y.index()].c_ground_ff = 10.0;
        if cc > 0.0 {
            nets[x.index()].couplings.push((y, cc));
            nets[y.index()].couplings.push((x, cc));
        }
        (nl, Parasitics { nets })
    }

    fn cycle1_energy(nl: &Netlist, par: &Parasitics, vectors: Vec<Vec<bool>>) -> f64 {
        let lib = Library::lib180();
        let cfg = SimConfig {
            samples_per_cycle: 40,
            ..Default::default()
        };
        simulate_single_ended(nl, &lib, Some(par), &cfg, &vectors)
            .unwrap()
            .cycle_energy_fj[1]
    }

    #[test]
    fn miller_doubling_on_opposite_transitions() {
        let (nl, par) = coupled_fixture(4.0);
        let vdd2 = 1.8f64 * 1.8;
        // Quiet neighbour: only x rises (b stays 0, y stays 1).
        let quiet = cycle1_energy(&nl, &par, vec![vec![false, false], vec![true, false]]);
        // Opposite: x rises while y falls just before it (b: 0 -> 1).
        let miller = cycle1_energy(&nl, &par, vec![vec![false, false], vec![true, true]]);
        // The Miller effect adds exactly cc * Vdd^2 on x's rise.
        let delta = miller - quiet;
        assert!(
            (delta - 4.0 * vdd2).abs() < 0.5,
            "Miller delta {delta}, expected {}",
            4.0 * vdd2
        );
    }

    #[test]
    fn same_direction_switching_saves_coupling_charge() {
        let (nl, par) = coupled_fixture(4.0);
        let vdd2 = 1.8f64 * 1.8;
        // Both rise: x rises (a: 0 -> 1), y rises (b: 1 -> 0 through
        // the INV, committing first).
        let same = cycle1_energy(&nl, &par, vec![vec![false, true], vec![true, false]]);
        // Independent single rises, neighbour quiet each time.
        let x_only = cycle1_energy(&nl, &par, vec![vec![false, false], vec![true, false]]);
        let y_only = cycle1_energy(&nl, &par, vec![vec![false, true], vec![false, false]]);
        // Moving together saves cc * Vdd^2 relative to the sum.
        let saving = x_only + y_only - same;
        assert!(
            (saving - 4.0 * vdd2).abs() < 0.5,
            "saving {saving}, expected {}",
            4.0 * vdd2
        );
    }
}
