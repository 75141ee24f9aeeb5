//! The harness simulates each encryption in its own short window. On
//! the mapped netlist without parasitics that is an exact refactoring
//! of one whole-campaign simulation: for the same seed, every trace
//! and energy it produces is byte-identical to slicing one long
//! n-encryption run. With extracted parasitics the two agree only
//! while the crosstalk window is closed, because during the leak cycle
//! a window drives the flush plaintext where a continuous run drives
//! the next one, and the input wires couple to switching nets. The
//! windowed campaign is the specification either way; these tests pin
//! where it coincides with a continuous run.

use std::sync::OnceLock;

use secflow_cells::Library;
use secflow_core::{run_regular_flow, run_secure_flow, FlowOptions};
use secflow_core::{RegularFlowResult, SecureFlowResult};
use secflow_crypto::dpa_module::des_dpa_design;
use secflow_dpa::harness::{collect_des_traces, DesTarget};
use secflow_rand::{RngExt, SeedableRng, StdRng};
use secflow_sim::{simulate_single_ended, simulate_wddl, SimBackend, SimConfig, SimResult};
use secflow_synth::{map_design, MapOptions};

const KEY: u8 = 46;
const SEED: u64 = 9;

/// The original campaign's stimuli: all `n` plaintexts from one
/// sequential stream, then 2 flush cycles.
fn continuous_vectors(n: usize) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let pts: Vec<(u8, u8)> = (0..n)
        .map(|_| (rng.random_range(0..16u8), rng.random_range(0..64u8)))
        .collect();
    let vector = |pl: u8, pr: u8| -> Vec<bool> {
        let mut v = Vec::with_capacity(16);
        for i in 0..4 {
            v.push(pl >> i & 1 == 1);
        }
        for i in 0..6 {
            v.push(pr >> i & 1 == 1);
        }
        for i in 0..6 {
            v.push(KEY >> i & 1 == 1);
        }
        v
    };
    let mut vectors: Vec<Vec<bool>> = pts.iter().map(|&(pl, pr)| vector(pl, pr)).collect();
    vectors.push(vector(0, 0));
    vectors.push(vector(0, 0));
    vectors
}

/// Asserts that every windowed trace and energy equals the matching
/// leak-cycle slice (cycle `i + 1`) of the continuous run.
fn assert_windows_match(target: &DesTarget<'_>, cfg: &SimConfig, n: usize, full: &SimResult) {
    let set = collect_des_traces(target, cfg, KEY, n, SEED).unwrap();
    let spc = cfg.samples_per_cycle;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for i in 0..n {
        let leak = i + 1;
        let slice = &full.trace[leak * spc..(leak + 1) * spc];
        assert_eq!(bits(slice), bits(&set.traces[i]), "trace {i}");
        assert_eq!(
            full.cycle_energy_fj[leak].to_bits(),
            set.energies[i].to_bits(),
            "energy {i}"
        );
    }
}

#[test]
fn window_traces_match_full_campaign() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("map");
    let cfg = SimConfig {
        samples_per_cycle: 40,
        ..Default::default()
    };
    let n = 8;
    let target = DesTarget {
        netlist: &mapped,
        lib: &lib,
        parasitics: None,
        wddl_inputs: None,
        glitch_free: false,
        backend: SimBackend::Event,
    };
    let full = simulate_single_ended(&mapped, &lib, None, &cfg, &continuous_vectors(n)).unwrap();
    assert_windows_match(&target, &cfg, n, &full);
}

fn implementations() -> &'static (Library, RegularFlowResult, SecureFlowResult) {
    static CELL: OnceLock<(Library, RegularFlowResult, SecureFlowResult)> = OnceLock::new();
    CELL.get_or_init(|| {
        let lib = Library::lib180();
        let opts = FlowOptions {
            anneal_moves_per_gate: 40,
            ..Default::default()
        };
        let regular = run_regular_flow(&des_dpa_design(), &lib, &opts).expect("regular flow");
        let secure = run_secure_flow(&des_dpa_design(), &lib, &opts).expect("secure flow");
        (lib, regular, secure)
    })
}

/// Both extracted implementations, through their own drivers
/// (single-ended and WDDL), with the crosstalk window closed.
#[test]
fn extracted_window_traces_match_full_campaign_without_crosstalk() {
    let (lib, regular, secure) = implementations();
    let cfg = SimConfig {
        samples_per_cycle: 100,
        crosstalk_window_ps: 0,
        ..Default::default()
    };
    let n = 16;
    let vectors = continuous_vectors(n);

    let target = DesTarget {
        netlist: &regular.netlist,
        lib,
        parasitics: Some(&regular.parasitics),
        wddl_inputs: None,
        glitch_free: false,
        backend: SimBackend::Event,
    };
    let full = simulate_single_ended(
        &regular.netlist,
        lib,
        Some(&regular.parasitics),
        &cfg,
        &vectors,
    )
    .unwrap();
    assert_windows_match(&target, &cfg, n, &full);

    let sub = &secure.substitution;
    let target = DesTarget {
        netlist: &sub.differential,
        lib: &sub.diff_lib,
        parasitics: Some(&secure.parasitics),
        wddl_inputs: Some(&sub.input_pairs),
        glitch_free: false,
        backend: SimBackend::Event,
    };
    let full = simulate_wddl(
        &sub.differential,
        &sub.diff_lib,
        Some(&secure.parasitics),
        &cfg,
        &sub.input_pairs,
        &vectors,
    )
    .unwrap();
    assert_windows_match(&target, &cfg, n, &full);
}
