//! An independent reference for the event kernel under crosstalk.
//!
//! The one-lane and 64-lane kernels are two instantiations of one
//! event loop, so comparing them cannot catch a fault the loop itself
//! has. This test compares the one-lane kernel against the frozen
//! per-window seed engine ([`secflow_bench::seed_engine`]), a separate
//! implementation with its own heap, cell lookups and crosstalk
//! adjustment, on the extracted secure DES module, whose layout
//! couples thousands of net pairs. Traces and energies must agree bit
//! for bit, for whole windows and for windows that measure only their
//! leak cycle, at 100 and 800 samples per cycle.

use secflow_bench::seed_engine::simulate_wddl_window;
use secflow_cells::Library;
use secflow_core::{run_secure_flow, FlowOptions};
use secflow_crypto::dpa_module::{des_dpa_design, PAPER_KEY};
use secflow_rand::{RngExt, SeedableRng, StdRng};
use secflow_sim::{CompiledSim, EngineScratch, LoadModel, SimConfig};

const WINDOWS: usize = 64;
const CYCLES: usize = 5;
/// The leak cycle of a steady-state campaign window: two history
/// cycles, the leak cycle, two flush cycles.
const LEAK: usize = 2;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn wddl_windows_match_the_seed_engine_under_extracted_crosstalk() {
    let lib = Library::lib180();
    let opts = FlowOptions {
        anneal_moves_per_gate: 40,
        ..Default::default()
    };
    let secure = run_secure_flow(&des_dpa_design(), &lib, &opts).expect("secure flow");
    let sub = &secure.substitution;
    let (nl, dlib, pairs) = (&sub.differential, &sub.diff_lib, &sub.input_pairs[..]);
    let load = LoadModel::try_build(nl, dlib, Some(&secure.parasitics)).unwrap();
    let couplings: usize = load.couplings.iter().map(Vec::len).sum();
    assert!(
        couplings > 1000,
        "only {couplings} couplings: crosstalk is not exercised"
    );

    // Random plaintexts under the paper key, in port order pl[0..4],
    // pr[0..6], k[0..6].
    let mut rng = StdRng::seed_from_u64(18);
    let windows: Vec<Vec<Vec<bool>>> = (0..WINDOWS)
        .map(|_| {
            (0..CYCLES)
                .map(|_| {
                    let (pl, pr) = (rng.random_range(0..16u8), rng.random_range(0..64u8));
                    let mut v: Vec<bool> = (0..4).map(|b| pl >> b & 1 == 1).collect();
                    v.extend((0..6).map(|b| pr >> b & 1 == 1));
                    v.extend((0..6).map(|b| PAPER_KEY >> b & 1 == 1));
                    v
                })
                .collect()
        })
        .collect();

    for spc in [100usize, 800] {
        let cfg = SimConfig {
            samples_per_cycle: spc,
            ..Default::default()
        };
        let comp = CompiledSim::build(nl, dlib, &load, &cfg).unwrap();
        let mut whole = EngineScratch::new();
        let mut leak = EngineScratch::new();
        for (w, win) in windows.iter().enumerate() {
            let at = format!("{spc} spc, window {w}");
            let seed = simulate_wddl_window(nl, dlib, &load, &cfg, pairs, win);
            comp.run_wddl(&mut whole, pairs, win, ..);
            assert_eq!(bits(whole.trace()), bits(&seed.trace), "{at}: whole trace");
            assert_eq!(
                bits(whole.cycle_energy_fj()),
                bits(&seed.cycle_energy_fj),
                "{at}: whole energies"
            );
            comp.run_wddl(&mut leak, pairs, win, LEAK..=LEAK);
            assert_eq!(
                bits(leak.cycle_trace(LEAK)),
                bits(&seed.trace[LEAK * spc..(LEAK + 1) * spc]),
                "{at}: leak-cycle trace"
            );
            assert_eq!(
                leak.cycle_energy_fj()[LEAK].to_bits(),
                seed.cycle_energy_fj[LEAK].to_bits(),
                "{at}: leak-cycle energy"
            );
        }
    }
}
