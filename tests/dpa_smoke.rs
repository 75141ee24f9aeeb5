//! Integration smoke test of the full DPA pipeline: both
//! implementations simulated, attacked, and compared — a miniature of
//! the paper's §3 evaluation — plus a byte-identity determinism check
//! on the trace statistics.

use std::sync::OnceLock;

use secflow::cells::Library;
use secflow::crypto::dpa_module::{des_dpa_design, PAPER_KEY};
use secflow::dpa::attack::dpa_attack;
use secflow::dpa::harness::{collect_des_traces, DesTarget, TraceSet};
use secflow::dpa::stats::EnergyStats;
use secflow::flow::{
    run_regular_flow, run_secure_flow, FlowOptions, RegularFlowResult, SecureFlowResult,
};
use secflow::sim::{CycleDriver, SimBackend, SimConfig};

const N_TRACES: usize = 250;
const SEED: u64 = 11;

struct Fixture {
    lib: Library,
    regular: RegularFlowResult,
    secure: SecureFlowResult,
}

/// Both flows are expensive; run each once and share across tests.
fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let design = des_dpa_design();
        let lib = Library::lib180();
        let opts = FlowOptions {
            anneal_moves_per_gate: 40,
            ..Default::default()
        };
        let regular = run_regular_flow(&design, &lib, &opts).expect("regular flow");
        let secure = run_secure_flow(&design, &lib, &opts).expect("secure flow");
        Fixture {
            lib,
            regular,
            secure,
        }
    })
}

fn sim_config() -> SimConfig {
    SimConfig {
        samples_per_cycle: 200,
        ..Default::default()
    }
}

fn regular_traces(n: usize, seed: u64) -> TraceSet {
    let f = fixture();
    collect_des_traces(
        &DesTarget {
            netlist: &f.regular.netlist,
            lib: &f.lib,
            parasitics: Some(&f.regular.parasitics),
            driver: CycleDriver::SingleEnded,
            backend: SimBackend::Event,
        },
        &sim_config(),
        PAPER_KEY,
        n,
        seed,
    )
    .expect("campaign simulates")
}

fn secure_traces(n: usize, seed: u64) -> TraceSet {
    let f = fixture();
    collect_des_traces(
        &DesTarget {
            netlist: &f.secure.substitution.differential,
            lib: &f.secure.substitution.diff_lib,
            parasitics: Some(&f.secure.parasitics),
            driver: CycleDriver::Wddl(&f.secure.substitution.input_pairs),
            backend: SimBackend::Event,
        },
        &sim_config(),
        PAPER_KEY,
        n,
        seed,
    )
    .expect("campaign simulates")
}

#[test]
fn energy_signature_and_leak_direction() {
    let reg_set = regular_traces(N_TRACES, SEED);
    let sec_set = secure_traces(N_TRACES, SEED);

    let reg_stats = EnergyStats::try_of(&reg_set.energies, 1).unwrap();
    let sec_stats = EnergyStats::try_of(&sec_set.energies, 1).unwrap();

    let reg_attack = dpa_attack(&reg_set.traces, 64, reg_set.selector()).unwrap();
    let sec_attack = dpa_attack(&sec_set.traces, 64, sec_set.selector()).unwrap();
    let norm_peak = |r: &secflow::dpa::attack::DpaResult| {
        let correct = r.guesses[PAPER_KEY as usize].peak;
        let wrong = r
            .guesses
            .iter()
            .filter(|g| g.key != PAPER_KEY)
            .map(|g| g.peak)
            .fold(0.0f64, f64::max);
        correct / wrong
    };
    let reg_ratio = norm_peak(&reg_attack);
    let sec_ratio = norm_peak(&sec_attack);

    // §3: the secure design burns more total energy...
    assert!(
        sec_stats.mean > 2.0 * reg_stats.mean,
        "secure mean {} vs reference {}",
        sec_stats.mean,
        reg_stats.mean
    );
    // ...but with an order of magnitude less variation.
    assert!(
        sec_stats.nsd < reg_stats.nsd / 5.0,
        "NSD: secure {} vs reference {}",
        sec_stats.nsd,
        reg_stats.nsd
    );
    assert!(
        sec_stats.ned < reg_stats.ned / 5.0,
        "NED: secure {} vs reference {}",
        sec_stats.ned,
        reg_stats.ned
    );

    // The reference design's correct key must stand out more than the
    // secure design's (full disclosure takes ~1000+ traces; this is a
    // direction check at smoke-test size).
    assert!(
        reg_ratio > sec_ratio,
        "leak direction wrong: reference {reg_ratio} vs secure {sec_ratio}"
    );
}

/// Two campaigns with the same seed must produce byte-identical trace
/// statistics — the reproducibility guarantee every MTD figure in the
/// paper reproduction rests on.
#[test]
fn trace_statistics_are_deterministic_for_a_fixed_seed() {
    let n = 40;
    let a = regular_traces(n, SEED);
    let b = regular_traces(n, SEED);
    assert_eq!(a.ciphertexts, b.ciphertexts);
    // f64 bit-exactness, not approximate equality: the simulation and
    // the RNG are both integer-seeded and platform-independent.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.energies), bits(&b.energies));
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(bits(ta), bits(tb));
    }

    let sa = EnergyStats::try_of(&a.energies, 1).unwrap();
    let sb = EnergyStats::try_of(&b.energies, 1).unwrap();
    assert_eq!(sa.mean.to_bits(), sb.mean.to_bits());
    assert_eq!(sa.nsd.to_bits(), sb.nsd.to_bits());
    assert_eq!(sa.ned.to_bits(), sb.ned.to_bits());

    // A different seed must actually change the campaign.
    let c = regular_traces(n, SEED + 1);
    assert_ne!(a.ciphertexts, c.ciphertexts);
}
