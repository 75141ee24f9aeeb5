//! Cross-thread-count determinism: the §7 contract extended to the
//! parallel execution subsystem. Every parallelised stage — trace
//! campaigns, DPA, CPA, and parasitic extraction — must produce
//! byte-identical `f64` results whether it runs serially or on any
//! number of worker threads.
//!
//! `secflow::exec::with_threads` pins the thread count thread-locally,
//! so these tests are race-free even when the test harness itself runs
//! them concurrently.

use secflow::cells::Library;
use secflow::crypto::dpa_module::des_dpa_design;
use secflow::dpa::attack::{dpa_attack, mtd_scan};
use secflow::dpa::cpa::{cpa_attack, sbox_hamming_model};
use secflow::dpa::harness::{collect_des_traces, DesTarget, TraceSet};
use secflow::exec::with_threads;
use secflow::extract::{extract, Parasitics, Technology};
use secflow::pnr::{place, route, PlaceOptions, RouteOptions};
use secflow::sim::{CycleDriver, SimBackend, SimConfig};
use secflow::synth::{map_design, MapOptions};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Campaign, single-bit DPA, and MTD scan on the mapped (pre-layout)
/// DES module: every trace sample, energy, differential-trace peak,
/// and scan point must be bit-identical at 1, 2, and 8 threads.
#[test]
fn campaign_and_dpa_are_identical_across_thread_counts() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("map");
    let cfg = SimConfig {
        samples_per_cycle: 60,
        noise_sigma: 0.4,
        noise_seed: 5,
        ..Default::default()
    };
    let target = DesTarget {
        netlist: &mapped,
        lib: &lib,
        parasitics: None,
        driver: CycleDriver::SingleEnded,
        backend: SimBackend::Event,
    };

    let campaign = || -> TraceSet { collect_des_traces(&target, &cfg, 46, 24, 9).unwrap() };
    let reference = with_threads(1, campaign);
    let ref_attack = with_threads(1, || {
        dpa_attack(&reference.traces, 64, reference.selector()).unwrap()
    });
    let ref_scan = with_threads(1, || {
        mtd_scan(&reference.traces, 64, 46, 10, reference.selector()).unwrap()
    });

    for t in THREAD_COUNTS {
        let set = with_threads(t, campaign);
        assert_eq!(set.ciphertexts, reference.ciphertexts, "{t} threads");
        assert_eq!(
            bits(&set.energies),
            bits(&reference.energies),
            "{t} threads"
        );
        for (a, b) in set.traces.iter().zip(&reference.traces) {
            assert_eq!(bits(a), bits(b), "{t} threads");
        }

        let attack = with_threads(t, || dpa_attack(&set.traces, 64, set.selector()).unwrap());
        assert_eq!(attack.best_key, ref_attack.best_key, "{t} threads");
        for (a, b) in attack.guesses.iter().zip(&ref_attack.guesses) {
            assert_eq!(a.peak.to_bits(), b.peak.to_bits(), "{t} threads");
            assert_eq!(a.p2p.to_bits(), b.p2p.to_bits(), "{t} threads");
        }

        let scan = with_threads(t, || mtd_scan(&set.traces, 64, 46, 10, set.selector()).unwrap());
        assert_eq!(scan.mtd, ref_scan.mtd, "{t} threads");
        for (a, b) in scan.points.iter().zip(&ref_scan.points) {
            assert_eq!(a.traces, b.traces, "{t} threads");
            assert_eq!(a.disclosed, b.disclosed, "{t} threads");
            assert_eq!(
                a.correct_peak.to_bits(),
                b.correct_peak.to_bits(),
                "{t} threads"
            );
            assert_eq!(
                a.best_wrong_peak.to_bits(),
                b.best_wrong_peak.to_bits(),
                "{t} threads"
            );
        }
    }
}

/// Per-net R, ground C, and every coupling entry of the extractor must
/// be bit-identical at any thread count: couplings are accumulated per
/// coordinate in parallel and reduced with a fixed-shape tree sum.
#[test]
fn extraction_is_identical_across_thread_counts() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("map");
    let placed = place(
        &mapped,
        &lib,
        &PlaceOptions {
            anneal_moves_per_gate: 20,
            ..Default::default()
        },
    )
    .expect("place");
    let routed = route(&mapped, &lib, &placed, &RouteOptions::default()).expect("route");
    let tech = Technology::default();

    let reference: Parasitics = with_threads(1, || extract(&routed, &mapped, &tech));
    for t in THREAD_COUNTS {
        let p = with_threads(t, || extract(&routed, &mapped, &tech));
        assert_eq!(p.nets.len(), reference.nets.len());
        for (a, b) in p.nets.iter().zip(&reference.nets) {
            assert_eq!(a.r_ohm.to_bits(), b.r_ohm.to_bits(), "{t} threads");
            assert_eq!(
                a.c_ground_ff.to_bits(),
                b.c_ground_ff.to_bits(),
                "{t} threads"
            );
            assert_eq!(a.couplings.len(), b.couplings.len(), "{t} threads");
            for (&(na, ca), &(nb, cb)) in a.couplings.iter().zip(&b.couplings) {
                assert_eq!(na, nb, "{t} threads");
                assert_eq!(ca.to_bits(), cb.to_bits(), "{t} threads");
            }
        }
    }
}

/// CPA peak correlations on synthetic traces must be bit-identical at
/// any thread count (parallel over the 64 key guesses).
#[test]
fn cpa_is_identical_across_thread_counts() {
    let mut state = 3u64;
    let mut traces = Vec::new();
    let mut crs = Vec::new();
    for _ in 0..150 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let cr = ((state >> 33) & 0x3f) as u8;
        crs.push(cr);
        let hw = f64::from(secflow::crypto::des::sbox(0, cr ^ 21).count_ones());
        let mut t = vec![0.5; 8];
        t[3] += 0.25 * hw;
        t[6] += ((state >> 7) & 31) as f64 * 0.01;
        traces.push(t);
    }

    let reference = with_threads(1, || {
        cpa_attack(&traces, 64, |k, i| sbox_hamming_model(k, 0, crs[i])).unwrap()
    });
    for t in THREAD_COUNTS {
        let r = with_threads(t, || {
            cpa_attack(&traces, 64, |k, i| sbox_hamming_model(k, 0, crs[i])).unwrap()
        });
        assert_eq!(r.best_key, reference.best_key, "{t} threads");
        assert_eq!(
            r.margin.to_bits(),
            reference.margin.to_bits(),
            "{t} threads"
        );
        for (a, b) in r.guesses.iter().zip(&reference.guesses) {
            assert_eq!(a.peak_corr.to_bits(), b.peak_corr.to_bits(), "{t} threads");
        }
    }
}
