//! Golden-trace regression gate for the compiled simulation kernel.
//!
//! `tests/golden/kernel_{se,wddl}.hex` hold every trace sample and
//! per-encryption energy of a small noise-free DES campaign, captured
//! as raw `f64::to_bits` hex from the original per-window engine. The
//! compiled kernel must reproduce them bit-for-bit at 1, 2 and 8
//! threads — any engine change that perturbs a single mantissa bit of
//! a single sample fails here and must be reviewed by regenerating the
//! goldens (`cargo run --example gen_golden_kernel`).

use std::fs;
use std::path::Path;

use secflow::cells::Library;
use secflow::crypto::dpa_module::des_dpa_design;
use secflow::dpa::harness::{collect_des_traces, DesTarget};
use secflow::exec::with_threads;
use secflow::flow::substitute;
use secflow::sim::{CycleDriver, SimBackend, SimConfig};
use secflow::synth::{map_design, MapOptions};

/// Parsed golden file: per-encryption `(energy_bits, trace_bits)`.
fn load_golden(name: &str) -> Vec<(u64, Vec<u64>)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut energies = Vec::new();
    let mut traces = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let kind = parts.next().expect("line kind");
        let idx: usize = parts.next().expect("index").parse().expect("index");
        let words: Vec<u64> = parts
            .map(|w| u64::from_str_radix(w, 16).expect("hex word"))
            .collect();
        match kind {
            "energy" => {
                assert_eq!(idx, energies.len(), "energy lines out of order");
                energies.push(words[0]);
            }
            "trace" => {
                assert_eq!(idx, traces.len(), "trace lines out of order");
                traces.push(words);
            }
            other => panic!("unknown golden line kind `{other}`"),
        }
    }
    assert_eq!(energies.len(), traces.len(), "malformed golden file");
    energies.into_iter().zip(traces).collect()
}

fn check(golden: &str, target: &DesTarget<'_>) {
    let cfg = SimConfig {
        samples_per_cycle: 50,
        ..Default::default()
    };
    let expect = load_golden(golden);
    for threads in [1usize, 2, 8] {
        let set = with_threads(threads, || collect_des_traces(target, &cfg, 46, 6, 7).unwrap());
        assert_eq!(set.traces.len(), expect.len(), "{golden}: trace count");
        for (i, (energy_bits, trace_bits)) in expect.iter().enumerate() {
            assert_eq!(
                set.energies[i].to_bits(),
                *energy_bits,
                "{golden}: energy {i} at {threads} threads"
            );
            let got: Vec<u64> = set.traces[i].iter().map(|s| s.to_bits()).collect();
            assert_eq!(&got, trace_bits, "{golden}: trace {i} at {threads} threads");
        }
    }
}

#[test]
fn single_ended_campaign_matches_golden_at_all_thread_counts() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("mapping");
    check(
        "kernel_se.hex",
        &DesTarget {
            netlist: &mapped,
            lib: &lib,
            parasitics: None,
            driver: CycleDriver::SingleEnded,
            backend: SimBackend::Event,
        },
    );
}

#[test]
fn wddl_campaign_matches_golden_at_all_thread_counts() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("mapping");
    let sub = substitute(&mapped, &lib).expect("substitution");
    check(
        "kernel_wddl.hex",
        &DesTarget {
            netlist: &sub.differential,
            lib: &sub.diff_lib,
            parasitics: None,
            driver: CycleDriver::Wddl(&sub.input_pairs),
            backend: SimBackend::Event,
        },
    );
}
