//! Regenerates the golden simulation-kernel traces under
//! `tests/golden/`.
//!
//! A small measurement campaign (6 encryptions, 50 samples/cycle,
//! noise-free) is collected for both the single-ended mapped DES
//! module and its WDDL differential substitution, and every trace
//! sample and per-encryption energy is dumped as raw `f64::to_bits`
//! hex. `tests/golden_kernel.rs` pins the simulation kernel
//! byte-identical to these values at 1, 2 and 8 threads — so any
//! change to the event engine that perturbs even one bit of one
//! sample fails the gate and must be reviewed via this diff.
//!
//! Run from the repository root: `cargo run --example gen_golden_kernel`

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use secflow::cells::Library;
use secflow::crypto::dpa_module::des_dpa_design;
use secflow::dpa::harness::{collect_des_traces, DesTarget, TraceSet};
use secflow::flow::substitute;
use secflow::sim::{CycleDriver, SimBackend, SimConfig};
use secflow::synth::{map_design, MapOptions};

fn render(set: &TraceSet) -> String {
    let mut out = String::new();
    for (i, (trace, energy)) in set.traces.iter().zip(&set.energies).enumerate() {
        writeln!(out, "energy {i} {:016x}", energy.to_bits()).unwrap();
        write!(out, "trace {i}").unwrap();
        for s in trace {
            write!(out, " {:016x}", s.to_bits()).unwrap();
        }
        out.push('\n');
    }
    out
}

fn main() {
    let design = des_dpa_design();
    let lib = Library::lib180();
    let mapped = map_design(&design, &lib, &MapOptions::default()).expect("mapping");
    let sub = substitute(&mapped, &lib).expect("substitution");
    let cfg = SimConfig {
        samples_per_cycle: 50,
        ..Default::default()
    };

    let se = collect_des_traces(
        &DesTarget {
            netlist: &mapped,
            lib: &lib,
            parasitics: None,
            driver: CycleDriver::SingleEnded,
            backend: SimBackend::Event,
        },
        &cfg,
        46,
        6,
        7,
    )
    .expect("single-ended campaign simulates");
    let wddl = collect_des_traces(
        &DesTarget {
            netlist: &sub.differential,
            lib: &sub.diff_lib,
            parasitics: None,
            driver: CycleDriver::Wddl(&sub.input_pairs),
            backend: SimBackend::Event,
        },
        &cfg,
        46,
        6,
        7,
    )
    .expect("WDDL campaign simulates");

    let dir = Path::new("tests/golden");
    fs::create_dir_all(dir).expect("create tests/golden");
    fs::write(dir.join("kernel_se.hex"), render(&se)).expect("write se");
    fs::write(dir.join("kernel_wddl.hex"), render(&wddl)).expect("write wddl");
    println!(
        "wrote tests/golden/kernel_se.hex and tests/golden/kernel_wddl.hex ({} traces x {} samples each)",
        se.traces.len(),
        se.samples_per_trace,
    );
}
