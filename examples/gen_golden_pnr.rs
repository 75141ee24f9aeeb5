//! Regenerates the layout goldens in `tests/golden/pnr.txt`.
//!
//! The Fig. 4 DES module runs through the regular and the secure flow
//! at flow seeds 1 and 7, and at seed 1 with four placement restarts.
//! Each line holds a content hash of the `write_def` text of the
//! routed design (`RegularFlowResult::routed`,
//! `SecureFlowResult::fat_routed`) plus the flow's `place.accepted`,
//! `route.iterations` and `route.ripups` counter totals. Two last
//! lines hold the same for the secure flow at seed 1 on synthetic
//! designs of 8 inputs and 8 registers: `synth600`, about 600 AND
//! nodes, large enough that 5-input cuts are matched and the fat die
//! has 20 rows, and `synth2000`, 2 000 AND nodes (1 052 gates), the
//! scale of `secbench`'s `flow_synth` designs, whose routing
//! negotiates for 6 iterations.
//! `tests/pnr_golden.rs` pins them at 1, 2 and 8 threads, so a placer
//! or router change that moves a single cell or wire fails there and
//! must be reviewed via this diff.
//!
//! Run from the repository root:
//! `cargo run --release --example gen_golden_pnr`

use std::fs;
use std::path::Path;

use secflow::cells::Library;
use secflow::crypto::bench_gen::synthetic_design;
use secflow::crypto::dpa_module::des_dpa_design;
use secflow::flow::{run_regular_flow, run_secure_flow, FlowOptions};
use secflow::obs::{self, Counter, Report};
use secflow::pnr::write_def;
use secflow::serve::ContentHash;

/// The `(seed, place_restarts)` cases the goldens cover.
const CASES: [(u64, usize); 3] = [(1, 1), (7, 1), (1, 4)];

/// The synthetic designs' `(name, AND nodes, inputs and registers,
/// seed)`.
const SYNTH: [(&str, usize, usize, u64); 2] = [("synth600", 600, 8, 1), ("synth2000", 2000, 8, 1)];

fn line(flow: &str, seed: u64, restarts: usize, def: &str, report: &Report) -> String {
    format!(
        "{flow} seed={seed} restarts={restarts} def={} place_accepted={} \
         route_iterations={} route_ripups={}",
        ContentHash::of(def.as_bytes()),
        report.counter(Counter::PlaceAccepted),
        report.counter(Counter::RouteIterations),
        report.counter(Counter::RouteRipups),
    )
}

fn main() {
    let design = des_dpa_design();
    let lib = Library::lib180();
    let mut out = String::new();
    for (seed, restarts) in CASES {
        let opts = FlowOptions {
            seed,
            place_restarts: restarts,
            verify: false,
            ..Default::default()
        };
        let (regular, report) = obs::capture(|| run_regular_flow(&design, &lib, &opts));
        let regular = regular.expect("regular flow");
        let def = write_def(&regular.routed, &regular.netlist);
        out.push_str(&line("regular", seed, restarts, &def, &report));
        out.push('\n');
        let (secure, report) = obs::capture(|| run_secure_flow(&design, &lib, &opts));
        let secure = secure.expect("secure flow");
        let def = write_def(&secure.fat_routed, &secure.substitution.fat);
        out.push_str(&line("secure", seed, restarts, &def, &report));
        out.push('\n');
    }
    for (name, ands, width, design_seed) in SYNTH {
        let design = synthetic_design(name, ands, width, design_seed);
        let opts = FlowOptions {
            seed: 1,
            verify: false,
            ..Default::default()
        };
        let (secure, report) = obs::capture(|| run_secure_flow(&design, &lib, &opts));
        let secure = secure.expect("secure flow");
        let def = write_def(&secure.fat_routed, &secure.substitution.fat);
        out.push_str(name);
        out.push(' ');
        out.push_str(&line("secure", 1, 1, &def, &report));
        out.push('\n');
    }
    let path = Path::new("tests/golden/pnr.txt");
    fs::write(path, &out).expect("write tests/golden/pnr.txt");
    print!("{out}");
}
