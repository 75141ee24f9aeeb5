//! Layout goldens for the place-and-route kernels.
//!
//! `tests/golden/pnr.txt` holds, for the Fig. 4 DES module through the
//! regular and the secure flow, a content hash of the `write_def` text
//! of each routed design plus the flow's `place.accepted`,
//! `route.iterations` and `route.ripups` counter totals. Placement and
//! routing must reproduce every line at 1, 2 and 8 threads and with
//! four placement restarts. Its `synth600` line pins the secure flow
//! at seed 1 on a synthetic design of about 600 AND nodes, whose
//! mapping matches 5-input cuts and whose fat die has 20 rows, and its
//! `synth2000` line the same flow on 2 000 AND nodes (1 052 gates),
//! whose routing negotiates for 6 iterations with 516 rip-ups. The
//! differential-pair geometry is the secure flow's security argument,
//! so a change made for speed must not move a single cell or wire. Regenerate with
//! `cargo run --release --example gen_golden_pnr` only when a layout
//! change is intended, and review the diff.

use std::fs;
use std::path::Path;

use secflow::cells::Library;
use secflow::crypto::bench_gen::synthetic_design;
use secflow::crypto::dpa_module::des_dpa_design;
use secflow::exec::with_threads;
use secflow::flow::{run_regular_flow, run_secure_flow, FlowOptions};
use secflow::obs::{self, Counter, Report};
use secflow::pnr::write_def;
use secflow::serve::ContentHash;

fn golden() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pnr.txt");
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines().map(str::to_string).collect()
}

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

/// The golden lines of one `(seed, place_restarts)` case: the regular
/// flow's, then the secure flow's.
fn lines(seed: u64, restarts: usize) -> Vec<String> {
    let design = des_dpa_design();
    let lib = Library::lib180();
    let opts = FlowOptions {
        seed,
        place_restarts: restarts,
        verify: false,
        ..Default::default()
    };
    let (regular, report) = obs::capture(|| run_regular_flow(&design, &lib, &opts));
    let regular = regular.expect("regular flow");
    let reg_line = line(
        "regular",
        seed,
        restarts,
        &write_def(&regular.routed, &regular.netlist),
        &report,
    );
    let (secure, report) = obs::capture(|| run_secure_flow(&design, &lib, &opts));
    let secure = secure.expect("secure flow");
    let sec_line = line(
        "secure",
        seed,
        restarts,
        &write_def(&secure.fat_routed, &secure.substitution.fat),
        &report,
    );
    vec![reg_line, sec_line]
}

/// A synthetic design's golden line: the secure flow at seed 1 on the
/// design of `ands` AND nodes `examples/gen_golden_pnr.rs` builds.
fn synth_line(name: &str, ands: usize) -> String {
    let design = synthetic_design(name, ands, 8, 1);
    let lib = Library::lib180();
    let opts = FlowOptions {
        seed: 1,
        verify: false,
        ..Default::default()
    };
    let (secure, report) = obs::capture(|| run_secure_flow(&design, &lib, &opts));
    let secure = secure.expect("secure flow");
    let def = write_def(&secure.fat_routed, &secure.substitution.fat);
    format!("{name} {}", line("secure", 1, 1, &def, &report))
}

/// The golden line labelled `name`.
fn synth_golden(name: &str) -> String {
    let prefix = format!("{name} ");
    let want: Vec<String> = golden()
        .into_iter()
        .filter(|l| l.starts_with(&prefix))
        .collect();
    assert_eq!(want.len(), 1, "one {name} golden line");
    want[0].clone()
}

/// The DES golden lines of one `(seed, place_restarts)` case.
fn expected(seed: u64, restarts: usize) -> Vec<String> {
    let key = format!(" seed={seed} restarts={restarts} ");
    let found: Vec<String> = golden()
        .into_iter()
        .filter(|l| !l.starts_with("synth") && l.contains(&key))
        .collect();
    assert_eq!(found.len(), 2, "golden lines for{key}");
    found
}

#[test]
fn layouts_match_golden_at_1_2_and_8_threads() {
    for seed in [1, 7] {
        let want = expected(seed, 1);
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || lines(seed, 1));
            assert_eq!(got, want, "seed {seed} at {threads} threads");
        }
    }
}

#[test]
fn synthetic_layout_matches_golden_at_1_2_and_8_threads() {
    let want = synth_golden("synth600");
    for threads in [1, 2, 8] {
        let got = with_threads(threads, || synth_line("synth600", 600));
        assert_eq!(got, want, "at {threads} threads");
    }
}

/// One thread count is enough here: routing is serial, and placement
/// with one restart runs serially.
#[test]
fn synth2000_layout_matches_golden() {
    let got = with_threads(2, || synth_line("synth2000", 2000));
    assert_eq!(got, synth_golden("synth2000"));
}

#[test]
fn restarted_placement_matches_golden() {
    let got = with_threads(2, || lines(1, 4));
    assert_eq!(got, expected(1, 4));
}
