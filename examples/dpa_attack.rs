//! Mount the paper's Differential Power Analysis against both
//! implementations of the Fig. 4 DES module.
//!
//! This is a condensed version of the full Fig. 6 experiment
//! (`cargo run --release -p secflow-bench --bin exp_fig6_mtd` runs the
//! 2000-trace campaign).
//!
//! Run with: `cargo run --release --example dpa_attack [n_traces]`

use secflow::cells::Library;
use secflow::crypto::dpa_module::{des_dpa_design, PAPER_KEY};
use secflow::dpa::attack::mtd_scan;
use secflow::dpa::harness::{collect_des_traces, DesTarget};
use secflow::flow::{run_regular_flow, run_secure_flow, FlowOptions};
use secflow::sim::{CycleDriver, SimBackend, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(600);

    let design = des_dpa_design();
    let lib = Library::lib180();
    let opts = FlowOptions::default();

    eprintln!("running the regular flow...");
    let regular = run_regular_flow(&design, &lib, &opts)?;
    eprintln!("running the secure flow...");
    let secure = run_secure_flow(&design, &lib, &opts)?;

    let cfg = SimConfig::default();
    let step = (n / 20).max(10);

    for (name, target) in [
        (
            "regular",
            DesTarget {
                netlist: &regular.netlist,
                lib: &lib,
                parasitics: Some(&regular.parasitics),
                driver: CycleDriver::SingleEnded,
                backend: SimBackend::Event,
            },
        ),
        (
            "secure",
            DesTarget {
                netlist: &secure.substitution.differential,
                lib: &secure.substitution.diff_lib,
                parasitics: Some(&secure.parasitics),
                driver: CycleDriver::Wddl(&secure.substitution.input_pairs),
                backend: SimBackend::Event,
            },
        ),
    ] {
        eprintln!("simulating {n} encryptions on the {name} implementation...");
        let set = collect_des_traces(&target, &cfg, PAPER_KEY, n, 1).expect("campaign simulates");
        let scan = mtd_scan(&set.traces, 64, PAPER_KEY, step, set.selector()).expect("mtd scan");
        match scan.mtd {
            Some(m) => println!("{name}: key {PAPER_KEY} DISCLOSED after {m} measurements"),
            None => println!("{name}: key NOT disclosed within {n} measurements"),
        }
        let last = scan.points.last().expect("scan points");
        println!(
            "  final correct-key peak {:.3} vs best wrong-key peak {:.3}",
            last.correct_peak, last.best_wrong_peak
        );
    }
    Ok(())
}
