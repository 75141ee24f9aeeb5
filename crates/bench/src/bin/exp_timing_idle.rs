//! Experiment E9 — §4.1: can a power trace expose inserted idle
//! cycles?
//!
//! Drives both implementations with an alternating pattern of active
//! cycles (fresh random plaintext) and idle cycles (inputs held), and
//! measures how visible the idle cycles are in the per-cycle energy:
//! the d′ sensitivity index and an attacker's classification accuracy.
//!
//! In the regular design idle cycles draw almost nothing; in WDDL
//! every gate still has its one switching event per cycle.
//!
//! Usage: `exp_timing_idle [n_cycles] [seed]` (defaults 400, 3).

use secflow_rand::{RngExt, SeedableRng, StdRng};

use secflow_bench::{build_des_implementations, header, paper_sim_config, row};
use secflow_dpa::harness::DesTarget;
use secflow_dpa::timing::{idle_classification_accuracy, idle_visibility};
use secflow_sim::simulate;

fn main() {
    let mut opts = secflow_bench::CommonOpts::parse();
    let n: usize = opts.positional(400);
    let seed: u64 = opts.positional(3);
    let _run = opts.start_run("exp_timing_idle");

    eprintln!("building both implementations through the flows...");
    let imps = build_des_implementations();
    let cfg = paper_sim_config();

    // Stimulus: a fresh plaintext every 6 cycles, inputs held in
    // between. The datapath is a 2-deep pipeline, so cycles 1 and 2
    // after a change still digest it; cycles 3..5 are genuinely idle.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vectors: Vec<Vec<bool>> = Vec::with_capacity(n);
    let mut idle_flags = Vec::with_capacity(n);
    let mut current: Vec<bool> = (0..16).map(|_| rng.random()).collect();
    for c in 0..n {
        if c % 6 == 0 {
            current = (0..16).map(|_| rng.random()).collect();
        }
        vectors.push(current.clone());
        idle_flags.push(c % 6 >= 3);
    }

    eprintln!("simulating {n} cycles on each implementation...");
    let whole_window =
        |t: DesTarget| simulate(t.netlist, t.lib, t.parasitics, &cfg, t.driver, &vectors);
    let reg = whole_window(imps.regular_target()).expect("regular netlist simulates");
    let sec = whole_window(imps.secure_target()).expect("WDDL netlist simulates");

    // Skip warm-up cycles (registers settling).
    let skip = 4;
    let reg_e = &reg.cycle_energy_fj[skip..];
    let sec_e = &sec.cycle_energy_fj[skip..];
    let flags = &idle_flags[skip..];

    let mean = |v: &[f64], f: bool| {
        let sel: Vec<f64> = v
            .iter()
            .zip(flags)
            .filter(|&(_, &fl)| fl == f)
            .map(|(&e, _)| e)
            .collect();
        sel.iter().sum::<f64>() / sel.len() as f64
    };

    header("E9: idle-cycle visibility in the power trace (§4.1)");
    row(
        "mean active-cycle energy (fJ)",
        format!("{:.0}", mean(reg_e, false)),
        format!("{:.0}", mean(sec_e, false)),
    );
    row(
        "mean idle-cycle energy (fJ)",
        format!("{:.0}", mean(reg_e, true)),
        format!("{:.0}", mean(sec_e, true)),
    );
    let reg_d = idle_visibility(reg_e, flags);
    let sec_d = idle_visibility(sec_e, flags);
    row(
        "idle/active separation d'",
        format!("{reg_d:.2}"),
        format!("{sec_d:.2}"),
    );
    let reg_acc = idle_classification_accuracy(reg_e, flags);
    let sec_acc = idle_classification_accuracy(sec_e, flags);
    row(
        "attacker accuracy (%)",
        format!("{:.1}", reg_acc * 100.0),
        format!("{:.1}", sec_acc * 100.0),
    );
    println!(
        "\npaper's claim: idle cycles are exposed in the regular design (expect d' >> 1,\n\
         accuracy ~100%) and hidden in WDDL (expect d' near 0, accuracy near 50%)."
    );
    assert!(reg_d > sec_d, "WDDL should reduce idle visibility");
}
