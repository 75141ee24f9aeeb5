//! Experiment E11 — §4.3: Differential Fault Analysis via clock
//! glitching, and the WDDL redundant-encoding alarm.
//!
//! The attack raises the clock frequency so combinational paths miss
//! the capturing edge. The experiment sweeps the evaluation-phase
//! duration of the secure DES module and reports, at each point, how
//! many register captures saw the invalid `(0, 0)` code (alarms) and
//! whether every corrupted output was caught.
//!
//! Usage: `exp_dfa_glitch [n_cycles] [seed]` (defaults 60, 5).

use secflow_rand::{RngExt, SeedableRng, StdRng};

use secflow_bench::{build_des_implementations, paper_sim_config};
use secflow_dpa::dfa::glitch_sweep;

fn main() {
    let mut opts = secflow_bench::CommonOpts::parse();
    let n: usize = opts.positional(60);
    let seed: u64 = opts.positional(5);
    let _run = opts.start_run("exp_dfa_glitch");

    eprintln!("building the secure implementation...");
    let imps = build_des_implementations();
    let sub = &imps.secure.substitution;
    let cfg = paper_sim_config();

    let mut rng = StdRng::seed_from_u64(seed);
    let vectors: Vec<Vec<bool>> = (0..n)
        .map(|_| (0..16).map(|_| rng.random()).collect())
        .collect();

    println!("=== E11: clock-glitch sweep on the secure DES module (§4.3) ===\n");
    println!(
        "{:>12} {:>12} {:>10} {:>12} {:>10}",
        "precharge %", "eval ps", "alarms", "corrupted", "detected"
    );
    let fractions = [0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.98];
    let points = glitch_sweep(
        &sub.differential,
        &sub.diff_lib,
        Some(&imps.secure.parasitics),
        &cfg,
        &sub.input_pairs,
        &vectors,
        &fractions,
    );
    let points = secflow_bench::ok_or_exit(points);
    let mut attack_succeeded = false;
    for p in &points {
        let eval_ps = (cfg.period_ps as f64 * (1.0 - p.precharge_fraction)) as u64;
        println!(
            "{:>12.0} {:>12} {:>10} {:>12} {:>10}",
            p.precharge_fraction * 100.0,
            eval_ps,
            p.alarms,
            p.corrupted_outputs,
            if p.corrupted_outputs == 0 {
                "-"
            } else if p.faults_detected {
                "YES"
            } else {
                "MISSED"
            }
        );
        if p.corrupted_outputs > 0 && !p.faults_detected {
            attack_succeeded = true;
        }
    }
    println!(
        "\npaper's claim: every glitch-induced fault leaves some register input at (0,0),\n\
         so monitoring the code validity catches the attack before wrong data is used."
    );
    if attack_succeeded {
        println!("RESULT: some fault escaped detection — countermeasure violated!");
        std::process::exit(1);
    } else {
        println!("RESULT: all injected faults were detected by the (0,0) alarm.");
    }
}
