//! Experiment E6/E7 — Fig. 6 of the paper.
//!
//! Top: measurements to disclosure (MTD). The paper reports that a DPA
//! on the reference implementation discloses the secret key after
//! ~250 measurements, while the secure implementation does not
//! disclose it after 2000+.
//!
//! Bottom: the peak-to-peak value of the 64 key guesses' differential
//! traces at 2000 measurements — the correct key stands out only for
//! the reference implementation.
//!
//! Usage: `exp_fig6_mtd [n_traces] [seed]` (defaults: 2000, 1), or
//! `exp_fig6_mtd --smoke` for the CI gate: a 150-trace campaign that
//! exercises the full build–simulate–attack pipeline in minutes.

use secflow_bench::{build_des_implementations, header, paper_sim_config, row};
use secflow_crypto::dpa_module::PAPER_KEY;
use secflow_dpa::attack::{dpa_attack, mtd_scan};
use secflow_dpa::harness::collect_des_traces;

fn main() {
    let mut opts = secflow_bench::CommonOpts::parse();
    let smoke = opts.take_flag("--smoke");
    let default_n = if smoke { 150 } else { 2000 };
    let n: usize = opts.positional(default_n);
    let seed: u64 = opts.positional(1);
    let step = (n / 40).max(10);
    let _run = opts.start_run("exp_fig6_mtd");

    eprintln!("building both implementations through the flows...");
    let imps = build_des_implementations();
    let cfg = paper_sim_config();

    eprintln!("simulating {n} encryptions on each implementation (K = {PAPER_KEY})...");
    let campaign =
        |target| secflow_bench::ok_or_exit(collect_des_traces(&target, &cfg, PAPER_KEY, n, seed));
    let sets = [
        ("reference", campaign(imps.regular_target())),
        ("secure", campaign(imps.secure_target())),
    ];

    header("Fig. 6 (top): measurements to disclosure");
    let mut mtds = Vec::new();
    for (name, set) in &sets {
        let scan =
            secflow_bench::analysis_or_exit(mtd_scan(&set.traces, 64, PAPER_KEY, step, set.selector()));
        println!("\n--- {name} implementation ---");
        println!(
            "{:>8} {:>12} {:>14} {:>10}",
            "traces", "correct pk", "best wrong pk", "disclosed"
        );
        for p in &scan.points {
            println!(
                "{:>8} {:>12.4} {:>14.4} {:>10}",
                p.traces,
                p.correct_peak,
                p.best_wrong_peak,
                if p.disclosed { "YES" } else { "no" }
            );
        }
        match scan.mtd {
            Some(m) => println!("MTD({name}) = {m} measurements"),
            None => println!("MTD({name}) = not disclosed within {n} measurements"),
        }
        mtds.push(scan.mtd);
    }

    header("Fig. 6 (bottom): peak-to-peak of differential traces per key guess");
    for (name, set) in &sets {
        let r = secflow_bench::analysis_or_exit(dpa_attack(&set.traces, 64, set.selector()));
        println!("\n--- {name} implementation at {n} measurements ---");
        for chunk in r.guesses.chunks(8) {
            let line: Vec<String> = chunk
                .iter()
                .map(|g| {
                    let mark = if g.key == PAPER_KEY { "*" } else { " " };
                    format!("K{:02}{mark}{:7.3}", g.key, g.p2p)
                })
                .collect();
            println!("{}", line.join("  "));
        }
        let correct = r.guesses[PAPER_KEY as usize].p2p;
        let wrong_max = r
            .guesses
            .iter()
            .filter(|g| g.key != PAPER_KEY)
            .map(|g| g.p2p)
            .fold(0.0f64, f64::max);
        println!(
            "correct-key p2p = {correct:.3}, max wrong-key p2p = {wrong_max:.3}, ratio = {:.2}",
            correct / wrong_max
        );
        println!(
            "best key guess: {} (true key {PAPER_KEY}), margin {:.2}",
            r.best_key, r.margin
        );
    }

    header("paper comparison");
    row("paper MTD", "~250", ">2000 (none)");
    row(
        "measured MTD",
        mtds[0].map_or("none".to_string(), |m| m.to_string()),
        mtds[1].map_or("none".to_string(), |m| m.to_string()),
    );
}
