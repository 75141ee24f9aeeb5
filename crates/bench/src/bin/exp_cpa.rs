//! Experiment E14 (extension) — the stronger attacker of §3: "the
//! more powerful an attacker is, the better his results may be".
//!
//! Escalates from Kocher's single-bit DPA to Correlation Power
//! Analysis with a Hamming-weight model of the predicted S-box output,
//! and compares the measurements-to-disclosure of both attacks against
//! both implementations. It ends with the attacks that disclosed the
//! key on each implementation, as measured, and whether the one
//! expectation holds: no attack discloses the secure implementation.
//!
//! Usage: `exp_cpa [n_traces] [seed]` (defaults 2500, 1).

use secflow_bench::{build_des_implementations, paper_sim_config};
use secflow_crypto::dpa_module::PAPER_KEY;
use secflow_dpa::attack::mtd_scan;
use secflow_dpa::cpa::{cpa_mtd_scan, sbox_hamming_model, sbox_hd_model};
use secflow_dpa::harness::collect_des_traces;

fn main() {
    let mut opts = secflow_bench::CommonOpts::parse();
    let n: usize = opts.positional(2500);
    let seed: u64 = opts.positional(1);
    let step = (n / 40).max(10);
    let _run = opts.start_run("exp_cpa");

    eprintln!("building both implementations through the flows...");
    let imps = build_des_implementations();
    let cfg = paper_sim_config();

    println!("=== E14: single-bit DPA vs Hamming-weight CPA ({n} traces, K = {PAPER_KEY}) ===");
    // Per implementation, the attacks that disclosed the key and their
    // MTDs.
    let mut disclosures: Vec<(&str, Vec<String>)> = Vec::new();
    for (name, target) in [
        ("reference", imps.regular_target()),
        ("secure", imps.secure_target()),
    ] {
        eprintln!("simulating {n} encryptions on the {name} implementation...");
        let set = secflow_bench::ok_or_exit(collect_des_traces(&target, &cfg, PAPER_KEY, n, seed));

        let dpa =
            secflow_bench::analysis_or_exit(mtd_scan(&set.traces, 64, PAPER_KEY, step, set.selector()));
        let (hw_points, hw_mtd) =
            secflow_bench::analysis_or_exit(cpa_mtd_scan(&set.traces, 64, PAPER_KEY, step, |k, i| {
                let (cl, cr) = set.ciphertexts[i];
                sbox_hamming_model(k, cl, cr)
            }));
        // The transition (Hamming-distance) model uses the previous
        // encryption's ciphertext — CMOS power follows transitions.
        let (hd_points, hd_mtd) =
            secflow_bench::analysis_or_exit(cpa_mtd_scan(&set.traces, 64, PAPER_KEY, step, |k, i| {
                let cr_prev = if i == 0 { 0 } else { set.ciphertexts[i - 1].1 };
                sbox_hd_model(k, cr_prev, set.ciphertexts[i].1)
            }));

        println!("\n=== {name} implementation ===");
        println!(
            "{:<30} {:>15} {:>15} {:>15}",
            "metric", "single-bit DPA", "HW CPA", "HD CPA"
        );
        let fmt_mtd = |m: Option<usize>| m.map_or("none".to_string(), |v| v.to_string());
        println!(
            "{:<30} {:>15} {:>15} {:>15}",
            "MTD",
            fmt_mtd(dpa.mtd),
            fmt_mtd(hw_mtd),
            fmt_mtd(hd_mtd)
        );
        let dpa_last = dpa.points.last().expect("points");
        let hw_last = hw_points.last().expect("points");
        let hd_last = hd_points.last().expect("points");
        println!(
            "{:<30} {:>15.2} {:>15.2} {:>15.2}",
            "final correct/wrong ratio",
            dpa_last.correct_peak / dpa_last.best_wrong_peak.max(1e-12),
            hw_last.correct_corr / hw_last.best_wrong_corr.max(1e-12),
            hd_last.correct_corr / hd_last.best_wrong_corr.max(1e-12),
        );
        println!(
            "{:<30} {:>15.3} {:>15.3} {:>15.3}",
            "final correct-key statistic",
            dpa_last.correct_peak,
            hw_last.correct_corr,
            hd_last.correct_corr,
        );
        let disclosed = [("single-bit DPA", dpa.mtd), ("HW CPA", hw_mtd), ("HD CPA", hd_mtd)]
            .into_iter()
            .filter_map(|(attack, mtd)| mtd.map(|m| format!("{attack} at {m} traces")))
            .collect();
        disclosures.push((name, disclosed));
    }
    println!("\nkey disclosed by:");
    for (name, disclosed) in &disclosures {
        let list = if disclosed.is_empty() { "none".to_string() } else { disclosed.join(", ") };
        println!("  {name:<10} {list}");
    }
    let secure_disclosed = disclosures
        .iter()
        .any(|(name, d)| *name == "secure" && !d.is_empty());
    println!(
        "expected: no attack discloses the secure implementation ({})",
        if secure_disclosed { "violated" } else { "holds" }
    );
}
