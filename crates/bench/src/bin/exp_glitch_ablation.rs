//! Experiment E15 (ablation) — how much of the reference design's
//! leakage comes from glitches?
//!
//! DESIGN.md calls out glitch modelling (inertial delays) as a
//! load-bearing simulator feature: single-ended CMOS logic glitches,
//! and the extra, data-dependent transitions both burn energy and
//! leak. This ablation re-runs the DPA against the reference
//! implementation under the idealized glitch-free power model (every
//! net switches at most once per cycle) and compares.
//!
//! Usage: `exp_glitch_ablation [n_traces] [seed]` (defaults 2000, 1).

use secflow_bench::{build_des_implementations, header_cols, paper_sim_config, row};
use secflow_crypto::dpa_module::PAPER_KEY;
use secflow_dpa::attack::mtd_scan;
use secflow_dpa::harness::{collect_des_traces, DesTarget};
use secflow_dpa::stats::EnergyStats;
use secflow_sim::CycleDriver;

fn main() {
    let mut opts = secflow_bench::CommonOpts::parse();
    let n: usize = opts.positional(2000);
    let seed: u64 = opts.positional(1);
    let step = (n / 40).max(10);
    let _run = opts.start_run("exp_glitch_ablation");

    eprintln!("building the reference implementation...");
    let imps = build_des_implementations();
    let cfg = paper_sim_config();

    let glitchy = imps.regular_target();
    let glitch_free = DesTarget {
        driver: CycleDriver::GlitchFree,
        ..glitchy
    };

    eprintln!("simulating {n} encryptions under both power models...");
    let set_g = secflow_bench::ok_or_exit(collect_des_traces(&glitchy, &cfg, PAPER_KEY, n, seed));
    let set_f = secflow_bench::ok_or_exit(collect_des_traces(&glitch_free, &cfg, PAPER_KEY, n, seed));

    let e_g = secflow_bench::analysis_or_exit(EnergyStats::try_of(&set_g.energies, 1));
    let e_f = secflow_bench::analysis_or_exit(EnergyStats::try_of(&set_f.energies, 1));
    header_cols(
        "E15: glitch contribution in the reference design",
        "with glitches",
        "glitch-free",
    );
    row(
        "mean energy (pJ)",
        format!("{:.3}", e_g.mean / 1000.0),
        format!("{:.3}", e_f.mean / 1000.0),
    );
    row(
        "mean supply charge / encryption (fC)",
        format!("{:.1}", mean_charge(&set_g)),
        format!("{:.1}", mean_charge(&set_f)),
    );
    row(
        "energy NSD (%)",
        format!("{:.2}", e_g.nsd * 100.0),
        format!("{:.2}", e_f.nsd * 100.0),
    );

    let scan_g =
        secflow_bench::analysis_or_exit(mtd_scan(&set_g.traces, 64, PAPER_KEY, step, set_g.selector()));
    let scan_f =
        secflow_bench::analysis_or_exit(mtd_scan(&set_f.traces, 64, PAPER_KEY, step, set_f.selector()));
    row(
        "DPA MTD",
        scan_g.mtd.map_or("not disclosed".into(), |m| m.to_string()),
        scan_f.mtd.map_or("not disclosed".into(), |m| m.to_string()),
    );
    let last = |s: &secflow_dpa::attack::MtdScan| {
        let p = s.points.last().expect("points");
        format!("{:.2}", p.correct_peak / p.best_wrong_peak.max(1e-12))
    };
    row("final correct/wrong ratio", last(&scan_g), last(&scan_f));
    println!(
        "\nglitch energy = {:.1} % of the reference design's consumption",
        (e_g.mean - e_f.mean) / e_g.mean * 100.0
    );
}

/// Mean integrated supply charge per encryption trace (fC) — a
/// switching-activity proxy.
fn mean_charge(set: &secflow_dpa::harness::TraceSet) -> f64 {
    set.traces
        .iter()
        .map(|t| t.iter().sum::<f64>())
        .sum::<f64>()
        / set.traces.len() as f64
}
