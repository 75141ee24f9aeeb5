//! Experiments E3–E5 — the §3 design-example table.
//!
//! The paper reports, for the reference and secure implementations of
//! the Fig. 4 DES module:
//!
//! * layout area: 3782 µm² vs 12880 µm² (≈ 3.4×),
//! * mean energy per encryption: 4.6 pJ vs 27.1 pJ (≈ 5.9×),
//! * normalized energy deviation: 60 % vs 6.6 %,
//! * normalized standard deviation: 12 % vs 0.9 %.
//!
//! Usage: `exp_area_energy [n_encryptions] [seed]` (defaults 2000, 1).

use secflow_bench::{build_des_implementations, header, paper_sim_config, row};
use secflow_crypto::dpa_module::PAPER_KEY;
use secflow_dpa::harness::collect_des_traces;
use secflow_dpa::stats::EnergyStats;

fn main() {
    let mut opts = secflow_bench::CommonOpts::parse();
    let n: usize = opts.positional(2000);
    let seed: u64 = opts.positional(1);
    let _run = opts.start_run("exp_area_energy");

    eprintln!("building both implementations through the flows...");
    let imps = build_des_implementations();
    let cfg = paper_sim_config();

    header("design size");
    row(
        "gate instances",
        imps.regular.report.stats.gates,
        imps.secure.report.stats.gates,
    );
    row(
        "cell area (um^2)",
        format!("{:.0}", imps.regular.report.cell_area_um2),
        format!("{:.0}", imps.secure.report.cell_area_um2),
    );
    row(
        "die area (um^2)",
        format!("{:.0}", imps.regular.report.die_area_um2),
        format!("{:.0}", imps.secure.report.die_area_um2),
    );
    row(
        "wirelength (tracks)",
        imps.regular.report.wirelength_tracks,
        imps.secure.report.wirelength_tracks,
    );
    let area_ratio = imps.secure.report.die_area_um2 / imps.regular.report.die_area_um2;
    println!("area ratio secure/reference = {area_ratio:.2} (paper: 12880/3782 = 3.41)");

    eprintln!("simulating {n} encryptions on each implementation...");
    let campaign =
        |target| secflow_bench::ok_or_exit(collect_des_traces(&target, &cfg, PAPER_KEY, n, seed));
    let reg = campaign(imps.regular_target());
    let sec = campaign(imps.secure_target());
    let reg_stats = secflow_bench::analysis_or_exit(EnergyStats::try_of(&reg.energies, 1));
    let sec_stats = secflow_bench::analysis_or_exit(EnergyStats::try_of(&sec.energies, 1));

    header("energy per encryption");
    row(
        "mean energy (pJ)",
        format!("{:.3}", reg_stats.mean / 1000.0),
        format!("{:.3}", sec_stats.mean / 1000.0),
    );
    row(
        "normalized energy deviation (%)",
        format!("{:.1}", reg_stats.ned * 100.0),
        format!("{:.1}", sec_stats.ned * 100.0),
    );
    row(
        "normalized std deviation (%)",
        format!("{:.2}", reg_stats.nsd * 100.0),
        format!("{:.2}", sec_stats.nsd * 100.0),
    );
    println!(
        "energy ratio secure/reference = {:.2} (paper: 27.1/4.6 = 5.89)",
        sec_stats.mean / reg_stats.mean
    );

    header("paper comparison (reference, secure)");
    row("paper area (um^2)", 3782, 12880);
    row(
        "measured area (um^2)",
        format!("{:.0}", imps.regular.report.die_area_um2),
        format!("{:.0}", imps.secure.report.die_area_um2),
    );
    row("paper mean energy (pJ)", 4.6, 27.1);
    row(
        "measured mean energy (pJ)",
        format!("{:.2}", reg_stats.mean / 1000.0),
        format!("{:.2}", sec_stats.mean / 1000.0),
    );
    row("paper NED (%)", 60.0, 6.6);
    row(
        "measured NED (%)",
        format!("{:.1}", reg_stats.ned * 100.0),
        format!("{:.1}", sec_stats.ned * 100.0),
    );
    row("paper NSD (%)", 12.0, 0.9);
    row(
        "measured NSD (%)",
        format!("{:.2}", reg_stats.nsd * 100.0),
        format!("{:.2}", sec_stats.nsd * 100.0),
    );

    header("pair-matching quality (secure flow, §2.2)");
    row(
        "mean pair cap mismatch (%)",
        "-",
        format!(
            "{:.3}",
            imps.secure.report.mean_pair_mismatch.unwrap_or(0.0) * 100.0
        ),
    );
    row(
        "max pair cap mismatch (%)",
        "-",
        format!(
            "{:.3}",
            imps.secure.report.max_pair_mismatch.unwrap_or(0.0) * 100.0
        ),
    );
}
