//! Experiment E12 — ablation of §2.2: is the fat-wire differential-
//! pair routing actually necessary, or would WDDL cells with ordinary
//! routing suffice?
//!
//! Builds the same differential WDDL netlist twice:
//!
//! * **paper flow** — fat routing + interconnect decomposition (the
//!   two rails are parallel wires one track apart);
//! * **naive flow** — the differential netlist is placed and routed
//!   directly, each rail as an independent net.
//!
//! Reports the per-pair capacitance mismatch of both layouts and runs
//! the DPA against both. One naive layout decides little: a router
//! change that moves a few wires can flip its MTD. The naive arm
//! therefore runs at each of the placement seeds in [`NAIVE_SEEDS`]
//! and reports how many of those layouts disclose the key.
//!
//! Usage: `exp_mismatch_ablation [n_traces] [seed]` (defaults 1000, 1).

use secflow_bench::{build_des_implementations, paper_sim_config};
use secflow_core::{decompose_styled, DecomposeStyle};
use secflow_crypto::dpa_module::PAPER_KEY;
use secflow_dpa::attack::{mtd_scan, MtdScan};
use secflow_dpa::harness::{collect_des_traces, DesTarget};
use secflow_dpa::stats::EnergyStats;
use secflow_extract::{extract, pair_mismatch, Parasitics, Technology};
use secflow_pnr::{place, route, GridPitch, PlaceOptions, RouteOptions};

/// Placement seeds of the naive arm's layouts.
const NAIVE_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// One layout's DPA outcome: its mismatch, energy signature and MTD.
struct Outcome {
    mean: f64,
    max: f64,
    stats: EnergyStats,
    scan: MtdScan,
}

impl Outcome {
    fn print(&self, layout: &str) {
        let mtd = self
            .scan
            .mtd
            .map_or("not disclosed".into(), |m| format!("{m}"));
        let p = self.scan.points.last().expect("points");
        println!(
            "{layout:<24} {:>9.2}% {:>9.2}% {:>7.2}% {:>7.3}% {mtd:>14} {:>7.2}",
            self.mean * 100.0,
            self.max * 100.0,
            self.stats.ned * 100.0,
            self.stats.nsd * 100.0,
            p.correct_peak / p.best_wrong_peak.max(1e-12)
        );
    }
}

fn main() {
    let mut opts = secflow_bench::CommonOpts::parse();
    let n: usize = opts.positional(1000);
    let seed: u64 = opts.positional(1);
    let _run = opts.start_run("exp_mismatch_ablation");

    eprintln!("building the secure implementation (paper flow)...");
    let imps = build_des_implementations();
    let sub = &imps.secure.substitution;
    let pair_list: Vec<_> = sub.pairs.iter().map(|p| (p.t, p.f)).collect();
    let tech = Technology::default();

    let summarize = |par: &Parasitics| -> (f64, f64) {
        let reports = pair_mismatch(par, &pair_list);
        let routed: Vec<_> = reports
            .iter()
            .filter(|m| m.cap_t_ff + m.cap_f_ff > 0.0)
            .collect();
        let mean = routed.iter().map(|m| m.relative).sum::<f64>() / routed.len() as f64;
        let max = routed.iter().map(|m| m.relative).fold(0.0, f64::max);
        (mean, max)
    };

    eprintln!("routing the differential netlist naively (ablation)...");
    let naive_pars: Vec<Parasitics> = NAIVE_SEEDS
        .iter()
        .map(|&place_seed| {
            let placed = secflow_bench::ok_or_exit(place(
                &sub.differential,
                &sub.diff_lib,
                &PlaceOptions {
                    pitch: GridPitch::Normal,
                    seed: place_seed,
                    ..Default::default()
                },
            ));
            let routed = route(
                &sub.differential,
                &sub.diff_lib,
                &placed,
                &RouteOptions::default(),
            )
            .expect("naive routing");
            extract(&routed, &sub.differential, &tech)
        })
        .collect();
    let naive_summaries: Vec<(f64, f64)> = naive_pars.iter().map(&summarize).collect();
    let (paper_mean, paper_max) = summarize(&imps.secure.parasitics);
    let naive_mean =
        naive_summaries.iter().map(|s| s.0).sum::<f64>() / naive_summaries.len() as f64;
    let naive_max = naive_summaries.iter().map(|s| s.1).fold(0.0, f64::max);

    // E13: the paper's §2.2 hardening options — shields or wider pair
    // spacing ("the tradeoff is an increase in silicon area").
    let styled = |style: DecomposeStyle| {
        let d = secflow_bench::ok_or_exit(decompose_styled(&imps.secure.fat_routed, sub, style));
        let par = extract(&d, &sub.differential, &tech);
        summarize(&par)
    };
    let (spaced_mean, spaced_max) = styled(DecomposeStyle::Spaced);
    let (shield_mean, shield_max) = styled(DecomposeStyle::Shielded);

    println!("\n=== E12/E13: differential-pair capacitance mismatch ===");
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>14}",
        "metric", "naive, 6 seeds", "paper (dense)", "spaced", "shielded"
    );
    println!(
        "{:<24} {:>13.2}% {:>13.2}% {:>13.2}% {:>13.2}%",
        "mean pair mismatch",
        naive_mean * 100.0,
        paper_mean * 100.0,
        spaced_mean * 100.0,
        shield_mean * 100.0
    );
    println!(
        "{:<24} {:>13.2}% {:>13.2}% {:>13.2}% {:>13.2}%",
        "max pair mismatch",
        naive_max * 100.0,
        paper_max * 100.0,
        spaced_max * 100.0,
        shield_max * 100.0
    );
    println!(
        "{:<24} {:>13.2}x {:>13.2}x {:>13.2}x {:>13.2}x",
        "relative die area",
        1.0, // the naive layout sizes itself
        1.0,
        (DecomposeStyle::Spaced.scale() as f64 / 2.0).powi(2),
        (DecomposeStyle::Shielded.scale() as f64 / 2.0).powi(2)
    );

    eprintln!(
        "\nsimulating {n} encryptions against the paper flow and {} naive layouts...",
        NAIVE_SEEDS.len()
    );
    let cfg = paper_sim_config();
    let step = (n / 20).max(10);
    let attack = |target: &DesTarget<'_>, (mean, max): (f64, f64)| {
        let set = secflow_bench::ok_or_exit(collect_des_traces(target, &cfg, PAPER_KEY, n, seed));
        Outcome {
            mean,
            max,
            stats: secflow_bench::analysis_or_exit(EnergyStats::try_of(&set.energies, 1)),
            scan: secflow_bench::analysis_or_exit(mtd_scan(
                &set.traces,
                64,
                PAPER_KEY,
                step,
                set.selector(),
            )),
        }
    };
    let paper = attack(&imps.secure_target(), (paper_mean, paper_max));
    let naive: Vec<Outcome> = naive_pars
        .iter()
        .zip(&naive_summaries)
        .map(|(par, &summary)| {
            let target = DesTarget {
                parasitics: Some(par),
                ..imps.secure_target()
            };
            attack(&target, summary)
        })
        .collect();

    println!("\n=== E12: DPA outcome at {n} measurements (all WDDL; only the routing differs) ===");
    println!(
        "{:<24} {:>10} {:>10} {:>8} {:>8} {:>14} {:>7}",
        "layout", "mean mism", "max mism", "NED", "NSD", "MTD", "ratio"
    );
    paper.print("paper flow");
    for (place_seed, outcome) in NAIVE_SEEDS.iter().zip(&naive) {
        outcome.print(&format!("naive, placement {place_seed}"));
    }
    let disclosed = naive.iter().filter(|o| o.scan.mtd.is_some()).count();
    println!(
        "naive routing: disclosed {disclosed} of {} placements (ratio: final correct/wrong peak)",
        NAIVE_SEEDS.len()
    );
    println!(
        "\nthe paper's claim: WDDL logic alone is not enough — without matched\n\
         interconnect capacitances (fat routing + decomposition) the residual pair\n\
         mismatch restores a usable power side channel."
    );
}
