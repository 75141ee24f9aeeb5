//! Experiment E12 — the Fig. 6 MTD curve pushed to a million traces.
//!
//! The paper's prototype comparison stops at 2000 measurements; its
//! §5 argument is that the secure implementation's residual leak is
//! small enough that disclosure needs orders of magnitude more. This
//! experiment runs the single-bit DPA MTD scan on the fused streaming
//! path ([`collect_des_analysis_streaming`]) so the full trace matrix
//! never exists: peak memory is one in-flight chunk plus the
//! O(points × guesses) accumulator state, regardless of `n`.
//!
//! Usage: `exp_mtd_1m [n_traces] [seed]` (defaults: 1 000 000, 1), or
//! `exp_mtd_1m --smoke` for the CI gate (a 3000-trace curve in
//! seconds). `--trace-store DIR` additionally appends every chunk to
//! an out-of-core trace store under `DIR/<implementation>` and then
//! replays it through fresh accumulators, asserting byte-identity.
//! The campaigns run on the 64-lane kernel (64 encryptions per word is
//! what makes 10⁶ windows tractable). Throughput and peak-RSS lines go
//! to stderr; stdout stays byte-deterministic.

use std::time::Instant;

use secflow_bench::{build_des_implementations, header, paper_sim_config};
use secflow_crypto::dpa_module::PAPER_KEY;
use secflow_dpa::harness::{
    analyze_trace_store, collect_des_analysis_streaming, AnalysisPlan, CampaignProgram,
};
use secflow_dpa::store::TraceStore;

/// Encryptions simulated per streaming chunk: 64 bit-sliced batches.
const CHUNK: usize = 4096;

/// Peak resident-set size in kB from `/proc/self/status` (`VmHWM`),
/// if the platform exposes it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let mut opts = secflow_bench::CommonOpts::parse();
    let smoke = opts.take_flag("--smoke");
    let store_root: Option<std::path::PathBuf> = opts.value("--trace-store");
    let default_n = if smoke { 3000 } else { 1_000_000 };
    let n: usize = opts.positional(default_n);
    let seed: u64 = opts.positional(1);
    let step = (n / 40).max(10);
    let _run = opts.start_run("exp_mtd_1m");

    eprintln!("building both implementations through the flows...");
    let imps = build_des_implementations();
    // The MTD statistic lives in a handful of leakage samples; 100
    // samples per cycle keeps the per-window work small enough that
    // 10⁶ encryptions finish in minutes without moving any peak.
    let cfg = secflow_sim::SimConfig {
        samples_per_cycle: 100,
        ..paper_sim_config()
    };
    let plan = AnalysisPlan {
        n_keys: 64,
        correct_key: PAPER_KEY,
        step: Some(step),
        dpa: true,
        cpa: false,
    };

    header(&format!(
        "Fig. 6 (top) at scale: MTD over {n} measurements (streaming)"
    ));
    for (name, target) in [
        ("reference", imps.regular_target()),
        ("secure", imps.secure_target()),
    ] {
        let program =
            secflow_bench::ok_or_exit(CampaignProgram::build(&target, &cfg));
        let store_dir = store_root.as_ref().map(|d| d.join(name));
        eprintln!("streaming {n} encryptions on the {name} implementation (K = {PAPER_KEY})...");
        let t0 = Instant::now();
        let analysis = secflow_bench::analysis_or_exit(collect_des_analysis_streaming(
            &program,
            &target,
            &cfg,
            PAPER_KEY,
            n,
            seed,
            &plan,
            CHUNK,
            store_dir.as_deref(),
        ));
        let secs = t0.elapsed().as_secs_f64();
        eprintln!(
            "{name}: {:.0} traces/sec ({n} traces in {secs:.1}s){}",
            n as f64 / secs,
            peak_rss_kb().map_or(String::new(), |kb| format!(", peak RSS {kb} kB")),
        );

        let scan = analysis.dpa_mtd.as_ref().expect("planned dpa mtd");
        println!("\n--- {name} implementation ---");
        println!("{:>9} {:>12} {:>14} {:>10}", "traces", "correct pk", "best wrong pk", "disclosed");
        for p in &scan.points {
            println!(
                "{:>9} {:>12.4} {:>14.4} {:>10}",
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

        if let Some(dir) = &store_dir {
            let store = secflow_bench::analysis_or_exit(TraceStore::open(dir));
            let replay = secflow_bench::analysis_or_exit(analyze_trace_store(&store, &plan));
            assert!(
                replay == analysis,
                "store replay diverged from the fused analysis"
            );
            println!(
                "trace store: {} traces in {} chunks, replay byte-identical",
                store.n_traces(),
                store.n_chunks()
            );
        }
    }
}
