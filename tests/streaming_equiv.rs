//! Streaming-vs-batch equivalence: the PR 8 contract that the
//! one-pass accumulators are *the same function* as the batch
//! attacks, to the last bit, at any thread count and any chunking.
//!
//! Three layers:
//!
//! 1. a property test over random trace sets and random chunkings of
//!    the raw [`DpaStream`]/[`CpaStream`] accumulators;
//! 2. golden pins of the fused campaign path on the real DES module
//!    at 1/2/8 threads × ragged chunk sizes 1/63/64/65 (straddling
//!    the 64-lane bit-slice batch width) against the materialized
//!    1-thread reference;
//! 3. the job server: a `"trace_path":"streaming"` campaign must
//!    return a payload byte-identical to the materialized one.

use secflow::cells::Library;
use secflow::crypto::dpa_module::des_dpa_design;
use secflow::dpa::attack::{dpa_attack, mtd_scan};
use secflow::dpa::cpa::{cpa_attack, cpa_mtd_scan, sbox_hamming_model};
use secflow::dpa::harness::{
    analyze_trace_set, collect_des_analysis_streaming, collect_des_traces_with, AnalysisPlan,
    CampaignAnalysis, CampaignProgram, DesTarget,
};
use secflow::dpa::streaming::{CpaStream, DpaStream};
use secflow::exec::with_threads;
use secflow::sim::{CycleDriver, SimBackend, SimConfig};
use secflow::synth::{map_design, MapOptions};
use secflow_testkit::prop_check;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Flattened `f64` fingerprint of a full analysis, for `to_bits`
/// comparison across thread counts and chunkings.
fn analysis_bits(a: &CampaignAnalysis) -> Vec<u64> {
    let mut out = vec![a.n as u64, a.samples_per_trace as u64, a.energy_sum.to_bits()];
    if let Some(r) = &a.dpa {
        out.push(u64::from(r.best_key));
        out.push(r.margin.to_bits());
        for g in &r.guesses {
            out.extend([u64::from(g.key), g.peak.to_bits(), g.p2p.to_bits()]);
        }
    }
    if let Some(s) = &a.dpa_mtd {
        out.push(s.mtd.map_or(u64::MAX, |m| m as u64));
        for p in &s.points {
            out.extend([
                p.traces as u64,
                u64::from(p.disclosed),
                p.correct_peak.to_bits(),
                p.best_wrong_peak.to_bits(),
            ]);
        }
    }
    if let Some(r) = &a.cpa {
        out.push(u64::from(r.best_key));
        out.push(r.margin.to_bits());
        for g in &r.guesses {
            out.extend([u64::from(g.key), g.peak_corr.to_bits()]);
        }
    }
    if let Some((pts, mtd)) = &a.cpa_mtd {
        out.push(mtd.map_or(u64::MAX, |m| m as u64));
        for p in pts {
            out.extend([
                p.traces as u64,
                u64::from(p.disclosed),
                p.correct_corr.to_bits(),
                p.best_wrong_corr.to_bits(),
            ]);
        }
    }
    out
}

/// Random trace sets, random chunkings, random thread counts: the
/// streamed DPA and CPA statistics (including MTD checkpoints) must be
/// bit-identical to the batch attacks over the same traces.
#[test]
fn streamed_statistics_equal_batch_on_random_traces() {
    prop_check!(cases: 24, seed: 0x57EA11, |g| {
        let n = g.len_in(1..40);
        let samples = g.len_in(1..12);
        let n_keys = g.len_in(1..9);
        let step = g.len_in(1..8);
        let threads = *g.choose(&[1usize, 2, 8]);
        let traces: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..samples).map(|_| f64::from(g.random::<u16>()) / 256.0).collect())
            .collect();
        let crs: Vec<u8> = (0..n).map(|_| g.random::<u8>() & 0x3f).collect();
        let select = |k: u8, i: usize| (crs[i] ^ k).count_ones() % 2 == 0;
        let model = |k: u8, i: usize| sbox_hamming_model(k, 0, crs[i]);
        let correct = (g.random::<u8>() as usize % n_keys) as u8;

        // A random partition of the traces into blocks.
        let mut cuts = vec![0usize, n];
        for _ in 0..g.len_in(0..4) {
            cuts.push(g.random_range(0..n + 1));
        }
        cuts.sort_unstable();

        with_threads(threads, || {
            let batch_dpa = dpa_attack(&traces, n_keys, select).unwrap();
            let batch_scan = mtd_scan(&traces, n_keys, correct, step, select).unwrap();
            let batch_cpa = cpa_attack(&traces, n_keys, model).unwrap();
            let (batch_pts, batch_mtd) =
                cpa_mtd_scan(&traces, n_keys, correct, step, model).unwrap();

            let mut ds = DpaStream::with_step(n_keys, step).unwrap();
            let mut cs = CpaStream::with_step(n_keys, step).unwrap();
            for w in cuts.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let block = &traces[lo..hi];
                ds.push_block(block, |k, j| select(k, lo + j)).unwrap();
                cs.push_block(block, |k, j| model(k, lo + j)).unwrap();
            }

            let stream_dpa = ds.result();
            assert_eq!(stream_dpa.best_key, batch_dpa.best_key);
            assert_eq!(stream_dpa.margin.to_bits(), batch_dpa.margin.to_bits());
            for (a, b) in stream_dpa.guesses.iter().zip(&batch_dpa.guesses) {
                assert_eq!(a.peak.to_bits(), b.peak.to_bits());
                assert_eq!(a.p2p.to_bits(), b.p2p.to_bits());
            }
            let stream_scan = ds.mtd(correct);
            assert_eq!(stream_scan.mtd, batch_scan.mtd);
            assert_eq!(stream_scan.points.len(), batch_scan.points.len());
            for (a, b) in stream_scan.points.iter().zip(&batch_scan.points) {
                assert_eq!((a.traces, a.disclosed), (b.traces, b.disclosed));
                assert_eq!(a.correct_peak.to_bits(), b.correct_peak.to_bits());
                assert_eq!(a.best_wrong_peak.to_bits(), b.best_wrong_peak.to_bits());
            }

            let stream_cpa = cs.result();
            assert_eq!(stream_cpa.best_key, batch_cpa.best_key);
            for (a, b) in stream_cpa.guesses.iter().zip(&batch_cpa.guesses) {
                assert_eq!(a.peak_corr.to_bits(), b.peak_corr.to_bits());
            }
            let (stream_pts, stream_mtd) = cs.mtd(correct);
            assert_eq!(stream_mtd, batch_mtd);
            assert_eq!(stream_pts.len(), batch_pts.len());
            for (a, b) in stream_pts.iter().zip(&batch_pts) {
                assert_eq!((a.traces, a.disclosed), (b.traces, b.disclosed));
                assert_eq!(a.correct_corr.to_bits(), b.correct_corr.to_bits());
                assert_eq!(a.best_wrong_corr.to_bits(), b.best_wrong_corr.to_bits());
            }
        });
    });
}

/// The fused streaming campaign on the real DES module, at every
/// thread count × ragged chunk size straddling the 64-lane bit-slice
/// batch width, against the materialized single-thread reference.
#[test]
fn fused_campaign_is_identical_across_threads_and_chunks() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("map");
    let cfg = SimConfig {
        samples_per_cycle: 50,
        noise_sigma: 0.3,
        noise_seed: 7,
        ..Default::default()
    };
    let key = 46u8;
    let n = 90usize;
    let plan = AnalysisPlan {
        n_keys: 64,
        correct_key: key,
        step: Some(10),
        dpa: true,
        cpa: true,
    };
    let target = DesTarget {
        netlist: &mapped,
        lib: &lib,
        parasitics: None,
        driver: CycleDriver::SingleEnded,
        backend: SimBackend::Bitslice,
    };
    let program = CampaignProgram::build(&target, &cfg).expect("program");

    let reference = with_threads(1, || {
        let set = collect_des_traces_with(&program, &target, &cfg, key, n, 3).expect("campaign");
        analyze_trace_set(&set, &plan).expect("analysis")
    });
    let ref_bits = analysis_bits(&reference);

    for threads in [1usize, 2, 8] {
        for chunk in [1usize, 63, 64, 65] {
            let streamed = with_threads(threads, || {
                collect_des_analysis_streaming(
                    &program, &target, &cfg, key, n, 3, &plan, chunk, None,
                )
                .expect("streaming campaign")
            });
            assert_eq!(
                analysis_bits(&streamed),
                ref_bits,
                "{threads} threads, chunk {chunk}"
            );
        }
    }
    // The fingerprint helper covers every field it should.
    assert!(bits(&[reference.energy_sum]).len() == 1);
}

/// A `"trace_path":"streaming"` campaign through the job server must
/// produce a payload byte-identical to the default materialized path —
/// the wire-visible face of the accumulator equivalence.
#[test]
fn serve_streaming_payload_matches_materialized() {
    use secflow::serve::{proto::canonical_json, Engine, Request, Value};

    let tuning = r#""options":{"anneal_moves_per_gate":4,"verify":false},
        "sim":{"samples_per_cycle":40}"#;
    let mat = format!(r#"{{"job":"campaign","attack":"dpa","n":6,"seed":3,{tuning}}}"#);
    let stream = format!(
        r#"{{"job":"campaign","attack":"dpa","n":6,"seed":3,"trace_path":"streaming",{tuning}}}"#
    );
    let engine = Engine::new(256 << 20, None);
    let run = |req: &str| {
        let parsed = Request::parse(req.as_bytes()).expect("request parses");
        let canon = canonical_json(&Value::parse(req).expect("request is JSON"));
        engine.execute(&canon, &parsed).expect("job runs")
    };
    let a = run(&mat);
    let b = run(&stream);
    assert!(!a.cached_response);
    // Different canonical requests: the streaming job is a genuine
    // re-execution, not a response-cache hit...
    assert!(!b.cached_response);
    // ...yet the payload is byte-identical.
    assert_eq!(a.payload, b.payload);

    // An unknown trace_path is rejected at parse time.
    let bad = r#"{"job":"campaign","attack":"dpa","n":6,"trace_path":"mmap"}"#;
    assert!(Request::parse(bad.as_bytes()).is_err());
}
