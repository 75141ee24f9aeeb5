//! Micro-benchmarks of every flow stage: the two paper insertions
//! (cell substitution, interconnect decomposition) plus synthesis,
//! placement, routing, extraction, simulation and equivalence
//! checking — the data behind the E8 runtime claims.
//!
//! Runs on the in-repo median-of-K timing harness
//! (`secflow_testkit::timing`); each measurement prints one JSON line:
//!
//! ```text
//! {"bench":"cell_substitution/2000","median_ns":…,"min_ns":…,"max_ns":…,"k":5}
//! ```
//!
//! Invoke with `cargo bench --offline` or
//! `cargo bench --offline -- substitution` to filter by name.

use std::hint::black_box;

use secflow_cells::Library;
use secflow_core::{decompose, run_secure_flow, substitute, FlowOptions, WddlLibrary};
use secflow_crypto::bench_gen::synthetic_design;
use secflow_crypto::dpa_module::des_dpa_design;
use secflow_dpa::attack::dpa_attack;
use secflow_dpa::harness::{collect_des_traces, DesTarget};
use secflow_lec::check_equiv_with_parity;
use secflow_pnr::{place, route, GridPitch, PlaceOptions, RouteOptions};
use secflow_sim::{SimBackend, SimConfig};
use secflow_synth::{map_design, MapOptions};
use secflow_testkit::timing::{bench, time_median, Measurement};

/// Median-of-K runs per measurement; small because the individual
/// stages are long relative to timer noise.
const K: usize = 5;

fn bench_substitution(filter: &str) {
    if !"cell_substitution".contains(filter) {
        return;
    }
    let lib = Library::lib180();
    for &gates in &[500usize, 2000, 8000] {
        let design = synthetic_design("sub", gates, 64, 3);
        let mapped = map_design(&design, &lib, &MapOptions::default()).expect("map");
        bench(&format!("cell_substitution/{gates}"), K, || {
            substitute(black_box(&mapped), &lib).expect("substitute");
        });
    }
}

fn bench_decomposition(filter: &str) {
    if !"interconnect_decomposition_des".contains(filter) {
        return;
    }
    let lib = Library::lib180();
    let design = des_dpa_design();
    let mapped = map_design(&design, &lib, &MapOptions::default()).expect("map");
    let sub = substitute(&mapped, &lib).expect("substitute");
    let placed = place(
        &sub.fat,
        &sub.fat_lib,
        &PlaceOptions {
            pitch: GridPitch::Fat,
            anneal_moves_per_gate: 20,
            ..Default::default()
        },
    )
    .expect("place");
    let routed = route(&sub.fat, &sub.fat_lib, &placed, &RouteOptions::default()).expect("route");
    bench("interconnect_decomposition_des", K, || {
        black_box(decompose(black_box(&routed), &sub).expect("decompose"));
    });
}

fn bench_pnr(filter: &str) {
    if !"place_and_route_des".contains(filter) {
        return;
    }
    let lib = Library::lib180();
    let design = des_dpa_design();
    let mapped = map_design(&design, &lib, &MapOptions::default()).expect("map");
    let opts = PlaceOptions {
        anneal_moves_per_gate: 40,
        ..Default::default()
    };
    bench("place_and_route_des/placement", K, || {
        black_box(place(black_box(&mapped), &lib, &opts).expect("place"));
    });
    let placed = place(&mapped, &lib, &opts).expect("place");
    bench("place_and_route_des/routing", K, || {
        route(black_box(&mapped), &lib, &placed, &RouteOptions::default()).expect("route");
    });
}

fn bench_wddl_library(filter: &str) {
    if !"wddl_derive_base_cells".contains(filter) {
        return;
    }
    let lib = Library::lib180();
    bench("wddl_derive_base_cells", K, || {
        let mut w = WddlLibrary::new(black_box(&lib));
        black_box(w.derive_base_cells());
    });
}

fn bench_lec(filter: &str) {
    if !"lec_fat_vs_original_des".contains(filter) {
        return;
    }
    let lib = Library::lib180();
    let design = des_dpa_design();
    let mapped = map_design(&design, &lib, &MapOptions::default()).expect("map");
    let sub = substitute(&mapped, &lib).expect("substitute");
    bench("lec_fat_vs_original_des", K, || {
        check_equiv_with_parity(
            black_box(&mapped),
            &lib,
            &sub.fat,
            &sub.fat_lib,
            Some(&sub.fat_output_parity),
            Some(&sub.fat_register_parity),
        )
        .expect("lec");
    });
}

fn bench_power_sim_and_attack(filter: &str) {
    if !"dpa_pipeline".contains(filter) {
        return;
    }
    let lib = Library::lib180();
    let design = des_dpa_design();
    let secure = run_secure_flow(&design, &lib, &FlowOptions::default()).expect("flow");
    let cfg = SimConfig {
        samples_per_cycle: 200,
        ..Default::default()
    };
    let target = DesTarget {
        netlist: &secure.substitution.differential,
        lib: &secure.substitution.diff_lib,
        parasitics: Some(&secure.parasitics),
        wddl_inputs: Some(&secure.substitution.input_pairs),
        glitch_free: false,
        backend: SimBackend::Event,
    };
    bench("dpa_pipeline/simulate_50_encryptions_wddl", K, || {
        black_box(collect_des_traces(black_box(&target), &cfg, 46, 50, 1).expect("campaign"));
    });
    let set = collect_des_traces(&target, &cfg, 46, 200, 1).expect("campaign");
    bench("dpa_pipeline/dpa_attack_200_traces_64_keys", K, || {
        black_box(dpa_attack(black_box(&set.traces), 64, set.selector()).expect("dpa"));
    });
}

fn bench_exec_speedup(filter: &str) {
    if !"exec_speedup".contains(filter) {
        return;
    }
    let lib = Library::lib180();
    let design = des_dpa_design();
    let mapped = map_design(&design, &lib, &MapOptions::default()).expect("map");
    let cfg = SimConfig {
        samples_per_cycle: 200,
        ..Default::default()
    };
    let target = DesTarget {
        netlist: &mapped,
        lib: &lib,
        parasitics: None,
        wddl_inputs: None,
        glitch_free: false,
        backend: SimBackend::Event,
    };
    let n = 64;
    let threads = secflow_exec::effective_threads();
    let serial = time_median(&format!("exec_speedup/serial_{n}_encryptions"), K, || {
        secflow_exec::with_threads(1, || {
            black_box(collect_des_traces(black_box(&target), &cfg, 46, n, 1).expect("campaign"));
        });
    });
    let parallel = time_median(
        &format!("exec_speedup/parallel_{n}_encryptions_t{threads}"),
        K,
        || {
            black_box(collect_des_traces(black_box(&target), &cfg, 46, n, 1).expect("campaign"));
        },
    );
    println!("{}", serial.json_line());
    println!("{}", parallel.json_line());
    let speedup = serial.median_ns as f64 / parallel.median_ns as f64;
    let json = format!(
        "{{\"bench\":\"exec_speedup\",\"threads\":{threads},\
         \"serial_median_ns\":{},\"parallel_median_ns\":{},\
         \"speedup\":{speedup:.3},\"k\":{K}}}",
        serial.median_ns, parallel.median_ns
    );
    println!("{json}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/BENCH_exec_speedup.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Compiled kernel vs the original per-window-setup engine, on the
/// same windowed WDDL trace campaign the DPA harness runs. The
/// baseline is the frozen pre-compiled engine
/// ([`secflow_bench::seed_engine`]), which simulates and accounts
/// every window cycle; the compiled arm measures only the leak cycle,
/// as campaigns do, and since the design settles it event-simulates
/// only that cycle (DESIGN.md §16), so the ratio includes the
/// fast-forward. Both are timed serially (thread count pinned to 1)
/// so the measured ratio is pure kernel speedup, not parallelism.
/// Results go to `results/BENCH_sim_kernel.json`;
/// `--smoke` shrinks the campaign and skips the JSON (a CI
/// compile-and-run check, not a measurement).
fn bench_sim_kernel(filter: &str, smoke: bool) {
    if !"sim_kernel".contains(filter) {
        return;
    }
    use secflow_rand::{RngExt, SeedableRng, StdRng};
    use secflow_sim::{CompiledSim, EngineScratch, LoadModel};

    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("map");
    let sub = substitute(&mapped, &lib).expect("substitute");
    let nl = &sub.differential;
    let wlib = &sub.diff_lib;
    let pairs = &sub.input_pairs[..];
    let cfg = SimConfig {
        samples_per_cycle: 100,
        ..Default::default()
    };
    let key = 46u8;
    let n = if smoke { 8 } else { 256 };
    let k = if smoke { 1 } else { K };

    let mut rng = StdRng::seed_from_u64(1);
    let plaintexts: Vec<(u8, u8)> = (0..n)
        .map(|_| (rng.random_range(0..16u8), rng.random_range(0..64u8)))
        .collect();
    let vector = |pl: u8, pr: u8| -> Vec<bool> {
        let mut v = Vec::with_capacity(16);
        for i in 0..4 {
            v.push(pl >> i & 1 == 1);
        }
        for i in 0..6 {
            v.push(pr >> i & 1 == 1);
        }
        for i in 0..6 {
            v.push(key >> i & 1 == 1);
        }
        v
    };
    // The harness's window decomposition: h history cycles, the
    // leakage cycle, two flush cycles.
    let windows: Vec<Vec<Vec<bool>>> = (0..n)
        .map(|i| {
            let h = i.min(2);
            let mut vectors: Vec<Vec<bool>> = Vec::with_capacity(h + 3);
            for j in (i - h)..=i {
                let (pl, pr) = plaintexts[j];
                vectors.push(vector(pl, pr));
            }
            vectors.push(vector(0, 0));
            vectors.push(vector(0, 0));
            vectors
        })
        .collect();
    let spc = cfg.samples_per_cycle;

    // Each campaign returns every leakage-cycle (trace, energy).
    let baseline = || -> Vec<(Vec<f64>, f64)> {
        let load = LoadModel::try_build(nl, wlib, None).unwrap();
        windows
            .iter()
            .map(|vectors| {
                let r = secflow_bench::seed_engine::simulate_wddl_window(
                    nl, wlib, &load, &cfg, pairs, vectors,
                );
                let leak = vectors.len() - 2 - 1;
                (
                    r.trace[leak * spc..(leak + 1) * spc].to_vec(),
                    r.cycle_energy_fj[leak],
                )
            })
            .collect()
    };
    let compiled = || -> Vec<(Vec<f64>, f64)> {
        let load = LoadModel::try_build(nl, wlib, None).unwrap();
        let comp = CompiledSim::build(nl, wlib, &load, &cfg).expect("compiles");
        let mut scratch = EngineScratch::new();
        windows
            .iter()
            .map(|vectors| {
                let leak = vectors.len() - 2 - 1;
                comp.run_wddl(&mut scratch, pairs, vectors, leak..=leak);
                (
                    scratch.cycle_trace(leak).to_vec(),
                    scratch.cycle_energy_fj()[leak],
                )
            })
            .collect()
    };

    // The baseline only earns its name if it is bit-for-bit the same
    // function: any drift would make the speedup meaningless.
    let a = baseline();
    let b = compiled();
    assert_eq!(a.len(), b.len());
    for (i, ((ta, ea), (tb, eb))) in a.iter().zip(&b).enumerate() {
        assert_eq!(ea.to_bits(), eb.to_bits(), "energy {i} diverged");
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ta), bits(tb), "trace {i} diverged");
    }

    let base = secflow_exec::with_threads(1, || {
        time_median(
            &format!("sim_kernel/per_window_setup_{n}_encryptions"),
            k,
            || {
                black_box(baseline());
            },
        )
    });
    let comp = secflow_exec::with_threads(1, || {
        time_median(&format!("sim_kernel/compiled_{n}_encryptions"), k, || {
            black_box(compiled());
        })
    });
    println!("{}", base.json_line());
    println!("{}", comp.json_line());
    let speedup = base.median_ns as f64 / comp.median_ns as f64;
    let json = format!(
        "{{\"bench\":\"sim_kernel\",\"threads\":1,\"n_encryptions\":{n},\
         \"baseline_median_ns\":{},\"compiled_median_ns\":{},\
         \"speedup\":{speedup:.3},\"k\":{k}}}",
        base.median_ns, comp.median_ns
    );
    println!("{json}");
    if smoke {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/BENCH_sim_kernel.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Bit-sliced campaign kernel vs the compiled event kernel, on the
/// same WDDL trace campaign the DPA harness runs. Both arms go through
/// [`collect_des_traces`] — the event backend simulates one window per
/// encryption, the bit-sliced backend packs up to 64 encryptions per
/// `u64` lane batch — so the measured ratio is the end-to-end campaign
/// speedup an experiment binary sees from `--sim-backend bitslice`.
/// Both are timed serially (thread count pinned to 1) so the ratio is
/// pure kernel speedup, not parallelism. A bit-for-bit trace
/// comparison runs before timing: the speedup is only meaningful if
/// the two kernels are the same function. Results go to
/// `results/BENCH_sim_bitslice.json`; `--smoke` shrinks the campaign
/// and skips the JSON.
fn bench_sim_bitslice(filter: &str, smoke: bool) {
    if !"sim_bitslice".contains(filter) {
        return;
    }
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("map");
    let sub = substitute(&mapped, &lib).expect("substitute");
    let cfg = SimConfig {
        samples_per_cycle: 100,
        ..Default::default()
    };
    let key = 46u8;
    // 1024 encryptions: the same order of magnitude as the paper's
    // Fig. 6 campaigns (2000 traces), and enough full 64-lane batches
    // that the ragged warm-up batches and the one-time build cost
    // amortize out of the ratio.
    let n = if smoke { 8 } else { 1024 };
    let k = if smoke { 1 } else { K };
    let target = |backend: SimBackend| DesTarget {
        netlist: &sub.differential,
        lib: &sub.diff_lib,
        parasitics: None,
        wddl_inputs: Some(&sub.input_pairs),
        glitch_free: false,
        backend,
    };
    let event = target(SimBackend::Event);
    let bitslice = target(SimBackend::Bitslice);
    let campaign = |t: &DesTarget| collect_des_traces(t, &cfg, key, n, 1).expect("campaign");

    // The speedup is only meaningful if both kernels are the same
    // function: byte-compare every trace sample before timing.
    let a = campaign(&event);
    let b = campaign(&bitslice);
    assert_eq!(a.ciphertexts, b.ciphertexts, "ciphertexts diverged");
    assert_eq!(a.traces.len(), b.traces.len());
    for (i, (ta, tb)) in a.traces.iter().zip(&b.traces).enumerate() {
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ta), bits(tb), "trace {i} diverged");
    }

    let base = secflow_exec::with_threads(1, || {
        time_median(&format!("sim_bitslice/event_{n}_encryptions"), k, || {
            black_box(campaign(&event));
        })
    });
    let bs = secflow_exec::with_threads(1, || {
        time_median(&format!("sim_bitslice/bitslice_{n}_encryptions"), k, || {
            black_box(campaign(&bitslice));
        })
    });
    println!("{}", base.json_line());
    println!("{}", bs.json_line());
    let speedup = base.median_ns as f64 / bs.median_ns as f64;
    let json = format!(
        "{{\"bench\":\"sim_bitslice\",\"threads\":1,\"n_encryptions\":{n},\
         \"event_median_ns\":{},\"bitslice_median_ns\":{},\
         \"speedup\":{speedup:.3},\"k\":{k}}}",
        base.median_ns, bs.median_ns
    );
    println!("{json}");
    if smoke {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/BENCH_sim_bitslice.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Cost of the observability layer on the DPA trace campaign, in both
/// of its states: disabled (the default NoopSink path — one relaxed
/// atomic load per instrumentation point) and enabled (per-thread
/// sinks recording). The disabled overhead cannot be measured
/// differentially at runtime (the instrumentation is compiled in), so
/// it is bounded from measurements: per-call disabled cost × the exact
/// number of disabled-path checks the campaign executes (derived from
/// an enabled run's own counters). Results go to
/// `results/BENCH_obs_overhead.json`; the noop bound must stay < 1 %.
fn bench_obs_overhead(filter: &str, smoke: bool) {
    if !"obs_overhead".contains(filter) {
        return;
    }
    use secflow_obs::{self as obs, Counter};

    // (a) Per-call cost of the disabled path.
    assert!(!obs::enabled(), "obs must be disabled for the baseline");
    let iters: u64 = if smoke { 200_000 } else { 4_000_000 };
    let t = std::time::Instant::now();
    for _ in 0..iters {
        obs::add(black_box(Counter::SimWindows), black_box(1));
    }
    let add_ns = t.elapsed().as_nanos() as f64 / iters as f64;

    // (b) The campaign, with observability off and on.
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("map");
    let cfg = SimConfig {
        samples_per_cycle: 100,
        ..Default::default()
    };
    let target = DesTarget {
        netlist: &mapped,
        lib: &lib,
        parasitics: None,
        wddl_inputs: None,
        glitch_free: false,
        backend: SimBackend::Event,
    };
    let n = if smoke { 8 } else { 64 };
    let k = if smoke { 1 } else { K };
    // Pinned serial so the measured deltas are instrumentation cost,
    // not scheduling noise.
    let campaign = || {
        secflow_exec::with_threads(1, || {
            black_box(collect_des_traces(black_box(&target), &cfg, 46, n, 1).expect("campaign"));
        });
    };
    // Interleaved A/B rounds: the disabled and enabled campaigns
    // alternate within each round so clock-frequency and cache drift
    // hit both arms equally (sequential block-of-K measurement showed
    // ±20 % drift swamping the real delta on shared machines).
    campaign(); // warm-up: page in code and data, fill caches
    let mut windows = 0u64;
    let mut regions = 0u64;
    let mut dis_ns: Vec<u128> = Vec::with_capacity(k);
    let mut en_ns: Vec<u128> = Vec::with_capacity(k);
    for _ in 0..k {
        let t = std::time::Instant::now();
        campaign();
        dis_ns.push(t.elapsed().as_nanos());
        let t = std::time::Instant::now();
        let ((), report) = obs::capture(campaign);
        en_ns.push(t.elapsed().as_nanos());
        windows = report.counter(Counter::SimWindows);
        regions = report.counter(Counter::ExecRegions);
    }
    let measurement = |name: &str, runs: &[u128]| {
        let mut sorted = runs.to_vec();
        sorted.sort_unstable();
        Measurement {
            name: name.to_string(),
            runs_ns: runs.to_vec(),
            median_ns: sorted[sorted.len() / 2],
            min_ns: sorted[0],
            max_ns: *sorted.last().expect("k > 0"),
        }
    };
    let disabled = measurement("obs_overhead/campaign_disabled", &dis_ns);
    let enabled = measurement("obs_overhead/campaign_enabled", &en_ns);
    println!("{}", disabled.json_line());
    println!("{}", enabled.json_line());

    // Disabled-path checks per campaign: one `enabled()` gate per
    // window, a handful per exec region (region id, span, worker
    // gate), and a fixed few per campaign (campaign span, trace
    // counter). Bounded generously.
    let noop_calls = windows + regions * 4 + 16;
    let noop_pct = noop_calls as f64 * add_ns / disabled.median_ns as f64 * 100.0;
    let enabled_pct =
        (enabled.median_ns as f64 / disabled.median_ns as f64 - 1.0) * 100.0;
    assert!(
        noop_pct < 1.0,
        "disabled observability must stay below 1% of campaign time \
         (bound: {noop_pct:.4}%)"
    );
    let json = format!(
        "{{\"bench\":\"obs_overhead\",\"threads\":1,\"n_encryptions\":{n},\
         \"disabled_add_ns_per_op\":{add_ns:.3},\
         \"campaign_disabled_median_ns\":{},\
         \"campaign_enabled_median_ns\":{},\
         \"noop_calls_per_campaign\":{noop_calls},\
         \"noop_overhead_pct\":{noop_pct:.5},\
         \"enabled_overhead_pct\":{enabled_pct:.3},\"k\":{k}}}",
        disabled.median_ns, enabled.median_ns
    );
    println!("{json}");
    if smoke {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/BENCH_obs_overhead.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Warm-vs-cold latency of the persistent job server's
/// content-addressed cache (`secflow-serve`), on the fig6 smoke
/// campaign (secure DES implementation, DPA, 150 traces). The cold
/// submission executes the whole map → substitute → place → route →
/// decompose → extract → compile → simulate → attack pipeline; the
/// warm resubmission of the *same* request is answered from the
/// response cache. The payloads must be byte-identical — the speedup
/// is only meaningful if the cache returns exactly what the pipeline
/// would. Results go to `results/BENCH_serve_cache.json`; the warm
/// path must be at least 5× faster. `--smoke` shrinks the campaign
/// and skips the JSON.
fn bench_serve_cache(filter: &str, smoke: bool) {
    if !"serve_cache".contains(filter) {
        return;
    }
    use secflow_serve::{proto::canonical_json, Engine, Request, Value};

    let n = if smoke { 8 } else { 150 };
    let tuning = if smoke {
        r#","options":{"anneal_moves_per_gate":4,"verify":false},"sim":{"samples_per_cycle":40}"#
    } else {
        ""
    };
    let req_text =
        format!(r#"{{"job":"campaign","attack":"dpa","n":{n},"seed":1,"key":46{tuning}}}"#);
    let request = Request::parse(req_text.as_bytes()).expect("request parses");
    let canonical = canonical_json(&Value::parse(&req_text).expect("request is JSON"));
    let engine = Engine::new(256 << 20, None);

    let t = std::time::Instant::now();
    let cold = engine.execute(&canonical, &request).expect("cold job");
    let cold_ns = t.elapsed().as_nanos();
    assert!(!cold.cached_response, "first submission must miss");
    let cold_m = Measurement {
        name: "serve_cache/cold_campaign".to_string(),
        runs_ns: vec![cold_ns],
        median_ns: cold_ns,
        min_ns: cold_ns,
        max_ns: cold_ns,
    };

    // One warm run up front pins the contract the speedup rests on:
    // the resubmission is served from cache, byte-identical.
    let warm = engine.execute(&canonical, &request).expect("warm job");
    assert!(warm.cached_response, "resubmission must hit the cache");
    assert_eq!(
        cold.payload, warm.payload,
        "cached payload must be byte-identical to the cold run"
    );

    let k = if smoke { 1 } else { K };
    let warm_m = time_median("serve_cache/warm_resubmission", k, || {
        let out = engine.execute(&canonical, &request).expect("warm job");
        assert!(out.cached_response);
        black_box(out);
    });
    println!("{}", cold_m.json_line());
    println!("{}", warm_m.json_line());
    let speedup = cold_ns as f64 / warm_m.median_ns as f64;
    let json = format!(
        "{{\"bench\":\"serve_cache\",\"n_traces\":{n},\
         \"cold_ns\":{cold_ns},\"warm_median_ns\":{},\
         \"speedup\":{speedup:.1},\"byte_identical\":true,\"k\":{k}}}",
        warm_m.median_ns
    );
    println!("{json}");
    if smoke {
        return;
    }
    assert!(
        speedup >= 5.0,
        "warm cache must be at least 5x faster (got {speedup:.1}x)"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/BENCH_serve_cache.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Peak resident-set size in kB (`VmHWM` from `/proc/self/status`),
/// where the platform exposes it. A high-water mark, so arm ordering
/// matters: the streaming arm runs first, and the materialize arm's
/// later reading shows how far the trace matrix pushed the peak.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The fused streaming campaign (bit-sliced kernel feeding the
/// one-pass accumulators) against the materialize-then-attack path it
/// replaces: `collect_des_traces` (event kernel — the pre-streaming
/// default) building the full trace matrix, then the batch DPA +
/// MTD scan over it. All arms are timed serially (thread count pinned
/// to 1, the same discipline as `sim_bitslice`) so the ratio is
/// per-core throughput of the pipeline itself, not parallelism. A
/// byte-identity check runs before timing — the speedup is only
/// meaningful if both paths compute the same statistics. The
/// materialized bit-sliced arm is also timed so the JSON separates
/// kernel gain from fusion gain. Results go to
/// `results/BENCH_stream_1m.json`; the fused path must deliver at
/// least 5× the baseline's traces/sec. `--smoke` shrinks the campaign
/// and skips the JSON and the floor.
fn bench_stream_1m(filter: &str, smoke: bool) {
    if !"stream_1m".contains(filter) {
        return;
    }
    use secflow_dpa::harness::{
        analyze_trace_set, collect_des_analysis_streaming, collect_des_traces_with, AnalysisPlan,
        CampaignProgram,
    };

    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("map");
    let sub = substitute(&mapped, &lib).expect("substitute");
    let cfg = SimConfig {
        samples_per_cycle: 100,
        ..Default::default()
    };
    let key = 46u8;
    let n = if smoke { 64 } else { 8192 };
    let k = if smoke { 1 } else { 3 };
    let chunk = 4096;
    let plan = AnalysisPlan {
        n_keys: 64,
        correct_key: key,
        step: Some((n / 40).max(10)),
        dpa: true,
        cpa: false,
    };
    let target = |backend: SimBackend| DesTarget {
        netlist: &sub.differential,
        lib: &sub.diff_lib,
        parasitics: None,
        wddl_inputs: Some(&sub.input_pairs),
        glitch_free: false,
        backend,
    };
    let event = target(SimBackend::Event);
    let bitslice = target(SimBackend::Bitslice);
    let bs_program = CampaignProgram::build(&bitslice, &cfg).expect("bitslice program");
    let ev_program = CampaignProgram::build(&event, &cfg).expect("event program");
    let stream = || {
        collect_des_analysis_streaming(&bs_program, &bitslice, &cfg, key, n, 1, &plan, chunk, None)
            .expect("streaming campaign")
    };
    let materialize = |program: &CampaignProgram, t: &DesTarget| {
        let set = collect_des_traces_with(program, t, &cfg, key, n, 1).expect("campaign");
        analyze_trace_set(&set, &plan).expect("analysis")
    };

    // The ratio is only meaningful if all three arms are the same
    // function: the event and bit-sliced kernels are differentially
    // tested elsewhere, and the streaming accumulators must reproduce
    // the batch statistics exactly.
    let a = stream();
    assert!(
        a == materialize(&ev_program, &event),
        "stream vs event-materialize diverged"
    );
    assert!(
        a == materialize(&bs_program, &bitslice),
        "stream vs bitslice-materialize diverged"
    );

    let stream_m = secflow_exec::with_threads(1, || {
        time_median(&format!("stream_1m/stream_bitslice_{n}"), k, || {
            black_box(stream());
        })
    });
    let stream_rss = peak_rss_kb();
    let mat_bs_m = secflow_exec::with_threads(1, || {
        time_median(&format!("stream_1m/materialize_bitslice_{n}"), k, || {
            black_box(materialize(&bs_program, &bitslice));
        })
    });
    let mat_ev_m = secflow_exec::with_threads(1, || {
        time_median(&format!("stream_1m/materialize_event_{n}"), k, || {
            black_box(materialize(&ev_program, &event));
        })
    });
    let mat_rss = peak_rss_kb();
    println!("{}", stream_m.json_line());
    println!("{}", mat_bs_m.json_line());
    println!("{}", mat_ev_m.json_line());

    let tps = |m: &Measurement| n as f64 / (m.median_ns as f64 / 1e9);
    let speedup = tps(&stream_m) / tps(&mat_ev_m);
    let json = format!(
        "{{\"bench\":\"stream_1m\",\"threads\":1,\"n_traces\":{n},\"chunk\":{chunk},\
         \"stream_traces_per_sec\":{:.0},\"materialize_event_traces_per_sec\":{:.0},\
         \"materialize_bitslice_traces_per_sec\":{:.0},\"speedup\":{speedup:.1},\
         \"stream_peak_rss_kb\":{},\"materialize_peak_rss_kb\":{},\
         \"byte_identical\":true,\"k\":{k}}}",
        tps(&stream_m),
        tps(&mat_ev_m),
        tps(&mat_bs_m),
        stream_rss.map_or("null".to_string(), |v| v.to_string()),
        mat_rss.map_or("null".to_string(), |v| v.to_string()),
    );
    println!("{json}");
    if smoke {
        return;
    }
    assert!(
        speedup >= 5.0,
        "fused streaming must deliver at least 5x the materialize-then-attack \
         baseline's throughput (got {speedup:.1}x)"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/BENCH_stream_1m.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    // `cargo bench -- <substring>` runs only matching groups; the
    // harness also swallows libtest-style flags cargo may pass.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    let smoke = std::env::args().any(|a| a == "--smoke");
    const GROUPS: [&str; 12] = [
        "cell_substitution",
        "interconnect_decomposition_des",
        "place_and_route_des",
        "wddl_derive_base_cells",
        "lec_fat_vs_original_des",
        "dpa_pipeline",
        "exec_speedup",
        "sim_kernel",
        "sim_bitslice",
        "obs_overhead",
        "serve_cache",
        "stream_1m",
    ];
    if !GROUPS.iter().any(|g| g.contains(filter.as_str())) {
        eprintln!("no bench group matches `{filter}`; groups: {GROUPS:?}");
        return;
    }
    bench_substitution(&filter);
    bench_decomposition(&filter);
    bench_pnr(&filter);
    bench_wddl_library(&filter);
    bench_lec(&filter);
    bench_power_sim_and_attack(&filter);
    bench_exec_speedup(&filter);
    bench_sim_kernel(&filter, smoke);
    bench_sim_bitslice(&filter, smoke);
    bench_obs_overhead(&filter, smoke);
    bench_serve_cache(&filter, smoke);
    bench_stream_1m(&filter, smoke);
}
