//! The benchmark's own spans and the per-layer numbers of a traced run.
//!
//! A [`Tracer`] wraps each call the benchmark makes into a layer's
//! public function in a span (name, start, end, parent, operation
//! index). Spans stay in memory; [`write_chrome_trace`] writes them out,
//! together with the `secflow-obs` spans recorded inside the program,
//! when the run ends. [`layer_metrics`] turns both into the per-layer
//! metrics of `BENCHMARK.json`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use secflow_obs::json::{Arr, Obj};
use secflow_obs::{Counter, Gauge, Report};

use crate::run::{median, Pass};

/// One recorded benchmark span. Times are ns since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
    pub thread: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    };
}

/// Records spans when on; a disabled tracer only runs the wrapped call.
pub struct Tracer {
    t0: Option<Instant>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            t0: None,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            t0: Some(Instant::now()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let Some(t0) = self.t0 else {
            return f();
        };
        let idx = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start_ns: t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: OPEN.with(|o| o.borrow().last().copied()),
                op,
                thread: THREAD.with(|t| *t),
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(idx));
        let r = f();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans.lock().expect("span list poisoned")[idx].end_ns = t0.elapsed().as_nanos() as u64;
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Root span of every measured operation; per-layer shares are taken
/// of the summed duration of these.
pub const OP: &str = "op";
/// Benchmark span around `CampaignProgram::build`, which records no
/// `secflow-obs` span of its own.
pub const PROGRAM_BUILD: &str = "sim.program_build";
/// Benchmark span around the streaming accumulators fed outside the
/// fused campaign loop, which record no `secflow-obs` span either.
pub const ACCUMULATE: &str = "dpa.accumulate";

/// The layer a `secflow-obs` span name belongs to.
fn obs_layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "synth" => "synth.map",
        "substitute" => "core.substitute",
        "decompose" => "core.decompose",
        "railcheck" => "core.railcheck",
        "place" => "pnr.place",
        "route" => "pnr.route",
        "extract" => "extract.extract",
        "lec" => "lec.check",
        "dpa.campaign" => "sim.campaign",
        "dpa.attack" | "dpa.mtd_scan" | "dpa.cpa" | "dpa.cpa_mtd_scan" => "dpa.attack",
        "dpa.campaign.stream" => "dpa.stream",
        _ => return None,
    })
}

/// The layers reported as a share of operation time, in report order.
const SHARE_LAYERS: [&str; 13] = [
    "synth.map",
    "core.substitute",
    "core.decompose",
    "core.railcheck",
    "pnr.place",
    "pnr.route",
    "extract.extract",
    "lec.check",
    "flow.unattributed",
    "sim.program_build",
    "sim.campaign",
    "dpa.attack",
    "dpa.stream",
];

/// Seconds spent in each layer: the `secflow-obs` stage spans plus the
/// benchmark spans around calls the program does not instrument. A
/// span nested in another span of a layer counts toward the outer one.
fn layer_seconds(report: &Report, spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut secs: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in &report.spans {
        let parts: Vec<&str> = s.path.split('/').collect();
        let (leaf, ancestors) = parts.split_last().expect("span paths are non-empty");
        let dur = s.dur_ns as f64 * 1e-9;
        if leaf.starts_with("flow.") && ancestors.is_empty() {
            *secs.entry("flow.unattributed").or_default() += dur;
            continue;
        }
        let Some(layer) = obs_layer(leaf) else {
            continue;
        };
        if ancestors.iter().any(|a| obs_layer(a).is_some()) {
            continue;
        }
        *secs.entry(layer).or_default() += dur;
        if ancestors.len() == 1 && ancestors[0].starts_with("flow.") {
            *secs.entry("flow.unattributed").or_default() -= dur;
        }
    }
    for s in spans {
        let layer = match s.name {
            PROGRAM_BUILD => "sim.program_build",
            ACCUMULATE => "dpa.attack",
            _ => continue,
        };
        *secs.entry(layer).or_default() += s.secs();
    }
    secs
}

/// Worker busy time over (parallel-region wall × workers), from the
/// `secflow-exec` worker records.
fn exec_busy_frac(report: &Report) -> f64 {
    let busy: u64 = report.workers.iter().map(|w| w.busy_ns).sum();
    let workers = report
        .workers
        .iter()
        .map(|w| u64::from(w.worker) + 1)
        .max()
        .unwrap_or(0);
    let region_wall: u64 = report
        .spans
        .iter()
        .filter(|s| s.name() == "exec.region")
        .map(|s| s.dur_ns)
        .sum();
    ratio(busy as f64, (region_wall * workers) as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass, as `(name, unit, value)`
/// in `BENCHMARK.json` order.
pub fn layer_metrics(
    report: &Report,
    spans: &[Span],
    pass: &Pass,
    overhead_pct: f64,
) -> Vec<(String, &'static str, f64)> {
    let op_secs: f64 = spans.iter().filter(|s| s.name == OP).map(Span::secs).sum();
    let ops = spans.iter().filter(|s| s.name == OP).count() as f64;
    let secs = layer_seconds(report, spans);
    let layer = |l: &str| secs.get(l).copied().unwrap_or(0.0);
    let c = |k: Counter| report.counter(k) as f64;
    let per_op = |k: Counter| ratio(c(k), ops);
    let gauge = |g: Gauge| report.gauge(g) as f64;
    // Serve jobs whose reply came from the response cache, and the rest.
    let jobs = |hit: bool| -> Vec<f64> {
        let r = pass.records.iter().filter(|r| r.cached == Some(hit));
        r.map(|r| r.secs).collect()
    };
    let (hits, misses) = (jobs(true), jobs(false));
    let (n_hits, n_misses) = (hits.len() as f64, misses.len() as f64);
    let stage_hits = c(Counter::ServeCacheHits) - n_hits;
    let stage_lookups = stage_hits + c(Counter::ServeCacheMisses) - n_misses;

    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64| {
        out.push((name.to_string(), unit, value));
    };
    for l in SHARE_LAYERS {
        put(&format!("{l}_pct"), "%", 100.0 * ratio(layer(l), op_secs));
    }
    let attributed: f64 = SHARE_LAYERS.iter().map(|l| layer(l)).sum();
    let unattributed = ratio(op_secs - attributed, op_secs);
    put("op.unattributed_pct", "%", 100.0 * unattributed);
    put("pnr.place_moves", "count", per_op(Counter::PlaceMoves));
    put("pnr.route_ripups", "count", per_op(Counter::RouteRipups));
    put(
        "pnr.route_iterations",
        "count",
        per_op(Counter::RouteIterations),
    );
    let ripups = ratio(c(Counter::RouteRipups), c(Counter::RouteNets));
    put("pnr.ripups_per_net", "ratio", ripups);
    let moves = ratio(c(Counter::PlaceMoves), layer("pnr.place"));
    put("pnr.place_moves_per_s", "1/s", moves);
    let nets = ratio(c(Counter::RouteNets), layer("pnr.route"));
    put("pnr.route_nets_per_s", "1/s", nets);
    put(
        "extract.couplings",
        "count",
        per_op(Counter::ExtractCouplings),
    );
    put(
        "lec.ite_cache_hits",
        "count",
        per_op(Counter::LecIteCacheHits),
    );
    put("lec.bdd_peak_nodes", "count", gauge(Gauge::LecBddPeakNodes));
    put("sim.events", "count", per_op(Counter::SimEvents));
    put(
        "sim.bitslice.events",
        "count",
        per_op(Counter::SimBitsliceEvents),
    );
    put("dpa.traces", "count", per_op(Counter::DpaTraces));
    put("exec.busy_frac", "ratio", exec_busy_frac(report));
    let response_hits = ratio(n_hits, n_hits + n_misses);
    put("serve.response_hit_ratio", "ratio", response_hits);
    put(
        "serve.stage_hit_ratio",
        "ratio",
        ratio(stage_hits, stage_lookups),
    );
    let latency = ratio(median(&hits), median(&misses));
    put("serve.hit_latency_ratio", "ratio", latency);
    put("serve.queue_peak", "count", gauge(Gauge::ServeQueuePeak));
    put("trace.overhead_pct", "%", overhead_pct);
    out
}

/// Writes the benchmark spans (pid 1) and the `secflow-obs` spans
/// (pid 0) of a traced pass as one chrome://tracing document.
pub fn write_chrome_trace(
    path: &std::path::Path,
    report: &Report,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut events = Arr::new();
    for s in spans {
        let mut args = Obj::new();
        args.u64("op", s.op);
        if let Some(p) = s.parent {
            args.u64("parent", p as u64);
        }
        let mut o = Obj::new();
        o.str("name", s.name)
            .str("cat", "secbench")
            .str("ph", "X")
            .f64("ts", s.start_ns as f64 / 1e3)
            .f64("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
            .u64("pid", 1)
            .u64("tid", s.thread)
            .raw("args", &args.build());
        events.raw(&o.build());
    }
    for s in &report.spans {
        let mut args = Obj::new();
        args.str("path", &s.path);
        let mut o = Obj::new();
        o.str("name", s.name())
            .str("cat", "secflow")
            .str("ph", "X")
            .f64("ts", s.start_ns as f64 / 1e3)
            .f64("dur", s.dur_ns as f64 / 1e3)
            .u64("pid", 0)
            .u64("tid", u64::from(s.tid))
            .raw("args", &args.build());
        events.raw(&o.build());
    }
    let mut doc = Obj::new();
    doc.raw("traceEvents", &events.build())
        .str("displayTimeUnit", "ms");
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.build() + "\n")
}
