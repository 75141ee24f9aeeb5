//! `secflow-obs` — deterministic, zero-cost-when-disabled
//! observability for the secure design flow.
//!
//! The flow's contract is that **stdout is byte-identical** across
//! thread counts and across obs-on/obs-off runs. This crate therefore
//! splits observability into two strictly separated halves:
//!
//! - **Counters and gauges** are deterministic facts about the work
//!   performed (events simulated, nets routed, rip-ups, cache hits).
//!   Where the underlying contract is thread-count invariant (per-window
//!   simulation counters, per-net routing counters), their sums are too,
//!   and tests pin them. They may appear anywhere.
//! - **Timing** (span durations, worker busy time) is monotonic
//!   wall-clock and inherently non-deterministic. It is recorded only
//!   into the side-channel artifacts (`OBS_*.json`, chrome trace),
//!   never printed to stdout.
//!
//! When no session is active every instrumentation call is a single
//! relaxed atomic load and an early return — the "NoopSink". The
//! `flow_stages` bench (`obs_overhead` group) pins this at <1% of the
//! simulation kernel's cost.
//!
//! # Usage
//!
//! ```
//! use secflow_obs as obs;
//!
//! let (result, report) = obs::capture(|| {
//!     let _flow = obs::span("flow.demo");
//!     {
//!         let _s = obs::span("route");
//!         obs::add(obs::Counter::RouteNets, 42);
//!     }
//!     "done"
//! });
//! assert_eq!(result, "done");
//! assert_eq!(report.counter(obs::Counter::RouteNets), 42);
//! assert!(report.has_span("route"));
//! ```
//!
//! Worker threads (the `secflow-exec` pool) record into thread-local
//! sinks and publish them with [`flush_thread`] before the pool scope
//! ends; merging is commutative (counter sums, gauge maxima) so the
//! merged totals do not depend on worker scheduling.

pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Version tag stamped into every metrics document. Bump on any
/// backwards-incompatible change to the export shape;
/// `scripts/obs_schema_check.py` validates against it.
pub const SCHEMA: &str = "secflow-obs/1";

// ---------------------------------------------------------------------------
// Counter / gauge catalog
// ---------------------------------------------------------------------------

/// Typed counters. Merged across threads by summation, so every
/// counter must be a commutative count of work items.
///
/// Names are dot-separated `<subsystem>.<metric>` and are part of the
/// metrics schema: renaming one is a schema break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Simulation windows executed (one per traced encryption).
    SimWindows,
    /// Timing-wheel events drained by the compiled kernel.
    SimEvents,
    /// Combinational gate evaluations triggered by those events.
    SimEvals,
    /// 0→1 output transitions recorded (the power model's currency).
    SimRises,
    /// Lane batches executed by the bit-sliced kernel.
    SimBitsliceBatches,
    /// Live lanes across those batches (= windows simulated).
    SimBitsliceLanes,
    /// Masked timing-wheel events drained by the bit-sliced kernel.
    SimBitsliceEvents,
    /// Masked gate-word evaluations in the bit-sliced kernel.
    SimBitsliceEvals,
    /// Per-lane rising transitions recorded by the bit-sliced kernel.
    SimBitsliceRises,
    /// Power traces collected across DPA/CPA campaigns.
    DpaTraces,
    /// Key guesses evaluated by DPA/CPA attacks.
    DpaGuesses,
    /// Trace blocks folded into streaming DPA/CPA accumulators.
    DpaStreamBlocks,
    /// Traces consumed by streaming accumulators.
    DpaStreamTraces,
    /// Incremental MTD checkpoints evaluated by streaming scans.
    DpaStreamCheckpoints,
    /// Class tables folded into per-guess sums at their budget of
    /// `2 · n_keys` signature classes.
    DpaStreamFolds,
    /// Annealing moves attempted by the placer.
    PlaceMoves,
    /// Annealing moves accepted.
    PlaceAccepted,
    /// Independent placement restarts run.
    PlaceRestarts,
    /// Nets successfully routed.
    RouteNets,
    /// Nets ripped up and re-routed by the negotiation loop.
    RouteRipups,
    /// PathFinder negotiation iterations.
    RouteIterations,
    /// Router A* open-list pops, stale entries included.
    RoutePops,
    /// Router searches run in a net's window and re-run on the whole
    /// grid because the window might have changed their path.
    RouteWindowEscalations,
    /// Nets extracted to parasitic RC.
    ExtractNets,
    /// Coupling-capacitor pairs identified during extraction.
    ExtractCouplings,
    /// Gates rewritten by WDDL cell substitution.
    SubstituteGates,
    /// Differential rail nets produced by interconnect decomposition.
    DecomposeRails,
    /// Primary outputs compared by equivalence checking.
    LecOutputs,
    /// Cell-definition memo hits while building netlist BDDs.
    LecCellMemoHits,
    /// BDD ITE-cache hits.
    LecIteCacheHits,
    /// Random-vector rounds run by the sampling-mode checker.
    LecRandomRounds,
    /// Parallel regions executed by the exec pool.
    ExecRegions,
    /// Work chunks claimed (stolen) by pool workers.
    ExecChunks,
    /// Items processed by pool workers.
    ExecItems,
    /// Jobs completed by the serve daemon (success or failure).
    ServeJobs,
    /// Artifact-cache hits (stage artifacts and response payloads).
    ServeCacheHits,
    /// Artifact-cache misses (entries built and inserted).
    ServeCacheMisses,
    /// Artifact-cache evictions under the `--cache-bytes` bound.
    ServeCacheEvicts,
}

impl Counter {
    pub const ALL: [Counter; 38] = [
        Counter::SimWindows,
        Counter::SimEvents,
        Counter::SimEvals,
        Counter::SimRises,
        Counter::SimBitsliceBatches,
        Counter::SimBitsliceLanes,
        Counter::SimBitsliceEvents,
        Counter::SimBitsliceEvals,
        Counter::SimBitsliceRises,
        Counter::DpaTraces,
        Counter::DpaGuesses,
        Counter::DpaStreamBlocks,
        Counter::DpaStreamTraces,
        Counter::DpaStreamCheckpoints,
        Counter::DpaStreamFolds,
        Counter::PlaceMoves,
        Counter::PlaceAccepted,
        Counter::PlaceRestarts,
        Counter::RouteNets,
        Counter::RouteRipups,
        Counter::RouteIterations,
        Counter::RoutePops,
        Counter::RouteWindowEscalations,
        Counter::ExtractNets,
        Counter::ExtractCouplings,
        Counter::SubstituteGates,
        Counter::DecomposeRails,
        Counter::LecOutputs,
        Counter::LecCellMemoHits,
        Counter::LecIteCacheHits,
        Counter::LecRandomRounds,
        Counter::ExecRegions,
        Counter::ExecChunks,
        Counter::ExecItems,
        Counter::ServeJobs,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::ServeCacheEvicts,
    ];

    /// The stable dotted schema name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SimWindows => "sim.windows",
            Counter::SimEvents => "sim.events",
            Counter::SimEvals => "sim.evals",
            Counter::SimRises => "sim.rises",
            Counter::SimBitsliceBatches => "sim.bitslice.batches",
            Counter::SimBitsliceLanes => "sim.bitslice.lanes",
            Counter::SimBitsliceEvents => "sim.bitslice.events",
            Counter::SimBitsliceEvals => "sim.bitslice.evals",
            Counter::SimBitsliceRises => "sim.bitslice.rises",
            Counter::DpaTraces => "dpa.traces",
            Counter::DpaGuesses => "dpa.guesses",
            Counter::DpaStreamBlocks => "dpa.stream.blocks",
            Counter::DpaStreamTraces => "dpa.stream.traces",
            Counter::DpaStreamCheckpoints => "dpa.stream.checkpoints",
            Counter::DpaStreamFolds => "dpa.stream.folds",
            Counter::PlaceMoves => "place.moves",
            Counter::PlaceAccepted => "place.accepted",
            Counter::PlaceRestarts => "place.restarts",
            Counter::RouteNets => "route.nets",
            Counter::RouteRipups => "route.ripups",
            Counter::RouteIterations => "route.iterations",
            Counter::RoutePops => "route.pops",
            Counter::RouteWindowEscalations => "route.window_escalations",
            Counter::ExtractNets => "extract.nets",
            Counter::ExtractCouplings => "extract.couplings",
            Counter::SubstituteGates => "substitute.gates",
            Counter::DecomposeRails => "decompose.rails",
            Counter::LecOutputs => "lec.outputs",
            Counter::LecCellMemoHits => "lec.cell_memo_hits",
            Counter::LecIteCacheHits => "lec.ite_cache_hits",
            Counter::LecRandomRounds => "lec.random_rounds",
            Counter::ExecRegions => "exec.regions",
            Counter::ExecChunks => "exec.chunks",
            Counter::ExecItems => "exec.items",
            Counter::ServeJobs => "serve.jobs",
            Counter::ServeCacheHits => "serve.cache.hit",
            Counter::ServeCacheMisses => "serve.cache.miss",
            Counter::ServeCacheEvicts => "serve.cache.evict",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

/// Typed gauges. Merged across threads by maximum (high-water marks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Peak simultaneous pending events on any timing wheel.
    SimWheelPeak,
    /// Peak simultaneous pending masked events on any bit-sliced wheel.
    SimBitsliceWheelPeak,
    /// Largest parallel region (item count) seen by the exec pool.
    ExecRegionPeakItems,
    /// Largest signature-class table of a streaming DPA/CPA
    /// accumulator.
    DpaStreamClassesPeak,
    /// Peak BDD node count during equivalence checking.
    LecBddPeakNodes,
    /// Peak pending-job queue depth seen by the serve daemon.
    ServeQueuePeak,
}

impl Gauge {
    pub const ALL: [Gauge; 6] = [
        Gauge::SimWheelPeak,
        Gauge::SimBitsliceWheelPeak,
        Gauge::ExecRegionPeakItems,
        Gauge::DpaStreamClassesPeak,
        Gauge::LecBddPeakNodes,
        Gauge::ServeQueuePeak,
    ];

    /// The stable dotted schema name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::SimWheelPeak => "sim.wheel_peak",
            Gauge::SimBitsliceWheelPeak => "sim.bitslice.wheel_peak",
            Gauge::ExecRegionPeakItems => "exec.region_peak_items",
            Gauge::DpaStreamClassesPeak => "dpa.stream.classes_peak",
            Gauge::LecBddPeakNodes => "lec.bdd_peak_nodes",
            Gauge::ServeQueuePeak => "serve.queue_peak",
        }
    }
}

const N_GAUGES: usize = Gauge::ALL.len();

// ---------------------------------------------------------------------------
// Global session state
// ---------------------------------------------------------------------------

/// Fast-path gate: a single relaxed load decides whether any
/// instrumentation call does work.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Session generation. Thread-local sinks are tagged with the
/// generation they recorded under; a sink whose generation is stale
/// (its session already finished) is silently reset so records never
/// leak across sessions — important for long-lived pool threads.
static GEN: AtomicU64 = AtomicU64::new(0);

/// Dense per-thread ids for trace export (chrome `tid`).
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Parallel-region ids handed to `secflow-exec`.
static NEXT_REGION: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct SessionState {
    gen: u64,
    start_ns: u64,
    counters: [u64; N_COUNTERS],
    gauges: [u64; N_GAUGES],
    spans: Vec<SpanRec>,
    workers: Vec<WorkerRec>,
}

static STATE: Mutex<Option<SessionState>> = Mutex::new(None);

/// Serializes whole `capture` regions so concurrently running tests
/// (cargo runs tests of one binary on many threads) cannot observe
/// each other's counters.
static CAPTURE_GATE: Mutex<()> = Mutex::new(());

fn lock_state() -> std::sync::MutexGuard<'static, Option<SessionState>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Thread-local sinks
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SpanRec {
    /// Slash-joined path of open span names, e.g. `flow.secure/route`.
    path: String,
    start_ns: u64,
    dur_ns: u64,
    tid: u32,
}

/// One pool worker's contribution to a parallel region.
#[derive(Debug, Clone)]
pub struct WorkerRec {
    /// Region id from [`begin_region`].
    pub region: u64,
    /// Worker index within the region's pool.
    pub worker: u32,
    /// Wall-clock the worker spent inside the region.
    pub busy_ns: u64,
    /// Chunks claimed from the shared work queue.
    pub chunks: u64,
    /// Items processed.
    pub items: u64,
}

struct ThreadSink {
    gen: u64,
    tid: u32,
    dirty: bool,
    counters: [u64; N_COUNTERS],
    gauges: [u64; N_GAUGES],
    spans: Vec<SpanRec>,
    stack: Vec<(&'static str, u64)>,
}

impl ThreadSink {
    fn fresh() -> ThreadSink {
        ThreadSink {
            gen: 0,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            dirty: false,
            counters: [0; N_COUNTERS],
            gauges: [0; N_GAUGES],
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn reset_for(&mut self, gen: u64) {
        self.gen = gen;
        self.dirty = false;
        self.counters = [0; N_COUNTERS];
        self.gauges = [0; N_GAUGES];
        self.spans.clear();
        self.stack.clear();
    }
}

impl Drop for ThreadSink {
    fn drop(&mut self) {
        // Pool threads exiting mid-session publish what they have.
        flush(self);
    }
}

thread_local! {
    static SINK: RefCell<ThreadSink> = RefCell::new(ThreadSink::fresh());
}

fn with_sink<R>(f: impl FnOnce(&mut ThreadSink) -> R) -> R {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        let gen = GEN.load(Ordering::Relaxed);
        if s.gen != gen {
            s.reset_for(gen);
        }
        f(&mut s)
    })
}

fn flush(s: &mut ThreadSink) {
    if !s.dirty {
        return;
    }
    {
        let mut st = lock_state();
        if let Some(st) = st.as_mut() {
            if st.gen == s.gen {
                for i in 0..N_COUNTERS {
                    st.counters[i] += s.counters[i];
                }
                for i in 0..N_GAUGES {
                    st.gauges[i] = st.gauges[i].max(s.gauges[i]);
                }
                st.spans.append(&mut s.spans);
            }
        }
    }
    s.counters = [0; N_COUNTERS];
    s.gauges = [0; N_GAUGES];
    s.spans.clear();
    s.dirty = false;
}

// ---------------------------------------------------------------------------
// Instrumentation API
// ---------------------------------------------------------------------------

/// True while an observability session is active. The only cost paid
/// by instrumented code when observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to a counter. No-op when disabled.
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    with_sink(|s| {
        s.counters[c as usize] += n;
        s.dirty = true;
    });
}

/// Raises a high-water gauge to at least `v`. No-op when disabled.
#[inline]
pub fn gauge_max(g: Gauge, v: u64) {
    if !enabled() {
        return;
    }
    with_sink(|s| {
        if v > s.gauges[g as usize] {
            s.gauges[g as usize] = v;
            s.dirty = true;
        }
    });
}

/// RAII span guard returned by [`span`]. Closing (dropping) records
/// the span into the thread sink.
#[must_use = "a span is recorded when the guard drops; binding it to _ closes it immediately"]
pub struct Span {
    active: bool,
}

/// Opens a hierarchical span. The span's path is the slash-joined
/// chain of enclosing span names on this thread. No-op when disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { active: false };
    }
    let start = now_ns();
    with_sink(|s| {
        s.stack.push((name, start));
        s.dirty = true;
    });
    Span { active: true }
}

/// `let _s = span!("route");` — sugar over [`span`] mirroring the
/// familiar tracing-style macro.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_ns();
        with_sink(|s| {
            // If the session changed under us, with_sink reset the
            // stack and there is nothing to pop — correct: the span
            // belongs to a finished session.
            let Some((name, start)) = s.stack.pop() else {
                return;
            };
            let mut path = String::new();
            for (n, _) in &s.stack {
                path.push_str(n);
                path.push('/');
            }
            path.push_str(name);
            let tid = s.tid;
            s.spans.push(SpanRec {
                path,
                start_ns: start,
                dur_ns: end.saturating_sub(start),
                tid,
            });
        });
    }
}

/// Allocates a region id and records region-entry facts. Called by
/// `secflow-exec` when a parallel region starts. Returns 0 when
/// disabled.
pub fn begin_region(items: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    add(Counter::ExecRegions, 1);
    gauge_max(Gauge::ExecRegionPeakItems, items);
    NEXT_REGION.fetch_add(1, Ordering::Relaxed) + 1
}

/// Publishes one worker's contribution to a parallel region. Also
/// bumps the `exec.chunks` / `exec.items` counters. Called by pool
/// workers; no-op when disabled.
pub fn record_worker(region: u64, worker: u32, busy_ns: u64, chunks: u64, items: u64) {
    if !enabled() {
        return;
    }
    add(Counter::ExecChunks, chunks);
    add(Counter::ExecItems, items);
    let mut st = lock_state();
    if let Some(st) = st.as_mut() {
        if st.gen == GEN.load(Ordering::Relaxed) {
            st.workers.push(WorkerRec {
                region,
                worker,
                busy_ns,
                chunks,
                items,
            });
        }
    }
}

/// Publishes this thread's sink into the session. Pool workers call
/// this before their scope ends; the main thread's sink is flushed by
/// [`finish`].
pub fn flush_thread() {
    SINK.with(|s| flush(&mut s.borrow_mut()));
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// Starts an observability session. Returns false (and does nothing)
/// if one is already active.
pub fn start() -> bool {
    let mut st = lock_state();
    if st.is_some() {
        return false;
    }
    let gen = GEN.fetch_add(1, Ordering::Relaxed) + 1;
    *st = Some(SessionState {
        gen,
        start_ns: now_ns(),
        counters: [0; N_COUNTERS],
        gauges: [0; N_GAUGES],
        spans: Vec::new(),
        workers: Vec::new(),
    });
    ENABLED.store(true, Ordering::Relaxed);
    true
}

/// Ends the active session and returns its report, or `None` if no
/// session was active.
pub fn finish() -> Option<Report> {
    ENABLED.store(false, Ordering::Relaxed);
    flush_thread();
    let st = lock_state().take()?;
    Some(Report::from_state(st))
}

/// Runs `f` under a fresh observability session and returns its value
/// together with the session report. Sessions are process-global, so
/// concurrent captures (e.g. parallel tests in one binary) serialize
/// on an internal gate.
///
/// # Panics
/// Panics if an observability session is already active on this
/// process outside `capture` (e.g. started by [`start`]).
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Report) {
    let _gate = CAPTURE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        start(),
        "obs::capture: an observability session is already active"
    );
    struct FinishOnUnwind;
    impl Drop for FinishOnUnwind {
        fn drop(&mut self) {
            let _ = finish();
        }
    }
    let guard = FinishOnUnwind;
    let value = f();
    std::mem::forget(guard);
    let report = finish().expect("obs::capture: session vanished");
    (value, report)
}

// ---------------------------------------------------------------------------
// Report + exporters
// ---------------------------------------------------------------------------

/// One raw recorded span (exported to the chrome trace).
#[derive(Debug, Clone)]
pub struct SpanOut {
    /// Slash-joined hierarchical path; the last component is the name.
    pub path: String,
    /// Start offset from session start, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Recording thread's dense id.
    pub tid: u32,
}

impl SpanOut {
    /// The leaf span name (last path component).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Path-aggregated span statistics (exported to the metrics JSON).
#[derive(Debug, Clone)]
pub struct SpanAgg {
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
}

/// A finished session: merged counters, gauges, spans, and worker
/// records.
#[derive(Debug, Clone)]
pub struct Report {
    /// Session wall-clock, ns.
    pub wall_ns: u64,
    counters: [u64; N_COUNTERS],
    gauges: [u64; N_GAUGES],
    /// Raw spans, sorted by (start, tid) for deterministic export
    /// given identical timings.
    pub spans: Vec<SpanOut>,
    /// Per-worker region records, sorted by (region, worker).
    pub workers: Vec<WorkerRec>,
}

impl Report {
    fn from_state(st: SessionState) -> Report {
        let mut spans: Vec<SpanOut> = st
            .spans
            .into_iter()
            .map(|s| SpanOut {
                path: s.path,
                start_ns: s.start_ns.saturating_sub(st.start_ns),
                dur_ns: s.dur_ns,
                tid: s.tid,
            })
            .collect();
        spans.sort_by(|a, b| {
            (a.start_ns, a.tid, &a.path).cmp(&(b.start_ns, b.tid, &b.path))
        });
        let mut workers = st.workers;
        workers.sort_by_key(|w| (w.region, w.worker));
        Report {
            wall_ns: now_ns().saturating_sub(st.start_ns),
            counters: st.counters,
            gauges: st.gauges,
            spans,
            workers,
        }
    }

    /// An empty report (used when no session was active).
    pub fn empty() -> Report {
        Report {
            wall_ns: 0,
            counters: [0; N_COUNTERS],
            gauges: [0; N_GAUGES],
            spans: Vec::new(),
            workers: Vec::new(),
        }
    }

    /// The merged value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The merged high-water value of a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// True if any recorded span's leaf name equals `name`.
    pub fn has_span(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name() == name)
    }

    /// Spans aggregated by hierarchical path, sorted by path.
    pub fn aggregate_spans(&self) -> Vec<SpanAgg> {
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = agg.entry(&s.path).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_ns;
        }
        agg.into_iter()
            .map(|(path, (count, total_ns))| SpanAgg {
                path: path.to_string(),
                count,
                total_ns,
            })
            .collect()
    }

    /// Renders the schema-versioned metrics document
    /// (`results/OBS_<exp>.json`). Every cataloged counter and gauge
    /// appears (zeros included) so the document shape is stable.
    pub fn to_metrics_json(&self, exp: &str, threads: usize) -> String {
        let mut counters = json::Obj::new();
        for c in Counter::ALL {
            counters.u64(c.name(), self.counter(c));
        }
        let mut gauges = json::Obj::new();
        for g in Gauge::ALL {
            gauges.u64(g.name(), self.gauge(g));
        }
        let mut spans = json::Arr::new();
        for s in self.aggregate_spans() {
            let mut o = json::Obj::new();
            o.str("path", &s.path)
                .u64("count", s.count)
                .u64("total_ns", s.total_ns);
            spans.raw(&o.build());
        }
        let mut workers = json::Arr::new();
        for w in &self.workers {
            let mut o = json::Obj::new();
            o.u64("region", w.region)
                .u64("worker", w.worker as u64)
                .u64("busy_ns", w.busy_ns)
                .u64("chunks", w.chunks)
                .u64("items", w.items);
            workers.raw(&o.build());
        }
        let mut doc = json::Obj::new();
        doc.str("schema", SCHEMA)
            .str("exp", exp)
            .u64("threads", threads as u64)
            .u64("wall_ns", self.wall_ns)
            .raw("counters", &counters.build())
            .raw("gauges", &gauges.build())
            .raw("spans", &spans.build())
            .raw("workers", &workers.build());
        doc.build()
    }

    /// Renders a chrome://tracing document ("X" complete events,
    /// timestamps in microseconds). Load it via chrome://tracing or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self, exp: &str) -> String {
        let mut events = json::Arr::new();
        for s in &self.spans {
            let mut o = json::Obj::new();
            o.str("name", s.name())
                .str("cat", "secflow")
                .str("ph", "X")
                .f64("ts", s.start_ns as f64 / 1000.0)
                .f64("dur", s.dur_ns as f64 / 1000.0)
                .u64("pid", 0)
                .u64("tid", s.tid as u64);
            let mut args = json::Obj::new();
            args.str("path", &s.path);
            o.raw("args", &args.build());
            events.raw(&o.build());
        }
        for w in &self.workers {
            // Workers appear as instant-style counters via args; busy
            // time is rendered as a zero-based complete event per
            // region on a synthetic tid lane.
            let mut o = json::Obj::new();
            o.str("name", "exec.worker")
                .str("cat", "secflow")
                .str("ph", "X")
                .f64("ts", 0.0)
                .f64("dur", w.busy_ns as f64 / 1000.0)
                .u64("pid", 1)
                .u64("tid", w.region * 64 + w.worker as u64);
            let mut args = json::Obj::new();
            args.u64("region", w.region)
                .u64("worker", w.worker as u64)
                .u64("chunks", w.chunks)
                .u64("items", w.items);
            o.raw("args", &args.build());
            events.raw(&o.build());
        }
        let mut other = json::Obj::new();
        other.str("exp", exp).str("schema", SCHEMA);
        let mut doc = json::Obj::new();
        doc.raw("traceEvents", &events.build())
            .str("displayTimeUnit", "ms")
            .raw("otherData", &other.build());
        doc.build()
    }

    /// Derives the chrome-trace path from a metrics path:
    /// `OBS_x.json` → `OBS_x.trace.json`.
    pub fn trace_path(metrics_path: &Path) -> PathBuf {
        let stem = metrics_path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("obs");
        metrics_path.with_file_name(format!("{stem}.trace.json"))
    }

    /// Writes the metrics document to `path` and the chrome trace next
    /// to it (`<stem>.trace.json`). Returns the trace path.
    pub fn write_files(&self, exp: &str, threads: usize, path: &Path) -> io::Result<PathBuf> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut metrics = self.to_metrics_json(exp, threads);
        metrics.push('\n');
        std::fs::write(path, metrics)?;
        let trace = Self::trace_path(path);
        let mut trace_doc = self.to_chrome_trace(exp);
        trace_doc.push('\n');
        std::fs::write(&trace, trace_doc)?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_noop() {
        {
            // Holding the gate guarantees no sibling test has a
            // session active, so enabled() is false here.
            let _gate = CAPTURE_GATE.lock().unwrap_or_else(|e| e.into_inner());
            assert!(!enabled());
            add(Counter::SimEvents, 5);
            gauge_max(Gauge::SimWheelPeak, 9);
            let s = span("never");
            drop(s);
        }
        let (_, report) = capture(|| ());
        assert_eq!(report.counter(Counter::SimEvents), 0);
        assert_eq!(report.gauge(Gauge::SimWheelPeak), 0);
        assert!(report.spans.is_empty());
    }

    #[test]
    fn counters_and_spans_roundtrip() {
        let ((), report) = capture(|| {
            let _outer = span("flow.test");
            add(Counter::RouteNets, 3);
            add(Counter::RouteNets, 4);
            gauge_max(Gauge::SimWheelPeak, 10);
            gauge_max(Gauge::SimWheelPeak, 7);
            {
                let _inner = span("route");
            }
        });
        assert_eq!(report.counter(Counter::RouteNets), 7);
        assert_eq!(report.gauge(Gauge::SimWheelPeak), 10);
        assert!(report.has_span("flow.test"));
        assert!(report.has_span("route"));
        let agg = report.aggregate_spans();
        assert!(agg.iter().any(|a| a.path == "flow.test/route"));
    }

    #[test]
    fn cross_thread_merge_is_sum_and_max() {
        let ((), report) = capture(|| {
            let hs: Vec<_> = (0..4)
                .map(|i| {
                    std::thread::spawn(move || {
                        add(Counter::ExecItems, 10 + i);
                        gauge_max(Gauge::ExecRegionPeakItems, 100 * (i + 1));
                        flush_thread();
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
        });
        assert_eq!(report.counter(Counter::ExecItems), 10 + 11 + 12 + 13);
        assert_eq!(report.gauge(Gauge::ExecRegionPeakItems), 400);
    }

    #[test]
    fn stale_generation_does_not_leak() {
        let ((), first) = capture(|| add(Counter::DpaTraces, 1));
        assert_eq!(first.counter(Counter::DpaTraces), 1);
        // A sink left dirty by a thread that outlives a session must
        // not pollute the next session.
        let ((), second) = capture(|| ());
        assert_eq!(second.counter(Counter::DpaTraces), 0);
    }

    #[test]
    fn sessions_are_exclusive() {
        let _gate = CAPTURE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(start());
        assert!(!start());
        assert!(finish().is_some());
        assert!(finish().is_none());
    }

    #[test]
    fn metrics_schema_shape() {
        let ((), report) = capture(|| {
            let _s = span("route");
            add(Counter::RouteNets, 2);
        });
        let doc = report.to_metrics_json("unit", 4);
        assert!(doc.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
        assert!(doc.contains("\"exp\":\"unit\""));
        assert!(doc.contains("\"threads\":4"));
        assert!(doc.contains("\"route.nets\":2"));
        // zero counters still present: stable shape
        assert!(doc.contains("\"dpa.traces\":0"));
        let trace = report.to_chrome_trace("unit");
        assert!(trace.contains("\"traceEvents\":[{"));
        assert!(trace.contains("\"name\":\"route\""));
        assert!(trace.contains("\"ph\":\"X\""));
    }

    #[test]
    fn span_macro_compiles() {
        let ((), report) = capture(|| {
            let _s = span!("macro.span");
        });
        assert!(report.has_span("macro.span"));
    }

    #[test]
    fn trace_path_derivation() {
        assert_eq!(
            Report::trace_path(Path::new("results/OBS_x.json")),
            PathBuf::from("results/OBS_x.trace.json")
        );
    }
}
