//! Golden observability counters: the kernel-level counters the obs
//! layer reports for the seed DES design are pure functions of
//! (design, stimulus), so their campaign-wide sums must be *exactly*
//! reproducible — at any worker-thread count. These tests pin those
//! values; a drift means the simulation kernel changed behaviour, not
//! just performance.
//!
//! `exec.*` counters are deliberately NOT pinned across thread counts:
//! chunk claiming is a race by design and only the per-item work is
//! deterministic.

use std::sync::OnceLock;

use secflow::cells::Library;
use secflow::crypto::dpa_module::{des_dpa_design, PAPER_KEY};
use secflow::dpa::attack::{dpa_attack, mtd_scan};
use secflow::dpa::harness::{collect_des_traces, DesTarget};
use secflow::flow::{run_secure_flow, FlowOptions};
use secflow::netlist::Netlist;
use secflow::obs::{self, Counter, Gauge};
use secflow::sim::{CycleDriver, SimBackend, SimConfig};
use secflow::synth::{map_design, MapOptions};

const N_TRACES: usize = 24;
const SEED: u64 = 11;

// Golden values for the campaign below (seed DES module, mapped
// regular netlist, 24 traces, seed 11, 100 samples/cycle). Regenerate
// by running the test and copying the printed actuals — but only when
// a *deliberate* kernel change explains the drift. The design settles
// at the paper's clock, so these count the leak cycles only (DESIGN.md
// §16).
const GOLD_WINDOWS: u64 = 24;
const GOLD_EVENTS: u64 = 2848;
const GOLD_EVALS: u64 = 3447;
const GOLD_RISES: u64 = 1095;
const GOLD_WHEEL_PEAK: u64 = 36;

// Golden `sim.bitslice.*` counters for the same campaign through the
// bit-sliced kernel. The batch partition is a pure function of the
// campaign size ([0], [1], then 64-lane chunks), so these are
// thread-count invariant like the scalar kernel's.
const GOLD_BS_BATCHES: u64 = 3;
const GOLD_BS_LANES: u64 = 24;
const GOLD_BS_EVENTS: u64 = 1708;
const GOLD_BS_EVALS: u64 = 1957;
const GOLD_BS_RISES: u64 = 1095;
const GOLD_BS_WHEEL_PEAK: u64 = 81;

// Golden class-table values of the streaming DPA accumulators for a
// DPA and an MTD scan (step 50) over 400 traces of the same design at
// 20 samples per cycle, seed 11. The DES selection function has 128
// signatures, so the table never reaches its budget of 2 · 64 classes
// and never folds (DESIGN.md §17).
const DPA_TRACES: usize = 400;
const GOLD_DPA_CLASSES_PEAK: u64 = 126;
const GOLD_DPA_FOLDS: u64 = 0;

// Golden LEC counters of the DES module's secure flow: the BDD engine
// checks the fat netlist against the mapped one, which placement does
// not touch. They count the BDD manager's work (its `ite` calls and
// the nodes they make), so they pin how the BDDs are built, not only
// the answer.
const GOLD_LEC_ITE_CACHE_HITS: u64 = 33_711;
const GOLD_LEC_BDD_PEAK_NODES: u64 = 23_981;
const GOLD_LEC_CELL_MEMO_HITS: u64 = 406;
const GOLD_LEC_OUTPUTS: u64 = 10;

// Golden router counters of the DES module's secure flow at seed 1:
// open-list pops, stale entries included, and windowed searches re-run
// on the whole grid. No search of this flow escalates, so its pops
// equal those of the router before windows and the two-tier open list
// (counted with an instrumented build of it, DESIGN.md §22).
const GOLD_ROUTE_POPS: u64 = 144_857;
const GOLD_ROUTE_WINDOW_ESCALATIONS: u64 = 0;

fn fixture() -> &'static (Library, Netlist) {
    static CELL: OnceLock<(Library, Netlist)> = OnceLock::new();
    CELL.get_or_init(|| {
        let lib = Library::lib180();
        let mapped =
            map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("mapping");
        (lib, mapped)
    })
}

fn campaign_report_on(threads: usize, backend: SimBackend) -> obs::Report {
    model_report_on(threads, backend, CycleDriver::SingleEnded)
}

fn model_report_on(threads: usize, backend: SimBackend, driver: CycleDriver) -> obs::Report {
    let (lib, nl) = fixture();
    let cfg = SimConfig {
        samples_per_cycle: 100,
        ..Default::default()
    };
    let target = DesTarget {
        netlist: nl,
        lib,
        parasitics: None,
        driver,
        backend,
    };
    let ((), report) = secflow::exec::with_threads(threads, || {
        obs::capture(|| {
            collect_des_traces(&target, &cfg, PAPER_KEY, N_TRACES, SEED).expect("campaign");
        })
    });
    report
}

fn campaign_report(threads: usize) -> obs::Report {
    campaign_report_on(threads, SimBackend::Event)
}

#[test]
fn kernel_counters_match_golden_at_1_2_and_8_threads() {
    for threads in [1usize, 2, 8] {
        let r = campaign_report(threads);
        let actual = [
            ("sim.windows", r.counter(Counter::SimWindows), GOLD_WINDOWS),
            ("sim.events", r.counter(Counter::SimEvents), GOLD_EVENTS),
            ("sim.evals", r.counter(Counter::SimEvals), GOLD_EVALS),
            ("sim.rises", r.counter(Counter::SimRises), GOLD_RISES),
            (
                "sim.wheel_peak",
                r.gauge(Gauge::SimWheelPeak),
                GOLD_WHEEL_PEAK,
            ),
            ("dpa.traces", r.counter(Counter::DpaTraces), N_TRACES as u64),
        ];
        // Printed so regeneration after a deliberate kernel change is
        // a copy-paste, not a bisection.
        eprintln!("obs golden actuals at {threads} threads: {actual:?}");
        for (name, got, want) in actual {
            assert_eq!(
                got, want,
                "{name} at {threads} threads: got {got}, golden {want}"
            );
        }
    }
}

/// The bit-sliced kernel's counters are pinned the same way: batch
/// partition and per-batch work are pure functions of (design,
/// stimulus), so campaign sums cannot depend on the thread count. The
/// per-lane rise total must equal the scalar kernel's exactly — same
/// transitions, different packing.
#[test]
fn bitslice_counters_match_golden_at_1_2_and_8_threads() {
    for threads in [1usize, 2, 8] {
        let r = campaign_report_on(threads, SimBackend::Bitslice);
        let actual = [
            (
                "sim.bitslice.batches",
                r.counter(Counter::SimBitsliceBatches),
                GOLD_BS_BATCHES,
            ),
            (
                "sim.bitslice.lanes",
                r.counter(Counter::SimBitsliceLanes),
                GOLD_BS_LANES,
            ),
            (
                "sim.bitslice.events",
                r.counter(Counter::SimBitsliceEvents),
                GOLD_BS_EVENTS,
            ),
            (
                "sim.bitslice.evals",
                r.counter(Counter::SimBitsliceEvals),
                GOLD_BS_EVALS,
            ),
            (
                "sim.bitslice.rises",
                r.counter(Counter::SimBitsliceRises),
                GOLD_BS_RISES,
            ),
            (
                "sim.bitslice.wheel_peak",
                r.gauge(Gauge::SimBitsliceWheelPeak),
                GOLD_BS_WHEEL_PEAK,
            ),
            ("dpa.traces", r.counter(Counter::DpaTraces), N_TRACES as u64),
        ];
        eprintln!("bitslice golden actuals at {threads} threads: {actual:?}");
        for (name, got, want) in actual {
            assert_eq!(
                got, want,
                "{name} at {threads} threads: got {got}, golden {want}"
            );
        }
        // The scalar kernel's counters must stay silent on this path.
        assert_eq!(r.counter(Counter::SimWindows), 0);
        assert_eq!(r.counter(Counter::SimEvents), 0);
    }
}

/// Under the glitch-free power model the bit-sliced rise total must
/// also equal the scalar one: every batch of this campaign is ragged
/// (1, 1 and 22 live lanes), and dead lanes count no rises.
#[test]
fn glitch_free_bitslice_rises_match_the_event_kernel_at_1_2_and_8_threads() {
    let gf = CycleDriver::GlitchFree;
    let scalar = model_report_on(1, SimBackend::Event, gf).counter(Counter::SimRises);
    assert!(scalar > 0);
    for threads in [1usize, 2, 8] {
        let r = model_report_on(threads, SimBackend::Bitslice, gf);
        assert_eq!(
            r.counter(Counter::SimBitsliceRises),
            scalar,
            "sim.bitslice.rises vs sim.rises at {threads} threads"
        );
    }
}

/// `exec.*` counters must be *reported* when the pool actually runs,
/// but their split across chunks is scheduling-dependent, so only the
/// invariant part (every item done exactly once) is asserted.
#[test]
fn exec_counters_reported_but_not_pinned() {
    let r = campaign_report(2);
    assert!(r.counter(Counter::ExecRegions) >= 1);
    assert!(r.counter(Counter::ExecChunks) >= 1);
    assert_eq!(r.counter(Counter::ExecItems), N_TRACES as u64);
}

/// Every one of the ten flow stages must appear as a span under the
/// secure flow's parent — the stage taxonomy is part of the metrics
/// schema — and the LEC stage's work counters equal their goldens.
#[test]
fn secure_flow_covers_all_ten_stage_spans() {
    let opts = FlowOptions {
        anneal_moves_per_gate: 40,
        ..Default::default()
    };
    let (result, report) = obs::capture(|| {
        run_secure_flow(&des_dpa_design(), &Library::lib180(), &opts)
    });
    result.expect("secure flow");
    assert!(report.has_span("flow.secure"));
    for stage in [
        "parse",
        "synth",
        "substitute",
        "place",
        "route",
        "decompose",
        "extract",
        "lec",
        "railcheck",
        "sim",
    ] {
        assert!(report.has_span(stage), "missing stage span `{stage}`");
    }
    // Stage work actually ran under those spans.
    assert!(report.counter(Counter::SubstituteGates) > 0);
    assert!(report.counter(Counter::DecomposeRails) > 0);
    assert!(report.counter(Counter::RouteNets) > 0);
    assert!(report.counter(Counter::PlaceMoves) > 0);
    assert!(report.counter(Counter::ExtractNets) > 0);
    let lec = [
        (
            "lec.ite_cache_hits",
            report.counter(Counter::LecIteCacheHits),
            GOLD_LEC_ITE_CACHE_HITS,
        ),
        (
            "lec.bdd_peak_nodes",
            report.gauge(Gauge::LecBddPeakNodes),
            GOLD_LEC_BDD_PEAK_NODES,
        ),
        (
            "lec.cell_memo_hits",
            report.counter(Counter::LecCellMemoHits),
            GOLD_LEC_CELL_MEMO_HITS,
        ),
        (
            "lec.outputs",
            report.counter(Counter::LecOutputs),
            GOLD_LEC_OUTPUTS,
        ),
    ];
    eprintln!("lec golden actuals: {lec:?}");
    for (name, got, want) in lec {
        assert_eq!(got, want, "{name}: got {got}, golden {want}");
    }
}

/// The router's work on the DES secure flow is a pure function of the
/// placement, which is the same at every thread count.
#[test]
fn route_counters_match_golden_at_1_2_and_8_threads() {
    let opts = FlowOptions {
        verify: false,
        ..Default::default()
    };
    for threads in [1, 2, 8] {
        let (result, report) = secflow::exec::with_threads(threads, || {
            obs::capture(|| run_secure_flow(&des_dpa_design(), &Library::lib180(), &opts))
        });
        result.expect("secure flow");
        let got = (
            report.counter(Counter::RoutePops),
            report.counter(Counter::RouteWindowEscalations),
        );
        let want = (GOLD_ROUTE_POPS, GOLD_ROUTE_WINDOW_ESCALATIONS);
        assert_eq!(got, want, "(pops, escalations) at {threads} threads");
    }
}

/// The class table a DES campaign's DPA builds is a pure function of
/// the traces, so its size and fold count are the same at every
/// thread count.
#[test]
fn dpa_class_table_matches_golden_at_1_2_and_8_threads() {
    let (lib, nl) = fixture();
    let cfg = SimConfig {
        samples_per_cycle: 20,
        ..Default::default()
    };
    let target = DesTarget {
        netlist: nl,
        lib,
        parasitics: None,
        driver: CycleDriver::SingleEnded,
        backend: SimBackend::Bitslice,
    };
    // Under a capture, so that the campaign's counters stay out of the
    // sessions of the tests running beside this one.
    let (set, _) = obs::capture(|| {
        collect_des_traces(&target, &cfg, PAPER_KEY, DPA_TRACES, SEED).expect("campaign")
    });
    for threads in [1usize, 2, 8] {
        let ((), r) = secflow::exec::with_threads(threads, || {
            obs::capture(|| {
                dpa_attack(&set.traces, 64, set.selector()).expect("attack");
                mtd_scan(&set.traces, 64, PAPER_KEY, 50, set.selector()).expect("scan");
            })
        });
        let actual = [
            (
                "dpa.stream.classes_peak",
                r.gauge(Gauge::DpaStreamClassesPeak),
                GOLD_DPA_CLASSES_PEAK,
            ),
            (
                "dpa.stream.folds",
                r.counter(Counter::DpaStreamFolds),
                GOLD_DPA_FOLDS,
            ),
        ];
        eprintln!("dpa class-table actuals at {threads} threads: {actual:?}");
        assert!(r.gauge(Gauge::DpaStreamClassesPeak) <= 128);
        for (name, got, want) in actual {
            assert_eq!(
                got, want,
                "{name} at {threads} threads: got {got}, golden {want}"
            );
        }
    }
}
