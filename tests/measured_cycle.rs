//! The measured-cycle contract of both simulation kernels: a run that
//! measures one cycle of a window must reproduce that cycle of the
//! whole-window run bit for bit — trace, energy, its rise count and the
//! outputs of every cycle.
//!
//! The kernel's work depends on the settle test (DESIGN.md §16). A
//! design that settles inside a cycle event-simulates only the measured
//! cycle: other cycles report no rises, and the events, evaluations and
//! rises are exactly the measured cycle's own. A design that does not
//! settle simulates every cycle, so its work equals the whole-window
//! run's.
//!
//! Campaigns only ever measure the leak cycle, so these tests sweep
//! what campaigns do not: every window cycle as the measured one, on
//! both extracted DES implementations (single-ended and WDDL drivers)
//! with crosstalk on, at 40, 100 and 800 samples per cycle, with 1, 63
//! and 64 live lanes on the bit-sliced kernel.
//!
//! At the paper's 8 ns clock the DES datapath settles long before the
//! next edge, so no rise there deposits across a cycle boundary and no
//! crosstalk window reaches back into the previous cycle. A fourth
//! configuration therefore compresses the clock until switching
//! straddles every edge, with sample bins of a non-integer width: it
//! is the one that exercises the deposit clipping, the look-back and
//! the look-ahead of the measured-cycle mode. Constructed cases below
//! fail one clause of the settle test each.

use std::ops::Range;
use std::sync::OnceLock;

use secflow::cells::Library;
use secflow::crypto::dpa_module::{des_dpa_design, PAPER_KEY};
use secflow::extract::Parasitics;
use secflow::flow::{
    run_regular_flow, run_secure_flow, FlowOptions, RegularFlowResult, SecureFlowResult,
};
use secflow::netlist::{GateKind, NetId, Netlist};
use secflow::rand::{RngExt, SeedableRng, StdRng};
use secflow::sim::{BitScratch, BitSim, CompiledSim, EngineScratch, LoadModel, SimConfig};

const LANES: usize = 64;
const CYCLES: usize = 5;

fn flows() -> &'static (Library, RegularFlowResult, SecureFlowResult) {
    static CELL: OnceLock<(Library, RegularFlowResult, SecureFlowResult)> = OnceLock::new();
    CELL.get_or_init(|| {
        let lib = Library::lib180();
        let opts = FlowOptions {
            anneal_moves_per_gate: 40,
            ..Default::default()
        };
        let regular = run_regular_flow(&des_dpa_design(), &lib, &opts).expect("regular flow");
        let secure = run_secure_flow(&des_dpa_design(), &lib, &opts).expect("secure flow");
        (lib, regular, secure)
    })
}

/// One extracted implementation and the driver it needs.
struct Imp<'a> {
    name: &'static str,
    netlist: &'a Netlist,
    lib: &'a Library,
    parasitics: &'a Parasitics,
    /// `Some` selects the WDDL driver.
    pairs: Option<&'a [(NetId, NetId)]>,
}

fn implementations() -> [Imp<'static>; 2] {
    let (lib, regular, secure) = flows();
    let sub = &secure.substitution;
    [
        Imp {
            name: "regular",
            netlist: &regular.netlist,
            lib,
            parasitics: &regular.parasitics,
            pairs: None,
        },
        Imp {
            name: "secure",
            netlist: &sub.differential,
            lib: &sub.diff_lib,
            parasitics: &secure.parasitics,
            pairs: Some(&sub.input_pairs),
        },
    ]
}

/// `LANES` windows of `CYCLES` random plaintexts under the paper key,
/// in the harness's port order (pl[0..4], pr[0..6], k[0..6]).
fn windows() -> Vec<Vec<Vec<bool>>> {
    let mut rng = StdRng::seed_from_u64(15);
    (0..LANES)
        .map(|_| {
            (0..CYCLES)
                .map(|_| {
                    let (pl, pr) = (rng.random_range(0..16u8), rng.random_range(0..64u8));
                    let mut v = Vec::with_capacity(16);
                    v.extend((0..4).map(|b| pl >> b & 1 == 1));
                    v.extend((0..6).map(|b| pr >> b & 1 == 1));
                    v.extend((0..6).map(|b| PAPER_KEY >> b & 1 == 1));
                    v
                })
                .collect()
        })
        .collect()
}

/// The first `lanes` windows packed one word per input per cycle.
fn pack(windows: &[Vec<Vec<bool>>], lanes: usize) -> Vec<Vec<u64>> {
    let mut packed = vec![vec![0u64; windows[0][0].len()]; CYCLES];
    for (l, win) in windows.iter().take(lanes).enumerate() {
        for (c, v) in win.iter().enumerate() {
            for (k, &bit) in v.iter().enumerate() {
                if bit {
                    packed[c][k] |= 1 << l;
                }
            }
        }
    }
    packed
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn run_event(
    comp: &CompiledSim,
    s: &mut EngineScratch,
    imp: &Imp<'_>,
    win: &[Vec<bool>],
    measured: Range<usize>,
) {
    match imp.pairs {
        Some(pairs) => comp.run_wddl(s, pairs, win, measured),
        None => comp.run_single_ended(s, win, measured),
    }
}

fn run_bitslice(
    sim: &BitSim,
    s: &mut BitScratch,
    imp: &Imp<'_>,
    packed: &[Vec<u64>],
    active: u64,
    measured: Range<usize>,
) {
    match imp.pairs {
        Some(pairs) => sim.run_wddl(s, pairs, packed, active, measured),
        None => sim.run_single_ended(s, packed, active, measured),
    }
}

/// Everything a whole-window scalar run reports for one lane.
struct Reference {
    trace: Vec<u64>,
    energy: Vec<u64>,
    rises: Vec<u64>,
    outputs: Vec<Vec<bool>>,
    /// `[events, evals, rises]` of the whole-window runs over each
    /// prefix `..k` of the window, `k = 0..=CYCLES`; the last is the
    /// whole window's.
    prefix: Vec<[u64; 3]>,
}

fn reference(
    comp: &CompiledSim,
    s: &mut EngineScratch,
    imp: &Imp<'_>,
    win: &[Vec<bool>],
) -> Reference {
    let prefix = (0..=CYCLES)
        .map(|k| {
            run_event(comp, s, imp, &win[..k], 0..k);
            [
                s.events_processed(),
                s.gate_evals(),
                s.cycle_rises().iter().sum(),
            ]
        })
        .collect();
    Reference {
        trace: bits(s.trace()),
        energy: bits(s.cycle_energy_fj()),
        rises: s.cycle_rises().to_vec(),
        outputs: (0..CYCLES).map(|c| s.outputs(c).to_vec()).collect(),
        prefix,
    }
}

/// The work of cycle `m` alone, from whole-window work counts over the
/// prefixes of a window: the runs over `..m + 1` and `..m` share their
/// first `m` cycles, so in a settled design the difference is exact.
fn own_work(prefix: &[[u64; 3]], m: usize) -> [u64; 3] {
    let (after, before) = (prefix[m + 1], prefix[m]);
    [
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    ]
}

/// The paper's clock at 40, 100 and 800 samples per cycle, then a
/// 1.2 ns clock sampled in 36 bins of 33.3 ps.
fn configs() -> Vec<SimConfig> {
    let mut cfgs: Vec<SimConfig> = [40usize, 100, 800]
        .into_iter()
        .map(|spc| SimConfig {
            samples_per_cycle: spc,
            ..Default::default()
        })
        .collect();
    cfgs.push(SimConfig {
        period_ps: 1200,
        samples_per_cycle: 36,
        ..Default::default()
    });
    cfgs
}

#[test]
fn measured_cycles_equal_whole_window_cycles_on_both_kernels() {
    let windows = windows();
    for imp in implementations() {
        for cfg in configs() {
            let spc = cfg.samples_per_cycle;
            assert!(cfg.crosstalk_window_ps > 0);
            let load = LoadModel::try_build(imp.netlist, imp.lib, Some(imp.parasitics)).unwrap();
            let comp = CompiledSim::build(imp.netlist, imp.lib, &load, &cfg).unwrap();
            let sim = BitSim::build(imp.netlist, imp.lib, &load, &cfg).unwrap();
            let label = format!("{} at {} ps / {spc} spc", imp.name, cfg.period_ps);
            let (settles, bs_settles) = match imp.pairs {
                Some(_) => (comp.settles_wddl(), sim.settles_wddl()),
                None => (comp.settles_single_ended(), sim.settles_single_ended()),
            };
            assert_eq!(
                bs_settles, settles,
                "{label}: both kernels share the settle test"
            );
            assert_eq!(
                settles,
                cfg.period_ps == 8000,
                "{label}: DES settles at the paper's clock and not at 1.2 ns"
            );

            // The event kernel: every window, every measured cycle.
            let mut s = EngineScratch::new();
            let refs: Vec<Reference> = windows
                .iter()
                .map(|win| reference(&comp, &mut s, &imp, win))
                .collect();
            for (l, (win, r)) in windows.iter().zip(&refs).enumerate() {
                for m in 0..CYCLES {
                    run_event(&comp, &mut s, &imp, win, m..m + 1);
                    let at = format!("{label}, event lane {l}, cycle {m}");
                    assert_eq!(
                        bits(s.cycle_trace(m)),
                        r.trace[m * spc..(m + 1) * spc],
                        "{at}"
                    );
                    assert_eq!(
                        s.cycle_energy_fj()[m].to_bits(),
                        r.energy[m],
                        "{at}: energy"
                    );
                    for (c, outs) in r.outputs.iter().enumerate() {
                        assert_eq!(s.outputs(c), &outs[..], "{at}: outputs of cycle {c}");
                    }
                    let rises: Vec<u64> = (0..CYCLES)
                        .map(|c| if settles && c != m { 0 } else { r.rises[c] })
                        .collect();
                    assert_eq!(s.cycle_rises(), &rises[..], "{at}: rises");
                    let [events, evals, _] = if settles {
                        own_work(&r.prefix, m)
                    } else {
                        r.prefix[CYCLES]
                    };
                    assert_eq!(s.events_processed(), events, "{at}: events");
                    assert_eq!(s.gate_evals(), evals, "{at}: evals");
                }
            }

            // The bit-sliced kernel at 1, 63 and 64 live lanes.
            let n_out = refs[0].outputs[0].len();
            for lanes in [1usize, 63, 64] {
                let packed = pack(&windows, lanes);
                let active = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
                let mut full = BitScratch::new();
                let prefix: Vec<[u64; 3]> = (0..=CYCLES)
                    .map(|k| {
                        run_bitslice(&sim, &mut full, &imp, &packed[..k], active, 0..k);
                        [
                            full.events_processed(),
                            full.gate_evals(),
                            full.total_rises(),
                        ]
                    })
                    .collect();
                let rises: u64 = refs[..lanes].iter().flat_map(|r| &r.rises).sum();
                assert_eq!(
                    full.total_rises(),
                    rises,
                    "{label}, {lanes} lanes: whole-window rises"
                );
                let mut bs = BitScratch::new();
                for m in 0..CYCLES {
                    run_bitslice(&sim, &mut bs, &imp, &packed, active, m..m + 1);
                    let at = format!("{label}, {lanes} lanes, cycle {m}");
                    let [events, evals, rises] = if settles {
                        own_work(&prefix, m)
                    } else {
                        prefix[CYCLES]
                    };
                    assert_eq!(bs.total_rises(), rises, "{at}: rises");
                    assert_eq!(bs.events_processed(), events, "{at}: events");
                    assert_eq!(bs.gate_evals(), evals, "{at}: evals");
                    for (l, r) in refs[..lanes].iter().enumerate() {
                        let at = format!("{at}, lane {l}");
                        let want = &r.trace[m * spc..(m + 1) * spc];
                        assert_eq!(bits(&bs.cycle_trace(m, l)), want, "{at}");
                        assert_eq!(
                            bs.cycle_energy_fj(m, l).to_bits(),
                            r.energy[m],
                            "{at}: energy"
                        );
                        assert_eq!(bs.cycle_rises(m, l), r.rises[m], "{at}: rises");
                        for (c, outs) in r.outputs.iter().enumerate() {
                            let got: Vec<bool> =
                                (0..n_out).map(|j| bs.output_bit(c, j, l)).collect();
                            assert_eq!(got, *outs, "{at}: outputs of cycle {c}");
                        }
                    }
                }
            }
        }
    }
}

/// `t / sample_ps` is inexact: with 30 bins of 266.67 ps per 8 ns
/// cycle, a rise at exactly 8000 ps lands in bin 29, the last bin of
/// cycle 0, although cycle 1 simulates it. Two coupled buffers rising
/// together at that instant must therefore be measured in cycle 0,
/// including the crosstalk between them.
#[test]
fn a_rise_at_a_cycle_edge_counts_in_the_bin_it_rounds_into() {
    let mut nl = Netlist::new("edge");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let x = nl.add_net("x");
    let y = nl.add_net("y");
    nl.add_gate("g0", "BUF", GateKind::Comb, vec![a], vec![x]);
    nl.add_gate("g1", "BUF", GateKind::Comb, vec![b], vec![y]);
    nl.mark_output(x);
    nl.mark_output(y);
    let lib = Library::lib180();
    let mut load = LoadModel::try_build(&nl, &lib, None).unwrap();
    load.couplings[x.index()].push((y, 4.0));
    load.couplings[y.index()].push((x, 4.0));
    let buf = lib.by_name("BUF").unwrap();
    let delay = load
        .delay_ps(buf.intrinsic_delay_ps(), buf.drive_kohm(), x)
        .max(1.0) as u64;
    let cfg = SimConfig {
        samples_per_cycle: 30,
        input_delay_ps: 8000 - delay,
        ..Default::default()
    };
    let comp = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap();
    let sim = BitSim::build(&nl, &lib, &load, &cfg).unwrap();
    let win = vec![vec![true, true], vec![true, true]];

    let mut full = EngineScratch::new();
    comp.run_single_ended(&mut full, &win, ..);
    let want = bits(full.cycle_trace(0));
    assert!(
        full.cycle_trace(0)[29] > 0.0,
        "the edge rises must land in bin 29"
    );
    assert_eq!(full.cycle_rises(), &[0, 2], "both rises belong to cycle 1");

    let mut s = EngineScratch::new();
    comp.run_single_ended(&mut s, &win, 0..1);
    assert_eq!(bits(s.cycle_trace(0)), want, "event kernel");
    let packed = vec![vec![1u64, 1], vec![1, 1]];
    let mut bs = BitScratch::new();
    sim.run_single_ended(&mut bs, &packed, 1, 0..1);
    assert_eq!(bits(&bs.cycle_trace(0, 0)), want, "bit-sliced kernel");
}

/// Runs `win` on both kernels measuring each cycle in turn, and checks
/// that every cycle was simulated: trace, energy, every cycle's rises
/// and outputs, and the event and evaluation counts all equal the
/// whole-window run's.
fn assert_every_cycle_simulated(
    nl: &Netlist,
    lib: &Library,
    load: &LoadModel,
    cfg: &SimConfig,
    win: &[Vec<bool>],
) {
    let comp = CompiledSim::build(nl, lib, load, cfg).unwrap();
    let sim = BitSim::build(nl, lib, load, cfg).unwrap();
    assert!(!comp.settles_single_ended() && !sim.settles_single_ended());
    let n = win.len();
    let mut full = EngineScratch::new();
    comp.run_single_ended(&mut full, win, ..);
    let packed: Vec<Vec<u64>> = win
        .iter()
        .map(|v| v.iter().map(|&b| u64::from(b)).collect())
        .collect();
    let mut bfull = BitScratch::new();
    sim.run_single_ended(&mut bfull, &packed, 1, ..);
    let (mut s, mut bs) = (EngineScratch::new(), BitScratch::new());
    for m in 0..n {
        comp.run_single_ended(&mut s, win, m..=m);
        sim.run_single_ended(&mut bs, &packed, 1, m..=m);
        let want = bits(full.cycle_trace(m));
        assert_eq!(bits(s.cycle_trace(m)), want, "event trace of cycle {m}");
        assert_eq!(
            bits(&bs.cycle_trace(m, 0)),
            want,
            "bit-sliced trace of cycle {m}"
        );
        let e = full.cycle_energy_fj()[m].to_bits();
        assert_eq!(
            s.cycle_energy_fj()[m].to_bits(),
            e,
            "event energy of cycle {m}"
        );
        assert_eq!(
            bs.cycle_energy_fj(m, 0).to_bits(),
            e,
            "bit-sliced energy of cycle {m}"
        );
        assert_eq!(
            s.cycle_rises(),
            full.cycle_rises(),
            "event rises, cycle {m} measured"
        );
        assert_eq!(
            s.events_processed(),
            full.events_processed(),
            "events, cycle {m} measured"
        );
        assert_eq!(
            s.gate_evals(),
            full.gate_evals(),
            "evals, cycle {m} measured"
        );
        assert_eq!(
            bs.total_rises(),
            bfull.total_rises(),
            "bit-sliced rises, cycle {m} measured"
        );
        assert_eq!(
            bs.events_processed(),
            bfull.events_processed(),
            "bit-sliced events"
        );
        assert_eq!(bs.gate_evals(), bfull.gate_evals(), "bit-sliced evals");
        for c in 0..n {
            assert_eq!(s.outputs(c), full.outputs(c), "event outputs of cycle {c}");
            for (j, &o) in full.outputs(c).iter().enumerate() {
                assert_eq!(
                    bs.output_bit(c, j, 0),
                    o,
                    "bit-sliced output {j} of cycle {c}"
                );
            }
        }
    }
}

/// `x = BUF(a)` driving `y = BUF(x)`; `x` gets a 4 ns RC deposit.
fn slow_net_fixture() -> (Netlist, Library, LoadModel) {
    let mut nl = Netlist::new("slow");
    let a = nl.add_input("a");
    let x = nl.add_net("x");
    let y = nl.add_net("y");
    nl.add_gate("g0", "BUF", GateKind::Comb, vec![a], vec![x]);
    nl.add_gate("g1", "BUF", GateKind::Comb, vec![x], vec![y]);
    nl.mark_output(y);
    let lib = Library::lib180();
    let mut load = LoadModel::try_build(&nl, &lib, None).unwrap();
    load.c_eff_ff[x.index()] = 10.0;
    load.drive_kohm[x.index()] = 200.0; // 2RC = 4000 ps: 20 bins of 200 ps
    (nl, lib, load)
}

/// Only the deposit clause fails: `x` rises 5 ns into the cycle, long
/// before the edge and with a quiet gap far wider than the crosstalk
/// window, but its 4 ns deposit runs into the next cycle. Measuring
/// that cycle must therefore still simulate the one before it.
#[test]
fn a_late_rise_whose_deposit_crosses_the_edge_simulates_every_cycle() {
    let (nl, lib, load) = slow_net_fixture();
    let early = SimConfig {
        samples_per_cycle: 40,
        input_delay_ps: 1000,
        ..Default::default()
    };
    let comp = CompiledSim::build(&nl, &lib, &load, &early).unwrap();
    assert!(
        comp.settles_single_ended(),
        "the same rise 4 ns earlier settles"
    );

    let late = SimConfig {
        input_delay_ps: 5000,
        ..early
    };
    let win = vec![vec![true], vec![false], vec![true]];
    let comp = CompiledSim::build(&nl, &lib, &load, &late).unwrap();
    let mut full = EngineScratch::new();
    comp.run_single_ended(&mut full, &win, ..);
    assert_eq!(full.cycle_rises()[1], 0, "cycle 1 only falls");
    assert!(
        full.cycle_trace(1).iter().sum::<f64>() > 0.0,
        "cycle 0's deposit must reach cycle 1"
    );
    assert_every_cycle_simulated(&nl, &lib, &load, &late, &win);
}

/// Only the crosstalk clause fails: `x` and `y` are coupled, `x` rises
/// in cycle 0 and `y` in cycle 1, exactly one period later, and the
/// crosstalk window is a whole period. The rise of `y` couples with
/// the previous cycle's rise of `x`.
#[test]
fn a_crosstalk_window_longer_than_the_quiet_gap_simulates_every_cycle() {
    let mut nl = Netlist::new("xtalk");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let x = nl.add_net("x");
    let y = nl.add_net("y");
    nl.add_gate("g0", "BUF", GateKind::Comb, vec![a], vec![x]);
    nl.add_gate("g1", "BUF", GateKind::Comb, vec![b], vec![y]);
    nl.mark_output(x);
    nl.mark_output(y);
    let lib = Library::lib180();
    let mut load = LoadModel::try_build(&nl, &lib, None).unwrap();
    load.couplings[x.index()].push((y, 4.0));
    load.couplings[y.index()].push((x, 4.0));
    let short = SimConfig {
        samples_per_cycle: 40,
        ..Default::default()
    };
    let comp = CompiledSim::build(&nl, &lib, &load, &short).unwrap();
    assert!(
        comp.settles_single_ended(),
        "the default 60 ps window settles"
    );

    let long = SimConfig {
        crosstalk_window_ps: short.period_ps,
        ..short
    };
    let win = vec![vec![true, false], vec![true, true]];
    let mut quiet = EngineScratch::new();
    comp.run_single_ended(&mut quiet, &win, ..);
    let comp = CompiledSim::build(&nl, &lib, &load, &long).unwrap();
    let mut full = EngineScratch::new();
    comp.run_single_ended(&mut full, &win, ..);
    assert_ne!(
        full.cycle_energy_fj()[1].to_bits(),
        quiet.cycle_energy_fj()[1].to_bits(),
        "the rise of y must couple with cycle 0's rise of x"
    );
    assert_every_cycle_simulated(&nl, &lib, &load, &long, &win);
}

/// A waveform needs every transition, so a `record_waveform` run that
/// measures one cycle still simulates and records all of them.
#[test]
fn record_waveform_records_every_cycle_of_a_measured_run() {
    let (nl, lib, load) = slow_net_fixture();
    let cfg = SimConfig {
        samples_per_cycle: 40,
        ..Default::default()
    };
    let comp = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap();
    assert!(comp.settles_single_ended());
    let cfg = SimConfig {
        record_waveform: true,
        ..cfg
    };
    let comp = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap();
    assert!(!comp.settles_single_ended());

    let win = vec![vec![true], vec![false], vec![true]];
    let mut s = EngineScratch::new();
    comp.run_single_ended(&mut s, &win, ..);
    let want = s.take_sim_result().waveform;
    comp.run_single_ended(&mut s, &win, 1..=1);
    let got = s.take_sim_result().waveform;
    assert_eq!(got, want);
    for c in 0..win.len() as u64 {
        let in_cycle = |&&(t, _, _): &&(u64, NetId, bool)| t / cfg.period_ps == c;
        assert!(
            want.iter().any(|e| in_cycle(&e)),
            "no transition in cycle {c}"
        );
    }
}

/// Only the `clk2q_ps > 0` clause fails: a register output that rises
/// at the edge itself rounds into the last bin of the previous cycle,
/// as in the cycle-edge case above. Measuring that cycle must still
/// simulate the next one.
#[test]
fn a_register_switching_at_the_edge_simulates_every_cycle() {
    let mut nl = Netlist::new("clk2q");
    let a = nl.add_input("a");
    let q = nl.add_net("q");
    let y = nl.add_net("y");
    nl.add_gate("r0", "DFF", GateKind::Seq, vec![a], vec![q]);
    nl.add_gate("g0", "BUF", GateKind::Comb, vec![q], vec![y]);
    nl.mark_output(y);
    let lib = Library::lib180();
    let load = LoadModel::try_build(&nl, &lib, None).unwrap();
    let late = SimConfig {
        samples_per_cycle: 30,
        ..Default::default()
    };
    let comp = CompiledSim::build(&nl, &lib, &load, &late).unwrap();
    assert!(
        comp.settles_single_ended(),
        "a register 150 ps after the edge settles"
    );

    let at_edge = SimConfig {
        clk2q_ps: 0,
        ..late
    };
    let win = vec![vec![true], vec![true]];
    let comp = CompiledSim::build(&nl, &lib, &load, &at_edge).unwrap();
    let mut full = EngineScratch::new();
    comp.run_single_ended(&mut full, &win, ..);
    assert!(
        full.cycle_trace(0)[29] > 0.0,
        "q's rise at 8000 ps must land in bin 29"
    );
    assert_every_cycle_simulated(&nl, &lib, &load, &at_edge, &win);
}
