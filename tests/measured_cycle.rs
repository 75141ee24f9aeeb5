//! The measured-cycle contract of both simulation kernels: a run that
//! measures one cycle of a window must reproduce that cycle of the
//! whole-window run bit for bit — trace, energy, rise counts, outputs
//! and the kernel's event and evaluation counts.
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
//! the look-ahead of the measured-cycle mode.

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
    events: u64,
    evals: u64,
}

fn reference(s: &EngineScratch) -> Reference {
    Reference {
        trace: bits(s.trace()),
        energy: bits(s.cycle_energy_fj()),
        rises: s.cycle_rises().to_vec(),
        outputs: (0..CYCLES).map(|c| s.outputs(c).to_vec()).collect(),
        events: s.events_processed(),
        evals: s.gate_evals(),
    }
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

            // The event kernel: every window, every measured cycle.
            let mut s = EngineScratch::new();
            let refs: Vec<Reference> = windows
                .iter()
                .map(|win| {
                    run_event(&comp, &mut s, &imp, win, 0..CYCLES);
                    reference(&s)
                })
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
                    assert_eq!(s.cycle_rises(), &r.rises[..], "{at}: rises");
                    for (c, outs) in r.outputs.iter().enumerate() {
                        assert_eq!(s.outputs(c), &outs[..], "{at}: outputs of cycle {c}");
                    }
                    assert_eq!(s.events_processed(), r.events, "{at}: events");
                    assert_eq!(s.gate_evals(), r.evals, "{at}: evals");
                }
            }

            // The bit-sliced kernel at 1, 63 and 64 live lanes.
            let n_out = refs[0].outputs[0].len();
            for lanes in [1usize, 63, 64] {
                let packed = pack(&windows, lanes);
                let active = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
                let mut full = BitScratch::new();
                run_bitslice(&sim, &mut full, &imp, &packed, active, 0..CYCLES);
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
                    assert_eq!(bs.total_rises(), rises, "{at}: rises");
                    assert_eq!(
                        bs.events_processed(),
                        full.events_processed(),
                        "{at}: events"
                    );
                    assert_eq!(bs.gate_evals(), full.gate_evals(), "{at}: evals");
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
