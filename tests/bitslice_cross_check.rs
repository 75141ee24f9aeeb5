//! Differential-testing harness for the bit-sliced simulation backend.
//!
//! The bitslice kernel is only admissible because it is **bit-identical**
//! to the compiled event kernel — a fast path that silently diverges
//! would corrupt every downstream MTD/attack figure. These tests pin
//! that contract three ways:
//!
//! 1. full campaigns on the golden DES regular and WDDL netlists must
//!    match the event backend byte-for-byte (`f64::to_bits`) at 1, 2
//!    and 8 worker threads;
//! 2. ragged campaign sizes (1, 63, 64, 65, 2500 — non-multiples of
//!    the 64-lane width) must match exactly, proving dead-lane masking
//!    never leaks into the live lanes;
//! 3. a property check over random small netlists and random stimuli
//!    compares per-cycle toggle vectors and traces lane by lane.

use secflow::cells::Library;
use secflow::crypto::dpa_module::{des_dpa_design, PAPER_KEY};
use secflow::dpa::harness::{collect_des_traces, DesTarget, TraceSet};
use secflow::exec::with_threads;
use secflow::flow::substitute;
use secflow::netlist::{GateKind, NetId, Netlist};
use secflow::sim::{
    BitScratch, BitSim, CompiledSim, EngineScratch, LoadModel, SimBackend, SimConfig,
};
use secflow::synth::{map_design, MapOptions};
use secflow_testkit::Gen;

fn assert_identical(event: &TraceSet, bitslice: &TraceSet, label: &str) {
    assert_eq!(event.ciphertexts, bitslice.ciphertexts, "{label}: ciphertexts");
    assert_eq!(
        event.samples_per_trace, bitslice.samples_per_trace,
        "{label}: samples"
    );
    for (i, (a, b)) in event.energies.iter().zip(&bitslice.energies).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: energy {i}");
    }
    for (i, (a, b)) in event.traces.iter().zip(&bitslice.traces).enumerate() {
        let a: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b, "{label}: trace {i}");
    }
}

fn campaign(target: &DesTarget<'_>, cfg: &SimConfig, n: usize, threads: usize) -> TraceSet {
    with_threads(threads, || {
        collect_des_traces(target, cfg, PAPER_KEY, n, 7).unwrap()
    })
}

#[test]
fn regular_des_campaign_is_byte_identical_at_1_2_and_8_threads() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("mapping");
    let target = DesTarget {
        netlist: &mapped,
        lib: &lib,
        parasitics: None,
        wddl_inputs: None,
        glitch_free: false,
        backend: SimBackend::Event,
    };
    let cfg = SimConfig {
        samples_per_cycle: 50,
        ..Default::default()
    };
    let event = campaign(&target, &cfg, 24, 1);
    for threads in [1usize, 2, 8] {
        let bs = campaign(&target.with_backend(SimBackend::Bitslice), &cfg, 24, threads);
        assert_identical(&event, &bs, &format!("regular at {threads} threads"));
    }
}

#[test]
fn wddl_des_campaign_is_byte_identical_at_1_2_and_8_threads() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("mapping");
    let sub = substitute(&mapped, &lib).expect("substitution");
    let target = DesTarget {
        netlist: &sub.differential,
        lib: &sub.diff_lib,
        parasitics: None,
        wddl_inputs: Some(&sub.input_pairs),
        glitch_free: false,
        backend: SimBackend::Event,
    };
    let cfg = SimConfig {
        samples_per_cycle: 50,
        ..Default::default()
    };
    let event = campaign(&target, &cfg, 24, 1);
    for threads in [1usize, 2, 8] {
        let bs = campaign(&target.with_backend(SimBackend::Bitslice), &cfg, 24, threads);
        assert_identical(&event, &bs, &format!("wddl at {threads} threads"));
    }
}

/// Noise and the glitch-free power model must also survive the
/// backend swap: noise is applied per trace *after* the kernel, keyed
/// by encryption index, so it must not observe the batching at all.
#[test]
fn noisy_and_glitch_free_campaigns_are_byte_identical() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("mapping");
    for glitch_free in [false, true] {
        let target = DesTarget {
            netlist: &mapped,
            lib: &lib,
            parasitics: None,
            wddl_inputs: None,
            glitch_free,
            backend: SimBackend::Event,
        };
        let cfg = SimConfig {
            samples_per_cycle: 25,
            noise_sigma: 0.35,
            noise_seed: 99,
            ..Default::default()
        };
        let event = campaign(&target, &cfg, 70, 1);
        let bs = campaign(&target.with_backend(SimBackend::Bitslice), &cfg, 70, 2);
        assert_identical(&event, &bs, &format!("noisy glitch_free={glitch_free}"));
    }
}

/// Campaign sizes straddling the 64-lane width: the dead lanes of a
/// ragged tail batch must not perturb any live lane.
#[test]
fn ragged_campaign_sizes_match_the_event_kernel() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("mapping");
    let target = DesTarget {
        netlist: &mapped,
        lib: &lib,
        parasitics: None,
        wddl_inputs: None,
        glitch_free: false,
        backend: SimBackend::Event,
    };
    let cfg = SimConfig {
        samples_per_cycle: 25,
        ..Default::default()
    };
    for n in [1usize, 63, 64, 65, 2500] {
        let event = campaign(&target, &cfg, n, 4);
        let bs = campaign(&target.with_backend(SimBackend::Bitslice), &cfg, n, 4);
        assert_identical(&event, &bs, &format!("n={n}"));
    }
}

/// The crosstalk adjustment depends on *per-lane* transition history
/// of coupled neighbours, the one piece of engine state a naive
/// bitslice drops. Extracted layout parasitics (with couplings) must
/// therefore also survive the backend swap byte-for-byte.
#[test]
fn wddl_campaign_with_extracted_parasitics_is_byte_identical() {
    use secflow::flow::{run_secure_flow, FlowOptions};
    let lib = Library::lib180();
    let opts = FlowOptions {
        anneal_moves_per_gate: 40,
        ..Default::default()
    };
    let sec = run_secure_flow(&des_dpa_design(), &lib, &opts).expect("secure flow");
    let sub = &sec.substitution;
    let target = DesTarget {
        netlist: &sub.differential,
        lib: &sub.diff_lib,
        parasitics: Some(&sec.parasitics),
        wddl_inputs: Some(&sub.input_pairs),
        glitch_free: false,
        backend: SimBackend::Event,
    };
    let cfg = SimConfig {
        samples_per_cycle: 50,
        ..Default::default()
    };
    let event = campaign(&target, &cfg, 12, 1);
    let bs = campaign(&target.with_backend(SimBackend::Bitslice), &cfg, 12, 2);
    assert_identical(&event, &bs, "wddl with parasitics");
}

/// Draws a random acyclic gate-level netlist over lib180 cells, with
/// an occasional DFF so register driving is exercised too.
fn random_netlist(g: &mut Gen) -> Netlist {
    const CELLS: [(&str, usize); 11] = [
        ("INV", 1),
        ("BUF", 1),
        ("NAND2", 2),
        ("NOR2", 2),
        ("AND2", 2),
        ("OR2", 2),
        ("XOR2", 2),
        ("XNOR2", 2),
        ("NAND3", 3),
        ("AOI21", 3),
        ("MUX2", 3),
    ];
    let mut nl = Netlist::new("prop");
    let n_inputs = g.len_in(1..5);
    let mut pool: Vec<NetId> = (0..n_inputs).map(|i| nl.add_input(&format!("i{i}"))).collect();
    let n_gates = g.len_in(1..14);
    for k in 0..n_gates {
        let out = nl.add_net(&format!("n{k}"));
        if g.random_bool(0.15) {
            let d = *g.choose(&pool);
            nl.add_gate(&format!("g{k}"), "DFF", GateKind::Seq, vec![d], vec![out]);
        } else {
            let &(cell, arity) = g.choose(&CELLS);
            let ins: Vec<NetId> = (0..arity).map(|_| *g.choose(&pool)).collect();
            nl.add_gate(&format!("g{k}"), cell, GateKind::Comb, ins, vec![out]);
        }
        pool.push(out);
    }
    nl.mark_output(*pool.last().unwrap());
    nl
}

/// Adds random symmetric couplings (a few per net) to `load`, so the
/// crosstalk adjustment and last-transition tracking are exercised.
fn add_random_couplings(g: &mut Gen, nl: &Netlist, load: &mut LoadModel) {
    let n = nl.net_count();
    for a in 0..n {
        for b in (a + 1)..n {
            if g.random_bool(0.3) {
                let cc = 0.5 + 4.0 * g.random::<f64>();
                load.couplings[a].push((NetId(b as u32), cc));
                load.couplings[b].push((NetId(a as u32), cc));
            }
        }
    }
}

/// Random netlists with random couplings under the paper's clock or a
/// random short one, random stimuli, random lane counts: per-cycle
/// toggle vectors, energies, traces and outputs must match the scalar
/// event kernel in every lane — and a run measuring one random cycle
/// must reproduce that cycle of the whole-window run on both kernels.
/// Its work is that cycle's own if the design settles (DESIGN.md §16),
/// and the whole window's otherwise.
#[test]
fn prop_random_netlists_match_event_kernel_per_lane() {
    secflow_testkit::prop_check!(cases: 48, seed: 0xB17_511CE, |g| {
        let nl = random_netlist(g);
        let lib = Library::lib180();
        let cfg = if g.random_bool(0.5) {
            SimConfig {
                samples_per_cycle: 20,
                ..Default::default()
            }
        } else {
            // A clock short enough that switching and deposits cross
            // cycle edges, with bins of any (often non-integer) width.
            let period_ps = g.random_range(150..1200u64);
            SimConfig {
                period_ps,
                samples_per_cycle: g.random_range(3..64usize),
                clk2q_ps: g.random_range(0..period_ps / 2),
                input_delay_ps: g.random_range(0..period_ps / 2),
                crosstalk_window_ps: g.random_range(0..300u64),
                ..Default::default()
            }
        };
        let mut load = LoadModel::try_build(&nl, &lib, None).unwrap();
        add_random_couplings(g, &nl, &mut load);
        let comp = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap();
        let sim = BitSim::build(&nl, &lib, &load, &cfg).unwrap();

        let lanes = g.len_in(1..65);
        let n_cycles = g.len_in(1..6);
        let n_inputs = nl.inputs().len();
        // Per-lane boolean windows and their packed transpose.
        let windows: Vec<Vec<Vec<bool>>> = (0..lanes)
            .map(|_| {
                (0..n_cycles)
                    .map(|_| (0..n_inputs).map(|_| g.random_bool(0.5)).collect())
                    .collect()
            })
            .collect();
        let mut packed = vec![vec![0u64; n_inputs]; n_cycles];
        for (l, win) in windows.iter().enumerate() {
            for (c, v) in win.iter().enumerate() {
                for (k, &bit) in v.iter().enumerate() {
                    if bit {
                        packed[c][k] |= 1 << l;
                    }
                }
            }
        }
        let active = if lanes == 64 { !0u64 } else { (1u64 << lanes) - 1 };
        let m = g.random_range(0..n_cycles);

        let settles = comp.settles_single_ended();
        assert_eq!(sim.settles_single_ended(), settles, "both kernels share the settle test");
        // `[events, evals, rises]` a run measuring cycle m must report,
        // given the work of whole-window runs over the first k cycles:
        // the whole window's, or if the design settles, the difference
        // of the runs truncated after cycle m and before it (they share
        // their first m cycles).
        let expected_work = |work_upto: &mut dyn FnMut(usize) -> [u64; 3]| {
            if settles {
                let (after, before) = (work_upto(m + 1), work_upto(m));
                [after[0] - before[0], after[1] - before[1], after[2] - before[2]]
            } else {
                work_upto(n_cycles)
            }
        };

        let mut bs = BitScratch::new();
        let mut bt = BitScratch::new();
        sim.run_single_ended(&mut bs, &packed, active, ..);
        let [events, evals, rises] = expected_work(&mut |k| {
            sim.run_single_ended(&mut bt, &packed[..k], active, ..);
            [bt.events_processed(), bt.gate_evals(), bt.total_rises()]
        });
        let mut bm = BitScratch::new();
        sim.run_single_ended(&mut bm, &packed, active, m..=m);
        assert_eq!(bm.total_rises(), rises, "measured bitslice rises");
        assert_eq!(bm.events_processed(), events, "measured bitslice events");
        assert_eq!(bm.gate_evals(), evals, "measured bitslice evals");

        let mut es = EngineScratch::new();
        let mut et = EngineScratch::new();
        let mut em = EngineScratch::new();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (l, win) in windows.iter().enumerate() {
            comp.run_single_ended(&mut es, win, ..);
            // Per-cycle toggle vector: the power model's currency.
            let toggles: Vec<u64> = (0..n_cycles).map(|c| bs.cycle_rises(c, l)).collect();
            assert_eq!(&toggles[..], es.cycle_rises(), "toggles lane {l}");
            for c in 0..n_cycles {
                assert_eq!(
                    bs.cycle_energy_fj(c, l).to_bits(),
                    es.cycle_energy_fj()[c].to_bits(),
                    "energy lane {l} cycle {c}"
                );
            }
            assert_eq!(bits(&bs.lane_trace(l)), bits(es.trace()), "trace lane {l}");
            for c in 0..n_cycles {
                assert_eq!(bs.output_bit(c, 0, l), es.outputs(c)[0], "output lane {l}");
            }

            // The measured cycle, on both kernels.
            comp.run_single_ended(&mut em, win, m..=m);
            let want = bits(es.cycle_trace(m));
            assert_eq!(bits(em.cycle_trace(m)), want, "measured event trace lane {l}");
            assert_eq!(bits(&bm.cycle_trace(m, l)), want, "measured bitslice trace lane {l}");
            let e = es.cycle_energy_fj()[m].to_bits();
            assert_eq!(em.cycle_energy_fj()[m].to_bits(), e, "measured event energy lane {l}");
            assert_eq!(bm.cycle_energy_fj(m, l).to_bits(), e, "measured bitslice energy lane {l}");
            assert_eq!(bm.cycle_rises(m, l), es.cycle_rises()[m], "measured rises lane {l}");
            let rises: Vec<u64> = (0..n_cycles)
                .map(|c| if settles && c != m { 0 } else { es.cycle_rises()[c] })
                .collect();
            assert_eq!(em.cycle_rises(), &rises[..], "measured event rises lane {l}");
            let [events, evals, _] = expected_work(&mut |k| {
                comp.run_single_ended(&mut et, &win[..k], ..);
                [et.events_processed(), et.gate_evals(), 0]
            });
            assert_eq!(em.events_processed(), events, "events lane {l}");
            assert_eq!(em.gate_evals(), evals, "evals lane {l}");
            for c in 0..n_cycles {
                assert_eq!(em.outputs(c), es.outputs(c), "measured event outputs lane {l}");
                assert_eq!(bm.output_bit(c, 0, l), es.outputs(c)[0], "measured output lane {l}");
            }
        }
    });
}
