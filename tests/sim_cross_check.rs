//! Cross-validation of the three functional models: the event-driven
//! power simulator, the zero-delay functional simulator and the
//! bit-parallel AIG evaluator must all agree with the software
//! reference on the DES module.

use secflow::cells::Library;
use secflow::crypto::dpa_module::{des_dpa_design, encrypt};
use secflow::flow::{run_secure_flow, FlowOptions};
use secflow::sim::functional::run_cycles;
use secflow::sim::{simulate, CycleDriver, SimConfig};
use secflow::synth::{map_design, simulate_seq, MapOptions, SeqState};

fn stimuli() -> Vec<(u8, u8)> {
    (0..24u32)
        .map(|i| {
            let x = i.wrapping_mul(2654435761);
            ((x >> 7 & 15) as u8, (x >> 13 & 63) as u8)
        })
        .collect()
}

fn vectors(key: u8) -> Vec<Vec<bool>> {
    let mut v = Vec::new();
    for &(pl, pr) in &stimuli() {
        let mut row = Vec::with_capacity(16);
        for i in 0..4 {
            row.push(pl >> i & 1 == 1);
        }
        for i in 0..6 {
            row.push(pr >> i & 1 == 1);
        }
        for i in 0..6 {
            row.push(key >> i & 1 == 1);
        }
        v.push(row);
    }
    // Flush cycles: plaintext zero, key held.
    for _ in 0..2 {
        let mut row = vec![false; 10];
        for i in 0..6 {
            row.push(key >> i & 1 == 1);
        }
        v.push(row);
    }
    v
}

fn decode(outs: &[bool]) -> (u8, u8) {
    let cl = (0..4).fold(0u8, |a, j| a | ((outs[j] as u8) << j));
    let cr = (0..6).fold(0u8, |a, j| a | ((outs[4 + j] as u8) << j));
    (cl, cr)
}

#[test]
fn all_simulators_agree_with_the_model() {
    let key = 46u8;
    let design = des_dpa_design();
    let lib = Library::lib180();
    let nl = map_design(&design, &lib, &MapOptions::default()).expect("mapping");
    let vecs = vectors(key);

    // 1. AIG-level sequential simulation.
    let mut st = SeqState::reset(&design);
    let mut aig_out = Vec::new();
    for v in &vecs {
        let words: Vec<u64> = v.iter().map(|&b| if b { !0 } else { 0 }).collect();
        let outs = simulate_seq(&design, &mut st, &words);
        aig_out.push(decode(
            &outs.iter().map(|&w| w & 1 == 1).collect::<Vec<_>>(),
        ));
    }

    // 2. Zero-delay gate-level simulation of the mapped netlist.
    let func_out: Vec<(u8, u8)> = run_cycles(&nl, &lib, &vecs)
        .unwrap()
        .iter()
        .map(|o| decode(o))
        .collect();

    // 3. Event-driven timing simulation.
    let cfg = SimConfig {
        samples_per_cycle: 100,
        ..Default::default()
    };
    let sim = simulate(&nl, &lib, None, &cfg, CycleDriver::SingleEnded, &vecs).unwrap();
    let event_out: Vec<(u8, u8)> = sim.outputs_per_cycle.iter().map(|o| decode(o)).collect();

    // 4. Software model (2-cycle pipeline latency).
    for (i, &(pl, pr)) in stimuli().iter().enumerate() {
        let expect = encrypt(pl, pr, key);
        assert_eq!(aig_out[i + 2], expect, "AIG sim at {i}");
        assert_eq!(func_out[i + 2], expect, "functional sim at {i}");
        assert_eq!(event_out[i + 2], expect, "event sim at {i}");
    }
}

#[test]
fn secure_flow_differential_sim_agrees_with_model() {
    let key = 46u8;
    let design = des_dpa_design();
    let lib = Library::lib180();
    let opts = FlowOptions {
        anneal_moves_per_gate: 40,
        ..Default::default()
    };
    let sec = run_secure_flow(&design, &lib, &opts).expect("secure flow");
    let sub = &sec.substitution;
    let cfg = SimConfig {
        samples_per_cycle: 100,
        ..Default::default()
    };
    let vecs = vectors(key);
    let sim = simulate(
        &sub.differential,
        &sub.diff_lib,
        Some(&sec.parasitics),
        &cfg,
        CycleDriver::Wddl(&sub.input_pairs),
        &vecs,
    )
    .unwrap();
    // No alarms at the nominal clock.
    assert!(sim.wddl_alarms.iter().all(|&a| a == 0));
    for (i, &(pl, pr)) in stimuli().iter().enumerate() {
        let outs: Vec<bool> = sim.outputs_per_cycle[i + 2]
            .chunks(2)
            .map(|pair| pair[0])
            .collect();
        assert_eq!(decode(&outs), encrypt(pl, pr, key), "WDDL sim at {i}");
    }
}
