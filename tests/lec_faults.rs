//! LEC on seeded faults. The DES module's mapped netlist with one
//! AND2↔OR2 swap (`testkit::fault::mismatch_rail_function`) is checked
//! by both engines against the fat netlist of the unmutated design.
//! Every report is pinned (failing compare point and counterexample),
//! and every counterexample, run through the shared zero-delay program,
//! makes the two netlists differ at the compare point it names.

use secflow::cells::Library;
use secflow::crypto::dpa_module::des_dpa_design;
use secflow::flow::{substitute, Substitution};
use secflow::lec::{check_equiv_random_with_parity, check_equiv_with_parity, EquivReport};
use secflow::netlist::{NetId, Netlist};
use secflow::sim::functional::{registers, Bools, Program};
use secflow::synth::{map_design, MapOptions};
use secflow_testkit::fault;

/// `(victim, BDD report, random report)`, a report written as
/// `"reg <index> <counterexample bits>"`. The counterexample lists the
/// fat netlist's inputs in order, then the registers.
const GOLDEN: [(usize, &str, &str); 8] = [
    (
        0,
        "reg 10 000000000000000000000000000000000000",
        "reg 10 000100110001110110010011100111100110",
    ),
    (
        10,
        "reg 10 000000000000000000000000000000000000",
        "reg 10 100111010000100111000001111101100110",
    ),
    (
        15,
        "reg 10 000000000000000000000000000000000000",
        "reg 10 110000000001001001111101101011010000",
    ),
    (
        25,
        "reg 10 000000000000000000000010100000000000",
        "reg 10 011001000010110010010001101110010011",
    ),
    (
        35,
        "reg 10 000000000000000000000000010000000000",
        "reg 10 100100011101100010110110010011101111",
    ),
    (
        40,
        "reg 11 000000000000000000000001010000000000",
        "reg 11 100111010000100111000001111101100110",
    ),
    (
        45,
        "reg 11 000000000000000000000001100000000000",
        "reg 11 100111010000100111000001111101100110",
    ),
    (
        50,
        "reg 12 000000000000000000000000100000000000",
        "reg 12 100111010000100111000001111101100110",
    ),
];

/// A failing report as `"out|reg <index> <bits>"`.
fn render(r: &EquivReport) -> String {
    let (kind, (i, cex)) = match (&r.failing_output, &r.failing_register) {
        (Some(o), None) => ("out", o),
        (None, Some(g)) => ("reg", g),
        _ => panic!("expected exactly one failure: {r:?}"),
    };
    assert!(!r.equivalent);
    let bits: String = cex.iter().map(|&b| if b { '1' } else { '0' }).collect();
    format!("{kind} {i} {bits}")
}

/// Evaluates both netlists under `cex` and asserts that they differ at
/// the compare point `r` names, with the fat netlist's polarity applied.
fn assert_cex_differs(mutated: &Netlist, lib: &Library, sub: &Substitution, r: &EquivReport) {
    let fat = &sub.fat;
    let (regs_a, regs_b) = (registers(mutated), registers(fat));
    let vars_b: Vec<NetId> = fat
        .inputs()
        .iter()
        .copied()
        .chain(regs_b.iter().map(|r| r.1))
        .collect();
    let vars_a: Vec<NetId> = fat
        .inputs()
        .iter()
        .map(|&n| {
            mutated
                .net_by_name(&fat.net(n).name)
                .expect("input matched by name")
        })
        .chain(regs_a.iter().map(|r| r.1))
        .collect();
    let ((a, b, flip), cex) = match (&r.failing_output, &r.failing_register) {
        (Some((i, cex)), None) => (
            (
                mutated.outputs()[*i],
                fat.outputs()[*i],
                sub.fat_output_parity[*i],
            ),
            cex,
        ),
        (None, Some((i, cex))) => (
            (regs_a[*i].0, regs_b[*i].0, sub.fat_register_parity[*i]),
            cex,
        ),
        _ => panic!("expected exactly one failure: {r:?}"),
    };
    let run = |nl: &Netlist, lib: &Library, vars: &[NetId]| {
        let prog = Program::compile(nl, lib).expect("compiles");
        prog.eval(
            &mut Bools,
            false,
            vars.iter().copied().zip(cex.iter().copied()),
        )
    };
    let va = run(mutated, lib, &vars_a);
    let vb = run(fat, &sub.fat_lib, &vars_b);
    assert_ne!(
        va[a.index()],
        vb[b.index()] ^ flip,
        "counterexample does not refute: {r:?}"
    );
}

#[test]
fn seeded_rail_function_swaps_give_pinned_counterexamples_on_both_engines() {
    let lib = Library::lib180();
    let mapped = map_design(&des_dpa_design(), &lib, &MapOptions::default()).expect("mapping");
    let sub = substitute(&mapped, &lib).expect("substitution");
    for (victim, bdd_gold, random_gold) in GOLDEN {
        let mutated = fault::mismatch_rail_function(&mapped, victim);
        let bdd = check_equiv_with_parity(
            &mutated,
            &lib,
            &sub.fat,
            &sub.fat_lib,
            Some(&sub.fat_output_parity),
            Some(&sub.fat_register_parity),
        )
        .expect("interfaces correspond");
        let random = check_equiv_random_with_parity(
            &mutated,
            &lib,
            &sub.fat,
            &sub.fat_lib,
            Some(&sub.fat_output_parity),
            Some(&sub.fat_register_parity),
            8,
            1,
        )
        .expect("interfaces correspond");
        assert_eq!(render(&bdd), bdd_gold, "BDD engine, victim {victim}");
        assert_eq!(
            render(&random),
            random_gold,
            "random engine, victim {victim}"
        );
        assert_cex_differs(&mutated, &lib, &sub, &bdd);
        assert_cex_differs(&mutated, &lib, &sub, &random);
    }
}
