//! Fault injection across every flow stage: each corrupt artifact a
//! stage can receive must produce the *expected typed* [`FlowError`]
//! variant — never a panic — and the error must carry the right stage
//! name and exit code for structured CLI reporting. The whole battery
//! runs at 1 and 4 worker threads, since several stages parallelise
//! internally and an error must surface identically either way.

use std::collections::HashSet;

use secflow::cells::Library;
use secflow::flow::{
    decompose, run_regular_backend, run_secure_backend, substitute, verify_rail_complementarity,
    FlowError, FlowOptions, Stage, SubstituteError,
};
use secflow::lec::{check_equiv_with_parity, LecError};
use secflow::netlist::{parse_verilog, GateKind, Netlist, NetlistError};
use secflow::pnr::{
    place, route, GridPitch, PlaceError, PlaceOptions, RouteError, RouteOptions,
};
use secflow::sim::{simulate, BitSim, CycleDriver, LoadModel, SimConfig, SimError};
use secflow::synth::{map_design, Design, MapError, MapOptions};
use secflow_testkit::fault;

/// The ten stages' exit codes must be distinct and in the documented
/// 10–19 band (0 success, 1/2 usage errors).
#[test]
fn stage_exit_codes_are_distinct_and_banded() {
    let stages = [
        Stage::Parse,
        Stage::Synth,
        Stage::Substitute,
        Stage::Place,
        Stage::Route,
        Stage::Decompose,
        Stage::Extract,
        Stage::Lec,
        Stage::RailCheck,
        Stage::Sim,
    ];
    let codes: HashSet<i32> = stages.iter().map(|s| s.exit_code()).collect();
    assert_eq!(codes.len(), stages.len());
    assert!(codes.iter().all(|c| (10..=19).contains(c)));
}

/// Checks the structured report invariants every fault test relies
/// on: stage, distinct exit code, and a JSON line naming both.
fn assert_flow_error(e: impl Into<FlowError>, stage: Stage) {
    let e = e.into();
    assert_eq!(e.stage(), stage);
    assert_eq!(e.exit_code(), stage.exit_code());
    let json = e.to_json();
    assert!(
        json.starts_with(&format!(
            "{{\"error\":{{\"stage\":\"{}\",\"kind\":\"",
            stage.name()
        )),
        "bad JSON for {stage:?}: {json}"
    );
}

/// A six-gate single-ended circuit over lib180 cells, valid input for
/// every backend stage.
fn small_netlist() -> Netlist {
    let mut nl = Netlist::new("small");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let w1 = nl.add_net("w1");
    let w2 = nl.add_net("w2");
    let y = nl.add_net("y");
    nl.add_gate("g1", "AND2", GateKind::Comb, vec![a, b], vec![w1]);
    nl.add_gate("g2", "OR2", GateKind::Comb, vec![a, w1], vec![w2]);
    nl.add_gate("g3", "INV", GateKind::Comb, vec![w2], vec![y]);
    nl.mark_output(y);
    nl
}

fn golden_src() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/des_regular.v"
    ))
    .expect("golden netlist")
}

fn run_battery() {
    let lib = Library::lib180();

    // Parse: a truncated netlist is a typed parse error.
    for seed in [1, 2, 3] {
        let e = parse_verilog(&fault::truncate_verilog(&golden_src(), seed), &[])
            .expect_err("truncated source must not parse");
        assert!(matches!(e, NetlistError::Parse { .. }), "{e:?}");
        assert_flow_error(e, Stage::Parse);
    }

    // Synth: an empty cell allowlist leaves 2-input functions
    // unmappable.
    let mut d = Design::new("unmappable");
    let a = d.input("a");
    let b = d.input("b");
    let y = d.aig.and(a, b);
    d.output("y", y);
    let opts = MapOptions {
        allowed_cells: Some(HashSet::new()),
        ..Default::default()
    };
    let e = map_design(&d, &lib, &opts).expect_err("empty allowlist must be unmappable");
    assert!(matches!(e, MapError::Unmappable { .. }), "{e:?}");
    assert_flow_error(e, Stage::Synth);

    // Substitute: unknown cells and combinational loops.
    let e = substitute(&fault::unknown_cell_netlist(), &lib)
        .expect_err("unknown cell must not substitute");
    assert!(
        matches!(&e, SubstituteError::UnknownCell { cell } if cell == "NOT_A_CELL"),
        "{e:?}"
    );
    assert_flow_error(e, Stage::Substitute);
    let e = substitute(&fault::combinational_loop_netlist(), &lib)
        .expect_err("cyclic netlist must not substitute");
    assert!(matches!(e, SubstituteError::Cyclic { .. }), "{e:?}");
    assert_flow_error(e, Stage::Substitute);

    // Place: unknown cell.
    let e = place(&fault::unknown_cell_netlist(), &lib, &PlaceOptions::default())
        .expect_err("unknown cell must not place");
    assert!(matches!(&e, PlaceError::UnknownCell { cell, .. } if cell == "NOT_A_CELL"));
    assert_flow_error(e, Stage::Place);
    // Place: degenerate options.
    let e = place(
        &small_netlist(),
        &lib,
        &PlaceOptions {
            fill_factor: 0.0,
            ..Default::default()
        },
    )
    .expect_err("zero fill factor must be rejected");
    assert!(matches!(e, PlaceError::InvalidOptions { .. }));
    assert_flow_error(e, Stage::Place);

    // Route: a die shrunk under its placed cells puts pins off-grid.
    let nl = small_netlist();
    let placed = place(&nl, &lib, &PlaceOptions::default()).expect("valid placement");
    let e = route(&nl, &lib, &fault::shrink_die(&placed), &RouteOptions::default())
        .expect_err("off-die pins must not route");
    assert!(
        matches!(
            e,
            RouteError::PinOutOfBounds { .. } | RouteError::PinCollision { .. }
        ),
        "{e:?}"
    );
    assert_flow_error(e, Stage::Route);
    // Route: pins need a horizontal and a vertical layer, so fewer
    // than two layers is refused before the grid is built, and so are
    // negative or non-finite costs, which the search's cost order does
    // not cover.
    let layer_cases = [0, 1].map(|layers| RouteOptions {
        layers,
        ..Default::default()
    });
    let via_cases = [-1.0, f64::NAN, f64::INFINITY].map(|via_cost| RouteOptions {
        via_cost,
        ..Default::default()
    });
    let history_cases = [-0.5, f32::NAN, f32::INFINITY].map(|history_increment| RouteOptions {
        history_increment,
        ..Default::default()
    });
    for opts in layer_cases.iter().chain(&via_cases).chain(&history_cases) {
        let e = route(&nl, &lib, &placed, opts).expect_err("degenerate options must not route");
        assert!(matches!(e, RouteError::InvalidOptions { .. }), "{opts:?}: {e:?}");
        assert_flow_error(e, Stage::Route);
    }

    // Decompose: a normal-pitch routed design is not a fat design,
    // and a fat design that lost a placed cell cannot decompose.
    let sub = substitute(&nl, &lib).expect("valid substitution");
    let routed = route(&nl, &lib, &placed, &RouteOptions::default()).expect("valid routing");
    let e = decompose(&routed, &sub).expect_err("normal pitch must not decompose");
    assert!(matches!(e, secflow::flow::DecomposeError::NotFatPitch));
    assert_flow_error(e, Stage::Decompose);
    let fat_placed = place(
        &sub.fat,
        &sub.fat_lib,
        &PlaceOptions {
            pitch: GridPitch::Fat,
            ..Default::default()
        },
    )
    .expect("valid fat placement");
    let mut fat_routed = route(&sub.fat, &sub.fat_lib, &fat_placed, &RouteOptions::default())
        .expect("valid fat routing");
    fat_routed.placed.cells.pop();
    let e = decompose(&fat_routed, &sub).expect_err("dropped cell must not decompose");
    assert!(matches!(
        e,
        secflow::flow::DecomposeError::CellCountMismatch { .. }
    ));
    assert_flow_error(e, Stage::Decompose);

    // Extract: NaN / negative technology constants are refused before
    // they can poison every parasitic.
    let e = secflow::extract::try_extract(&routed, &nl, &fault::bad_technology())
        .expect_err("non-physical technology must be rejected");
    assert!(matches!(
        e,
        secflow::extract::ExtractError::BadTechnology { .. }
    ));
    assert_flow_error(e, Stage::Extract);

    // LEC: designs whose interfaces do not correspond.
    let mut other = Netlist::new("other_iface");
    let p = other.add_input("p");
    let q = other.add_net("q");
    other.add_gate("g1", "INV", GateKind::Comb, vec![p], vec![q]);
    other.mark_output(q);
    let e = check_equiv_with_parity(&nl, &lib, &other, &lib, None, None)
        .expect_err("mismatched interfaces must not compare");
    assert!(matches!(e, LecError::PortMismatch { .. }), "{e:?}");
    assert_flow_error(e, Stage::Lec);

    // Rail check: swapping one rail primitive for its dual breaks
    // WDDL complementarity.
    let mut broken = substitute(&nl, &lib).expect("valid substitution");
    broken.differential = fault::mismatch_rail_function(&broken.differential, 0);
    let e = verify_rail_complementarity(&nl, &lib, &broken, 4, 11)
        .expect_err("swapped rails must fail verification");
    assert_flow_error(e, Stage::RailCheck);

    // Sim: a combinational loop has no evaluation order, and an
    // unknown cell has no power model.
    let cfg = SimConfig {
        samples_per_cycle: 8,
        ..Default::default()
    };
    let vectors = vec![vec![true]];
    let se = CycleDriver::SingleEnded;
    let e = simulate(
        &fault::combinational_loop_netlist(),
        &lib,
        None,
        &cfg,
        se,
        &[vec![]],
    )
    .expect_err("cyclic netlist must not simulate");
    assert!(matches!(e, SimError::CombinationalCycle { .. }), "{e:?}");
    assert_flow_error(e, Stage::Sim);
    let e = simulate(
        &fault::unknown_cell_netlist(),
        &lib,
        None,
        &cfg,
        se,
        &vectors,
    )
    .expect_err("unknown cell must not simulate");
    assert!(
        matches!(&e, SimError::UnknownCell { cell, .. } if cell == "NOT_A_CELL"),
        "{e:?}"
    );
    assert_flow_error(e, Stage::Sim);

    // The bit-sliced backend goes through the same load/compile
    // pipeline and must surface identical typed errors.
    let bit_build = |nl: &Netlist| {
        LoadModel::try_build(nl, &lib, None)
            .and_then(|load| BitSim::build(nl, &lib, &load, &cfg).map(|_| ()))
    };
    let e = bit_build(&fault::combinational_loop_netlist())
        .expect_err("cyclic netlist must not compile for bitslice");
    assert!(matches!(e, SimError::CombinationalCycle { .. }), "{e:?}");
    assert_flow_error(e, Stage::Sim);
    let e = bit_build(&fault::unknown_cell_netlist())
        .expect_err("unknown cell must not compile for bitslice");
    assert!(
        matches!(&e, SimError::UnknownCell { cell, .. } if cell == "NOT_A_CELL"),
        "{e:?}"
    );
    assert_flow_error(e, Stage::Sim);
}

#[test]
fn every_stage_fault_is_a_typed_error_at_1_thread() {
    secflow::exec::with_threads(1, run_battery);
}

#[test]
fn every_stage_fault_is_a_typed_error_at_4_threads() {
    secflow::exec::with_threads(4, run_battery);
}

/// A corrupt netlist must fail the *parse* stage of the secure flow
/// without poisoning the process: after the typed failure, a valid
/// flow on the same thread still succeeds end-to-end.
#[test]
fn failed_stage_does_not_poison_subsequent_flows() {
    let lib = Library::lib180();
    let bad = parse_verilog(&fault::truncate_verilog(&golden_src(), 5), &[]);
    assert!(bad.is_err());
    let mut d = Design::new("after_fault");
    let a = d.input("a");
    let b = d.input("b");
    let y = d.aig.and(a, b);
    d.output("y", y);
    let secure = secflow::flow::run_secure_flow(&d, &lib, &FlowOptions::default())
        .expect("valid flow after a fault");
    assert!(secure.report.die_area_um2 > 0.0);
}

/// Gates of a known cell with one input too many, one too few, and one
/// output too many, as the CLI reads them from `rtl.v`.
const BAD_PIN_NETLISTS: [(&str, &str); 3] = [
    (
        "three-input AND2",
        "module bad (a, b, c, y);\n  input a;\n  input b;\n  input c;\n  output y;\n  \
         AND2 g0 (.A(a), .B(b), .C(c), .Y(y));\nendmodule\n",
    ),
    (
        "one-input AND2",
        "module bad (a, y);\n  input a;\n  output y;\n  AND2 g0 (.A(a), .Y(y));\nendmodule\n",
    ),
    (
        "two-output AND2",
        "module bad (a, b, y, z);\n  input a;\n  input b;\n  output y;\n  output z;\n  \
         AND2 g0 (.A(a), .B(b), .Y(y), .Y1(z));\nendmodule\n",
    ),
];

fn parse_bad(src: &str, lib: &Library) -> Netlist {
    parse_verilog(src, &lib.seq_cell_names()).expect("the netlist is syntactically valid")
}

/// A gate whose pin count differs from its cell's fails the parse stage
/// of both backends with a typed error naming the gate, the cell and
/// both counts, instead of panicking in placement or substitution.
#[test]
fn wrong_pin_counts_fail_the_parse_stage_of_both_backends() {
    let lib = Library::lib180();
    let opts = FlowOptions::default();
    let want = [(3, 2, "inputs"), (1, 2, "inputs"), (2, 1, "outputs")];
    for ((label, src), (got, expected, pins)) in BAD_PIN_NETLISTS.iter().zip(want) {
        let detail = format!("gate `g0` has {got} {pins} but cell `AND2` has {expected}");
        let errors = [
            run_regular_backend(parse_bad(src, &lib), &lib, &opts, 0.0).map(|_| ()),
            run_secure_backend(parse_bad(src, &lib), &lib, &opts, 0.0).map(|_| ()),
        ];
        for e in errors {
            let e = e.expect_err(label);
            assert!(
                matches!(&e, FlowError::Parse(NetlistError::PinCount { gate, cell, .. })
                    if gate == "g0" && cell == "AND2"),
                "{label}: {e:?}"
            );
            assert!(e.to_string().contains(&detail), "{label}: {e}");
            assert_flow_error(e, Stage::Parse);
        }
    }
}

/// The simulator's build path refuses the same netlists with a typed
/// [`SimError`], in the load model as in the kernel itself.
#[test]
fn wrong_pin_counts_are_a_typed_sim_error() {
    let lib = Library::lib180();
    let cfg = SimConfig::default();
    for (label, src) in BAD_PIN_NETLISTS {
        let nl = parse_bad(src, &lib);
        let vectors = vec![vec![false; nl.inputs().len()]];
        let e =
            simulate(&nl, &lib, None, &cfg, CycleDriver::SingleEnded, &vectors).expect_err(label);
        assert!(
            matches!(&e, SimError::PinCount { gate, cell, .. } if gate == "g0" && cell == "AND2"),
            "{label}: {e:?}"
        );
        let load = LoadModel {
            c_eff_ff: vec![0.0; nl.net_count()],
            drive_kohm: vec![0.0; nl.net_count()],
            couplings: vec![Vec::new(); nl.net_count()],
        };
        let e = BitSim::build(&nl, &lib, &load, &cfg).expect_err(label);
        assert!(matches!(e, SimError::PinCount { .. }), "{label}: {e:?}");
        assert_flow_error(e, Stage::Sim);
    }
}
