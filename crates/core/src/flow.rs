//! Flow orchestration: the regular digital design flow and the secure
//! digital design flow of Fig. 1, end to end.

use std::time::Instant;

use secflow_cells::{Library, TRACK_UM};
use secflow_extract::{pair_mismatch, try_extract, Parasitics, Technology};
use secflow_lec::{check_equiv_random_with_parity, check_equiv_with_parity};
use secflow_netlist::{Netlist, NetlistError, NetlistStats};
use secflow_pnr::{
    build_clock_tree, place_best_of, route, ClockOptions, ClockReport, GridPitch, PlaceOptions,
    RoutedDesign,
};
use secflow_synth::{map_design, Design, MapOptions};

use crate::checks::{verify_precharge_wave, verify_rail_complementarity};
use crate::decompose::{decompose_styled, DecomposeStyle};
use crate::error::FlowError;
use crate::substitute::{substitute, Substitution};

/// Configuration shared by both flows.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Technology-mapping options (the synthesis `script`).
    pub map: MapOptions,
    /// Row fill factor (paper: 0.8).
    pub fill_factor: f64,
    /// Die aspect ratio (paper: 1.0).
    pub aspect_ratio: f64,
    /// Placement-annealing effort (moves per gate).
    pub anneal_moves_per_gate: usize,
    /// Independent placement-annealing restarts; the lowest-HPWL
    /// result wins. Restarts run in parallel and `1` is a single
    /// plain placement.
    pub place_restarts: usize,
    /// Seed for the stochastic placement refinement.
    pub seed: u64,
    /// Router options.
    pub route: secflow_pnr::RouteOptions,
    /// Extraction technology.
    pub tech: Technology,
    /// Differential-pair geometry produced by the decomposition (the
    /// paper's §2.2 security / area knob).
    pub decompose_style: DecomposeStyle,
    /// Run the verification steps (equivalence check, precharge wave,
    /// rail complementarity).
    pub verify: bool,
    /// Gate count above which the equivalence check falls back from
    /// BDDs to random simulation.
    pub bdd_gate_limit: usize,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            map: MapOptions::default(),
            fill_factor: 0.8,
            aspect_ratio: 1.0,
            anneal_moves_per_gate: 100,
            place_restarts: 1,
            seed: 1,
            route: secflow_pnr::RouteOptions::default(),
            tech: Technology::default(),
            decompose_style: DecomposeStyle::Dense,
            verify: true,
            bdd_gate_limit: 1500,
        }
    }
}

/// Metrics and timing breakdown of one flow run.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Statistics of the (single-ended or differential) final netlist.
    pub stats: NetlistStats,
    /// Die area in µm².
    pub die_area_um2: f64,
    /// Total standard cell area in µm².
    pub cell_area_um2: f64,
    /// Total routed wirelength in physical tracks.
    pub wirelength_tracks: i64,
    /// Total via count.
    pub vias: usize,
    /// Wall-clock milliseconds per stage.
    pub synth_ms: f64,
    /// Cell substitution time (secure flow only).
    pub substitute_ms: f64,
    /// Placement time.
    pub place_ms: f64,
    /// Routing time.
    pub route_ms: f64,
    /// Interconnect decomposition time (secure flow only).
    pub decompose_ms: f64,
    /// Extraction time.
    pub extract_ms: f64,
    /// Verification time.
    pub verify_ms: f64,
    /// Worst combinational arrival time with layout parasitics, in ps
    /// (the WDDL evaluation wave must fit in the evaluation phase).
    pub critical_path_ps: f64,
    /// Clock distribution statistics (None for purely combinational
    /// designs).
    pub clock: Option<ClockReport>,
    /// Result of the equivalence check, if run.
    pub lec_equivalent: Option<bool>,
    /// Mean relative capacitance mismatch over all differential pairs
    /// (secure flow only).
    pub mean_pair_mismatch: Option<f64>,
    /// Worst relative capacitance mismatch (secure flow only).
    pub max_pair_mismatch: Option<f64>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn cell_area(nl: &Netlist, lib: &Library) -> f64 {
    nl.gates()
        .iter()
        .map(|g| lib.by_name(&g.cell).map(|c| c.area_um2()).unwrap_or(0.0))
        .sum()
}

/// The output of the regular (reference) flow.
#[derive(Debug)]
pub struct RegularFlowResult {
    /// The mapped single-ended netlist.
    pub netlist: Netlist,
    /// The placed-and-routed design.
    pub routed: RoutedDesign,
    /// Extracted parasitics.
    pub parasitics: Parasitics,
    /// Metrics.
    pub report: FlowReport,
}

/// The output of the secure flow.
#[derive(Debug)]
pub struct SecureFlowResult {
    /// The mapped single-ended netlist (input to substitution).
    pub mapped: Netlist,
    /// Cell substitution artifacts (fat + differential netlists,
    /// libraries, rail pairs).
    pub substitution: Substitution,
    /// The routed fat design (`fat.def`).
    pub fat_routed: RoutedDesign,
    /// The decomposed differential design (`diff.def`).
    pub decomposed: RoutedDesign,
    /// Extracted parasitics of the differential design.
    pub parasitics: Parasitics,
    /// Metrics.
    pub report: FlowReport,
}

/// Runs the regular synchronous standard cell flow: synthesis, place &
/// route, extraction.
///
/// # Errors
///
/// Returns [`FlowError`] if any stage fails.
pub fn run_regular_flow(
    design: &Design,
    lib: &Library,
    opts: &FlowOptions,
) -> Result<RegularFlowResult, FlowError> {
    let _flow = secflow_obs::span("flow.regular");
    let t = Instant::now();
    let netlist = {
        let _s = secflow_obs::span("synth");
        map_design(design, lib, &opts.map)?
    };
    let synth_ms = ms(t);
    run_regular_backend(netlist, lib, opts, synth_ms)
}

/// The flow's Parse stage, the backends' entry contract on the CLI's
/// `rtl.v` netlist: a structural sanity check, and every gate of a
/// known cell has the cell's input and output counts. Unknown cells
/// fail in the stage that first resolves them.
fn parse_stage(netlist: &Netlist, lib: &Library) -> Result<(), NetlistError> {
    let _s = secflow_obs::span("parse");
    netlist.validate()?;
    for g in netlist.gates() {
        let Some(cell) = lib.by_name(&g.cell) else {
            continue;
        };
        if let Some((pins, got, expected)) = cell.pin_mismatch(g.inputs.len(), g.outputs.len()) {
            return Err(NetlistError::PinCount {
                gate: g.name.clone(),
                cell: g.cell.clone(),
                pins,
                got,
                expected,
            });
        }
    }
    Ok(())
}

/// The backend half of the regular flow: place & route, extraction and
/// reporting, starting from an already-mapped netlist (the paper's
/// `rtl.v` entry point).
///
/// # Errors
///
/// Returns [`FlowError`] if routing fails.
pub fn run_regular_backend(
    netlist: Netlist,
    lib: &Library,
    opts: &FlowOptions,
    synth_ms: f64,
) -> Result<RegularFlowResult, FlowError> {
    parse_stage(&netlist, lib)?;
    let t = Instant::now();
    let placed = {
        let _s = secflow_obs::span("place");
        place_best_of(
            &netlist,
            lib,
            &PlaceOptions {
                fill_factor: opts.fill_factor,
                aspect_ratio: opts.aspect_ratio,
                anneal_moves_per_gate: opts.anneal_moves_per_gate,
                seed: opts.seed,
                pitch: GridPitch::Normal,
            },
            opts.place_restarts,
        )?
    };
    let place_ms = ms(t);

    let t = Instant::now();
    let routed = {
        let _s = secflow_obs::span("route");
        route(&netlist, lib, &placed, &opts.route)?
    };
    let route_ms = ms(t);

    let t = Instant::now();
    let parasitics = {
        let _s = secflow_obs::span("extract");
        try_extract(&routed, &netlist, &opts.tech)?
    };
    let extract_ms = ms(t);

    let _sim_span = secflow_obs::span("sim");
    let timing = secflow_sim::sta::analyze(&netlist, lib, Some(&parasitics))?;
    let clock = build_clock_tree(&netlist, lib, &placed, &ClockOptions::default())
        .map(|t| t.report(&ClockOptions::default()));
    drop(_sim_span);
    let report = FlowReport {
        stats: NetlistStats::of(&netlist),
        die_area_um2: f64::from(placed.width) * TRACK_UM * f64::from(placed.height) * TRACK_UM,
        cell_area_um2: cell_area(&netlist, lib),
        wirelength_tracks: routed.total_wirelength(),
        vias: routed.total_vias(),
        synth_ms,
        substitute_ms: 0.0,
        place_ms,
        route_ms,
        decompose_ms: 0.0,
        extract_ms,
        verify_ms: 0.0,
        critical_path_ps: timing.critical_path_ps,
        clock,
        lec_equivalent: None,
        mean_pair_mismatch: None,
        max_pair_mismatch: None,
    };

    Ok(RegularFlowResult {
        netlist,
        routed,
        parasitics,
        report,
    })
}

/// Runs the secure digital design flow of Fig. 1: synthesis, cell
/// substitution, fat place & route, interconnect decomposition,
/// extraction and verification.
///
/// # Errors
///
/// Returns [`FlowError`] if any stage fails or (with
/// [`FlowOptions::verify`]) a verification step refutes correctness.
pub fn run_secure_flow(
    design: &Design,
    lib: &Library,
    opts: &FlowOptions,
) -> Result<SecureFlowResult, FlowError> {
    let _flow = secflow_obs::span("flow.secure");
    let t = Instant::now();
    let mapped = {
        let _s = secflow_obs::span("synth");
        map_design(design, lib, &opts.map)?
    };
    let synth_ms = ms(t);
    run_secure_backend(mapped, lib, opts, synth_ms)
}

/// The backend half of the secure flow (Fig. 1 below the synthesis
/// box): cell substitution, fat place & route, interconnect
/// decomposition, extraction and verification, starting from an
/// already-mapped netlist (`rtl.v`).
///
/// # Errors
///
/// Returns [`FlowError`] if any stage fails or verification refutes
/// correctness.
pub fn run_secure_backend(
    mapped: Netlist,
    lib: &Library,
    opts: &FlowOptions,
    synth_ms: f64,
) -> Result<SecureFlowResult, FlowError> {
    parse_stage(&mapped, lib)?;
    let t = Instant::now();
    let substitution = {
        let _s = secflow_obs::span("substitute");
        substitute(&mapped, lib)?
    };
    let substitute_ms = ms(t);

    let t = Instant::now();
    let fat_placed = {
        let _s = secflow_obs::span("place");
        place_best_of(
            &substitution.fat,
            &substitution.fat_lib,
            &PlaceOptions {
                fill_factor: opts.fill_factor,
                aspect_ratio: opts.aspect_ratio,
                anneal_moves_per_gate: opts.anneal_moves_per_gate,
                seed: opts.seed,
                pitch: GridPitch::Fat,
            },
            opts.place_restarts,
        )?
    };
    let place_ms = ms(t);

    let t = Instant::now();
    let fat_routed = {
        let _s = secflow_obs::span("route");
        route(
            &substitution.fat,
            &substitution.fat_lib,
            &fat_placed,
            &opts.route,
        )?
    };
    let route_ms = ms(t);

    let t = Instant::now();
    let decomposed = {
        let _s = secflow_obs::span("decompose");
        decompose_styled(&fat_routed, &substitution, opts.decompose_style)?
    };
    let decompose_ms = ms(t);

    let t = Instant::now();
    let parasitics = {
        let _s = secflow_obs::span("extract");
        try_extract(&decomposed, &substitution.differential, &opts.tech)?
    };
    let extract_ms = ms(t);

    let t = Instant::now();
    let mut lec_equivalent = None;
    if opts.verify {
        // Fat netlist vs original netlist (Formality step).
        let report = {
            let _s = secflow_obs::span("lec");
            if mapped.gate_count() <= opts.bdd_gate_limit {
                check_equiv_with_parity(
                    &mapped,
                    lib,
                    &substitution.fat,
                    &substitution.fat_lib,
                    Some(&substitution.fat_output_parity),
                    Some(&substitution.fat_register_parity),
                )?
            } else {
                check_equiv_random_with_parity(
                    &mapped,
                    lib,
                    &substitution.fat,
                    &substitution.fat_lib,
                    Some(&substitution.fat_output_parity),
                    Some(&substitution.fat_register_parity),
                    8,
                    opts.seed,
                )?
            }
        };
        lec_equivalent = Some(report.equivalent);
        // WDDL invariants on the differential netlist.
        {
            let _s = secflow_obs::span("railcheck");
            verify_precharge_wave(&substitution)?;
            verify_rail_complementarity(&mapped, lib, &substitution, 32, opts.seed)?;
        }
    }
    let verify_ms = ms(t);

    // Pair mismatch report (the security figure of merit of §2.2).
    let pair_list: Vec<_> = substitution.pairs.iter().map(|p| (p.t, p.f)).collect();
    let mismatches = pair_mismatch(&parasitics, &pair_list);
    let routed_pairs: Vec<&secflow_extract::PairMismatch> = mismatches
        .iter()
        .filter(|m| m.cap_t_ff + m.cap_f_ff > 0.0)
        .collect();
    let (mean_mm, max_mm) = if routed_pairs.is_empty() {
        (0.0, 0.0)
    } else {
        (
            routed_pairs.iter().map(|m| m.relative).sum::<f64>() / routed_pairs.len() as f64,
            routed_pairs.iter().map(|m| m.relative).fold(0.0, f64::max),
        )
    };

    // Physical dimensions follow the decomposition style's pitch.
    let scale = opts.decompose_style.scale();
    let w_tracks = f64::from(fat_placed.width * scale);
    let h_tracks = f64::from(fat_placed.height * scale);

    let _sim_span = secflow_obs::span("sim");
    let timing = secflow_sim::sta::analyze(
        &substitution.differential,
        &substitution.diff_lib,
        Some(&parasitics),
    )?;
    // Clock tree over the fat registers (the WDDL register pair is one
    // fat cell with a doubled clock-pin load).
    let clock_opts = ClockOptions {
        sink_cap_ff: 2.0 * ClockOptions::default().sink_cap_ff,
        ..Default::default()
    };
    let clock = build_clock_tree(
        &substitution.fat,
        &substitution.fat_lib,
        &fat_placed,
        &clock_opts,
    )
    .map(|t| t.report(&clock_opts));
    drop(_sim_span);
    let report = FlowReport {
        stats: NetlistStats::of(&substitution.differential),
        die_area_um2: w_tracks * TRACK_UM * h_tracks * TRACK_UM,
        cell_area_um2: cell_area(&substitution.differential, &substitution.diff_lib),
        wirelength_tracks: decomposed.total_wirelength(),
        vias: decomposed.total_vias(),
        synth_ms,
        substitute_ms,
        place_ms,
        route_ms,
        decompose_ms,
        extract_ms,
        verify_ms,
        critical_path_ps: timing.critical_path_ps,
        clock,
        lec_equivalent,
        mean_pair_mismatch: Some(mean_mm),
        max_pair_mismatch: Some(max_mm),
    };

    Ok(SecureFlowResult {
        mapped,
        substitution,
        fat_routed,
        decomposed,
        parasitics,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_design() -> Design {
        let mut d = Design::new("toy");
        let a = d.input("a");
        let b = d.input("b");
        let c = d.input("c");
        let q = d.register("q");
        let x = d.aig.xor(a, b);
        let y = d.aig.mux(c, x, q);
        d.set_next(q, y);
        d.output("y", y);
        d.output("nx", x.not());
        d
    }

    #[test]
    fn regular_flow_completes() {
        let lib = Library::lib180();
        let r = run_regular_flow(&toy_design(), &lib, &FlowOptions::default()).unwrap();
        assert!(r.report.die_area_um2 > 0.0);
        assert!(r.report.wirelength_tracks > 0);
        assert!(r.netlist.validate().is_ok());
    }

    #[test]
    fn secure_flow_completes_and_verifies() {
        let lib = Library::lib180();
        let r = run_secure_flow(&toy_design(), &lib, &FlowOptions::default()).unwrap();
        assert_eq!(r.report.lec_equivalent, Some(true));
        assert!(r.report.die_area_um2 > 0.0);
        assert!(r.substitution.differential.validate().is_ok());
        assert!(r.substitution.fat.validate().is_ok());
    }

    #[test]
    fn secure_design_is_larger_than_reference() {
        let lib = Library::lib180();
        let opts = FlowOptions::default();
        let reg = run_regular_flow(&toy_design(), &lib, &opts).unwrap();
        let sec = run_secure_flow(&toy_design(), &lib, &opts).unwrap();
        let ratio = sec.report.die_area_um2 / reg.report.die_area_um2;
        assert!(
            ratio > 1.5 && ratio < 12.0,
            "area ratio {ratio} out of plausible band"
        );
    }

    #[test]
    fn decomposed_pairs_have_low_mismatch() {
        let lib = Library::lib180();
        let sec = run_secure_flow(&toy_design(), &lib, &FlowOptions::default()).unwrap();
        let mean = sec.report.mean_pair_mismatch.unwrap();
        assert!(mean < 0.25, "mean pair mismatch {mean}");
    }
}
