//! Experiment E8 — flow-runtime overhead on a 39 K-gate design.
//!
//! The paper reports that its two flow insertions cost about 6 minutes
//! of CPU for a 39 K-gate prototype IC on a 550 MHz SunFire v100:
//! < 4 min for the cell-substitution parser and ≈ 2 min for the
//! interconnect-decomposition parser. We reproduce the experiment on a
//! synthetic design of the same size and report our own wall-clock
//! times (absolute values differ with hardware; the point is that the
//! insertions are cheap relative to the rest of the flow).
//!
//! The paper's runtime claims concern only the two inserted parsers,
//! so this experiment times them on the full-size design; the
//! decomposition input is a fat `.def` with one synthetic L-shaped
//! route per net (decomposition cost depends only on the geometry
//! volume, not on how the router produced it — maze-routing 39 K
//! gates is hours of unrelated work).
//!
//! Usage: `exp_runtime_39k [target_and_nodes] [seed]`
//! (defaults 72000 AND nodes ≈ 39 K mapped gates, 7).

use std::time::Instant;

use secflow_cells::Library;
use secflow_core::{decompose, substitute};
use secflow_crypto::bench_gen::synthetic_design;
use secflow_netlist::NetlistStats;
use secflow_pnr::{
    place, GridPitch, PlaceOptions, Point, RoutedDesign, RoutedNet, Segment, LAYER_H, LAYER_V,
};
use secflow_synth::{map_design, MapOptions};

/// Builds an L-shaped route between consecutive pins of each net —
/// a synthetic `fat.def` with realistic geometry volume.
fn synthetic_routes(
    nl: &secflow_netlist::Netlist,
    lib: &Library,
    placed: &secflow_pnr::PlacedDesign,
) -> RoutedDesign {
    let mut nets = Vec::new();
    for net in nl.net_ids() {
        let pins = placed.net_pins(nl, lib, net);
        if pins.len() < 2 {
            continue;
        }
        let mut segments = Vec::new();
        for w in pins.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if x0 != x1 {
                segments.push(Segment::new(
                    Point::new(LAYER_H, x0.min(x1), y0),
                    Point::new(LAYER_H, x0.max(x1), y0),
                ));
            }
            segments.push(Segment::new(
                Point::new(LAYER_H, x1, y0),
                Point::new(LAYER_V, x1, y0),
            ));
            if y0 != y1 {
                segments.push(Segment::new(
                    Point::new(LAYER_V, x1, y0.min(y1)),
                    Point::new(LAYER_V, x1, y0.max(y1)),
                ));
            }
        }
        nets.push(RoutedNet { net, segments });
    }
    RoutedDesign {
        placed: placed.clone(),
        nets,
    }
}

fn main() {
    let mut opts = secflow_bench::CommonOpts::parse();
    let target: usize = opts.positional(72_000);
    let seed: u64 = opts.positional(7);
    let _run = opts.start_run("exp_runtime_39k");

    println!("=== E8: flow-insertion runtime at the paper's 39 K-gate scale ===");
    eprintln!("generating and mapping the synthetic design...");
    let design = synthetic_design("proto39k", target, 128, seed);
    let t = Instant::now();
    let mapped = map_design(&design, &Library::lib180(), &MapOptions::default()).expect("mapping");
    let synth_s = t.elapsed().as_secs_f64();
    println!(
        "mapped netlist: {} ({synth_s:.1} s synthesis)",
        NetlistStats::of(&mapped)
    );

    // --- The paper's first insertion: cell substitution. ---
    let t = Instant::now();
    let sub = substitute(&mapped, &Library::lib180()).expect("substitution");
    let substitute_s = t.elapsed().as_secs_f64();
    println!(
        "cell substitution: {substitute_s:.2} s  (paper: < 4 min for 39 K gates on a 550 MHz SunFire)"
    );
    println!(
        "  fat netlist: {} gates; differential netlist: {} gates; {} WDDL compounds derived; {} inverters removed",
        sub.fat.gate_count(),
        sub.differential.gate_count(),
        sub.wddl.len(),
        sub.removed_inverters
    );

    eprintln!("placing the fat design (coarse effort)...");
    let t = Instant::now();
    let placed = secflow_bench::ok_or_exit(place(
        &sub.fat,
        &sub.fat_lib,
        &PlaceOptions {
            anneal_moves_per_gate: 0,
            pitch: GridPitch::Fat,
            ..Default::default()
        },
    ));
    let place_s = t.elapsed().as_secs_f64();
    println!(
        "fat placement: {place_s:.2} s ({} x {} fat units)",
        placed.width, placed.height
    );

    eprintln!("building the synthetic fat .def...");
    let routed = synthetic_routes(&sub.fat, &sub.fat_lib, &placed);
    let n_segments: usize = routed.nets.iter().map(|n| n.segments.len()).sum();
    println!(
        "fat design file: {} nets, {} segments, wirelength {} fat units",
        routed.nets.len(),
        n_segments,
        routed.total_wirelength()
    );

    // --- The paper's second insertion: interconnect decomposition. ---
    let t = Instant::now();
    let diff = secflow_bench::ok_or_exit(decompose(&routed, &sub));
    let decompose_s = t.elapsed().as_secs_f64();
    println!(
        "interconnect decomposition: {decompose_s:.2} s  (paper: ~2 min on a 550 MHz SunFire)"
    );
    println!(
        "  differential geometry: {} rails, wirelength {} tracks",
        diff.nets.len(),
        diff.total_wirelength()
    );

    println!("\n=== summary ===");
    println!("{:<28} {:>10}", "stage", "seconds");
    for (stage, s) in [
        ("synthesis (mapping)", synth_s),
        ("cell substitution", substitute_s),
        ("fat placement", place_s),
        ("interconnect decomposition", decompose_s),
    ] {
        println!("{stage:<28} {s:>10.2}");
    }
    println!(
        "\nthe two flow insertions take {:.2} s total — the paper's claim that the \
         additions have negligible design-time overhead holds with huge margin on \
         modern hardware",
        substitute_s + decompose_s
    );
}
