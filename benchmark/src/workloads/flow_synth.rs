//! `flow_synth`: the secure flow on synthetic designs four times the
//! size of the DES module.
//!
//! One operation is `run_secure_flow` (verification on) on one design
//! of a fixed suite, each about 1.1 K mapped gates with 8 inputs and 8
//! registers, with a placement seed drawn from the run's seed. Place
//! and route are nearly all of it and there is no campaign, so placer
//! and router changes show at a larger scale than on `fig6_des` while
//! simulation changes must not move it. The suite is the same for
//! every seed, so runs of different seeds flow designs of the same
//! sizes; with a suite drawn per seed, time and memory per run varied
//! by about 10 % from seed to seed. The size is capped by BDD
//! equivalence checking and by routing congestion; see `README.md`.

use secflow_cells::Library;
use secflow_core::{run_secure_flow, FlowOptions};
use secflow_obs::json::Obj;
use secflow_rand::split_seed;
use secflow_synth::Design;

use super::Workload;
use crate::gen::synthetic_design;
use crate::run::{sequential, Bits, Limit, Pass};
use crate::trace::Tracer;

/// AIG AND nodes per design (about 1.1 K gates once mapped). At 2 400
/// (1.3 K gates) about one placement in eight congests the router and
/// doubles the flow's time, which swung per-run medians by 6–7 %.
pub const SYNTH_ANDS: usize = 2000;
/// Inputs and registers per design. Wider designs blow up the BDD
/// equivalence check (see `README.md`).
const WIDTH: usize = 8;
/// Designs in the suite, flowed in order as one round. A round takes
/// about 11.5 s here, so a 20 s run flows the suite twice.
const DESIGNS: usize = 5;

pub struct FlowSynth {
    seed: u64,
    ands: usize,
    lib: Library,
    designs: Vec<Design>,
}

impl FlowSynth {
    pub fn new(seed: u64, smoke: bool) -> FlowSynth {
        FlowSynth {
            seed,
            ands: if smoke { 300 } else { SYNTH_ANDS },
            lib: Library::lib180(),
            designs: Vec::new(),
        }
    }

    fn flow(&self, i: usize, tr: &Tracer) -> Result<(f64, Vec<u8>), String> {
        let design = &self.designs[i % self.designs.len()];
        let opts = FlowOptions {
            seed: split_seed(self.seed, i as u64),
            ..FlowOptions::default()
        };
        let r = tr
            .span("core.run_secure_flow", i as u64, || {
                run_secure_flow(design, &self.lib, &opts)
            })
            .map_err(|e| e.to_string())?;
        if r.report.lec_equivalent != Some(true) {
            return Err(format!("design {i}: secure flow is not LEC-equivalent"));
        }
        let gates = r.mapped.gate_count();
        let mut out = Bits::default();
        out.u64(gates as u64).flow(&r.report);
        Ok((gates as f64, out.0))
    }
}

impl Workload for FlowSynth {
    fn params(&self) -> String {
        let mut o = Obj::new();
        o.u64("and_nodes", self.ands as u64)
            .u64("inputs", WIDTH as u64)
            .u64("registers", WIDTH as u64)
            .u64("designs", DESIGNS as u64)
            .str("work_unit", "mapped gates");
        o.build()
    }

    fn setup(&mut self) -> Result<(), String> {
        self.designs = (0..DESIGNS)
            .map(|j| {
                synthetic_design(&format!("synth{j}"), self.ands, WIDTH, j as u64)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn pass(&mut self, limit: &Limit, tr: &Tracer) -> Pass {
        sequential(limit, self.round(), tr, |i| self.flow(i, tr))
    }

    fn round(&self) -> usize {
        DESIGNS
    }

    fn overhead_s(&self) -> f64 {
        20.0
    }
}
