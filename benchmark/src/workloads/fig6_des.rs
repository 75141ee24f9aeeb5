//! `fig6_des`: the paper's headline run, netlist in and MTD out.
//!
//! One operation is one iteration of the pipeline `exp_fig6_mtd`
//! drives: the regular and the secure flow on the Fig. 4 DES module
//! (verification on, placement seed `seed·1000 + i`), then on each
//! implementation an event-kernel campaign at the paper's 800 samples
//! per cycle, a DPA and an MTD scan. Place and route take most of it,
//! so router and placer changes show here, and the event kernel does
//! the rest.

use secflow_core::FlowOptions;
use secflow_crypto::dpa_module::PAPER_KEY;
use secflow_dpa::attack::{dpa_attack, mtd_scan};
use secflow_dpa::harness::{collect_des_traces_with, CampaignProgram};
use secflow_obs::json::Obj;
use secflow_rand::split_seed;
use secflow_sim::{SimBackend, SimConfig};

use super::{build_des, des_targets, Workload};
use crate::run::{sequential, Bits, Limit, Pass};
use crate::trace::{Tracer, PROGRAM_BUILD};

pub struct Fig6Des {
    seed: u64,
    traces: usize,
}

impl Fig6Des {
    pub fn new(seed: u64, smoke: bool) -> Fig6Des {
        Fig6Des {
            seed,
            traces: if smoke { 150 } else { 2000 },
        }
    }

    fn iteration(&self, i: usize, tr: &Tracer) -> Result<(f64, Vec<u8>), String> {
        let op = i as u64;
        let opts = FlowOptions {
            seed: self.seed.wrapping_mul(1000).wrapping_add(op),
            ..FlowOptions::default()
        };
        let imps = build_des(&opts, tr, op)?;
        let cfg = SimConfig::default();
        let step = (self.traces / 40).max(10);
        let mut out = Bits::default();
        out.flow(&imps.regular.report).flow(&imps.secure.report);
        for target in des_targets(&imps, SimBackend::Event) {
            let program = tr
                .span(PROGRAM_BUILD, op, || CampaignProgram::build(&target, &cfg))
                .map_err(|e| e.to_string())?;
            let set = tr
                .span("sim.collect_des_traces", op, || {
                    collect_des_traces_with(
                        &program,
                        &target,
                        &cfg,
                        PAPER_KEY,
                        self.traces,
                        split_seed(self.seed, op),
                    )
                })
                .map_err(|e| e.to_string())?;
            let (dpa, scan) = tr.span("dpa.attack_and_mtd", op, || {
                Ok::<_, String>((
                    dpa_attack(&set.traces, 64, set.selector()).map_err(|e| e.to_string())?,
                    mtd_scan(&set.traces, 64, PAPER_KEY, step, set.selector())
                        .map_err(|e| e.to_string())?,
                ))
            })?;
            out.dpa(&dpa).mtd(&scan);
        }
        Ok((1.0, out.0))
    }
}

impl Workload for Fig6Des {
    fn params(&self) -> String {
        let mut o = Obj::new();
        o.u64("traces_per_implementation", self.traces as u64)
            .u64(
                "samples_per_cycle",
                SimConfig::default().samples_per_cycle as u64,
            )
            .str("backend", "event")
            .str("work_unit", "iterations");
        o.build()
    }

    fn setup(&mut self) -> Result<(), String> {
        // Each iteration runs the whole flow, so there is nothing to
        // build ahead beyond the design and the cell library.
        std::hint::black_box((
            secflow_crypto::dpa_module::des_dpa_design(),
            secflow_cells::Library::lib180(),
        ));
        Ok(())
    }

    fn pass(&mut self, limit: &Limit, tr: &Tracer) -> Pass {
        sequential(limit, self.round(), tr, |i| self.iteration(i, tr))
    }

    fn round(&self) -> usize {
        2
    }

    fn overhead_s(&self) -> f64 {
        5.0
    }
}
