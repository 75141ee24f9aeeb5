//! `mtd_stream`: long fused DPA+CPA+MTD campaigns on flows built once.
//!
//! Set-up runs both DES flows and compiles a bit-sliced campaign
//! program per implementation. One operation is one fused
//! `collect_des_analysis_streaming` campaign per implementation, so the
//! simulation kernel and the streaming accumulators do nearly all the
//! work and the router none: kernel and accumulator changes show here,
//! place and route changes move only `setup_s`.
//!
//! The fused loop cannot be split from outside, so a traced run
//! replays each operation as a materialized campaign followed by the
//! accumulators fed in 4 096-trace blocks. Its outputs equal the fused
//! campaign's bit for bit; its time differs, and the run prints by how
//! much.

use std::time::Instant;

use secflow_bench::DesImplementations;
use secflow_core::FlowOptions;
use secflow_crypto::dpa_module::{selection, PAPER_KEY};
use secflow_dpa::cpa::sbox_hamming_model;
use secflow_dpa::harness::{
    analyze_trace_set, collect_des_analysis_streaming, collect_des_traces_with, AnalysisPlan,
    CampaignAnalysis, CampaignProgram, DesTarget,
};
use secflow_dpa::streaming::{CpaStream, DpaStream};
use secflow_obs::json::Obj;
use secflow_rand::split_seed;
use secflow_sim::{SimBackend, SimConfig};

use super::{build_des, des_targets, Workload};
use crate::run::{sequential, Bits, Limit, Pass};
use crate::trace::{Tracer, ACCUMULATE};

/// Traces per accumulator block, as in the job server.
const CHUNK: usize = 4096;

pub struct MtdStream {
    seed: u64,
    traces: usize,
    /// Replay operations as materialize-then-accumulate (traced runs).
    replica: bool,
    cfg: SimConfig,
    imps: Option<DesImplementations>,
    programs: Vec<CampaignProgram>,
}

impl MtdStream {
    pub fn new(seed: u64, smoke: bool, trace: bool) -> MtdStream {
        MtdStream {
            seed,
            traces: if smoke { 1 << 12 } else { 1 << 16 },
            replica: trace,
            cfg: SimConfig {
                samples_per_cycle: 100,
                ..SimConfig::default()
            },
            imps: None,
            programs: Vec::new(),
        }
    }

    fn plan(n: usize) -> AnalysisPlan {
        AnalysisPlan {
            n_keys: 64,
            correct_key: PAPER_KEY,
            step: Some((n / 64).max(1)),
            dpa: true,
            cpa: true,
        }
    }

    fn targets(&self) -> [DesTarget<'_>; 2] {
        des_targets(
            self.imps.as_ref().expect("set-up ran"),
            SimBackend::Bitslice,
        )
    }

    fn fused(
        &self,
        target: &DesTarget<'_>,
        program: &CampaignProgram,
        n: usize,
        seed: u64,
        tr: &Tracer,
        op: u64,
    ) -> Result<CampaignAnalysis, String> {
        tr.span("dpa.collect_des_analysis_streaming", op, || {
            collect_des_analysis_streaming(
                program,
                target,
                &self.cfg,
                PAPER_KEY,
                n,
                seed,
                &Self::plan(n),
                CHUNK,
                None,
            )
        })
        .map_err(|e| e.to_string())
    }

    /// The fused campaign's result, computed by materializing the
    /// traces and feeding the accumulators block by block.
    fn materialized(
        &self,
        target: &DesTarget<'_>,
        program: &CampaignProgram,
        n: usize,
        seed: u64,
        tr: &Tracer,
        op: u64,
    ) -> Result<CampaignAnalysis, String> {
        let set = tr
            .span("sim.collect_des_traces", op, || {
                collect_des_traces_with(program, target, &self.cfg, PAPER_KEY, n, seed)
            })
            .map_err(|e| e.to_string())?;
        tr.span(ACCUMULATE, op, || {
            let plan = Self::plan(n);
            let step = plan.step.expect("plans carry a step");
            let mut dpa = DpaStream::with_step(64, step).map_err(|e| e.to_string())?;
            let mut cpa = CpaStream::with_step(64, step).map_err(|e| e.to_string())?;
            for (b, block) in set.traces.chunks(CHUNK).enumerate() {
                let ct = &set.ciphertexts[b * CHUNK..];
                dpa.push_block(block, |k, j| selection(k, ct[j].0, ct[j].1))
                    .map_err(|e| e.to_string())?;
                cpa.push_block(block, |k, j| sbox_hamming_model(k, ct[j].0, ct[j].1))
                    .map_err(|e| e.to_string())?;
            }
            Ok(CampaignAnalysis {
                n,
                samples_per_trace: set.samples_per_trace,
                energy_sum: set.energies.iter().sum(),
                dpa: Some(dpa.result()),
                dpa_mtd: Some(dpa.mtd(plan.correct_key)),
                cpa: Some(cpa.result()),
                cpa_mtd: Some(cpa.mtd(plan.correct_key)),
            })
        })
    }

    fn campaign(&self, i: usize, tr: &Tracer) -> Result<(f64, Vec<u8>), String> {
        let op = i as u64;
        let seed = split_seed(self.seed, op);
        let mut out = Bits::default();
        for (target, program) in self.targets().iter().zip(&self.programs) {
            let a = if self.replica {
                self.materialized(target, program, self.traces, seed, tr, op)?
            } else {
                self.fused(target, program, self.traces, seed, tr, op)?
            };
            out.analysis(&a);
        }
        Ok(((2 * self.traces) as f64, out.0))
    }
}

impl Workload for MtdStream {
    fn params(&self) -> String {
        let mut o = Obj::new();
        o.u64("traces_per_implementation", self.traces as u64)
            .u64("samples_per_cycle", self.cfg.samples_per_cycle as u64)
            .u64("chunk", CHUNK as u64)
            .str("backend", "bitslice")
            .str("work_unit", "traces");
        o.build()
    }

    fn setup(&mut self) -> Result<(), String> {
        self.imps = None;
        self.programs.clear();
        let imps = build_des(&FlowOptions::default(), &Tracer::off(), 0)?;
        let programs = des_targets(&imps, SimBackend::Bitslice)
            .iter()
            .map(|t| CampaignProgram::build(t, &self.cfg).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        self.imps = Some(imps);
        self.programs = programs;
        Ok(())
    }

    fn precheck(&mut self) -> Result<(), String> {
        let tr = &Tracer::off();
        // The fused path must agree with attacking the materialized
        // trace set, and the replay used by traced runs with the fused
        // path.
        let seed = split_seed(self.seed, u64::MAX);
        for (target, program) in self.targets().iter().zip(&self.programs) {
            let fused = self.fused(target, program, CHUNK, seed, tr, 0)?;
            let set = collect_des_traces_with(program, target, &self.cfg, PAPER_KEY, CHUNK, seed)
                .map_err(|e| e.to_string())?;
            let batch = analyze_trace_set(&set, &Self::plan(CHUNK)).map_err(|e| e.to_string())?;
            if Bits::default().analysis(&fused).0 != Bits::default().analysis(&batch).0 {
                return Err("fused analysis differs from the materialized one".into());
            }
        }
        if self.replica {
            let seed = split_seed(self.seed, 0);
            let mut secs = [0.0f64; 2];
            let mut outs = [Vec::new(), Vec::new()];
            for (k, replica) in [false, true].into_iter().enumerate() {
                let t = Instant::now();
                for (target, program) in self.targets().iter().zip(&self.programs) {
                    let a = if replica {
                        self.materialized(target, program, self.traces, seed, tr, 0)?
                    } else {
                        self.fused(target, program, self.traces, seed, tr, 0)?
                    };
                    outs[k].extend_from_slice(&Bits::default().analysis(&a).0);
                }
                secs[k] = t.elapsed().as_secs_f64();
            }
            if outs[0] != outs[1] {
                return Err("the traced replay differs from the fused campaign".into());
            }
            eprintln!(
                "mtd_stream: materialized replay {:.3} s vs fused {:.3} s ({:+.1} %)",
                secs[1],
                secs[0],
                100.0 * (secs[1] / secs[0] - 1.0)
            );
        }
        Ok(())
    }

    fn pass(&mut self, limit: &Limit, tr: &Tracer) -> Pass {
        sequential(limit, self.round(), tr, |i| self.campaign(i, tr))
    }

    fn round(&self) -> usize {
        2
    }

    fn overhead_s(&self) -> f64 {
        12.0
    }
}
