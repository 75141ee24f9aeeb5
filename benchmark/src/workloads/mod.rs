//! The four workloads. Each stresses a different part of the flow, so
//! that a change to one layer shows on the workload that runs it and
//! leaves the others unchanged (see `README.md`).

mod fig6_des;
mod flow_synth;
mod mtd_stream;
mod serve_mix;

#[cfg(test)]
pub use flow_synth::SYNTH_ANDS;

use secflow_bench::DesImplementations;
use secflow_cells::Library;
use secflow_core::{run_regular_flow, run_secure_flow, FlowOptions};
use secflow_crypto::dpa_module::des_dpa_design;
use secflow_dpa::harness::DesTarget;
use secflow_sim::SimBackend;

use crate::run::{Limit, Pass};
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["fig6_des", "mtd_stream", "flow_synth", "serve_mix"];

/// One workload: set-up, output checks, then measured passes.
pub trait Workload {
    /// The workload's sizes, for the result metadata (a JSON object).
    fn params(&self) -> String;
    /// One set-up repetition; the passes use the state of the last one.
    fn setup(&mut self) -> Result<(), String>;
    /// Output checks made once, after set-up and before timing.
    fn precheck(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Runs operations until `limit` says stop.
    fn pass(&mut self, limit: &Limit, tr: &Tracer) -> Pass;
    /// Operations per round. A time-limited pass runs whole rounds, so
    /// every run flows the same inputs of a round, and
    /// `output_digest` covers the first round of lane 0.
    fn round(&self) -> usize;
    /// Seconds beyond `--seconds` a run may take: set-up, the last
    /// operation's overrun and checks. Bounds the child's wall clock.
    fn overhead_s(&self) -> f64;
}

/// Builds workload `name` for `seed`.
pub fn make(name: &str, seed: u64, smoke: bool, trace: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fig6_des" => Box::new(fig6_des::Fig6Des::new(seed, smoke)),
        "mtd_stream" => Box::new(mtd_stream::MtdStream::new(seed, smoke, trace)),
        "flow_synth" => Box::new(flow_synth::FlowSynth::new(seed, smoke)),
        "serve_mix" => Box::new(serve_mix::ServeMix::new(seed, smoke)),
        _ => return None,
    })
}

/// Runs the regular and the secure flow on the Fig. 4 DES module with
/// `opts`, as `exp_fig6_mtd` does; the secure flow must pass LEC.
pub fn build_des(opts: &FlowOptions, tr: &Tracer, op: u64) -> Result<DesImplementations, String> {
    let design = des_dpa_design();
    let lib = Library::lib180();
    let regular = tr
        .span("core.run_regular_flow", op, || {
            run_regular_flow(&design, &lib, opts)
        })
        .map_err(|e| e.to_string())?;
    let secure = tr
        .span("core.run_secure_flow", op, || {
            run_secure_flow(&design, &lib, opts)
        })
        .map_err(|e| e.to_string())?;
    if secure.report.lec_equivalent != Some(true) {
        return Err("secure DES flow is not LEC-equivalent".into());
    }
    Ok(DesImplementations {
        lib,
        regular,
        secure,
    })
}

/// Campaign targets of both implementations: regular, then secure.
pub fn des_targets(imps: &DesImplementations, backend: SimBackend) -> [DesTarget<'_>; 2] {
    [
        imps.regular_target().with_backend(backend),
        imps.secure_target().with_backend(backend),
    ]
}
