//! Job execution over the content-addressed cache.
//!
//! The engine mirrors `secflow_core`'s staged flow sequence, but with
//! a cache lookup between every stage: parsed netlist → (substitute)
//! → placement → routing → (decompose) → extraction → compiled
//! simulation program → campaign statistics → rendered response. Each
//! artifact is keyed by `H(input ‖ options ‖ stage)` (see
//! [`crate::key`]), so two jobs that share a prefix of the pipeline
//! share the work: a campaign resubmitted with a different `n` reuses
//! everything up to the compiled program, a `cpa` attack reuses the
//! statistics of the `dpa` job on the same traces, and an identical
//! resubmission is answered from the response cache without executing
//! any stage at all.
//!
//! Every campaign runs one way: the fused streaming campaign with both
//! attacks, whose finished [`CampaignAnalysis`] (a few KB) is cached in
//! place of its traces. The request's `trace_path` selects nothing.
//! Its key depends only on the request, so a campaign job looks the
//! analysis up first and walks the stages only on a miss.
//!
//! Responses are split payload/envelope (see [`crate::proto`]): the
//! payload rendered here contains only deterministic values — no
//! wall-clock times, no cache statistics — so a warm hit is
//! byte-identical to the cold run by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use secflow_cells::Library;
use secflow_core::{
    decompose_styled, run_regular_backend, run_secure_backend, substitute, FlowError, FlowReport,
    Substitution,
};
use secflow_crypto::dpa_module::des_dpa_design;
use secflow_dpa::error::{AnalysisError, CampaignError, ANALYSIS_EXIT_CODE};
use secflow_dpa::harness::{
    collect_des_analysis_streaming, AnalysisPlan, CampaignAnalysis, CampaignProgram, DesTarget,
};
use secflow_extract::{try_extract, Parasitics};
use secflow_netlist::{parse_verilog, Netlist};
use secflow_obs as obs;
use secflow_obs::json::{Arr, Obj};
use secflow_pnr::{place_best_of, route, GridPitch, PlaceOptions, PlacedDesign, RoutedDesign};
use secflow_sim::SimConfig;
use secflow_synth::map_design;

use crate::cache::{ArtifactCache, CacheStats};
use crate::key::{flow_options_bytes, sim_config_bytes, stage_key, CacheStage, Enc};
use crate::proto::{AttackKind, CampaignRequest, FlowRequest, Request, RequestError};

/// A structured job failure: the `FlowError` taxonomy (stage name,
/// variant kind, detail, stage exit code 10–19) plus the `request`
/// pseudo-stage for protocol/validation errors (usage exit code 2).
#[derive(Debug, Clone)]
pub struct JobError {
    /// Originating stage name (`parse` … `sim`, or `request`).
    pub stage: String,
    /// Error variant name.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// The exit code a CLI run of the same job would have used.
    pub exit_code: i32,
}

impl From<FlowError> for JobError {
    fn from(e: FlowError) -> JobError {
        JobError {
            stage: e.stage().name().to_string(),
            kind: e.kind(),
            detail: e.to_string(),
            exit_code: e.exit_code(),
        }
    }
}

impl From<RequestError> for JobError {
    fn from(e: RequestError) -> JobError {
        JobError {
            stage: "request".to_string(),
            kind: "BadRequest".to_string(),
            detail: e.0,
            exit_code: 2,
        }
    }
}

impl From<AnalysisError> for JobError {
    fn from(e: AnalysisError) -> JobError {
        JobError {
            stage: "analysis".to_string(),
            kind: e.kind().to_string(),
            detail: e.to_string(),
            exit_code: ANALYSIS_EXIT_CODE,
        }
    }
}

impl From<CampaignError> for JobError {
    fn from(e: CampaignError) -> JobError {
        match e {
            CampaignError::Sim(e) => FlowError::Sim(e).into(),
            CampaignError::Analysis(e) => e.into(),
            CampaignError::Store(e) => JobError {
                stage: "analysis".to_string(),
                kind: "Store".to_string(),
                detail: e.to_string(),
                exit_code: ANALYSIS_EXIT_CODE,
            },
        }
    }
}

/// The outcome of one executed job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The deterministic result payload (second response frame).
    pub payload: Arc<Vec<u8>>,
    /// Whether the payload came straight from the response cache.
    pub cached_response: bool,
}

/// The job engine: the base library, the artifact cache, and job
/// counters. Shared (`&self`) across the server's worker threads.
pub struct Engine {
    lib: Library,
    /// The content-addressed artifact store.
    pub cache: ArtifactCache,
    jobs: AtomicU64,
}

/// Rough per-artifact sizes for the LRU budget. These are heuristics
/// — the cache bounds *approximate* memory, and uniform over-estimates
/// only make eviction slightly eager.
mod size {
    use super::*;

    pub fn netlist(nl: &Netlist) -> usize {
        nl.gate_count() * 128 + 4096
    }

    pub fn substitution(s: &Substitution) -> usize {
        netlist(&s.fat) + netlist(&s.differential) + s.pairs.len() * 64 + (64 << 10)
    }

    pub fn placed(p: &PlacedDesign) -> usize {
        p.cells.len() * 32 + (p.input_pads.len() + p.output_pads.len()) * 16 + 1024
    }

    pub fn routed(r: &RoutedDesign) -> usize {
        placed(&r.placed) + r.total_wirelength().unsigned_abs() as usize * 16 + 1024
    }

    pub fn parasitics(p: &Parasitics) -> usize {
        p.nets
            .iter()
            .map(|n| 32 + n.couplings.len() * 16)
            .sum::<usize>()
            + 1024
    }

    pub fn program(nl: &Netlist, cfg: &SimConfig) -> usize {
        nl.gate_count() * 256 + cfg.samples_per_cycle * 8 + (16 << 10)
    }

    pub fn analysis(a: &CampaignAnalysis) -> usize {
        let guesses = a.dpa.as_ref().map_or(0, |r| r.guesses.len())
            + a.cpa.as_ref().map_or(0, |r| r.guesses.len());
        let points = a.dpa_mtd.as_ref().map_or(0, |s| s.points.len())
            + a.cpa_mtd.as_ref().map_or(0, |(p, _)| p.len());
        (guesses + points) * 40 + 1024
    }
}

impl Engine {
    /// An engine with a cache bounded at `cache_bytes`, spilling byte
    /// artifacts to `cache_dir` when given.
    pub fn new(cache_bytes: usize, cache_dir: Option<std::path::PathBuf>) -> Engine {
        Engine {
            lib: Library::lib180(),
            cache: ArtifactCache::new(cache_bytes, cache_dir),
            jobs: AtomicU64::new(0),
        }
    }

    /// Total jobs executed (including cached responses).
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Executes one parsed request against the cache. `canonical` is
    /// the canonical re-rendering of the request JSON (sorted keys, no
    /// whitespace) — the response-cache key, so equal requests hit
    /// regardless of field order or whitespace.
    ///
    /// # Errors
    ///
    /// Returns the structured [`JobError`] for the first failing
    /// stage; nothing is cached for failed jobs.
    pub fn execute(&self, canonical: &str, req: &Request) -> Result<JobOutcome, JobError> {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        obs::add(obs::Counter::ServeJobs, 1);
        // Stats snapshots are point-in-time and shutdown is an ack;
        // neither goes through the response cache.
        if matches!(req, Request::Stats | Request::Shutdown) {
            let payload = match req {
                Request::Stats => render_stats(self.jobs(), self.cache.stats()),
                _ => b"{\"ok\":true,\"shutting_down\":true}".to_vec(),
            };
            return Ok(JobOutcome {
                payload: Arc::new(payload),
                cached_response: false,
            });
        }
        let response_key = stage_key(canonical.as_bytes(), &[], CacheStage::Response);
        if let Some(hit) = self.cache.get_bytes(response_key) {
            return Ok(JobOutcome {
                payload: hit,
                cached_response: true,
            });
        }
        let payload = Arc::new(match req {
            Request::Campaign(c) => self.campaign(c)?,
            Request::Flow(f) => self.flow(f)?,
            Request::Stats | Request::Shutdown => unreachable!("handled above"),
        });
        self.cache.put_bytes(response_key, Arc::clone(&payload));
        Ok(JobOutcome {
            payload,
            cached_response: false,
        })
    }

    /// The mapped netlist of the built-in Fig. 4 DES module.
    fn des_mapped(&self, opts_bytes: &[u8], c: &CampaignRequest) -> Result<Arc<Netlist>, FlowError> {
        self.cache.get_or_try(
            stage_key(CAMPAIGN_INPUT, opts_bytes, CacheStage::Map),
            || {
                let _s = obs::span("synth");
                map_design(&des_dpa_design(), &self.lib, &c.opts.map).map_err(FlowError::Map)
            },
            size::netlist,
        )
    }

    fn place_opts(c: &CampaignRequest, pitch: GridPitch) -> PlaceOptions {
        PlaceOptions {
            fill_factor: c.opts.fill_factor,
            aspect_ratio: c.opts.aspect_ratio,
            anneal_moves_per_gate: c.opts.anneal_moves_per_gate,
            seed: c.opts.seed,
            pitch,
        }
    }

    /// Runs a measurement campaign + attack on the built-in DES
    /// module, caching every stage artifact along the way. The
    /// statistics entry is looked up first: a hit needs no stage.
    fn campaign(&self, c: &CampaignRequest) -> Result<Vec<u8>, JobError> {
        let ob = flow_options_bytes(&c.opts);
        // Downstream stage keys carry the implementation tag: the
        // secure pipeline's placement must never alias the regular
        // one's.
        let impl_input: Vec<u8> = [
            CAMPAIGN_INPUT,
            if c.secure { b"/secure" } else { b"/regular" },
        ]
        .concat();

        // The campaign's statistics depend on everything its traces
        // do: options, full sim config (noise included), key, n, seed.
        // `mtd` is keyed too, so an attack-only job never pays for the
        // MTD scans. The attack kind and `trace_path` are deliberately
        // *not* keyed: both attacks are computed in one pass, so a CPA
        // job reuses the DPA job's entry.
        let mut campaign_opts = ob.clone();
        campaign_opts.extend_from_slice(&sim_config_bytes(&c.cfg));
        let mut e = Enc::new();
        e.u64("key", u64::from(c.key))
            .u64("n", c.n as u64)
            .u64("seed", c.seed)
            .bool("mtd", c.mtd);
        campaign_opts.extend_from_slice(&e.build());
        let campaign_key = stage_key(&impl_input, &campaign_opts, CacheStage::Traces);
        if let Some(analysis) = self.cache.get::<CampaignAnalysis>(campaign_key) {
            return Ok(render_campaign(c, &analysis));
        }

        let mapped = self.des_mapped(&ob, c)?;
        let key_of = |stage| stage_key(&impl_input, &ob, stage);

        // Build (or recall) the implementation's artifacts, then the
        // campaign target borrowing from them. The intermediate
        // placement/routing Arcs are dropped once extraction has run —
        // the cache keeps them alive if they are retained at all.
        let sub_opt: Option<Arc<Substitution>>;
        let parasitics: Arc<Parasitics>;
        if c.secure {
            let sub = self.cache.get_or_try(
                key_of(CacheStage::Substitute),
                || {
                    let _s = obs::span("substitute");
                    substitute(&mapped, &self.lib).map_err(FlowError::from)
                },
                size::substitution,
            )?;
            let placed = self.cache.get_or_try(
                key_of(CacheStage::Place),
                || {
                    let _s = obs::span("place");
                    place_best_of(
                        &sub.fat,
                        &sub.fat_lib,
                        &Self::place_opts(c, GridPitch::Fat),
                        c.opts.place_restarts,
                    )
                    .map_err(FlowError::from)
                },
                size::placed,
            )?;
            let routed = self.cache.get_or_try(
                key_of(CacheStage::Route),
                || {
                    let _s = obs::span("route");
                    route(&sub.fat, &sub.fat_lib, &placed, &c.opts.route).map_err(FlowError::from)
                },
                size::routed,
            )?;
            let decomposed = self.cache.get_or_try(
                key_of(CacheStage::Decompose),
                || {
                    let _s = obs::span("decompose");
                    decompose_styled(&routed, &sub, c.opts.decompose_style).map_err(FlowError::from)
                },
                size::routed,
            )?;
            parasitics = self.cache.get_or_try(
                key_of(CacheStage::Extract),
                || {
                    let _s = obs::span("extract");
                    try_extract(&decomposed, &sub.differential, &c.opts.tech)
                        .map_err(FlowError::from)
                },
                size::parasitics,
            )?;
            sub_opt = Some(sub);
        } else {
            let placed = self.cache.get_or_try(
                key_of(CacheStage::Place),
                || {
                    let _s = obs::span("place");
                    place_best_of(
                        &mapped,
                        &self.lib,
                        &Self::place_opts(c, GridPitch::Normal),
                        c.opts.place_restarts,
                    )
                    .map_err(FlowError::from)
                },
                size::placed,
            )?;
            let routed = self.cache.get_or_try(
                key_of(CacheStage::Route),
                || {
                    let _s = obs::span("route");
                    route(&mapped, &self.lib, &placed, &c.opts.route).map_err(FlowError::from)
                },
                size::routed,
            )?;
            parasitics = self.cache.get_or_try(
                key_of(CacheStage::Extract),
                || {
                    let _s = obs::span("extract");
                    try_extract(&routed, &mapped, &c.opts.tech).map_err(FlowError::from)
                },
                size::parasitics,
            )?;
            sub_opt = None;
        }
        let target = match &sub_opt {
            Some(sub) => DesTarget {
                netlist: &sub.differential,
                lib: &sub.diff_lib,
                parasitics: Some(&parasitics),
                wddl_inputs: Some(&sub.input_pairs),
                glitch_free: false,
                backend: c.opts.sim_backend,
            },
            None => DesTarget {
                netlist: &mapped,
                lib: &self.lib,
                parasitics: Some(&parasitics),
                wddl_inputs: None,
                glitch_free: false,
                backend: c.opts.sim_backend,
            },
        };

        // The compiled program ignores the noise parameters (windows
        // run noise-free; noise is applied per trace), so its key
        // zeroes them — a noise sweep reuses one compiled program.
        let program_cfg = SimConfig {
            noise_sigma: 0.0,
            noise_seed: 0,
            ..c.cfg.clone()
        };
        let mut program_opts = ob.clone();
        program_opts.extend_from_slice(&sim_config_bytes(&program_cfg));
        let program = self.cache.get_or_try(
            stage_key(&impl_input, &program_opts, CacheStage::Program),
            || {
                CampaignProgram::build(&target, &c.cfg)
                    .map_err(FlowError::Sim)
            },
            |_| size::program(target.netlist, &c.cfg),
        )?;

        let plan = AnalysisPlan {
            n_keys: 64,
            correct_key: c.key,
            step: c.mtd.then(|| (c.n / 40).max(10)),
            dpa: true,
            cpa: true,
        };
        let analysis = Arc::new(collect_des_analysis_streaming(
            &program, &target, &c.cfg, c.key, c.n, c.seed, &plan, STREAM_CHUNK, None,
        )?);
        self.cache.put(
            campaign_key,
            Arc::clone(&analysis),
            size::analysis(&analysis),
        );

        Ok(render_campaign(c, &analysis))
    }

    /// Runs a flow backend on submitted Verilog text. The parsed
    /// netlist is cached on the exact input bytes; the backend run
    /// itself is covered by the response cache.
    fn flow(&self, f: &FlowRequest) -> Result<Vec<u8>, JobError> {
        let seq_cells = self.lib.seq_cell_names();
        let parsed = self.cache.get_or_try(
            stage_key(f.netlist.as_bytes(), &[], CacheStage::Parse),
            || {
                let _s = obs::span("parse");
                let nl = parse_verilog(&f.netlist, &seq_cells).map_err(FlowError::Parse)?;
                nl.validate().map_err(FlowError::Parse)?;
                Ok::<Netlist, FlowError>(nl)
            },
            size::netlist,
        )?;
        // Flow options participate via the response-cache key; the
        // backend run below is not stage-cached (its verification
        // steps are checks, not artifacts).
        if f.secure {
            let r = run_secure_backend((*parsed).clone(), &self.lib, &f.opts, 0.0)?;
            Ok(render_flow("secure", &r.report))
        } else {
            let r = run_regular_backend((*parsed).clone(), &self.lib, &f.opts, 0.0)?;
            Ok(render_flow("regular", &r.report))
        }
    }
}

/// Canonical input tag of campaign jobs: the design is compiled into
/// the binary, so its identity — not its bytes — is the input.
const CAMPAIGN_INPUT: &[u8] = b"builtin:des_dpa";

/// Traces simulated per accumulator block. Big enough to amortize the
/// parallel fan-out, small enough that a block of 1 k-sample traces
/// stays a few tens of MB.
const STREAM_CHUNK: usize = 4096;

fn render_stats(jobs: u64, s: CacheStats) -> Vec<u8> {
    let mut cache = Obj::new();
    cache
        .u64("hits", s.hits)
        .u64("misses", s.misses)
        .u64("evicts", s.evicts)
        .u64("entries", s.entries as u64)
        .u64("bytes", s.bytes as u64);
    let mut o = Obj::new();
    o.str("job", "stats")
        .u64("jobs", jobs)
        .raw("cache", &cache.build());
    o.build().into_bytes()
}

/// Renders the deterministic campaign payload. Every value here is a
/// pure function of the request — trace statistics, attack outcomes,
/// MTD — with floats through the shared writer's shortest-round-trip
/// formatting; no timings, no cache state.
fn render_campaign(c: &CampaignRequest, a: &CampaignAnalysis) -> Vec<u8> {
    let mut o = Obj::new();
    o.str("job", if c.mtd { "campaign" } else { "attack" })
        .str(
            "implementation",
            if c.secure { "secure" } else { "regular" },
        )
        .str("attack", c.attack.name())
        .u64("n", a.n as u64)
        .u64("seed", c.seed)
        .u64("key", u64::from(c.key))
        .u64("samples_per_trace", a.samples_per_trace as u64);
    let mean_energy = a.energy_sum / a.n as f64;
    o.f64("mean_energy_fj", mean_energy);
    // The cached analysis holds both attacks; render the requested one.
    match c.attack {
        AttackKind::Dpa => {
            if let Some(r) = &a.dpa {
                o.u64("best_key", u64::from(r.best_key)).f64("margin", r.margin);
                let mut guesses = Arr::new();
                for g in &r.guesses {
                    let mut go = Obj::new();
                    go.u64("key", u64::from(g.key)).f64("p2p", g.p2p);
                    guesses.raw(&go.build());
                }
                o.raw("guesses", &guesses.build());
            }
            if let Some(scan) = &a.dpa_mtd {
                match scan.mtd {
                    Some(m) => o.u64("mtd", m as u64),
                    None => o.raw("mtd", "null"),
                };
                let mut points = Arr::new();
                for p in &scan.points {
                    let mut po = Obj::new();
                    po.u64("traces", p.traces as u64)
                        .raw("disclosed", if p.disclosed { "true" } else { "false" })
                        .f64("correct_peak", p.correct_peak)
                        .f64("best_wrong_peak", p.best_wrong_peak);
                    points.raw(&po.build());
                }
                o.raw("points", &points.build());
            }
        }
        AttackKind::Cpa => {
            if let Some(r) = &a.cpa {
                o.u64("best_key", u64::from(r.best_key)).f64("margin", r.margin);
                let mut guesses = Arr::new();
                for g in &r.guesses {
                    let mut go = Obj::new();
                    go.u64("key", u64::from(g.key)).f64("peak_corr", g.peak_corr);
                    guesses.raw(&go.build());
                }
                o.raw("guesses", &guesses.build());
            }
            if let Some((pts, mtd)) = &a.cpa_mtd {
                match mtd {
                    Some(m) => o.u64("mtd", *m as u64),
                    None => o.raw("mtd", "null"),
                };
                let mut points = Arr::new();
                for p in pts {
                    let mut po = Obj::new();
                    po.u64("traces", p.traces as u64)
                        .raw("disclosed", if p.disclosed { "true" } else { "false" })
                        .f64("correct_corr", p.correct_corr)
                        .f64("best_wrong_corr", p.best_wrong_corr);
                    points.raw(&po.build());
                }
                o.raw("points", &points.build());
            }
        }
    }
    o.build().into_bytes()
}

/// Renders the deterministic flow payload: the [`FlowReport`] *minus*
/// its wall-clock `*_ms` fields, which would break warm/cold byte
/// identity.
fn render_flow(kind: &str, r: &FlowReport) -> Vec<u8> {
    let mut o = Obj::new();
    o.str("job", "flow")
        .str("implementation", kind)
        .str("netlist_stats", &r.stats.to_string())
        .f64("die_area_um2", r.die_area_um2)
        .f64("cell_area_um2", r.cell_area_um2)
        .u64("wirelength_tracks", r.wirelength_tracks.unsigned_abs())
        .u64("vias", r.vias as u64)
        .f64("critical_path_ps", r.critical_path_ps);
    if let Some(c) = &r.clock {
        let mut co = Obj::new();
        co.u64("sinks", c.sinks as u64)
            .u64("buffers", c.buffers as u64)
            .f64("skew_ps", c.skew_ps)
            .f64("total_cap_ff", c.total_cap_ff);
        o.raw("clock", &co.build());
    }
    if let Some(lec) = r.lec_equivalent {
        o.raw("lec_equivalent", if lec { "true" } else { "false" });
    }
    if let Some(mm) = r.mean_pair_mismatch {
        o.f64("mean_pair_mismatch", mm);
    }
    if let Some(mm) = r.max_pair_mismatch {
        o.f64("max_pair_mismatch", mm);
    }
    o.build().into_bytes()
}

/// Renders the response envelope (first frame): job status, the
/// structured error if any, and per-job `serve.*` metrics. Everything
/// run-dependent lives here, never in the payload.
pub fn render_envelope(
    result: &Result<JobOutcome, JobError>,
    before: CacheStats,
    after: CacheStats,
    queue_depth: usize,
) -> String {
    let mut o = Obj::new();
    match result {
        Ok(out) => {
            o.raw("ok", "true")
                .raw(
                    "cached",
                    if out.cached_response { "true" } else { "false" },
                )
                .u64("payload_bytes", out.payload.len() as u64);
        }
        Err(e) => {
            let mut err = Obj::new();
            err.str("stage", &e.stage)
                .str("kind", &e.kind)
                .str("detail", &e.detail);
            o.raw("ok", "false")
                .raw("error", &err.build())
                .u64("exit_code", e.exit_code as u64);
        }
    }
    let mut m = Obj::new();
    m.u64("cache_hits", after.hits.saturating_sub(before.hits))
        .u64("cache_misses", after.misses.saturating_sub(before.misses))
        .u64("cache_evicts", after.evicts.saturating_sub(before.evicts))
        .u64("cache_entries", after.entries as u64)
        .u64("cache_bytes", after.bytes as u64)
        .u64("queue_depth", queue_depth as u64);
    o.raw("metrics", &m.build());
    o.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::canonical_json;
    use secflow_obs::json::Value;

    fn canonical(req: &str) -> String {
        canonical_json(&Value::parse(req).unwrap())
    }

    #[test]
    fn warm_campaign_payload_is_byte_identical_and_cached() {
        let engine = Engine::new(256 << 20, None);
        let req = r#"{"job":"campaign","n":8,"seed":1,
                      "options":{"anneal_moves_per_gate":4,"verify":false},
                      "sim":{"samples_per_cycle":40}}"#;
        let canon = canonical(req);
        let parsed = Request::parse(req.as_bytes()).unwrap();
        let cold = engine.execute(&canon, &parsed).unwrap();
        assert!(!cold.cached_response);
        let warm = engine.execute(&canon, &parsed).unwrap();
        assert!(warm.cached_response);
        assert_eq!(cold.payload, warm.payload);
        // Field order must not matter: same request reshuffled.
        let req2 = r#"{"seed":1,"n":8,"job":"campaign",
                       "sim":{"samples_per_cycle":40},
                       "options":{"verify":false,"anneal_moves_per_gate":4}}"#;
        assert_eq!(canonical(req2), canon);
    }

    #[test]
    fn cpa_attack_reuses_dpa_traces() {
        let engine = Engine::new(256 << 20, None);
        let mk = |attack: &str| {
            format!(
                r#"{{"job":"attack","attack":"{attack}","n":6,"seed":2,
                     "options":{{"anneal_moves_per_gate":4,"verify":false}},
                     "sim":{{"samples_per_cycle":40}}}}"#
            )
        };
        let dpa = mk("dpa");
        let parsed = Request::parse(dpa.as_bytes()).unwrap();
        engine.execute(&canonical(&dpa), &parsed).unwrap();
        let s1 = engine.cache.stats();
        let cpa = mk("cpa");
        let parsed = Request::parse(cpa.as_bytes()).unwrap();
        engine.execute(&canonical(&cpa), &parsed).unwrap();
        let s2 = engine.cache.stats();
        // The CPA job missed only on its response key and was answered
        // from the DPA job's statistics entry without any stage lookup.
        assert_eq!(s2.misses - s1.misses, 1, "stats {s2:?} vs {s1:?}");
        assert_eq!(s2.hits - s1.hits, 1, "stats {s2:?} vs {s1:?}");
    }

    #[test]
    fn flow_job_errors_map_the_taxonomy() {
        let engine = Engine::new(16 << 20, None);
        let req = r#"{"job":"flow","netlist":"this is not verilog ("}"#;
        let parsed = Request::parse(req.as_bytes()).unwrap();
        let e = engine
            .execute(&canonical(req), &parsed)
            .expect_err("parse must fail");
        assert_eq!(e.stage, "parse");
        assert_eq!(e.exit_code, 10);
    }
}
