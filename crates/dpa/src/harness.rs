//! End-to-end trace collection for the Fig. 4 DES module.
//!
//! Drives a simulated implementation (regular single-ended or WDDL
//! differential) with random plaintexts under a fixed key — the
//! paper's measurement campaign: 2000 encryptions, random `PL`/`PR`,
//! `K = 46`, 125 MHz, 800 samples per cycle — and slices the supply
//! current into one trace per encryption.
//!
//! The campaign is parallel over encryptions (`secflow-exec`): the
//! plaintext sequence is drawn serially up front (identical to the
//! serial harness for a given seed), the measurement-noise stream of
//! encryption `i` is derived from `(noise_seed, i)` via
//! [`secflow_rand::split_seed`], and each trace is produced by
//! simulating a short **window** — the two preceding plaintext cycles
//! (the datapath's full state history), the leakage cycle itself, and
//! two flush cycles — so traces are independent work items yet
//! byte-identical at any thread count. Only the leakage cycle is
//! measured: the kernels account charge for it alone.
//!
//! The windowed campaign is the specification. It equals slicing one
//! continuous n-encryption run on netlists without coupling, and with
//! extracted parasitics only while the crosstalk window is closed: in
//! the leakage cycle a window drives the flush plaintext where a
//! continuous run drives the next one, and the input wires couple to
//! switching nets (`tests/window_vs_full.rs`, DESIGN.md §7).
//!
//! Two consumption paths share the window simulators:
//!
//! * **Materialize** ([`collect_des_traces`]): every trace lands in a
//!   [`TraceSet`], O(traces × points) memory, attacked afterwards
//!   ([`analyze_trace_set`]).
//! * **Streaming** ([`collect_des_analysis_streaming`]): windows are
//!   simulated in bounded chunks and fed straight into the one-pass
//!   accumulators of [`crate::streaming`]; memory is
//!   O(chunk × points + points × guesses) however many traces run,
//!   and the resulting [`CampaignAnalysis`] is byte-identical to the
//!   materialized path because every per-guess fold sees the same
//!   traces in the same order.

use std::path::Path;

use secflow_rand::{split_seed, RngExt, SeedableRng, StdRng};

use secflow_cells::Library;
use secflow_crypto::dpa_module::{encrypt, selection};
use secflow_exec::par_map_range_with;
use secflow_extract::Parasitics;
use secflow_netlist::{NetId, Netlist};
use secflow_obs as obs;
use secflow_sim::{
    add_gaussian_noise, BitScratch, BitSim, CompiledSim, EngineScratch, LoadModel, SimBackend,
    SimConfig, SimError,
};

use crate::attack::{dpa_attack, mtd_scan, DpaResult, MtdScan};
use crate::cpa::{cpa_attack, cpa_mtd_scan, sbox_hamming_model, CpaMtdPoint, CpaResult};
use crate::error::{AnalysisError, CampaignError};
use crate::store::{StoreWriter, TraceBlock, TraceStore};
use crate::streaming::{CpaStream, DpaStream};

/// A simulated implementation of the DES DPA module.
#[derive(Debug, Clone, Copy)]
pub struct DesTarget<'a> {
    /// The mapped netlist (single-ended) or differential netlist
    /// (WDDL).
    pub netlist: &'a Netlist,
    /// Library resolving the netlist's cells.
    pub lib: &'a Library,
    /// Extracted layout parasitics, if available.
    pub parasitics: Option<&'a Parasitics>,
    /// For WDDL targets: the input rail pairs in original port order
    /// (`pl[0..4]`, `pr[0..6]`, `k[0..6]`). `None` selects the
    /// single-ended driver.
    pub wddl_inputs: Option<&'a [(NetId, NetId)]>,
    /// Use the idealized glitch-free power model (single-ended targets
    /// only; used by the glitch-contribution ablation).
    pub glitch_free: bool,
    /// Which simulation kernel runs the campaign windows. Both produce
    /// byte-identical traces; `Bitslice` batches 64 windows per lane
    /// word (see `tests/bitslice_cross_check.rs`).
    pub backend: SimBackend,
}

impl<'a> DesTarget<'a> {
    /// The same target on a different simulation backend.
    #[must_use]
    pub fn with_backend(mut self, backend: SimBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// A campaign-ready compiled simulation program: the target netlist
/// compiled once for its backend (cell resolution, fanout adjacency,
/// loads, topological order), reusable across any number of
/// campaigns. Building it is the expensive, stimuli-independent half
/// of [`collect_des_traces`]; the program is immutable and `Sync`, so
/// a job server can cache it behind an `Arc` and share it between
/// concurrent campaigns that differ only in stimuli and seeds.
#[derive(Debug)]
pub enum CampaignProgram {
    /// Compiled event-driven kernel (one window at a time).
    Event(CompiledSim),
    /// Bit-sliced oblivious kernel (up to 64 windows per batch).
    Bitslice(BitSim),
}

impl CampaignProgram {
    /// Compiles `target` for campaign simulation. Windows are
    /// simulated noise-free (measurement noise is applied per trace
    /// from its own stream), so the program is built against a
    /// zero-noise copy of `cfg`.
    ///
    /// The backend/config combination is validated *first*
    /// ([`SimConfig::validate_backend`]), so an unsupported request —
    /// e.g. `record_waveform` on the bit-sliced backend — fails with
    /// its typed error before any compilation work.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if validation fails, the target netlist is
    /// cyclic, or it references cells missing from its library.
    pub fn build(target: &DesTarget<'_>, cfg: &SimConfig) -> Result<CampaignProgram, SimError> {
        cfg.validate_backend(target.backend)?;
        let load = LoadModel::try_build(target.netlist, target.lib, target.parasitics)?;
        let window_cfg = SimConfig {
            noise_sigma: 0.0,
            ..cfg.clone()
        };
        Ok(match target.backend {
            SimBackend::Event => CampaignProgram::Event(CompiledSim::build(
                target.netlist,
                target.lib,
                &load,
                &window_cfg,
            )?),
            SimBackend::Bitslice => CampaignProgram::Bitslice(BitSim::build(
                target.netlist,
                target.lib,
                &load,
                &window_cfg,
            )?),
        })
    }

    /// The backend this program was compiled for.
    pub fn backend(&self) -> SimBackend {
        match self {
            CampaignProgram::Event(_) => SimBackend::Event,
            CampaignProgram::Bitslice(_) => SimBackend::Bitslice,
        }
    }
}

/// Collected measurement campaign.
#[derive(Debug, Clone)]
pub struct TraceSet {
    /// One supply-current trace per encryption (the cycle in which the
    /// S-box evaluates and the ciphertext registers capture).
    pub traces: Vec<Vec<f64>>,
    /// Known ciphertext `(CL, CR)` per encryption.
    pub ciphertexts: Vec<(u8, u8)>,
    /// Supply energy per encryption cycle, in fJ.
    pub energies: Vec<f64>,
    /// Samples per trace.
    pub samples_per_trace: usize,
}

impl TraceSet {
    /// The paper's selection function as a closure over this set's
    /// ciphertexts, suitable for [`crate::attack::dpa_attack`].
    pub fn selector(&self) -> impl Fn(u8, usize) -> bool + '_ {
        move |key, i| {
            let (cl, cr) = self.ciphertexts[i];
            selection(key, cl, cr)
        }
    }
}

/// Draws the campaign's plaintext sequence — serial, identical for a
/// given seed no matter which path or chunking consumes it.
fn draw_plaintexts(n: usize, seed: u64) -> Vec<(u8, u8)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.random_range(0..16u8), rng.random_range(0..64u8)))
        .collect()
}

/// Runs `n` encryptions with random plaintexts under `key` and
/// collects per-encryption traces.
///
/// The implementation is verified online: every simulated ciphertext
/// is compared against the software model of the datapath.
///
/// # Errors
///
/// Returns [`SimError`] if the target netlist is cyclic or references
/// cells missing from its library.
///
/// # Panics
///
/// Panics if `key >= 64` (caller contract), or if the simulated
/// hardware disagrees with the reference model (a substitution or
/// simulation bug, not an input error).
pub fn collect_des_traces(
    target: &DesTarget<'_>,
    cfg: &SimConfig,
    key: u8,
    n: usize,
    seed: u64,
) -> Result<TraceSet, SimError> {
    let program = CampaignProgram::build(target, cfg)?;
    collect_des_traces_with(&program, target, cfg, key, n, seed)
}

/// [`collect_des_traces`] against an already-compiled program —
/// the campaign half of the compile/run split. `program` must have
/// been built from this `target` (same netlist, library, parasitics
/// and backend); `cfg` supplies the per-trace noise parameters, which
/// are not baked into the program.
///
/// # Errors
///
/// Returns [`SimError`] if `cfg` requests a feature `program`'s
/// backend does not support.
///
/// # Panics
///
/// Panics if `key >= 64` (caller contract), or if the simulated
/// hardware disagrees with the reference model.
pub fn collect_des_traces_with(
    program: &CampaignProgram,
    target: &DesTarget<'_>,
    cfg: &SimConfig,
    key: u8,
    n: usize,
    seed: u64,
) -> Result<TraceSet, SimError> {
    assert!(key < 64);
    cfg.validate_backend(program.backend())?;
    let _campaign = obs::span("dpa.campaign");
    // Plaintexts are drawn sequentially up front — cheap, and it keeps
    // the campaign identical to the serial harness for a given seed.
    // Only the expensive per-encryption simulation is parallelised.
    let plaintexts = draw_plaintexts(n, seed);
    let spc = cfg.samples_per_cycle;

    let collected = match program {
        CampaignProgram::Bitslice(sim) => {
            let batches = bitslice_batches(n);
            let per_batch = par_map_range_with(batches.len(), BitScratch::new, |scratch, bi| {
                let (start, count) = batches[bi];
                run_bitslice_batch(sim, scratch, target, cfg, key, &plaintexts, start, count)
            });
            per_batch.into_iter().flatten().collect()
        }
        CampaignProgram::Event(comp) => {
            // One work item per encryption; each pool worker keeps one
            // engine scratch, reset per window, so the steady-state
            // campaign allocates nothing in the simulator.
            par_map_range_with(n, EngineScratch::new, |scratch, i| {
                run_event_window(comp, scratch, target, cfg, key, &plaintexts, i)
            })
        }
    };

    Ok(finish_campaign(collected, n, spc))
}

fn finish_campaign(
    collected: Vec<(Vec<f64>, (u8, u8), f64)>,
    n: usize,
    spc: usize,
) -> TraceSet {
    let mut traces = Vec::with_capacity(n);
    let mut ciphertexts = Vec::with_capacity(n);
    let mut energies = Vec::with_capacity(n);
    for (trace, ct, energy) in collected {
        traces.push(trace);
        ciphertexts.push(ct);
        energies.push(energy);
    }

    obs::add(obs::Counter::DpaTraces, n as u64);
    TraceSet {
        traces,
        ciphertexts,
        energies,
        samples_per_trace: spc,
    }
}

/// Simulates the window of encryption `i` on the event kernel,
/// measuring its leakage cycle only.
///
/// The datapath state feeding the leakage cycle of encryption i is
/// fully determined by the two preceding plaintexts (PL/PR capture
/// p(i) while CL/CR hold the result of p(i-1), computed from state set
/// by p(i-2)), so a window of h = min(i, 2) history cycles, the
/// leakage cycle, and two flush cycles holds the full campaign's
/// datapath activity — including the reset-state boundary for i < 2,
/// where the window is the campaign prefix itself. Its charge equals
/// the continuous campaign's bit for bit unless crosstalk couples the
/// (flush, not next) plaintext inputs into it; the window defines the
/// trace either way.
fn run_event_window(
    comp: &CompiledSim,
    scratch: &mut EngineScratch,
    target: &DesTarget<'_>,
    cfg: &SimConfig,
    key: u8,
    plaintexts: &[(u8, u8)],
    i: usize,
) -> (Vec<f64>, (u8, u8), f64) {
    let vector = |pl: u8, pr: u8| -> Vec<bool> {
        let mut v = Vec::with_capacity(16);
        for b in 0..4 {
            v.push(pl >> b & 1 == 1);
        }
        for b in 0..6 {
            v.push(pr >> b & 1 == 1);
        }
        for b in 0..6 {
            v.push(key >> b & 1 == 1);
        }
        v
    };
    let decode = |outs: &[bool]| -> (u8, u8) {
        let bit = |j: usize| -> bool {
            match target.wddl_inputs {
                Some(_) => outs[2 * j], // rails interleaved (t, f)
                None => outs[j],
            }
        };
        let cl = (0..4).fold(0u8, |a, j| a | ((bit(j) as u8) << j));
        let cr = (0..6).fold(0u8, |a, j| a | ((bit(4 + j) as u8) << j));
        (cl, cr)
    };

    let h = i.min(2);
    let mut vectors: Vec<Vec<bool>> = Vec::with_capacity(h + 3);
    for j in (i - h)..=i {
        let (pl, pr) = plaintexts[j];
        vectors.push(vector(pl, pr));
    }
    vectors.push(vector(0, 0));
    vectors.push(vector(0, 0));

    // Plaintext i is captured by PL/PR at the end of window cycle
    // h; the S-box evaluates and the ciphertext registers capture
    // during cycle h+1 (the leakage cycle, the only one measured);
    // the new CL/CR values drive the outputs during cycle h+2.
    let leak_cycle = h + 1;
    let measured = leak_cycle..=leak_cycle;
    match (target.wddl_inputs, target.glitch_free) {
        (Some(pairs), _) => comp.run_wddl(scratch, pairs, &vectors, measured),
        (None, false) => comp.run_single_ended(scratch, &vectors, measured),
        (None, true) => comp.run_single_ended_glitch_free(scratch, &vectors, measured),
    }

    let mut trace = scratch.cycle_trace(leak_cycle).to_vec();
    if cfg.noise_sigma > 0.0 {
        add_gaussian_noise(
            &mut trace,
            cfg.noise_sigma,
            split_seed(cfg.noise_seed, i as u64),
        );
    }
    // Per-window kernel counters: each is a pure function of the
    // compiled design and this window's vectors, so campaign sums
    // are thread-count invariant (pinned by tests/obs_counters.rs).
    if obs::enabled() {
        obs::add(obs::Counter::SimWindows, 1);
        obs::add(obs::Counter::SimEvents, scratch.events_processed());
        obs::add(obs::Counter::SimEvals, scratch.gate_evals());
        obs::add(obs::Counter::SimRises, scratch.cycle_rises().iter().sum());
        obs::gauge_max(obs::Gauge::SimWheelPeak, scratch.wheel_peak());
    }
    let energy = scratch.cycle_energy_fj()[leak_cycle];
    let got = decode(scratch.outputs(leak_cycle + 1));
    let (pl, pr) = plaintexts[i];
    let expect = encrypt(pl, pr, key);
    assert_eq!(
        got, expect,
        "simulated ciphertext disagrees with the model at encryption {i}"
    );
    (trace, got, energy)
}

/// The bit-sliced campaign's batch partition: encryptions 0 (3-cycle
/// window) and 1 (4 cycles) run alone against the reset boundary; the
/// steady state (5 cycles) packs up to 64 encryptions per batch. A
/// pure function of `n`, so batch-level obs counters — and any
/// chunk-of-batches grouping built on top — are thread-count
/// invariant.
fn bitslice_batches(n: usize) -> Vec<(usize, usize)> {
    let mut batches: Vec<(usize, usize)> = Vec::new();
    let mut at = 0usize;
    while at < n {
        let count = if at < 2 { 1 } else { (n - at).min(64) };
        batches.push((at, count));
        at += count;
    }
    batches
}

/// Simulates one lane batch (encryptions `start..start + count`, all
/// sharing a window length) on the bit-sliced kernel and unpacks the
/// per-lane results in encryption order — byte-identical to the event
/// path at any thread count.
#[allow(clippy::too_many_arguments)]
fn run_bitslice_batch(
    sim: &BitSim,
    scratch: &mut BitScratch,
    target: &DesTarget<'_>,
    cfg: &SimConfig,
    key: u8,
    plaintexts: &[(u8, u8)],
    start: usize,
    count: usize,
) -> Vec<(Vec<f64>, (u8, u8), f64)> {
    let h = start.min(2);
    let active = if count == 64 { !0u64 } else { (1u64 << count) - 1 };
    let key_word = |b: usize| if key >> b & 1 == 1 { active } else { 0 };
    // One packed word per input per cycle: bit l is lane l's value
    // of that input (port order pl[0..4], pr[0..6], k[0..6]).
    let mut vectors: Vec<Vec<u64>> = Vec::with_capacity(h + 3);
    for j in 0..=h {
        let mut words = vec![0u64; 16];
        for l in 0..count {
            let (pl, pr) = plaintexts[start + l - h + j];
            for b in 0..4 {
                if pl >> b & 1 == 1 {
                    words[b] |= 1 << l;
                }
            }
            for b in 0..6 {
                if pr >> b & 1 == 1 {
                    words[4 + b] |= 1 << l;
                }
            }
        }
        for b in 0..6 {
            words[10 + b] = key_word(b);
        }
        vectors.push(words);
    }
    // Flush cycles: plaintext zero, key held.
    for _ in 0..2 {
        let mut words = vec![0u64; 16];
        for b in 0..6 {
            words[10 + b] = key_word(b);
        }
        vectors.push(words);
    }

    let leak_cycle = h + 1;
    let measured = leak_cycle..=leak_cycle;
    match (target.wddl_inputs, target.glitch_free) {
        (Some(pairs), _) => sim.run_wddl(scratch, pairs, &vectors, active, measured),
        (None, false) => sim.run_single_ended(scratch, &vectors, active, measured),
        (None, true) => sim.run_single_ended_glitch_free(scratch, &vectors, active, measured),
    }

    // Batch-level kernel counters: pure functions of the compiled
    // design and this batch's stimuli (pinned by
    // tests/obs_counters.rs).
    if obs::enabled() {
        obs::add(obs::Counter::SimBitsliceBatches, 1);
        obs::add(obs::Counter::SimBitsliceLanes, count as u64);
        obs::add(obs::Counter::SimBitsliceEvents, scratch.events_processed());
        obs::add(obs::Counter::SimBitsliceEvals, scratch.gate_evals());
        obs::add(obs::Counter::SimBitsliceRises, scratch.total_rises());
        obs::gauge_max(obs::Gauge::SimBitsliceWheelPeak, scratch.wheel_peak());
    }

    let mut out = Vec::with_capacity(count);
    for l in 0..count {
        let i = start + l;
        let mut trace = scratch.cycle_trace(leak_cycle, l);
        if cfg.noise_sigma > 0.0 {
            add_gaussian_noise(
                &mut trace,
                cfg.noise_sigma,
                split_seed(cfg.noise_seed, i as u64),
            );
        }
        let energy = scratch.cycle_energy_fj(leak_cycle, l);
        let bit = |j: usize| match target.wddl_inputs {
            Some(_) => scratch.output_bit(leak_cycle + 1, 2 * j, l),
            None => scratch.output_bit(leak_cycle + 1, j, l),
        };
        let cl = (0..4).fold(0u8, |a, j| a | ((bit(j) as u8) << j));
        let cr = (0..6).fold(0u8, |a, j| a | ((bit(4 + j) as u8) << j));
        let (pl, pr) = plaintexts[i];
        let expect = encrypt(pl, pr, key);
        assert_eq!(
            (cl, cr),
            expect,
            "simulated ciphertext disagrees with the model at encryption {i}"
        );
        out.push((trace, (cl, cr), energy));
    }
    out
}

/// Which attack statistics a campaign analysis should produce.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisPlan {
    /// Key guesses to evaluate (the Fig. 4 module: 64).
    pub n_keys: usize,
    /// The campaign's actual key, for MTD disclosure.
    pub correct_key: u8,
    /// MTD checkpoint step; `None` skips the MTD scans.
    pub step: Option<usize>,
    /// Run the single-bit DPA.
    pub dpa: bool,
    /// Run the Hamming-weight CPA.
    pub cpa: bool,
}

/// Attack statistics of one campaign, produced identically by the
/// materialized ([`analyze_trace_set`]) and streaming
/// ([`collect_des_analysis_streaming`]) paths.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAnalysis {
    /// Traces analyzed.
    pub n: usize,
    /// Samples per trace.
    pub samples_per_trace: usize,
    /// Serial left-fold sum of per-encryption energies (fJ); divide by
    /// `n` for the mean.
    pub energy_sum: f64,
    /// DPA statistics, if planned.
    pub dpa: Option<DpaResult>,
    /// DPA MTD scan, if planned with a step.
    pub dpa_mtd: Option<MtdScan>,
    /// CPA statistics, if planned.
    pub cpa: Option<CpaResult>,
    /// CPA MTD scan, if planned with a step.
    pub cpa_mtd: Option<(Vec<CpaMtdPoint>, Option<usize>)>,
}

/// Runs the planned attacks over a materialized trace set — the
/// classic path: each attack walks the full matrix.
///
/// # Errors
///
/// Propagates the typed input errors of the batch attacks.
pub fn analyze_trace_set(
    set: &TraceSet,
    plan: &AnalysisPlan,
) -> Result<CampaignAnalysis, AnalysisError> {
    let energy_sum = set.energies.iter().sum::<f64>();
    let mut analysis = CampaignAnalysis {
        n: set.traces.len(),
        samples_per_trace: set.samples_per_trace,
        energy_sum,
        dpa: None,
        dpa_mtd: None,
        cpa: None,
        cpa_mtd: None,
    };
    if plan.dpa {
        analysis.dpa = Some(dpa_attack(&set.traces, plan.n_keys, set.selector())?);
        if let Some(step) = plan.step {
            analysis.dpa_mtd = Some(mtd_scan(
                &set.traces,
                plan.n_keys,
                plan.correct_key,
                step,
                set.selector(),
            )?);
        }
    }
    if plan.cpa {
        let model = |k: u8, i: usize| {
            let (cl, cr) = set.ciphertexts[i];
            sbox_hamming_model(k, cl, cr)
        };
        analysis.cpa = Some(cpa_attack(&set.traces, plan.n_keys, model)?);
        if let Some(step) = plan.step {
            analysis.cpa_mtd = Some(cpa_mtd_scan(
                &set.traces,
                plan.n_keys,
                plan.correct_key,
                step,
                model,
            )?);
        }
    }
    Ok(analysis)
}

/// Running accumulators of a streaming campaign analysis, fed one
/// [`TraceBlock`] at a time.
struct StreamSinks {
    dpa: Option<DpaStream>,
    cpa: Option<CpaStream>,
    energy_sum: f64,
    writer: Option<StoreWriter>,
}

impl StreamSinks {
    fn build(plan: &AnalysisPlan, writer: Option<StoreWriter>) -> Result<Self, AnalysisError> {
        let make_dpa = || match plan.step {
            Some(step) => DpaStream::with_step(plan.n_keys, step),
            None => DpaStream::new(plan.n_keys),
        };
        let make_cpa = || match plan.step {
            Some(step) => CpaStream::with_step(plan.n_keys, step),
            None => CpaStream::new(plan.n_keys),
        };
        Ok(StreamSinks {
            dpa: if plan.dpa { Some(make_dpa()?) } else { None },
            cpa: if plan.cpa { Some(make_cpa()?) } else { None },
            energy_sum: 0.0,
            writer,
        })
    }

    fn consume(&mut self, block: &TraceBlock) -> Result<(), CampaignError> {
        if let Some(dpa) = self.dpa.as_mut() {
            dpa.push_block(&block.traces, |k, j| {
                let (cl, cr) = block.ciphertexts[j];
                selection(k, cl, cr)
            })?;
        }
        if let Some(cpa) = self.cpa.as_mut() {
            cpa.push_block(&block.traces, |k, j| {
                let (cl, cr) = block.ciphertexts[j];
                sbox_hamming_model(k, cl, cr)
            })?;
        }
        // Serial left fold in trace order: bitwise what
        // `energies.iter().sum::<f64>()` computes over the full set.
        for &e in &block.energies {
            self.energy_sum += e;
        }
        obs::add(obs::Counter::DpaTraces, block.len() as u64);
        if let Some(w) = self.writer.as_mut() {
            w.append_block(block)?;
        }
        Ok(())
    }

    fn finish(
        mut self,
        plan: &AnalysisPlan,
        n: usize,
        samples_per_trace: usize,
    ) -> Result<CampaignAnalysis, CampaignError> {
        if let Some(w) = self.writer.take() {
            w.finish()?;
        }
        Ok(CampaignAnalysis {
            n,
            samples_per_trace,
            energy_sum: self.energy_sum,
            dpa: self.dpa.as_ref().map(DpaStream::result),
            dpa_mtd: match (&mut self.dpa, plan.step) {
                (Some(s), Some(_)) => Some(s.mtd(plan.correct_key)),
                _ => None,
            },
            cpa: self.cpa.as_ref().map(CpaStream::result),
            cpa_mtd: match (&mut self.cpa, plan.step) {
                (Some(s), Some(_)) => Some(s.mtd(plan.correct_key)),
                _ => None,
            },
        })
    }
}

fn into_block(collected: Vec<(Vec<f64>, (u8, u8), f64)>) -> TraceBlock {
    let mut block = TraceBlock {
        traces: Vec::with_capacity(collected.len()),
        ciphertexts: Vec::with_capacity(collected.len()),
        energies: Vec::with_capacity(collected.len()),
    };
    for (trace, ct, energy) in collected {
        block.traces.push(trace);
        block.ciphertexts.push(ct);
        block.energies.push(energy);
    }
    block
}

/// Runs the campaign and the planned attacks in one fused pass:
/// windows are simulated in chunks of ~`chunk` encryptions (parallel
/// across the chunk), each chunk's traces flow straight into the
/// streaming accumulators, and the chunk is dropped before the next
/// one is simulated. Peak memory is O(chunk × points) for the block
/// in flight plus O(points × guesses) of accumulator state — the full
/// trace matrix never exists.
///
/// With `store_dir`, every block is also appended to an out-of-core
/// [`crate::store`] chunk store for later replay
/// ([`analyze_trace_store`]).
///
/// The returned analysis is byte-identical (`f64::to_bits`) to
/// materializing the same campaign and calling [`analyze_trace_set`],
/// at any thread count and any `chunk` size.
///
/// # Errors
///
/// [`CampaignError`] on simulation, analysis-input, or store
/// failures.
///
/// # Panics
///
/// Panics if `key >= 64` (caller contract), or if the simulated
/// hardware disagrees with the reference model.
#[allow(clippy::too_many_arguments)]
pub fn collect_des_analysis_streaming(
    program: &CampaignProgram,
    target: &DesTarget<'_>,
    cfg: &SimConfig,
    key: u8,
    n: usize,
    seed: u64,
    plan: &AnalysisPlan,
    chunk: usize,
    store_dir: Option<&Path>,
) -> Result<CampaignAnalysis, CampaignError> {
    assert!(key < 64);
    cfg.validate_backend(program.backend())?;
    let _campaign = obs::span("dpa.campaign.stream");
    let plaintexts = draw_plaintexts(n, seed);
    let chunk = chunk.max(1);
    let writer = match store_dir {
        Some(dir) => Some(StoreWriter::create(dir, cfg.samples_per_cycle)?),
        None => None,
    };
    let mut sinks = StreamSinks::build(plan, writer)?;

    match program {
        CampaignProgram::Event(comp) => {
            let mut at = 0usize;
            while at < n {
                let len = chunk.min(n - at);
                let collected = par_map_range_with(len, EngineScratch::new, |scratch, j| {
                    run_event_window(comp, scratch, target, cfg, key, &plaintexts, at + j)
                });
                sinks.consume(&into_block(collected))?;
                at += len;
            }
        }
        CampaignProgram::Bitslice(sim) => {
            // Group consecutive lane batches until ~chunk encryptions;
            // the grouping is a pure function of (n, chunk), so blocks
            // — and everything folded from them — are identical at any
            // thread count.
            let batches = bitslice_batches(n);
            let mut bi = 0usize;
            while bi < batches.len() {
                let mut end = bi;
                let mut lanes = 0usize;
                while end < batches.len() && (lanes == 0 || lanes + batches[end].1 <= chunk) {
                    lanes += batches[end].1;
                    end += 1;
                }
                let group = &batches[bi..end];
                let per_batch =
                    par_map_range_with(group.len(), BitScratch::new, |scratch, gi| {
                        let (start, count) = group[gi];
                        run_bitslice_batch(
                            sim, scratch, target, cfg, key, &plaintexts, start, count,
                        )
                    });
                sinks.consume(&into_block(per_batch.into_iter().flatten().collect()))?;
                bi = end;
            }
        }
    }

    sinks.finish(plan, n, cfg.samples_per_cycle)
}

/// Replays a committed trace store through the streaming accumulators
/// — re-attacking a recorded campaign without re-simulating, holding
/// one chunk in memory at a time.
///
/// # Errors
///
/// [`CampaignError`] on store or analysis-input failures.
pub fn analyze_trace_store(
    store: &TraceStore,
    plan: &AnalysisPlan,
) -> Result<CampaignAnalysis, CampaignError> {
    let _span = obs::span("dpa.campaign.replay");
    let mut sinks = StreamSinks::build(plan, None)?;
    for block in store.blocks() {
        sinks.consume(&block?)?;
    }
    let n = store.n_traces();
    sinks.finish(plan, n, store.samples_per_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_crypto::dpa_module::des_dpa_design;
    use secflow_synth::{map_design, MapOptions};

    #[test]
    fn single_ended_traces_match_model() {
        let design = des_dpa_design();
        let lib = Library::lib180();
        let nl = map_design(&design, &lib, &MapOptions::default()).unwrap();
        let target = DesTarget {
            netlist: &nl,
            lib: &lib,
            parasitics: None,
            wddl_inputs: None,
            glitch_free: false,
            backend: SimBackend::Event,
        };
        let cfg = SimConfig {
            samples_per_cycle: 100,
            ..Default::default()
        };
        let set = collect_des_traces(&target, &cfg, 46, 20, 1).unwrap();
        assert_eq!(set.traces.len(), 20);
        assert_eq!(set.ciphertexts.len(), 20);
        assert!(set.energies.iter().all(|&e| e > 0.0));
        // Cross-check one ciphertext by inverting the datapath.
        let (cl, cr) = set.ciphertexts[3];
        assert!(cl < 16 && cr < 64);
    }

    #[test]
    fn trace_collection_is_deterministic() {
        let design = des_dpa_design();
        let lib = Library::lib180();
        let nl = map_design(&design, &lib, &MapOptions::default()).unwrap();
        let target = DesTarget {
            netlist: &nl,
            lib: &lib,
            parasitics: None,
            wddl_inputs: None,
            glitch_free: false,
            backend: SimBackend::Event,
        };
        let cfg = SimConfig {
            samples_per_cycle: 50,
            ..Default::default()
        };
        let a = collect_des_traces(&target, &cfg, 46, 10, 42).unwrap();
        let b = collect_des_traces(&target, &cfg, 46, 10, 42).unwrap();
        assert_eq!(a.ciphertexts, b.ciphertexts);
        assert_eq!(a.traces, b.traces);
    }

    fn analysis_bits(a: &CampaignAnalysis) -> Vec<u64> {
        let mut bits = vec![a.energy_sum.to_bits()];
        if let Some(d) = &a.dpa {
            bits.push(d.margin.to_bits());
            bits.extend(d.guesses.iter().map(|g| g.peak.to_bits()));
            bits.extend(d.guesses.iter().map(|g| g.p2p.to_bits()));
        }
        if let Some(m) = &a.dpa_mtd {
            for p in &m.points {
                bits.push(p.correct_peak.to_bits());
                bits.push(p.best_wrong_peak.to_bits());
            }
        }
        if let Some(c) = &a.cpa {
            bits.push(c.margin.to_bits());
            bits.extend(c.guesses.iter().map(|g| g.peak_corr.to_bits()));
        }
        if let Some((pts, _)) = &a.cpa_mtd {
            for p in pts {
                bits.push(p.correct_corr.to_bits());
                bits.push(p.best_wrong_corr.to_bits());
            }
        }
        bits
    }

    #[test]
    fn streaming_analysis_matches_materialized_on_both_backends() {
        let design = des_dpa_design();
        let lib = Library::lib180();
        let nl = map_design(&design, &lib, &MapOptions::default()).unwrap();
        let cfg = SimConfig {
            samples_per_cycle: 40,
            ..Default::default()
        };
        let plan = AnalysisPlan {
            n_keys: 64,
            correct_key: 46,
            step: Some(10),
            dpa: true,
            cpa: true,
        };
        for backend in [SimBackend::Event, SimBackend::Bitslice] {
            let target = DesTarget {
                netlist: &nl,
                lib: &lib,
                parasitics: None,
                wddl_inputs: None,
                glitch_free: false,
                backend,
            };
            let program = CampaignProgram::build(&target, &cfg).unwrap();
            let set =
                collect_des_traces_with(&program, &target, &cfg, 46, 90, 7).unwrap();
            let batch = analyze_trace_set(&set, &plan).unwrap();
            for chunk in [17, 64, 1000] {
                let streamed = collect_des_analysis_streaming(
                    &program, &target, &cfg, 46, 90, 7, &plan, chunk, None,
                )
                .unwrap();
                assert_eq!(
                    analysis_bits(&streamed),
                    analysis_bits(&batch),
                    "backend {backend:?} chunk {chunk}"
                );
                assert_eq!(streamed, batch);
            }
        }
    }

    #[test]
    fn trace_store_replay_matches_fused_analysis() {
        let design = des_dpa_design();
        let lib = Library::lib180();
        let nl = map_design(&design, &lib, &MapOptions::default()).unwrap();
        let target = DesTarget {
            netlist: &nl,
            lib: &lib,
            parasitics: None,
            wddl_inputs: None,
            glitch_free: false,
            backend: SimBackend::Bitslice,
        };
        let cfg = SimConfig {
            samples_per_cycle: 30,
            ..Default::default()
        };
        let plan = AnalysisPlan {
            n_keys: 64,
            correct_key: 46,
            step: Some(20),
            dpa: true,
            cpa: false,
        };
        let program = CampaignProgram::build(&target, &cfg).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "secflow-harness-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fused = collect_des_analysis_streaming(
            &program, &target, &cfg, 46, 70, 3, &plan, 32, Some(&dir),
        )
        .unwrap();
        let store = TraceStore::open(&dir).unwrap();
        assert_eq!(store.n_traces(), 70);
        let replayed = analyze_trace_store(&store, &plan).unwrap();
        assert_eq!(replayed, fused);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
