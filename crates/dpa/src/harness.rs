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
//! measured: the kernel accounts charge for it alone. One generic
//! runner simulates a batch of windows on either lane width of the
//! event kernel (DESIGN.md §18): one window per batch on the event
//! backend, up to 64 on the bit-sliced one, with identical traces.
//!
//! The windowed campaign is the specification. It equals slicing one
//! continuous n-encryption run on netlists without coupling, and with
//! extracted parasitics only while the crosstalk window is closed: in
//! the leakage cycle a window drives the flush plaintext where a
//! continuous run drives the next one, and the input wires couple to
//! switching nets (`tests/window_vs_full.rs`, DESIGN.md §7).
//!
//! One campaign loop serves every consumer: it draws the plaintexts,
//! groups the lane batches into blocks of about `chunk` encryptions,
//! simulates each block in one parallel region, and hands the blocks
//! to a consumer in encryption order.
//!
//! * [`collect_des_traces_with`] takes the whole campaign as one
//!   block, a [`TraceSet`] of O(traces × points) memory.
//! * [`collect_des_analysis_streaming`] feeds each block to the
//!   one-pass accumulators of [`crate::streaming`] (and optionally a
//!   [`crate::store`]) and drops it before the next one; memory is
//!   O(chunk × points + points × classes) plus the campaign's
//!   plaintexts, drawn up front at 2 bytes per trace.
//!
//! [`analyze_trace_set`] and [`analyze_trace_store`] feed the same
//! accumulators an existing set as one block, or a store chunk by
//! chunk. The accumulators' statistics are a pure function of the
//! traces in input order, whatever the blocks, so every path returns
//! the same [`CampaignAnalysis`] bit for bit.

use std::path::Path;

use secflow_rand::{split_seed, RngExt, SeedableRng, StdRng};

use secflow_cells::Library;
use secflow_crypto::dpa_module::{encrypt, selection};
use secflow_exec::par_map_range_with;
use secflow_extract::Parasitics;
use secflow_netlist::Netlist;
use secflow_obs as obs;
use secflow_sim::{
    add_gaussian_noise, BitSim, CompiledSim, CycleDriver, LaneScratch, LaneSim, LaneWord,
    LoadModel, SimBackend, SimConfig, SimError,
};

use crate::attack::{DpaResult, MtdScan};
use crate::cpa::{sbox_hamming_model, CpaMtdPoint, CpaResult};
use crate::error::{AnalysisError, CampaignError};
use crate::store::{StoreWriter, TraceStore};
use crate::streaming::{check_correct_key, CpaStream, DpaStream};

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
    /// How the kernel drives the netlist each cycle:
    /// [`CycleDriver::SingleEnded`] for a regular implementation,
    /// [`CycleDriver::Wddl`] over the input rail pairs in original port
    /// order (`pl[0..4]`, `pr[0..6]`, `k[0..6]`) for a WDDL one, and
    /// [`CycleDriver::GlitchFree`] for the glitch-contribution ablation
    /// on a regular one.
    pub driver: CycleDriver<'a>,
    /// Which lane width of the event kernel runs the campaign windows.
    /// Both produce byte-identical traces; `Bitslice` batches 64
    /// windows per lane word (see `tests/bitslice_cross_check.rs`).
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
    /// The one-lane kernel (one window per batch).
    Event(CompiledSim),
    /// The 64-lane kernel (up to 64 windows per batch).
    Bitslice(BitSim),
}

impl CampaignProgram {
    /// Compiles `target` for campaign simulation. Windows are
    /// simulated noise-free (measurement noise is applied per trace
    /// from its own stream), so the program is built against a
    /// zero-noise copy of `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the target netlist is cyclic, or it
    /// references cells missing from its library.
    pub fn build(target: &DesTarget<'_>, cfg: &SimConfig) -> Result<CampaignProgram, SimError> {
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

    /// The campaign's lane batches for `n` encryptions at this
    /// program's lane width; see [`lane_batches`].
    fn batches(&self, n: usize) -> Vec<(usize, usize)> {
        match self {
            CampaignProgram::Event(_) => lane_batches(n, bool::LANES),
            CampaignProgram::Bitslice(_) => lane_batches(n, u64::LANES),
        }
    }

    /// Simulates `batches` in one parallel region, one worker scratch
    /// per thread; the traces in encryption order, or the mismatch of
    /// the lowest failing encryption.
    fn run_batches(
        &self,
        campaign: &Campaign<'_>,
        batches: &[(usize, usize)],
    ) -> Result<TraceSet, SimError> {
        match self {
            CampaignProgram::Event(sim) => run_batches(sim, campaign, batches),
            CampaignProgram::Bitslice(sim) => run_batches(sim, campaign, batches),
        }
    }
}

/// Collected measurement campaign, or one block of it: the unit the
/// campaign loop hands its consumers and the trace store writes and
/// replays.
#[derive(Debug, Clone, PartialEq, Default)]
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
/// cells missing from its library, and
/// [`SimError::CiphertextMismatch`] for the lowest encryption whose
/// simulated ciphertext disagrees with the model (a clock or
/// precharge phase the implementation cannot meet, or a substitution
/// or simulation bug).
///
/// # Panics
///
/// Panics if `key >= 64` (caller contract).
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
/// Returns [`SimError::CiphertextMismatch`] as [`collect_des_traces`]
/// does.
///
/// # Panics
///
/// Panics if `key >= 64` (caller contract).
pub fn collect_des_traces_with(
    program: &CampaignProgram,
    target: &DesTarget<'_>,
    cfg: &SimConfig,
    key: u8,
    n: usize,
    seed: u64,
) -> Result<TraceSet, SimError> {
    let campaign = Campaign::new(program, target, cfg, key, n, seed);
    let _campaign = obs::span("dpa.campaign");
    let mut set = TraceSet {
        samples_per_trace: cfg.samples_per_cycle,
        ..TraceSet::default()
    };
    // One block: every batch runs in one parallel region.
    campaign.run(usize::MAX, |block| {
        set = block;
        Ok::<(), SimError>(())
    })?;
    Ok(set)
}

/// One campaign: what every window shares, and the loop that
/// simulates them.
struct Campaign<'a> {
    program: &'a CampaignProgram,
    target: &'a DesTarget<'a>,
    cfg: &'a SimConfig,
    key: u8,
    plaintexts: Vec<(u8, u8)>,
}

impl<'a> Campaign<'a> {
    /// Draws the plaintexts.
    fn new(
        program: &'a CampaignProgram,
        target: &'a DesTarget<'a>,
        cfg: &'a SimConfig,
        key: u8,
        n: usize,
        seed: u64,
    ) -> Self {
        assert!(key < 64);
        // Plaintexts are drawn sequentially up front — cheap, and it
        // keeps the campaign identical to the serial harness for a
        // given seed. Only the per-encryption simulation is parallel.
        Campaign {
            program,
            target,
            cfg,
            key,
            plaintexts: draw_plaintexts(n, seed),
        }
    }

    /// Simulates the campaign in blocks of about `chunk` encryptions,
    /// one parallel region per block, and hands the blocks to
    /// `consume` in encryption order. A ciphertext mismatch ends the
    /// campaign in the block that holds it, so the error names the
    /// lowest failing encryption at any thread count.
    fn run<E: From<SimError>>(
        &self,
        chunk: usize,
        mut consume: impl FnMut(TraceSet) -> Result<(), E>,
    ) -> Result<(), E> {
        // Group consecutive lane batches until ~chunk encryptions; the
        // grouping is a pure function of (n, chunk), so blocks — and
        // everything folded from them — are identical at any thread
        // count.
        let batches = self.program.batches(self.plaintexts.len());
        let mut bi = 0usize;
        while bi < batches.len() {
            let mut end = bi;
            let mut lanes = 0usize;
            while end < batches.len() && (lanes == 0 || lanes + batches[end].1 <= chunk) {
                lanes += batches[end].1;
                end += 1;
            }
            let block = self.program.run_batches(self, &batches[bi..end])?;
            obs::add(obs::Counter::DpaTraces, lanes as u64);
            consume(block)?;
            bi = end;
        }
        Ok(())
    }
}

/// The campaign's batch partition at `lanes` windows per batch:
/// encryptions 0 (3-cycle window) and 1 (4 cycles) run alone against
/// the reset boundary; the steady state (5 cycles) packs up to `lanes`
/// encryptions per batch. A pure function of `(n, lanes)`, so
/// batch-level obs counters — and any chunk-of-batches grouping built
/// on top — are thread-count invariant.
fn lane_batches(n: usize, lanes: usize) -> Vec<(usize, usize)> {
    let mut batches: Vec<(usize, usize)> = Vec::new();
    let mut at = 0usize;
    while at < n {
        let count = if at < 2 { 1 } else { (n - at).min(lanes) };
        batches.push((at, count));
        at += count;
    }
    batches
}

fn run_batches<W: LaneWord>(
    sim: &LaneSim<W>,
    campaign: &Campaign<'_>,
    batches: &[(usize, usize)],
) -> Result<TraceSet, SimError> {
    // Each pool worker keeps one scratch, reset per batch, so the
    // steady-state campaign allocates nothing in the simulator.
    let per_batch = par_map_range_with(batches.len(), LaneScratch::new, |scratch, bi| {
        run_batch(sim, scratch, campaign, batches[bi])
    });
    let mut set = TraceSet {
        samples_per_trace: campaign.cfg.samples_per_cycle,
        ..TraceSet::default()
    };
    // Batches are in encryption order, so the first error is the
    // lowest failing encryption's.
    for batch in per_batch {
        for (trace, ct, energy) in batch? {
            set.traces.push(trace);
            set.ciphertexts.push(ct);
            set.energies.push(energy);
        }
    }
    Ok(set)
}

/// One encryption's leak-cycle trace, ciphertext `(CL, CR)` and energy.
type Measured = (Vec<f64>, (u8, u8), f64);

/// Simulates one lane batch — encryptions `start..start + count`, all
/// sharing a window length, one per lane — measuring its leakage cycle
/// only, and unpacks the per-lane results in encryption order.
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
/// trace either way. A lane whose ciphertext disagrees with the model
/// fails the batch with the lowest such encryption.
fn run_batch<W: LaneWord>(
    sim: &LaneSim<W>,
    scratch: &mut LaneScratch<W>,
    campaign: &Campaign<'_>,
    (start, count): (usize, usize),
) -> Result<Vec<Measured>, SimError> {
    let Campaign {
        target,
        cfg,
        key,
        ref plaintexts,
        ..
    } = *campaign;
    let h = start.min(2);
    let active = W::first(count);
    // One word per input per cycle, lane l holding encryption
    // start + l, in port order pl[0..4], pr[0..6], k[0..6]. The two
    // flush cycles drive plaintext zero; the key is held throughout.
    let mut vectors: Vec<Vec<W>> = Vec::with_capacity(h + 3);
    for j in 0..h + 3 {
        let mut words = vec![W::ZERO; 16];
        for l in (0..count).filter(|_| j <= h) {
            let (pl, pr) = plaintexts[start + l - h + j];
            let bits = u32::from(pl) | u32::from(pr) << 4;
            for (b, w) in words[..10].iter_mut().enumerate() {
                if bits >> b & 1 == 1 {
                    *w = w.with(l);
                }
            }
        }
        for b in (0..6).filter(|b| key >> b & 1 == 1) {
            words[10 + b] = active;
        }
        vectors.push(words);
    }

    // Plaintext i is captured by PL/PR at the end of window cycle h;
    // the S-box evaluates and the ciphertext registers capture during
    // cycle h+1 (the leakage cycle, the only one measured); the new
    // CL/CR values drive the outputs during cycle h+2.
    let leak_cycle = h + 1;
    sim.run(
        scratch,
        target.driver,
        &vectors,
        active,
        leak_cycle..=leak_cycle,
    );

    // Kernel counters: pure functions of the compiled design and this
    // batch's stimuli, so campaign sums are thread-count invariant
    // (pinned by tests/obs_counters.rs).
    if obs::enabled() {
        use obs::{Counter as C, Gauge as G};
        let (batches, events, evals, rises, peak) = match W::BACKEND {
            SimBackend::Event => (
                C::SimWindows,
                C::SimEvents,
                C::SimEvals,
                C::SimRises,
                G::SimWheelPeak,
            ),
            SimBackend::Bitslice => {
                obs::add(C::SimBitsliceLanes, count as u64);
                (
                    C::SimBitsliceBatches,
                    C::SimBitsliceEvents,
                    C::SimBitsliceEvals,
                    C::SimBitsliceRises,
                    G::SimBitsliceWheelPeak,
                )
            }
        };
        obs::add(batches, 1);
        obs::add(events, scratch.events_processed());
        obs::add(evals, scratch.gate_evals());
        obs::add(rises, scratch.total_rises());
        obs::gauge_max(peak, scratch.wheel_peak());
    }

    // WDDL output rails are interleaved (t, f).
    let stride = if matches!(target.driver, CycleDriver::Wddl(_)) {
        2
    } else {
        1
    };
    (0..count)
        .map(|l| {
            let i = start + l;
            let bit = |j: usize| u8::from(scratch.output_bit(leak_cycle + 1, stride * j, l));
            let ct = (
                (0..4).fold(0u8, |a, j| a | bit(j) << j),
                (0..6).fold(0u8, |a, j| a | bit(4 + j) << j),
            );
            let (pl, pr) = plaintexts[i];
            let expected = encrypt(pl, pr, key);
            if ct != expected {
                return Err(SimError::CiphertextMismatch {
                    encryption: i,
                    simulated: ct,
                    expected,
                });
            }
            let mut trace = scratch.lane_cycle_trace(leak_cycle, l);
            if cfg.noise_sigma > 0.0 {
                let seed = split_seed(cfg.noise_seed, i as u64);
                add_gaussian_noise(&mut trace, cfg.noise_sigma, seed);
            }
            Ok((trace, ct, scratch.lane_energy_fj(leak_cycle, l)))
        })
        .collect()
}

/// Which attack statistics a campaign analysis should produce.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisPlan {
    /// Key guesses to evaluate (the Fig. 4 module: 64).
    pub n_keys: usize,
    /// The campaign's actual key, for MTD disclosure. A plan that runs
    /// an attack must have it below `n_keys`.
    pub correct_key: u8,
    /// MTD checkpoint step; `None` skips the MTD scans.
    pub step: Option<usize>,
    /// Run the single-bit DPA.
    pub dpa: bool,
    /// Run the Hamming-weight CPA.
    pub cpa: bool,
}

impl AnalysisPlan {
    /// Checks the key-guess space and the correct key of a plan that
    /// runs an attack, so that a bad plan fails before any work.
    fn check(&self) -> Result<(), AnalysisError> {
        if self.dpa || self.cpa {
            check_correct_key(self.n_keys, self.correct_key)?;
        }
        Ok(())
    }
}

/// Attack statistics of one campaign, produced identically by every
/// consumer of its traces: [`analyze_trace_set`],
/// [`collect_des_analysis_streaming`] and [`analyze_trace_store`].
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

/// Runs the planned attacks over a materialized trace set: the
/// streaming accumulators fed the whole set as one block.
///
/// # Errors
///
/// The typed input errors of the accumulators; a plan whose
/// `correct_key` is not below `n_keys` fails before any attack runs.
pub fn analyze_trace_set(
    set: &TraceSet,
    plan: &AnalysisPlan,
) -> Result<CampaignAnalysis, AnalysisError> {
    plan.check()?;
    let mut sinks = StreamSinks::build(plan)?;
    sinks.consume(set)?;
    Ok(sinks.finish(plan, set.traces.len(), set.samples_per_trace))
}

/// Running accumulators of a campaign analysis, fed one block of
/// traces at a time.
struct StreamSinks {
    dpa: Option<DpaStream>,
    cpa: Option<CpaStream>,
    energy_sum: f64,
}

impl StreamSinks {
    fn build(plan: &AnalysisPlan) -> Result<Self, AnalysisError> {
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
        })
    }

    fn consume(&mut self, block: &TraceSet) -> Result<(), AnalysisError> {
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
        Ok(())
    }

    fn finish(
        mut self,
        plan: &AnalysisPlan,
        n: usize,
        samples_per_trace: usize,
    ) -> CampaignAnalysis {
        CampaignAnalysis {
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
        }
    }
}

/// Runs the campaign and the planned attacks in one fused pass:
/// windows are simulated in chunks of ~`chunk` encryptions (parallel
/// across the chunk), each chunk's traces flow straight into the
/// streaming accumulators, and the chunk is dropped before the next
/// one is simulated. Peak memory is O(chunk × points) for the block
/// in flight plus O(points × classes) of accumulator state plus the
/// plaintexts, drawn up front at 2 bytes per trace — the full trace
/// matrix never exists.
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
/// [`CampaignError`] on simulation (a ciphertext mismatch included,
/// as in [`collect_des_traces`]), analysis-input, or store failures;
/// a plan whose `correct_key` is not below `n_keys` fails before any
/// simulation or store write.
///
/// # Panics
///
/// Panics if `key >= 64` (caller contract).
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
    plan.check()?;
    let campaign = Campaign::new(program, target, cfg, key, n, seed);
    let _campaign = obs::span("dpa.campaign.stream");
    let mut sinks = StreamSinks::build(plan)?;
    let mut writer = match store_dir {
        Some(dir) => Some(StoreWriter::create(dir, cfg.samples_per_cycle)?),
        None => None,
    };
    campaign.run(chunk, |block| {
        sinks.consume(&block)?;
        if let Some(w) = writer.as_mut() {
            w.append_block(&block)?;
        }
        Ok::<(), CampaignError>(())
    })?;
    if let Some(w) = writer {
        w.finish()?;
    }
    Ok(sinks.finish(plan, n, cfg.samples_per_cycle))
}

/// Replays a committed trace store through the streaming accumulators
/// — re-attacking a recorded campaign without re-simulating, holding
/// one chunk in memory at a time.
///
/// # Errors
///
/// [`CampaignError`] on store or analysis-input failures; a plan whose
/// `correct_key` is not below `n_keys` fails before any chunk is read.
pub fn analyze_trace_store(
    store: &TraceStore,
    plan: &AnalysisPlan,
) -> Result<CampaignAnalysis, CampaignError> {
    plan.check()?;
    let _span = obs::span("dpa.campaign.replay");
    let mut sinks = StreamSinks::build(plan)?;
    for block in store.blocks() {
        let block = block?;
        sinks.consume(&block)?;
        obs::add(obs::Counter::DpaTraces, block.traces.len() as u64);
    }
    Ok(sinks.finish(plan, store.n_traces(), store.samples_per_trace()))
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
            driver: CycleDriver::SingleEnded,
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
            driver: CycleDriver::SingleEnded,
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
                driver: CycleDriver::SingleEnded,
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
            driver: CycleDriver::SingleEnded,
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

    #[test]
    fn plans_with_a_correct_key_outside_the_guesses_fail_before_any_work() {
        let design = des_dpa_design();
        let lib = Library::lib180();
        let nl = map_design(&design, &lib, &MapOptions::default()).unwrap();
        let target = DesTarget {
            netlist: &nl,
            lib: &lib,
            parasitics: None,
            driver: CycleDriver::SingleEnded,
            backend: SimBackend::Bitslice,
        };
        let cfg = SimConfig {
            samples_per_cycle: 20,
            ..Default::default()
        };
        let good = AnalysisPlan {
            n_keys: 64,
            correct_key: 46,
            step: Some(10),
            dpa: true,
            cpa: true,
        };
        let bad = AnalysisPlan { n_keys: 16, ..good };
        let out_of_range = AnalysisError::CorrectKeyOutOfRange {
            correct_key: 46,
            n_keys: 16,
        };
        let program = CampaignProgram::build(&target, &cfg).unwrap();
        let set = collect_des_traces_with(&program, &target, &cfg, 46, 30, 5).unwrap();
        assert_eq!(
            analyze_trace_set(&set, &bad).err(),
            Some(out_of_range.clone())
        );

        let dir =
            std::env::temp_dir().join(format!("secflow-harness-bad-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = |plan: &AnalysisPlan| {
            collect_des_analysis_streaming(&program, &target, &cfg, 46, 30, 5, plan, 16, Some(&dir))
        };
        let err = campaign(&bad).unwrap_err();
        assert!(matches!(err, CampaignError::Analysis(ref e) if *e == out_of_range));
        assert!(!dir.exists(), "no store is written for a bad plan");

        campaign(&good).unwrap();
        let store = TraceStore::open(&dir).unwrap();
        let err = analyze_trace_store(&store, &bad).unwrap_err();
        assert!(matches!(err, CampaignError::Analysis(ref e) if *e == out_of_range));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A clock too short for the DES datapath to settle makes some
    /// encryptions capture a wrong ciphertext. The campaign fails with
    /// the lowest of them, the same error at every thread count, on
    /// both backends and on the streaming path, and every encryption
    /// before it simulates correctly.
    #[test]
    fn a_ciphertext_mismatch_names_the_lowest_failing_encryption() {
        let design = des_dpa_design();
        let lib = Library::lib180();
        let nl = map_design(&design, &lib, &MapOptions::default()).unwrap();
        let cfg = SimConfig {
            period_ps: 1000,
            samples_per_cycle: 20,
            ..Default::default()
        };
        let plan = AnalysisPlan {
            n_keys: 64,
            correct_key: 46,
            step: None,
            dpa: true,
            cpa: false,
        };
        let mut seen = Vec::new();
        for backend in [SimBackend::Event, SimBackend::Bitslice] {
            let target = DesTarget {
                netlist: &nl,
                lib: &lib,
                parasitics: None,
                driver: CycleDriver::SingleEnded,
                backend,
            };
            let program = CampaignProgram::build(&target, &cfg).unwrap();
            for threads in [1, 2, 8] {
                let (batch, streamed) = secflow_exec::with_threads(threads, || {
                    (
                        collect_des_traces_with(&program, &target, &cfg, 46, 200, 7).unwrap_err(),
                        collect_des_analysis_streaming(
                            &program, &target, &cfg, 46, 200, 7, &plan, 17, None,
                        )
                        .unwrap_err(),
                    )
                });
                assert!(
                    matches!(streamed, CampaignError::Sim(ref e) if *e == batch),
                    "{streamed:?} vs {batch:?}"
                );
                seen.push(batch);
            }
            let SimError::CiphertextMismatch {
                encryption,
                simulated,
                expected,
            } = seen[0]
            else {
                panic!("not a ciphertext mismatch: {:?}", seen[0]);
            };
            assert!(encryption > 2, "the first failure is past the reset batches");
            assert_ne!(simulated, expected);
            let prefix =
                collect_des_traces_with(&program, &target, &cfg, 46, encryption, 7).unwrap();
            assert_eq!(prefix.ciphertexts.len(), encryption);
        }
        assert!(seen.iter().all(|e| *e == seen[0]), "{seen:?}");
    }
}
