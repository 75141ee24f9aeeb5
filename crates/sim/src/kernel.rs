//! The event kernel: one lane-masked timing-wheel loop, generic over
//! its lane word.
//!
//! A [`LaneWord`] holds one net's value in `LANES` independent windows:
//! `bool` (one window, [`crate::CompiledSim`]) or `u64` (a batch of 64,
//! [`crate::BitSim`]). Every event carries a lane `mask`, the lanes in
//! which its net changes to the event's per-lane values. WDDL's
//! always-evaluate property (Tiri & Verbauwhede '04) makes the lanes of
//! a campaign batch track each other, so one 64-lane event typically
//! stands in for many one-lane events.
//!
//! Events live on a circular timing wheel: slots are indexed by
//! `time mod wheel_size` and drain FIFO, buckets hold indices into the
//! window's event pool, and cancellation edits pooled masks in place.
//! The wheel is sized past the maximum scheduling span and gate delays
//! are at least 1 ps, so a bucket's FIFO order is event-creation order
//! and nothing is scheduled into the bucket being drained.
//!
//! # Exactness across widths
//!
//! Project any masked execution onto one lane `l`: injections are issued
//! in the same order at every width; an event's creation position is
//! shared by every lane in its mask; buckets drain in creation order;
//! and a gate evaluation acts on exactly the lanes whose inputs just
//! changed (in a quiescent lane the evaluated value equals the effective
//! value, so the act mask excludes it). By induction over event
//! positions, lane `l` of a batch sees precisely the one-lane run's
//! event sequence, so its private `f64` accumulations (energy, trace
//! bins, crosstalk charge) run in the same order and give the same
//! bits. Lanes outside every injection mask (dead lanes of a ragged
//! batch) never flip a net and contribute nothing.
//!
//! Rises outside the measured cycles that deposit nothing there are only
//! counted, and last-transition times are kept only where a measured
//! charge can read them (DESIGN.md §15). Settled unmeasured cycles skip
//! the event loop (DESIGN.md §16).

use std::ops::{BitAnd, BitOr, BitXor, Not, Range, RangeBounds};

use secflow_cells::TruthTable;
use secflow_netlist::{GateId, NetId};

use crate::bitslice::SimBackend;
use crate::compiled::{measured_cycles, CellKind, LaneSim};

/// One net's value in `LANES` independent windows. Implemented by
/// `bool` (one window) and `u64` (64 windows, bit `l` is lane `l`).
pub trait LaneWord:
    Copy
    + Eq
    + Default
    + Send
    + Sync
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
{
    /// Windows per word.
    const LANES: usize;
    /// The campaign backend this width implements.
    const BACKEND: SimBackend;
    /// No lane set.
    const ZERO: Self;
    /// Every lane of combinational gate `g` (truth table `tt`) under
    /// the net values `vals`.
    fn eval(sim: &LaneSim<Self>, g: usize, tt: TruthTable, vals: &[Self]) -> Self;
    /// The word whose first `n` lanes are set.
    fn first(n: usize) -> Self;
    /// `self` with lane `l` set.
    fn with(self, l: usize) -> Self;
    /// Lane `l` of `self`.
    fn bit(self, l: usize) -> bool;
    /// Number of set lanes.
    fn count(self) -> u64;
    /// The set lanes, ascending.
    fn lanes(self) -> impl Iterator<Item = usize>;
}

/// One window: the gate's truth table is indexed by its packed inputs.
impl LaneWord for bool {
    const LANES: usize = 1;
    const BACKEND: SimBackend = SimBackend::Event;
    const ZERO: bool = false;

    #[inline]
    fn eval(sim: &LaneSim<bool>, g: usize, tt: TruthTable, vals: &[bool]) -> bool {
        let ins = &sim.in_nets[sim.in_offsets[g] as usize..sim.in_offsets[g + 1] as usize];
        let mut idx = 0u32;
        for (i, &inp) in ins.iter().enumerate() {
            idx |= u32::from(vals[inp.index()]) << i;
        }
        tt.eval(idx)
    }
    fn first(n: usize) -> bool {
        n > 0
    }
    fn with(self, _l: usize) -> bool {
        true
    }
    #[inline]
    fn bit(self, _l: usize) -> bool {
        self
    }
    fn count(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn lanes(self) -> impl Iterator<Item = usize> {
        self.then_some(0).into_iter()
    }
}

/// 64 windows: every gate evaluates all lanes at once from its
/// irredundant sum-of-products word program (branch-free).
impl LaneWord for u64 {
    const LANES: usize = 64;
    const BACKEND: SimBackend = SimBackend::Bitslice;
    const ZERO: u64 = 0;

    #[inline]
    fn eval(sim: &LaneSim<u64>, g: usize, _tt: TruthTable, vals: &[u64]) -> u64 {
        let ins = &sim.in_nets[sim.in_offsets[g] as usize..sim.in_offsets[g + 1] as usize];
        let mut words = [0u64; 8];
        for (i, &inp) in ins.iter().enumerate() {
            words[i] = vals[inp.index()];
        }
        let cubes = &sim.cubes[sim.cube_offsets[g] as usize..sim.cube_offsets[g + 1] as usize];
        let mut out = 0u64;
        for &(p, n) in cubes {
            let mut term = !0u64;
            let mut pm = p;
            while pm != 0 {
                term &= words[pm.trailing_zeros() as usize];
                pm &= pm - 1;
            }
            let mut nm = n;
            while nm != 0 {
                term &= !words[nm.trailing_zeros() as usize];
                nm &= nm - 1;
            }
            out |= term;
        }
        out
    }
    fn first(n: usize) -> u64 {
        u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
    }
    fn with(self, l: usize) -> u64 {
        self | 1 << l
    }
    #[inline]
    fn bit(self, l: usize) -> bool {
        self >> l & 1 == 1
    }
    fn count(self) -> u64 {
        u64::from(self.count_ones())
    }
    #[inline]
    fn lanes(self) -> impl Iterator<Item = usize> {
        SetLanes(self)
    }
}

/// The set bits of a word, ascending.
struct SetLanes(u64);

impl Iterator for SetLanes {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let l = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(l)
    }
}

/// How a run drives the netlist each clock cycle.
#[derive(Debug, Clone, Copy)]
pub enum CycleDriver<'a> {
    /// Single-ended CMOS: per cycle, inject register outputs and
    /// primary inputs, run the event loop to the clock edge, capture.
    SingleEnded,
    /// The WDDL two-phase protocol over these `(true, false)` input
    /// rail pairs: precharge every pair to `(0, 0)`, evaluate to
    /// `(v, ¬v)`, capture at the edge and count `(0, 0)` register
    /// inputs as DFA alarms.
    Wddl(&'a [(NetId, NetId)]),
    /// The idealized glitch-free power model: each cycle settles
    /// zero-delay and every net that rose draws `C·Vdd` once, deposited
    /// uniformly over the first quarter of the cycle.
    GlitchFree,
}

/// One lane-masked event: net `net` changes to the per-lane values in
/// `vals` for every lane set in `mask`. `gate == INJECT` marks a driver
/// injection; otherwise the scheduling gate, whose pending bookkeeping
/// the event clears when it fires.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event<W> {
    net: u32,
    gate: u32,
    mask: W,
    vals: W,
}

const INJECT: u32 = u32::MAX;
/// An empty pending-event slot.
const NONE: u32 = u32::MAX;

/// The reusable mutable half of the kernel: every array the event loop
/// and the cycle drivers write, per-lane storage sized by `W::LANES`.
/// One scratch per worker thread; every run resets it to the exact
/// initial state without releasing capacity, so steady-state runs
/// allocate nothing.
#[derive(Debug, Default)]
pub struct LaneScratch<W: LaneWord> {
    // --- event-loop state ---
    /// Current lane values per net.
    vals: Vec<W>,
    /// Per gate: lanes with a pending output event.
    pend_mask: Vec<W>,
    /// Per gate: the pending value per lane (valid under `pend_mask`).
    pend_val: Vec<W>,
    /// Per gate, at one lane: the pool index of the gate's only live
    /// pending event, or `NONE`.
    pend_slot: Vec<u32>,
    /// Per gate, at more lanes: pool indices of the live pending events
    /// (disjoint masks).
    pend_events: Vec<Vec<u32>>,
    /// The window's events; wheel buckets hold their indices.
    pool: Vec<Event<W>>,
    wheel: Vec<Vec<u32>>,
    /// One bit per wheel slot: bucket non-empty.
    occupancy: Vec<u64>,
    wheel_mask: u64,
    /// All events strictly before `cursor` have been processed.
    cursor: u64,
    /// End of the window: events at or beyond it can never be
    /// processed, so pushes drop them.
    horizon: u64,
    // --- per-lane last transitions (allocated only under crosstalk),
    // kept for events in `lt_from..lt_to` ---
    lt_from: u64,
    lt_to: u64,
    /// `n_nets × LANES` transition times.
    lt_time: Vec<u64>,
    /// Per net: lanes with a recorded transition.
    lt_present: Vec<W>,
    /// Per net: last transition value per lane.
    lt_val: Vec<W>,
    /// Per net, at more lanes: the newest recorded transition in any
    /// lane, so a coupling whose every lane is outside the crosstalk
    /// window is skipped with one compare.
    lt_newest: Vec<u64>,
    // --- measured cycles ---
    pub(crate) measured: Range<usize>,
    /// Their sample bins, `measured × samples_per_cycle`.
    pub(crate) bins: Range<usize>,
    /// The cycle being simulated is measured.
    measuring: bool,
    // --- per-lane accumulators ---
    /// Running cycle energy (fJ) per lane.
    energy_fj: Vec<f64>,
    /// Running cycle rise count per lane.
    rises: Vec<u64>,
    /// Crosstalk-adjusted charge of the rise being recorded, per lane.
    charge: Vec<f64>,
    /// Supply trace of the measured cycles, charge (fC) per sample bin:
    /// `[(bin − bins.start)·LANES + lane]`.
    pub(crate) trace: Vec<f64>,
    /// `[cycle·LANES + lane]` energies (0 outside the measured cycles).
    pub(crate) cycle_energy: Vec<f64>,
    /// `[cycle·LANES + lane]` rise counts. At one lane every simulated
    /// cycle's; at more lanes the measured cycles' only, the rest summed
    /// in `unmeasured_rises`.
    pub(crate) cycle_rises: Vec<u64>,
    unmeasured_rises: u64,
    /// Primary-output lane words, `n_cycles × n_outputs`, flattened.
    pub(crate) outputs: Vec<W>,
    /// `[cycle·LANES + lane]` WDDL DFA alarm counts (WDDL runs only).
    pub(crate) wddl_alarms: Vec<usize>,
    /// Net transitions `(time, net, value)` of a one-lane run under
    /// [`crate::SimConfig::record_waveform`].
    pub(crate) waveform: Vec<(u64, NetId, bool)>,
    // --- cycle-driver state ---
    reg_state: Vec<W>,
    reg_t: Vec<W>,
    reg_f: Vec<W>,
    /// Previous-cycle values (glitch-free model only).
    prev_vals: Vec<W>,
    // --- geometry of the last run ---
    pub(crate) samples_per_cycle: usize,
    pub(crate) n_outputs: usize,
    // --- work counters of the last run: deterministic functions of
    // (design, stimuli), so campaign sums are thread-count invariant ---
    events_processed: u64,
    gate_evals: u64,
    wheel_pending: u64,
    wheel_peak: u64,
}

/// Clears `v` and refills it with `n` copies of `x`, keeping capacity.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

impl<W: LaneWord> LaneScratch<W> {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores the initial state for an `n_cycles`-cycle run of `sim`
    /// measuring `measured`, reusing every buffer's capacity.
    fn reset(&mut self, sim: &LaneSim<W>, n_cycles: usize, measured: Range<usize>) {
        let (lanes, spc, period) = (W::LANES, sim.cfg.samples_per_cycle, sim.cfg.period_ps);
        refill(&mut self.vals, sim.n_nets, W::ZERO);
        refill(&mut self.pend_mask, sim.n_gates, W::ZERO);
        refill(&mut self.pend_val, sim.n_gates, W::ZERO);
        if lanes == 1 {
            refill(&mut self.pend_slot, sim.n_gates, NONE);
        } else {
            self.pend_events.resize_with(sim.n_gates, Vec::new);
            self.pend_events.iter_mut().for_each(Vec::clear);
        }
        self.pool.clear();
        let w = sim.wheel_size as usize;
        if self.wheel.len() != w {
            self.wheel.clear();
            self.wheel.resize_with(w, Vec::new);
            refill(&mut self.occupancy, w / 64, 0);
        } else {
            // A completed run drains every bucket; this sweep only
            // finds leftovers after an aborted one.
            for (wi, word) in self.occupancy.iter_mut().enumerate() {
                for b in SetLanes(*word) {
                    self.wheel[wi * 64 + b].clear();
                }
                *word = 0;
            }
        }
        self.wheel_mask = sim.wheel_size - 1;
        self.cursor = 0;
        self.horizon = n_cycles as u64 * period;
        self.lt_from = (measured.start as u64 * period).saturating_sub(sim.lookback_ps);
        // Up to and including the last measured cycle's end: `t /
        // sample_ps` is inexact, so a rise at exactly that time can
        // round into its last bin. A rise 1 ps later cannot.
        self.lt_to = measured.end as u64 * period + 1;
        let lt = if sim.coup.is_empty() { 0 } else { sim.n_nets };
        // `lt_present` gates every read of `lt_time`, so stale times
        // from the last run need no clearing.
        self.lt_time.resize(lt * lanes, 0);
        refill(&mut self.lt_present, lt, W::ZERO);
        refill(&mut self.lt_val, lt, W::ZERO);
        refill(&mut self.lt_newest, if lanes == 1 { 0 } else { lt }, 0);
        self.bins = measured.start * spc..measured.end * spc;
        self.measuring = measured.contains(&0);
        self.measured = measured;
        refill(&mut self.energy_fj, lanes, 0.0);
        refill(&mut self.rises, lanes, 0);
        refill(&mut self.charge, lanes, 0.0);
        refill(&mut self.trace, self.bins.len() * lanes, 0.0);
        refill(&mut self.cycle_energy, n_cycles * lanes, 0.0);
        refill(&mut self.cycle_rises, n_cycles * lanes, 0);
        self.unmeasured_rises = 0;
        self.outputs.clear();
        self.wddl_alarms.clear();
        self.waveform.clear();
        refill(&mut self.reg_state, sim.se_regs.len(), W::ZERO);
        // Logical 0 as a valid WDDL code word: (t, f) = (0, 1).
        refill(&mut self.reg_t, sim.wddl_regs.len(), W::ZERO);
        refill(&mut self.reg_f, sim.wddl_regs.len(), !W::ZERO);
        self.samples_per_cycle = spc;
        self.n_outputs = sim.outputs.len();
        self.events_processed = 0;
        self.gate_evals = 0;
        self.wheel_pending = 0;
        self.wheel_peak = 0;
    }

    /// One lane's samples of one measured cycle of the last run.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` was not measured.
    pub fn lane_cycle_trace(&self, cycle: usize, lane: usize) -> Vec<f64> {
        let len = self.samples_per_cycle * W::LANES;
        let at = (cycle - self.measured.start) * len;
        if W::LANES == 1 {
            return self.trace[at..at + len].to_vec();
        }
        self.trace[at..at + len]
            .iter()
            .skip(lane)
            .step_by(W::LANES)
            .copied()
            .collect()
    }

    /// One lane's trace over the last run's measured cycles (the whole
    /// window when every cycle was measured).
    pub fn lane_trace(&self, lane: usize) -> Vec<f64> {
        self.trace
            .iter()
            .skip(lane)
            .step_by(W::LANES)
            .copied()
            .collect()
    }

    /// One lane's supply energy of one cycle, in fJ; 0 for cycles that
    /// were not measured.
    pub fn lane_energy_fj(&self, cycle: usize, lane: usize) -> f64 {
        self.cycle_energy[cycle * W::LANES + lane]
    }

    /// Rising transitions summed over every simulated cycle and live
    /// lane of the last run, measured or not — a deterministic function
    /// of (design, stimuli). Settled cycles the kernel did not
    /// event-simulate add nothing.
    pub fn total_rises(&self) -> u64 {
        self.cycle_rises.iter().sum::<u64>() + self.unmeasured_rises
    }

    /// Primary-output value `j` of `lane` at the end of `cycle`.
    pub fn output_bit(&self, cycle: usize, j: usize, lane: usize) -> bool {
        self.outputs[cycle * self.n_outputs + j].bit(lane)
    }

    /// Masked events drained in the last run (cancelled ones included).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Masked combinational gate evaluations in the last run.
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals
    }

    /// Peak simultaneous pending events on the timing wheel in the last
    /// run (queue-depth high-water mark).
    pub fn wheel_peak(&self) -> u64 {
        self.wheel_peak
    }
}

impl<W: LaneWord> LaneSim<W> {
    /// Simulates up to `W::LANES` windows at once under `driver`,
    /// accounting charge for the `measured` cycles (and event-simulating
    /// only them if the driver's cycles settle, DESIGN.md §16).
    /// `vectors` is one word per primary input (per input *pair* for
    /// WDDL) per cycle, lane `l` holding window `l`'s value; `active`
    /// masks the live lanes — dead lanes receive no injections and
    /// contribute nothing. Results are read back through the scratch.
    ///
    /// # Panics
    ///
    /// Panics if any cycle's word count differs from the input (pair)
    /// count.
    pub fn run(
        &self,
        scratch: &mut LaneScratch<W>,
        driver: CycleDriver<'_>,
        vectors: &[Vec<W>],
        active: W,
        measured: impl RangeBounds<usize>,
    ) {
        let cycles = measured_cycles(&measured, vectors.len());
        scratch.reset(self, vectors.len(), cycles);
        let mut e = Engine {
            sim: self,
            s: scratch,
        };
        match driver {
            CycleDriver::SingleEnded => e.drive_single_ended(vectors, active),
            CycleDriver::Wddl(pairs) => e.drive_wddl(pairs, vectors, active),
            CycleDriver::GlitchFree => e.drive_glitch_free(vectors, active),
        }
    }

    /// Zero-delay evaluation of the combinational portion in cached
    /// topological order: `vals` holds the source values on entry and
    /// every net's settled value on exit.
    fn eval_comb(&self, vals: &mut [W]) {
        for &gid in &self.topo {
            let g = gid.index();
            match self.cells[g] {
                CellKind::Comb { tt, .. } => {
                    let v = W::eval(self, g, tt, vals);
                    vals[self.out_net[g].index()] = v;
                }
                CellKind::Tie(v) => {
                    vals[self.out_net[g].index()] = if v { !W::ZERO } else { W::ZERO };
                }
                CellKind::Reg => {}
            }
        }
    }
}

/// The event loop: a thin mutable view pairing one [`LaneSim`] with one
/// [`LaneScratch`] for one run.
struct Engine<'a, W: LaneWord> {
    sim: &'a LaneSim<W>,
    s: &'a mut LaneScratch<W>,
}

impl<W: LaneWord> Engine<'_, W> {
    /// Marks the start of window cycle `c`: its rises are measured iff
    /// `c` is.
    fn begin_cycle(&mut self, c: usize) {
        self.s.measuring = self.s.measured.contains(&c);
    }

    /// Establishes a consistent state in every lane by zero-delay
    /// evaluation, without recording any power. Registers start at 0.
    fn settle(&mut self) {
        self.sim.eval_comb(&mut self.s.vals);
    }

    /// Completes a settled, unmeasured cycle ending at `t_end` without
    /// the event loop. The caller has set the cycle's sources in the
    /// live lanes; under the settle test (DESIGN.md §16) the event loop
    /// would end the cycle at their zero-delay fixed point with nothing
    /// pending, and no deposit or crosstalk it computes reaches another
    /// cycle.
    fn skip_to(&mut self, t_end: u64) {
        debug_assert_eq!(self.s.wheel_pending, 0, "events pending at a settled edge");
        self.settle();
        self.s.cursor = t_end;
    }

    /// Sets `net` to `w` in the `active` lanes.
    #[inline]
    fn set_lanes(&mut self, net: NetId, w: W, active: W) {
        let v = &mut self.s.vals[net.index()];
        *v = (*v & !active) | (w & active);
    }

    /// Schedules `ev` at `time`. Events at or beyond the horizon are
    /// dropped: the last `run_until` stops there.
    #[inline]
    fn push_event(&mut self, time: u64, ev: Event<W>) {
        if time >= self.s.horizon {
            return;
        }
        debug_assert!(
            time >= self.s.cursor && time - self.s.cursor <= self.s.wheel_mask,
            "event outside the wheel span"
        );
        let idx = self.s.pool.len() as u32;
        self.s.pool.push(ev);
        let slot = (time & self.s.wheel_mask) as usize;
        self.s.wheel[slot].push(idx);
        self.s.occupancy[slot >> 6] |= 1 << (slot & 63);
        self.s.wheel_pending += 1;
        self.s.wheel_peak = self.s.wheel_peak.max(self.s.wheel_pending);
        if ev.gate != INJECT {
            let g = ev.gate as usize;
            if W::LANES == 1 {
                self.s.pend_slot[g] = idx;
            } else {
                self.s.pend_events[g].push(idx);
            }
        }
    }

    /// Injects an externally driven change of `net` at `time`: per-lane
    /// values `vals` in the `mask` lanes.
    fn inject(&mut self, net: NetId, time: u64, vals: W, mask: W) {
        let ev = Event {
            net: net.index() as u32,
            gate: INJECT,
            mask,
            vals,
        };
        self.push_event(time, ev);
    }

    /// Processes all events strictly before `t_end`: the occupancy
    /// bitmap finds the next non-empty bucket, and buckets drain in
    /// creation (FIFO) order.
    fn run_until(&mut self, t_end: u64) {
        let mask = self.s.wheel_mask;
        let mut t = self.s.cursor;
        'scan: while t < t_end {
            let p = (t & mask) as usize;
            let mut word = self.s.occupancy[p >> 6] >> (p & 63);
            if word == 0 {
                // Skip to the next word boundary, then whole words.
                t += 64 - (t & 63);
                loop {
                    if t >= t_end {
                        break 'scan;
                    }
                    word = self.s.occupancy[(t & mask) as usize >> 6];
                    if word != 0 {
                        break;
                    }
                    t += 64;
                }
            }
            t += u64::from(word.trailing_zeros());
            if t >= t_end {
                break; // occupied, but the next cycle's work
            }
            // Every event in the bucket has time `t`, and processing
            // only schedules into later buckets, so taking the Vec out
            // is safe and keeps its capacity.
            let slot = (t & mask) as usize;
            self.s.occupancy[slot >> 6] &= !(1u64 << (slot & 63));
            let mut bucket = std::mem::take(&mut self.s.wheel[slot]);
            self.s.events_processed += bucket.len() as u64;
            self.s.wheel_pending -= bucket.len() as u64;
            for &idx in &bucket {
                self.process_event(t, idx);
            }
            bucket.clear();
            self.s.wheel[slot] = bucket;
            t += 1;
        }
        self.s.cursor = t_end;
    }

    fn process_event(&mut self, t: u64, idx: u32) {
        // Read at process time: earlier events in this bucket may have
        // cancelled lanes of this one.
        let ev = self.s.pool[idx as usize];
        if ev.gate != INJECT {
            // Eager cancellation already removed stale lanes from the
            // mask, so every remaining lane fires.
            let g = ev.gate as usize;
            self.s.pend_mask[g] = self.s.pend_mask[g] & !ev.mask;
            if W::LANES == 1 {
                if self.s.pend_slot[g] == idx {
                    self.s.pend_slot[g] = NONE;
                }
            } else {
                let list = &mut self.s.pend_events[g];
                if let Some(p) = list.iter().position(|&x| x == idx) {
                    list.swap_remove(p);
                }
            }
        }
        if ev.mask == W::ZERO {
            return; // fully cancelled
        }
        let net = ev.net as usize;
        // Last transitions are kept only when couplings exist.
        if !self.sim.coup.is_empty() && t >= self.s.lt_from && t < self.s.lt_to {
            // Every fired lane records a last transition, flip or not.
            // Outside `lt_from..lt_to` no measured charge reads it.
            for l in ev.mask.lanes() {
                self.s.lt_time[net * W::LANES + l] = t;
            }
            self.s.lt_present[net] = self.s.lt_present[net] | ev.mask;
            self.s.lt_val[net] = (self.s.lt_val[net] & !ev.mask) | (ev.vals & ev.mask);
            if W::LANES > 1 {
                self.s.lt_newest[net] = t;
            }
        }
        let cur = self.s.vals[net];
        let flip = ev.mask & (cur ^ ev.vals);
        if flip == W::ZERO {
            return;
        }
        self.s.vals[net] = (cur & !flip) | (ev.vals & flip);
        // Wider builds reject `record_waveform` (SimConfig::validate_backend).
        if W::LANES == 1 && self.sim.cfg.record_waveform {
            self.s.waveform.push((t, NetId(ev.net), ev.vals.bit(0)));
        }
        if !self.sim.exempt[net] {
            let rises = flip & ev.vals;
            if rises != W::ZERO {
                self.record_rise(net, t, rises);
            }
        }
        for &g in self.sim.fanout.fanout(NetId(ev.net)) {
            self.evaluate_gate(g, t);
        }
    }

    fn evaluate_gate(&mut self, gid: GateId, now: u64) {
        let g = gid.index();
        let CellKind::Comb { tt, delay_ps } = self.sim.cells[g] else {
            return; // registers are driven by the cycle driver
        };
        self.s.gate_evals += 1;
        let out = self.sim.out_net[g].index();
        let v = W::eval(self.sim, g, tt, &self.s.vals);
        let pm = self.s.pend_mask[g];
        // Per lane: the pending value if one exists, else the output.
        let eff = (self.s.pend_val[g] & pm) | (self.s.vals[out] & !pm);
        // Quiescent lanes satisfy v == eff, so `act` is confined to
        // lanes whose inputs just changed.
        let act = v ^ eff;
        if act == W::ZERO {
            return;
        }
        // Cancel pending opposite events (inertial filtering).
        let cancel = act & pm;
        if cancel != W::ZERO {
            self.s.pend_mask[g] = pm & !cancel;
            let LaneScratch {
                pend_slot,
                pend_events,
                pool,
                ..
            } = &mut *self.s;
            if W::LANES == 1 {
                // The one pending lane is cancelled, unless its event
                // fell past the horizon and never entered the pool.
                if let Some(e) = pool.get_mut(pend_slot[g] as usize) {
                    e.mask = W::ZERO;
                }
                pend_slot[g] = NONE;
            } else {
                pend_events[g].retain(|&idx| {
                    let e = &mut pool[idx as usize];
                    e.mask = e.mask & !cancel;
                    e.mask != W::ZERO
                });
            }
        }
        // Schedule lanes whose target differs from the current output.
        let sched = act & (v ^ self.s.vals[out]);
        if sched != W::ZERO {
            self.s.pend_mask[g] = self.s.pend_mask[g] | sched;
            self.s.pend_val[g] = (self.s.pend_val[g] & !sched) | (v & sched);
            // The pending flag stays set even when the event falls past
            // the horizon.
            let ev = Event {
                net: out as u32,
                gate: g as u32,
                mask: sched,
                vals: v,
            };
            self.push_event(now + delay_ps, ev);
        }
    }

    /// Counts rises outside the measured cycles: per lane at one lane,
    /// where every cycle's rises are reported, else with one popcount
    /// into the run's total.
    #[inline]
    fn count_unmeasured(&mut self, rises: W) {
        if W::LANES == 1 {
            self.s.rises[0] += 1;
        } else {
            self.s.unmeasured_rises += rises.count();
        }
    }

    /// Records rising transitions on `net` in every lane of `rises`, in
    /// ascending lane order (each lane's accumulators are private). Only
    /// rises in a measured cycle or depositing into one get charge work:
    /// the crosstalk adjustment against coupled neighbours that switched
    /// within the window, the energy, and deposits spread over the
    /// driver's RC time constant and clipped to the measured bins.
    fn record_rise(&mut self, net: usize, t: u64, rises: W) {
        let sim = self.sim;
        let vdd = sim.cfg.vdd;
        let nbins = sim.nbins[net] as usize;
        let first = (t as f64 / sim.sample_ps) as usize;
        let lo = first.max(self.s.bins.start);
        let hi = (first + nbins).min(self.s.bins.end);
        let measuring = self.s.measuring;
        if !measuring {
            self.count_unmeasured(rises);
            if lo >= hi {
                return;
            }
        }
        let s = &mut *self.s;
        let base = s.bins.start;
        let coups = sim.couplings(NetId(net as u32));
        if coups.is_empty() {
            let q = sim.q_base[net].max(0.0);
            let (e, per_bin) = (q * vdd, q / nbins as f64);
            for l in rises.lanes() {
                if measuring {
                    s.energy_fj[l] += e;
                    s.rises[l] += 1;
                }
                for b in lo..hi {
                    s.trace[(b - base) * W::LANES + l] += per_bin;
                }
            }
            return;
        }
        let win = sim.cfg.crosstalk_window_ps;
        for l in rises.lanes() {
            s.charge[l] = sim.q_base[net];
        }
        for &(other, cc) in coups {
            let o = other.index();
            if W::LANES > 1 && t.saturating_sub(s.lt_newest[o]) > win {
                continue; // no lane switched within the window
            }
            for l in (s.lt_present[o] & rises).lanes() {
                if t.saturating_sub(s.lt_time[o * W::LANES + l]) <= win {
                    if s.lt_val[o].bit(l) {
                        // Both rising: the coupling cap sees no swing.
                        s.charge[l] -= cc * vdd;
                    } else {
                        // Opposite transitions: Miller doubling.
                        s.charge[l] += cc * vdd;
                    }
                }
            }
        }
        for l in rises.lanes() {
            let q = s.charge[l].max(0.0);
            if measuring {
                s.energy_fj[l] += q * vdd;
                s.rises[l] += 1;
            }
            let per_bin = q / nbins as f64;
            for b in lo..hi {
                s.trace[(b - base) * W::LANES + l] += per_bin;
            }
        }
    }

    /// Moves the running per-lane energies and rise counts of cycle `c`
    /// into the per-cycle results and resets them.
    fn take_energy(&mut self, c: usize) {
        for l in 0..W::LANES {
            self.s.cycle_energy[c * W::LANES + l] = std::mem::take(&mut self.s.energy_fj[l]);
            self.s.cycle_rises[c * W::LANES + l] = std::mem::take(&mut self.s.rises[l]);
        }
    }

    fn capture_outputs(&mut self) {
        for &o in &self.sim.outputs {
            self.s.outputs.push(self.s.vals[o.index()]);
        }
    }

    fn drive_single_ended(&mut self, vectors: &[Vec<W>], active: W) {
        let sim = self.sim;
        let (period, clk2q, in_delay) =
            (sim.cfg.period_ps, sim.cfg.clk2q_ps, sim.cfg.input_delay_ps);
        self.settle();
        for (c, words) in vectors.iter().enumerate() {
            assert_eq!(words.len(), sim.inputs.len(), "bad vector length");
            self.begin_cycle(c);
            let t0 = c as u64 * period;
            if sim.settles_se && !self.s.measuring {
                for (i, &(_, q)) in sim.se_regs.iter().enumerate() {
                    self.set_lanes(q, self.s.reg_state[i], active);
                }
                for (&net, &w) in sim.inputs.iter().zip(words) {
                    self.set_lanes(net, w, active);
                }
                self.skip_to(t0 + period);
            } else {
                for (i, &(_, q)) in sim.se_regs.iter().enumerate() {
                    self.inject(q, t0 + clk2q, self.s.reg_state[i], active);
                }
                for (&net, &w) in sim.inputs.iter().zip(words) {
                    self.inject(net, t0 + in_delay, w, active);
                }
                self.run_until(t0 + period);
            }
            for (i, &(d, _)) in sim.se_regs.iter().enumerate() {
                self.s.reg_state[i] = self.s.vals[d.index()];
            }
            self.take_energy(c);
            self.capture_outputs();
        }
    }

    fn drive_wddl(&mut self, input_pairs: &[(NetId, NetId)], vectors: &[Vec<W>], active: W) {
        let sim = self.sim;
        let (period, clk2q, in_delay) =
            (sim.cfg.period_ps, sim.cfg.clk2q_ps, sim.cfg.input_delay_ps);
        let eval_start = sim.cfg.eval_start_ps();
        refill(&mut self.s.wddl_alarms, vectors.len() * W::LANES, 0);
        // All-zero is the natural WDDL precharge state; the differential
        // netlist is positive-monotone, so settling only handles ties.
        self.settle();
        for (c, words) in vectors.iter().enumerate() {
            assert_eq!(words.len(), input_pairs.len(), "bad vector length");
            self.begin_cycle(c);
            let t0 = c as u64 * period;
            let te = t0 + eval_start;
            if sim.settles_wddl && !self.s.measuring {
                // The evaluation wave's sources decide the cycle's end.
                for (i, &(_, _, qt, qf)) in sim.wddl_regs.iter().enumerate() {
                    self.set_lanes(qt, self.s.reg_t[i], active);
                    self.set_lanes(qf, self.s.reg_f[i], active);
                }
                for (&(t, f), &w) in input_pairs.iter().zip(words) {
                    self.set_lanes(t, w, active);
                    self.set_lanes(f, !w, active);
                }
                self.skip_to(t0 + period);
            } else {
                // Precharge phase: everything to (0, 0).
                for &(_, _, qt, qf) in &sim.wddl_regs {
                    self.inject(qt, t0 + clk2q, W::ZERO, active);
                    self.inject(qf, t0 + clk2q, W::ZERO, active);
                }
                for &(t, f) in input_pairs {
                    self.inject(t, t0 + in_delay, W::ZERO, active);
                    self.inject(f, t0 + in_delay, W::ZERO, active);
                }
                // Evaluation phase: stored values and differential inputs.
                for (i, &(_, _, qt, qf)) in sim.wddl_regs.iter().enumerate() {
                    self.inject(qt, te + clk2q, self.s.reg_t[i], active);
                    self.inject(qf, te + clk2q, self.s.reg_f[i], active);
                }
                for (&(t, f), &w) in input_pairs.iter().zip(words) {
                    self.inject(t, te + in_delay, w, active);
                    self.inject(f, te + in_delay, !w, active);
                }
                self.run_until(t0 + period);
            }
            // Capture at the rising edge; (0, 0) pairs are DFA alarms.
            for (i, &(dt, df, _, _)) in sim.wddl_regs.iter().enumerate() {
                let (vt, vf) = (self.s.vals[dt.index()], self.s.vals[df.index()]);
                for l in (!vt & !vf & active).lanes() {
                    self.s.wddl_alarms[c * W::LANES + l] += 1;
                }
                self.s.reg_t[i] = vt;
                self.s.reg_f[i] = vf;
            }
            self.take_energy(c);
            self.capture_outputs();
        }
    }

    /// The glitch-free power model: a pure zero-delay sweep per cycle,
    /// already oblivious, so every lane is evaluated at once.
    fn drive_glitch_free(&mut self, vectors: &[Vec<W>], active: W) {
        let sim = self.sim;
        let (spc, vdd) = (sim.cfg.samples_per_cycle, sim.cfg.vdd);
        let bins = (spc / 4).max(1);
        // Consistent initial state: all sources 0, evaluated once.
        refill(&mut self.s.prev_vals, sim.n_nets, W::ZERO);
        sim.eval_comb(&mut self.s.prev_vals);
        for (c, words) in vectors.iter().enumerate() {
            assert_eq!(words.len(), sim.inputs.len(), "bad vector length");
            self.begin_cycle(c);
            let vals = &mut self.s.vals;
            vals.iter_mut().for_each(|v| *v = W::ZERO);
            for (&net, &w) in sim.inputs.iter().zip(words) {
                vals[net.index()] = w;
            }
            for (&(_, q), &w) in sim.se_regs.iter().zip(&self.s.reg_state) {
                vals[q.index()] = w;
            }
            sim.eval_comb(vals);
            // Ascending net order per lane: the one-lane accumulation
            // order. A cycle's charge stays inside the cycle, so only
            // the measured ones need it.
            for i in 0..sim.n_nets {
                let m = self.s.vals[i] & !self.s.prev_vals[i] & active;
                if sim.exempt[i] || m == W::ZERO {
                    continue;
                }
                if !self.s.measuring {
                    self.count_unmeasured(m);
                    continue;
                }
                let e_net = sim.c_eff_ff[i] * vdd * vdd;
                for l in m.lanes() {
                    self.s.energy_fj[l] += e_net;
                    self.s.rises[l] += 1;
                }
            }
            if self.s.measuring {
                // Deposit the charge over the first quarter of the cycle.
                let base = (c - self.s.measured.start) * spc;
                for l in 0..W::LANES {
                    let e = self.s.energy_fj[l];
                    if e != 0.0 {
                        let d = e / vdd / bins as f64;
                        for b in 0..bins {
                            self.s.trace[(base + b) * W::LANES + l] += d;
                        }
                    }
                }
            }
            for (i, &(d, _)) in sim.se_regs.iter().enumerate() {
                self.s.reg_state[i] = self.s.vals[d.index()];
            }
            self.take_energy(c);
            self.capture_outputs();
            std::mem::swap(&mut self.s.vals, &mut self.s.prev_vals);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::load::LoadModel;
    use crate::{BitSim, CompiledSim, EngineScratch};
    use secflow_cells::Library;
    use secflow_netlist::{GateKind, Netlist};

    /// `y = AND2(a, b)`.
    fn and_fixture() -> (Netlist, Library, SimConfig) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![y]);
        nl.mark_output(y);
        (nl, Library::lib180(), SimConfig::default())
    }

    fn compile<W: LaneWord>(nl: &Netlist, lib: &Library, cfg: &SimConfig) -> LaneSim<W> {
        let load = LoadModel::try_build(nl, lib, None).unwrap();
        LaneSim::build(nl, lib, &load, cfg).expect("compiles")
    }

    /// Injects `(net, time, value)` changes into a one-cycle window
    /// whose nets start settled, runs it to the end of the cycle and
    /// returns `(y, energy, rises)` of `lane`. The engine's own entry
    /// points, as the cycle drivers use them.
    fn pulse<W: LaneWord>(
        sim: &LaneSim<W>,
        s: &mut LaneScratch<W>,
        injections: &[(NetId, u64, W)],
        y: NetId,
        lane: usize,
    ) -> (bool, f64, u64) {
        s.reset(sim, 1, 0..1);
        let mut e = Engine { sim, s: &mut *s };
        e.settle();
        e.begin_cycle(0);
        for &(net, t, v) in injections {
            e.inject(net, t, v, !W::ZERO);
        }
        e.run_until(sim.cfg.period_ps);
        e.take_energy(0);
        let y = e.s.vals[y.index()].bit(lane);
        (y, s.lane_energy_fj(0, lane), s.cycle_rises[lane])
    }

    /// The one-lane case in lane 0, and the same case in lane 5 of a
    /// 64-lane batch whose other lanes see the complementary stimuli.
    fn both_widths(
        case: &[(&str, u64, bool)],
        y: &str,
        check: impl Fn(&str, (bool, f64, u64), &[f64]),
    ) {
        let (nl, lib, cfg) = and_fixture();
        let net = |n: &str| nl.net_by_name(n).unwrap();
        let y = net(y);
        let comp: CompiledSim = compile(&nl, &lib, &cfg);
        let one: Vec<_> = case.iter().map(|&(n, t, v)| (net(n), t, v)).collect();
        let mut s = EngineScratch::new();
        let got = pulse(&comp, &mut s, &one, y, 0);
        check("one lane", got, s.trace());

        let sim: BitSim = compile(&nl, &lib, &cfg);
        let lane = 5;
        let word = |v: bool| if v { 1u64 << lane } else { !(1u64 << lane) };
        let wide: Vec<_> = case.iter().map(|&(n, t, v)| (net(n), t, word(v))).collect();
        let mut bs = LaneScratch::new();
        let got = pulse(&sim, &mut bs, &wide, y, lane);
        check("lane 5 of 64", got, &bs.lane_trace(lane));
    }

    #[test]
    fn rising_output_draws_charge() {
        both_widths(
            &[("a", 100, true), ("b", 100, true)],
            "y",
            |at, (y, energy, rises), trace| {
                assert!(y, "{at}");
                assert!(energy > 0.0, "{at}");
                assert_eq!(rises, 1, "{at}");
                assert!(trace.iter().sum::<f64>() > 0.0, "{at}");
            },
        );
    }

    #[test]
    fn primary_input_transitions_are_exempt() {
        // The AND output stays 0: only the exempt input rises.
        both_widths(&[("a", 100, true)], "y", |at, (_, energy, rises), _| {
            assert_eq!(energy, 0.0, "{at}");
            assert_eq!(rises, 0, "{at}");
        });
    }

    #[test]
    fn short_glitch_is_filtered_inertially() {
        // A 1 ps pulse, well under the gate delay, must not propagate.
        let case = [("b", 0, true), ("a", 100, true), ("a", 101, false)];
        both_widths(&case, "y", |at, (y, _, rises), _| {
            assert!(!y, "{at}");
            assert_eq!(rises, 0, "{at}: glitch leaked through");
        });
    }

    #[test]
    fn wide_pulse_produces_glitch_power() {
        // A long pulse: y rises, then falls.
        let case = [("b", 0, true), ("a", 100, true), ("a", 2000, false)];
        both_widths(&case, "y", |at, (y, energy, rises), _| {
            assert!(!y, "{at}");
            assert_eq!(rises, 1, "{at}");
            assert!(energy > 0.0, "{at}");
        });
    }

    #[test]
    fn settle_handles_inverting_gates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g0", "INV", GateKind::Comb, vec![a], vec![y]);
        nl.mark_output(y);
        let (lib, cfg) = (Library::lib180(), SimConfig::default());
        let comp: CompiledSim = compile(&nl, &lib, &cfg);
        let mut s = EngineScratch::new();
        s.reset(&comp, 1, 0..1);
        Engine {
            sim: &comp,
            s: &mut s,
        }
        .settle();
        assert!(s.vals[y.index()], "INV of 0 must settle to 1");
        // Every lane of a batch settles, dead or alive.
        let sim: BitSim = compile(&nl, &lib, &cfg);
        let mut bs = LaneScratch::new();
        bs.reset(&sim, 1, 0..1);
        Engine {
            sim: &sim,
            s: &mut bs,
        }
        .settle();
        assert_eq!(
            bs.vals[y.index()],
            !0,
            "INV of 0 must settle to 1 in every lane"
        );
        let _ = a;
    }

    #[test]
    fn wddl_register_detection() {
        let mut nl = Netlist::new("t");
        let dt = nl.add_input("dt");
        let df = nl.add_input("df");
        let qt = nl.add_net("qt");
        let qf = nl.add_net("qf");
        nl.add_gate("r0", "WDDLDFF", GateKind::Seq, vec![dt, df], vec![qt, qf]);
        assert!(crate::is_wddl_register(nl.gate(GateId(0))));
        let _ = (qt, qf);
    }
}
