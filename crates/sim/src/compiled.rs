//! The build-once simulation kernel: [`CompiledSim`] + [`EngineScratch`].
//!
//! Trace campaigns simulate the same netlist thousands of times (one
//! short window per encryption). The seed engine rebuilt its entire
//! working state per window — per-gate `by_name` string hashing, a
//! fresh topological order, ten freshly allocated arrays — and its
//! event loop allocated a sink list on every processed event. This
//! module splits the engine into the two halves that actually have
//! different lifetimes:
//!
//! * [`CompiledSim`] — an immutable, build-once compilation of
//!   `(Netlist, Library, LoadModel, SimConfig)`: a cell table resolved
//!   per gate (truth table + precomputed event delay, no name lookups
//!   after build), CSR adjacency for net fanout, gate inputs and
//!   coupling lists, the cached topological order, and dense per-net
//!   load/exempt arrays. Shared read-only across worker threads.
//! * [`EngineScratch`] — every mutable array the event loop touches
//!   (values, pending, the timing-wheel event queue, trace, …),
//!   `reset` between windows instead of reallocated, so steady-state
//!   window simulation performs zero heap allocations.
//!
//! **Determinism contract:** for any `(netlist, library, load, config,
//! stimulus)` the kernel is byte-identical (`f64::to_bits`) to the
//! seed per-window engine — the compiled tables are pure
//! reassociations of the same lookups (same sink order, same coupling
//! order, same delay expression), and `reset` reproduces the exact
//! state a freshly built engine would start from. The golden-trace
//! test (`tests/golden_kernel.rs`) pins this across thread counts.
//!
//! **Measured cycles.** Every `run_*` takes the cycles the caller
//! measures (`..` for the whole window). Charge work — the crosstalk
//! adjustment, energy and trace deposits — is done only for rises in
//! those cycles and for earlier rises whose deposit reaches their
//! bins; the trace holds just those cycles. Each measured bin sees the
//! same additions in the same order as in a whole-window run, so the
//! measured cycles are bit-identical to the same cycles of that run
//! (DESIGN.md §15).
//!
//! **Settled cycles.** When a driver's switching provably settles
//! inside every cycle (the settle test of DESIGN.md §16, computed once
//! at build), `run_*` event-simulate only the measured cycles. Every
//! other cycle ends at the zero-delay fixed point of its sources, which
//! is the state the event loop would reach, so it is evaluated in
//! topological order instead; it reports no rises and no events.

use std::collections::HashMap;
use std::ops::{Bound, Range, RangeBounds};

use secflow_cells::{CellFunction, Library, TruthTable};
use secflow_netlist::{FanoutCsr, GateId, GateKind, NetId, Netlist};

use crate::config::SimConfig;
use crate::engine::{is_wddl_register, Engine, Event};
use crate::error::SimError;
use crate::load::LoadModel;

/// Per-gate resolved simulation behaviour. `Copy`, so gate evaluation
/// reads it by value without cloning heap data.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellKind {
    /// Combinational: packed truth table plus the precomputed event
    /// delay of the gate's output net (the seed engine recomputed
    /// `intrinsic + drive · C_load` per evaluation; it is a pure
    /// function of the compilation inputs).
    Comb {
        /// Packed single-output truth table.
        tt: TruthTable,
        /// `load.delay_ps(intrinsic, drive, out).max(1.0)` as integer ps.
        delay_ps: u64,
    },
    /// Single-ended D flip-flop (driven by the cycle driver).
    Dff,
    /// WDDL dual-rail register (driven by the cycle driver).
    WddlDff,
    /// Constant driver.
    Tie(bool),
}

/// A build-once, immutable compilation of
/// `(Netlist, Library, LoadModel, SimConfig)` for the event-driven
/// power simulator. Build it once per campaign, share it across
/// threads (`&CompiledSim` is `Sync`), and pair it with one
/// [`EngineScratch`] per worker.
#[derive(Debug, Clone)]
pub struct CompiledSim {
    pub(crate) cfg: SimConfig,
    // --- per gate, indexed by GateId ---
    pub(crate) cells: Vec<CellKind>,
    /// CSR offsets into `in_nets`; `gate_count + 1` entries.
    pub(crate) in_offsets: Vec<u32>,
    /// Input nets of all gates, concatenated in pin order.
    pub(crate) in_nets: Vec<NetId>,
    /// First output net per gate (`u32::MAX` sentinel when none).
    pub(crate) out_net: Vec<NetId>,
    /// Cached topological order of the combinational graph.
    pub(crate) topo: Vec<GateId>,
    // --- per net, indexed by NetId ---
    pub(crate) fanout: FanoutCsr,
    /// Nets whose transitions draw no supply current (primary inputs).
    pub(crate) exempt: Vec<bool>,
    pub(crate) c_eff_ff: Vec<f64>,
    /// Rising charge before crosstalk, `c_eff · Vdd` (fC).
    pub(crate) q_base: Vec<f64>,
    /// Deposit bin count of a rise, `ceil(max(2RC, sample) / sample)`.
    pub(crate) nbins: Vec<u32>,
    /// CSR offsets into `coup`; `net_count + 1` entries.
    pub(crate) coup_offsets: Vec<u32>,
    /// Coupling lists of all nets, concatenated: `(other net, fF)`.
    pub(crate) coup: Vec<(NetId, f64)>,
    // --- interface, in declaration order ---
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    /// Single-ended registers: `(D net, Q net)` per sequential gate.
    pub(crate) se_regs: Vec<(NetId, NetId)>,
    /// WDDL registers: `(Dt, Df, Qt, Qf)`.
    pub(crate) wddl_regs: Vec<(NetId, NetId, NetId, NetId)>,
    pub(crate) n_nets: usize,
    pub(crate) n_gates: usize,
    /// `cfg.sample_ps()`, precomputed (the engine divides by it on
    /// every rising transition).
    pub(crate) sample_ps: f64,
    /// Timing-wheel size (power of two): strictly larger than the
    /// maximum span between the engine's current time and any event it
    /// can still schedule (one clock period for driver injections plus
    /// the largest gate delay plus the driver offsets), so wheel slots
    /// never alias two pending times.
    pub(crate) wheel_size: u64,
    /// The single-ended driver's cycles settle (DESIGN.md §16), so its
    /// runs event-simulate only the measured cycles.
    pub(crate) settles_se: bool,
    /// The same for the WDDL driver.
    pub(crate) settles_wddl: bool,
}

impl CompiledSim {
    /// Compiles `nl` against `lib`, `load` and `cfg`.
    ///
    /// Each distinct cell name is resolved exactly once
    /// ([`Library::index_of`]); gates index the resolved table
    /// thereafter.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownCell`] if a gate references a cell missing
    /// from `lib`; [`SimError::CombinationalCycle`] if no evaluation
    /// order exists.
    pub fn build(
        nl: &Netlist,
        lib: &Library,
        load: &LoadModel,
        cfg: &SimConfig,
    ) -> Result<CompiledSim, SimError> {
        let mut name_memo: HashMap<&str, usize> = HashMap::new();
        let mut cells = Vec::with_capacity(nl.gate_count());
        let mut in_offsets = Vec::with_capacity(nl.gate_count() + 1);
        let mut in_nets = Vec::new();
        let mut out_net = Vec::with_capacity(nl.gate_count());
        in_offsets.push(0u32);
        for g in nl.gates() {
            let idx = match name_memo.get(g.cell.as_str()) {
                Some(&i) => i,
                None => {
                    let i = lib.index_of(&g.cell).ok_or_else(|| SimError::UnknownCell {
                        gate: g.name.clone(),
                        cell: g.cell.clone(),
                    })?;
                    name_memo.insert(g.cell.as_str(), i);
                    i
                }
            };
            let cell = lib.cell_at(idx);
            let out = g.outputs.first().copied().unwrap_or(NetId(u32::MAX));
            cells.push(match cell.function() {
                CellFunction::Comb(tt) => CellKind::Comb {
                    tt: *tt,
                    delay_ps: load
                        .delay_ps(cell.intrinsic_delay_ps(), cell.drive_kohm(), out)
                        .max(1.0) as u64,
                },
                CellFunction::Dff if is_wddl_register(g) => CellKind::WddlDff,
                CellFunction::Dff => CellKind::Dff,
                CellFunction::WddlDff => CellKind::WddlDff,
                CellFunction::Tie(v) => CellKind::Tie(*v),
            });
            in_nets.extend_from_slice(&g.inputs);
            in_offsets.push(in_nets.len() as u32);
            out_net.push(out);
        }
        let topo = secflow_netlist::topo_order(nl).ok_or_else(|| SimError::CombinationalCycle {
            netlist: nl.name.clone(),
        })?;

        let mut exempt = vec![false; nl.net_count()];
        for &i in nl.inputs() {
            exempt[i.index()] = true;
        }
        let mut coup_offsets = Vec::with_capacity(nl.net_count() + 1);
        let mut coup = Vec::new();
        coup_offsets.push(0u32);
        for id in nl.net_ids() {
            coup.extend_from_slice(&load.couplings[id.index()]);
            coup_offsets.push(coup.len() as u32);
        }

        let se_regs = nl
            .gates()
            .iter()
            .filter(|g| g.kind == GateKind::Seq)
            .map(|g| (g.inputs[0], g.outputs[0]))
            .collect();
        let wddl_regs = nl
            .gates()
            .iter()
            .filter(|g| is_wddl_register(g))
            .map(|g| (g.inputs[0], g.inputs[1], g.outputs[0], g.outputs[1]))
            .collect();

        let sample_ps = cfg.sample_ps();
        let mut q_base = Vec::with_capacity(nl.net_count());
        let mut nbins = Vec::with_capacity(nl.net_count());
        for (&c, &r) in load.c_eff_ff.iter().zip(&load.drive_kohm) {
            q_base.push(c * cfg.vdd);
            let tau_ps = (2.0 * r * c).max(sample_ps);
            nbins.push((tau_ps / sample_ps).ceil().max(1.0) as u32);
        }

        let max_delay = cells
            .iter()
            .map(|c| match c {
                CellKind::Comb { delay_ps, .. } => *delay_ps,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let wheel_size = (cfg.period_ps + max_delay + cfg.clk2q_ps + cfg.input_delay_ps + 2)
            .next_power_of_two()
            .max(64);

        let mut comp = CompiledSim {
            cfg: cfg.clone(),
            cells,
            in_offsets,
            in_nets,
            out_net,
            topo,
            fanout: FanoutCsr::build(nl),
            exempt,
            c_eff_ff: load.c_eff_ff.clone(),
            q_base,
            nbins,
            coup_offsets,
            coup,
            inputs: nl.inputs().to_vec(),
            outputs: nl.outputs().to_vec(),
            se_regs,
            wddl_regs,
            n_nets: nl.net_count(),
            n_gates: nl.gate_count(),
            sample_ps,
            wheel_size,
            settles_se: false,
            settles_wddl: false,
        };
        let arrival = comp.arrivals();
        let launch = cfg.clk2q_ps.max(cfg.input_delay_ps);
        comp.settles_se = comp.settles_after(&arrival, launch);
        comp.settles_wddl = comp.settles_after(&arrival, cfg.eval_start_ps() + launch);
        Ok(comp)
    }

    /// The compiled configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// True if [`Self::run_single_ended`] event-simulates only the
    /// measured cycles: every single-ended cycle provably settles
    /// before the next clock edge (DESIGN.md §16) and no waveform is
    /// recorded. Other cycles then report no rises and no kernel work.
    pub fn settles_single_ended(&self) -> bool {
        self.settles_se
    }

    /// The same as [`Self::settles_single_ended`] for
    /// [`Self::run_wddl`].
    pub fn settles_wddl(&self) -> bool {
        self.settles_wddl
    }

    /// Longest-path arrival per net in ps, summed from the kernel's own
    /// gate delays, with every source (input, register or tie output)
    /// at 0.
    fn arrivals(&self) -> Vec<u64> {
        let mut at = vec![0u64; self.n_nets];
        for &gid in &self.topo {
            let g = gid.index();
            if let CellKind::Comb { delay_ps, .. } = self.cells[g] {
                let ins =
                    &self.in_nets[self.in_offsets[g] as usize..self.in_offsets[g + 1] as usize];
                let a = ins.iter().map(|n| at[n.index()]).max().unwrap_or(0) + delay_ps;
                if let Some(out) = at.get_mut(self.out_net[g].index()) {
                    *out = a;
                }
            }
        }
        at
    }

    /// The settle test of DESIGN.md §16 for a driver whose last
    /// injection comes `launch` ps after the clock edge. Every event of
    /// a cycle then falls before the next edge, every deposit ends
    /// inside its cycle with a bin to spare for the rounding of
    /// `t / sample_ps`, and the quiet gap up to the next cycle's first
    /// injection is longer than the crosstalk window. A register output
    /// switching at the edge itself could round into the previous bin,
    /// so `clk2q_ps` must be positive.
    fn settles_after(&self, arrival: &[u64], launch: u64) -> bool {
        let cfg = &self.cfg;
        if cfg.record_waveform || cfg.clk2q_ps == 0 {
            return false;
        }
        let period = cfg.period_ps;
        let mut latest = 0;
        for (&a, &nbins) in arrival.iter().zip(&self.nbins) {
            let t = launch.saturating_add(a);
            if t >= period || t as f64 + (f64::from(nbins) + 1.0) * self.sample_ps > period as f64 {
                return false;
            }
            latest = latest.max(t);
        }
        let first = cfg.clk2q_ps.min(cfg.input_delay_ps);
        period - latest + first > cfg.crosstalk_window_ps
    }

    /// The coupling list of `net`, in [`LoadModel`] order.
    #[inline]
    pub(crate) fn couplings(&self, net: NetId) -> &[(NetId, f64)] {
        let lo = self.coup_offsets[net.index()] as usize;
        let hi = self.coup_offsets[net.index() + 1] as usize;
        &self.coup[lo..hi]
    }

    /// Simulates a single-ended netlist window into `scratch`,
    /// accounting charge for the `measured` cycles (and event-simulating
    /// only them if [`Self::settles_single_ended`]); see
    /// [`crate::simulate_single_ended`] for the protocol. Results are
    /// read back through the [`EngineScratch`] accessors.
    ///
    /// # Panics
    ///
    /// Panics if any vector length differs from the input count.
    pub fn run_single_ended(
        &self,
        scratch: &mut EngineScratch,
        input_vectors: &[Vec<bool>],
        measured: impl RangeBounds<usize>,
    ) {
        let cycles = measured_cycles(&measured, input_vectors.len());
        let mut engine = Engine::new(self, scratch, input_vectors.len(), cycles);
        engine.drive_single_ended(input_vectors);
    }

    /// Simulates a WDDL two-phase window into `scratch`, accounting
    /// charge for the `measured` cycles (and event-simulating only them
    /// if [`Self::settles_wddl`]); see [`crate::simulate_wddl`] for the
    /// protocol.
    ///
    /// # Panics
    ///
    /// Panics if any vector length differs from the pair count.
    pub fn run_wddl(
        &self,
        scratch: &mut EngineScratch,
        input_pairs: &[(NetId, NetId)],
        input_vectors: &[Vec<bool>],
        measured: impl RangeBounds<usize>,
    ) {
        let cycles = measured_cycles(&measured, input_vectors.len());
        let mut engine = Engine::new(self, scratch, input_vectors.len(), cycles);
        engine.drive_wddl(input_pairs, input_vectors);
    }

    /// Simulates a window under the idealized glitch-free power model,
    /// accounting charge for the `measured` cycles; see
    /// [`crate::simulate_single_ended_glitch_free`].
    ///
    /// # Panics
    ///
    /// Panics if any vector length differs from the input count.
    pub fn run_single_ended_glitch_free(
        &self,
        scratch: &mut EngineScratch,
        input_vectors: &[Vec<bool>],
        measured: impl RangeBounds<usize>,
    ) {
        let n_cycles = input_vectors.len();
        let cycles = measured_cycles(&measured, n_cycles);
        scratch.reset(self, n_cycles, cycles.clone());
        let spc = self.cfg.samples_per_cycle;

        // Consistent initial state: all sources 0 (inverters settle
        // high), evaluated once into prev_values.
        self.eval_comb_into(&mut scratch.prev_values);

        for (c, vector) in input_vectors.iter().enumerate() {
            assert_eq!(vector.len(), self.inputs.len(), "bad vector length");
            scratch.values.iter_mut().for_each(|v| *v = false);
            for (&net, &v) in self.inputs.iter().zip(vector) {
                scratch.values[net.index()] = v;
            }
            for (&(_, q), &v) in self.se_regs.iter().zip(&scratch.reg_state) {
                scratch.values[q.index()] = v;
            }
            self.eval_comb_into(&mut scratch.values);

            // A cycle's charge stays inside the cycle, so only the
            // measured ones need it; every cycle's rises are counted.
            let measuring = cycles.contains(&c);
            let mut energy = 0.0;
            let mut rises = 0u64;
            for i in 0..self.n_nets {
                if scratch.values[i] && !scratch.prev_values[i] && !self.exempt[i] {
                    if measuring {
                        energy += self.c_eff_ff[i] * self.cfg.vdd * self.cfg.vdd;
                    }
                    rises += 1;
                }
            }
            if measuring {
                // Deposit the charge over the first quarter of the cycle.
                let bins = (spc / 4).max(1);
                let base = (c - cycles.start) * spc;
                for b in 0..bins {
                    scratch.trace[base + b] += energy / self.cfg.vdd / bins as f64;
                }
            }
            for (i, &(d, _)) in self.se_regs.iter().enumerate() {
                scratch.reg_state[i] = scratch.values[d.index()];
            }
            scratch.cycle_energy_fj.push(energy);
            scratch.cycle_rises.push(rises);
            for &o in &self.outputs {
                scratch.outputs_flat.push(scratch.values[o.index()]);
            }
            std::mem::swap(&mut scratch.values, &mut scratch.prev_values);
        }
    }

    /// Zero-delay evaluation of the combinational portion in cached
    /// topological order. `values` holds the forced source values on
    /// entry and every net's settled value on exit.
    pub(crate) fn eval_comb_into(&self, values: &mut [bool]) {
        for &gid in &self.topo {
            match self.cells[gid.index()] {
                CellKind::Comb { tt, .. } => {
                    let lo = self.in_offsets[gid.index()] as usize;
                    let hi = self.in_offsets[gid.index() + 1] as usize;
                    let mut idx = 0u32;
                    for (i, &inp) in self.in_nets[lo..hi].iter().enumerate() {
                        if values[inp.index()] {
                            idx |= 1 << i;
                        }
                    }
                    values[self.out_net[gid.index()].index()] = tt.eval(idx);
                }
                CellKind::Tie(v) => values[self.out_net[gid.index()].index()] = v,
                CellKind::Dff | CellKind::WddlDff => {}
            }
        }
    }
}

/// Resolves a caller's measured-cycle bounds against an `n_cycles`
/// window, clamped into it (`..` is the whole window).
pub(crate) fn measured_cycles(measured: &impl RangeBounds<usize>, n_cycles: usize) -> Range<usize> {
    let hi = match measured.end_bound() {
        Bound::Included(&e) => e.saturating_add(1),
        Bound::Excluded(&e) => e,
        Bound::Unbounded => n_cycles,
    }
    .min(n_cycles);
    let lo = match measured.start_bound() {
        Bound::Included(&s) => s,
        Bound::Excluded(&s) => s.saturating_add(1),
        Bound::Unbounded => 0,
    }
    .min(hi);
    lo..hi
}

/// The reusable mutable half of the simulation kernel: every array the
/// event loop and the cycle drivers touch. One scratch per worker
/// thread; [`EngineScratch::reset`] (called by every
/// `CompiledSim::run_*`) restores the exact initial state of a freshly
/// built engine without releasing capacity, so repeated window
/// simulations allocate nothing once buffers have grown to the
/// campaign's steady-state sizes.
#[derive(Debug, Default)]
pub struct EngineScratch {
    // --- event-engine state ---
    pub(crate) values: Vec<bool>,
    /// Monotonic tie-break counter for deterministic event order.
    pub(crate) order: u64,
    /// Per-gate cancellation sequence.
    pub(crate) gate_seq: Vec<u64>,
    /// Value the gate's pending output event will establish.
    pub(crate) pending: Vec<Option<bool>>,
    /// Timing wheel replacing the seed engine's binary heap: one event
    /// bucket per slot, indexed by `time & wheel_mask`. The global
    /// `order` counter is monotonic, so bucket FIFO order equals the
    /// heap's `(time, order)` order exactly; and since every gate delay
    /// is at least 1 ps (and smaller than the wheel), a bucket never
    /// receives new events while it is being drained.
    pub(crate) wheel: Vec<Vec<Event>>,
    /// One bit per wheel slot: bucket non-empty.
    pub(crate) occupancy: Vec<u64>,
    pub(crate) wheel_mask: u64,
    /// All events strictly before `cursor` have been processed.
    pub(crate) cursor: u64,
    /// End of the window (`n_cycles × period`). Events scheduled at or
    /// beyond it can never be processed — the final `run_until` stops
    /// there — so pushes drop them (the heap kept them, unread).
    pub(crate) horizon: u64,
    /// Last transition per net: (time, new value).
    pub(crate) last_transition: Vec<Option<(u64, bool)>>,
    /// The measured cycles of the current window.
    pub(crate) measured: Range<usize>,
    /// Their sample bins, `measured × samples_per_cycle`.
    pub(crate) bins: Range<usize>,
    /// The cycle being simulated is measured.
    pub(crate) measuring: bool,
    /// Supply-current trace of the measured cycles: charge (fC) per
    /// sample bin, bin `bins.start` first.
    pub(crate) trace: Vec<f64>,
    /// Net transitions, recorded when [`SimConfig::record_waveform`].
    pub(crate) waveform: Vec<(u64, NetId, bool)>,
    pub(crate) energy_fj: f64,
    pub(crate) rising_events: u64,
    // --- cycle-driver state ---
    pub(crate) reg_state: Vec<bool>,
    pub(crate) reg_state_pairs: Vec<(bool, bool)>,
    /// Previous-cycle values (glitch-free model only).
    pub(crate) prev_values: Vec<bool>,
    // --- per-window results, reused ---
    pub(crate) cycle_energy_fj: Vec<f64>,
    pub(crate) cycle_rises: Vec<u64>,
    /// Primary-output values, `n_cycles × n_outputs`, flattened.
    pub(crate) outputs_flat: Vec<bool>,
    pub(crate) wddl_alarms: Vec<usize>,
    // --- geometry of the last run ---
    pub(crate) samples_per_cycle: usize,
    pub(crate) n_outputs: usize,
    // --- kernel work counters (per window, reset like the buffers;
    // deterministic functions of (comp, stimuli), so campaign sums are
    // thread-count invariant) ---
    /// Timing-wheel events drained in the last window.
    pub(crate) events_processed: u64,
    /// Combinational gate evaluations in the last window.
    pub(crate) gate_evals: u64,
    /// Events currently pending on the wheel.
    pub(crate) wheel_pending: u64,
    /// Peak simultaneous pending events (wheel occupancy high-water).
    pub(crate) wheel_peak: u64,
}

impl EngineScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores the initial engine state for a `n_cycles`-cycle window
    /// of `comp` measuring `measured`, reusing every buffer's capacity.
    pub(crate) fn reset(&mut self, comp: &CompiledSim, n_cycles: usize, measured: Range<usize>) {
        let spc = comp.cfg.samples_per_cycle;
        self.values.clear();
        self.values.resize(comp.n_nets, false);
        self.order = 0;
        self.gate_seq.clear();
        self.gate_seq.resize(comp.n_gates, 0);
        self.pending.clear();
        self.pending.resize(comp.n_gates, None);
        let w = comp.wheel_size as usize;
        if self.wheel.len() != w {
            self.wheel.clear();
            self.wheel.resize_with(w, Vec::new);
            self.occupancy.clear();
            self.occupancy.resize(w / 64, 0);
        } else {
            // A completed window drains every bucket; this sweep only
            // finds leftovers after an aborted run. Visiting set bits
            // keeps it O(words) when there are none.
            for (wi, word) in self.occupancy.iter_mut().enumerate() {
                let mut m = *word;
                while m != 0 {
                    self.wheel[wi * 64 + m.trailing_zeros() as usize].clear();
                    m &= m - 1;
                }
                *word = 0;
            }
        }
        self.wheel_mask = comp.wheel_size - 1;
        self.cursor = 0;
        self.horizon = n_cycles as u64 * comp.cfg.period_ps;
        self.last_transition.clear();
        self.last_transition.resize(comp.n_nets, None);
        self.bins = measured.start * spc..measured.end * spc;
        self.measuring = measured.contains(&0);
        self.measured = measured;
        self.trace.clear();
        self.trace.resize(self.bins.len(), 0.0);
        self.waveform.clear();
        self.energy_fj = 0.0;
        self.rising_events = 0;
        self.reg_state.clear();
        self.reg_state.resize(comp.se_regs.len(), false);
        // Logical 0 as a *valid* WDDL code word (t, f) = (0, 1).
        self.reg_state_pairs.clear();
        self.reg_state_pairs
            .resize(comp.wddl_regs.len(), (false, true));
        self.prev_values.clear();
        self.prev_values.resize(comp.n_nets, false);
        self.cycle_energy_fj.clear();
        self.cycle_rises.clear();
        self.outputs_flat.clear();
        self.wddl_alarms.clear();
        self.samples_per_cycle = spc;
        self.n_outputs = comp.outputs.len();
        self.events_processed = 0;
        self.gate_evals = 0;
        self.wheel_pending = 0;
        self.wheel_peak = 0;
    }

    /// The supply-current trace of the last window's measured cycles
    /// (the whole window when every cycle was measured).
    pub fn trace(&self) -> &[f64] {
        &self.trace
    }

    /// The samples of one measured cycle of the last window.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` was not measured.
    pub fn cycle_trace(&self, cycle: usize) -> &[f64] {
        let at = (cycle - self.measured.start) * self.samples_per_cycle;
        &self.trace[at..at + self.samples_per_cycle]
    }

    /// Supply energy per cycle, in fJ; 0 for cycles that were not
    /// measured.
    pub fn cycle_energy_fj(&self) -> &[f64] {
        &self.cycle_energy_fj
    }

    /// Rising-transition count per simulated cycle, measured or not;
    /// 0 for a settled cycle the kernel did not event-simulate.
    pub fn cycle_rises(&self) -> &[u64] {
        &self.cycle_rises
    }

    /// Primary-output values at the end of `cycle`.
    pub fn outputs(&self, cycle: usize) -> &[bool] {
        &self.outputs_flat[cycle * self.n_outputs..(cycle + 1) * self.n_outputs]
    }

    /// Per-cycle WDDL DFA alarm counts (empty for single-ended runs).
    pub fn wddl_alarms(&self) -> &[usize] {
        &self.wddl_alarms
    }

    /// Timing-wheel events drained in the last window. A deterministic
    /// function of the compiled design and the window's stimuli.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Combinational gate evaluations in the last window.
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals
    }

    /// Peak simultaneous pending events on the timing wheel in the
    /// last window (queue-depth high-water mark).
    pub fn wheel_peak(&self) -> u64 {
        self.wheel_peak
    }

    /// Moves the last window's results into an owned
    /// [`crate::SimResult`], leaving the scratch reusable. The
    /// one-shot `simulate_*` drivers use this; campaign code reads the
    /// borrow accessors instead to stay allocation-free.
    pub fn take_sim_result(&mut self) -> crate::SimResult {
        let n_outputs = self.n_outputs.max(1);
        let outputs_per_cycle = self
            .outputs_flat
            .chunks(n_outputs)
            .map(<[bool]>::to_vec)
            .collect();
        crate::SimResult {
            trace: std::mem::take(&mut self.trace),
            cycle_energy_fj: std::mem::take(&mut self.cycle_energy_fj),
            cycle_rises: std::mem::take(&mut self.cycle_rises),
            outputs_per_cycle,
            wddl_alarms: std::mem::take(&mut self.wddl_alarms),
            waveform: std::mem::take(&mut self.waveform),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_netlist::GateKind;

    fn and_fixture() -> (Netlist, Library, SimConfig) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![y]);
        nl.mark_output(y);
        (nl, Library::lib180(), SimConfig::default())
    }

    #[test]
    fn unknown_cell_is_a_typed_error() {
        let (mut nl, lib, cfg) = and_fixture();
        let a = nl.net_by_name("a").unwrap();
        let z = nl.add_net("z");
        nl.add_gate("gx", "FROBNICATOR", GateKind::Comb, vec![a], vec![z]);
        // The load model cannot resolve the cell either; build it from
        // the known-good prefix to reach the compile step.
        let load = LoadModel {
            c_eff_ff: vec![0.0; nl.net_count()],
            drive_kohm: vec![0.0; nl.net_count()],
            couplings: vec![Vec::new(); nl.net_count()],
        };
        let err = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownCell {
                gate: "gx".into(),
                cell: "FROBNICATOR".into()
            }
        );
        assert!(err.to_string().contains("FROBNICATOR"));
    }

    #[test]
    fn combinational_cycle_is_a_typed_error() {
        let mut nl = Netlist::new("loopy");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate("g0", "INV", GateKind::Comb, vec![y], vec![x]);
        nl.add_gate("g1", "INV", GateKind::Comb, vec![x], vec![y]);
        let lib = Library::lib180();
        let cfg = SimConfig::default();
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let err = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap_err();
        assert_eq!(
            err,
            SimError::CombinationalCycle {
                netlist: "loopy".into()
            }
        );
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_scratch() {
        let (nl, lib, cfg) = and_fixture();
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let comp = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap();
        let vectors = vec![vec![true, true], vec![false, true], vec![true, true]];

        let mut fresh = EngineScratch::new();
        comp.run_single_ended(&mut fresh, &vectors, ..);
        let reference: Vec<u64> = fresh.trace().iter().map(|x| x.to_bits()).collect();
        let ref_energy: Vec<u64> = fresh
            .cycle_energy_fj()
            .iter()
            .map(|x| x.to_bits())
            .collect();

        // Dirty the scratch with a different window, then re-run.
        let mut reused = EngineScratch::new();
        comp.run_single_ended(&mut reused, &[vec![true, false], vec![true, true]], 1..2);
        comp.run_single_ended(&mut reused, &vectors, ..);
        let got: Vec<u64> = reused.trace().iter().map(|x| x.to_bits()).collect();
        let got_energy: Vec<u64> = reused
            .cycle_energy_fj()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(got, reference);
        assert_eq!(got_energy, ref_energy);
        assert_eq!(reused.outputs(2), fresh.outputs(2));
    }

    #[test]
    fn compiled_tables_mirror_netlist_structure() {
        let (nl, lib, cfg) = and_fixture();
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let comp = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap();
        assert_eq!(comp.n_gates, 1);
        assert_eq!(comp.n_nets, 3);
        let a = nl.net_by_name("a").unwrap();
        assert_eq!(comp.fanout.fanout(a), &[GateId(0)]);
        assert!(comp.exempt[a.index()]);
        let y = nl.net_by_name("y").unwrap();
        assert!(!comp.exempt[y.index()]);
        let CellKind::Comb { delay_ps, .. } = comp.cells[0] else {
            panic!("AND2 must compile to a comb cell");
        };
        let cell = lib.by_name("AND2").unwrap();
        let expect = load
            .delay_ps(cell.intrinsic_delay_ps(), cell.drive_kohm(), y)
            .max(1.0) as u64;
        assert_eq!(delay_ps, expect);
    }
}
