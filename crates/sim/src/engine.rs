//! The event-driven simulation core: inertial gate delays, charge
//! deposits on rising transitions, crosstalk adjustment.
//!
//! [`Engine`] is a thin mutable view pairing an immutable
//! [`CompiledSim`] (cell table, fanout CSR, loads — see
//! [`crate::compiled`]) with one [`EngineScratch`] holding every array
//! the event loop writes. Constructing an engine `reset`s the scratch,
//! so a reused scratch behaves byte-identically to a fresh one while
//! allocating nothing.
//!
//! Events live on a circular timing wheel instead of a binary heap:
//! slots are indexed by `time mod wheel_size` and drained FIFO. The
//! wheel is sized past the maximum scheduling span, the `order`
//! counter is globally monotonic, and gate delays are at least 1 ps —
//! together these make the drain order exactly the heap's
//! `(time, order)` order, event for event.
//!
//! Every rise is counted, but only rises that land in a measured cycle
//! or deposit into one get charge work (see `Engine::record_rise`).
//! When the design settles inside a cycle, the drivers skip the event
//! loop for unmeasured cycles altogether (see `Engine::skip_to`).

use std::ops::Range;

use secflow_netlist::{Gate, GateId, GateKind, NetId};

use crate::compiled::{CellKind, CompiledSim, EngineScratch};

/// True if `gate` is a WDDL register (sequential, dual-rail: two
/// inputs `(Dt, Df)` and two outputs `(Qt, Qf)`).
pub fn is_wddl_register(gate: &Gate) -> bool {
    gate.kind == GateKind::Seq && gate.outputs.len() == 2 && gate.inputs.len() == 2
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Event {
    pub(crate) time: u64,
    pub(crate) order: u64,
    pub(crate) net: NetId,
    pub(crate) value: bool,
    /// Cancellation ticket: for gate-driven events, must match the
    /// gate's current sequence number.
    pub(crate) gate: Option<(GateId, u64)>,
}

/// The event-driven engine. Drivers inject net-change events at
/// absolute times and advance simulated time with
/// [`Engine::run_until`].
pub(crate) struct Engine<'a> {
    comp: &'a CompiledSim,
    s: &'a mut EngineScratch,
}

impl<'a> Engine<'a> {
    /// Binds `scratch` to `comp` for one `n_cycles`-cycle window that
    /// measures `measured`, resetting it to the initial engine state.
    pub fn new(
        comp: &'a CompiledSim,
        scratch: &'a mut EngineScratch,
        n_cycles: usize,
        measured: Range<usize>,
    ) -> Self {
        scratch.reset(comp, n_cycles, measured);
        Engine { comp, s: scratch }
    }

    /// Marks the start of window cycle `c`: its rises are measured
    /// iff `c` is.
    fn begin_cycle(&mut self, c: usize) {
        self.s.measuring = self.s.measured.contains(&c);
    }

    /// Current logical value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.s.values[net.index()]
    }

    /// Establishes a consistent initial state by zero-delay evaluation
    /// in (cached) topological order, without recording any power.
    /// Registers start at 0 (reset state).
    pub fn settle_initial(&mut self) {
        self.comp.eval_comb_into(&mut self.s.values);
    }

    /// Completes a settled, unmeasured cycle ending at `t_end` without
    /// the event loop. The caller has set the cycle's sources; under
    /// the settle test (DESIGN.md §16) the event loop would end the
    /// cycle at their zero-delay fixed point with nothing pending, and
    /// no deposit or crosstalk it computes reaches another cycle.
    fn skip_to(&mut self, t_end: u64) {
        debug_assert_eq!(self.s.wheel_pending, 0, "events pending at a settled edge");
        self.settle_initial();
        self.s.cursor = t_end;
    }

    /// Packs the gate's current input values into a truth-table index.
    #[inline]
    fn input_index(&self, gid: GateId) -> u32 {
        let lo = self.comp.in_offsets[gid.index()] as usize;
        let hi = self.comp.in_offsets[gid.index() + 1] as usize;
        let mut idx = 0u32;
        for (i, &inp) in self.comp.in_nets[lo..hi].iter().enumerate() {
            if self.s.values[inp.index()] {
                idx |= 1 << i;
            }
        }
        idx
    }

    /// Schedules `ev` on the timing wheel. Events at or beyond the
    /// window horizon are dropped: the final `run_until` stops there,
    /// so they could never be processed anyway (the heap-based engine
    /// kept them enqueued, unread — observationally identical).
    #[inline]
    fn push_event(&mut self, ev: Event) {
        if ev.time >= self.s.horizon {
            return;
        }
        debug_assert!(
            ev.time >= self.s.cursor && ev.time - self.s.cursor <= self.s.wheel_mask,
            "event outside the wheel span"
        );
        let slot = (ev.time & self.s.wheel_mask) as usize;
        self.s.wheel[slot].push(ev);
        self.s.occupancy[slot >> 6] |= 1 << (slot & 63);
        self.s.wheel_pending += 1;
        if self.s.wheel_pending > self.s.wheel_peak {
            self.s.wheel_peak = self.s.wheel_pending;
        }
    }

    /// Injects an externally driven net change (primary input or
    /// register output) at absolute time `time`.
    pub fn inject(&mut self, net: NetId, time: u64, value: bool) {
        self.s.order += 1;
        let ev = Event {
            time,
            order: self.s.order,
            net,
            value,
            gate: None,
        };
        self.push_event(ev);
    }

    /// Processes all events strictly before `t_end`, in `(time,
    /// order)` order: the occupancy bitmap finds the next non-empty
    /// bucket, and buckets drain FIFO (pushes are `order`-monotonic).
    pub fn run_until(&mut self, t_end: u64) {
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
                    let q = (t & mask) as usize;
                    word = self.s.occupancy[q >> 6];
                    if word != 0 {
                        break;
                    }
                    t += 64;
                }
            }
            t += word.trailing_zeros() as u64;
            if t >= t_end {
                // Occupied, but next window cycle's work.
                break;
            }
            // Drain the bucket at absolute time `t`. Every event it
            // holds has exactly this timestamp (pending events span
            // less than the wheel), and processing can only schedule
            // into strictly later buckets (delays are >= 1 ps), so
            // taking the Vec out is safe and keeps its capacity.
            let slot = (t & mask) as usize;
            self.s.occupancy[slot >> 6] &= !(1u64 << (slot & 63));
            let mut bucket = std::mem::take(&mut self.s.wheel[slot]);
            self.s.events_processed += bucket.len() as u64;
            self.s.wheel_pending -= bucket.len() as u64;
            for &ev in &bucket {
                self.process_event(ev);
            }
            bucket.clear();
            self.s.wheel[slot] = bucket;
            t += 1;
        }
        self.s.cursor = t_end;
    }

    #[inline]
    fn process_event(&mut self, ev: Event) {
        let comp = self.comp;
        // Stale gate event?
        if let Some((g, seq)) = ev.gate {
            if self.s.gate_seq[g.index()] != seq {
                return;
            }
            self.s.pending[g.index()] = None;
        }
        if self.s.values[ev.net.index()] == ev.value {
            self.s.last_transition[ev.net.index()] = Some((ev.time, ev.value));
            return;
        }
        self.s.values[ev.net.index()] = ev.value;
        self.s.last_transition[ev.net.index()] = Some((ev.time, ev.value));
        if comp.cfg.record_waveform {
            self.s.waveform.push((ev.time, ev.net, ev.value));
        }
        if ev.value && !comp.exempt[ev.net.index()] {
            self.record_rise(ev.net, ev.time);
        }
        // Re-evaluate fanout gates (CSR slice: no allocation).
        for &g in comp.fanout.fanout(ev.net) {
            self.evaluate_gate(g, ev.time);
        }
    }

    fn evaluate_gate(&mut self, gid: GateId, now: u64) {
        let CellKind::Comb { tt, delay_ps } = self.comp.cells[gid.index()] else {
            return; // registers are driven by the cycle driver
        };
        self.s.gate_evals += 1;
        let out = self.comp.out_net[gid.index()];
        let v = tt.eval(self.input_index(gid));
        let effective = self.s.pending[gid.index()].unwrap_or(self.s.values[out.index()]);
        if v == effective {
            return;
        }
        // Cancel any pending opposite event (inertial filtering).
        self.s.gate_seq[gid.index()] += 1;
        self.s.pending[gid.index()] = None;
        if v != self.s.values[out.index()] {
            self.s.order += 1;
            self.s.pending[gid.index()] = Some(v);
            let ev = Event {
                time: now + delay_ps,
                order: self.s.order,
                net: out,
                value: v,
                gate: Some((gid, self.s.gate_seq[gid.index()])),
            };
            self.push_event(ev);
        }
    }

    /// Records a rising transition on `net`. Every rise is counted; the
    /// crosstalk-adjusted charge is computed only if the rise lies in
    /// a measured cycle (its energy) or its deposit reaches a measured
    /// bin, and deposits are clipped to the measured bins.
    fn record_rise(&mut self, net: NetId, time: u64) {
        let comp = self.comp;
        self.s.rising_events += 1;
        // The charge spreads over the driver's RC time constant.
        let nbins = comp.nbins[net.index()] as usize;
        let first = (time as f64 / comp.sample_ps) as usize;
        let lo = first.max(self.s.bins.start);
        let hi = (first + nbins).min(self.s.bins.end);
        if !self.s.measuring && lo >= hi {
            return;
        }
        let mut q_fc = comp.q_base[net.index()];
        // Crosstalk adjustment for coupled neighbours that switched
        // within the simultaneity window.
        for &(other, cc) in comp.couplings(net) {
            if let Some((t2, v2)) = self.s.last_transition[other.index()] {
                if time.saturating_sub(t2) <= comp.cfg.crosstalk_window_ps {
                    if v2 {
                        // Both rising: the coupling cap sees no swing.
                        q_fc -= cc * comp.cfg.vdd;
                    } else {
                        // Opposite transitions: Miller doubling.
                        q_fc += cc * comp.cfg.vdd;
                    }
                }
            }
        }
        let q_fc = q_fc.max(0.0);
        if self.s.measuring {
            self.s.energy_fj += q_fc * comp.cfg.vdd;
        }
        let per_bin = q_fc / nbins as f64;
        let base = self.s.bins.start;
        for b in lo..hi {
            self.s.trace[b - base] += per_bin;
        }
    }

    /// Returns and resets the accumulated energy (fJ) and rising-event
    /// count.
    pub fn take_energy(&mut self) -> (f64, u64) {
        let e = (self.s.energy_fj, self.s.rising_events);
        self.s.energy_fj = 0.0;
        self.s.rising_events = 0;
        e
    }

    /// The single-ended cycle protocol: per cycle, inject register
    /// outputs and primary inputs, run the event loop to the cycle
    /// boundary, capture register inputs and results into the scratch.
    ///
    /// # Panics
    ///
    /// Panics if any vector length differs from the input count.
    pub fn drive_single_ended(&mut self, input_vectors: &[Vec<bool>]) {
        let comp = self.comp;
        self.settle_initial();
        for (c, vector) in input_vectors.iter().enumerate() {
            assert_eq!(vector.len(), comp.inputs.len(), "bad vector length");
            self.begin_cycle(c);
            let t0 = c as u64 * comp.cfg.period_ps;
            if comp.settles_se && !self.s.measuring {
                for (&(_, q), &v) in comp.se_regs.iter().zip(&self.s.reg_state) {
                    self.s.values[q.index()] = v;
                }
                for (&net, &v) in comp.inputs.iter().zip(vector) {
                    self.s.values[net.index()] = v;
                }
                self.skip_to(t0 + comp.cfg.period_ps);
            } else {
                for i in 0..comp.se_regs.len() {
                    let (_, q) = comp.se_regs[i];
                    let v = self.s.reg_state[i];
                    self.inject(q, t0 + comp.cfg.clk2q_ps, v);
                }
                for (i, &v) in vector.iter().enumerate() {
                    self.inject(comp.inputs[i], t0 + comp.cfg.input_delay_ps, v);
                }
                self.run_until(t0 + comp.cfg.period_ps);
            }
            for (i, &(d, _)) in comp.se_regs.iter().enumerate() {
                self.s.reg_state[i] = self.value(d);
            }
            let (e, rises) = self.take_energy();
            self.s.cycle_energy_fj.push(e);
            self.s.cycle_rises.push(rises);
            for &o in &comp.outputs {
                let v = self.s.values[o.index()];
                self.s.outputs_flat.push(v);
            }
        }
    }

    /// The WDDL two-phase protocol: precharge every pair to `(0, 0)`,
    /// evaluate to `(v, ¬v)`, capture at the cycle boundary and count
    /// `(0, 0)` register inputs as DFA alarms.
    ///
    /// # Panics
    ///
    /// Panics if any vector length differs from the pair count.
    pub fn drive_wddl(&mut self, input_pairs: &[(NetId, NetId)], input_vectors: &[Vec<bool>]) {
        let comp = self.comp;
        // All-zero is the natural WDDL precharge state; the
        // differential netlist is positive-monotone, so no settling is
        // required, but it is harmless and handles tie cells.
        self.settle_initial();
        for (c, vector) in input_vectors.iter().enumerate() {
            assert_eq!(vector.len(), input_pairs.len(), "bad vector length");
            self.begin_cycle(c);
            let t0 = c as u64 * comp.cfg.period_ps;
            let te = t0 + comp.cfg.eval_start_ps();

            if comp.settles_wddl && !self.s.measuring {
                // The evaluation wave's sources decide the cycle's end.
                for (&(_, _, qt, qf), &(vt, vf)) in
                    comp.wddl_regs.iter().zip(&self.s.reg_state_pairs)
                {
                    self.s.values[qt.index()] = vt;
                    self.s.values[qf.index()] = vf;
                }
                for (&(t, f), &v) in input_pairs.iter().zip(vector) {
                    self.s.values[t.index()] = v;
                    self.s.values[f.index()] = !v;
                }
                self.skip_to(t0 + comp.cfg.period_ps);
            } else {
                // Precharge phase: everything to (0, 0).
                for &(_, _, qt, qf) in &comp.wddl_regs {
                    self.inject(qt, t0 + comp.cfg.clk2q_ps, false);
                    self.inject(qf, t0 + comp.cfg.clk2q_ps, false);
                }
                for &(t, f) in input_pairs {
                    self.inject(t, t0 + comp.cfg.input_delay_ps, false);
                    self.inject(f, t0 + comp.cfg.input_delay_ps, false);
                }
                // Evaluation phase: stored values and differential inputs.
                for i in 0..comp.wddl_regs.len() {
                    let (_, _, qt, qf) = comp.wddl_regs[i];
                    let (vt, vf) = self.s.reg_state_pairs[i];
                    self.inject(qt, te + comp.cfg.clk2q_ps, vt);
                    self.inject(qf, te + comp.cfg.clk2q_ps, vf);
                }
                for (i, &v) in vector.iter().enumerate() {
                    let (t, f) = input_pairs[i];
                    self.inject(t, te + comp.cfg.input_delay_ps, v);
                    self.inject(f, te + comp.cfg.input_delay_ps, !v);
                }
                self.run_until(t0 + comp.cfg.period_ps);
            }

            // Capture at the rising edge; (0,0) pairs are DFA alarms.
            let mut alarms = 0;
            for (i, &(dt, df, _, _)) in comp.wddl_regs.iter().enumerate() {
                let pair = (self.value(dt), self.value(df));
                if pair == (false, false) {
                    alarms += 1;
                }
                self.s.reg_state_pairs[i] = pair;
            }
            self.s.wddl_alarms.push(alarms);
            let (e, rises) = self.take_energy();
            self.s.cycle_energy_fj.push(e);
            self.s.cycle_rises.push(rises);
            for &o in &comp.outputs {
                let v = self.s.values[o.index()];
                self.s.outputs_flat.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::load::LoadModel;
    use secflow_cells::Library;
    use secflow_netlist::{GateKind, Netlist};

    fn engine_fixture() -> (Netlist, Library, SimConfig) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![y]);
        nl.mark_output(y);
        (nl, Library::lib180(), SimConfig::default())
    }

    fn compile(nl: &Netlist, lib: &Library, cfg: &SimConfig) -> CompiledSim {
        let load = LoadModel::try_build(nl, lib, None).unwrap();
        CompiledSim::build(nl, lib, &load, cfg).expect("compiles")
    }

    #[test]
    fn rising_output_draws_charge() {
        let (nl, lib, cfg) = engine_fixture();
        let comp = compile(&nl, &lib, &cfg);
        let mut s = EngineScratch::new();
        let mut e = Engine::new(&comp, &mut s, 1, 0..1);
        e.settle_initial();
        let a = nl.net_by_name("a").unwrap();
        let b = nl.net_by_name("b").unwrap();
        e.inject(a, 100, true);
        e.inject(b, 100, true);
        e.run_until(8000);
        let y = nl.net_by_name("y").unwrap();
        assert!(e.value(y));
        let (energy, rises) = e.take_energy();
        assert!(energy > 0.0);
        assert_eq!(rises, 1);
        assert!(s.trace().iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn primary_input_transitions_are_exempt() {
        let (nl, lib, cfg) = engine_fixture();
        let comp = compile(&nl, &lib, &cfg);
        let mut s = EngineScratch::new();
        let mut e = Engine::new(&comp, &mut s, 1, 0..1);
        e.settle_initial();
        let a = nl.net_by_name("a").unwrap();
        e.inject(a, 100, true); // AND output stays 0
        e.run_until(8000);
        let (energy, rises) = e.take_energy();
        assert_eq!(energy, 0.0);
        assert_eq!(rises, 0);
    }

    #[test]
    fn short_glitch_is_filtered_inertially() {
        // Pulse shorter than the gate delay must not propagate.
        let (nl, lib, cfg) = engine_fixture();
        let comp = compile(&nl, &lib, &cfg);
        let mut s = EngineScratch::new();
        let mut e = Engine::new(&comp, &mut s, 1, 0..1);
        e.settle_initial();
        let a = nl.net_by_name("a").unwrap();
        let b = nl.net_by_name("b").unwrap();
        e.inject(b, 0, true);
        e.inject(a, 100, true);
        e.inject(a, 101, false); // 1 ps pulse, well under the delay
        e.run_until(8000);
        let y = nl.net_by_name("y").unwrap();
        assert!(!e.value(y));
        let (_, rises) = e.take_energy();
        assert_eq!(rises, 0, "glitch leaked through");
    }

    #[test]
    fn wide_pulse_produces_glitch_power() {
        let (nl, lib, cfg) = engine_fixture();
        let comp = compile(&nl, &lib, &cfg);
        let mut s = EngineScratch::new();
        let mut e = Engine::new(&comp, &mut s, 1, 0..1);
        e.settle_initial();
        let a = nl.net_by_name("a").unwrap();
        let b = nl.net_by_name("b").unwrap();
        e.inject(b, 0, true);
        e.inject(a, 100, true);
        e.inject(a, 2000, false); // long pulse: y rises then falls
        e.run_until(8000);
        let y = nl.net_by_name("y").unwrap();
        assert!(!e.value(y));
        let (energy, rises) = e.take_energy();
        assert_eq!(rises, 1);
        assert!(energy > 0.0);
    }

    #[test]
    fn settle_handles_inverting_gates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.add_gate("g0", "INV", GateKind::Comb, vec![a], vec![y]);
        nl.mark_output(y);
        let lib = Library::lib180();
        let cfg = SimConfig::default();
        let comp = compile(&nl, &lib, &cfg);
        let mut s = EngineScratch::new();
        let mut e = Engine::new(&comp, &mut s, 1, 0..1);
        e.settle_initial();
        assert!(e.value(y), "INV of 0 must settle to 1");
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
        assert!(is_wddl_register(nl.gate(secflow_netlist::GateId(0))));
        let _ = (qt, qf);
    }
}
