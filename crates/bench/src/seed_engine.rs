//! The original per-window simulation engine, frozen as an independent
//! test reference for the event kernel.
//!
//! This is a faithful copy of the event engine as it stood before the
//! compiled kernel ([`secflow_sim::CompiledSim`]) landed: every window
//! re-resolves each gate's cell through `Library::by_name`, re-derives
//! the topological order for initial settling, clones the resolved
//! cell behaviour on every gate evaluation, and collects each event's
//! fanout into a fresh `Vec`. `tests/crosstalk_reference.rs` asserts
//! that the kernel's traces and energies equal this engine's bit for
//! bit, with and without extracted parasitics, so a fault in the one
//! shared event loop shows up against a separate implementation.
//!
//! Nothing outside the tests should use this module — the real
//! simulator lives in `secflow-sim`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use secflow_cells::{CellFunction, Library, TruthTable};
use secflow_netlist::{Gate, GateId, GateKind, NetId, Netlist};
use secflow_sim::{LoadModel, SimConfig};

fn is_wddl_register(gate: &Gate) -> bool {
    gate.kind == GateKind::Seq && gate.outputs.len() == 2 && gate.inputs.len() == 2
}

/// Per-gate resolved simulation behaviour (cloned per evaluation, as
/// the original engine did).
#[derive(Debug, Clone)]
enum CellSim {
    Comb {
        tt: TruthTable,
        intrinsic_ps: f64,
        drive_kohm: f64,
    },
    Dff,
    WddlDff,
    Tie(bool),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: u64,
    order: u64,
    net: NetId,
    value: bool,
    gate: Option<(GateId, u64)>,
}

/// What the `sim_kernel` campaign extracts from each window.
pub struct WindowResult {
    /// Supply-current trace, `cycles × samples_per_cycle` bins.
    pub trace: Vec<f64>,
    /// Energy drawn per cycle, in fJ.
    pub cycle_energy_fj: Vec<f64>,
}

struct Engine<'a> {
    nl: &'a Netlist,
    load: &'a LoadModel,
    cfg: &'a SimConfig,
    cells: Vec<CellSim>,
    values: Vec<bool>,
    order: u64,
    gate_seq: Vec<u64>,
    pending: Vec<Option<bool>>,
    queue: BinaryHeap<Reverse<Event>>,
    last_transition: Vec<Option<(u64, bool)>>,
    exempt: Vec<bool>,
    trace: Vec<f64>,
    energy_fj: f64,
}

impl<'a> Engine<'a> {
    fn new(
        nl: &'a Netlist,
        lib: &Library,
        load: &'a LoadModel,
        cfg: &'a SimConfig,
        n_cycles: usize,
    ) -> Self {
        let cells = nl
            .gates()
            .iter()
            .map(|g| {
                let cell = lib
                    .by_name(&g.cell)
                    .unwrap_or_else(|| panic!("unknown cell `{}`", g.cell));
                match cell.function() {
                    CellFunction::Comb(tt) => CellSim::Comb {
                        tt: *tt,
                        intrinsic_ps: cell.intrinsic_delay_ps(),
                        drive_kohm: cell.drive_kohm(),
                    },
                    CellFunction::Dff if is_wddl_register(g) => CellSim::WddlDff,
                    CellFunction::Dff => CellSim::Dff,
                    CellFunction::WddlDff => CellSim::WddlDff,
                    CellFunction::Tie(v) => CellSim::Tie(*v),
                }
            })
            .collect();
        let mut exempt = vec![false; nl.net_count()];
        for &i in nl.inputs() {
            exempt[i.index()] = true;
        }
        Engine {
            nl,
            load,
            cfg,
            cells,
            values: vec![false; nl.net_count()],
            order: 0,
            gate_seq: vec![0; nl.gate_count()],
            pending: vec![None; nl.gate_count()],
            queue: BinaryHeap::new(),
            last_transition: vec![None; nl.net_count()],
            exempt,
            trace: vec![0.0; n_cycles * cfg.samples_per_cycle],
            energy_fj: 0.0,
        }
    }

    fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    fn settle_initial(&mut self) {
        let order = secflow_netlist::topo_order(self.nl).expect("acyclic netlist");
        for gid in order {
            match &self.cells[gid.index()] {
                CellSim::Tie(v) => {
                    let out = self.nl.gate(gid).outputs[0];
                    self.values[out.index()] = *v;
                }
                CellSim::Comb { tt, .. } => {
                    let g = self.nl.gate(gid);
                    let mut idx = 0u32;
                    for (i, &inp) in g.inputs.iter().enumerate() {
                        if self.values[inp.index()] {
                            idx |= 1 << i;
                        }
                    }
                    let v = tt.eval(idx);
                    self.values[g.outputs[0].index()] = v;
                }
                CellSim::Dff | CellSim::WddlDff => {}
            }
        }
    }

    fn inject(&mut self, net: NetId, time: u64, value: bool) {
        self.order += 1;
        self.queue.push(Reverse(Event {
            time,
            order: self.order,
            net,
            value,
            gate: None,
        }));
    }

    fn run_until(&mut self, t_end: u64) {
        while let Some(&Reverse(ev)) = self.queue.peek() {
            if ev.time >= t_end {
                break;
            }
            self.queue.pop();
            if let Some((g, seq)) = ev.gate {
                if self.gate_seq[g.index()] != seq {
                    continue;
                }
                self.pending[g.index()] = None;
            }
            if self.values[ev.net.index()] == ev.value {
                self.last_transition[ev.net.index()] = Some((ev.time, ev.value));
                continue;
            }
            self.values[ev.net.index()] = ev.value;
            self.last_transition[ev.net.index()] = Some((ev.time, ev.value));
            if ev.value && !self.exempt[ev.net.index()] {
                self.record_rise(ev.net, ev.time);
            }
            // The per-event fanout allocation the compiled kernel's
            // CSR replaces.
            let sinks: Vec<GateId> = self.nl.net(ev.net).sinks.iter().map(|s| s.gate).collect();
            for g in sinks {
                self.evaluate_gate(g, ev.time);
            }
        }
    }

    fn evaluate_gate(&mut self, gid: GateId, now: u64) {
        let CellSim::Comb {
            tt,
            intrinsic_ps,
            drive_kohm,
        } = self.cells[gid.index()].clone()
        else {
            return;
        };
        let g = self.nl.gate(gid);
        let out = g.outputs[0];
        let mut idx = 0u32;
        for (i, &inp) in g.inputs.iter().enumerate() {
            if self.values[inp.index()] {
                idx |= 1 << i;
            }
        }
        let v = tt.eval(idx);
        let effective = self.pending[gid.index()].unwrap_or(self.values[out.index()]);
        if v == effective {
            return;
        }
        self.gate_seq[gid.index()] += 1;
        self.pending[gid.index()] = None;
        if v != self.values[out.index()] {
            let delay = self.load.delay_ps(intrinsic_ps, drive_kohm, out).max(1.0) as u64;
            self.order += 1;
            self.pending[gid.index()] = Some(v);
            self.queue.push(Reverse(Event {
                time: now + delay,
                order: self.order,
                net: out,
                value: v,
                gate: Some((gid, self.gate_seq[gid.index()])),
            }));
        }
    }

    fn record_rise(&mut self, net: NetId, time: u64) {
        let mut q_fc = self.load.c_eff_ff[net.index()] * self.cfg.vdd;
        for &(other, cc) in &self.load.couplings[net.index()] {
            if let Some((t2, v2)) = self.last_transition[other.index()] {
                if time.saturating_sub(t2) <= self.cfg.crosstalk_window_ps {
                    if v2 {
                        q_fc -= cc * self.cfg.vdd;
                    } else {
                        q_fc += cc * self.cfg.vdd;
                    }
                }
            }
        }
        let q_fc = q_fc.max(0.0);
        self.energy_fj += q_fc * self.cfg.vdd;

        let r = self.load.drive_kohm[net.index()];
        let c = self.load.c_eff_ff[net.index()];
        let tau_ps = (2.0 * r * c).max(self.cfg.sample_ps());
        let sample_ps = self.cfg.sample_ps();
        let first = (time as f64 / sample_ps) as usize;
        let nbins = (tau_ps / sample_ps).ceil().max(1.0) as usize;
        let per_bin = q_fc / nbins as f64;
        for b in first..(first + nbins).min(self.trace.len()) {
            self.trace[b] += per_bin;
        }
    }

    fn take_energy(&mut self) -> f64 {
        std::mem::take(&mut self.energy_fj)
    }
}

/// One WDDL window simulation with full per-window engine setup — the
/// pre-compiled-kernel cost model (the `LoadModel` is shared by the
/// caller, as the original campaign already did).
pub fn simulate_wddl_window(
    nl: &Netlist,
    lib: &Library,
    load: &LoadModel,
    cfg: &SimConfig,
    input_pairs: &[(NetId, NetId)],
    input_vectors: &[Vec<bool>],
) -> WindowResult {
    let n_cycles = input_vectors.len();
    let mut engine = Engine::new(nl, lib, load, cfg, n_cycles);
    engine.settle_initial();

    let regs: Vec<(NetId, NetId, NetId, NetId)> = nl
        .gate_ids()
        .filter(|&g| is_wddl_register(nl.gate(g)))
        .map(|g| {
            let gate = nl.gate(g);
            (
                gate.inputs[0],
                gate.inputs[1],
                gate.outputs[0],
                gate.outputs[1],
            )
        })
        .collect();
    let mut reg_state: Vec<(bool, bool)> = vec![(false, true); regs.len()];
    let mut cycle_energy_fj = Vec::with_capacity(n_cycles);

    for (c, vector) in input_vectors.iter().enumerate() {
        assert_eq!(vector.len(), input_pairs.len(), "bad vector length");
        let t0 = c as u64 * cfg.period_ps;
        let te = t0 + cfg.eval_start_ps();

        for (_, _, qt, qf) in &regs {
            engine.inject(*qt, t0 + cfg.clk2q_ps, false);
            engine.inject(*qf, t0 + cfg.clk2q_ps, false);
        }
        for &(t, f) in input_pairs {
            engine.inject(t, t0 + cfg.input_delay_ps, false);
            engine.inject(f, t0 + cfg.input_delay_ps, false);
        }
        for (i, (_, _, qt, qf)) in regs.iter().enumerate() {
            engine.inject(*qt, te + cfg.clk2q_ps, reg_state[i].0);
            engine.inject(*qf, te + cfg.clk2q_ps, reg_state[i].1);
        }
        for (&(t, f), &v) in input_pairs.iter().zip(vector) {
            engine.inject(t, te + cfg.input_delay_ps, v);
            engine.inject(f, te + cfg.input_delay_ps, !v);
        }
        engine.run_until(t0 + cfg.period_ps);

        for (i, (dt, df, _, _)) in regs.iter().enumerate() {
            reg_state[i] = (engine.value(*dt), engine.value(*df));
        }
        cycle_energy_fj.push(engine.take_energy());
    }
    WindowResult {
        trace: engine.trace,
        cycle_energy_fj,
    }
}
