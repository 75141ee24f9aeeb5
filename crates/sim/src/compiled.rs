//! The build-once compilation of a netlist for the event kernel
//! ([`LaneSim`]), and its one-lane instantiation: [`CompiledSim`] +
//! [`EngineScratch`], one window per run, with the scalar result API.
//!
//! Trace campaigns simulate the same netlist thousands of times, so the
//! kernel splits by lifetime. A [`LaneSim`] is immutable and built once
//! from `(Netlist, Library, LoadModel, SimConfig)`: a cell table
//! resolved per gate (truth table + precomputed event delay, no name
//! lookups after build), CSR adjacency for net fanout, gate inputs and
//! coupling lists, the cached topological order, and dense per-net
//! load/exempt arrays; it is shared read-only across worker threads. A
//! [`LaneScratch`] holds every array the event loop writes and is reset
//! between runs, so steady-state runs allocate nothing (DESIGN.md §8,
//! §18).
//!
//! **Determinism contract:** the kernel is byte-identical
//! (`f64::to_bits`) to the seed per-window engine — the compiled tables
//! are pure reassociations of the same lookups (same sink order, same
//! coupling order, same delay expression), and a reset reproduces a
//! fresh engine's state. `tests/golden_kernel.rs` and
//! `crates/bench/tests/crosstalk_reference.rs` pin this.
//!
//! **Measured and settled cycles.** [`LaneSim::run`] takes the cycles
//! the caller measures (`..` for the whole window) and does charge work
//! only for them; each measured cycle is bit-identical to the same cycle of a
//! whole-window run (DESIGN.md §15). When a driver's cycles provably
//! settle (the settle test of DESIGN.md §16, computed at build), only
//! the measured cycles are event-simulated; the others are evaluated
//! zero-delay and report no rises and no events.

use std::collections::HashMap;
use std::ops::{Bound, Range, RangeBounds};

use secflow_cells::{isop, CellFunction, Library, TruthTable};
use secflow_netlist::{FanoutCsr, Gate, GateId, GateKind, NetId, Netlist};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::kernel::{LaneScratch, LaneWord};
use crate::load::{check_pins, LoadModel};

/// True if `gate` is a WDDL register (sequential, dual-rail: two
/// inputs `(Dt, Df)` and two outputs `(Qt, Qf)`).
pub fn is_wddl_register(gate: &Gate) -> bool {
    gate.kind == GateKind::Seq && gate.outputs.len() == 2 && gate.inputs.len() == 2
}

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
    /// A register, single-ended or WDDL (driven by the cycle driver).
    Reg,
    /// Constant driver.
    Tie(bool),
}

/// A build-once, immutable compilation of
/// `(Netlist, Library, LoadModel, SimConfig)` for the event kernel at
/// lane word `W`. Build it once per campaign, share it across threads
/// (`&LaneSim` is `Sync`), and pair it with one
/// [`LaneScratch`] per worker.
#[derive(Debug, Clone)]
pub struct LaneSim<W: LaneWord> {
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
    /// Wider words only: CSR offsets into `cubes`, `n_gates + 1`
    /// entries.
    pub(crate) cube_offsets: Vec<u32>,
    /// Wider words only: `(positive literal mask, negative literal
    /// mask)` over each gate's input pins, from an irredundant
    /// sum-of-products cover of its truth table ([`isop`]); `out = OR
    /// over cubes of AND over literals`.
    pub(crate) cubes: Vec<(u8, u8)>,
    /// How long before the first measured cycle last-transition
    /// tracking starts, in ps: the longest deposit span (a rise that
    /// starts earlier deposits nothing in the cycle) plus the crosstalk
    /// window (a transition that much before such a rise does not
    /// couple into it).
    pub(crate) lookback_ps: u64,
    _lanes: std::marker::PhantomData<W>,
}

/// The one-lane kernel: one window per run.
pub type CompiledSim = LaneSim<bool>;
/// The one-lane kernel's scratch, with the scalar result API.
pub type EngineScratch = LaneScratch<bool>;

impl<W: LaneWord> LaneSim<W> {
    /// Compiles `nl` against `lib`, `load` and `cfg`.
    ///
    /// Each distinct cell name is resolved exactly once
    /// ([`Library::index_of`]); gates index the resolved table
    /// thereafter. Every width accepts the same netlists and
    /// configurations and fails with the same typed errors, so backend
    /// selection never changes error behaviour.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownCell`] if a gate references a cell missing
    /// from `lib`; [`SimError::PinCount`] if a gate's pin count differs
    /// from its cell's; [`SimError::CombinationalCycle`] if no
    /// evaluation order exists.
    pub fn build(
        nl: &Netlist,
        lib: &Library,
        load: &LoadModel,
        cfg: &SimConfig,
    ) -> Result<Self, SimError> {
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
            check_pins(g, cell)?;
            let out = g.outputs.first().copied().unwrap_or(NetId(u32::MAX));
            cells.push(match cell.function() {
                CellFunction::Comb(tt) => CellKind::Comb {
                    tt: *tt,
                    delay_ps: load
                        .delay_ps(cell.intrinsic_delay_ps(), cell.drive_kohm(), out)
                        .max(1.0) as u64,
                },
                CellFunction::Dff | CellFunction::WddlDff => CellKind::Reg,
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

        let se_regs = crate::functional::registers(nl);
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

        let max_nbins = nbins.iter().copied().max().unwrap_or(1);
        let lookback_ps =
            (f64::from(max_nbins) * sample_ps).ceil() as u64 + cfg.crosstalk_window_ps;
        let mut comp = LaneSim {
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
            cube_offsets: Vec::new(),
            cubes: Vec::new(),
            lookback_ps,
            _lanes: std::marker::PhantomData,
        };
        let arrival = comp.arrivals();
        let launch = cfg.clk2q_ps.max(cfg.input_delay_ps);
        comp.settles_se = comp.settles_after(&arrival, launch);
        comp.settles_wddl = comp.settles_after(&arrival, cfg.eval_start_ps() + launch);
        if W::LANES > 1 {
            comp.compile_cubes();
        }
        Ok(comp)
    }

    /// Builds the per-gate word programs that evaluate every lane at
    /// once.
    fn compile_cubes(&mut self) {
        self.cube_offsets.push(0);
        for cell in &self.cells {
            if let CellKind::Comb { tt, .. } = *cell {
                let lo = self.cubes.len();
                let cover = isop(&tt);
                self.cubes
                    .extend(cover.cubes().iter().map(|c| (c.pos_mask(), c.neg_mask())));
                // The word program must compute exactly the truth table
                // it replaces, for every input pattern of this gate.
                for idx in 0..(1u32 << tt.vars()) {
                    let got = self.cubes[lo..].iter().any(|&(p, n)| {
                        idx & u32::from(p) == u32::from(p) && idx & u32::from(n) == 0
                    });
                    debug_assert_eq!(got, tt.eval(idx), "ISOP cover diverges from tt");
                    let _ = got;
                }
            }
            self.cube_offsets.push(self.cubes.len() as u32);
        }
    }

    /// True if single-ended runs event-simulate only the measured
    /// cycles: every single-ended cycle provably settles before the
    /// next clock edge (DESIGN.md §16). Other cycles then report no
    /// rises and no kernel work.
    pub fn settles_single_ended(&self) -> bool {
        self.settles_se
    }

    /// The same as [`Self::settles_single_ended`] for WDDL runs.
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
        if cfg.clk2q_ps == 0 {
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

/// The scalar result API of a one-lane run.
impl EngineScratch {
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
        &self.cycle_energy
    }

    /// Rising-transition count per simulated cycle, measured or not;
    /// 0 for a settled cycle the kernel did not event-simulate.
    pub fn cycle_rises(&self) -> &[u64] {
        &self.cycle_rises
    }

    /// Primary-output values at the end of `cycle`.
    pub fn outputs(&self, cycle: usize) -> &[bool] {
        &self.outputs[cycle * self.n_outputs..(cycle + 1) * self.n_outputs]
    }

    /// Per-cycle WDDL DFA alarm counts (empty for single-ended runs).
    pub fn wddl_alarms(&self) -> &[usize] {
        &self.wddl_alarms
    }

    /// Moves the last window's results into an owned
    /// [`crate::SimResult`], leaving the scratch reusable. The
    /// one-shot [`crate::simulate`] driver uses this; campaign code
    /// reads the borrow accessors instead to stay allocation-free.
    pub fn take_sim_result(&mut self) -> crate::SimResult {
        let outputs_per_cycle = self
            .outputs
            .chunks(self.n_outputs.max(1))
            .map(<[bool]>::to_vec)
            .collect();
        crate::SimResult {
            trace: std::mem::take(&mut self.trace),
            cycle_energy_fj: std::mem::take(&mut self.cycle_energy),
            cycle_rises: std::mem::take(&mut self.cycle_rises),
            outputs_per_cycle,
            wddl_alarms: std::mem::take(&mut self.wddl_alarms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CycleDriver;
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

        let se = CycleDriver::SingleEnded;
        let mut fresh = EngineScratch::new();
        comp.run(&mut fresh, se, &vectors, true, ..);
        let reference: Vec<u64> = fresh.trace().iter().map(|x| x.to_bits()).collect();
        let ref_energy: Vec<u64> = fresh
            .cycle_energy_fj()
            .iter()
            .map(|x| x.to_bits())
            .collect();

        // Dirty the scratch with a different window, then re-run.
        let mut reused = EngineScratch::new();
        comp.run(
            &mut reused,
            se,
            &[vec![true, false], vec![true, true]],
            true,
            1..2,
        );
        comp.run(&mut reused, se, &vectors, true, ..);
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
