//! The 64-lane instantiation of the event kernel: [`BitSim`] +
//! [`BitScratch`], 64 campaign windows per `u64` lane word.
//!
//! A campaign simulates the *same* compiled netlist thousands of times
//! with different stimuli. [`BitSim`] packs 64 windows into the bit
//! lanes of `u64` words and evaluates every gate for all 64 lanes at
//! once with branch-free word operations (an irredundant
//! sum-of-products program from [`secflow_cells::isop`]). It runs the
//! same lane-masked event loop as [`CompiledSim`] ([`crate::kernel`]),
//! so each lane is **byte-identical** (`f64::to_bits`) to a one-lane run
//! of its window (DESIGN.md §11, §18); `tests/bitslice_cross_check.rs`
//! and `tests/measured_cycle.rs` pin that contract.
//!
//! Unlike [`crate::EngineScratch`], a [`BitScratch`] reports per-cycle
//! rise counts for the measured cycles only and keeps one total for the
//! rest ([`crate::LaneScratch::total_rises`]).

#[cfg(doc)]
use crate::compiled::CompiledSim;
use crate::compiled::LaneSim;
use crate::kernel::LaneScratch;

/// Which lane width of the event kernel a campaign runs on, a speed
/// choice only: both build from every `SimConfig` and give
/// byte-identical traces. Campaigns choose one through
/// `DesTarget::with_backend` (`secflow-dpa`), and the obs counters
/// report each width under its own family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimBackend {
    /// The event kernel at one lane, one window per run
    /// ([`CompiledSim`]).
    Event,
    /// The event kernel at 64 lanes, 64 windows per batch ([`BitSim`]);
    /// byte-identical to `Event` per lane.
    Bitslice,
}

/// The 64-lane kernel: up to 64 windows per batch.
pub type BitSim = LaneSim<u64>;
/// The 64-lane kernel's scratch; per-lane results are read back through
/// the lane accessors.
pub type BitScratch = LaneScratch<u64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{CompiledSim, EngineScratch};
    use crate::config::SimConfig;
    use crate::kernel::CycleDriver;
    use crate::load::LoadModel;
    use secflow_cells::Library;
    use secflow_netlist::{GateKind, Netlist};

    fn fixture() -> (Netlist, Library, SimConfig) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w = nl.add_net("w");
        let y = nl.add_net("y");
        nl.add_gate("g0", "AND2", GateKind::Comb, vec![a, b], vec![w]);
        nl.add_gate("g1", "INV", GateKind::Comb, vec![w], vec![y]);
        nl.mark_output(y);
        let cfg = SimConfig {
            samples_per_cycle: 40,
            ..Default::default()
        };
        (nl, Library::lib180(), cfg)
    }

    /// Packs per-lane boolean vectors into lane words.
    fn pack(cycles: &[Vec<Vec<bool>>]) -> (Vec<Vec<u64>>, u64) {
        let lanes = cycles.len();
        let n_cycles = cycles[0].len();
        let n_inputs = cycles[0][0].len();
        let mut packed = vec![vec![0u64; n_inputs]; n_cycles];
        for (l, win) in cycles.iter().enumerate() {
            for (c, v) in win.iter().enumerate() {
                for (k, &bit) in v.iter().enumerate() {
                    if bit {
                        packed[c][k] |= 1 << l;
                    }
                }
            }
        }
        (packed, if lanes == 64 { !0 } else { (1u64 << lanes) - 1 })
    }

    #[test]
    fn lanes_match_scalar_event_kernel_bit_for_bit() {
        let (nl, lib, cfg) = fixture();
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let comp = CompiledSim::build(&nl, &lib, &load, &cfg).unwrap();
        let sim = BitSim::build(&nl, &lib, &load, &cfg).unwrap();

        // 7 lanes (ragged), 3 cycles, all 4 input combinations cycled.
        let windows: Vec<Vec<Vec<bool>>> = (0..7u32)
            .map(|l| {
                (0..3u32)
                    .map(|c| vec![(l + c) & 1 == 1, (l + c) & 2 == 2])
                    .collect()
            })
            .collect();
        let (packed, active) = pack(&windows);
        let mut bs = BitScratch::new();
        sim.run(&mut bs, CycleDriver::SingleEnded, &packed, active, ..);

        let mut es = EngineScratch::new();
        for (l, win) in windows.iter().enumerate() {
            comp.run(&mut es, CycleDriver::SingleEnded, win, true, ..);
            let want: Vec<u64> = es.trace().iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = bs.lane_trace(l).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "trace lane {l}");
            for c in 0..3 {
                assert_eq!(
                    bs.lane_energy_fj(c, l).to_bits(),
                    es.cycle_energy_fj()[c].to_bits(),
                    "energy lane {l} cycle {c}"
                );
                assert_eq!(bs.lane_rises(c, l), es.cycle_rises()[c], "rises lane {l}");
                assert_eq!(bs.output_bit(c, 0, l), es.outputs(c)[0], "out lane {l}");
            }
        }
    }

    /// `q = DFF(INV(a))`: a dead lane's all-zero inputs still make the
    /// register load 1 after the first cycle, so any driver that
    /// ignored `active` would count that lane's rises.
    fn registered_fixture() -> (Netlist, Library, SimConfig) {
        let mut nl = Netlist::new("r");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        let q = nl.add_net("q");
        nl.add_gate("g0", "INV", GateKind::Comb, vec![a], vec![y]);
        nl.add_gate("r0", "DFF", GateKind::Seq, vec![y], vec![q]);
        nl.mark_output(q);
        let cfg = SimConfig {
            samples_per_cycle: 40,
            ..Default::default()
        };
        (nl, Library::lib180(), cfg)
    }

    #[test]
    fn dead_lanes_contribute_nothing() {
        let (nl, lib, cfg) = registered_fixture();
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let sim = BitSim::build(&nl, &lib, &load, &cfg).unwrap();
        // One live lane toggling its input; 63 dead lanes.
        let packed = vec![vec![1u64], vec![0u64], vec![1u64], vec![0u64]];
        for driver in [CycleDriver::SingleEnded, CycleDriver::GlitchFree] {
            let mut bs = BitScratch::new();
            sim.run(&mut bs, driver, &packed, 1, ..);
            for l in 1..64 {
                for c in 0..packed.len() {
                    assert_eq!(bs.lane_rises(c, l), 0, "dead lane {l} rose ({driver:?})");
                    assert_eq!(bs.lane_energy_fj(c, l), 0.0);
                }
                assert!(bs.lane_trace(l).iter().all(|&x| x == 0.0));
            }
            let live: u64 = (0..packed.len()).map(|c| bs.lane_rises(c, 0)).sum();
            assert!(live > 0, "live lane never rose ({driver:?})");
            assert_eq!(
                bs.total_rises(),
                live,
                "dead lanes in the total ({driver:?})"
            );
            assert!(bs.lane_trace(0).iter().sum::<f64>() > 0.0);
        }
    }
}
