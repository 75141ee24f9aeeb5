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
//! rest ([`BitScratch::total_rises`]). It records no waveforms:
//! [`BitSim::build`] refuses [`SimConfig::record_waveform`].

use std::ops::RangeBounds;

use secflow_netlist::NetId;

#[cfg(doc)]
use crate::compiled::CompiledSim;
use crate::compiled::LaneSim;
#[cfg(doc)]
use crate::config::SimConfig;
use crate::kernel::{CycleDriver, LaneScratch};

/// Which simulation kernel a campaign uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// The event kernel at one lane, one window per run
    /// ([`CompiledSim`]).
    #[default]
    Event,
    /// The event kernel at 64 lanes, 64 windows per batch ([`BitSim`]);
    /// byte-identical to `Event` per lane.
    Bitslice,
}

impl SimBackend {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            SimBackend::Event => "event",
            SimBackend::Bitslice => "bitslice",
        }
    }
}

impl std::fmt::Display for SimBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SimBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "event" => Ok(SimBackend::Event),
            "bitslice" => Ok(SimBackend::Bitslice),
            other => Err(format!(
                "unknown sim backend `{other}` (expected `event` or `bitslice`)"
            )),
        }
    }
}

/// The 64-lane kernel: up to 64 windows per batch.
pub type BitSim = LaneSim<u64>;
/// The 64-lane kernel's scratch; per-lane results are read back through
/// the lane accessors.
pub type BitScratch = LaneScratch<u64>;

impl BitSim {
    /// Simulates up to 64 single-ended windows at once, accounting
    /// charge for the `measured` cycles (and event-simulating only them
    /// if [`Self::settles_single_ended`]). `vectors` is one packed word
    /// per primary input per cycle (bit `l` of word `k` is lane `l`'s
    /// value of input `k`); `active` masks the live lanes — dead lanes
    /// receive no injections and contribute nothing.
    ///
    /// # Panics
    ///
    /// Panics if any cycle's word count differs from the input count.
    pub fn run_single_ended(
        &self,
        scratch: &mut BitScratch,
        vectors: &[Vec<u64>],
        active: u64,
        measured: impl RangeBounds<usize>,
    ) {
        self.run(scratch, CycleDriver::SingleEnded, vectors, active, measured);
    }

    /// Simulates up to 64 WDDL two-phase windows at once, accounting
    /// charge for the `measured` cycles (and event-simulating only them
    /// if [`Self::settles_wddl`]); `vectors` is one packed word per
    /// input *pair* per cycle.
    ///
    /// # Panics
    ///
    /// Panics if any cycle's word count differs from the pair count.
    pub fn run_wddl(
        &self,
        scratch: &mut BitScratch,
        input_pairs: &[(NetId, NetId)],
        vectors: &[Vec<u64>],
        active: u64,
        measured: impl RangeBounds<usize>,
    ) {
        let driver = CycleDriver::Wddl(input_pairs);
        self.run(scratch, driver, vectors, active, measured);
    }

    /// Simulates up to 64 windows under the idealized glitch-free power
    /// model, accounting charge for the `measured` cycles of the
    /// `active` lanes.
    ///
    /// # Panics
    ///
    /// Panics if any cycle's word count differs from the input count.
    pub fn run_single_ended_glitch_free(
        &self,
        scratch: &mut BitScratch,
        vectors: &[Vec<u64>],
        active: u64,
        measured: impl RangeBounds<usize>,
    ) {
        self.run(scratch, CycleDriver::GlitchFree, vectors, active, measured);
    }
}

impl BitScratch {
    /// One lane's samples of one measured cycle of the last batch.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` was not measured.
    pub fn cycle_trace(&self, cycle: usize, lane: usize) -> Vec<f64> {
        self.lane_cycle_trace(cycle, lane)
    }

    /// One lane's supply energy of one cycle, in fJ; 0 for cycles
    /// that were not measured.
    pub fn cycle_energy_fj(&self, cycle: usize, lane: usize) -> f64 {
        self.lane_energy_fj(cycle, lane)
    }

    /// One lane's rising-transition count of one cycle; 0 for cycles
    /// that were not measured (their rises are in [`Self::total_rises`]
    /// only).
    pub fn cycle_rises(&self, cycle: usize, lane: usize) -> u64 {
        self.cycle_rises[cycle * 64 + lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{CompiledSim, EngineScratch};
    use crate::config::SimConfig;
    use crate::error::SimError;
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
        sim.run_single_ended(&mut bs, &packed, active, ..);

        let mut es = EngineScratch::new();
        for (l, win) in windows.iter().enumerate() {
            comp.run_single_ended(&mut es, win, ..);
            let want: Vec<u64> = es.trace().iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = bs.lane_trace(l).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "trace lane {l}");
            for c in 0..3 {
                assert_eq!(
                    bs.cycle_energy_fj(c, l).to_bits(),
                    es.cycle_energy_fj()[c].to_bits(),
                    "energy lane {l} cycle {c}"
                );
                assert_eq!(bs.cycle_rises(c, l), es.cycle_rises()[c], "rises lane {l}");
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
        for glitch_free in [false, true] {
            let mut bs = BitScratch::new();
            if glitch_free {
                sim.run_single_ended_glitch_free(&mut bs, &packed, 1, ..);
            } else {
                sim.run_single_ended(&mut bs, &packed, 1, ..);
            }
            for l in 1..64 {
                for c in 0..packed.len() {
                    assert_eq!(
                        bs.cycle_rises(c, l),
                        0,
                        "dead lane {l} rose (gf={glitch_free})"
                    );
                    assert_eq!(bs.cycle_energy_fj(c, l), 0.0);
                }
                assert!(bs.lane_trace(l).iter().all(|&x| x == 0.0));
            }
            let live: u64 = (0..packed.len()).map(|c| bs.cycle_rises(c, 0)).sum();
            assert!(live > 0, "live lane never rose (gf={glitch_free})");
            assert_eq!(
                bs.total_rises(),
                live,
                "dead lanes in the total (gf={glitch_free})"
            );
            assert!(bs.lane_trace(0).iter().sum::<f64>() > 0.0);
        }
    }

    #[test]
    fn record_waveform_is_a_typed_unsupported_error() {
        let (nl, lib, mut cfg) = fixture();
        cfg.record_waveform = true;
        let load = LoadModel::try_build(&nl, &lib, None).unwrap();
        let err = BitSim::build(&nl, &lib, &load, &cfg).unwrap_err();
        assert!(matches!(err, SimError::UnsupportedConfig { .. }), "{err:?}");
    }

    #[test]
    fn backend_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(SimBackend::from_str("event").unwrap(), SimBackend::Event);
        assert_eq!(
            SimBackend::from_str("bitslice").unwrap(),
            SimBackend::Bitslice
        );
        assert!(SimBackend::from_str("spice").is_err());
        assert_eq!(SimBackend::Bitslice.to_string(), "bitslice");
        assert_eq!(SimBackend::default(), SimBackend::Event);
    }
}
