//! Gate-level timing and power simulation — the reproduction's
//! substitute for the paper's transistor-level Hspice runs.
//!
//! Two simulators are provided:
//!
//! * [`functional`] — the zero-delay evaluator: a netlist compiled once
//!   and walked over `bool`s, 64-lane words or (in `secflow-lec`) BDDs.
//!   The equivalence checker and the WDDL rail checks run on it, and
//!   its cycle-based [`functional::run_cycles`] is the reference the
//!   event kernel is cross-checked against;
//! * the **event-driven power simulator** ([`LaneSim::run`], and the
//!   one-shot [`simulate`]) — inertial gate delays (so single-ended CMOS
//!   logic *glitches*, a first-order DPA leakage source), a
//!   charge-based supply-current model (every rising output transition
//!   draws `Q = C_load · Vdd` from the supply, shaped over the driver's
//!   RC time constant), crosstalk adjustment for simultaneously
//!   switching coupled neighbours, and an optional Gaussian measurement
//!   noise model.
//!
//! The WDDL driver ([`CycleDriver::Wddl`]) reproduces the paper's
//! two-phase operation: in the first half of each clock cycle every
//! input and register output pair is driven to `(0, 0)` (the
//! pre-discharge wave), in the second half to `(v, ¬v)` (the evaluation
//! wave). Supply-current traces are sampled exactly like the paper's
//! measurements (800 samples per cycle at 125 MHz by default).
//!
//! The event simulator is one kernel ([`kernel`]), generic over a
//! [`LaneWord`] and run one way, [`LaneSim::run`] with a
//! [`CycleDriver`]: [`CompiledSim`]/[`EngineScratch`] run one window at
//! a time (the scalar API), [`BitSim`]/[`BitScratch`] 64 windows per
//! batch, byte-identical per lane, and both build from every
//! [`SimConfig`]. For trace campaigns
//! (thousands of short windows over one netlist), compile once and
//! reuse a scratch per worker thread: the compiled kernel resolves
//! cells, fanout adjacency, loads and the topological order up front
//! and performs zero heap allocations per steady-state window, while
//! staying byte-identical to the one-shot [`simulate`].

pub mod bitslice;
pub mod compiled;
mod config;
mod drivers;
mod error;
pub mod functional;
pub mod kernel;
mod load;
mod noise;
pub mod sta;

pub use bitslice::{BitScratch, BitSim, SimBackend};
pub use compiled::{is_wddl_register, CompiledSim, EngineScratch, LaneSim};
pub use config::SimConfig;
pub use drivers::{simulate, SimResult};
pub use error::SimError;
pub use kernel::{CycleDriver, LaneScratch, LaneWord};
pub use load::LoadModel;
pub use noise::add_gaussian_noise;
