//! Typed simulation errors.

use std::fmt;

/// Why a netlist could not be compiled for simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A gate references a cell the library does not contain.
    UnknownCell {
        /// Instance name of the offending gate.
        gate: String,
        /// The unresolved cell name.
        cell: String,
    },
    /// A gate's input or output count differs from its cell's.
    PinCount {
        /// Instance name of the offending gate.
        gate: String,
        /// The gate's cell.
        cell: String,
        /// `"input"` or `"output"`.
        pins: &'static str,
        /// The gate's pin count.
        got: usize,
        /// The cell's pin count.
        expected: usize,
    },
    /// The netlist's combinational portion contains a cycle, so no
    /// evaluation order exists.
    CombinationalCycle {
        /// Module name of the offending netlist.
        netlist: String,
    },
    /// The requested configuration is not supported by the selected
    /// simulation backend.
    UnsupportedConfig {
        /// The backend that rejected the configuration.
        backend: String,
        /// What is unsupported, and which backend to use instead.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownCell { gate, cell } => {
                write!(f, "gate `{gate}` references unknown cell `{cell}`")
            }
            SimError::PinCount {
                gate,
                cell,
                pins,
                got,
                expected,
            } => write!(
                f,
                "gate `{gate}` has {got} {pins}s but cell `{cell}` has {expected}"
            ),
            SimError::CombinationalCycle { netlist } => {
                write!(f, "netlist `{netlist}` has a combinational cycle")
            }
            SimError::UnsupportedConfig { backend, detail } => {
                write!(f, "sim backend `{backend}` does not support this config: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}
