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
    /// A campaign's simulated ciphertext disagrees with the reference
    /// model: under this configuration the implementation does not
    /// compute its function (e.g. the evaluation phase is too short
    /// for the logic to settle before the registers capture).
    CiphertextMismatch {
        /// Index of the lowest failing encryption of the campaign.
        encryption: usize,
        /// The simulated ciphertext `(CL, CR)`.
        simulated: (u8, u8),
        /// The model's ciphertext `(CL, CR)`.
        expected: (u8, u8),
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
            SimError::CiphertextMismatch {
                encryption,
                simulated,
                expected,
            } => write!(
                f,
                "simulated ciphertext {simulated:?} disagrees with the model's {expected:?} \
                 at encryption {encryption}"
            ),
        }
    }
}

impl std::error::Error for SimError {}
