use std::fmt;

/// Errors produced while building, validating or parsing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is driven by more than one gate output or primary input.
    MultipleDrivers {
        /// Name of the offending net.
        net: String,
    },
    /// A net has no driver (and is not a primary input).
    NoDriver {
        /// Name of the offending net.
        net: String,
    },
    /// A primary output net does not exist or was never driven.
    DanglingOutput {
        /// Name of the offending net.
        net: String,
    },
    /// The combinational portion of the netlist contains a cycle.
    CombinationalCycle {
        /// Instance name of a gate on the cycle.
        gate: String,
    },
    /// Two gates share the same instance name.
    DuplicateGateName {
        /// The duplicated instance name.
        name: String,
    },
    /// Two nets share the same name.
    DuplicateNetName {
        /// The duplicated net name.
        name: String,
    },
    /// A gate's input or output count differs from its library cell's.
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
    /// A parse error in the structural Verilog reader.
    Parse {
        /// 1-based line number of the error.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net `{net}` has multiple drivers")
            }
            NetlistError::NoDriver { net } => write!(f, "net `{net}` has no driver"),
            NetlistError::DanglingOutput { net } => {
                write!(f, "primary output `{net}` is dangling")
            }
            NetlistError::CombinationalCycle { gate } => {
                write!(f, "combinational cycle through gate `{gate}`")
            }
            NetlistError::DuplicateGateName { name } => {
                write!(f, "duplicate gate instance name `{name}`")
            }
            NetlistError::DuplicateNetName { name } => {
                write!(f, "duplicate net name `{name}`")
            }
            NetlistError::PinCount {
                gate,
                cell,
                pins,
                got,
                expected,
            } => write!(
                f,
                "gate `{gate}` has {got} {pins}s but cell `{cell}` has {expected}"
            ),
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}
