//! Logic equivalence checking — the reproduction's stand-in for
//! Formality / Verplex in the paper's verification step.
//!
//! Two engines are provided, one entry point each:
//!
//! * [`check_equiv_with_parity`] — formally exact combinational
//!   equivalence over a reduced ordered BDD package ([`Bdd`]: unique
//!   table + ITE with memoization);
//! * [`check_equiv_random_with_parity`] — 64-bit-parallel random
//!   simulation for designs whose BDDs would blow up (finds
//!   counterexamples only, it cannot prove equivalence).
//!
//! Both walk each netlist with the zero-delay evaluator of
//! `secflow_sim::functional`, compiled once per netlist: the BDD
//! engine over BDD nodes, the random engine over 64-pattern words.
//!
//! The secure design flow uses this to verify the fat netlist against
//! the original netlist (cell substitution correctness): primary
//! inputs are matched by name, registers by order, and primary outputs
//! by position with an optional polarity vector (the fat abstraction
//! stores output polarity separately, because WDDL implements
//! inversion by swapping the two rails).

mod bdd;
mod check;

pub use bdd::{Bdd, BddRef};
pub use check::{check_equiv_random_with_parity, check_equiv_with_parity, EquivReport, LecError};
