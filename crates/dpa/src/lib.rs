//! Side-channel attack and analysis harness.
//!
//! Implements the evaluation machinery of the paper:
//!
//! * [`attack`] — Differential Power Analysis: differential traces per
//!   key guess, peak and peak-to-peak statistics (Fig. 6 bottom), and
//!   the **MTD** (measurements to disclosure, Fig. 6 top);
//! * [`cpa`] — Correlation Power Analysis, the stronger attacker the
//!   paper's §3 anticipates ("the more powerful an attacker is, the
//!   better his results may be");
//! * [`harness`] — end-to-end trace collection for the Fig. 4 DES
//!   module on a simulated implementation (regular or WDDL): one
//!   campaign loop whose blocks become a trace set or flow straight
//!   into the accumulators;
//! * [`streaming`] — one-pass DPA/CPA/MTD accumulators that sum each
//!   trace once into the class of its predictions, with block-wise
//!   input and incremental checkpoints, byte-identical to the batch
//!   attacks at any thread count or chunking;
//! * [`store`] — out-of-core chunked trace store for million-trace
//!   campaign replay;
//! * [`error`] — the typed analysis/campaign error taxonomy;
//! * [`stats`] — the energy figures of §3: mean energy per cycle,
//!   normalized energy deviation (NED) and normalized standard
//!   deviation (NSD);
//! * [`timing`] — §4.1: idle-cycle visibility in power traces;
//! * [`ema`] — §4.2: a near-field electromagnetic model quantifying
//!   how the 1 µm-spaced differential pairs cancel at millimetre probe
//!   distances;
//! * [`dfa`] — §4.3: clock-glitch injection and the WDDL `(0, 0)`
//!   alarm.

pub mod attack;
pub mod cpa;
pub mod dfa;
pub mod ema;
pub mod error;
pub mod harness;
pub mod stats;
pub mod store;
pub mod streaming;
pub mod timing;
