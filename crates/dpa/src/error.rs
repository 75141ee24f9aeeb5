//! Typed errors for the attack/analysis layer.
//!
//! The PR 4 taxonomy converted every input-dependent panic in the
//! *flow* stages into `FlowError` variants with stable exit codes
//! 10–19. The attack statistics sit after the flow and have no stage
//! of their own, so their input-contract failures — inconsistent
//! trace lengths, an empty key-guess space, a zero MTD step — get
//! their own enum here and surface under the `analysis` pseudo-stage
//! with [`ANALYSIS_EXIT_CODE`], matching what the experiment binaries
//! already use for post-flow failures.

use std::fmt;

/// Exit code for failures in post-flow analysis (energy statistics,
/// attacks, MTD scans) that have no `secflow_core::Stage` of their
/// own. Mirrored by `secflow_bench::ANALYSIS_EXIT_CODE`.
pub const ANALYSIS_EXIT_CODE: i32 = 20;

/// An input-contract violation in the attack/analysis layer.
///
/// These were `assert!`s before the streaming refactor; they are
/// reachable from bad *caller* input (a malformed trace dump, a
/// zero-step scan request), so they follow the typed-error contract
/// rather than panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The attack was asked to evaluate zero key guesses.
    NoKeyGuesses,
    /// The attack was asked to evaluate more key guesses than the 256
    /// that `u8` key labels can name.
    TooManyKeyGuesses {
        /// The requested number of key guesses.
        n_keys: usize,
    },
    /// An MTD scan's correct key lies outside its key guesses.
    CorrectKeyOutOfRange {
        /// The correct key.
        correct_key: u8,
        /// The number of key guesses, `0..n_keys`.
        n_keys: usize,
    },
    /// An MTD scan was requested with `step == 0`.
    ZeroStep,
    /// A trace's length disagrees with the first trace's.
    InconsistentTraceLength {
        /// Index of the offending trace (within the stream).
        index: usize,
        /// Its length.
        got: usize,
        /// The length established by the first trace.
        expect: usize,
    },
}

impl AnalysisError {
    /// Stable variant name, mirrored into structured error reports.
    pub fn kind(&self) -> &'static str {
        match self {
            AnalysisError::NoKeyGuesses => "NoKeyGuesses",
            AnalysisError::TooManyKeyGuesses { .. } => "TooManyKeyGuesses",
            AnalysisError::CorrectKeyOutOfRange { .. } => "CorrectKeyOutOfRange",
            AnalysisError::ZeroStep => "ZeroStep",
            AnalysisError::InconsistentTraceLength { .. } => "InconsistentTraceLength",
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoKeyGuesses => {
                write!(f, "attack needs at least one key guess (n_keys == 0)")
            }
            AnalysisError::TooManyKeyGuesses { n_keys } => write!(
                f,
                "attack asked for {n_keys} key guesses; at most 256 fit u8 key labels"
            ),
            AnalysisError::CorrectKeyOutOfRange {
                correct_key,
                n_keys,
            } => write!(
                f,
                "correct key {correct_key} is outside the key guesses 0..{n_keys}"
            ),
            AnalysisError::ZeroStep => {
                write!(f, "MTD scan step must be at least 1")
            }
            AnalysisError::InconsistentTraceLength { index, got, expect } => write!(
                f,
                "trace {index} has {got} samples, expected {expect} \
                 (all traces in a set must have equal length)"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Any failure of a campaign that fuses simulation, analysis, and the
/// optional trace store: each leg keeps its own typed error.
#[derive(Debug)]
pub enum CampaignError {
    /// The simulation kernel rejected the target or configuration, or
    /// a simulated ciphertext disagreed with the model.
    Sim(secflow_sim::SimError),
    /// An analysis input contract was violated.
    Analysis(AnalysisError),
    /// The trace store failed to write or read.
    Store(crate::store::StoreError),
}

impl From<secflow_sim::SimError> for CampaignError {
    fn from(e: secflow_sim::SimError) -> Self {
        CampaignError::Sim(e)
    }
}

impl From<AnalysisError> for CampaignError {
    fn from(e: AnalysisError) -> Self {
        CampaignError::Analysis(e)
    }
}

impl From<crate::store::StoreError> for CampaignError {
    fn from(e: crate::store::StoreError) -> Self {
        CampaignError::Store(e)
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sim(e) => write!(f, "campaign simulation: {e}"),
            CampaignError::Analysis(e) => write!(f, "campaign analysis: {e}"),
            CampaignError::Store(e) => write!(f, "campaign store: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Sim(e) => Some(e),
            CampaignError::Analysis(e) => Some(e),
            CampaignError::Store(e) => Some(e),
        }
    }
}
