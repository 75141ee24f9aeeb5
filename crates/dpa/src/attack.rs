//! Differential Power Analysis on a set of supply-current traces.
//!
//! Kocher's difference of means, computed as a difference of
//! *conditional* means: the traces are summed once per selection-bit
//! signature class, and each key guess's partition sums are combined
//! from those class sums (see [`crate::streaming`]). The statistics
//! are byte-identical at any thread count.
//!
//! The batch entry points here are thin wrappers over
//! [`crate::streaming::DpaStream`] — the whole slice is pushed as one
//! block — so the batch and streaming paths share one accumulator
//! implementation and agree bit for bit by construction.

use crate::error::AnalysisError;
use crate::streaming::{check_correct_key, DpaStream};

/// Per-key-guess attack statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyGuessResult {
    /// The key guess.
    pub key: u8,
    /// Maximum absolute value of the differential trace.
    pub peak: f64,
    /// Peak-to-peak value of the differential trace (the quantity of
    /// Fig. 6 bottom).
    pub p2p: f64,
}

/// The outcome of a DPA over all key guesses.
#[derive(Debug, Clone, PartialEq)]
pub struct DpaResult {
    /// Statistics per key guess, indexed by key.
    pub guesses: Vec<KeyGuessResult>,
    /// The key with the largest differential peak.
    pub best_key: u8,
    /// Ratio of the best peak to the second-best peak (1.0 = no
    /// discrimination).
    pub margin: f64,
}

impl DpaResult {
    /// True if `key` is the unique maximizer with a margin of at least
    /// `min_margin`.
    pub fn discloses(&self, key: u8, min_margin: f64) -> bool {
        self.best_key == key && self.margin >= min_margin
    }
}

/// Best key and margin over a full set of guesses (an empty guess set
/// degenerates to key 0 with zero margin rather than panicking).
pub(crate) fn finalize(guesses: Vec<KeyGuessResult>) -> DpaResult {
    let (best_key, best_peak) = guesses
        .iter()
        .max_by(|a, b| a.peak.total_cmp(&b.peak))
        .map_or((0, 0.0), |g| (g.key, g.peak));
    let second = guesses
        .iter()
        .filter(|g| g.key != best_key)
        .map(|g| g.peak)
        .fold(0.0f64, f64::max);
    let margin = if second > 0.0 {
        best_peak / second
    } else {
        f64::INFINITY
    };
    DpaResult {
        guesses,
        best_key,
        margin,
    }
}

/// Runs a DPA over `traces` with the given selection function.
///
/// `select(key, trace_index)` is the predicted selection bit `D(K, C)`
/// for the trace's known ciphertext under key guess `key`.
///
/// # Errors
///
/// [`AnalysisError::NoKeyGuesses`] if `n_keys == 0`;
/// [`AnalysisError::TooManyKeyGuesses`] if `n_keys > 256`;
/// [`AnalysisError::InconsistentTraceLength`] if traces have unequal
/// lengths.
pub fn dpa_attack(
    traces: &[Vec<f64>],
    n_keys: usize,
    select: impl Fn(u8, usize) -> bool + Sync,
) -> Result<DpaResult, AnalysisError> {
    let _span = secflow_obs::span("dpa.attack");
    secflow_obs::add(secflow_obs::Counter::DpaGuesses, n_keys as u64);
    let mut stream = DpaStream::new(n_keys)?;
    stream.push_block(traces, |k, i| select(k, i))?;
    Ok(stream.result())
}

/// One point of the MTD scan: attack statistics after the first `n`
/// traces.
#[derive(Debug, Clone, PartialEq)]
pub struct MtdPoint {
    /// Number of traces used.
    pub traces: usize,
    /// Whether the correct key was the unique best guess.
    pub disclosed: bool,
    /// Peak of the correct key's differential trace.
    pub correct_peak: f64,
    /// Largest peak among wrong guesses.
    pub best_wrong_peak: f64,
}

/// The result of an MTD scan.
#[derive(Debug, Clone, PartialEq)]
pub struct MtdScan {
    /// Scan points at each checkpoint.
    pub points: Vec<MtdPoint>,
    /// Measurements to disclosure: the smallest checkpoint from which
    /// the correct key stays the best guess through the end of the
    /// scan; `None` if the key is not disclosed.
    pub mtd: Option<usize>,
}

/// Scans disclosure as a function of trace count (Fig. 6 top):
/// evaluates the attack at every `step` traces and reports the MTD.
///
/// # Errors
///
/// [`AnalysisError::ZeroStep`] if `step == 0`;
/// [`AnalysisError::CorrectKeyOutOfRange`] if `correct_key >= n_keys`;
/// plus the [`dpa_attack`] input errors.
pub fn mtd_scan(
    traces: &[Vec<f64>],
    n_keys: usize,
    correct_key: u8,
    step: usize,
    select: impl Fn(u8, usize) -> bool + Sync,
) -> Result<MtdScan, AnalysisError> {
    let _span = secflow_obs::span("dpa.mtd_scan");
    secflow_obs::add(secflow_obs::Counter::DpaGuesses, n_keys as u64);
    let mut stream = DpaStream::with_step(n_keys, step)?;
    check_correct_key(n_keys, correct_key)?;
    stream.push_block(traces, |k, i| select(k, i))?;
    Ok(stream.mtd(correct_key))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic leakage: sample 3 leaks the selection bit under key 5.
    fn synthetic_traces(n: usize, leak: f64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut traces = Vec::new();
        let mut data = Vec::new();
        let mut state = 99u64;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = ((state >> 33) & 0x3f) as u8;
            data.push(c);
            let bit = sel(5, c);
            let mut t = vec![1.0; 8];
            t[3] += if bit { leak } else { 0.0 };
            // Deterministic pseudo-noise.
            t[5] += ((state >> 17) & 7) as f64 * 0.01;
            traces.push(t);
        }
        (traces, data)
    }

    /// The DES S-box guarantees the selection bits of distinct keys
    /// decorrelate — no ghost peaks.
    fn sel(key: u8, c: u8) -> bool {
        secflow_crypto::des::sbox(0, (c ^ key) & 63) & 1 == 1
    }

    #[test]
    fn attack_recovers_leaky_key() {
        let (traces, data) = synthetic_traces(400, 0.5);
        let r = dpa_attack(&traces, 16, |k, i| sel(k, data[i])).unwrap();
        assert_eq!(r.best_key, 5);
        assert!(r.margin > 1.5, "margin {}", r.margin);
        assert!(r.discloses(5, 1.2));
    }

    #[test]
    fn attack_fails_without_leak() {
        let (traces, data) = synthetic_traces(400, 0.0);
        let r = dpa_attack(&traces, 16, |k, i| sel(k, data[i])).unwrap();
        // No leakage: the best key is noise-determined and the margin
        // small.
        assert!(r.margin < 5.0);
        assert!(!r.discloses(5, 5.0));
    }

    #[test]
    fn mtd_scan_finds_disclosure_point() {
        let (traces, data) = synthetic_traces(600, 0.4);
        let scan = mtd_scan(&traces, 16, 5, 50, |k, i| sel(k, data[i])).unwrap();
        let mtd = scan.mtd.expect("key should be disclosed");
        assert!(mtd <= 600);
        // Once disclosed, later points stay disclosed.
        let from = scan.points.iter().position(|p| p.traces == mtd).unwrap();
        assert!(scan.points[from..].iter().all(|p| p.disclosed));
    }

    #[test]
    fn mtd_none_when_secure() {
        let (traces, data) = synthetic_traces(300, 0.0);
        let scan = mtd_scan(&traces, 16, 5, 50, |k, i| sel(k, data[i])).unwrap();
        // Without leakage the final checkpoint almost surely has the
        // wrong best key; if it happens to match, MTD must still be
        // late.
        if let Some(m) = scan.mtd {
            assert!(m > 100);
        }
    }

    #[test]
    fn p2p_reported_per_key() {
        let (traces, data) = synthetic_traces(200, 0.6);
        let r = dpa_attack(&traces, 16, |k, i| sel(k, data[i])).unwrap();
        assert_eq!(r.guesses.len(), 16);
        let correct = &r.guesses[5];
        let wrong_max = r
            .guesses
            .iter()
            .filter(|g| g.key != 5)
            .map(|g| g.p2p)
            .fold(0.0f64, f64::max);
        assert!(correct.p2p > wrong_max);
    }

    #[test]
    fn bad_input_yields_typed_errors() {
        let (traces, data) = synthetic_traces(10, 0.5);
        assert_eq!(
            dpa_attack(&traces, 0, |k, i| sel(k, data[i])).err(),
            Some(AnalysisError::NoKeyGuesses)
        );
        assert_eq!(
            mtd_scan(&traces, 16, 5, 0, |k, i| sel(k, data[i])).err(),
            Some(AnalysisError::ZeroStep)
        );
        let mut ragged = traces.clone();
        ragged[4] = vec![0.0; 3];
        assert_eq!(
            dpa_attack(&ragged, 16, |k, i| sel(k, data[i])).err(),
            Some(AnalysisError::InconsistentTraceLength {
                index: 4,
                got: 3,
                expect: 8
            })
        );
    }

    #[test]
    fn mtd_scan_rejects_a_correct_key_outside_the_guesses() {
        let (traces, data) = synthetic_traces(50, 0.5);
        assert_eq!(
            mtd_scan(&traces, 16, 40, 10, |k, i| sel(k, data[i])).err(),
            Some(AnalysisError::CorrectKeyOutOfRange {
                correct_key: 40,
                n_keys: 16
            })
        );
    }

    #[test]
    fn dpa_attack_rejects_more_guesses_than_u8_keys_can_label() {
        let (traces, data) = synthetic_traces(50, 0.5);
        assert_eq!(
            dpa_attack(&traces, 300, |k, i| sel(k, data[i])).err(),
            Some(AnalysisError::TooManyKeyGuesses { n_keys: 300 })
        );
        let all = dpa_attack(&traces, 256, |k, i| sel(k, data[i])).unwrap();
        assert!(all
            .guesses
            .iter()
            .enumerate()
            .all(|(k, g)| usize::from(g.key) == k));
    }
}
