//! Correlation Power Analysis — the stronger attacker of the paper's
//! §3 discussion ("the more powerful an attacker is, the better his
//! results may be").
//!
//! Instead of Kocher's single-bit partitioning, CPA correlates the
//! trace at every sample with a multi-bit power *model* (here the
//! Hamming weight of the predicted S-box output) across all traces,
//! per key guess. It typically needs fewer traces than single-bit DPA
//! against unprotected implementations, making it the natural
//! escalation for evaluating the secure flow's margin.
//!
//! The batch entry points are thin wrappers over
//! [`crate::streaming::CpaStream`]: each trace is summed once into the
//! class of its model values under every guess, and every read
//! combines the trace moments (Σt, Σt²) and each guess's hypothesis
//! moments (Σh, Σh², Σh·t) from those class sums (see
//! [`crate::streaming`]) — byte-identical at any thread count.

use crate::error::AnalysisError;
use crate::streaming::{check_correct_key, CpaStream};

/// Per-key-guess CPA statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaKeyResult {
    /// The key guess.
    pub key: u8,
    /// Maximum absolute Pearson correlation over all samples.
    pub peak_corr: f64,
}

/// The outcome of a CPA over all key guesses.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaResult {
    /// Statistics per key guess, indexed by key.
    pub guesses: Vec<CpaKeyResult>,
    /// The key with the largest |correlation| peak.
    pub best_key: u8,
    /// Best peak divided by the second-best peak.
    pub margin: f64,
}

/// Best key and margin over a full set of guesses (an empty guess set
/// degenerates to key 0 with zero margin rather than panicking).
pub(crate) fn finalize(guesses: Vec<CpaKeyResult>) -> CpaResult {
    let (best_key, best_corr) = guesses
        .iter()
        .max_by(|a, b| a.peak_corr.total_cmp(&b.peak_corr))
        .map_or((0, 0.0), |g| (g.key, g.peak_corr));
    let second = guesses
        .iter()
        .filter(|g| g.key != best_key)
        .map(|g| g.peak_corr)
        .fold(0.0f64, f64::max);
    CpaResult {
        guesses,
        best_key,
        margin: if second > 0.0 {
            best_corr / second
        } else {
            f64::INFINITY
        },
    }
}

/// Runs a CPA: `model(key, trace_index)` is the hypothetical power
/// (e.g. a Hamming weight) predicted for that trace under the key
/// guess.
///
/// # Errors
///
/// [`AnalysisError::NoKeyGuesses`] if `n_keys == 0`;
/// [`AnalysisError::TooManyKeyGuesses`] if `n_keys > 256`;
/// [`AnalysisError::InconsistentTraceLength`] if traces have unequal
/// lengths.
pub fn cpa_attack(
    traces: &[Vec<f64>],
    n_keys: usize,
    model: impl Fn(u8, usize) -> f64 + Sync,
) -> Result<CpaResult, AnalysisError> {
    let _span = secflow_obs::span("dpa.cpa");
    secflow_obs::add(secflow_obs::Counter::DpaGuesses, n_keys as u64);
    let mut stream = CpaStream::new(n_keys)?;
    stream.push_block(traces, |k, i| model(k, i))?;
    Ok(stream.result())
}

/// One point of a CPA MTD scan.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaMtdPoint {
    /// Traces used.
    pub traces: usize,
    /// Correct key is the unique best guess.
    pub disclosed: bool,
    /// Peak |r| of the correct key.
    pub correct_corr: f64,
    /// Best peak |r| among wrong keys.
    pub best_wrong_corr: f64,
}

/// CPA disclosure as a function of trace count; same semantics as
/// [`crate::attack::mtd_scan`].
///
/// # Errors
///
/// [`AnalysisError::ZeroStep`] if `step == 0`;
/// [`AnalysisError::CorrectKeyOutOfRange`] if `correct_key >= n_keys`;
/// plus the [`cpa_attack`] input errors.
pub fn cpa_mtd_scan(
    traces: &[Vec<f64>],
    n_keys: usize,
    correct_key: u8,
    step: usize,
    model: impl Fn(u8, usize) -> f64 + Sync,
) -> Result<(Vec<CpaMtdPoint>, Option<usize>), AnalysisError> {
    let _span = secflow_obs::span("dpa.cpa_mtd_scan");
    secflow_obs::add(secflow_obs::Counter::DpaGuesses, n_keys as u64);
    let mut stream = CpaStream::with_step(n_keys, step)?;
    check_correct_key(n_keys, correct_key)?;
    stream.push_block(traces, |k, i| model(k, i))?;
    Ok(stream.mtd(correct_key))
}

/// The Hamming-weight CPA model for the Fig. 4 module: the weight of
/// the predicted S-box output `S1(CR ⊕ K)`.
pub fn sbox_hamming_model(key: u8, cl: u8, cr: u8) -> f64 {
    let _ = cl;
    f64::from(secflow_crypto::des::sbox(0, cr ^ key).count_ones())
}

/// The Hamming-distance CPA model: CMOS power follows *transitions*,
/// so the right hypothesis for consecutive encryptions is the distance
/// between the S-box outputs of this and the previous cycle,
/// `HW(S1(CRᵢ ⊕ K) ⊕ S1(CRᵢ₋₁ ⊕ K))`.
pub fn sbox_hd_model(key: u8, cr_prev: u8, cr: u8) -> f64 {
    let a = secflow_crypto::des::sbox(0, cr ^ key);
    let b = secflow_crypto::des::sbox(0, cr_prev ^ key);
    f64::from((a ^ b).count_ones())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traces whose sample 2 carries the Hamming weight of the S-box
    /// output under key 21.
    fn leaky_traces(n: usize, leak: f64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut traces = Vec::new();
        let mut crs = Vec::new();
        let mut state = 7u64;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let cr = ((state >> 33) & 0x3f) as u8;
            crs.push(cr);
            let hw = f64::from(secflow_crypto::des::sbox(0, cr ^ 21).count_ones());
            let mut t = vec![1.0; 6];
            t[2] += leak * hw;
            t[4] += ((state >> 11) & 15) as f64 * 0.02; // pseudo-noise
            traces.push(t);
        }
        (traces, crs)
    }

    #[test]
    fn cpa_recovers_key() {
        let (traces, crs) = leaky_traces(200, 0.3);
        let r = cpa_attack(&traces, 64, |k, i| sbox_hamming_model(k, 0, crs[i])).unwrap();
        assert_eq!(r.best_key, 21);
        assert!(r.margin > 1.3, "margin {}", r.margin);
        assert!(r.guesses[21].peak_corr > 0.9);
    }

    #[test]
    fn cpa_fails_without_leak() {
        let (traces, crs) = leaky_traces(200, 0.0);
        let r = cpa_attack(&traces, 64, |k, i| sbox_hamming_model(k, 0, crs[i])).unwrap();
        assert!(r.guesses[21].peak_corr < 0.5);
        assert!(r.margin < 2.0);
    }

    #[test]
    fn cpa_mtd_scan_discloses_early() {
        let (traces, crs) = leaky_traces(400, 0.3);
        let (points, mtd) = cpa_mtd_scan(&traces, 64, 21, 40, |k, i| {
            sbox_hamming_model(k, 0, crs[i])
        })
        .unwrap();
        let m = mtd.expect("disclosed");
        assert!(m <= 200, "CPA too slow: {m}");
        assert!(points.iter().any(|p| p.disclosed));
    }

    #[test]
    fn constant_model_yields_zero_correlation() {
        let (traces, _) = leaky_traces(50, 0.3);
        let r = cpa_attack(&traces, 4, |_, _| 1.0).unwrap();
        assert!(r.guesses.iter().all(|g| g.peak_corr == 0.0));
    }

    #[test]
    fn bad_input_yields_typed_errors() {
        let (traces, crs) = leaky_traces(10, 0.3);
        assert_eq!(
            cpa_attack(&traces, 0, |k, i| sbox_hamming_model(k, 0, crs[i])).err(),
            Some(AnalysisError::NoKeyGuesses)
        );
        assert_eq!(
            cpa_mtd_scan(&traces, 64, 21, 0, |k, i| sbox_hamming_model(k, 0, crs[i])).err(),
            Some(AnalysisError::ZeroStep)
        );
        let mut ragged = traces.clone();
        ragged[7] = vec![0.0; 2];
        assert_eq!(
            cpa_attack(&ragged, 64, |k, i| sbox_hamming_model(k, 0, crs[i])).err(),
            Some(AnalysisError::InconsistentTraceLength {
                index: 7,
                got: 2,
                expect: 6
            })
        );
    }

    #[test]
    fn cpa_mtd_scan_rejects_a_correct_key_outside_the_guesses() {
        let (traces, crs) = leaky_traces(50, 0.3);
        assert_eq!(
            cpa_mtd_scan(&traces, 16, 40, 10, |k, i| sbox_hamming_model(k, 0, crs[i])).err(),
            Some(AnalysisError::CorrectKeyOutOfRange {
                correct_key: 40,
                n_keys: 16
            })
        );
    }

    #[test]
    fn cpa_attack_rejects_more_guesses_than_u8_keys_can_label() {
        let (traces, crs) = leaky_traces(50, 0.3);
        assert_eq!(
            cpa_attack(&traces, 300, |k, i| sbox_hamming_model(k, 0, crs[i])).err(),
            Some(AnalysisError::TooManyKeyGuesses { n_keys: 300 })
        );
    }
}
