//! Median-of-K wall-clock timing with JSON-line output.
//!
//! A deliberately small replacement for criterion: each measurement
//! runs the closure K times, reports the median (robust against
//! scheduler noise), and prints one machine-parsable JSON line so
//! perf PRs can diff runs with a one-line `jq`.

use std::time::Instant;

/// One timed measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name, e.g. `"serve_cache/warm_resubmission"`.
    pub name: String,
    /// All K run durations, in nanoseconds, in execution order.
    pub runs_ns: Vec<u128>,
    /// Median of `runs_ns`.
    pub median_ns: u128,
    /// Fastest run.
    pub min_ns: u128,
    /// Slowest run.
    pub max_ns: u128,
}

impl Measurement {
    /// Renders the measurement as one JSON line.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"k\":{}}}",
            self.name,
            self.median_ns,
            self.min_ns,
            self.max_ns,
            self.runs_ns.len()
        )
    }
}

/// Times `f` over `k` runs (after one untimed warm-up run) and
/// returns the measurement.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn time_median<F: FnMut()>(name: &str, k: usize, mut f: F) -> Measurement {
    assert!(k > 0, "k must be positive");
    f(); // warm-up: page in code and data, fill caches
    let mut runs_ns: Vec<u128> = (0..k)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    let mut sorted = runs_ns.clone();
    sorted.sort_unstable();
    let median_ns = sorted[sorted.len() / 2];
    let min_ns = sorted[0];
    let max_ns = *sorted.last().expect("k > 0");
    runs_ns.shrink_to_fit();
    Measurement {
        name: name.to_string(),
        runs_ns,
        median_ns,
        min_ns,
        max_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_runs_is_reported() {
        let mut n = 0u64;
        let m = time_median("spin", 5, || {
            for i in 0..10_000u64 {
                n = n.wrapping_add(i);
            }
        });
        assert_eq!(m.runs_ns.len(), 5);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.median_ns > 0);
    }

    #[test]
    fn json_line_is_well_formed() {
        let m = Measurement {
            name: "x/1".into(),
            runs_ns: vec![3, 1, 2],
            median_ns: 2,
            min_ns: 1,
            max_ns: 3,
        };
        assert_eq!(
            m.json_line(),
            "{\"bench\":\"x/1\",\"median_ns\":2,\"min_ns\":1,\"max_ns\":3,\"k\":3}"
        );
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        time_median("bad", 0, || {});
    }
}
