//! Measured passes: operations, their timings and their outputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use secflow_core::FlowReport;
use secflow_dpa::attack::{DpaResult, MtdScan};
use secflow_dpa::harness::CampaignAnalysis;

use crate::trace::{Tracer, OP};

/// How long a pass runs.
#[derive(Debug, Clone)]
pub enum Limit {
    /// Whole rounds of operations per lane, until the duration has
    /// elapsed; the first round always runs.
    Time(Duration),
    /// Exactly this many operations per lane (a replay of a pass).
    Counts(Vec<usize>),
}

impl Limit {
    /// Whether lane `lane` should start operation `done` (0-based) of
    /// a pass that runs operations in rounds of `round`.
    pub fn more(&self, lane: usize, done: usize, round: usize, start: Instant) -> bool {
        match self {
            Limit::Time(d) => {
                !done.is_multiple_of(round.max(1)) || done == 0 || start.elapsed() < *d
            }
            Limit::Counts(c) => done < c.get(lane).copied().unwrap_or(0),
        }
    }
}

/// An operation's deterministic output, or why it failed.
pub type Output = Result<Vec<u8>, String>;

/// One operation of a pass.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The client (serve) or 0 (sequential workloads).
    pub lane: usize,
    /// Position in the lane's operation sequence.
    pub index: usize,
    pub secs: f64,
    /// Units of work the operation completed (workload-specific).
    pub work: f64,
    pub output: Output,
    /// For serve jobs: whether the response came from the cache.
    pub cached: Option<bool>,
}

/// The operations of one pass and its wall time.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub records: Vec<OpRecord>,
    pub wall_s: f64,
    /// Failures outside any operation (a server that did not start or
    /// stop).
    pub errors: Vec<String>,
}

impl Pass {
    /// Operations per lane, for [`Limit::Counts`].
    pub fn counts(&self) -> Vec<usize> {
        let lanes = self.records.iter().map(|r| r.lane + 1).max().unwrap_or(1);
        let mut c = vec![0; lanes];
        for r in &self.records {
            c[r.lane] += 1;
        }
        c
    }

    /// Outputs keyed and sorted by (lane, index).
    pub fn outputs(&self) -> Vec<((usize, usize), &Output)> {
        let mut v: Vec<_> = self
            .records
            .iter()
            .map(|r| ((r.lane, r.index), &r.output))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.output.is_err()).count() + self.errors.len()
    }

    pub fn attempted(&self) -> usize {
        self.records.len() + self.errors.len()
    }

    /// Summed duration of the operations.
    pub fn op_secs(&self) -> f64 {
        self.records.iter().map(|r| r.secs).sum()
    }
}

/// Runs `op` on one lane, in rounds of `round` operations, until
/// `limit` says stop. Each operation runs inside an [`OP`] span; a
/// panic is recorded as a failed operation.
pub fn sequential(
    limit: &Limit,
    round: usize,
    tr: &Tracer,
    mut op: impl FnMut(usize) -> Result<(f64, Vec<u8>), String>,
) -> Pass {
    let start = Instant::now();
    let mut records = Vec::new();
    while limit.more(0, records.len(), round, start) {
        let index = records.len();
        let t = Instant::now();
        let result = guarded(|| tr.span(OP, index as u64, || op(index)));
        let secs = t.elapsed().as_secs_f64();
        let (work, output) = match result {
            Ok((work, out)) => (work, Ok(out)),
            Err(e) => (0.0, Err(e)),
        };
        records.push(OpRecord {
            lane: 0,
            index,
            secs,
            work,
            output,
            cached: None,
        });
    }
    Pass {
        records,
        wall_s: start.elapsed().as_secs_f64(),
        errors: Vec::new(),
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("unknown panic");
        Err(format!("panic: {msg}"))
    })
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Byte encoding of deterministic outputs; floats by their bits, so
/// any change to a simulated statistic changes the encoding.
#[derive(Default)]
pub struct Bits(pub Vec<u8>);

impl Bits {
    pub fn u64(&mut self, v: u64) -> &mut Bits {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Bits {
        self.u64(v.to_bits())
    }

    pub fn opt(&mut self, v: Option<usize>) -> &mut Bits {
        self.u64(v.map_or(u64::MAX, |m| m as u64))
    }

    pub fn flow(&mut self, r: &FlowReport) -> &mut Bits {
        self.u64(r.stats.gates as u64)
            .u64(r.stats.nets as u64)
            .u64(r.wirelength_tracks as u64)
            .u64(r.vias as u64)
            .f64(r.die_area_um2)
            .f64(r.critical_path_ps)
            .u64(r.lec_equivalent.map_or(2, u64::from))
            .f64(r.mean_pair_mismatch.unwrap_or(-1.0))
            .f64(r.max_pair_mismatch.unwrap_or(-1.0))
    }

    pub fn dpa(&mut self, r: &DpaResult) -> &mut Bits {
        self.u64(u64::from(r.best_key)).f64(r.margin);
        for g in &r.guesses {
            self.f64(g.peak).f64(g.p2p);
        }
        self
    }

    pub fn mtd(&mut self, s: &MtdScan) -> &mut Bits {
        self.opt(s.mtd);
        for p in &s.points {
            self.u64(p.traces as u64)
                .f64(p.correct_peak)
                .f64(p.best_wrong_peak);
        }
        self
    }

    pub fn analysis(&mut self, a: &CampaignAnalysis) -> &mut Bits {
        self.u64(a.n as u64)
            .u64(a.samples_per_trace as u64)
            .f64(a.energy_sum);
        if let Some(d) = &a.dpa {
            self.dpa(d);
        }
        if let Some(m) = &a.dpa_mtd {
            self.mtd(m);
        }
        if let Some(c) = &a.cpa {
            self.u64(u64::from(c.best_key)).f64(c.margin);
            for g in &c.guesses {
                self.f64(g.peak_corr);
            }
        }
        if let Some((points, mtd)) = &a.cpa_mtd {
            self.opt(*mtd);
            for p in points {
                self.u64(p.traces as u64)
                    .f64(p.correct_corr)
                    .f64(p.best_wrong_corr);
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
    }

    #[test]
    fn a_time_limit_ends_on_a_round_boundary() {
        let limit = Limit::Time(Duration::ZERO);
        let start = Instant::now();
        let runs = (0..10)
            .take_while(|&done| limit.more(0, done, 3, start))
            .count();
        assert_eq!(runs, 3);
    }

    #[test]
    fn replay_limit_counts_per_lane() {
        let limit = Limit::Counts(vec![2, 1]);
        let start = Instant::now();
        assert!(limit.more(0, 1, 0, start));
        assert!(!limit.more(0, 2, 0, start));
        assert!(!limit.more(1, 1, 0, start));
    }

    #[test]
    fn a_panicking_operation_is_a_failed_record() {
        let pass = sequential(&Limit::Counts(vec![2]), 0, &Tracer::off(), |i| {
            if i == 1 {
                panic!("boom");
            }
            Ok((1.0, vec![i as u8]))
        });
        assert_eq!(pass.records.len(), 2);
        assert_eq!(pass.failed(), 1);
        assert!(pass.records[1]
            .output
            .as_ref()
            .unwrap_err()
            .contains("boom"));
    }
}
