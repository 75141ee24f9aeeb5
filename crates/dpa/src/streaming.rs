//! One-pass streaming accumulators for the DPA/CPA/MTD statistics.
//!
//! A selection function `D(K, C)` or a power model sees a trace only
//! through its predictions for it. Two traces with the same prediction
//! under every key guess — the same *signature* — fall on the same
//! side of every DPA partition and get the same hypothesis under every
//! CPA guess. So a stream keeps, per signature class, a trace count
//! and a per-sample trace sum (and, for CPA, a sum of squares), and
//! folds each trace once, into its class. Those class sums are a
//! sufficient statistic: Σt, Σt² and every guess's partition sums
//! (DPA) and hypothesis moments (CPA) are linear combinations of them,
//! computed at every read — an MTD checkpoint, `result()`, or the last
//! point of `mtd()`. State is O(classes × samples) however many traces
//! stream through, and the per-trace cost no longer grows with
//! `samples × n_keys`.
//!
//! # Signatures and classes
//!
//! A trace's signature is the caller's `Fn(key, j)` closure evaluated
//! under every key guess: packed selection bits for DPA, the
//! `f64::to_bits` of the model values for CPA. A per-stream table
//! numbers signatures in first-seen order. It holds at most
//! `2 · n_keys` classes: a trace whose signature would be one more
//! first folds every class into committed per-guess sums and clears
//! the table, and reads add the committed sums. The DES selection
//! function has 128 signatures and the Hamming-weight model 64, so
//! they never fold; the Hamming-distance model has about 2 000, and
//! the budget bounds its cost by that of a per-guess fold.
//!
//! # Determinism contract
//!
//! Each class sum folds its traces serially in input order; classes
//! are numbered, and the table folded, at trace indices fixed by the
//! input; and a read combines the classes in class order. The
//! statistics after `n` traces are therefore a pure function of those
//! `n` traces: byte-identical
//! (`f64::to_bits`) at any thread count, any block size and any
//! checkpoint grid. The batch attacks push one block through these
//! streams, so they agree with them bit for bit. Workers sign fixed
//! chunks of a block and look the signatures up in the table as it
//! stood when their region began (a signature it did not hold is
//! signed again on the caller, in input order), and they combine
//! disjoint guesses; no floating-point value crosses a worker
//! boundary.
//!
//! MTD checkpoints snapshot the class counts and sums at every
//! multiple of `step` (plus a final point at the end of the stream),
//! and a block's snapshots are read together when the block is done:
//! a block of up to 16 384 traces costs one parallel region to sign
//! and one to read, however many checkpoints it holds.
//!
//! # Numerics
//!
//! Summing per class and then across classes is a blocked summation:
//! rounding grows with the traces per class plus the classes, not with
//! the traces. Trace sums at a large DC offset cancel in every
//! statistic, so this matters: at a DC offset of 10 over 65 536 traces
//! the statistics stay within 1e-10 of a compensated reference
//! (`tests/class_sums.rs`, DESIGN.md §17).

use crate::attack::{DpaResult, KeyGuessResult, MtdPoint, MtdScan};
use crate::cpa::{CpaKeyResult, CpaMtdPoint, CpaResult};
use crate::error::AnalysisError;
use secflow_exec::par_map_range;
use secflow_obs as obs;

/// Most key guesses a stream evaluates: results label guesses with
/// `u8` keys.
const MAX_KEYS: usize = 256;

/// Closure calls one parallel signature task makes.
const TASK_CALLS: usize = 1 << 14;

/// Most traces one parallel region signs, which bounds the class ids
/// it buffers (4 bytes a trace) whatever the block size.
const REGION_TRACES: usize = 1 << 14;

/// Class-sum values the pending MTD checkpoints may hold (512 KiB)
/// before they are read.
const PENDING_VALUES: usize = 1 << 16;

/// The class id of a signature the table did not hold when its region
/// began.
const UNSEEN: u32 = u32::MAX;

/// Checks the size of a key-guess space.
fn check_n_keys(n_keys: usize) -> Result<(), AnalysisError> {
    match n_keys {
        0 => Err(AnalysisError::NoKeyGuesses),
        n if n > MAX_KEYS => Err(AnalysisError::TooManyKeyGuesses { n_keys }),
        _ => Ok(()),
    }
}

/// Checks a key-guess space and that an MTD scan's correct key lies in
/// it.
pub(crate) fn check_correct_key(n_keys: usize, correct_key: u8) -> Result<(), AnalysisError> {
    check_n_keys(n_keys)?;
    if usize::from(correct_key) >= n_keys {
        return Err(AnalysisError::CorrectKeyOutOfRange {
            correct_key,
            n_keys,
        });
    }
    Ok(())
}

/// One key guess's sums, combined from the class sums: what DPA and
/// CPA each need to evaluate a guess.
trait GuessSums: Clone + Send + Sync {
    /// Per-guess statistics of a read.
    type Stats: Send;
    /// Whether classes also sum squared samples, for CPA's per-sample
    /// trace variance.
    const SQUARES: bool;
    /// `u64` words in the signature of one trace over `n_keys` guesses.
    fn words(n_keys: usize) -> usize;
    /// Empty sums over `samples` samples.
    fn zero(samples: usize) -> Self;
    /// Adds, under guess `k` and in order, classes given as signature,
    /// trace count and per-sample trace sum.
    fn add_classes<'a>(
        &mut self,
        k: usize,
        classes: impl Iterator<Item = (&'a [u64], u64, &'a [f64])>,
    );
    /// The guess's statistics over `n` traces with per-sample sums
    /// `st` (and `stt` of squares, empty unless [`Self::SQUARES`]).
    fn stats(&self, key: u8, n: usize, st: &[f64], stt: &[f64]) -> Self::Stats;
    /// The statistic an MTD checkpoint ranks guesses by.
    fn peak(stats: &Self::Stats) -> f64;
}

/// DPA partition sums of one guess: the traces whose selection bit is
/// 1. The 0 side is the rest of Σt.
#[derive(Clone)]
struct Partition {
    n1: u64,
    sum1: Vec<f64>,
}

impl GuessSums for Partition {
    type Stats = KeyGuessResult;
    const SQUARES: bool = false;

    fn words(n_keys: usize) -> usize {
        n_keys.div_ceil(64)
    }

    fn zero(samples: usize) -> Self {
        Partition {
            n1: 0,
            sum1: vec![0.0; samples],
        }
    }

    fn add_classes<'a>(
        &mut self,
        k: usize,
        classes: impl Iterator<Item = (&'a [u64], u64, &'a [f64])>,
    ) {
        let mut rows = Vec::new();
        for (sig, count, sum) in classes {
            if sig[k / 64] >> (k % 64) & 1 == 1 {
                self.n1 += count;
                rows.push(((), sum));
            }
        }
        fold_rows(&mut self.sum1, &rows, |(), t| t);
    }

    /// Peak and peak-to-peak of the difference-of-means trace.
    fn stats(&self, key: u8, n: usize, st: &[f64], _stt: &[f64]) -> KeyGuessResult {
        let n0 = n as u64 - self.n1;
        let (mut peak, mut lo, mut hi) = (0.0f64, f64::INFINITY, f64::NEG_INFINITY);
        if self.n1 > 0 && n0 > 0 {
            for (&s1, &t) in self.sum1.iter().zip(st) {
                let d = s1 / self.n1 as f64 - (t - s1) / n0 as f64;
                peak = peak.max(d.abs());
                lo = lo.min(d);
                hi = hi.max(d);
            }
        } else {
            lo = 0.0;
            hi = 0.0;
        }
        KeyGuessResult {
            key,
            peak,
            p2p: hi - lo,
        }
    }

    fn peak(stats: &KeyGuessResult) -> f64 {
        stats.peak
    }
}

/// CPA hypothesis moments of one guess: Σh, Σh² and per-sample Σh·t.
#[derive(Clone)]
struct Moments {
    sh: f64,
    shh: f64,
    sht: Vec<f64>,
}

impl GuessSums for Moments {
    type Stats = CpaKeyResult;
    const SQUARES: bool = true;

    fn words(n_keys: usize) -> usize {
        n_keys
    }

    fn zero(samples: usize) -> Self {
        Moments {
            sh: 0.0,
            shh: 0.0,
            sht: vec![0.0; samples],
        }
    }

    fn add_classes<'a>(
        &mut self,
        k: usize,
        classes: impl Iterator<Item = (&'a [u64], u64, &'a [f64])>,
    ) {
        let mut rows = Vec::new();
        for (sig, count, sum) in classes {
            let h = f64::from_bits(sig[k]);
            let n = count as f64;
            self.sh += n * h;
            self.shh += n * (h * h);
            rows.push((h, sum));
        }
        fold_rows(&mut self.sht, &rows, |h, t| h * t);
    }

    /// Peak |Pearson r| over all samples.
    fn stats(&self, key: u8, n: usize, st: &[f64], stt: &[f64]) -> CpaKeyResult {
        let n = n as f64;
        let var_h = self.shh - self.sh * self.sh / n;
        let mut peak = 0.0f64;
        if var_h > 1e-12 {
            for ((&sht, &t), &tt) in self.sht.iter().zip(st).zip(stt) {
                let var_t = tt - t * t / n;
                if var_t <= 1e-12 {
                    continue;
                }
                let cov = sht - self.sh * t / n;
                peak = peak.max((cov / (var_h * var_t).sqrt()).abs());
            }
        }
        CpaKeyResult {
            key,
            peak_corr: peak,
        }
    }

    fn peak(stats: &CpaKeyResult) -> f64 {
        stats.peak_corr
    }
}

/// Adds `term(w, row[s])` for every `(w, row)` of `rows`, in order, to
/// each `out[s]`. Blocks of `out` stay in registers across the rows;
/// the sum of every cell is still folded in row order.
fn fold_rows<W: Copy>(out: &mut [f64], rows: &[(W, &[f64])], term: impl Fn(W, f64) -> f64) {
    const B: usize = 8;
    let full = out.len() / B * B;
    let (head, tail) = out.split_at_mut(full);
    for (i, block) in head.chunks_exact_mut(B).enumerate() {
        let mut acc = [0.0f64; B];
        acc.copy_from_slice(block);
        for &(w, row) in rows {
            let src = &row[i * B..i * B + B];
            for (a, &t) in acc.iter_mut().zip(src) {
                *a += term(w, t);
            }
        }
        block.copy_from_slice(&acc);
    }
    for (s, a) in tail.iter_mut().enumerate() {
        for &(w, row) in rows {
            *a += term(w, row[full + s]);
        }
    }
}

/// Word-at-a-time hash of a signature, over four independent lanes.
/// `Hash` for `[u64]` hands a hasher one byte slice, and hashing a
/// 512-byte CPA signature byte by byte would cost more than the rest
/// of a trace's fold.
fn sig_hash(sig: &[u64]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut lanes = [0u64; 4];
    for chunk in sig.chunks(4) {
        for (h, &w) in lanes.iter_mut().zip(chunk) {
            *h = step(*h, w);
        }
    }
    lanes.into_iter().fold(0, step)
}

/// The class state one read combines: the trace count, each class's
/// count and per-sample trace sum, and Σt (then, for CPA, Σt²) over
/// every trace so far. Class `c` is the table's `c`-th signature.
struct Classes<'a> {
    n: usize,
    counts: &'a [u64],
    /// Class `c`'s sums start at `c * stride`.
    sums: &'a [f64],
    stride: usize,
    totals: &'a [f64],
}

/// A checkpoint's class state, copied so that it can be read after
/// more traces arrive. Signatures are only appended between budget
/// folds, so it stays readable until the next fold.
struct Snapshot {
    n: usize,
    counts: Vec<u64>,
    /// `samples` values per class.
    sums: Vec<f64>,
    totals: Vec<f64>,
}

impl Snapshot {
    fn classes(&self, samples: usize) -> Classes<'_> {
        Classes {
            n: self.n,
            counts: &self.counts,
            sums: &self.sums,
            stride: samples,
            totals: &self.totals,
        }
    }
}

/// The state both streams share: the class table with its sums, the
/// committed sums of earlier budget folds, and the MTD checkpoints.
struct ClassSums<G> {
    n_keys: usize,
    step: Option<usize>,
    /// Traces consumed.
    n: usize,
    /// Established by the first trace ever seen.
    samples: Option<usize>,
    /// `u64` words per signature.
    words: usize,
    /// Class signatures, `words` each, in first-seen order.
    sigs: Vec<u64>,
    /// Traces per class.
    counts: Vec<u64>,
    /// Per class, the per-sample sums of the traces, then (CPA) of
    /// their squares: `cols` values per class.
    sums: Vec<f64>,
    /// `samples`, doubled when the classes also sum squares.
    cols: usize,
    /// Open-addressing index into the classes: class + 1, or 0 when
    /// empty. At least twice the class budget, so probes stay short.
    slots: Vec<u32>,
    /// Shift that maps a signature hash to a slot.
    shift: u32,
    /// Budget folds so far.
    folds: u64,
    /// Per-guess sums of the classes folded away at the budget; empty
    /// until the first fold.
    committed: Vec<G>,
    /// The class rows folded away at the budget, summed: Σt (and Σt²)
    /// over those traces.
    committed_totals: Vec<f64>,
    /// Checkpoints of the current block not read yet.
    pending: Vec<Snapshot>,
    /// Class-sum values the pending checkpoints hold.
    pending_values: usize,
    /// Trace count at each MTD checkpoint.
    checkpoint_counts: Vec<usize>,
    /// Every guess's peak at each read checkpoint, `n_keys` per
    /// checkpoint.
    peaks: Vec<f64>,
}

impl<G: GuessSums> ClassSums<G> {
    fn new(n_keys: usize, step: Option<usize>) -> Result<Self, AnalysisError> {
        if step == Some(0) {
            return Err(AnalysisError::ZeroStep);
        }
        check_n_keys(n_keys)?;
        let slots = (4 * n_keys).next_power_of_two();
        Ok(ClassSums {
            n_keys,
            step,
            n: 0,
            samples: None,
            words: G::words(n_keys),
            sigs: Vec::new(),
            counts: Vec::new(),
            sums: Vec::new(),
            cols: 0,
            slots: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            folds: 0,
            committed: Vec::new(),
            committed_totals: Vec::new(),
            pending: Vec::new(),
            pending_values: 0,
            checkpoint_counts: Vec::new(),
            peaks: Vec::new(),
        })
    }

    /// Validates a block and establishes `samples` from the first trace
    /// ever seen. On error the stream is unchanged.
    fn admit<T: AsRef<[f64]>>(&mut self, traces: &[T]) -> Result<(), AnalysisError> {
        let first = match traces.first() {
            Some(t) => t.as_ref().len(),
            None => return Ok(()),
        };
        let expect = self.samples.unwrap_or(first);
        for (j, t) in traces.iter().enumerate() {
            let got = t.as_ref().len();
            if got != expect {
                return Err(AnalysisError::InconsistentTraceLength {
                    index: self.n + j,
                    got,
                    expect,
                });
            }
        }
        if self.samples.is_none() {
            self.samples = Some(expect);
            self.cols = if G::SQUARES { 2 * expect } else { expect };
            self.committed_totals = vec![0.0; self.cols];
        }
        Ok(())
    }

    /// Folds a block: `sign(j, sig)` writes the signature of the
    /// block's `j`-th trace into `sig`. One parallel region per
    /// [`REGION_TRACES`] traces signs fixed chunks of them and looks
    /// each signature up in the table as it stood when the region
    /// began; the class sums then grow serially in input order, and a
    /// trace whose signature was not found then (or whose class a
    /// budget fold has since cleared) is signed again and numbered
    /// there. A region that starts on an empty table, where nothing
    /// can be found, is one task long and signed on the caller only.
    /// The block's MTD checkpoints are read together at its end.
    fn push<T: AsRef<[f64]> + Sync>(
        &mut self,
        traces: &[T],
        sign: impl Fn(usize, &mut [u64]) + Sync,
    ) -> Result<(), AnalysisError> {
        self.admit(traces)?;
        let task = (TASK_CALLS / self.n_keys).max(1);
        let region = REGION_TRACES.div_ceil(task) * task;
        let mut sig = vec![0u64; self.words];
        let mut checkpoints = 0u64;
        let mut base = 0;
        while base < traces.len() {
            let cold = self.counts.is_empty();
            let len = if cold { task } else { region };
            let part = &traces[base..traces.len().min(base + len)];
            let found = if cold {
                vec![vec![UNSEEN; part.len()]]
            } else {
                let table = &*self;
                par_map_range(part.len().div_ceil(task), |i| {
                    let mut sig = vec![0u64; table.words];
                    (i * task..part.len().min(i * task + task))
                        .map(|j| {
                            sign(base + j, &mut sig);
                            table
                                .probe(&sig, sig_hash(&sig))
                                .1
                                .map_or(UNSEEN, |c| c as u32)
                        })
                        .collect::<Vec<u32>>()
                })
            };
            let folds = self.folds;
            for (j, (t, &c)) in part.iter().zip(found.iter().flatten()).enumerate() {
                let c = if c != UNSEEN && self.folds == folds {
                    c as usize
                } else {
                    sign(base + j, &mut sig);
                    self.class_of(&sig)
                };
                self.add(t.as_ref(), c);
                if self.step.is_some_and(|s| self.n.is_multiple_of(s)) {
                    self.checkpoint();
                    checkpoints += 1;
                }
            }
            base += part.len();
        }
        self.read_pending();
        obs::gauge_max(obs::Gauge::DpaStreamClassesPeak, self.counts.len() as u64);
        obs::add(obs::Counter::DpaStreamBlocks, 1);
        obs::add(obs::Counter::DpaStreamTraces, traces.len() as u64);
        obs::add(obs::Counter::DpaStreamCheckpoints, checkpoints);
        Ok(())
    }

    /// Adds one trace to class `c`.
    fn add(&mut self, t: &[f64], c: usize) {
        self.counts[c] += 1;
        let (sum, squares) = self.sums[c * self.cols..(c + 1) * self.cols].split_at_mut(t.len());
        for (a, &v) in sum.iter_mut().zip(t) {
            *a += v;
        }
        for (a, &v) in squares.iter_mut().zip(t) {
            *a += v * v;
        }
        self.n += 1;
    }

    /// Looks `sig`, whose [`sig_hash`] is `hash`, up in the table: its
    /// slot and class if the table holds it, else the empty slot where
    /// it would go.
    fn probe(&self, sig: &[u64], hash: u64) -> (usize, Option<usize>) {
        let mask = self.slots.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        while self.slots[i] != 0 {
            let c = self.slots[i] as usize - 1;
            if &self.sigs[c * self.words..(c + 1) * self.words] == sig {
                return (i, Some(c));
            }
            i = (i + 1) & mask;
        }
        (i, None)
    }

    /// The class of `sig`, numbering it as the next class if it is new.
    /// A new signature that finds the table at its budget of
    /// `2 · n_keys` classes first folds the table.
    fn class_of(&mut self, sig: &[u64]) -> usize {
        let hash = sig_hash(sig);
        let (mut slot, found) = self.probe(sig, hash);
        if let Some(c) = found {
            return c;
        }
        if self.counts.len() == 2 * self.n_keys {
            self.fold();
            slot = self.probe(sig, hash).0;
        }
        let c = self.counts.len();
        self.slots[slot] = c as u32 + 1;
        self.sigs.extend_from_slice(sig);
        self.counts.push(0);
        self.sums.resize(self.sums.len() + self.cols, 0.0);
        c
    }

    /// Folds every class into the committed per-guess sums and clears
    /// the table, after reading the pending checkpoints, which name its
    /// classes.
    fn fold(&mut self) {
        self.read_pending();
        obs::gauge_max(obs::Gauge::DpaStreamClassesPeak, self.counts.len() as u64);
        obs::add(obs::Counter::DpaStreamFolds, 1);
        let totals = self.totals();
        let now = self.classes(&totals);
        self.committed = par_map_range(self.n_keys, |k| self.combine(k, &now));
        self.committed_totals = totals;
        self.folds += 1;
        self.sigs.clear();
        self.counts.clear();
        self.sums.clear();
        self.slots.fill(0);
    }

    /// Σt, followed for CPA by Σt², over every trace so far: the
    /// committed totals plus each class row, in class order.
    fn totals(&self) -> Vec<f64> {
        let mut tot = self.committed_totals.clone();
        for row in self.sums.chunks_exact(self.cols.max(1)) {
            for (a, &v) in tot.iter_mut().zip(row) {
                *a += v;
            }
        }
        tot
    }

    /// The current class state, with `totals` from [`Self::totals`].
    fn classes<'a>(&'a self, totals: &'a [f64]) -> Classes<'a> {
        Classes {
            n: self.n,
            counts: &self.counts,
            sums: &self.sums,
            stride: self.cols,
            totals,
        }
    }

    /// Guess `k`'s sums at `at`: its committed sums plus each class, in
    /// class order.
    fn combine(&self, k: usize, at: &Classes) -> G {
        let s = self.samples.unwrap_or(0);
        let mut g = match self.committed.get(k) {
            Some(g) => g.clone(),
            None => G::zero(s),
        };
        let classes = at.counts.iter().enumerate().map(|(c, &count)| {
            let sig = &self.sigs[c * self.words..(c + 1) * self.words];
            (sig, count, &at.sums[c * at.stride..c * at.stride + s])
        });
        g.add_classes(k, classes);
        g
    }

    /// Every guess's statistics at each of `at`, in order, from one
    /// parallel region over (state, guess).
    fn read(&self, at: &[Classes]) -> Vec<G::Stats> {
        let s = self.samples.unwrap_or(0);
        par_map_range(at.len() * self.n_keys, |i| {
            let (at, k) = (&at[i / self.n_keys], i % self.n_keys);
            let (st, stt) = at.totals.split_at(s);
            self.combine(k, at).stats(k as u8, at.n, st, stt)
        })
    }

    /// Every guess's statistics in the current state.
    fn guesses(&self) -> Vec<G::Stats> {
        let totals = self.totals();
        self.read(&[self.classes(&totals)])
    }

    /// Records an MTD checkpoint at the current trace count. Its class
    /// state is copied and read with the block's other checkpoints at
    /// the block's end; a state too large for [`PENDING_VALUES`] is
    /// read at once instead.
    fn checkpoint(&mut self) {
        self.checkpoint_counts.push(self.n);
        let values = self.counts.len() * self.samples.unwrap_or(0);
        if self.pending_values + values > PENDING_VALUES {
            self.read_pending();
        }
        if values > PENDING_VALUES {
            let stats = self.guesses();
            self.peaks.extend(stats.iter().map(G::peak));
            return;
        }
        let s = self.samples.unwrap_or(0);
        let mut sums = Vec::with_capacity(values);
        for row in self.sums.chunks_exact(self.cols.max(1)) {
            sums.extend_from_slice(&row[..s]);
        }
        self.pending.push(Snapshot {
            n: self.n,
            counts: self.counts.clone(),
            sums,
            totals: self.totals(),
        });
        self.pending_values += values;
    }

    /// Reads the pending checkpoints and records every guess's peak at
    /// each.
    fn read_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let s = self.samples.unwrap_or(0);
        let at: Vec<Classes> = self.pending.iter().map(|p| p.classes(s)).collect();
        let stats = self.read(&at);
        self.peaks.extend(stats.iter().map(G::peak));
        self.pending.clear();
        self.pending_values = 0;
    }

    /// The MTD scan: records the final checkpoint (at the current trace
    /// count) on first call, then ranks the correct key at every
    /// checkpoint.
    fn mtd(&mut self, correct_key: u8) -> (Vec<MtdPoint>, Option<usize>) {
        let ck = usize::from(correct_key);
        assert!(
            ck < self.n_keys,
            "correct key {correct_key} outside the {} key guesses",
            self.n_keys
        );
        if self.n > 0 && self.checkpoint_counts.last() != Some(&self.n) {
            self.checkpoint();
            self.read_pending();
            obs::add(obs::Counter::DpaStreamCheckpoints, 1);
        }
        let points: Vec<MtdPoint> = self
            .checkpoint_counts
            .iter()
            .zip(self.peaks.chunks_exact(self.n_keys))
            .map(|(&traces, peaks)| {
                let correct_peak = peaks[ck];
                let best_wrong_peak = peaks
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != ck)
                    .map(|(_, &p)| p)
                    .fold(0.0f64, f64::max);
                MtdPoint {
                    traces,
                    disclosed: correct_peak > best_wrong_peak,
                    correct_peak,
                    best_wrong_peak,
                }
            })
            .collect();
        let mut mtd = None;
        for p in points.iter().rev() {
            if p.disclosed {
                mtd = Some(p.traces);
            } else {
                break;
            }
        }
        (points, mtd)
    }
}

/// A streaming DPA (and, with [`DpaStream::with_step`], MTD scan).
///
/// Push traces in blocks of any size; read the attack result or the
/// MTD scan at any point. State is O(classes × samples) plus one peak
/// per key per checkpoint.
pub struct DpaStream(ClassSums<Partition>);

impl DpaStream {
    /// A stream without MTD checkpoints (plain attack statistics).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::NoKeyGuesses`] if `n_keys == 0`;
    /// [`AnalysisError::TooManyKeyGuesses`] if `n_keys > 256`.
    pub fn new(n_keys: usize) -> Result<Self, AnalysisError> {
        ClassSums::new(n_keys, None).map(DpaStream)
    }

    /// A stream that records an MTD checkpoint every `step` traces
    /// (plus a final one at the end of the stream, matching the batch
    /// scan's checkpoint grid).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::ZeroStep`] if `step == 0`, plus the
    /// [`DpaStream::new`] errors.
    pub fn with_step(n_keys: usize, step: usize) -> Result<Self, AnalysisError> {
        ClassSums::new(n_keys, Some(step)).map(DpaStream)
    }

    /// Traces consumed so far.
    pub fn traces_seen(&self) -> usize {
        self.0.n
    }

    /// Folds a block of traces into their selection-bit classes.
    ///
    /// `select(key, j)` is the predicted selection bit for the block's
    /// `j`-th trace (block-local index) under that key guess.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InconsistentTraceLength`] if a trace's length
    /// differs from the first trace's; the stream is then unchanged.
    pub fn push_block<T: AsRef<[f64]> + Sync>(
        &mut self,
        traces: &[T],
        select: impl Fn(u8, usize) -> bool + Sync,
    ) -> Result<(), AnalysisError> {
        let n_keys = self.0.n_keys;
        self.0.push(traces, |j, sig| {
            for (w, word) in sig.iter_mut().enumerate() {
                let keys = 64 * w..n_keys.min(64 * w + 64);
                // Packed in a register, without a branch per key.
                *word = keys.fold(0u64, |bits, k| {
                    bits | u64::from(select(k as u8, j)) << (k % 64)
                });
            }
        })
    }

    /// Attack statistics over everything streamed so far. Bitwise
    /// equal to [`crate::attack::dpa_attack`] over the same traces.
    pub fn result(&self) -> DpaResult {
        crate::attack::finalize(self.0.guesses())
    }

    /// The MTD scan over everything streamed so far. Records the
    /// final checkpoint (at the current trace count) on first call;
    /// idempotent afterwards. Bitwise equal to
    /// [`crate::attack::mtd_scan`] over the same traces and step.
    ///
    /// # Panics
    ///
    /// Panics if `correct_key` is not below the stream's `n_keys`
    /// ([`crate::attack::mtd_scan`] returns a typed error instead).
    pub fn mtd(&mut self, correct_key: u8) -> MtdScan {
        let (points, mtd) = self.0.mtd(correct_key);
        MtdScan { points, mtd }
    }
}

/// A streaming CPA (and, with [`CpaStream::with_step`], MTD scan).
///
/// Push traces in blocks of any size; read the attack result or the
/// MTD scan at any point. The trace moments Σt, Σt² are combined from
/// the class sums at every read, beside each guess's hypothesis
/// moments.
pub struct CpaStream(ClassSums<Moments>);

impl CpaStream {
    /// A stream without MTD checkpoints (plain attack statistics).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::NoKeyGuesses`] if `n_keys == 0`;
    /// [`AnalysisError::TooManyKeyGuesses`] if `n_keys > 256`.
    pub fn new(n_keys: usize) -> Result<Self, AnalysisError> {
        ClassSums::new(n_keys, None).map(CpaStream)
    }

    /// A stream that records an MTD checkpoint every `step` traces
    /// (plus a final one at the end of the stream).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::ZeroStep`] if `step == 0`, plus the
    /// [`CpaStream::new`] errors.
    pub fn with_step(n_keys: usize, step: usize) -> Result<Self, AnalysisError> {
        ClassSums::new(n_keys, Some(step)).map(CpaStream)
    }

    /// Traces consumed so far.
    pub fn traces_seen(&self) -> usize {
        self.0.n
    }

    /// Folds a block of traces into their model-value classes.
    ///
    /// `model(key, j)` is the hypothetical power for the block's
    /// `j`-th trace (block-local index) under that key guess.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InconsistentTraceLength`] if a trace's length
    /// differs from the first trace's; the stream is then unchanged.
    pub fn push_block<T: AsRef<[f64]> + Sync>(
        &mut self,
        traces: &[T],
        model: impl Fn(u8, usize) -> f64 + Sync,
    ) -> Result<(), AnalysisError> {
        self.0.push(traces, |j, sig| {
            for (k, w) in sig.iter_mut().enumerate() {
                *w = model(k as u8, j).to_bits();
            }
        })
    }

    /// Attack statistics over everything streamed so far. Bitwise
    /// equal to [`crate::cpa::cpa_attack`] over the same traces.
    pub fn result(&self) -> CpaResult {
        crate::cpa::finalize(self.0.guesses())
    }

    /// The MTD scan over everything streamed so far; same final-
    /// checkpoint and idempotence behavior as [`DpaStream::mtd`].
    /// Bitwise equal to [`crate::cpa::cpa_mtd_scan`].
    ///
    /// # Panics
    ///
    /// Panics if `correct_key` is not below the stream's `n_keys`
    /// ([`crate::cpa::cpa_mtd_scan`] returns a typed error instead).
    pub fn mtd(&mut self, correct_key: u8) -> (Vec<CpaMtdPoint>, Option<usize>) {
        let (points, mtd) = self.0.mtd(correct_key);
        let points = points
            .into_iter()
            .map(|p| CpaMtdPoint {
                traces: p.traces,
                disclosed: p.disclosed,
                correct_corr: p.correct_peak,
                best_wrong_corr: p.best_wrong_peak,
            })
            .collect();
        (points, mtd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::dpa_attack;
    use crate::cpa::{cpa_attack, sbox_hamming_model};

    fn traces_and_data(n: usize) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut traces = Vec::new();
        let mut data = Vec::new();
        let mut state = 31u64;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            let c = ((state >> 33) & 0x3f) as u8;
            data.push(c);
            let hw = f64::from(secflow_crypto::des::sbox(0, c ^ 9).count_ones());
            let mut t = vec![1.0; 7];
            t[2] += 0.2 * hw;
            t[5] += ((state >> 13) & 7) as f64 * 0.03;
            traces.push(t);
        }
        (traces, data)
    }

    fn sel(key: u8, c: u8) -> bool {
        secflow_crypto::des::sbox(0, (c ^ key) & 63) & 1 == 1
    }

    fn bits(r: &DpaResult) -> Vec<(u64, u64)> {
        r.guesses
            .iter()
            .map(|g| (g.peak.to_bits(), g.p2p.to_bits()))
            .collect()
    }

    #[test]
    fn dpa_stream_matches_batch_across_chunkings() {
        let (traces, data) = traces_and_data(157);
        let batch = dpa_attack(&traces, 16, |k, i| sel(k, data[i])).unwrap();
        for chunk in [1, 63, 64, 65, 157] {
            let mut s = DpaStream::new(16).unwrap();
            for block in traces.chunks(chunk) {
                let base = s.traces_seen();
                s.push_block(block, |k, j| sel(k, data[base + j])).unwrap();
            }
            let got = s.result();
            assert_eq!(bits(&got), bits(&batch), "chunk {chunk}");
            assert_eq!(got.best_key, batch.best_key);
            assert_eq!(got.margin.to_bits(), batch.margin.to_bits());
        }
    }

    #[test]
    fn dpa_stream_mtd_matches_batch_scan() {
        let (traces, data) = traces_and_data(130);
        let batch = crate::attack::mtd_scan(&traces, 16, 9, 25, |k, i| sel(k, data[i])).unwrap();
        for chunk in [1, 63, 64, 65] {
            let mut s = DpaStream::with_step(16, 25).unwrap();
            for block in traces.chunks(chunk) {
                let base = s.traces_seen();
                s.push_block(block, |k, j| sel(k, data[base + j])).unwrap();
            }
            let scan = s.mtd(9);
            assert_eq!(scan, batch, "chunk {chunk}");
            // Idempotent: a second read returns the same scan.
            assert_eq!(s.mtd(9), batch);
        }
    }

    #[test]
    fn cpa_stream_matches_batch_across_chunkings() {
        let (traces, data) = traces_and_data(149);
        let batch = cpa_attack(&traces, 64, |k, i| sbox_hamming_model(k, 0, data[i])).unwrap();
        for chunk in [1, 63, 64, 65, 149] {
            let mut s = CpaStream::new(64).unwrap();
            for block in traces.chunks(chunk) {
                let base = s.traces_seen();
                s.push_block(block, |k, j| sbox_hamming_model(k, 0, data[base + j]))
                    .unwrap();
            }
            let got = s.result();
            let a: Vec<u64> = got.guesses.iter().map(|g| g.peak_corr.to_bits()).collect();
            let b: Vec<u64> = batch
                .guesses
                .iter()
                .map(|g| g.peak_corr.to_bits())
                .collect();
            assert_eq!(a, b, "chunk {chunk}");
            assert_eq!(got.best_key, batch.best_key);
        }
    }

    #[test]
    fn cpa_stream_mtd_matches_batch_scan() {
        let (traces, data) = traces_and_data(123);
        let (bpoints, bmtd) =
            crate::cpa::cpa_mtd_scan(&traces, 64, 9, 30, |k, i| sbox_hamming_model(k, 0, data[i]))
                .unwrap();
        for chunk in [1, 64, 65] {
            let mut s = CpaStream::with_step(64, 30).unwrap();
            for block in traces.chunks(chunk) {
                let base = s.traces_seen();
                s.push_block(block, |k, j| sbox_hamming_model(k, 0, data[base + j]))
                    .unwrap();
            }
            let (points, mtd) = s.mtd(9);
            assert_eq!(points, bpoints, "chunk {chunk}");
            assert_eq!(mtd, bmtd);
        }
    }

    #[test]
    fn checkpoints_read_late_or_at_once_equal_prefix_results() {
        // At 7 samples every checkpoint waits for the end of its block;
        // past PENDING_VALUES / 16 samples, states of 16 classes or more
        // are read at once.
        for samples in [7, PENDING_VALUES / 16 + 1] {
            let (mut traces, data) = traces_and_data(60);
            for t in &mut traces {
                let head = t.clone();
                t.extend((7..samples).map(|i| head[i % 7] * (1.0 + i as f64 * 1e-4)));
            }
            let sel16 = |k: u8, i: usize| sel(k, data[i]);
            let model = |k: u8, i: usize| sbox_hamming_model(k, 0, data[i]);
            let mut dpa = DpaStream::with_step(16, 10).unwrap();
            let mut cpa = CpaStream::with_step(16, 10).unwrap();
            for block in traces.chunks(23) {
                let base = dpa.traces_seen();
                dpa.push_block(block, |k, j| sel16(k, base + j)).unwrap();
                cpa.push_block(block, |k, j| model(k, base + j)).unwrap();
            }
            let best_wrong = |peaks: Vec<f64>| {
                let wrong = peaks.iter().enumerate().filter(|&(k, _)| k != 9);
                wrong.map(|(_, &p)| p).fold(0.0f64, f64::max).to_bits()
            };
            let scan = dpa.mtd(9);
            assert_eq!(scan.points.len(), 6);
            for p in &scan.points {
                let r = dpa_attack(&traces[..p.traces], 16, sel16).unwrap();
                let peaks: Vec<f64> = r.guesses.iter().map(|g| g.peak).collect();
                assert_eq!(p.correct_peak.to_bits(), peaks[9].to_bits(), "{samples}");
                assert_eq!(p.best_wrong_peak.to_bits(), best_wrong(peaks));
            }
            for p in &cpa.mtd(9).0 {
                let r = cpa_attack(&traces[..p.traces], 16, model).unwrap();
                let peaks: Vec<f64> = r.guesses.iter().map(|g| g.peak_corr).collect();
                assert_eq!(p.correct_corr.to_bits(), peaks[9].to_bits(), "{samples}");
                assert_eq!(p.best_wrong_corr.to_bits(), best_wrong(peaks));
            }
        }
    }

    #[test]
    fn classes_found_before_a_budget_fold_are_looked_up_again() {
        // Three guesses give eight signatures against a budget of six
        // classes. The second block's first trace folds the table, so
        // the classes its later traces were found in when the block
        // began no longer exist.
        let sigs = [0u8, 1, 2, 3, 4, 5, 6, 0, 1, 7, 2, 5];
        let traces: Vec<Vec<f64>> = (0..sigs.len())
            .map(|i| vec![1.0 + 0.37 * i as f64, (i * i % 7) as f64])
            .collect();
        let bit = |k: u8, i: usize| sigs[i] >> k & 1 == 1;
        let model = |k: u8, i: usize| 0.5 * f64::from(sigs[i]) + f64::from(k);
        let mut dpa = DpaStream::new(3).unwrap();
        let mut cpa = CpaStream::new(3).unwrap();
        for block in [&traces[..6], &traces[6..]] {
            let base = dpa.traces_seen();
            dpa.push_block(block, |k, j| bit(k, base + j)).unwrap();
            cpa.push_block(block, |k, j| model(k, base + j)).unwrap();
        }
        let batch = dpa_attack(&traces, 3, bit).unwrap();
        assert_eq!(bits(&dpa.result()), bits(&batch));
        let corr = |r: CpaResult| -> Vec<u64> {
            r.guesses.iter().map(|g| g.peak_corr.to_bits()).collect()
        };
        assert_eq!(
            corr(cpa.result()),
            corr(cpa_attack(&traces, 3, model).unwrap())
        );
    }

    #[test]
    fn constructors_reject_bad_parameters() {
        assert_eq!(
            DpaStream::new(0).err(),
            Some(AnalysisError::NoKeyGuesses)
        );
        assert_eq!(
            DpaStream::with_step(16, 0).err(),
            Some(AnalysisError::ZeroStep)
        );
        assert_eq!(CpaStream::new(0).err(), Some(AnalysisError::NoKeyGuesses));
        assert_eq!(
            CpaStream::with_step(64, 0).err(),
            Some(AnalysisError::ZeroStep)
        );
    }

    #[test]
    fn ragged_trace_is_reported_with_global_index() {
        let mut s = DpaStream::new(4).unwrap();
        s.push_block(&[vec![1.0; 5], vec![2.0; 5]], |_, _| true)
            .unwrap();
        let err = s
            .push_block(&[vec![3.0; 5], vec![4.0; 6]], |_, _| true)
            .unwrap_err();
        assert_eq!(
            err,
            AnalysisError::InconsistentTraceLength {
                index: 3,
                got: 6,
                expect: 5
            }
        );
        // The failed block left the stream untouched.
        assert_eq!(s.traces_seen(), 2);
    }

    #[test]
    fn empty_stream_degenerates_like_batch() {
        let empty: Vec<Vec<f64>> = Vec::new();
        let batch = dpa_attack(&empty, 8, |_, _| true).unwrap();
        let s = DpaStream::new(8).unwrap();
        assert_eq!(s.result(), batch);
        let cbatch = cpa_attack(&empty, 8, |_, _| 1.0).unwrap();
        let cs = CpaStream::new(8).unwrap();
        assert_eq!(cs.result(), cbatch);
        let mut ms = DpaStream::with_step(8, 10).unwrap();
        let scan = ms.mtd(0);
        assert!(scan.points.is_empty() && scan.mtd.is_none());
    }

    #[test]
    fn constructors_reject_more_guesses_than_u8_keys_can_label() {
        let too_many = Some(AnalysisError::TooManyKeyGuesses { n_keys: 257 });
        assert_eq!(DpaStream::new(257).err(), too_many);
        assert_eq!(DpaStream::with_step(257, 4).err(), too_many);
        assert_eq!(CpaStream::new(257).err(), too_many);
        assert_eq!(CpaStream::with_step(257, 4).err(), too_many);
        assert!(DpaStream::new(256).is_ok() && CpaStream::new(256).is_ok());
    }

    #[test]
    #[should_panic(expected = "correct key 8 outside the 8 key guesses")]
    fn mtd_panics_on_a_correct_key_outside_the_guesses() {
        DpaStream::with_step(8, 10).unwrap().mtd(8);
    }
}
