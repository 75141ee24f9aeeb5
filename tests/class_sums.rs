//! The class-sum accumulators of `dpa::streaming`: each trace is
//! summed once into the class of its predictions under every key
//! guess, and reads combine the classes per guess.
//!
//! Three checks beside the streaming-vs-batch pins of
//! `streaming_equiv.rs`:
//!
//! 1. a property test with per-trace pseudo-random signatures, so the
//!    class table reaches its budget of `2 · n_keys` classes and folds
//!    again and again, over key spaces of one to four signature words;
//! 2. a selector with exactly `2 · n_keys + 1` signatures against a
//!    naive per-guess fold written here;
//! 3. the accuracy of every DPA and CPA statistic over 65 536 traces
//!    with a large DC offset, against a compensated reference.

use secflow::crypto::dpa_module::selection;
use secflow::dpa::attack::{dpa_attack, mtd_scan, DpaResult};
use secflow::dpa::cpa::{cpa_attack, cpa_mtd_scan, sbox_hamming_model, CpaResult};
use secflow::dpa::streaming::{CpaStream, DpaStream};
use secflow::exec::with_threads;
use secflow::obs::{self, Counter};
use secflow_testkit::prop_check;

/// SplitMix64 finalizer: a pseudo-random word per input word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn dpa_bits(r: &DpaResult) -> Vec<u64> {
    let mut out = vec![u64::from(r.best_key), r.margin.to_bits()];
    for g in &r.guesses {
        out.extend([u64::from(g.key), g.peak.to_bits(), g.p2p.to_bits()]);
    }
    out
}

fn cpa_bits(r: &CpaResult) -> Vec<u64> {
    let mut out = vec![u64::from(r.best_key), r.margin.to_bits()];
    for g in &r.guesses {
        out.extend([u64::from(g.key), g.peak_corr.to_bits()]);
    }
    out
}

/// Every trace gets its own pseudo-random signature, so every trace
/// opens a class and the table folds every `2 · n_keys` traces. The
/// streams must equal the batch attacks bit for bit at any block
/// cuts, checkpoint step and thread count.
#[test]
fn budget_folds_keep_streams_equal_to_batch() {
    prop_check!(cases: 16, seed: 0x0C1A_55E5, |g| {
        let n_keys = *g.choose(&[1usize, 7, 64, 65, 130, 256]);
        let n = 1 + g.len_in(0..5 * n_keys + 8);
        let samples = g.len_in(1..5);
        let step = g.random_range(n / 6 + 1..n + 2);
        let threads = *g.choose(&[1usize, 2, 8]);
        let correct = (g.random::<u8>() as usize % n_keys) as u8;
        let salt: u64 = g.random();
        let traces: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..samples).map(|_| f64::from(g.random::<u16>()) / 64.0).collect())
            .collect();
        let word = |k: u8, i: usize| mix(salt ^ ((i as u64) << 8 | u64::from(k)));
        let select = |k: u8, i: usize| word(k, i) & 1 == 1;
        // Non-integer model values.
        let model = |k: u8, i: usize| (word(k, i) % 1000) as f64 / 7.0 + 0.1;
        let mut cuts = vec![0usize, n];
        for _ in 0..g.len_in(0..4) {
            cuts.push(g.random_range(0..n + 1));
        }
        cuts.sort_unstable();

        let ((), report) = obs::capture(|| with_threads(threads, || {
            let batch = dpa_attack(&traces, n_keys, select).unwrap();
            let batch_scan = mtd_scan(&traces, n_keys, correct, step, select).unwrap();
            let cbatch = cpa_attack(&traces, n_keys, model).unwrap();
            let cbatch_scan = cpa_mtd_scan(&traces, n_keys, correct, step, model).unwrap();

            let mut ds = DpaStream::with_step(n_keys, step).unwrap();
            let mut cs = CpaStream::with_step(n_keys, step).unwrap();
            for w in cuts.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                ds.push_block(&traces[lo..hi], |k, j| select(k, lo + j)).unwrap();
                cs.push_block(&traces[lo..hi], |k, j| model(k, lo + j)).unwrap();
            }
            // A checkpoint grid does not move the statistic.
            assert_eq!(dpa_bits(&ds.result()), dpa_bits(&batch));
            assert_eq!(cpa_bits(&cs.result()), cpa_bits(&cbatch));
            assert_eq!(ds.mtd(correct), batch_scan);
            assert_eq!(cs.mtd(correct), cbatch_scan);
        }));
        if n > 4 * n_keys + 8 {
            assert!(report.counter(Counter::DpaStreamFolds) > 0, "{n} traces fold");
        }
    });
}

/// Sums per key guess in input order — the accumulator the class sums
/// replaced.
struct NaiveFold {
    n1: Vec<f64>,
    sum1: Vec<Vec<f64>>,
    sum0: Vec<Vec<f64>>,
    sh: Vec<f64>,
    shh: Vec<f64>,
    sht: Vec<Vec<f64>>,
    st: Vec<f64>,
    stt: Vec<f64>,
}

impl NaiveFold {
    fn new(n_keys: usize, samples: usize) -> Self {
        NaiveFold {
            n1: vec![0.0; n_keys],
            sum1: vec![vec![0.0; samples]; n_keys],
            sum0: vec![vec![0.0; samples]; n_keys],
            sh: vec![0.0; n_keys],
            shh: vec![0.0; n_keys],
            sht: vec![vec![0.0; samples]; n_keys],
            st: vec![0.0; samples],
            stt: vec![0.0; samples],
        }
    }

    fn add(&mut self, t: &[f64], bit: impl Fn(usize) -> bool, h: impl Fn(usize) -> f64) {
        for k in 0..self.n1.len() {
            let side = if bit(k) {
                self.n1[k] += 1.0;
                &mut self.sum1[k]
            } else {
                &mut self.sum0[k]
            };
            for (a, &v) in side.iter_mut().zip(t) {
                *a += v;
            }
            let h = h(k);
            self.sh[k] += h;
            self.shh[k] += h * h;
            for (a, &v) in self.sht[k].iter_mut().zip(t) {
                *a += h * v;
            }
        }
        for (s, &v) in t.iter().enumerate() {
            self.st[s] += v;
            self.stt[s] += v * v;
        }
    }

    /// Per guess: DPA peak, DPA peak-to-peak, CPA peak |r|.
    fn stats(&self, n: usize) -> Vec<[f64; 3]> {
        let nf = n as f64;
        (0..self.n1.len())
            .map(|k| {
                let (n1, n0) = (self.n1[k], nf - self.n1[k]);
                let d: Vec<f64> = self.sum1[k]
                    .iter()
                    .zip(&self.sum0[k])
                    .map(|(s1, s0)| s1 / n1 - s0 / n0)
                    .collect();
                let peak = d.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                let hi = d.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let lo = d.iter().copied().fold(f64::INFINITY, f64::min);
                let var_h = self.shh[k] - self.sh[k] * self.sh[k] / nf;
                let corr = (0..self.st.len())
                    .map(|s| {
                        let var_t = self.stt[s] - self.st[s] * self.st[s] / nf;
                        let cov = self.sht[k][s] - self.sh[k] * self.st[s] / nf;
                        (cov / (var_h * var_t).sqrt()).abs()
                    })
                    .fold(0.0f64, f64::max);
                [peak, hi - lo, corr]
            })
            .collect()
    }
}

fn assert_close(got: f64, want: f64, tol: f64, what: &str) -> f64 {
    let rel = (got - want).abs() / want.abs();
    assert!(
        rel <= tol,
        "{what}: got {got:e}, want {want:e}, relative {rel:e}"
    );
    rel
}

/// A selector with exactly `2 · n_keys + 1` signatures: the table fills
/// its budget, and the next new signature folds it into the committed
/// per-guess sums. The results must stay within 1e-12 of a per-guess
/// fold. The traces are centred, so neither summation order loses
/// digits to cancellation and 1e-12 separates rounding from a lost or
/// doubled class.
#[test]
fn one_signature_past_the_budget_folds_and_matches_a_per_guess_fold() {
    const N_KEYS: usize = 16;
    const N: usize = 3000;
    const SAMPLES: usize = 12;
    let n_sigs = 2 * N_KEYS + 1;
    // Signature `c` is the 16 selection bits `mix(c)`, with model value
    // `1 + bit + c / 10` under each guess.
    let sel = |k: usize, c: usize| mix(c as u64) >> k & 1 == 1;
    let hyp = |k: usize, c: usize| 1.0 + f64::from(u8::from(sel(k, c))) + c as f64 / 10.0;
    let classes: Vec<usize> = (0..N)
        .map(|i| mix(1000 + i as u64) as usize % n_sigs)
        .collect();
    let traces: Vec<Vec<f64>> = (0..N)
        .map(|i| {
            (0..SAMPLES)
                .map(|s| {
                    let noise = (mix((i * SAMPLES + s) as u64) >> 11) as f64 / (1u64 << 53) as f64;
                    let leak = if s == 5 && sel(3, classes[i]) {
                        0.4
                    } else {
                        0.0
                    };
                    noise - 0.5 + leak
                })
                .collect()
        })
        .collect();

    let mut naive = NaiveFold::new(N_KEYS, SAMPLES);
    for (t, &c) in traces.iter().zip(&classes) {
        naive.add(t, |k| sel(k, c), |k| hyp(k, c));
    }
    let want = naive.stats(N);

    let ((dpa, cpa), report) = obs::capture(|| {
        let dpa = dpa_attack(&traces, N_KEYS, |k, i| sel(usize::from(k), classes[i])).unwrap();
        let cpa = cpa_attack(&traces, N_KEYS, |k, i| hyp(usize::from(k), classes[i])).unwrap();
        (dpa, cpa)
    });
    assert!(
        report.counter(Counter::DpaStreamFolds) >= 2,
        "both streams fold"
    );
    assert_eq!(
        report.gauge(obs::Gauge::DpaStreamClassesPeak),
        2 * N_KEYS as u64
    );
    for (k, [peak, p2p, corr]) in want.into_iter().enumerate() {
        assert_close(dpa.guesses[k].peak, peak, 1e-12, "DPA peak");
        assert_close(dpa.guesses[k].p2p, p2p, 1e-12, "DPA p2p");
        assert_close(cpa.guesses[k].peak_corr, corr, 1e-12, "CPA peak");
    }
    assert_eq!(dpa.best_key, 3);
}

/// Neumaier-compensated running sum.
#[derive(Clone, Copy, Default)]
struct Neumaier {
    sum: f64,
    comp: f64,
}

impl Neumaier {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    fn add_sum(&mut self, other: &Neumaier, scale: f64) {
        self.add(scale * other.sum);
        self.add(scale * other.comp);
    }

    fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// 65 536 traces of 100 samples at a DC offset of 10 with a 1e-3 leak
/// of the DES selection bit and of the S-box output's Hamming weight
/// under the correct key. Every DPA and CPA statistic must be within
/// 1e-9 of a reference that sums the offset-free samples `t − 10`
/// (exact for these traces) with Neumaier compensation. The offset
/// cancels in every statistic, so rounding in the sums of `t` shows
/// up a hundredfold magnified.
#[test]
fn statistics_at_a_large_dc_offset_match_a_compensated_reference() {
    const N: usize = 1 << 16;
    const SAMPLES: usize = 100;
    const BLOCK: usize = 4096;
    const KEY: u8 = 46;
    const DC: f64 = 10.0;
    const LEAK: f64 = 1e-3;
    // Uniform noise this wide hides the leak in a single trace, yet both
    // attacks find the key over the whole set.
    const NOISE: f64 = 0.1;
    // Reference sums per (selection bit of CL, CR), the data that both
    // predictions depend on.
    let group = |cl: u8, cr: u8| usize::from(cl >> 2 & 1) * 64 + usize::from(cr);
    let mut counts = [0usize; 128];
    let mut sums = vec![[Neumaier::default(); SAMPLES]; 128];
    let mut squares = [Neumaier::default(); SAMPLES];

    let mut dpa = DpaStream::new(64).unwrap();
    let mut cpa = CpaStream::new(64).unwrap();
    let mut state = 0x5EED_u64;
    // Under a capture, so that this stream's class table stays out of
    // the gauges the other tests here read.
    let ((dpa, cpa), _) = obs::capture(|| {
        for b in 0..N / BLOCK {
            let mut cts = Vec::with_capacity(BLOCK);
            let mut block = Vec::with_capacity(BLOCK);
            for _ in 0..BLOCK {
                state = mix(state);
                let (cl, cr) = ((state >> 8 & 15) as u8, (state >> 16 & 63) as u8);
                let bit = f64::from(u8::from(selection(KEY, cl, cr)));
                let hw = sbox_hamming_model(KEY, cl, cr);
                let t: Vec<f64> = (0..SAMPLES)
                    .map(|s| {
                        state = mix(state);
                        let noise = NOISE * ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
                        let leak = match s {
                            20 => LEAK * bit,
                            60 => LEAK * hw,
                            _ => 0.0,
                        };
                        DC + noise + leak
                    })
                    .collect();
                let gi = group(cl, cr);
                counts[gi] += 1;
                for (s, &v) in t.iter().enumerate() {
                    let y = v - DC;
                    sums[gi][s].add(y);
                    squares[s].add(y * y);
                }
                cts.push((cl, cr));
                block.push(t);
            }
            dpa.push_block(&block, |k, j| selection(k, cts[j].0, cts[j].1))
                .unwrap();
            cpa.push_block(&block, |k, j| sbox_hamming_model(k, cts[j].0, cts[j].1))
                .unwrap();
            assert_eq!(dpa.traces_seen(), (b + 1) * BLOCK);
        }
        (dpa.result(), cpa.result())
    });

    let n = N as f64;
    let mut total = [Neumaier::default(); SAMPLES];
    for group in &sums {
        for (t, g) in total.iter_mut().zip(group) {
            t.add_sum(g, 1.0);
        }
    }
    let (mut worst_dpa, mut worst_cpa) = (0.0f64, 0.0f64);
    for k in 0..64u8 {
        // DPA: difference of the conditional means of `t − 10`.
        let (mut n1, mut n0) = (0usize, 0usize);
        let mut s1 = [Neumaier::default(); SAMPLES];
        let mut s0 = [Neumaier::default(); SAMPLES];
        // CPA: moments of the model h and of `t − 10`.
        let (mut sh, mut shh) = (0.0f64, 0.0f64);
        let mut shy = [Neumaier::default(); SAMPLES];
        for gi in 0..128 {
            let (cl, cr) = (((gi / 64) << 2) as u8, (gi % 64) as u8);
            let c = counts[gi];
            let (side, nside) = if selection(k, cl, cr) {
                (&mut s1, &mut n1)
            } else {
                (&mut s0, &mut n0)
            };
            *nside += c;
            let h = sbox_hamming_model(k, cl, cr);
            sh += c as f64 * h;
            shh += c as f64 * h * h;
            for s in 0..SAMPLES {
                side[s].add_sum(&sums[gi][s], 1.0);
                shy[s].add_sum(&sums[gi][s], h);
            }
        }
        let d: Vec<f64> = (0..SAMPLES)
            .map(|s| s1[s].value() / n1 as f64 - s0[s].value() / n0 as f64)
            .collect();
        let peak = d.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let hi = d.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lo = d.iter().copied().fold(f64::INFINITY, f64::min);
        let var_h = shh - sh * sh / n;
        let corr = (0..SAMPLES)
            .map(|s| {
                let sy = total[s].value();
                let var_y = squares[s].value() - sy * sy / n;
                let cov = shy[s].value() - sh * sy / n;
                (cov / (var_h * var_y).sqrt()).abs()
            })
            .fold(0.0f64, f64::max);
        let g = &dpa.guesses[usize::from(k)];
        worst_dpa = worst_dpa
            .max(assert_close(g.peak, peak, 1e-9, "DPA peak"))
            .max(assert_close(g.p2p, hi - lo, 1e-9, "DPA p2p"));
        let c = &cpa.guesses[usize::from(k)];
        worst_cpa = worst_cpa.max(assert_close(c.peak_corr, corr, 1e-9, "CPA peak"));
    }
    eprintln!("largest relative error: DPA {worst_dpa:e}, CPA {worst_cpa:e}");
    assert_eq!((dpa.best_key, cpa.best_key), (KEY, KEY));
}
