//! Sample statistics the benchmark computes itself: exact quantiles over
//! retained durations, medians/quartiles over repetitions, and the exact
//! per-bucket view of a `core::Histogram` recovered through its public
//! accessors (so windows can be differenced and shares below a bucket edge
//! are exact even though `Histogram::quantile_us` is not).

use replimid_core::Histogram;

/// Exact quantile of `sorted` (ascending): the smallest sample with at
/// least `q` of the samples at or below it (nearest-rank; no
/// interpolation, so the result is always a recorded value).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of repetition values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so `compare` judges spread by the same
/// rule the acceptance runs use. Needs two values; fewer give `(v, v)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, linear between neighbours.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

pub const N_BUCKETS: usize = 31;

/// The exact content of a `core::Histogram`: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` µs (bucket 0 also holds 0 µs, bucket 30 everything
/// above). Unlike the histogram itself, two of these can be subtracted,
/// which is how a measured window is cut out of a running histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buckets {
    pub counts: [u64; N_BUCKETS],
    pub count: u64,
    pub sum_us: u64,
}

impl Buckets {
    /// Recover the bucket counts through `quantile_us` alone. For rank
    /// `t` (1-based), `quantile_us((t - 0.5) / count)` is the upper edge of
    /// the bucket holding the `t`-th smallest sample (clamped to the
    /// maximum), and it is monotone in `t`; so the number of samples in
    /// buckets `0..=i` is the largest `t` whose answer is `<= 2^(i+1)`,
    /// found by binary search.
    pub fn of(h: &Histogram) -> Buckets {
        let count = h.count();
        let mut cum = [0u64; N_BUCKETS];
        for (i, c) in cum.iter_mut().enumerate() {
            let edge = 1u64 << (i + 1);
            let (mut lo, mut hi) = (0u64, count); // answer in [lo, hi]
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                let q = (mid as f64 - 0.5) / count as f64;
                if i == N_BUCKETS - 1 || h.quantile_us(q) <= edge {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            *c = lo;
        }
        let mut counts = cum;
        for i in (1..N_BUCKETS).rev() {
            counts[i] -= cum[i - 1];
        }
        Buckets {
            counts,
            count,
            sum_us: h.sum_us(),
        }
    }

    /// `self - earlier`: the samples recorded after the `earlier` snapshot
    /// of the same histogram.
    pub fn since(&self, earlier: &Buckets) -> Buckets {
        let mut counts = self.counts;
        for (c, e) in counts.iter_mut().zip(&earlier.counts) {
            *c -= e;
        }
        Buckets {
            counts,
            count: self.count - earlier.count,
            sum_us: self.sum_us - earlier.sum_us,
        }
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Samples strictly below `2^k` µs (`k >= 1`) — exact, because `2^k` is
    /// a bucket edge. One blind spot inherited from `quantile_us`: when the
    /// maximum is exactly `2^k`, samples equal to it cannot be told from
    /// bucket `k - 1` and are counted as below.
    pub fn below_pow2(&self, k: usize) -> u64 {
        self.counts[..k.min(N_BUCKETS)].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replimid_det::DetRng;

    #[test]
    fn exact_quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        // A 1 µs change in one sample moves the answer by at most 1 µs.
        let a = [10, 20, 1023, 5000];
        let b = [10, 20, 1024, 5000];
        assert_eq!(quantile_sorted(&b, 0.75) - quantile_sorted(&a, 0.75), 1);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!(
            (q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12,
            "{q1} {q3}"
        );
    }

    /// The public-accessor extraction against a brute-force sample list.
    #[test]
    fn buckets_match_brute_force() {
        let mut rng = DetRng::seed_from_u64(5);
        for round in 0..20 {
            let n = 1 + round * 137;
            let mut h = Histogram::new();
            let mut samples = Vec::new();
            for _ in 0..n {
                let shift = rng.gen_range(0..34u32);
                let us = rng.next_u64() >> (30 + shift);
                h.record(us);
                samples.push(us);
            }
            let b = Buckets::of(&h);
            assert_eq!(b.count, n as u64);
            assert_eq!(b.sum_us, samples.iter().sum::<u64>());
            // k = 0 would ask for samples under 1 µs, which share bucket 0.
            for k in 1..=N_BUCKETS {
                let brute = if k >= N_BUCKETS {
                    samples.len()
                } else {
                    samples.iter().filter(|&&s| s < (1u64 << k)).count()
                };
                assert_eq!(b.below_pow2(k), brute as u64, "round {round} k {k}");
            }
        }
    }

    #[test]
    fn windows_subtract() {
        let mut h = Histogram::new();
        for us in [5, 900, 1500] {
            h.record(us);
        }
        let before = Buckets::of(&h);
        for us in [100, 1023, 1024, 70_000] {
            h.record(us);
        }
        let w = Buckets::of(&h).since(&before);
        assert_eq!(w.count, 4);
        assert_eq!(w.sum_us, 100 + 1023 + 1024 + 70_000);
        assert_eq!(w.below_pow2(10), 2); // 100 and 1023 are under 1024 µs
        assert!((w.mean_us() - 18_036.75).abs() < 1e-9);
    }
}
