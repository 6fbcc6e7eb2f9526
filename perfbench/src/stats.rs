//! The benchmark's own arithmetic: order statistics, each op's best time
//! over a run's passes, time windows, the Zipf popularity sampler, and the
//! residual subtraction that attributes client-observed latency to
//! transport and queueing.

use proptest::test_runner::TestRng;

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples:
/// the smallest sample with at least `p`% of the samples at or below it.
/// Returns `NaN` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median as the nearest-rank 50th percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Each op's best (smallest) time over the passes of a run. `samples`
/// holds whole passes of `ops` times each, every pass in the same op
/// order. Work from elsewhere on a shared machine only ever adds time, so
/// the best of many passes is the op's own cost.
pub fn best_per_op(samples: &[f64], ops: usize) -> Vec<f64> {
    assert!(
        ops > 0 && samples.len().is_multiple_of(ops),
        "{} samples are not whole passes of {ops} ops",
        samples.len()
    );
    let mut best = vec![f64::INFINITY; ops];
    for (i, &s) in samples.iter().enumerate() {
        best[i % ops] = best[i % ops].min(s);
    }
    best
}

/// Splits `(end_s, value)` samples of a run that lasted `span_s` seconds
/// into `n` windows of equal length by end time; a sample ending at or
/// after `span_s` goes into the last window.
pub fn windows(samples: &[(f64, f64)], span_s: f64, n: usize) -> Vec<Vec<f64>> {
    assert!(
        n > 0 && span_s > 0.0,
        "windows need n > 0 and a positive span"
    );
    let mut out = vec![Vec::new(); n];
    for &(end_s, v) in samples {
        let k = (end_s / span_s * n as f64).max(0.0) as usize;
        out[k.min(n - 1)].push(v);
    }
    out
}

/// Client-observed time left over once the in-process parts of the same
/// request class are subtracted: what the transport (frame I/O, socket,
/// thread hand-off) and queueing add. Clamped at zero, because a residual
/// below the parts' own noise is no evidence of negative cost.
pub fn residual(observed: f64, parts: &[f64]) -> f64 {
    (observed - parts.iter().sum::<f64>()).max(0.0)
}

/// Samples ranks `0..n` with probability proportional to `1 / (k+1)^s`
/// (Zipf), by inverting the cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "a Zipf distribution needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut TestRng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn best_per_op_takes_each_ops_minimum_over_passes() {
        // Three passes of two ops.
        let v = [5.0, 9.0, 4.0, 11.0, 6.0, 8.0];
        assert_eq!(best_per_op(&v, 2), vec![4.0, 8.0]);
        assert_eq!(best_per_op(&v, 6), v.to_vec());
        assert_eq!(best_per_op(&[3.0, 1.0], 1), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "not whole passes")]
    fn best_per_op_rejects_a_partial_pass() {
        best_per_op(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn windows_split_by_end_time() {
        let s = [
            (0.1, 1.0),
            (0.9, 2.0),
            (1.0, 3.0),
            (2.5, 4.0),
            (3.0, 5.0),
            (3.2, 6.0),
        ];
        let w = windows(&s, 3.0, 3);
        assert_eq!(w, vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(
            windows(&s, 3.0, 1),
            vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]
        );
        assert!(windows(&[], 1.0, 2).iter().all(Vec::is_empty));
    }

    #[test]
    fn zipf_follows_its_weights() {
        let z = Zipf::new(4, 1.0);
        let mut rng = TestRng::new(7);
        let mut hits = [0u32; 4];
        let draws = 200_000;
        for _ in 0..draws {
            hits[z.sample(&mut rng)] += 1;
        }
        // Weights 1, 1/2, 1/3, 1/4 over their sum 25/12.
        let norm = 25.0 / 12.0;
        for (k, &h) in hits.iter().enumerate() {
            let want = 1.0 / (k as f64 + 1.0) / norm;
            let got = f64::from(h) / f64::from(draws);
            assert!((got - want).abs() < 0.01, "rank {k}: {got} vs {want}");
        }
    }

    #[test]
    fn zipf_is_deterministic_and_in_range() {
        let z = Zipf::new(50, 1.1);
        let draw = |seed| {
            let mut rng = TestRng::new(seed);
            (0..1000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert!(draw(3).iter().all(|&k| k < 50));
        assert_eq!(Zipf::new(1, 1.0).sample(&mut TestRng::new(1)), 0);
        // Exponent 0 is uniform.
        let u = Zipf::new(2, 0.0);
        let mut rng = TestRng::new(11);
        let ones = (0..10_000).filter(|_| u.sample(&mut rng) == 1).count();
        assert!((4_500..5_500).contains(&ones), "{ones}");
    }

    #[test]
    fn residual_subtracts_parts_and_clamps() {
        assert_eq!(residual(100.0, &[20.0, 30.0]), 50.0);
        assert_eq!(residual(10.0, &[]), 10.0);
        assert_eq!(residual(10.0, &[6.0, 6.0]), 0.0);
    }
}
