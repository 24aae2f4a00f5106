//! Order statistics. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), because
//! that is how the spread of a metric across runs is judged.

/// Median, quartiles and sample count of one metric's samples. The
/// median is the value a run reports; all three lie between the
/// smallest and the largest sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of `values` (at least one sample).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Summarises one metric's samples. The exclusive method extrapolates
/// the outer cut points of two samples beyond both; a summary never
/// names a value no rep measured, so they are clamped to the range.
pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Summary {
        median,
        q1: q1.clamp(min, max),
        q3: q3.clamp(min, max),
        n: values.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of unsorted samples;
/// sorts in place.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        let v = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        assert_eq!(quartiles(&v), [2.0, 8.0, 32.0]);
    }

    #[test]
    fn single_sample_collapses() {
        let s = summarize(&[4.2]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.2, 4.2, 4.2, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn summary_never_leaves_the_sample_range() {
        // Two recovery reps once summarised to a value below both.
        let s = summarize(&[0.711, 0.597]);
        assert_eq!((s.q1, s.q3), (0.597, 0.711));
        assert!((s.median - 0.654).abs() < 1e-12);
        let mut rng = crate::rng::Rng::new(5, 0);
        for n in 1..=12 {
            let values: Vec<f64> = (0..n).map(|_| rng.unit() * 1e6 - 5e5).collect();
            let s = summarize(&values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= max);
        }
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[90.0, 100.0, 110.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 95.0), 95);
        assert_eq!(percentile(&mut v, 100.0), 100);
        let mut one = [7u64];
        assert_eq!(percentile(&mut one, 95.0), 7);
    }
}
