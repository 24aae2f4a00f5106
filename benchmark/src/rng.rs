//! The harness's own deterministic generator (SplitMix64), so workload
//! inputs depend on nothing but `--seed`.

/// SplitMix64: one 64-bit state word, full period, good enough mixing
/// for synthetic workloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// The SplitMix64 output function; also the delivery-hash mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams of one seed
    /// are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed) ^ mix64(stream.wrapping_mul(0xa076_1d64_78bd_642f)))
    }

    pub fn next_u64(&mut self) -> u64 {
        let state = self.0;
        self.0 = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(state)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the small `n` the generators use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        let draws = |seed| {
            let mut r = Rng::new(seed, 1);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(17), draws(17));
        assert_ne!(draws(17), draws(23));
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = Rng::new(1, 1);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            let v = r.range(10.0, 80.0);
            assert!((10.0..80.0).contains(&v));
        }
    }
}
