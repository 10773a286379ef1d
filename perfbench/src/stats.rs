//! Quantiles and the seeded generator the workloads draw from.

/// Nearest-rank quantile `q` (0..=1) of `samples`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A tail latency with the percentile it was read at and the sample
/// count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The latency.
    pub value: f64,
    /// Percentile the value was read at (100 is the maximum).
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The fewest samples that leave at least ten beyond `percentile` (one
/// for the maximum).
pub fn tail_min_samples(percentile: f64) -> usize {
    if percentile >= 100.0 {
        return 1;
    }
    (1..)
        .find(|&n| {
            let rank = (percentile / 100.0 * n as f64).ceil() as usize;
            n >= rank + 10
        })
        .expect("a percentile below 100 leaves ten samples beyond it eventually")
}

/// SplitMix64: a small, fast, seedable generator. The benchmark's inputs
/// depend only on the seeds fed to it.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n` (rank 0 is the most popular).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`: rank `k`
    /// (from 1) has weight `k^-s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_needs_ten_samples_beyond_its_percentile() {
        assert_eq!(tail_min_samples(95.0), 200);
        assert_eq!(tail_min_samples(90.0), 100);
        assert_eq!(tail_min_samples(100.0), 1);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(24, 1.1);
        let mut rng = SplitMix64::new(3, 0);
        let mut counts = [0usize; 24];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Weights 1 : 2^-1.1 : ... : 24^-1.1.
        assert!(counts[0] * 10 > counts[1] * 18);
        assert!(counts[0] > 20 * counts[23]);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(quantile(&samples, 0.99), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn generator_depends_only_on_its_seeds() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(7, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(7, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let c = SplitMix64::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }
}
