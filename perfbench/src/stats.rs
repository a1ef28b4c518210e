//! The estimator: medians, best-of, tail percentiles and the seeded
//! shuffle that orders cells within a round.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The fastest of repeated timings of the same work (0 for none).
///
/// On a shared host, co-tenants slow whole stretches of seconds by up to 2×,
/// and that slowdown only ever adds time; the best round is the estimate
/// that least depends on how busy the host happened to be.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest whole percentile `p` such that at least ten samples lie
/// strictly above the `p`-th percentile value (nearest-rank), with that
/// value.  `None` when there are fewer than eleven samples.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (1..=99u32).rev().find_map(|p| {
        // Nearest-rank: the smallest rank r with r/n >= p/100.
        let rank = (p as usize * n).div_ceil(100).max(1);
        let value = sorted[rank - 1];
        let beyond = sorted.iter().filter(|&&v| v > value).count();
        (beyond >= 10).then_some((p, value))
    })
}

/// SplitMix64: a tiny deterministic generator for the seeded cell order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn best_is_the_fastest_round() {
        assert_eq!(best(&[0.31, 0.12, 0.55]), 0.12);
        assert_eq!(best(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 is 90 with exactly ten values (91..=100) above it; p91 would
        // leave only nine.
        assert_eq!(tail_percentile(&values), Some((90, 90.0)));
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&values), Some((50, 10.0)));
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        // Ties at the top do not count as "beyond".
        let mut flat = vec![1.0; 30];
        flat.extend([5.0; 10]);
        assert_eq!(tail_percentile(&flat), Some((75, 1.0)));
    }

    #[test]
    fn shuffle_is_seeded_and_a_permutation() {
        let base: Vec<u32> = (0..24).collect();
        let order = |seed| {
            let mut v = base.clone();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, base);
    }
}
