//! Order statistics and digests shared by every workload.

/// Nearest-rank quantile of an unsorted sample; `NaN` when empty.
/// Infinite values (requests that failed or were never sent) sort last,
/// so they count against the tail exactly like very slow successes.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the sample with the lowest and highest `trim` share of it
/// left out; `NaN` when nothing remains.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim).floor() as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return f64::NAN;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Tail percentiles the benchmark reports, highest first.
const TAIL_GRID: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest percentile of [`TAIL_GRID`] that leaves at least
/// `beyond` samples above it in a sample of `n`, so a tail figure is
/// never read off a handful of points. Falls back to the median.
pub fn tail_percentile(n: usize, beyond: usize) -> f64 {
    TAIL_GRID
        .into_iter()
        .find(|&q| (n as f64 * (1.0 - q)).floor() as usize >= beyond)
        .unwrap_or(0.5)
}

/// FNV-1a over a stream of 32-bit words: the reward-history digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push_u32(&mut self, word: u32) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn infinite_samples_land_in_the_tail() {
        let mut v = vec![1.0; 98];
        v.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(quantile(&v, 0.98), 1.0);
        assert_eq!(quantile(&v, 0.99), f64::INFINITY);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v: Vec<f64> = vec![1.0; 8];
        v.extend([100.0, -100.0]);
        assert_eq!(trimmed_mean(&v, 0.1), 1.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0], 0.0), 2.0);
        assert!(trimmed_mean(&[], 0.1).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 10), 0.99);
        assert_eq!(tail_percentile(999, 10), 0.95);
        assert_eq!(tail_percentile(200, 10), 0.95);
        assert_eq!(tail_percentile(150, 10), 0.9);
        assert_eq!(tail_percentile(40, 10), 0.75);
        assert_eq!(tail_percentile(5, 10), 0.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.push_u32(1);
        a.push_u32(2);
        b.push_u32(2);
        b.push_u32(1);
        assert_ne!(a.hex(), b.hex());
    }
}
