//! Order statistics over timing samples, plus the seeded generator the
//! workloads draw their inputs from.

/// Sorted copy of `values` (total order, so NaN cannot scramble it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    let hi = v.get(n / 2).copied().unwrap_or(0.0);
    if n % 2 == 1 {
        hi
    } else {
        let lo = v.get((n / 2).wrapping_sub(1)).copied().unwrap_or(hi);
        (lo + hi) / 2.0
    }
}

/// The highest order statistic that still has at least ten samples
/// above it: the 11th largest value. Below forty samples that would be
/// no tail at all, and the median is returned instead.
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len().checked_sub(11) {
        Some(i) if v.len() >= 40 => v.get(i).copied().unwrap_or(0.0),
        _ => median(values),
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), 30.0);
        assert_eq!(tail(&[1.0, 5.0, 3.0]), 3.0);
    }

    #[test]
    fn rng_is_reproducible() {
        let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
        assert!((0..4).all(|_| a.next_u64() == b.next_u64()));
        let mut r = Rng::new(7, 2);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }
}
