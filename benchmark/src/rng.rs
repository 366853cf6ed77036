//! Seeded input generation. Everything a workload feeds the program is
//! drawn from these two generators, so the same `--seed` always gives
//! the same request bytes and operation order.

/// SplitMix64: one multiply-xorshift step per draw.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `0..n` (Gray et al., the YCSB generator): rank 0
/// is the most popular.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf { n, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// The 64-byte record every KV workload stores: `word` repeated, so a
/// reader can check any record from its first eight bytes.
pub const VALUE_BYTES: usize = 64;

pub fn value_of(word: u64) -> [u8; VALUE_BYTES] {
    let mut out = [0u8; VALUE_BYTES];
    for chunk in out.chunks_exact_mut(8) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The preloaded record for `key` under `seed`.
pub fn preload_word(seed: u64, key: u64) -> u64 {
    SplitMix64::new(seed ^ key.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        assert!((0..10_000).all(|_| r.below(37) < 37));
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let z = Zipf::new(1 << 15, 0.99);
        let mut r = SplitMix64::new(3);
        let mut head = 0u32;
        for _ in 0..20_000 {
            let k = z.sample(&mut r);
            assert!(k < 1 << 15);
            head += u32::from(k < 16);
        }
        // Sixteen of 32 768 ranks draw roughly a third of the samples.
        assert!(head > 4_000, "head share {head}");
    }
}
