//! Operation mixes: how a workload splits between `contains`, `insert`
//! and `remove`.

use crate::rng::SplitMix64;

/// One set operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Membership test.
    Contains,
    /// Insertion.
    Insert,
    /// Removal.
    Remove,
}

/// A `contains`/`insert`/`remove` ratio. Updates are split evenly
/// between inserts and removes so the structure's size stays
/// stationary — the standard microbenchmark methodology of the STM
/// literature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of operations that are updates, in `[0, 1]`; the
    /// remainder is `contains`.
    pub update_fraction: f64,
}

impl OpMix {
    /// An `update_percent`% update mix (0 = read-only, 100 = write-only).
    pub fn updates(update_percent: u32) -> Self {
        assert!(update_percent <= 100);
        Self { update_fraction: f64::from(update_percent) / 100.0 }
    }

    /// Draw the next operation.
    pub fn next_op(&self, rng: &mut SplitMix64) -> OpKind {
        let u = rng.next_f64();
        if u < self.update_fraction / 2.0 {
            OpKind::Insert
        } else if u < self.update_fraction {
            OpKind::Remove
        } else {
            OpKind::Contains
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_mix_never_updates() {
        let mix = OpMix::updates(0);
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            assert_eq!(mix.next_op(&mut rng), OpKind::Contains);
        }
    }

    #[test]
    fn write_only_mix_never_reads() {
        let mix = OpMix::updates(100);
        let mut rng = SplitMix64::new(2);
        for _ in 0..1000 {
            assert_ne!(mix.next_op(&mut rng), OpKind::Contains);
        }
    }

    #[test]
    fn ratios_are_roughly_respected() {
        let mix = OpMix::updates(20);
        let mut rng = SplitMix64::new(3);
        let (mut c, mut i, mut r) = (0u32, 0u32, 0u32);
        for _ in 0..10_000 {
            match mix.next_op(&mut rng) {
                OpKind::Contains => c += 1,
                OpKind::Insert => i += 1,
                OpKind::Remove => r += 1,
            }
        }
        assert!((7500..8500).contains(&c), "contains {c}");
        assert!((700..1300).contains(&i), "insert {i}");
        assert!((700..1300).contains(&r), "remove {r}");
    }

    #[test]
    #[should_panic]
    fn over_100_percent_rejected() {
        OpMix::updates(101);
    }

    #[test]
    #[should_panic]
    fn huge_update_percent_rejected_without_overflow() {
        // The guard must reject before any arithmetic could wrap.
        OpMix::updates(u32::MAX);
    }
}
