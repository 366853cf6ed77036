//! Key streams: uniform draws over `[0, space)`.

use crate::rng::SplitMix64;

/// A deterministic stream of keys, each equally likely.
#[derive(Debug, Clone)]
pub struct KeyStream {
    rng: SplitMix64,
    space: u64,
}

impl KeyStream {
    /// A stream drawing uniformly from `[0, space)`.
    pub fn new(space: u64, seed: u64) -> Self {
        assert!(space > 0);
        Self { rng: SplitMix64::new(seed), space }
    }

    /// Independent per-thread sub-stream.
    pub fn for_thread(&self, thread: usize) -> Self {
        let mut s = self.clone();
        s.rng = SplitMix64::for_thread(self.rng.clone().next_u64(), thread);
        s
    }

    /// Next key, in `[0, space)`.
    pub fn next_key(&mut self) -> u64 {
        self.rng.next_below(self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let mut s = KeyStream::new(16, 1);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[s.next_key() as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = KeyStream::new(64, 7);
        let mut b = KeyStream::new(64, 7);
        for _ in 0..200 {
            assert_eq!(a.next_key(), b.next_key());
        }
    }

    #[test]
    fn keys_stay_in_range() {
        let mut s = KeyStream::new(10, 3);
        for _ in 0..500 {
            assert!(s.next_key() < 10);
        }
    }
}
