//! Deterministic, forkable random-number streams.
//!
//! Every source of randomness in a simulation run is derived from a single
//! root seed via SplitMix64 mixing, so adding a new consumer of randomness in
//! one subsystem does not perturb the stream seen by another (the classic
//! "seed hygiene" problem in simulation studies). Components receive their
//! own [`DetRng`] via [`DetRng::fork`] with a domain tag.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 output function — used to derive child seeds from a parent
/// seed and a tag. Good avalanche behaviour; the standard choice for seed
/// derivation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random-number generator with stable forking.
///
/// Wraps [`StdRng`]; implements [`RngCore`] so all of `rand`'s extension
/// methods (`gen_range`, `shuffle`, …) are available.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: StdRng,
}

impl DetRng {
    /// Create a stream from a root seed.
    pub fn seed_from(seed: u64) -> Self {
        DetRng {
            seed,
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream for the given domain tag.
    ///
    /// Forking depends only on `(self.seed, tag)` — not on how much of the
    /// parent stream has been consumed — so subsystems can be initialised in
    /// any order without changing each other's randomness.
    pub fn fork(&self, tag: u64) -> DetRng {
        DetRng::seed_from(splitmix64(self.seed ^ splitmix64(tag)))
    }

    /// Derive a child stream tagged by a string (hashes the bytes via
    /// repeated SplitMix64 absorption).
    pub fn fork_named(&self, name: &str) -> DetRng {
        let mut acc = 0xCAFE_F00D_D15E_A5E5u64;
        for chunk in name.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = splitmix64(acc ^ u64::from_le_bytes(word));
        }
        self.fork(acc)
    }

    /// Sample `count` distinct items uniformly from `pool` (partial
    /// Fisher–Yates). If `count >= pool.len()` the whole pool is returned in
    /// shuffled order.
    pub fn sample_without_replacement<T: Copy>(&mut self, pool: &[T], count: usize) -> Vec<T> {
        let mut items: Vec<T> = pool.to_vec();
        let take = count.min(items.len());
        for i in 0..take {
            let j = self.gen_range(i..items.len());
            items.swap(i, j);
        }
        items.truncate(take);
        items
    }
}

impl RngCore for DetRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(42);
        let mut b = DetRng::seed_from(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_independent_of_consumption() {
        let mut parent = DetRng::seed_from(7);
        let child_before = parent.fork(3).next_u64();
        let _ = parent.next_u64(); // consume some of the parent stream
        let child_after = parent.fork(3).next_u64();
        assert_eq!(child_before, child_after);
    }

    #[test]
    fn forks_with_different_tags_differ() {
        let parent = DetRng::seed_from(7);
        assert_ne!(parent.fork(1).next_u64(), parent.fork(2).next_u64());
        assert_ne!(
            parent.fork_named("generator").next_u64(),
            parent.fork_named("scheduler").next_u64()
        );
    }

    #[test]
    fn sample_without_replacement_is_distinct_and_bounded() {
        let mut rng = DetRng::seed_from(11);
        let pool: Vec<u32> = (0..100).collect();
        let sample = rng.sample_without_replacement(&pool, 10);
        assert_eq!(sample.len(), 10);
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "sampled items must be distinct");

        let all = rng.sample_without_replacement(&pool, 500);
        assert_eq!(all.len(), 100, "oversampling returns the whole pool");
    }

    #[test]
    fn splitmix_is_not_identity_and_mixes() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
