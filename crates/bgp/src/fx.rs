//! A multiply-xor hasher for small integer keys (the Firefox/rustc "Fx"
//! construction), used on the monitor hot path and by the data-plane
//! simulator's caches, whose keys are dense ids and world indices. It
//! folds a word in two multiplies where SipHash's setup dominates, and
//! `finish` rotates the state left by 26 (as rustc-hash 2 does): hashbrown
//! buckets by the low bits, and a product's low bits see only the key's,
//! so a packed `hi << 32 | lo` key would otherwise bucket by `lo` alone.
//! It is *not* DoS-resistant: use it only for keys derived from interned
//! ids, never for attacker-controlled strings. It lives in the base crate
//! so the detector and the simulator (which must not depend on each
//! other) share one copy; `kepler_core::fx` re-exports it.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Default-constructible builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one word, rotated and multiplied per input word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributes_small_ints() {
        let mut buckets = [0usize; 16];
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            buckets[(h.finish() % 16) as usize] += 1;
        }
        // Roughly uniform: no bucket more than 2x the mean.
        assert!(buckets.iter().all(|&b| b < 1250), "{buckets:?}");
    }

    /// A packed `hi << 32 | lo` word — the monitor's `(pop, near)` group
    /// key — must reach different buckets for different `hi`: the low
    /// bits of `k × SEED` alone see only `lo`.
    #[test]
    fn packed_words_bucket_by_their_high_half() {
        let lo = 0x2a_u64;
        let buckets: FxHashSet<u64> = (0..1024u64)
            .map(|hi| {
                let mut h = FxHasher::default();
                h.write_u64(hi << 32 | lo);
                h.finish() & 1023
            })
            .collect();
        assert!(buckets.len() >= 512, "{} distinct buckets of 1024", buckets.len());
    }

    #[test]
    fn maps_work() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&37], 74);
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.insert(5);
        assert!(s.contains(&5));
    }
}
