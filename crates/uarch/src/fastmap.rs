//! A minimal multiply-rotate hasher for the pipeline's one hot hash map.
//!
//! The pipeline's `store_lines` map (64-byte granules covered by in-flight
//! stores, the load/store disambiguation filter) is probed on the load-issue
//! path.  SipHash — the standard library's DoS-resistant default —
//! costs more than the probe it guards there, and the keys are simulated
//! addresses, not attacker-controlled input, so the map uses this Fx-style
//! word hasher instead: one rotate, one xor and one multiply per written
//! word.
//!
//! Only the *hasher* changes; the map behaviour is untouched.  The map is
//! used point-wise (insert / lookup / remove) and never iterated, so
//! iteration order — the one thing a hasher swap can perturb — never
//! reaches an observable result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant from Firefox/rustc's Fx hash: a 64-bit odd
/// number with high-entropy bits that spreads consecutive keys well.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiplicative hasher (not collision resistant; do
/// not use for untrusted keys).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A `HashMap` with the [`FxHasher`]; construct with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_operations_match_std_map() {
        let mut fast: FastMap<u64, u32> = FastMap::default();
        let mut std_map: HashMap<u64, u32> = HashMap::new();
        for k in [0u64, 1, 63, 64, 1 << 40, u64::MAX] {
            fast.insert(k, k as u32 ^ 7);
            std_map.insert(k, k as u32 ^ 7);
        }
        for k in [0u64, 63, 1 << 40, 5] {
            assert_eq!(fast.get(&k), std_map.get(&k));
        }
        assert_eq!(fast.remove(&63), std_map.remove(&63));
        assert_eq!(fast.len(), std_map.len());
    }

    #[test]
    fn distinct_words_rarely_collide() {
        // Not a cryptographic property — just a sanity check that the
        // constant actually spreads consecutive cache-line keys.
        let mut seen = std::collections::HashSet::new();
        for line in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(line);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }
}
