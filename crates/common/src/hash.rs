//! Fast, non-cryptographic hashing for internal hash tables.
//!
//! Feisu's hash joins, aggregation tables and index catalogs hash millions
//! of short keys. SipHash (std's default) is unnecessarily slow for this
//! internal, non-adversarial use, so we ship an FxHash-style multiply-xor
//! hasher (the same construction rustc uses) without pulling an extra
//! dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher: word-at-a-time multiply-rotate mixing.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
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
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
            // Fold in the length so "ab\0" and "ab" differ.
            self.add_to_hash(rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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
}

/// `HashMap` with the fast internal hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the fast internal hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hashes one value with the internal hasher, where a standalone u64 is
/// needed (NDV sketches, footer fingerprints).
pub fn hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_input_same_hash() {
        assert_eq!(hash_one(&"hello"), hash_one(&"hello"));
        assert_eq!(hash_one(&12345u64), hash_one(&12345u64));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash_one(&"hello"), hash_one(&"hellp"));
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
    }

    #[test]
    fn length_extension_distinguished() {
        // Trailing zero bytes must not collide with the shorter string.
        assert_ne!(hash_one(&b"ab".as_slice()), hash_one(&b"ab\0".as_slice()));
    }

    #[test]
    fn fxmap_works() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
