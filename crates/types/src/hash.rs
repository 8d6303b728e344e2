//! A fast, deterministic, non-cryptographic hasher for hot-path maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) is keyed and DoS-resistant
//! but costs tens of cycles per word — measurable on the engine's hot maps
//! (hash-join build tables, `GROUP BY` indexes, the buffer pool's page map),
//! which hash short keys millions of times per query and never face
//! adversarial input. This module provides an FxHash-style multiply-xor
//! hasher (the rustc/Firefox design): one wrapping multiply per word, no
//! key, fully deterministic across runs and platforms.
//!
//! Determinism matters beyond speed: iteration-order-independent structures
//! built on these maps behave identically run-to-run, which keeps the
//! repo's byte-identical page-I/O accounting reproducible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiply-xor hasher (FxHash-style).
///
/// Each written word is folded in as `hash = (hash rotl 5 ^ word) * K` with
/// a single odd multiplicative constant (derived from the golden ratio, as
/// in rustc's `FxHasher`). Not cryptographic; do not use for untrusted keys.
///
/// A multiply only carries entropy *upwards*, and the engine's commonest
/// key is a small integer hashed as the bits of an `f64`, whose low ~40
/// bits are zero: after the rounds every such key agrees in its low bits,
/// which is where `hashbrown` takes the bucket index from. So
/// [`finish`](Hasher::finish) ends with a finalizer that folds the high
/// half back down (xor-shift, multiply, xor-shift). A bare rotate or a
/// single xor-shift is cheaper but leaves this key family with one control
/// byte or a handful of buckets; the candidates are compared in
/// EXPERIMENTS.md, "One row kernel for scans and folds", part (c).
#[derive(Debug, Clone, Default)]
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
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(SEED);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold in the tail length so "ab" + "" and "a" + "b" differ.
            word[7] = rest.len() as u8;
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the fast deterministic hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the fast deterministic hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let a = hash_of(&("key", 42u64));
        let b = hash_of(&("key", 42u64));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
        assert_ne!(hash_of(&"a"), hash_of(&"ab"));
    }

    #[test]
    fn tail_bytes_are_length_disambiguated() {
        // Same leading bytes, different tail lengths, must not collide via
        // zero-padding alone.
        let mut h1 = FxHasher::default();
        h1.write(b"abcdefgh\x00");
        let mut h2 = FxHasher::default();
        h2.write(b"abcdefgh");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn int_float_value_hash_consistency_survives_fx() {
        // The engine's grouping invariant: values that compare equal must
        // hash equal under any hasher, including this one.
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_eq!(hash_of(&Value::Null), hash_of(&Value::Null));
    }

    #[test]
    fn small_integer_keys_spread_over_the_low_bits() {
        // hashbrown takes the bucket index from a hash's low bits. A small
        // integer is hashed as the bits of an f64, which has none there, and
        // a multiply never moves entropy down: without the finalizer all
        // 4096 keys share one value of the low 12 bits and every map keyed
        // by them is a single probe chain.
        fn low_bits(hashes: impl Iterator<Item = u64>) -> usize {
            hashes.map(|h| h & 0xfff).collect::<HashSet<u64>>().len()
        }
        let values = low_bits((0..4096).map(|i| hash_of(&Value::Int(i))));
        assert!(values >= 2048, "Value::Int(0..4096): {values} distinct low-12-bit values");
        let tuples =
            low_bits((0..4096).map(|i| hash_of(&crate::Tuple::new(vec![Value::Int(i)]))));
        assert!(tuples >= 2048, "Tuple[Int(0..4096)]: {tuples} distinct low-12-bit values");
        // The finalizer is a function of the state, so equal values still
        // hash alike.
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
    }

    #[test]
    fn map_works_with_tuple_keys() {
        let mut m: FxHashMap<crate::Tuple, usize> = FxHashMap::default();
        let t1 = crate::Tuple::new(vec![Value::Int(1), Value::str("x")]);
        let t2 = crate::Tuple::new(vec![Value::Int(1), Value::str("y")]);
        m.insert(t1.clone(), 1);
        m.insert(t2, 2);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&t1], 1);
    }
}
