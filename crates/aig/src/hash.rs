//! A small, fast, deterministic hasher for graph-sized integer keys.
//!
//! The standard library's SipHash is DoS-resistant but noticeably slow for
//! the millions of structural-hash lookups a synthesis pass performs. This
//! module provides an FxHash-style multiplicative hasher plus convenience
//! aliases. Determinism also keeps every pass reproducible run-to-run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher: fold every word in with a rotate-xor-multiply step.
/// Byte slices (a truth table's words, say) fold eight bytes per step,
/// little-endian, and their tail one byte per step.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        for &b in words.remainder() {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` keyed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// `HashSet` keyed with [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m: FastMap<(u32, u32), u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(17, 18)), Some(&17));
        assert_eq!(m.get(&(17, 19)), None);
    }

    #[test]
    fn deterministic() {
        let mut h1 = FastHasher::default();
        let mut h2 = FastHasher::default();
        h1.write_u64(42);
        h2.write_u64(42);
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = FastHasher::default();
        h3.write_u64(43);
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn bytes_fold_eight_per_step_then_the_tail_one_by_one() {
        let bytes: Vec<u8> = (1..=11).collect();
        let mut slice = FastHasher::default();
        slice.write(&bytes);
        let mut steps = FastHasher::default();
        steps.write_u64(0x0807_0605_0403_0201);
        for b in [9, 10, 11] {
            steps.write_u64(b);
        }
        assert_eq!(slice.finish(), steps.finish());
    }
}
