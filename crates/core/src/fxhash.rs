//! A minimal Fx-style hasher for the DP session's outcome index.
//!
//! Its keys are a target period's bits and a flag; the default SipHash is
//! overkill (it defends against HashDoS, irrelevant here) and shows up
//! hot in profiles. This is the classic multiply-rotate mix used by
//! rustc's `FxHasher`, specialized to our use.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for integer keys.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
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
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` build-hasher plugging [`FxHasher`] in.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(h(i)), "collision at {i}");
        }
    }

    #[test]
    fn map_works_as_a_drop_in() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.get(&500), Some(&1000));
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(b"hello world"); // 11 bytes → two chunks
        let mut b = FxHasher::default();
        b.write(b"hello worle");
        assert_ne!(a.finish(), b.finish());
    }
}
