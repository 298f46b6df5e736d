//! A fast hasher for the simulation's hot lookup tables.
//!
//! The access log's string table, the resolver cache, the registry and
//! the session gate's session set all hash short, trusted keys (host
//! names, paths, session ids) once or more per simulated request.
//! SipHash's flooding resistance buys nothing there: every key comes
//! from the simulation itself.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher: one rotate, xor and multiply per 8-byte word.
/// Deterministic (no per-process key), so a table's iteration order is
/// the same in every run — but no output may depend on it anyway.
#[derive(Debug, Clone, Copy, Default)]
pub struct SymHasher(u64);

impl SymHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SymHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `BuildHasher` for maps and sets keyed through [`SymHasher`]:
/// `HashMap<K, V, BuildSymHasher>`.
pub type BuildSymHasher = BuildHasherDefault<SymHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildSymHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_distinct_keys_differ() {
        assert_eq!(
            hash("green-energy.com"),
            hash(&"green-energy.com".to_string())
        );
        assert_ne!(hash("a.com"), hash("b.com"));
        assert_ne!(hash(&1u128), hash(&(1u128 << 64)), "both halves count");
    }
}
