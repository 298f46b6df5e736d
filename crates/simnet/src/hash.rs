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

// Every method is `#[inline]`: the tables that hash through it live in
// other crates, and without the attribute each key field would be an
// out-of-line call there (the workspace builds without LTO).
impl SymHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SymHasher {
    #[inline]
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

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    // The integer writes add the value as one word: what `write` makes
    // of its little-endian bytes, without the copy.
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
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

    /// Values recorded before the hasher's methods were inlined and
    /// its integer writes overridden, for the key shapes the tables
    /// use (fleet redeliveries, scheduler ids, session ids, cohort rows,
    /// the trace string table; `DomainName` is pinned in its crate).
    /// Equal values mean equal bucket placement and iteration order.
    #[test]
    fn hash_values_match_their_recorded_pins() {
        assert_eq!(hash(&0u32), 0);
        assert_eq!(hash(&17u32), 0x6948_dd29_9942_b3e5);
        assert_eq!(hash(&u32::MAX), 0xd5a5_48dd_d8dd_f56b);
        assert_eq!(hash(&0u64), 0);
        assert_eq!(hash(&17u64), 0x6948_dd29_9942_b3e5);
        assert_eq!(hash(&u64::MAX), 0xae83_3e48_d8dd_f56b);
        assert_eq!(hash(&0u128), 0);
        assert_eq!(hash(&((1u128 << 64) | 17)), 0x969c_79c8_9e0d_481c);
        assert_eq!(hash(&u128::MAX), 0xddad_3309_6392_6e52);
        assert_eq!(hash(&(0u32, 0u64, 0u64, false)), 0);
        assert_eq!(
            hash(&(7u32, 1_800_000u64, 60_000u64, true)),
            0x892e_f8ea_d273_d56e
        );
        assert_eq!(hash(""), 0x2b44_f56f_fae8_8a6b);
        assert_eq!(hash("green-energy.com"), 0xf9a8_dcd3_1bbe_f07f);
        assert_eq!(
            hash("/index.php?session=0123456789abcdef"),
            0x4611_7114_36d1_17d9
        );
    }
}
