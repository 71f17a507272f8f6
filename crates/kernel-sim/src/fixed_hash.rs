//! Deterministic hashing for simulator-state collections.
//!
//! `std`'s `HashMap` draws a fresh random seed per map instance. Lookup
//! results are unaffected, but *allocation behavior* is not: once a map has
//! seen removals, the decision between rehashing in place and growing to a
//! fresh table depends on where the seed scattered the surviving entries.
//! The host profiler ([`crate::hostprof`]) counts every allocation, and the
//! hostbench artifact gates on those counts being byte-identical across
//! processes — so every sim-state map that sees removals uses this
//! fixed-seed FNV-1a hasher instead. Same semantics, reproducible host
//! profile.
//!
//! Simulated behavior never depends on map iteration order (the
//! cross-process determinism of every committed artifact already proves
//! that under per-process random order), so pinning the order is safe.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit FNV-1a. Not DoS-resistant — these maps are keyed by simulator
/// state, never by external input.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The fixed-seed hasher factory.
pub type DetBuildHasher = BuildHasherDefault<FnvHasher>;

/// `HashMap` with process-independent hashing (construct with `default()`).
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference FNV-1a 64 digests ("" and "a") from the FNV spec.
        let mut h = FnvHasher::default();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn det_map_accepts_inserts_and_removals() {
        let mut m: DetHashMap<u32, u32> = DetHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        for i in (0..100).step_by(2) {
            m.remove(&i);
        }
        assert_eq!(m.len(), 50);
        assert_eq!(m.get(&3), Some(&6));
    }
}
