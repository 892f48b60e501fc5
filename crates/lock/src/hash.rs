//! The one hash of a lock name: a multiply-rotate hasher (the Fx scheme
//! of rustc's interner tables) for the per-transaction held map and the
//! shard maps, and the choice of shard from the same value.
//!
//! SipHash, the std default, cost more than everything else a cache hit
//! does. Its flood resistance buys nothing for SPLIDs, which the engine
//! allocates itself; ID-index values are the one caller-supplied name,
//! locked only under isolation *serializable*, one per probe.

use crate::table::LockName;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A map keyed by lock names under [`NameHasher`].
pub(crate) type NameMap<V> = HashMap<LockName, V, BuildHasherDefault<NameHasher>>;

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NameHasher(u64);

impl NameHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_ne_bytes(w.try_into().expect("chunk of 8")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_ne_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// A product's good bits are its high ones (the low bit of an odd
    /// division survives every step), and hashbrown indexes buckets with
    /// the low bits: rotate the top 26 down to where the map looks.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The shard of a name among `shards` (a power of two ≤ 64). hashbrown
/// takes the bucket from the low bits of the hash and the control byte
/// from the top seven; shards picked from either would fill every
/// shard's map with names that agree in exactly the bits it probes by.
/// Bits 20‥25 are the product's top six, above any bucket index a
/// shard map reaches.
#[inline]
pub(crate) fn shard_of(name: &LockName, shards: usize) -> usize {
    debug_assert!(shards.is_power_of_two() && shards <= 64);
    let mut h = NameHasher::default();
    name.hash(&mut h);
    (h.finish() >> 20) as usize & (shards - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::LockTarget;
    use xtc_splid::SplId;

    /// The names of a bib-shaped document: small odd divisions, four
    /// levels — the key set that defeats a hash whose low bits are taken
    /// as they come.
    fn names() -> Vec<LockName> {
        let mut out = Vec::new();
        for a in 0..16u32 {
            for b in 0..16u32 {
                for c in 0..16u32 {
                    let divs = [1, 3, 2 * a + 3, 2 * b + 3, 2 * c + 1];
                    out.push(LockName {
                        family: 0,
                        target: LockTarget::Node(SplId::from_divisions(&divs).unwrap()),
                    });
                }
            }
        }
        out
    }

    fn hash(name: &LockName) -> u64 {
        let mut h = NameHasher::default();
        name.hash(&mut h);
        h.finish()
    }

    #[test]
    fn shards_fill_evenly() {
        let names = names();
        let mut per_shard = [0usize; 64];
        for n in &names {
            per_shard[shard_of(n, 64)] += 1;
        }
        let mean = names.len() / 64;
        for (s, &n) in per_shard.iter().enumerate() {
            assert!(
                n > mean / 2 && n < mean * 2,
                "shard {s} holds {n} of {}",
                names.len()
            );
        }
    }

    #[test]
    fn bucket_bits_spread_within_one_shard() {
        // What one shard's map sees: names that agree in the shard bits
        // must still differ in the low (bucket) and top (control) bits.
        let in_shard: Vec<u64> = names()
            .iter()
            .filter(|n| shard_of(n, 64) == 7)
            .map(hash)
            .collect();
        let distinct = |f: &dyn Fn(u64) -> u64| {
            let mut v: Vec<u64> = in_shard.iter().map(|&h| f(h)).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        // 64-odd names into 64 buckets: a uniform hash fills ≈ 63 % of them.
        assert!(distinct(&|h| h & 63) >= 32, "low bits cluster");
        assert!(distinct(&|h| h >> 57) >= 24, "control bytes cluster");
    }
}
