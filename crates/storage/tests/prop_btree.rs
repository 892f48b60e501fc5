//! Property test: the B*-tree behaves like a `BTreeMap` under arbitrary
//! operation sequences with SPLID-shaped keys.
//!
//! Driven by a hand-rolled deterministic generator rather than
//! `proptest!` so the cases run (and reproduce by seed) in the offline
//! build — the in-repo proptest stub expands `proptest!` to nothing.

use std::collections::BTreeMap;
use std::ops::Bound;
use xtc_splid::{encode, LabelAllocator, SplId};
use xtc_storage::{BTree, BTreeConfig, StorageStats};

/// xorshift64*: deterministic op generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A pool of SPLID-encoded keys: sequential children of the root with
/// nested children — the shape real document keys have.
fn key_pool() -> Vec<Vec<u8>> {
    let alloc = LabelAllocator::new(2);
    let root = SplId::root();
    let mut keys = Vec::new();
    let mut cur = alloc.first_child(&root);
    for _ in 0..40 {
        keys.push(encode(&cur));
        let mut child = alloc.first_child(&cur);
        for _ in 0..9 {
            keys.push(encode(&child));
            child = alloc.next_sibling(&child).unwrap();
        }
        cur = alloc.next_sibling(&cur).unwrap();
    }
    keys
}

#[test]
fn btree_matches_model() {
    let keys = key_pool();
    for case in 0..64u64 {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (case.wrapping_mul(0x0101_0101)));
        let tree = BTree::with_config(
            BTreeConfig { page_size: 256, max_key: 64, ..BTreeConfig::default() },
            StorageStats::default(),
        );
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let ops = 1 + rng.below(299);
        for _ in 0..ops {
            match rng.below(5) {
                0..=2 => {
                    let k = &keys[rng.below(keys.len() as u64) as usize];
                    let v: Vec<u8> = (0..rng.below(24)).map(|_| rng.next() as u8).collect();
                    let a = tree.insert(k, &v).unwrap();
                    let b = model.insert(k.clone(), v);
                    assert_eq!(a, b, "insert result diverged (case {case})");
                }
                3 => {
                    let k = &keys[rng.below(keys.len() as u64) as usize];
                    assert_eq!(tree.remove(k), model.remove(k), "remove diverged (case {case})");
                }
                _ => {
                    let got = tree.scan_range(&[], &[0xFF; 8]);
                    let want: Vec<_> =
                        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                    assert_eq!(got, want, "full scan diverged (case {case})");
                }
            }
        }
        assert_eq!(tree.len(), model.len(), "len diverged (case {case})");
        // next_after / prev_before agree with the model at every key.
        for k in &keys {
            let got = tree.next_after(k, |k, v| (k.to_vec(), v.to_vec()));
            let want = model
                .range::<Vec<u8>, _>((Bound::Excluded(k.clone()), Bound::Unbounded))
                .next()
                .map(|(k, v)| (k.clone(), v.clone()));
            assert_eq!(got, want, "next_after diverged (case {case})");
            let got = tree.prev_before(k, |k, v| (k.to_vec(), v.to_vec()));
            let want = model
                .range::<Vec<u8>, _>((Bound::Unbounded, Bound::Excluded(k.clone())))
                .next_back()
                .map(|(k, v)| (k.clone(), v.clone()));
            assert_eq!(got, want, "prev_before diverged (case {case})");
        }
    }
}

/// Readers and a writer share one tree. A value carries its key's index
/// and a version; the writer announces a version before writing it and
/// confirms it afterwards, so a reader can bound what it may see: at
/// least the version confirmed before its read began, at most the one
/// announced when it ended — the old value or the new one, never a torn
/// or foreign one. Scans must stay strictly ordered and self-consistent
/// while pages split and merge underneath them.
#[test]
fn concurrent_readers_see_old_or_new_values_and_ordered_scans() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    const KEYS: usize = 300;
    const WRITES: u64 = 4000;
    let key = |i: usize| format!("doc/{:03}/{}", i / 7, i).into_bytes();
    // Variable length, so replacements rebuild, split and merge pages.
    let value = |i: usize, version: u64| {
        let mut v = (i as u32).to_le_bytes().to_vec();
        v.extend_from_slice(&version.to_le_bytes());
        v.resize(12 + (version as usize * 5 + i) % 40, 0xEE);
        v
    };
    let parse = |v: &[u8]| {
        let i = u32::from_le_bytes(v[..4].try_into().unwrap()) as usize;
        let version = u64::from_le_bytes(v[4..12].try_into().unwrap());
        assert_eq!(v.len(), 12 + (version as usize * 5 + i) % 40, "torn value");
        (i, version)
    };

    for seed in 1..=3u64 {
        let tree = BTree::with_config(
            BTreeConfig { page_size: 512, max_key: 64, ..BTreeConfig::default() },
            StorageStats::default(),
        );
        // Odd keys come and go (version 0 = absent), even keys stay.
        let announced: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(1)).collect();
        let confirmed: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(1)).collect();
        for i in 0..KEYS {
            tree.insert(&key(i), &value(i, 1)).unwrap();
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut rng = Rng(seed);
                let mut present = vec![true; KEYS];
                for _ in 0..WRITES {
                    let i = rng.below(KEYS as u64) as usize;
                    let next = announced[i].load(Ordering::SeqCst) + 1;
                    announced[i].store(next, Ordering::SeqCst);
                    if i % 2 == 1 && present[i] && rng.below(3) == 0 {
                        assert!(tree.remove(&key(i)).is_some());
                        present[i] = false;
                    } else {
                        tree.insert(&key(i), &value(i, next)).unwrap();
                        present[i] = true;
                    }
                    confirmed[i].store(next, Ordering::SeqCst);
                }
                done.store(true, Ordering::SeqCst);
            });
            for reader in 0..2u64 {
                let (tree, announced, confirmed, done) = (&tree, &announced, &confirmed, &done);
                s.spawn(move || {
                    let mut rng = Rng(seed * 31 + reader + 1);
                    while !done.load(Ordering::SeqCst) {
                        let i = rng.below(KEYS as u64) as usize;
                        let at_least = confirmed[i].load(Ordering::SeqCst);
                        let got = tree.get(&key(i));
                        let at_most = announced[i].load(Ordering::SeqCst);
                        match got {
                            Some(v) => {
                                let (gi, version) = parse(&v);
                                assert_eq!(gi, i, "value of another key");
                                assert!(
                                    (at_least..=at_most).contains(&version),
                                    "key {i}: saw version {version}, outside {at_least}..={at_most}"
                                );
                            }
                            None => assert!(i % 2 == 1, "stable key {i} vanished"),
                        }
                    }
                });
            }
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    let all = tree.scan_range(b"", b"\xff");
                    for pair in all.windows(2) {
                        assert!(pair[0].0 < pair[1].0, "scan out of order");
                    }
                    let stable = all
                        .iter()
                        .filter(|(k, v)| {
                            let (i, _) = parse(v);
                            assert_eq!(k, &key(i), "scan paired a key with a foreign value");
                            i.is_multiple_of(2)
                        })
                        .count();
                    assert_eq!(stable, KEYS.div_ceil(2), "scan lost or duplicated a stable key");
                }
            });
            writer.join().expect("writer panicked");
        });
        assert_eq!(tree.scan_range(b"", b"\xff").len(), tree.len());
    }
}
