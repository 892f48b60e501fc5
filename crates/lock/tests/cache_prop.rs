//! Seeded property test for the per-transaction lock cache: random
//! request sequences — single names and whole ancestor paths, which the
//! path memo may answer — against a cache-enabled table and a
//! cache-disabled shadow table must stay observably identical, and the
//! cache itself must obey its coherence rules (mirror the table's granted
//! mode, never survive a short-lock release for short entries, an epoch
//! bump, or release-all).
//!
//! The workspace proptest is stubbed offline, so this is a plain
//! hand-rolled generator: xorshift64* streams over a fixed seed set.

use std::sync::Arc;
use std::time::Duration;
use xtc_lock::algebra::{AlgebraMode, Region, SelfAcc};
use xtc_lock::{
    Acquired, DocView, IsolationLevel, LockClass, LockCtx, LockName, LockTable, LockTarget,
    ModeIdx, ModeTable, TxnHandle, TxnRegistry,
};
use xtc_splid::SplId;

/// The S/U/X family has no annex rules: nobody asks for children.
struct NoDoc;

impl DocView for NoDoc {
    fn children(&self, _: &SplId) -> Vec<SplId> {
        unreachable!()
    }
    fn subtree_id_owners(&self, _: &SplId) -> Vec<SplId> {
        unreachable!()
    }
    fn subtree_nodes(&self, _: &SplId) -> Vec<SplId> {
        unreachable!()
    }
}

/// Everything the table holds for `txn`, in a comparable order.
fn held(table: &LockTable, txn: &TxnHandle) -> Vec<(String, ModeIdx)> {
    let mut held: Vec<(String, ModeIdx)> = table
        .granted_to(txn.id())
        .iter()
        .map(|(name, mode)| (format!("{name:?}"), *mode))
        .collect();
    held.sort();
    held
}

struct XorShift(u64);

impl XorShift {
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

/// A miniature S/U/X family: upgrades form a chain, so a held mode
/// either absorbs a request or converts upward — both cache cases.
fn sux() -> Arc<ModeTable> {
    Arc::new(ModeTable::generate(
        "sux",
        &[
            ("S", AlgebraMode::new(SelfAcc::Read, Region::NONE, Region::NONE)),
            (
                "U",
                AlgebraMode::new(SelfAcc::Update, Region::NONE, Region::NONE),
            ),
            (
                "X",
                AlgebraMode::new(SelfAcc::Excl, Region::NONE, Region::NONE),
            ),
        ],
        &[],
    ))
}

fn pool() -> Vec<LockName> {
    ["1", "1.3", "1.3.5", "1.3.5.7", "1.5", "1.5.3", "1.7", "1.9.3"]
        .iter()
        .map(|s| LockName {
            family: 0,
            target: LockTarget::Node(SplId::parse(s).unwrap()),
        })
        .collect()
}

fn build(cache: bool) -> (Arc<LockTable>, Arc<TxnRegistry>) {
    let reg = Arc::new(TxnRegistry::new());
    let t = Arc::new(
        LockTable::new(vec![sux()], reg.clone(), Duration::from_secs(5))
            .with_lock_cache(cache),
    );
    (t, reg)
}

fn run_case(seed: u64) {
    let mut rng = XorShift(seed | 1);
    let names = pool();
    let (on, on_reg) = build(true);
    let (off, off_reg) = build(false);

    for _round in 0..30 {
        let ta = on_reg.begin_handle();
        let tb = off_reg.begin_handle();
        for _op in 0..60 {
            let name = &names[rng.below(names.len() as u64) as usize];
            let mode = rng.below(3) as u8;
            let class = if rng.below(2) == 0 {
                LockClass::Short
            } else {
                LockClass::Long
            };

            // One op in three asks for the path above one of a few
            // siblings and cousins, in one of two mode pairs: repeats of
            // the previous path are common, and the memo answers them on
            // the cache-on side only. What the tables hold must not tell.
            if rng.below(3) == 0 {
                let target = ["1.3.5.7", "1.3.5.9", "1.3.7.3", "1.9.3"][rng.below(4) as usize];
                let target = SplId::parse(target).unwrap();
                let parent_mode = mode.min(1);
                for (table, txn) in [(&on, &ta), (&off, &tb)] {
                    let cx = LockCtx {
                        txn,
                        table,
                        doc: &NoDoc,
                        isolation: IsolationLevel::Repeatable,
                        lock_depth: 7,
                    };
                    cx.lock_path(0, &target, 0, parent_mode, class).unwrap();
                }
                assert_eq!(held(&on, &ta), held(&off, &tb), "paths lock differently");
                if rng.below(4) == 0 {
                    on.release_end_of_operation(ta.id());
                    off.release_end_of_operation(tb.id());
                }
                continue;
            }

            let ra = on.lock_with(&ta, name, mode, class, false).unwrap();
            let rb = off.lock_with(&tb, name, mode, class, false).unwrap();
            assert_eq!(ra, Acquired::Granted, "single txn never blocks");
            assert_eq!(ra, rb, "cache on/off must grant identically");

            // Both tables must agree on the held (converted) mode …
            let held = on.held_mode(ta.id(), name);
            assert_eq!(
                held,
                off.held_mode(tb.id(), name),
                "held modes diverge between cache on and off"
            );

            // … and the cache must mirror the table exactly: the entry
            // for a just-granted name exists, carries the table's mode,
            // a class at least as strong as this request, and absorbs an
            // immediate repeat of the request (the hit condition).
            let (cm, cc) = ta
                .cached_mode(name)
                .expect("a just-granted lock must be cached");
            assert_eq!(Some(cm), held, "cached mode must equal the table's");
            assert!(cc >= class, "cached class must cover the request");
            assert_eq!(
                on.family(0).conversion(cm, mode).result,
                cm,
                "cached mode must absorb the request it was granted for"
            );

            match rng.below(20) {
                // Short-lock release (end of operation): every surviving
                // cache entry must be a still-held Long lock.
                0 => {
                    on.release_end_of_operation(ta.id());
                    off.release_end_of_operation(tb.id());
                    for n in &names {
                        if let Some((m, c)) = ta.cached_mode(n) {
                            assert_eq!(
                                c,
                                LockClass::Long,
                                "short entries must not survive a short release"
                            );
                            assert_eq!(
                                on.held_mode(ta.id(), n),
                                Some(m),
                                "surviving cache entries must still be held"
                            );
                        } else {
                            assert_eq!(
                                on.held_mode(ta.id(), n).map(|_| LockClass::Long),
                                off.held_mode(tb.id(), n).map(|_| LockClass::Long),
                                "tables diverge after short release"
                            );
                        }
                    }
                }
                // Epoch bump (what escalation-depth changes do): the
                // cache empties while the table keeps every lock.
                1 => {
                    ta.invalidate_cache();
                    for n in &names {
                        assert_eq!(
                            ta.cached_mode(n),
                            None,
                            "no entry survives an epoch bump"
                        );
                    }
                }
                _ => {}
            }
        }
        on.release_all(ta.id());
        off.release_all(tb.id());
        for n in &names {
            assert_eq!(ta.cached_mode(n), None, "no entry survives release_all");
        }
        assert_eq!(on.granted_count(), 0, "locks leaked (cache on)");
        assert_eq!(off.granted_count(), 0, "locks leaked (cache off)");
        on_reg.finish(ta.id());
        off_reg.finish(tb.id());
    }

    assert_eq!(
        on.requests(),
        off.requests(),
        "request accounting must not depend on the cache"
    );
    assert_eq!(on.requests_by_mode(), off.requests_by_mode());
    assert!(on.cache_hits() > 0, "the sequence must exercise the cache");
    assert!(
        on.memo_hits() > 0,
        "the sequence must exercise the path memo"
    );
    assert_eq!(off.cache_hits(), 0, "disabled cache must never hit");
    assert_eq!(off.memo_hits(), 0);
    assert_eq!(
        on.cache_hits() + on.table_requests(),
        on.requests(),
        "every request is either a hit or table traffic"
    );
}

#[test]
fn cache_matches_shadow_table_across_seeds() {
    for seed in [0xDEAD_BEEF, 42, 0x5EED_0001, 7, 0xA5A5_A5A5] {
        run_case(seed);
    }
}
