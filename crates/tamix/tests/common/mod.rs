//! The runner the on/off equivalence suites share: one seeded sequential
//! TaMix mix against one engine configuration, reduced to everything the
//! suites compare between their two arms.

// Each suite is its own crate and reads only the fields it asserts on.
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;
use xtc_core::{IsolationLevel, XtcConfig, XtcDb};
use xtc_tamix::chaos::document_digest;
use xtc_tamix::txns::{run_txn_body, Pacing};
use xtc_tamix::{bib, BibConfig, TxnKind};

/// The deterministic workload: a fixed cycle of transaction kinds, each
/// run sequentially with its own per-index seed.
const MIX: [TxnKind; 5] = [
    TxnKind::QueryBook,
    TxnKind::Chapter,
    TxnKind::LendAndReturn,
    TxnKind::RenameTopic,
    TxnKind::DelBook,
];
pub const TXNS: usize = 40;

/// The configuration both arms of every suite start from; a suite flips
/// exactly one switch on top of it.
pub fn base_config(protocol: &str) -> XtcConfig {
    XtcConfig {
        protocol: protocol.to_string(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 4,
        lock_timeout: Duration::from_secs(5),
        ..XtcConfig::default()
    }
}

pub struct MixResult {
    /// Per transaction: `commit`, `empty` (committed without work) or the
    /// abort's display string (error enums don't implement Eq across the
    /// board).
    pub outcomes: Vec<String>,
    /// FNV-1a digest of the final document in document order.
    pub digest: u64,
    /// Per transaction, when its body is through and before it commits
    /// or aborts: an order-free digest of the (name, mode) pairs the lock
    /// table holds for it.
    pub held: Vec<u64>,
    pub lock_requests: u64,
    pub table_requests: u64,
    pub cache_hits: u64,
    pub memo_hits: u64,
    /// `(family, mode, requests)` for every mode requested at all.
    pub requests_by_mode: Vec<(&'static str, String, u64)>,
    pub page_reads: u64,
    pub events: u64,
    pub filter_probes: u64,
    pub filter_negatives: u64,
}

/// Generates the tiny bib document into a fresh engine and runs `txns`
/// transactions of the mix, one at a time.
pub fn run_seeded_mix(config: XtcConfig, seed: u64, txns: usize) -> MixResult {
    run_seeded_mix_with(config, seed, txns, || {})
}

/// [`run_seeded_mix`] with a hook between document generation and the
/// workload — where the chaos variant arms failpoints, so the fault
/// budget is spent on the workload only, not on setup.
pub fn run_seeded_mix_with(
    config: XtcConfig,
    seed: u64,
    txns: usize,
    after_setup: impl FnOnce(),
) -> MixResult {
    let db = XtcDb::new(config);
    bib::generate_into(&db, &BibConfig::tiny());
    after_setup();
    let pacing = Pacing {
        wait_after_operation: Duration::ZERO,
        ..Pacing::default()
    };
    let mut held = Vec::new();
    let outcomes = (0..txns)
        .map(|i| {
            // Fresh RNG per transaction: both arms draw identical targets
            // regardless of how many random values earlier transactions used.
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(i as u64 * 7919));
            // `run_txn`, opened up between body and commit.
            let txn = db.try_begin().expect("no admission limit configured");
            let body = run_txn_body(
                &txn,
                MIX[i % MIX.len()],
                &BibConfig::tiny(),
                &mut rng,
                pacing,
            );
            held.push(held_digest(&db, txn.id()));
            // A failed body drops the transaction, which aborts it.
            match body.and_then(|did_work| txn.commit().map(|()| did_work)) {
                Ok(true) => "commit".to_string(),
                Ok(false) => "empty".to_string(),
                Err(e) => format!("abort: {e}"),
            }
        })
        .collect();
    let pool = db.store().pool_stats();
    MixResult {
        outcomes,
        digest: document_digest(&db),
        held,
        lock_requests: db.lock_table().requests(),
        table_requests: db.lock_table().table_requests(),
        cache_hits: db.lock_table().cache_hits(),
        memo_hits: db.lock_table().memo_hits(),
        requests_by_mode: db.lock_table().requests_by_mode(),
        page_reads: db.store().stats().page_reads(),
        events: db.obs().recorded_events(),
        filter_probes: pool.filter_probes,
        filter_negatives: pool.filter_negatives,
    }
}

/// Sum of the hashes of the (name, mode) pairs the lock table holds for
/// `txn`: independent of shard and map iteration order.
fn held_digest(db: &XtcDb, txn: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    db.lock_table()
        .granted_to(txn)
        .iter()
        .map(|held| {
            // Fixed keys: the same pair hashes alike in both arms.
            let mut h = std::collections::hash_map::DefaultHasher::new();
            held.hash(&mut h);
            h.finish()
        })
        .fold(0, u64::wrapping_add)
}
