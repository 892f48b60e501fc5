//! Does a second client on the same document buy anything?
//!
//! Three closed-loop rows per mix, zero think time, taDOM3+ at
//! repeatable read and lock depth 4 (the setting of the repository's
//! benchmark): `one` client on one document, `two_shared` clients on one
//! document, `two_separate` clients on a document each. The last row is
//! what two cores can do when the clients share nothing; the gap between
//! it and `two_shared` is what sharing one engine costs. With
//! TAqueryBook only (shared locks, no conflict) all of that gap is the
//! engine's own synchronisation — counters, latches, the buffer pool's
//! bookkeeping — and none of it the protocol's.
//!
//! Gates (`--check`): on the CLUSTER1 mix `two_shared` must reach 1.5× the
//! `one` row — the layer ladder of `perf/` cannot show this: its rungs
//! are single-threaded — and one client's TAqueryBook must read at most a
//! third of the pages it read when every node cost a walk from the root,
//! so that walk cannot come back unnoticed; and the path memo must answer
//! most of that transaction's lock requests — it re-asks its ancestor
//! path for every sibling — while the number of requests stays what it
//! was before there was a memo. The report is checked in as
//! `BENCH_scaling.json`.

use crate::cli::Flags;
use crate::report::{Report, Row};
use crate::row;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtc_core::{IsolationLevel, RetryPolicy, XtcConfig, XtcDb};
use xtc_tamix::txns::{run_txn_body, Pacing, TxnKind};
use xtc_tamix::{sample_kind, BibConfig, PoolReport};

/// The gate: `two_shared / one` on the mix.
const MIN_SHARED_SPEEDUP: f64 = 1.5;
/// Page reads per TAqueryBook of the `query_only / one` row before reads
/// kept their place (a root-to-leaf walk per node, two per navigation
/// step), as this bench counted them on that commit.
const WALK_PER_NODE_PAGE_READS: f64 = 1767.0;
/// The least share of one client's TAqueryBook lock requests the path memo
/// must answer (0.74 when the gate was written: at lock depth 4 three of
/// every four requests re-ask the path just locked).
const MIN_MEMO_SHARE: f64 = 0.6;
/// Lock requests per TAqueryBook of the `query_only` rows on the commit
/// before the memo, as this bench counted them there (912 / 912 / 904):
/// the memo books every request it answers, so the figure may not move.
/// Which books a row draws depends on how many it gets through, worth
/// ± 2 % here; a memo that dropped one request per answered path would
/// be off by 18 %.
const QUERYBOOK_LOCK_REQUESTS: f64 = 910.0;
const LOCK_REQUESTS_TOLERANCE: f64 = 0.05;
/// Discarded before each slice (caches, lazy set-up, thread start).
const WARMUP: Duration = Duration::from_millis(300);
/// Each row's window is cut into this many slices, taken in turn with
/// the other rows' slices; a row reports its median slice. A shared box
/// drifts by tens of percent within seconds, and a ratio of two rows
/// measured seconds apart would inherit all of it.
const SLICES: usize = 5;

#[derive(Default)]
struct Cell {
    /// Committed transactions per second, one entry per slice.
    rates: Vec<f64>,
    commits: u64,
    failed: u64,
    /// Transactions run to their end, warm-up and the one in flight at
    /// the window's close included: what the engine counters below cover.
    finished: u64,
    page_reads: u64,
    descents: u64,
    hint_hits: u64,
    lock_requests: u64,
    memo_hits: u64,
}

impl Cell {
    fn txn_per_s(&self) -> f64 {
        let mut sorted = self.rates.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }
}

fn build(bib: &BibConfig) -> Arc<XtcDb> {
    let db = Arc::new(XtcDb::new(XtcConfig {
        protocol: "taDOM3+".to_string(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 4,
        ..XtcConfig::default()
    }));
    xtc_tamix::bib::generate_into(&db, bib);
    db
}

/// Page reads, root descents, hint hits, lock requests and path-memo
/// answers so far, over the distinct documents of a row.
fn engine_counters(dbs: &[Arc<XtcDb>]) -> [u64; 5] {
    let mut sum = [0; 5];
    for (i, db) in dbs.iter().enumerate() {
        if dbs[..i].iter().any(|seen| Arc::ptr_eq(seen, db)) {
            continue;
        }
        let pool = db.store().pool_stats();
        sum[0] += db.store().stats().page_reads();
        sum[1] += pool.descents;
        sum[2] += pool.hint_hits;
        sum[3] += db.lock_table().requests();
        sum[4] += db.lock_table().memo_hits();
    }
    sum
}

/// One slice: client `i` works on `dbs[i]` (the same `Arc` twice for a
/// shared row) until `window` is over; warm-up first, uncounted. Returns
/// `(commits, failed, finished)` over all clients.
fn drive(
    dbs: &[Arc<XtcDb>],
    bib: &BibConfig,
    query_only: bool,
    seed: u64,
    window: Duration,
) -> (u64, u64, u64) {
    let start = Instant::now() + WARMUP;
    let end = start + window;
    let per_client: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = dbs
            .iter()
            .enumerate()
            .map(|(i, db)| {
                scope.spawn(move || {
                    let client_seed = seed.wrapping_add(7919 * i as u64);
                    let mut rng = SmallRng::seed_from_u64(client_seed);
                    let policy = RetryPolicy {
                        max_attempts: 16,
                        base: Duration::from_micros(200),
                        seed: client_seed,
                        ..RetryPolicy::default()
                    };
                    let (mut commits, mut failed, mut finished) = (0u64, 0u64, 0u64);
                    loop {
                        let kind = if query_only {
                            TxnKind::QueryBook
                        } else {
                            sample_kind(&mut rng)
                        };
                        let (result, _) = db.run_retrying(&policy, |txn| {
                            run_txn_body(txn, kind, bib, &mut rng, Pacing::default())
                        });
                        finished += 1;
                        let now = Instant::now();
                        if now >= end {
                            return (commits, failed, finished);
                        }
                        if now >= start {
                            match result {
                                Ok(_) => commits += 1,
                                Err(_) => failed += 1,
                            }
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    (
        per_client.iter().map(|c| c.0).sum(),
        per_client.iter().map(|c| c.1).sum(),
        per_client.iter().map(|c| c.2).sum(),
    )
}

pub fn run(flags: &Flags) {
    let mut report = Report::new(flags);
    report.read_check(flags);
    let (bib_name, bib) = flags.bib("paper");
    let window = Duration::from_millis(flags.num(
        "duration-ms",
        4000,
        "measured window per row, cut into interleaved slices",
    ));
    let seed: u64 = flags.num("seed", 1, "client stream seed");
    flags.finish();

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let slice = window / SLICES as u32;
    let (a, b) = (build(&bib), build(&bib));
    let configs: [(&str, Vec<Arc<XtcDb>>); 3] = [
        ("one", vec![a.clone()]),
        ("two_shared", vec![a.clone(), a.clone()]),
        ("two_separate", vec![a, b]),
    ];
    let mut rows: Vec<Row> = Vec::new();
    let (mut mix_speedup, mut query_page_reads, mut query_memo_share) =
        (f64::NAN, f64::NAN, f64::NAN);
    let mut query_lock_requests = Vec::new();
    for (mix, query_only) in [("cluster1", false), ("query_only", true)] {
        let mut cells: [Cell; 3] = Default::default();
        for round in 0..SLICES {
            for (cell, (_, dbs)) in cells.iter_mut().zip(&configs) {
                let slice_seed = seed.wrapping_add(104_729 * round as u64);
                let before = engine_counters(dbs);
                let (commits, failed, finished) = drive(dbs, &bib, query_only, slice_seed, slice);
                let after = engine_counters(dbs);
                cell.rates.push(commits as f64 / slice.as_secs_f64());
                cell.commits += commits;
                cell.failed += failed;
                cell.finished += finished;
                cell.page_reads += after[0] - before[0];
                cell.descents += after[1] - before[1];
                cell.hint_hits += after[2] - before[2];
                cell.lock_requests += after[3] - before[3];
                cell.memo_hits += after[4] - before[4];
            }
        }
        let one = cells[0].txn_per_s();
        for (cell, (name, _)) in cells.iter().zip(&configs) {
            let speedup = cell.txn_per_s() / one;
            let per_txn = |n: u64| n as f64 / cell.finished.max(1) as f64;
            let lookups = PoolReport {
                descents: cell.descents,
                hint_hits: cell.hint_hits,
                ..PoolReport::default()
            };
            let memo_share = cell.memo_hits as f64 / cell.lock_requests.max(1) as f64;
            match (mix, *name) {
                ("cluster1", "two_shared") => mix_speedup = speedup,
                ("query_only", "one") => {
                    query_page_reads = per_txn(cell.page_reads);
                    query_memo_share = memo_share;
                }
                _ => {}
            }
            if query_only {
                query_lock_requests.push(per_txn(cell.lock_requests));
            }
            rows.push(row! {
                "mix": mix, "clients": *name, "txn_per_s": cell.txn_per_s(),
                "vs_one": speedup, "commits": cell.commits, "failed": cell.failed,
                "page_reads_per_txn": per_txn(cell.page_reads),
                "descents_per_txn": per_txn(cell.descents),
                "hint_hit_rate": lookups.hint_hit_rate(),
                "lock_requests_per_txn": per_txn(cell.lock_requests),
                "memo_share": memo_share,
            });
        }
    }

    report.summary = row! {
        "bib": &bib_name, "duration_ms": window.as_millis() as u64, "slices": SLICES, "seed": seed,
        "protocol": "taDOM3+", "isolation": "repeatable", "lock_depth": 4u64,
        "cluster1_two_shared_vs_one": mix_speedup,
        "query_only_one_page_reads_per_txn": query_page_reads,
        "query_only_one_memo_share": query_memo_share,
    };
    report.table(
        "cells",
        &format!(
            "closed-loop clients on one or two {bib_name} documents \
             (median of {SLICES} interleaved {} ms slices per row, {cpus} cpus)",
            slice.as_millis()
        ),
        rows,
    );
    report.gate(
        "shared_document_scales",
        cpus >= 2 && mix_speedup >= MIN_SHARED_SPEEDUP,
        format!(
            "two clients on one document ran {mix_speedup:.2}x one client on the CLUSTER1 mix \
             (need {MIN_SHARED_SPEEDUP}x; {cpus} cpus)"
        ),
    );
    report.gate(
        "reads_keep_their_place",
        query_page_reads * 3.0 <= WALK_PER_NODE_PAGE_READS,
        format!(
            "one client's TAqueryBook read {query_page_reads:.0} pages \
             (need a third of {WALK_PER_NODE_PAGE_READS:.0}, the figure with a walk from the root per node)"
        ),
    );
    let requests_unchanged = query_lock_requests
        .iter()
        .all(|r| (r / QUERYBOOK_LOCK_REQUESTS - 1.0).abs() <= LOCK_REQUESTS_TOLERANCE);
    report.gate(
        "paths_asked_once",
        query_memo_share >= MIN_MEMO_SHARE && requests_unchanged,
        format!(
            "the path memo answered {query_memo_share:.2} of one client's TAqueryBook lock requests \
             (need {MIN_MEMO_SHARE}); requests per TAqueryBook {query_lock_requests:.0?} \
             (need {QUERYBOOK_LOCK_REQUESTS:.0} ± {:.0} % on every row)",
            LOCK_REQUESTS_TOLERANCE * 100.0
        ),
    );
    report.finish();
}
