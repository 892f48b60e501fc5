//! Disk-backed buffer pool sweep: scan-resistant LRU-2 vs. plain clean-LRU
//! eviction across resident-budget fractions, under TaMix plus an
//! append-flood adversary.
//!
//! Each cell builds one engine (optionally file-backed; the background
//! flusher always runs so freshly dirtied pages become clean eviction
//! candidates), loads a wide bib document plus a cold archive region,
//! then runs a thinned TaMix mix concurrently with a *polluter* thread
//! that bulk-appends archive entries as fast as the engine accepts them
//! — a flood of single-touch pages, the access pattern buffer managers
//! hate. Under plain LRU the flood pushes the transactions' warm book
//! pages (re-referenced every ~100 ms) to the cold end and evicts them
//! before their next use; LRU-2 sees the flood's pages have no second
//! uncorrelated reference (backward K-distance ∞) and sheds them first,
//! keeping the warm set resident. Buffer misses charge a simulated
//! fault-in latency, so the hit-rate gap becomes a throughput gap.
//!
//! Hits and misses are counted at *fix* grain: repeated node-level
//! touches of one page within `--burst-ticks` LRU-clock ticks are one
//! logical reference (the pool's correlated-reference window, widened
//! here to transaction scale), under both policies.
//!
//! Gates (the ISSUE 9 acceptance bars; `--check` makes them fatal): at
//! the 25% budget fraction LRU-2 must hold a hit rate at least 10 points
//! above clean-LRU and at least 1.2× its throughput and recall a page
//! through its ghost list, and with filters on a batch of absent index
//! probes must cost zero page reads. The report is checked in as
//! `BENCH_storage.json`.

use crate::cli::Flags;
use crate::report::Report;
use crate::row;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xtc_core::{IsolationLevel, XtcConfig, XtcDb};
use xtc_node::EvictPolicy;
use xtc_tamix::{bib, run_cluster1_on, BibConfig, PoolReport, TamixParams};

/// One sweep cell: policy × budget fraction.
struct Cell {
    policy: &'static str,
    fraction: f64,
    budget_pages: usize,
    committed: u64,
    throughput: f64,
    hit_rate: f64,
    pool: PoolReport,
    polluter_entries: u64,
}

fn policy_name(p: &EvictPolicy) -> &'static str {
    match p {
        EvictPolicy::CleanLru => "clean-lru",
        EvictPolicy::Lru2 { .. } => "lru-2",
    }
}

/// Base TaMix parameters for every cell: the CLUSTER1 mix thinned to a
/// handful of slots with light pacing. The point is a *warm* working
/// set — pages each transaction slot returns to every few tens of
/// milliseconds, slowly enough that a scan-flooded pool has already
/// turned over in between. (At full CLUSTER1 concurrency every page is
/// re-touched so fast that no eviction policy can tell hot from cold.)
fn base_params(seed: u64, duration: Duration, miss: Duration) -> TamixParams {
    let mut p = TamixParams::cluster1("taDOM3+", IsolationLevel::Repeatable, 4);
    p.clients = 1;
    p.mix = vec![
        (xtc_tamix::TxnKind::QueryBook, 2),
        (xtc_tamix::TxnKind::Chapter, 1),
        (xtc_tamix::TxnKind::LendAndReturn, 2),
    ];
    p.duration = duration;
    p.wait_after_commit = Duration::from_millis(2);
    p.wait_after_operation = Duration::from_micros(200);
    p.initial_wait_max = Duration::from_millis(2);
    p.seed = seed;
    p.store.miss_latency = miss;
    p
}

/// A bib document wider than [`BibConfig::scaled`]: ~100 pages of book
/// content, so the transactions' warm band is substantial relative to
/// the budget fractions (each book page is re-referenced every ~100 ms
/// — slow enough for the flood to evict it under plain LRU, fast enough
/// that LRU-2's history ranks it warmer than anything single-touch).
fn wide_bib() -> BibConfig {
    BibConfig {
        persons: 200,
        authors: 40,
        topics: 20,
        books: 600,
        chapters: (3, 5),
        lends: (4, 5),
        seed: 42,
    }
}

/// Cold `<archive>` entries appended under the root before the run:
/// pages the transactions never touch. They size the 100% reference so
/// the 25% budget still covers the warm band — the transactional
/// working set is a quarter-ish of the initial document.
const BALLAST_ENTRIES: usize = 3500;

/// Appends `entries` padded archive entries in one transaction under a
/// fresh `<archive>` element (padding keeps each entry heavy, so the
/// region spans real pages). Used for the initial ballast and by the
/// polluter thread during the run. Errors are returned, not unwrapped —
/// the polluter tolerates aborts under load.
fn append_archive(db: &XtcDb, batch: usize, tag: u64) -> Result<(), xtc_core::XtcError> {
    let filler = "x".repeat(900);
    let t = db.begin();
    let root = t.root()?.ok_or(xtc_core::XtcError::Busy)?;
    let archive = t.insert_element(&root, xtc_core::InsertPos::LastChild, "archive")?;
    for i in 0..batch {
        let e = t.insert_element(&archive, xtc_core::InsertPos::LastChild, "entry")?;
        t.insert_text(
            &e,
            xtc_core::InsertPos::LastChild,
            &format!("{tag}-{i}-{filler}"),
        )?;
    }
    t.commit()
}

/// Grows the initial cold archive region, in batches to keep any one
/// transaction's lock and undo footprint reasonable.
fn grow_ballast(db: &XtcDb) {
    let mut grown = 0;
    while grown < BALLAST_ENTRIES {
        let batch = 200.min(BALLAST_ENTRIES - grown);
        append_archive(db, batch, grown as u64).expect("grow ballast");
        grown += batch;
    }
}

/// Measures the document's full footprint (live pages across the three
/// trees, bib + ballast) with an unbounded pool — the 100% reference
/// the budget fractions scale from.
fn measure_live_pages(bib_cfg: &BibConfig) -> usize {
    let db = XtcDb::new(XtcConfig::default());
    bib::generate_into(&db, bib_cfg);
    grow_ballast(&db);
    db.store().pool_stats().live
}

fn run_cell(
    policy: EvictPolicy,
    fraction: f64,
    budget_pages: usize,
    params: &TamixParams,
    bib_cfg: &BibConfig,
    file_backed: bool,
) -> Cell {
    let mut params = params.clone();
    params.store.max_resident_pages = Some(budget_pages);
    params.store.evict_policy = policy;
    let fb_dir = file_backed.then(|| {
        std::env::temp_dir().join(format!(
            "xtc-storage-bench-{}-{}-{fraction}",
            std::process::id(),
            policy_name(&policy)
        ))
    });
    let mut config = XtcConfig {
        protocol: params.protocol.clone(),
        isolation: params.isolation,
        lock_depth: params.lock_depth,
        lock_timeout: params.lock_timeout,
        store: params.store.clone(),
        // Every cell runs the background flusher: the polluter keeps
        // dirtying fresh pages, and without write-back neither policy
        // would have clean victims to choose between.
        writeback_interval: Some(Duration::from_millis(2)),
        ..XtcConfig::default()
    };
    if let Some(dir) = &fb_dir {
        config.store.backend_dir = Some(dir.clone());
    }
    let db = Arc::new(XtcDb::new(config));
    bib::generate_into(&db, bib_cfg);
    grow_ballast(&db);

    // The polluter: bulk-append archive entries for the whole run, as
    // fast as the engine accepts them. Fresh allocations pay no fault
    // latency, so unlike a reading scan the flood's eviction pressure is
    // not throttled by the very miss cost it inflicts. Its pages are
    // written once and never referenced again: hist2 stays zero, which
    // is exactly the page class LRU-2 sheds first.
    let stop = Arc::new(AtomicBool::new(false));
    let polluter = {
        let db = db.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut entries = 0u64;
            let mut batch_no = 0u64;
            while !stop.load(Ordering::Acquire) {
                if append_archive(&db, 100, 0xB000_0000 | batch_no).is_ok() {
                    entries += 100;
                }
                batch_no += 1;
            }
            entries
        })
    };
    let report = run_cluster1_on(&db, &params, bib_cfg);
    stop.store(true, Ordering::Release);
    let polluter_entries = polluter.join().expect("polluter panicked");
    let cell = Cell {
        policy: policy_name(&policy),
        fraction,
        budget_pages,
        committed: report.committed(),
        throughput: report.throughput_per_5min(),
        hit_rate: report.pool.hit_rate(),
        pool: report.pool.clone(),
        polluter_entries,
    };
    drop(db);
    if let Some(dir) = &fb_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    cell
}

/// Filter acceptance probe: with filters on (the default), a batch of
/// absent element/ID lookups — against an *interned* name, so the probe
/// reaches the filter rather than dying at the vocabulary — must cost
/// zero page reads. Returns (probes, negatives, page_reads).
fn absent_probe_cost(bib_cfg: &BibConfig) -> (u64, u64, u64) {
    let db = XtcDb::new(XtcConfig::default());
    bib::generate_into(&db, bib_cfg);
    // Intern "phantom" without leaving an element carrying it.
    let t = db.begin();
    let topic = t.element_by_id("t0").expect("read t0").expect("t0 exists");
    let e = t
        .insert_element(&topic, xtc_core::InsertPos::LastChild, "phantom")
        .expect("insert");
    t.rename(&e, "phantom2").expect("rename");
    t.commit().expect("commit");

    let store = db.store();
    let probes0 = store.pool_stats().filter_probes;
    let negatives0 = store.pool_stats().filter_negatives;
    let reads0 = store.stats().page_reads();
    for i in 0..64 {
        assert!(store.elements_named("phantom").is_empty());
        assert!(store.element_by_id(&format!("no-such-id-{i}")).is_none());
    }
    let ps = store.pool_stats();
    (
        ps.filter_probes - probes0,
        ps.filter_negatives - negatives0,
        store.stats().page_reads() - reads0,
    )
}

pub fn run(flags: &Flags) {
    let mut report = Report::new(flags);
    report.read_check(flags);
    let fractions: Vec<f64> = flags.list(
        "fractions",
        &[1.0, 0.5, 0.25, 0.1],
        "resident-budget fractions",
    );
    let duration = Duration::from_millis(flags.num("duration-ms", 1500, "run time per cell"));
    let seed: u64 = flags.num("seed", 0x5709_4A6E, "base RNG seed");
    let miss = Duration::from_micros(flags.num("miss-us", 1000, "simulated fault-in latency"));
    // Transaction-scale correlated-reference window (LRU-clock ticks):
    // node-grain re-reads by one transaction collapse into a single
    // logical reference for both the hit/miss counters and LRU-2's
    // history, per the LRU-2 correlated-reference period.
    let burst_ticks: u64 = flags.num("burst-ticks", 2048, "correlated-reference window");
    let file_backed = flags.switch(
        "file-backed",
        "page files on disk instead of the sim backend",
    );
    flags.finish();

    let bib_cfg = wide_bib();
    let live = measure_live_pages(&bib_cfg);
    let mut params = base_params(seed, duration, miss);
    params.store.burst_ticks = burst_ticks;
    eprintln!(
        "storage: working set {live} live pages; sweeping fractions {fractions:?} \
         (miss latency {} µs{})",
        miss.as_micros(),
        if file_backed { ", file-backed" } else { "" }
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &fraction in &fractions {
        let budget = (((live as f64) * fraction).round() as usize).max(2);
        for policy in [
            EvictPolicy::CleanLru,
            EvictPolicy::Lru2 {
                correlated_ticks: burst_ticks,
            },
        ] {
            let c = run_cell(policy, fraction, budget, &params, &bib_cfg, file_backed);
            eprintln!(
                "storage: {:>9} @ {:>4.0}% ({:>4} pages): hit rate {:>5.1}% \
                 throughput {:>7.1}/5min ({} committed, {} evictions, {} ghost hits, \
                 {} hits / {} misses)",
                c.policy,
                fraction * 100.0,
                c.budget_pages,
                c.hit_rate * 100.0,
                c.throughput,
                c.committed,
                c.pool.evictions,
                c.pool.ghost_hits,
                c.pool.hits,
                c.pool.misses,
            );
            cells.push(c);
        }
    }

    let (probes, negatives, probe_reads) = absent_probe_cost(&bib_cfg);
    eprintln!(
        "storage: absent-probe batch: {probes} probes, {negatives} filter negatives, \
         {probe_reads} page reads"
    );

    report.summary = row! {
        "live_pages": live, "miss_us": miss.as_micros() as u64,
        "duration_ms": duration.as_millis() as u64, "file_backed": file_backed,
        "filter_probes": probes, "filter_negatives": negatives,
        "absent_probe_page_reads": probe_reads,
    };
    let rows = cells.iter().map(|c| {
        row! {
            "policy": c.policy, "fraction": c.fraction, "budget_pages": c.budget_pages,
            "committed": c.committed, "throughput_per_5min": c.throughput,
            "hit_rate": c.hit_rate, "hits": c.pool.hits, "misses": c.pool.misses,
            "evictions": c.pool.evictions, "evict_blocked": c.pool.evict_blocked,
            "flushes": c.pool.flushes, "forced_writebacks": c.pool.forced_writebacks,
            "ghost_hits": c.pool.ghost_hits, "polluter_entries": c.polluter_entries,
            "descents_per_txn": c.pool.descents as f64 / c.committed.max(1) as f64,
            "hint_hit_rate": c.pool.hint_hit_rate(),
        }
    });
    report.table(
        "cells",
        "storage: eviction policy × resident budget, TaMix + append flood",
        rows.collect(),
    );

    let at = |policy: &str| {
        cells
            .iter()
            .find(|c| c.policy == policy && (c.fraction - 0.25).abs() < 1e-9)
    };
    match (at("lru-2"), at("clean-lru")) {
        (Some(lru2), Some(lru)) => {
            report.gate(
                "lru2_hit_rate",
                lru2.hit_rate >= lru.hit_rate + 0.10,
                format!(
                    "at 25% budget LRU-2 hit rate {:.1}% vs clean-LRU's {:.1}% (need ≥ 10 points above)",
                    lru2.hit_rate * 100.0,
                    lru.hit_rate * 100.0
                ),
            );
            report.gate(
                "lru2_throughput",
                lru2.throughput >= 1.2 * lru.throughput,
                format!(
                    "at 25% budget LRU-2 throughput {:.1} vs clean-LRU's {:.1} (need ≥ 1.2×)",
                    lru2.throughput, lru.throughput
                ),
            );
            report.gate(
                "lru2_ghost_recall",
                lru2.pool.ghost_hits > 0,
                format!(
                    "LRU-2 ghost list recalled {} pages at 25% budget",
                    lru2.pool.ghost_hits
                ),
            );
        }
        _ => report.gate(
            "lru2_hit_rate",
            false,
            "the gates need the 0.25 fraction in the sweep",
        ),
    }
    report.gate(
        "absent_probes_read_nothing",
        probe_reads == 0,
        format!("{probes} absent index probes read {probe_reads} pages with filters on (want 0)"),
    );
    report.gate(
        "filter_negatives_seen",
        negatives > 0,
        format!("the absent-probe batch produced {negatives} filter negatives"),
    );
    report.finish();
}
