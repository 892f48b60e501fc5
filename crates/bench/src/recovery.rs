//! WAL throughput and crash-recovery micro-benchmark.
//!
//! Two tables:
//!
//! * **log throughput** — committers hammering disjoint subtrees, swept
//!   over the group-commit window and the committer count, for both the
//!   in-memory and the file-backed (segmented) log. Reports commits/s,
//!   log records/s, and the average records per forced flush — the
//!   group-commit batching factor the window buys.
//! * **recovery time vs log length** — a single writer commits N
//!   transactions, the engine crashes, and the wall-clock cost of the
//!   ARIES-lite replay (analysis + redo + undo) is measured against the
//!   durable log size.
//!
//! No gates: the report (checked in as `BENCH_recovery.json`) tracks the
//! trajectory.

use crate::cli::Flags;
use crate::report::{Report, Row};
use crate::row;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtc_core::wal::{WalConfig, WalStorage};
use xtc_core::{recover_from, RetryPolicy, XtcConfig, XtcDb};

const DOC: &str = r#"<bib><shelf id="s0"/></bib>"#;

fn wal_db(storage: WalStorage, window_us: u64) -> Arc<XtcDb> {
    let db = Arc::new(XtcDb::new(XtcConfig {
        protocol: "taDOM3+".into(),
        wal: Some(WalConfig {
            storage,
            group_commit_window: Duration::from_micros(window_us),
        }),
        ..XtcConfig::default()
    }));
    db.load_xml(DOC).unwrap();
    db
}

/// One container element per committer thread: writers on disjoint
/// subtrees only share compatible intention locks, so their commits can
/// actually overlap inside one flush window.
fn make_containers(db: &XtcDb, threads: usize) {
    for w in 0..threads {
        let t = db.begin();
        let shelf = t.element_by_id("s0").unwrap().unwrap();
        let c = t
            .insert_element(&shelf, xtc_core::InsertPos::LastChild, "container")
            .unwrap();
        t.set_attribute(&c, "id", &format!("c{w}")).unwrap();
        t.commit().unwrap();
    }
}

fn throughput_cell(
    backend: &'static str,
    storage: WalStorage,
    window_us: u64,
    threads: usize,
    total_commits: u64,
) -> Row {
    let db = wal_db(storage, window_us);
    make_containers(&db, threads);
    let base = db.wal().unwrap().stats();
    let per_thread = total_commits / threads as u64;

    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let policy = RetryPolicy::default();
                for i in 0..per_thread {
                    let (res, _) = db.run_retrying(&policy, |t| {
                        let c = t.element_by_id(&format!("c{w}"))?.unwrap();
                        t.insert_element(&c, xtc_core::InsertPos::LastChild, &format!("n{i}"))
                            .map(|_| ())
                    });
                    res.unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = started.elapsed().as_secs_f64();

    let stats = db.wal().unwrap().stats();
    let commits = per_thread * threads as u64;
    let records = stats.synced_records - base.synced_records;
    let flushes = stats.flushes - base.flushes;
    row! {
        "backend": backend, "window_us": window_us, "threads": threads, "commits": commits,
        "commits_per_s": commits as f64 / elapsed, "records_per_s": records as f64 / elapsed,
        "avg_batch": records as f64 / flushes.max(1) as f64, "flushes": flushes,
    }
}

fn recovery_cell(committed: u64) -> Row {
    let db = wal_db(WalStorage::Memory, 0);
    make_containers(&db, 1);
    for i in 0..committed {
        let t = db.begin();
        let c = t.element_by_id("c0").unwrap().unwrap();
        t.insert_element(&c, xtc_core::InsertPos::LastChild, &format!("n{i}"))
            .unwrap();
        t.commit().unwrap();
    }
    let wal = db.wal().unwrap().clone();
    wal.crash();
    drop(db);

    let stats = wal.stats();
    let started = Instant::now();
    let (rec, report) = recover_from(&wal, XtcConfig::default()).unwrap();
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        rec.store().elements_named("n0").len() + rec.store().elements_named("container").len(),
        2,
        "recovery lost committed work"
    );
    row! {
        "committed": committed, "log_records": report.scanned, "log_bytes": stats.synced_bytes,
        "redo_applied": report.redo_applied, "recover_ms": recover_ms,
    }
}

pub fn run(flags: &Flags) {
    let mut report = Report::new(flags);
    let windows_us: Vec<u64> = flags.list("windows-us", &[0, 100, 1000], "group-commit windows");
    let threads: Vec<usize> = flags.list("threads", &[1, 4, 16], "committer counts");
    let total_commits: u64 = flags.num("commits", 192, "commits per throughput cell");
    let txns: Vec<u64> = flags.list(
        "txns",
        &[500, 2000, 8000],
        "log lengths of the recovery curve",
    );
    flags.finish();

    let file_dir = std::env::temp_dir().join(format!("xtc-recovery-bench-{}", std::process::id()));
    let mut cells = Vec::new();
    for &window_us in &windows_us {
        for &t in &threads {
            cells.push(throughput_cell(
                "memory",
                WalStorage::Memory,
                window_us,
                t,
                total_commits,
            ));
            let dir = file_dir.join(format!("w{window_us}t{t}"));
            cells.push(throughput_cell(
                "file",
                WalStorage::Directory {
                    path: dir,
                    segment_bytes: 1 << 20,
                },
                window_us,
                t,
                total_commits,
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&file_dir);

    report.summary = row! { "commits_per_cell": total_commits };
    report.table(
        "throughput",
        "WAL log throughput (group-commit sweep, taDOM3+, disjoint writers)",
        cells,
    );
    report.table(
        "recovery",
        "recovery time vs log length (memory backend, single writer)",
        txns.iter().map(|&n| recovery_cell(n)).collect(),
    );
    report.finish();
}
