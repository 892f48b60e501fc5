//! Chaos-at-scale: crash–recover–resume matrix plus double-crash
//! convergence. Only compiled with the `failpoints` feature
//! (`cargo test -p xtc-tamix --features failpoints`).
//!
//! Each scenario uses the [`xtc_tamix::chaos`] harness: a CLUSTER1
//! storm plus fate-ledgered marker writers run against a WAL-backed
//! database, the engine is killed at an armed failpoint, recovered,
//! verified (no acknowledged commit lost, no clean failure leaked,
//! document invariants and indexes intact), and the remaining workload
//! resumes on the recovered engine.

#![cfg(feature = "failpoints")]

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use xtc_core::wal::WalConfig;
use xtc_core::{recover_from, AdmissionPolicy, IsolationLevel, XtcConfig, XtcDb, XtcError};
use xtc_failpoint::FailAction;
use xtc_protocols::EXTENDED_PROTOCOLS;
use xtc_tamix::chaos::{document_digest, run_crash_recover_resume, ChaosParams};
use xtc_tamix::{bib, BibConfig};

/// Per-scenario watchdog (the matrix shares the machine with the rest
/// of the suite).
const WATCHDOG: Duration = Duration::from_secs(120);

/// The failpoint registry is process-global; tests arming it must not
/// overlap (`cargo test` runs `#[test]` functions on multiple threads).
static STORM_LOCK: Mutex<()> = Mutex::new(());

/// One crash point per layer: the commit record (clean batch loss), the
/// group-commit fsync (injected device failure), and a page-read I/O
/// fault (storage-side poisoning).
const KILL_SITES: [&str; 3] = ["wal.commit", "wal.fsync", "store.page_read_io"];

#[test]
fn chaos_matrix_over_all_protocols_and_fault_sites() {
    let _storm = STORM_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut mid_run_crashes = [0u32; KILL_SITES.len()];
    // The extended field: the versioned contestants recover through the
    // same WAL path (their version chains rebuild from committed
    // winners), so they face the same kill sites.
    for proto in EXTENDED_PROTOCOLS {
        for (s, site) in KILL_SITES.iter().enumerate() {
            let seed = 0xC4A0_5EED ^ ((proto.len() as u64) << 8) ^ s as u64;
            let (tx, rx) = mpsc::channel();
            let mut params = ChaosParams::quick(proto, site, seed);
            if *site == "wal.fsync" {
                // The log retries a failed sync in place and dies on the
                // fourth failure in a row: at the default 0.2 that is one
                // sync in 625, more than a storm this short performs.
                params.kill_probability = 0.5;
            }
            let handle = std::thread::spawn(move || {
                let report = run_crash_recover_resume(&params);
                let _ = tx.send(());
                report
            });
            // No hangs: a wedged scenario fails loudly instead of timing
            // the whole suite out.
            rx.recv_timeout(WATCHDOG).unwrap_or_else(|_| {
                panic!("{proto}/{site}: chaos scenario hung past {WATCHDOG:?}")
            });
            let report = handle.join().expect("scenario panicked");
            assert!(
                report.passed(),
                "{proto}/{site}: contract violated: {:?}",
                report.violations
            );
            assert!(
                report.post.committed() > 0,
                "{proto}/{site}: no progress after recovery"
            );
            mid_run_crashes[s] += u32::from(report.crashed_mid_run);
        }
    }
    // At every site the kills must actually land mid-run (not only via
    // the end-of-phase fallback crash), or this matrix exercises nothing
    // beyond plain recovery.
    for (site, crashes) in KILL_SITES.iter().zip(mid_run_crashes) {
        assert!(
            crashes > 0,
            "no scenario crashed mid-run; the kill sites never fired ({site})"
        );
    }
}

#[test]
fn chaos_with_deadlines_and_admission_control() {
    let _storm = STORM_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut params = ChaosParams::quick("OO2PL", "wal.commit", 0xAD31_5510);
    params.tamix.txn_deadline = Some(Duration::from_millis(250));
    params.tamix.max_in_flight = Some(2);
    params.tamix.admission = AdmissionPolicy::Queue;
    let report = run_crash_recover_resume(&params);
    assert!(
        report.passed(),
        "deadline+admission chaos violated the contract: {:?}",
        report.violations
    );
    assert_eq!(report.pre.txn_deadline_us, Some(250_000));
    assert!(report.post.committed() > 0);
}

#[test]
fn file_backed_pool_chaos_with_background_writeback() {
    let _storm = STORM_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Same contract as the main matrix, but on a disk-backed pool with a
    // tight residency budget and a background flusher, with the armed
    // kill site on the write-back path — so the faults land inside the
    // flusher thread and the eviction-time forced writeback.
    for (i, proto) in ["taDOM3+", "OO2PL"].into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!(
            "xtc-chaos-filebacked-{}-{i}",
            std::process::id()
        ));
        let mut params =
            ChaosParams::quick(proto, "pool.evict_write", 0xF11E_0C4A ^ (i as u64) << 4);
        params.tamix.store.backend_dir = Some(dir.clone());
        params.tamix.store.max_resident_pages = Some(8);
        params.tamix.writeback_interval = Some(Duration::from_millis(2));
        let report = run_crash_recover_resume(&params);
        assert!(
            report.passed(),
            "{proto}/pool.evict_write file-backed: contract violated: {:?}",
            report.violations
        );
        assert!(
            report.post.committed() > 0,
            "{proto}: no progress after file-backed recovery"
        );
        // The scenario must actually have driven the write-back path it
        // targets: pages were flushed (background or forced) pre-crash.
        assert!(
            report.pre.pool.flushes + report.pre.pool.forced_writebacks > 0,
            "{proto}: file-backed storm never wrote a page back: {:?}",
            report.pre.pool
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn file_backed_recovery_matches_in_memory_recovery() {
    let _storm = STORM_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Kill writebacks while a file-backed engine with a background
    // flusher runs the marker workload, crash it, then recover the same
    // durable prefix twice — once onto a file-backed pool (tight budget,
    // so replay itself evicts and faults pages back in through the CRC
    // check) and once onto the in-memory pool. The documents must match
    // byte for byte: the storage tier must never change what recovery
    // reconstructs.
    let dir_run = std::env::temp_dir().join(format!("xtc-fbrun-{}", std::process::id()));
    let dir_rec = std::env::temp_dir().join(format!("xtc-fbrec-{}", std::process::id()));

    let cfg = BibConfig::tiny();
    let mut run_cfg = XtcConfig {
        protocol: "taDOM2".to_string(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 4,
        wal: Some(WalConfig::default()),
        writeback_interval: Some(Duration::from_millis(1)),
        ..XtcConfig::default()
    };
    run_cfg.store.backend_dir = Some(dir_run.clone());
    run_cfg.store.max_resident_pages = Some(8);
    xtc_failpoint::clear();
    xtc_failpoint::set_seed(11);
    // A transient burst: the first three write-back attempts fail (the
    // flusher and forced writebacks retry through them), then the device
    // heals.
    xtc_failpoint::configure("pool.evict_write", 1.0, FailAction::Error, Some(3));
    let wal = {
        let db = Arc::new(XtcDb::new(run_cfg));
        bib::generate_into(&db, &cfg);
        db.checkpoint().expect("checkpoint");
        for i in 0..6 {
            let txn = db.begin();
            let topic = txn
                .element_by_id(&format!("t{}", i % cfg.topics))
                .expect("read topic")
                .expect("topic exists");
            txn.insert_element(&topic, xtc_core::InsertPos::LastChild, &format!("fb{i}"))
                .expect("insert marker");
            txn.commit().expect("commit marker");
            // Leave the flusher a window so some kills land inside it.
            std::thread::sleep(Duration::from_millis(2));
        }
        let wal = db.wal().expect("wal configured").clone();
        wal.crash();
        wal
    };
    xtc_failpoint::clear();

    let mut fb_cfg = XtcConfig::default();
    fb_cfg.store.backend_dir = Some(dir_rec.clone());
    fb_cfg.store.max_resident_pages = Some(8);
    fb_cfg.writeback_interval = Some(Duration::from_millis(1));
    let (db_fb, rep_fb) = recover_from(&wal, fb_cfg).expect("file-backed recovery failed");
    let (db_mem, rep_mem) = recover_from(&wal, XtcConfig::default()).expect("recovery failed");
    assert_eq!(rep_fb.scanned, rep_mem.scanned);
    assert_eq!(rep_fb.winners, rep_mem.winners);
    assert_eq!(
        document_digest(&db_fb),
        document_digest(&db_mem),
        "file-backed recovery diverged from in-memory recovery"
    );
    assert_eq!(db_fb.store().elements_named("fb0").len(), 1);
    assert!(db_fb.store().verify_indexes().is_empty());
    assert!(
        !db_fb.store().stats().is_poisoned(),
        "file-backed replay poisoned the store"
    );
    let _ = std::fs::remove_dir_all(&dir_run);
    let _ = std::fs::remove_dir_all(&dir_rec);
}

/// Builds a WAL-backed database, runs a short marker workload, crashes
/// it, and hands back the log for recovery experiments.
fn crashed_log() -> Arc<xtc_core::wal::Wal> {
    let cfg = BibConfig::tiny();
    let db = Arc::new(XtcDb::new(XtcConfig {
        protocol: "taDOM2".to_string(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 4,
        wal: Some(WalConfig::default()),
        ..XtcConfig::default()
    }));
    bib::generate_into(&db, &cfg);
    db.checkpoint().expect("checkpoint");
    for i in 0..6 {
        let txn = db.begin();
        let topic = txn
            .element_by_id(&format!("t{}", i % cfg.topics))
            .expect("read topic")
            .expect("topic exists");
        txn.insert_element(&topic, xtc_core::InsertPos::LastChild, &format!("dc{i}"))
            .expect("insert marker");
        txn.commit().expect("commit marker");
    }
    let wal = db.wal().expect("wal configured").clone();
    wal.crash();
    wal
}

#[test]
fn double_crash_recovery_converges_to_the_same_document() {
    let _storm = STORM_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let wal = crashed_log();

    for site in ["recovery.analysis", "recovery.redo"] {
        // First recovery attempt dies at the armed site.
        xtc_failpoint::clear();
        xtc_failpoint::set_seed(7);
        xtc_failpoint::configure(site, 1.0, FailAction::Error, Some(1));
        let err = recover_from(&wal, XtcConfig::default())
            .err()
            .unwrap_or_else(|| panic!("{site}: armed recovery unexpectedly succeeded"));
        assert!(
            matches!(err, XtcError::Injected),
            "{site}: expected injected failure, got {err}"
        );
        xtc_failpoint::clear();

        // Recovery never writes to the source log, so the second attempt
        // sees the same durable prefix and must succeed…
        let (db1, report1) = recover_from(&wal, XtcConfig::default())
            .unwrap_or_else(|e| panic!("{site}: second recovery failed: {e}"));
        // …and a third, from the very same log, must converge to the
        // same document byte for byte.
        let (db2, report2) =
            recover_from(&wal, XtcConfig::default()).expect("third recovery failed");
        assert_eq!(report1.scanned, report2.scanned);
        assert_eq!(report1.winners, report2.winners);
        assert_eq!(
            document_digest(&db1),
            document_digest(&db2),
            "{site}: repeated recovery diverged"
        );
        assert_eq!(db1.store().elements_named("dc0").len(), 1);
        assert!(db1.store().verify_indexes().is_empty());
    }
}
