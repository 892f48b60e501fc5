//! Crash–recovery matrix: every protocol in the contest × every kill
//! site, over the TaMix bib document. Only compiled with the
//! `failpoints` feature (`cargo test -p xtc-tamix --features failpoints`).
//!
//! Each scenario runs concurrent writers against a WAL-backed database,
//! kills the engine at an armed failpoint (at the commit record, inside
//! the group-commit flush — leaving a torn tail — or mid-B*-tree split),
//! recovers from the durable log prefix, and asserts the contract:
//!
//! 1. every transaction whose commit returned `Ok` is present,
//! 2. every transaction that failed cleanly (no commit attempt reached
//!    the log) is absent,
//! 3. transactions that died inside the commit flush are allowed either
//!    fate, but never a partial one,
//! 4. the recovered secondary indexes agree with the document.

#![cfg(feature = "failpoints")]

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use xtc_core::wal::WalConfig;
use xtc_core::{
    recover_from, DocStoreConfig, IsolationLevel, RetryPolicy, XtcConfig, XtcDb, XtcError,
};
use xtc_failpoint::FailAction;
use xtc_protocols::ALL_PROTOCOLS;
use xtc_tamix::{bib, BibConfig};

/// Per-scenario watchdog (33 scenarios share the machine).
const WATCHDOG: Duration = Duration::from_secs(60);

/// The failpoint registry is process-global; tests arming it must not
/// overlap (`cargo test` runs `#[test]` functions on multiple threads).
static STORM_LOCK: Mutex<()> = Mutex::new(());

const KILL_SITES: [&str; 3] = ["wal.commit", "wal.flush", "btree.split"];

const WORKERS: usize = 3;
const MARKERS: usize = 4;

/// How each writer's transaction ended, keyed by its unique marker name.
enum Fate {
    /// `commit()` returned `Ok`: durable, must survive recovery.
    Committed,
    /// Failed cleanly before a commit record could exist: must not
    /// survive recovery.
    Absent,
    /// Died inside the commit protocol (`XtcError::Wal`): the commit
    /// record may or may not sit in the durable prefix — either fate is
    /// correct.
    Unknown,
}

fn crash_scenario(proto: &str, site: &str, seed: u64) -> (bool, bool) {
    let cfg = BibConfig::tiny();
    let mut store = DocStoreConfig::default();
    if site == "btree.split" {
        // The tiny document's few 8 KB leaves would not split under
        // twelve marker inserts.
        store.page_size = 512;
    }
    let db = Arc::new(XtcDb::new(XtcConfig {
        protocol: proto.to_string(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 4,
        lock_timeout: Duration::from_secs(5),
        wal: Some(WalConfig::default()),
        store,
        ..XtcConfig::default()
    }));
    // Bulk generation bypasses transactions (and therefore the log);
    // the checkpoint makes the base document recoverable.
    bib::generate_into(&db, &cfg);
    db.checkpoint().expect("checkpoint clean database");

    xtc_failpoint::clear();
    xtc_failpoint::set_seed(seed);
    // One kill: after it fires the engine is crashed and every further
    // operation fails fast, so the workers drain quickly.
    xtc_failpoint::configure(site, 0.2, FailAction::Error, Some(1));

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let db = db.clone();
            let cfg_topics = cfg.topics;
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    max_attempts: 4,
                    base: Duration::from_micros(200),
                    cap: Duration::from_millis(4),
                    ..RetryPolicy::default()
                };
                let mut fates = Vec::new();
                for i in 0..MARKERS {
                    let marker = format!("mw{w}i{i}");
                    let name = marker.clone();
                    let (res, _) = db.run_retrying(&policy, move |txn| {
                        let topic = txn
                            .element_by_id(&format!("t{}", w % cfg_topics))?
                            .expect("topic exists");
                        txn.insert_element(&topic, xtc_core::InsertPos::LastChild, &name)
                            .map(|_| ())
                    });
                    let fate = match res {
                        Ok(()) => Fate::Committed,
                        Err(XtcError::Wal(_)) => Fate::Unknown,
                        Err(_) => Fate::Absent,
                    };
                    fates.push((marker, fate));
                }
                fates
            })
        })
        .collect();
    let mut fates = Vec::new();
    for h in handles {
        fates.extend(h.join().expect("worker panicked"));
    }

    let injected = xtc_failpoint::hits(site) > 0;
    xtc_failpoint::clear();

    let wal = db.wal().expect("wal configured").clone();
    let crashed_live = wal.is_crashed();
    // Scenarios where the budgeted fault never fired (e.g. no page split
    // happened) still exercise the recovery path: kill the engine now.
    wal.crash();
    drop(db);

    let (rec, report) =
        recover_from(&wal, XtcConfig::default()).expect("recovery must succeed");
    let store = rec.store();
    for (marker, fate) in &fates {
        let count = store.elements_named(marker).len();
        match fate {
            Fate::Committed => assert_eq!(
                count, 1,
                "{proto}/{site}: committed marker {marker} lost or duplicated"
            ),
            Fate::Absent => assert_eq!(
                count, 0,
                "{proto}/{site}: rolled-back marker {marker} leaked into recovery"
            ),
            Fate::Unknown => assert!(
                count <= 1,
                "{proto}/{site}: in-doubt marker {marker} duplicated"
            ),
        }
    }
    assert_eq!(
        store.verify_indexes(),
        Vec::<String>::new(),
        "{proto}/{site}: recovered indexes inconsistent"
    );
    assert!(
        report.checkpoint_lsn.is_some(),
        "{proto}/{site}: base checkpoint missing from durable log"
    );
    (injected && crashed_live, report.torn_tail)
}

#[test]
fn crash_recovery_matrix_over_all_protocols_and_kill_sites() {
    let _storm = STORM_LOCK.lock().unwrap();
    let mut mid_run_crashes = [0u32; KILL_SITES.len()];
    let mut torn_tails = 0u32;
    for proto in ALL_PROTOCOLS {
        for (s, site) in KILL_SITES.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            let seed = 0xDEAD_0001 ^ (proto.len() as u64) << 8 ^ s as u64;
            let handle = std::thread::spawn(move || {
                let out = crash_scenario(proto, site, seed);
                let _ = tx.send(());
                out
            });
            // No hangs: a wedged scenario fails loudly instead of timing
            // the whole suite out.
            rx.recv_timeout(WATCHDOG).unwrap_or_else(|_| {
                panic!("{proto}/{site}: crash scenario hung past {WATCHDOG:?}")
            });
            let (crashed_mid_run, torn) = handle.join().expect("scenario panicked");
            mid_run_crashes[s] += u32::from(crashed_mid_run);
            torn_tails += u32::from(torn);
        }
    }
    // At every site the kills must actually land mid-run (not only via
    // the end-of-scenario fallback crash), and the torn-tail path
    // (wal.flush writing a partial batch) must have been decoded at
    // least once — otherwise this matrix exercises nothing.
    for (site, crashes) in KILL_SITES.iter().zip(mid_run_crashes) {
        assert!(
            crashes > 0,
            "no scenario crashed mid-run; the kill sites never fired ({site})"
        );
    }
    assert!(
        torn_tails > 0,
        "no scenario produced a torn log tail; wal.flush kills never landed"
    );
}
