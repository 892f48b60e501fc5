//! End-to-end tests across all crates: generated documents, concurrent
//! TaMix workloads, and structural consistency afterwards.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;
use xtc::core::IsolationLevel;
use xtc::tamix::txns::{run_txn, Pacing};
use xtc::tamix::{bib, run_cluster1, BibConfig, TamixParams, TxnKind};

/// After a concurrent CLUSTER1-style run, the document must still satisfy
/// its structural invariants: every book has exactly the five expected
/// children, every topic still resolves by id (renames only change
/// names), histories contain only lend elements with person attributes.
fn assert_document_consistent(db: &xtc::core::XtcDb, cfg: &BibConfig) {
    let store = db.store();
    let topics = store.elements_named("topic").len() + store.elements_named("subject").len();
    assert_eq!(topics, cfg.topics, "topics neither vanish nor multiply");
    let mut books_seen = 0;
    for t in 0..cfg.topics {
        let topic = store
            .element_by_id(&format!("t{t}"))
            .expect("topic resolvable by id");
        for book in store.element_children(&topic) {
            books_seen += 1;
            let names: Vec<String> = store
                .element_children(&book)
                .iter()
                .map(|c| store.name_of(c).unwrap())
                .collect();
            assert_eq!(
                names,
                ["title", "author", "price", "chapters", "history"],
                "book structure intact"
            );
            let history = store.element_children(&book).pop().unwrap();
            for lend in store.element_children(&history) {
                assert_eq!(store.name_of(&lend).as_deref(), Some("lend"));
                assert!(
                    store.attribute_value(&lend, "person").is_some(),
                    "every lend names a person"
                );
            }
        }
    }
    assert_eq!(books_seen, store.elements_named("book").len());
    assert_eq!(db.lock_table().granted_count(), 0, "no lock leaked");
}

fn quick_params(protocol: &str) -> TamixParams {
    let mut p = TamixParams::cluster1(protocol, IsolationLevel::Repeatable, 4);
    p.duration = Duration::from_millis(600);
    p.wait_after_commit = Duration::from_millis(5);
    p.wait_after_operation = Duration::ZERO;
    p.initial_wait_max = Duration::from_millis(10);
    p.clients = 2;
    p
}

#[test]
fn cluster1_preserves_document_consistency_under_tadom3_plus() {
    let cfg = BibConfig::tiny();
    let params = quick_params("taDOM3+");
    let report = run_cluster1(&params, &cfg);
    assert!(report.committed() > 0);
    // Re-open a database and regenerate to compare invariants? No — the
    // report's db is internal; instead rerun with a shared db via the
    // public API below.
}

#[test]
fn concurrent_mixed_workload_keeps_invariants_for_each_group_representative() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use xtc::tamix::txns::{run_txn, Pacing};

    for proto in ["Node2PL", "OO2PL", "Node2PLa", "IRX", "URIX", "taDOM2", "taDOM3+"] {
        let cfg = BibConfig::tiny();
        let db = Arc::new(xtc::core::XtcDb::new(xtc::core::XtcConfig {
            protocol: proto.into(),
            isolation: IsolationLevel::Repeatable,
            lock_depth: 4,
            lock_timeout: Duration::from_secs(5),
            ..xtc::core::XtcConfig::default()
        }));
        bib::generate_into(&db, &cfg);

        let mut handles = Vec::new();
        for (i, kind) in [
            TxnKind::QueryBook,
            TxnKind::Chapter,
            TxnKind::LendAndReturn,
            TxnKind::RenameTopic,
            TxnKind::QueryBook,
            TxnKind::LendAndReturn,
            TxnKind::DelBook,
        ]
        .into_iter()
        .enumerate()
        {
            let db = db.clone();
            let cfg = cfg.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(100 + i as u64);
                let mut committed = 0;
                for _ in 0..15 {
                    if run_txn(
                        &db,
                        kind,
                        &cfg,
                        &mut rng,
                        Pacing::default(),
                    )
                    .is_ok()
                    {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "{proto}: nothing committed");
        assert_document_consistent(&db, &cfg);
    }
}

#[test]
fn isolation_none_has_highest_throughput_repeatable_lowest_deadlock_free_zero() {
    // A coarse but robust shape check for Figure 7's ordering at a fixed
    // depth: none >= repeatable in committed transactions, and isolation
    // none never deadlocks.
    let cfg = BibConfig::tiny();
    let mut none = quick_params("taDOM3+");
    none.isolation = IsolationLevel::None;
    let r_none = run_cluster1(&none, &cfg);
    let r_rep = run_cluster1(&quick_params("taDOM3+"), &cfg);
    assert_eq!(r_none.deadlocks, 0);
    assert!(r_none.committed() > 0 && r_rep.committed() > 0);
    // Locking never speeds things up; wide margin because this test may
    // share the machine with other load.
    assert!(
        r_none.committed() * 4 >= r_rep.committed(),
        "locking must not speed things up: none={} repeatable={}",
        r_none.committed(),
        r_rep.committed()
    );
}

#[test]
fn lock_depth_zero_is_a_document_lock() {
    // Figure 7/9's left edge: at depth 0 every writer serializes while
    // holding the document lock for its full (think-time-stretched)
    // duration, so far fewer writer transactions commit than at depth 4.
    // Without think times a single document lock is actually *cheap* —
    // the paper's depth-0 collapse is a lock-hold-time effect.
    let cfg = BibConfig::tiny();
    let mut p0 = quick_params("taDOM3+");
    p0.lock_depth = 0;
    p0.wait_after_operation = Duration::from_millis(1);
    let r0 = run_cluster1(&p0, &cfg);
    let mut p4 = quick_params("taDOM3+");
    p4.wait_after_operation = Duration::from_millis(1);
    let r4 = run_cluster1(&p4, &cfg);
    let writers =
        |r: &xtc::tamix::RunReport| r.committed() - r.committed_of(TxnKind::QueryBook);
    assert!(
        writers(&r4) > writers(&r0),
        "depth 4 must beat the document lock: {} vs {}",
        writers(&r4),
        writers(&r0)
    );
}

/// One TAqueryBook, single user, on a paper-size document whose books all
/// have one shape, with the draw narrowed to `b0`: nothing here depends
/// on the random stream, so both counts are exact. The lock requests are
/// the protocol's business and must not notice how the store finds its
/// nodes; the page reads are what a leaf hint and a version-checked
/// verify are for — before them this transaction read 1 725 pages, a
/// root-to-leaf walk per node and two per navigation step.
#[test]
fn a_query_book_costs_its_locks_and_a_third_of_the_page_reads() {
    const LOCK_REQUESTS: u64 = 890;
    const PARENT_PAGE_READS: u64 = 1725;
    let doc = BibConfig {
        chapters: (7, 7),
        lends: (10, 10),
        ..BibConfig::paper()
    };
    let db = xtc::core::XtcDb::new(xtc::core::XtcConfig {
        protocol: "taDOM3+".to_string(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 4,
        ..xtc::core::XtcConfig::default()
    });
    bib::generate_into(&db, &doc);
    let draw = BibConfig {
        books: 1,
        ..doc.clone()
    };
    let mut rng = SmallRng::seed_from_u64(0);
    let (locks, reads) = (db.lock_table().requests(), db.store().stats().page_reads());
    assert!(run_txn(&db, TxnKind::QueryBook, &draw, &mut rng, Pacing::default()).unwrap());
    let (locks, reads) = (
        db.lock_table().requests() - locks,
        db.store().stats().page_reads() - reads,
    );
    assert_eq!(locks, LOCK_REQUESTS, "lock requests of one TAqueryBook");
    assert!(
        reads * 3 <= PARENT_PAGE_READS,
        "one TAqueryBook read {reads} pages, more than a third of {PARENT_PAGE_READS}"
    );
}
