//! Repeatable-read navigation guarantees: "they have to isolate the
//! edges traversed to guarantee identical navigation paths on repeated
//! traversals" (§2 intro). Phantom-style checks for level reads and
//! sibling navigation.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use xtc_core::{InsertPos, IsolationLevel, XtcConfig, XtcDb};
use xtc_obs::{EventKind, ObsConfig};

fn db(protocol: &str) -> Arc<XtcDb> {
    let db = Arc::new(XtcDb::new(XtcConfig {
        protocol: protocol.into(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 6,
        lock_timeout: Duration::from_millis(300),
        ..XtcConfig::default()
    }));
    db.load_xml(r#"<r><a id="a"/><b id="b"/><c id="c"/></r>"#).unwrap();
    db
}

/// getChildNodes twice must see the same children; a concurrent insert
/// into the read level must block until commit.
#[test]
fn level_reads_are_phantom_free() {
    // Protocols with level locks, per-child node locks, or parent-level
    // structure locks must all prevent the phantom.
    for proto in ["taDOM2", "taDOM3+", "URIX", "IRX", "Node2PL", "Node2PLa", "NO2PL", "OO2PL"] {
        let db = db(proto);
        let reader = db.begin();
        let root = reader.root().unwrap().unwrap();
        let first = reader.element_children(&root).unwrap();
        assert_eq!(first.len(), 3, "{proto}");

        // Concurrent insert into the same level must not complete.
        let writer = db.begin();
        let res = writer.insert_element(&root, InsertPos::LastChild, "d");
        assert!(
            res.is_err(),
            "{proto}: insert into a read level must block (got {res:?})"
        );
        writer.abort();

        let second = reader.element_children(&root).unwrap();
        assert_eq!(first, second, "{proto}: repeated getChildNodes differs");
        reader.commit().unwrap();
    }
}

/// getNextSibling twice must stay stable against an insert between the
/// two siblings.
#[test]
fn sibling_navigation_is_stable() {
    for proto in ["taDOM3+", "URIX", "OO2PL", "NO2PL"] {
        let db = db(proto);
        let reader = db.begin();
        let a = reader.element_by_id("a").unwrap().unwrap();
        let b1 = reader.next_sibling(&a).unwrap().unwrap();

        let writer = db.begin();
        let root = a.parent().unwrap();
        let res = writer.insert_element(&root, InsertPos::After(a.clone()), "x");
        assert!(
            res.is_err(),
            "{proto}: insert on a traversed edge must block"
        );
        writer.abort();

        let b2 = reader.next_sibling(&a).unwrap().unwrap();
        assert_eq!(b1, b2, "{proto}: navigation not repeatable");
        reader.commit().unwrap();
    }
}

/// Deleting a node another transaction has read must block; reading a
/// node another transaction deleted (uncommitted) must block too.
#[test]
fn reads_and_deletes_exclude_each_other() {
    for proto in ["taDOM3+", "URIX", "Node2PLa"] {
        let db = db(proto);
        let reader = db.begin();
        let b = reader.element_by_id("b").unwrap().unwrap();
        assert_eq!(reader.name(&b).unwrap().as_deref(), Some("b"));

        let deleter = db.begin();
        let res = deleter.delete_subtree(&b);
        assert!(res.is_err(), "{proto}: delete of a read node must block");
        deleter.abort();
        reader.commit().unwrap();

        // Now the reverse: uncommitted delete blocks readers.
        let deleter = db.begin();
        deleter.delete_subtree(&b).unwrap();
        let reader = db.begin();
        let res = reader.element_by_id("b");
        // Either the jump blocks (timeout error) or, for protocols whose
        // jump locks don't collide with structure locks, the node is
        // already gone from the reader's view only after commit — in all
        // cases the reader must not observe a half-deleted node record.
        if let Ok(Some(node)) = res {
            assert!(
                reader.name(&node).is_err(),
                "{proto}: reader observed an uncommitted delete"
            );
        }
        reader.abort();
        deleter.abort();
        // After the deleter aborts, b is fully back.
        let check = db.begin();
        assert!(check.element_by_id("b").unwrap().is_some(), "{proto}");
        check.commit().unwrap();
    }
}

/// The re-plan branch of plan → lock → verify, step by step. A plans
/// `first_child(r)` — B's uncommitted `x1` — and blocks on the first-child
/// edge B holds. B then puts a newer first child in front and commits. A,
/// granted at last, must see that the document moved under its plan and
/// answer with the child that is first *now*.
#[test]
fn a_plan_made_before_a_lock_wait_is_made_again_after_it() {
    let db = XtcDb::new(XtcConfig {
        protocol: "taDOM3+".into(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 6,
        lock_timeout: Duration::from_secs(10),
        // Tracing on: B waits for A's `LockWait` event, not for a sleep.
        obs: Some(ObsConfig::default()),
        ..XtcConfig::default()
    });
    db.load_xml(r#"<r><a id="a"/></r>"#).unwrap();
    let b = db.begin();
    let root = b.root().unwrap().unwrap();
    let planned = b
        .insert_element(&root, InsertPos::FirstChild, "x1")
        .unwrap();
    let (a_began, a_id) = mpsc::channel();
    std::thread::scope(|s| {
        let a = s.spawn(|| {
            let a = db.begin();
            a_began.send(a.id()).unwrap();
            let first = a.first_child(&root).unwrap();
            a.commit().unwrap();
            first
        });
        let a_id = a_id.recv().unwrap();
        // The event is recorded before the requester sleeps: once it is
        // there, A has planned and cannot go on until B lets go.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !db
            .obs()
            .events()
            .iter()
            .any(|e| e.txn == a_id && matches!(e.kind, EventKind::LockWait { .. }))
        {
            assert!(
                Instant::now() < deadline,
                "A never blocked on B's edge lock"
            );
            std::thread::yield_now();
        }
        let newer = b
            .insert_element(&root, InsertPos::FirstChild, "x0")
            .unwrap();
        assert!(newer < planned, "x0 went in front of x1");
        b.commit().unwrap();
        assert_eq!(a.join().expect("A panicked"), Some(newer));
    });
}
