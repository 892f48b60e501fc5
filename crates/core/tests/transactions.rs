//! Cross-protocol transaction tests: every contested protocol must give
//! correct transactional behaviour through the same public API.

use std::sync::Arc;
use std::time::Duration;
use xtc_core::{InsertPos, IsolationLevel, XtcConfig, XtcDb};
use xtc_protocols::ALL_PROTOCOLS;

fn db(protocol: &str) -> XtcDb {
    XtcDb::new(XtcConfig {
        protocol: protocol.to_string(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 4,
        lock_timeout: Duration::from_secs(5),
        ..XtcConfig::default()
    })
}

const SAMPLE: &str = r#"<bib><topics><topic id="t0"><book id="b0" year="2006"><title>One</title><author>A</author><history><lend person="p1" return="2006-01-01"/></history></book><book id="b1"><title>Two</title></book></topic></topics></bib>"#;

#[test]
fn basic_read_path_works_under_every_protocol() {
    for name in ALL_PROTOCOLS {
        let db = db(name);
        db.load_xml(SAMPLE).unwrap();
        let t = db.begin();
        let book = t.element_by_id("b0").unwrap().expect("b0 exists");
        assert_eq!(t.name(&book).unwrap().as_deref(), Some("book"), "{name}");
        assert_eq!(
            t.attribute(&book, "year").unwrap().as_deref(),
            Some("2006"),
            "{name}"
        );
        let kids = t.element_children(&book).unwrap();
        assert_eq!(kids.len(), 3, "{name}");
        let title_text = t.first_child(&kids[0]).unwrap().unwrap();
        assert_eq!(
            t.text_content(&title_text).unwrap().as_deref(),
            Some("One"),
            "{name}"
        );
        // Navigation.
        assert_eq!(t.next_sibling(&kids[0]).unwrap(), Some(kids[1].clone()));
        assert_eq!(t.prev_sibling(&kids[1]).unwrap().as_ref(), Some(&kids[0]));
        assert_eq!(t.parent(&kids[0]).unwrap(), Some(book.clone()));
        t.commit().unwrap();
        assert_eq!(db.lock_table().granted_count(), 0, "{name}: locks leaked");
    }
}

#[test]
fn write_and_commit_is_visible_under_every_protocol() {
    for name in ALL_PROTOCOLS {
        let db = db(name);
        db.load_xml(SAMPLE).unwrap();
        let t = db.begin();
        let book = t.element_by_id("b1").unwrap().unwrap();
        let chapter = t
            .insert_element(&book, InsertPos::LastChild, "chapter")
            .unwrap();
        t.insert_text(&chapter, InsertPos::LastChild, "content")
            .unwrap();
        t.set_attribute(&chapter, "num", "1").unwrap();
        t.commit().unwrap();

        let t2 = db.begin();
        let book = t2.element_by_id("b1").unwrap().unwrap();
        let kids = t2.element_children(&book).unwrap();
        assert_eq!(kids.len(), 2, "{name}");
        assert_eq!(t2.name(&kids[1]).unwrap().as_deref(), Some("chapter"));
        assert_eq!(t2.attribute(&kids[1], "num").unwrap().as_deref(), Some("1"));
        t2.commit().unwrap();
    }
}

#[test]
fn abort_rolls_back_every_kind_of_change() {
    for name in ALL_PROTOCOLS {
        let db = db(name);
        db.load_xml(SAMPLE).unwrap();
        let before = db.store().node_count();

        let t = db.begin();
        let b0 = t.element_by_id("b0").unwrap().unwrap();
        let b1 = t.element_by_id("b1").unwrap().unwrap();
        // Content change, rename, insert, attribute, delete — then abort.
        let title = t.element_children(&b1).unwrap()[0].clone();
        let text = t.first_child(&title).unwrap().unwrap();
        t.update_text(&text, "changed").unwrap();
        t.rename(&b1, "livre").unwrap();
        t.insert_element(&b1, InsertPos::LastChild, "extra").unwrap();
        t.set_attribute(&b1, "lang", "fr").unwrap();
        t.delete_subtree(&b0).unwrap();
        t.abort();

        assert_eq!(db.store().node_count(), before, "{name}: node count");
        let t2 = db.begin();
        let b0 = t2.element_by_id("b0").unwrap();
        assert!(b0.is_some(), "{name}: deleted subtree restored");
        let b1 = t2.element_by_id("b1").unwrap().unwrap();
        assert_eq!(t2.name(&b1).unwrap().as_deref(), Some("book"), "{name}");
        assert_eq!(t2.attribute(&b1, "lang").unwrap(), None, "{name}");
        let title = t2.element_children(&b1).unwrap()[0].clone();
        let text = t2.first_child(&title).unwrap().unwrap();
        assert_eq!(
            t2.text_content(&text).unwrap().as_deref(),
            Some("Two"),
            "{name}"
        );
        t2.commit().unwrap();
        assert_eq!(db.lock_table().granted_count(), 0, "{name}");
    }
}

#[test]
fn dropped_transaction_aborts() {
    let db = db("taDOM3+");
    db.load_xml(SAMPLE).unwrap();
    {
        let t = db.begin();
        let b1 = t.element_by_id("b1").unwrap().unwrap();
        t.rename(&b1, "nope").unwrap();
        // dropped without commit
    }
    let t = db.begin();
    let b1 = t.element_by_id("b1").unwrap().unwrap();
    assert_eq!(t.name(&b1).unwrap().as_deref(), Some("book"));
    t.commit().unwrap();
}

#[test]
fn repeatable_read_blocks_concurrent_writer_until_commit() {
    for name in ALL_PROTOCOLS {
        let db = Arc::new(db(name));
        db.load_xml(SAMPLE).unwrap();

        let reader = db.begin();
        let b0 = reader.element_by_id("b0").unwrap().unwrap();
        let title = reader.element_children(&b0).unwrap()[0].clone();
        let text = reader.first_child(&title).unwrap().unwrap();
        assert_eq!(reader.text_content(&text).unwrap().as_deref(), Some("One"));

        // A concurrent writer must not complete its conflicting update
        // while the reader is active.
        let db2 = db.clone();
        let text2 = text.clone();
        let h = std::thread::spawn(move || {
            let w = db2.begin();
            let r = w.update_text(&text2, "Dirty");
            match r {
                Ok(()) => {
                    w.commit().unwrap();
                    true
                }
                Err(_) => {
                    w.abort();
                    false
                }
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        // Repeatable read: the value must be unchanged while we hold our
        // read locks.
        assert_eq!(
            reader.text_content(&text).unwrap().as_deref(),
            Some("One"),
            "{name}: repeatable read violated"
        );
        reader.commit().unwrap();
        h.join().unwrap();
    }
}

#[test]
fn uncommitted_isolation_skips_read_locks() {
    let db = db("taDOM3+");
    db.load_xml(SAMPLE).unwrap();
    let writer = db.begin();
    let b0 = writer.element_by_id("b0").unwrap().unwrap();
    let title = writer.element_children(&b0).unwrap()[0].clone();
    let text = writer.first_child(&title).unwrap().unwrap();
    writer.update_text(&text, "Dirty").unwrap();

    // An uncommitted-read transaction sees the dirty value without
    // blocking.
    let dirty = db.begin_with(IsolationLevel::Uncommitted, 4);
    assert_eq!(
        dirty.text_content(&text).unwrap().as_deref(),
        Some("Dirty"),
        "dirty read expected at uncommitted"
    );
    dirty.commit().unwrap();
    writer.abort();

    let t = db.begin();
    assert_eq!(t.text_content(&text).unwrap().as_deref(), Some("One"));
    t.commit().unwrap();
}

#[test]
fn isolation_none_acquires_no_locks() {
    let db = db("taDOM3+");
    db.load_xml(SAMPLE).unwrap();
    let t = db.begin_with(IsolationLevel::None, 4);
    let b0 = t.element_by_id("b0").unwrap().unwrap();
    let _ = t.subtree(&b0).unwrap();
    assert_eq!(t.held_locks(), 0);
    assert_eq!(db.lock_table().granted_count(), 0);
    t.commit().unwrap();
}

#[test]
fn committed_isolation_drops_short_read_locks_after_every_operation() {
    for name in ALL_PROTOCOLS {
        let db = db(name);
        db.load_xml(SAMPLE).unwrap();
        let t = db.begin_with(IsolationLevel::Committed, 4);
        // Reads take short locks and each operation ends by releasing
        // them: nothing is held, here or in the shared table.
        let b0 = t.element_by_id("b0").unwrap().unwrap();
        assert_eq!(t.held_locks(), 0, "{name}: after the jump");
        let title = t.first_child(&b0).unwrap().unwrap();
        let _ = t.next_sibling(&title).unwrap();
        let _ = t.subtree(&b0).unwrap();
        assert_eq!(t.held_locks(), 0, "{name}: after navigation");
        assert_eq!(db.lock_table().granted_count(), 0, "{name}");
        // A write takes long locks; a later read's short locks still go.
        t.set_attribute(&b0, "year", "2007").unwrap();
        let long = t.held_locks();
        assert!(long > 0, "{name}: write locks are long");
        let _ = t.element_children(&b0).unwrap();
        assert_eq!(t.held_locks(), long, "{name}: only the short locks went");
        t.commit().unwrap();
        assert_eq!(db.lock_table().granted_count(), 0, "{name}: locks leaked");
    }
}

#[test]
fn repeatable_isolation_keeps_read_locks_across_operations() {
    let db = db("taDOM3+");
    db.load_xml(SAMPLE).unwrap();
    let t = db.begin();
    let b0 = t.element_by_id("b0").unwrap().unwrap();
    let after_jump = t.held_locks();
    assert!(after_jump > 0, "repeatable reads take long locks");
    // Ending an operation releases nothing: re-reading what is already
    // locked leaves the count where it was, new ground only adds to it.
    let _ = t.node(&b0).unwrap();
    assert_eq!(t.held_locks(), after_jump);
    let _ = t.first_child(&b0).unwrap();
    assert!(t.held_locks() >= after_jump);
    assert_eq!(db.lock_table().granted_count(), t.held_locks());
    t.commit().unwrap();
}

#[test]
fn conflicting_writers_deadlock_and_one_survives() {
    // Two transactions reading then writing each other's targets must end
    // in a deadlock with exactly one victim (under every protocol that
    // takes read locks).
    for name in ALL_PROTOCOLS {
        let db = Arc::new(db(name));
        db.load_xml(SAMPLE).unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for (mine, theirs) in [("b0", "b1"), ("b1", "b0")] {
            let db = db.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                let t = db.begin();
                let my = t.element_by_id(mine).unwrap().unwrap();
                let my_sub = t.subtree(&my).unwrap();
                assert!(!my_sub.is_empty());
                barrier.wait();
                let other = match t.element_by_id(theirs) {
                    Ok(Some(o)) => o,
                    _ => {
                        t.abort();
                        return false;
                    }
                };
                match t.delete_subtree(&other) {
                    Ok(()) => {
                        t.commit().unwrap();
                        true
                    }
                    Err(_) => {
                        t.abort();
                        false
                    }
                }
            }));
        }
        let results: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let committed = results.iter().filter(|r| **r).count();
        assert!(
            committed >= 1,
            "{name}: at least one transaction must survive"
        );
        assert_eq!(db.lock_table().granted_count(), 0, "{name}: lock leak");
    }
}

#[test]
fn rename_under_tadom3_coexists_with_deep_traversal() {
    // taDOM3's NX allows renaming a topic while another transaction reads
    // a book inside it (Fig. 10d's effect).
    let db = Arc::new(db("taDOM3+"));
    db.load_xml(SAMPLE).unwrap();

    let reader = db.begin();
    let book = reader.element_by_id("b0").unwrap().unwrap();
    let _ = reader.subtree(&book).unwrap(); // deep read inside the topic

    let renamer = db.begin();
    let topic = renamer.element_by_id("t0").unwrap().unwrap();
    renamer
        .rename(&topic, "subject")
        .expect("taDOM3+ rename must not block on deep readers");
    renamer.commit().unwrap();
    reader.commit().unwrap();
}

#[test]
fn rename_under_mgl_blocks_deep_readers() {
    // URIX has no node-only exclusive lock: the rename needs subtree X
    // and must wait for (here: time out on) the deep reader.
    let db = Arc::new(XtcDb::new(XtcConfig {
        protocol: "URIX".into(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 6,
        lock_timeout: Duration::from_millis(200),
        ..XtcConfig::default()
    }));
    db.load_xml(SAMPLE).unwrap();

    let reader = db.begin();
    let book = reader.element_by_id("b0").unwrap().unwrap();
    let _ = reader.subtree(&book).unwrap();

    let renamer = db.begin();
    let topic = renamer.element_by_id("t0").unwrap().unwrap();
    let res = renamer.rename(&topic, "subject");
    assert!(res.is_err(), "URIX rename should block behind deep readers");
    renamer.abort();
    reader.commit().unwrap();
}

#[test]
fn lock_depth_zero_serializes_writers_document_wide() {
    let db = Arc::new(db("taDOM2"));
    db.load_xml(SAMPLE).unwrap();

    let t1 = db.begin_with(IsolationLevel::Repeatable, 0);
    let b0 = t1.element_by_id("b0").unwrap().unwrap();
    let title = t1.element_children(&b0).unwrap()[0].clone();
    let text = t1.first_child(&title).unwrap().unwrap();
    t1.update_text(&text, "X").unwrap();

    // Another writer in a *different* subtree is blocked at depth 0
    // (document lock).
    let db2 = db.clone();
    let h = std::thread::spawn(move || {
        let t2 = db2.begin_with(IsolationLevel::Repeatable, 0);
        let b1 = match t2.element_by_id("b1") {
            Ok(Some(b)) => b,
            _ => {
                t2.abort();
                return false;
            }
        };
        let ok = t2.rename(&b1, "x").is_ok();
        if ok {
            t2.commit().unwrap();
        } else {
            t2.abort();
        }
        ok
    });
    std::thread::sleep(Duration::from_millis(100));
    assert!(!h.is_finished(), "depth 0 must serialize writers");
    t1.commit().unwrap();
    assert!(h.join().unwrap());
}

#[test]
fn high_lock_depth_allows_disjoint_writers() {
    let db = Arc::new(db("taDOM3+"));
    db.load_xml(SAMPLE).unwrap();

    let t1 = db.begin();
    let b0 = t1.element_by_id("b0").unwrap().unwrap();
    let title = t1.element_children(&b0).unwrap()[0].clone();
    let text = t1.first_child(&title).unwrap().unwrap();
    t1.update_text(&text, "X").unwrap();

    // A writer in the sibling book proceeds immediately.
    let t2 = db.begin();
    let b1 = t2.element_by_id("b1").unwrap().unwrap();
    t2.set_attribute(&b1, "year", "2007").unwrap();
    t2.commit().unwrap();
    t1.commit().unwrap();
}
