//! Mapping tests: which locks does each protocol group acquire for a
//! given meta-operation? Uses a stub document view and inspects the lock
//! table afterwards.

use std::sync::Arc;
use std::time::Duration;
use xtc_lock::{
    DocView, EdgeKind, IsolationLevel, LockCtx, LockName, LockTable, LockTarget, MetaOp,
    TxnRegistry,
};
use xtc_protocols::ProtocolHandle;
use xtc_splid::SplId;

/// A fixed little tree: root 1 → 1.3 (topic) → 1.3.3 (book) →
/// {1.3.3.3 (title), 1.3.3.5 (history)}; the book owns an id attribute.
struct StubDoc;

impl DocView for StubDoc {
    fn children(&self, id: &SplId) -> Vec<SplId> {
        let s = id.to_string();
        match s.as_str() {
            "1" => vec![p("1.3")],
            "1.3" => vec![p("1.3.3")],
            "1.3.3" => vec![p("1.3.3.3"), p("1.3.3.5")],
            _ => vec![],
        }
    }

    fn subtree_id_owners(&self, id: &SplId) -> Vec<SplId> {
        // The book subtree contains one id owner: the book itself.
        if *id == p("1.3.3") || id.is_ancestor_of(&p("1.3.3")) {
            vec![p("1.3.3")]
        } else {
            vec![]
        }
    }

    fn subtree_nodes(&self, id: &SplId) -> Vec<SplId> {
        let mut all = vec![id.clone()];
        for c in self.children(id) {
            all.extend(self.subtree_nodes(&c));
        }
        all
    }
}

fn p(s: &str) -> SplId {
    SplId::parse(s).unwrap()
}

struct Rig {
    handle: ProtocolHandle,
    table: Arc<LockTable>,
    registry: Arc<TxnRegistry>,
}

impl Rig {
    fn new(proto: &str) -> Rig {
        Rig::with_lock_cache(proto, true)
    }

    fn with_lock_cache(proto: &str, cache: bool) -> Rig {
        let handle = xtc_protocols::build(proto).unwrap();
        let registry = Arc::new(TxnRegistry::new());
        let table = Arc::new(
            LockTable::new(
                handle.families.clone(),
                registry.clone(),
                Duration::from_secs(2),
            )
            .with_lock_cache(cache),
        );
        Rig {
            handle,
            table,
            registry,
        }
    }

    fn acquire(&self, txn: u64, op: &MetaOp<'_>, depth: u32) {
        let handle = self.registry.handle(txn).unwrap();
        let cx = LockCtx {
            txn: &handle,
            table: &self.table,
            doc: &StubDoc,
            isolation: IsolationLevel::Repeatable,
            lock_depth: depth,
        };
        self.handle.protocol.acquire(&cx, op).unwrap();
    }

    fn node_mode(&self, txn: u64, family: u8, node: &str) -> Option<String> {
        let name = LockName {
            family,
            target: LockTarget::Node(p(node)),
        };
        self.table
            .held_mode(txn, &name)
            .map(|m| self.table.family(family).name(m).to_string())
    }

    fn edge_mode(&self, txn: u64, family: u8, node: &str, kind: EdgeKind) -> Option<String> {
        let name = LockName {
            family,
            target: LockTarget::Edge(p(node), kind),
        };
        self.table
            .held_mode(txn, &name)
            .map(|m| self.table.family(family).name(m).to_string())
    }
}

#[test]
fn node2pl_locks_the_parent_with_t_and_m() {
    let rig = Rig::new("Node2PL");
    let t = rig.registry.begin();
    // Reading the book leaves T on its parent (the topic) — Figure 1.
    rig.acquire(t, &MetaOp::ReadNode(&p("1.3.3")), 7);
    assert_eq!(rig.node_mode(t, 0, "1.3").as_deref(), Some("T"));
    assert_eq!(rig.node_mode(t, 0, "1.3.3"), None, "not the node itself");
    // Content read lock rides along in the content family.
    assert_eq!(rig.node_mode(t, 1, "1.3.3").as_deref(), Some("S"));
    // Structural modification at the title → M on the book.
    let node = p("1.3.3.3");
    rig.acquire(
        t,
        &MetaOp::DeleteTree {
            node: &node,
            left: None,
            right: Some(&p("1.3.3.5")),
        },
        7,
    );
    assert_eq!(rig.node_mode(t, 0, "1.3.3").as_deref(), Some("M"));
}

#[test]
fn node2pl_delete_idx_locks_every_id_owner() {
    let rig = Rig::new("Node2PL");
    let t = rig.registry.begin();
    let node = p("1.3.3");
    rig.acquire(
        t,
        &MetaOp::DeleteTree {
            node: &node,
            left: None,
            right: None,
        },
        7,
    );
    // Jump family: IDX on the id owner inside the subtree (§5.3).
    assert_eq!(rig.node_mode(t, 2, "1.3.3").as_deref(), Some("IDX"));
}

#[test]
fn no2pl_locks_the_neighbourhood_not_the_level() {
    let rig = Rig::new("NO2PL");
    let t = rig.registry.begin();
    let node = p("1.3.3.3");
    let right = p("1.3.3.5");
    rig.acquire(
        t,
        &MetaOp::DeleteTree {
            node: &node,
            left: None,
            right: Some(&right),
        },
        7,
    );
    assert_eq!(rig.node_mode(t, 0, "1.3.3.3").as_deref(), Some("NX"));
    assert_eq!(rig.node_mode(t, 0, "1.3.3.5").as_deref(), Some("NX"), "right sibling");
    assert_eq!(rig.node_mode(t, 0, "1.3.3").as_deref(), Some("NX"), "parent");
    // But NOT the grand-parent or unrelated nodes.
    assert_eq!(rig.node_mode(t, 0, "1.3"), None);
}

#[test]
fn oo2pl_locks_edges_only() {
    let rig = Rig::new("OO2PL");
    let t = rig.registry.begin();
    let from = p("1.3.3.3");
    rig.acquire(
        t,
        &MetaOp::Navigate {
            from: &from,
            to: Some(&p("1.3.3.5")),
            edge: EdgeKind::NextSibling,
        },
        7,
    );
    assert_eq!(
        rig.edge_mode(t, 0, "1.3.3.3", EdgeKind::NextSibling).as_deref(),
        Some("ER")
    );
    assert_eq!(rig.node_mode(t, 0, "1.3.3.5"), None, "no node locks");
    // An insert between them takes EX on the same edge → conflicts.
    let t2 = rig.registry.begin_handle();
    let cx = LockCtx {
        txn: &t2,
        table: &rig.table,
        doc: &StubDoc,
        isolation: IsolationLevel::Repeatable,
        lock_depth: 7,
    };
    let parent = p("1.3.3");
    let node = p("1.3.3.4.3");
    let left = p("1.3.3.3");
    let right = p("1.3.3.5");
    let res = rig.handle.protocol.acquire(
        &cx,
        &MetaOp::InsertNode {
            parent: &parent,
            node: &node,
            left: Some(&left),
            right: Some(&right),
        },
    );
    assert!(res.is_err(), "EX on the read edge must block (timeout)");
}

#[test]
fn mgl_level_read_fans_out_per_child() {
    let rig = Rig::new("URIX");
    let t = rig.registry.begin();
    rig.acquire(t, &MetaOp::ReadLevel(&p("1.3.3")), 7);
    // No level lock exists: every child is locked individually.
    assert_eq!(rig.node_mode(t, 0, "1.3.3").as_deref(), Some("IR"));
    assert_eq!(rig.node_mode(t, 0, "1.3.3.3").as_deref(), Some("IR"));
    assert_eq!(rig.node_mode(t, 0, "1.3.3.5").as_deref(), Some("IR"));
}

#[test]
fn tadom_level_read_is_one_lock() {
    let rig = Rig::new("taDOM3+");
    let t = rig.registry.begin();
    rig.acquire(t, &MetaOp::ReadLevel(&p("1.3.3")), 7);
    assert_eq!(rig.node_mode(t, 0, "1.3.3").as_deref(), Some("LR"));
    assert_eq!(rig.node_mode(t, 0, "1.3.3.3"), None, "children implicit");
    // Path intentions present.
    assert_eq!(rig.node_mode(t, 0, "1.3").as_deref(), Some("IR"));
    assert_eq!(rig.node_mode(t, 0, "1").as_deref(), Some("IR"));
}

#[test]
fn tadom3_rename_uses_nx_tadom2_escalates_to_sx() {
    for (proto, expect) in [("taDOM3+", "NX"), ("taDOM3", "NX"), ("taDOM2", "SX")] {
        let rig = Rig::new(proto);
        let t = rig.registry.begin();
        rig.acquire(t, &MetaOp::Rename(&p("1.3")), 7);
        assert_eq!(
            rig.node_mode(t, 0, "1.3").as_deref(),
            Some(expect),
            "{proto}"
        );
        assert_eq!(rig.node_mode(t, 0, "1").as_deref(), Some("CX"), "{proto}");
    }
}

#[test]
fn depth_clamping_escalates_to_subtree_locks() {
    let rig = Rig::new("taDOM3+");
    let t = rig.registry.begin();
    // Reading the title (level 3) at depth 1 → SR at the topic (level 1).
    rig.acquire(t, &MetaOp::ReadNode(&p("1.3.3.3")), 1);
    assert_eq!(rig.node_mode(t, 0, "1.3").as_deref(), Some("SR"));
    assert_eq!(rig.node_mode(t, 0, "1.3.3.3"), None);
    assert_eq!(rig.node_mode(t, 0, "1").as_deref(), Some("IR"));
}

#[test]
fn jump_reads_protect_the_ancestor_path_except_star2pl() {
    // Hierarchical protocols protect jumps with intention paths (§2.2);
    // the plain *-2PL group uses IDR only.
    let rig = Rig::new("URIX");
    let t = rig.registry.begin();
    rig.acquire(t, &MetaOp::JumpRead(&p("1.3.3")), 7);
    assert_eq!(rig.node_mode(t, 0, "1").as_deref(), Some("IR"));
    assert_eq!(rig.node_mode(t, 0, "1.3").as_deref(), Some("IR"));

    let rig = Rig::new("Node2PL");
    let t = rig.registry.begin();
    rig.acquire(t, &MetaOp::JumpRead(&p("1.3.3")), 7);
    assert_eq!(rig.node_mode(t, 0, "1"), None, "no path protection");
    assert_eq!(rig.node_mode(t, 2, "1.3.3").as_deref(), Some("IDR"));
}

#[test]
fn isolation_none_never_touches_the_table() {
    for proto in xtc_protocols::ALL_PROTOCOLS {
        let rig = Rig::new(proto);
        let t = rig.registry.begin_handle();
        let cx = LockCtx {
            txn: &t,
            table: &rig.table,
            doc: &StubDoc,
            isolation: IsolationLevel::None,
            lock_depth: 4,
        };
        let node = p("1.3.3");
        for op in [
            MetaOp::ReadNode(&node),
            MetaOp::ReadTree(&node),
            MetaOp::Rename(&node),
            MetaOp::DeleteTree {
                node: &node,
                left: None,
                right: None,
            },
        ] {
            rig.handle.protocol.acquire(&cx, &op).unwrap();
        }
        assert_eq!(rig.table.granted_count(), 0, "{proto}");
    }
}

/// A rename leaves NX on the book, which — unlike the NR or IR it
/// replaces — does not absorb the IR a child's path asks for: the one
/// conversion after which an answer from the path memo would differ from
/// the table's. Whatever the order of rename and reads, and wherever the
/// lock depth clamps them, the table ends up holding what it holds with
/// the cache (and with it the memo) off, after the same requests. (Every
/// mapping today asks for the book's own path before it converts the
/// book, which re-keys the memo; `TxnHandle` does not rely on that — see
/// its unit tests — and this pins the outcome either way.)
#[test]
fn reads_under_a_renamed_parent_lock_what_they_lock_without_the_memo() {
    let book = p("1.3.3");
    let (title, history) = (p("1.3.3.3"), p("1.3.3.5"));
    let scripts: [&[MetaOp<'_>]; 2] = [
        &[
            MetaOp::Rename(&book),
            MetaOp::ReadNode(&title),
            MetaOp::ReadNode(&history),
        ],
        &[
            MetaOp::ReadNode(&title),
            MetaOp::ReadNode(&book),
            MetaOp::Rename(&book),
            MetaOp::ReadNode(&history),
            MetaOp::ReadNode(&title),
        ],
    ];
    for proto in xtc_protocols::ALL_PROTOCOLS {
        for depth in 0..=7 {
            for script in scripts {
                let (on, off) = (Rig::new(proto), Rig::with_lock_cache(proto, false));
                let (t_on, t_off) = (on.registry.begin(), off.registry.begin());
                for op in script {
                    on.acquire(t_on, op, depth);
                    off.acquire(t_off, op, depth);
                }
                let what = format!("{proto} depth {depth}");
                for family in 0..on.handle.families.len() as u8 {
                    for node in ["1", "1.3", "1.3.3", "1.3.3.3", "1.3.3.5"] {
                        assert_eq!(
                            on.node_mode(t_on, family, node),
                            off.node_mode(t_off, family, node),
                            "{what}: family {family}, {node}"
                        );
                    }
                }
                assert_eq!(
                    on.table.granted_count(),
                    off.table.granted_count(),
                    "{what}"
                );
                assert_eq!(
                    on.table.requests_by_mode(),
                    off.table.requests_by_mode(),
                    "{what}"
                );
                assert_eq!(off.table.memo_hits(), 0);
                if matches!(proto, "taDOM3" | "taDOM3+") && depth >= 3 {
                    assert!(
                        on.table.memo_hits() > 0,
                        "{what}: second child not memoised"
                    );
                }
            }
        }
    }
}
