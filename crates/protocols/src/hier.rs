//! The shared engine for hierarchical (intention-lock) protocols: the
//! MGL* group and the taDOM* group are configurations of this engine.
//!
//! Common behaviour (§2 intro): every context-node lock is preceded by
//! intention locks on the entire ancestor path (derived from the SPLID,
//! no document access), navigation steps are isolated by edge locks, and
//! the lock-depth parameter escalates locks below level *n* to a subtree
//! lock at level *n* (footnote 2).

use crate::edges;

use xtc_lock::{clamp_to_depth, EdgeKind, LockCtx, LockError, MetaOp, ModeIdx, Protocol};
use xtc_splid::SplId;

/// Family index of node locks.
pub const NODE_FAMILY: u8 = 0;
/// Family index of edge locks.
pub const EDGE_FAMILY: u8 = 1;

/// Mode assignments for one hierarchical protocol.
#[derive(Debug, Clone, Copy)]
pub struct HierModes {
    /// Intention lock on the path for read operations (IR / I).
    pub intent_read: ModeIdx,
    /// Intention lock on the path for write operations (IX / I).
    pub intent_write: ModeIdx,
    /// Mode on the *parent* of an exclusively locked node (taDOM's CX;
    /// same as `intent_write` for MGL protocols).
    pub child_excl: ModeIdx,
    /// Reading a single node (NR; the intention mode itself for MGL,
    /// whose intention locks double as node locks).
    pub node_read: ModeIdx,
    /// Level read (taDOM's LR); protocols without level locks lock each
    /// child individually with `node_read`.
    pub level_read: Option<ModeIdx>,
    /// Subtree read (SR / R).
    pub tree_read: ModeIdx,
    /// Subtree update (SU / U); protocols without update modes fall back
    /// to `tree_write`.
    pub tree_update: Option<ModeIdx>,
    /// Subtree exclusive (SX / X).
    pub tree_write: ModeIdx,
    /// Node rename (taDOM3's NX); others escalate to `tree_write`.
    pub rename: ModeIdx,
}

/// A hierarchical protocol instance (taDOM2/2+/3/3+, IRX, IRIX, URIX).
pub struct Hierarchical {
    name: &'static str,
    modes: HierModes,
    er: ModeIdx,
    ex: ModeIdx,
}

impl Hierarchical {
    /// Creates an instance. The caller's family list must put the node
    /// table at index 0 and the shared edge table at index 1.
    pub fn new(name: &'static str, modes: HierModes) -> Self {
        let edge_table = edges::edge_table();
        let er = edge_table.mode_named(edges::ER).expect("ER");
        let ex = edge_table.mode_named(edges::EX).expect("EX");
        Hierarchical { name, modes, er, ex }
    }

    /// Read-type lock on a node with path protection and depth clamping.
    fn read_node(&self, cx: &LockCtx<'_>, node: &SplId) -> Result<(), LockError> {
        let Some(class) = cx.read_class() else {
            return Ok(());
        };
        let (target, subtree) = clamp_to_depth(node, cx.lock_depth);
        let m = &self.modes;
        cx.lock_path(NODE_FAMILY, &target, m.intent_read, m.intent_read, class)?;
        let mode = if subtree { m.tree_read } else { m.node_read };
        cx.lock_node(NODE_FAMILY, &target, mode, class)
    }

    /// Write-type lock (`mode`) on a node with IX path / CX parent and
    /// depth clamping (escalating to `tree_write` when clamped).
    fn write_node(
        &self,
        cx: &LockCtx<'_>,
        node: &SplId,
        mode: ModeIdx,
    ) -> Result<(), LockError> {
        let Some(class) = cx.write_class() else {
            return Ok(());
        };
        let (target, subtree) = clamp_to_depth(node, cx.lock_depth);
        let m = &self.modes;
        cx.lock_path(NODE_FAMILY, &target, m.intent_write, m.child_excl, class)?;
        let mode = if subtree { m.tree_write } else { mode };
        cx.lock_node(NODE_FAMILY, &target, mode, class)
    }

    /// Shared edge lock, skipped when the anchor lies below the lock
    /// depth (a subtree lock already stabilizes the region).
    fn edge(
        &self,
        cx: &LockCtx<'_>,
        node: &SplId,
        kind: EdgeKind,
        exclusive: bool,
    ) -> Result<(), LockError> {
        let class = if exclusive {
            cx.write_class()
        } else {
            cx.read_class()
        };
        let Some(class) = class else { return Ok(()) };
        if node.level() as u32 > cx.lock_depth {
            return Ok(());
        }
        let mode = if exclusive { self.ex } else { self.er };
        cx.lock_edge(EDGE_FAMILY, node, kind, mode, class)
    }

    /// Exclusive locks on the edges affected by inserting/removing a node
    /// between `left` and `right` under `parent`.
    fn structure_edges(
        &self,
        cx: &LockCtx<'_>,
        parent: &SplId,
        left: Option<&SplId>,
        right: Option<&SplId>,
    ) -> Result<(), LockError> {
        match left {
            Some(l) => self.edge(cx, l, EdgeKind::NextSibling, true)?,
            None => self.edge(cx, parent, EdgeKind::FirstChild, true)?,
        }
        match right {
            Some(r) => self.edge(cx, r, EdgeKind::PrevSibling, true)?,
            None => self.edge(cx, parent, EdgeKind::LastChild, true)?,
        }
        Ok(())
    }
}

impl Protocol for Hierarchical {
    fn name(&self) -> &'static str {
        self.name
    }

    fn supports_lock_depth(&self) -> bool {
        true
    }

    fn acquire(&self, cx: &LockCtx<'_>, op: &MetaOp<'_>) -> Result<(), LockError> {
        let m = &self.modes;
        match *op {
            MetaOp::ReadNode(n) | MetaOp::JumpRead(n) => self.read_node(cx, n),
            MetaOp::Navigate { from, to, edge } => {
                self.edge(cx, from, edge, false)?;
                if let Some(to) = to {
                    self.read_node(cx, to)?;
                }
                Ok(())
            }
            MetaOp::ReadLevel(n) => {
                let Some(class) = cx.read_class() else {
                    return Ok(());
                };
                let (target, subtree) = clamp_to_depth(n, cx.lock_depth);
                cx.lock_path(NODE_FAMILY, &target, m.intent_read, m.intent_read, class)?;
                if subtree {
                    return cx.lock_node(NODE_FAMILY, &target, m.tree_read, class);
                }
                match m.level_read {
                    Some(lr) => cx.lock_node(NODE_FAMILY, n, lr, class),
                    None => {
                        // No level locks (MGL*): the getChildNodes fan-out
                        // costs one request per child, plus edge locks to
                        // keep the level phantom-free.
                        cx.lock_node(NODE_FAMILY, n, m.node_read, class)?;
                        self.edge(cx, n, EdgeKind::FirstChild, false)?;
                        for child in cx.doc.children(n) {
                            cx.lock_node(NODE_FAMILY, &child, m.node_read, class)?;
                            self.edge(cx, &child, EdgeKind::NextSibling, false)?;
                        }
                        Ok(())
                    }
                }
            }
            MetaOp::ReadTree(n) => {
                let Some(class) = cx.read_class() else {
                    return Ok(());
                };
                let (target, _) = clamp_to_depth(n, cx.lock_depth);
                cx.lock_path(NODE_FAMILY, &target, m.intent_read, m.intent_read, class)?;
                cx.lock_node(NODE_FAMILY, &target, m.tree_read, class)
            }
            MetaOp::UpdateTree(n) => {
                let Some(class) = cx.write_class() else {
                    return Ok(());
                };
                let (target, _) = clamp_to_depth(n, cx.lock_depth);
                cx.lock_path(NODE_FAMILY, &target, m.intent_write, m.intent_write, class)?;
                let mode = m.tree_update.unwrap_or(m.tree_write);
                cx.lock_node(NODE_FAMILY, &target, mode, class)
            }
            MetaOp::WriteContent(n) => self.write_node(cx, n, m.tree_write),
            MetaOp::Rename(n) => self.write_node(cx, n, m.rename),
            MetaOp::InsertNode {
                parent,
                node,
                left,
                right,
            } => {
                self.write_node(cx, node, m.tree_write)?;
                if cx.write_class().is_some() && parent.level() as u32 <= cx.lock_depth {
                    self.structure_edges(cx, parent, left, right)?;
                }
                Ok(())
            }
            MetaOp::IndexKeyRead(key) => {
                let Some(class) = cx.read_class() else {
                    return Ok(());
                };
                cx.lock_index_key(NODE_FAMILY, key, m.node_read, class)
            }
            MetaOp::IndexKeyWrite(key) => {
                let Some(class) = cx.write_class() else {
                    return Ok(());
                };
                cx.lock_index_key(NODE_FAMILY, key, m.tree_write, class)
            }
            MetaOp::DeleteTree { node, left, right } => {
                self.write_node(cx, node, m.tree_write)?;
                if cx.write_class().is_some() && node.level() as u32 <= cx.lock_depth {
                    // Stabilize navigation around and into the vanishing
                    // subtree.
                    if let Some(parent) = node.parent() {
                        self.structure_edges(cx, &parent, left, right)?;
                    }
                    for kind in [
                        EdgeKind::FirstChild,
                        EdgeKind::LastChild,
                        EdgeKind::NextSibling,
                        EdgeKind::PrevSibling,
                    ] {
                        self.edge(cx, node, kind, true)?;
                    }
                }
                Ok(())
            }
        }
    }
}
