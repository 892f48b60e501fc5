//! Meta-synchronization (§3.3): the abstract lock-request interface that
//! decouples the node manager from the concrete lock protocol.
//!
//! "The key idea to really enable cross-protocol comparison was the
//! appropriate isolation of the XTC lock manager as a kind of abstract
//! data type. It accepts the locking requests from the XTC node manager
//! in a more abstract form as so-called meta-lock requests. […]
//! Exchanging the lock manager's interface implementation exchanges the
//! system's complete XML locking mechanism."
//!
//! The transaction layer (`xtc-core`) emits one [`MetaOp`] per DOM
//! operation; a [`Protocol`] implementation maps it to concrete mode
//! acquisitions on the shared [`LockTable`].

use crate::error::LockError;
use crate::modes::ModeIdx;
use crate::table::{Acquired, EdgeKind, FamilyId, LockName, LockTable, LockTarget};
use crate::txn::{IsolationLevel, LockClass, PathLocks, TxnHandle};
use xtc_splid::SplId;

/// Read-only document access a protocol needs while mapping meta-locks:
/// enumerating children (annex locks, level locks) and locating
/// ID-attribute owners inside a subtree (the *-2PL group's IDX scans).
/// Implemented by the node manager (via an adapter in `xtc-core`).
pub trait DocView: Send + Sync {
    /// Direct children of a node, in document order (including the
    /// attribute root).
    fn children(&self, id: &SplId) -> Vec<SplId>;

    /// Elements inside the subtree (inclusive) owning an `id` attribute.
    /// Traverses the document — deliberately expensive (§5.3).
    fn subtree_id_owners(&self, id: &SplId) -> Vec<SplId>;

    /// Every node of the subtree rooted at `id` (inclusive), in document
    /// order. Used by protocols without subtree lock modes (NO2PL/OO2PL)
    /// that must lock subtree members individually.
    fn subtree_nodes(&self, id: &SplId) -> Vec<SplId>;
}

/// The meta-lock requests of §3.3, phrased as the DOM-level operations the
/// transaction layer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaOp<'a> {
    /// Read a single node (content/name inspection).
    ReadNode(&'a SplId),
    /// Navigate from a node along an edge to an (optional) target node.
    Navigate {
        /// The context node the step starts from.
        from: &'a SplId,
        /// The step's result node, if any.
        to: Option<&'a SplId>,
        /// Which navigation edge is traversed.
        edge: EdgeKind,
    },
    /// Read all direct children (`getChildNodes` / `getAttributes`) — the
    /// shared level lock of §3.3.
    ReadLevel(&'a SplId),
    /// Read a whole subtree (`getFragmentNodes`-style access).
    ReadTree(&'a SplId),
    /// Read a whole subtree with declared intent to update parts of it
    /// (tree update lock).
    UpdateTree(&'a SplId),
    /// Modify the content of a node (text/attribute value update).
    WriteContent(&'a SplId),
    /// Rename a node (DOM level 3).
    Rename(&'a SplId),
    /// Insert a new node under `parent` between `left` and `right`.
    InsertNode {
        /// Parent of the new node.
        parent: &'a SplId,
        /// The new node's label.
        node: &'a SplId,
        /// Left sibling, if any.
        left: Option<&'a SplId>,
        /// Right sibling, if any.
        right: Option<&'a SplId>,
    },
    /// Delete the subtree rooted at `node`.
    DeleteTree {
        /// Root of the doomed subtree.
        node: &'a SplId,
        /// Left sibling of `node`, if any (its next-sibling edge changes).
        left: Option<&'a SplId>,
        /// Right sibling of `node`, if any (its previous-sibling edge
        /// changes).
        right: Option<&'a SplId>,
    },
    /// Direct jump to a node via an index (`getElementById`, element
    /// index) for reading.
    JumpRead(&'a SplId),
    /// Serializable-only: shared lock on a probed ID-index value (present
    /// or absent) — the phantom protection of footnote 1.
    IndexKeyRead(&'a [u8]),
    /// Serializable-aware: exclusive lock on an ID-index value being
    /// created, changed, or removed.
    IndexKeyWrite(&'a [u8]),
}

/// Everything a protocol needs to serve one meta-lock request.
pub struct LockCtx<'a> {
    /// The requesting transaction's handle, resolved once at begin —
    /// lock requests never take the global registry mutex.
    pub txn: &'a TxnHandle,
    /// The shared lock table.
    pub table: &'a LockTable,
    /// Document access for annex/level/IDX mapping.
    pub doc: &'a dyn DocView,
    /// The transaction's isolation level.
    pub isolation: IsolationLevel,
    /// The configured lock depth (ignored by protocols without depth
    /// support).
    pub lock_depth: u32,
}

impl LockCtx<'_> {
    /// Lock class for read-type locks under the current isolation level,
    /// or `None` when no lock is to be acquired.
    pub fn read_class(&self) -> Option<LockClass> {
        self.isolation.read_class()
    }

    /// Lock class for write-type locks, or `None` (isolation `none`).
    pub fn write_class(&self) -> Option<LockClass> {
        self.isolation.write_class()
    }

    /// Acquires `mode` on a node in `family`, resolving annex requirements
    /// by locking every direct child first (Fig. 4 subscript rule).
    pub fn lock_node(
        &self,
        family: FamilyId,
        node: &SplId,
        mode: ModeIdx,
        class: LockClass,
    ) -> Result<(), LockError> {
        let name = LockName {
            family,
            target: LockTarget::Node(node.clone()),
        };
        match self.table.lock_with(self.txn, &name, mode, class, false)? {
            Acquired::Granted => Ok(()),
            Acquired::NeedsAnnex { child_mode } => {
                for child in self.doc.children(node) {
                    let cname = LockName {
                        family,
                        target: LockTarget::Node(child),
                    };
                    match self.table.lock_with(self.txn, &cname, child_mode, class, false)? {
                        Acquired::Granted => {}
                        Acquired::NeedsAnnex { .. } => {
                            unreachable!("annex child locks never cascade")
                        }
                    }
                }
                match self.table.lock_with(self.txn, &name, mode, class, true)? {
                    Acquired::Granted => Ok(()),
                    Acquired::NeedsAnnex { .. } => {
                        unreachable!("annex already satisfied")
                    }
                }
            }
        }
    }

    /// Locks the ancestor path of `target` root first: `path_mode` on
    /// every ancestor but the parent, which gets `parent_mode` (§2: the
    /// intention locks that precede every node lock, derived from the
    /// SPLID alone). A path the transaction has just locked — the
    /// previous sibling's — is answered from its path memo; the memo is
    /// renewed only here, after every request of the walk was granted.
    pub fn lock_path(
        &self,
        family: FamilyId,
        target: &SplId,
        path_mode: ModeIdx,
        parent_mode: ModeIdx,
        class: LockClass,
    ) -> Result<(), LockError> {
        let Some(parent) = target.parent() else {
            return Ok(());
        };
        let path = PathLocks {
            family,
            parent,
            path_mode,
            parent_mode,
            class,
        };
        if self.table.lock_remembered_path(self.txn, &path)? {
            return Ok(());
        }
        for anc in path.parent.ancestors().rev() {
            self.lock_node(family, &anc, path_mode, class)?;
        }
        self.lock_node(family, &path.parent, parent_mode, class)?;
        self.table.remember_path(self.txn, path);
        Ok(())
    }

    /// Acquires `mode` on an index-key value in `family`.
    pub fn lock_index_key(
        &self,
        family: FamilyId,
        key: &[u8],
        mode: ModeIdx,
        class: LockClass,
    ) -> Result<(), LockError> {
        let name = LockName {
            family,
            target: LockTarget::IndexKey(key.to_vec()),
        };
        match self.table.lock_with(self.txn, &name, mode, class, false)? {
            Acquired::Granted => Ok(()),
            Acquired::NeedsAnnex { .. } => unreachable!("index keys have no children"),
        }
    }

    /// Acquires `mode` on a navigation edge in `family`.
    pub fn lock_edge(
        &self,
        family: FamilyId,
        node: &SplId,
        kind: EdgeKind,
        mode: ModeIdx,
        class: LockClass,
    ) -> Result<(), LockError> {
        let name = LockName {
            family,
            target: LockTarget::Edge(node.clone(), kind),
        };
        match self.table.lock_with(self.txn, &name, mode, class, false)? {
            Acquired::Granted => Ok(()),
            Acquired::NeedsAnnex { .. } => unreachable!("edge modes have no annexes"),
        }
    }
}

/// A lock protocol: maps meta-lock requests to concrete lock acquisitions.
/// The eleven contestants live in `xtc-protocols`.
pub trait Protocol: Send + Sync {
    /// Protocol name as used in the paper ("taDOM3+", "Node2PLa", …).
    fn name(&self) -> &'static str;

    /// Whether the protocol honours the lock-depth parameter (§2.2
    /// footnote 2). The plain *-2PL group does not.
    fn supports_lock_depth(&self) -> bool;

    /// Serves one meta-lock request, blocking as needed.
    fn acquire(&self, cx: &LockCtx<'_>, op: &MetaOp<'_>) -> Result<(), LockError>;

    /// Whether read-type meta-locks are served from versioned snapshots
    /// instead of the lock table. A versioned protocol's `acquire` is
    /// only invoked for write-type requests; the transaction layer
    /// resolves reads against a version store at the transaction's
    /// snapshot and never blocks them.
    fn versioned_reads(&self) -> bool {
        false
    }

    /// Whether the protocol defers conflict detection to commit: the
    /// transaction layer tracks a read set and validates it against
    /// committed writes at commit time (optimistic concurrency control).
    fn validates_at_commit(&self) -> bool {
        false
    }
}

/// Depth clamping (§2.2 footnote 2): "Lock depth n determines that, while
/// navigating through the document, individual locks are acquired for
/// existing nodes up to level n. If necessary, all nodes below level n are
/// locked by a subtree lock at level n." Returns the node to lock and
/// whether a subtree lock must be used.
pub fn clamp_to_depth(node: &SplId, depth: u32) -> (SplId, bool) {
    if node.level() as u32 > depth {
        let anc = node
            .ancestor_at_level(depth as usize)
            .expect("depth < level implies the ancestor exists");
        (anc, true)
    } else {
        (node.clone(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_to_depth_matches_footnote() {
        let n = SplId::parse("1.5.3.3.11.3").unwrap(); // level 5
        assert_eq!(n.level(), 5);
        let (same, sub) = clamp_to_depth(&n, 7);
        assert_eq!(same, n);
        assert!(!sub);
        let (same, sub) = clamp_to_depth(&n, 5);
        assert_eq!(same, n);
        assert!(!sub);
        let (anc, sub) = clamp_to_depth(&n, 3);
        assert_eq!(anc, SplId::parse("1.5.3.3").unwrap());
        assert!(sub);
        let (root, sub) = clamp_to_depth(&n, 0);
        assert!(root.is_root());
        assert!(sub);
    }
}
