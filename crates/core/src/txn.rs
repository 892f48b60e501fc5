//! Transactions: the DOM-level API with protocol locking and logical undo.
//!
//! Every operation follows the same discipline:
//!
//! 1. *plan* — read the affected neighbourhood (unlocked),
//! 2. *lock* — hand the corresponding [`MetaOp`] to the protocol,
//! 3. *verify* — if the document changed between the plan and the lock
//!    grant, plan again (the extra locks are harmless over-locking); see
//!    [`Transaction::plan_locked`],
//! 4. *apply* — perform the node-manager mutation and push an undo
//!    record,
//! 5. *end of operation* — release short locks (isolation *committed*).
//!
//! Deadlock victims abort: the undo log is replayed in reverse while the
//! transaction still holds its long locks, then everything is released.
//!
//! With a write-ahead log configured ([`crate::XtcConfig::wal`]), every
//! mutation runs through [`Transaction::apply_logged`]: the logical undo
//! record is appended *before* the store mutation, pages touched by the
//! mutation are stamped with the covering redo record's LSN, and the redo
//! record follows the mutation — so a crash at any point leaves a log
//! from which [`crate::recovery`] can reconstruct or roll back the
//! operation. Aborts write compensation records (CLRs) as they undo, and
//! commit forces the log via group commit.

use crate::db::XtcDb;
use crate::error::XtcError;
use crate::mvcc::ReadKey;
use crate::recovery;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::Arc;
use xtc_lock::{EdgeKind, IsolationLevel, LockCtx, MetaOp, TxnHandle, TxnId};
use xtc_node::{AttrPlan, InsertPos, NodeData};
use xtc_splid::SplId;
use xtc_wal::{Lsn, NodePayload, RecordBody, RedoOp, UndoOp, WalError};

const PLAN_RETRIES: usize = 32;

/// A running transaction. Dropping an unfinished transaction aborts it.
pub struct Transaction<'db> {
    db: &'db XtcDb,
    /// The registry handle, resolved once at begin: abort flag, held-lock
    /// bookkeeping, and the lock cache without global-mutex traffic.
    handle: Arc<TxnHandle>,
    id: TxnId,
    isolation: IsolationLevel,
    lock_depth: u32,
    /// Logical undo records in apply order, each paired with the LSN of
    /// its logged `NodeUndo` twin (`None` without a WAL) so the abort
    /// path can write matching compensation records.
    undo: RefCell<Vec<(Option<Lsn>, UndoOp)>>,
    finished: Cell<bool>,
    /// Whether a `Begin` record has been logged (lazily, on first write —
    /// read-only transactions never touch the log).
    began: Cell<bool>,
    /// Latched once the held-lock count crosses the escalation
    /// threshold, so the escalation is counted exactly once and never
    /// reverts mid-transaction.
    escalated: Cell<bool>,
    /// Whether this transaction holds an admission-gate slot
    /// (started via [`XtcDb::try_begin`] with `max_in_flight` set);
    /// released exactly once on commit/abort.
    admitted: bool,
    /// Snapshot stamp registered at begin when the protocol reads from
    /// versions (taMVCC/taOCC); reads resolve against the version store
    /// at this stamp and never touch the lock table. Released exactly
    /// once in [`Transaction::release`] (commit, abort, and drop all
    /// funnel there), which also unpins the GC watermark.
    snapshot: Option<u64>,
    /// Read set of an optimistic transaction (protocol validates at
    /// commit); unused otherwise.
    reads: RefCell<HashSet<ReadKey>>,
    /// Whether commit must validate the read set
    /// (`Protocol::validates_at_commit`).
    validates: bool,
}

impl<'db> Transaction<'db> {
    pub(crate) fn new(
        db: &'db XtcDb,
        handle: Arc<TxnHandle>,
        isolation: IsolationLevel,
        lock_depth: u32,
        admitted: bool,
    ) -> Self {
        let snapshot = db.versions().map(|v| v.register_snapshot());
        let validates = db.protocol().validates_at_commit();
        Transaction {
            db,
            id: handle.id(),
            handle,
            isolation,
            lock_depth,
            undo: RefCell::new(Vec::new()),
            finished: Cell::new(false),
            began: Cell::new(false),
            escalated: Cell::new(false),
            admitted,
            snapshot,
            reads: RefCell::new(HashSet::new()),
            validates,
        }
    }

    /// The snapshot stamp this transaction reads at, when the protocol
    /// is versioned (`None` for the pessimistic contestants).
    pub fn snapshot(&self) -> Option<u64> {
        self.snapshot
    }

    /// The transaction's id (also its age for victim selection).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The engine's observability handle — workload drivers charge their
    /// simulated think time through it so the virtual clock sees every
    /// cost source.
    pub fn obs(&self) -> &xtc_obs::Obs {
        self.db.obs()
    }

    fn ctx(&self) -> LockCtx<'_> {
        LockCtx {
            txn: &self.handle,
            table: self.db.lock_table(),
            doc: &**self.db.view(),
            isolation: self.isolation,
            lock_depth: self.effective_lock_depth(),
        }
    }

    /// The lock depth of the next request: the transaction's own depth,
    /// or the database's escalated (shallower) depth once the held-lock
    /// count crosses the escalation threshold. Escalation is a pressure
    /// valve: beyond the threshold, coarse subtree locks stop the
    /// per-node lock count from growing without bound.
    fn effective_lock_depth(&self) -> u32 {
        if self.escalated.get() {
            return self.db.escalated_depth().min(self.lock_depth);
        }
        if let Some(threshold) = self.db.escalation_threshold() {
            if self.db.escalated_depth() < self.lock_depth
                && self.handle.held_count() >= threshold
            {
                self.escalated.set(true);
                // The effective depth just changed: cached coverage was
                // computed for deeper, finer locks, so force the next
                // requests through the shared table.
                self.handle.invalidate_cache();
                self.db.lock_table().record_escalation();
                return self.db.escalated_depth();
            }
        }
        self.lock_depth
    }

    /// Whether this transaction has escalated to coarser locks.
    pub fn escalated(&self) -> bool {
        self.escalated.get()
    }

    /// Enforces the database's per-transaction *virtual-time* deadline
    /// ([`crate::XtcConfig::txn_deadline`]): compares the time charged
    /// to this transaction's frame (page reads, lock waits, WAL
    /// flushes, think time) against the budget. Deterministic — the
    /// comparison never reads the wall clock.
    fn check_deadline(&self) -> Result<(), XtcError> {
        let Some(budget) = self.db.txn_deadline() else {
            return Ok(());
        };
        let budget_us = budget.as_micros() as u64;
        let elapsed_us = self
            .db
            .obs()
            .txn_vt(self.id)
            .map(|vt| vt.total_us())
            .unwrap_or(0);
        if elapsed_us > budget_us {
            return Err(XtcError::DeadlineExceeded {
                elapsed_us,
                budget_us,
            });
        }
        Ok(())
    }

    /// Issues one meta-lock request to the protocol.
    fn acquire(&self, op: MetaOp<'_>) -> Result<(), XtcError> {
        if self.finished.get() {
            return Err(XtcError::Finished);
        }
        if self.store().stats().is_poisoned() {
            // A permanent storage I/O fault was injected somewhere in
            // the engine: stop admitting new work into this transaction.
            // With a WAL the poisoning becomes a crash (recovery is the
            // way out); without one the database is simply dead.
            if let Some(handle) = self.db.wal_handle() {
                handle.wal.crash();
                return Err(XtcError::Wal(WalError::Crashed));
            }
            return Err(XtcError::Poisoned);
        }
        self.check_deadline()?;
        self.db
            .protocol()
            .acquire(&self.ctx(), &op)
            .map_err(XtcError::from)
    }

    /// Ends the current operation: short read locks are released under
    /// isolation level *committed*. Called implicitly by every public
    /// operation.
    fn end_operation(&self) {
        self.db.lock_table().release_short(&self.handle);
    }

    fn store(&self) -> &xtc_node::DocStore {
        self.db.store()
    }

    // ---- snapshot reads -------------------------------------------------

    /// The version store and snapshot stamp, when this transaction reads
    /// from versions. Every snapshot read goes through here: it performs
    /// the same health checks as [`Transaction::acquire`] but touches no
    /// locks — the zero-lock-wait guarantee of the versioned protocols.
    fn snap(&self) -> Option<(&Arc<crate::VersionStore>, u64)> {
        match (self.db.versions(), self.snapshot) {
            (Some(v), Some(s)) => Some((v, s)),
            _ => None,
        }
    }

    fn snapshot_op(&self, stamp: u64) -> Result<(), XtcError> {
        if self.finished.get() {
            return Err(XtcError::Finished);
        }
        if self.store().stats().is_poisoned() {
            if let Some(handle) = self.db.wal_handle() {
                handle.wal.crash();
                return Err(XtcError::Wal(WalError::Crashed));
            }
            return Err(XtcError::Poisoned);
        }
        self.check_deadline()?;
        self.db
            .obs()
            .record_for(self.id, xtc_obs::EventKind::SnapshotRead { stamp });
        Ok(())
    }

    /// Adds one read to the optimistic read set (no-op unless the
    /// protocol validates at commit).
    fn track_read(&self, key: ReadKey) {
        if self.validates {
            self.reads.borrow_mut().insert(key);
        }
    }

    // ---- reads ----------------------------------------------------------

    /// Direct jump via the ID index (`getElementById`).
    ///
    /// Under isolation level serializable the probed index value itself
    /// is share-locked — present or absent — so a repeated jump can
    /// neither lose nor gain a target (footnote 1's phantom protection).
    pub fn element_by_id(&self, id_value: &str) -> Result<Option<SplId>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            // Snapshot relaxation: the index is probed at its *latest*
            // state and the hit is verified visible at the snapshot — an
            // element whose id appeared after the snapshot is filtered
            // out, but one removed after it is not found (no historic
            // index; see DESIGN.md §17).
            let found = self
                .store()
                .element_by_id(id_value)
                .filter(|n| v.exists_at(self.store(), n, s, self.id));
            if let Some(n) = &found {
                self.track_read(ReadKey::Node(n.clone()));
            }
            return Ok(found);
        }
        if self.isolation.locks_index_keys() {
            self.acquire(MetaOp::IndexKeyRead(id_value.as_bytes()))?;
        }
        let found = self.plan_locked(
            |s| Ok(s.element_by_id(id_value)),
            |found| match found {
                Some(n) => self.acquire(MetaOp::JumpRead(n)),
                None => Ok(()),
            },
        )?;
        self.end_operation();
        Ok(found)
    }

    /// All elements with a given name via the element index, jump-locked.
    pub fn elements_named(&self, name: &str) -> Result<Vec<SplId>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            let found: Vec<SplId> = self
                .store()
                .elements_named(name)
                .into_iter()
                .filter(|e| v.name_at(self.store(), e, s, self.id).as_deref() == Some(name))
                .collect();
            for e in &found {
                self.track_read(ReadKey::Node(e.clone()));
            }
            return Ok(found);
        }
        let found = self.store().elements_named(name);
        for e in &found {
            self.acquire(MetaOp::JumpRead(e))?;
        }
        self.end_operation();
        Ok(found)
    }

    /// The document root element, if any.
    pub fn root(&self) -> Result<Option<SplId>, XtcError> {
        let root = SplId::root();
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Node(root.clone()));
            return Ok(v.exists_at(self.store(), &root, s, self.id).then_some(root));
        }
        if !self.store().exists(&root) {
            return Ok(None);
        }
        self.acquire(MetaOp::ReadNode(&root))?;
        self.end_operation();
        Ok(Some(root))
    }

    /// Reads a node's record.
    pub fn node(&self, n: &SplId) -> Result<Option<NodeData>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Node(n.clone()));
            return Ok(v.data_at(self.store(), n, s, self.id));
        }
        self.acquire(MetaOp::ReadNode(n))?;
        let data = self.store().get(n);
        self.end_operation();
        Ok(data)
    }

    /// Element/attribute name of a node.
    pub fn name(&self, n: &SplId) -> Result<Option<String>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Node(n.clone()));
            return Ok(v.name_at(self.store(), n, s, self.id));
        }
        self.acquire(MetaOp::ReadNode(n))?;
        let name = self.store().name_of(n);
        self.end_operation();
        Ok(name)
    }

    /// Concatenated text content of an element's direct text children
    /// (convenience over `children` + `text_content`).
    pub fn element_text(&self, elem: &SplId) -> Result<String, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Level(elem.clone()));
            let mut out = String::new();
            for c in v.children_at(self.store(), elem, s, self.id) {
                if matches!(v.data_at(self.store(), &c, s, self.id), Some(NodeData::Text)) {
                    self.track_read(ReadKey::Node(c.clone()));
                    if let Some(t) = v.text_at(self.store(), &c, s, self.id) {
                        out.push_str(&t);
                    }
                }
            }
            return Ok(out);
        }
        self.acquire(MetaOp::ReadLevel(elem))?;
        let mut out = String::new();
        for c in self.store().children(elem) {
            if matches!(self.store().get(&c), Some(NodeData::Text)) {
                self.acquire(MetaOp::ReadNode(&c))?;
                if let Some(t) = self.store().text_of(&c) {
                    out.push_str(&t);
                }
            }
        }
        self.end_operation();
        Ok(out)
    }

    /// Content of a text or attribute node.
    pub fn text_content(&self, n: &SplId) -> Result<Option<String>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Node(n.clone()));
            return Ok(v.text_at(self.store(), n, s, self.id));
        }
        self.acquire(MetaOp::ReadNode(n))?;
        let text = self.store().text_of(n);
        self.end_operation();
        Ok(text)
    }

    /// Plan → lock → verify, the discipline of the module doc, in one
    /// place. `plan` reads the neighbourhood unlocked and `lock` acquires
    /// what the plan names. A plan is a function of the content of the
    /// document's trees alone, so it stands if none of them changed from
    /// before its first read until after the lock was granted
    /// ([`xtc_node::DocStore::doc_version`]: the writer this request had to
    /// wait for counted itself before it released its lock). Only then is
    /// the plan made again.
    fn plan_locked<P>(
        &self,
        plan: impl Fn(&xtc_node::DocStore) -> Result<P, XtcError>,
        lock: impl Fn(&P) -> Result<(), XtcError>,
    ) -> Result<P, XtcError> {
        for _ in 0..PLAN_RETRIES {
            let version = self.store().doc_version();
            let planned = plan(self.store())?;
            lock(&planned)?;
            if self.store().doc_version() == version {
                return Ok(planned);
            }
        }
        Err(XtcError::Busy)
    }

    fn navigate(
        &self,
        from: &SplId,
        edge: EdgeKind,
        f: impl Fn(&xtc_node::DocStore) -> Option<SplId>,
    ) -> Result<Option<SplId>, XtcError> {
        let to = self.plan_locked(
            |s| Ok(f(s)),
            |to| {
                self.acquire(MetaOp::Navigate {
                    from,
                    to: to.as_ref(),
                    edge,
                })
            },
        )?;
        self.end_operation();
        Ok(to)
    }

    /// Resolves a sibling-axis step against the version store: the
    /// snapshot-visible child list of `parent`, offset from `n`.
    fn snapshot_sibling(
        &self,
        n: &SplId,
        next: bool,
    ) -> Result<Option<SplId>, XtcError> {
        let (v, s) = self.snap().expect("caller checked");
        let Some(p) = n.parent() else { return Ok(None) };
        self.track_read(ReadKey::Level(p.clone()));
        let sibs = v.children_at(self.store(), &p, s, self.id);
        let Some(i) = sibs.iter().position(|x| x == n) else {
            return Ok(None);
        };
        Ok(if next {
            sibs.get(i + 1).cloned()
        } else if i > 0 {
            sibs.get(i - 1).cloned()
        } else {
            None
        })
    }

    /// `getFirstChild`.
    pub fn first_child(&self, n: &SplId) -> Result<Option<SplId>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Level(n.clone()));
            return Ok(v.children_at(self.store(), n, s, self.id).into_iter().next());
        }
        self.navigate(n, EdgeKind::FirstChild, |s| s.first_child(n))
    }

    /// `getLastChild`.
    pub fn last_child(&self, n: &SplId) -> Result<Option<SplId>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Level(n.clone()));
            return Ok(v.children_at(self.store(), n, s, self.id).pop());
        }
        self.navigate(n, EdgeKind::LastChild, |s| s.last_child(n))
    }

    /// `getNextSibling`.
    pub fn next_sibling(&self, n: &SplId) -> Result<Option<SplId>, XtcError> {
        if let Some((_, s)) = self.snap() {
            self.snapshot_op(s)?;
            return self.snapshot_sibling(n, true);
        }
        self.navigate(n, EdgeKind::NextSibling, |s| s.next_sibling(n))
    }

    /// `getPreviousSibling`.
    pub fn prev_sibling(&self, n: &SplId) -> Result<Option<SplId>, XtcError> {
        if let Some((_, s)) = self.snap() {
            self.snapshot_op(s)?;
            return self.snapshot_sibling(n, false);
        }
        self.navigate(n, EdgeKind::PrevSibling, |s| s.prev_sibling(n))
    }

    /// Parent node (SPLID arithmetic + read lock).
    pub fn parent(&self, n: &SplId) -> Result<Option<SplId>, XtcError> {
        match n.parent() {
            Some(p) => {
                if let Some((v, s)) = self.snap() {
                    self.snapshot_op(s)?;
                    self.track_read(ReadKey::Node(p.clone()));
                    return Ok(v.exists_at(self.store(), &p, s, self.id).then_some(p));
                }
                self.acquire(MetaOp::ReadNode(&p))?;
                let exists = self.store().exists(&p);
                self.end_operation();
                Ok(exists.then_some(p))
            }
            None => Ok(None),
        }
    }

    /// `getChildNodes` — one shared level lock under taDOM, a per-child
    /// fan-out elsewhere.
    pub fn children(&self, n: &SplId) -> Result<Vec<SplId>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Level(n.clone()));
            return Ok(v.children_at(self.store(), n, s, self.id));
        }
        self.acquire(MetaOp::ReadLevel(n))?;
        let kids = self.store().children(n);
        self.end_operation();
        Ok(kids)
    }

    /// Element children only (skips attribute roots and text nodes).
    pub fn element_children(&self, n: &SplId) -> Result<Vec<SplId>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Level(n.clone()));
            return Ok(v
                .children_at(self.store(), n, s, self.id)
                .into_iter()
                .filter(|c| {
                    matches!(
                        v.data_at(self.store(), c, s, self.id),
                        Some(NodeData::Element { .. })
                    )
                })
                .collect());
        }
        self.acquire(MetaOp::ReadLevel(n))?;
        let kids = self.store().element_children(n);
        self.end_operation();
        Ok(kids)
    }

    /// `getAttributes` — a level lock on the attribute root (the taDOM
    /// optimization of §2.3).
    pub fn attributes(&self, elem: &SplId) -> Result<Vec<(SplId, String)>, XtcError> {
        let ar = elem.reserved_child();
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Node(elem.clone()));
            self.track_read(ReadKey::Level(ar.clone()));
            let mut out = Vec::new();
            for a in v.children_at(self.store(), &ar, s, self.id) {
                if matches!(
                    v.data_at(self.store(), &a, s, self.id),
                    Some(NodeData::Attribute { .. })
                ) {
                    let name = v.name_at(self.store(), &a, s, self.id).unwrap_or_default();
                    out.push((a, name));
                }
            }
            return Ok(out);
        }
        self.acquire(MetaOp::ReadNode(elem))?;
        let mut attrs = Vec::new();
        if self.store().exists(&ar) {
            self.acquire(MetaOp::ReadLevel(&ar))?;
            for (a, voc) in self.store().attributes_under(&ar) {
                attrs.push((a, self.store().vocab().resolve(voc).unwrap_or_default()));
            }
        }
        self.end_operation();
        Ok(attrs)
    }

    /// Value of a named attribute.
    pub fn attribute(&self, elem: &SplId, name: &str) -> Result<Option<String>, XtcError> {
        let ar = elem.reserved_child();
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Node(elem.clone()));
            self.track_read(ReadKey::Level(ar.clone()));
            for a in v.children_at(self.store(), &ar, s, self.id) {
                if matches!(
                    v.data_at(self.store(), &a, s, self.id),
                    Some(NodeData::Attribute { .. })
                ) && v.name_at(self.store(), &a, s, self.id).as_deref() == Some(name)
                {
                    self.track_read(ReadKey::Node(a.clone()));
                    return Ok(v.text_at(self.store(), &a, s, self.id));
                }
            }
            return Ok(None);
        }
        self.acquire(MetaOp::ReadNode(elem))?;
        let mut v = None;
        if self.store().exists(&ar) {
            self.acquire(MetaOp::ReadLevel(&ar))?;
            let attr = self.store().attribute_node_under(&ar, name);
            v = attr.and_then(|a| self.store().text_of(&a));
        }
        self.end_operation();
        Ok(v)
    }

    /// Reads a whole subtree (`getFragmentNodes`-style) under one tree
    /// lock.
    pub fn subtree(&self, n: &SplId) -> Result<Vec<(SplId, NodeData)>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Tree(n.clone()));
            return Ok(v.subtree_at(self.store(), n, s, self.id));
        }
        self.acquire(MetaOp::ReadTree(n))?;
        let nodes = self.store().subtree(n);
        self.end_operation();
        Ok(nodes)
    }

    /// Reads a subtree declaring the intent to update parts of it (tree
    /// update lock — exercises the U modes). Under a versioned protocol
    /// this is a plain snapshot read: the update intent is discharged by
    /// first-updater-wins checks (and, for taOCC, commit validation) on
    /// the writes themselves.
    pub fn subtree_for_update(&self, n: &SplId) -> Result<Vec<(SplId, NodeData)>, XtcError> {
        if let Some((v, s)) = self.snap() {
            self.snapshot_op(s)?;
            self.track_read(ReadKey::Tree(n.clone()));
            return Ok(v.subtree_at(self.store(), n, s, self.id));
        }
        self.acquire(MetaOp::UpdateTree(n))?;
        let nodes = self.store().subtree(n);
        self.end_operation();
        Ok(nodes)
    }

    // ---- writes ---------------------------------------------------------

    /// Runs one mutation under the WAL protocol. Without a WAL this is
    /// just `mutate` plus an in-memory undo entry. With one, the sequence
    /// under the database's log mutex is:
    ///
    /// 1. lazily log `Begin` on the transaction's first write,
    /// 2. log the logical undo record (`NodeUndo`),
    /// 3. stamp pages the mutation will dirty with the upcoming redo
    ///    record's LSN (via the store's ambient `current_lsn`), so the
    ///    buffer pool's WAL rule (`page_lsn ≤ durable_lsn` before flush)
    ///    covers them,
    /// 4. perform the mutation,
    /// 5. log the redo record (`PageRedo`).
    ///
    /// A failpoint below the undo-log granularity (`btree.split`) cannot
    /// error out of step 4; it *poisons* the shared storage stats
    /// instead, which this function converts into a WAL crash — the
    /// mid-split-kill scenario of the chaos tests.
    fn apply_logged<T>(
        &self,
        undo: Option<UndoOp>,
        mutate: impl FnOnce() -> Result<T, XtcError>,
        redo: impl FnOnce(&T) -> RedoOp,
    ) -> Result<T, XtcError> {
        self.check_deadline()?;
        // Versioned protocols park the pre-image in the version store
        // *before* mutating, so concurrent snapshot readers keep seeing
        // the old state and first-updater-wins conflicts surface here.
        if let (Some((v, s)), Some(op)) = (self.snap(), undo.as_ref()) {
            v.push_write(self.id, s, self.store().vocab(), op)?;
        }
        let Some(handle) = self.db.wal_handle() else {
            let value = mutate()?;
            if let Some(op) = undo {
                self.undo.borrow_mut().push((None, op));
            }
            return Ok(value);
        };
        let _log = handle.log_mutex.lock();
        if handle.wal.is_crashed() {
            return Err(XtcError::Wal(WalError::Crashed));
        }
        if !self.began.get() {
            handle.wal.append(&RecordBody::Begin { txn: self.id })?;
            handle.active.lock().insert(self.id);
            self.began.set(true);
        }
        let undo_lsn = match &undo {
            Some(op) => Some(handle.wal.append(&RecordBody::NodeUndo {
                txn: self.id,
                op: op.clone(),
            })?),
            None => None,
        };
        let stats = self.store().stats();
        stats.set_current_lsn(handle.wal.next_lsn());
        let value = mutate()?;
        if stats.is_poisoned() {
            // A below-undo-granularity failpoint fired mid-mutation:
            // treat the engine as crashed. The already-logged undo record
            // lets recovery roll the half-visible operation back.
            handle.wal.crash();
            if let Some(op) = undo {
                self.undo.borrow_mut().push((undo_lsn, op));
            }
            return Err(XtcError::Wal(WalError::Crashed));
        }
        let appended = handle.wal.append(&RecordBody::PageRedo {
            txn: self.id,
            compensates: None,
            op: redo(&value),
        });
        if let Some(op) = undo {
            self.undo.borrow_mut().push((undo_lsn, op));
        }
        appended?;
        Ok(value)
    }

    /// The logged form of a node's current subtree (for insert redo and
    /// delete undo payloads).
    fn subtree_payload(&self, root: &SplId) -> Vec<(Vec<u8>, NodePayload)> {
        let store = self.store();
        store
            .subtree(root)
            .into_iter()
            .map(|(id, data)| {
                (
                    xtc_splid::encode(&id),
                    recovery::data_to_payload(store.vocab(), &data),
                )
            })
            .collect()
    }

    /// Replaces the content of a text or attribute node.
    pub fn update_text(&self, n: &SplId, content: &str) -> Result<(), XtcError> {
        self.acquire(MetaOp::WriteContent(n))?;
        let old = self.store().text_of(n);
        self.apply_logged(
            old.map(|old| UndoOp::Content {
                node: xtc_splid::encode(n),
                old,
            }),
            || {
                self.store().update_content(n, content)?;
                Ok(())
            },
            |()| RedoOp::Content {
                node: xtc_splid::encode(n),
                new: content.to_string(),
            },
        )?;
        self.end_operation();
        Ok(())
    }

    /// Renames an element (DOM level 3).
    pub fn rename(&self, n: &SplId, new_name: &str) -> Result<(), XtcError> {
        self.acquire(MetaOp::Rename(n))?;
        let old = self.store().name_of(n);
        self.apply_logged(
            old.map(|old| UndoOp::Rename {
                node: xtc_splid::encode(n),
                old,
            }),
            || {
                self.store().rename_element(n, new_name)?;
                Ok(())
            },
            |()| RedoOp::Rename {
                node: xtc_splid::encode(n),
                new: new_name.to_string(),
            },
        )?;
        self.end_operation();
        Ok(())
    }

    fn plan_and_lock_insert(
        &self,
        parent: &SplId,
        pos: &InsertPos,
    ) -> Result<SplId, XtcError> {
        self.acquire(MetaOp::ReadNode(parent))?;
        let (label, ..) = self.plan_locked(
            |s| Ok(s.plan_insert(parent, pos)?),
            |(label, left, right)| {
                self.acquire(MetaOp::InsertNode {
                    parent,
                    node: label,
                    left: left.as_ref(),
                    right: right.as_ref(),
                })
            },
        )?;
        Ok(label)
    }

    /// Inserts a new element under `parent`.
    pub fn insert_element(
        &self,
        parent: &SplId,
        pos: InsertPos,
        name: &str,
    ) -> Result<SplId, XtcError> {
        let label = self.plan_and_lock_insert(parent, &pos)?;
        let inserted = self.apply_logged(
            Some(UndoOp::Delete {
                root: xtc_splid::encode(&label),
            }),
            || {
                let inserted = self.store().insert_element(parent, pos, name)?;
                // Under isolation `none` the plan lock is a no-op, so
                // concurrent sibling inserts may legitimately shift the
                // label between plan and apply; the store's answer is
                // authoritative.
                debug_assert!(
                    inserted == label || self.isolation == IsolationLevel::None,
                    "locked insert plan diverged: planned {label}, inserted {inserted}"
                );
                Ok(inserted)
            },
            |inserted| RedoOp::Insert {
                nodes: self.subtree_payload(inserted),
            },
        )?;
        self.end_operation();
        Ok(inserted)
    }

    /// Inserts a new text node under `parent`.
    pub fn insert_text(
        &self,
        parent: &SplId,
        pos: InsertPos,
        content: &str,
    ) -> Result<SplId, XtcError> {
        let label = self.plan_and_lock_insert(parent, &pos)?;
        let inserted = self.apply_logged(
            Some(UndoOp::Delete {
                root: xtc_splid::encode(&label),
            }),
            || {
                let inserted = self.store().insert_text(parent, pos, content)?;
                debug_assert!(
                    inserted == label || self.isolation == IsolationLevel::None,
                    "locked insert plan diverged: planned {label}, inserted {inserted}"
                );
                Ok(inserted)
            },
            |inserted| RedoOp::Insert {
                nodes: self.subtree_payload(inserted),
            },
        )?;
        self.end_operation();
        Ok(inserted)
    }

    /// Sets (creating or updating) an attribute.
    pub fn set_attribute(
        &self,
        elem: &SplId,
        name: &str,
        value: &str,
    ) -> Result<(), XtcError> {
        self.acquire(MetaOp::ReadNode(elem))?;
        if name == "id" {
            // Changing ID-index content: exclusive key locks so
            // serializable jumpers (who share-lock even absent values)
            // are excluded. Old value too, when it moves.
            self.acquire(MetaOp::IndexKeyWrite(value.as_bytes()))?;
            if let Some(old) = self.store().attribute_value(elem, "id") {
                if old != value {
                    self.acquire(MetaOp::IndexKeyWrite(old.as_bytes()))?;
                }
            }
        }
        let plan = self.plan_locked(
            |s| Ok(s.plan_attribute(elem, name)?),
            |plan| match plan {
                AttrPlan::Existing(attr) => self.acquire(MetaOp::WriteContent(attr)),
                AttrPlan::New {
                    attr_root,
                    label,
                    last,
                    ..
                } => self.acquire(MetaOp::InsertNode {
                    parent: attr_root,
                    node: label,
                    left: last.as_ref(),
                    right: None,
                }),
            },
        )?;
        match plan {
            AttrPlan::Existing(attr) => {
                let old = self.store().text_of(&attr);
                self.apply_logged(
                    old.map(|old| UndoOp::Content {
                        node: xtc_splid::encode(&attr),
                        old,
                    }),
                    || {
                        self.store().update_content(&attr, value)?;
                        Ok(())
                    },
                    |()| RedoOp::Content {
                        node: xtc_splid::encode(&attr),
                        new: value.to_string(),
                    },
                )?;
            }
            AttrPlan::New {
                attr_root,
                attr_root_exists,
                label,
                ..
            } => {
                // Undo removes the attribute node — and the attribute
                // root if this call created it.
                let undo_root = if attr_root_exists { &label } else { &attr_root };
                self.apply_logged(
                    Some(UndoOp::Delete {
                        root: xtc_splid::encode(undo_root),
                    }),
                    || {
                        let (attr, _) = self.store().set_attribute(elem, name, value)?;
                        debug_assert!(
                            attr == label || self.isolation == IsolationLevel::None,
                            "locked attribute plan diverged: planned {label}, created {attr}"
                        );
                        Ok(())
                    },
                    |()| RedoOp::Insert {
                        nodes: self.subtree_payload(undo_root),
                    },
                )?;
            }
        }
        self.end_operation();
        Ok(())
    }

    /// Deletes the subtree rooted at `n`.
    pub fn delete_subtree(&self, n: &SplId) -> Result<(), XtcError> {
        self.plan_locked(
            |s| Ok((s.prev_sibling(n), s.next_sibling(n))),
            |(left, right)| {
                self.acquire(MetaOp::DeleteTree {
                    node: n,
                    left: left.as_ref(),
                    right: right.as_ref(),
                })
            },
        )?;
        let nodes = self.subtree_payload(n);
        if nodes.is_empty() {
            return Err(xtc_node::NodeError::NotFound(n.clone()).into());
        }
        self.apply_logged(
            Some(UndoOp::Restore { nodes }),
            || {
                self.store().delete_subtree(n)?;
                Ok(())
            },
            |()| RedoOp::Delete {
                root: xtc_splid::encode(n),
            },
        )?;
        self.end_operation();
        Ok(())
    }

    // ---- lifecycle --------------------------------------------------------

    /// Commits: logs and forces a `Commit` record when a WAL is
    /// configured (group commit batches concurrent committers into one
    /// sync), then releases all locks and discards the undo log.
    pub fn commit(self) -> Result<(), XtcError> {
        if self.finished.get() {
            return Err(XtcError::Finished);
        }
        // Last deadline check before any durable effect: a transaction
        // over budget rolls back instead of forcing the log.
        if let Err(e) = self.check_deadline() {
            self.abort_inner();
            return Err(e);
        }
        // Chaos-test hook: an injected commit failure must leave the
        // document as if the transaction never ran, so it rolls back
        // through the ordinary abort path (undo replay under the still
        // held long locks).
        match xtc_failpoint::eval_in(self.db.failpoint_scope(), "txn.commit") {
            Some(xtc_failpoint::FailAction::Delay(d)) => std::thread::sleep(d),
            Some(xtc_failpoint::FailAction::Error) => {
                self.abort_inner();
                return Err(XtcError::Injected);
            }
            None => {}
        }
        // Optimistic protocols validate the read set now, before any
        // durable effect: a write committed since our snapshot that
        // intersects anything we read means this transaction observed a
        // state no serial order can explain — roll back (retryable).
        if self.validates {
            if let Some((v, s)) = self.snap() {
                let conflicts = v.validate(self.id, s, &self.reads.borrow());
                if conflicts > 0 {
                    self.db
                        .obs()
                        .record_for(self.id, xtc_obs::EventKind::ValidationAbort { conflicts });
                    self.abort_inner();
                    return Err(XtcError::ValidationFailed);
                }
            }
        }
        let mut commit_lsn: Option<Lsn> = None;
        if let Some(handle) = self.db.wal_handle() {
            if self.began.get() {
                // Chaos-test hook: kill the engine at the commit point,
                // *before* the Commit record exists — a deterministic
                // loser for the recovery matrix.
                match xtc_failpoint::eval_in(self.db.failpoint_scope(), "wal.commit") {
                    Some(xtc_failpoint::FailAction::Delay(d)) => std::thread::sleep(d),
                    Some(xtc_failpoint::FailAction::Error) => {
                        handle.wal.crash();
                        self.abort_inner();
                        return Err(XtcError::Wal(WalError::Crashed));
                    }
                    None => {}
                }
                let appended = {
                    let _log = handle.log_mutex.lock();
                    handle.wal.append(&RecordBody::Commit { txn: self.id })
                };
                let lsn = match appended {
                    Ok(lsn) => lsn,
                    Err(e) => {
                        self.abort_inner();
                        return Err(e.into());
                    }
                };
                commit_lsn = Some(lsn);
                // Force the log *outside* the log mutex so concurrent
                // committers can pile into the same flush window.
                if let Err(e) = handle.wal.commit_sync(lsn) {
                    // The engine crashed mid-flush. Whether the Commit
                    // record made it to the durable prefix is unknowable
                    // here (torn tail); roll back the in-memory state and
                    // let recovery decide this transaction's fate.
                    self.abort_inner();
                    return Err(e.into());
                }
                // The group flush advanced the durable horizon; publish
                // it so the buffer pool's WAL rule (write back only
                // pages with `page_lsn <= durable_lsn`) unblocks the
                // pages this transaction dirtied.
                self.db
                    .store()
                    .stats()
                    .set_durable_lsn(handle.wal.durable_lsn());
                handle.active.lock().remove(&self.id);
            }
        }
        // Publish this transaction's versions: pending entries become
        // committed at the next version-clock tick (stamped with the
        // commit LSN's identity for recovery alignment).
        if let Some(v) = self.db.versions() {
            v.commit(self.id, commit_lsn);
        }
        self.finished.set(true);
        self.undo.borrow_mut().clear();
        self.release();
        self.db.obs().txn_end(self.id, true);
        Ok(())
    }

    /// Aborts: replays the undo log in reverse (while still holding the
    /// long locks), then releases everything.
    pub fn abort(self) {
        self.abort_inner();
    }

    fn abort_inner(&self) {
        if self.finished.replace(true) {
            return;
        }
        let undo: Vec<(Option<Lsn>, UndoOp)> = self.undo.borrow_mut().drain(..).collect();
        let store = self.store();
        // Undo application is best-effort against logical errors: under
        // isolation level `none` concurrent chaos may have invalidated
        // records.
        match self.db.wal_handle() {
            Some(handle) if self.began.get() => {
                let _log = handle.log_mutex.lock();
                if handle.wal.is_crashed() {
                    // Engine is dead: keep the in-memory state sane for
                    // transactions still draining, but the log is frozen —
                    // recovery will perform the durable rollback.
                    for (_, op) in undo.iter().rev() {
                        recovery::apply_undo(store, op);
                    }
                } else {
                    for (undo_lsn, op) in undo.iter().rev() {
                        // Each undone step is logged as a compensation
                        // record (CLR) so a crash mid-rollback replays the
                        // partial rollback (repeating history) and skips
                        // the already-compensated undo records.
                        store.stats().set_current_lsn(handle.wal.next_lsn());
                        recovery::apply_undo(store, op);
                        let _ = handle.wal.append(&RecordBody::PageRedo {
                            txn: self.id,
                            compensates: *undo_lsn,
                            op: op.as_redo(),
                        });
                    }
                    // Abort is not forced: losing it to a crash only means
                    // recovery redoes the rollback from the CLR trail.
                    let _ = handle.wal.append(&RecordBody::Abort { txn: self.id });
                }
                handle.active.lock().remove(&self.id);
            }
            _ => {
                for (_, op) in undo.iter().rev() {
                    recovery::apply_undo(store, op);
                }
            }
        }
        if let Some(v) = self.db.versions() {
            v.abort(self.id);
        }
        self.release();
        self.db.obs().txn_end(self.id, false);
    }

    fn release(&self) {
        // Unpin the snapshot first so the version-store watermark can
        // advance (and prune) the moment this transaction is done. This
        // also covers the Drop path: a read-only snapshot transaction
        // that is simply dropped must not pin version GC forever.
        if let (Some(v), Some(s)) = (self.db.versions(), self.snapshot) {
            v.release_snapshot(s);
        }
        self.db.lock_table().release_all(self.id);
        self.db.registry().finish(self.id);
        if self.admitted {
            self.db.admission_release();
        }
    }

    /// Locks currently recorded for this transaction (diagnostics).
    pub fn held_locks(&self) -> usize {
        self.handle.held_count()
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.finished.get() {
            self.abort_inner();
        }
    }
}
