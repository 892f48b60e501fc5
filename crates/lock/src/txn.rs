//! Transaction registry: identities, abort flags, held-lock bookkeeping,
//! the per-transaction lock cache, and isolation levels.
//!
//! The registry is deliberately two-tiered. A global `TxnId → handle` map
//! exists only for the *slow* paths that must reach a transaction by id
//! (deadlock victim selection, diagnostics, tests). Everything on the
//! lock-acquisition *fast* path — abort checks, held-lock recording, the
//! lock cache — lives inside a per-transaction [`TxnHandle`] that the
//! transaction layer resolves once at begin and threads through every
//! request, so no lock request ever contends on a global mutex for
//! bookkeeping.

use crate::hash::NameMap;
use crate::modes::ModeIdx;
use crate::table::{FamilyId, LockName};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use xtc_splid::SplId;

/// Transaction identifier. Monotonically increasing; the deadlock victim
/// policy ("youngest dies") compares these.
pub type TxnId = u64;

/// How long a lock is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// Released at the end of the current operation (short read locks of
    /// isolation level *committed*).
    Short,
    /// Released at commit/abort.
    Long,
}

/// The four isolation levels of the experiments (§4.3, footnote 5):
/// "While none acquires no locks at all, all others need long write locks;
/// uncommitted means no read locks, committed and repeatable short and
/// long read locks, respectively."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// No locks at all.
    None,
    /// Uncommitted read: long write locks, no read locks.
    Uncommitted,
    /// Committed read: long write locks, short read locks.
    Committed,
    /// Repeatable read: long write and read locks.
    Repeatable,
    /// Serializable: repeatable read plus index-key locks protecting
    /// direct jumps against phantoms (footnote 1 of the paper: "offered
    /// by the taDOM* group, but not used in our experiments"; here it is
    /// implemented for every protocol via key-value locks on the ID
    /// index).
    Serializable,
}

impl IsolationLevel {
    /// Lock class for read locks, or `None` when reads go unlocked.
    pub fn read_class(self) -> Option<LockClass> {
        match self {
            IsolationLevel::None | IsolationLevel::Uncommitted => None,
            IsolationLevel::Committed => Some(LockClass::Short),
            IsolationLevel::Repeatable | IsolationLevel::Serializable => Some(LockClass::Long),
        }
    }

    /// Lock class for write locks, or `None` when writes go unlocked.
    pub fn write_class(self) -> Option<LockClass> {
        match self {
            IsolationLevel::None => None,
            _ => Some(LockClass::Long),
        }
    }

    /// The four levels of the paper's experiments, weakest first (bench
    /// sweep order; serializable was not measured in the paper and is
    /// kept out of the figure sweeps).
    pub const ALL: [IsolationLevel; 4] = [
        IsolationLevel::None,
        IsolationLevel::Uncommitted,
        IsolationLevel::Committed,
        IsolationLevel::Repeatable,
    ];

    /// `true` when direct jumps must also lock the index key they probe
    /// (phantom protection for `getElementById`).
    pub fn locks_index_keys(self) -> bool {
        matches!(self, IsolationLevel::Serializable)
    }

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::None => "none",
            IsolationLevel::Uncommitted => "uncommitted",
            IsolationLevel::Committed => "committed",
            IsolationLevel::Repeatable => "repeatable",
            IsolationLevel::Serializable => "serializable",
        }
    }
}

/// One held lock: the mode the shared table actually granted (which may
/// exceed the requested mode after a conversion), the strongest class it
/// was requested under, and the cache epoch it was recorded in.
#[derive(Debug, Clone, Copy)]
struct HeldLock {
    mode: ModeIdx,
    class: LockClass,
    epoch: u64,
}

/// The intention locks in front of a node lock: `path_mode` on every
/// proper ancestor of `parent`, `parent_mode` on `parent` itself, all in
/// `family` under `class` — what [`LockCtx::lock_path`](crate::LockCtx::lock_path)
/// requests for a child of `parent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathLocks {
    /// Mode family of the path's names.
    pub family: FamilyId,
    /// Parent of the node about to be locked.
    pub parent: SplId,
    /// Mode requested on the proper ancestors of `parent`.
    pub path_mode: ModeIdx,
    /// Mode requested on `parent`.
    pub parent_mode: ModeIdx,
    /// Class the path is requested under.
    pub class: LockClass,
}

/// Held locks by name, and the **path memo**: the last ancestor path
/// whose every request was granted, with the cache epoch it was granted
/// in. While the memo stands, each of those names is held in a mode that
/// covers the mode the path asks for, under a class at least as strong —
/// the requests of a sibling's path would all be cache hits, and are
/// answered without probing. Coverage is *not* monotone under conversion
/// (NR covers IR, NX — NR after a rename — does not), so no argument from
/// "modes only get stronger" keeps the memo alive: any change of a held
/// mode drops it, as does any release.
#[derive(Debug, Default)]
struct Held {
    locks: NameMap<HeldLock>,
    memo: Option<(PathLocks, u64)>,
}

/// Per-transaction state: everything the lock-acquisition fast path needs
/// without touching a global mutex.
///
/// The held-lock map doubles as the **lock cache**: each entry remembers
/// the mode the shared [`LockTable`](crate::LockTable) granted, so a
/// repeated request the held mode already covers can be served without
/// any shared-state traffic. Entries only *hit* while their epoch matches
/// the handle's current cache epoch; bumping the epoch
/// ([`invalidate_cache`](TxnHandle::invalidate_cache), done on lock
/// escalation) force-misses every cached entry without forgetting the
/// locks themselves — the next table round-trip re-primes them.
#[derive(Debug)]
pub struct TxnHandle {
    id: TxnId,
    aborted: AtomicBool,
    /// Mirrors `held.locks.len()`; readable by other threads (the `FewestLocks`
    /// victim policy) without taking the per-transaction mutex.
    held_count: AtomicUsize,
    /// How many entries of `held` are [`LockClass::Short`] — lets the
    /// end-of-operation release skip the map when there is nothing to
    /// release. Written under the `held` mutex; `Relaxed` like
    /// `held_count`: the transaction's own thread records its locks and
    /// ends its operations, the count publishes nothing to others.
    short_count: AtomicUsize,
    /// Cache generation; entries from older generations never hit.
    cache_epoch: AtomicU64,
    /// Held locks by name. Per-transaction mutex: uncontended in normal
    /// operation (a transaction runs on one thread), taken cross-thread
    /// only transiently.
    held: Mutex<Held>,
}

impl TxnHandle {
    fn new(id: TxnId) -> Self {
        TxnHandle {
            id,
            aborted: AtomicBool::new(false),
            held_count: AtomicUsize::new(0),
            short_count: AtomicUsize::new(0),
            cache_epoch: AtomicU64::new(0),
            held: Mutex::new(Held::default()),
        }
    }

    /// The transaction's id (also its age for victim selection).
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Whether the transaction has been marked as a deadlock victim.
    /// One atomic load — the per-request fast path.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Marks the transaction aborted; returns `true` if this call
    /// performed the transition.
    pub fn mark_aborted(&self) -> bool {
        !self.aborted.swap(true, Ordering::SeqCst)
    }

    /// Records a (possibly re-acquired) lock: O(1) hash insert on the
    /// per-transaction mutex. Keeps the strongest class; `mode` is the
    /// mode the shared table actually granted, which re-primes the cache
    /// under the current epoch.
    pub fn record_lock(&self, name: &LockName, mode: ModeIdx, class: LockClass) {
        let epoch = self.cache_epoch.load(Ordering::Relaxed);
        let held = &mut *self.held.lock();
        match held.locks.entry(name.clone()) {
            Entry::Occupied(mut e) => {
                let e = e.get_mut();
                if e.class == LockClass::Short && class == LockClass::Long {
                    self.short_count.fetch_sub(1, Ordering::Relaxed);
                }
                if e.mode != mode {
                    held.memo = None;
                }
                e.class = e.class.max(class);
                e.mode = mode;
                e.epoch = epoch;
            }
            Entry::Vacant(e) => {
                e.insert(HeldLock { mode, class, epoch });
                self.held_count.store(held.locks.len(), Ordering::Relaxed);
                if class == LockClass::Short {
                    self.short_count.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The cached `(granted mode, class)` for a name, if the entry is
    /// from the current cache epoch. A `None` only means "go ask the
    /// shared table" — the lock itself may well still be held.
    pub fn cached_mode(&self, name: &LockName) -> Option<(ModeIdx, LockClass)> {
        let held = self.held.lock();
        let e = held.locks.get(name)?;
        (e.epoch == self.cache_epoch.load(Ordering::Relaxed)).then_some((e.mode, e.class))
    }

    /// Remembers that every request of `path` has just been granted.
    pub(crate) fn remember_path(&self, path: PathLocks) {
        let epoch = self.cache_epoch.load(Ordering::Relaxed);
        self.held.lock().memo = Some((path, epoch));
    }

    /// Whether the memo answers `path`: the same names and modes, under a
    /// class no stronger than remembered, in the current cache epoch.
    pub(crate) fn path_remembered(&self, path: &PathLocks) -> bool {
        match &self.held.lock().memo {
            Some((memo, epoch)) => {
                *epoch == self.cache_epoch.load(Ordering::Relaxed)
                    && memo.class >= path.class
                    && (memo.path_mode, memo.parent_mode, memo.family)
                        == (path.path_mode, path.parent_mode, path.family)
                    && memo.parent == path.parent
            }
            None => false,
        }
    }

    /// Invalidates the lock cache without forgetting held locks: every
    /// subsequent request round-trips through the shared table once,
    /// re-priming its entry. Called on lock-escalation changes.
    pub fn invalidate_cache(&self) {
        self.cache_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains the locks to release: all of them, or only the short ones.
    /// Removed entries leave the cache with them, and the path memo goes
    /// too — a released lock can never produce a cache hit.
    pub fn take_releasable(&self, all: bool) -> Vec<LockName> {
        let mut held = self.held.lock();
        held.memo = None;
        let names: Vec<LockName> = if all {
            held.locks.drain().map(|(n, _)| n).collect()
        } else {
            held.locks
                .extract_if(|_, e| e.class == LockClass::Short)
                .map(|(n, _)| n)
                .collect()
        };
        self.held_count.store(held.locks.len(), Ordering::Relaxed);
        self.short_count.store(0, Ordering::Relaxed);
        names
    }

    /// Number of short-class locks currently recorded: one atomic load.
    pub fn short_count(&self) -> usize {
        self.short_count.load(Ordering::Relaxed)
    }

    /// Number of locks currently recorded: one atomic load (used by the
    /// `FewestLocks` victim policy inside deadlock detection).
    pub fn held_count(&self) -> usize {
        self.held_count.load(Ordering::Relaxed)
    }
}

/// Registry of live transactions: allocates ids and maps them to their
/// [`TxnHandle`]s for the by-id slow paths.
#[derive(Debug, Default)]
pub struct TxnRegistry {
    next: AtomicU64,
    txns: Mutex<HashMap<TxnId, Arc<TxnHandle>>>,
}

impl TxnRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        TxnRegistry::default()
    }

    /// Starts a transaction, returning its id. Convenience over
    /// [`begin_handle`](TxnRegistry::begin_handle) for callers that
    /// address transactions by id (tests, benches).
    pub fn begin(&self) -> TxnId {
        self.begin_handle().id()
    }

    /// Starts a transaction and returns its handle — resolve once, then
    /// thread it through every lock request.
    pub fn begin_handle(&self) -> Arc<TxnHandle> {
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let handle = Arc::new(TxnHandle::new(id));
        self.txns.lock().insert(id, handle.clone());
        handle
    }

    /// The handle of a live transaction.
    pub fn handle(&self, txn: TxnId) -> Option<Arc<TxnHandle>> {
        self.txns.lock().get(&txn).cloned()
    }

    /// Marks a transaction as deadlock victim; returns `true` if this call
    /// performed the transition (so concurrent detectors of the same cycle
    /// count one deadlock, not two).
    pub fn mark_aborted(&self, txn: TxnId) -> bool {
        match self.handle(txn) {
            Some(h) => h.mark_aborted(),
            None => false,
        }
    }

    /// Whether the transaction has been marked as victim.
    pub fn is_aborted(&self, txn: TxnId) -> bool {
        self.handle(txn).map(|h| h.is_aborted()).unwrap_or(false)
    }

    /// Drains the locks to release: all of them, or only the short ones.
    pub fn take_releasable(&self, txn: TxnId, all: bool) -> Vec<LockName> {
        match self.handle(txn) {
            Some(h) => h.take_releasable(all),
            None => Vec::new(),
        }
    }

    /// Number of locks currently recorded for the transaction.
    pub fn held_count(&self, txn: TxnId) -> usize {
        self.handle(txn).map(|h| h.held_count()).unwrap_or(0)
    }

    /// Removes a finished transaction. Call after releasing its locks.
    pub fn finish(&self, txn: TxnId) {
        self.txns.lock().remove(&txn);
    }

    /// Number of live transactions.
    pub fn live(&self) -> usize {
        self.txns.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{LockName, LockTarget};
    use xtc_splid::SplId;

    fn name(fam: u8) -> LockName {
        LockName {
            family: fam,
            target: LockTarget::Node(SplId::root()),
        }
    }

    #[test]
    fn begin_ids_are_monotonic() {
        let r = TxnRegistry::new();
        let a = r.begin();
        let b = r.begin();
        assert!(b > a);
        assert_eq!(r.live(), 2);
        r.finish(a);
        assert_eq!(r.live(), 1);
    }

    #[test]
    fn abort_flag_visible_through_handle() {
        let r = TxnRegistry::new();
        let h = r.begin_handle();
        assert!(!r.is_aborted(h.id()));
        r.mark_aborted(h.id());
        assert!(r.is_aborted(h.id()));
        // The handle sees the flag without the registry mutex.
        assert!(h.is_aborted());
        // Only the first transition reports `true`.
        assert!(!h.mark_aborted());
    }

    #[test]
    fn lock_classes_upgrade_and_release_by_class() {
        let r = TxnRegistry::new();
        let h = r.begin_handle();
        h.record_lock(&name(0), 0, LockClass::Short);
        h.record_lock(&name(1), 0, LockClass::Long);
        assert_eq!(h.short_count(), 1);
        h.record_lock(&name(0), 0, LockClass::Long); // upgrade
        assert_eq!(h.short_count(), 0, "an upgraded lock is no longer short");
        let short = h.take_releasable(false);
        assert!(short.is_empty(), "upgraded lock must not release early");
        assert_eq!(h.held_count(), 2);
        let all = h.take_releasable(true);
        assert_eq!(all.len(), 2);
        assert_eq!(h.held_count(), 0);
    }

    #[test]
    fn short_locks_release_at_end_of_operation() {
        let r = TxnRegistry::new();
        let h = r.begin_handle();
        h.record_lock(&name(0), 0, LockClass::Short);
        h.record_lock(&name(0), 0, LockClass::Short); // re-acquired, not a second lock
        h.record_lock(&name(1), 0, LockClass::Long);
        assert_eq!(h.short_count(), 1);
        let short = h.take_releasable(false);
        assert_eq!(short, vec![name(0)]);
        assert_eq!(h.held_count(), 1);
        assert_eq!(h.short_count(), 0);
    }

    #[test]
    fn cache_entries_expire_with_the_epoch_and_with_release() {
        let r = TxnRegistry::new();
        let h = r.begin_handle();
        h.record_lock(&name(0), 3, LockClass::Long);
        assert_eq!(h.cached_mode(&name(0)), Some((3, LockClass::Long)));
        // Epoch bump: the lock is still held (and releasable) but can no
        // longer be served from the cache.
        h.invalidate_cache();
        assert_eq!(h.cached_mode(&name(0)), None);
        assert_eq!(h.held_count(), 1);
        // Re-recording under the new epoch re-primes the cache.
        h.record_lock(&name(0), 3, LockClass::Long);
        assert_eq!(h.cached_mode(&name(0)), Some((3, LockClass::Long)));
        // Release removes the entry outright.
        assert_eq!(h.take_releasable(true).len(), 1);
        assert_eq!(h.cached_mode(&name(0)), None);
    }

    fn path(parent: &str, path_mode: ModeIdx, parent_mode: ModeIdx, class: LockClass) -> PathLocks {
        PathLocks {
            family: 0,
            parent: SplId::parse(parent).unwrap(),
            path_mode,
            parent_mode,
            class,
        }
    }

    #[test]
    fn path_memo_answers_the_same_path_only() {
        let r = TxnRegistry::new();
        let h = r.begin_handle();
        let p = path("1.3.5", 1, 2, LockClass::Short);
        assert!(!h.path_remembered(&p), "nothing remembered yet");
        h.remember_path(p.clone());
        assert!(h.path_remembered(&p));
        assert!(
            !h.path_remembered(&path("1.3.7", 1, 2, LockClass::Short)),
            "other parent"
        );
        assert!(
            !h.path_remembered(&path("1.3", 1, 2, LockClass::Short)),
            "its own ancestor"
        );
        assert!(
            !h.path_remembered(&path("1.3.5", 1, 3, LockClass::Short)),
            "other parent mode"
        );
        assert!(
            !h.path_remembered(&path("1.3.5", 3, 2, LockClass::Short)),
            "other path mode"
        );
        assert!(
            !h.path_remembered(&path("1.3.5", 1, 2, LockClass::Long)),
            "stronger class"
        );
        assert!(
            !h.path_remembered(&PathLocks {
                family: 1,
                ..p.clone()
            }),
            "other family"
        );
        // A path remembered under the long class answers a short request.
        h.remember_path(path("1.3.5", 1, 2, LockClass::Long));
        assert!(h.path_remembered(&p));
    }

    #[test]
    fn path_memo_is_dropped_by_epoch_release_and_any_changed_mode() {
        let r = TxnRegistry::new();
        let p = path("1.3.5", 1, 2, LockClass::Long);
        let remembered = || {
            let h = r.begin_handle();
            h.record_lock(&name(0), 1, LockClass::Long);
            h.record_lock(&name(1), 1, LockClass::Short);
            h.remember_path(p.clone());
            assert!(h.path_remembered(&p));
            h
        };

        let h = remembered();
        h.invalidate_cache();
        assert!(!h.path_remembered(&p), "epoch bump");
        h.remember_path(p.clone());
        assert!(
            h.path_remembered(&p),
            "remembered again under the new epoch"
        );

        let h = remembered();
        assert_eq!(h.take_releasable(false).len(), 1);
        assert!(!h.path_remembered(&p), "short-lock release");

        let h = remembered();
        assert_eq!(h.take_releasable(true).len(), 2);
        assert!(!h.path_remembered(&p), "release of everything");

        // New names and re-recorded modes leave it; a changed mode — of
        // any name, on the path or not — drops it.
        let h = remembered();
        h.record_lock(&name(2), 4, LockClass::Long);
        h.record_lock(&name(0), 1, LockClass::Long);
        h.record_lock(&name(1), 1, LockClass::Long);
        assert!(h.path_remembered(&p));
        h.record_lock(&name(2), 5, LockClass::Long);
        assert!(!h.path_remembered(&p), "a held mode changed");
    }

    #[test]
    fn record_lock_keeps_strongest_class_and_latest_mode() {
        let r = TxnRegistry::new();
        let h = r.begin_handle();
        h.record_lock(&name(0), 1, LockClass::Long);
        h.record_lock(&name(0), 2, LockClass::Short);
        // Mode follows the table's latest grant; class never weakens.
        assert_eq!(h.cached_mode(&name(0)), Some((2, LockClass::Long)));
        assert_eq!(h.held_count(), 1, "re-acquisition is not a new lock");
    }

    #[test]
    fn isolation_level_classes_match_footnote_5() {
        use IsolationLevel::*;
        assert_eq!(None.read_class(), Option::None);
        assert_eq!(None.write_class(), Option::None);
        assert_eq!(Uncommitted.read_class(), Option::None);
        assert_eq!(Uncommitted.write_class(), Some(LockClass::Long));
        assert_eq!(Committed.read_class(), Some(LockClass::Short));
        assert_eq!(Committed.write_class(), Some(LockClass::Long));
        assert_eq!(Repeatable.read_class(), Some(LockClass::Long));
        assert_eq!(Repeatable.write_class(), Some(LockClass::Long));
    }
}
