//! The lock table: sharded hash table of lock heads with FIFO wait queues,
//! conversion priority, and integrated wait-for-graph deadlock detection.
//!
//! One [`LockTable`] serves all protocols: a protocol is a set of mode
//! *families* (its [`ModeTable`]s) plus mapping logic (`xtc-protocols`).
//! Lock names carry the family, so e.g. Node2PL's structure, content, and
//! jump locks live in separate families that never conflict with each
//! other — exactly the three separate matrices of Figure 1.

use crate::error::LockError;
use crate::hash::{shard_of, NameMap};
use crate::modes::{Annex, ModeIdx, ModeTable};
use crate::txn::{LockClass, PathLocks, TxnHandle, TxnId, TxnRegistry};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtc_obs::{CostKind, Counter, EventKind, Obs};
use xtc_splid::SplId;

/// The four virtual navigation edges whose stability repeatable-read
/// traversal must guarantee (§2 intro, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// `getFirstChild()` of the named node.
    FirstChild,
    /// `getLastChild()` of the named node.
    LastChild,
    /// `getNextSibling()` of the named node.
    NextSibling,
    /// `getPreviousSibling()` of the named node.
    PrevSibling,
}

/// What a lock protects.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockTarget {
    /// A node, identified by its SPLID.
    Node(SplId),
    /// A virtual navigation edge anchored at a node.
    Edge(SplId, EdgeKind),
    /// A probed value of the ID index — locked under isolation level
    /// serializable so `getElementById` jumps are phantom-free even for
    /// values that do not (yet) exist.
    IndexKey(Vec<u8>),
}

/// Index of a mode family within the protocol's family list.
pub type FamilyId = u8;

/// A lockable name: target + mode family. Different families on the same
/// target never conflict (Figure 1's separate matrices).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LockName {
    /// The protocol-defined family this lock belongs to.
    pub family: FamilyId,
    /// What is being locked.
    pub target: LockTarget,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquired {
    /// The lock is held in a sufficient mode.
    Granted,
    /// The requested conversion first requires per-child annex locks
    /// (Fig. 4's subscript rule). Acquire `child_mode` on every direct
    /// child, then retry with `annex_done = true`.
    NeedsAnnex {
        /// Mode to acquire on each direct child.
        child_mode: ModeIdx,
    },
}

/// How the deadlock detector picks the cycle member to abort.
///
/// The paper's XTC uses "youngest dies" (transaction ids are begin
/// timestamps). The alternatives trade rollback cost against starvation
/// behaviour and are exposed for the robustness experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimPolicy {
    /// Abort the most recently started cycle member (largest [`TxnId`]).
    /// Cheap rollbacks, no starvation of old transactions.
    #[default]
    Youngest,
    /// Abort the member holding the fewest locks — approximates the
    /// smallest amount of work undone. Ties break youngest-first.
    FewestLocks,
    /// Abort the member the most other transactions are waiting on —
    /// frees the widest blocked set. Ties break youngest-first.
    MostWaiters,
}

impl VictimPolicy {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            VictimPolicy::Youngest => "youngest",
            VictimPolicy::FewestLocks => "fewest-locks",
            VictimPolicy::MostWaiters => "most-waiters",
        }
    }
}

/// Counters of deadlock events, classified per the paper's TaMix analysis:
/// "whether it was caused by lock conversion (frequent occurrence) or by
/// lock requests in separate subtrees (rather rare cases)".
#[derive(Debug, Default)]
pub struct DeadlockStats {
    total: AtomicU64,
    conversion: AtomicU64,
}

impl DeadlockStats {
    /// Total deadlocks resolved (one per victim).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Deadlocks involving at least one lock conversion.
    pub fn conversion_caused(&self) -> u64 {
        self.conversion.load(Ordering::Relaxed)
    }

    fn record(&self, conversion: bool) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if conversion {
            self.conversion.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct Waiter {
    txn: TxnId,
    mode: ModeIdx,
}

#[derive(Default)]
struct LockHead {
    /// One entry per holding transaction.
    granted: Vec<(TxnId, ModeIdx)>,
    /// FIFO queue of new requests.
    queue: VecDeque<Waiter>,
    /// Pending conversions (txn already in `granted`; target mode). These
    /// have priority over queued requests and act as grant barriers for
    /// newcomers, preventing conversion starvation.
    converting: Vec<(TxnId, ModeIdx)>,
}

impl LockHead {
    fn has_waiters(&self) -> bool {
        !self.queue.is_empty() || !self.converting.is_empty()
    }

    fn is_unused(&self) -> bool {
        self.granted.is_empty() && !self.has_waiters()
    }
}

struct Shard {
    state: Mutex<NameMap<LockHead>>,
    cv: Condvar,
    /// Requests in a `queue` or `converting` list of this shard's heads:
    /// who might be blocked on `cv`. Changed under `state` where those
    /// lists change; read without it by deadlock resolution, which holds
    /// another shard's mutex. `SeqCst` on both sides, paired with the
    /// victim's abort flag: either the resolver's load sees the waiter's
    /// increment and wakes the shard, or the waiter's next flag check
    /// (it makes one before every wait) sees the mark.
    waiters: AtomicUsize,
}

impl Shard {
    /// Wakes the shard's waiters, if it has any: with the offline
    /// `parking_lot` a notify is a futex call whether or not anyone
    /// listens.
    fn wake(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.cv.notify_all();
        }
    }
}

#[derive(Default)]
struct WaitGraph {
    /// blocked txn → (was it converting, the txns it waits for).
    edges: HashMap<TxnId, (bool, HashSet<TxnId>)>,
}

impl WaitGraph {
    /// Finds a cycle through `start`, returning the members of one path
    /// back to `start`.
    ///
    /// Linear-time reachability DFS: the visited set persists across
    /// backtracking (each node's edge list is scanned exactly once). A
    /// path-enumerating DFS is exponential on the dense wait-for graphs
    /// low lock depths produce — 72 transactions contending on a handful
    /// of names generate graphs where that blows up for hours while
    /// holding the graph mutex.
    fn cycle_through(&self, start: TxnId) -> Option<Vec<TxnId>> {
        let mut visited: HashSet<TxnId> = [start].into();
        let mut path = vec![start];
        self.dfs(start, start, &mut path, &mut visited)
    }

    fn dfs(
        &self,
        start: TxnId,
        cur: TxnId,
        path: &mut Vec<TxnId>,
        visited: &mut HashSet<TxnId>,
    ) -> Option<Vec<TxnId>> {
        let (_, nexts) = self.edges.get(&cur)?;
        for &n in nexts {
            if n == start {
                return Some(path.clone());
            }
            if visited.insert(n) {
                path.push(n);
                if let Some(c) = self.dfs(start, n, path, visited) {
                    return Some(c);
                }
                path.pop();
            }
        }
        None
    }
}

/// The lock table shared by all transactions of one database.
pub struct LockTable {
    shards: Box<[Shard]>,
    families: Vec<Arc<ModeTable>>,
    registry: Arc<TxnRegistry>,
    wfg: Mutex<WaitGraph>,
    deadlocks: DeadlockStats,
    victim_policy: VictimPolicy,
    timeout: Duration,
    /// Whether repeated requests already covered by a held mode may be
    /// served from the per-transaction cache without touching a shard.
    cache_enabled: bool,
    /// Lock escalations performed (transactions switching to shallower
    /// effective lock depth under held-lock pressure).
    escalations: AtomicU64,
    /// Total lock requests served (lock-manager overhead metric). Counts
    /// every request, cache hit or not — this is the paper-comparable
    /// `lock_requests` number of Figs. 7–10. Striped, like the three
    /// counters below: a cache hit bumps them too, and must not write a
    /// line another client thread writes.
    requests: Counter,
    /// Requests that actually reached the shared table (cache misses).
    table_requests: Counter,
    /// Requests served from the per-transaction lock cache.
    cache_hits: Counter,
    /// Cache hits answered by the path memo, without a probe.
    memo_hits: Counter,
    /// Requests per (family, mode) — the per-mode histogram of §4.1's
    /// lock-manager metrics.
    mode_requests: Vec<Vec<Counter>>,
    /// Observability handle: lock waits charge their measured duration to
    /// its virtual clock; lock events trace through it when tracing.
    obs: Obs,
    /// Failpoint scope of the owning engine: the `lock.acquire` fault
    /// site evaluates in it so chaos can fault one document's lock
    /// manager without touching its catalog neighbors.
    failpoint_scope: xtc_failpoint::ScopeId,
}

/// Wait-slice granularity: bounds the latency of deadlock-victim wakeup
/// (a victim marked between its flag check and its wait misses one
/// notification at most).
const WAIT_SLICE: Duration = Duration::from_millis(20);

impl LockTable {
    /// Creates a table for the given mode families.
    pub fn new(
        families: Vec<Arc<ModeTable>>,
        registry: Arc<TxnRegistry>,
        timeout: Duration,
    ) -> Self {
        let shard_count = 64;
        let shards = (0..shard_count)
            .map(|_| Shard {
                state: Mutex::new(NameMap::default()),
                cv: Condvar::new(),
                waiters: AtomicUsize::new(0),
            })
            .collect();
        let mode_requests = families
            .iter()
            .map(|f| (0..f.len()).map(|_| Counter::default()).collect())
            .collect();
        LockTable {
            shards,
            families,
            registry,
            wfg: Mutex::new(WaitGraph::default()),
            deadlocks: DeadlockStats::default(),
            victim_policy: VictimPolicy::default(),
            timeout,
            cache_enabled: true,
            escalations: AtomicU64::new(0),
            requests: Counter::default(),
            table_requests: Counter::default(),
            cache_hits: Counter::default(),
            memo_hits: Counter::default(),
            mode_requests,
            obs: Obs::default(),
            failpoint_scope: xtc_failpoint::GLOBAL,
        }
    }

    /// Wires the table to an observability handle (builder style; default
    /// a private clock with tracing off). Lock waits charge the handle's
    /// virtual clock, and — when tracing — acquire/wait/grant/convert and
    /// deadlock-victim events are recorded.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The observability handle this table reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Sets the engine failpoint scope the `lock.acquire` site evaluates
    /// in (builder style; default [`xtc_failpoint::GLOBAL`]).
    pub fn with_failpoint_scope(mut self, scope: xtc_failpoint::ScopeId) -> Self {
        self.failpoint_scope = scope;
        self
    }

    /// Sets the deadlock victim policy (builder style; default
    /// [`VictimPolicy::Youngest`]).
    pub fn with_victim_policy(mut self, policy: VictimPolicy) -> Self {
        self.victim_policy = policy;
        self
    }

    /// Enables or disables the per-transaction lock cache (builder style;
    /// default enabled). Disabling forces every request through the
    /// shared table — the baseline arm of the `lockperf` benchmark and
    /// the cache-equivalence suite.
    pub fn with_lock_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// The active deadlock victim policy.
    pub fn victim_policy(&self) -> VictimPolicy {
        self.victim_policy
    }

    /// Whether the per-transaction lock cache is enabled.
    pub fn lock_cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Records one lock escalation (a transaction crossing its held-lock
    /// threshold and switching to a shallower effective lock depth).
    pub fn record_escalation(&self) {
        self.escalations.fetch_add(1, Ordering::Relaxed);
    }

    /// Lock escalations performed.
    pub fn escalations(&self) -> u64 {
        self.escalations.load(Ordering::Relaxed)
    }

    /// The mode table of a family.
    pub fn family(&self, f: FamilyId) -> &ModeTable {
        &self.families[f as usize]
    }

    /// Deadlock counters.
    pub fn deadlocks(&self) -> &DeadlockStats {
        &self.deadlocks
    }

    /// Total lock requests served.
    pub fn requests(&self) -> u64 {
        self.requests.load()
    }

    /// Requests that reached the shared table (cache misses).
    pub fn table_requests(&self) -> u64 {
        self.table_requests.load()
    }

    /// Requests served from the per-transaction lock cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load()
    }

    /// Cache hits the path memo answered without probing the held map —
    /// the requests of an ancestor path the transaction had just locked.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load()
    }

    /// Lock requests per mode: `(family name, mode name, count)` for
    /// every mode that was requested at least once.
    pub fn requests_by_mode(&self) -> Vec<(&'static str, String, u64)> {
        let mut out = Vec::new();
        for (f, fam) in self.families.iter().enumerate() {
            for m in 0..fam.len() {
                let n = self.mode_requests[f][m].load();
                if n > 0 {
                    out.push((fam.family(), fam.name(m as ModeIdx).to_string(), n));
                }
            }
        }
        out
    }

    /// The transaction registry this table records held locks in.
    pub fn registry(&self) -> &Arc<TxnRegistry> {
        &self.registry
    }

    fn shard(&self, name: &LockName) -> &Shard {
        &self.shards[shard_of(name, self.shards.len())]
    }

    /// Stable-within-a-run identity hash of a lock name for trace events
    /// (events are fixed-size; names are protocol-level structures).
    fn name_hash(name: &LockName) -> u64 {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        h.finish()
    }

    /// Requests `mode` on `name` for `txn`, blocking until granted,
    /// deadlock-aborted, or timed out. By-id convenience over
    /// [`lock_with`](LockTable::lock_with): resolves the handle through
    /// the registry map on every call, so hot paths should resolve once
    /// at begin and use `lock_with` directly.
    pub fn lock(
        &self,
        txn: TxnId,
        name: &LockName,
        mode: ModeIdx,
        class: LockClass,
        annex_done: bool,
    ) -> Result<Acquired, LockError> {
        let handle = self
            .registry
            .handle(txn)
            .expect("transaction not registered");
        self.lock_with(&handle, name, mode, class, annex_done)
    }

    /// What every request starts with, cache hit or not, in the order
    /// fault accounting depends on: count the request, evaluate the
    /// `lock.acquire` failpoint, count the mode, check the abort flag. An
    /// injected error leaves the request counted and its mode not.
    #[inline]
    fn prologue(&self, txn: &TxnHandle, family: FamilyId, mode: ModeIdx) -> Result<(), LockError> {
        self.requests.add(1);
        match xtc_failpoint::eval_in(self.failpoint_scope, "lock.acquire") {
            Some(xtc_failpoint::FailAction::Delay(d)) => std::thread::sleep(d),
            Some(xtc_failpoint::FailAction::Error) => return Err(LockError::Injected),
            None => {}
        }
        self.mode_counter(family, mode).add(1);
        if txn.is_aborted() {
            return Err(LockError::Aborted);
        }
        Ok(())
    }

    fn mode_counter(&self, family: FamilyId, mode: ModeIdx) -> &Counter {
        let table = self.family(family);
        assert!(
            (mode as usize) < table.len(),
            "mode index {mode} out of range for family {}",
            table.family()
        );
        &self.mode_requests[family as usize][mode as usize]
    }

    /// Whether the path memo may answer: it stands in for cache hits, so
    /// it is off with the cache, and a trace wants an event per request.
    fn memo_enabled(&self) -> bool {
        self.cache_enabled && !self.obs.is_tracing()
    }

    /// Answers all requests of `path` at once if the transaction's path
    /// memo covers it, returning whether it did. The memo says each of
    /// them would be a cache hit, so they are booked as such — every
    /// request on `requests`, its mode's counter and `cache_hits` — and
    /// no name is built, hashed or probed. The failpoint and the abort
    /// flag are per request: with failpoints compiled in, or once the
    /// transaction is marked, the requests are walked root first through
    /// the same [prologue](LockTable::prologue) `lock_with` runs, so a
    /// fault lands on the same request with the same counts before it.
    pub fn lock_remembered_path(
        &self,
        txn: &TxnHandle,
        path: &PathLocks,
    ) -> Result<bool, LockError> {
        if !self.memo_enabled() || !txn.path_remembered(path) {
            return Ok(false);
        }
        let above_parent = path.parent.level() as u64;
        if cfg!(feature = "failpoints") || txn.is_aborted() {
            for i in 0..=above_parent {
                let mode = if i < above_parent {
                    path.path_mode
                } else {
                    path.parent_mode
                };
                self.prologue(txn, path.family, mode)?;
                self.cache_hits.add(1);
                self.memo_hits.add(1);
            }
        } else {
            let requests = above_parent + 1;
            self.requests.add(requests);
            self.mode_counter(path.family, path.path_mode)
                .add(above_parent);
            self.mode_counter(path.family, path.parent_mode).add(1);
            self.cache_hits.add(requests);
            self.memo_hits.add(requests);
        }
        Ok(true)
    }

    /// Records that every request of `path` was just granted, for
    /// [`lock_remembered_path`](LockTable::lock_remembered_path) to
    /// answer the next child of the same parent.
    pub fn remember_path(&self, txn: &TxnHandle, path: PathLocks) {
        if self.memo_enabled() {
            txn.remember_path(path);
        }
    }

    /// Requests `mode` on `name` for the transaction behind `txn`,
    /// blocking until granted, deadlock-aborted, or timed out.
    ///
    /// Returns [`Acquired::NeedsAnnex`] (without blocking or changing
    /// state) when the implied conversion requires per-child locks first.
    ///
    /// **Fast path**: when the cache is enabled and the transaction's
    /// cached entry for `name` already covers the request — held mode
    /// absorbs the requested one under the family's conversion lattice
    /// with no annex obligation, and the cached class is at least as
    /// strong — the request is served without touching any shared state.
    /// The [prologue](LockTable::prologue) still runs on this path so
    /// fault injection and `lock_requests` accounting are identical with
    /// the cache on or off.
    pub fn lock_with(
        &self,
        txn: &TxnHandle,
        name: &LockName,
        mode: ModeIdx,
        class: LockClass,
        annex_done: bool,
    ) -> Result<Acquired, LockError> {
        self.prologue(txn, name.family, mode)?;
        let table = self.family(name.family);

        if self.cache_enabled {
            if let Some((held, held_class)) = txn.cached_mode(name) {
                if held_class >= class {
                    let conv = table.conversion(held, mode);
                    if conv.result == held && conv.annex == Annex::None {
                        self.cache_hits.add(1);
                        self.obs.record_with(txn.id(), || EventKind::LockAcquire {
                            name: Self::name_hash(name),
                            mode: held,
                        });
                        return Ok(Acquired::Granted);
                    }
                }
            }
        }
        self.table_requests.add(1);

        let id = txn.id();
        let shard = self.shard(name);
        let mut g = shard.state.lock();
        let head = g.entry(name.clone()).or_default();

        if let Some(pos) = head.granted.iter().position(|(t, _)| *t == id) {
            // Conversion path. Record the mode the table actually holds
            // (not the requested one) so the cache mirrors the table.
            let held = head.granted[pos].1;
            let conv = table.conversion(held, mode);
            if conv.result == held {
                drop(g);
                txn.record_lock(name, held, class);
                self.obs.record_with(id, || EventKind::LockAcquire {
                    name: Self::name_hash(name),
                    mode: held,
                });
                return Ok(Acquired::Granted);
            }
            if let Annex::ChildLocks(child_mode) = conv.annex {
                if !annex_done {
                    return Ok(Acquired::NeedsAnnex { child_mode });
                }
            }
            let target = conv.result;
            if self.conversion_grantable(head, id, target, table) {
                head.granted[pos].1 = target;
                drop(g);
                txn.record_lock(name, target, class);
                self.obs.record_with(id, || EventKind::LockConvert {
                    name: Self::name_hash(name),
                    from: held,
                    to: target,
                });
                return Ok(Acquired::Granted);
            }
            head.converting.push((id, target));
            shard.waiters.fetch_add(1, Ordering::SeqCst);
            // Recorded while the shard is still locked and before the
            // requester blocks: an observer that sees this event knows the
            // requester cannot be granted until a release happens — the
            // handshake the lock tests synchronize on instead of sleeping.
            self.obs.record_with(id, || EventKind::LockWait {
                name: Self::name_hash(name),
                mode: target,
                converting: true,
            });
            let res = self.wait(shard, g, name, txn, target, table, true);
            if res.is_ok() {
                txn.record_lock(name, target, class);
            }
            return res.map(|()| Acquired::Granted);
        }

        // New request path.
        if head.queue.is_empty() && self.new_grantable(head, id, mode, table, usize::MAX) {
            head.granted.push((id, mode));
            drop(g);
            txn.record_lock(name, mode, class);
            self.obs.record_with(id, || EventKind::LockAcquire {
                name: Self::name_hash(name),
                mode,
            });
            return Ok(Acquired::Granted);
        }
        head.queue.push_back(Waiter { txn: id, mode });
        shard.waiters.fetch_add(1, Ordering::SeqCst);
        // See the conversion path: recorded under the shard lock, before
        // blocking, so observers can use it as an "is queued" handshake.
        self.obs.record_with(id, || EventKind::LockWait {
            name: Self::name_hash(name),
            mode,
            converting: false,
        });
        let res = self.wait(shard, g, name, txn, mode, table, false);
        if res.is_ok() {
            txn.record_lock(name, mode, class);
        }
        res.map(|()| Acquired::Granted)
    }

    /// Grant check for a pending conversion: compatible with every *other*
    /// granted mode.
    fn conversion_grantable(
        &self,
        head: &LockHead,
        txn: TxnId,
        target: ModeIdx,
        table: &ModeTable,
    ) -> bool {
        head.granted
            .iter()
            .filter(|(t, _)| *t != txn)
            .all(|(_, m)| table.compatible(target, *m))
    }

    /// Grant check for a queued request at position `pos` (or `usize::MAX`
    /// for "queue empty" fast path): compatible with granted modes,
    /// pending conversion targets, and all earlier waiters.
    fn new_grantable(
        &self,
        head: &LockHead,
        _txn: TxnId,
        mode: ModeIdx,
        table: &ModeTable,
        pos: usize,
    ) -> bool {
        head.granted.iter().all(|(_, m)| table.compatible(mode, *m))
            && head
                .converting
                .iter()
                .all(|(_, m)| table.compatible(mode, *m))
            && head
                .queue
                .iter()
                .take(pos)
                .all(|w| table.compatible(mode, w.mode))
    }

    /// Blocks until the pending request/conversion is granted.
    #[allow(clippy::too_many_arguments)]
    fn wait(
        &self,
        shard: &Shard,
        mut g: parking_lot::MutexGuard<'_, NameMap<LockHead>>,
        name: &LockName,
        handle: &TxnHandle,
        target: ModeIdx,
        table: &ModeTable,
        converting: bool,
    ) -> Result<(), LockError> {
        let txn = handle.id();
        let started = Instant::now();
        let deadline = started + self.timeout;
        // Attribute the measured wall time of this wait to the virtual
        // clock, whatever the outcome — blocked time is protocol cost even
        // when it ends in an abort or a timeout.
        let charge_wait = |granted: bool| {
            let waited_us = started.elapsed().as_micros() as u64;
            self.obs.charge(CostKind::LockWait, waited_us);
            if granted {
                self.obs.record_with(txn, || EventKind::LockGrant {
                    name: Self::name_hash(name),
                    mode: target,
                    waited_us,
                });
            }
        };
        loop {
            // Aborted by another detector's victim choice?
            if handle.is_aborted() {
                self.remove_request(shard, &mut g, name, txn, converting);
                charge_wait(false);
                return Err(LockError::Aborted);
            }
            // Try to grant.
            let head = g.get_mut(name).expect("lock head disappeared");
            if converting {
                if self.conversion_grantable(head, txn, target, table) {
                    head.converting.retain(|(t, _)| *t != txn);
                    let e = head
                        .granted
                        .iter_mut()
                        .find(|(t, _)| *t == txn)
                        .expect("converter lost its grant");
                    e.1 = target;
                    self.no_longer_waiting(shard, txn);
                    charge_wait(true);
                    return Ok(());
                }
            } else {
                let pos = head
                    .queue
                    .iter()
                    .position(|w| w.txn == txn)
                    .expect("waiter vanished from queue");
                if self.new_grantable(head, txn, target, table, pos) {
                    head.queue.remove(pos);
                    head.granted.push((txn, target));
                    self.no_longer_waiting(shard, txn);
                    charge_wait(true);
                    return Ok(());
                }
            }
            // Record who blocks us and check for deadlock.
            let blockers = self.blockers_of(g.get(name).unwrap(), txn, target, table, converting);
            if let Some(err) = self.update_graph_and_detect(txn, converting, blockers) {
                self.remove_request(shard, &mut g, name, txn, converting);
                charge_wait(false);
                return Err(err);
            }
            if Instant::now() >= deadline {
                self.remove_request(shard, &mut g, name, txn, converting);
                charge_wait(false);
                return Err(LockError::Timeout);
            }
            shard.cv.wait_for(&mut g, WAIT_SLICE);
        }
    }

    fn blockers_of(
        &self,
        head: &LockHead,
        txn: TxnId,
        target: ModeIdx,
        table: &ModeTable,
        converting: bool,
    ) -> HashSet<TxnId> {
        let mut out = HashSet::new();
        for (t, m) in &head.granted {
            if *t != txn && !table.compatible(target, *m) {
                out.insert(*t);
            }
        }
        if !converting {
            for (t, m) in &head.converting {
                if *t != txn && !table.compatible(target, *m) {
                    out.insert(*t);
                }
            }
            for w in head
                .queue
                .iter()
                .take_while(|w| w.txn != txn)
            {
                if !table.compatible(target, w.mode) {
                    out.insert(w.txn);
                }
            }
        }
        out
    }

    /// Picks the cycle member to abort under the configured
    /// [`VictimPolicy`]. Every policy is deterministic for a given cycle
    /// and wait-for graph; ties break towards the youngest member so the
    /// choice is total.
    fn choose_victim(&self, cycle: &[TxnId], wfg: &WaitGraph) -> TxnId {
        match self.victim_policy {
            VictimPolicy::Youngest => *cycle.iter().max().expect("cycle non-empty"),
            VictimPolicy::FewestLocks => cycle
                .iter()
                .copied()
                .min_by_key(|t| (self.registry.held_count(*t), std::cmp::Reverse(*t)))
                .expect("cycle non-empty"),
            VictimPolicy::MostWaiters => cycle
                .iter()
                .copied()
                .max_by_key(|t| {
                    let waiters = wfg
                        .edges
                        .values()
                        .filter(|(_, blocked_on)| blocked_on.contains(t))
                        .count();
                    (waiters, *t)
                })
                .expect("cycle non-empty"),
        }
    }

    /// Updates this transaction's wait-for edges, looks for a cycle, and
    /// resolves it by aborting the member chosen by the victim policy.
    /// Returns an error when this transaction is the victim.
    fn update_graph_and_detect(
        &self,
        txn: TxnId,
        converting: bool,
        blockers: HashSet<TxnId>,
    ) -> Option<LockError> {
        let mut wfg = self.wfg.lock();
        wfg.edges.insert(txn, (converting, blockers));
        let cycle = wfg.cycle_through(txn)?;
        let conversion_involved = cycle
            .iter()
            .any(|t| wfg.edges.get(t).map(|(c, _)| *c).unwrap_or(false))
            || converting;
        let victim = self.choose_victim(&cycle, &wfg);
        if victim == txn {
            wfg.edges.remove(&txn);
            drop(wfg);
            if self.registry.mark_aborted(txn) {
                self.deadlocks.record(conversion_involved);
                self.obs.record_for(
                    txn,
                    EventKind::DeadlockVictim {
                        victim: txn,
                        conversion: conversion_involved,
                    },
                );
            }
            return Some(LockError::Deadlock {
                conversion: conversion_involved,
            });
        }
        drop(wfg);
        if self.registry.mark_aborted(victim) {
            self.deadlocks.record(conversion_involved);
            self.obs.record_for(
                victim,
                EventKind::DeadlockVictim {
                    victim,
                    conversion: conversion_involved,
                },
            );
        }
        // Wake the victim wherever it waits.
        for s in self.shards.iter() {
            s.wake();
        }
        None
    }

    fn clear_edges(&self, txn: TxnId) {
        self.wfg.lock().edges.remove(&txn);
    }

    /// Withdraws `txn`'s pending request from `name`'s head (the wait
    /// ended without a grant).
    fn remove_request(
        &self,
        shard: &Shard,
        g: &mut NameMap<LockHead>,
        name: &LockName,
        txn: TxnId,
        converting: bool,
    ) {
        if let Some(head) = g.get_mut(name) {
            if converting {
                head.converting.retain(|(t, _)| *t != txn);
            } else {
                head.queue.retain(|w| w.txn != txn);
            }
            if head.is_unused() {
                g.remove(name);
            }
        }
        self.no_longer_waiting(shard, txn);
    }

    /// `txn`'s request has left its head's `queue` / `converting` list,
    /// granted or withdrawn (caller holds the shard mutex): it blocks on
    /// nobody any more, and whoever is still queued on the shard may be
    /// next.
    fn no_longer_waiting(&self, shard: &Shard, txn: TxnId) {
        shard.waiters.fetch_sub(1, Ordering::SeqCst);
        self.clear_edges(txn);
        shard.wake();
    }

    /// The mode `txn` currently holds on `name`, if any.
    pub fn held_mode(&self, txn: TxnId, name: &LockName) -> Option<ModeIdx> {
        let g = self.shard(name).state.lock();
        g.get(name)?
            .granted
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
    }

    /// Releases the short-class locks of `txn` (end of operation under
    /// isolation level *committed*). By-id convenience over
    /// [`release_short`](LockTable::release_short).
    pub fn release_end_of_operation(&self, txn: TxnId) {
        if let Some(handle) = self.registry.handle(txn) {
            self.release_short(&handle);
        }
    }

    /// Releases the short-class locks of the transaction behind `txn`.
    /// Runs at the end of every DOM operation: a transaction holding no
    /// short lock (every isolation level but *committed*) returns after
    /// one load of its own handle.
    pub fn release_short(&self, txn: &TxnHandle) {
        if txn.short_count() == 0 {
            return;
        }
        self.release(txn.id(), txn.take_releasable(false));
    }

    /// Releases every lock of `txn` (commit or abort).
    pub fn release_all(&self, txn: TxnId) {
        self.release(txn, self.registry.take_releasable(txn, true));
        self.clear_edges(txn);
    }

    /// Drops `txn`'s grants on `names`, shard by shard: one mutex round
    /// per shard, and a wake-up only where a head it touched has someone
    /// queued or converting — nobody else's grant can depend on it.
    fn release(&self, txn: TxnId, names: Vec<LockName>) {
        let mut names: Vec<(usize, LockName)> = names
            .into_iter()
            .map(|name| (shard_of(&name, self.shards.len()), name))
            .collect();
        names.sort_unstable_by_key(|(shard, _)| *shard);
        for of_shard in names.chunk_by(|a, b| a.0 == b.0) {
            let shard = &self.shards[of_shard[0].0];
            let mut g = shard.state.lock();
            let mut wake = false;
            for (_, name) in of_shard {
                if let Some(head) = g.get_mut(name) {
                    head.granted.retain(|(t, _)| *t != txn);
                    wake |= head.has_waiters();
                    if head.is_unused() {
                        g.remove(name);
                    }
                }
            }
            drop(g);
            if wake {
                shard.cv.notify_all();
            }
        }
    }

    /// Every lock `txn` holds, with the mode the table granted, in no
    /// particular order (diagnostics; scans all shards).
    pub fn granted_to(&self, txn: TxnId) -> Vec<(LockName, ModeIdx)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            for (name, head) in shard.state.lock().iter() {
                if let Some((_, mode)) = head.granted.iter().find(|(t, _)| *t == txn) {
                    out.push((name.clone(), *mode));
                }
            }
        }
        out
    }

    /// Number of granted lock entries across all shards (diagnostics).
    pub fn granted_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().values().map(|h| h.granted.len()).sum::<usize>())
            .sum()
    }
}
