//! The page pool: document container pages plus access statistics.
//!
//! In the paper's testbed, pages live in DB buffers over an IDE disk and
//! "references to external memory for locking purposes should be avoided".
//! Here the pool is the in-memory stand-in for buffer + disk: every page
//! read/write is counted, so experiments can report page-access counts
//! where the paper reports I/O-bound execution times (see DESIGN.md).
//!
//! Since the WAL landed the pool is a real (if simulated) buffer manager:
//! each page frame carries a `page_lsn` (the LSN of the log record
//! covering its latest mutation), a dirty bit, a pin count, and a
//! residency bit. The pool runs **steal/no-force**: dirty pages may leave
//! the buffer before commit — but only once the covering log record is
//! durable ([`PagePool::flush_dirty`] enforces the WAL rule) — and commit
//! never forces data pages, only the log.
//!
//! Eviction under a `max_resident` budget is governed by an
//! [`EvictPolicy`]: the default is scan-resistant **LRU-2** (two access
//! histories per frame with a correlated-reference period, plus a
//! bounded ghost list that remembers the history of recently evicted
//! pages), with plain clean-LRU kept as the comparison baseline. When no
//! clean unpinned victim exists, eviction *forces a synchronous
//! write-back* of the oldest WAL-safe dirty victim (bounded attempts,
//! counted in [`PoolStats::forced_writebacks`]) instead of overcommitting
//! the buffer.
//!
//! With a [`PageBackendConfig::File`] backend ([`crate::FileBackend`]),
//! write-backs `pwrite` CRC-stamped page frames into a real page file
//! and fault-ins `pread` + verify them; in the default simulated mode,
//! evicted frames keep their bytes in memory (they model pages on disk)
//! and fault back in as buffer misses.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use xtc_failpoint::ScopeId;
use xtc_obs::{CacheLine, CostKind, Counter, EventKind, Obs, STRIPES};

use crate::backend::{FileBackend, PageBackendConfig};

/// Identifier of a page inside a [`PagePool`]. `0` is reserved as "no page"
/// (niche for leaf-chain terminators).
pub type PageId = u32;

/// The reserved null page id.
pub const NO_PAGE: PageId = 0;

/// In-site retry budget for transient injected I/O faults.
const IO_ATTEMPTS: u32 = 4;
/// Base backoff between injected-fault retries (grows exponentially).
const IO_BACKOFF_BASE: Duration = Duration::from_micros(50);
/// Dirty victims a blocked eviction will attempt to force-write before
/// giving up and overcommitting the buffer.
const FORCED_WRITEBACK_TRIES: usize = 3;
/// Default correlated-reference period for LRU-2, in LRU-clock ticks:
/// re-references of a page within this window (one B*-tree descent or
/// leaf-scan burst re-reading the same page) count as a single
/// uncorrelated reference, so a sequential scan cannot fake a hot
/// history.
pub const DEFAULT_CORRELATED_TICKS: u64 = 16;

/// Which frame the pool evicts when the residency budget is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictPolicy {
    /// Clean, unpinned frames in strict LRU order — the historical
    /// behavior, kept as the bench baseline. A sequential scan flushes
    /// the hot set.
    CleanLru,
    /// Scan-resistant LRU-2: each frame remembers its last two
    /// *uncorrelated* reference times; frames referenced only once
    /// (infinite backward K-distance — scan pages) are evicted first, in
    /// LRU order, before any twice-referenced frame. A ghost list
    /// remembers the history of recently evicted pages so a hot page
    /// faulting back in resumes its history instead of starting cold.
    Lru2 {
        /// References to the same page within this many LRU-clock ticks
        /// of its previous reference are treated as one reference.
        correlated_ticks: u64,
    },
}

impl Default for EvictPolicy {
    fn default() -> Self {
        EvictPolicy::Lru2 {
            correlated_ticks: DEFAULT_CORRELATED_TICKS,
        }
    }
}

/// Full pool configuration (the named-constructor surface grew past
/// usefulness once backends and policies arrived).
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Page size in bytes.
    pub page_size: usize,
    /// Simulated per-read latency (spin-waited, charged once per read).
    pub read_latency: Duration,
    /// Simulated per-write-back latency (charged as
    /// [`CostKind::PageWrite`] once per page flushed; zero by default so
    /// deterministic runs are unchanged).
    pub write_latency: Duration,
    /// Extra simulated latency charged only on a buffer miss (fault-in).
    /// Zero by default; the storage bench uses it to price real media so
    /// hit rate translates into throughput.
    pub miss_latency: Duration,
    /// Residency budget; `None` = unbounded.
    pub max_resident: Option<usize>,
    /// Eviction policy under the budget.
    pub policy: EvictPolicy,
    /// Where page bytes live: simulated memory or a real page file.
    pub backend: PageBackendConfig,
    /// Window (in LRU-clock ticks) within which repeated touches of one
    /// page count as a single logical reference for the hit/miss
    /// counters — the fix-level hit ratio, identical under every
    /// eviction policy. The storage bench widens it to transaction
    /// scale, following the LRU-2 correlated-reference period.
    pub burst_ticks: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            page_size: 8192,
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            miss_latency: Duration::ZERO,
            max_resident: None,
            policy: EvictPolicy::default(),
            backend: PageBackendConfig::Sim,
            burst_ticks: DEFAULT_CORRELATED_TICKS,
        }
    }
}

/// Shared counters of logical page accesses.
///
/// Cloned handles observe the same counters; the lock-protocol experiments
/// read them to compare storage work across protocols (e.g. the *-2PL
/// group's IDX subtree scans in CLUSTER2). The handle also carries the two
/// ambient signals the WAL integration needs: the LSN to stamp on dirtied
/// pages ([`StorageStats::set_current_lsn`]) and the poison flag a crash
/// failpoint raises from deep inside a page split.
#[derive(Debug, Default, Clone)]
pub struct StorageStats {
    inner: Arc<StatsInner>,
}

/// What every page access reads and normal operation never writes, on a
/// cache line of its own: next to the counters below, each page write
/// of one client would cost the others a miss on their next page read.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Ambient {
    /// Raised by a crash failpoint at a site with no error path (e.g.
    /// mid-split); the transaction layer checks it after every mutation.
    poisoned: AtomicBool,
    /// Observability handle: page reads charge their simulated latency to
    /// the virtual clock here, and page events go to the trace (if on).
    obs: Obs,
    /// Failpoint scope of the owning engine: storage fault sites
    /// (`store.page_read`, `store.page_read_io`, `pool.evict_write`,
    /// `btree.split`) evaluate in it, so chaos can fault one document in
    /// a catalog without touching its neighbors. Defaults to
    /// [`xtc_failpoint::GLOBAL`].
    scope: ScopeId,
}

#[derive(Debug, Default)]
struct StatsInner {
    ambient: Ambient,
    /// Striped, like `buffer_hits`: both are bumped on the buffer-hit
    /// path of every client thread, through one handle shared by a
    /// document's three trees.
    page_reads: Counter,
    page_writes: AtomicU64,
    page_allocs: AtomicU64,
    page_frees: AtomicU64,
    buffer_hits: Counter,
    /// Lookups that walked from the root, and lookups the reader stripe's
    /// leaf hint answered instead (`BTree::locate`). Striped: one of the
    /// two is bumped by every read of every client thread.
    descents: Counter,
    hint_hits: Counter,
    buffer_misses: AtomicU64,
    page_flushes: AtomicU64,
    evictions: AtomicU64,
    evict_blocked: AtomicU64,
    /// Write-backs the `pool.evict_write` fault site failed permanently
    /// (the page stayed dirty; a later flush retries it).
    flush_faults: AtomicU64,
    /// Fault-ins that found the page's access history in the ghost list
    /// (LRU-2 scan resistance working as intended).
    ghost_hits: AtomicU64,
    /// Dirty victims synchronously written back on the eviction path
    /// because no clean unpinned victim existed.
    forced_writebacks: AtomicU64,
    /// Index probes answered by a negative-lookup filter without a
    /// B*-tree descent (counted by the node manager, surfaced here so
    /// the shared stats handle carries all storage accounting).
    filter_negatives: AtomicU64,
    /// Total filter probes (hits + passes), for hit-rate reporting.
    filter_probes: AtomicU64,
    /// LSN stamped on pages dirtied by the mutation in flight (set by the
    /// transaction layer under its log mutex; `0` = no WAL).
    current_lsn: AtomicU64,
    /// Highest LSN the engine's WAL is known to have made durable
    /// (published by the transaction layer after group-commit flushes and
    /// by checkpoints/writeback; `0` = nothing durable or no WAL). The
    /// eviction path reads it to pick WAL-safe forced-writeback victims.
    durable_lsn: AtomicU64,
}

impl StorageStats {
    /// Stats wired to an observability handle: page accesses charge the
    /// virtual clock and (when tracing) emit page events.
    pub fn with_obs(obs: Obs) -> StorageStats {
        Self::with_obs_scoped(obs, xtc_failpoint::GLOBAL)
    }

    /// Stats wired to an observability handle and an engine failpoint
    /// scope (see [`StorageStats::failpoint_scope`]).
    pub fn with_obs_scoped(obs: Obs, scope: ScopeId) -> StorageStats {
        StorageStats {
            inner: Arc::new(StatsInner {
                ambient: Ambient {
                    obs,
                    scope,
                    ..Ambient::default()
                },
                ..StatsInner::default()
            }),
        }
    }

    /// The observability handle these stats report into.
    pub fn obs(&self) -> &Obs {
        &self.inner.ambient.obs
    }

    /// The failpoint scope storage fault sites evaluate in.
    pub fn failpoint_scope(&self) -> ScopeId {
        self.inner.ambient.scope
    }

    /// Pages read (pinned for read access).
    pub fn page_reads(&self) -> u64 {
        self.inner.page_reads.load()
    }

    /// Pages written (pinned for write access).
    pub fn page_writes(&self) -> u64 {
        self.inner.page_writes.load(Ordering::Relaxed)
    }

    /// Pages allocated over the pool's lifetime.
    pub fn page_allocs(&self) -> u64 {
        self.inner.page_allocs.load(Ordering::Relaxed)
    }

    /// Pages returned to the freelist.
    pub fn page_frees(&self) -> u64 {
        self.inner.page_frees.load(Ordering::Relaxed)
    }

    /// Sets the LSN that subsequent page writes stamp as their
    /// `page_lsn`. The transaction layer calls this (under its log mutex)
    /// with the LSN of the redo record covering the mutation.
    pub fn set_current_lsn(&self, lsn: u64) {
        self.inner.current_lsn.store(lsn, Ordering::Relaxed);
    }

    /// The LSN currently stamped on dirtied pages.
    pub fn current_lsn(&self) -> u64 {
        self.inner.current_lsn.load(Ordering::Relaxed)
    }

    /// Publishes the WAL's durable LSN (monotone). The transaction layer
    /// calls this after commit flushes; checkpoints and the background
    /// writeback thread refresh it too. Eviction reads it to decide which
    /// dirty pages are WAL-safe to force-write.
    pub fn set_durable_lsn(&self, lsn: u64) {
        self.inner.durable_lsn.fetch_max(lsn, Ordering::Relaxed);
    }

    /// The last published durable LSN (`0` = nothing durable / no WAL).
    pub fn durable_lsn(&self) -> u64 {
        self.inner.durable_lsn.load(Ordering::Relaxed)
    }

    /// Counts an index probe that consulted a negative-lookup filter.
    pub fn count_filter_probe(&self) {
        self.inner.filter_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a probe the filter answered "absent" (descent skipped).
    pub fn count_filter_negative(&self) {
        self.inner.filter_negatives.fetch_add(1, Ordering::Relaxed);
    }

    /// Index probes that consulted a negative-lookup filter.
    pub fn filter_probes(&self) -> u64 {
        self.inner.filter_probes.load(Ordering::Relaxed)
    }

    /// Probes answered "absent" by the filter (descents skipped).
    pub fn filter_negatives(&self) -> u64 {
        self.inner.filter_negatives.load(Ordering::Relaxed)
    }

    /// Fault-ins whose access history was found in the ghost list.
    pub fn ghost_hits(&self) -> u64 {
        self.inner.ghost_hits.load(Ordering::Relaxed)
    }

    /// Marks the storage layer as crashed-in-place (a failpoint fired at
    /// a site with no error path). The engine checks this after each
    /// mutation and converts it into a WAL crash.
    pub fn poison(&self) {
        self.inner.ambient.poisoned.store(true, Ordering::Relaxed);
    }

    /// Whether [`StorageStats::poison`] was called.
    pub fn is_poisoned(&self) -> bool {
        self.inner.ambient.poisoned.load(Ordering::Relaxed)
    }

    pub(crate) fn count_read(&self) {
        self.inner.page_reads.add(1);
    }

    pub(crate) fn count_write(&self) {
        self.inner.page_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_alloc(&self) {
        self.inner.page_allocs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_free(&self) {
        self.inner.page_frees.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_hit(&self) {
        self.inner.buffer_hits.add(1);
    }

    pub(crate) fn count_descent(&self) {
        self.inner.descents.add(1);
    }

    pub(crate) fn count_hint_hit(&self) {
        self.inner.hint_hits.add(1);
    }

    pub(crate) fn count_miss(&self) {
        self.inner.buffer_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_flush(&self) {
        self.inner.page_flushes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_eviction(&self) {
        self.inner.evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_evict_blocked(&self) {
        self.inner.evict_blocked.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_flush_fault(&self) {
        self.inner.flush_faults.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_ghost_hit(&self) {
        self.inner.ghost_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_forced_writeback(&self) {
        self.inner.forced_writebacks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Snapshot of one pool's buffer-manager state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Uncorrelated reference bursts that found the page resident (the
    /// fix-level hit ratio: node-grain re-reads inside one burst are a
    /// single logical reference).
    pub hits: u64,
    /// Accesses that faulted the page in.
    pub misses: u64,
    /// Dirty pages written back by [`PagePool::flush_dirty`].
    pub flushes: u64,
    /// Frames evicted under the residency budget.
    pub evictions: u64,
    /// Times eviction found no clean, unpinned victim.
    pub evict_blocked: u64,
    /// Write-backs that failed permanently at the `pool.evict_write`
    /// fault site (the page stayed dirty).
    pub flush_faults: u64,
    /// Fault-ins whose access history was found in the LRU-2 ghost list.
    pub ghost_hits: u64,
    /// Dirty victims synchronously written back on the eviction path.
    pub forced_writebacks: u64,
    /// Index probes answered "absent" by a negative-lookup filter.
    pub filter_negatives: u64,
    /// Index probes that consulted a negative-lookup filter.
    pub filter_probes: u64,
    /// B\*-tree lookups that walked from the root.
    pub descents: u64,
    /// B\*-tree lookups answered on the reader stripe's hinted leaf.
    pub hint_hits: u64,
    /// Currently dirty pages (mutated since their last flush).
    pub dirty: usize,
    /// Currently resident pages.
    pub resident: usize,
    /// Live (allocated, not freed) pages.
    pub live: usize,
}

/// One buffered page: its bytes plus the buffer-manager state the WAL
/// integration needs. The bytes persist across eviction — an evicted
/// frame models a page that only exists on disk.
#[derive(Debug)]
struct Frame {
    data: Box<[u8]>,
    /// LSN of the log record covering the latest mutation (`0` = never
    /// dirtied under a WAL).
    page_lsn: u64,
    /// Mutated since the last flush.
    dirty: bool,
    /// The file backend holds this page's bytes as of its last flush
    /// (always false in simulated mode).
    persisted: bool,
    /// Pinned frames (e.g. the tree root) are never evicted.
    pins: u32,
    /// In the buffer? Atomic because reads (`&self`) fault pages in.
    resident: AtomicBool,
    /// LRU-2 history: start of the current uncorrelated reference burst
    /// (`0` = never referenced).
    hist1: AtomicU64,
    /// LRU-2 history: start of the previous uncorrelated burst (`0` =
    /// referenced at most once — infinite backward K-distance).
    hist2: AtomicU64,
}

/// Bounded memory of recently evicted pages' LRU-2 histories. A page
/// faulting back in while its entry survives resumes its history (a
/// *ghost hit*); entries expired from the queue are forgotten for good,
/// so the policy's memory stays O(budget) like a real LRU-2.
#[derive(Debug, Default)]
struct GhostList {
    /// Eviction order (front = oldest).
    queue: VecDeque<PageId>,
    /// PageId → (hist1, hist2) at eviction time. Parallel to `queue`.
    entries: std::collections::HashMap<PageId, (u64, u64)>,
}

impl GhostList {
    fn remember(&mut self, id: PageId, hist1: u64, hist2: u64, cap: usize) {
        if self.entries.insert(id, (hist1, hist2)).is_none() {
            self.queue.push_back(id);
        }
        while self.queue.len() > cap {
            if let Some(old) = self.queue.pop_front() {
                self.entries.remove(&old);
            }
        }
    }

    fn recall(&mut self, id: PageId) -> Option<(u64, u64)> {
        let hist = self.entries.remove(&id)?;
        if let Some(pos) = self.queue.iter().position(|&q| q == id) {
            self.queue.remove(pos);
        }
        Some(hist)
    }

    fn forget(&mut self, id: PageId) {
        if self.entries.remove(&id).is_some() {
            if let Some(pos) = self.queue.iter().position(|&q| q == id) {
                self.queue.remove(pos);
            }
        }
    }
}

/// Ticks a thread reserves from the pool's LRU clock at a time. One
/// shared read-modify-write per batch instead of one per page access
/// (at 16, that word still cost two clients on one document a tenth of
/// their read throughput). The price: clocks of concurrent threads run
/// up to a batch apart, so a gap measured *across* threads — taken only
/// when a thread leaves its own burst window, see [`PagePool::touch`] —
/// is blurred by that much. A single thread's clock is exact.
const TICK_BATCH: u64 = 64;

/// A pool of fixed-size pages with a freelist and (optionally) a bounded
/// buffer. Not itself thread-safe: the owning B-tree wraps it (together
/// with the tree root) in its latch.
#[derive(Debug)]
pub struct PagePool {
    page_size: usize,
    frames: Vec<Option<Frame>>,
    free: Vec<PageId>,
    stats: StorageStats,
    /// Simulated per-read latency (spin-waited) — the stand-in for the
    /// paper's disk accesses; zero by default.
    read_latency: Duration,
    /// Simulated per-write-back latency, charged as
    /// [`CostKind::PageWrite`]; zero by default.
    write_latency: Duration,
    /// Extra latency charged (and spin-waited) only on a fault-in, so
    /// hit-rate differences become throughput differences in the bench.
    miss_latency: Duration,
    /// Residency budget; `None` = unbounded (every page stays resident).
    max_resident: Option<usize>,
    /// Which frame goes when the budget is exceeded.
    policy: EvictPolicy,
    /// Real page file, when configured; `None` = simulated storage.
    backend: Option<FileBackend>,
    /// LRU-2 history of recently evicted pages (mutex: reads fault pages
    /// in under `&self`).
    ghosts: Mutex<GhostList>,
    /// Ghost entries retained (≈ 2× the residency budget).
    ghost_cap: usize,
    /// Currently resident frames (atomic: reads fault pages in).
    resident: AtomicUsize,
    /// LRU clock: the last tick reserved. Threads reserve
    /// [`TICK_BATCH`] ticks at a time (see [`PagePool::next_tick`]). On
    /// a line of its own: the fields around it are read on every access.
    tick: CacheLine<AtomicU64>,
    /// Per-stripe share of the LRU clock: the last tick the stripe's
    /// thread handed out of its reserved batch.
    local_ticks: [CacheLine<AtomicU64>; STRIPES],
    /// LRU clock value of each page's last access, one vector per stripe,
    /// indexed by page id (`0` = not accessed through this stripe). A
    /// thread records its accesses in its own stripe's vector only; a
    /// page's last use is the maximum over the stripes
    /// ([`PagePool::last_use`]). Kept out of [`Frame`] so that a thread
    /// re-reading a page inside its own burst window neither reads nor
    /// writes a word another thread writes.
    last_use: [Vec<AtomicU64>; STRIPES],
    /// Hit/miss counting window: see [`PoolConfig::burst_ticks`].
    burst_ticks: u64,
}

impl PagePool {
    /// Creates an empty pool of `page_size`-byte pages.
    pub fn new(page_size: usize, stats: StorageStats) -> Self {
        Self::with_latency(page_size, stats, Duration::ZERO)
    }

    /// Creates a pool whose reads spin-wait `read_latency` each —
    /// converting page-access counts into wall-clock time the way the
    /// paper's IDE disk did (see DESIGN.md substitutions and CLUSTER2).
    pub fn with_latency(page_size: usize, stats: StorageStats, read_latency: Duration) -> Self {
        Self::with_budget(page_size, stats, read_latency, None)
    }

    /// Creates a pool with a residency budget: at most `max_resident`
    /// frames stay buffered; the excess is evicted under the default
    /// (LRU-2) policy.
    pub fn with_budget(
        page_size: usize,
        stats: StorageStats,
        read_latency: Duration,
        max_resident: Option<usize>,
    ) -> Self {
        Self::with_config(
            PoolConfig {
                page_size,
                read_latency,
                max_resident,
                ..PoolConfig::default()
            },
            stats,
        )
    }

    /// Creates a pool from a full [`PoolConfig`]. If a file backend is
    /// configured but the page file cannot be opened, the pool poisons
    /// the engine (the transaction layer surfaces it as a crash) and
    /// falls back to simulated storage so in-flight readers can drain.
    pub fn with_config(cfg: PoolConfig, stats: StorageStats) -> Self {
        let backend = match cfg.backend {
            PageBackendConfig::Sim => None,
            PageBackendConfig::File { ref path } => match FileBackend::open(path, cfg.page_size) {
                Ok(be) => Some(be),
                Err(_) => {
                    stats.poison();
                    None
                }
            },
        };
        let ghost_cap = cfg.max_resident.map(|m| (m * 2).max(8)).unwrap_or(1024);
        PagePool {
            page_size: cfg.page_size,
            frames: vec![None], // index 0 unused (NO_PAGE)
            free: Vec::new(),
            stats,
            read_latency: cfg.read_latency,
            write_latency: cfg.write_latency,
            miss_latency: cfg.miss_latency,
            max_resident: cfg.max_resident,
            policy: cfg.policy,
            backend,
            ghosts: Mutex::new(GhostList::default()),
            ghost_cap,
            resident: AtomicUsize::new(0),
            tick: CacheLine::default(),
            local_ticks: Default::default(),
            // Index 0 is unused, as in `frames`.
            last_use: std::array::from_fn(|_| vec![AtomicU64::new(0)]),
            burst_ticks: cfg.burst_ticks,
        }
    }

    /// The configured eviction policy.
    pub fn policy(&self) -> EvictPolicy {
        self.policy
    }

    /// Whether this pool writes pages through to a real page file.
    pub fn is_file_backed(&self) -> bool {
        self.backend.is_some()
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Allocates a zeroed page (resident, clean).
    pub fn alloc(&mut self) -> PageId {
        self.evict_to_budget(1);
        self.stats.count_alloc();
        let t = self.next_tick();
        let frame = Frame {
            data: vec![0u8; self.page_size].into_boxed_slice(),
            page_lsn: 0,
            dirty: false,
            persisted: false,
            pins: 0,
            resident: AtomicBool::new(true),
            hist1: AtomicU64::new(t),
            hist2: AtomicU64::new(0),
        };
        self.resident.fetch_add(1, Ordering::Relaxed);
        let id = if let Some(id) = self.free.pop() {
            self.frames[id as usize] = Some(frame);
            id
        } else {
            self.frames.push(Some(frame));
            for stripe in &mut self.last_use {
                stripe.push(AtomicU64::new(0));
            }
            (self.frames.len() - 1) as PageId
        };
        // A reused id must not resume the previous tenant's history (or
        // ever read its stale file copy: `persisted` starts false).
        self.ghosts.lock().forget(id);
        let me = xtc_obs::stripe();
        for (s, stripe) in self.last_use.iter_mut().enumerate() {
            *stripe[id as usize].get_mut() = if s == me { t } else { 0 };
        }
        id
    }

    /// LRU clock value of a page's last access by any thread.
    fn last_use(&self, id: usize) -> u64 {
        self.last_use
            .iter()
            .map(|stripe| stripe[id].load(Ordering::Relaxed))
            .max()
            .expect("at least one stripe")
    }

    /// Eviction-priority key: frames are evicted in ascending key order.
    /// Under LRU-2 the key is (penultimate reference, last use): pages
    /// seen in only one burst (`hist2 == 0`) sort before every
    /// twice-referenced page — a sequential scan cannot displace the hot
    /// set. Under clean-LRU it degenerates to last-use order.
    fn evict_key(&self, id: usize, frame: &Frame) -> (u64, u64) {
        match self.policy {
            EvictPolicy::CleanLru => (0, self.last_use(id)),
            EvictPolicy::Lru2 { .. } => (frame.hist2.load(Ordering::Relaxed), self.last_use(id)),
        }
    }

    /// Frees a page back to the pool.
    pub fn free(&mut self, id: PageId) {
        let frame = self.frames[id as usize]
            .take()
            .expect("double free of page");
        if frame.resident.load(Ordering::Relaxed) {
            self.resident.fetch_sub(1, Ordering::Relaxed);
        }
        self.ghosts.lock().forget(id);
        self.stats.count_free();
        self.free.push(id);
    }

    /// A thread that itself touched a resident page at most this many
    /// ticks ago is inside the page's current burst whatever other
    /// threads did since: no hit to count, no history to shift.
    fn own_burst_window(&self) -> u64 {
        match self.policy {
            EvictPolicy::CleanLru => self.burst_ticks,
            EvictPolicy::Lru2 { correlated_ticks } => self.burst_ticks.min(correlated_ticks),
        }
    }

    /// The next LRU-clock tick. The calling thread's stripe hands out
    /// the ticks of a reserved batch one by one and reserves the next
    /// batch when it runs out, so a page access writes the shared clock
    /// word once in [`TICK_BATCH`] times. A single thread sees exactly
    /// the sequence 1, 2, 3, … of an unbatched clock. Threads sharing a
    /// stripe may hand out a tick twice, which only ties two accesses.
    fn next_tick(&self) -> u64 {
        let local = &self.local_ticks[xtc_obs::stripe()].0;
        let last = local.load(Ordering::Relaxed);
        let t = if last.is_multiple_of(TICK_BATCH) {
            self.tick.0.fetch_add(TICK_BATCH, Ordering::Relaxed) + 1
        } else {
            last + 1
        };
        local.store(t, Ordering::Relaxed);
        t
    }

    /// Touches a frame's access metadata: advances the LRU clock,
    /// maintains the LRU-2 reference history, and counts a buffer hit or
    /// (fault-in) miss. Misses count per fault-in; hits count once per
    /// *uncorrelated burst* — a transaction hammering one resident page
    /// with node-grain reads is a single logical reference (the fix-level
    /// hit ratio buffer managers report), under both eviction policies.
    /// On a miss: the ghost list may resume the page's evicted history,
    /// a file backend re-reads (and CRC-verifies) the persisted copy,
    /// and the configured miss latency is charged.
    ///
    /// A thread re-touching a resident page inside its own burst window
    /// writes one word of its own stripe and nothing else; any other hit
    /// writes frame words only where their value changes — the history
    /// at a burst boundary, `resident` never.
    fn touch(&self, id: PageId, frame: &Frame) {
        let t = self.next_tick();
        let mine = &self.last_use[xtc_obs::stripe()][id as usize];
        let own_prev = mine.load(Ordering::Relaxed);
        let same_burst = own_prev != 0
            && t.saturating_sub(own_prev) <= self.own_burst_window()
            && frame.resident.load(Ordering::Relaxed);
        // Without that shortcut the gap is taken from the page's last
        // access by any thread. A concurrent thread's batch may be ahead
        // of ours: the gap then reads as zero.
        let prev = if same_burst { own_prev } else { self.last_use(id as usize) };
        // Threads sharing a stripe may be a batch apart: the clock never
        // runs backwards on a page.
        if t > own_prev {
            mine.store(t, Ordering::Relaxed);
        }
        if same_burst {
            // The page's last access is at least as recent as ours, so
            // this one continues its burst: no hit, no history shift.
            return;
        }
        if let EvictPolicy::Lru2 { correlated_ticks } = self.policy {
            let h1 = frame.hist1.load(Ordering::Relaxed);
            if h1 == 0 {
                frame.hist1.store(t, Ordering::Relaxed);
            } else if t.saturating_sub(prev) > correlated_ticks {
                // A new uncorrelated burst: the burst that just ended
                // becomes the penultimate reference.
                frame.hist2.store(h1, Ordering::Relaxed);
                frame.hist1.store(t, Ordering::Relaxed);
            }
            // else: same burst (correlated re-reference) — no shift.
        }
        // Load before swap: only a fault-in writes the flag. Two threads
        // faulting the same page in race on the swap; one counts the miss.
        if frame.resident.load(Ordering::Relaxed) || frame.resident.swap(true, Ordering::Relaxed) {
            if prev == 0 || t.saturating_sub(prev) > self.burst_ticks {
                self.stats.count_hit();
            }
            return;
        }
        self.stats.count_miss();
        self.resident.fetch_add(1, Ordering::Relaxed);
        if let EvictPolicy::Lru2 { .. } = self.policy {
            if let Some((h1, _h2)) = self.ghosts.lock().recall(id) {
                // Resume the evicted history: this fault-in is a fresh
                // uncorrelated reference, the pre-eviction burst is the
                // penultimate one.
                frame.hist2.store(h1, Ordering::Relaxed);
                self.stats.count_ghost_hit();
                self.stats
                    .obs()
                    .record(EventKind::PoolGhostHit { page: u64::from(id) });
            }
        }
        // File mode: the fault-in is a real device read — `pread` the
        // persisted copy back and verify its CRC. Memory stays
        // authoritative (the frame's bytes are returned either way), but
        // a corrupted on-disk frame poisons the engine instead of being
        // silently ignored.
        if let Some(be) = &self.backend {
            if frame.persisted && !frame.dirty && be.read_page(id).is_err() {
                self.stats.poison();
            }
        }
        if !self.miss_latency.is_zero() {
            self.stats
                .obs()
                .charge(CostKind::PageRead, self.miss_latency.as_micros() as u64);
            let until = std::time::Instant::now() + self.miss_latency;
            while std::time::Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }

    /// Read access to a page (counted; spin-waits the configured
    /// simulated latency). Faults the page in if it was evicted.
    pub fn read(&self, id: PageId) -> &[u8] {
        self.stats.count_read();
        // Virtual time: a read costs its *configured* latency — the
        // deterministic simulated I/O the paper's figures argue about —
        // regardless of how long the spin-wait below takes in wall time.
        let obs = self.stats.obs();
        obs.charge(CostKind::PageRead, self.read_latency.as_micros() as u64);
        obs.record(EventKind::PageRead {
            page: u64::from(id),
        });
        // Chaos-test hook: page reads have no error path, so an armed
        // `Error` action degrades to a no-op and only `Delay` injects.
        xtc_failpoint::fire_delay_in(self.stats.failpoint_scope(), "store.page_read");
        // Fault site `store.page_read_io` models the read's device op:
        // transient faults are absorbed in-site with backoff; a permanent
        // fault poisons the engine (the transaction layer converts that
        // into an abort or a WAL crash — never a panic) and the stale
        // in-memory bytes are returned so in-flight readers can drain.
        match xtc_failpoint::eval_io_in(
            self.stats.failpoint_scope(),
            "store.page_read_io",
            IO_ATTEMPTS,
            IO_BACKOFF_BASE,
        ) {
            xtc_failpoint::IoFault::Ok => {}
            xtc_failpoint::IoFault::Transient { retries } => {
                if retries > 0 {
                    let slept =
                        IO_BACKOFF_BASE.as_micros() as u64 * ((1u64 << retries.min(16)) - 1);
                    obs.charge(CostKind::RetryBackoff, slept);
                }
            }
            xtc_failpoint::IoFault::Permanent => self.stats.poison(),
        }
        if !self.read_latency.is_zero() {
            let until = std::time::Instant::now() + self.read_latency;
            while std::time::Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        let frame = self.frames[id as usize]
            .as_ref()
            .expect("read of freed page");
        self.touch(id, frame);
        &frame.data
    }

    /// Write access to a page (counted). Marks the frame dirty and stamps
    /// it with the ambient LSN ([`StorageStats::set_current_lsn`]) — the
    /// WAL rule's bookkeeping.
    pub fn write(&mut self, id: PageId) -> &mut [u8] {
        self.evict_to_budget(0);
        self.stats.count_write();
        self.stats.obs().record(EventKind::PageWrite {
            page: u64::from(id),
        });
        let lsn = self.stats.current_lsn();
        {
            let frame = self.frames[id as usize]
                .as_ref()
                .expect("write of freed page");
            self.touch(id, frame);
        }
        let frame = self.frames[id as usize].as_mut().unwrap();
        frame.dirty = true;
        // The bytes are about to diverge from the file copy.
        frame.persisted = false;
        if lsn > frame.page_lsn {
            frame.page_lsn = lsn;
        }
        &mut frame.data
    }

    /// The page's bytes if it is in the buffer, uncounted and with no
    /// trace in the access history: a look at a buffered page that is not
    /// yet known to be the page wanted ([`PagePool::read`] once it is).
    pub fn peek(&self, id: PageId) -> Option<&[u8]> {
        let frame = self.frames[id as usize].as_ref()?;
        frame
            .resident
            .load(Ordering::Relaxed)
            .then_some(&*frame.data)
    }

    /// Pins a page: it will not be evicted until unpinned.
    pub fn pin(&mut self, id: PageId) {
        if let Some(frame) = self.frames[id as usize].as_mut() {
            frame.pins += 1;
        }
    }

    /// Releases one pin.
    pub fn unpin(&mut self, id: PageId) {
        if let Some(frame) = self.frames[id as usize].as_mut() {
            frame.pins = frame.pins.saturating_sub(1);
        }
    }

    /// Evicts clean, unpinned frames (in [`EvictPolicy`] order) until the
    /// resident count fits the budget with `headroom` slots to spare.
    /// Dirty and pinned frames are never plain victims — a dirty page may
    /// cover log records that are not durable yet; evicting it would
    /// break the WAL rule. When no clean victim exists, the pool
    /// *force-writes* the best WAL-safe dirty victim (bounded attempts)
    /// before giving up and overcommitting.
    fn evict_to_budget(&mut self, headroom: usize) {
        let Some(max) = self.max_resident else {
            return;
        };
        let max = max.saturating_sub(headroom).max(1);
        while self.resident.load(Ordering::Relaxed) > max {
            let victim = self
                .frames
                .iter()
                .enumerate()
                .filter_map(|(i, f)| f.as_ref().map(|f| (i, f)))
                .filter(|(_, f)| f.resident.load(Ordering::Relaxed) && !f.dirty && f.pins == 0)
                .min_by_key(|(i, f)| self.evict_key(*i, f))
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    // File mode: spill a clean-but-never-persisted frame
                    // before it leaves the buffer, so the later fault-in
                    // has a real on-disk copy to verify. A spill failure
                    // is not fatal — memory stays authoritative.
                    let frame = self.frames[i].as_mut().unwrap();
                    if let Some(be) = &self.backend {
                        if !frame.persisted {
                            match be.write_page(i as PageId, frame.page_lsn, &frame.data) {
                                Ok(()) => frame.persisted = true,
                                Err(_) => self.stats.count_flush_fault(),
                            }
                        }
                    }
                    frame.resident.store(false, Ordering::Relaxed);
                    if let EvictPolicy::Lru2 { .. } = self.policy {
                        // Move the reference history into the ghost list;
                        // the frame starts cold if it faults back in
                        // after its ghost entry expires.
                        let h1 = frame.hist1.swap(0, Ordering::Relaxed);
                        let h2 = frame.hist2.swap(0, Ordering::Relaxed);
                        if h1 != 0 {
                            self.ghosts.lock().remember(i as PageId, h1, h2, self.ghost_cap);
                        }
                    }
                    self.resident.fetch_sub(1, Ordering::Relaxed);
                    self.stats.count_eviction();
                    self.stats.obs().record(EventKind::PageEvict { page: i as u64 });
                }
                None => {
                    // Everything resident is dirty or pinned. Force a
                    // synchronous write-back of a WAL-safe dirty victim
                    // so eviction can make progress; only overcommit
                    // when that fails too.
                    if !self.force_writeback_victim() {
                        self.stats.count_evict_blocked();
                        return;
                    }
                }
            }
        }
    }

    /// Synchronously writes back the best WAL-safe dirty victim
    /// (`page_lsn <= durable_lsn`, unpinned, resident) so eviction can
    /// proceed, trying up to [`FORCED_WRITEBACK_TRIES`] candidates when
    /// the `pool.evict_write` fault site rejects one. Returns whether a
    /// page was cleaned.
    fn force_writeback_victim(&mut self) -> bool {
        let durable = self.stats.durable_lsn();
        let mut candidates: Vec<(usize, (u64, u64))> = self
            .frames
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|f| (i, f)))
            .filter(|(_, f)| {
                f.resident.load(Ordering::Relaxed)
                    && f.dirty
                    && f.pins == 0
                    && f.page_lsn <= durable
            })
            .map(|(i, f)| (i, self.evict_key(i, f)))
            .collect();
        candidates.sort_by_key(|&(_, key)| key);
        for &(i, _) in candidates.iter().take(FORCED_WRITEBACK_TRIES) {
            match xtc_failpoint::eval_io_in(
                self.stats.failpoint_scope(),
                "pool.evict_write",
                IO_ATTEMPTS,
                IO_BACKOFF_BASE,
            ) {
                xtc_failpoint::IoFault::Permanent => {
                    self.stats.count_flush_fault();
                    continue;
                }
                xtc_failpoint::IoFault::Transient { retries } => {
                    if retries > 0 {
                        let slept =
                            IO_BACKOFF_BASE.as_micros() as u64 * ((1u64 << retries.min(16)) - 1);
                        self.stats.obs().charge(CostKind::RetryBackoff, slept);
                    }
                }
                xtc_failpoint::IoFault::Ok => {}
            }
            let frame = self.frames[i].as_mut().unwrap();
            if let Some(be) = &self.backend {
                if be.write_page(i as PageId, frame.page_lsn, &frame.data).is_err() {
                    self.stats.count_flush_fault();
                    continue;
                }
                frame.persisted = true;
            }
            frame.dirty = false;
            self.stats.count_flush();
            self.stats.count_forced_writeback();
            let obs = self.stats.obs();
            obs.charge(CostKind::PageWrite, self.write_latency.as_micros() as u64);
            obs.record(EventKind::PageWriteback {
                page: i as u64,
                forced: true,
            });
            return true;
        }
        false
    }

    /// Writes back every dirty page whose covering log record is durable
    /// (`page_lsn <= durable_lsn`) and returns how many were flushed.
    /// Pages dirtied past `durable_lsn` stay dirty — flushing them would
    /// violate the WAL rule. With `durable_lsn == u64::MAX` this is an
    /// unconditional flush (no-WAL shutdown).
    pub fn flush_dirty(&mut self, durable_lsn: u64) -> usize {
        let mut flushed = 0;
        for (i, slot) in self.frames.iter_mut().enumerate() {
            let Some(frame) = slot.as_mut() else { continue };
            if frame.dirty && frame.page_lsn <= durable_lsn {
                // Fault site `pool.evict_write` models the write-back's
                // device op. A permanent fault leaves the page dirty —
                // harmless under the WAL rule (the covering log record
                // is durable; a later flush simply retries) — and is
                // counted so chaos reports can assert it happened.
                match xtc_failpoint::eval_io_in(
                    self.stats.failpoint_scope(),
                    "pool.evict_write",
                    IO_ATTEMPTS,
                    IO_BACKOFF_BASE,
                ) {
                    xtc_failpoint::IoFault::Permanent => {
                        self.stats.count_flush_fault();
                        continue;
                    }
                    xtc_failpoint::IoFault::Transient { retries } => {
                        if retries > 0 {
                            let slept = IO_BACKOFF_BASE.as_micros() as u64
                                * ((1u64 << retries.min(16)) - 1);
                            self.stats.obs().charge(CostKind::RetryBackoff, slept);
                        }
                    }
                    xtc_failpoint::IoFault::Ok => {}
                }
                if let Some(be) = &self.backend {
                    if be
                        .write_page(i as PageId, frame.page_lsn, &frame.data)
                        .is_err()
                    {
                        // Real device write failed: the page stays dirty
                        // (same contract as a permanent injected fault).
                        self.stats.count_flush_fault();
                        continue;
                    }
                    frame.persisted = true;
                }
                frame.dirty = false;
                self.stats.count_flush();
                let obs = self.stats.obs();
                obs.charge(CostKind::PageWrite, self.write_latency.as_micros() as u64);
                obs.record(EventKind::PageWriteback {
                    page: i as u64,
                    forced: false,
                });
                flushed += 1;
            }
        }
        if flushed > 0 {
            if let Some(be) = &self.backend {
                // Checkpoint integration: flushed pages are made durable
                // (the WAL synced first; see `XtcDb::checkpoint`).
                if be.sync().is_err() {
                    self.stats.count_flush_fault();
                }
            }
        }
        flushed
    }

    /// Number of currently dirty pages.
    pub fn dirty_pages(&self) -> usize {
        self.frames
            .iter()
            .flatten()
            .filter(|f| f.dirty)
            .count()
    }

    /// Number of live (allocated, not freed) pages.
    pub fn live_pages(&self) -> usize {
        self.frames.iter().filter(|p| p.is_some()).count()
    }

    /// Buffer-manager snapshot for this pool.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            hits: self.stats.inner.buffer_hits.load(),
            misses: self.stats.inner.buffer_misses.load(Ordering::Relaxed),
            flushes: self.stats.inner.page_flushes.load(Ordering::Relaxed),
            evictions: self.stats.inner.evictions.load(Ordering::Relaxed),
            evict_blocked: self.stats.inner.evict_blocked.load(Ordering::Relaxed),
            flush_faults: self.stats.inner.flush_faults.load(Ordering::Relaxed),
            ghost_hits: self.stats.inner.ghost_hits.load(Ordering::Relaxed),
            forced_writebacks: self.stats.inner.forced_writebacks.load(Ordering::Relaxed),
            filter_negatives: self.stats.inner.filter_negatives.load(Ordering::Relaxed),
            filter_probes: self.stats.inner.filter_probes.load(Ordering::Relaxed),
            descents: self.stats.inner.descents.load(),
            hint_hits: self.stats.inner.hint_hits.load(),
            dirty: self.dirty_pages(),
            resident: self.resident.load(Ordering::Relaxed),
            live: self.live_pages(),
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// Checks the buffer-manager invariants the property tests lean on:
    /// the resident counter matches the frames, no page sits on both the
    /// real and the ghost queue, pinned pages are never evicted, evicted
    /// frames carry no live LRU-2 history, and the ghost list respects
    /// its bound. Test support, not API.
    #[doc(hidden)]
    pub fn debug_check_coherence(&self) -> Result<(), String> {
        let ghosts = self.ghosts.lock();
        if ghosts.queue.len() != ghosts.entries.len() {
            return Err(format!(
                "ghost queue/entries out of sync: {} vs {}",
                ghosts.queue.len(),
                ghosts.entries.len()
            ));
        }
        if ghosts.queue.len() > self.ghost_cap {
            return Err(format!(
                "ghost list over capacity: {} > {}",
                ghosts.queue.len(),
                self.ghost_cap
            ));
        }
        let lru2 = matches!(self.policy, EvictPolicy::Lru2 { .. });
        let mut resident_count = 0usize;
        for (i, slot) in self.frames.iter().enumerate() {
            let id = i as PageId;
            let Some(frame) = slot.as_ref() else {
                if ghosts.entries.contains_key(&id) {
                    return Err(format!("ghost entry for dead page {id}"));
                }
                continue;
            };
            let resident = frame.resident.load(Ordering::Relaxed);
            if resident {
                resident_count += 1;
                if ghosts.entries.contains_key(&id) {
                    return Err(format!("page {id} on both real and ghost queues"));
                }
            } else {
                if frame.pins > 0 {
                    return Err(format!("pinned page {id} was evicted"));
                }
                if lru2 && frame.hist1.load(Ordering::Relaxed) != 0 {
                    return Err(format!("evicted page {id} kept live LRU-2 history"));
                }
            }
        }
        let counter = self.resident.load(Ordering::Relaxed);
        if counter != resident_count {
            return Err(format!(
                "resident counter {counter} != {resident_count} resident frames"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_reuse() {
        let stats = StorageStats::default();
        let mut pool = PagePool::new(128, stats.clone());
        let a = pool.alloc();
        let b = pool.alloc();
        assert_ne!(a, b);
        assert_ne!(a, NO_PAGE);
        pool.free(a);
        let c = pool.alloc();
        assert_eq!(c, a, "freed pages are reused");
        assert_eq!(pool.live_pages(), 2);
        assert_eq!(stats.page_allocs(), 3);
        assert_eq!(stats.page_frees(), 1);
    }

    #[test]
    fn access_counting() {
        let stats = StorageStats::default();
        let mut pool = PagePool::new(64, stats.clone());
        let p = pool.alloc();
        let _ = pool.read(p);
        let _ = pool.read(p);
        pool.write(p)[0] = 7;
        assert_eq!(stats.page_reads(), 2);
        assert_eq!(stats.page_writes(), 1);
        assert_eq!(pool.read(p)[0], 7);
    }

    #[test]
    fn writes_dirty_and_stamp_pages_and_flush_respects_wal_rule() {
        let stats = StorageStats::default();
        let mut pool = PagePool::new(64, stats.clone());
        let a = pool.alloc();
        let b = pool.alloc();
        stats.set_current_lsn(5);
        pool.write(a)[0] = 1;
        stats.set_current_lsn(9);
        pool.write(b)[0] = 2;
        assert_eq!(pool.dirty_pages(), 2);
        // Log durable through LSN 5: only page `a` may be flushed.
        assert_eq!(pool.flush_dirty(5), 1);
        assert_eq!(pool.dirty_pages(), 1);
        assert_eq!(pool.flush_dirty(9), 1);
        assert_eq!(pool.dirty_pages(), 0);
        assert_eq!(pool.pool_stats().flushes, 2);
    }

    #[test]
    fn eviction_prefers_clean_lru_and_faults_count_as_misses() {
        let stats = StorageStats::default();
        let mut pool = PagePool::with_budget(64, stats.clone(), Duration::ZERO, Some(2));
        let a = pool.alloc();
        let b = pool.alloc();
        // Allocating a third page must evict the LRU clean page (a).
        let c = pool.alloc();
        let ps = pool.pool_stats();
        assert!(ps.evictions >= 1, "expected an eviction, got {ps:?}");
        assert!(ps.resident <= 2);
        // The evicted page faults back in: its bytes survive.
        pool.write(a)[0] = 42;
        assert_eq!(pool.read(a)[0], 42);
        assert!(pool.pool_stats().misses >= 1);
        let _ = (b, c);
    }

    fn lru2_pool(budget: usize) -> (StorageStats, PagePool) {
        let stats = StorageStats::default();
        let pool = PagePool::with_config(
            PoolConfig {
                page_size: 64,
                max_resident: Some(budget),
                // Zero correlated window: every re-reference is a new
                // uncorrelated burst, which keeps the tests compact.
                policy: EvictPolicy::Lru2 { correlated_ticks: 0 },
                ..PoolConfig::default()
            },
            stats.clone(),
        );
        (stats, pool)
    }

    #[test]
    fn lru2_scan_does_not_flush_the_hot_set() {
        let (_stats, mut pool) = lru2_pool(4);
        let hot_a = pool.alloc();
        let hot_b = pool.alloc();
        // Re-reference the hot pages: both now have two uncorrelated
        // references (finite backward K-distance).
        let _ = pool.read(hot_a);
        let _ = pool.read(hot_b);
        // A sequential scan: six pages referenced once each (with
        // `correlated_ticks: 0` a second touch would already count as a
        // new burst, so the scan must stay single-touch).
        let _scan: Vec<PageId> = (0..6).map(|_| pool.alloc()).collect();
        // The scan evicted pages, but only its own: the hot set is still
        // resident, so re-reading it adds no misses.
        assert!(pool.pool_stats().evictions >= 4);
        let misses_before = pool.pool_stats().misses;
        let _ = pool.read(hot_a);
        let _ = pool.read(hot_b);
        assert_eq!(
            pool.pool_stats().misses,
            misses_before,
            "scan displaced the hot set"
        );
    }

    #[test]
    fn clean_lru_baseline_does_flush_the_hot_set() {
        // The same access pattern under the baseline policy evicts the
        // hot pages — the contrast the storage bench measures.
        let stats = StorageStats::default();
        let mut pool = PagePool::with_config(
            PoolConfig {
                page_size: 64,
                max_resident: Some(4),
                policy: EvictPolicy::CleanLru,
                ..PoolConfig::default()
            },
            stats.clone(),
        );
        let hot_a = pool.alloc();
        let hot_b = pool.alloc();
        let _ = pool.read(hot_a);
        let _ = pool.read(hot_b);
        for _ in 0..6 {
            let _ = pool.alloc();
        }
        let misses_before = pool.pool_stats().misses;
        let _ = pool.read(hot_a);
        let _ = pool.read(hot_b);
        assert!(
            pool.pool_stats().misses > misses_before,
            "clean-LRU unexpectedly survived the scan"
        );
    }

    #[test]
    fn ghost_list_resumes_history_on_fault_in() {
        let (stats, mut pool) = lru2_pool(3);
        let hot = pool.alloc();
        let _ = pool.read(hot); // two uncorrelated references
        // Enough once-read pages to push `hot` out despite its history
        // (eventually everything must go — the budget is 3).
        for _ in 0..8 {
            let p = pool.alloc();
            let _ = pool.read(p);
        }
        // Fault the hot page back in: its history comes from the ghosts.
        let _ = pool.read(hot);
        assert!(stats.ghost_hits() >= 1, "expected a ghost hit");
        assert_eq!(pool.pool_stats().ghost_hits, stats.ghost_hits());
    }

    #[test]
    fn blocked_eviction_forces_writeback_of_wal_safe_dirty_pages() {
        let (stats, mut pool) = lru2_pool(2);
        let a = pool.alloc();
        let b = pool.alloc();
        stats.set_current_lsn(4);
        pool.write(a)[0] = 1;
        pool.write(b)[0] = 2;
        // The WAL is durable past both pages' LSNs: eviction may clean
        // them synchronously instead of overcommitting.
        stats.set_durable_lsn(10);
        let _c = pool.alloc();
        let ps = pool.pool_stats();
        assert!(
            ps.forced_writebacks >= 1,
            "expected a forced write-back: {ps:?}"
        );
        assert_eq!(ps.evict_blocked, 0, "eviction should not have blocked");
        assert!(ps.resident <= 2);
    }

    #[test]
    fn file_backend_round_trips_evicted_pages_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("xtc-pool-file-{}", std::process::id()));
        let path = dir.join("doc.pages");
        let stats = StorageStats::default();
        let mut pool = PagePool::with_config(
            PoolConfig {
                page_size: 64,
                max_resident: Some(2),
                // Plain LRU keeps the victim order of this test
                // deterministic (`a` must leave the buffer twice).
                policy: EvictPolicy::CleanLru,
                backend: PageBackendConfig::File { path: path.clone() },
                ..PoolConfig::default()
            },
            stats.clone(),
        );
        assert!(pool.is_file_backed());
        let a = pool.alloc();
        pool.write(a)[0] = 42;
        // Flush persists `a` into the page file (no WAL: flush-all).
        assert_eq!(pool.flush_dirty(u64::MAX), 1);
        // Evict `a` (budget 2, headroom on alloc) and fault it back in:
        // the fault-in preads + CRC-verifies the persisted copy.
        let _b = pool.alloc();
        let _c = pool.alloc();
        assert!(pool.pool_stats().evictions >= 1);
        assert_eq!(pool.read(a)[0], 42);
        assert!(!stats.is_poisoned());
        // Corrupt the on-disk frame behind the pool's back; the next
        // fault-in of `a` must poison the engine, not serve silently.
        {
            use std::os::unix::fs::FileExt;
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            let slot = (crate::backend::PAGE_HEADER + 64) as u64;
            f.write_all_at(&[0xFF; 8], a as u64 * slot + crate::backend::PAGE_HEADER as u64)
                .unwrap();
        }
        let _d = pool.alloc(); // pushes `a` (clean, persisted) out again
        let _e = pool.alloc();
        let _ = pool.read(a);
        assert!(
            stats.is_poisoned(),
            "corrupted page file must poison the engine: {:?}",
            pool.pool_stats()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_and_pinned_pages_are_not_evicted() {
        let stats = StorageStats::default();
        let mut pool = PagePool::with_budget(64, stats.clone(), Duration::ZERO, Some(2));
        let a = pool.alloc();
        let b = pool.alloc();
        pool.pin(a);
        stats.set_current_lsn(3);
        pool.write(b)[0] = 1; // b dirty, a pinned: no victims
        let _c = pool.alloc();
        let ps = pool.pool_stats();
        assert!(ps.evict_blocked >= 1, "eviction should have been blocked: {ps:?}");
        // Flush cleans b; the next allocation can evict it.
        pool.flush_dirty(3);
        let _d = pool.alloc();
        assert!(pool.pool_stats().evictions >= 1);
    }
}
