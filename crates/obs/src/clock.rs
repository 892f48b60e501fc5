//! Virtual-time accounting: a lock-free run-wide clock that accumulates
//! *simulated* microseconds per cost source, so figure-shape assertions
//! can compare deterministic protocol cost instead of wall-clock time.
//!
//! Two charging disciplines coexist:
//!
//! - **Deterministic charges** use the *configured* cost, not a
//!   measurement: a page read charges the configured read latency, a
//!   think pause charges the configured pause. Replaying a seeded run
//!   reproduces these totals exactly.
//! - **Attributed charges** (lock waits, WAL flush waits) use the
//!   measured wall time of the wait. They are zero in single-threaded
//!   seeded runs — which keeps golden traces deterministic — and under
//!   concurrency they attribute blocking to its cause instead of leaving
//!   it smeared over elapsed time.

use serde::Serialize;

use crate::counter::Counter;

/// The simulated cost sources the virtual clock distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// Simulated page-read latency (configured per store, charged once
    /// per pool read miss-or-hit, like the paper's I/O cost model).
    PageRead,
    /// Client think time between operations (TaMix pacing waits).
    Think,
    /// Time spent blocked in the lock table waiting for a grant.
    LockWait,
    /// Time spent waiting for a WAL group-commit flush to become durable.
    WalFlush,
    /// Retry-loop backoff pauses between attempts of an aborted
    /// transaction (seeded jittered exponential delays).
    RetryBackoff,
    /// Crash-recovery work (analysis + redo + undo passes), charged once
    /// per `recover_from` on the recovered database's clock.
    Recovery,
    /// Replication apply work on a read replica: the configured
    /// per-record redo cost, charged on the replica engine's clock as
    /// shipped WAL records are replayed. Replication lag is derived from
    /// this same cost model, so lag numbers are deterministic.
    ReplApply,
    /// Simulated page-write latency: charged once per page flushed to
    /// the backing store (checkpoint flushes, background writeback,
    /// forced eviction writebacks). Zero-cost by default so existing
    /// deterministic runs are unchanged; the storage bench configures a
    /// nonzero write latency to price real media.
    PageWrite,
}

impl CostKind {
    /// All cost kinds, in counter order.
    pub const ALL: [CostKind; 8] = [
        CostKind::PageRead,
        CostKind::Think,
        CostKind::LockWait,
        CostKind::WalFlush,
        CostKind::RetryBackoff,
        CostKind::Recovery,
        CostKind::ReplApply,
        CostKind::PageWrite,
    ];

    /// Stable index of this kind into counter arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Snake-case name used in JSON exports.
    pub const fn name(self) -> &'static str {
        match self {
            CostKind::PageRead => "page_read_us",
            CostKind::Think => "think_us",
            CostKind::LockWait => "lock_wait_us",
            CostKind::WalFlush => "wal_flush_us",
            CostKind::RetryBackoff => "backoff_us",
            CostKind::Recovery => "recovery_us",
            CostKind::ReplApply => "repl_apply_us",
            CostKind::PageWrite => "page_write_us",
        }
    }
}

/// A snapshot of virtual-time totals, in microseconds per cost source.
///
/// Produced by [`VirtualClock::snapshot`] and carried per run
/// (`RunReport::vt`) and per transaction (the `TxnEnd` trace event).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct VirtualTimes {
    /// Microseconds charged for simulated page-read latency.
    pub page_read_us: u64,
    /// Microseconds charged for client think time.
    pub think_us: u64,
    /// Microseconds spent blocked on lock grants.
    pub lock_wait_us: u64,
    /// Microseconds spent waiting on WAL group-commit flushes.
    pub wal_flush_us: u64,
    /// Microseconds spent in retry-loop backoff pauses.
    pub backoff_us: u64,
    /// Microseconds of crash-recovery work.
    pub recovery_us: u64,
    /// Microseconds of replication apply work on a replica.
    pub repl_apply_us: u64,
    /// Microseconds charged for simulated page-write latency.
    pub page_write_us: u64,
}

impl VirtualTimes {
    /// The counter for one cost kind.
    pub fn get(&self, kind: CostKind) -> u64 {
        match kind {
            CostKind::PageRead => self.page_read_us,
            CostKind::Think => self.think_us,
            CostKind::LockWait => self.lock_wait_us,
            CostKind::WalFlush => self.wal_flush_us,
            CostKind::RetryBackoff => self.backoff_us,
            CostKind::Recovery => self.recovery_us,
            CostKind::ReplApply => self.repl_apply_us,
            CostKind::PageWrite => self.page_write_us,
        }
    }

    /// Adds `micros` to the counter for one cost kind.
    pub fn add_us(&mut self, kind: CostKind, micros: u64) {
        let slot = match kind {
            CostKind::PageRead => &mut self.page_read_us,
            CostKind::Think => &mut self.think_us,
            CostKind::LockWait => &mut self.lock_wait_us,
            CostKind::WalFlush => &mut self.wal_flush_us,
            CostKind::RetryBackoff => &mut self.backoff_us,
            CostKind::Recovery => &mut self.recovery_us,
            CostKind::ReplApply => &mut self.repl_apply_us,
            CostKind::PageWrite => &mut self.page_write_us,
        };
        *slot = slot.saturating_add(micros);
    }

    /// Sum over all cost sources.
    pub fn total_us(&self) -> u64 {
        self.page_read_us
            .saturating_add(self.think_us)
            .saturating_add(self.lock_wait_us)
            .saturating_add(self.wal_flush_us)
            .saturating_add(self.backoff_us)
            .saturating_add(self.recovery_us)
            .saturating_add(self.repl_apply_us)
            .saturating_add(self.page_write_us)
    }

    /// Simulated protocol cost: I/O plus lock waiting, excluding think
    /// time (which is workload pacing, not protocol work). This is the
    /// quantity the paper's figure arguments compare.
    pub fn protocol_cost_us(&self) -> u64 {
        self.page_read_us
            .saturating_add(self.lock_wait_us)
            .saturating_add(self.wal_flush_us)
            .saturating_add(self.page_write_us)
    }

    /// Component-wise saturating difference (`self - earlier`), used to
    /// scope counters to a measurement window.
    pub fn saturating_sub(self, earlier: VirtualTimes) -> VirtualTimes {
        VirtualTimes {
            page_read_us: self.page_read_us.saturating_sub(earlier.page_read_us),
            think_us: self.think_us.saturating_sub(earlier.think_us),
            lock_wait_us: self.lock_wait_us.saturating_sub(earlier.lock_wait_us),
            wal_flush_us: self.wal_flush_us.saturating_sub(earlier.wal_flush_us),
            backoff_us: self.backoff_us.saturating_sub(earlier.backoff_us),
            recovery_us: self.recovery_us.saturating_sub(earlier.recovery_us),
            repl_apply_us: self.repl_apply_us.saturating_sub(earlier.repl_apply_us),
            page_write_us: self.page_write_us.saturating_sub(earlier.page_write_us),
        }
    }

    /// Component-wise sum, used when aggregating repetitions.
    pub fn merged(self, other: VirtualTimes) -> VirtualTimes {
        VirtualTimes {
            page_read_us: self.page_read_us.saturating_add(other.page_read_us),
            think_us: self.think_us.saturating_add(other.think_us),
            lock_wait_us: self.lock_wait_us.saturating_add(other.lock_wait_us),
            wal_flush_us: self.wal_flush_us.saturating_add(other.wal_flush_us),
            backoff_us: self.backoff_us.saturating_add(other.backoff_us),
            recovery_us: self.recovery_us.saturating_add(other.recovery_us),
            repl_apply_us: self.repl_apply_us.saturating_add(other.repl_apply_us),
            page_write_us: self.page_write_us.saturating_add(other.page_write_us),
        }
    }

    /// Component-wise integer division, used to average repetitions.
    /// Dividing by zero returns the value unchanged.
    pub fn scaled_down(self, n: u64) -> VirtualTimes {
        if n == 0 {
            return self;
        }
        VirtualTimes {
            page_read_us: self.page_read_us / n,
            think_us: self.think_us / n,
            lock_wait_us: self.lock_wait_us / n,
            wal_flush_us: self.wal_flush_us / n,
            backoff_us: self.backoff_us / n,
            recovery_us: self.recovery_us / n,
            repl_apply_us: self.repl_apply_us / n,
            page_write_us: self.page_write_us / n,
        }
    }

    /// Renders the counters as a JSON object (the serde stub in this
    /// workspace is a no-op, so export is hand-rolled).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"page_read_us\":{},\"think_us\":{},\"lock_wait_us\":{},\"wal_flush_us\":{},\
             \"backoff_us\":{},\"recovery_us\":{},\"repl_apply_us\":{},\"page_write_us\":{}}}",
            self.page_read_us,
            self.think_us,
            self.lock_wait_us,
            self.wal_flush_us,
            self.backoff_us,
            self.recovery_us,
            self.repl_apply_us,
            self.page_write_us
        )
    }
}

/// Lock-free run-wide virtual clock: one striped accumulator per
/// [`CostKind`]. Charging writes only the calling thread's cache line
/// (and nothing at all for a zero charge), cheap enough to stay
/// always-on (tracing is gated separately).
#[derive(Debug, Default)]
pub struct VirtualClock {
    counters: [Counter; 8],
}

impl VirtualClock {
    /// Adds `micros` of simulated time to one cost source.
    #[inline]
    pub fn charge(&self, kind: CostKind, micros: u64) {
        // A page read at zero configured latency charges 0 µs, about a
        // thousand times per transaction.
        if micros != 0 {
            self.counters[kind.index()].add(micros);
        }
    }

    /// Current totals. Each counter is read individually (relaxed), so a
    /// snapshot taken while writers run is per-counter accurate but not
    /// a single global instant — callers diff snapshots around quiesced
    /// windows for exact accounting.
    pub fn snapshot(&self) -> VirtualTimes {
        let at = |kind: CostKind| self.counters[kind.index()].load();
        VirtualTimes {
            page_read_us: at(CostKind::PageRead),
            think_us: at(CostKind::Think),
            lock_wait_us: at(CostKind::LockWait),
            wal_flush_us: at(CostKind::WalFlush),
            backoff_us: at(CostKind::RetryBackoff),
            recovery_us: at(CostKind::Recovery),
            repl_apply_us: at(CostKind::ReplApply),
            page_write_us: at(CostKind::PageWrite),
        }
    }
}
