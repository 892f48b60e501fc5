//! The §4.1 performance metrics: "number of committed and aborted
//! transactions for a pre-specified lock depth and isolation level;
//! average, maximal, and minimal duration of a transaction of a given
//! type; number and type of deadlocks for a lock protocol."

use crate::txns::TxnKind;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Duration;

/// Outcome of one transaction slot iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed having done its work.
    Committed,
    /// Committed trivially (target vanished under concurrent deletes).
    Empty,
    /// Aborted as a deadlock victim.
    AbortedDeadlock,
    /// Aborted because a lock wait hit the timeout safety valve. Kept
    /// apart from deadlocks: a timeout spike signals lock-table
    /// congestion, not cyclic conflict.
    AbortedTimeout,
    /// Aborted for another reason (plan races, logical error, injected
    /// fault).
    AbortedOther,
}

/// Aggregated statistics for one transaction type.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TypeStats {
    /// Committed transactions (including trivial commits).
    pub committed: u64,
    /// Commits that found their target vanished.
    pub empty: u64,
    /// Deadlock-victim aborts.
    pub aborted_deadlock: u64,
    /// Lock-wait-timeout aborts.
    pub aborted_timeout: u64,
    /// Other aborts.
    pub aborted_other: u64,
    /// Total duration of committed transactions (µs).
    total_us: u128,
    /// Minimum duration (µs) of a committed transaction; `None` until
    /// the first commit (0 µs is a valid minimum, not a sentinel).
    min_us: Option<u128>,
    /// Maximum duration (µs).
    max_us: u128,
}

impl TypeStats {
    /// Records one outcome.
    pub fn record(&mut self, outcome: TxnOutcome, duration: Duration) {
        match outcome {
            TxnOutcome::Committed | TxnOutcome::Empty => {
                if outcome == TxnOutcome::Empty {
                    self.empty += 1;
                }
                self.committed += 1;
                let us = duration.as_micros();
                self.total_us += us;
                self.max_us = self.max_us.max(us);
                self.min_us = Some(match self.min_us {
                    Some(m) => m.min(us),
                    None => us,
                });
            }
            TxnOutcome::AbortedDeadlock => self.aborted_deadlock += 1,
            TxnOutcome::AbortedTimeout => self.aborted_timeout += 1,
            TxnOutcome::AbortedOther => self.aborted_other += 1,
        }
    }

    /// All aborts.
    pub fn aborted(&self) -> u64 {
        self.aborted_deadlock + self.aborted_timeout + self.aborted_other
    }

    /// Average committed-transaction duration.
    pub fn avg(&self) -> Duration {
        if self.committed == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((self.total_us / self.committed as u128) as u64)
    }

    /// Minimum committed-transaction duration (zero before any commit).
    pub fn min(&self) -> Duration {
        Duration::from_micros(self.min_us.unwrap_or(0) as u64)
    }

    /// Maximum committed-transaction duration.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us as u64)
    }

    /// Merges another accumulator (per-thread → global).
    pub fn merge(&mut self, other: &TypeStats) {
        self.committed += other.committed;
        self.empty += other.empty;
        self.aborted_deadlock += other.aborted_deadlock;
        self.aborted_timeout += other.aborted_timeout;
        self.aborted_other += other.aborted_other;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
        self.min_us = match (self.min_us, other.min_us) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Aggregated retry-layer statistics of a run (all slots merged). Zero
/// everywhere when the run did not use a retry policy.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RetryTotals {
    /// `run_retrying` invocations.
    pub runs: u64,
    /// Transaction attempts across all invocations.
    pub attempts: u64,
    /// Deadlock-victim aborts absorbed by retry.
    pub deadlock_aborts: u64,
    /// Timeout aborts absorbed by retry.
    pub timeout_aborts: u64,
    /// Other retryable aborts absorbed by retry.
    pub other_retryable_aborts: u64,
    /// Total backoff sleep across all slots.
    pub backoff_total: Duration,
    /// Virtual microseconds the retry loops consumed (per-attempt
    /// charged transaction time plus backoff pauses).
    pub vt_elapsed_us: u64,
    /// Invocations that committed on attempt 2 or later.
    pub committed_after_retry: u64,
}

impl RetryTotals {
    /// Folds one `run_retrying` result into the totals.
    pub fn record(&mut self, stats: &xtc_core::RetryStats) {
        self.runs += 1;
        self.attempts += stats.attempts as u64;
        self.deadlock_aborts += stats.deadlock_aborts as u64;
        self.timeout_aborts += stats.timeout_aborts as u64;
        self.other_retryable_aborts += stats.other_retryable_aborts as u64;
        self.backoff_total += stats.backoff_total;
        self.vt_elapsed_us = self.vt_elapsed_us.saturating_add(stats.vt_elapsed_us);
        self.committed_after_retry += stats.committed_after_retry as u64;
    }

    /// Merges another accumulator (per-thread → global).
    pub fn merge(&mut self, other: &RetryTotals) {
        self.runs += other.runs;
        self.attempts += other.attempts;
        self.deadlock_aborts += other.deadlock_aborts;
        self.timeout_aborts += other.timeout_aborts;
        self.other_retryable_aborts += other.other_retryable_aborts;
        self.backoff_total += other.backoff_total;
        self.vt_elapsed_us = self.vt_elapsed_us.saturating_add(other.vt_elapsed_us);
        self.committed_after_retry += other.committed_after_retry;
    }
}

/// Buffer-pool and index-filter activity over one run: the delta of the
/// engine's aggregated [`xtc_node::PoolStats`] between run start and run
/// end (counters only — the gauges `dirty`/`resident`/`live` are
/// point-in-time and excluded).
#[derive(Debug, Clone, Default, Serialize)]
pub struct PoolReport {
    /// Page accesses served from resident frames.
    pub hits: u64,
    /// Page accesses that faulted the page in.
    pub misses: u64,
    /// Frames evicted under the residency budget.
    pub evictions: u64,
    /// Evictions that found no clean, unpinned, WAL-safe victim.
    pub evict_blocked: u64,
    /// Dirty pages written back (background writeback + checkpoints).
    pub flushes: u64,
    /// Dirty victims synchronously written back on the eviction path.
    pub forced_writebacks: u64,
    /// Fault-ins whose access history the LRU-2 ghost list remembered.
    pub ghost_hits: u64,
    /// Index probes that consulted a negative-lookup filter.
    pub filter_probes: u64,
    /// Index probes the filter answered "absent" (descent skipped).
    pub filter_negatives: u64,
    /// B\*-tree lookups that walked from the root.
    pub descents: u64,
    /// B\*-tree lookups answered on the reader stripe's hinted leaf.
    pub hint_hits: u64,
}

impl PoolReport {
    /// The counter delta between two pool snapshots.
    pub fn delta(before: &xtc_node::PoolStats, after: &xtc_node::PoolStats) -> PoolReport {
        PoolReport {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            evict_blocked: after.evict_blocked - before.evict_blocked,
            flushes: after.flushes - before.flushes,
            forced_writebacks: after.forced_writebacks - before.forced_writebacks,
            ghost_hits: after.ghost_hits - before.ghost_hits,
            filter_probes: after.filter_probes - before.filter_probes,
            filter_negatives: after.filter_negatives - before.filter_negatives,
            descents: after.descents - before.descents,
            hint_hits: after.hint_hits - before.hint_hits,
        }
    }

    /// Fraction of page accesses served without a fault-in.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Fraction of B\*-tree lookups that kept their place: answered on the
    /// hinted leaf, no walk from the root.
    pub fn hint_hit_rate(&self) -> f64 {
        let total = self.hint_hits + self.descents;
        if total == 0 {
            return 0.0;
        }
        self.hint_hits as f64 / total as f64
    }
}

/// Report of one benchmark run (one protocol, isolation level, depth).
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Protocol name.
    pub protocol: String,
    /// Isolation level name.
    pub isolation: String,
    /// Lock depth used.
    pub lock_depth: u32,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-type statistics.
    pub per_type: BTreeMap<&'static str, TypeStats>,
    /// Deadlocks resolved (victim count).
    pub deadlocks: u64,
    /// Deadlocks classified as conversion-caused.
    pub conversion_deadlocks: u64,
    /// Lock requests served (lock-manager overhead). Counts every
    /// meta-level request, whether it hit the per-transaction lock cache
    /// or reached the shared table — directly comparable to the paper's
    /// lock-request numbers regardless of the cache setting.
    pub lock_requests: u64,
    /// Requests that reached the shared lock table (cache misses).
    pub table_requests: u64,
    /// Requests served from the per-transaction lock cache.
    pub cache_hits: u64,
    /// Cache hits the path memo answered without probing (the repeated
    /// ancestor paths of sibling-to-sibling navigation).
    pub memo_hits: u64,
    /// Logical page reads during the run.
    pub page_reads: u64,
    /// Buffer-pool and index-filter activity (hits, misses, evictions,
    /// writebacks, filter probes) as a delta over the run.
    pub pool: PoolReport,
    /// Lock escalations (transactions switching to coarser locks).
    pub escalations: u64,
    /// Retry-layer totals (zero without a retry policy).
    pub retries: RetryTotals,
    /// The per-transaction virtual-time deadline budget the run was
    /// configured with (µs), `None` when deadlines were off — so a
    /// report's timeout-abort counts are interpretable on their own.
    pub txn_deadline_us: Option<u64>,
    /// Virtual-time totals accumulated during the run (simulated page-read
    /// latency, think time, measured lock/WAL waits). Deterministic
    /// components make figure-shape assertions independent of wall clock.
    pub vt: xtc_obs::VirtualTimes,
}

impl RunReport {
    /// Total committed transactions across types.
    pub fn committed(&self) -> u64 {
        self.per_type.values().map(|s| s.committed).sum()
    }

    /// Total aborted transactions across types.
    pub fn aborted(&self) -> u64 {
        self.per_type.values().map(|s| s.aborted()).sum()
    }

    /// Total timeout aborts (lock-wait timeouts plus exhausted
    /// transaction deadlines) across types.
    pub fn timeout_aborts(&self) -> u64 {
        self.per_type.values().map(|s| s.aborted_timeout).sum()
    }

    /// Committed count for a single type.
    pub fn committed_of(&self, kind: TxnKind) -> u64 {
        self.per_type
            .get(kind.name())
            .map(|s| s.committed)
            .unwrap_or(0)
    }

    /// Throughput normalized to the paper's unit: committed transactions
    /// per 5-minute run (the runs here are shorter; see EXPERIMENTS.md).
    pub fn throughput_per_5min(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.committed() as f64 * 300.0 / self.elapsed.as_secs_f64()
    }

    /// Fraction of lock requests served from the per-transaction cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.lock_requests == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.lock_requests as f64
    }

    /// Fraction of lock requests the path memo answered: how much of the
    /// run re-asked an ancestor path it had just locked — a function of
    /// the lock depth, which decides how many nodes share a path.
    pub fn memo_share(&self) -> f64 {
        if self.lock_requests == 0 {
            return 0.0;
        }
        self.memo_hits as f64 / self.lock_requests as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_merge() {
        let mut a = TypeStats::default();
        a.record(TxnOutcome::Committed, Duration::from_millis(10));
        a.record(TxnOutcome::Committed, Duration::from_millis(30));
        a.record(TxnOutcome::AbortedDeadlock, Duration::from_millis(5));
        assert_eq!(a.committed, 2);
        assert_eq!(a.aborted(), 1);
        assert_eq!(a.avg(), Duration::from_millis(20));
        assert_eq!(a.min(), Duration::from_millis(10));
        assert_eq!(a.max(), Duration::from_millis(30));

        let mut b = TypeStats::default();
        b.record(TxnOutcome::Empty, Duration::from_millis(2));
        b.record(TxnOutcome::AbortedOther, Duration::ZERO);
        b.record(TxnOutcome::AbortedTimeout, Duration::ZERO);
        b.merge(&a);
        assert_eq!(b.committed, 3);
        assert_eq!(b.empty, 1);
        assert_eq!(b.aborted_deadlock, 1);
        assert_eq!(b.aborted_timeout, 1);
        assert_eq!(b.aborted_other, 1);
        assert_eq!(b.aborted(), 3);
        assert_eq!(b.min(), Duration::from_millis(2));
        assert_eq!(b.max(), Duration::from_millis(30));
    }

    #[test]
    fn zero_duration_commit_is_a_valid_minimum() {
        // A sub-microsecond commit truncates to 0 µs; the old code used
        // 0 as "unset" and would overwrite it with a later, longer run.
        let mut s = TypeStats::default();
        s.record(TxnOutcome::Committed, Duration::ZERO);
        s.record(TxnOutcome::Committed, Duration::from_millis(10));
        assert_eq!(s.min(), Duration::ZERO);

        // Merging preserves the zero minimum in either direction.
        let mut empty = TypeStats::default();
        empty.merge(&s);
        assert_eq!(empty.min(), Duration::ZERO);
        let mut slow = TypeStats::default();
        slow.record(TxnOutcome::Committed, Duration::from_millis(5));
        slow.merge(&s);
        assert_eq!(slow.min(), Duration::ZERO);
    }

    #[test]
    fn retry_totals_record_and_merge() {
        let mut a = RetryTotals::default();
        a.record(&xtc_core::RetryStats {
            attempts: 3,
            deadlock_aborts: 2,
            timeout_aborts: 0,
            other_retryable_aborts: 0,
            backoff_total: Duration::from_millis(4),
            vt_elapsed_us: 1_500,
            committed_after_retry: true,
        });
        let mut b = RetryTotals::default();
        b.record(&xtc_core::RetryStats {
            attempts: 1,
            ..Default::default()
        });
        b.merge(&a);
        assert_eq!(b.runs, 2);
        assert_eq!(b.attempts, 4);
        assert_eq!(b.deadlock_aborts, 2);
        assert_eq!(b.committed_after_retry, 1);
        assert_eq!(b.backoff_total, Duration::from_millis(4));
        assert_eq!(b.vt_elapsed_us, 1_500);
    }
}
