//! The database handle: storage + lock table + protocol, and transaction
//! creation.

use crate::admission::AdmissionGate;
use crate::error::XtcError;
use crate::mvcc::VersionStore;
use crate::recovery;
use crate::retry::{RetryPolicy, RetryStats};
use crate::txn::Transaction;
use crate::view::StoreView;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtc_obs::CostKind;
use xtc_lock::{IsolationLevel, LockTable, Protocol, TxnRegistry, VictimPolicy};
use xtc_node::{DocStore, DocStoreConfig};
use xtc_splid::SplId;
use xtc_wal::{Lsn, RecordBody, TxnId, Wal, WalConfig};

/// What the admission gate does with a transaction arriving while the
/// engine is already at [`XtcConfig::max_in_flight`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Wait for a slot, bounded by [`XtcConfig::lock_timeout`]; a wait
    /// that times out fails with [`XtcError::AdmissionRejected`].
    #[default]
    Queue,
    /// Fail immediately with [`XtcError::AdmissionRejected`] — the
    /// caller's retry/backoff loop is the queue.
    Reject,
}

/// Configuration of an [`XtcDb`].
#[derive(Debug, Clone)]
pub struct XtcConfig {
    /// Lock protocol name (one of `xtc_protocols::ALL_PROTOCOLS`).
    pub protocol: String,
    /// Default isolation level for new transactions.
    pub isolation: IsolationLevel,
    /// Default lock depth (ignored by protocols without depth support).
    pub lock_depth: u32,
    /// Lock-wait timeout (safety valve; counted as an abort).
    pub lock_timeout: Duration,
    /// Deadlock victim selection policy.
    pub victim_policy: VictimPolicy,
    /// Lock escalation threshold: when a transaction's held-lock count
    /// reaches this value, its subsequent requests use
    /// [`escalated_depth`](XtcConfig::escalated_depth) as the effective
    /// lock depth (coarser subtree locks). `None` disables escalation.
    pub escalation_threshold: Option<usize>,
    /// Effective lock depth after escalation (only depths *shallower*
    /// than the transaction's own depth take effect).
    pub escalated_depth: u32,
    /// Per-transaction lock cache: serve requests already covered by a
    /// held mode without touching the shared lock table. On by default;
    /// disable only to measure the uncached baseline (`lockperf`) or to
    /// cross-check equivalence.
    pub lock_cache: bool,
    /// Storage configuration.
    pub store: DocStoreConfig,
    /// Write-ahead log configuration. `None` (the default) keeps the
    /// pre-WAL behaviour: a volatile database with in-memory undo only.
    /// `Some` turns on ARIES-lite durability: transactions log their work
    /// ahead of page writes, commit forces the log (group commit), and
    /// [`recovery::recover_from`] can rebuild the database after a crash.
    pub wal: Option<WalConfig>,
    /// Per-transaction *virtual-time* deadline budget. Every transaction
    /// continuously charges its simulated costs (page reads, lock waits,
    /// WAL flushes, think time) to a per-transaction frame on the
    /// engine's virtual clock; when the charged total exceeds this
    /// budget, the next lock acquisition, logged mutation, or commit
    /// fails with [`XtcError::DeadlineExceeded`] and the transaction
    /// must abort. Deterministic — the budget is measured in simulated
    /// microseconds, not wall-clock. `None` (the default) disables it.
    pub txn_deadline: Option<Duration>,
    /// Admission control: the maximum number of concurrently admitted
    /// transactions started through [`XtcDb::try_begin`]. Excess
    /// arrivals are queued or rejected per
    /// [`admission`](XtcConfig::admission). `None` (the default)
    /// disables the gate. [`XtcDb::begin`] bypasses it (infallible API).
    pub max_in_flight: Option<usize>,
    /// Policy at the admission gate when `max_in_flight` is reached.
    pub admission: AdmissionPolicy,
    /// Structured tracing configuration. `None` (the default) keeps only
    /// the always-on virtual clock (per-run simulated-time counters, a
    /// few relaxed atomic adds). `Some` additionally records lock, page,
    /// WAL, and transaction events into a lock-free ring buffer with
    /// latency histograms — exportable via [`XtcDb::obs`] as JSON.
    pub obs: Option<xtc_obs::ObsConfig>,
    /// Background writeback cadence. `Some(interval)` spawns a flusher
    /// thread that, every `interval`, publishes the WAL's durable LSN to
    /// the storage layer and writes back every dirty page the durable
    /// prefix covers (`page_lsn <= durable_lsn` — the WAL rule). This
    /// keeps the pool's clean-victim supply ahead of eviction pressure so
    /// the synchronous forced-writeback fallback stays rare, and shrinks
    /// checkpoint stalls (most pages are already clean). `None` (the
    /// default) flushes only at checkpoints.
    pub writeback_interval: Option<Duration>,
}

impl Default for XtcConfig {
    fn default() -> Self {
        XtcConfig {
            protocol: "taDOM3+".to_string(),
            isolation: IsolationLevel::Repeatable,
            lock_depth: 4,
            lock_timeout: Duration::from_secs(10),
            victim_policy: VictimPolicy::Youngest,
            escalation_threshold: None,
            escalated_depth: 1,
            lock_cache: true,
            store: DocStoreConfig::default(),
            wal: None,
            txn_deadline: None,
            max_in_flight: None,
            admission: AdmissionPolicy::default(),
            obs: None,
            writeback_interval: None,
        }
    }
}

/// The background flusher: owns the stop flag and join handle; dropping
/// it (with the [`XtcDb`]) signals the thread and waits for it to exit,
/// so no flush races the engine's teardown.
struct WritebackThread {
    stop: Arc<std::sync::atomic::AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl WritebackThread {
    fn spawn(interval: Duration, store: Arc<DocStore>, wal: Option<Arc<Wal>>) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        // Sleep in short slices so teardown never waits a full interval.
        let slice = interval.min(Duration::from_millis(5)).max(Duration::from_micros(50));
        let join = std::thread::Builder::new()
            .name("xtc-writeback".into())
            .spawn(move || loop {
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if thread_stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(slice);
                    slept += slice;
                }
                // Without a WAL there is no WAL rule: every dirty page is
                // immediately flushable.
                let durable = wal.as_ref().map(|w| w.durable_lsn()).unwrap_or(u64::MAX);
                store.stats().set_durable_lsn(durable);
                store.flush_all(durable);
            })
            .expect("spawn xtc-writeback");
        WritebackThread {
            stop,
            join: Some(join),
        }
    }
}

impl Drop for WritebackThread {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The database's logging state: the log itself, the mutex serializing
/// append-and-mutate sequences (so page LSN stamps match the records that
/// cover them), and the active-transaction table checkpoints record.
pub(crate) struct WalHandle {
    pub(crate) wal: Arc<Wal>,
    /// Held across every (append undo, stamp LSN, mutate, append redo)
    /// sequence — the WAL protocol's critical section. Page latches live
    /// below it; the lock-protocol tables above it; no cycles.
    pub(crate) log_mutex: Mutex<()>,
    /// Transactions with a Begin record and no Commit/Abort yet.
    pub(crate) active: Mutex<HashSet<TxnId>>,
}

impl WalHandle {
    fn open(
        config: WalConfig,
        obs: xtc_obs::Obs,
        scope: xtc_failpoint::ScopeId,
    ) -> Result<Self, XtcError> {
        Ok(WalHandle {
            wal: Arc::new(Wal::open_scoped(config, obs, scope)?),
            log_mutex: Mutex::new(()),
            active: Mutex::new(HashSet::new()),
        })
    }
}

/// An embedded XTC database: one XML document, one lock protocol.
pub struct XtcDb {
    store: Arc<DocStore>,
    view: Arc<StoreView>,
    registry: Arc<TxnRegistry>,
    table: Arc<LockTable>,
    protocol: Arc<dyn Protocol>,
    isolation: IsolationLevel,
    lock_depth: u32,
    escalation_threshold: Option<usize>,
    escalated_depth: u32,
    lock_timeout: Duration,
    txn_deadline: Option<Duration>,
    gate: Option<Arc<AdmissionGate>>,
    wal: Option<WalHandle>,
    /// Version chains for snapshot reads — present only when the
    /// configured protocol reads from versions (taMVCC/taOCC).
    versions: Option<Arc<VersionStore>>,
    /// Background flusher ([`XtcConfig::writeback_interval`]); never
    /// read, held so dropping the engine stops and joins the thread.
    #[allow(dead_code)]
    writeback: Option<WritebackThread>,
    obs: xtc_obs::Obs,
    /// This engine's failpoint scope: every fault site in the engine's
    /// stack (lock table, storage, WAL, commit, recovery) evaluates in
    /// it, so chaos can target one document of a catalog.
    failpoint_scope: xtc_failpoint::ScopeId,
}

impl XtcDb {
    /// Opens an empty database with the given configuration.
    ///
    /// # Panics
    /// On an unknown protocol name (use [`XtcDb::try_new`] to handle it).
    pub fn new(config: XtcConfig) -> Self {
        Self::try_new(config).expect("unknown protocol")
    }

    /// Opens an empty database; fails on unknown protocol names.
    pub fn try_new(config: XtcConfig) -> Result<Self, XtcError> {
        let gate = config
            .max_in_flight
            .map(|limit| Arc::new(AdmissionGate::new(limit, config.admission)));
        Self::try_new_gated(config, gate)
    }

    /// Opens an empty database admitting transactions through the given
    /// shared gate (a catalog-wide throttle: hand clones of one
    /// `Arc<AdmissionGate>` to several engines). `None` disables
    /// admission control; `XtcConfig::max_in_flight` is ignored in
    /// favor of the explicit gate.
    pub fn try_new_gated(
        config: XtcConfig,
        gate: Option<Arc<AdmissionGate>>,
    ) -> Result<Self, XtcError> {
        let handle = xtc_protocols::build(&config.protocol)
            .ok_or_else(|| XtcError::UnknownProtocol(config.protocol.clone()))?;
        // One observability handle for the whole engine: the storage
        // pool, the lock table, the WAL, and the transaction layer all
        // charge the same virtual clock and (when configured) the same
        // trace, so per-run accounting is consistent across layers.
        let obs = xtc_obs::Obs::with_config(config.obs.as_ref());
        // One failpoint scope per engine, for the same reason: chaos
        // arming this engine's scope faults this document only. Sites
        // armed in the GLOBAL scope keep firing everywhere.
        let failpoint_scope = xtc_failpoint::next_scope();
        let mut store_config = config.store.clone();
        store_config.obs = obs.clone();
        store_config.failpoint_scope = failpoint_scope;
        let store = Arc::new(DocStore::new(store_config));
        let wal = match config.wal.clone() {
            Some(wal_config) => Some(WalHandle::open(wal_config, obs.clone(), failpoint_scope)?),
            None => None,
        };
        let writeback = config.writeback_interval.map(|interval| {
            WritebackThread::spawn(
                interval,
                store.clone(),
                wal.as_ref().map(|h| h.wal.clone()),
            )
        });
        let versions = handle
            .protocol
            .versioned_reads()
            .then(|| Arc::new(VersionStore::new()));
        let registry = Arc::new(TxnRegistry::new());
        let table = Arc::new(
            LockTable::new(
                handle.families.clone(),
                registry.clone(),
                config.lock_timeout,
            )
            .with_victim_policy(config.victim_policy)
            .with_lock_cache(config.lock_cache)
            .with_obs(obs.clone())
            .with_failpoint_scope(failpoint_scope),
        );
        Ok(XtcDb {
            view: Arc::new(StoreView(store.clone())),
            store,
            registry,
            table,
            protocol: handle.protocol,
            isolation: config.isolation,
            lock_depth: config.lock_depth,
            escalation_threshold: config.escalation_threshold,
            escalated_depth: config.escalated_depth,
            lock_timeout: config.lock_timeout,
            txn_deadline: config.txn_deadline,
            gate,
            wal,
            versions,
            writeback,
            obs,
            failpoint_scope,
        })
    }

    /// The version store, when the configured protocol reads from
    /// versioned snapshots (taMVCC/taOCC); `None` for the pessimistic
    /// contestants.
    pub fn versions(&self) -> Option<&Arc<VersionStore>> {
        self.versions.as_ref()
    }

    /// The underlying node manager — **unlocked** access, intended for
    /// bulk document loading before concurrent transactions start and for
    /// read-only inspection in tests and reports.
    pub fn store(&self) -> &Arc<DocStore> {
        &self.store
    }

    /// Parses an XML document into the (empty) store, unlocked.
    ///
    /// With a WAL configured, a fuzzy checkpoint is taken afterwards so
    /// the bulk load does not have to be logged record-by-record. A
    /// checkpoint failure is swallowed here (the parse itself succeeded
    /// and `XmlError` cannot carry it); call [`XtcDb::checkpoint`]
    /// explicitly when the error matters.
    pub fn load_xml(&self, xml: &str) -> Result<SplId, xtc_node::XmlError> {
        let root = xtc_node::parse_into(&self.store, xml)?;
        let _ = self.checkpoint();
        Ok(root)
    }

    /// The write-ahead log, when one is configured.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref().map(|h| &h.wal)
    }

    pub(crate) fn wal_handle(&self) -> Option<&WalHandle> {
        self.wal.as_ref()
    }

    /// Takes a fuzzy checkpoint: logs the set of active transactions plus
    /// a full snapshot of the document, forces the log, and flushes every
    /// dirty page the durable log now covers. Recovery replays redo only
    /// from the last checkpoint, so periodic checkpoints bound recovery
    /// time. Returns the checkpoint's LSN, or `None` without a WAL.
    ///
    /// "Fuzzy" here means concurrent transactions may keep running: their
    /// in-flight work is captured by the active-transaction list and by
    /// the redo/undo records around the checkpoint, not by the snapshot.
    pub fn checkpoint(&self) -> Result<Option<Lsn>, XtcError> {
        let Some(handle) = &self.wal else {
            return Ok(None);
        };
        let _log = handle.log_mutex.lock();
        let mut active: Vec<TxnId> = handle.active.lock().iter().copied().collect();
        active.sort_unstable();
        let mut snapshot = Vec::with_capacity(self.store.node_count());
        self.store.for_each_node(|key, data| {
            snapshot.push((key.to_vec(), recovery::data_to_payload(self.store.vocab(), &data)));
        });
        let lsn = handle
            .wal
            .append(&RecordBody::Checkpoint { active, snapshot })?;
        handle.wal.sync_all()?;
        // Publish durability before flushing so eviction's forced
        // writeback also sees the fresh WAL-safe horizon.
        let durable = handle.wal.durable_lsn();
        self.store.stats().set_durable_lsn(durable);
        self.store.flush_all(durable);
        Ok(Some(lsn))
    }

    /// Begins a transaction at the database defaults, bypassing the
    /// admission gate (the historical infallible API). Workloads that
    /// want overload shedding use [`XtcDb::try_begin`].
    pub fn begin(&self) -> Transaction<'_> {
        self.begin_with(self.isolation, self.lock_depth)
    }

    /// Begins a transaction with an explicit isolation level and lock
    /// depth, bypassing the admission gate.
    pub fn begin_with(&self, isolation: IsolationLevel, lock_depth: u32) -> Transaction<'_> {
        let handle = self.registry.begin_handle();
        self.obs.txn_begin(handle.id());
        Transaction::new(self, handle, isolation, lock_depth, false)
    }

    /// Begins a transaction at the database defaults, going through the
    /// admission gate when one is configured
    /// ([`XtcConfig::max_in_flight`]): at capacity, the call queues
    /// (bounded by [`XtcConfig::lock_timeout`]) or fails with
    /// [`XtcError::AdmissionRejected`] per [`XtcConfig::admission`].
    pub fn try_begin(&self) -> Result<Transaction<'_>, XtcError> {
        self.try_begin_with(self.isolation, self.lock_depth)
    }

    /// Begins a transaction with explicit isolation and lock depth,
    /// going through the admission gate when one is configured.
    pub fn try_begin_with(
        &self,
        isolation: IsolationLevel,
        lock_depth: u32,
    ) -> Result<Transaction<'_>, XtcError> {
        let admitted = match &self.gate {
            Some(gate) => {
                gate.admit(self.lock_timeout)?;
                true
            }
            None => false,
        };
        let handle = self.registry.begin_handle();
        self.obs.txn_begin(handle.id());
        Ok(Transaction::new(self, handle, isolation, lock_depth, admitted))
    }

    /// Returns an admission slot (called by the transaction teardown of
    /// admitted transactions).
    pub(crate) fn admission_release(&self) {
        if let Some(gate) = &self.gate {
            gate.release();
        }
    }

    /// Transactions currently holding an admission slot (0 without a
    /// gate) — diagnostics for overload experiments. With a shared gate
    /// this counts admissions across every engine on the gate.
    pub fn admitted_in_flight(&self) -> usize {
        self.gate.as_ref().map(|g| g.in_flight()).unwrap_or(0)
    }

    /// The admission gate, when one is configured — shareable with other
    /// engines via [`XtcDb::try_new_gated`].
    pub fn admission_gate(&self) -> Option<&Arc<AdmissionGate>> {
        self.gate.as_ref()
    }

    /// This engine's failpoint scope: arm sites here
    /// (`xtc_failpoint::configure_in`) to fault this document without
    /// touching other engines in the process.
    pub fn failpoint_scope(&self) -> xtc_failpoint::ScopeId {
        self.failpoint_scope
    }

    /// The per-transaction virtual-time deadline budget, when configured.
    pub fn txn_deadline(&self) -> Option<Duration> {
        self.txn_deadline
    }

    /// The engine's observability handle: the always-on virtual clock
    /// (simulated-time counters) and, when `XtcConfig::obs` was set, the
    /// event trace and latency histograms.
    pub fn obs(&self) -> &xtc_obs::Obs {
        &self.obs
    }

    /// The active lock protocol.
    pub fn protocol(&self) -> &Arc<dyn Protocol> {
        &self.protocol
    }

    /// The shared lock table (deadlock statistics, request counts).
    pub fn lock_table(&self) -> &Arc<LockTable> {
        &self.table
    }

    /// The transaction registry.
    pub fn registry(&self) -> &Arc<TxnRegistry> {
        &self.registry
    }

    /// The protocol-facing document view.
    pub(crate) fn view(&self) -> &Arc<StoreView> {
        &self.view
    }

    /// Default lock depth.
    pub fn lock_depth(&self) -> u32 {
        self.lock_depth
    }

    /// Default isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Held-lock count at which transactions escalate to coarser locks
    /// (`None` = escalation disabled).
    pub fn escalation_threshold(&self) -> Option<usize> {
        self.escalation_threshold
    }

    /// Effective lock depth after escalation.
    pub fn escalated_depth(&self) -> u32 {
        self.escalated_depth
    }

    /// Runs a transaction closure under the retry policy: begins a fresh
    /// transaction per attempt, commits on `Ok`, aborts on `Err`, and
    /// retries [retryable](XtcError::is_retryable) failures (deadlock
    /// victim, lock timeout, plan races, injected faults) after a
    /// jittered exponential backoff, until the policy's attempt or
    /// deadline budget runs out.
    ///
    /// The closure must be restartable: it sees a brand-new transaction
    /// each attempt, and any side effects outside the transaction (its
    /// captured state) survive aborted attempts.
    ///
    /// Attempts go through the admission gate ([`XtcDb::try_begin`]);
    /// an [`XtcError::AdmissionRejected`] counts as a retryable abort.
    /// Each attempt's charged virtual time plus every backoff pause
    /// accumulates into [`RetryStats::vt_elapsed_us`], and the loop
    /// stops retrying once [`RetryPolicy::max_elapsed_us`] would be
    /// exceeded — the cross-attempt face of the per-attempt
    /// [`XtcConfig::txn_deadline`].
    pub fn run_retrying<T>(
        &self,
        policy: &RetryPolicy,
        mut body: impl FnMut(&Transaction<'_>) -> Result<T, XtcError>,
    ) -> (Result<T, XtcError>, RetryStats) {
        let started = Instant::now();
        let mut stats = RetryStats::default();
        loop {
            stats.attempts += 1;
            let (result, salt) = match self.try_begin() {
                Ok(txn) => {
                    let salt = txn.id();
                    let result = match body(&txn) {
                        Ok(v) => txn.commit().map(|()| v),
                        Err(e) => {
                            txn.abort();
                            Err(e)
                        }
                    };
                    // Commit and abort both pop the transaction's frame;
                    // pick its totals up here and charge them against
                    // the cross-attempt virtual-time budget.
                    if let Some((_, vt)) = self.obs.take_last_txn_vt() {
                        stats.vt_elapsed_us =
                            stats.vt_elapsed_us.saturating_add(vt.total_us());
                    }
                    (result, salt)
                }
                // Rejected at the gate: no transaction, no id — salt the
                // jitter with the attempt counter instead.
                Err(e) => (Err(e), stats.attempts as u64),
            };
            match result {
                Ok(v) => {
                    stats.committed_after_retry = stats.attempts > 1;
                    return (Ok(v), stats);
                }
                Err(e) if e.is_retryable() && stats.attempts < policy.max_attempts.max(1) => {
                    stats.count_abort(&e);
                    let delay = policy.delay(stats.attempts - 1, salt);
                    let delay_us = delay.as_micros() as u64;
                    if let Some(budget) = policy.deadline {
                        if started.elapsed() + delay >= budget {
                            return (Err(e), stats);
                        }
                    }
                    if let Some(budget_us) = policy.max_elapsed_us {
                        if stats.vt_elapsed_us.saturating_add(delay_us) >= budget_us {
                            return (Err(e), stats);
                        }
                    }
                    std::thread::sleep(delay);
                    self.obs.charge(CostKind::RetryBackoff, delay_us);
                    stats.vt_elapsed_us = stats.vt_elapsed_us.saturating_add(delay_us);
                    stats.backoff_total += delay;
                }
                Err(e) => return (Err(e), stats),
            }
        }
    }
}
