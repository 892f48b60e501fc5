//! The TaMix coordinator: concurrently active transaction slots with the
//! paper's think times, running CLUSTER1 and CLUSTER2 (§4.3).

use crate::bib::{self, BibConfig};
use crate::metrics::{RetryTotals, RunReport, TxnOutcome, TypeStats};
use crate::txns::{run_txn, run_txn_body, Pacing, PacingMode, TxnKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtc_core::{
    AdmissionPolicy, IsolationLevel, RetryPolicy, VictimPolicy, XtcConfig, XtcDb, XtcError,
};

/// Parameters of a TaMix run. The defaults are the paper's CLUSTER1
/// setting scaled down 50× in time (see DESIGN.md substitutions): the
/// paper ran 5-minute rounds with waitAfterCommit = 2500 ms and
/// waitAfterOperation = 100 ms across 3 clients × 24 slots.
#[derive(Debug, Clone)]
pub struct TamixParams {
    /// Protocol under test.
    pub protocol: String,
    /// Isolation level.
    pub isolation: IsolationLevel,
    /// Lock depth.
    pub lock_depth: u32,
    /// Number of clients (the paper: 3).
    pub clients: usize,
    /// Transaction mix per client: (kind, active slots). CLUSTER1:
    /// 9 TAqueryBook, 5 TAchapter, 2 TArenameTopic, 8 TAlendAndReturn.
    pub mix: Vec<(TxnKind, usize)>,
    /// Run duration.
    pub duration: Duration,
    /// Pause after each commit/abort before the slot starts anew.
    pub wait_after_commit: Duration,
    /// Pause after each DOM operation inside a transaction.
    pub wait_after_operation: Duration,
    /// Random wait before a slot's first transaction, `0..=max`.
    pub initial_wait_max: Duration,
    /// Lock-wait timeout.
    pub lock_timeout: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Retry policy: when set, aborted transactions are retried with
    /// backoff instead of counting one abort and moving on (the paper's
    /// clients simply restart; this makes the restart loop explicit).
    pub retry: Option<RetryPolicy>,
    /// Deadlock victim selection policy.
    pub victim_policy: VictimPolicy,
    /// Lock escalation threshold (held locks), `None` = disabled.
    pub escalation_threshold: Option<usize>,
    /// Effective lock depth after escalation.
    pub escalated_depth: u32,
    /// Per-transaction lock cache (on by default; off measures the
    /// uncached baseline).
    pub lock_cache: bool,
    /// Simulated per-page-read latency charged to the virtual clock (and
    /// spun in wall time by the buffer pool). `ZERO` by default: CLUSTER1
    /// throughput runs model an in-memory buffer; figure-shape tests set
    /// it to make page-read cost a deterministic virtual-time term.
    pub read_latency: Duration,
    /// Per-transaction virtual-time deadline budget
    /// ([`XtcConfig::txn_deadline`]); `None` = no deadline.
    pub txn_deadline: Option<Duration>,
    /// Admission control: maximum concurrently admitted transactions
    /// ([`XtcConfig::max_in_flight`]); `None` = unbounded.
    pub max_in_flight: Option<usize>,
    /// Policy at the admission gate when `max_in_flight` is reached.
    pub admission: AdmissionPolicy,
    /// With a WAL configured, take a fuzzy checkpoint at this interval
    /// during the run (a background checkpointer thread) so recovery
    /// time stays bounded under sustained load. `None` = no
    /// checkpointer.
    pub checkpoint_every: Option<Duration>,
    /// Base storage configuration when [`run_cluster1`] builds the
    /// database itself: eviction policy, residency budget, file backend,
    /// index filters. [`TamixParams::read_latency`] is applied on top
    /// (it predates this field and keeps its priority). Ignored by
    /// [`run_cluster1_on`] — there the caller's database wins.
    pub store: xtc_node::DocStoreConfig,
    /// Background-writeback cadence ([`XtcConfig::writeback_interval`])
    /// when [`run_cluster1`] builds the database itself.
    pub writeback_interval: Option<Duration>,
    /// How the run's pauses (initial stagger, waitAfterOperation,
    /// waitAfterCommit, checkpointer naps) are realized: charged to the
    /// virtual clock only, or additionally slept on the wall clock.
    /// [`TamixParams::cluster1`] opts into [`PacingMode::Wall`] — the
    /// paper's client behavior, and what the figure-shape expectations
    /// are calibrated against.
    pub pacing: PacingMode,
}

impl TamixParams {
    /// CLUSTER1 at benchmark scale (50× faster than the paper's wall
    /// clock, same structure: 72 active transactions).
    pub fn cluster1(protocol: &str, isolation: IsolationLevel, lock_depth: u32) -> Self {
        TamixParams {
            protocol: protocol.to_string(),
            isolation,
            lock_depth,
            clients: 3,
            mix: vec![
                (TxnKind::QueryBook, 9),
                (TxnKind::Chapter, 5),
                (TxnKind::RenameTopic, 2),
                (TxnKind::LendAndReturn, 8),
            ],
            duration: Duration::from_millis(4000),
            wait_after_commit: Duration::from_millis(50),
            wait_after_operation: Duration::from_millis(2),
            initial_wait_max: Duration::from_millis(100),
            lock_timeout: Duration::from_secs(5),
            seed: 42,
            retry: None,
            victim_policy: VictimPolicy::Youngest,
            escalation_threshold: None,
            escalated_depth: 1,
            lock_cache: true,
            read_latency: Duration::ZERO,
            txn_deadline: None,
            max_in_flight: None,
            admission: AdmissionPolicy::default(),
            checkpoint_every: None,
            store: xtc_node::DocStoreConfig::default(),
            writeback_interval: None,
            pacing: PacingMode::Wall,
        }
    }

    /// Total concurrently active transaction slots.
    pub fn total_slots(&self) -> usize {
        self.clients * self.mix.iter().map(|(_, n)| n).sum::<usize>()
    }

    /// Scales every wall-clock parameter by `f` (e.g. `f = 50.0` restores
    /// the paper's original times from the benchmark defaults).
    pub fn scale_time(mut self, f: f64) -> Self {
        let scale = |d: Duration| Duration::from_secs_f64(d.as_secs_f64() * f);
        self.duration = scale(self.duration);
        self.wait_after_commit = scale(self.wait_after_commit);
        self.wait_after_operation = scale(self.wait_after_operation);
        self.initial_wait_max = scale(self.initial_wait_max);
        self
    }
}

/// Runs CLUSTER1 (or any custom mix) and returns the aggregated report.
pub fn run_cluster1(params: &TamixParams, bib_cfg: &BibConfig) -> RunReport {
    let db = Arc::new(XtcDb::new(XtcConfig {
        protocol: params.protocol.clone(),
        isolation: params.isolation,
        lock_depth: params.lock_depth,
        lock_timeout: params.lock_timeout,
        victim_policy: params.victim_policy,
        escalation_threshold: params.escalation_threshold,
        escalated_depth: params.escalated_depth,
        lock_cache: params.lock_cache,
        store: xtc_node::DocStoreConfig {
            read_latency: params.read_latency,
            ..params.store.clone()
        },
        txn_deadline: params.txn_deadline,
        max_in_flight: params.max_in_flight,
        admission: params.admission,
        writeback_interval: params.writeback_interval,
        ..XtcConfig::default()
    }));
    bib::generate_into(&db, bib_cfg);
    run_cluster1_on(&db, params, bib_cfg)
}

/// Runs CLUSTER1 against an existing, already-populated database. The
/// caller keeps the handle, so it can check document invariants after
/// the run — the chaos tests rely on this.
///
/// The database's protocol/isolation/victim-policy configuration wins
/// over the corresponding `params` fields (those only matter when
/// [`run_cluster1`] builds the database itself); `params` still drives
/// the mix, pacing, duration, and retry policy.
pub fn run_cluster1_on(db: &Arc<XtcDb>, params: &TamixParams, bib_cfg: &BibConfig) -> RunReport {
    let reads_before = db.store().stats().page_reads();
    let pool_before = db.store().pool_stats();
    let vt_before = db.obs().vt();

    let deadline = Instant::now() + params.duration;
    let start = Instant::now();
    // Background checkpointer: bounds recovery time under sustained load.
    // Checkpoint failures are tolerated (the engine may have been crashed
    // by a chaos failpoint mid-run — the workload threads handle that).
    let checkpointer = params.checkpoint_every.filter(|_| db.wal().is_some()).map(|every| {
        let db = db.clone();
        let mode = params.pacing;
        std::thread::spawn(move || {
            let mut taken = 0usize;
            while Instant::now() < deadline {
                match mode {
                    PacingMode::Wall => {
                        // The nap is simulated idle time like any other
                        // pause of the run: charge it to the virtual
                        // clock, then sleep it.
                        let nap = every.min(deadline.saturating_duration_since(Instant::now()));
                        db.obs()
                            .charge(xtc_obs::CostKind::Think, nap.as_micros() as u64);
                        std::thread::sleep(nap);
                    }
                    PacingMode::Virtual => {
                        // Pace checkpoints by the run's *virtual* clock:
                        // wait until the workload threads have charged
                        // another `every` worth of simulated time,
                        // polling in small wall slices so an idle run
                        // still honors the wall deadline.
                        let target = db.obs().vt().total_us() + every.as_micros() as u64;
                        while Instant::now() < deadline && db.obs().vt().total_us() < target {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
                if Instant::now() >= deadline {
                    break;
                }
                if db.checkpoint().is_ok() {
                    taken += 1;
                }
            }
            taken
        })
    });
    let mut slot_no = 0usize;
    let mut handles = Vec::new();
    for _client in 0..params.clients {
        for &(kind, count) in &params.mix {
            for _ in 0..count {
                slot_no += 1;
                let db = db.clone();
                let cfg = bib_cfg.clone();
                let p = params.clone();
                let seed = params.seed.wrapping_add(slot_no as u64 * 7919);
                handles.push(std::thread::spawn(move || {
                    slot_loop(&db, kind, &cfg, &p, seed, deadline)
                }));
            }
        }
    }
    let mut per_type: BTreeMap<&'static str, TypeStats> = BTreeMap::new();
    let mut retries = RetryTotals::default();
    for h in handles {
        let (kind, stats, slot_retries) = h.join().expect("slot thread panicked");
        per_type.entry(kind.name()).or_default().merge(&stats);
        retries.merge(&slot_retries);
    }
    if let Some(h) = checkpointer {
        let _ = h.join();
    }
    let elapsed = start.elapsed();
    let dl = db.lock_table().deadlocks();
    RunReport {
        protocol: params.protocol.clone(),
        isolation: params.isolation.name().to_string(),
        lock_depth: params.lock_depth,
        elapsed,
        per_type,
        deadlocks: dl.total(),
        conversion_deadlocks: dl.conversion_caused(),
        lock_requests: db.lock_table().requests(),
        table_requests: db.lock_table().table_requests(),
        cache_hits: db.lock_table().cache_hits(),
        memo_hits: db.lock_table().memo_hits(),
        page_reads: db.store().stats().page_reads() - reads_before,
        pool: crate::metrics::PoolReport::delta(&pool_before, &db.store().pool_stats()),
        escalations: db.lock_table().escalations(),
        retries,
        txn_deadline_us: params.txn_deadline.map(|d| d.as_micros() as u64),
        vt: db.obs().vt().saturating_sub(vt_before),
    }
}

/// Maps an abort error to its outcome class. Lock-wait timeouts and
/// exhausted transaction deadlines both count as timeout aborts — the
/// two faces of "ran out of time".
fn classify_abort(e: &XtcError) -> TxnOutcome {
    if e.is_deadlock() {
        TxnOutcome::AbortedDeadlock
    } else if e.is_timeout() {
        TxnOutcome::AbortedTimeout
    } else {
        TxnOutcome::AbortedOther
    }
}

/// One transaction slot: random initial wait, then transactions of one
/// type back to back with waitAfterCommit pauses, until the deadline.
fn slot_loop(
    db: &XtcDb,
    kind: TxnKind,
    cfg: &BibConfig,
    params: &TamixParams,
    seed: u64,
    deadline: Instant,
) -> (TxnKind, TypeStats, RetryTotals) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stats = TypeStats::default();
    let mut retries = RetryTotals::default();
    // Each slot jitters from its own seed so concurrent retry loops do
    // not back off in lockstep.
    let retry_policy = params.retry.clone().map(|p| RetryPolicy {
        seed: p.seed.wrapping_add(seed),
        ..p
    });
    let pacing = Pacing {
        wait_after_operation: params.wait_after_operation,
        mode: params.pacing,
    };
    if !params.initial_wait_max.is_zero() {
        let wait = params
            .initial_wait_max
            .mul_f64(rng.random::<f64>())
            .min(deadline.saturating_duration_since(Instant::now()));
        db.obs()
            .charge(xtc_obs::CostKind::Think, wait.as_micros() as u64);
        if params.pacing == PacingMode::Wall {
            std::thread::sleep(wait);
        }
    }
    while Instant::now() < deadline {
        let started = Instant::now();
        let result = match &retry_policy {
            Some(policy) => {
                let (res, run_stats) = db.run_retrying(policy, |txn| {
                    run_txn_body(txn, kind, cfg, &mut rng, pacing)
                });
                retries.record(&run_stats);
                res
            }
            None => run_txn(db, kind, cfg, &mut rng, pacing),
        };
        let outcome = match result {
            Ok(true) => TxnOutcome::Committed,
            Ok(false) => TxnOutcome::Empty,
            Err(e) => classify_abort(&e),
        };
        stats.record(outcome, started.elapsed());
        let pause = params
            .wait_after_commit
            .min(deadline.saturating_duration_since(Instant::now()));
        db.obs()
            .charge(xtc_obs::CostKind::Think, pause.as_micros() as u64);
        if params.pacing == PacingMode::Wall {
            std::thread::sleep(pause);
        }
    }
    (kind, stats, retries)
}

/// Report of a CLUSTER2 run: "a single execution of TAdelBook in
/// single-user mode, using isolation level repeatable. Here, transaction
/// duration is very expressive and characterizes the amount of locking
/// overhead necessary" (§4.3, §5.3).
#[derive(Debug, Clone)]
pub struct Cluster2Report {
    /// Protocol under test.
    pub protocol: String,
    /// Execution time of the TAdelBook transaction.
    pub duration: Duration,
    /// Lock requests the deletion needed.
    pub lock_requests: u64,
    /// Logical page reads (the *-2PL IDX scans show up here).
    pub page_reads: u64,
    /// Virtual-time totals of the deletion (averaged over repetitions).
    /// `page_read_us` is the deterministic term the Fig. 11 shape test
    /// compares instead of wall-clock duration.
    pub vt: xtc_obs::VirtualTimes,
}

/// Per-page-read latency used in CLUSTER2 runs: converts page accesses
/// into wall-clock time the way the paper's IDE disk did, so the *-2PL
/// group's IDX location steps (which re-traverse the doomed subtree
/// through the node manager) dominate the deletion time as in Fig. 11.
pub const CLUSTER2_READ_LATENCY: Duration = Duration::from_micros(10);

/// Runs CLUSTER2 for one protocol: a single TAdelBook at isolation level
/// repeatable, timed. `repetitions` > 1 deletes several distinct books
/// and averages (fresh database per repetition).
pub fn run_cluster2(protocol: &str, bib_cfg: &BibConfig, repetitions: u32) -> Cluster2Report {
    let mut total = Duration::ZERO;
    let mut total_requests = 0u64;
    let mut total_reads = 0u64;
    let mut total_vt = xtc_obs::VirtualTimes::default();
    for rep in 0..repetitions.max(1) {
        let db = XtcDb::new(XtcConfig {
            protocol: protocol.to_string(),
            isolation: IsolationLevel::Repeatable,
            lock_depth: 4,
            lock_timeout: Duration::from_secs(30),
            store: xtc_node::DocStoreConfig {
                read_latency: CLUSTER2_READ_LATENCY,
                ..xtc_node::DocStoreConfig::default()
            },
            ..XtcConfig::default()
        });
        bib::generate_into(&db, bib_cfg);
        let mut rng = SmallRng::seed_from_u64(1000 + rep as u64);
        let reads0 = db.store().stats().page_reads();
        let reqs0 = db.lock_table().requests();
        let vt0 = db.obs().vt();
        let started = Instant::now();
        run_txn(
            &db,
            TxnKind::DelBook,
            bib_cfg,
            &mut rng,
            Pacing::default(),
        )
        .expect("single-user TAdelBook must commit");
        total += started.elapsed();
        total_requests += db.lock_table().requests() - reqs0;
        total_reads += db.store().stats().page_reads() - reads0;
        total_vt = total_vt.merged(db.obs().vt().saturating_sub(vt0));
    }
    let n = repetitions.max(1);
    Cluster2Report {
        protocol: protocol.to_string(),
        duration: total / n,
        lock_requests: total_requests / n as u64,
        page_reads: total_reads / n as u64,
        vt: total_vt.scaled_down(n as u64),
    }
}

/// Parameters of the CLUSTER2 long-reader scenario: one report reader
/// pinned on the whole document while writers compete.
#[derive(Debug, Clone)]
pub struct LongReaderParams {
    /// Protocol under test.
    pub protocol: String,
    /// How long the writers run while the reader stays pinned.
    pub duration: Duration,
    /// Concurrent chapter-updating writers.
    pub writers: usize,
    /// RNG seed.
    pub seed: u64,
    /// Lock-wait timeout (kept short: a blocked pessimistic writer
    /// should cycle through timeout-and-retry instead of stalling the
    /// whole cell).
    pub lock_timeout: Duration,
    /// Document scale.
    pub bib: BibConfig,
}

impl LongReaderParams {
    /// A quick cell: a tiny bib, two writers, a short writer window.
    pub fn quick(protocol: &str) -> Self {
        LongReaderParams {
            protocol: protocol.to_string(),
            duration: Duration::from_millis(400),
            writers: 2,
            seed: 42,
            lock_timeout: Duration::from_millis(50),
            bib: BibConfig::tiny(),
        }
    }
}

/// Report of a long-reader run.
#[derive(Debug, Clone)]
pub struct LongReaderReport {
    /// Protocol under test.
    pub protocol: String,
    /// Writer transactions committed while the reader was pinned.
    pub writer_commits: u64,
    /// Writer aborts (after retries were exhausted).
    pub writer_aborts: u64,
    /// Nodes the reader visited on its full-document walk.
    pub reader_reads: u64,
    /// Virtual lock-wait microseconds charged to the reader. Zero under
    /// a versioned protocol — snapshot reads never touch the lock table.
    pub reader_lock_wait_us: u64,
    /// Whether the value the reader sampled during its walk read the
    /// same at the end, after all writer commits — repeatable-read
    /// stability for the pessimistic field, snapshot stability for the
    /// versioned one.
    pub reader_consistent: bool,
    /// Wall time of the writer window.
    pub elapsed: Duration,
    /// Virtual-time totals of the whole run.
    pub vt: xtc_obs::VirtualTimes,
}

/// The CLUSTER2 long-reader scenario: a single report reader walks the
/// *entire* document navigationally at isolation level repeatable and
/// then stays pinned (transaction open) while `writers` chapter-update
/// writers run for `duration`. Under every pessimistic protocol the
/// reader's read locks serialize the writers behind it — their
/// update-text steps time out and retry until the reader ends. Under
/// the versioned contestants (taMVCC, taOCC) the reader holds no locks
/// at all, so writers commit freely while the reader's snapshot stays
/// stable.
pub fn run_long_reader(params: &LongReaderParams) -> LongReaderReport {
    use std::sync::mpsc;

    let db = Arc::new(XtcDb::new(XtcConfig {
        protocol: params.protocol.clone(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 4,
        lock_timeout: params.lock_timeout,
        ..XtcConfig::default()
    }));
    bib::generate_into(&db, &params.bib);
    let vt_before = db.obs().vt();

    let (walked_tx, walked_rx) = mpsc::channel::<()>();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let reader_db = db.clone();
    let reader = std::thread::spawn(move || {
        let txn = reader_db.begin();
        let mut visited = 0u64;
        let mut sample: Option<(xtc_core::SplId, Option<String>)> = None;
        // Full-document DFS over navigation edges — the report reader.
        let mut stack: Vec<xtc_core::SplId> = txn.root().ok().flatten().into_iter().collect();
        while let Some(n) = stack.pop() {
            let Ok(data) = txn.node(&n) else { break };
            visited += 1;
            if sample.is_none() && matches!(data, Some(xtc_core::NodeData::Text)) {
                sample = Some((n.clone(), txn.text_content(&n).ok().flatten()));
            }
            if matches!(
                data,
                Some(xtc_core::NodeData::Element { .. })
                    | Some(xtc_core::NodeData::AttributeRoot)
            ) {
                let mut kids = Vec::new();
                let mut c = txn.first_child(&n).ok().flatten();
                while let Some(cur) = c {
                    c = txn.next_sibling(&cur).ok().flatten();
                    kids.push(cur);
                }
                stack.extend(kids.into_iter().rev());
            }
        }
        let _ = walked_tx.send(());
        // Stay pinned (transaction open, locks/snapshot held) until the
        // writer window closes.
        let _ = stop_rx.recv();
        let consistent = match &sample {
            Some((n, first)) => txn.text_content(n).ok().flatten() == *first,
            None => true,
        };
        let lock_wait = reader_db
            .obs()
            .txn_vt(txn.id())
            .map(|vt| vt.lock_wait_us)
            .unwrap_or(0);
        let _ = txn.commit();
        (visited, lock_wait, consistent)
    });
    walked_rx.recv().expect("reader finished its walk");

    let deadline = Instant::now() + params.duration;
    let started = Instant::now();
    let mut writer_handles = Vec::new();
    for w in 0..params.writers {
        let db = db.clone();
        let cfg = params.bib.clone();
        let seed = params.seed.wrapping_add(w as u64 * 6151);
        writer_handles.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut commits = 0u64;
            let mut aborts = 0u64;
            while Instant::now() < deadline {
                // The seeded jittered backoff of the retry loop is the
                // contention manager for validation aborts (taOCC) and
                // timeout aborts (the pessimistic field) alike.
                let policy = RetryPolicy {
                    max_attempts: 4,
                    deadline: Some(deadline.saturating_duration_since(Instant::now())),
                    seed,
                    ..RetryPolicy::default()
                };
                let (res, _stats) = db.run_retrying(&policy, |txn| {
                    run_txn_body(txn, TxnKind::Chapter, &cfg, &mut rng, Pacing::default())
                });
                match res {
                    Ok(true) => commits += 1,
                    Ok(false) => {}
                    Err(_) => aborts += 1,
                }
            }
            (commits, aborts)
        }));
    }
    let mut writer_commits = 0u64;
    let mut writer_aborts = 0u64;
    for h in writer_handles {
        let (c, a) = h.join().expect("writer thread panicked");
        writer_commits += c;
        writer_aborts += a;
    }
    let elapsed = started.elapsed();
    let _ = stop_tx.send(());
    let (reader_reads, reader_lock_wait_us, reader_consistent) =
        reader.join().expect("reader thread panicked");

    LongReaderReport {
        protocol: params.protocol.clone(),
        writer_commits,
        writer_aborts,
        reader_reads,
        reader_lock_wait_us,
        reader_consistent,
        elapsed,
        vt: db.obs().vt().saturating_sub(vt_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_cluster1_run_produces_sane_report() {
        let mut params = TamixParams::cluster1("taDOM3+", IsolationLevel::Repeatable, 4);
        params.clients = 1;
        params.mix = vec![
            (TxnKind::QueryBook, 2),
            (TxnKind::Chapter, 1),
            (TxnKind::LendAndReturn, 1),
        ];
        // Generous duration: unit tests may share the machine with
        // release benchmarks.
        params.duration = Duration::from_millis(1200);
        params.wait_after_commit = Duration::from_millis(5);
        params.wait_after_operation = Duration::ZERO;
        params.initial_wait_max = Duration::from_millis(5);
        let report = run_cluster1(&params, &BibConfig::tiny());
        assert!(report.committed() > 0, "some transactions must commit");
        assert!(report.lock_requests > 0);
        assert_eq!(report.protocol, "taDOM3+");
        assert!(report.per_type.contains_key("TAqueryBook"));
    }

    #[test]
    fn cluster2_star2pl_reads_more_pages_than_tadom() {
        let cfg = BibConfig::tiny();
        let star = run_cluster2("Node2PL", &cfg, 1);
        let tadom = run_cluster2("taDOM3+", &cfg, 1);
        assert!(
            star.page_reads > tadom.page_reads,
            "IDX subtree scan must cost extra page reads ({} vs {})",
            star.page_reads,
            tadom.page_reads
        );
    }

    #[test]
    fn long_reader_under_tamvcc_never_waits_and_writers_commit() {
        let mut params = LongReaderParams::quick("taMVCC");
        params.duration = Duration::from_millis(300);
        let report = run_long_reader(&params);
        assert!(report.reader_reads > 50, "reader walked the document");
        assert_eq!(
            report.reader_lock_wait_us, 0,
            "snapshot reads never touch the lock table"
        );
        assert!(report.reader_consistent, "snapshot stays stable");
        // The reader never blocks the writers; the only aborts possible
        // are writer-vs-writer first-updater conflicts, which backoff
        // resolves, so commits dominate.
        assert!(
            report.writer_commits > report.writer_aborts,
            "writers commit freely while the reader stays pinned ({} commits, {} aborts)",
            report.writer_commits,
            report.writer_aborts
        );
    }

    #[test]
    fn long_reader_under_pessimistic_protocol_blocks_writers() {
        let mut params = LongReaderParams::quick("taDOM3+");
        params.duration = Duration::from_millis(300);
        let report = run_long_reader(&params);
        assert!(report.reader_consistent, "repeatable read holds");
        assert_eq!(
            report.writer_commits, 0,
            "chapter updates time out behind the pinned reader's read locks"
        );
    }

    #[test]
    fn cluster1_under_isolation_none_still_commits() {
        let mut params = TamixParams::cluster1("URIX", IsolationLevel::None, 4);
        params.clients = 1;
        params.mix = vec![(TxnKind::QueryBook, 2), (TxnKind::LendAndReturn, 2)];
        params.duration = Duration::from_millis(1000);
        params.wait_after_commit = Duration::from_millis(2);
        params.wait_after_operation = Duration::ZERO;
        params.initial_wait_max = Duration::ZERO;
        let report = run_cluster1(&params, &BibConfig::tiny());
        assert!(report.committed() > 0);
        assert_eq!(report.deadlocks, 0, "no locks, no deadlocks");
    }
}
