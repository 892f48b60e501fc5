//! The four workloads: building the engine under test, driving it with
//! two closed-loop clients, and checking what it left behind.
//!
//! Everything goes through the engine's public API: `XtcDb::run_retrying`
//! over `xtc_tamix::txns::run_txn_body` for the embedded workloads,
//! `xtc_server::Client` for the served one. The traced pass replaces
//! `run_retrying` by the same loop written out here, so that a span can
//! be recorded around each call into the engine.

use crate::spec::MAIN_PROTOCOL;
use crate::trace::{Span, SpanName};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtc_core::wal::{WalConfig, WalStorage};
use xtc_core::{
    AdmissionPolicy, CatalogConfig, DocStoreConfig, IsolationLevel, RetryPolicy, XtcConfig, XtcDb,
    XtcError,
};
use xtc_obs::{CostKind, ObsConfig};
use xtc_server::{Client, ServerConfig, ServerHandle, XtcServer};
use xtc_tamix::txns::{run_txn_body, Pacing, TxnKind};
use xtc_tamix::{build_bib_catalog, chaos, doc_name, sample_kind, BibConfig};

/// Closed loop, two clients, zero think time: the sandbox has two cores,
/// and more client threads than cores measures the scheduler.
pub const CLIENTS: usize = 2;
/// Discarded before every measured pass of a run.
pub const WARMUP: Duration = Duration::from_secs(2);
/// `cluster1-durable`: client 0 takes a checkpoint inline this often.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(5);
/// `cluster1-durable`: share of the document's live pages that may stay resident.
const RESIDENT_SHARE: f64 = 0.25;
/// `cluster1-hot`: both clients draw from this many books and one topic.
const HOT_BOOKS: usize = 2;
/// `cluster1-hot`: after this many of its transactions a client trims one
/// hot book's history back to its generated length. TAlendAndReturn lends
/// or returns on a coin flip, a random walk that cannot go below zero: on
/// four books the histories grew fivefold within a run, lock requests per
/// transaction doubled, and every metric spread 20-35% between seeds. The
/// other workloads spread the same lends over 200 to 2000 books.
const TRIM_EVERY: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Mem,
    Hot,
    Durable,
    Server,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Mem,
        Workload::Hot,
        Workload::Durable,
        Workload::Server,
    ];

    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].0
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Document sizes: the paper's for a real run, tiny for `--quick`.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// The embedded workloads' document.
    pub doc: BibConfig,
    /// Each of the served workload's two documents.
    pub served_doc: BibConfig,
}

impl Sizes {
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                doc: BibConfig::tiny(),
                served_doc: BibConfig::tiny(),
            }
        } else {
            Sizes {
                doc: BibConfig::paper(),
                served_doc: BibConfig::scaled(),
            }
        }
    }
}

/// The server's default retry policy (200 µs base backoff) with twice
/// its attempts. With 8, about one `cluster1-hot` run in six lost a
/// single TAlendAndReturn of its 35 000 transactions to eight deadlock
/// aborts in a row; a workload should have no failing operation. The
/// served workload keeps the server's own default: nothing contends there.
fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 16,
        base: Duration::from_micros(200),
        seed,
        ..RetryPolicy::default()
    }
}

/// The engine setting every workload shares: repeatable read at lock
/// depth 4 (the knee of the paper's Figs 7 and 9), lock cache on.
pub fn engine_config(protocol: &str, obs: bool) -> XtcConfig {
    XtcConfig {
        protocol: protocol.to_string(),
        isolation: IsolationLevel::Repeatable,
        lock_depth: 4,
        lock_cache: true,
        obs: obs.then(ObsConfig::default),
        ..XtcConfig::default()
    }
}

/// An in-memory database holding the generated document.
pub fn mem_db(protocol: &str, obs: bool, doc: &BibConfig) -> Arc<XtcDb> {
    let db = Arc::new(XtcDb::new(engine_config(protocol, obs)));
    xtc_tamix::bib::generate_into(&db, doc);
    db
}

/// What one client thread carries from pass to pass.
struct ClientState {
    /// Seeds the kind draws and — embedded — the target draws inside
    /// `run_txn_body`. Served, the targets come from the session's own
    /// stream, reseeded with the same number.
    rng: SmallRng,
    policy: RetryPolicy,
    db: Arc<XtcDb>,
    conn: Option<Client>,
    /// Replies seen over all passes, for the `stats` cross-check.
    acked: u64,
    refused: u64,
    /// `cluster1-hot` only: transactions until the next trim, and the book it takes.
    trim: Option<(usize, usize)>,
}

/// How one logical transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    /// Committed without doing its work: the target had vanished.
    Empty,
    /// Retries exhausted, or an error that is not retried.
    Failed,
}

/// One logical transaction as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: TxnKind,
    pub outcome: Outcome,
    pub attempts: u32,
    /// Completion, since the pass started.
    pub end_ns: u64,
    /// Retries and backoff included; the round trip when served.
    pub lat_ns: u64,
    /// Served only: the reply's `wall_us`.
    pub engine_us: u64,
}

/// What the two clients did during one timed pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub seconds: f64,
    /// Transactions that completed inside the window, all clients.
    pub samples: Vec<Sample>,
    /// Inline checkpoints taken by client 0, each in ms.
    pub checkpoints_ms: Vec<f64>,
    /// Why each failed transaction failed, as the engine or server put it.
    pub failures: Vec<String>,
    /// Traced passes only.
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn committed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome != Outcome::Failed)
            .count()
    }

    pub fn failed(&self) -> usize {
        self.samples.len() - self.committed()
    }

    pub fn txn_per_s(&self) -> f64 {
        self.committed() as f64 / self.seconds
    }

    /// Summed client-observed latency: the time the clients were busy.
    pub fn busy_us(&self) -> f64 {
        self.samples.iter().map(|s| s.lat_ns as f64 / 1e3).sum()
    }

    /// Latencies in µs, ascending, of the non-failed samples `keep` admits.
    pub fn latencies_us(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.outcome != Outcome::Failed && keep(s))
            .map(|s| s.lat_ns as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Sums of the engines' public counters; two snapshots bracket a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub lock_requests: u64,
    pub table_requests: u64,
    pub cache_hits: u64,
    pub deadlocks: u64,
    pub conversion_deadlocks: u64,
    pub page_reads: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_flushes: u64,
    pub evictions: u64,
    pub forced_writebacks: u64,
    pub wal_flushes: u64,
    pub wal_synced_records: u64,
    pub wal_synced_bytes: u64,
    pub lock_wait_us: u64,
    pub wal_flush_us: u64,
}

impl Counters {
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            lock_requests: self.lock_requests - before.lock_requests,
            table_requests: self.table_requests - before.table_requests,
            cache_hits: self.cache_hits - before.cache_hits,
            deadlocks: self.deadlocks - before.deadlocks,
            conversion_deadlocks: self.conversion_deadlocks - before.conversion_deadlocks,
            page_reads: self.page_reads - before.page_reads,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            pool_flushes: self.pool_flushes - before.pool_flushes,
            evictions: self.evictions - before.evictions,
            forced_writebacks: self.forced_writebacks - before.forced_writebacks,
            wal_flushes: self.wal_flushes - before.wal_flushes,
            wal_synced_records: self.wal_synced_records - before.wal_synced_records,
            wal_synced_bytes: self.wal_synced_bytes - before.wal_synced_bytes,
            lock_wait_us: self.lock_wait_us - before.lock_wait_us,
            wal_flush_us: self.wal_flush_us - before.wal_flush_us,
        }
    }
}

/// A workload, set up and ready to be driven.
pub struct Env {
    pub workload: Workload,
    /// The engines under test: one, or one per served document.
    pub dbs: Vec<Arc<XtcDb>>,
    /// The documents as generated — what `check_document` verifies.
    pub doc: BibConfig,
    /// The ID ranges transaction bodies draw targets from.
    pub draw: BibConfig,
    /// `cluster1-durable`: live pages after load and the budget derived from them.
    pub live_pages: Option<usize>,
    pub budget_pages: Option<usize>,
    clients: Vec<ClientState>,
    last_checkpoint: Instant,
    // Declared after `clients`: connections close before the listener stops.
    server: Option<ServerHandle>,
}

impl Env {
    /// Sets the workload up: documents generated, checkpointed where a
    /// WAL exists, server listening and sessions connected. `scratch` is
    /// an existing directory this run owns; durable files go below it.
    pub fn build(
        workload: Workload,
        sizes: &Sizes,
        protocol: &str,
        obs: bool,
        seed: u64,
        scratch: &Path,
    ) -> Result<Env, String> {
        let mut env = Env {
            workload,
            dbs: Vec::new(),
            doc: sizes.doc.clone(),
            draw: sizes.doc.clone(),
            live_pages: None,
            budget_pages: None,
            clients: Vec::new(),
            last_checkpoint: Instant::now(),
            server: None,
        };
        match workload {
            Workload::Mem => env.dbs.push(mem_db(protocol, obs, &sizes.doc)),
            Workload::Hot => {
                // No engine change needed to narrow the targets: the
                // bodies take their ID ranges from the config handed in.
                env.draw = BibConfig {
                    books: HOT_BOOKS.min(sizes.doc.books),
                    topics: 1,
                    ..sizes.doc.clone()
                };
                env.dbs.push(mem_db(protocol, obs, &sizes.doc));
            }
            Workload::Durable => {
                let live = mem_db(protocol, false, &sizes.doc)
                    .store()
                    .pool_stats()
                    .live;
                let budget = ((live as f64 * RESIDENT_SHARE).round() as usize).max(2);
                let dir = unique_dir(scratch)?;
                let (wal_dir, page_dir) = (dir.join("wal"), dir.join("pages"));
                std::fs::create_dir_all(&page_dir)
                    .map_err(|e| format!("{}: {e}", page_dir.display()))?;
                let config = XtcConfig {
                    wal: Some(WalConfig {
                        storage: WalStorage::Directory {
                            path: wal_dir,
                            segment_bytes: 16 << 20,
                        },
                        ..WalConfig::default()
                    }),
                    store: DocStoreConfig {
                        backend_dir: Some(page_dir),
                        max_resident_pages: Some(budget),
                        ..DocStoreConfig::default()
                    },
                    writeback_interval: Some(Duration::from_millis(2)),
                    ..engine_config(protocol, obs)
                };
                let db = Arc::new(XtcDb::try_new(config).map_err(|e| e.to_string())?);
                xtc_tamix::bib::generate_into(&db, &sizes.doc);
                db.checkpoint().map_err(|e| e.to_string())?;
                env.live_pages = Some(live);
                env.budget_pages = Some(budget);
                env.dbs.push(db);
            }
            Workload::Server => {
                env.doc = sizes.served_doc.clone();
                env.draw = sizes.served_doc.clone();
                let catalog = build_bib_catalog(
                    CatalogConfig {
                        defaults: engine_config(protocol, obs),
                        max_in_flight: Some(64),
                        admission: AdmissionPolicy::Queue,
                        ..CatalogConfig::default()
                    },
                    CLIENTS,
                    &sizes.served_doc,
                )
                .map_err(|e| e.to_string())?;
                let catalog = Arc::new(catalog);
                for i in 0..CLIENTS {
                    env.dbs
                        .push(catalog.open(&doc_name(i)).map_err(|e| e.to_string())?);
                }
                let server = XtcServer::serve(
                    catalog,
                    ServerConfig {
                        bib: sizes.served_doc.clone(),
                        seed,
                        ..ServerConfig::default()
                    },
                )
                .map_err(|e| format!("server: {e}"))?;
                env.server = Some(server);
            }
        }
        for i in 0..CLIENTS {
            let client_seed = seed.wrapping_add(7919 * i as u64);
            let conn = match &env.server {
                Some(server) => {
                    let mut c =
                        Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
                    let opened = c.open(&doc_name(i)).map_err(|e| format!("open: {e}"))?;
                    if !opened {
                        return Err(format!("server does not host {}", doc_name(i)));
                    }
                    c.seed(client_seed).map_err(|e| format!("seed: {e}"))?;
                    Some(c)
                }
                None => None,
            };
            env.clients.push(ClientState {
                rng: SmallRng::seed_from_u64(client_seed),
                policy: retry_policy(client_seed),
                db: env.dbs[i % env.dbs.len()].clone(),
                conn,
                acked: 0,
                refused: 0,
                // Staggered, so the two clients trim different books.
                trim: (workload == Workload::Hot).then_some((TRIM_EVERY, i * HOT_BOOKS / CLIENTS)),
            });
        }
        env.last_checkpoint = Instant::now();
        Ok(env)
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for db in &self.dbs {
            let table = db.lock_table();
            c.lock_requests += table.requests();
            c.table_requests += table.table_requests();
            c.cache_hits += table.cache_hits();
            c.deadlocks += table.deadlocks().total();
            c.conversion_deadlocks += table.deadlocks().conversion_caused();
            c.page_reads += db.store().stats().page_reads();
            let pool = db.store().pool_stats();
            c.pool_hits += pool.hits;
            c.pool_misses += pool.misses;
            c.pool_flushes += pool.flushes;
            c.evictions += pool.evictions;
            c.forced_writebacks += pool.forced_writebacks;
            if let Some(wal) = db.wal() {
                let w = wal.stats();
                c.wal_flushes += w.flushes;
                c.wal_synced_records += w.synced_records;
                c.wal_synced_bytes += w.synced_bytes;
            }
            let vt = db.obs().vt();
            c.lock_wait_us += vt.get(CostKind::LockWait);
            c.wal_flush_us += vt.get(CostKind::WalFlush);
        }
        c
    }

    pub fn node_count(&self) -> usize {
        self.dbs.iter().map(|db| db.store().node_count()).sum()
    }

    /// Runs both clients for `window`, each sending its next transaction
    /// as soon as the previous one has ended. A transaction that ends
    /// after the window is dropped. `traced` records spans.
    pub fn drive(&mut self, window: Duration, traced: bool) -> Pass {
        let draw = self.draw.clone();
        let durable = self.workload == Workload::Durable;
        let start = Instant::now();
        let end = start + window;
        let mut last_checkpoint = self.last_checkpoint;
        let mut pass = Pass {
            seconds: window.as_secs_f64(),
            ..Pass::default()
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    let draw = &draw;
                    // Client 0 doubles as the checkpointer: no extra thread
                    // competes with the two clients for the two cores.
                    let checkpoint_from = (durable && i == 0).then_some(last_checkpoint);
                    scope.spawn(move || client.run(i, draw, start, end, traced, checkpoint_from))
                })
                .collect();
            for h in handles {
                let done = h.join().expect("client thread panicked");
                pass.samples.extend(done.samples);
                pass.spans.extend(done.spans);
                pass.failures.extend(done.failures);
                if let Some((at, ms)) = done.checkpoints {
                    last_checkpoint = at;
                    pass.checkpoints_ms = ms;
                }
            }
        });
        self.last_checkpoint = last_checkpoint;
        pass
    }

    /// End-of-run checks; every returned line is a violation. Crashes
    /// the durable workload's WAL, so nothing may be driven afterwards.
    /// The second value is the recovery time in ms, durable only.
    pub fn check(&mut self) -> (Vec<String>, Option<f64>) {
        let mut issues = Vec::new();
        let mut recovery_ms = None;
        for (i, db) in self.dbs.iter().enumerate() {
            // Full config even after the hot workload: the whole document
            // must still be sound, not only the books that were hammered.
            for v in chaos::check_document(db, &self.doc) {
                issues.push(format!("document {i}: {v}"));
            }
            if db.admitted_in_flight() != 0 {
                issues.push(format!(
                    "document {i}: {} admissions still in flight",
                    db.admitted_in_flight()
                ));
            }
        }
        if self.workload == Workload::Durable {
            let db = &self.dbs[0];
            let live = chaos::document_digest(db);
            let wal = db.wal().expect("durable workload has a WAL");
            // Every commit waited for its sync, so the durable prefix
            // must hold all of them.
            wal.crash();
            let started = Instant::now();
            match xtc_core::recover_from(wal, engine_config(MAIN_PROTOCOL, false)) {
                Ok((recovered, _report)) => {
                    recovery_ms = Some(started.elapsed().as_secs_f64() * 1e3);
                    let digest = chaos::document_digest(&recovered);
                    if digest != live {
                        issues.push(format!(
                            "recovered document digest {digest:#x} differs from the live one {live:#x}"
                        ));
                    }
                }
                Err(e) => issues.push(format!("recovery failed: {e}")),
            }
        }
        if self.server.is_some() {
            let acked: u64 = self.clients.iter().map(|c| c.acked).sum();
            let refused: u64 = self.clients.iter().map(|c| c.refused).sum();
            match self.clients[0]
                .conn
                .as_mut()
                .expect("served client")
                .stats()
            {
                Ok(s) if (s.committed, s.failed) == (acked, refused) => {}
                Ok(s) => issues.push(format!(
                    "server counted {} committed / {} failed, its clients {acked} / {refused}",
                    s.committed, s.failed
                )),
                Err(e) => issues.push(format!("stats: {e}")),
            }
        }
        (issues, recovery_ms)
    }
}

/// A fresh directory below `scratch` (several engines may be built in one run).
fn unique_dir(scratch: &Path) -> Result<PathBuf, String> {
    for n in 0.. {
        let dir = scratch.join(format!("env{n}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(format!("{}: {e}", dir.display())),
        }
    }
    unreachable!()
}

/// One client's share of a [`Pass`].
struct ClientPass {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    failures: Vec<String>,
    /// Client 0 of the durable workload: when it last took a checkpoint, and how long each took.
    checkpoints: Option<(Instant, Vec<f64>)>,
}

impl ClientState {
    fn run(
        &mut self,
        thread: usize,
        draw: &BibConfig,
        start: Instant,
        end: Instant,
        traced: bool,
        mut checkpoint_from: Option<Instant>,
    ) -> ClientPass {
        let mut samples = Vec::new();
        let mut spans = Vec::new();
        let mut failures = Vec::new();
        let mut checkpoints_ms = Vec::new();
        let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
        loop {
            let t0 = Instant::now();
            if t0 >= end {
                break;
            }
            if let Some(last) = checkpoint_from.as_mut() {
                if t0.duration_since(*last) >= CHECKPOINT_EVERY {
                    self.db.checkpoint().expect("checkpoint");
                    *last = Instant::now();
                    checkpoints_ms.push(last.duration_since(t0).as_secs_f64() * 1e3);
                    continue;
                }
            }
            if let Some((left, book)) = self.trim.as_mut() {
                if *left == 0 {
                    let (id, keep) = (format!("b{book}"), draw.lends.1);
                    // Untimed and unsampled: housekeeping, not part of the mix.
                    // Best effort: it may lose to the other client (retries
                    // exhausted, or under taMVCC a lend its snapshot still
                    // shows is already gone); the next trim catches up.
                    let _ = self
                        .db
                        .run_retrying(&self.policy, |txn| trim_history(txn, &id, keep));
                    *left = TRIM_EVERY;
                    *book = (*book + 1) % draw.books;
                    continue;
                }
                *left -= 1;
            }
            let kind = sample_kind(&mut self.rng);
            let txn_no = samples.len() as u32;
            let mut span = |name: SpanName, from: Instant, to: Instant| {
                spans.push(Span {
                    thread: thread as u8,
                    txn: txn_no,
                    kind,
                    name,
                    start_ns: ns(from),
                    end_ns: ns(to),
                });
            };
            let (result, attempts, engine_us) = match (&mut self.conn, traced) {
                (Some(conn), _) => match conn.run(kind.name()).expect("server connection") {
                    Ok(reply) => {
                        self.acked += 1;
                        (Ok(reply.did_work), reply.attempts, reply.wall_us)
                    }
                    Err(reason) => {
                        self.refused += 1;
                        (Err(reason), 0, 0)
                    }
                },
                (None, false) => {
                    let (res, stats) = self.db.run_retrying(&self.policy, |txn| {
                        run_txn_body(txn, kind, draw, &mut self.rng, Pacing::default())
                    });
                    (res.map_err(|e| e.to_string()), stats.attempts, 0)
                }
                (None, true) => {
                    let (res, attempts) =
                        retrying_with_spans(&self.db, &self.policy, &mut span, |txn| {
                            run_txn_body(txn, kind, draw, &mut self.rng, Pacing::default())
                        });
                    (res.map_err(|e| e.to_string()), attempts, 0)
                }
            };
            let t1 = Instant::now();
            if t1 >= end {
                break;
            }
            if traced {
                if self.conn.is_some() {
                    // The reply says how long the engine ran, not when:
                    // the remainder is shown before it.
                    let engine = Duration::from_micros(engine_us).min(t1 - t0);
                    span(SpanName::Request, t0, t1);
                    span(SpanName::Frontend, t0, t1 - engine);
                    span(SpanName::Engine, t1 - engine, t1);
                } else {
                    span(SpanName::Txn, t0, t1);
                }
            }
            samples.push(Sample {
                kind,
                outcome: match result {
                    Ok(true) => Outcome::Committed,
                    Ok(false) => Outcome::Empty,
                    Err(reason) => {
                        failures.push(format!("{}: {reason}", kind.name()));
                        Outcome::Failed
                    }
                },
                attempts,
                end_ns: ns(t1),
                lat_ns: (t1 - t0).as_nanos() as u64,
                engine_us,
            });
        }
        // Spans of a transaction dropped at the window's edge go with it.
        spans.retain(|s| (s.txn as usize) < samples.len());
        ClientPass {
            samples,
            spans,
            failures,
            checkpoints: checkpoint_from.map(|at| (at, checkpoints_ms)),
        }
    }
}

/// Deletes a book's oldest lends until at most `keep` are left.
fn trim_history(
    txn: &xtc_core::Transaction<'_>,
    book_id: &str,
    keep: usize,
) -> Result<(), XtcError> {
    let Some(book) = txn.element_by_id(book_id)? else {
        return Ok(());
    };
    let Some(history) = txn.last_child(&book)? else {
        return Ok(());
    };
    let lends = txn.element_children(&history)?;
    for lend in &lends[..lends.len().saturating_sub(keep)] {
        txn.delete_subtree(lend)?;
    }
    Ok(())
}

/// `XtcDb::run_retrying`, written out so that each call into the engine
/// sits inside a span: `begin`, `body`, `commit` or `abort`, `backoff`,
/// once per attempt. Same admission path, same backoff draws and the
/// same virtual-clock charge; the policy's deadline fields are unset in
/// this benchmark and not consulted.
fn retrying_with_spans<T>(
    db: &XtcDb,
    policy: &RetryPolicy,
    span: &mut impl FnMut(SpanName, Instant, Instant),
    mut body: impl FnMut(&xtc_core::Transaction<'_>) -> Result<T, XtcError>,
) -> (Result<T, XtcError>, u32) {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let t0 = Instant::now();
        let begun = db.try_begin();
        let t1 = Instant::now();
        span(SpanName::Begin, t0, t1);
        let (result, salt) = match begun {
            Ok(txn) => {
                let salt = txn.id();
                let outcome = body(&txn);
                let t2 = Instant::now();
                span(SpanName::Body, t1, t2);
                let result = match outcome {
                    Ok(v) => {
                        let r = txn.commit().map(|()| v);
                        span(SpanName::Commit, t2, Instant::now());
                        r
                    }
                    Err(e) => {
                        txn.abort();
                        span(SpanName::Abort, t2, Instant::now());
                        Err(e)
                    }
                };
                let _ = db.obs().take_last_txn_vt();
                (result, salt)
            }
            Err(e) => (Err(e), attempts as u64),
        };
        match result {
            Err(e) if e.is_retryable() && attempts < policy.max_attempts.max(1) => {
                let delay = policy.delay(attempts - 1, salt);
                let t3 = Instant::now();
                std::thread::sleep(delay);
                db.obs()
                    .charge(CostKind::RetryBackoff, delay.as_micros() as u64);
                span(SpanName::Backoff, t3, Instant::now());
            }
            done => return (done, attempts),
        }
    }
}

/// An idle one-document server for the ladder's `server.*` rungs:
/// round trips that reach no engine.
pub fn idle_server(doc: &BibConfig) -> Result<ServerHandle, String> {
    let catalog = build_bib_catalog(CatalogConfig::default(), 1, doc).map_err(|e| e.to_string())?;
    XtcServer::serve(Arc::new(catalog), ServerConfig::default()).map_err(|e| format!("server: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtc-perf-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// One client's (kind, outcome, attempts) sequence and the document
    /// it leaves behind, single-threaded so no interleaving interferes.
    fn one_client(seed: u64) -> (Vec<(TxnKind, Outcome, u32)>, u64) {
        let dir = scratch(&format!("det{seed}"));
        let mut env = Env::build(
            Workload::Mem,
            &Sizes::new(true),
            MAIN_PROTOCOL,
            false,
            seed,
            &dir,
        )
        .unwrap();
        let draw = env.draw.clone();
        let client = &mut env.clients[0];
        let mut seen = Vec::new();
        for _ in 0..200 {
            let kind = sample_kind(&mut client.rng);
            let (res, stats) = client.db.run_retrying(&client.policy, |txn| {
                run_txn_body(txn, kind, &draw, &mut client.rng, Pacing::default())
            });
            let outcome = match res {
                Ok(true) => Outcome::Committed,
                Ok(false) => Outcome::Empty,
                Err(_) => Outcome::Failed,
            };
            seen.push((kind, outcome, stats.attempts));
        }
        let digest = chaos::document_digest(&env.dbs[0]);
        std::fs::remove_dir_all(dir).unwrap();
        (seen, digest)
    }

    #[test]
    fn same_seed_generates_the_same_kinds_and_targets() {
        // The digest covers the targets: the same books lent, the same
        // chapters rewritten, the same topics renamed.
        assert_eq!(one_client(7), one_client(7));
        assert_ne!(one_client(7).0, one_client(8).0);
    }

    #[test]
    fn every_workload_drives_and_passes_its_checks_at_quick_size() {
        for workload in Workload::ALL {
            let dir = scratch(workload.name());
            let mut env =
                Env::build(workload, &Sizes::new(true), MAIN_PROTOCOL, false, 1, &dir).unwrap();
            let before = env.counters();
            let untraced = env.drive(Duration::from_millis(300), false);
            let traced = env.drive(Duration::from_millis(300), true);
            let delta = env.counters().since(before);
            assert!(
                untraced.committed() > 0 && traced.committed() > 0,
                "{}",
                workload.name()
            );
            assert!(untraced.spans.is_empty() && !traced.spans.is_empty());
            assert!(delta.lock_requests > 0);
            let (issues, recovery_ms) = env.check();
            assert!(issues.is_empty(), "{}: {issues:?}", workload.name());
            assert_eq!(recovery_ms.is_some(), workload == Workload::Durable);
            drop(env);
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn hot_workload_narrows_the_draw_but_checks_the_whole_document() {
        let dir = scratch("hotcfg");
        let sizes = Sizes::new(false);
        let sizes = Sizes {
            doc: BibConfig {
                books: 40,
                topics: 4,
                persons: 10,
                ..sizes.served_doc.clone()
            },
            ..sizes
        };
        let env = Env::build(Workload::Hot, &sizes, MAIN_PROTOCOL, false, 1, &dir).unwrap();
        assert_eq!((env.draw.books, env.draw.topics), (HOT_BOOKS, 1));
        assert_eq!((env.doc.books, env.doc.topics), (40, 4));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
