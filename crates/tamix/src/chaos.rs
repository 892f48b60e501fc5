//! Chaos-at-scale harness: crash–recover–resume under load.
//!
//! One [`run_crash_recover_resume`] call plays the full resilience story
//! the chaos tests and the `chaos` bench binary assert on:
//!
//! 1. build a WAL-backed database, load the bib document, checkpoint;
//! 2. arm a kill failpoint and run a scaled-down CLUSTER1 storm plus a
//!    set of *marker writers* whose commit acknowledgements form a fate
//!    ledger ([`Fate`]);
//! 3. crash (at the failpoint mid-run, or deliberately at phase end if
//!    the armed fault never fired);
//! 4. recover from the durable log prefix, measuring recovery time on
//!    the virtual clock ([`xtc_obs::CostKind::Recovery`]);
//! 5. verify the contract — every acknowledged commit survived, every
//!    clean failure is absent, document invariants and secondary
//!    indexes hold;
//! 6. resume the remaining workload on the recovered database and
//!    verify again.
//!
//! The harness *reports* violations ([`ChaosReport`]) instead of
//! panicking, so the bench binary can sweep the whole protocol × fault
//! matrix and emit one JSON document; the tests assert on the report.

use crate::bib::{self, BibConfig};
use crate::driver::{run_cluster1_on, TamixParams};
use crate::metrics::RunReport;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xtc_core::wal::WalConfig;
use xtc_core::{recover_from, RetryPolicy, XtcConfig, XtcDb, XtcError};

/// How a marker writer's transaction ended, keyed by its unique marker
/// element name. The durable contract is checked against this ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// `commit()` returned `Ok`: durable, must survive recovery.
    Committed,
    /// Failed cleanly before a commit record could exist: must not
    /// survive recovery.
    Absent,
    /// Died inside the commit protocol (`XtcError::Wal`): the commit
    /// record may or may not sit in the durable prefix — either fate is
    /// correct, but never a partial one.
    Unknown,
}

/// Parameters of one crash–recover–resume scenario.
#[derive(Debug, Clone)]
pub struct ChaosParams {
    /// Workload shape of both phases (protocol, mix, pacing, retry,
    /// deadline/admission settings). `tamix.duration` is the pre-crash
    /// phase length.
    pub tamix: TamixParams,
    /// Document scale.
    pub bib: BibConfig,
    /// Failpoint site armed as the kill (e.g. `wal.commit`, `wal.flush`,
    /// `wal.fsync`, `wal.append_io`, `store.page_read_io`,
    /// `btree.split`).
    pub kill_site: String,
    /// Probability per evaluation that the kill site fires.
    pub kill_probability: f64,
    /// Fault budget (`None` = a dead device that fails every attempt —
    /// guaranteed permanent; a small budget models transient faults that
    /// dry up and may never kill).
    pub kill_budget: Option<u64>,
    /// Length of the post-recovery resume phase.
    pub resume_duration: Duration,
    /// Marker writer threads (each writes `markers_per_worker` ledgered
    /// transactions during phase 1).
    pub workers: usize,
    /// Ledgered transactions per marker writer.
    pub markers_per_worker: usize,
}

impl ChaosParams {
    /// A compact scenario over `protocol` × `kill_site`, sized so a full
    /// 11-protocol sweep stays CI-friendly.
    pub fn quick(protocol: &str, kill_site: &str, seed: u64) -> Self {
        let mut tamix = TamixParams::cluster1(
            protocol,
            xtc_core::IsolationLevel::Repeatable,
            4,
        );
        tamix.clients = 1;
        tamix.mix = vec![
            (crate::txns::TxnKind::QueryBook, 2),
            (crate::txns::TxnKind::Chapter, 1),
            (crate::txns::TxnKind::LendAndReturn, 2),
        ];
        tamix.duration = Duration::from_millis(500);
        tamix.wait_after_commit = Duration::from_millis(2);
        tamix.wait_after_operation = Duration::ZERO;
        tamix.initial_wait_max = Duration::from_millis(2);
        tamix.lock_timeout = Duration::from_secs(5);
        tamix.seed = seed;
        tamix.retry = Some(RetryPolicy {
            max_attempts: 4,
            base: Duration::from_micros(200),
            cap: Duration::from_millis(4),
            ..RetryPolicy::default()
        });
        tamix.checkpoint_every = Some(Duration::from_millis(120));
        if kill_site == "btree.split" {
            // The site fires on page splits only, and the tiny document's
            // few 8 KB leaves do not split within a scenario.
            tamix.store.page_size = 512;
        }
        ChaosParams {
            tamix,
            bib: BibConfig::tiny(),
            kill_site: kill_site.to_string(),
            kill_probability: 0.2,
            kill_budget: None,
            resume_duration: Duration::from_millis(400),
            workers: 3,
            markers_per_worker: 3,
        }
    }
}

/// Outcome of one crash–recover–resume scenario. `violations` is empty
/// iff the durable contract held end to end.
#[derive(Debug)]
pub struct ChaosReport {
    /// Protocol under test.
    pub protocol: String,
    /// The armed kill site.
    pub kill_site: String,
    /// `true` when the armed fault actually crashed the engine mid-run
    /// (as opposed to the deliberate end-of-phase crash).
    pub crashed_mid_run: bool,
    /// `true` when the durable log ended in a torn record.
    pub torn_tail: bool,
    /// Recovery time charged to the recovered engine's virtual clock
    /// (µs).
    pub recovery_us: u64,
    /// Wall-clock recovery time (diagnostics; the bound is on
    /// `recovery_us`).
    pub recovery_wall: Duration,
    /// Records scanned from the durable log prefix.
    pub scanned: usize,
    /// Pre-crash phase report.
    pub pre: RunReport,
    /// Post-recovery resume-phase report.
    pub post: RunReport,
    /// Marker ledger size (workers × markers_per_worker).
    pub markers: usize,
    /// Markers whose commit was acknowledged (`Fate::Committed`).
    pub acknowledged: usize,
    /// In-doubt markers (`Fate::Unknown`).
    pub in_doubt: usize,
    /// Contract violations (acknowledged-commit loss, clean-failure
    /// leak, duplicated marker, broken invariant, index mismatch).
    /// Empty = the scenario passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Did the scenario uphold the durable contract?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// FNV-1a digest over the document in document order (ids, names,
/// text). Two databases with equal digests hold the same document —
/// the double-crash test uses this to show repeated recovery converges.
pub fn document_digest(db: &XtcDb) -> u64 {
    let mut nodes = db.store().all_nodes();
    nodes.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (id, _) in &nodes {
        eat(id.to_string().as_bytes());
        if let Some(name) = db.store().name_of(id) {
            eat(b"n:");
            eat(name.as_bytes());
        }
        if let Some(text) = db.store().text_of(id) {
            eat(b"t:");
            eat(text.as_bytes());
        }
    }
    h
}

/// Structural invariants of the bib document that every CLUSTER1
/// transaction preserves: topics neither vanish nor multiply, books
/// keep their five children in order, lends name a person, no lock
/// leaked. Returns the violations instead of panicking.
pub fn check_document(db: &XtcDb, cfg: &BibConfig) -> Vec<String> {
    let mut issues = Vec::new();
    let store = db.store();
    let topics = store.elements_named("topic").len() + store.elements_named("subject").len();
    if topics != cfg.topics {
        issues.push(format!("expected {} topics, found {topics}", cfg.topics));
    }
    let mut books_seen = 0;
    for t in 0..cfg.topics {
        let Some(topic) = store.element_by_id(&format!("t{t}")) else {
            issues.push(format!("topic t{t} unresolvable via id index"));
            continue;
        };
        for book in store.element_children(&topic) {
            // Topics also hold the harness's own marker elements; only
            // `book` children carry the five-child structure.
            if store.name_of(&book).as_deref() != Some("book") {
                continue;
            }
            books_seen += 1;
            let names: Vec<String> = store
                .element_children(&book)
                .iter()
                .filter_map(|c| store.name_of(c))
                .collect();
            if names != ["title", "author", "price", "chapters", "history"] {
                issues.push(format!("book {book} structure broken: {names:?}"));
                continue;
            }
            let history = store.element_children(&book).pop().unwrap();
            for lend in store.element_children(&history) {
                if store.name_of(&lend).as_deref() != Some("lend") {
                    issues.push(format!("unexpected child in history of {book}"));
                } else if store.attribute_value(&lend, "person").is_none() {
                    issues.push(format!("lend {lend} lost its person attribute"));
                }
            }
        }
    }
    if books_seen != store.elements_named("book").len() {
        issues.push("books outside topics".to_string());
    }
    issues.extend(store.verify_indexes());
    if db.lock_table().granted_count() != 0 {
        issues.push(format!("{} locks leaked", db.lock_table().granted_count()));
    }
    issues
}

/// Runs one marker writer: `count` ledgered insert transactions, each
/// retried under `policy`, fate recorded per marker name.
fn marker_writer(
    db: &Arc<XtcDb>,
    policy: &RetryPolicy,
    worker: usize,
    count: usize,
    topics: usize,
) -> Vec<(String, Fate)> {
    let mut fates = Vec::new();
    for i in 0..count {
        let marker = format!("mk{worker}x{i}");
        let name = marker.clone();
        let (res, _) = db.run_retrying(policy, move |txn| {
            let topic = txn
                .element_by_id(&format!("t{}", worker % topics))?
                .ok_or(XtcError::Busy)?;
            txn.insert_element(&topic, xtc_core::InsertPos::LastChild, &name)
                .map(|_| ())
        });
        let fate = match res {
            Ok(()) => Fate::Committed,
            Err(XtcError::Wal(_)) => Fate::Unknown,
            Err(_) => Fate::Absent,
        };
        fates.push((marker, fate));
    }
    fates
}

/// Plays one full crash–recover–resume scenario. The caller owns the
/// process-global failpoint registry: hold your storm lock around this
/// call; the harness arms the kill site and clears the registry before
/// recovering.
pub fn run_crash_recover_resume(params: &ChaosParams) -> ChaosReport {
    let tamix = &params.tamix;
    // `tamix.store`/`tamix.writeback_interval` carry through to both the
    // pre-crash and the recovered engine, so the whole scenario — storm,
    // crash, recovery, resume — can run on a file-backed pool with a
    // background flusher.
    let db = Arc::new(XtcDb::new(XtcConfig {
        protocol: tamix.protocol.clone(),
        isolation: tamix.isolation,
        lock_depth: tamix.lock_depth,
        lock_timeout: tamix.lock_timeout,
        victim_policy: tamix.victim_policy,
        lock_cache: tamix.lock_cache,
        store: tamix.store.clone(),
        wal: Some(WalConfig::default()),
        txn_deadline: tamix.txn_deadline,
        max_in_flight: tamix.max_in_flight,
        admission: tamix.admission,
        writeback_interval: tamix.writeback_interval,
        ..XtcConfig::default()
    }));
    // Bulk generation bypasses the log; the checkpoint makes the base
    // document recoverable.
    bib::generate_into(&db, &params.bib);
    db.checkpoint().expect("checkpoint clean database");

    xtc_failpoint::clear();
    xtc_failpoint::set_seed(tamix.seed);
    xtc_failpoint::configure(
        &params.kill_site,
        params.kill_probability,
        xtc_failpoint::FailAction::Error,
        params.kill_budget,
    );

    // Phase 1: marker writers + the CLUSTER1 storm, concurrently.
    let retry = tamix.retry.clone().unwrap_or_default();
    let marker_handles: Vec<_> = (0..params.workers)
        .map(|w| {
            let db = db.clone();
            let policy = RetryPolicy {
                seed: retry.seed.wrapping_add(w as u64 * 7919),
                ..retry.clone()
            };
            let count = params.markers_per_worker;
            let topics = params.bib.topics;
            std::thread::spawn(move || marker_writer(&db, &policy, w, count, topics))
        })
        .collect();
    let pre = run_cluster1_on(&db, tamix, &params.bib);
    let mut fates = Vec::new();
    for h in marker_handles {
        fates.extend(h.join().expect("marker writer panicked"));
    }

    let crashed_mid_run = {
        let wal = db.wal().expect("wal configured");
        wal.is_crashed() || db.store().stats().is_poisoned()
    };
    xtc_failpoint::clear();

    // Crash now if the armed fault never fired: the recovery path runs
    // in every scenario.
    let wal = db.wal().expect("wal configured").clone();
    wal.crash();
    drop(db);

    // Recovery, timed on wall clock and charged to the recovered
    // engine's virtual clock by `recover_from`.
    let recovery_started = Instant::now();
    let (recovered, report) = recover_from(
        &wal,
        XtcConfig {
            protocol: tamix.protocol.clone(),
            isolation: tamix.isolation,
            lock_depth: tamix.lock_depth,
            lock_timeout: tamix.lock_timeout,
            victim_policy: tamix.victim_policy,
            lock_cache: tamix.lock_cache,
            store: tamix.store.clone(),
            wal: Some(WalConfig::default()),
            txn_deadline: tamix.txn_deadline,
            max_in_flight: tamix.max_in_flight,
            admission: tamix.admission,
            writeback_interval: tamix.writeback_interval,
            ..XtcConfig::default()
        },
    )
    .expect("recovery must succeed");
    let recovery_wall = recovery_started.elapsed();
    let recovered = Arc::new(recovered);

    // Verify the durable contract against the fate ledger.
    let mut violations = Vec::new();
    let store = recovered.store();
    let mut acknowledged = 0;
    let mut in_doubt = 0;
    for (marker, fate) in &fates {
        let count = store.elements_named(marker).len();
        match fate {
            Fate::Committed => {
                acknowledged += 1;
                if count != 1 {
                    violations.push(format!(
                        "acknowledged commit {marker} found {count} times after recovery"
                    ));
                }
            }
            Fate::Absent => {
                if count != 0 {
                    violations.push(format!(
                        "cleanly-failed {marker} leaked into recovery ({count} copies)"
                    ));
                }
            }
            Fate::Unknown => {
                in_doubt += 1;
                if count > 1 {
                    violations.push(format!("in-doubt {marker} duplicated ({count} copies)"));
                }
            }
        }
    }
    for issue in check_document(&recovered, &params.bib) {
        violations.push(format!("post-recovery: {issue}"));
    }

    // Phase 2: resume the remaining workload on the recovered engine.
    let mut resume = tamix.clone();
    resume.duration = params.resume_duration;
    resume.seed = tamix.seed.wrapping_add(0x5EED);
    let post = run_cluster1_on(&recovered, &resume, &params.bib);
    if post.committed() == 0 {
        violations.push("resume phase committed nothing".to_string());
    }
    for issue in check_document(&recovered, &params.bib) {
        violations.push(format!("post-resume: {issue}"));
    }

    ChaosReport {
        protocol: tamix.protocol.clone(),
        kill_site: params.kill_site.clone(),
        crashed_mid_run,
        torn_tail: report.torn_tail,
        recovery_us: recovered.obs().vt().recovery_us,
        recovery_wall,
        scanned: report.scanned,
        pre,
        post,
        markers: fates.len(),
        acknowledged,
        in_doubt,
        violations,
    }
}
