//! Replication benchmark: the read-scaling story and the failover drill.
//!
//! **Read scaling** runs one primary under a sustained write storm while
//! a fleet of CLUSTER2-style long readers issues `TAqueryBook`
//! transactions, sweeping the replica count over `--fleets` (default
//! 0,1,2,4). The document is deliberately small (`--hot-books`) and the
//! writers *pace* — they hold exclusive book locks across their think
//! time, the paper's CLUSTER mechanism — so on a replica-less deployment
//! every reader spends most of its life blocked behind a sleeping
//! writer. With replicas the readers spread round-robin over
//! committed-snapshot engines and never wait on a writer at all: the
//! throughput gain is contention removed, not cores added (the gate
//! holds on a single-core host). A shipper thread pumps the WAL
//! continuously and records the worst deterministic lag it ever
//! published.
//!
//! **Promotion drill** commits an acknowledged-marker ledger against a
//! replicated document, crashes the primary mid-storm, promotes, and
//! verifies that every acknowledged commit survived and the resumed
//! workload progresses on the new primary.
//!
//! Gates (`--check` makes them fatal): read throughput with the largest
//! fleet must beat the replica-less baseline, every sweep cell must keep
//! its worst observed lag under `--lag-bound-us`, drain to zero and (with
//! replicas) fail no read, and the drill must lose no acknowledged commit
//! while the promoted primary keeps committing and the rebuilt replicas
//! match it. The report is checked in as `BENCH_repl.json`.

use crate::cli::{die, Flags};
use crate::report::Report;
use crate::{percentile, row};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xtc_core::{Catalog, CatalogConfig, DocSpec, InsertPos, RetryPolicy, XtcConfig, XtcDb};
use xtc_repl::{ReplConfig, ReplGroup};
use xtc_tamix::txns::{run_txn_body, Pacing, TxnKind};
use xtc_tamix::{build_bib_catalog, chaos::document_digest, doc_name, BibConfig};

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        base: Duration::from_micros(200),
        ..RetryPolicy::default()
    }
}

/// One cell of the read-scaling sweep.
struct ScaleCell {
    replicas: usize,
    reads: usize,
    read_failed: usize,
    wall_s: f64,
    reads_per_sec: f64,
    read_vt: [u64; 2], // p50, p95
    read_attempts: u64,
    writer_commits: usize,
    max_lag_us: u64,
    final_lag_us: u64,
}

/// Runs one primary × `replicas` cell: a write storm on the primary, a
/// continuous shipper, and `readers` threads doing `reads` long reader
/// transactions each, round-robin over the replica fleet (the primary
/// when there is none).
#[allow(clippy::too_many_arguments)]
fn run_scale_cell(
    replicas: usize,
    readers: usize,
    writers: usize,
    reads: usize,
    ops_per_read: usize,
    apply_cost_us: u64,
    write_pause_us: u64,
    protocol: &str,
    seed: u64,
    bib: &BibConfig,
) -> ScaleCell {
    let template = XtcConfig {
        protocol: protocol.to_string(),
        lock_timeout: Duration::from_secs(10),
        wal: Some(xtc_core::wal::WalConfig::default()),
        ..XtcConfig::default()
    };
    let catalog = Arc::new(
        build_bib_catalog(
            CatalogConfig {
                defaults: template.clone(),
                ..CatalogConfig::default()
            },
            1,
            bib,
        )
        .unwrap_or_else(|e| die(&format!("building catalog: {e}"))),
    );
    let doc = doc_name(0);
    let group = Arc::new(
        ReplGroup::new(
            catalog.clone(),
            doc.clone(),
            template,
            // Bounded ship batches so a catching-up replica publishes
            // its intermediate lag instead of draining invisibly.
            ReplConfig {
                apply_cost_us,
                ship_batch: 64,
            },
        )
        .unwrap_or_else(|e| die(&format!("building group: {e}"))),
    );
    for _ in 0..replicas {
        group
            .add_replica()
            .unwrap_or_else(|e| die(&format!("add replica: {e}")));
    }
    group
        .catch_up()
        .unwrap_or_else(|e| die(&format!("bootstrap catch-up: {e}")));
    let primary = group.primary().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let max_lag = Arc::new(AtomicU64::new(0));
    let writer_commits = Arc::new(AtomicUsize::new(0));

    // The shipper: pump continuously, tracking the worst published lag.
    let shipper = {
        let group = group.clone();
        let stop = stop.clone();
        let max_lag = max_lag.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                group.pump().unwrap_or_else(|e| die(&format!("pump: {e}")));
                for r in group.replicas() {
                    max_lag.fetch_max(r.lag_us(), Ordering::Relaxed);
                }
                // A shipping interval, not a spin: lag stays bounded
                // without the shipper competing with readers for a core.
                std::thread::sleep(Duration::from_micros(1000));
            }
        })
    };

    // The write storm: every writer type until the readers finish their
    // quota. The pacing is the load-bearing knob: each writer *holds its
    // exclusive locks across the think time* (the paper's CLUSTER
    // mechanism), so on a replica-less deployment the readers stall
    // behind it — exactly the contention replicas exist to remove.
    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let primary = primary.clone();
            let stop = stop.clone();
            let commits = writer_commits.clone();
            let bib = bib.clone();
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xB0 ^ (w as u64) << 17);
                let retry = retry_policy();
                let pacing = Pacing {
                    wait_after_operation: Duration::from_micros(write_pause_us),
                    ..Pacing::default()
                };
                // No DelBook: the hot set is tiny by design, and the
                // storm must not eat the population out from under the
                // readers.
                let writer_kinds = [
                    TxnKind::LendAndReturn,
                    TxnKind::Chapter,
                    TxnKind::RenameTopic,
                    TxnKind::LendAndReturn,
                ];
                while !stop.load(Ordering::Acquire) {
                    let kind = writer_kinds[rng.random_range(0..writer_kinds.len())];
                    let (result, _) = primary.run_retrying(&retry, |txn| {
                        run_txn_body(txn, kind, &bib, &mut rng, pacing)
                    });
                    if result.is_ok() {
                        commits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // The readers: long transactions (several QueryBook bodies each),
    // spread round-robin over the replica fleet.
    let fleet = group.replicas();
    let started = Instant::now();
    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            let primary = primary.clone();
            let fleet = fleet.clone();
            let bib = bib.clone();
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EAD ^ (r as u64) << 23);
                let retry = retry_policy();
                let pacing = Pacing {
                    wait_after_operation: Duration::ZERO,
                    ..Pacing::default()
                };
                let replica = (!fleet.is_empty()).then(|| fleet[r % fleet.len()].clone());
                let mut vt = Vec::with_capacity(reads);
                let mut attempts = 0u64;
                let mut failed = 0usize;
                for _ in 0..reads {
                    let db: &XtcDb = replica.as_ref().map_or(&primary, |rep| rep.db());
                    // Replica reads hold the apply latch, exactly like a
                    // routed server session.
                    let latch = replica.as_ref().map(|rep| rep.shared().read_latch());
                    let (result, stats) = db.run_retrying(&retry, |txn| {
                        for _ in 0..ops_per_read {
                            run_txn_body(txn, TxnKind::QueryBook, &bib, &mut rng, pacing)?;
                        }
                        Ok(())
                    });
                    drop(latch);
                    attempts += stats.attempts as u64;
                    match result {
                        Ok(()) => vt.push(stats.vt_elapsed_us),
                        Err(_) => failed += 1,
                    }
                }
                (vt, attempts, failed)
            })
        })
        .collect();

    let mut vt: Vec<u64> = Vec::new();
    let mut read_attempts = 0u64;
    let mut read_failed = 0usize;
    for h in reader_handles {
        let (v, a, f) = h.join().unwrap_or_else(|_| die("reader panicked"));
        vt.extend(v);
        read_attempts += a;
        read_failed += f;
    }
    let wall = started.elapsed();
    stop.store(true, Ordering::Release);
    for h in writer_handles {
        h.join().unwrap_or_else(|_| die("writer panicked"));
    }
    shipper.join().unwrap_or_else(|_| die("shipper panicked"));
    group
        .catch_up()
        .unwrap_or_else(|e| die(&format!("final catch-up: {e}")));
    let final_lag_us = group
        .replicas()
        .iter()
        .map(|r| r.lag_us())
        .max()
        .unwrap_or(0);

    vt.sort_unstable();
    ScaleCell {
        replicas,
        reads: vt.len(),
        read_failed,
        wall_s: wall.as_secs_f64(),
        reads_per_sec: vt.len() as f64 / wall.as_secs_f64().max(1e-9),
        read_vt: [percentile(&vt, 50.0), percentile(&vt, 95.0)],
        read_attempts,
        writer_commits: writer_commits.load(Ordering::Relaxed),
        max_lag_us: max_lag.load(Ordering::Relaxed),
        final_lag_us,
    }
}

/// Outcome of the promotion drill.
struct DrillReport {
    acknowledged: usize,
    lost: usize,
    fenced_lsn: u64,
    recovery_winners: usize,
    recovery_losers: usize,
    replicas_rebuilt: usize,
    post_promotion_commits: usize,
    replica_digest_match: bool,
}

/// Commits an acknowledged-marker ledger until the primary is crashed
/// under it, then promotes and audits the survivors.
fn run_promotion_drill(protocol: &str, crash_after: usize, resume_commits: usize) -> DrillReport {
    let template = XtcConfig {
        protocol: protocol.to_string(),
        lock_timeout: Duration::from_secs(10),
        wal: Some(xtc_core::wal::WalConfig::default()),
        ..XtcConfig::default()
    };
    let catalog = Arc::new(Catalog::new(CatalogConfig {
        defaults: template.clone(),
        ..CatalogConfig::default()
    }));
    catalog
        .create_doc(DocSpec::named("drill").with_xml("<doc><seed>s</seed></doc>"))
        .unwrap_or_else(|e| die(&format!("creating drill doc: {e}")));
    let group = Arc::new(
        ReplGroup::new(catalog.clone(), "drill", template, ReplConfig::default())
            .unwrap_or_else(|e| die(&format!("building drill group: {e}"))),
    );
    group.add_replica().unwrap();
    group.add_replica().unwrap();
    group.catch_up().unwrap();
    let primary = group.primary().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let acks = Arc::new(AtomicUsize::new(0));

    // Shipper keeps the replicas applying right up to the crash.
    let shipper = {
        let group = group.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                group
                    .pump()
                    .unwrap_or_else(|e| die(&format!("drill pump: {e}")));
                std::thread::yield_now();
            }
        })
    };

    // The ledger writer: marker `w{i}` is *acknowledged* exactly when its
    // commit returns Ok. The loop ends at the first post-crash error.
    let writer = {
        let primary = primary.clone();
        let acks = acks.clone();
        std::thread::spawn(move || {
            for i in 0.. {
                let txn = primary.begin();
                let committed = txn
                    .root()
                    .and_then(|root| {
                        let root = root.expect("drill doc lost its root");
                        txn.insert_element(&root, InsertPos::LastChild, &format!("w{i}"))
                            .map(|_| ())
                    })
                    .is_ok()
                    && txn.commit().is_ok();
                if !committed {
                    return; // the crash landed; nothing after is acknowledged
                }
                acks.fetch_add(1, Ordering::Release);
            }
        })
    };

    // Crash the primary mid-storm, once enough commits are acknowledged.
    while acks.load(Ordering::Acquire) < crash_after {
        std::thread::yield_now();
    }
    primary.wal().unwrap().crash();
    writer
        .join()
        .unwrap_or_else(|_| die("drill writer panicked"));
    stop.store(true, Ordering::Release);
    shipper
        .join()
        .unwrap_or_else(|_| die("drill shipper panicked"));
    let acknowledged = acks.load(Ordering::Acquire);

    let report = group
        .promote()
        .unwrap_or_else(|e| die(&format!("promotion: {e}")));
    let new_primary = group.primary().unwrap();

    // Audit: every acknowledged marker must exist on the new primary.
    let mut lost = 0usize;
    {
        let txn = new_primary.begin();
        for i in 0..acknowledged {
            if txn
                .elements_named(&format!("w{i}"))
                .unwrap_or_else(|e| die(&format!("audit read: {e}")))
                .is_empty()
            {
                lost += 1;
            }
        }
        txn.commit()
            .unwrap_or_else(|e| die(&format!("audit commit: {e}")));
    }

    // The resumed workload: the new epoch keeps committing and shipping.
    let mut post_promotion_commits = 0usize;
    for i in 0..resume_commits {
        let txn = new_primary.begin();
        let root = txn.root().unwrap().unwrap();
        txn.insert_element(&root, InsertPos::LastChild, &format!("r{i}"))
            .unwrap_or_else(|e| die(&format!("resume insert: {e}")));
        if txn.commit().is_ok() {
            post_promotion_commits += 1;
        }
    }
    group
        .catch_up()
        .unwrap_or_else(|e| die(&format!("resume catch-up: {e}")));
    let replica_digest_match = group
        .replicas()
        .iter()
        .all(|r| document_digest(r.db()) == document_digest(&new_primary));

    DrillReport {
        acknowledged,
        lost,
        fenced_lsn: report.fenced_lsn,
        recovery_winners: report.recovery.winners.len(),
        recovery_losers: report.recovery.losers.len(),
        replicas_rebuilt: report.replicas_rebuilt,
        post_promotion_commits,
        replica_digest_match,
    }
}

pub fn run(flags: &Flags) {
    let mut report = Report::new(flags);
    report.read_check(flags);
    let fleets: Vec<usize> = flags.list("fleets", &[0, 1, 2, 4], "replica counts to sweep");
    let readers: usize = flags.num("readers", 4, "reader threads");
    let writers: usize = flags.num("writers", 2, "writer threads of the storm");
    let reads: usize = flags.num("reads", 60, "long reads per reader");
    let ops_per_read: usize = flags.num("ops", 6, "TAqueryBook bodies per long read");
    let hot_books: usize = flags.num("hot-books", 4, "books in the hot document");
    let apply_cost_us: u64 = flags.num("apply-cost-us", 2, "virtual cost per applied record");
    let write_pause_us: u64 = flags.num("write-pause-us", 2000, "writer think time under locks");
    let lag_bound_us: u64 = flags.num("lag-bound-us", 100_000, "worst tolerated replica lag");
    let protocol = flags.text("protocol", "taDOM3+", "lock protocol");
    let seed: u64 = flags.num("seed", 0x9E91, "base RNG seed");
    flags.finish();
    if fleets.is_empty() || readers == 0 || writers == 0 || reads == 0 || ops_per_read == 0 {
        die("--fleets, --readers, --writers, --reads, --ops must all be positive");
    }

    // A deliberately tiny hot set: every reader keeps landing on a book
    // some paced writer is holding, which is the contention the sweep
    // exists to remove.
    let bib = BibConfig {
        books: hot_books,
        ..BibConfig::tiny()
    };
    eprintln!(
        "repl: fleets {fleets:?}, {readers} readers × {reads} long reads \
         (× {ops_per_read} queries over {hot_books} books), {writers}-writer \
         storm pausing {write_pause_us}us, {protocol}"
    );

    let cells: Vec<ScaleCell> = fleets
        .iter()
        .map(|&replicas| {
            let cell = run_scale_cell(
                replicas,
                readers,
                writers,
                reads,
                ops_per_read,
                apply_cost_us,
                write_pause_us,
                &protocol,
                seed,
                &bib,
            );
            eprintln!(
                "  {replicas} replicas: {:.0} reads/s (vt p95 {}us), \
                 {} writer commits, max lag {}us",
                cell.reads_per_sec, cell.read_vt[1], cell.writer_commits, cell.max_lag_us
            );
            cell
        })
        .collect();

    eprintln!("repl: promotion drill");
    let drill = run_promotion_drill(&protocol, 25, 25);

    report.summary = row! {
        "protocol": &protocol, "readers": readers, "writers": writers,
        "reads_per_reader": reads, "ops_per_read": ops_per_read,
        "apply_cost_us": apply_cost_us, "write_pause_us": write_pause_us,
        "lag_bound_us": lag_bound_us, "seed": seed,
    };
    let scaling = cells.iter().map(|c| {
        row! {
            "replicas": c.replicas, "reads": c.reads, "read_failed": c.read_failed,
            "wall_s": c.wall_s, "reads_per_sec": c.reads_per_sec,
            "read_vt_p50_us": c.read_vt[0], "read_vt_p95_us": c.read_vt[1],
            "read_attempts": c.read_attempts, "writer_commits": c.writer_commits,
            "max_lag_us": c.max_lag_us, "final_lag_us": c.final_lag_us,
        }
    });
    report.table(
        "read_scaling",
        &format!("repl: read scaling under a {writers}-writer storm ({protocol})"),
        scaling.collect(),
    );
    report.table(
        "promotion",
        "repl: promotion drill",
        vec![row! {
            "acknowledged": drill.acknowledged, "lost": drill.lost,
            "fenced_lsn": drill.fenced_lsn, "recovery_winners": drill.recovery_winners,
            "recovery_losers": drill.recovery_losers,
            "replicas_rebuilt": drill.replicas_rebuilt,
            "post_promotion_commits": drill.post_promotion_commits,
            "replica_digest_match": drill.replica_digest_match,
        }],
    );

    let baseline = &cells[0];
    let largest = cells.iter().max_by_key(|c| c.replicas).unwrap_or(baseline);
    report.gate(
        "read_scaling",
        baseline.replicas == 0
            && (largest.replicas == 0 || largest.reads_per_sec > baseline.reads_per_sec),
        if baseline.replicas != 0 {
            "the sweep must include the replica-less baseline".to_string()
        } else {
            format!(
                "{} replicas served {:.1} reads/s vs {:.1} with none",
                largest.replicas, largest.reads_per_sec, baseline.reads_per_sec
            )
        },
    );
    let mut lagging = Vec::new();
    let mut shed = Vec::new();
    for c in &cells {
        if c.max_lag_us > lag_bound_us {
            lagging.push(format!(
                "{} replicas: worst lag {}us exceeds the {}us bound",
                c.replicas, c.max_lag_us, lag_bound_us
            ));
        }
        if c.final_lag_us != 0 {
            lagging.push(format!(
                "{} replicas: {}us lag left after the final catch-up",
                c.replicas, c.final_lag_us
            ));
        }
        // Replica reads never contend with the storm, so they must
        // all succeed; the replica-less baseline is allowed to shed
        // reads under contention (that is its point).
        if c.replicas > 0 && c.read_failed > 0 {
            shed.push(format!(
                "{} replicas: {} reader transactions exhausted retries",
                c.replicas, c.read_failed
            ));
        }
    }
    report.gate_all(
        "lag_bounded_and_drained",
        lagging,
        format!("every cell stayed under {lag_bound_us}us and drained to zero"),
    );
    report.gate_all(
        "replica_reads_succeed",
        shed,
        "no replica read exhausted its retries",
    );
    report.gate(
        "promotion_lossless",
        drill.lost == 0,
        format!(
            "promotion lost {} of {} acknowledged commits",
            drill.lost, drill.acknowledged
        ),
    );
    report.gate(
        "promotion_resumes",
        drill.post_promotion_commits > 0,
        format!(
            "{} commits on the promoted primary",
            drill.post_promotion_commits
        ),
    );
    report.gate(
        "replicas_match_promoted_primary",
        drill.replica_digest_match,
        "rebuilt replicas must digest-match the promoted primary",
    );
    report.finish();
}
