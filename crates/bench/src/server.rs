//! Many-clients server benchmark: a catalog of bib documents behind the
//! TCP front-end, driven by a fleet of concurrent sessions whose
//! document choice is Zipf-skewed — the server-consolidation story the
//! single-document clusters can't tell. Reports per-transaction-type
//! tail latency (p50/p95/p99) on both clocks: wall microseconds and the
//! engine's virtual-time attribution from each `run` reply.
//!
//! Gates (`--check` makes them fatal): every configured session must be
//! connected concurrently (the ≥1000-sessions claim), commit rate ≥ 99%,
//! every mix type must appear with nonzero virtual time at p99, the Zipf
//! skew must be visible (the hottest document serves more sessions than
//! the coldest), and no admission slot may stay held after the drain.
//! The report is checked in as `BENCH_server.json`.

use crate::cli::{die, Flags};
use crate::report::Report;
use crate::{percentile, row};
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use xtc_core::{AdmissionPolicy, CatalogConfig, DocStoreConfig, XtcConfig};
use xtc_server::{Client, ServerConfig, XtcServer};
use xtc_tamix::{build_bib_catalog, doc_name, sample_kind, BibConfig, TxnKind, Zipf};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One completed request, as measured at the client.
struct Sample {
    kind: TxnKind,
    wall_us: u64,
    vt_us: u64,
    attempts: u32,
}

struct KindRow {
    kind: TxnKind,
    count: usize,
    attempts: u64,
    wall: [u64; 3],
    vt: [u64; 3],
}

fn kind_rows(samples: &[Sample]) -> Vec<KindRow> {
    let mut rows = Vec::new();
    for kind in TxnKind::ALL {
        let mut wall: Vec<u64> = Vec::new();
        let mut vt: Vec<u64> = Vec::new();
        let mut attempts = 0u64;
        for s in samples.iter().filter(|s| s.kind == kind) {
            wall.push(s.wall_us);
            vt.push(s.vt_us);
            attempts += s.attempts as u64;
        }
        if wall.is_empty() {
            continue;
        }
        wall.sort_unstable();
        vt.sort_unstable();
        rows.push(KindRow {
            kind,
            count: wall.len(),
            attempts,
            wall: [
                percentile(&wall, 50.0),
                percentile(&wall, 95.0),
                percentile(&wall, 99.0),
            ],
            vt: [
                percentile(&vt, 50.0),
                percentile(&vt, 95.0),
                percentile(&vt, 99.0),
            ],
        });
    }
    rows
}

pub fn run(flags: &Flags) {
    let mut report = Report::new(flags);
    report.read_check(flags);
    let docs: usize = flags.num("docs", 16, "documents in the catalog");
    let sessions: usize = flags.num("sessions", 1024, "concurrent client sessions");
    let mut workers: usize = flags.num("workers", 16, "client threads driving the sessions");
    let requests: usize = flags.num("requests", 3, "requests per session");
    let zipf_s: f64 = flags.num("zipf", 1.0, "Zipf exponent of the document choice");
    let max_in_flight: usize = flags.num("max-in-flight", 64, "admission-gate slots");
    let protocol = flags.text("protocol", "taDOM3+", "lock protocol");
    let seed: u64 = flags.num("seed", 0x5E55_10B5, "base RNG seed");
    flags.finish();
    if docs == 0 || sessions == 0 || workers == 0 || requests == 0 {
        die("--docs, --sessions, --workers, --requests must all be positive");
    }
    workers = workers.min(sessions);

    eprintln!(
        "server: {docs} docs, {sessions} sessions over {workers} workers, \
         {requests} requests/session, zipf {zipf_s}, gate {max_in_flight}, {protocol}"
    );

    let bib = BibConfig::tiny();
    let catalog = build_bib_catalog(
        CatalogConfig {
            defaults: XtcConfig {
                protocol: protocol.clone(),
                lock_timeout: Duration::from_secs(10),
                // Simulated disk: page reads charge virtual time, so the
                // vt percentiles below measure more than lock waits.
                store: DocStoreConfig {
                    read_latency: Duration::from_micros(2),
                    ..DocStoreConfig::default()
                },
                ..XtcConfig::default()
            },
            max_in_flight: Some(max_in_flight),
            admission: AdmissionPolicy::Queue,
            pool_budget_pages: Some(docs * 96),
            pool_partitions: docs,
        },
        docs,
        &bib,
    )
    .unwrap_or_else(|e| die(&format!("building catalog: {e}")));

    let mut server = XtcServer::serve(
        Arc::new(catalog),
        ServerConfig {
            bib: bib.clone(),
            seed,
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| die(&format!("starting server: {e}")));
    let addr: SocketAddr = server.addr();

    // Session → document assignment is the Zipf draw: popular documents
    // serve many sessions, the tail serves few.
    let zipf = Zipf::new(docs, zipf_s);
    let mut assign_rng = SmallRng::seed_from_u64(seed);
    let doc_of: Vec<usize> = (0..sessions)
        .map(|_| zipf.sample(&mut assign_rng))
        .collect();
    let mut sessions_per_doc = vec![0usize; docs];
    for &d in &doc_of {
        sessions_per_doc[d] += 1;
    }

    // Phase 1: connect the whole fleet (all sessions concurrently
    // live), rendezvous, measure the plateau, then issue requests.
    let all_connected = Arc::new(Barrier::new(workers + 1));
    let started = Instant::now();
    let worker_handles: Vec<_> = (0..workers)
        .map(|w| {
            let doc_of: Vec<usize> = doc_of
                .iter()
                .copied()
                .enumerate()
                .filter(|(s, _)| s % workers == w)
                .map(|(_, d)| d)
                .collect();
            let all_connected = all_connected.clone();
            std::thread::spawn(move || {
                let mut conns: Vec<Client> = doc_of
                    .iter()
                    .map(|&d| {
                        let mut c = Client::connect(addr)
                            .unwrap_or_else(|e| die(&format!("worker {w}: connect: {e}")));
                        if !c.open(&doc_name(d)).unwrap_or(false) {
                            die(&format!("worker {w}: open {} refused", doc_name(d)));
                        }
                        c
                    })
                    .collect();
                all_connected.wait();
                let mut kind_rng = SmallRng::seed_from_u64(0xD0C5 ^ (w as u64) << 20);
                let mut samples: Vec<Sample> = Vec::new();
                let mut failed = 0usize;
                // Round-robin over this worker's sessions so every
                // connection interleaves with the whole fleet.
                for _round in 0..requests {
                    for c in conns.iter_mut() {
                        let kind = sample_kind(&mut kind_rng);
                        let begun = Instant::now();
                        match c.run(kind.name()) {
                            Ok(Ok(reply)) => samples.push(Sample {
                                kind,
                                // Client-observed wall time: queueing at
                                // the gate + execution + protocol.
                                wall_us: begun.elapsed().as_micros() as u64,
                                vt_us: reply.vt_us,
                                attempts: reply.attempts,
                            }),
                            Ok(Err(_)) => failed += 1,
                            Err(e) => die(&format!("worker {w}: transport: {e}")),
                        }
                    }
                }
                for c in conns {
                    let _ = c.quit();
                }
                (samples, failed)
            })
        })
        .collect();

    all_connected.wait();
    // Every session is connected right now: the concurrency plateau.
    let peak_sessions = server.stats().active_sessions.load(Ordering::Relaxed);
    let mut samples: Vec<Sample> = Vec::new();
    let mut failed = 0usize;
    for h in worker_handles {
        let (s, f) = h.join().unwrap_or_else(|_| die("worker panicked"));
        samples.extend(s);
        failed += f;
    }
    let wall_total = started.elapsed();
    let committed = samples.len();
    let in_flight_after = server.catalog().admitted_in_flight();
    server.shutdown();

    let rows = kind_rows(&samples);
    let total_requests = committed + failed;
    let commit_rate = if total_requests == 0 {
        0.0
    } else {
        committed as f64 / total_requests as f64
    };

    let hottest = sessions_per_doc.iter().copied().max().unwrap_or(0);
    let coldest = sessions_per_doc.iter().copied().min().unwrap_or(0);

    report.summary = row! {
        "docs": docs, "sessions": sessions, "peak_sessions": peak_sessions,
        "workers": workers, "requests_per_session": requests, "zipf_exponent": zipf_s,
        "max_in_flight": max_in_flight, "protocol": &protocol, "committed": committed,
        "failed": failed, "commit_rate": commit_rate, "wall_s": wall_total.as_secs_f64(),
    };
    let popularity = sessions_per_doc
        .iter()
        .enumerate()
        .map(|(doc, &n)| row! { "doc": doc, "sessions": n });
    report.data("sessions_per_doc", popularity.collect());
    let kinds = rows.iter().map(|r| {
        row! {
            "kind": r.kind.name(), "count": r.count, "attempts": r.attempts,
            "wall_p50_us": r.wall[0], "wall_p95_us": r.wall[1], "wall_p99_us": r.wall[2],
            "vt_p50_us": r.vt[0], "vt_p95_us": r.vt[1], "vt_p99_us": r.vt[2],
        }
    });
    report.table(
        "kinds",
        &format!("server: {sessions} Zipf-skewed sessions over {docs} documents"),
        kinds.collect(),
    );

    report.gate(
        "all_sessions_concurrent",
        peak_sessions as usize >= sessions,
        format!("{peak_sessions} of {sessions} sessions were concurrently connected"),
    );
    report.gate(
        "commit_rate",
        commit_rate >= 0.99,
        format!("commit rate {commit_rate:.4} ({failed} failures), floor 0.99"),
    );
    report.gate(
        "all_mix_types",
        rows.len() >= 4,
        format!("{} of 4 mix types appeared", rows.len()),
    );
    report.gate(
        "virtual_time_reported",
        rows.iter().all(|r| r.vt[2] > 0),
        "every type must report nonzero virtual time at p99",
    );
    report.gate(
        "zipf_skew_visible",
        !(zipf_s > 0.0 && docs > 1 && hottest <= coldest),
        format!("hottest doc {hottest} sessions, coldest {coldest}"),
    );
    report.gate(
        "admission_drained",
        in_flight_after == 0,
        format!("{in_flight_after} admission slots still held after the fleet drained"),
    );
    report.finish();
}
