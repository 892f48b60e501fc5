//! Trace exporter: runs a seeded sequential transaction mix with the
//! observability layer enabled and writes one structured trace per
//! protocol — per-transaction timelines, lock/IO/WAL latency histograms,
//! and the full event list.
//!
//! An exporter, not a measurement: instead of a report it writes the
//! engine's own export, `<--out>/trace_<protocol>.json` (default `results/`),
//! one file per protocol. The run is
//! single-threaded, so with a fixed seed the event sequence is
//! deterministic up to measured wait fields (which are zero without
//! contention) — the golden-trace test relies on the same property.

use crate::cli::{die, Flags};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;
use xtc_core::{IsolationLevel, XtcConfig, XtcDb};
use xtc_obs::ObsConfig;
use xtc_tamix::txns::{run_txn, Pacing};
use xtc_tamix::{bib, TxnKind};

/// The sequential mix: cycles through every transaction type so the
/// trace shows reads, updates, deletions, and their WAL records.
const MIX: [TxnKind; 5] = [
    TxnKind::QueryBook,
    TxnKind::Chapter,
    TxnKind::LendAndReturn,
    TxnKind::RenameTopic,
    TxnKind::DelBook,
];

pub fn run(flags: &Flags) {
    let mut protocols: Vec<String> = flags.list(
        "protocols",
        &["taDOM3+", "Node2PL"].map(String::from),
        "protocols to trace, or `all`",
    );
    if protocols.iter().any(|p| p == "all") {
        protocols = xtc_protocols::ALL_PROTOCOLS.map(String::from).to_vec();
    }
    let txns: usize = flags.num("txns", 25, "transactions per protocol");
    let seed: u64 = flags.num("seed", 42, "base RNG seed");
    let bib_cfg = flags.bib("tiny").1;
    let read_latency_us: u64 = flags.num("read-latency-us", 10, "simulated page-read latency");
    let events: usize = flags.num("events", 262_144, "trace ring capacity");
    let out_dir = flags.text("out", "results", "directory the traces are written to");
    flags.finish();

    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| die(&format!("mkdir {out_dir}: {e}")));
    for proto in &protocols {
        if xtc_protocols::build(proto).is_none() {
            die(&format!("unknown protocol {proto}"));
        }
        let db = XtcDb::new(XtcConfig {
            protocol: proto.clone(),
            isolation: IsolationLevel::Repeatable,
            lock_depth: 4,
            obs: Some(ObsConfig {
                trace_events: events,
            }),
            // In-memory WAL so the trace shows append/flush/commit events
            // and the wal_flush histogram is populated.
            wal: Some(xtc_core::wal::WalConfig::default()),
            store: xtc_node::DocStoreConfig {
                read_latency: Duration::from_micros(read_latency_us),
                ..xtc_node::DocStoreConfig::default()
            },
            ..XtcConfig::default()
        });
        bib::generate_into(&db, &bib_cfg);
        let pacing = Pacing {
            wait_after_operation: Duration::ZERO,
            ..Pacing::default()
        };
        let mut committed = 0u64;
        let mut aborted = 0u64;
        for i in 0..txns {
            let kind = MIX[i % MIX.len()];
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(i as u64 * 7919));
            match run_txn(&db, kind, &bib_cfg, &mut rng, pacing) {
                Ok(_) => committed += 1,
                Err(_) => aborted += 1,
            }
        }
        let obs = db.obs();
        let json = obs.export_json(&format!("trace {proto} seed={seed} txns={txns}"));
        let path = format!("{out_dir}/trace_{}.json", proto.replace('+', "plus"));
        std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        let vt = obs.vt();
        println!(
            "trace: {proto}: {committed} committed, {aborted} aborted, \
             {} events ({} dropped), vt page_read={}us think={}us lock_wait={}us \
             wal_flush={}us -> {path}",
            obs.recorded_events(),
            obs.dropped_events(),
            vt.page_read_us,
            vt.think_us,
            vt.lock_wait_us,
            vt.wal_flush_us
        );
    }
}
