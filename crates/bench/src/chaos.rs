//! Chaos-at-scale sweep: crash–recover–resume under load for every
//! protocol in the contest × every fault site.
//!
//! Each cell plays one [`xtc_tamix::chaos`] scenario: a CLUSTER1 storm
//! plus fate-ledgered marker writers against a WAL-backed database, a
//! kill failpoint armed at one site, a crash, an ARIES-lite recovery
//! timed on the virtual clock, contract verification (no acknowledged
//! commit lost, no clean failure leaked, invariants and indexes
//! intact), and a resumed workload on the recovered engine.
//!
//! Gates (`--check` makes them fatal): the binary must be built with
//! `--features failpoints` — without it the kill sites are no-ops, every
//! crash is the end-of-phase fallback, and a pass would be vacuous — at
//! every armed site at least one cell must crash mid-run (at
//! `pool.evict_write`, which never kills: write pages back), every cell
//! must pass its contract, and every recovery must finish within
//! `--bound-ms` of virtual time.
//! The report is checked in as `BENCH_chaos.json`.

use crate::cli::Flags;
use crate::report::Report;
use crate::row;
use std::time::Duration;
use xtc_tamix::chaos::{run_crash_recover_resume, ChaosParams, ChaosReport};

/// Default kill sites: one per engine layer (commit record, group-commit
/// fsync, appending the record, page-read I/O, eviction write-back, and
/// a mid-split structural crash).
const DEFAULT_SITES: [&str; 6] = [
    "wal.commit",
    "wal.fsync",
    "wal.append_io",
    "store.page_read_io",
    "pool.evict_write",
    "btree.split",
];

pub fn run(flags: &Flags) {
    let mut report = Report::new(flags);
    report.read_check(flags);
    let protocols: Vec<String> = flags.list(
        "protocols",
        &xtc_protocols::ALL_PROTOCOLS.map(String::from),
        "protocols to sweep",
    );
    let sites: Vec<String> = flags.list(
        "sites",
        &DEFAULT_SITES.map(String::from),
        "kill sites to arm",
    );
    let duration = Duration::from_millis(flags.num("duration-ms", 500, "storm before the crash"));
    let resume = Duration::from_millis(flags.num("resume-ms", 400, "workload after recovery"));
    let seed: u64 = flags.num("seed", 0xC4A0_5EED, "base RNG seed");
    let bound_us = 1000 * flags.num::<u64>("bound-ms", 2000, "virtual-time recovery bound");
    flags.finish();

    let faults_live = cfg!(feature = "failpoints");
    if !faults_live {
        eprintln!(
            "chaos: built without the `failpoints` feature — kill sites are \
             no-ops, every crash is the end-of-phase fallback"
        );
    }

    let mut cells: Vec<ChaosReport> = Vec::new();
    for proto in &protocols {
        for (s, site) in sites.iter().enumerate() {
            let mut params = ChaosParams::quick(proto, site, seed ^ ((s as u64) << 17));
            params.tamix.duration = duration;
            params.resume_duration = resume;
            // The write-back kill site is only meaningful when write-backs
            // are real: give those cells a disk-backed pool under a tight
            // residency budget with the background flusher running.
            let fb_dir = (site == "pool.evict_write").then(|| {
                std::env::temp_dir().join(format!("xtc-chaos-{}-{proto}-{s}", std::process::id()))
            });
            if let Some(dir) = &fb_dir {
                params.tamix.store.backend_dir = Some(dir.clone());
                params.tamix.store.max_resident_pages = Some(8);
                params.tamix.writeback_interval = Some(Duration::from_millis(2));
            }
            let r = run_crash_recover_resume(&params);
            if let Some(dir) = &fb_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            eprintln!(
                "chaos: {proto}/{site}: {} mid-run={} recovery={}us ({} records) \
                 pre={} post={}",
                if r.passed() { "ok" } else { "VIOLATED" },
                r.crashed_mid_run,
                r.recovery_us,
                r.scanned,
                r.pre.committed(),
                r.post.committed(),
            );
            cells.push(r);
        }
    }

    let passed = cells.iter().filter(|c| c.passed()).count();
    let mid_run = cells.iter().filter(|c| c.crashed_mid_run).count();
    let max_recovery_us = cells.iter().map(|c| c.recovery_us).max().unwrap_or(0);

    report.summary = row! {
        "cells": cells.len(), "passed": passed, "mid_run_crashes": mid_run,
        "max_recovery_us": max_recovery_us, "bound_us": bound_us, "faults_live": faults_live,
    };
    let rows = cells.iter().map(|r| {
        row! {
            "protocol": &r.protocol, "site": &r.kill_site, "passed": r.passed(),
            "crashed_mid_run": r.crashed_mid_run, "torn_tail": r.torn_tail,
            "recovery_us": r.recovery_us,
            "recovery_wall_ms": r.recovery_wall.as_secs_f64() * 1e3,
            "scanned": r.scanned, "markers": r.markers, "acknowledged": r.acknowledged,
            "in_doubt": r.in_doubt, "pre_committed": r.pre.committed(),
            "post_committed": r.post.committed(),
            "pre_timeout_aborts": r.pre.timeout_aborts(),
            "post_timeout_aborts": r.post.timeout_aborts(),
            "violations": r.violations.join("; "),
        }
    });
    report.table(
        "cells",
        "chaos: crash–recover–resume, CLUSTER1 under faults",
        rows.collect(),
    );

    report.gate(
        "faults_live",
        faults_live,
        if faults_live {
            "built with the failpoints feature: kill sites are armed"
        } else {
            "built without `--features failpoints`: no kill site can fire, \
             so a passing sweep would prove nothing — rebuild with the feature"
        },
    );
    // A fault at the write-back site leaves the page dirty for a later
    // flush and kills nothing: there, having written pages back under the
    // armed fault is what can be asked.
    let landed = |c: &ChaosReport| {
        c.crashed_mid_run
            || (c.kill_site == "pool.evict_write"
                && c.pre.pool.flushes + c.pre.pool.forced_writebacks > 0)
    };
    let silent: Vec<&str> = sites
        .iter()
        .map(String::as_str)
        .filter(|site| !cells.iter().any(|c| c.kill_site == *site && landed(c)))
        .collect();
    report.gate(
        "kill_sites_fired",
        silent.is_empty(),
        format!(
            "{mid_run} of {} cells crashed mid-run{}",
            cells.len(),
            if silent.is_empty() {
                String::new()
            } else {
                format!("; the kill never landed at {}", silent.join(", "))
            }
        ),
    );
    let violated = cells.iter().filter(|c| !c.passed()).map(|c| {
        format!(
            "{}/{} violated the contract: {:?}",
            c.protocol, c.kill_site, c.violations
        )
    });
    report.gate_all(
        "contract",
        violated.collect(),
        format!("{passed}/{} cells held the contract", cells.len()),
    );
    let slow = cells.iter().filter(|c| c.recovery_us > bound_us).map(|c| {
        format!(
            "{}/{} recovery took {} µs (bound {bound_us} µs)",
            c.protocol, c.kill_site, c.recovery_us
        )
    });
    report.gate_all(
        "recovery_bound",
        slow.collect(),
        format!("max recovery {max_recovery_us} µs within {bound_us} µs"),
    );
    report.finish();
}
