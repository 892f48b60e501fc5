//! CLUSTER2 long-reader contest — the versioned contestants vs the
//! pessimistic field.
//!
//! One report reader walks the whole bib document navigationally and
//! then stays pinned (transaction open) while chapter-update writers
//! run for a fixed window. Every pessimistic protocol serializes the
//! writers behind the reader's read locks (their update steps time out
//! and retry until the window closes); `taMVCC` and `taOCC` serve the
//! reader from versioned snapshots without any read locks, so writers
//! commit freely while the reader's view stays stable.
//!
//! Gates (`--check` is the CI regression gate): taMVCC writer throughput
//! must be at least twice the best pessimistic protocol's, and under both
//! versioned contestants the reader must be charged zero lock-wait
//! virtual time, keep a stable snapshot, and let writers commit. The
//! report is checked in as `BENCH_mvcc.json`.

use crate::cli::Flags;
use crate::report::Report;
use crate::row;
use std::time::Duration;
use xtc_protocols::{EXTENDED_PROTOCOLS, MVCC_PROTOCOLS};
use xtc_tamix::{run_long_reader, LongReaderParams, LongReaderReport};

pub fn run(flags: &Flags) {
    let mut report = Report::new(flags);
    report.read_check(flags);
    let (bib_name, bib_cfg) = flags.bib("tiny");
    let duration = Duration::from_millis(flags.num("duration-ms", 400, "writer window"));
    let writers: usize = flags.num("writers", 2, "chapter-update writers");
    let protocols: Vec<String> = flags.list(
        "protocols",
        &EXTENDED_PROTOCOLS.map(String::from),
        "protocols to sweep",
    );
    flags.finish();

    let cells: Vec<LongReaderReport> = protocols
        .iter()
        .map(|proto| {
            let mut params = LongReaderParams::quick(proto);
            params.duration = duration;
            params.writers = writers;
            params.bib = bib_cfg.clone();
            let rep = run_long_reader(&params);
            eprintln!("mvcc: {proto}: {} writer commits", rep.writer_commits);
            rep
        })
        .collect();

    report.summary = row! {
        "bib": &bib_name, "duration_ms": duration.as_millis() as u64, "writers": writers,
    };
    let rows = cells.iter().map(|r| {
        row! {
            "protocol": &r.protocol, "writer_commits": r.writer_commits,
            "writer_aborts": r.writer_aborts, "reader_reads": r.reader_reads,
            "reader_lock_wait_us": r.reader_lock_wait_us,
            "reader_consistent": r.reader_consistent,
            "elapsed_ms": r.elapsed.as_millis() as u64, "lock_wait_us_total": r.vt.lock_wait_us,
        }
    });
    report.table(
        "cells",
        &format!(
            "CLUSTER2 long reader ({bib_name} bib, {writers} writers, {}ms window)",
            duration.as_millis()
        ),
        rows.collect(),
    );

    let best_pessimistic = cells
        .iter()
        .filter(|c| !MVCC_PROTOCOLS.contains(&c.protocol.as_str()))
        .map(|c| c.writer_commits)
        .max()
        .unwrap_or(0);
    let mut failures = Vec::new();
    for name in MVCC_PROTOCOLS {
        let Some(cell) = cells.iter().find(|c| c.protocol == name) else {
            failures.push(format!("{name} missing from the sweep"));
            continue;
        };
        if cell.reader_lock_wait_us != 0 {
            failures.push(format!(
                "{name}: reader charged {}µs lock wait, snapshot reads must wait 0",
                cell.reader_lock_wait_us
            ));
        }
        if !cell.reader_consistent {
            failures.push(format!("{name}: reader snapshot was not stable"));
        }
        if cell.writer_commits == 0 {
            failures.push(format!("{name}: no writer committed behind the reader"));
        }
    }
    report.gate_all(
        "versioned_readers",
        failures,
        "versioned readers waited 0µs on a stable snapshot while writers committed",
    );
    let mvcc_commits = cells
        .iter()
        .find(|c| c.protocol == "taMVCC")
        .map_or(0, |c| c.writer_commits);
    report.gate(
        "tamvcc_writer_throughput",
        mvcc_commits >= 2 * best_pessimistic.max(1),
        format!("taMVCC committed {mvcc_commits}, best pessimistic {best_pessimistic} (need 2x)"),
    );
    report.finish();
}
