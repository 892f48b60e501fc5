//! Key-compression / storage-occupancy micro-benchmark (§3.1–§3.2).
//!
//! Builds the bib document in document order at several SPLID `dist`
//! settings and reports, per setting, the B*-tree occupancy and the
//! physically stored key bytes per SPLID — the paper's "storing a SPLID
//! only consumed 2–3 bytes in the average" claim under the front-coded
//! leaf format. Optionally replays the update workload of
//! `tests/storage_occupancy.rs` to show compression surviving churn.
//!
//! The check flag adds the `bytes_per_key` gate — the *first* configured
//! dist must stay within the budget — and makes it fatal: the CI
//! regression gate. The report is checked in as `BENCH_occupancy.json`.

use crate::cli::{die, Flags};
use crate::report::Report;
use crate::row;
use xtc_node::{DocStore, DocStoreConfig, InsertPos};
use xtc_tamix::bib;
use xtc_tamix::BibConfig;

struct Cell {
    dist: u32,
    phase: &'static str,
    nodes: usize,
    occupancy: f64,
    bytes_per_key: f64,
    logical_bytes_per_key: f64,
    stored: usize,
    logical: usize,
    leaf_pages: usize,
}

fn measure(store: &DocStore, dist: u32, phase: &'static str) -> Cell {
    let rep = store.occupancy();
    let nodes = store.node_count();
    Cell {
        dist,
        phase,
        nodes,
        occupancy: rep.occupancy(),
        bytes_per_key: rep.stored_bytes_per_key(nodes),
        logical_bytes_per_key: rep.key_bytes_logical as f64 / nodes.max(1) as f64,
        stored: rep.key_bytes_stored,
        logical: rep.key_bytes_logical,
        leaf_pages: rep.leaf_pages,
    }
}

/// The update mix of `tests/storage_occupancy.rs`: delete a third of the
/// books, re-insert lends, rename topics.
fn churn(store: &DocStore, cfg: &BibConfig) {
    for b in (0..cfg.books).step_by(3) {
        let book = store.element_by_id(&format!("b{b}")).unwrap();
        store.delete_subtree(&book).unwrap();
    }
    for b in (1..cfg.books).step_by(3) {
        let book = store.element_by_id(&format!("b{b}")).unwrap();
        let history = store.element_children(&book).pop().unwrap();
        for i in 0..5 {
            let lend = store
                .insert_element(&history, InsertPos::LastChild, "lend")
                .unwrap();
            store
                .set_attribute(&lend, "person", &format!("p{i}"))
                .unwrap();
        }
    }
    for t in 0..cfg.topics {
        let topic = store.element_by_id(&format!("t{t}")).unwrap();
        store.rename_element(&topic, "subject").unwrap();
    }
}

pub fn run(flags: &Flags) {
    let mut report = Report::new(flags);
    let (bib_name, bib_cfg) = flags.bib("scaled");
    let dists: Vec<u32> = flags.list("dists", &[2, 4, 16], "SPLID dist settings to build at");
    let updates = flags.switch(
        "updates",
        "also measure after the delete/insert/rename churn",
    );
    let check_max: Option<f64> = flags.opt_num(
        "check-max-bytes-per-key",
        "fail if the first dist stores more bytes per key (default off)",
    );
    flags.finish();
    if dists.is_empty() {
        die("--dists must name at least one dist");
    }

    let mut cells = Vec::new();
    for &dist in &dists {
        let store = DocStore::new(DocStoreConfig {
            dist,
            ..DocStoreConfig::default()
        });
        bib::generate(&store, &bib_cfg);
        cells.push(measure(&store, dist, "build"));
        if updates {
            churn(&store, &bib_cfg);
            cells.push(measure(&store, dist, "updates"));
        }
    }

    report.summary = row! { "bib": &bib_name };
    let rows = cells.iter().map(|c| {
        row! {
            "dist": c.dist, "phase": c.phase, "nodes": c.nodes, "occupancy": c.occupancy,
            "stored_bytes_per_key": c.bytes_per_key,
            "logical_bytes_per_key": c.logical_bytes_per_key,
            "key_bytes_stored": c.stored, "key_bytes_logical": c.logical,
            "leaf_pages": c.leaf_pages,
        }
    });
    report.table(
        "cells",
        &format!("storage occupancy / stored bytes per SPLID ({bib_name} bib, front-coded leaves)"),
        rows.collect(),
    );
    if let Some(max) = check_max {
        let first = &cells[0];
        report.check = true;
        report.gate(
            "bytes_per_key",
            first.bytes_per_key <= max,
            format!(
                "dist={} stores {:.2} bytes/key, budget {max:.2}",
                first.dist, first.bytes_per_key
            ),
        );
    }
    report.finish();
}
