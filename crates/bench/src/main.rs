//! # xtc-bench — the one entry point for every experiment
//!
//! `xtc-bench <subcommand> [options]`; `xtc-bench <subcommand> --help`
//! lists a subcommand's flags. Three shared pieces — [`cli`] (the flag
//! reader), [`report`] (the report type, its JSON writer and the `--check`
//! exit) and [`figs`] (Figures 7–11 over one sweep) — plus one module per
//! experiment, each keeping only its cells and gates. Every subcommand
//! except `trace` writes one report to `--out` (default
//! `BENCH_<subcommand>.json`).
//!
//! Per-layer costs (SPLID codec, B*-tree, lock acquire cached/uncached,
//! lock-table share) are measured by the repository's benchmark in
//! `perf/`, not here.

mod chaos;
mod cli;
mod figs;
mod mvcc;
mod occupancy;
mod recovery;
mod repl;
mod report;
mod scaling;
mod server;
mod storage;
mod trace;

use cli::{die, Flags};

const USAGE: &str = "\
usage: xtc-bench <subcommand> [options]   (<subcommand> --help lists its options)
  figs       Figures 7–11: `figs [7 8 9 10 11]`, all five when none is named
  storage    buffer pool: LRU-2 vs clean-LRU across resident budgets, index filters
  server     catalog server: 1024 Zipf-skewed TCP sessions, tail latency on both clocks
  repl       replication: read scaling under a write storm, promotion drill
  chaos      crash–recover–resume per protocol × kill site (build with --features failpoints)
  recovery   WAL group-commit throughput and recovery time vs log length
  mvcc       CLUSTER2 long reader: versioned contestants vs the pessimistic field
  occupancy  stored bytes per SPLID and B*-tree occupancy across dist settings
  scaling    one client vs two on one document vs two on a document each, closed loop
  trace      export per-protocol observability traces of a seeded sequential mix";

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sub = args.next().unwrap_or_else(|| die("no subcommand"));
    let run: fn(&Flags) = match sub.as_str() {
        "figs" => figs::run,
        "storage" => storage::run,
        "server" => server::run,
        "repl" => repl::run,
        "chaos" => chaos::run,
        "recovery" => recovery::run,
        "mvcc" => mvcc::run,
        "occupancy" => occupancy::run,
        "scaling" => scaling::run,
        "trace" => trace::run,
        "--help" | "-h" => return println!("{USAGE}"),
        other => die(&format!("unknown subcommand {other}")),
    };
    run(&Flags::parse(&sub, args));
}
