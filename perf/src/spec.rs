//! The benchmark's contract as data: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` is this table
//! rendered (`perf manifest`); a unit test keeps the two identical.

use crate::json::Value;

/// Wall-clock length of one measured run, `--seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// The protocols the per-protocol ladder rungs and the contest matrix
/// cover — one representative per protocol group of the paper, plus the
/// versioned entry. `(metric suffix, engine name)`: metric names may
/// not contain `+`.
pub const CONTESTANTS: [(&str, &str); 4] = [
    ("Node2PLa", "Node2PLa"),
    ("URIX", "URIX"),
    ("taDOM3plus", "taDOM3+"),
    ("taMVCC", "taMVCC"),
];

/// The protocol every workload's measured passes run under.
pub const MAIN_PROTOCOL: &str = "taDOM3+";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by; only
    /// end-to-end metrics carry one.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// What a user of the engine sees, tracing off. The same seven names on
/// every workload. The sandbox drifts by 10 to 30% over tens of minutes
/// (README, baseline), so the time-based bounds sit at the contract's
/// ceiling; the memory bound is three times the widest spread seen.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    [
        ("txn_per_s", "1/s", Higher, 0.25),
        ("read_p50_us", "us", Lower, 0.25),
        ("read_p90_us", "us", Lower, 0.25),
        ("write_p50_us", "us", Lower, 0.25),
        ("write_p90_us", "us", Lower, 0.25),
        ("peak_rss_mb", "MB", Lower, 0.20),
        ("setup_s", "s", Lower, 0.25),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    })
    .collect()
}

/// Single layers, from the traced run: the ladder (one public function
/// timed alone), then the run counters of the workload being run.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![
        // ---- layer ladder: single thread, median ns/op over batches ----
        def("splid.encode_ns", "ns", Lower),
        def("splid.decode_ns", "ns", Lower),
        def("splid.cmp_ns", "ns", Lower),
        def("splid.ancestors_ns", "ns", Lower),
        def("storage.btree_get_ns", "ns", Lower),
        def("storage.btree_insert_ns", "ns", Lower),
        def("storage.btree_scan_ns_per_key", "ns", Lower),
        def("storage.btree_get_miss_ns", "ns", Lower),
        def("node.get_ns", "ns", Lower),
        def("node.first_child_ns", "ns", Lower),
        def("node.next_sibling_ns", "ns", Lower),
        def("node.element_by_id_ns", "ns", Lower),
        def("node.insert_element_ns", "ns", Lower),
        def("node.delete_subtree_ns_per_node", "ns", Lower),
        def("lock.acquire_uncached_ns", "ns", Lower),
        def("lock.acquire_cached_ns", "ns", Lower),
        def("lock.convert_ns", "ns", Lower),
        def("lock.release_ns_per_lock", "ns", Lower),
        def("lock.handoff_us", "us", Lower),
        def("wal.append_ns", "ns", Lower),
        def("wal.commit_sync_us_w0", "us", Lower),
        def("wal.commit_sync_us_w100", "us", Lower),
        def("core.begin_commit_ns", "ns", Lower),
        def("core.querybook_us", "us", Lower),
        def("core.snapshot_read_ns_c1", "ns", Lower),
        def("core.snapshot_read_ns_c8", "ns", Lower),
        def("server.ping_rtt_us", "us", Lower),
        def("server.connect_us", "us", Lower),
        def("obs.on_overhead_share", "ratio", Lower),
    ];
    for (suffix, _) in CONTESTANTS {
        v.push(def(format!("core.delbook_us.{suffix}"), "us", Lower));
    }
    for (suffix, _) in CONTESTANTS {
        v.push(def(
            format!("protocols.locks_per_querybook.{suffix}"),
            "count",
            Lower,
        ));
    }
    v.extend([
        // ---- run counters: public-stat deltas around the traced pass ----
        def("lock.requests_per_txn", "count", Lower),
        def("lock.table_share", "ratio", Lower),
        def("lock.wait_share", "ratio", Lower),
        def("lock.deadlocks_per_1k_txn", "count", Lower),
        def("lock.conversion_deadlock_share", "ratio", Lower),
        def("storage.page_reads_per_txn", "count", Lower),
        def("storage.pool_hit_rate", "ratio", Higher),
        def("storage.evictions_per_txn", "count", Lower),
        def("storage.flushes_per_commit", "count", Lower),
        def("storage.forced_writebacks", "count", Lower),
        def("wal.records_per_commit", "count", Lower),
        def("wal.records_per_flush", "count", Higher),
        def("wal.flush_wait_share", "ratio", Lower),
        def("wal.bytes_per_commit", "B", Lower),
        def("core.attempts_per_commit", "count", Lower),
        def("core.begin_share", "ratio", Lower),
        def("core.body_share", "ratio", Lower),
        def("core.commit_share", "ratio", Lower),
        def("core.backoff_share", "ratio", Lower),
        def("core.checkpoint_ms", "ms", Lower),
        def("core.recovery_ms", "ms", Lower),
        def("server.frontend_us_p50", "us", Lower),
        def("server.engine_us_p50", "us", Lower),
        def("server.frontend_share", "ratio", Lower),
        def("tamix.lat_p99_us", "us", Lower),
        def("tamix.empty_share", "ratio", Lower),
        def("tamix.failed_share", "ratio", Lower),
        def("model.coverage", "ratio", Higher),
        def("model.term.lock", "ratio", Lower),
        def("model.term.storage", "ratio", Lower),
        def("model.term.txn", "ratio", Lower),
        def("trace.overhead_share", "ratio", Lower),
    ]);
    for (suffix, _) in CONTESTANTS {
        v.push(def(format!("contest.txn_per_s.{suffix}"), "1/s", Higher));
    }
    v
}

/// `(name, why)` of the four workloads, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "cluster1-mem",
        "Paper-size document in memory, targets uniform over 2000 books: the uncontended CPU path; no WAL, no eviction, no retry, no socket.",
    ),
    (
        "cluster1-hot",
        "Same database and mix, both clients draw from 2 books and 1 topic: lock waits, SU-SX conversion deadlocks, abort, retry and backoff on a handful of hot pages.",
    ),
    (
        "cluster1-durable",
        "Directory WAL with fsync on every commit, page files under a 25% residency budget, checkpoint every 5 s: larger than the pool and durable.",
    ),
    (
        "server-2conn",
        "Two TCP sessions, one document each, through the line-protocol server: parse, socket writes, session wake-up and gate around a small engine share.",
    ),
];

/// `BENCHMARK.json`, exactly as checked in at the repository root.
pub fn manifest() -> Value {
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name", Value::str(m.name.clone())),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.name())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Value::Num(b)));
        }
        Value::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::str(*s)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("perf")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([("name", Value::str(*name)), ("why", Value::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn manifest_meets_the_contract_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer names",
            layers.len()
        );
        let mut seen = HashSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        for m in &e2e {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e2e.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name.to_string()));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {} chars",
                why.len()
            );
        }
        assert!(manifest().render_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn checked_in_benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&on_disk).unwrap(),
            manifest(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
    }
}
