//! One run of one workload: set-up, warm-up, the measured passes, the
//! checks, the report and the result line.

use crate::json::Value;
use crate::ladder::{self, Ladder};
use crate::spec::{self, CONTESTANTS, MAIN_PROTOCOL};
use crate::stats::{median, percentile};
use crate::trace::{self, SelfTimes, SpanName};
use crate::workload::{Counters, Env, Outcome, Pass, Sizes, Workload, CLIENTS, WARMUP};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xtc_tamix::txns::TxnKind;

/// The throughput metric is the median of this many equal segments of
/// the measured window, so a single stall does not decide it.
const SEGMENTS: usize = 3;
/// Set-up is repeated and its median reported, until this many...
const SETUP_REPEATS: usize = 3;
/// ...or until set-up has taken this long in total.
const SETUP_BUDGET: Duration = Duration::from_secs(4);

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny documents, short warm-up, a tenth of the ladder: a smoke test.
    pub quick: bool,
}

/// Everything the benchmark writes goes below `.perf_out/` of the
/// working directory: trace files stay, the per-process scratch
/// directory is removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(".perf_out")
}

/// A named value on its way into the report and the result line.
struct Reported {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

struct Report(Vec<Reported>);

impl Report {
    fn put(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.0.push(Reported {
            name: name.to_string(),
            value,
            unit: "",
            note: note.into(),
        });
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// Keeps the metrics `defs` names, in that order, with their units.
    /// A name the run did not produce is a bug in the benchmark.
    fn select(mut self, defs: &[spec::MetricDef]) -> Result<Report, String> {
        let mut out = Vec::new();
        for d in defs {
            let i = self
                .0
                .iter()
                .position(|r| r.name == d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            let mut r = self.0.swap_remove(i);
            r.unit = d.unit;
            out.push(r);
        }
        Ok(Report(out))
    }

    fn print(&self) {
        for r in &self.0 {
            println!(
                "  {:<44} {:>16.4} {:<6} {}",
                r.name, r.value, r.unit, r.note
            );
        }
    }

    fn to_json(&self) -> Value {
        Value::obj(self.0.iter().map(|r| {
            (
                r.name.clone(),
                Value::obj([("value", Value::Num(r.value)), ("unit", Value::str(r.unit))]),
            )
        }))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about the machine and the run that every report carries.
pub fn metadata(args: &RunArgs) -> Vec<(&'static str, Value)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        ("workload", Value::str(args.workload.name())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("trace", Value::Bool(args.trace)),
        ("quick", Value::Bool(args.quick)),
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        ("nproc", Value::Num(nproc as f64)),
        ("clients", Value::Num(CLIENTS as f64)),
        ("warmup_s", Value::Num(warmup(args.quick).as_secs_f64())),
    ]
}

fn warmup(quick: bool) -> Duration {
    if quick {
        Duration::from_millis(300)
    } else {
        WARMUP
    }
}

/// Ratios of the engines' public counters over one pass — the run
/// counters of the per-layer list, and what the separation checks read.
fn counter_metrics(report: &mut Report, pass: &Pass, delta: &Counters) {
    let txns = pass.samples.len() as f64;
    let commits = pass.committed() as f64;
    let busy_us = pass.busy_us();
    let attempts: f64 = pass.samples.iter().map(|s| s.attempts as f64).sum();
    let c = |v: u64| v as f64;
    report.put(
        "lock.requests_per_txn",
        ratio(c(delta.lock_requests), txns),
        "",
    );
    report.put(
        "lock.table_share",
        ratio(c(delta.table_requests), c(delta.lock_requests)),
        "table_requests / requests",
    );
    report.put(
        "lock.wait_share",
        ratio(c(delta.lock_wait_us), busy_us),
        "lock wait / client busy time",
    );
    report.put(
        "lock.deadlocks_per_1k_txn",
        ratio(1e3 * c(delta.deadlocks), txns),
        "",
    );
    report.put(
        "lock.conversion_deadlock_share",
        ratio(c(delta.conversion_deadlocks), c(delta.deadlocks)),
        "",
    );
    report.put(
        "storage.page_reads_per_txn",
        ratio(c(delta.page_reads), txns),
        "",
    );
    let accesses = c(delta.pool_hits + delta.pool_misses);
    report.put(
        "storage.pool_hit_rate",
        if accesses == 0.0 {
            1.0
        } else {
            c(delta.pool_hits) / accesses
        },
        "",
    );
    report.put(
        "storage.evictions_per_txn",
        ratio(c(delta.evictions), txns),
        "",
    );
    report.put(
        "storage.flushes_per_commit",
        ratio(c(delta.pool_flushes), commits),
        "pages written back / commit",
    );
    report.put(
        "storage.forced_writebacks",
        c(delta.forced_writebacks),
        "dirty victims written on the eviction path",
    );
    report.put(
        "wal.records_per_commit",
        ratio(c(delta.wal_synced_records), commits),
        "",
    );
    report.put(
        "wal.records_per_flush",
        ratio(c(delta.wal_synced_records), c(delta.wal_flushes)),
        "group-commit batch",
    );
    report.put(
        "wal.flush_wait_share",
        ratio(c(delta.wal_flush_us), busy_us),
        "commit sync wait / client busy time",
    );
    report.put(
        "wal.bytes_per_commit",
        ratio(c(delta.wal_synced_bytes), commits),
        "checkpoints included",
    );
    report.put("core.attempts_per_commit", ratio(attempts, commits), "");
    report.put(
        "tamix.empty_share",
        ratio(
            pass.samples
                .iter()
                .filter(|s| s.outcome == Outcome::Empty)
                .count() as f64,
            txns,
        ),
        "committed without work: target gone",
    );
    report.put(
        "tamix.failed_share",
        ratio(pass.failed() as f64, txns),
        "retries exhausted or error",
    );
}

/// The workloads must stay the workloads: a mis-sized one is reported
/// with the run, not discovered by a later claim. Returns the misses.
fn separation_checks(args: &RunArgs, report: &Report, delta: &Counters) -> Vec<String> {
    if args.quick {
        return Vec::new(); // a tiny document is none of the workloads
    }
    let workload = args.workload;
    let get = |name: &str| report.get(name).expect("counter metric present");
    let mut misses = Vec::new();
    let mut expect = |ok: bool, what: String| {
        println!("  separation {} {what}", if ok { "ok  " } else { "MISS" });
        if !ok {
            misses.push(what);
        }
    };
    match workload {
        Workload::Mem => {
            let w = get("lock.wait_share");
            expect(w <= 0.02, format!("lock.wait_share {w:.4} <= 0.02"));
            expect(
                delta.evictions == 0,
                format!("evictions {} = 0", delta.evictions),
            );
            expect(
                delta.wal_flushes == 0,
                format!("WAL flushes {} = 0", delta.wal_flushes),
            );
        }
        Workload::Hot => {
            // Two closed-loop clients with 1 ms transactions cannot reach the
            // 0.20 the issue hoped for: 0.08-0.10 on forty runs at 2 books
            // (0.05 at 4, 0.03 at 8), against 0.0004 at most on cluster1-mem.
            let w = get("lock.wait_share");
            expect(w >= 0.05, format!("lock.wait_share {w:.4} >= 0.05"));
        }
        Workload::Durable => {
            let h = get("storage.pool_hit_rate");
            expect(h < 0.98, format!("storage.pool_hit_rate {h:.4} < 0.98"));
            let b = get("wal.records_per_flush");
            expect(b >= 1.0, format!("wal.records_per_flush {b:.2} >= 1"));
        }
        Workload::Server => {}
    }
    misses
}

/// The seven end-to-end metrics of one measured pass.
fn end_to_end(
    report: &mut Report,
    pass: &Pass,
    setups: &[f64],
    rss_mb: f64,
    quick: bool,
) -> Result<(), String> {
    // Commits per segment, each timed from the last completion before
    // the segment to the last one inside it: a rate between two events,
    // not a count over a fixed window that could only take a few values.
    let seg_ns = (pass.seconds * 1e9 / SEGMENTS as f64) as u64;
    let mut ends: Vec<u64> = pass
        .samples
        .iter()
        .filter(|s| s.outcome != Outcome::Failed)
        .map(|s| s.end_ns)
        .collect();
    ends.sort_unstable();
    let mut rates = Vec::new();
    let (mut from, mut rest) = (0u64, &ends[..]);
    for segment in 1..=SEGMENTS {
        let cut = match segment {
            SEGMENTS => rest.len(),
            _ => rest.partition_point(|&e| e < segment as u64 * seg_ns),
        };
        let (inside, later) = rest.split_at(cut);
        let last = *inside
            .last()
            .ok_or_else(|| format!("no transaction committed in segment {segment}"))?;
        rates.push(inside.len() as f64 * 1e9 / (last - from) as f64);
        (from, rest) = (last, later);
    }
    let each: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    report.put(
        "txn_per_s",
        median(&rates),
        format!("median of {SEGMENTS} segments: {}", each.join(" / ")),
    );
    let reads = pass.latencies_us(|s| s.kind == TxnKind::QueryBook);
    let writes = pass.latencies_us(|s| s.kind.is_writer());
    for (name, sorted, p) in [
        ("read_p50_us", &reads, 0.50),
        ("read_p90_us", &reads, 0.90),
        ("write_p50_us", &writes, 0.50),
        ("write_p90_us", &writes, 0.90),
    ] {
        match percentile(sorted, p) {
            Some(pct) => report.put(name, pct.value, format!("over {} samples", pct.samples)),
            // A smoke test is not a measurement: take the largest sample.
            None if quick && !sorted.is_empty() => report.put(
                name,
                sorted[sorted.len() - 1],
                format!("maximum of {} samples (quick)", sorted.len()),
            ),
            None => {
                return Err(format!(
                    "{name}: {} samples leave fewer than ten beyond the percentile",
                    sorted.len()
                ))
            }
        }
    }
    report.put(
        "peak_rss_mb",
        rss_mb,
        "VmHWM when the measured window closed",
    );
    report.put(
        "setup_s",
        median(setups),
        format!("median of {} set-ups", setups.len()),
    );
    Ok(())
}

fn print_header(args: &RunArgs, env: &Env) {
    println!("perf: {}", spec::WORKLOADS[args.workload as usize].1);
    for (k, v) in metadata(args) {
        println!("  {k:<12} {}", v.render());
    }
    println!("  {:<12} {}", "nodes", env.node_count());
    if let (Some(live), Some(budget)) = (env.live_pages, env.budget_pages) {
        println!(
            "  {:<12} {live} live, {budget} resident per tree (25%)",
            "pages"
        );
    }
}

/// Runs one workload once and prints the result line. `Ok(true)` when
/// every correctness check passed.
pub fn single(args: &RunArgs) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if nproc < CLIENTS {
        return Err(format!(
            "{nproc} core available: the benchmark runs {CLIENTS} client threads and refuses to time them on fewer cores"
        ));
    }
    let scratch = Scratch::new()?;
    let sizes = Sizes::new(args.quick);
    let window = Duration::from_secs(args.seconds);

    // Set-up, repeated; the last one built is the one measured.
    let mut setups = Vec::new();
    let mut env = None;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    while setups.len() < repeats && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64() {
        drop(env.take());
        let t = Instant::now();
        env = Some(Env::build(
            args.workload,
            &sizes,
            MAIN_PROTOCOL,
            false,
            args.seed,
            &scratch.0,
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    print_header(args, &env);
    env.drive(warmup(args.quick), false);

    let mut report = Report(Vec::new());
    let (pass, issues, misses);
    if args.trace {
        let third = window / 3;
        let untraced = env.drive(third, false);
        let before = env.counters();
        let traced = env.drive(third, true);
        let delta = env.counters().since(before);
        let (found, recovery_ms) = env.check();
        issues = found;
        let path = out_dir().join(format!("trace-{}.json", args.workload.name()));
        trace::write_json(&path, args.workload.name(), args.seed, &traced.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  {} spans written to {}",
            traced.spans.len(),
            path.display()
        );
        drop(env);

        counter_metrics(&mut report, &traced, &delta);
        misses = separation_checks(args, &report, &delta);
        let mut checkpoints = untraced.checkpoints_ms.clone();
        checkpoints.extend(&traced.checkpoints_ms);
        report.put(
            "core.checkpoint_ms",
            median(&checkpoints),
            format!("{} inline checkpoints", checkpoints.len()),
        );
        report.put(
            "core.recovery_ms",
            recovery_ms.unwrap_or(0.0),
            "Wal::crash -> recover_from, end of run",
        );
        report.put(
            "trace.overhead_share",
            1.0 - ratio(traced.txn_per_s(), untraced.txn_per_s()),
            format!(
                "traced {:.1}/s vs untraced {:.1}/s",
                traced.txn_per_s(),
                untraced.txn_per_s()
            ),
        );
        let all = traced.latencies_us(|_| true);
        match percentile(&all, 0.99) {
            Some(p) => report.put(
                "tamix.lat_p99_us",
                p.value,
                format!("over {} samples", p.samples),
            ),
            None => report.put(
                "tamix.lat_p99_us",
                0.0,
                format!("not reportable from {} samples", all.len()),
            ),
        }
        let t = Instant::now();
        let ladder = ladder::run(args.quick, &scratch.0)?;
        println!("  ladder took {:.1} s", t.elapsed().as_secs_f64());
        for r in &ladder.rungs {
            report.put(
                &r.name,
                r.median,
                format!(
                    "quartiles {:.1} .. {:.1}, {} batches",
                    r.q1, r.q3, r.batches
                ),
            );
        }
        span_metrics(&mut report, &traced, &delta, &ladder);
        let t = Instant::now();
        side_passes(&mut report, args, &scratch.0)?;
        println!(
            "  contest and obs passes took {:.1} s",
            t.elapsed().as_secs_f64()
        );
        pass = traced;
        report = report.select(&spec::per_layer())?;
    } else {
        let before = env.counters();
        let measured = env.drive(window, false);
        let delta = env.counters().since(before);
        // Before the checks: recovery builds a second database, and the
        // metric is the engine's memory under load, not the checker's.
        let rss_mb = peak_rss_mb()?;
        let (found, recovery_ms) = env.check();
        issues = found;
        drop(env);
        let mut counters = Report(Vec::new());
        counter_metrics(&mut counters, &measured, &delta);
        misses = separation_checks(args, &counters, &delta);
        counters.print();
        if let Some(ms) = recovery_ms {
            println!("  crashed the WAL and recovered in {ms:.1} ms");
        }
        end_to_end(&mut report, &measured, &setups, rss_mb, args.quick)?;
        report = report.select(&spec::end_to_end())?;
        pass = measured;
    }

    report.print();
    let mut reasons = pass.failures.clone();
    reasons.sort();
    for group in reasons.chunk_by(|a, b| a == b) {
        println!("  failed {} x {}", group.len(), group[0]);
    }
    for issue in &issues {
        println!("  CHECK FAILED {issue}");
    }
    if !misses.is_empty() {
        println!(
            "  {} separation check(s) missed: the workload no longer exercises what it is for",
            misses.len()
        );
    }
    let correct = issues.is_empty();
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(pass.samples.len().max(1) as f64)),
        ("failed", Value::Num(pass.failed() as f64)),
        ("metrics", report.to_json()),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

/// Per-layer metrics that need the spans: self-time shares, the served
/// workload's front-end split, and the cost model's coverage.
fn span_metrics(report: &mut Report, traced: &Pass, delta: &Counters, ladder: &Ladder) {
    let times = SelfTimes::of(&traced.spans);
    report.put(
        "core.begin_share",
        times.share(SpanName::Begin),
        "of summed txn span time",
    );
    report.put("core.body_share", times.share(SpanName::Body), "");
    report.put("core.commit_share", times.share(SpanName::Commit), "");
    report.put("core.backoff_share", times.share(SpanName::Backoff), "");

    let served: Vec<_> = traced.samples.iter().filter(|s| s.engine_us > 0).collect();
    let engine: Vec<f64> = served.iter().map(|s| s.engine_us as f64).collect();
    let frontend: Vec<f64> = served
        .iter()
        .map(|s| (s.lat_ns as f64 / 1e3 - s.engine_us as f64).max(0.0))
        .collect();
    report.put(
        "server.engine_us_p50",
        median(&engine),
        "the replies' wall_us",
    );
    report.put(
        "server.frontend_us_p50",
        median(&frontend),
        "round trip - wall_us",
    );
    report.put(
        "server.frontend_share",
        times.share(SpanName::Frontend),
        "of summed round-trip time",
    );

    // Outside-in cost model: run counters per pass times ladder cost per
    // operation, against the time the clients measurably spent in the
    // engine. What it leaves uncovered is the node manager, the protocol
    // mapping and the codec, for which the engine exposes no counters yet.
    let engine_ns = match times.ns(SpanName::Engine) {
        0 => {
            (times.ns(SpanName::Begin)
                + times.ns(SpanName::Body)
                + times.ns(SpanName::Commit)
                + times.ns(SpanName::Abort)) as f64
        }
        served_ns => served_ns as f64,
    };
    let attempts: f64 = traced.samples.iter().map(|s| s.attempts as f64).sum();
    let lock_ns = delta.table_requests as f64
        * (ladder.get("lock.acquire_uncached_ns") + ladder.get("lock.release_ns_per_lock"))
        + delta.cache_hits as f64 * ladder.get("lock.acquire_cached_ns");
    let storage_ns =
        ratio(delta.page_reads as f64, ladder.pages_per_get) * ladder.get("storage.btree_get_ns");
    let txn_ns = attempts * ladder.get("core.begin_commit_ns");
    report.put(
        "model.term.lock",
        ratio(lock_ns, engine_ns),
        "table + cached acquires + releases",
    );
    report.put(
        "model.term.storage",
        ratio(storage_ns, engine_ns),
        format!(
            "page reads as B*-tree gets of {:.2} pages",
            ladder.pages_per_get
        ),
    );
    report.put(
        "model.term.txn",
        ratio(txn_ns, engine_ns),
        "empty begin + commit per attempt",
    );
    report.put(
        "model.coverage",
        ratio(lock_ns + storage_ns + txn_ns, engine_ns),
        "modelled / measured begin+body+commit time",
    );
}

/// The protocol contest and the observability overhead: short two-client
/// passes over fresh in-memory databases of the served document's size.
/// Targets are uniform, or narrowed when the workload run is the hot one,
/// so the contest column matches the workload it is printed with.
fn side_passes(report: &mut Report, args: &RunArgs, scratch: &Path) -> Result<(), String> {
    let base = Sizes::new(args.quick);
    let sizes = Sizes {
        doc: base.served_doc.clone(),
        ..base
    };
    let shape = if args.workload == Workload::Hot {
        Workload::Hot
    } else {
        Workload::Mem
    };
    let rate =
        |shape: Workload, protocol: &str, obs: bool, window: Duration| -> Result<f64, String> {
            let mut env = Env::build(shape, &sizes, protocol, obs, args.seed, scratch)?;
            env.drive(warmup(true), false);
            let pass = env.drive(window, false);
            let (issues, _) = env.check();
            if !issues.is_empty() {
                return Err(format!("{protocol}: {}", issues.join("; ")));
            }
            Ok(pass.txn_per_s())
        };
    let window = Duration::from_secs_f64(args.seconds as f64 / 12.0);
    for (suffix, protocol) in CONTESTANTS {
        let r = rate(shape, protocol, false, window)?;
        report.put(
            &format!("contest.txn_per_s.{suffix}"),
            r,
            format!("{} targets, {:.2} s", shape.name(), window.as_secs_f64()),
        );
    }
    let off = rate(Workload::Mem, MAIN_PROTOCOL, false, window)?;
    let on = rate(Workload::Mem, MAIN_PROTOCOL, true, window)?;
    report.put(
        "obs.on_overhead_share",
        ratio(off, on) - 1.0,
        format!("ObsConfig off {off:.1}/s vs on {on:.1}/s"),
    );
    Ok(())
}
