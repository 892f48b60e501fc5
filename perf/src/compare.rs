//! `perf compare A.json B.json`: per workload and end-to-end metric,
//! how much worse B's median is than A's, against the metric's bound.
//! A and B are set files written by `perf run` (any number of runs per
//! workload). The verdict follows the repository's rule: a breach fails,
//! and a difference inside the bound counts as unchanged only when the
//! run-to-run spread of both sets is itself inside the bound.

use crate::json::Value;
use crate::spec::{self, Better};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Spread wider than the bound: neither changed nor unchanged.
    Unresolved,
    Breach,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Positive = B is worse, as a share of A's median.
    pub worse_by: f64,
    pub bound: f64,
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub verdict: Verdict,
}

/// `workload -> metric -> values`, from a set file's untraced runs.
fn values(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (workload, _) in spec::WORKLOADS {
        for m in spec::end_to_end() {
            let (va, vb) = (values(a, workload, &m.name), values(b, workload, &m.name));
            if va.is_empty() && vb.is_empty() {
                continue; // the sets did not run this workload
            }
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload} {}: present in only one of the sets",
                    m.name
                ));
            }
            let (ma, mb) = (median(&va), median(&vb));
            if ma == 0.0 {
                return Err(format!(
                    "{workload} {}: the first set's median is 0",
                    m.name
                ));
            }
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (spread_a, spread_b) = (spread(&va), spread(&vb));
            let noisy = [spread_a, spread_b]
                .iter()
                .any(|s| s.is_some_and(|s| s > bound));
            // Every run of B better than every run of A decides it, whatever the spread.
            let b_wins_every_run = match m.better {
                Better::Lower => vb.iter().all(|y| va.iter().all(|x| y < x)),
                Better::Higher => vb.iter().all(|y| va.iter().all(|x| y > x)),
            };
            let verdict = if worse_by > bound {
                Verdict::Breach
            } else if noisy && !b_wins_every_run {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name.clone(),
                a: ma,
                b: mb,
                worse_by,
                bound,
                spread_a,
                spread_b,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the sets hold no run of any workload".to_string());
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    let pct = |s: Option<f64>| s.map_or("   n/a".to_string(), |s| format!("{:>5.1}%", 100.0 * s));
    println!(
        "{:<17} {:<13} {:>12} {:>12} {:>8} {:>6}  {:>6} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "iqr A", "iqr B"
    );
    for r in rows {
        println!(
            "{:<17} {:<13} {:>12.3} {:>12.3} {:>+7.1}% {:>5.0}%  {} {}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.bound,
            pct(r.spread_a),
            pct(r.spread_b),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Breach => "BREACH",
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set with one workload whose every metric takes `values` scaled by `k`.
    fn set(workload: &str, k: f64, values: &[f64]) -> Value {
        let runs = values.iter().map(|v| {
            let metrics = spec::end_to_end().into_iter().map(|m| {
                (
                    m.name,
                    Value::obj([("value", Value::Num(v * k)), ("unit", Value::str(m.unit))]),
                )
            });
            Value::obj([
                ("workload", Value::str(workload)),
                ("metrics", Value::obj(metrics)),
            ])
        });
        Value::obj([("runs", Value::Arr(runs.collect()))])
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn equal_sets_agree_and_direction_decides_what_worse_means() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let a = set("cluster1-mem", 1.0, &steady);
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), spec::end_to_end().len());
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by == 0.0));

        // 30% up, beyond any bound the contract allows: a breach for every
        // lower-is-better metric, a gain for throughput.
        let rows = compare(&a, &set("cluster1-mem", 1.3, &steady)).unwrap();
        assert_eq!(verdict(&rows, "read_p50_us"), Verdict::Breach);
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Breach);
        assert_eq!(verdict(&rows, "txn_per_s"), Verdict::Ok);
        // 30% down: the reverse.
        let rows = compare(&a, &set("cluster1-mem", 0.7, &steady)).unwrap();
        assert_eq!(verdict(&rows, "read_p50_us"), Verdict::Ok);
        assert_eq!(verdict(&rows, "txn_per_s"), Verdict::Breach);
        // Worse, but inside the bound: not a breach.
        let rows = compare(&a, &set("cluster1-mem", 1.001, &steady)).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        let a = set("cluster1-hot", 1.0, &noisy);
        let rows = compare(&a, &a).unwrap();
        assert_eq!(verdict(&rows, "write_p50_us"), Verdict::Unresolved);
        // Half the latency on every run: resolved in B's favour for the
        // lower-is-better metrics, a breach for throughput.
        let rows = compare(&a, &set("cluster1-hot", 0.4, &noisy)).unwrap();
        assert_eq!(verdict(&rows, "write_p50_us"), Verdict::Ok);
        assert_eq!(verdict(&rows, "txn_per_s"), Verdict::Breach);
    }

    #[test]
    fn mismatched_sets_are_an_error() {
        let a = set("cluster1-mem", 1.0, &[1.0, 2.0]);
        let b = set("server-2conn", 1.0, &[1.0, 2.0]);
        assert!(compare(&a, &b).is_err());
        assert!(compare(&Value::obj::<String>([]), &Value::obj::<String>([])).is_err());
    }
}
