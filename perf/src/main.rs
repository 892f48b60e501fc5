//! `perf` — the repository's benchmark. See README.md beside the
//! manifest for the workloads, the metric glossary and how to read a run.

mod compare;
mod json;
mod ladder;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use json::Value;
use run::RunArgs;
use std::process::{Command, ExitCode, Stdio};
use workload::Workload;

const USAGE: &str = "\
usage:
  perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
        one run of one workload; the last line of stdout is the result
  perf run   [--seed N] [--runs K] [--seconds S] [--workloads a,b] [--quick] [--out FILE]
        every workload K times (seeds N..N+K), each in a fresh process, tracing off;
        writes a set file for `compare`
  perf trace [--seed N] [--seconds S] [--workloads a,b] [--quick] [--out FILE]
        the same with tracing on: per-layer metrics and .perf_out/trace-<workload>.json
  perf compare A.json B.json
        B's medians against A's, per workload and end-to-end metric; exit 1 on a breach
  perf manifest
        BENCHMARK.json as this build defines it
workloads: cluster1-mem cluster1-hot cluster1-durable server-2conn";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => set_command(&args[1..], false),
        Some("trace") => set_command(&args[1..], true),
        Some("compare") => compare_command(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest().render_pretty());
            Ok(true)
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(_) => single_command(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare `--quick`, in any order.
struct Flags<'a>(Vec<(&'a str, Option<&'a str>)>);

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], known: &[&str]) -> Result<Flags<'a>, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--quick" {
                out.push(("--quick", None));
            } else if known.contains(&a.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{a} needs a value\n{USAGE}"))?;
                out.push((a.as_str(), Some(v.as_str())));
            } else {
                return Err(format!("unknown argument {a}\n{USAGE}"));
            }
        }
        Ok(Flags(out))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| *f == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    fn number(&self, flag: &str) -> Result<Option<u64>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} {v:?} is not a whole number"))
            })
            .transpose()
    }
}

fn single_command(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags
        .value("--workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let run = RunArgs {
        workload: Workload::from_name(name)
            .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
        seed: flags.number("--seed")?.unwrap_or(1),
        seconds: flags
            .number("--seconds")?
            .unwrap_or(spec::RUN_SECONDS)
            .clamp(1, 60),
        trace: match flags.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        quick: flags.has("--quick"),
    };
    run::single(&run)
}

/// Runs the workloads one process each and gathers the result lines.
fn set_command(args: &[String], trace: bool) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["--seed", "--runs", "--seconds", "--workloads", "--out"],
    )?;
    let quick = flags.has("--quick");
    let seed = flags.number("--seed")?.unwrap_or(1);
    let runs = flags.number("--runs")?.unwrap_or(1).max(1);
    let seconds = flags
        .number("--seconds")?
        .unwrap_or(if quick { 3 } else { spec::RUN_SECONDS });
    let workloads: Vec<Workload> = match flags.value("--workloads") {
        None => Workload::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|n| Workload::from_name(n).ok_or_else(|| format!("unknown workload {n:?}")))
            .collect::<Result<_, _>>()?,
    };
    let default_out = run::out_dir().join(if trace {
        "set-trace.json"
    } else {
        "set-run.json"
    });
    let out = flags.value("--out").map_or(default_out, Into::into);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in &workloads {
        for seed in seed..seed + runs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if quick {
                cmd.arg("--quick");
            }
            // A fresh process per run: set-up time and peak memory start from nothing.
            let output = cmd
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let line = stdout.lines().last().unwrap_or("");
            let result = json::parse(line).map_err(|e| {
                format!(
                    "{} seed {seed} ended with {} and no result line ({e})",
                    workload.name(),
                    output.status
                )
            })?;
            all_correct &= result.get("correct") == Some(&Value::Bool(true));
            let mut fields = vec![
                ("workload".to_string(), Value::str(workload.name())),
                ("seed".to_string(), Value::Num(seed as f64)),
            ];
            fields.extend(result.as_obj().unwrap_or(&[]).iter().cloned());
            results.push(Value::Obj(fields));
        }
    }
    let meta = run::metadata(&RunArgs {
        workload: workloads[0],
        seed,
        seconds,
        trace,
        quick,
    });
    let set = Value::obj([
        (
            "meta",
            Value::obj(meta.into_iter().filter(|(k, _)| *k != "workload")),
        ),
        ("runs", Value::Arr(results)),
    ]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, set.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("perf: set written to {}", out.display());
    Ok(all_correct)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two set files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    compare::print(&rows);
    let breaches = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Breach)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {breaches} beyond their bound, {unresolved} unresolved",
        rows.len()
    );
    Ok(breaches == 0)
}
