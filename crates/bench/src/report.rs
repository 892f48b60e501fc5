//! The one report type every subcommand writes.
//!
//! ```text
//! { "benchmark": "<subcommand>",
//!   "meta":    { args, cpus, failpoints, wall_s },
//!   "summary": { flat key → number|string|bool },
//!   "tables":  { "<name>": [ { flat row }, … ], … },
//!   "gates":   [ { "name", "pass", "detail" }, … ] }
//! ```
//!
//! A table is built once, as rows, and rendered twice: aligned on stdout
//! ([`Report::table`]) and as JSON. Gates are always evaluated and
//! recorded; `--check` only decides whether a failed one is fatal.
//! [`Report::to_json`] is the only JSON writer in the crate and
//! [`Report::finish`] the only `--check` exit path.

use crate::cli::{die, Flags};
use std::fmt;
use std::time::Instant;

/// One scalar of a row, the summary or the metadata.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(u64),
    Float(f64),
    Text(String),
    Bool(bool),
}

/// The stdout rendering; JSON differs only in quoting text and in `null`
/// for the non-finite floats shown here as `-`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) if !v.is_finite() => f.write_str("-"),
            Value::Float(v) => {
                let fixed = format!("{v:.4}");
                let trimmed = fixed.trim_end_matches('0');
                write!(
                    f,
                    "{trimmed}{}",
                    if trimmed.ends_with('.') { "0" } else { "" }
                )
            }
            Value::Text(v) => f.write_str(v),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $e
            }
        }
    )*};
}
value_from!(
    u64 => |v| Value::Int(v),
    u32 => |v| Value::Int(v.into()),
    usize => |v| Value::Int(v as u64),
    f64 => |v| Value::Float(v),
    bool => |v| Value::Bool(v),
    &str => |v| Value::Text(v.to_string()),
    String => |v| Value::Text(v),
    &String => |v| Value::Text(v.clone()),
);

/// Ordered `key → value` pairs: one table row, the summary, the metadata.
pub type Row = Vec<(&'static str, Value)>;

/// `row! { "key": value, … }` — a [`Row`] from anything `Value: From`.
#[macro_export]
macro_rules! row {
    ($($key:literal: $value:expr),* $(,)?) => {
        vec![$(($key, $crate::report::Value::from($value))),*]
    };
}

/// One pass/fail verdict of a run.
#[derive(Debug)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

/// Everything one subcommand run produced.
pub struct Report {
    benchmark: String,
    argv: String,
    out: String,
    started: Instant,
    /// Whether a failed gate is fatal (`--check`).
    pub check: bool,
    pub summary: Row,
    tables: Vec<(&'static str, Vec<Row>)>,
    gates: Vec<Gate>,
}

impl Report {
    /// Starts the run clock and reads `--out` (default
    /// `BENCH_<subcommand>.json`). Call before `flags.finish()`.
    pub fn new(flags: &Flags) -> Report {
        Report {
            benchmark: flags.sub.clone(),
            argv: flags.argv.clone(),
            out: flags.text(
                "out",
                &format!("BENCH_{}.json", flags.sub),
                "where the report is written",
            ),
            started: Instant::now(),
            check: false,
            summary: Row::new(),
            tables: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Reads `--check`, for the subcommands that have gates.
    pub fn read_check(&mut self, flags: &Flags) {
        self.check = flags.switch("check", "exit 1 if any gate fails");
    }

    /// Records a table and prints it under `title`, one aligned column
    /// per key of its first row.
    pub fn table(&mut self, name: &'static str, title: &str, rows: Vec<Row>) {
        println!("\n== {title} ==");
        let header = rows.first().into_iter().map(|first| {
            let keys = first.iter().map(|(key, _)| key.to_string());
            keys.collect::<Vec<String>>()
        });
        let body = rows
            .iter()
            .map(|r| r.iter().map(|(_, v)| v.to_string()).collect());
        let lines: Vec<Vec<String>> = header.chain(body).collect();
        let width = |col: usize| {
            let cells = lines.iter().filter_map(|line| line.get(col));
            cells.map(|c| c.chars().count()).max().unwrap_or(0)
        };
        let widths: Vec<usize> = (0..lines.first().map_or(0, Vec::len)).map(width).collect();
        for line in &lines {
            let aligned: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:>w$}"))
                .collect();
            println!("{}", aligned.join("  "));
        }
        self.data(name, rows);
    }

    /// Records a table without printing it (the caller has its own layout).
    pub fn data(&mut self, name: &'static str, rows: Vec<Row>) {
        self.tables.push((name, rows));
    }

    pub fn gate(&mut self, name: &'static str, pass: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name,
            pass,
            detail: detail.into(),
        });
    }

    /// A gate over many cells: passes when `failures` is empty, otherwise
    /// its detail lists them.
    pub fn gate_all(&mut self, name: &'static str, failures: Vec<String>, ok: impl Into<String>) {
        if failures.is_empty() {
            self.gate(name, true, ok);
        } else {
            self.gate(name, false, failures.join("; "));
        }
    }

    pub fn failed_gates(&self) -> Vec<&Gate> {
        self.gates.iter().filter(|g| !g.pass).collect()
    }

    /// 1 when `--check` was given and a gate failed, else 0.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.check && !self.failed_gates().is_empty())
    }

    pub fn to_json(&self) -> String {
        fn text(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn object(row: &[(&'static str, Value)]) -> String {
            let fields: Vec<String> = row
                .iter()
                .map(|(key, value)| {
                    let value = match value {
                        Value::Text(v) => text(v),
                        // JSON has no NaN or infinity.
                        Value::Float(v) if !v.is_finite() => "null".to_string(),
                        plain => plain.to_string(),
                    };
                    format!("{}: {value}", text(key))
                })
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
        fn array(rows: impl Iterator<Item = String>, indent: &str) -> String {
            let rows: Vec<String> = rows.map(|r| format!("{indent}  {r}")).collect();
            if rows.is_empty() {
                "[]".to_string()
            } else {
                format!("[\n{}\n{indent}]", rows.join(",\n"))
            }
        }

        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        let meta = row! {
            "args": &self.argv,
            "cpus": cpus,
            "failpoints": cfg!(feature = "failpoints"),
            "wall_s": self.started.elapsed().as_secs_f64(),
        };
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|(name, rows)| {
                format!(
                    "    {}: {}",
                    text(name),
                    array(rows.iter().map(|r| object(r)), "    ")
                )
            })
            .collect();
        let gates = self.gates.iter().map(|g| {
            let row = row! { "name": g.name, "pass": g.pass, "detail": &g.detail };
            object(&row)
        });
        format!(
            "{{\n  \"benchmark\": {},\n  \"meta\": {},\n  \"summary\": {},\n  \
             \"tables\": {{\n{}\n  }},\n  \"gates\": {}\n}}\n",
            text(&self.benchmark),
            object(&meta),
            object(&self.summary),
            tables.join(",\n"),
            array(gates, "  "),
        )
    }

    /// Prints the summary, writes the report, prints every gate's verdict,
    /// and — under `--check` — exits 1 if any failed.
    pub fn finish(self) {
        let summary: Vec<String> = self
            .summary
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("\nsummary: {}", summary.join(" "));
        if let Some(parent) = std::path::Path::new(&self.out).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .unwrap_or_else(|e| die(&format!("creating {}: {e}", parent.display())));
            }
        }
        std::fs::write(&self.out, self.to_json())
            .unwrap_or_else(|e| die(&format!("writing {}: {e}", self.out)));
        println!("wrote {}", self.out);
        for g in &self.gates {
            let verdict = if g.pass { "ok" } else { "FAILED" };
            println!("gate {}: {verdict} — {}", g.name, g.detail);
        }
        if self.exit_code() != 0 {
            for g in self.failed_gates() {
                eprintln!("{} check failed: {}: {}", self.benchmark, g.name, g.detail);
            }
            std::process::exit(1);
        }
        if self.check {
            println!("{} check passed", self.benchmark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(args: &[&str]) -> Report {
        let flags = Flags::parse("unit", args.iter().map(|a| a.to_string()));
        let mut r = Report::new(&flags);
        r.read_check(&flags);
        r
    }

    #[test]
    fn envelope_has_the_five_keys_in_order() {
        let mut r = report(&[]);
        r.summary = row! { "cells": 2usize };
        r.table(
            "cells",
            "one cell",
            vec![row! { "protocol": "taDOM3+", "committed": 7u64 }],
        );
        r.data("empty", Vec::new());
        r.gate("contract", true, "held");
        let json = r.to_json();
        let at = |key: &str| json.find(&format!("\n  \"{key}\": ")).expect(key);
        assert!(at("benchmark") < at("meta") && at("meta") < at("summary"));
        assert!(at("summary") < at("tables") && at("tables") < at("gates"));
        assert!(json.contains("\"benchmark\": \"unit\""));
        assert!(json.contains("\"summary\": {\"cells\": 2}"));
        assert!(json.contains("{\"protocol\": \"taDOM3+\", \"committed\": 7}"));
        assert!(json.contains("\"empty\": []"));
        assert!(json.contains("{\"name\": \"contract\", \"pass\": true, \"detail\": \"held\"}"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = report(&[]);
        r.summary = row! { "s": "quote \" slash \\ newline \n tab \t bell \u{7} µ" };
        assert!(r
            .to_json()
            .contains(r#""s": "quote \" slash \\ newline \n tab \t bell \u0007 µ""#));
    }

    #[test]
    fn floats_are_fixed_point_and_non_finite_ones_are_null() {
        let mut r = report(&[]);
        r.summary = row! {
            "third": 1.0 / 3.0, "whole": 2.0, "nan": f64::NAN, "inf": f64::INFINITY,
        };
        assert!(r
            .to_json()
            .contains("{\"third\": 0.3333, \"whole\": 2.0, \"nan\": null, \"inf\": null}"));
    }

    #[test]
    fn a_failed_gate_is_listed_and_fatal_only_under_check() {
        for (args, code) in [(&["--check"][..], 1), (&[][..], 0)] {
            let mut r = report(args);
            r.gate("fine", true, "ok");
            r.gate_all(
                "lag",
                vec!["2 replicas: 9us".into(), "4 replicas: 7us".into()],
                "none",
            );
            let failed = r.failed_gates();
            assert_eq!(failed.len(), 1);
            assert_eq!(failed[0].name, "lag");
            assert_eq!(failed[0].detail, "2 replicas: 9us; 4 replicas: 7us");
            assert_eq!(r.exit_code(), code);
            assert!(r.to_json().contains("{\"name\": \"lag\", \"pass\": false"));
        }
        let mut passing = report(&["--check"]);
        passing.gate_all("lag", Vec::new(), "all drained");
        assert_eq!(passing.exit_code(), 0);
    }
}
