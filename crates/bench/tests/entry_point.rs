//! Drives the built `xtc-bench` binary: the report envelope, the exit
//! statuses of the shared flag reader, and the chaos gate that must not
//! pass without live failpoints.

use std::path::PathBuf;
use std::process::{Command, Output};

fn xtc_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtc-bench"))
        .args(args)
        .output()
        .expect("spawning xtc-bench")
}

/// A report path no other test (or test process) shares.
fn tmp_report(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xtc-bench-{test}-{}.json", std::process::id()))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn occupancy_writes_the_envelope_with_a_passing_gate() {
    let path = tmp_report("occupancy");
    let out = xtc_bench(&[
        "occupancy",
        "--out",
        path.to_str().unwrap(),
        "--check-max-bytes-per-key",
        "3.0",
    ]);
    assert!(out.status.success(), "occupancy failed: {}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("the report was written");
    let _ = std::fs::remove_file(&path);
    let mut last = 0;
    for key in ["benchmark", "meta", "summary", "tables", "gates"] {
        let at = json
            .find(&format!("\n  \"{key}\": "))
            .unwrap_or_else(|| panic!("envelope key {key} missing:\n{json}"));
        assert!(at >= last, "envelope key {key} out of order");
        last = at;
    }
    assert!(json.contains("\"benchmark\": \"occupancy\""));
    assert!(json.contains("\"cells\": [\n      {\"dist\": 2, \"phase\": \"build\""));
    assert!(
        json.contains("{\"name\": \"bytes_per_key\", \"pass\": true"),
        "no passing gate in:\n{json}"
    );
}

#[test]
fn a_failed_gate_exits_1_and_still_writes_the_report() {
    let path = tmp_report("occupancy-fail");
    let out = xtc_bench(&[
        "occupancy",
        "--bib",
        "tiny",
        "--dists",
        "2",
        "--out",
        path.to_str().unwrap(),
        "--check-max-bytes-per-key",
        "0.1",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("occupancy check failed: bytes_per_key"));
    let json = std::fs::read_to_string(&path).expect("the report was written");
    let _ = std::fs::remove_file(&path);
    assert!(json.contains("{\"name\": \"bytes_per_key\", \"pass\": false"));
}

#[test]
fn usage_errors_exit_2_before_any_work() {
    for (args, complaint) in [
        (&["occupancy", "--bogus", "1"][..], "unknown option --bogus"),
        (&["occupancy", "--dists"][..], "--dists needs a"),
        (
            &["occupancy", "--dists", "2,x"][..],
            "--dists: bad list item x",
        ),
        (&["occupancy", "--bib", "huge"][..], "unknown bib size huge"),
        (
            &["occupancy", "--updates", "yes"][..],
            "--updates takes no value",
        ),
        (&["figs", "12"][..], "no figure 12"),
        (&["lockperf"][..], "unknown subcommand lockperf"),
        (&[][..], "no subcommand"),
    ] {
        let out = xtc_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(complaint),
            "{args:?}: expected `{complaint}` in: {}",
            stderr(&out)
        );
    }
}

#[test]
fn help_is_generated_from_the_flags_a_subcommand_reads() {
    let out = xtc_bench(&["repl", "--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).into_owned();
    for flag in [
        "--out",
        "--check",
        "--fleets a,b,c",
        "--lag-bound-us N",
        "--protocol TEXT",
    ] {
        assert!(help.contains(flag), "{flag} missing from:\n{help}");
    }
    assert!(help.contains("(default BENCH_repl.json)"));
}

/// `chaos --check` used to pass with "0 crashed mid-run" when the kill
/// sites were compiled out; live failpoints are now a gate of their own.
#[test]
fn chaos_check_needs_live_failpoints() {
    let path = tmp_report("chaos");
    let out = xtc_bench(&[
        "chaos",
        "--protocols",
        "taDOM3+",
        "--sites",
        "wal.commit",
        "--duration-ms",
        "200",
        "--resume-ms",
        "100",
        "--out",
        path.to_str().unwrap(),
        "--check",
    ]);
    let json = std::fs::read_to_string(&path).expect("the report was written");
    let _ = std::fs::remove_file(&path);
    if cfg!(feature = "failpoints") {
        assert!(out.status.success(), "chaos failed: {}", stderr(&out));
        assert!(json.contains("{\"name\": \"faults_live\", \"pass\": true"));
        assert!(json.contains("{\"name\": \"kill_sites_fired\", \"pass\": true"));
    } else {
        assert_eq!(
            out.status.code(),
            Some(1),
            "a vacuous pass: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("chaos check failed: faults_live"));
        assert!(stderr(&out).contains("--features failpoints"));
        assert!(json.contains("{\"name\": \"faults_live\", \"pass\": false"));
    }
}
