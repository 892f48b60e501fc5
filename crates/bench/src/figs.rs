//! Figures 7–11 of the paper's evaluation: `xtc-bench figs [7 8 9 10 11]`
//! (no number: all five).
//!
//! | figure | regenerates |
//! |--------|-------------|
//! | 7  | taDOM3+ under the four isolation levels: throughput and deadlocks vs lock depth. Expected (§5.1): low throughput at depth 0 (document locks) and 1, a steep rise once conversion deadlocks drop from depth 2, saturation afterwards; weaker isolation levels above stronger ones. |
//! | 8  | the *-2PL group, total and per transaction type. Expected (§5.2): OO2PL > NO2PL > Node2PL in throughput — "Node2PL locks the entire level of the context node for any IUD operation, whereas NO2PL and OO2PL only lock its neighborhood" — while OO2PL also produces the most aborts. |
//! | 9  | synopsis of all depth-capable protocols vs lock depth at isolation repeatable. Expected (§5.2): "clear gaps separating the various protocol groups (*-2PL, MGL*, taDOM*)", ~50% and ~100% throughput gain for the MGL* and taDOM* groups, fewer deadlocks at lower depths. |
//! | 10 | the same run as Fig. 9, separated by transaction type (four panels). Expected (§5.2): readers dominate at depths 0–1; Node2PLa "begins to react a level deeper" and "fails almost completely with TArenameTopic"; MGL* cannot separate name from content on renames; taDOM2/taDOM3 (and IRIX/URIX) degrade beyond depth 4 on (b)/(c) where the + variants do not. |
//! | 11 | CLUSTER2: execution time of a single TAdelBook under every protocol. Expected (§5.3): "the *-2PL group roughly consumes for the deletion twice as much time than all other protocols" — Node2PL/NO2PL/OO2PL must scan the subtree for ID-attribute owners and IDX-lock them; every intention-lock protocol deletes with a handful of path locks. |
//!
//! Every figure is a view of [`sweep`]`(protocols, isolation, depths)`; 9
//! and 10 share one. `--scale` multiplies all think/run times;
//! `--paper-scale` is the full-size document with the paper's think times
//! and 4 runs of 5 minutes. `xtc-bench figs --help` lists the rest.

use crate::cli::{die, Flags};
use crate::report::{Report, Row};
use crate::row;
use std::time::Duration;
use xtc_core::IsolationLevel;
use xtc_protocols::EXTENDED_PROTOCOLS;
use xtc_tamix::{run_cluster1, run_cluster2, BibConfig, RunReport, TamixParams, TxnKind};

/// Node2PLa represents the *-2PL group (§2.2); the MGL* and taDOM* groups
/// appear in full, followed by the versioned contestants (snapshot reads;
/// depth applies to their taDOM3+ write side).
const DEPTH_FIELD: [&str; 10] = [
    "Node2PLa", "IRX", "IRIX", "URIX", "taDOM2", "taDOM2+", "taDOM3", "taDOM3+", "taMVCC", "taOCC",
];

/// The CLUSTER1 mix, in Fig. 8's row order.
const KINDS: [TxnKind; 4] = [
    TxnKind::Chapter,
    TxnKind::LendAndReturn,
    TxnKind::QueryBook,
    TxnKind::RenameTopic,
];

/// Options shared by all five figures.
pub struct FigArgs {
    /// Run duration per cell (before `scale`).
    pub duration: Duration,
    /// Repetitions per cell, averaged (the paper used 4).
    pub runs: u32,
    pub seed: u64,
    /// Lock depths to sweep.
    pub depths: Vec<u32>,
    /// Time multiplier applied to all wall-clock parameters.
    pub scale: f64,
    pub bib: BibConfig,
    /// Per-transaction virtual-time deadline; `None` leaves deadlines off,
    /// matching the paper's setting.
    pub txn_deadline: Option<Duration>,
}

impl FigArgs {
    pub fn read(flags: &Flags) -> FigArgs {
        let mut a = FigArgs {
            duration: Duration::from_millis(flags.num("duration-ms", 1500, "run time per cell")),
            runs: flags.num("runs", 1, "repetitions per cell, averaged"),
            seed: flags.num("seed", 42, "base RNG seed"),
            depths: flags.list("depths", &[0, 1, 2, 3, 4, 5, 6, 7], "lock depths to sweep"),
            scale: flags.num("scale", 1.0, "multiplier on all think/run times"),
            bib: flags.bib("scaled").1,
            txn_deadline: flags
                .opt_num(
                    "deadline-ms",
                    "per-transaction virtual-time deadline (default off)",
                )
                .map(Duration::from_millis),
        };
        if flags.switch(
            "paper-scale",
            "the paper's setting: full document, 4 runs of 5 min",
        ) {
            // 5-minute runs, 2500 ms waitAfterCommit, 100 ms waitAfterOperation.
            a.scale = 50.0;
            a.duration = Duration::from_millis(6000); // ×50 = 5 min
            a.runs = 4;
            a.bib = BibConfig::paper();
        }
        a
    }

    /// CLUSTER1 parameters for one cell of a sweep.
    pub fn cluster1(&self, protocol: &str, isolation: IsolationLevel, depth: u32) -> TamixParams {
        let mut p = TamixParams::cluster1(protocol, isolation, depth);
        p.duration = self.duration;
        p.seed = self.seed;
        p.txn_deadline = self.txn_deadline;
        p.scale_time(self.scale)
    }
}

/// One (protocol, isolation, depth) cell: its `--runs` repetitions.
struct Cell {
    protocol: &'static str,
    isolation: IsolationLevel,
    depth: u32,
    runs: Vec<RunReport>,
}

impl Cell {
    /// A per-run quantity averaged over the repetitions.
    fn avg(&self, f: impl Fn(&RunReport) -> f64) -> f64 {
        self.runs.iter().map(f).sum::<f64>() / self.runs.len().max(1) as f64
    }
    fn committed(&self) -> f64 {
        self.avg(|r| r.committed() as f64)
    }
    fn deadlocks(&self) -> f64 {
        self.avg(|r| r.deadlocks as f64)
    }
    fn committed_of(&self, kind: TxnKind) -> f64 {
        self.avg(|r| r.committed_of(kind) as f64)
    }
    fn aborted_of(&self, kind: TxnKind) -> f64 {
        self.avg(|r| {
            r.per_type
                .get(kind.name())
                .map_or(0.0, |s| s.aborted() as f64)
        })
    }
}

/// Runs CLUSTER1 once per protocol × depth (× `--runs` seeds), protocol-major.
fn sweep(
    args: &FigArgs,
    protocols: &[&'static str],
    isolation: IsolationLevel,
    depths: &[u32],
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &protocol in protocols {
        for &depth in depths {
            let runs: Vec<RunReport> = (0..args.runs)
                .map(|run| {
                    let mut p = args.cluster1(protocol, isolation, depth);
                    p.seed = args.seed + run as u64;
                    run_cluster1(&p, &args.bib)
                })
                .collect();
            let cell = Cell {
                protocol,
                isolation,
                depth,
                runs,
            };
            eprintln!(
                "figs: {protocol} iso={} depth={depth}: committed={:.0} deadlocks={:.0} \
                 timeouts={} cache-hit={:.1}% memo={:.1}%{}",
                isolation.name(),
                cell.committed(),
                cell.deadlocks(),
                cell.runs.iter().map(|r| r.timeout_aborts()).sum::<u64>(),
                cell.avg(|r| r.cache_hit_rate()) * 100.0,
                cell.avg(|r| r.memo_share()) * 100.0,
                match cell.runs.first().and_then(|r| r.txn_deadline_us) {
                    Some(us) => format!(" deadline={us}µs"),
                    None => String::new(),
                }
            );
            cells.push(cell);
        }
    }
    cells
}

/// Prints an aligned series table: one row per x value, one column per
/// series — the textual form of one plot panel.
fn print_table(title: &str, x_label: &str, xs: &[String], series: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    print!("{x_label:>12}");
    for (name, _) in series {
        print!(" {name:>14}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>12}");
        for (_, ys) in series {
            match ys.get(i) {
                Some(y) => print!(" {y:>14.1}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Prints one lock-depth panel: a series per distinct `label`, in cell order.
fn print_depth_panel(
    title: &str,
    cells: &[Cell],
    depths: &[u32],
    label: impl Fn(&Cell) -> String,
    y: impl Fn(&Cell) -> f64,
) {
    let xs: Vec<String> = depths.iter().map(|d| d.to_string()).collect();
    let series: Vec<(String, Vec<f64>)> = cells
        .chunks(depths.len().max(1))
        .map(|chunk| (label(&chunk[0]), chunk.iter().map(&y).collect()))
        .collect();
    print_table(title, "lock depth", &xs, &series);
}

/// Figs. 7 and 9: a throughput panel and a deadlock panel over lock
/// depth, one series per `label`.
fn throughput_and_deadlocks(
    (table, figure, what): (&'static str, &str, &str),
    cells: &[Cell],
    depths: &[u32],
    label: fn(&Cell) -> String,
    report: &mut Report,
) {
    let throughput =
        format!("{figure} (left): {what} — transaction throughput (committed txns/run)");
    print_depth_panel(&throughput, cells, depths, label, Cell::committed);
    let deadlocks = format!("{figure} (right): {what} — deadlocks");
    print_depth_panel(&deadlocks, cells, depths, label, Cell::deadlocks);
    let rows = cells.iter().map(|c| {
        row! {
            "protocol": c.protocol, "isolation": c.isolation.name(), "depth": c.depth,
            "committed": c.committed(), "deadlocks": c.deadlocks(),
        }
    });
    report.data(table, rows.collect());
}

fn fig8(args: &FigArgs, report: &mut Report) {
    // The plain *-2PL protocols ignore lock depth.
    let cells = sweep(
        args,
        &["Node2PL", "NO2PL", "OO2PL"],
        IsolationLevel::Repeatable,
        &[7],
    );
    let xs: Vec<String> = std::iter::once("CLUSTER1".to_string())
        .chain(KINDS.iter().map(|k| k.name().to_string()))
        .collect();
    let series = |total: fn(&RunReport) -> u64, of: fn(&Cell, TxnKind) -> f64| {
        cells
            .iter()
            .map(|c| {
                let ys = std::iter::once(c.avg(|r| total(r) as f64))
                    .chain(KINDS.iter().map(|&k| of(c, k)))
                    .collect();
                (c.protocol.to_string(), ys)
            })
            .collect::<Vec<(String, Vec<f64>)>>()
    };
    let committed = series(RunReport::committed, Cell::committed_of);
    let aborted = series(RunReport::aborted, Cell::aborted_of);
    print_table(
        "Figure 8 (left): *-2PL group on CLUSTER1 — transaction throughput (committed txns/run)",
        "series",
        &xs,
        &committed,
    );
    print_table(
        "Figure 8 (right): *-2PL group on CLUSTER1 — aborted transactions (deadlocks)",
        "series",
        &xs,
        &aborted,
    );
    let mut rows: Vec<Row> = Vec::new();
    for ((protocol, th), (_, ab)) in committed.iter().zip(&aborted) {
        for (i, x) in xs.iter().enumerate() {
            rows.push(row! {
                "protocol": protocol, "series": x, "committed": th[i], "aborted": ab[i],
            });
        }
    }
    report.data("fig8", rows);
}

fn fig10(args: &FigArgs, cells: &[Cell], report: &mut Report) {
    let panels = [
        ("a", TxnKind::QueryBook),
        ("b", TxnKind::Chapter),
        ("c", TxnKind::LendAndReturn),
        ("d", TxnKind::RenameTopic),
    ];
    let mut rows: Vec<Row> = Vec::new();
    for (panel, kind) in panels {
        print_depth_panel(
            &format!(
                "Figure 10{panel}: CLUSTER1 throughput of {} (committed txns/run)",
                kind.name()
            ),
            cells,
            &args.depths,
            |c| c.protocol.to_string(),
            |c| c.committed_of(kind),
        );
        rows.extend(cells.iter().map(|c| {
            row! {
                "kind": kind.name(), "protocol": c.protocol, "depth": c.depth,
                "committed": c.committed_of(kind),
            }
        }));
    }
    report.data("fig10", rows);
}

fn fig11(args: &FigArgs, report: &mut Report) {
    let rows = EXTENDED_PROTOCOLS.iter().map(|proto| {
        let rep = run_cluster2(proto, &args.bib, args.runs.max(3));
        row! {
            "protocol": &rep.protocol, "time_us": rep.duration.as_micros() as u64,
            "lock_requests": rep.lock_requests, "page_reads": rep.page_reads,
        }
    });
    report.table(
        "fig11",
        "Figure 11: CLUSTER2 — TAdelBook execution under all protocols",
        rows.collect(),
    );
    println!(
        "\n(The paper's absolute times are disk-bound; page reads are the\n\
         hardware-independent proxy — see EXPERIMENTS.md.)"
    );
}

pub fn run(flags: &Flags) {
    let mut report = Report::new(flags);
    let args = FigArgs::read(flags);
    flags.finish();
    let mut figures: Vec<u32> = flags
        .positionals()
        .iter()
        .map(|f| match f.parse() {
            Ok(n @ 7..=11) => n,
            _ => die(&format!(
                "no figure {f} (the paper's evaluation has 7 8 9 10 11)"
            )),
        })
        .collect();
    if figures.is_empty() {
        figures = (7..=11).collect();
    }
    let wanted = |n: u32| figures.contains(&n);
    report.summary = row! {
        "figures": figures.iter().map(|f| f.to_string()).collect::<Vec<_>>().join(","),
        "duration_ms": args.duration.as_millis() as u64, "runs": args.runs, "seed": args.seed,
        "scale": args.scale, "books": args.bib.books,
    };

    if wanted(7) {
        let cells: Vec<Cell> = IsolationLevel::ALL
            .into_iter()
            .flat_map(|iso| sweep(&args, &["taDOM3+"], iso, &args.depths))
            .collect();
        throughput_and_deadlocks(
            ("fig7", "Figure 7", "CLUSTER1 under taDOM3+"),
            &cells,
            &args.depths,
            |c| c.isolation.name().to_uppercase(),
            &mut report,
        );
    }
    if wanted(8) {
        fig8(&args, &mut report);
    }
    if wanted(9) || wanted(10) {
        let cells = sweep(
            &args,
            &DEPTH_FIELD,
            IsolationLevel::Repeatable,
            &args.depths,
        );
        if wanted(9) {
            throughput_and_deadlocks(
                ("fig9", "Figure 9", "all protocols on CLUSTER1"),
                &cells,
                &args.depths,
                |c| c.protocol.to_string(),
                &mut report,
            );
        }
        if wanted(10) {
            fig10(&args, &cells, &mut report);
        }
    }
    if wanted(11) {
        fig11(&args, &mut report);
    }
    report.finish();
}
