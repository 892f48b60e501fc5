//! Spans recorded by the benchmark's own code around its calls into the
//! engine, kept in memory during the traced pass and written out when it
//! ends. One root span per logical transaction (`txn`, or `request` when
//! served) with the attempts' phases as children; spans inside the engine
//! are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use xtc_tamix::txns::TxnKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanName {
    /// Root, embedded: one logical transaction, retries included.
    Txn,
    Begin,
    Body,
    Commit,
    Abort,
    Backoff,
    /// Root, served: one round trip.
    Request,
    /// The reply's `wall_us`.
    Engine,
    /// The round trip's remainder: parse, socket, session wake-up, gate.
    Frontend,
}

impl SpanName {
    pub fn name(self) -> &'static str {
        match self {
            SpanName::Txn => "txn",
            SpanName::Begin => "begin",
            SpanName::Body => "body",
            SpanName::Commit => "commit",
            SpanName::Abort => "abort",
            SpanName::Backoff => "backoff",
            SpanName::Request => "request",
            SpanName::Engine => "engine",
            SpanName::Frontend => "frontend",
        }
    }

    pub fn is_root(self) -> bool {
        self.parent().is_none()
    }

    /// The root span a span of this name hangs under.
    pub fn parent(self) -> Option<SpanName> {
        match self {
            SpanName::Txn | SpanName::Request => None,
            SpanName::Engine | SpanName::Frontend => Some(SpanName::Request),
            _ => Some(SpanName::Txn),
        }
    }
}

/// One timed interval. `(thread, txn)` identifies the logical
/// transaction every span of it shares; a non-root span's parent is the
/// root span with the same pair.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub thread: u8,
    pub txn: u32,
    pub kind: TxnKind,
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Summed span time per name, and the roots' self time: a root's
/// duration minus what its children cover.
#[derive(Debug, Default, PartialEq)]
pub struct SelfTimes {
    pub total_ns: BTreeMap<SpanName, u64>,
    pub root_self_ns: u64,
}

impl SelfTimes {
    pub fn of(spans: &[Span]) -> SelfTimes {
        let mut t = SelfTimes::default();
        let (mut roots, mut children) = (0u64, 0u64);
        for s in spans {
            *t.total_ns.entry(s.name).or_default() += s.ns();
            if s.name.is_root() {
                roots += s.ns();
            } else {
                children += s.ns();
            }
        }
        // Children of one root never overlap, so the sums subtract.
        t.root_self_ns = roots.saturating_sub(children);
        t
    }

    fn root_ns(&self) -> u64 {
        self.total_ns
            .iter()
            .filter(|(n, _)| n.is_root())
            .map(|(_, ns)| ns)
            .sum()
    }

    pub fn ns(&self, name: SpanName) -> u64 {
        self.total_ns.get(&name).copied().unwrap_or(0)
    }

    /// A child's summed time as a share of the roots' summed time.
    pub fn share(&self, name: SpanName) -> f64 {
        match self.root_ns() {
            0 => 0.0,
            roots => self.ns(name) as f64 / roots as f64,
        }
    }
}

/// Writes the spans as one JSON document, one span per line.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .name
            .parent()
            .map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"request\":\"{}.{}\",\"span\":\"{}\",\"parent\":{parent},\"kind\":\"{}\",\"thread\":{},\"start\":{},\"end\":{}}}{comma}",
            s.thread,
            s.txn,
            s.name.name(),
            s.kind.name(),
            s.thread,
            s.start_ns,
            s.end_ns,
        )?;
    }
    writeln!(out, "]}}")?;
    // A dropped BufWriter swallows write errors.
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(txn: u32, name: SpanName, start_ns: u64, end_ns: u64) -> Span {
        Span {
            thread: 0,
            txn,
            kind: TxnKind::QueryBook,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_root_minus_its_children() {
        let spans = [
            span(0, SpanName::Begin, 0, 10),
            span(0, SpanName::Body, 10, 70),
            span(0, SpanName::Abort, 70, 75),
            span(0, SpanName::Backoff, 75, 175),
            span(0, SpanName::Begin, 180, 190),
            span(0, SpanName::Body, 190, 250),
            span(0, SpanName::Commit, 250, 290),
            span(0, SpanName::Txn, 0, 300),
        ];
        let t = SelfTimes::of(&spans);
        assert_eq!(t.ns(SpanName::Begin), 20);
        assert_eq!(t.ns(SpanName::Body), 120);
        assert_eq!(t.root_self_ns, 300 - 20 - 120 - 5 - 100 - 40);
        assert!((t.share(SpanName::Backoff) - 100.0 / 300.0).abs() < 1e-12);
        assert_eq!(SelfTimes::of(&[]).share(SpanName::Body), 0.0);
    }

    #[test]
    fn trace_file_is_valid_json_with_parents() {
        let path = std::env::temp_dir().join(format!("xtc-perf-trace-{}.json", std::process::id()));
        let spans = [span(3, SpanName::Body, 5, 9), span(3, SpanName::Txn, 0, 12)];
        write_json(&path, "cluster1-mem", 4, &spans).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let list = doc.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].get("parent").and_then(|p| p.as_str()), Some("txn"));
        assert_eq!(list[1].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(list[0].get("request").and_then(|p| p.as_str()), Some("0.3"));
    }
}
