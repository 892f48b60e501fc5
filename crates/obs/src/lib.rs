//! Observability layer for the xtc workspace: deterministic virtual-time
//! accounting plus an optional structured trace.
//!
//! The paper's figure arguments are about *simulated* cost — page reads,
//! lock waits — not about how fast the host machine happens to run the
//! harness. This crate makes that cost a first-class measurement:
//!
//! - The **virtual clock** ([`VirtualClock`], [`CostKind`]) is always
//!   on: every simulated cost source charges microseconds with one
//!   relaxed atomic add to the charging thread's stripe of a
//!   [`Counter`]. Run reports diff [`VirtualTimes`] snapshots, so
//!   figure-shape assertions compare deterministic simulated time
//!   instead of wall-clock.
//! - The **trace** ([`Event`], [`EventKind`], the ring buffer and the
//!   [`Histogram`]s) is off by default and enabled via
//!   `XtcConfig::obs`. When off, every trace call is a branch on a
//!   `None` — near-zero cost. When on, events are recorded lock-free
//!   and exported as JSON (`results/trace_*.json`).
//!
//! A cloned [`Obs`] handle is threaded through the storage pool, the
//! lock table, the WAL, and the transaction layer; all clones share the
//! same clock and trace state.

#![warn(missing_docs)]

mod clock;
mod counter;
mod hist;
mod trace;

pub use clock::{CostKind, VirtualClock, VirtualTimes};
pub use counter::{stripe, CacheLine, Counter, STRIPES};
pub use hist::{bucket_bound, bucket_of, HistKind, Histogram, HistogramSnapshot, BUCKETS};
pub use trace::{Event, EventKind, ObsConfig};

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use trace::TraceState;

thread_local! {
    /// Stack of transactions active on this thread; the innermost frame
    /// *of the charging engine* accumulates per-transaction virtual
    /// time. Always on (deadline budgets charge against it),
    /// independent of tracing. Frames are tagged with the engine they
    /// belong to so a server worker touching two documents never bleeds
    /// cost attribution across engines.
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };

    /// Virtual time of the most recently ended transaction on this
    /// thread, kept per engine, for callers (the retry loop) that learn
    /// the outcome only after the frame is gone.
    static LAST_ENDED: RefCell<Vec<(EngineId, u64, VirtualTimes)>> = const { RefCell::new(Vec::new()) };
}

/// Identity of one engine: the address of its shared virtual clock.
/// All clones of an `Obs` handle share the clock `Arc`, so they agree
/// on the id; two independently built engines never collide.
type EngineId = usize;

struct Frame {
    engine: EngineId,
    txn: u64,
    vt: VirtualTimes,
}

/// Shared observability handle: an always-on virtual clock plus
/// optional tracing state. Cheap to clone (two `Arc`s); all clones
/// observe the same counters and events.
#[derive(Clone, Default)]
pub struct Obs {
    clock: Arc<VirtualClock>,
    trace: Option<Arc<TraceState>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("vt", &self.clock.snapshot())
            .field("tracing", &self.trace.is_some())
            .finish()
    }
}

impl Obs {
    /// A handle with the clock on and tracing enabled per `config`
    /// (`None` leaves tracing off — the [`Default`] behavior).
    pub fn with_config(config: Option<&ObsConfig>) -> Obs {
        Obs {
            clock: Arc::new(VirtualClock::default()),
            trace: config.map(|c| Arc::new(TraceState::new(c))),
        }
    }

    /// True when the tracing half is enabled.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// This engine's identity: the address of the clock shared by every
    /// clone of the handle. Frames on a thread are keyed by it so two
    /// engines used from one thread keep separate attribution.
    #[inline]
    fn engine_id(&self) -> EngineId {
        Arc::as_ptr(&self.clock) as EngineId
    }

    /// Charges simulated microseconds to the run-wide clock and to the
    /// current thread's innermost transaction frame *of this engine*
    /// (deadline budgets read the frame); while tracing, also to the
    /// matching latency histogram. Frames of other engines interleaved
    /// on the same thread are never charged.
    #[inline]
    pub fn charge(&self, kind: CostKind, micros: u64) {
        // A zero charge (a page read at zero configured latency) moves
        // no total; only the trace histogram below still samples it.
        if micros != 0 {
            self.clock.charge(kind, micros);
            let engine = self.engine_id();
            FRAMES.with_borrow_mut(|frames| {
                if let Some(top) = frames.iter_mut().rev().find(|f| f.engine == engine) {
                    top.vt.add_us(kind, micros);
                }
            });
        }
        if let Some(trace) = &self.trace {
            let hist = match kind {
                CostKind::PageRead => Some(HistKind::PageRead),
                CostKind::LockWait => Some(HistKind::LockWait),
                CostKind::WalFlush => Some(HistKind::WalFlush),
                CostKind::Think
                | CostKind::RetryBackoff
                | CostKind::Recovery
                | CostKind::ReplApply
                | CostKind::PageWrite => None,
            };
            if let Some(h) = hist {
                trace.hist(h).record(micros);
            }
        }
    }

    /// Run-wide virtual-time totals so far.
    #[inline]
    pub fn vt(&self) -> VirtualTimes {
        self.clock.snapshot()
    }

    /// Marks a transaction as active on the current thread (its frame
    /// starts accumulating virtual time) and, while tracing, records its
    /// begin event.
    pub fn txn_begin(&self, txn: u64) {
        let engine = self.engine_id();
        FRAMES.with_borrow_mut(|frames| {
            frames.push(Frame {
                engine,
                txn,
                vt: VirtualTimes::default(),
            })
        });
        self.record_for(txn, EventKind::TxnBegin);
    }

    /// Ends a transaction: pops its frame (matched by engine and id,
    /// scanning from the top so nesting and cross-frame drops stay
    /// robust), remembers its totals for [`Obs::take_last_txn_vt`], and,
    /// while tracing, records the end event carrying them. Returns the
    /// transaction's charged time when a frame was found.
    pub fn txn_end(&self, txn: u64, committed: bool) -> Option<VirtualTimes> {
        let engine = self.engine_id();
        let found = FRAMES.with_borrow_mut(|frames| {
            frames
                .iter()
                .rposition(|f| f.engine == engine && f.txn == txn)
                .map(|i| frames.remove(i).vt)
        });
        let vt = found.unwrap_or_default();
        LAST_ENDED.with_borrow_mut(|last| {
            last.retain(|(e, _, _)| *e != engine);
            last.push((engine, txn, vt));
        });
        self.record_for(txn, EventKind::TxnEnd { committed, vt });
        found
    }

    /// Virtual time charged so far to a transaction still active on this
    /// thread (`None` when it has no frame here). This is the quantity
    /// deadline budgets are enforced against.
    pub fn txn_vt(&self, txn: u64) -> Option<VirtualTimes> {
        let engine = self.engine_id();
        FRAMES.with_borrow(|frames| {
            frames
                .iter()
                .rfind(|f| f.engine == engine && f.txn == txn)
                .map(|f| f.vt)
        })
    }

    /// Takes (and clears) the virtual time of this engine's transaction
    /// that most recently ended on this thread. The retry loop uses this
    /// to charge each attempt against a cross-attempt elapsed budget
    /// after commit/abort has already popped the frame. Other engines'
    /// entries on the thread are left untouched.
    pub fn take_last_txn_vt(&self) -> Option<(u64, VirtualTimes)> {
        let engine = self.engine_id();
        LAST_ENDED.with_borrow_mut(|last| {
            last.iter()
                .position(|(e, _, _)| *e == engine)
                .map(|i| {
                    let (_, txn, vt) = last.remove(i);
                    (txn, vt)
                })
        })
    }

    /// This engine's transaction currently active on this thread
    /// (0 when none).
    pub fn current_txn(&self) -> u64 {
        let engine = self.engine_id();
        FRAMES.with_borrow(|frames| {
            frames
                .iter()
                .rfind(|f| f.engine == engine)
                .map(|f| f.txn)
                .unwrap_or(0)
        })
    }

    /// Records an event attributed to the current thread's active
    /// transaction. No-op unless tracing.
    #[inline]
    pub fn record(&self, kind: EventKind) {
        if self.trace.is_some() {
            let txn = self.current_txn();
            self.record_for(txn, kind);
        }
    }

    /// Records an event attributed to an explicit transaction id.
    /// No-op unless tracing.
    #[inline]
    pub fn record_for(&self, txn: u64, kind: EventKind) {
        if let Some(trace) = &self.trace {
            trace.ring.push(trace::encode(txn, &kind));
        }
    }

    /// Like [`Obs::record_for`], but builds the event lazily: the closure
    /// runs only while tracing, so call sites with a non-trivial payload
    /// (lock-name hashing) pay nothing when the trace is off.
    #[inline]
    pub fn record_with(&self, txn: u64, kind: impl FnOnce() -> EventKind) {
        if let Some(trace) = &self.trace {
            trace.ring.push(trace::encode(txn, &kind()));
        }
    }

    /// A consistent, position-ordered copy of the recorded events
    /// (empty unless tracing). When the ring has wrapped, only the most
    /// recent lap is available.
    pub fn events(&self) -> Vec<Event> {
        let Some(trace) = &self.trace else {
            return Vec::new();
        };
        trace
            .ring
            .snapshot()
            .into_iter()
            .filter_map(|(pos, words)| {
                trace::decode(words).map(|(txn, kind)| Event {
                    seq: pos,
                    txn,
                    kind,
                })
            })
            .collect()
    }

    /// Total events recorded so far (including any that wrapped out of
    /// the buffer); 0 unless tracing.
    pub fn recorded_events(&self) -> u64 {
        self.trace
            .as_ref()
            .map(|t| t.ring.recorded())
            .unwrap_or(0)
    }

    /// Events dropped because a wrap raced an in-flight writer (distinct
    /// from events merely overwritten by newer laps); 0 unless tracing.
    pub fn dropped_events(&self) -> u64 {
        self.trace
            .as_ref()
            .map(|t| t.ring.contended_drops())
            .unwrap_or(0)
    }

    /// Snapshot of one latency histogram; `None` unless tracing.
    pub fn histogram(&self, kind: HistKind) -> Option<HistogramSnapshot> {
        self.trace.as_ref().map(|t| t.hist(kind).snapshot())
    }

    /// Exports the run as a JSON document: run-wide virtual time, the
    /// latency histograms, per-transaction timelines, and the full
    /// event list. Hand-rolled (the workspace serde is a stub).
    pub fn export_json(&self, label: &str) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96 + 1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"label\": \"{}\",\n", json_escape(label)));
        out.push_str(&format!("  \"vt\": {},\n", self.vt().to_json()));
        out.push_str(&format!(
            "  \"events_recorded\": {},\n  \"events_dropped\": {},\n",
            self.recorded_events(),
            self.dropped_events()
        ));
        out.push_str("  \"histograms\": {");
        let hists: Vec<String> = HistKind::ALL
            .iter()
            .filter_map(|&k| {
                self.histogram(k)
                    .map(|h| format!("\"{}\": {}", k.name(), h.to_json()))
            })
            .collect();
        out.push_str(&hists.join(", "));
        out.push_str("},\n");

        // Per-transaction timelines: txns in order of first appearance,
        // each with its event span, outcome, and charged virtual time.
        out.push_str("  \"txns\": [\n");
        let mut order: Vec<u64> = Vec::new();
        for e in &events {
            if e.txn != 0 && !order.contains(&e.txn) {
                order.push(e.txn);
            }
        }
        let txn_lines: Vec<String> = order
            .iter()
            .map(|&txn| {
                let mine: Vec<&Event> = events.iter().filter(|e| e.txn == txn).collect();
                let first = mine.first().map(|e| e.seq).unwrap_or(0);
                let last = mine.last().map(|e| e.seq).unwrap_or(0);
                let end = mine.iter().rev().find_map(|e| match e.kind {
                    EventKind::TxnEnd { committed, vt } => Some((committed, vt)),
                    _ => None,
                });
                let (outcome, vt_json) = match end {
                    Some((true, vt)) => ("\"commit\"".to_string(), vt.to_json()),
                    Some((false, vt)) => ("\"abort\"".to_string(), vt.to_json()),
                    None => ("null".to_string(), VirtualTimes::default().to_json()),
                };
                format!(
                    "    {{\"txn\":{txn},\"events\":{},\"first_seq\":{first},\"last_seq\":{last},\"outcome\":{outcome},\"vt\":{vt_json}}}",
                    mine.len()
                )
            })
            .collect();
        out.push_str(&txn_lines.join(",\n"));
        out.push_str("\n  ],\n");

        out.push_str("  \"events\": [\n");
        let event_lines: Vec<String> = events
            .iter()
            .map(|e| {
                let payload = e.kind.payload_json();
                let sep = if payload.is_empty() { "" } else { "," };
                format!(
                    "    {{\"seq\":{},\"txn\":{},\"kind\":\"{}\"{sep}{payload}}}",
                    e.seq,
                    e.txn,
                    e.kind.name()
                )
            })
            .collect();
        out.push_str(&event_lines.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_charges_accumulate_per_kind() {
        let obs = Obs::default();
        obs.charge(CostKind::PageRead, 10);
        obs.charge(CostKind::PageRead, 5);
        obs.charge(CostKind::LockWait, 7);
        let vt = obs.vt();
        assert_eq!(vt.page_read_us, 15);
        assert_eq!(vt.lock_wait_us, 7);
        assert_eq!(vt.think_us, 0);
        assert_eq!(vt.total_us(), 22);
    }

    #[test]
    fn tracing_off_records_no_events_but_frames_still_account() {
        let obs = Obs::default();
        obs.record(EventKind::PageRead { page: 1 });
        obs.txn_begin(1);
        obs.charge(CostKind::PageRead, 21);
        assert!(obs.events().is_empty());
        assert_eq!(obs.recorded_events(), 0);
        assert!(obs.histogram(HistKind::PageRead).is_none());
        // Frames are always on: deadline budgets need per-txn virtual
        // time even in untraced production runs.
        assert_eq!(obs.txn_vt(1).unwrap().page_read_us, 21);
        assert_eq!(obs.txn_end(1, true).unwrap().page_read_us, 21);
        assert_eq!(obs.take_last_txn_vt().unwrap().1.page_read_us, 21);
        assert!(obs.take_last_txn_vt().is_none());
    }

    #[test]
    fn events_round_trip_through_the_ring() {
        let obs = Obs::with_config(Some(&ObsConfig::default()));
        let kinds = [
            EventKind::TxnBegin,
            EventKind::LockAcquire { name: 42, mode: 2 },
            EventKind::LockWait {
                name: 42,
                mode: 3,
                converting: true,
            },
            EventKind::LockGrant {
                name: 42,
                mode: 3,
                waited_us: 17,
            },
            EventKind::LockConvert {
                name: 9,
                from: 1,
                to: 4,
            },
            EventKind::DeadlockVictim {
                victim: 7,
                conversion: true,
            },
            EventKind::PageRead { page: 3 },
            EventKind::PageWrite { page: 4 },
            EventKind::PageEvict { page: 5 },
            EventKind::WalAppend { lsn: 100 },
            EventKind::WalFlush {
                records: 4,
                bytes: 512,
            },
            EventKind::WalCommit {
                lsn: 100,
                waited_us: 250,
            },
            EventKind::PageWriteback {
                page: 6,
                forced: true,
            },
            EventKind::PoolGhostHit { page: 7 },
            EventKind::FilterNegative { key: 0xFEED },
            EventKind::SnapshotRead { stamp: 12 },
            EventKind::ValidationAbort { conflicts: 3 },
            EventKind::TxnEnd {
                committed: true,
                vt: VirtualTimes {
                    page_read_us: 1,
                    think_us: 2,
                    lock_wait_us: 3,
                    wal_flush_us: 4,
                    ..VirtualTimes::default()
                },
            },
        ];
        for k in kinds {
            obs.record_for(11, k);
        }
        let events = obs.events();
        assert_eq!(events.len(), kinds.len());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.txn, 11);
            assert_eq!(e.kind, kinds[i]);
        }
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent_lap() {
        let obs = Obs::with_config(Some(&ObsConfig { trace_events: 16 }));
        for i in 0..40u64 {
            obs.record_for(1, EventKind::WalAppend { lsn: i });
        }
        let events = obs.events();
        assert_eq!(events.len(), 16);
        assert_eq!(events.first().unwrap().seq, 24);
        assert_eq!(events.last().unwrap().seq, 39);
        assert_eq!(obs.recorded_events(), 40);
        assert_eq!(obs.dropped_events(), 0);
    }

    #[test]
    fn txn_frames_attribute_charges_to_the_active_txn() {
        let obs = Obs::with_config(Some(&ObsConfig::default()));
        obs.txn_begin(1);
        obs.charge(CostKind::PageRead, 30);
        obs.txn_begin(2); // nested: charges go to the top frame
        obs.charge(CostKind::Think, 5);
        let inner = obs.txn_end(2, false).unwrap();
        obs.charge(CostKind::LockWait, 9);
        let outer = obs.txn_end(1, true).unwrap();
        assert_eq!(inner.think_us, 5);
        assert_eq!(inner.page_read_us, 0);
        assert_eq!(outer.page_read_us, 30);
        assert_eq!(outer.lock_wait_us, 9);
        // Per-txn attribution feeds the run clock too.
        assert_eq!(obs.vt().total_us(), 44);
    }

    #[test]
    fn concurrent_recording_loses_nothing_within_capacity() {
        let obs = Obs::with_config(Some(&ObsConfig {
            trace_events: 8192,
        }));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let obs = obs.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        obs.record_for(t + 1, EventKind::WalAppend { lsn: i });
                    }
                });
            }
        });
        let events = obs.events();
        assert_eq!(events.len(), 4000);
        // Positions are unique and contiguous.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // Every (txn, lsn) pair survives exactly once.
        for t in 1..=4u64 {
            let mut lsns: Vec<u64> = events
                .iter()
                .filter(|e| e.txn == t)
                .map(|e| match e.kind {
                    EventKind::WalAppend { lsn } => lsn,
                    _ => panic!("unexpected kind"),
                })
                .collect();
            lsns.sort_unstable();
            assert_eq!(lsns, (0..1000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn two_engines_on_one_thread_keep_charges_separated() {
        // A server worker thread serving two documents interleaves two
        // engines' transactions. Each engine must charge only its own
        // frame, see only its own current txn, and take only its own
        // last-ended virtual time.
        let a = Obs::default();
        let b = Obs::default();
        a.txn_begin(1);
        b.txn_begin(1); // same txn id on purpose: ids are per-engine
        a.charge(CostKind::PageRead, 100);
        b.charge(CostKind::PageRead, 7);
        a.charge(CostKind::LockWait, 40);
        b.charge(CostKind::Think, 3);
        assert_eq!(a.current_txn(), 1);
        assert_eq!(b.current_txn(), 1);
        assert_eq!(a.txn_vt(1).unwrap().page_read_us, 100);
        assert_eq!(b.txn_vt(1).unwrap().page_read_us, 7);

        // Ending b's txn must not disturb a's frame, and each engine's
        // LAST_ENDED slot is independent.
        let bvt = b.txn_end(1, true).unwrap();
        assert_eq!(bvt.page_read_us, 7);
        assert_eq!(bvt.think_us, 3);
        assert_eq!(a.txn_vt(1).unwrap().lock_wait_us, 40);
        // a hasn't ended anything yet; b's entry is not visible to a.
        assert!(a.take_last_txn_vt().is_none());
        assert_eq!(b.take_last_txn_vt().unwrap().1.page_read_us, 7);

        // With b's frame gone, b's charges hit no frame (not a's).
        b.charge(CostKind::PageRead, 999);
        let avt = a.txn_end(1, false).unwrap();
        assert_eq!(avt.page_read_us, 100);
        assert_eq!(avt.lock_wait_us, 40);
        assert_eq!(a.take_last_txn_vt().unwrap().1.page_read_us, 100);
        // Run-wide clocks stay per-engine too.
        assert_eq!(a.vt().total_us(), 140);
        assert_eq!(b.vt().total_us(), 1009);
    }

    #[test]
    fn clones_of_one_engine_share_identity() {
        let a = Obs::default();
        let a2 = a.clone();
        a.txn_begin(5);
        a2.charge(CostKind::Think, 11); // clone charges the same frame
        assert_eq!(a2.current_txn(), 5);
        assert_eq!(a.txn_end(5, true).unwrap().think_us, 11);
        // The clone can take the last-ended entry the original wrote.
        assert_eq!(a2.take_last_txn_vt().unwrap().0, 5);
    }

    #[test]
    fn export_json_contains_timelines_and_histograms() {
        let obs = Obs::with_config(Some(&ObsConfig::default()));
        obs.txn_begin(1);
        obs.charge(CostKind::PageRead, 12);
        obs.txn_end(1, true);
        let json = obs.export_json("unit");
        assert!(json.contains("\"label\": \"unit\""));
        assert!(json.contains("\"txn\":1"));
        assert!(json.contains("\"outcome\":\"commit\""));
        assert!(json.contains("\"page_read_us\""));
        assert!(json.contains("\"histograms\""));
    }
}
