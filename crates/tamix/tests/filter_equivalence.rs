//! Filter-on vs. filter-off equivalence (ISSUE 9, satellite 4): the
//! cuckoo filters fronting the element and ID indexes are a pure
//! negative-lookup fast path. For a deterministic (sequential, seeded)
//! TaMix workload they must produce identical commit/abort outcomes,
//! identical final documents, and identical lock traces
//! (`lock_requests`/`table_requests` — the filter sits *below* the lock
//! protocol, so no lock may appear or vanish with it) for every
//! protocol. What may legitimately change is page reads: that is the
//! point of the filter.

mod common;

use common::{base_config, run_seeded_mix, MixResult, TXNS};
use std::sync::Mutex;
use xtc_core::{XtcConfig, XtcDb};
use xtc_tamix::{bib, BibConfig};

/// Serializes tests (shared failpoint/vocabulary-free, but keeps the
/// file's runs from fighting over cores in CI).
static GUARD: Mutex<()> = Mutex::new(());

fn run_workload(protocol: &str, filters: bool, seed: u64) -> MixResult {
    let mut config = base_config(protocol);
    config.store.index_filters = filters;
    run_seeded_mix(config, seed, TXNS)
}

#[test]
fn filter_equivalence_all_protocols() {
    let _g = GUARD.lock().unwrap();
    let mut total_probes = 0u64;
    for proto in xtc_protocols::ALL_PROTOCOLS {
        let on = run_workload(proto, true, 0xF117_E500);
        let off = run_workload(proto, false, 0xF117_E500);
        assert_eq!(
            on.outcomes, off.outcomes,
            "{proto}: commit/abort outcomes diverge between filters on and off"
        );
        assert_eq!(
            on.digest, off.digest,
            "{proto}: final documents diverge between filters on and off"
        );
        assert_eq!(
            on.lock_requests, off.lock_requests,
            "{proto}: the filter must not change the lock trace"
        );
        assert_eq!(
            on.table_requests, off.table_requests,
            "{proto}: the filter must not change shared-table traffic"
        );
        assert_eq!(
            off.filter_probes, 0,
            "{proto}: disabled filters must never report probes"
        );
        assert!(
            on.filter_negatives <= on.filter_probes,
            "{proto}: more negatives than probes: {on:?} probes",
            on = on.filter_probes
        );
        total_probes += on.filter_probes;
    }
    assert!(
        total_probes > 0,
        "the workload must actually consult the filters somewhere"
    );
}

#[test]
fn filters_short_circuit_absent_probes_in_a_live_engine() {
    let _g = GUARD.lock().unwrap();
    let db = XtcDb::new(XtcConfig::default());
    bib::generate_into(&db, &BibConfig::tiny());

    // Intern "wisp" by inserting and renaming an element away from it:
    // the name stays in the vocabulary (so probes reach the filter) but
    // no element carries it, and its ID value "wisp-id" was never used.
    let t = db.begin();
    let topic = t.element_by_id("t0").unwrap().unwrap();
    let e = t
        .insert_element(&topic, xtc_core::InsertPos::LastChild, "wisp")
        .unwrap();
    t.rename(&e, "wosp").unwrap();
    t.commit().unwrap();

    let store = db.store();
    let reads_before = store.stats().page_reads();
    let negatives_before = store.pool_stats().filter_negatives;
    assert!(store.elements_named("wisp").is_empty());
    assert!(store.element_by_id("wisp-id").is_none());
    assert_eq!(
        store.stats().page_reads(),
        reads_before,
        "absent probes must not read a single page with filters on"
    );
    assert_eq!(store.pool_stats().filter_negatives, negatives_before + 2);

    // The renamed-to name still resolves — the filter only skips descents
    // for keys it has never admitted or whose last holder vanished.
    assert_eq!(store.elements_named("wosp").len(), 1);
}
