//! Cache-on vs. cache-off equivalence: the per-transaction lock cache —
//! and the path memo that answers whole ancestor paths from it — is a
//! pure fast path. For a deterministic (sequential, seeded) TaMix
//! workload it must produce identical commit/abort outcomes, identical
//! final documents, identical `lock_requests` accounting down to the
//! per-mode histogram, and leave the lock table holding the same names in
//! the same modes before every commit, for every protocol, at both
//! locking isolation levels and across the lock-depth sweep. A
//! failpoints-gated variant re-checks this under injected
//! lock-acquire faults (the failpoint site fires on its eval sequence,
//! which the cache must not perturb).

mod common;

use common::{base_config, run_seeded_mix, MixResult, TXNS};
use std::sync::Mutex;
use xtc_core::{IsolationLevel, XtcConfig};

/// Tests in this file must not interleave when the failpoints feature is
/// on: the failpoint registry is process-global.
static GUARD: Mutex<()> = Mutex::new(());

fn config(protocol: &str, cache: bool) -> XtcConfig {
    XtcConfig {
        lock_cache: cache,
        ..base_config(protocol)
    }
}

fn run_workload(protocol: &str, cache: bool, seed: u64) -> MixResult {
    run_seeded_mix(config(protocol, cache), seed, TXNS)
}

fn assert_equivalent(protocol: &str, on: &MixResult, off: &MixResult) {
    assert_eq!(
        on.outcomes, off.outcomes,
        "{protocol}: commit/abort outcomes diverge between cache on and off"
    );
    assert_eq!(
        on.digest, off.digest,
        "{protocol}: final documents diverge between cache on and off"
    );
    assert_eq!(
        on.lock_requests, off.lock_requests,
        "{protocol}: lock_requests accounting must not depend on the cache"
    );
    assert_eq!(
        on.held, off.held,
        "{protocol}: the table holds other names or modes before a commit"
    );
    assert_eq!(
        off.memo_hits, 0,
        "{protocol}: the memo is off with the cache"
    );
    assert_eq!(
        off.cache_hits, 0,
        "{protocol}: disabled cache must never report hits"
    );
}

/// Request-accounting identities. These hold only fault-free: an
/// injected error returns from `lock_with` after `lock_requests` but
/// before the hit/table split, so the chaos variant skips them.
fn assert_accounting(protocol: &str, on: &MixResult, off: &MixResult) {
    assert_eq!(
        off.table_requests, off.lock_requests,
        "{protocol}: with the cache off every request reaches the table"
    );
    assert_eq!(
        on.cache_hits + on.table_requests,
        on.lock_requests,
        "{protocol}: every request is either a hit or table traffic"
    );
    assert!(
        on.memo_hits <= on.cache_hits,
        "{protocol}: memo answers are cache hits"
    );
    assert_eq!(
        on.requests_by_mode, off.requests_by_mode,
        "{protocol}: the per-mode histogram must not depend on the cache"
    );
}

#[test]
fn cache_equivalence_all_protocols() {
    let _g = GUARD.lock().unwrap();
    let (mut total_hits, mut memo_hits) = (0u64, 0u64);
    // The extended field includes the versioned contestants: their
    // snapshot reads bypass the lock table entirely, but their write
    // side maps through taDOM3+ and must stay cache-coherent too.
    for proto in xtc_protocols::EXTENDED_PROTOCOLS {
        // *Committed* releases its read locks after every operation, and
        // the memo with them; the depth decides how long a path is and
        // how many siblings share it.
        for isolation in [IsolationLevel::Committed, IsolationLevel::Repeatable] {
            for lock_depth in [0, 2, 4, 7] {
                let arm = |cache| {
                    let config = XtcConfig {
                        isolation,
                        lock_depth,
                        ..config(proto, cache)
                    };
                    run_seeded_mix(config, 0xC0FF_EE00, TXNS)
                };
                let (on, off) = (arm(true), arm(false));
                let what = format!("{proto} {} depth {lock_depth}", isolation.name());
                assert_equivalent(&what, &on, &off);
                assert_accounting(&what, &on, &off);
                total_hits += on.cache_hits;
                memo_hits += on.memo_hits;
            }
        }
    }
    assert!(
        total_hits > 0 && memo_hits > 0,
        "the workload must actually exercise the cache and the memo somewhere"
    );
}

/// Every protocol of the paper re-locks ancestor paths (or, for the
/// *-2PL group, the same nodes and levels) on every operation — the
/// cache must visibly absorb traffic for each of them, not just stay
/// coherent. Together with the `off.cache_hits == 0` assertion above
/// this is what `lockperf --check` used to gate.
#[test]
fn cache_absorbs_tadom_path_relocking() {
    let _g = GUARD.lock().unwrap();
    for proto in xtc_protocols::ALL_PROTOCOLS {
        let on = run_workload(proto, true, 7);
        assert!(
            on.cache_hits > 0,
            "{proto}: sequential mix produced no cache hits"
        );
        assert!(
            on.table_requests < on.lock_requests,
            "{proto}: cache hits must reduce shared-table traffic"
        );
    }
}

/// Chaos variant: injected lock-acquire faults must hit the same
/// requests in both arms (the failpoint evaluates once per request,
/// cache hit or not), keeping outcomes and documents identical.
#[cfg(feature = "failpoints")]
#[test]
fn cache_equivalence_under_lock_faults() {
    use common::run_seeded_mix_with;
    use xtc_failpoint::FailAction;

    let _g = GUARD.lock().unwrap();
    for proto in xtc_protocols::ALL_PROTOCOLS {
        let arm = |cache: bool| {
            // Armed *after* document generation (inside the hook) so the
            // fault budget is spent on the workload, not on setup — and
            // so both arms start the storm at the same eval count.
            let result = run_seeded_mix_with(config(proto, cache), 0xFA11_0000, TXNS, || {
                xtc_failpoint::clear();
                xtc_failpoint::set_seed(0xFA11);
                xtc_failpoint::configure("lock.acquire", 0.02, FailAction::Error, Some(24));
            });
            let injected = xtc_failpoint::hits("lock.acquire");
            xtc_failpoint::clear();
            (result, injected)
        };
        let (on, on_injected) = arm(true);
        let (off, off_injected) = arm(false);
        assert_equivalent(proto, &on, &off);
        assert!(
            on_injected > 0,
            "{proto}: fault injection never fired — the test is not \
             exercising the fault path"
        );
        assert_eq!(
            on_injected, off_injected,
            "{proto}: the cache must not change which requests get faulted"
        );
        assert!(
            on.outcomes.iter().any(|o| o.starts_with("abort")),
            "{proto}: an injected lock error should abort at least one transaction"
        );
    }
}
