//! # xtc-failpoint — deterministic fault injection
//!
//! A tiny failpoint facility for chaos-testing the lock manager, the
//! storage layer, the write-ahead log, and the transaction coordinator.
//! Call sites name a *site* (`"lock.acquire"`, `"store.page_read"`,
//! `"btree.split"`, `"txn.commit"`, `"wal.commit"`, `"wal.flush"`) and
//! ask [`eval`] whether a fault should fire; tests arm sites with
//! [`configure`] (probability, action, optional hit budget) under a
//! global seed set by [`set_seed`]. `"btree.split"` is evaluated when a
//! leaf page splits, not on every leaf edit: a scenario that arms it
//! needs pages small enough to split.
//!
//! ## Engine scopes
//!
//! The registry is process-wide, but a catalog hosts many engines in one
//! process — arming `wal.fsync` globally would kill *every* document's
//! WAL. Each engine therefore allocates a [`ScopeId`] with
//! [`next_scope`] and evaluates its sites with [`eval_in`]; chaos
//! harnesses arm one document with [`configure_in`] and its neighbors
//! never see the fault. The unscoped API stays source-compatible:
//! [`configure`] arms the [`GLOBAL`] scope, which every engine's
//! [`eval_in`] falls back to, so single-engine tests behave exactly as
//! before. When both a scoped and a global entry exist for a site, the
//! scoped one wins (most specific first).
//!
//! Determinism: every `(scope, site)` pair draws from its own
//! [SplitMix64] stream seeded from the global seed mixed with the site
//! name and scope id, so a given `(seed, call sequence)` always injects
//! the same faults. A `max_hits` budget makes faults "dry up", which
//! chaos tests use to guarantee that retried transactions eventually
//! succeed.
//!
//! **Zero cost by default**: without the `enabled` cargo feature, [`eval`]
//! is an inlined `None` and the whole registry is compiled out. Nothing
//! in production builds pays for this module.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Inject latency: the call site sleeps for the given duration.
    Delay(Duration),
    /// Inject an error: the call site returns its injected-fault error.
    Error,
}

/// Identity of one engine's failpoint namespace. Allocated with
/// [`next_scope`]; the zero scope is [`GLOBAL`].
pub type ScopeId = u64;

/// The process-wide scope: sites armed here fire in every engine (the
/// pre-catalog behavior, and what the unscoped API uses).
pub const GLOBAL: ScopeId = 0;

static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh engine scope. Always available (scope ids are
/// plumbed through engine construction whether or not faults are
/// compiled in); never returns [`GLOBAL`].
pub fn next_scope() -> ScopeId {
    NEXT_SCOPE.fetch_add(1, Ordering::Relaxed)
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{FailAction, ScopeId, GLOBAL};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// SplitMix64: tiny, fast, and statistically fine for fault dice.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn mix_site(seed: u64, site: &str, scope: ScopeId) -> u64 {
        // FNV-1a over the site name, folded into the global seed; the
        // scope folds in last so the GLOBAL scope (0) reproduces the
        // historical stream byte-for-byte.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in site.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (seed ^ h) ^ scope.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    struct Site {
        probability: f64,
        action: FailAction,
        /// Remaining injections before the site goes quiet (`None` =
        /// unlimited).
        remaining: Option<u64>,
        rng: u64,
        hits: u64,
    }

    struct Registry {
        seed: u64,
        /// Scope → site name → armed state. The GLOBAL scope is the
        /// fallback every scoped eval consults when it has no entry of
        /// its own.
        scopes: HashMap<ScopeId, HashMap<String, Site>>,
    }

    static SEED: AtomicU64 = AtomicU64::new(0);

    fn registry() -> &'static Mutex<Registry> {
        static REG: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
        REG.get_or_init(|| {
            Mutex::new(Registry {
                seed: 0,
                scopes: HashMap::new(),
            })
        })
    }

    /// Poison-tolerant lock. Chaos tests panic threads on purpose; if one
    /// of them dies between `lock()` and drop, the registry data is still
    /// a plain `HashMap` in a consistent state (no invariant spans the
    /// critical section), so later callers keep going instead of
    /// cascading `PoisonError` panics through every `eval`.
    fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
        registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Test hook: poison the registry mutex by panicking while holding it.
    #[cfg(test)]
    pub(crate) fn poison_registry_for_test() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::panic::catch_unwind(|| {
            let _guard = registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("deliberate poison");
        });
        std::panic::set_hook(prev);
    }

    pub fn set_seed(seed: u64) {
        SEED.store(seed, Ordering::Relaxed);
        let mut reg = lock_registry();
        reg.seed = seed;
        // Re-derive the stream of every already-armed site.
        for (&scope, sites) in reg.scopes.iter_mut() {
            for (name, site) in sites.iter_mut() {
                site.rng = mix_site(seed, name, scope);
            }
        }
    }

    pub fn configure_in(
        scope: ScopeId,
        site: &str,
        probability: f64,
        action: FailAction,
        max_hits: Option<u64>,
    ) {
        let mut reg = lock_registry();
        let rng = mix_site(reg.seed, site, scope);
        reg.scopes.entry(scope).or_default().insert(
            site.to_string(),
            Site {
                probability: probability.clamp(0.0, 1.0),
                action,
                remaining: max_hits,
                rng,
                hits: 0,
            },
        );
    }

    pub fn clear() {
        lock_registry().scopes.clear();
    }

    pub fn clear_scope(scope: ScopeId) {
        lock_registry().scopes.remove(&scope);
    }

    pub fn hits_in(scope: ScopeId, site: &str) -> u64 {
        lock_registry()
            .scopes
            .get(&scope)
            .and_then(|sites| sites.get(site))
            .map(|s| s.hits)
            .unwrap_or(0)
    }

    pub fn eval_in(scope: ScopeId, site: &str) -> Option<FailAction> {
        let mut reg = lock_registry();
        // Most specific first: the engine's own entry shadows a global
        // one; with neither armed the site is silent.
        let s = match reg.scopes.get_mut(&scope).and_then(|m| m.get_mut(site)) {
            Some(s) => s,
            None if scope != GLOBAL => reg.scopes.get_mut(&GLOBAL)?.get_mut(site)?,
            None => return None,
        };
        if s.remaining == Some(0) {
            return None;
        }
        // Uniform in [0, 1) from the top 53 bits.
        let draw = (splitmix64(&mut s.rng) >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= s.probability {
            return None;
        }
        if let Some(r) = s.remaining.as_mut() {
            *r -= 1;
        }
        s.hits += 1;
        Some(s.action)
    }
}

/// Evaluates a failpoint site in an engine scope: `Some(action)` when an
/// armed site fires. A site armed in the engine's own scope shadows a
/// [`GLOBAL`] entry; with neither armed the site is silent.
///
/// Compiled to an inlined `None` without the `enabled` feature.
#[cfg(feature = "enabled")]
pub fn eval_in(scope: ScopeId, site: &str) -> Option<FailAction> {
    imp::eval_in(scope, site)
}

/// Evaluates a failpoint site in an engine scope: `Some(action)` when an
/// armed site fires. A site armed in the engine's own scope shadows a
/// [`GLOBAL`] entry; with neither armed the site is silent.
///
/// Compiled to an inlined `None` without the `enabled` feature.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn eval_in(_scope: ScopeId, _site: &str) -> Option<FailAction> {
    None
}

/// Evaluates a failpoint site in the [`GLOBAL`] scope.
///
/// Compiled to an inlined `None` without the `enabled` feature.
#[inline]
pub fn eval(site: &str) -> Option<FailAction> {
    eval_in(GLOBAL, site)
}

/// Arms a site in one engine's scope: with probability `probability`
/// each [`eval_in`] from that scope returns `Some(action)`, at most
/// `max_hits` times in total (`None` = no cap). Other engines are
/// unaffected.
///
/// No-op without the `enabled` feature.
pub fn configure_in(
    scope: ScopeId,
    site: &str,
    probability: f64,
    action: FailAction,
    max_hits: Option<u64>,
) {
    #[cfg(feature = "enabled")]
    imp::configure_in(scope, site, probability, action, max_hits);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (scope, site, probability, action, max_hits);
    }
}

/// Arms a site in the [`GLOBAL`] scope: it fires in *every* engine
/// (the single-engine behavior this API has always had).
///
/// No-op without the `enabled` feature.
pub fn configure(site: &str, probability: f64, action: FailAction, max_hits: Option<u64>) {
    configure_in(GLOBAL, site, probability, action, max_hits);
}

/// Sets the global seed and re-derives every armed site's random stream.
///
/// No-op without the `enabled` feature.
pub fn set_seed(seed: u64) {
    #[cfg(feature = "enabled")]
    imp::set_seed(seed);
    #[cfg(not(feature = "enabled"))]
    let _ = seed;
}

/// Disarms all sites in every scope.
///
/// No-op without the `enabled` feature.
pub fn clear() {
    #[cfg(feature = "enabled")]
    imp::clear();
}

/// Disarms all sites of one engine's scope, leaving every other scope
/// (including [`GLOBAL`]) armed.
///
/// No-op without the `enabled` feature.
pub fn clear_scope(scope: ScopeId) {
    #[cfg(feature = "enabled")]
    imp::clear_scope(scope);
    #[cfg(not(feature = "enabled"))]
    let _ = scope;
}

/// Number of times the site has fired in one engine's scope (0 when the
/// feature is off or the site is unknown). Evals that fell back to the
/// [`GLOBAL`] entry count against [`GLOBAL`], not the falling-back scope.
pub fn hits_in(scope: ScopeId, site: &str) -> u64 {
    #[cfg(feature = "enabled")]
    return imp::hits_in(scope, site);
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (scope, site);
        0
    }
}

/// Number of times the site has fired in the [`GLOBAL`] scope since it
/// was armed (0 when the feature is off or the site is unknown).
pub fn hits(site: &str) -> u64 {
    hits_in(GLOBAL, site)
}

/// Outcome of an I/O-fault evaluation ([`eval_io`]) at a site modelling
/// a device operation (WAL append, fsync, page read, eviction write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The operation succeeds (site unarmed, fault did not fire, or the
    /// `enabled` feature is off).
    Ok,
    /// The fault fired but dried up within the retry budget: the caller
    /// should treat the operation as having succeeded after `retries`
    /// in-site retries (the backoff sleeps already happened).
    Transient {
        /// How many faulted attempts preceded the success.
        retries: u32,
    },
    /// The fault fired on every attempt in the budget: the caller must
    /// fail the operation permanently (poison the engine, crash the log —
    /// gracefully, never by panicking).
    Permanent,
}

/// Evaluates an I/O failpoint with a transient-retry budget, in one
/// engine's scope.
///
/// The site is [`eval_in`]uated up to `attempts` times. Each firing
/// [`FailAction::Error`] models one failed device operation; between
/// failed attempts the caller's thread backs off `base << attempt`
/// (deterministic, so a seeded storm reproduces byte-for-byte). A firing
/// [`FailAction::Delay`] models a slow-but-successful operation: the
/// thread sleeps the configured delay and the fault counts as transient.
/// Budgeted sites (`max_hits`) therefore model transient faults that dry
/// up; unlimited sites at probability 1.0 model a dead device.
///
/// Compiled to an inlined [`IoFault::Ok`] without the `enabled` feature.
pub fn eval_io_in(scope: ScopeId, site: &str, attempts: u32, base: Duration) -> IoFault {
    let mut faults = 0u32;
    loop {
        match eval_in(scope, site) {
            None => {
                return if faults == 0 {
                    IoFault::Ok
                } else {
                    IoFault::Transient { retries: faults }
                };
            }
            Some(FailAction::Delay(d)) => {
                std::thread::sleep(d);
                return IoFault::Transient { retries: faults };
            }
            Some(FailAction::Error) => {
                faults += 1;
                if faults >= attempts.max(1) {
                    return IoFault::Permanent;
                }
                // Exponential backoff before re-attempting the device op;
                // the shift is bounded so a large budget cannot overflow.
                let shift = (faults - 1).min(16);
                std::thread::sleep(base * (1u32 << shift));
            }
        }
    }
}

/// Evaluates an I/O failpoint with a transient-retry budget in the
/// [`GLOBAL`] scope (see [`eval_io_in`]).
#[inline]
pub fn eval_io(site: &str, attempts: u32, base: Duration) -> IoFault {
    eval_io_in(GLOBAL, site, attempts, base)
}

/// Convenience for delay-only sites, in one engine's scope: sleeps if
/// the site fires with [`FailAction::Delay`]; returns `true` if the site
/// fired with [`FailAction::Error`] (callers that have no error path may
/// treat it as a no-op).
pub fn fire_delay_in(scope: ScopeId, site: &str) -> bool {
    match eval_in(scope, site) {
        Some(FailAction::Delay(d)) => {
            std::thread::sleep(d);
            false
        }
        Some(FailAction::Error) => true,
        None => false,
    }
}

/// Convenience for delay-only sites in the [`GLOBAL`] scope (see
/// [`fire_delay_in`]).
#[inline]
pub fn fire_delay(site: &str) -> bool {
    fire_delay_in(GLOBAL, site)
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; tests touching the seed must not
    /// interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn deterministic_per_seed_and_site() {
        let _g = TEST_LOCK.lock().unwrap();
        set_seed(7);
        configure("t.site", 0.5, FailAction::Error, None);
        let run1: Vec<bool> = (0..64).map(|_| eval("t.site").is_some()).collect();
        set_seed(7);
        configure("t.site", 0.5, FailAction::Error, None);
        let run2: Vec<bool> = (0..64).map(|_| eval("t.site").is_some()).collect();
        assert_eq!(run1, run2);
        assert!(run1.iter().any(|f| *f));
        assert!(run1.iter().any(|f| !*f));
        clear();
    }

    #[test]
    fn max_hits_dries_up() {
        let _g = TEST_LOCK.lock().unwrap();
        set_seed(1);
        configure("t.budget", 1.0, FailAction::Error, Some(3));
        let fired = (0..10).filter(|_| eval("t.budget").is_some()).count();
        assert_eq!(fired, 3);
        assert_eq!(hits("t.budget"), 3);
        clear();
    }

    #[test]
    fn unarmed_site_never_fires() {
        assert_eq!(eval("t.nothing"), None);
    }

    #[test]
    fn scoped_arming_is_invisible_to_other_scopes() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        set_seed(5);
        let a = next_scope();
        let b = next_scope();
        configure_in(a, "t.scoped", 1.0, FailAction::Error, None);
        // Engine a sees its fault; engine b and the global scope do not.
        assert_eq!(eval_in(a, "t.scoped"), Some(FailAction::Error));
        assert_eq!(eval_in(b, "t.scoped"), None);
        assert_eq!(eval("t.scoped"), None);
        assert_eq!(hits_in(a, "t.scoped"), 1);
        assert_eq!(hits_in(b, "t.scoped"), 0);
        clear();
    }

    #[test]
    fn global_arming_reaches_every_scope() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        set_seed(5);
        let a = next_scope();
        let b = next_scope();
        configure("t.everywhere", 1.0, FailAction::Error, Some(3));
        assert_eq!(eval_in(a, "t.everywhere"), Some(FailAction::Error));
        assert_eq!(eval_in(b, "t.everywhere"), Some(FailAction::Error));
        assert_eq!(eval("t.everywhere"), Some(FailAction::Error));
        // All three draws consumed the single global entry's budget.
        assert_eq!(hits("t.everywhere"), 3);
        assert_eq!(eval_in(a, "t.everywhere"), None);
        clear();
    }

    #[test]
    fn scoped_entry_shadows_global() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        set_seed(5);
        let a = next_scope();
        configure("t.shadow", 1.0, FailAction::Error, None);
        configure_in(a, "t.shadow", 0.0, FailAction::Error, None);
        // a's own (never-firing) entry wins over the always-firing
        // global one; other scopes still hit the global entry.
        assert_eq!(eval_in(a, "t.shadow"), None);
        assert_eq!(eval_in(next_scope(), "t.shadow"), Some(FailAction::Error));
        clear();
    }

    #[test]
    fn clear_scope_leaves_neighbors_armed() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        set_seed(5);
        let a = next_scope();
        let b = next_scope();
        configure_in(a, "t.half", 1.0, FailAction::Error, None);
        configure_in(b, "t.half", 1.0, FailAction::Error, None);
        clear_scope(a);
        assert_eq!(eval_in(a, "t.half"), None);
        assert_eq!(eval_in(b, "t.half"), Some(FailAction::Error));
        clear();
    }

    #[test]
    fn registry_survives_a_poisoned_mutex() {
        let _g = TEST_LOCK.lock().unwrap();
        imp::poison_registry_for_test();
        // Every public entry point must keep working after the poison.
        set_seed(3);
        configure("t.poison", 1.0, FailAction::Error, Some(2));
        assert_eq!(eval("t.poison"), Some(FailAction::Error));
        assert_eq!(hits("t.poison"), 1);
        clear();
        assert_eq!(eval("t.poison"), None);
    }

    #[test]
    fn eval_io_unarmed_is_ok() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        assert_eq!(eval_io("t.io.none", 3, Duration::ZERO), IoFault::Ok);
    }

    #[test]
    fn eval_io_budgeted_fault_is_transient() {
        let _g = TEST_LOCK.lock().unwrap();
        set_seed(11);
        // Two faults in the budget, three attempts allowed: the site
        // dries up inside the retry loop.
        configure("t.io.transient", 1.0, FailAction::Error, Some(2));
        assert_eq!(
            eval_io("t.io.transient", 3, Duration::ZERO),
            IoFault::Transient { retries: 2 }
        );
        // Budget exhausted: later operations see a healthy device.
        assert_eq!(eval_io("t.io.transient", 3, Duration::ZERO), IoFault::Ok);
        clear();
    }

    #[test]
    fn eval_io_unlimited_fault_is_permanent() {
        let _g = TEST_LOCK.lock().unwrap();
        set_seed(11);
        configure("t.io.dead", 1.0, FailAction::Error, None);
        assert_eq!(eval_io("t.io.dead", 4, Duration::ZERO), IoFault::Permanent);
        clear();
    }

    #[test]
    fn eval_io_delay_is_transient_slow_success() {
        let _g = TEST_LOCK.lock().unwrap();
        set_seed(11);
        configure(
            "t.io.slow",
            1.0,
            FailAction::Delay(Duration::from_micros(50)),
            Some(1),
        );
        assert_eq!(
            eval_io("t.io.slow", 3, Duration::ZERO),
            IoFault::Transient { retries: 0 }
        );
        clear();
    }
}
