//! Striped statistics counter: the hot-path counters of the lock table,
//! the buffer pool and the virtual clock are bumped by every client
//! thread on every request. One shared `AtomicU64` turns each bump into
//! a cache-line transfer between cores; striping gives each thread its
//! own line to write, and the (rare) reader sums the stripes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per [`Counter`] (and per tree latch in `xtc-storage`, which
/// shares [`stripe`]). Few on purpose: each stripe is a cache line per
/// counter, and a tree writer latches every stripe. Threads beyond this
/// number share stripes — correct, merely contended again.
pub const STRIPES: usize = 4;

/// The calling thread's stripe, in `0..STRIPES`: assigned round-robin on
/// the thread's first call, fixed for its lifetime.
#[inline]
pub fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// `T` on a cache line of its own, so that writing it never invalidates
/// a neighbour's line: the building block of every striped structure
/// (this counter, the tree latch and the pool clock in `xtc-storage`).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CacheLine<T>(pub T);

/// A monotone event counter whose `add` writes only the calling thread's
/// cache line. The total is exact: [`Counter::load`] sums every stripe.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [CacheLine<AtomicU64>; STRIPES],
}

impl Counter {
    /// Adds `n` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        // Relaxed: a statistic, publishes no other data.
        self.stripes[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The total over all stripes. Exact once writers are quiesced;
    /// while they run, successive loads never decrease.
    pub fn load(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn stripes_are_one_cache_line_each() {
        assert_eq!(std::mem::size_of::<CacheLine<AtomicU64>>(), 64);
        assert_eq!(std::mem::align_of::<Counter>(), 64);
        assert_eq!(std::mem::size_of::<Counter>(), 64 * STRIPES);
    }

    #[test]
    fn a_thread_keeps_its_stripe() {
        let here = stripe();
        assert!(here < STRIPES);
        assert_eq!(stripe(), here);
    }

    #[test]
    fn concurrent_adds_sum_exactly_and_loads_are_monotone() {
        const THREADS: u64 = 6; // more threads than stripes: some share one
        const ADDS: u64 = 50_000;
        let counter = Counter::default();
        let start = Barrier::new(THREADS as usize + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (counter, start) = (&counter, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..ADDS {
                        counter.add(1 + t % 2);
                    }
                });
            }
            let reader = s.spawn(|| {
                start.wait();
                let mut last = 0;
                while !done.load(Ordering::Acquire) {
                    let now = counter.load();
                    assert!(now >= last, "load went backwards: {last} -> {now}");
                    last = now;
                }
            });
            // The adders are joined by the scope; the reader needs the flag.
            // Spin until the total is reached, then release it.
            let want: u64 = (0..THREADS).map(|t| ADDS * (1 + t % 2)).sum();
            while counter.load() < want {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
            reader.join().expect("reader thread panicked");
            assert_eq!(counter.load(), want);
        });
    }
}
