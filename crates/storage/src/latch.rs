//! Reader-striped tree latch.
//!
//! A reader-writer lock keeps its reader count in one word, so every
//! B\*-tree read — two compare-and-swaps on that word — moves its cache
//! line between the cores of concurrent *readers*, who never conflict
//! logically. [`Latch`] splits the word into [`STRIPES`] of them, one
//! cache line each: a reader latches only its own thread's stripe
//! ([`xtc_obs::stripe`]), a writer latches every stripe in index order.
//! Readers on different stripes share no written line; writers pay
//! `STRIPES` uncontended lock/unlock pairs, small beside the descent and
//! the leaf edit they cover.
//!
//! All `unsafe` of the storage crate's latching lives in this module:
//! the value sits in an `UnsafeCell`, and the stripe guards held by
//! [`ReadGuard`] / [`WriteGuard`] are what make handing out `&T` / `&mut T`
//! sound.

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use xtc_obs::{stripe, CacheLine, STRIPES};

/// A reader-writer latch around `T` whose readers do not share a lock
/// word. Same call shape as `RwLock<T>`: [`Latch::read`], [`Latch::write`].
pub(crate) struct Latch<T> {
    /// One reader-writer word per stripe, each on its own cache line.
    stripes: [CacheLine<RwLock<()>>; STRIPES],
    value: UnsafeCell<T>,
}

// SAFETY: `Latch<T>` hands `&T` to any number of threads at once (readers
// on their stripes) — that needs `T: Sync` — and `&mut T` to one thread
// that may differ from the creating one — that needs `T: Send`. `stripes`
// is `Sync` by itself. The same bounds `RwLock<T>` asks for.
unsafe impl<T: Send + Sync> Sync for Latch<T> {}

/// Shared access: holds one stripe in read mode.
pub(crate) struct ReadGuard<'a, T> {
    latch: &'a Latch<T>,
    _stripe: RwLockReadGuard<'a, ()>,
}

/// Exclusive access: holds every stripe in write mode.
pub(crate) struct WriteGuard<'a, T> {
    latch: &'a Latch<T>,
    _stripes: [RwLockWriteGuard<'a, ()>; STRIPES],
}

impl<T> Latch<T> {
    pub(crate) fn new(value: T) -> Self {
        Latch {
            stripes: Default::default(),
            value: UnsafeCell::new(value),
        }
    }

    /// Latches the calling thread's stripe in read mode. Blocks while a
    /// writer holds (or, per the stripe lock's fairness, waits for) it.
    pub(crate) fn read(&self) -> ReadGuard<'_, T> {
        ReadGuard {
            latch: self,
            _stripe: self.stripes[stripe()].0.read(),
        }
    }

    /// Latches every stripe in write mode, in index order: two writers
    /// meet at stripe 0 and cannot deadlock, and once the last stripe is
    /// held no reader of any stripe is inside.
    pub(crate) fn write(&self) -> WriteGuard<'_, T> {
        WriteGuard {
            latch: self,
            _stripes: std::array::from_fn(|i| self.stripes[i].0.write()),
        }
    }
}

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds one stripe in read mode. A `&mut T`
        // exists only behind a `WriteGuard`, which holds *every* stripe
        // in write mode for its whole lifetime, this one included — so
        // none is live while `self` is.
        unsafe { &*self.latch.value.get() }
    }
}

impl<T> Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: as for `deref_mut`; a shared reborrow of `self`.
        unsafe { &*self.latch.value.get() }
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard holds every stripe in write mode, so no
        // `ReadGuard` (each holds some stripe in read mode) and no other
        // `WriteGuard` is live; `&mut self` makes the borrow unique among
        // this guard's own users.
        unsafe { &mut *self.latch.value.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    use std::sync::{mpsc, Barrier};

    /// Runs `f` on a fresh thread whose stripe is `want` (stripes are
    /// dealt round-robin, so a few throw-away threads reach any of them).
    fn on_stripe<R: Send>(want: usize, f: impl Fn() -> R + Sync) -> R {
        loop {
            let got = std::thread::scope(|s| {
                s.spawn(|| (stripe() == want).then(&f))
                    .join()
                    .expect("stripe probe panicked")
            });
            if let Some(r) = got {
                return r;
            }
        }
    }

    #[test]
    fn readers_of_different_stripes_overlap() {
        let latch = Latch::new(7u32);
        // Both readers are inside at once or the rendezvous never
        // completes (and the test hangs instead of passing by luck).
        let inside = Barrier::new(2);
        std::thread::scope(|s| {
            for want in [0, 1] {
                let (latch, inside) = (&latch, &inside);
                s.spawn(move || {
                    on_stripe(want, || {
                        let g = latch.read();
                        inside.wait();
                        assert_eq!(*g, 7);
                    })
                });
            }
        });
    }

    #[test]
    fn a_writer_waits_for_the_reader_of_any_stripe() {
        for reader_stripe in 0..STRIPES {
            let latch = Latch::new(0u32);
            let (reading_tx, reading_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let release_rx = std::sync::Mutex::new(release_rx);
            let wrote = AtomicU64::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    on_stripe(reader_stripe, || {
                        let g = latch.read();
                        reading_tx.send(()).expect("main thread gone");
                        release_rx
                            .lock()
                            .expect("poisoned")
                            .recv()
                            .expect("main thread gone");
                        // The writer was started before the release and
                        // must still be outside.
                        assert_eq!(wrote.load(Ordering::SeqCst), 0);
                        assert_eq!(*g, 0);
                    })
                });
                reading_rx.recv().expect("reader gone");
                let writer = s.spawn(|| {
                    *latch.write() = 1;
                    wrote.store(1, Ordering::SeqCst);
                });
                // The writer cannot finish while the reader is inside:
                // give it ample time to get it wrong, then let go.
                std::thread::sleep(std::time::Duration::from_millis(20));
                assert_eq!(
                    wrote.load(Ordering::SeqCst),
                    0,
                    "writer overlapped a reader"
                );
                release_tx.send(()).expect("reader gone");
                writer.join().expect("writer panicked");
            });
            assert_eq!(*latch.read(), 1);
        }
    }

    /// Four threads, each following its own seeded schedule of reads and
    /// writes. A writer parks a sentinel in the value while inside; any
    /// overlap (reader or second writer seeing the sentinel, or a lost
    /// update) fails, and a lost wake-up hangs the test.
    #[test]
    fn seeded_stress_never_overlaps_and_never_hangs() {
        const THREADS: u64 = 4;
        const OPS: u64 = 20_000;
        let latch = Latch::new(AtomicI64::new(0));
        let writes = AtomicU64::new(0);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (latch, writes, start) = (&latch, &writes, &start);
                s.spawn(move || {
                    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
                    start.wait();
                    for _ in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if x.is_multiple_of(8) {
                            let mut g = latch.write();
                            let v = g.get_mut();
                            let before = *v;
                            assert!(before >= 0, "writer met a writer");
                            *v = -1;
                            std::hint::spin_loop();
                            *v = before + 1;
                            writes.fetch_add(1, Ordering::Relaxed);
                        } else {
                            let g = latch.read();
                            assert!(g.load(Ordering::Relaxed) >= 0, "reader met a writer");
                        }
                    }
                });
            }
        });
        let total = latch.read().load(Ordering::Relaxed);
        assert_eq!(total as u64, writes.load(Ordering::Relaxed), "lost update");
    }
}
