//! Offline stand-in for `parking_lot`: `Mutex`, `Condvar` and `RwLock`
//! with parking_lot's poison-free signatures, implemented over
//! `std::sync`. A poisoned std lock is recovered, matching
//! parking_lot's behaviour of not poisoning at all.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// Mutual exclusion lock whose `lock` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard of a [`Mutex`]. The inner guard is an `Option` only so that
/// [`Condvar`] can hand it to std's by-value wait and put it back.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside a condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside a condvar wait")
    }
}

/// Result of a timed condvar wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable taking the guard by `&mut`, as parking_lot does.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present");
        let (inner, res) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Reader-writer lock whose `read`/`write` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}
