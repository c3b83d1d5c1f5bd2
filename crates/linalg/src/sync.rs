//! Named lock wrappers with a runtime lock-order sanitizer.
//!
//! Every lock in the workspace is constructed through [`OrderedMutex`] or
//! [`OrderedRwLock`] (the `tscheck` `raw-lock` rule enforces this). Each
//! wrapper carries a `&'static str` name identifying its *order class*:
//! locks that protect the same kind of state share a name (e.g. every
//! per-item cell in the parallel work queue is `"par.cell"`).
//!
//! Under `debug_assertions` — and in release builds after
//! [`set_runtime_tracking`]`(true)` — each acquisition attempt is checked
//! against a global lock-order graph:
//!
//! * a per-thread stack records which named locks the thread currently
//!   holds;
//! * acquiring `B` while holding `A` records the edge `A → B`;
//! * if the existing graph already proves `B →* A` (some thread previously
//!   nested the other way), the acquisition is an **order inversion**:
//!   the [`inversion_count`] counter is bumped and, under
//!   `debug_assertions` with abort enabled, the process prints a
//!   diagnostic and aborts before the deadlock can form.
//!
//! Same-name nesting is deliberately not tracked: the workspace never
//! nests two locks of one order class, and treating `A → A` as a cycle
//! would flag safe sequential-guard patterns (take, release, take again).
//!
//! The sanitizer's own bookkeeping lock is a plain `std::sync::Mutex`
//! and is strictly a leaf: it is never held while acquiring a user lock,
//! so it cannot participate in any cycle.
//!
//! Poisoning passes straight through: `lock()`/`read()`/`write()` return
//! [`std::sync::LockResult`] exactly like the std types, so call sites
//! keep their existing `Ok`/`Err` handling.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{
    LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Opt-in flag: when set, tracking runs even in release builds.
static RUNTIME_TRACKING: AtomicBool = AtomicBool::new(false);
/// When false, detected inversions are counted but never abort (test hook).
static ABORT_ON_INVERSION: AtomicBool = AtomicBool::new(true);
/// Total order inversions observed since the last tracking reset.
static INVERSIONS: AtomicU64 = AtomicU64::new(0);

/// Global lock-order graph: directed edges `held → acquired`, deduplicated.
/// tscheck:allow(raw-lock): the sanitizer's own leaf bookkeeping lock
static EDGES: Mutex<Vec<(&'static str, &'static str)>> = Mutex::new(Vec::new());

thread_local! {
    /// Names of the locks this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Returns true when acquisitions should be checked and recorded.
fn tracking() -> bool {
    cfg!(debug_assertions) || RUNTIME_TRACKING.load(Ordering::Relaxed)
}

/// Enable or disable runtime tracking (release builds track only when
/// enabled; debug builds always track). Enabling resets the inversion
/// counter and clears the recorded lock-order graph so a gauntlet run
/// starts from a clean slate.
pub fn set_runtime_tracking(on: bool) {
    if on {
        INVERSIONS.store(0, Ordering::Relaxed);
        if let Ok(mut edges) = EDGES.lock() {
            edges.clear();
        }
    }
    RUNTIME_TRACKING.store(on, Ordering::Relaxed);
}

/// Test hook: when disabled, inversions are counted but never abort the
/// process. Defaults to enabled (aborting) under `debug_assertions`.
pub fn set_abort_on_inversion(on: bool) {
    ABORT_ON_INVERSION.store(on, Ordering::Relaxed);
}

/// Number of lock-order inversions observed since tracking was last reset.
pub fn inversion_count() -> u64 {
    INVERSIONS.load(Ordering::Relaxed)
}

/// Is `to` reachable from `from` in the recorded lock-order graph?
fn reachable(edges: &[(&'static str, &'static str)], from: &str, to: &str) -> bool {
    let mut stack: Vec<&str> = vec![from];
    let mut visited: Vec<&str> = Vec::new();
    while let Some(node) = stack.pop() {
        if node == to {
            return true;
        }
        if visited.contains(&node) {
            continue;
        }
        visited.push(node);
        for (a, b) in edges {
            if *a == node {
                stack.push(b);
            }
        }
    }
    false
}

/// Pre-acquisition bookkeeping: detect inversions against the recorded
/// graph, then record edges from every currently held lock to `name`.
/// Returns true when the acquisition was tracked (so the guard knows to
/// pop the held stack on drop).
fn before_acquire(name: &'static str) -> bool {
    if !tracking() {
        return false;
    }
    let held: Vec<&'static str> =
        HELD.with(|h| h.try_borrow().map(|v| v.clone()).unwrap_or_default());
    if !held.is_empty() {
        if let Ok(mut edges) = EDGES.lock() {
            let mut inverted_against: Option<&'static str> = None;
            for h in &held {
                if *h == name {
                    continue;
                }
                if reachable(&edges, name, h) {
                    inverted_against = Some(h);
                }
            }
            for h in &held {
                if *h != name && !edges.contains(&(h, name)) {
                    edges.push((h, name));
                }
            }
            if let Some(against) = inverted_against {
                INVERSIONS.fetch_add(1, Ordering::Relaxed);
                if cfg!(debug_assertions) && ABORT_ON_INVERSION.load(Ordering::Relaxed) {
                    eprintln!(
                        "lock-order inversion: acquiring `{name}` while holding {held:?}; \
                         the recorded graph already orders `{name}` before `{against}` \
                         (edges: {edges:?})"
                    );
                    std::process::abort();
                }
            }
        }
    }
    true
}

/// Post-acquisition bookkeeping: push onto the per-thread held stack.
fn after_acquire(name: &'static str) {
    HELD.with(|h| {
        if let Ok(mut v) = h.try_borrow_mut() {
            v.push(name);
        }
    });
}

/// Guard-drop bookkeeping: pop the most recent matching entry (guards may
/// be dropped out of acquisition order).
fn release(name: &'static str) {
    HELD.with(|h| {
        if let Ok(mut v) = h.try_borrow_mut() {
            if let Some(pos) = v.iter().rposition(|n| *n == name) {
                v.remove(pos);
            }
        }
    });
}

/// A named [`std::sync::Mutex`] participating in lock-order tracking.
pub struct OrderedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Create a new named mutex. `const` so it can back `static` cells.
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: Mutex::new(value),
        }
    }

    /// The lock's order-class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire the lock, recording the acquisition in the order graph.
    /// Poisoning passes through exactly as with [`std::sync::Mutex`].
    pub fn lock(&self) -> LockResult<OrderedMutexGuard<'_, T>> {
        let tracked = before_acquire(self.name);
        let (inner, poisoned) = match self.inner.lock() {
            Ok(g) => (g, false),
            Err(p) => (p.into_inner(), true),
        };
        if tracked {
            after_acquire(self.name);
        }
        let guard = OrderedMutexGuard {
            name: self.name,
            tracked,
            inner,
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for [`OrderedMutex`]; pops the held-lock stack on drop.
pub struct OrderedMutexGuard<'a, T> {
    name: &'static str,
    tracked: bool,
    inner: MutexGuard<'a, T>,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            release(self.name);
        }
    }
}

/// A named [`std::sync::RwLock`] participating in lock-order tracking.
/// Read and write acquisitions share the lock's single order class.
pub struct OrderedRwLock<T> {
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Create a new named rwlock. `const` so it can back `static` cells.
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: RwLock::new(value),
        }
    }

    /// The lock's order-class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire a shared read guard, recording the acquisition.
    pub fn read(&self) -> LockResult<OrderedReadGuard<'_, T>> {
        let tracked = before_acquire(self.name);
        let (inner, poisoned) = match self.inner.read() {
            Ok(g) => (g, false),
            Err(p) => (p.into_inner(), true),
        };
        if tracked {
            after_acquire(self.name);
        }
        let guard = OrderedReadGuard {
            name: self.name,
            tracked,
            inner,
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    /// Acquire an exclusive write guard, recording the acquisition.
    pub fn write(&self) -> LockResult<OrderedWriteGuard<'_, T>> {
        let tracked = before_acquire(self.name);
        let (inner, poisoned) = match self.inner.write() {
            Ok(g) => (g, false),
            Err(p) => (p.into_inner(), true),
        };
        if tracked {
            after_acquire(self.name);
        }
        let guard = OrderedWriteGuard {
            name: self.name,
            tracked,
            inner,
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("name", &self.name)
            .finish()
    }
}

/// Shared read guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    name: &'static str,
    tracked: bool,
    inner: RwLockReadGuard<'a, T>,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            release(self.name);
        }
    }
}

/// Exclusive write guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    name: &'static str,
    tracked: bool,
    inner: RwLockWriteGuard<'a, T>,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            release(self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sanitizer state (edge graph, counter) is global, so tests that
    // manipulate it serialise through this gate and reset via
    // set_runtime_tracking(true).
    static GATE: Mutex<()> = Mutex::new(());

    fn locked_gate() -> MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn consistent_nesting_records_edges_without_inversions() {
        let _g = locked_gate();
        set_runtime_tracking(true);
        let a = OrderedMutex::new("test.consistent.a", 1u32);
        let b = OrderedMutex::new("test.consistent.b", 2u32);
        for _ in 0..3 {
            let ga = a.lock().unwrap_or_else(PoisonError::into_inner);
            let gb = b.lock().unwrap_or_else(PoisonError::into_inner);
            assert_eq!(*ga + *gb, 3);
        }
        assert_eq!(inversion_count(), 0);
        set_runtime_tracking(false);
    }

    #[test]
    fn inverted_nesting_is_detected_and_counted() {
        let _g = locked_gate();
        set_runtime_tracking(true);
        set_abort_on_inversion(false);
        let a = OrderedMutex::new("test.invert.a", ());
        let b = OrderedMutex::new("test.invert.b", ());
        {
            let _ga = a.lock().unwrap_or_else(PoisonError::into_inner);
            let _gb = b.lock().unwrap_or_else(PoisonError::into_inner);
        }
        assert_eq!(inversion_count(), 0, "forward order is clean");
        {
            let _gb = b.lock().unwrap_or_else(PoisonError::into_inner);
            let _ga = a.lock().unwrap_or_else(PoisonError::into_inner);
        }
        assert_eq!(inversion_count(), 1, "reverse order is an inversion");
        set_abort_on_inversion(true);
        set_runtime_tracking(false);
    }

    #[test]
    fn transitive_inversions_are_detected() {
        let _g = locked_gate();
        set_runtime_tracking(true);
        set_abort_on_inversion(false);
        let a = OrderedMutex::new("test.trans.a", ());
        let b = OrderedMutex::new("test.trans.b", ());
        let c = OrderedMutex::new("test.trans.c", ());
        {
            let _ga = a.lock().unwrap_or_else(PoisonError::into_inner);
            let _gb = b.lock().unwrap_or_else(PoisonError::into_inner);
        }
        {
            let _gb = b.lock().unwrap_or_else(PoisonError::into_inner);
            let _gc = c.lock().unwrap_or_else(PoisonError::into_inner);
        }
        {
            // c -> a closes the cycle a -> b -> c -> a.
            let _gc = c.lock().unwrap_or_else(PoisonError::into_inner);
            let _ga = a.lock().unwrap_or_else(PoisonError::into_inner);
        }
        assert_eq!(inversion_count(), 1);
        set_abort_on_inversion(true);
        set_runtime_tracking(false);
    }

    #[test]
    fn same_name_nesting_is_not_an_inversion() {
        let _g = locked_gate();
        set_runtime_tracking(true);
        let cells: Vec<OrderedMutex<u32>> = (0..2)
            .map(|i| OrderedMutex::new("test.samename", i))
            .collect();
        {
            let _g0 = cells[0].lock().unwrap_or_else(PoisonError::into_inner);
            let _g1 = cells[1].lock().unwrap_or_else(PoisonError::into_inner);
        }
        assert_eq!(inversion_count(), 0);
        set_runtime_tracking(false);
    }

    #[test]
    fn poisoning_passes_through() {
        let _g = locked_gate();
        let m = std::sync::Arc::new(OrderedMutex::new("test.poison", 7u32));
        let m2 = std::sync::Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let _g = m2.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the lock");
        })
        .join();
        assert!(joined.is_err());
        let result = m.lock();
        let Err(poisoned) = result else {
            panic!("expected the lock to be poisoned");
        };
        assert_eq!(*poisoned.into_inner(), 7);
    }

    #[test]
    fn rwlock_read_write_track_and_release() {
        let _g = locked_gate();
        set_runtime_tracking(true);
        let l = OrderedRwLock::new("test.rw", 5u32);
        {
            let r = l.read().unwrap_or_else(PoisonError::into_inner);
            assert_eq!(*r, 5);
        }
        {
            let mut w = l.write().unwrap_or_else(PoisonError::into_inner);
            *w = 6;
        }
        let r = l.read().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*r, 6);
        assert_eq!(inversion_count(), 0);
        set_runtime_tracking(false);
    }
}
