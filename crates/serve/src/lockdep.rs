//! Debug-build lock-order tracking — a miniature "lockdep".
//!
//! [`DMutex`] and [`DRwLock`] are drop-in wrappers over the std
//! primitives, tagged at construction with a `'static` **class** name
//! (e.g. `"serve.batch.queue"`). In release builds they compile down
//! to the plain std lock plus one ignored field. Under
//! `cfg(debug_assertions)` every acquisition is checked against a
//! process-global acquisition-order graph:
//!
//! - the first time class B is taken while class A is held, the edge
//!   A → B is recorded;
//! - an acquisition that would close a cycle (B → … → A already exists)
//!   panics immediately with the offending path.
//!
//! That turns a *potential* deadlock — which under contention would
//! hang two threads forever — into a deterministic panic on the first
//! interleaving that even attempts the inverted order, whether or not
//! the other thread is anywhere near the lock. The static counterpart
//! of this check is the `lockorder` rule in `crates/audit`; the shim
//! catches orders the lexical scan cannot see (guards passed through
//! functions, locks reached via trait objects, orders that only occur
//! on rare branches).
//!
//! Multiple lock *instances* may share one class (the sharded cache's
//! stripes, the per-route token buckets). Same-class nesting is
//! deliberately not flagged: stripe-over-stripe acquisition is ordered
//! by index at the call sites, which a class-granular graph cannot
//! express, so self-edges are skipped rather than reported as cycles.
//!
//! The one lock this module cannot wrap is a mutex used with a
//! [`std::sync::Condvar`]: `Condvar::wait` insists on a real
//! `MutexGuard`. Those stay on the std type (see `batch::park`).

#[cfg(debug_assertions)]
use std::cell::RefCell;
#[cfg(debug_assertions)]
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{
    LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

// ---------------------------------------------------------------------
// The acquisition graph (debug builds only)
// ---------------------------------------------------------------------

/// Directed acquisition edges: `edges[a]` holds every class observed
/// being acquired while `a` was held.
#[cfg(debug_assertions)]
static EDGES: Mutex<Option<HashMap<&'static str, Vec<&'static str>>>> = Mutex::new(None);

#[cfg(debug_assertions)]
thread_local! {
    /// The classes this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Is there a path `from → … → to` in the recorded graph?
/// Iterative DFS; the graph has a handful of classes, so no visited-set
/// sophistication is needed beyond loop protection.
#[cfg(debug_assertions)]
fn path_exists(
    edges: &HashMap<&'static str, Vec<&'static str>>,
    from: &'static str,
    to: &'static str,
    path: &mut Vec<&'static str>,
) -> bool {
    if from == to {
        path.push(from);
        return true;
    }
    if path.contains(&from) {
        return false;
    }
    path.push(from);
    if let Some(nexts) = edges.get(from) {
        for &n in nexts {
            if path_exists(edges, n, to, path) {
                return true;
            }
        }
    }
    path.pop();
    false
}

/// Records the acquisition of `class` by this thread, panicking if it
/// inverts an order the process has already exhibited.
#[cfg(debug_assertions)]
fn acquired(class: &'static str) {
    let holders: Vec<&'static str> = HELD.with(|h| h.borrow().clone());
    // Decide-then-panic: the panic (if any) must happen *after* the
    // graph guard is dropped, or we poison the registry for the rest
    // of the process (including catch_unwind-style tests).
    let mut violation: Option<Vec<&'static str>> = None;
    {
        let mut slot = EDGES.lock().unwrap_or_else(PoisonError::into_inner);
        let edges = slot.get_or_insert_with(HashMap::new);
        for &held in &holders {
            if held == class {
                continue; // same-class nesting: ordered at call sites
            }
            let known = edges.get(held).is_some_and(|v| v.contains(&class));
            if known {
                continue;
            }
            // New edge held → class. Would the reverse direction
            // already reach `held` from `class`? Then this is a cycle.
            let mut path = Vec::new();
            if path_exists(edges, class, held, &mut path) {
                path.push(class); // close the loop for the message
                violation = Some(path);
                break;
            }
            edges.entry(held).or_default().push(class);
        }
    }
    if let Some(path) = violation {
        panic!(
            "lock-order cycle: acquiring '{class}' while holding {holders:?} \
             inverts the established order {}",
            path.join(" -> ")
        );
    }
    HELD.with(|h| h.borrow_mut().push(class));
}

/// Records the release of `class` (the most recent acquisition wins —
/// guards normally drop LIFO, but out-of-order drops are legal).
#[cfg(debug_assertions)]
fn released(class: &'static str) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(ix) = held.iter().rposition(|&c| c == class) {
            held.remove(ix);
        }
    });
}

/// RAII for the held-stack entry; kept in every guard so early drops
/// and panics both unwind the tracking correctly.
#[cfg(debug_assertions)]
struct HeldToken(&'static str);

#[cfg(debug_assertions)]
impl Drop for HeldToken {
    fn drop(&mut self) {
        released(self.0);
    }
}

#[cfg(debug_assertions)]
fn track(class: &'static str) -> HeldToken {
    acquired(class);
    HeldToken(class)
}

// ---------------------------------------------------------------------
// DMutex
// ---------------------------------------------------------------------

/// A [`Mutex`] with a lock-order class. API mirrors std: `lock()`
/// returns a `LockResult` whose guard derefs to `T`.
pub struct DMutex<T> {
    class: &'static str,
    inner: Mutex<T>,
}

impl<T> DMutex<T> {
    /// Wraps `value` under lock-order class `class`.
    pub const fn new(class: &'static str, value: T) -> DMutex<T> {
        DMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex, recording the acquisition in debug builds.
    pub fn lock(&self) -> LockResult<DMutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        let token = track(self.class);
        match self.inner.lock() {
            Ok(guard) => Ok(DMutexGuard {
                #[cfg(debug_assertions)]
                _token: token,
                guard,
            }),
            Err(poisoned) => Err(PoisonError::new(DMutexGuard {
                #[cfg(debug_assertions)]
                _token: token,
                guard: poisoned.into_inner(),
            })),
        }
    }

    /// The lock-order class this lock was constructed with.
    pub fn class(&self) -> &'static str {
        self.class
    }
}

/// Guard for [`DMutex::lock`].
pub struct DMutexGuard<'a, T> {
    // Declared first so tracking is released before (well, no later
    // than) the lock itself; either order is correct for a per-thread
    // stack, but releasing tracking first keeps panics tidy.
    #[cfg(debug_assertions)]
    _token: HeldToken,
    guard: MutexGuard<'a, T>,
}

impl<T> Deref for DMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for DMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

// ---------------------------------------------------------------------
// DRwLock
// ---------------------------------------------------------------------

/// An [`RwLock`] with a lock-order class. Readers and writers share
/// one class: a read-vs-write distinction only loosens the check
/// (read-read cannot deadlock) and the looseness has no value here.
pub struct DRwLock<T> {
    class: &'static str,
    inner: RwLock<T>,
}

impl<T> DRwLock<T> {
    /// Wraps `value` under lock-order class `class`.
    pub const fn new(class: &'static str, value: T) -> DRwLock<T> {
        DRwLock {
            class,
            inner: RwLock::new(value),
        }
    }

    /// Acquires a shared read guard, recording the acquisition.
    pub fn read(&self) -> LockResult<DReadGuard<'_, T>> {
        #[cfg(debug_assertions)]
        let token = track(self.class);
        match self.inner.read() {
            Ok(guard) => Ok(DReadGuard {
                #[cfg(debug_assertions)]
                _token: token,
                guard,
            }),
            Err(poisoned) => Err(PoisonError::new(DReadGuard {
                #[cfg(debug_assertions)]
                _token: token,
                guard: poisoned.into_inner(),
            })),
        }
    }

    /// Acquires the exclusive write guard, recording the acquisition.
    pub fn write(&self) -> LockResult<DWriteGuard<'_, T>> {
        #[cfg(debug_assertions)]
        let token = track(self.class);
        match self.inner.write() {
            Ok(guard) => Ok(DWriteGuard {
                #[cfg(debug_assertions)]
                _token: token,
                guard,
            }),
            Err(poisoned) => Err(PoisonError::new(DWriteGuard {
                #[cfg(debug_assertions)]
                _token: token,
                guard: poisoned.into_inner(),
            })),
        }
    }

    /// The lock-order class this lock was constructed with.
    pub fn class(&self) -> &'static str {
        self.class
    }
}

/// Guard for [`DRwLock::read`].
pub struct DReadGuard<'a, T> {
    #[cfg(debug_assertions)]
    _token: HeldToken,
    guard: RwLockReadGuard<'a, T>,
}

impl<T> Deref for DReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Guard for [`DRwLock::write`].
pub struct DWriteGuard<'a, T> {
    #[cfg(debug_assertions)]
    _token: HeldToken,
    guard: RwLockWriteGuard<'a, T>,
}

impl<T> Deref for DWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for DWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    // Every test uses class names unique to itself: the graph is
    // process-global and additive, so shared names would let one test's
    // edges leak into another's expectations.

    #[test]
    fn nested_acquisition_records_and_releases() {
        let a = DMutex::new("t1.a", 1);
        let b = DMutex::new("t1.b", 2);
        {
            let ga = a.lock().unwrap();
            let gb = b.lock().unwrap();
            assert_eq!(*ga + *gb, 3);
        }
        // Same order again: no panic, edge already known.
        let _ga = a.lock().unwrap();
        let _gb = b.lock().unwrap();
    }

    #[test]
    fn inverted_order_panics_with_the_cycle() {
        let a = DMutex::new("t2.a", ());
        let b = DMutex::new("t2.b", ());
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        let err = std::panic::catch_unwind(|| {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap(); // closes the cycle
        })
        .expect_err("the inverted order must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order cycle"), "got: {msg}");
        assert!(msg.contains("t2.a") && msg.contains("t2.b"), "got: {msg}");
    }

    #[test]
    fn rwlock_read_and_write_share_a_class() {
        let r = DRwLock::new("t3.r", 7);
        let m = DMutex::new("t3.m", ());
        {
            let _gr = r.read().unwrap();
            let _gm = m.lock().unwrap();
        }
        // write() after the mutex now inverts the recorded order.
        let err = std::panic::catch_unwind(|| {
            let _gm = m.lock().unwrap();
            let _gw = r.write().unwrap();
        })
        .expect_err("write after mutex must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t3.r"), "got: {msg}");
    }

    #[test]
    fn same_class_nesting_is_not_a_cycle() {
        // Two instances sharing a class, as the cache stripes do.
        let s1 = DMutex::new("t4.stripe", 1);
        let s2 = DMutex::new("t4.stripe", 2);
        let g1 = s1.lock().unwrap();
        let g2 = s2.lock().unwrap();
        assert_eq!(*g1 + *g2, 3);
    }

    #[test]
    fn transitive_cycles_are_caught() {
        let a = DMutex::new("t5.a", ());
        let b = DMutex::new("t5.b", ());
        let c = DMutex::new("t5.c", ());
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        {
            let _gb = b.lock().unwrap();
            let _gc = c.lock().unwrap();
        }
        let err = std::panic::catch_unwind(|| {
            let _gc = c.lock().unwrap();
            let _ga = a.lock().unwrap(); // a -> b -> c -> a
        })
        .expect_err("transitive inversion must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order cycle"), "got: {msg}");
    }

    #[test]
    fn out_of_order_guard_drops_unwind_tracking() {
        let a = DMutex::new("t6.a", ());
        let b = DMutex::new("t6.b", ());
        let ga = a.lock().unwrap();
        let gb = b.lock().unwrap();
        drop(ga); // drop the outer guard first
        drop(gb);
        // Tracking must be empty again: acquiring in the other order
        // from a bare stack records b -> a edges only if nothing is
        // held, which would now conflict with a -> b. It should panic —
        // proving the earlier a -> b edge persisted and the held stack
        // did not corrupt.
        let err = std::panic::catch_unwind(|| {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        })
        .expect_err("inversion after clean unwinding must still panic");
        drop(err);
        // And the non-nested single acquisitions still work. `b` was
        // held across the cycle panic above, so it is now poisoned —
        // that is std behavior, not a tracking defect.
        drop(a.lock().unwrap());
        drop(b.lock().unwrap_or_else(PoisonError::into_inner));
    }
}
