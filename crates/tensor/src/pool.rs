//! The tensor buffer pool: size-class free lists of `Vec<f32>`.
//!
//! Steady-state serving throughput is bounded by allocator churn: every
//! tape op output, backward scratch buffer, and gradient accumulator
//! used to be a fresh `Vec<f32>` handed to the global allocator and
//! freed a few microseconds later. The pool short-circuits that cycle:
//!
//! ```text
//!            take_zeroed / take_cap            drop (PoolBuf) / put
//!   op ───────────────┐                               │
//!                     ▼                               ▼
//!   ┌──────────────────────────────┐   spill   ┌──────────────────┐
//!   │ tier "local": thread-local   │ ────────► │ tier "shared":   │
//!   │ free lists, one per size     │ ◄──────── │ mutex-guarded    │
//!   │ class (no locking)           │  refill   │ spill lists      │
//!   └──────────────────────────────┘           └──────────────────┘
//!                     │ (both empty)
//!                     ▼
//!              global allocator (a pool *miss*)
//! ```
//!
//! * **Size classes** are powers of two from 8 to 4 Mi floats. A
//!   request takes from the smallest class that fits; a returned buffer
//!   files under the largest class its capacity covers, so a recycled
//!   buffer always satisfies the length it is handed out for.
//! * **Tier "local"** is a `thread_local!` free list — the fast path is
//!   lock-free and allocation-free. Encode-pool workers therefore reach
//!   a private warm pool in steady state.
//! * **Tier "shared"** is a small mutex-guarded spill: buffers
//!   overflowing a full local class land there, and a thread whose
//!   local class is empty refills from it. This is what lets buffers
//!   freed on one thread (e.g. a caller dropping a response tensor) be
//!   reused by another (an encode worker).
//!
//! Recycled buffers are handed out zeroed ([`take_zeroed`]), empty
//! ([`take_cap`]), or, to a caller that overwrites every float before
//! reading one, with the stale floats left in place
//! ([`take_for_overwrite`]); the first two never expose a previous
//! tensor's values (property-tested in `crates/tensor/tests`).
//!
//! Counters ([`stats`]) feed the `ccsa_pool_*` metric families in
//! `ccsa-serve`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// log2 of the smallest pooled capacity (8 floats). Anything smaller is
/// cheaper to allocate than to track.
const MIN_SHIFT: u32 = 3;
/// Number of size classes: 8, 16, … 4 Mi floats (16 MiB). Larger
/// buffers bypass the pool entirely.
const NUM_CLASSES: usize = 20;
/// Max buffers one thread parks per class before spilling to the
/// shared tier.
const LOCAL_CAP_PER_CLASS: usize = 16;
/// Max buffers the shared tier holds per class before dropping to the
/// allocator.
const SHARED_CAP_PER_CLASS: usize = 64;

/// Floats in class `c`.
#[inline]
fn class_size(c: usize) -> usize {
    1usize << (MIN_SHIFT + c as u32)
}

/// Smallest class whose size covers `len` (None: oversize).
#[inline]
fn class_for_len(len: usize) -> Option<usize> {
    let mut class = 0usize;
    while class < NUM_CLASSES && class_size(class) < len {
        class += 1;
    }
    (class < NUM_CLASSES).then_some(class)
}

/// Largest class whose size is covered by `cap` (None: below minimum).
#[inline]
fn class_for_cap(cap: usize) -> Option<usize> {
    if cap < class_size(0) {
        return None;
    }
    let mut class = NUM_CLASSES - 1;
    while class_size(class) > cap {
        class -= 1;
    }
    Some(class)
}

// Counters are Relaxed throughout this module: each is an independent
// monotonic statistic (or gauge) read only by stats()/scrape paths that
// tolerate torn cross-counter views — no ordering with the buffers
// themselves is needed (ownership transfer is by value / under the
// shared-tier mutex).
static LOCAL_HITS: AtomicU64 = AtomicU64::new(0);
static SHARED_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RETURNS: AtomicU64 = AtomicU64::new(0);
static DROPS: AtomicU64 = AtomicU64::new(0);
static LOCAL_BUFFERS: AtomicU64 = AtomicU64::new(0);
static SHARED_BUFFERS: AtomicU64 = AtomicU64::new(0);
static LOCAL_BYTES: AtomicU64 = AtomicU64::new(0);
static SHARED_BYTES: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// The calling thread's share of the monotonic counters. Tests run
    /// on parallel threads that all move the process-wide counters, so
    /// a test that asserts a delta reads its own thread's.
    static THREAD_COUNTS: std::cell::Cell<PoolStats> = std::cell::Cell::new(PoolStats::default());
}

/// Adds one to a monotonic counter and, in this crate's tests, to the
/// calling thread's mirror of it (`field` picks the mirror).
#[inline]
fn count(counter: &AtomicU64, field: fn(&mut PoolStats) -> &mut u64) {
    // Relaxed: statistics, see module-level comment.
    counter.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    let _ = THREAD_COUNTS.try_with(|counts| {
        let mut mirror = counts.get();
        *field(&mut mirror) += 1;
        counts.set(mirror);
    });
    #[cfg(not(test))]
    let _ = field;
}

/// One thread's free lists. On thread exit the parked buffers are
/// handed back to the allocator; `Drop` keeps the gauges honest.
struct Local {
    classes: [Vec<Vec<f32>>; NUM_CLASSES],
}

impl Local {
    fn new() -> Local {
        Local {
            classes: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        let mut buffers = 0u64;
        let mut bytes = 0u64;
        for class in &self.classes {
            buffers += class.len() as u64;
            bytes += class.iter().map(|v| 4 * v.capacity() as u64).sum::<u64>();
        }
        // Relaxed: gauge bookkeeping, see module-level comment.
        LOCAL_BUFFERS.fetch_sub(buffers, Ordering::Relaxed);
        LOCAL_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// The shared spill tier. A plain leaf mutex: nothing is ever acquired
/// while it is held.
static SHARED: Mutex<Option<Vec<Vec<Vec<f32>>>>> = Mutex::new(None);

fn with_shared<R>(f: impl FnOnce(&mut Vec<Vec<Vec<f32>>>) -> R) -> R {
    let mut guard = SHARED.lock().expect("buffer pool spill tier poisoned");
    let tier = guard.get_or_insert_with(|| (0..NUM_CLASSES).map(|_| Vec::new()).collect());
    f(tier)
}

/// Pops a recycled buffer with capacity ≥ `min_cap`, or None on a pool
/// miss (empty classes or oversize request).
fn take_recycled(min_cap: usize) -> Option<Vec<f32>> {
    if min_cap == 0 {
        return None;
    }
    let class = class_for_len(min_cap)?;
    let local = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            // Take the smallest non-empty class that fits; settling for a
            // larger class beats a fresh allocation.
            for c in class..NUM_CLASSES {
                if let Some(v) = l.classes[c].pop() {
                    return Some(v);
                }
            }
            None
        })
        .ok()
        .flatten();
    if let Some(v) = local {
        count(&LOCAL_HITS, |s| &mut s.local_hits);
        // Relaxed: statistics, see module-level comment.
        LOCAL_BUFFERS.fetch_sub(1, Ordering::Relaxed);
        LOCAL_BYTES.fetch_sub(4 * v.capacity() as u64, Ordering::Relaxed);
        return Some(v);
    }
    let shared = with_shared(|tier| tier[class..].iter_mut().find_map(Vec::pop));
    if let Some(ref v) = shared {
        count(&SHARED_HITS, |s| &mut s.shared_hits);
        // Relaxed: statistics, see module-level comment.
        SHARED_BUFFERS.fetch_sub(1, Ordering::Relaxed);
        SHARED_BYTES.fetch_sub(4 * v.capacity() as u64, Ordering::Relaxed);
    }
    shared
}

/// A zeroed buffer of exactly `len` floats, recycled when possible.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    match take_recycled(len) {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0.0);
            v
        }
        None => fresh(len),
    }
}

/// A new zeroed buffer of `len` floats for a take the pool could not
/// serve, counted as a miss. It gets its whole size class's capacity, so
/// once returned it files under that class and serves the same take
/// again; with exactly the capacity asked for it would file one class
/// lower, and a take of that size would miss every time. Oversize takes
/// get what they ask for. Zeros come from the allocator, which hands
/// large requests untouched pages rather than filling them.
fn fresh(len: usize) -> Vec<f32> {
    count(&MISSES, |s| &mut s.misses);
    let class = class_for_len(len).filter(|_| len > 0);
    let mut v = vec![0.0; class.map_or(len, class_size)];
    v.truncate(len);
    v
}

/// An empty buffer with capacity ≥ `min_cap`, recycled when possible.
/// The caller fills it (`extend_from_slice`, `push`, …) — it never
/// exposes recycled contents.
pub fn take_cap(min_cap: usize) -> Vec<f32> {
    match take_recycled(min_cap) {
        Some(mut v) => {
            v.clear();
            v
        }
        None => {
            let mut v = fresh(min_cap);
            v.clear();
            v
        }
    }
}

/// A buffer of exactly `len` floats for a caller that writes every one
/// before it reads any, recycled when possible. A recycled buffer keeps
/// the floats it last held, and only a tail it never held is zeroed, so
/// a buffer that is overwritten in full is not filled first.
pub fn take_for_overwrite(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    match take_recycled(len) {
        Some(mut v) => {
            v.resize(len, 0.0);
            v
        }
        None => fresh(len),
    }
}

/// A buffer of `len` floats all equal to `value`, recycled when
/// possible.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut v = take_cap(len);
    v.resize(len, value);
    v
}

/// A recycled (or fresh) copy of `src`.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take_cap(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a buffer to the pool: local tier first, spilling to the
/// shared tier when the local class is full, dropping to the allocator
/// when both are. Tiny and oversize buffers go straight to the
/// allocator. The buffer keeps its length, so [`take_for_overwrite`]
/// can hand its floats out again without a fill.
pub fn put(mut v: Vec<f32>) {
    let Some(class) = class_for_cap(v.capacity()) else {
        return; // below the minimum class: not worth tracking
    };
    if v.capacity() > class_size(NUM_CLASSES - 1) {
        return; // oversize: give the pages back
    }
    let bytes = 4 * v.capacity() as u64;
    let spill = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        if l.classes[class].len() < LOCAL_CAP_PER_CLASS {
            l.classes[class].push(std::mem::take(&mut v));
            false
        } else {
            true
        }
    });
    match spill {
        Ok(false) => {
            count(&RETURNS, |s| &mut s.returns);
            // Relaxed: statistics, see module-level comment.
            LOCAL_BUFFERS.fetch_add(1, Ordering::Relaxed);
            LOCAL_BYTES.fetch_add(bytes, Ordering::Relaxed);
        }
        // Local class full, or the thread is tearing down its TLS:
        // spill to the shared tier.
        Ok(true) | Err(_) => {
            let parked = with_shared(|tier| {
                if tier[class].len() < SHARED_CAP_PER_CLASS {
                    tier[class].push(std::mem::take(&mut v));
                    true
                } else {
                    false
                }
            });
            if parked {
                count(&RETURNS, |s| &mut s.returns);
                // Relaxed: statistics, see module-level comment.
                SHARED_BUFFERS.fetch_add(1, Ordering::Relaxed);
                SHARED_BYTES.fetch_add(bytes, Ordering::Relaxed);
            } else {
                count(&DROPS, |s| &mut s.drops);
            }
        }
    }
}

/// A point-in-time snapshot of the pool counters — the source for the
/// `ccsa_pool_*` metric families in `ccsa-serve`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from the calling thread's free lists.
    pub local_hits: u64,
    /// Takes served from the shared spill tier.
    pub shared_hits: u64,
    /// Takes that fell through to the global allocator.
    pub misses: u64,
    /// Buffers successfully parked for reuse.
    pub returns: u64,
    /// Buffers dropped because both tiers were full.
    pub drops: u64,
    /// Buffers currently parked in thread-local lists (all threads).
    pub local_buffers: u64,
    /// Buffers currently parked in the shared spill tier.
    pub shared_buffers: u64,
    /// Capacity bytes parked in thread-local lists.
    pub local_bytes: u64,
    /// Capacity bytes parked in the shared spill tier.
    pub shared_bytes: u64,
}

impl PoolStats {
    /// All takes (hits + misses).
    pub fn takes(&self) -> u64 {
        self.local_hits + self.shared_hits + self.misses
    }

    /// Fraction of takes served without touching the allocator
    /// (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let takes = self.takes();
        if takes == 0 {
            0.0
        } else {
            (self.local_hits + self.shared_hits) as f64 / takes as f64
        }
    }
}

/// Reads the pool counters.
pub fn stats() -> PoolStats {
    // Relaxed: statistics snapshot, see module-level comment.
    PoolStats {
        local_hits: LOCAL_HITS.load(Ordering::Relaxed),
        shared_hits: SHARED_HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        returns: RETURNS.load(Ordering::Relaxed),
        drops: DROPS.load(Ordering::Relaxed),
        local_buffers: LOCAL_BUFFERS.load(Ordering::Relaxed),
        shared_buffers: SHARED_BUFFERS.load(Ordering::Relaxed),
        local_bytes: LOCAL_BYTES.load(Ordering::Relaxed),
        shared_bytes: SHARED_BYTES.load(Ordering::Relaxed),
    }
}

/// The calling thread's takes, returns and drops (gauges stay zero).
#[cfg(test)]
fn thread_stats() -> PoolStats {
    THREAD_COUNTS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_cover_and_round() {
        assert_eq!(class_for_len(1), Some(0));
        assert_eq!(class_for_len(8), Some(0));
        assert_eq!(class_for_len(9), Some(1));
        assert_eq!(
            class_for_len(class_size(NUM_CLASSES - 1)),
            Some(NUM_CLASSES - 1)
        );
        assert_eq!(class_for_len(class_size(NUM_CLASSES - 1) + 1), None);
        assert_eq!(class_for_cap(7), None);
        assert_eq!(class_for_cap(8), Some(0));
        assert_eq!(class_for_cap(100), Some(3)); // 64 ≤ 100 < 128
        for len in [1usize, 5, 8, 33, 100, 4096, 70_000] {
            let c = class_for_len(len).unwrap();
            assert!(class_size(c) >= len);
            if c > 0 {
                assert!(class_size(c - 1) < len);
            }
        }
    }

    #[test]
    fn recycle_roundtrip_is_zeroed() {
        let mut v = take_zeroed(100);
        v.iter_mut().for_each(|x| *x = f32::NAN);
        let cap = v.capacity();
        put(v);
        // The recycled buffer must come back zeroed, never with the NaNs.
        let v2 = take_zeroed(90);
        assert!(v2.capacity() >= 90);
        assert_eq!(v2.len(), 90);
        assert!(v2.iter().all(|&x| x == 0.0), "stale data leaked");
        let _ = cap;
        put(v2);
    }

    #[test]
    fn take_cap_is_empty() {
        let mut v = take_cap(64);
        v.extend_from_slice(&[1.0; 64]);
        put(v);
        let v2 = take_cap(32);
        assert!(v2.is_empty());
        assert!(v2.capacity() >= 32);
        put(v2);
    }

    #[test]
    fn a_returned_buffer_serves_its_take_again() {
        // 100 floats is not a class size: a buffer of exactly that
        // capacity would file under the class below and never come back
        // for a take of 100.
        let first = take_for_overwrite(100);
        let ptr = first.as_ptr();
        put(first);
        let again = take_for_overwrite(100);
        assert_eq!((again.as_ptr(), again.len()), (ptr, 100));
        put(again);
        // Longer than what the buffer last held: only the new tail is
        // filled, with zeros.
        let longer = take_for_overwrite(120);
        assert_eq!(longer.as_ptr(), ptr);
        assert!(longer[100..].iter().all(|&x| x == 0.0));
        put(longer);
    }

    #[test]
    fn stats_advance_on_hit_and_miss() {
        let before = thread_stats();
        let v = take_zeroed(1024);
        put(v);
        let _v2 = take_zeroed(1000); // same class: must be a hit
        let after = thread_stats();
        assert!(after.takes() > before.takes());
        assert!(
            after.local_hits + after.shared_hits > before.local_hits + before.shared_hits,
            "recycle was not a hit: {after:?} vs {before:?}"
        );
    }

    #[test]
    fn tiny_and_oversize_buffers_are_not_pooled() {
        let before = thread_stats();
        put(Vec::with_capacity(2)); // below the minimum class
        let huge_len = class_size(NUM_CLASSES - 1) + 1;
        assert!(class_for_len(huge_len).is_none());
        let v = take_zeroed(huge_len);
        assert_eq!(v.len(), huge_len);
        let after = thread_stats();
        assert_eq!(after.returns, before.returns);
    }
}
