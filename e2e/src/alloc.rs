//! A counting global allocator, so the traced pass can report heap
//! allocations per op. Disarmed it costs one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

/// One counter per cache line, a thread to a counter: a single shared
/// counter bounced between the cores on every allocation and cost the
/// traced loop a quarter of its throughput.
#[repr(align(64))]
struct Slot(AtomicU64);

const SLOTS: usize = 16;
static ARMED: AtomicBool = AtomicBool::new(false);
static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside the
    // allocator neither allocates nor outlives the thread's storage.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count_one() {
    // Relaxed: a statistics switch that publishes no other data.
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let slot = MY_SLOT
        .try_with(|mine| {
            if mine.get() == usize::MAX {
                // Relaxed: only spreads threads over slots; any value works.
                mine.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            mine.get()
        })
        .unwrap_or(0);
    // Relaxed: a statistics counter, read only by `total`.
    COUNTS[slot].0.fetch_add(1, Ordering::Relaxed);
}

fn total() -> u64 {
    // Relaxed: a statistics read; `counted` brackets the work it counts.
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` is passed to `System` as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: likewise, so that zeroed memory comes from `calloc` as it does
    // without this allocator, not from `malloc` plus a `memset`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from `System` through this allocator with this
    // `layout`, as the caller guarantees.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout`; `new_size` is the
    // caller's.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts allocations of every thread while `f` runs.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = total();
    // Relaxed: the threads `f` starts and joins order their counts.
    ARMED.store(true, Ordering::Relaxed);
    let value = f();
    // Relaxed: as above.
    ARMED.store(false, Ordering::Relaxed);
    (value, total() - before)
}
