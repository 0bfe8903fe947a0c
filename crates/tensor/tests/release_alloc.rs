//! Pins that `Tape::release_since` never allocates: releasing a node
//! drops its value in place and hands the buffer back to the pool, with
//! no placeholder tensor put in its stead. (A `Tensor::default()`
//! placeholder costs two heap blocks per released node, which more than
//! doubled the allocations of a cold serving request.)
//!
//! A counting `#[global_allocator]` scores every `alloc`, `alloc_zeroed`
//! and `realloc` on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ccsa_tensor::{Tape, Tensor};

struct CountingAlloc;

thread_local! {
    // Per thread, so parallel tests cannot charge each other; const-
    // initialised and destructor-free, so the allocator can touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: trait-required unsafe fn; delegates to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout obligations as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: trait-required unsafe fn; delegates to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: trait-required unsafe fn; delegates to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout obligations as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: trait-required unsafe fn; delegates to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged from our caller's obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn release_never_allocates() {
    let tape = Tape::inference();
    let x = tape.leaf(Tensor::from_vec(
        (0..64).map(|v| v as f32 * 0.1).collect(),
        [8, 8],
    ));
    // One "level": twelve temporaries, one survivor. Returns the
    // allocations the release itself made.
    let level = || {
        let mark = tape.len();
        let mut h = x;
        for _ in 0..6 {
            h = h.tanh().add(x);
        }
        let before = allocs();
        tape.release_since(mark, &[h]);
        let during = allocs() - before;
        assert_eq!(h.value().len(), 64, "the kept node survives");
        during
    };
    // The first release grows the pool's free lists to hold what a level
    // returns; that growth is the pool's, and happens once per thread.
    level();
    for round in 0..4 {
        assert_eq!(level(), 0, "round {round}: release allocated");
    }
}
