//! Registry lookups that hit allocate nothing.
//!
//! Every `wfc_obs::counter!` site, every explorer graph build and every
//! sched schedule looks instruments up by name while tracing is on, so a
//! hit must return the existing handle without building an owned key.
//! This binary installs a counting allocator that counts per thread, so
//! the harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use wfc_obs::metrics::Registry;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn repeated_lookups_share_one_handle_and_hits_allocate_nothing() {
    let reg = Registry::default();
    let counter = reg.counter("t.alloc.hit");
    let gauge = reg.gauge("t.alloc.hit");
    let histogram = reg.histogram("t.alloc.hit");

    let before = allocations();
    let counter_again = reg.counter("t.alloc.hit");
    let gauge_again = reg.gauge("t.alloc.hit");
    let histogram_again = reg.histogram("t.alloc.hit");
    assert_eq!(allocations() - before, 0, "a hit allocated");

    assert!(Arc::ptr_eq(&counter, &counter_again));
    assert!(Arc::ptr_eq(&gauge, &gauge_again));
    assert!(Arc::ptr_eq(&histogram, &histogram_again));

    // A miss still creates the instrument (and its key).
    let before = allocations();
    let fresh = reg.counter("t.alloc.miss");
    assert!(allocations() > before, "a miss must create the instrument");
    assert!(!Arc::ptr_eq(&fresh, &counter));
}
