//! An exploration gives back every byte it allocates.
//!
//! Virtual threads are fibers whose entry frames never return, so a
//! value still owned by such a frame at its final switch is leaked once
//! per virtual thread per schedule. This binary installs a counting
//! allocator that tracks live bytes per thread; every allocation of an
//! exploration happens on the thread that called `explore`, so a
//! per-thread count sees them all while the harness's own threads
//! cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wfc_sched::{explore, fixtures, Mode, SchedOptions};

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the tally touches only a const-initialised thread-local
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Explores `target` exhaustively and drops everything it returned.
fn explore_and_drop(target: &str) -> u64 {
    let mut build = fixtures::build(target).expect("fixture exists");
    let options = SchedOptions::default().with_mode(Mode::Exhaustive { sleep_sets: true });
    explore(&options, &mut build).expect("explores").schedules
}

#[test]
fn a_second_exploration_leaves_exactly_as_many_live_bytes_as_the_first() {
    for target in ["srsw", "broken"] {
        let schedules = explore_and_drop(target);
        let after_first = live();
        assert_eq!(explore_and_drop(target), schedules, "{target}");
        let after_second = live();
        assert_eq!(
            after_second,
            after_first,
            "{target}: {} bytes still live after {schedules} more schedules",
            after_second - after_first
        );
    }
}
