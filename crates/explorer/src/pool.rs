//! A tiny scoped work-stealing map for fan-out over independent items.
//!
//! The 2^n input vectors of the Section 4.2 analyses are embarrassingly
//! parallel: [`parallel_map`] fans a slice across a scoped thread pool
//! (plain `std::thread::scope`; the workspace builds offline, without an
//! external runtime) and returns results **in item order**, so callers
//! that merge results left-to-right are deterministic regardless of
//! scheduling. The calling thread is one of the workers: a pool of `n`
//! spawns only `n - 1` threads, so no thread sits idle in the join and
//! no extra thread (with its own allocator arena) is ever live.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use wfc_obs::metrics::Registry;
use wfc_waitfree::ResultCell;

/// The worker count a `threads` knob resolves to: `0` means one per
/// available core (one if that cannot be read), anything else is taken
/// as given. [`parallel_map`] and
/// [`ExploreOptions::effective_threads`](crate::ExploreOptions::effective_threads)
/// both resolve through here, so `0` means the same everywhere.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Applies `f` to every item of `items` on up to `threads` workers
/// (resolved by [`resolve_threads`], so `0` means one per core),
/// returning the results in item order.
///
/// One worker runs inline on the calling thread with no overhead.
/// Otherwise `threads - 1` scoped threads are spawned and the caller
/// joins them in claiming work. Work is claimed item-by-item from a
/// shared atomic cursor, so uneven item costs (the trees of different
/// input vectors can differ wildly in size) still balance.
///
/// Each result is built on the worker that claimed its item and freed
/// later by the caller, on another thread. Results that own heap memory
/// (vectors, maps, explorations) therefore cross allocator arenas, and
/// a pass of many such results was measured to slow the *next* pool's
/// work by up to a fifth. Where items are many and cheap, return a
/// small `Copy` verdict and build anything heap-backed on the calling
/// thread after the join, as the hierarchy sweep runner does: its
/// per-candidate result is 16 bytes, with only the rare error boxed.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // The pool has no options struct to hang a knob on, so it follows
    // the process-wide `wfc-obs` flag directly (one relaxed load per
    // call when disabled).
    let obs = wfc_obs::enabled();
    if obs {
        let reg = Registry::global();
        reg.counter("pool.runs").add(1);
        reg.counter("pool.tasks").add(items.len() as u64);
    }
    let threads = resolve_threads(threads);
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // Per-item write-once cells: the cursor claims each item exactly
    // once, so each slot has a unique writer and the wait-free
    // `set`/`take` protocol needs only `R: Send`.
    let slots: Vec<ResultCell<R>> = items.iter().map(|_| ResultCell::new()).collect();
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(items.len());
    let work = || claim(items, &slots, &cursor, &f, obs);
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        work();
        // Join explicitly: unlike the scope's own wait, a join returns
        // only once the thread has exited and released its malloc
        // arena, so the next pool's threads reuse that arena instead of
        // racing its release and creating another.
        for h in helpers {
            h.join().expect("pool worker panicked");
        }
    });
    slots
        .iter()
        .map(|slot| slot.take().expect("every slot filled by a worker"))
        .collect()
}

/// One worker's claim loop. Never inlined, so the caller and the
/// spawned threads share one copy of `f`'s code instead of each
/// carrying its own.
#[inline(never)]
fn claim<T, R: Send, F: Fn(&T) -> R>(
    items: &[T],
    slots: &[ResultCell<R>],
    cursor: &AtomicUsize,
    f: &F,
    obs: bool,
) {
    let started = obs.then(Instant::now);
    let mut claims = 0u64;
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        claims += 1;
        slots[i].set(f(item));
    }
    if let Some(t0) = started {
        let reg = Registry::global();
        reg.histogram("pool.worker.claims").record(claims);
        reg.histogram("pool.worker.busy_ns")
            .record(t0.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(threads, &items, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &none, |&x| x).is_empty());
        assert_eq!(parallel_map(4, &[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Every item waits for a second one to run beside it, so no
        // single thread can take them all: both workers of a two-thread
        // pool must run items, and one of them must be the caller.
        let meet = std::sync::Barrier::new(2);
        let caller = std::thread::current().id();
        let ids = parallel_map(2, &[0u8; 4], |_| {
            meet.wait();
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 2, "{ids:?}");
        assert!(ids.contains(&caller), "the caller ran no item: {ids:?}");
    }

    #[test]
    fn zero_threads_means_one_worker_per_core() {
        // Each item waits until every core's worker has checked in, or
        // until a shared deadline passes, so the test cannot hang: an
        // inline run just checks in once and times out.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), cores);
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        parallel_map(0, &vec![(); cores], |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            while seen.lock().unwrap().len() < cores && Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        assert_eq!(seen.into_inner().unwrap().len(), cores);
    }

    #[test]
    fn uneven_work_is_balanced() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(4, &items, |&x| (0..(x % 7) * 1000).sum::<u64>());
        assert_eq!(out.len(), 32);
    }
}
