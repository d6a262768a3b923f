//! Owned-payload wrappers over the `Copy`-only raw primitives.
//!
//! The triple buffer and write-once cell move `Copy` values through
//! [`RawData`](wfc_registers::RawData) slots. Hot-path callers need
//! owned payloads — span batches, arbitrary pool results — so this
//! module moves `Box`es through `usize`-typed primitives instead: a
//! pointer is `Copy`, and ownership transfers with the value. All
//! pointer `unsafe` in the crate outside the primitives themselves is
//! confined here, with one invariant per type:
//!
//! * [`ResultCell`]: a pointer enters at `set` (`Box::into_raw`) and
//!   leaves at exactly one `take` (`Box::from_raw`) — the write-once
//!   cell's exactly-once `take` *is* the no-double-free argument.
//! * [`snapshot`]: the same three allocations live in the triple
//!   buffer for its whole life — only their *roles* (front / middle /
//!   back) rotate. The publisher mutates its exclusively-owned back
//!   pointee in place; the shared [`SnapDrop`] frees all three
//!   allocations when the last handle goes away.
//!
//! Everything here runs over [`RealProvider`] only: the model-checked
//! twins in `wfc-sched` exercise the underlying index/state protocols,
//! which is where the concurrency is — the boxing layer adds ownership
//! bookkeeping, not new interleavings.

use std::marker::PhantomData;
use std::sync::Arc;

use wfc_registers::RealProvider;

use crate::cell::WriteOnce;
use crate::triple::{triple_buffer_each, TriplePublisher, TripleSubscriber};

/// A write-once slot for an arbitrary `Send` payload: the boxed
/// counterpart of [`WriteOnce`], used for pool result slots.
pub struct ResultCell<T: Send> {
    cell: WriteOnce<usize, RealProvider>,
    _owns: PhantomData<T>,
}

// Safety: the cell transfers ownership of a `Box<T>` between threads;
// that is exactly `T: Send`. No `&T` is ever shared, so no `Sync` bound
// on `T` is needed.
unsafe impl<T: Send> Send for ResultCell<T> {}
unsafe impl<T: Send> Sync for ResultCell<T> {}

impl<T: Send> ResultCell<T> {
    /// Creates an empty cell.
    pub fn new() -> ResultCell<T> {
        ResultCell {
            // 0 is never a `Box` address, so the placeholder is inert.
            cell: WriteOnce::new(0),
            _owns: PhantomData,
        }
    }

    /// Stores the cell's value, boxing it. Panics if already set, like
    /// [`WriteOnce::set`].
    pub fn set(&self, value: T) {
        self.cell.set(Box::into_raw(Box::new(value)) as usize);
    }

    /// Takes the value if set and not yet taken; exactly one racing
    /// taker receives it.
    pub fn take(&self) -> Option<T> {
        // Safety: this pointer came from `Box::into_raw` in `set`, and
        // the write-once cell yields it to exactly one taker.
        self.cell
            .take()
            .map(|p| *unsafe { Box::from_raw(p as *mut T) })
    }

    /// Whether a value is currently available to take.
    pub fn is_full(&self) -> bool {
        self.cell.is_full()
    }
}

impl<T: Send> Default for ResultCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> Drop for ResultCell<T> {
    fn drop(&mut self) {
        // Reclaim an un-taken value; `&mut self` excludes racing takers.
        drop(self.take());
    }
}

impl<T: Send> std::fmt::Debug for ResultCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCell")
            .field("full", &self.is_full())
            .finish()
    }
}

/// Frees the triple buffer's three permanent allocations when the last
/// snapshot handle drops.
struct SnapDrop<T: Send> {
    ptrs: [usize; 3],
    _owns: PhantomData<T>,
}

// Safety: `SnapDrop` only carries ownership of three `T`s to whichever
// thread drops the last handle.
unsafe impl<T: Send> Send for SnapDrop<T> {}
unsafe impl<T: Send> Sync for SnapDrop<T> {}

impl<T: Send> Drop for SnapDrop<T> {
    fn drop(&mut self) {
        for &p in &self.ptrs {
            // Safety: the three pointers were created by `Box::into_raw`
            // in `snapshot` and never freed elsewhere; both handles are
            // gone (this is the last `Arc` drop), so nothing aliases.
            drop(unsafe { Box::from_raw(p as *mut T) });
        }
    }
}

/// The writing half of a boxed snapshot pair; see [`snapshot`].
pub struct SnapshotPublisher<T: Send> {
    inner: TriplePublisher<usize, RealProvider>,
    _drop: Arc<SnapDrop<T>>,
}

/// The reading half of a boxed snapshot pair; see [`snapshot`].
pub struct SnapshotSubscriber<T: Send> {
    inner: TripleSubscriber<usize, RealProvider>,
    _drop: Arc<SnapDrop<T>>,
}

/// Builds a wait-free snapshot channel for a non-`Copy` state `T`: the
/// boxed counterpart of [`crate::triple_buffer`], used for span-batch
/// publication. `make` is called three times to seed the three buffers
/// (they must be distinct allocations, hence a factory rather than a
/// `Clone` value).
pub fn snapshot<T: Send>(
    mut make: impl FnMut() -> T,
) -> (SnapshotPublisher<T>, SnapshotSubscriber<T>) {
    let ptrs = [
        Box::into_raw(Box::new(make())) as usize,
        Box::into_raw(Box::new(make())) as usize,
        Box::into_raw(Box::new(make())) as usize,
    ];
    let (publisher, subscriber) = triple_buffer_each(ptrs);
    let shared = Arc::new(SnapDrop {
        ptrs,
        _owns: PhantomData,
    });
    (
        SnapshotPublisher {
            inner: publisher,
            _drop: Arc::clone(&shared),
        },
        SnapshotSubscriber {
            inner: subscriber,
            _drop: shared,
        },
    )
}

impl<T: Send> SnapshotPublisher<T> {
    /// Mutates the exclusively-owned back buffer in place, then
    /// publishes it as the new snapshot. Wait-free (one data write and
    /// one swap beyond the caller's own mutation).
    ///
    /// The triple buffer is lossy, so `update` receives whichever of
    /// the three buffers rotated back — **not** necessarily the state
    /// it last published. Callers must rebuild the full state (or keep
    /// it cumulative), not apply a delta.
    pub fn publish_with(&mut self, update: impl FnOnce(&mut T)) {
        let ptr = self.inner.back() as *mut T;
        // Safety: the back pointee is exclusively the publisher's until
        // the `publish` below (triple-buffer permutation invariant).
        update(unsafe { &mut *ptr });
        self.inner.publish(ptr as usize);
    }
}

impl<T: Send> SnapshotSubscriber<T> {
    /// Takes the latest snapshot if one was published since the last
    /// refresh; returns whether it advanced. Wait-free.
    pub fn refresh(&mut self) -> bool {
        self.inner.refresh()
    }

    /// Borrows the current front snapshot. Stable until the next
    /// [`refresh`](Self::refresh).
    pub fn with<R>(&self, read: impl FnOnce(&T) -> R) -> R {
        // Safety: the front pointee is exclusively the subscriber's
        // between refreshes (permutation invariant), so the shared
        // borrow cannot alias a publisher write.
        read(unsafe { &*(self.inner.read() as *const T) })
    }
}

impl<T: Send> std::fmt::Debug for SnapshotPublisher<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPublisher").finish_non_exhaustive()
    }
}

impl<T: Send> std::fmt::Debug for SnapshotSubscriber<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotSubscriber").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn result_cell_round_trips_owned_values() {
        let cell = ResultCell::<String>::new();
        assert_eq!(cell.take(), None);
        cell.set("hello".to_string());
        assert!(cell.is_full());
        assert_eq!(cell.take().as_deref(), Some("hello"));
        assert_eq!(cell.take(), None);
    }

    #[test]
    fn result_cell_drop_frees_untaken_values() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ResultCell::new();
        cell.set(DropCounter(Arc::clone(&drops)));
        drop(cell);
        assert_eq!(drops.load(Ordering::Relaxed), 1, "untaken value reclaimed");
    }

    #[test]
    fn snapshot_publishes_latest_state() {
        let (mut w, mut r) = snapshot(Vec::<u64>::new);
        assert!(!r.refresh());
        r.with(|v| assert!(v.is_empty()));
        w.publish_with(|v| {
            v.clear();
            v.extend([1, 2, 3]);
        });
        assert!(r.refresh());
        r.with(|v| assert_eq!(v, &[1, 2, 3]));
        assert!(!r.refresh(), "freshness consumed");
        r.with(|v| assert_eq!(v, &[1, 2, 3], "front stable without refresh"));
    }

    /// Satellite-3 hammer: cumulative publication (the span-flush
    /// pattern) under a racing reader. Each snapshot the reader sees
    /// must be a consistent prefix `0..len` and lengths must be
    /// monotone; when the writer finishes, the final refresh shows the
    /// complete sequence. No leaks: the three buffers are freed with
    /// the handles.
    #[test]
    fn hammer_snapshot_cumulative_prefixes_are_consistent() {
        const N: u64 = 20_000;
        let (mut w, mut r) = snapshot(Vec::<u64>::new);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut rng = crate::tests::SplitMix64::new(7);
                let mut all: Vec<u64> = Vec::new();
                for i in 0..N {
                    all.push(i);
                    // Cumulative: rebuild the full state every publish,
                    // because the back buffer is not the last published.
                    w.publish_with(|v| {
                        v.clear();
                        v.extend_from_slice(&all);
                    });
                    if rng.next().is_multiple_of(256) {
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(move || {
                let mut last_len = 0;
                while last_len < N as usize {
                    if !r.refresh() {
                        std::thread::yield_now();
                    }
                    let len = r.with(|v| {
                        for (i, &x) in v.iter().enumerate() {
                            assert_eq!(x, i as u64, "snapshot is not a prefix");
                        }
                        v.len()
                    });
                    assert!(len >= last_len, "snapshot length went backwards");
                    last_len = len;
                }
            });
        });
    }
}
