//! A triple buffer: wait-free single-writer snapshot publication.
//!
//! Three buffers, two owners, one atomic word. At every instant the
//! writer exclusively owns one buffer (its *back* buffer, where the
//! next snapshot is composed), the reader exclusively owns one (its
//! *front* buffer, the snapshot it is looking at), and the third sits
//! in the shared `state` word as the *middle* — the most recently
//! published snapshot, in transit between the two. `state` packs the
//! middle buffer's index (2 bits) with a FRESH flag that says the
//! middle has not been read yet.
//!
//! Publishing is `write back buffer; state.swap(back | FRESH)` — the
//! swap simultaneously publishes the new snapshot and hands the old
//! middle back to the writer as its next back buffer. Reading is
//! symmetric: if FRESH is set, `state.swap(front)` trades the reader's
//! stale front for the fresh middle. Both sides complete in a bounded
//! number of steps regardless of what the other is doing — `swap`
//! cannot fail or retry, which is why [`RawAtomicUsize::swap_acq_rel`]
//! exists (a CAS loop in its place would be merely lock-free).
//!
//! **Safety invariant (the permutation argument):** `{front, middle,
//! back}` is a permutation of `{0, 1, 2}` at all times — each swap
//! exchanges a privately-owned index with the middle, which cannot
//! duplicate an index. The writer therefore never writes the buffer
//! the reader is reading, so reads need no validation loop and can
//! never tear. Release/acquire on the swaps carries the buffer
//! contents: the writer's data write is sequenced before its release
//! swap, which the reader's acquire swap observes before it reads.
//!
//! The price of wait-freedom is *lossiness*: if the writer publishes
//! twice between reads, the older snapshot is overwritten. Callers
//! that need every record (not just the latest state) must publish
//! cumulatively — see `wfc_obs::span` for the pattern.

use std::sync::Arc;

use wfc_registers::{CellProvider, RawAtomicUsize, RawData as _};

/// Index mask: which of the three buffers is the middle.
const IDX: usize = 0b011;
/// Set while the middle buffer holds an unread snapshot.
const FRESH: usize = 0b100;

struct TripleShared<T: Copy + Send + 'static, P: CellProvider> {
    bufs: [P::Data<T>; 3],
    state: P::AtomicUsize,
}

/// The writing half; owning it is the single-writer permit.
pub struct TriplePublisher<T: Copy + Send + 'static, P: CellProvider> {
    shared: Arc<TripleShared<T, P>>,
    back: usize,
}

/// The reading half; owning it is the single-reader permit.
pub struct TripleSubscriber<T: Copy + Send + 'static, P: CellProvider> {
    shared: Arc<TripleShared<T, P>>,
    front: usize,
}

/// Builds a triple buffer with all three buffers holding `init` and
/// splits it into its publisher and subscriber handles.
pub fn triple_buffer<T: Copy + Send + 'static, P: CellProvider>(
    init: T,
) -> (TriplePublisher<T, P>, TripleSubscriber<T, P>) {
    triple_buffer_each([init, init, init])
}

/// [`triple_buffer`], but each buffer gets its own initial value —
/// needed when the values must be *distinct*, as with the boxed
/// pointer wrappers in [`crate::boxed`]. Buffer 0 starts as the
/// reader's front, buffer 1 as the middle, buffer 2 as the writer's
/// back.
pub fn triple_buffer_each<T: Copy + Send + 'static, P: CellProvider>(
    init: [T; 3],
) -> (TriplePublisher<T, P>, TripleSubscriber<T, P>) {
    let [front, middle, back] = init;
    let shared = Arc::new(TripleShared {
        bufs: [
            P::Data::new(front),
            P::Data::new(middle),
            P::Data::new(back),
        ],
        state: P::AtomicUsize::new(1), // middle = buffer 1, not fresh
    });
    (
        TriplePublisher {
            shared: Arc::clone(&shared),
            back: 2,
        },
        TripleSubscriber { shared, front: 0 },
    )
}

impl<T: Copy + Send + 'static, P: CellProvider> TriplePublisher<T, P> {
    /// The value currently in the write buffer (the last thing this
    /// publisher wrote there — or an initial value). The write buffer
    /// is exclusively owned, so this is an ordinary read.
    pub fn back(&self) -> T {
        // Safety: only this publisher ever writes `bufs[self.back]`,
        // and `&self` excludes a concurrent `publish`; the permutation
        // invariant keeps the reader away from the back buffer, so no
        // write can overlap this read.
        unsafe { self.shared.bufs[self.back].read_maybe_torn().assume_init() }
    }

    /// Publishes `value` as the new snapshot, replacing any unread
    /// predecessor. Wait-free: one data write and one atomic swap.
    pub fn publish(&mut self, value: T) {
        self.shared.bufs[self.back].write(value);
        let old = self.shared.state.swap_acq_rel(self.back | FRESH);
        self.back = old & IDX;
    }
}

impl<T: Copy + Send + 'static, P: CellProvider> TripleSubscriber<T, P> {
    /// Takes the latest snapshot into the front buffer if one was
    /// published since the last refresh. Returns whether it advanced.
    /// Wait-free: at most one load and one swap.
    pub fn refresh(&mut self) -> bool {
        if self.shared.state.load_acquire() & FRESH == 0 {
            return false;
        }
        // Only this subscriber clears FRESH, so the flag observed above
        // still holds at the swap — whatever middle we receive (the
        // writer may have republished in between) is a fresh snapshot.
        let old = self.shared.state.swap_acq_rel(self.front);
        self.front = old & IDX;
        true
    }

    /// The snapshot in the front buffer. Stable between refreshes: the
    /// writer can never touch the front buffer (permutation
    /// invariant), so two reads without a [`refresh`](Self::refresh)
    /// in between return the same value.
    pub fn read(&self) -> T {
        // Safety: the permutation invariant keeps the writer's back
        // buffer distinct from `self.front` at all times, so no write
        // overlaps this read; the acquire swap in `refresh` ordered
        // the writer's data write before it.
        unsafe { self.shared.bufs[self.front].read_maybe_torn().assume_init() }
    }
}

impl<T: Copy + Send + 'static, P: CellProvider> std::fmt::Debug for TriplePublisher<T, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TriplePublisher")
            .field("back", &self.back)
            .finish_non_exhaustive()
    }
}

impl<T: Copy + Send + 'static, P: CellProvider> std::fmt::Debug for TripleSubscriber<T, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TripleSubscriber")
            .field("front", &self.front)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use wfc_registers::RealProvider;

    use super::*;

    #[test]
    fn latest_snapshot_wins() {
        let (mut w, mut r) = triple_buffer::<u64, RealProvider>(0);
        assert!(!r.refresh(), "nothing published yet");
        assert_eq!(r.read(), 0);
        w.publish(1);
        w.publish(2);
        assert!(r.refresh());
        assert_eq!(r.read(), 2, "lossy: the older snapshot is gone");
        assert!(!r.refresh(), "refresh consumed the freshness");
        assert_eq!(r.read(), 2, "front is stable without a refresh");
    }

    #[test]
    fn alternating_publish_read_sees_everything() {
        let (mut w, mut r) = triple_buffer::<u64, RealProvider>(0);
        for v in 1..=100 {
            w.publish(v);
            assert!(r.refresh());
            assert_eq!(r.read(), v);
        }
    }

    /// The satellite-3 hammer: the writer publishes self-identifying
    /// pairs as fast as it can; the reader asserts every snapshot is
    /// internally consistent (untorn), monotone, and stable across
    /// double-reads — the full atomic-snapshot spec.
    #[test]
    fn hammer_snapshots_are_untorn_monotone_and_stable() {
        const N: u64 = 200_000;
        let pair = |i: u64| (i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (mut w, mut r) = triple_buffer::<(u64, u64), RealProvider>(pair(0));
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut rng = crate::tests::SplitMix64::new(42);
                for i in 1..=N {
                    w.publish(pair(i));
                    if rng.next().is_multiple_of(128) {
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(move || {
                let mut last = 0;
                while last < N {
                    if !r.refresh() {
                        std::thread::yield_now();
                    }
                    let (a, b) = r.read();
                    let again = r.read();
                    assert_eq!((a, b), again, "snapshot changed without a refresh");
                    assert_eq!((a, b), pair(a), "torn snapshot at seq {a}");
                    assert!(a >= last, "snapshot went backwards: {a} after {last}");
                    last = last.max(a);
                }
            });
        });
    }
}
