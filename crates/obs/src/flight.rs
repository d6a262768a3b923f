//! The flight recorder: a fixed-capacity, lock-free ring of completed
//! request records, overwritten forever.
//!
//! This is the "black box" of the serving layer: the last `capacity`
//! completed requests are always available for dumping — on demand
//! (the `stats` introspection query) or when an anomaly trips — without
//! the recorder ever allocating, locking, or blocking a writer on the
//! hot path.
//!
//! ## Record shape
//!
//! The recorder is deliberately vocabulary-free: one record is
//! [`RECORD_WORDS`] raw `u64` words. The producing layer packs whatever
//! it wants into them (the service packs request id, kind, disposition,
//! outcome, and per-stage microsecond stamps) and unpacks on read. That
//! keeps this crate dependency-free and the slot size fixed at compile
//! time — no allocation ever happens after construction.
//!
//! ## Memory ordering (per-slot seqlock)
//!
//! Each slot carries a sequence word alongside its data words. A writer
//! claims a ticket `t` with one `fetch_add` on the shared head, picks
//! slot `t % capacity`, and publishes with the classic seqlock dance:
//!
//! 1. claim the slot by moving `seq` from an even value below `2·t + 1`
//!    to `2·t + 1` (odd: "write in progress") with an `Acquire`
//!    compare-and-swap, then a `Release` fence;
//! 2. store the data words (`Relaxed` — each word is itself atomic, so
//!    there is no data race);
//! 3. store `seq = 2·t + 2` (`Release`: orders the data stores before
//!    the even value readers wait for).
//!
//! A reader loads `seq` (`Acquire`), skips odd values, copies the data
//! words, issues an `Acquire` fence, and re-loads `seq`: if the two
//! loads agree the copy is consistent and the slot's ticket is
//! `seq/2 − 1`. Readers never write shared state and never wait — a
//! snapshot is **wait-free** and perturbs writers not at all, which is
//! the same posture as the paper's wait-free register constructions:
//! reads concurrent with writes stay consistent without blocking
//! either side.
//!
//! Two writers meet on one slot when one falls a full ring lap
//! (`capacity` pushes) behind between claiming its ticket and finishing
//! its stores. The claim makes that safe: a slot has at most one writer
//! storing data words at a time, so a published slot always holds one
//! record's words. A writer whose claim finds the slot odd (another
//! writer is mid-write) or already holding a newer ticket drops its
//! record instead of waiting, so `push` never blocks; under such a
//! collision the ring may keep a slightly older record in that slot.
//! Without the claim, a lagging writer's data stores could land inside
//! a newer writer's published record, and a reader would report a
//! record mixed from two pushes.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Fixed number of `u64` data words per record.
pub const RECORD_WORDS: usize = 8;

/// One published record: the push ticket (0-based, monotonically
/// increasing across the recorder's lifetime) and the raw words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// The push ticket: the `ticket`-th record ever pushed.
    pub ticket: u64,
    /// The producer-packed payload.
    pub words: [u64; RECORD_WORDS],
}

struct Slot {
    /// `0` = never written; odd = write in progress; even value `s` =
    /// ticket `s/2 − 1` fully published.
    seq: AtomicU64,
    words: [AtomicU64; RECORD_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-capacity, overwrite-forever ring of [`FlightRecord`]s. See
/// the module docs for the concurrency protocol.
pub struct FlightRecorder {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity.max(1)` records. All
    /// memory is allocated here, once; `push` never allocates.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    /// How many records the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (≥ the number currently retained).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Publishes one record, overwriting the oldest once the ring is
    /// full. Lock-free and allocation-free: one `fetch_add`, a claim on
    /// the slot, and `RECORD_WORDS + 1` plain stores. A record whose
    /// slot is mid-write by another push, or already holds a newer one,
    /// is dropped (see the module docs).
    pub fn push(&self, words: &[u64; RECORD_WORDS]) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let claim = 2 * ticket + 1;
        let mut seq = slot.seq.load(Ordering::Relaxed);
        loop {
            if seq % 2 == 1 || seq > claim {
                return;
            }
            // `Acquire` pairs with the previous writer's `Release`
            // publication, so its data stores are ordered before ours.
            match slot
                .seq
                .compare_exchange_weak(seq, claim, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seq = now,
            }
        }
        fence(Ordering::Release);
        for (word, &value) in slot.words.iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// A wait-free consistent copy of every fully published record,
    /// oldest first. Slots mid-write (or torn by a racing overwrite)
    /// are skipped, never invented; concurrent pushes make the
    /// snapshot a *recent* tail, not a linearization point.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut records = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 || seq % 2 == 1 {
                continue; // never written, or write in progress
            }
            let mut words = [0u64; RECORD_WORDS];
            for (copy, word) in words.iter_mut().zip(&slot.words) {
                *copy = word.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq {
                continue; // torn by a concurrent overwrite
            }
            records.push(FlightRecord {
                ticket: seq / 2 - 1,
                words,
            });
        }
        records.sort_unstable_by_key(|r| r.ticket);
        records
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pattern(ticket: u64) -> [u64; RECORD_WORDS] {
        std::array::from_fn(|i| ticket.wrapping_mul(RECORD_WORDS as u64) + i as u64)
    }

    #[test]
    fn empty_recorder_snapshots_nothing() {
        let ring = FlightRecorder::new(4);
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.recorded(), 0);
        assert!(ring.snapshot().is_empty());
        // Zero capacity clamps to one slot instead of panicking.
        assert_eq!(FlightRecorder::new(0).capacity(), 1);
    }

    #[test]
    fn ring_wraps_and_keeps_exactly_the_newest_records() {
        let ring = FlightRecorder::new(8);
        for t in 0..21u64 {
            ring.push(&pattern(t));
        }
        assert_eq!(ring.recorded(), 21);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8, "a full ring retains exactly capacity");
        let tickets: Vec<u64> = snap.iter().map(|r| r.ticket).collect();
        assert_eq!(tickets, (13..21).collect::<Vec<_>>(), "oldest first");
        for record in &snap {
            assert_eq!(record.words, pattern(record.ticket));
        }
    }

    #[test]
    fn below_capacity_every_record_is_retained() {
        let ring = FlightRecorder::new(16);
        for t in 0..5u64 {
            ring.push(&pattern(t));
        }
        let snap = ring.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.ticket).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn concurrent_pushes_never_yield_torn_records() {
        // Hammer a small ring from several writers while a reader
        // snapshots continuously: every record a snapshot reports must
        // be internally consistent (all words from one ticket).
        let ring = Arc::new(FlightRecorder::new(4));
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 20_000;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for k in 0..PER_WRITER {
                        // Tickets are claimed inside push; the payload
                        // self-identifies via the first word instead.
                        let base = (w as u64) << 32 | k;
                        ring.push(&std::array::from_fn(|i| {
                            base.wrapping_add(i as u64 * 0x1_0000_0001)
                        }));
                    }
                });
            }
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                while ring.recorded() < WRITERS as u64 * PER_WRITER {
                    for record in ring.snapshot() {
                        let base = record.words[0];
                        for (i, &word) in record.words.iter().enumerate() {
                            assert_eq!(
                                word,
                                base.wrapping_add(i as u64 * 0x1_0000_0001),
                                "torn record at ticket {}",
                                record.ticket
                            );
                        }
                    }
                }
            });
        });
        assert_eq!(ring.recorded(), WRITERS as u64 * PER_WRITER);
        assert_eq!(ring.snapshot().len(), 4);
    }
}
