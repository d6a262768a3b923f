//! # `wfc-waitfree` — wait-free primitives for the engine's hot paths
//!
//! The paper this workspace reproduces is about achieving wait-free
//! coordination with registers. This crate applies the same discipline
//! to two of the engine's shared structures: the span collector (once
//! a global `Mutex<Vec<_>>`) publishes through triple buffers, and the
//! explorer pool (once `Mutex<Option<R>>` slots) parks results in
//! write-once cells. Three register-style wait-free primitives, in the
//! spirit of the SRSW→MRSW construction ladder the `wfc-registers`
//! crate builds for the paper itself:
//!
//! * [`spsc`] — a bounded single-producer/single-consumer ring. The
//!   fast path is one acquire load and one release store per operation,
//!   no CAS: with exactly one writer per index cell, plain
//!   publish-by-store suffices (the same single-writer discipline that
//!   lets the paper's constructions avoid stronger objects). No hot
//!   path uses it; it stays as the `ring`/`ring_broken` model-checking
//!   fixture.
//! * [`triple`] — a triple buffer: wait-free single-writer snapshot
//!   publication through a 2-bit swap word. Writer and reader each own
//!   one of three buffers at all times and trade the third through one
//!   atomic `swap` — never blocking, never tearing, at the cost of
//!   lossiness (a reader sees the *latest* snapshot, not every one).
//! * [`cell`] — a write-once result cell: `set`/`take` through a small
//!   state word, replacing mutexed `Option` slots.
//!
//! ## Written twice: the fixture-before-hot-path rule
//!
//! Every primitive is generic over
//! [`CellProvider`](wfc_registers::CellProvider), so the same
//! unmodified algorithm runs twice: over `RealProvider` (plain
//! hardware atomics — the abstraction compiles away) in production,
//! and over the `wfc-sched` shim provider as a model-checking fixture,
//! where exhaustive DFS enumerates every interleaving *before* the
//! primitive is allowed anywhere near a hot path. Each fixture has a
//! planted-bug negative twin (premature tail publication, a torn
//! triple-buffer swap, state-before-payload publication) that the
//! checker must catch with a replayable counterexample — see
//! `wfc-sched`'s fixture library and DESIGN §2.15.
//!
//! ## Non-`Copy` payloads
//!
//! The raw primitives move `Copy` values through
//! [`RawData`](wfc_registers::RawData) slots. Production callers that
//! need owned payloads (span batches, arbitrary pool results) use the
//! [`boxed`] wrappers, which move `Box`es through a
//! `usize`-typed primitive and confine the pointer `unsafe` to one
//! audited module.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod boxed;
pub mod cell;
pub mod spsc;
pub mod triple;

pub use boxed::{snapshot, ResultCell, SnapshotPublisher, SnapshotSubscriber};
pub use cell::WriteOnce;
pub use spsc::{ring, SpscConsumer, SpscProducer, SpscRing};
pub use triple::{triple_buffer, triple_buffer_each, TriplePublisher, TripleSubscriber};

#[cfg(test)]
pub(crate) mod tests {
    /// The workspace's stock seeded generator, for deterministic pacing
    /// jitter in the hammer tests (mirrors the flight-recorder hammers).
    /// A copy of `wfc_spec::prng::SplitMix64`, not a use of it: a
    /// dev-dependency on `wfc-spec` would close the cycle
    /// `wfc-spec → wfc-obs → wfc-waitfree`.
    pub(crate) struct SplitMix64(u64);

    impl SplitMix64 {
        pub(crate) fn new(seed: u64) -> SplitMix64 {
            SplitMix64(seed)
        }

        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}
