//! `wfc-sched`: a deterministic schedule-exploration model checker for
//! the repo's concrete register implementations.
//!
//! The crate runs real implementation code — the seqlock SRSW register,
//! the Section 4.3 bounded bit over one-use bits, the MRSW
//! constructions — under a cooperative scheduler that controls every
//! interleaving of shared-memory accesses. Implementations participate
//! through the [`wfc_registers::CellProvider`] abstraction: in
//! production they run on [`wfc_registers::RealProvider`] (plain
//! hardware atomics, zero overhead); under the checker they run on
//! [`SchedProvider`], whose cells yield to the scheduler at every
//! access.
//!
//! Three exploration strategies live behind one [`SchedOptions`]:
//!
//! * **exhaustive DFS** with optional sleep-set pruning of commuting
//!   access pairs (sound for history checking because every [`OpLog`]
//!   stamp is itself a scheduler event — see [`crate::log`'s
//!   module docs](OpLog)),
//! * **iterative preemption bounding** (≤ k preemptions, k rising),
//! * **PCT-style random walks** seeded from the in-repo SplitMix64.
//!
//! Every run is replayable: a violating execution reports its
//! [`Schedule`] as a compact base-36 string which [`replay`] (or
//! `wfc sched <target> replay=…`) re-executes deterministically —
//! replaying the same schedule twice yields byte-identical verdicts.
//!
//! ```
//! use wfc_sched::{explore, fixtures, Mode, SchedOptions};
//!
//! // Exhaustively check the planted-bug register: a torn two-word
//! // write with no seqlock validation. The checker finds a torn read
//! // and hands back the schedule that produces it.
//! let options = SchedOptions::default().with_mode(Mode::Exhaustive { sleep_sets: true });
//! let mut build = fixtures::build("broken").unwrap();
//! let found = explore(&options, &mut build).unwrap();
//! let cx = found.counterexample.expect("the planted bug is found");
//! assert!(cx.message.contains("torn read"));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod exec;
pub mod explore;
mod fiber;
pub mod fixtures;
mod log;
pub mod query;
mod schedule;
mod shim;

pub use exec::{Access, AccessKind, Execution};
pub use explore::{
    explore, replay, Counterexample, Exploration, Mode, Replayed, SchedError, SchedOptions,
};
pub use log::{render_history, OpLog};
pub use query::{SchedSpec, SpecMode};
pub use schedule::Schedule;
pub use shim::{AtomicBool, AtomicUsize, Cell, Data, SchedProvider};
