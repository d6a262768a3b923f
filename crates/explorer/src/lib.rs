//! # `wfc-explorer` — an exhaustive model checker for wait-free systems
//!
//! The substrate behind the paper's execution-tree arguments (Section 4.2
//! of Bazzi–Neiger–Peterson, PODC 1994). Implementations are modelled as
//! [`System`]s: shared objects given by `wfc-spec` finite types plus one
//! deterministic [`Program`](program::Program) per process. The crate then
//! offers:
//!
//! * [`explore`] — enumerate **all** interleavings; verify wait-freedom
//!   (König's Lemma: finite tree ⟺ no cycle), compute the depth bound `D`
//!   and per-object access bounds `r_b`, `w_b`, and collect decision
//!   vectors for agreement/validity checks.
//! * [`linearizability`] — a Wing–Gong linearizability checker and a
//!   whole-system one-shot implementation checker.
//! * [`bivalence`] — FLP/Herlihy valency analysis (bivalent and critical
//!   configurations), used to refute register-only consensus protocols.
//! * [`graph`] — the underlying configuration graph.
//!
//! Programs are a small register-machine bytecode (module [`program`]) so
//! that a configuration packs into one flat `i64` row the explorer can
//! hash and compare as plain words, and — crucially for Theorem 5 — so
//! that `wfc-core`'s register-elimination compiler can rewrite them.
//!
//! ## Example: race two processes on a test-and-set
//!
//! ```
//! use std::sync::Arc;
//! use wfc_explorer::{explore, ExploreOptions, ObjectInstance, System};
//! use wfc_explorer::program::ProgramBuilder;
//! use wfc_spec::canonical;
//!
//! let tas = Arc::new(canonical::test_and_set(2));
//! let init = tas.state_id("unset").unwrap();
//! let inv = tas.invocation_id("test_and_set").unwrap().index() as i64;
//! let obj = ObjectInstance::identity_ports(tas, init, 2);
//! let program = {
//!     let mut b = ProgramBuilder::new();
//!     let r = b.var("r");
//!     b.invoke(0_i64, inv, Some(r));
//!     b.ret(r);
//!     b.build()?
//! };
//! let system = System::new(vec![obj], vec![program.clone(), program]);
//! let result = explore(&system, &ExploreOptions::default())?;
//! assert_eq!(result.depth, 2);
//! assert_eq!(result.decisions.len(), 2); // either process wins
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bivalence;
pub mod crash;
mod error;
mod explore;
pub mod graph;
pub mod linearizability;
pub mod pool;
pub mod program;
mod system;
pub mod trace;

pub use error::{ExplorerError, ProgramError};
pub use explore::{
    explore, find_violation, AccessTable, Budget, CancelToken, Exploration, ExploreOptions,
    ObsOptions, Progress, Violation, Wall,
};
pub use system::{Access, Config, ObjectInstance, System};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::System>();
        assert_send_sync::<crate::Exploration>();
        assert_send_sync::<crate::program::Program>();
    }
}
