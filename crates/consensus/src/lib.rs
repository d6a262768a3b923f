//! # `wfc-consensus` — wait-free consensus protocols and universality
//!
//! The consensus substrate of the reproduction: the classical protocols
//! whose existence the paper leans on, in two parallel renditions.
//!
//! * [`native`](crate::cas_consensus) — real lock-free protocols over
//!   atomics and `wfc-registers` handles: [`cas_consensus`],
//!   [`tas_consensus_2`], [`fetch_add_consensus_2`],
//!   [`queue_consensus_2`], [`sticky_consensus`].
//! * spec protocols — the same protocols as model-checkable
//!   `wfc-explorer` systems, with their register objects annotated for
//!   the Theorem 5 eliminator, plus [`explore_protocol`], one exploration
//!   per input vector, and [`verify_consensus_protocol`], its verdict:
//!   wait-freedom, agreement, validity and Section 4.2's depth bound `D`.
//! * [`UniversalObject`] — Herlihy's universal construction
//!   (Section 2.3): consensus objects + registers implement *any* finite
//!   type, wait-free, via an agreed log with helping.
//!
//! ## Example
//!
//! ```
//! use wfc_consensus::{verify_consensus_protocol, tas_consensus_system};
//! use wfc_explorer::ExploreOptions;
//!
//! let verdict = verify_consensus_protocol(
//!     2,
//!     |i| tas_consensus_system([i[0], i[1]]),
//!     &ExploreOptions::default(),
//! )?;
//! assert!(verdict.holds());
//! assert_eq!(verdict.d_max, 5); // the paper's D for this implementation
//! # Ok::<(), wfc_explorer::ExplorerError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod native;
mod spec_protocols;
mod universal;

pub use native::{
    cas_consensus, fetch_add_consensus_2, queue_consensus_2, sticky_consensus, tas_consensus_2,
    CasProposer, FetchAddProposer, Proposer, QueueProposer, StickyProposer, TasProposer,
};
pub use spec_protocols::{
    binary_input_vectors, cas_announce_consensus_system, cas_consensus_system, explore_protocol,
    fetch_add_consensus_system, mpr2_consensus_system, queue_consensus_system,
    shift2_consensus_system, stack_consensus_system, sticky_consensus_system,
    swap_consensus_system, tas_consensus_system, verify_consensus_protocol, ConsensusSystem,
    ProtocolRuns, ProtocolTree, ProtocolVerdict, RegisterBounds, SrswRegisterInfo, TreeVerdict,
};
pub use universal::{UniversalHandle, UniversalObject};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::CasProposer>();
        assert_send::<crate::UniversalHandle>();
        assert_send::<crate::ConsensusSystem>();
    }
}
