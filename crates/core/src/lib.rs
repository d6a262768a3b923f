//! # `wfc-core` — the contributions of Bazzi–Neiger–Peterson (PODC 1994)
//!
//! This crate implements the paper's own machinery, on top of the
//! substrates in `wfc-spec` / `wfc-explorer` / `wfc-registers` /
//! `wfc-consensus`:
//!
//! | paper | here |
//! |---|---|
//! | §3 the one-use bit `T_{1u}` | [`atomic_one_use_bit`], consuming [`OneUseRead`]/[`OneUseWrite`] capabilities |
//! | §4.2 access bounds via execution trees | [`access_bounds`] (exact `D`, `r_b`, `w_b`) |
//! | §4.3 bounded bit from `r·(w+1)` one-use bits | [`bounded_bit`], [`cost`] |
//! | §5.1–5.2 one-use bits from non-trivial deterministic types | [`OneUseRecipe`] |
//! | §5.3 one-use bits from 2-process consensus | [`one_use_from_consensus`] |
//! | Theorem 5 `h_m = h_m^r` | [`eliminate_registers`], [`check_theorem5`] |
//!
//! ## Example: run the Theorem 5 pipeline
//!
//! ```
//! use std::sync::Arc;
//! use wfc_core::{check_theorem5, OneUseRecipe, OneUseSource};
//! use wfc_consensus::tas_consensus_system;
//! use wfc_explorer::ExploreOptions;
//! use wfc_spec::canonical;
//!
//! // A 2-process consensus from test-and-set *plus registers* …
//! let tas = Arc::new(canonical::test_and_set(2));
//! let recipe = OneUseRecipe::from_type(&tas)?;
//! // … compiled into a register-free, TAS-only implementation and
//! // re-model-checked over every schedule and input vector:
//! let cert = check_theorem5(
//!     2,
//!     |i| tas_consensus_system([i[0], i[1]]),
//!     &OneUseSource::Recipe(recipe),
//!     &ExploreOptions::default(),
//! )?;
//! assert!(cert.holds());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access_bounds;
mod bounded_bit;
mod error;
mod one_use;
mod recipe;
mod theorem5;
mod transform;

pub use access_bounds::{access_bounds, AccessBounds, RegisterBounds};
pub use bounded_bit::{bounded_bit, bounded_bit_with, cost, BoundedBitReader, BoundedBitWriter};
pub use error::{BoundedBitError, DeriveError, TransformError};
pub use one_use::{
    atomic_one_use_bit, AtomicOneUseReader, AtomicOneUseWriter, OneUseRead, OneUseWrite,
};
pub use recipe::{
    one_use_from_consensus, ConsensusOneUseReader, ConsensusOneUseWriter, OneUseRecipe,
    RecipeOneUseReader, RecipeOneUseWriter,
};
pub use theorem5::{
    check_theorem5, check_theorem5_on, classify_deterministic, Theorem5Certificate,
    Theorem5Classification,
};
pub use transform::{eliminate_registers, EliminatedSystem, OneUseSource};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::AtomicOneUseWriter>();
        assert_send::<crate::OneUseRecipe>();
        assert_send::<crate::EliminatedSystem>();
    }
}
