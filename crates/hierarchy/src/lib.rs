//! # `wfc-hierarchy` — Jayanti's four wait-free hierarchies, certified
//!
//! The paper's results live in the landscape of Jayanti's hierarchies
//! `h_1`, `h_1^r`, `h_m`, `h_m^r` (Section 2.3). This crate makes that
//! landscape concrete:
//!
//! * [`Hierarchy`], [`Level`], [`HierarchyValue`] — evidence-carrying
//!   hierarchy positions (checked lower bounds, checked-or-cited upper
//!   bounds).
//! * [`catalog`] — certified values for the canonical type zoo. Scanning
//!   the `h_m` and `h_m^r` columns exhibits the paper's headline:
//!   **they coincide on every deterministic type** (Theorem 5), with the
//!   `h_m ≥ 2` lower bounds witnessed by the register-free protocols the
//!   Theorem 5 compiler produces.
//! * [`verify_entry`] — re-runs the model checks behind every
//!   `Checked` bound.
//! * [`robustness`] — the robustness audit: no construction in this
//!   repository builds a strong type from strictly weaker ones, matching
//!   the corollary (paper Section 6 + \[17\]) that `h_m` is robust for
//!   deterministic types.
//!
//! On Jayanti's separating type: the paper *cites* (from \[9\]) a
//! nondeterministic type with `h_m(T) = 1 < h_m^r(T)` to show its
//! determinism hypothesis is necessary, but does not construct it; that
//! construction belongs to \[9\] and is out of scope here (see DESIGN.md).
//! What this crate checks instead is the paper's own regularity claims
//! over the catalog: determinism ⇒ `h_m = h_m^r`, and agreement of the
//! two hierarchies everywhere above level 1.
//!
//! ## Example
//!
//! ```
//! use wfc_hierarchy::{catalog, Hierarchy, Level};
//!
//! let rows = catalog();
//! for row in &rows {
//!     if row.ty.is_deterministic() {
//!         assert_eq!(
//!             row.value(Hierarchy::HM).exact(),
//!             row.value(Hierarchy::HMR).exact(),
//!             "Theorem 5",
//!         );
//!     }
//! }
//! let cas = rows.iter().find(|r| r.ty.name().starts_with("compare_and_swap")).unwrap();
//! assert_eq!(cas.value(Hierarchy::H1).exact(), Some(Level::Infinite));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod catalog;
pub mod families;
pub mod impossibility;
mod level;
pub mod robustness;
mod sweep;

pub use catalog::{catalog, identity_consensus_system, verify_entry, CatalogEntry};
pub use level::{Evidence, Hierarchy, HierarchyValue, Level};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::CatalogEntry>();
        assert_send_sync::<crate::HierarchyValue>();
    }
}
