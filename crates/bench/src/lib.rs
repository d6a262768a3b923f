//! # `wfc-bench` — experiment report fixtures
//!
//! The shared fixtures of the `report` binary, which regenerates every
//! experiment table recorded in EXPERIMENTS.md (E1–E10, see DESIGN.md
//! §3) and schema-checks run reports with `report --check`. The
//! end-to-end benchmark (`wfc-bench/` at the repository root) reuses
//! [`register_protocols`] for its `check-sweep` workload.

#![warn(missing_docs)]

use std::sync::Arc;

use wfc_consensus::ConsensusSystem;
use wfc_core::{OneUseRecipe, OneUseSource};
use wfc_spec::{canonical, FiniteType};

/// A labelled per-input-vector protocol builder.
pub type LabelledProtocol = (&'static str, fn(&[bool]) -> ConsensusSystem);

/// The register-using consensus protocols of experiment E8, as
/// `(label, builder)` pairs.
pub fn register_protocols() -> Vec<LabelledProtocol> {
    fn tas(i: &[bool]) -> ConsensusSystem {
        wfc_consensus::tas_consensus_system([i[0], i[1]])
    }
    fn queue(i: &[bool]) -> ConsensusSystem {
        wfc_consensus::queue_consensus_system([i[0], i[1]])
    }
    fn fadd(i: &[bool]) -> ConsensusSystem {
        wfc_consensus::fetch_add_consensus_system([i[0], i[1]])
    }
    fn stack(i: &[bool]) -> ConsensusSystem {
        wfc_consensus::stack_consensus_system([i[0], i[1]])
    }
    fn swap(i: &[bool]) -> ConsensusSystem {
        wfc_consensus::swap_consensus_system([i[0], i[1]])
    }
    vec![
        ("tas+regs", tas),
        ("queue+regs", queue),
        ("fetch_add+regs", fadd),
        ("stack+regs", stack),
        ("swap+regs", swap),
    ]
}

/// The one-use-bit substrates of experiment E8, as `(label, source)`.
pub fn substrates() -> Vec<(String, OneUseSource)> {
    let mut out = vec![("T_1u".to_owned(), OneUseSource::OneUseBits)];
    for ty in [
        canonical::test_and_set(2),
        canonical::queue(1, 1, 2),
        canonical::fetch_and_add(2, 2),
        canonical::boolean_register(2),
    ] {
        let ty = Arc::new(ty);
        let recipe = OneUseRecipe::from_type(&ty).expect("zoo types are non-trivial");
        out.push((ty.name().to_owned(), OneUseSource::Recipe(recipe)));
    }
    out
}

/// The non-trivial deterministic types whose witnesses E5/E6 measure.
pub fn witness_types() -> Vec<Arc<FiniteType>> {
    let mut tys: Vec<Arc<FiniteType>> = canonical::deterministic_zoo(2)
        .into_iter()
        .filter(|t| !matches!(t.name(), "mute" | "constant_responder"))
        .map(Arc::new)
        .collect();
    for m in [1, 2, 4, 8, 16] {
        tys.push(Arc::new(canonical::marked_ring(m)));
    }
    tys
}
