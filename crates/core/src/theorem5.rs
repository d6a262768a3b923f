//! Theorem 5, end to end: `h_m(T) = h_m^r(T)` for deterministic types.
//!
//! The paper's proof is a case analysis; this module makes each case
//! executable for concrete types and protocols:
//!
//! 1. **`T` deterministic and trivial** — objects of `T` are locally
//!    simulable, so registers+`T` is no stronger than registers alone,
//!    and registers cannot solve 2-process consensus \[4,7,14\]:
//!    `h_m^r(T) = 1 = h_m(T)`. [`classify_deterministic`] detects this
//!    case.
//! 2. **`T` deterministic and non-trivial** — run the register
//!    eliminator with one-use bits implemented from `T`
//!    ([`OneUseSource::Recipe`]); re-verify the output. This is
//!    [`check_theorem5`], or [`check_theorem5_on`] for a protocol pass
//!    that is already explored.
//! 3. **`h_m(T) ≥ 2`** — one-use bits come from a 2-process consensus
//!    object implemented from `T` (Section 5.3); realised at runtime by
//!    [`crate::one_use_from_consensus`], which works even for
//!    nondeterministic `T`.
//!
//! A [`Theorem5Certificate`] packages the evidence: the access bounds
//! that sized the arrays, the bit count, and the model-checking verdicts
//! before and after elimination.

use std::sync::Arc;

use wfc_consensus::{
    explore_protocol, ConsensusSystem, ProtocolRuns, ProtocolVerdict, TreeVerdict,
};
use wfc_explorer::{explore, ExploreOptions};
use wfc_spec::triviality::is_trivial;
use wfc_spec::FiniteType;

use crate::access_bounds::AccessBounds;
use crate::error::{DeriveError, TransformError};
use crate::recipe::OneUseRecipe;
use crate::transform::{eliminate_registers, OneUseSource};

/// The case of Theorem 5's proof that applies to a deterministic type.
#[derive(Clone, Debug)]
pub enum Theorem5Classification {
    /// Case 1: the type is trivial; `h_m^r(T) = h_m(T) = 1`.
    Trivial,
    /// Case 2: the type is non-trivial; the recipe implements one-use
    /// bits from it, so registers can be eliminated.
    NonTrivial(OneUseRecipe),
}

/// Classifies a deterministic type into Theorem 5's first two cases.
///
/// # Errors
///
/// Returns [`DeriveError::Analysis`] for nondeterministic types (those
/// are Theorem 5's third case, `h_m(T) ≥ 2`, which needs a consensus
/// implementation rather than a witness — see
/// [`crate::one_use_from_consensus`]).
pub fn classify_deterministic(ty: &Arc<FiniteType>) -> Result<Theorem5Classification, DeriveError> {
    if is_trivial(ty)? {
        return Ok(Theorem5Classification::Trivial);
    }
    Ok(Theorem5Classification::NonTrivial(OneUseRecipe::from_type(
        ty,
    )?))
}

/// The evidence produced by [`check_theorem5`].
#[derive(Clone, Debug)]
pub struct Theorem5Certificate {
    /// Section 4.2 access bounds of the input implementation.
    pub bounds: AccessBounds,
    /// One-use bits allocated by the Section 4.3 replacement.
    pub one_use_bits: usize,
    /// Model-checking verdict of the original (register-using) system.
    pub before: ProtocolVerdict,
    /// Model-checking verdict of the register-free system.
    pub after: ProtocolVerdict,
}

impl Theorem5Certificate {
    /// `true` when both systems are correct wait-free consensus — i.e.
    /// the elimination preserved correctness, witnessing
    /// `h_m^r ≤ h_m` for this implementation.
    pub fn holds(&self) -> bool {
        self.before.holds() && self.after.holds()
    }
}

/// Runs the full Theorem 5 pipeline on a consensus protocol builder:
/// one pass over all `2^n` input vectors ([`explore_protocol`]) gives
/// the access bounds (Section 4.2) and the verdict before elimination;
/// [`check_theorem5_on`] then eliminates the registers (Sections 4.3 +
/// 5) and re-verifies.
///
/// # Errors
///
/// Propagates analysis, transformation and exploration failures.
pub fn check_theorem5(
    n: usize,
    build: impl Fn(&[bool]) -> ConsensusSystem + Sync,
    source: &OneUseSource,
    opts: &ExploreOptions,
) -> Result<Theorem5Certificate, TransformError> {
    let runs = explore_protocol(n, build, opts)?;
    let bounds = AccessBounds::from_runs(&runs);
    check_theorem5_on(&runs, &bounds, source, opts)
}

/// Theorem 5 on a finished protocol pass whose access bounds are
/// `bounds` (as [`AccessBounds::from_runs`] reads them): eliminates the
/// registers from the systems the pass already built, and re-verifies
/// the results over all `2^n` input vectors.
///
/// # Errors
///
/// Propagates transformation and exploration failures, the first in
/// [`wfc_consensus::binary_input_vectors`] order.
pub fn check_theorem5_on(
    runs: &ProtocolRuns,
    bounds: &AccessBounds,
    source: &OneUseSource,
    opts: &ExploreOptions,
) -> Result<Theorem5Certificate, TransformError> {
    let _span = wfc_obs::span::enter_lazy(opts.obs.spans, "check_theorem5", || {
        format!("n={}", runs.n())
    });
    if opts.obs.metrics {
        wfc_obs::metrics::Registry::global()
            .counter("core.theorem5.checks")
            .add(1);
    }
    let per_tree = runs.map_trees(opts, |tree, inner| -> Result<_, TransformError> {
        let _span = wfc_obs::span::enter_if(
            opts.obs.spans,
            "theorem5.eliminate_and_reverify",
            String::new(),
        );
        let cs = &tree.system;
        let eliminated = eliminate_registers(cs, &bounds.registers, source)?;
        // Structural register-freedom: every annotated register was
        // removed, and only the survivors plus the freshly allocated bit
        // substrate objects remain. (The substrate *type* may itself be
        // a register type — using registers as a generic `T` exercises
        // the machinery — but the protocol's register *objects* are gone.)
        debug_assert_eq!(
            eliminated.system.objects().len(),
            cs.system.objects().len() - cs.registers.len() + eliminated.one_use_bits,
            "output must contain exactly the survivors plus the bit objects"
        );
        let e = explore(&eliminated.system, inner)?;
        Ok((TreeVerdict::of(&tree.inputs, &e), eliminated.one_use_bits))
    });

    // Merge in input-vector order, so the first error wins. The
    // compiler sizes arrays from the shared `bounds`, so every vector
    // allocates the same number of bits.
    let after = per_tree.into_iter().collect::<Result<Vec<_>, _>>()?;
    let one_use_bits = after.first().map_or(0, |&(_, bits)| bits);
    debug_assert!(
        after.iter().all(|&(_, bits)| bits == one_use_bits),
        "bit allocation is input-independent"
    );
    Ok(Theorem5Certificate {
        bounds: bounds.clone(),
        one_use_bits,
        before: runs.verdict(),
        after: ProtocolVerdict::from_trees(after.into_iter().map(|(verdict, _)| verdict)),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use wfc_consensus::{fetch_add_consensus_system, queue_consensus_system, tas_consensus_system};
    use wfc_spec::canonical;

    #[test]
    fn classification_covers_the_zoo() {
        for ty in canonical::deterministic_zoo(2) {
            let expected_trivial = matches!(ty.name(), "mute" | "constant_responder");
            match classify_deterministic(&Arc::new(ty)).unwrap() {
                Theorem5Classification::Trivial => assert!(expected_trivial),
                Theorem5Classification::NonTrivial(_) => assert!(!expected_trivial),
            }
        }
    }

    #[test]
    fn nondeterministic_types_are_deferred_to_case_three() {
        let oub = Arc::new(canonical::one_use_bit());
        assert!(classify_deterministic(&oub).is_err());
    }

    /// Section 4.3 in isolation: replace the TAS protocol's registers
    /// with native one-use bits; the protocol must remain correct.
    #[test]
    fn tas_protocol_survives_one_use_bit_replacement() {
        let cert = check_theorem5(
            2,
            |i| tas_consensus_system([i[0], i[1]]),
            &OneUseSource::OneUseBits,
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(cert.holds(), "{cert:?}");
        // Each announce register: r_b = w_b = 1 → 1·(1+1) = 2 bits; two
        // registers → 4 bits (the paper's r·(w+1) formula).
        assert_eq!(cert.one_use_bits, 4);
        assert!(
            cert.after.d_max > cert.before.d_max,
            "inlined subroutines lengthen executions"
        );
    }

    /// The full Theorem 5 pipeline: a TAS+registers consensus becomes a
    /// TAS-only consensus (one-use bits are implemented from TAS itself),
    /// witnessing h_m(TAS) ≥ 2 without registers.
    #[test]
    fn tas_consensus_becomes_register_free_tas_only() {
        let tas = Arc::new(canonical::test_and_set(2));
        let recipe = OneUseRecipe::from_type(&tas).unwrap();
        let cert = check_theorem5(
            2,
            |i| tas_consensus_system([i[0], i[1]]),
            &OneUseSource::Recipe(recipe),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(cert.holds(), "{cert:?}");
        // Verify the output object inventory: TAS only.
        let cs = tas_consensus_system([true, false]);
        let eliminated = crate::transform::eliminate_registers(
            &cs,
            &cert.bounds.registers,
            &OneUseSource::Recipe(OneUseRecipe::from_type(&tas).unwrap()),
        )
        .unwrap();
        assert!(eliminated
            .system
            .objects()
            .iter()
            .all(|o| o.ty().name() == "test_and_set"));
    }

    /// Cross-type elimination: the queue protocol's registers implemented
    /// from fetch-and-add objects — any non-trivial deterministic type
    /// serves as the bit substrate.
    #[test]
    fn queue_consensus_with_fetch_add_bits() {
        let fa = Arc::new(canonical::fetch_and_add(2, 2));
        let recipe = OneUseRecipe::from_type(&fa).unwrap();
        let cert = check_theorem5(
            2,
            |i| queue_consensus_system([i[0], i[1]]),
            &OneUseSource::Recipe(recipe),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(cert.holds(), "{cert:?}");
    }

    static BUILDS: AtomicUsize = AtomicUsize::new(0);

    fn counting_cas_announce(inputs: &[bool]) -> ConsensusSystem {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        wfc_consensus::cas_announce_consensus_system(inputs)
    }

    /// Three processes, six SRSW registers: the compiler scales beyond
    /// the two-process case, and the output — CAS plus one-use bits —
    /// still solves 3-process consensus on every schedule of every
    /// input vector. The bounds, the verdict before elimination and the
    /// elimination all read one pass, so each of the 2^3 systems is
    /// built once (only this test builds with the counting builder).
    #[test]
    fn three_process_cas_announce_survives_elimination() {
        let cert = check_theorem5(
            3,
            counting_cas_announce,
            &OneUseSource::OneUseBits,
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(cert.holds(), "{cert:?}");
        // Six registers, each read ≤ 1 and written ≤ 1 time → 12 bits.
        assert_eq!(cert.one_use_bits, 12);
        assert_eq!(cert.bounds.depth_per_tree.len(), 8, "2^3 trees");
        assert_eq!(BUILDS.load(Ordering::Relaxed), 8, "one build per tree");
    }

    /// Ablation: the paper's generic `r_b = w_b = D` sizing also works —
    /// larger arrays are merely wasteful (60 bits instead of 4) — which
    /// isolates the value of computing exact per-register bounds.
    #[test]
    fn paper_uniform_sizing_is_correct_but_wasteful() {
        let opts = ExploreOptions::default();
        let bounds =
            crate::access_bounds::access_bounds(2, |i| tas_consensus_system([i[0], i[1]]), &opts)
                .unwrap();
        let uniform = bounds.paper_uniform();
        let d = bounds.d_max as u32;
        assert!(uniform.iter().all(|r| r.reads == d && r.writes == d));
        let cs = tas_consensus_system([true, false]);
        let exact = eliminate_registers(&cs, &bounds.registers, &OneUseSource::OneUseBits).unwrap();
        let wasteful = eliminate_registers(&cs, &uniform, &OneUseSource::OneUseBits).unwrap();
        assert_eq!(exact.one_use_bits, 4);
        assert_eq!(wasteful.one_use_bits, 2 * (d as usize) * (d as usize + 1)); // 60
                                                                                // Both systems remain correct consensus on this input vector.
        for system in [&exact.system, &wasteful.system] {
            let e = explore(system, &opts).unwrap();
            assert!(e.decisions_agree());
            assert!(e.decisions_within(&[0, 1]));
        }
    }

    #[test]
    fn fetch_add_consensus_survives_elimination() {
        let cert = check_theorem5(
            2,
            |i| fetch_add_consensus_system([i[0], i[1]]),
            &OneUseSource::OneUseBits,
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(cert.holds(), "{cert:?}");
    }
}
