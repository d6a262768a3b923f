//! Access bounds in wait-free consensus (paper, Section 4.2).
//!
//! The paper's argument: model all executions of a wait-free consensus
//! implementation as `2^n` trees (one per input vector); wait-freedom
//! plus König's Lemma make every tree finite; hence there is a depth
//! bound `D`, and no object is accessed more than `D` times — in
//! particular every register bit `b` has finite read/write bounds
//! `r_b, w_b`.
//!
//! [`access_bounds`] computes all of this *exactly* for a concrete
//! protocol: per-tree depths, `D`, and per-register `(r_b, w_b)` maxima
//! over every execution of every tree, read off the same pass
//! ([`wfc_consensus::explore_protocol`]) that decides agreement and
//! validity. These bounds are what sizes the one-use-bit arrays in the
//! Theorem 5 compiler ([`crate::transform`]).

pub use wfc_consensus::RegisterBounds;
use wfc_consensus::{explore_protocol, ConsensusSystem, ProtocolRuns};
use wfc_explorer::{ExploreOptions, ExplorerError};

/// The Section 4.2 analysis result for one consensus implementation.
#[derive(Clone, Debug)]
pub struct AccessBounds {
    /// Depth `d` of each of the `2^n` execution trees, in
    /// [`wfc_consensus::binary_input_vectors`] order.
    pub depth_per_tree: Vec<usize>,
    /// The paper's `D`: the maximum depth over all trees.
    pub d_max: usize,
    /// Per-register read/write bounds, maxima over all trees.
    pub registers: Vec<RegisterBounds>,
    /// Total distinct configurations explored across all trees.
    pub total_configs: usize,
}

impl AccessBounds {
    /// The total number of one-use bits the Section 4.3 replacement will
    /// allocate: `Σ_b r_b · (w_b + 1)`.
    pub fn one_use_bits_required(&self) -> usize {
        self.registers
            .iter()
            .map(|r| crate::bounded_bit::cost(r.reads as usize, r.writes as usize))
            .sum()
    }

    /// The paper's generic sizing: it proves only `r_b = w_b = D` and
    /// sizes every array uniformly (Section 4.2 closes with exactly this
    /// choice). Returns bounds with every register widened to `(D, D)` —
    /// the ablation baseline against the exact per-register bounds this
    /// analysis computes. Oversized arrays stay correct; they only waste
    /// one-use bits (`D·(D+1)` per register instead of `r_b·(w_b+1)`).
    pub fn paper_uniform(&self) -> Vec<RegisterBounds> {
        let d = self.d_max as u32;
        self.registers
            .iter()
            .map(|r| RegisterBounds {
                obj: r.obj,
                reads: d,
                writes: d,
            })
            .collect()
    }

    /// Reads the Section 4.2 quantities off a protocol pass: each tree's
    /// depth, `D`, and every register's `(r_b, w_b)` maxima over all
    /// trees, merged in [`wfc_consensus::binary_input_vectors`] order.
    pub fn from_runs(runs: &ProtocolRuns) -> AccessBounds {
        let verdict = runs.verdict();
        let mut registers: Vec<RegisterBounds> = Vec::new();
        for tree in runs.trees() {
            for (k, b) in tree.registers.iter().enumerate() {
                match registers.get_mut(k) {
                    Some(slot) => {
                        debug_assert_eq!(slot.obj, b.obj, "builder must be shape-stable");
                        slot.reads = slot.reads.max(b.reads);
                        slot.writes = slot.writes.max(b.writes);
                    }
                    None => registers.push(*b),
                }
            }
        }
        AccessBounds {
            depth_per_tree: verdict.depth_per_tree,
            d_max: verdict.d_max,
            registers,
            total_configs: verdict.total_configs,
        }
    }
}

/// Computes the paper's Section 4.2 quantities for a consensus protocol
/// given as a per-input-vector builder: [`explore_protocol`], then
/// [`AccessBounds::from_runs`].
///
/// Wait-freedom is verified as a side effect (a non-wait-free protocol
/// has no access bounds; the paper's König argument is exactly this
/// dichotomy).
///
/// # Errors
///
/// Propagates exploration failures, notably
/// [`ExplorerError::NotWaitFree`].
pub fn access_bounds(
    n: usize,
    build: impl Fn(&[bool]) -> ConsensusSystem + Sync,
    opts: &ExploreOptions,
) -> Result<AccessBounds, ExplorerError> {
    explore_protocol(n, build, opts).map(|runs| AccessBounds::from_runs(&runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfc_consensus::{cas_consensus_system, tas_consensus_system};

    #[test]
    fn tas_bounds_match_hand_analysis() {
        let b = access_bounds(
            2,
            |i| tas_consensus_system([i[0], i[1]]),
            &ExploreOptions::default(),
        )
        .unwrap();
        // Every tree: winner takes 2 steps, loser 3 → d = 5 in all four.
        assert_eq!(b.depth_per_tree, vec![5, 5, 5, 5]);
        assert_eq!(b.d_max, 5);
        // Each announce register: written once by its owner, read at most
        // once by the loser.
        assert_eq!(b.registers.len(), 2);
        for r in &b.registers {
            assert_eq!((r.reads, r.writes), (1, 1));
        }
        // Replacement cost: 2 registers × r·(w+1) = 2 × 2 = 4 one-use bits.
        assert_eq!(b.one_use_bits_required(), 4);
    }

    #[test]
    fn register_free_protocols_have_no_register_bounds() {
        let b = access_bounds(2, cas_consensus_system, &ExploreOptions::default()).unwrap();
        assert!(b.registers.is_empty());
        assert_eq!(b.one_use_bits_required(), 0);
        assert_eq!(b.d_max, 2);
    }

    #[test]
    fn depth_grows_with_process_count() {
        let b2 = access_bounds(2, cas_consensus_system, &ExploreOptions::default()).unwrap();
        let b3 = access_bounds(3, cas_consensus_system, &ExploreOptions::default()).unwrap();
        assert!(b3.d_max > b2.d_max);
        assert_eq!(b3.depth_per_tree.len(), 8, "2^3 trees");
    }
}
