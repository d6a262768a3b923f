//! Valency analysis of consensus systems (FLP \[6\], Herlihy \[7\]).
//!
//! Theorem 5's first case rests on the classical result that registers
//! alone cannot implement 2-process consensus \[4,7,14\]. The standard proof
//! is a *valency* argument: a configuration is `v`-valent if only the
//! consensus value `v` is reachable from it, and *bivalent* if both values
//! are. Any correct wait-free protocol has a bivalent initial
//! configuration (over some input vector) but registers cannot escape a
//! *critical* (bivalent, all-successors-univalent) configuration, because
//! overlapping reads and writes commute or overwrite.
//!
//! [`analyze_valency`] mechanises the classification for a concrete
//! [`System`]: it computes the valency of every reachable configuration
//! (cycles allowed — the interesting refuted protocols are often not
//! wait-free) and reports bivalent and critical counts. Together with
//! [`crate::explore::explore`], it refutes candidate register-only
//! consensus protocols and exhibits the structure of the impossibility.

use std::collections::BTreeSet;

use crate::error::ExplorerError;
use crate::explore::ExploreOptions;
use crate::graph::ConfigGraph;
use crate::system::System;

/// The valency classification of one system.
#[derive(Clone, Debug)]
pub struct ValencyAnalysis {
    /// Distinct decision values reachable from the initial configuration.
    pub initial_valency: BTreeSet<i64>,
    /// Number of reachable configurations.
    pub configs: usize,
    /// Configurations from which at least two decision values are
    /// reachable.
    pub bivalent: usize,
    /// Configurations from which exactly one decision value is reachable.
    pub univalent: usize,
    /// Configurations from which **no** terminal configuration is
    /// reachable (only possible in non-wait-free systems).
    pub stuck: usize,
    /// Bivalent configurations all of whose successors are univalent:
    /// the *critical* configurations of the FLP/Herlihy argument.
    pub critical: usize,
    /// `true` if the system admits an infinite execution.
    pub has_cycle: bool,
}

impl ValencyAnalysis {
    /// `true` if the initial configuration is bivalent.
    pub fn initially_bivalent(&self) -> bool {
        self.initial_valency.len() >= 2
    }
}

/// Computes the valency of every reachable configuration of `system`.
///
/// A configuration's valency is the set of decision values `v` such that
/// some reachable terminal configuration decides `v` (taking the first
/// process's decision as *the* consensus value — meaningful when the
/// system satisfies agreement; disagreeing terminals contribute all their
/// values).
///
/// Cycles are permitted: valencies are computed by backward fixpoint
/// propagation from terminal configurations.
///
/// # Errors
///
/// Returns [`ExplorerError`] on malformed programs or budget exhaustion.
pub fn analyze_valency(
    system: &System,
    opts: &ExploreOptions,
) -> Result<ValencyAnalysis, ExplorerError> {
    let _span = wfc_obs::span::enter_if(opts.obs.spans, "analyze_valency", String::new());
    if opts.obs.metrics {
        wfc_obs::metrics::Registry::global()
            .counter("explorer.valency_analyses")
            .add(1);
    }
    let graph = ConfigGraph::build(system, opts)?;

    // Enumerate the decision-value universe.
    let mut universe: Vec<i64> = Vec::new();
    for v in graph.terminals() {
        for d in graph.decisions(v) {
            if !universe.contains(&d) {
                universe.push(d);
            }
        }
    }
    assert!(
        universe.len() <= 64,
        "valency analysis supports at most 64 distinct decision values"
    );
    let mask_of = |d: i64| -> u64 { 1u64 << universe.iter().position(|&u| u == d).unwrap() };

    // valency[v] as a bitmask over `universe`; fixpoint over reversed edges.
    let mut valency: Vec<u64> = vec![0; graph.len()];
    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); graph.len()];
    for v in 0..graph.len() {
        for (_, c) in graph.children(v) {
            parents[c].push(v);
        }
    }
    let mut worklist: Vec<usize> = Vec::new();
    for v in graph.terminals() {
        let mut m = 0u64;
        for d in graph.decisions(v) {
            m |= mask_of(d);
        }
        valency[v] = m;
        worklist.push(v);
    }
    while let Some(v) = worklist.pop() {
        let m = valency[v];
        for &p in &parents[v] {
            let merged = valency[p] | m;
            if merged != valency[p] {
                valency[p] = merged;
                worklist.push(p);
            }
        }
    }

    let mut bivalent = 0usize;
    let mut univalent = 0usize;
    let mut stuck = 0usize;
    let mut critical = 0usize;
    for v in 0..graph.len() {
        match valency[v].count_ones() {
            0 => stuck += 1,
            1 => univalent += 1,
            _ => {
                bivalent += 1;
                let all_kids_univalent = graph.children(v).len() > 0
                    && graph.children(v).all(|(_, c)| valency[c].count_ones() == 1);
                if all_kids_univalent {
                    critical += 1;
                }
            }
        }
    }

    let initial_valency = universe
        .iter()
        .enumerate()
        .filter(|&(k, _)| valency[graph.root] & (1 << k) != 0)
        .map(|(_, &d)| d)
        .collect();

    Ok(ValencyAnalysis {
        initial_valency,
        configs: graph.len(),
        bivalent,
        univalent,
        stuck,
        critical,
        has_cycle: graph.has_cycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BinOp, Operand, ProgramBuilder};
    use crate::system::ObjectInstance;
    use std::sync::Arc;
    use wfc_spec::canonical;

    /// The standard 2-process consensus protocol from one TAS object and
    /// two SRSW registers: write own input, TAS, winner takes own value,
    /// loser takes the other's.
    fn tas_consensus(inputs: [i64; 2]) -> System {
        let reg = Arc::new(canonical::boolean_register(2));
        let tas = Arc::new(canonical::test_and_set(2));
        let v0 = reg.state_id("v0").unwrap();
        let unset = tas.state_id("unset").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let write = |v: i64| {
            reg.invocation_id(if v == 0 { "write0" } else { "write1" })
                .unwrap()
                .index() as i64
        };
        let tas_inv = tas.invocation_id("test_and_set").unwrap().index() as i64;
        let resp_of = |name: &str| reg.response_id(name).unwrap().index() as i64;
        // Objects: 0 = reg of process 0, 1 = reg of process 1, 2 = TAS.
        // reg[p] is written by p (port 0) and read by 1-p (port 1).
        let objects = [
            ObjectInstance::new(
                reg.clone(),
                v0,
                vec![
                    Some(wfc_spec::PortId::new(0)),
                    Some(wfc_spec::PortId::new(1)),
                ],
            ),
            ObjectInstance::new(
                reg.clone(),
                v0,
                vec![
                    Some(wfc_spec::PortId::new(1)),
                    Some(wfc_spec::PortId::new(0)),
                ],
            ),
            ObjectInstance::identity_ports(tas, unset, 2),
        ];
        let mk = |me: usize, input: i64| {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            let t = b.var("t");
            let lose = b.fresh_label();
            // Announce own input.
            b.invoke(me as i64, write(input), Some(r));
            // Race on the TAS.
            b.invoke(2_i64, tas_inv, Some(r));
            b.compute(t, r, BinOp::Eq, 0_i64); // r == "0" response index?
            b.jump_if_zero(t, lose);
            b.ret(input);
            b.bind(lose);
            // Read the other's announcement and decide it.
            b.invoke(Operand::Const(1 - me as i64), read, Some(r));
            let is_one = b.var("is_one");
            b.compute(is_one, r, BinOp::Eq, resp_of("1"));
            b.ret(is_one);
            b.build().unwrap()
        };
        System::new(
            vec![objects[0].clone(), objects[1].clone(), objects[2].clone()],
            vec![mk(0, inputs[0]), mk(1, inputs[1])],
        )
    }

    #[test]
    fn mixed_inputs_are_bivalent_for_tas_consensus() {
        let a = analyze_valency(&tas_consensus([0, 1]), &ExploreOptions::default()).unwrap();
        assert!(a.initially_bivalent(), "either process may win the TAS");
        assert!(!a.has_cycle);
        assert!(a.critical >= 1, "the TAS race is the critical point");
        assert_eq!(a.stuck, 0);
    }

    #[test]
    fn equal_inputs_are_univalent() {
        let a = analyze_valency(&tas_consensus([1, 1]), &ExploreOptions::default()).unwrap();
        assert_eq!(a.initial_valency, BTreeSet::from([1]));
        assert_eq!(a.bivalent, 0);
    }

    /// A naive register-only "consensus" (each writes then reads the other;
    /// on conflict keep own value) violates agreement — valency analysis
    /// sees both values, and `explore` shows disagreement.
    #[test]
    fn naive_register_protocol_is_refuted() {
        let reg = Arc::new(canonical::boolean_register(2));
        let v0 = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let objects = vec![
            ObjectInstance::new(
                reg.clone(),
                v0,
                vec![
                    Some(wfc_spec::PortId::new(0)),
                    Some(wfc_spec::PortId::new(1)),
                ],
            ),
            ObjectInstance::new(
                reg.clone(),
                v0,
                vec![
                    Some(wfc_spec::PortId::new(1)),
                    Some(wfc_spec::PortId::new(0)),
                ],
            ),
        ];
        let mk = |me: usize, input: i64| {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            let w = reg
                .invocation_id(if input == 0 { "write0" } else { "write1" })
                .unwrap()
                .index() as i64;
            b.invoke(me as i64, w, Some(r));
            b.invoke(1 - me as i64, read, Some(r));
            // Decide own input regardless: trivially violates agreement.
            b.ret(input);
            b.build().unwrap()
        };
        let sys = System::new(objects, vec![mk(0, 0), mk(1, 1)]);
        let e = crate::explore::explore(&sys, &ExploreOptions::default()).unwrap();
        assert!(!e.decisions_agree(), "naive protocol disagrees");
        let a = analyze_valency(&sys, &ExploreOptions::default()).unwrap();
        assert!(a.initially_bivalent());
        assert_eq!(a.stuck, 0);
    }
}
