//! Crash tolerance of wait-free implementations (paper, Section 1).
//!
//! The paper motivates wait-freedom by fault tolerance: "they tolerate
//! any number of stopping failures". Operationally: from **any**
//! reachable configuration, if an arbitrary subset of processes simply
//! stops taking steps, the survivors still finish on every continuation
//! — and their decisions still satisfy agreement and validity together
//! with any decisions already made.
//!
//! [`check_crash_tolerance`] verifies this exhaustively: it enumerates
//! every reachable configuration, every survivor subset, and every
//! survivor-only continuation. Wait-freedom makes this property *follow*
//! from plain correctness, and the checker confirms it mechanically —
//! and refutes it for blocking protocols, where a crashed process can
//! strand the survivors.

use std::collections::BTreeSet;

use crate::error::ExplorerError;
use crate::explore::ExploreOptions;
use crate::graph::{ConfigGraph, Interner};
use crate::system::System;

/// The result of the exhaustive crash-tolerance check.
#[derive(Clone, Debug)]
pub struct CrashToleranceReport {
    /// Reachable configurations examined.
    pub configs: usize,
    /// (configuration, survivor-set) scenarios explored.
    pub scenarios: usize,
    /// Scenarios in which a survivor could run forever (blocking).
    pub stuck_scenarios: usize,
    /// Scenarios whose survivor decisions broke agreement.
    pub disagreements: usize,
    /// Scenarios whose survivor decisions broke validity.
    pub invalid: usize,
}

impl CrashToleranceReport {
    /// `true` if every crash scenario terminates in agreement and
    /// validity — the paper's fault-tolerance claim for this system.
    pub fn holds(&self) -> bool {
        self.stuck_scenarios == 0 && self.disagreements == 0 && self.invalid == 0
    }
}

/// Exhaustively checks crash tolerance: from every reachable
/// configuration and for every nonempty survivor subset, all
/// survivor-only continuations terminate, and every decision made (by
/// survivors or earlier) agrees and lies in `allowed`.
///
/// # Errors
///
/// Returns [`ExplorerError`] on malformed programs or budget exhaustion.
/// Non-termination of a survivor-only continuation is *not* an error —
/// it is recorded as a stuck scenario (that is the interesting outcome
/// for blocking protocols).
pub fn check_crash_tolerance(
    system: &System,
    allowed: &[i64],
    opts: &ExploreOptions,
) -> Result<CrashToleranceReport, ExplorerError> {
    let graph = ConfigGraph::build(system, opts)?;
    let n = system.processes();

    // Per-configuration scenario checks are independent: fan them across
    // the configured worker pool. Reports are summed, so the merge is
    // order-insensitive; errors are taken in configuration order.
    let nodes: Vec<usize> = (0..graph.len()).collect();
    let per_config = crate::pool::parallel_map(
        opts.effective_threads(),
        &nodes,
        |&v| -> Result<CrashToleranceReport, ExplorerError> {
            let mut partial = CrashToleranceReport {
                configs: 0,
                scenarios: 0,
                stuck_scenarios: 0,
                disagreements: 0,
                invalid: 0,
            };
            // Survivor subsets: every nonempty subset of processes.
            // (Subsets containing decided processes are fine: decided
            // processes take no further steps anyway.)
            for mask in 1..(1u32 << n) {
                let survivors: Vec<usize> = (0..n).filter(|p| mask & (1 << p) != 0).collect();
                partial.scenarios += 1;
                let (stuck, decision_sets) =
                    survivor_outcomes(system, graph.row(v), &survivors, opts)?;
                if stuck {
                    partial.stuck_scenarios += 1;
                }
                for decisions in decision_sets {
                    let mut agreed: Option<i64> = None;
                    for d in decisions {
                        if !allowed.contains(&d) {
                            partial.invalid += 1;
                            break;
                        }
                        match agreed {
                            None => agreed = Some(d),
                            Some(a) if a != d => {
                                partial.disagreements += 1;
                                break;
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
            Ok(partial)
        },
    );

    let mut report = CrashToleranceReport {
        configs: graph.len(),
        scenarios: 0,
        stuck_scenarios: 0,
        disagreements: 0,
        invalid: 0,
    };
    for partial in per_config {
        let partial = partial?;
        report.scenarios += partial.scenarios;
        report.stuck_scenarios += partial.stuck_scenarios;
        report.disagreements += partial.disagreements;
        report.invalid += partial.invalid;
    }
    Ok(report)
}

/// Explores survivor-only continuations from the packed row `start`.
/// Returns whether a cycle exists (a survivor can run forever) and the
/// set of decision multisets at survivor-terminal configurations
/// (decisions of *all* processes that have decided, crashed ones
/// included).
///
/// The survivor-only subgraph is discovered depth first into an
/// [`Interner`], recording each node's children; the cycle check then
/// runs over those recorded edges without stepping again.
fn survivor_outcomes(
    system: &System,
    start: &[i64],
    survivors: &[usize],
    opts: &ExploreOptions,
) -> Result<(bool, BTreeSet<Vec<i64>>), ExplorerError> {
    let layout = system.layout();
    let width = start.len();
    let mut outcomes = BTreeSet::new();
    let mut seen = Interner::new(width);
    seen.intern(start);
    // Node `v`'s children are `edges[spans[v].0..spans[v].1]`.
    let mut spans: Vec<(usize, usize)> = vec![(0, 0)];
    let mut edges: Vec<usize> = Vec::new();
    let mut stack = vec![0usize];
    let mut row = vec![0; width];
    let mut kids: Vec<i64> = Vec::new();
    let mut decisions = Vec::new();
    let mut pops = 0u64;
    while let Some(v) = stack.pop() {
        let progress = wfc_spec::control::Progress {
            configs: seen.len() as u64,
            ..Default::default()
        };
        if opts.cancel.is_cancelled() {
            progress.record();
            return Err(ExplorerError::Cancelled { progress });
        }
        // Clock reads dominate a pop; amortize the deadline poll.
        if pops & 0xFF == 0 {
            if let Some(e) = opts.budget.wall_exceeded(progress) {
                return Err(ExplorerError::Exhausted(e));
            }
        }
        pops += 1;
        if let Some(e) = opts.budget.configs_exceeded(seen.len() as u64, progress) {
            return Err(ExplorerError::Exhausted(e));
        }
        row.copy_from_slice(seen.row(v));
        kids.clear();
        let mut count = 0;
        for &p in survivors {
            count += system.step_into(&row, p, &mut kids)?;
        }
        let first = edges.len();
        for k in 0..count {
            let (id, new) = seen.intern(&kids[k * width..(k + 1) * width]);
            if new {
                spans.push((0, 0));
                stack.push(id);
            }
            edges.push(id);
        }
        spans[v] = (first, edges.len());
        if count == 0 {
            // Survivor-terminal: all survivors decided. Collect every
            // decision made so far (crashed processes may have decided
            // before crashing).
            layout.decisions_into(&row, &mut decisions);
            if !outcomes.contains(&decisions) {
                outcomes.insert(decisions.clone());
            }
        }
    }
    // A survivor can run forever iff a cycle is reachable from `start`
    // in the survivor-only subgraph: colour DFS (0 white, 1 grey, 2
    // black) over the recorded edges.
    let mut colour = vec![0u8; seen.len()];
    colour[0] = 1;
    let mut dfs = vec![(0usize, spans[0].0)];
    let mut stuck = false;
    while let Some(&(v, next)) = dfs.last() {
        if next < spans[v].1 {
            dfs.last_mut().expect("non-empty").1 += 1;
            let c = edges[next];
            match colour[c] {
                0 => {
                    colour[c] = 1;
                    dfs.push((c, spans[c].0));
                }
                1 => {
                    stuck = true;
                    break;
                }
                _ => {}
            }
        } else {
            colour[v] = 2;
            dfs.pop();
        }
    }
    Ok((stuck, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BinOp, Operand, ProgramBuilder};
    use crate::system::ObjectInstance;
    use std::sync::Arc;
    use wfc_spec::canonical;

    /// Two processes race on a TAS and decide the response: wait-free,
    /// hence crash-tolerant.
    fn tas_race() -> System {
        let tas = Arc::new(canonical::test_and_set(2));
        let init = tas.state_id("unset").unwrap();
        let inv = tas.invocation_id("test_and_set").unwrap().index() as i64;
        let obj = ObjectInstance::identity_ports(tas, init, 2);
        let mk = || {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, inv, Some(r));
            b.ret(r);
            b.build().unwrap()
        };
        System::new(vec![obj], vec![mk(), mk()])
    }

    #[test]
    fn wait_free_race_never_blocks_under_crashes() {
        // The raw race is not a consensus protocol (winner decides 0,
        // loser 1 — "disagreement" is by design), but wait-freedom means
        // no crash can ever strand a survivor.
        let report =
            check_crash_tolerance(&tas_race(), &[0, 1], &ExploreOptions::default()).unwrap();
        assert!(report.scenarios > 0);
        assert_eq!(report.stuck_scenarios, 0, "{report:?}");
        assert_eq!(report.invalid, 0);
    }

    /// A blocking protocol: process 1 spins until process 0 raises a
    /// flag. If process 0 crashes first, process 1 is stuck — the checker
    /// must report it.
    #[test]
    fn blocking_protocol_is_caught() {
        let reg = Arc::new(canonical::boolean_register(2));
        let v0 = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let write1 = reg.invocation_id("write1").unwrap().index() as i64;
        let r1 = reg.response_id("1").unwrap().index() as i64;
        let obj = ObjectInstance::identity_ports(reg, v0, 2);
        let flagger = {
            let mut b = ProgramBuilder::new();
            b.invoke(0_i64, write1, None);
            b.ret(0_i64);
            b.build().unwrap()
        };
        let spinner = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            let t = b.var("t");
            let top = b.fresh_label();
            b.bind(top);
            b.invoke(0_i64, read, Some(r));
            b.compute(t, r, BinOp::Eq, Operand::Const(r1));
            b.jump_if_zero(t, top);
            b.ret(0_i64);
            b.build().unwrap()
        };
        let sys = System::new(vec![obj], vec![flagger, spinner]);
        let report = check_crash_tolerance(&sys, &[0], &ExploreOptions::default()).unwrap();
        assert!(!report.holds());
        assert!(report.stuck_scenarios > 0, "{report:?}");
    }

    /// The full TAS+registers consensus protocol is crash-tolerant —
    /// the paper's fault-tolerance motivation, machine-checked.
    #[test]
    fn consensus_protocol_is_crash_tolerant() {
        // Reuse the bivalence test fixture shape: inline a minimal copy.
        let reg = Arc::new(canonical::boolean_register(2));
        let tas = Arc::new(canonical::test_and_set(2));
        let v0 = reg.state_id("v0").unwrap();
        let unset = tas.state_id("unset").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let w = |v: bool| {
            reg.invocation_id(if v { "write1" } else { "write0" })
                .unwrap()
                .index() as i64
        };
        let tas_inv = tas.invocation_id("test_and_set").unwrap().index() as i64;
        let announce = |p: usize| {
            let mut ports = vec![None, None];
            ports[p] = Some(wfc_spec::PortId::new(0));
            ports[1 - p] = Some(wfc_spec::PortId::new(1));
            ObjectInstance::new(Arc::clone(&reg), v0, ports)
        };
        let mk = |me: usize, input: bool| {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            let won = b.var("won");
            let lose = b.fresh_label();
            b.invoke(me as i64, w(input), None);
            b.invoke(2_i64, tas_inv, Some(r));
            b.compute(won, r, BinOp::Eq, 0_i64);
            b.jump_if_zero(won, lose);
            b.ret(i64::from(input));
            b.bind(lose);
            b.invoke(1 - me as i64, read, Some(r));
            b.ret(r);
            b.build().unwrap()
        };
        let sys = System::new(
            vec![
                announce(0),
                announce(1),
                ObjectInstance::identity_ports(tas, unset, 2),
            ],
            vec![mk(0, false), mk(1, true)],
        );
        let report = check_crash_tolerance(&sys, &[0, 1], &ExploreOptions::default()).unwrap();
        assert!(report.holds(), "{report:?}");
    }
}
