//! Random-schedule sampling for systems beyond exhaustive reach.
//!
//! Exhaustive exploration ([`crate::explore`]) is the proof-strength
//! check, but its state space grows exponentially with processes and
//! object sizes. For larger instances this module samples executions
//! under a seeded adversary: at each step it picks a random undecided
//! process (and a random outcome of nondeterministic objects) and runs
//! to termination. Sampling can only *refute* (a violation found is
//! real); it cannot prove. The two modes are complementary, and tests
//! use sampling as a smoke layer where exhaustion is infeasible.
//!
//! Determinism: the same `seed` always produces the same schedules, so
//! failures are reproducible.

use std::collections::BTreeSet;

use wfc_spec::prng::SplitMix64;

use crate::error::ExplorerError;
use crate::system::System;

/// Statistics from a sampling run.
#[derive(Clone, Debug)]
pub struct SampleStats {
    /// Number of complete executions sampled.
    pub executions: usize,
    /// Distinct decision vectors observed.
    pub decisions: BTreeSet<Vec<i64>>,
    /// The longest sampled execution.
    pub max_depth: usize,
    /// Executions that exceeded the step budget (suspected
    /// non-wait-freedom; sampling cannot distinguish "slow" from
    /// "infinite").
    pub timeouts: usize,
}

impl SampleStats {
    /// `true` if every sampled decision vector was constant (agreement
    /// held on every sampled schedule).
    pub fn decisions_agree(&self) -> bool {
        self.decisions
            .iter()
            .all(|v| v.windows(2).all(|w| w[0] == w[1]))
    }

    /// `true` if every sampled decision was in `allowed`.
    pub fn decisions_within(&self, allowed: &[i64]) -> bool {
        self.decisions
            .iter()
            .all(|v| v.iter().all(|d| allowed.contains(d)))
    }
}

/// Samples `executions` random schedules of `system`, each bounded by
/// `max_steps` shared accesses.
///
/// # Errors
///
/// Returns [`ExplorerError`] on malformed programs (the same errors the
/// exhaustive explorer reports).
pub fn sample_executions(
    system: &System,
    executions: usize,
    max_steps: usize,
    seed: u64,
) -> Result<SampleStats, ExplorerError> {
    let mut rng = SplitMix64::new(seed);
    let mut stats = SampleStats {
        executions: 0,
        decisions: BTreeSet::new(),
        max_depth: 0,
        timeouts: 0,
    };
    let mut children = Vec::new();
    for _ in 0..executions {
        let mut cfg = system.initial_config()?;
        let width = cfg.row.len();
        let mut steps = 0usize;
        loop {
            if cfg.is_terminal() {
                stats.executions += 1;
                stats.max_depth = stats.max_depth.max(steps);
                stats.decisions.insert(cfg.decisions());
                break;
            }
            if steps >= max_steps {
                stats.timeouts += 1;
                break;
            }
            // Pick a random undecided process.
            let undecided: Vec<usize> = (0..system.processes())
                .filter(|&p| cfg.decided(p).is_none())
                .collect();
            let p = undecided[rng.gen_range(0, undecided.len())];
            children.clear();
            let n = system.step_into(cfg.row(), p, &mut children)?;
            debug_assert!(n > 0, "undecided process can step");
            let pick = rng.gen_range(0, n);
            cfg.row
                .copy_from_slice(&children[pick * width..(pick + 1) * width]);
            steps += 1;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreOptions};
    use crate::program::{BinOp, ProgramBuilder};
    use crate::system::ObjectInstance;
    use std::sync::Arc;
    use wfc_spec::canonical;

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
    fn sampling_is_deterministic_per_seed() {
        let sys = tas_race();
        let a = sample_executions(&sys, 50, 100, 42).unwrap();
        let b = sample_executions(&sys, 50, 100, 42).unwrap();
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.max_depth, b.max_depth);
    }

    #[test]
    fn sampling_covers_what_exhaustion_finds_on_small_systems() {
        let sys = tas_race();
        let sampled = sample_executions(&sys, 200, 100, 7).unwrap();
        let exhaustive = explore(&sys, &ExploreOptions::default()).unwrap();
        // Sampled decisions ⊆ exhaustive; with 200 samples of a 2-schedule
        // system, equality in practice.
        assert!(sampled.decisions.is_subset(&exhaustive.decisions));
        assert_eq!(sampled.decisions, exhaustive.decisions);
        assert_eq!(sampled.max_depth, exhaustive.depth);
        assert_eq!(sampled.timeouts, 0);
    }

    #[test]
    fn spin_loops_time_out_instead_of_hanging() {
        let reg = Arc::new(canonical::boolean_register(2));
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap();
        let r1 = reg.response_id("1").unwrap();
        let obj = ObjectInstance::identity_ports(reg, init, 1);
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let t = b.var("t");
        let top = b.fresh_label();
        b.bind(top);
        b.invoke(0_i64, read.index() as i64, Some(r));
        b.compute(t, r, BinOp::Eq, r1.index() as i64);
        b.jump_if_zero(t, top);
        b.ret(r);
        let sys = System::new(vec![obj], vec![b.build().unwrap()]);
        let stats = sample_executions(&sys, 5, 50, 3).unwrap();
        assert_eq!(stats.timeouts, 5);
        assert_eq!(stats.executions, 0);
    }

    /// Sampling scales where exhaustion is expensive: the 3-process
    /// CAS+announce protocol's full graph has hundreds of configurations
    /// per vector; sampling checks thousands of schedules quickly.
    #[test]
    fn sampling_smokes_larger_protocols() {
        let cs = wfc_consensus_system_for_test();
        let stats = sample_executions(&cs, 500, 200, 11).unwrap();
        assert_eq!(stats.timeouts, 0);
        assert!(stats.decisions_agree());
        assert!(stats.decisions_within(&[0, 1]));
    }

    fn wfc_consensus_system_for_test() -> System {
        // A local 3-process sticky-bit consensus (register-free) to avoid
        // a circular dev-dependency on wfc-consensus.
        let sticky = Arc::new(canonical::sticky_bit(3));
        let bot = sticky.state_id("⊥").unwrap();
        let obj = ObjectInstance::identity_ports(Arc::clone(&sticky), bot, 3);
        let resp0 = sticky.response_id("0").unwrap().index() as i64;
        let programs = (0..3)
            .map(|k| {
                let inv = sticky
                    .invocation_id(if k % 2 == 0 { "write0" } else { "write1" })
                    .unwrap()
                    .index() as i64;
                let mut b = ProgramBuilder::new();
                let r = b.var("r");
                let dec = b.var("dec");
                b.invoke(0_i64, inv, Some(r));
                b.compute(dec, r, BinOp::Sub, resp0);
                b.ret(dec);
                b.build().unwrap()
            })
            .collect();
        System::new(vec![obj], programs)
    }
}
