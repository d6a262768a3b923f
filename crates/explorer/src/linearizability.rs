//! Linearizability checking (Herlihy–Wing \[8\]).
//!
//! An implementation is *correct* if all of its concurrent histories are
//! linearizable with respect to the implemented type's sequential
//! specification (paper, Section 2.2). This module provides a Wing–Gong
//! style checker over [`ConcurrentHistory`] records and a whole-system
//! checker, [`check_one_shot_implementation`], that enumerates every
//! schedule of a [`System`] implementing one operation per process and
//! verifies that each resulting history linearizes.

use std::collections::HashSet;
use std::ops::ControlFlow;

use wfc_spec::{FiniteType, InvId, PortId, RespId, StateId};

use crate::error::ExplorerError;
use crate::system::System;

/// One completed high-level operation in a concurrent history.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OpRecord {
    /// The port of the *implemented* object used by this operation.
    pub port: PortId,
    /// The invocation performed.
    pub inv: InvId,
    /// The response returned.
    pub resp: RespId,
    /// Logical time at which the operation was invoked.
    pub invoked_at: i64,
    /// Logical time at which the operation responded; must be
    /// `>= invoked_at`.
    pub responded_at: i64,
}

impl OpRecord {
    /// `true` if `self` completed strictly before `other` was invoked —
    /// the real-time precedence a linearization must respect.
    pub fn precedes(&self, other: &OpRecord) -> bool {
        self.responded_at < other.invoked_at
    }
}

/// A concurrent history of completed operations on one object.
#[derive(Clone, Debug, Default)]
pub struct ConcurrentHistory {
    ops: Vec<OpRecord>,
}

impl ConcurrentHistory {
    /// Creates a history from completed operation records.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 operations are supplied (the checker uses a
    /// bitmask) or if some operation responds before it is invoked.
    pub fn new(ops: Vec<OpRecord>) -> Self {
        assert!(ops.len() <= 64, "checker supports at most 64 operations");
        assert!(
            ops.iter().all(|o| o.invoked_at <= o.responded_at),
            "operation responds before invocation"
        );
        ConcurrentHistory { ops }
    }

    /// The operation records.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }
}

/// Checks whether `history` is linearizable with respect to `ty` starting
/// from `init`.
///
/// The search explores all orderings consistent with real-time precedence,
/// memoising on (linearized-set, object-state) pairs; worst case
/// `O(2^k · |Q|)` for `k` operations. Nondeterministic types are supported:
/// an operation can be linearized via any outcome matching its response.
pub fn is_linearizable(ty: &FiniteType, init: StateId, history: &ConcurrentHistory) -> bool {
    let ops = history.ops();
    let full: u64 = if ops.len() == 64 {
        u64::MAX
    } else {
        (1u64 << ops.len()) - 1
    };
    let mut visited: HashSet<(u64, StateId)> = HashSet::new();
    let mut stack: Vec<(u64, StateId)> = vec![(0, init)];
    while let Some((done, state)) = stack.pop() {
        if done == full {
            return true;
        }
        if !visited.insert((done, state)) {
            continue;
        }
        for (k, op) in ops.iter().enumerate() {
            if done & (1 << k) != 0 {
                continue;
            }
            // `op` may be linearized next only if no other pending
            // operation completed before `op` was invoked.
            let blocked = ops
                .iter()
                .enumerate()
                .any(|(j, other)| j != k && done & (1 << j) == 0 && other.precedes(op));
            if blocked {
                continue;
            }
            for out in ty.outcomes(state, op.port, op.inv) {
                if out.resp == op.resp {
                    stack.push((done | (1 << k), out.next));
                }
            }
        }
    }
    false
}

/// Description of the high-level operation a process performs against the
/// implemented object, for [`check_one_shot_implementation`].
#[derive(Clone, Copy, Debug)]
pub struct OpLabel {
    /// The port of the implemented object the process holds.
    pub port: PortId,
    /// The invocation of the implemented type the process's program
    /// implements.
    pub inv: InvId,
}

/// The verdict of [`check_one_shot_implementation`].
#[derive(Clone, Debug)]
pub struct ImplementationCheck {
    /// Number of complete schedules (paths) examined.
    pub paths: usize,
    /// Histories that failed to linearize, as (schedule, history) pairs.
    pub counterexamples: Vec<(Vec<usize>, ConcurrentHistory)>,
}

impl ImplementationCheck {
    /// `true` if every schedule produced a linearizable history.
    pub fn holds(&self) -> bool {
        self.counterexamples.is_empty()
    }
}

/// Collects the high-level concurrent history of **every** schedule of a
/// one-shot implementation system: each process runs a program
/// implementing one operation (described by `labels`) and decides that
/// operation's response index.
///
/// This is the raw material for consistency checking under conditions
/// other than linearizability — e.g. the *regularity* of Lamport's
/// multi-reader bit (Section 4.1), which tolerates new/old inversion.
///
/// # Errors
///
/// Returns an error on malformed programs or when more than `max_paths`
/// schedules exist.
pub fn collect_histories(
    system: &System,
    labels: &[OpLabel],
    max_paths: usize,
) -> Result<Vec<(Vec<usize>, ConcurrentHistory)>, ExplorerError> {
    assert_eq!(
        labels.len(),
        system.processes(),
        "one label per process required"
    );
    let mut out = Vec::new();
    let layout = system.layout();
    system.walk_paths(|row, schedule| {
        if layout.is_terminal(row) {
            let used = out.len() as u64 + 1;
            let budget = wfc_spec::control::Budget::default().with_configs(max_paths as u64);
            if let Some(e) = budget.configs_exceeded(
                used,
                wfc_spec::control::Progress {
                    configs: used,
                    ..Default::default()
                },
            ) {
                return Err(ExplorerError::Exhausted(e));
            }
            let history = history_of(system, row, schedule, labels);
            out.push((schedule.to_vec(), history));
        }
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(out)
}

/// Verifies that `system` — in which each process runs a program
/// implementing *one* operation of `target` and decides that operation's
/// response index — is a correct one-shot implementation: for **every**
/// schedule, the resulting concurrent history linearizes against `target`
/// from `target_init`.
///
/// The operation of process `p` is described by `labels[p]`; its decision
/// value is interpreted as a [`RespId`] index of `target`. A process's
/// operation is considered invoked at its first shared step and responded
/// at its last (processes that decide without shared steps occupy the
/// instant before the schedule starts).
///
/// Unlike [`crate::explore::explore`], this walks the execution *tree*
/// path by path, because a history depends on the entire schedule, not
/// just the final configuration. `max_paths` bounds the walk.
///
/// # Errors
///
/// Returns an error on malformed programs or if more than `max_paths`
/// schedules exist.
pub fn check_one_shot_implementation(
    system: &System,
    target: &FiniteType,
    target_init: StateId,
    labels: &[OpLabel],
    max_paths: usize,
) -> Result<ImplementationCheck, ExplorerError> {
    let histories = collect_histories(system, labels, max_paths)?;
    let paths = histories.len();
    let counterexamples = histories
        .into_iter()
        .filter(|(_, h)| !is_linearizable(target, target_init, h))
        .collect();
    Ok(ImplementationCheck {
        paths,
        counterexamples,
    })
}

/// Builds the high-level concurrent history induced by `schedule`.
fn history_of(
    system: &System,
    terminal: &[i64],
    schedule: &[usize],
    labels: &[OpLabel],
) -> ConcurrentHistory {
    let mut ops = Vec::with_capacity(system.processes());
    for (p, label) in labels.iter().enumerate() {
        let first = schedule.iter().position(|&s| s == p);
        let last = schedule.iter().rposition(|&s| s == p);
        let (invoked_at, responded_at) = match (first, last) {
            (Some(f), Some(l)) => (f as i64, l as i64),
            // Decided during the local prefix: before every step.
            _ => (-1, -1),
        };
        let resp = RespId::new(
            usize::try_from(
                system
                    .layout()
                    .decided(terminal, p)
                    .expect("terminal config"),
            )
            .expect("decision is a response index"),
        );
        ops.push(OpRecord {
            port: label.port,
            inv: label.inv,
            resp,
            invoked_at,
            responded_at,
        });
    }
    ConcurrentHistory::new(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Operand, ProgramBuilder};
    use crate::system::ObjectInstance;
    use std::sync::Arc;
    use wfc_spec::canonical;

    fn reg_ty() -> FiniteType {
        canonical::boolean_register(2)
    }

    fn op(port: usize, inv: &str, resp: &str, at: (i64, i64), ty: &FiniteType) -> OpRecord {
        OpRecord {
            port: PortId::new(port),
            inv: ty.invocation_id(inv).unwrap(),
            resp: ty.response_id(resp).unwrap(),
            invoked_at: at.0,
            responded_at: at.1,
        }
    }

    #[test]
    fn sequential_history_linearizes() {
        let ty = reg_ty();
        let init = ty.state_id("v0").unwrap();
        let h = ConcurrentHistory::new(vec![
            op(0, "write1", "ok", (0, 1), &ty),
            op(1, "read", "1", (2, 3), &ty),
        ]);
        assert!(is_linearizable(&ty, init, &h));
    }

    #[test]
    fn stale_read_after_write_is_rejected() {
        let ty = reg_ty();
        let init = ty.state_id("v0").unwrap();
        // Write of 1 completes before the read is invoked, yet the read
        // returns 0: not linearizable.
        let h = ConcurrentHistory::new(vec![
            op(0, "write1", "ok", (0, 1), &ty),
            op(1, "read", "0", (2, 3), &ty),
        ]);
        assert!(!is_linearizable(&ty, init, &h));
    }

    #[test]
    fn overlapping_read_may_return_either_value() {
        let ty = reg_ty();
        let init = ty.state_id("v0").unwrap();
        for resp in ["0", "1"] {
            let h = ConcurrentHistory::new(vec![
                op(0, "write1", "ok", (0, 3), &ty),
                op(1, "read", resp, (1, 2), &ty),
            ]);
            assert!(is_linearizable(&ty, init, &h), "read of {resp}");
        }
    }

    #[test]
    fn one_use_bit_dead_read_allows_anything() {
        let ty = canonical::one_use_bit();
        let init = ty.state_id("UNSET").unwrap();
        // Two sequential reads; the second is a DEAD read and may return 1.
        let h = ConcurrentHistory::new(vec![
            op(0, "read", "0", (0, 1), &ty),
            op(0, "read", "1", (2, 3), &ty),
        ]);
        assert!(is_linearizable(&ty, init, &h));
    }

    #[test]
    fn empty_history_is_linearizable() {
        let ty = reg_ty();
        let init = ty.state_id("v0").unwrap();
        assert!(is_linearizable(&ty, init, &ConcurrentHistory::default()));
    }

    /// The identity implementation (each process invokes the target object
    /// directly) is trivially correct.
    #[test]
    fn identity_implementation_linearizes() {
        let reg = Arc::new(reg_ty());
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap();
        let write1 = reg.invocation_id("write1").unwrap();
        let obj = ObjectInstance::identity_ports(reg.clone(), init, 2);
        let writer = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, Operand::Const(write1.index() as i64), Some(r));
            b.ret(r);
            b.build().unwrap()
        };
        let reader = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, Operand::Const(read.index() as i64), Some(r));
            b.ret(r);
            b.build().unwrap()
        };
        let sys = System::new(vec![obj], vec![writer, reader]);
        let labels = [
            OpLabel {
                port: PortId::new(0),
                inv: write1,
            },
            OpLabel {
                port: PortId::new(1),
                inv: read,
            },
        ];
        let check = check_one_shot_implementation(&sys, &reg, init, &labels, 10_000).unwrap();
        assert!(check.holds(), "{:?}", check.counterexamples);
        assert_eq!(check.paths, 2, "two interleavings of two single steps");
    }

    /// A bogus implementation (reader always answers 0) is caught.
    #[test]
    fn constant_reader_fails_linearizability() {
        let reg = Arc::new(reg_ty());
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap();
        let write1 = reg.invocation_id("write1").unwrap();
        let ok = reg.response_id("ok").unwrap();
        let r0 = reg.response_id("0").unwrap();
        let obj = ObjectInstance::identity_ports(reg.clone(), init, 2);
        let writer = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, Operand::Const(write1.index() as i64), Some(r));
            b.ret(ok.index() as i64);
            b.build().unwrap()
        };
        let bogus_reader = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            // Perform a real write-0 probe? No: just touch the object and
            // ignore it, always answering 0.
            b.invoke(0_i64, Operand::Const(read.index() as i64), Some(r));
            b.ret(r0.index() as i64);
            b.build().unwrap()
        };
        let sys = System::new(vec![obj], vec![writer, bogus_reader]);
        let labels = [
            OpLabel {
                port: PortId::new(0),
                inv: write1,
            },
            OpLabel {
                port: PortId::new(1),
                inv: read,
            },
        ];
        let check = check_one_shot_implementation(&sys, &reg, init, &labels, 10_000).unwrap();
        assert!(
            !check.holds(),
            "a read strictly after the write must return 1"
        );
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn oversized_history_is_rejected() {
        let ty = reg_ty();
        let o = op(0, "read", "0", (0, 1), &ty);
        let _ = ConcurrentHistory::new(vec![o; 65]);
    }
}
