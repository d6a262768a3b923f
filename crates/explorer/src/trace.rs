//! Human-readable execution traces.
//!
//! [`find_violation`](crate::find_violation) and the sampler return raw
//! schedules — sequences of process indices. [`replay`] walks a schedule
//! through the system and renders each step with the object, invocation
//! and response involved, so a failing interleaving can actually be read:
//!
//! ```text
//! step 1: process 0 invokes write1 on obj1 (register2) → ok
//! step 2: process 1 invokes test_and_set on obj2 (test_and_set) → 0
//! …
//! ```
//!
//! Replay is deterministic for deterministic objects; for
//! nondeterministic ones, the adversary's choices are re-resolved to the
//! first matching outcome, which reproduces the decision vector whenever
//! the schedule came from a deterministic system.

use std::fmt;

use crate::error::ExplorerError;
use crate::system::System;

/// Rendering knobs for [`replay_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceOptions {
    /// Record the cumulative per-object access counts after every step
    /// (the CLI's `--timings` view), so a rendered violation trace
    /// doubles as access-count evidence: the reads/writes columns of the
    /// final step are this execution's contribution to the paper's
    /// `r_b`/`w_b`.
    pub timings: bool,
}

impl TraceOptions {
    /// Options with per-step access accounting on.
    pub fn with_timings() -> Self {
        TraceOptions { timings: true }
    }
}

/// Cumulative accesses of one object at some point in an execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjAccess {
    /// The object index.
    pub obj: usize,
    /// All invocations so far.
    pub total: u32,
    /// Invocations whose name starts with `read`.
    pub reads: u32,
    /// Invocations whose name starts with `write`.
    pub writes: u32,
}

/// One rendered step of a replayed execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// The acting process.
    pub process: usize,
    /// The object accessed.
    pub obj: usize,
    /// The object's type name.
    pub ty_name: String,
    /// The invocation name.
    pub inv: String,
    /// The response name.
    pub resp: String,
    /// The process's decision if this step completed its program.
    pub decided: Option<i64>,
    /// Cumulative per-object access counts *including* this step, present
    /// when replayed with [`TraceOptions::timings`].
    pub accesses: Option<Vec<ObjAccess>>,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process {} invokes {} on obj{} ({}) → {}",
            self.process, self.inv, self.obj, self.ty_name, self.resp
        )?;
        if let Some(d) = self.decided {
            write!(f, "  [decides {d}]")?;
        }
        if let Some(accesses) = &self.accesses {
            write!(f, "  [accesses:")?;
            for a in accesses {
                write!(f, " obj{}={} (r{} w{})", a.obj, a.total, a.reads, a.writes)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// A replayed execution: the steps plus the final decisions.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The rendered steps, in schedule order.
    pub steps: Vec<TraceStep>,
    /// Decisions of all processes at the end (None = still undecided,
    /// possible when the schedule is a prefix).
    pub decisions: Vec<Option<i64>>,
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, step) in self.steps.iter().enumerate() {
            writeln!(f, "step {}: {}", k + 1, step)?;
        }
        write!(f, "decisions: {:?}", self.decisions)
    }
}

/// Replays `schedule` (one process index per step) through `system`.
///
/// # Errors
///
/// Returns [`ExplorerError`] on malformed programs, or if the schedule
/// asks a decided process to step.
pub fn replay(system: &System, schedule: &[usize]) -> Result<Trace, ExplorerError> {
    replay_with(system, schedule, &TraceOptions::default())
}

/// Replays `schedule` with explicit [`TraceOptions`]; with
/// [`TraceOptions::timings`] every step carries cumulative per-object
/// access counts.
///
/// # Errors
///
/// Returns [`ExplorerError`] on malformed programs, or if the schedule
/// asks a decided process to step.
pub fn replay_with(
    system: &System,
    schedule: &[usize],
    opts: &TraceOptions,
) -> Result<Trace, ExplorerError> {
    let mut cfg = system.initial_config()?;
    let mut next = Vec::new();
    let mut steps = Vec::with_capacity(schedule.len());
    let mut tallies: Vec<ObjAccess> = system
        .objects()
        .iter()
        .enumerate()
        .map(|(obj, _)| ObjAccess {
            obj,
            total: 0,
            reads: 0,
            writes: 0,
        })
        .collect();
    for &p in schedule {
        let access = system
            .pending_access(&cfg, p)?
            .ok_or(ExplorerError::NotWaitFree)?; // decided process scheduled: bogus schedule
        let before_state = cfg.object_state(access.obj);
        let obj = &system.objects()[access.obj];
        let outcome = obj.ty().outcomes(before_state, access.port, access.inv)[0];
        // Follow the first outcome, as `outcome` above does.
        next.clear();
        system.step_into(cfg.row(), p, &mut next)?;
        let width = cfg.row.len();
        cfg.row.copy_from_slice(&next[..width]);
        let inv_name = obj.ty().invocation_name(access.inv);
        let accesses = if opts.timings {
            let t = &mut tallies[access.obj];
            t.total += 1;
            if inv_name.starts_with("read") {
                t.reads += 1;
            } else if inv_name.starts_with("write") {
                t.writes += 1;
            }
            Some(tallies.clone())
        } else {
            None
        };
        steps.push(TraceStep {
            process: p,
            obj: access.obj,
            ty_name: obj.ty().name().to_owned(),
            inv: inv_name.to_owned(),
            resp: obj.ty().response_name(outcome.resp).to_owned(),
            decided: cfg.decided(p),
            accesses,
        });
    }
    Ok(Trace {
        steps,
        decisions: (0..system.processes()).map(|p| cfg.decided(p)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{find_violation, ExploreOptions};
    use crate::program::ProgramBuilder;
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
    fn replay_renders_a_full_schedule() {
        let sys = tas_race();
        let trace = replay(&sys, &[1, 0]).unwrap();
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.steps[0].process, 1);
        assert_eq!(trace.steps[0].inv, "test_and_set");
        assert_eq!(trace.steps[0].resp, "0", "first TAS wins");
        assert_eq!(trace.steps[1].resp, "1");
        assert_eq!(trace.decisions, vec![Some(1), Some(0)]);
        let rendered = trace.to_string();
        assert!(rendered.contains("step 1: process 1 invokes test_and_set"));
    }

    #[test]
    fn replay_reproduces_violation_schedules() {
        let sys = tas_race();
        let v = find_violation(&sys, &[0, 1], &ExploreOptions::default())
            .unwrap()
            .expect("race disagrees");
        let trace = replay(&sys, &v.schedule).unwrap();
        let replayed: Vec<i64> = trace.decisions.iter().map(|d| d.unwrap()).collect();
        assert_eq!(replayed, v.decisions);
    }

    #[test]
    fn prefix_schedules_leave_processes_undecided() {
        let sys = tas_race();
        let trace = replay(&sys, &[0]).unwrap();
        assert_eq!(trace.decisions[0], Some(0));
        assert_eq!(trace.decisions[1], None);
    }

    #[test]
    fn scheduling_a_decided_process_errors() {
        let sys = tas_race();
        assert!(replay(&sys, &[0, 0]).is_err());
    }

    /// Two writes then three reads on one register.
    fn writer_reader() -> System {
        let reg = Arc::new(canonical::boolean_register(2));
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let write1 = reg.invocation_id("write1").unwrap().index() as i64;
        let obj = ObjectInstance::identity_ports(reg, init, 2);
        let writer = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, write1, Some(r));
            b.invoke(0_i64, write1, Some(r));
            b.ret(0_i64);
            b.build().unwrap()
        };
        let reader = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            for _ in 0..3 {
                b.invoke(0_i64, read, Some(r));
            }
            b.ret(r);
            b.build().unwrap()
        };
        System::new(vec![obj], vec![writer, reader])
    }

    #[test]
    fn timings_mode_accumulates_per_object_accesses() {
        let sys = writer_reader();
        let trace = replay_with(&sys, &[0, 1, 0, 1, 1], &TraceOptions::with_timings()).unwrap();
        let cum: Vec<ObjAccess> = trace
            .steps
            .iter()
            .map(|s| s.accesses.as_ref().unwrap()[0])
            .collect();
        assert_eq!(
            cum.iter().map(|a| a.total).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5],
            "total accesses grow by one per step"
        );
        let last = cum.last().unwrap();
        assert_eq!((last.reads, last.writes), (3, 2));
        // The final step's tallies are this execution's contribution to
        // the paper's r_b / w_b for the register.
        let rendered = trace.to_string();
        assert!(
            rendered.contains("[accesses: obj0=5 (r3 w2)]"),
            "{rendered}"
        );
    }

    #[test]
    fn default_replay_carries_no_timings() {
        let sys = writer_reader();
        let trace = replay(&sys, &[0, 1]).unwrap();
        assert!(trace.steps.iter().all(|s| s.accesses.is_none()));
        assert!(!trace.to_string().contains("accesses"));
    }
}
