//! Systems: shared objects plus one program per process (paper,
//! Section 2.2).
//!
//! A [`System`] is an *implementation* in the paper's sense: a set of
//! appropriately-initialised objects together with a deterministic program
//! for each process. A [`Config`] is a node of the paper's execution trees
//! (Section 4.2): the states of the implementing objects and the "program
//! counters" of the processes, packed into one flat `i64` row whose layout
//! the system fixes once.

use std::ops::ControlFlow;
use std::sync::Arc;

use wfc_spec::{FiniteType, InvId, PortId, StateId};

use crate::error::ExplorerError;
use crate::program::{local_run, Instr, Program, DECIDED, DECISION, PC, VARS};

/// A shared object instance: its type, initial state, and the port through
/// which each process accesses it.
#[derive(Clone, Debug)]
pub struct ObjectInstance {
    ty: Arc<FiniteType>,
    init: StateId,
    /// `port_of[p]` is the port assigned to process `p`, if any.
    port_of: Vec<Option<PortId>>,
}

impl ObjectInstance {
    /// Creates an instance of `ty` initialised to `init`, with
    /// `port_of[p]` the port of process `p` (use `None` for processes that
    /// never access the object).
    ///
    /// # Panics
    ///
    /// Panics if `init` or any port is out of range for the type, or if two
    /// processes share a port (the paper: "at most one process may use a
    /// port").
    pub fn new(ty: Arc<FiniteType>, init: StateId, port_of: Vec<Option<PortId>>) -> Self {
        assert!(
            init.index() < ty.state_count(),
            "initial state out of range"
        );
        let mut used = vec![false; ty.ports()];
        for port in port_of.iter().flatten() {
            assert!(port.index() < ty.ports(), "port out of range");
            assert!(!used[port.index()], "two processes share a port");
            used[port.index()] = true;
        }
        ObjectInstance { ty, init, port_of }
    }

    /// Convenience: an instance where process `p` uses port `p` directly.
    /// Requires `ty.ports() >= processes`.
    pub fn identity_ports(ty: Arc<FiniteType>, init: StateId, processes: usize) -> Self {
        assert!(ty.ports() >= processes, "type has too few ports");
        let ports = (0..processes).map(|p| Some(PortId::new(p))).collect();
        ObjectInstance::new(ty, init, ports)
    }

    /// The object's type.
    pub fn ty(&self) -> &Arc<FiniteType> {
        &self.ty
    }

    /// The initial state.
    pub fn init(&self) -> StateId {
        self.init
    }

    /// The port assigned to process `p`, if any.
    pub fn port_of(&self, p: usize) -> Option<PortId> {
        self.port_of.get(p).copied().flatten()
    }
}

/// An implementation: objects plus one program per process.
#[derive(Clone, Debug)]
pub struct System {
    objects: Vec<ObjectInstance>,
    programs: Vec<Program>,
    layout: Layout,
}

impl System {
    /// Creates a system from objects and per-process programs.
    pub fn new(objects: Vec<ObjectInstance>, programs: Vec<Program>) -> Self {
        let vars = programs.iter().map(Program::var_count).max().unwrap_or(0);
        let layout = Layout {
            objects: objects.len(),
            processes: programs.len(),
            stride: VARS + vars,
        };
        System {
            objects,
            programs,
            layout,
        }
    }

    /// The shared objects.
    pub fn objects(&self) -> &[ObjectInstance] {
        &self.objects
    }

    /// The per-process programs.
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.programs.len()
    }

    /// The packed row layout of this system's configurations.
    pub(crate) fn layout(&self) -> Layout {
        self.layout
    }

    /// Process `p`'s local state `[pc, decided, decision, vars…]` inside
    /// `row`, exactly as long as its program's variables.
    fn local_mut<'r>(&self, row: &'r mut [i64], p: usize) -> &'r mut [i64] {
        let base = self.layout.base(p);
        &mut row[base..base + VARS + self.programs[p].var_count()]
    }

    /// The initial configuration: object initial states and each process's
    /// state after running its local prefix (up to its first invoke or
    /// decision).
    ///
    /// # Errors
    ///
    /// Returns an error if a local prefix diverges or is malformed.
    pub fn initial_config(&self) -> Result<Config, ExplorerError> {
        let mut row = vec![0; self.layout.width()];
        for (slot, object) in row.iter_mut().zip(&self.objects) {
            *slot = object.init().index() as i64;
        }
        for (p, program) in self.programs.iter().enumerate() {
            let local = self.local_mut(&mut row, p);
            local[VARS..].copy_from_slice(program.init_vars());
            local_run(program, local)
                .map_err(|source| ExplorerError::Program { process: p, source })?;
        }
        Ok(Config {
            row: row.into(),
            layout: self.layout,
        })
    }

    /// The pending shared access of process `p` in `config`, or `None` if
    /// the process has decided.
    ///
    /// # Errors
    ///
    /// Returns an error if the pending invocation is malformed (bad object
    /// index, bad invocation, missing port).
    pub fn pending_access(
        &self,
        config: &Config,
        p: usize,
    ) -> Result<Option<Access>, ExplorerError> {
        self.access_in(&config.row, p)
    }

    /// [`System::pending_access`] on a packed row.
    pub(crate) fn access_in(&self, row: &[i64], p: usize) -> Result<Option<Access>, ExplorerError> {
        let base = self.layout.base(p);
        if row[base + DECIDED] != 0 {
            return Ok(None);
        }
        let program = &self.programs[p];
        let pc = row[base + PC] as usize;
        let Some(&Instr::Invoke { obj, inv, store: _ }) = program.code().get(pc) else {
            // local_run guarantees pc addresses an Invoke for undecided
            // processes; anything else is a malformed program.
            return Err(ExplorerError::Program {
                process: p,
                source: crate::error::ProgramError::PcOutOfRange { pc },
            });
        };
        let vars = &row[base + VARS..base + VARS + program.var_count()];
        let obj_ix = obj.eval(vars);
        let obj_usize: usize = obj_ix
            .try_into()
            .ok()
            .filter(|&o: &usize| o < self.objects.len())
            .ok_or(ExplorerError::NoSuchObject {
                process: p,
                obj: obj_ix,
            })?;
        let object = &self.objects[obj_usize];
        let inv_ix = inv.eval(vars);
        let inv_id: usize = inv_ix
            .try_into()
            .ok()
            .filter(|&i: &usize| i < object.ty().invocation_count())
            .ok_or(ExplorerError::NoSuchInvocation {
                process: p,
                obj: obj_usize,
                inv: inv_ix,
            })?;
        let port = object.port_of(p).ok_or(ExplorerError::NoPortAssigned {
            process: p,
            obj: obj_usize,
        })?;
        Ok(Some(Access {
            process: p,
            obj: obj_usize,
            inv: InvId::new(inv_id),
            port,
        }))
    }

    /// Applies one step of process `p` to the packed configuration `row`:
    /// performs its pending access with each possible outcome of the
    /// (possibly nondeterministic) object, runs the process's local
    /// continuation, and appends each successor row to `out`, one per
    /// outcome in the type's outcome order. Returns how many rows were
    /// appended. This is the explorer's one step interpreter; every
    /// search runs on it.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed accesses or divergent continuations,
    /// leaving `out` as it was; appends nothing and returns `Ok(0)` if the
    /// process has already decided.
    pub fn step_into(
        &self,
        row: &[i64],
        p: usize,
        out: &mut Vec<i64>,
    ) -> Result<usize, ExplorerError> {
        let Some(access) = self.access_in(row, p)? else {
            return Ok(0);
        };
        let program = &self.programs[p];
        let base = self.layout.base(p);
        let store = match program.code()[row[base + PC] as usize] {
            Instr::Invoke { store, .. } => store,
            _ => unreachable!("access_in verified the instruction"),
        };
        let state = StateId::new(row[access.obj] as usize);
        let outcomes = self.objects[access.obj]
            .ty()
            .outcomes(state, access.port, access.inv);
        let start = out.len();
        for outcome in outcomes {
            let at = out.len();
            out.extend_from_slice(row);
            let next = &mut out[at..];
            next[access.obj] = outcome.next.index() as i64;
            let local = self.local_mut(next, p);
            if let Some(var) = store {
                local[VARS + var.0] = outcome.resp.index() as i64;
            }
            local[PC] += 1;
            if let Err(source) = local_run(program, local) {
                out.truncate(start);
                return Err(ExplorerError::Program { process: p, source });
            }
        }
        Ok(outcomes.len())
    }

    /// Applies one step of process `p` in `config`, returning the
    /// successor configurations, one per outcome of the accessed object.
    /// A convenience over [`System::step_into`].
    ///
    /// # Errors
    ///
    /// As [`System::step_into`]; returns `Ok(vec![])` if the process has
    /// already decided.
    pub fn step(&self, config: &Config, p: usize) -> Result<Vec<Config>, ExplorerError> {
        let mut rows = Vec::new();
        let n = self.step_into(&config.row, p, &mut rows)?;
        let width = self.layout.width();
        Ok((0..n)
            .map(|k| Config::new(&rows[k * width..(k + 1) * width], self.layout))
            .collect())
    }

    /// Walks the execution *tree* path by path, depth first, calling
    /// `visit` on every node with its packed row and the schedule (one
    /// process per step) that reached it, before expanding it. Children
    /// are pushed in process order, then outcome order, and popped last
    /// first. The walk stops early when `visit` breaks.
    ///
    /// The stack keeps its rows back to back in one buffer, and each entry
    /// records only its depth and last process: the walk is depth first,
    /// so an entry's schedule is always the current path cut to its depth.
    ///
    /// # Errors
    ///
    /// Returns the first error of `visit` or of a step.
    pub(crate) fn walk_paths(
        &self,
        mut visit: impl FnMut(&[i64], &[usize]) -> Result<ControlFlow<()>, ExplorerError>,
    ) -> Result<(), ExplorerError> {
        let width = self.layout.width();
        let mut rows = self.initial_config()?.row.into_vec();
        let mut entries: Vec<(usize, usize)> = vec![(0, 0)];
        let mut schedule: Vec<usize> = Vec::new();
        let mut row = vec![0; width];
        while let Some((depth, p)) = entries.pop() {
            let top = rows.len() - width;
            row.copy_from_slice(&rows[top..]);
            rows.truncate(top);
            schedule.truncate(depth.saturating_sub(1));
            if depth > 0 {
                schedule.push(p);
            }
            if visit(&row, &schedule)?.is_break() {
                break;
            }
            for q in 0..self.processes() {
                let n = self.step_into(&row, q, &mut rows)?;
                entries.extend(std::iter::repeat_n((depth + 1, q), n));
            }
        }
        Ok(())
    }
}

/// A pending shared access: which process invokes what on which object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Access {
    /// The invoking process.
    pub process: usize,
    /// The object index.
    pub obj: usize,
    /// The invocation.
    pub inv: InvId,
    /// The port used.
    pub port: PortId,
}

/// Where each part of a configuration lives in its packed row: first
/// the state index of every object, then one block per process laid out
/// `[pc, decided, decision, vars…]` (see [`crate::program::local_run`]).
/// Every block is padded with zeros to the widest program's variables,
/// so process `p`'s block starts at `objects + p * stride`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Layout {
    objects: usize,
    processes: usize,
    stride: usize,
}

impl Layout {
    /// Words per row.
    pub(crate) fn width(&self) -> usize {
        self.objects + self.processes * self.stride
    }

    /// Where process `p`'s block starts.
    fn base(&self, p: usize) -> usize {
        self.objects + p * self.stride
    }

    /// Process `p`'s decision in `row`, if it has decided.
    pub(crate) fn decided(&self, row: &[i64], p: usize) -> Option<i64> {
        let base = self.base(p);
        (row[base + DECIDED] != 0).then_some(row[base + DECISION])
    }

    /// `true` once every process in `row` has decided.
    pub(crate) fn is_terminal(&self, row: &[i64]) -> bool {
        (0..self.processes).all(|p| row[self.base(p) + DECIDED] != 0)
    }

    /// Replaces `out` with the decisions made in `row`, in process order;
    /// undecided processes are skipped.
    pub(crate) fn decisions_into(&self, row: &[i64], out: &mut Vec<i64>) {
        out.clear();
        out.extend((0..self.processes).filter_map(|p| self.decided(row, p)));
    }
}

/// A configuration: object states plus process states — one node of the
/// paper's execution trees (Section 4.2), owned as one packed `i64` row.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Config {
    pub(crate) row: Box<[i64]>,
    layout: Layout,
}

impl Config {
    /// Copies `row`, laid out by `layout`, into an owned configuration.
    pub(crate) fn new(row: &[i64], layout: Layout) -> Config {
        debug_assert_eq!(row.len(), layout.width());
        Config {
            row: row.into(),
            layout,
        }
    }

    /// The packed row: object states, then one `[pc, decided, decision,
    /// vars…]` block per process. Feed it to [`System::step_into`].
    pub fn row(&self) -> &[i64] {
        &self.row
    }

    /// The current state of object `obj`.
    pub fn object_state(&self, obj: usize) -> StateId {
        assert!(obj < self.layout.objects, "object index out of range");
        StateId::new(self.row[obj] as usize)
    }

    /// Process `p`'s program counter: the index of its pending invoke,
    /// or of the return it decided at.
    pub fn pc(&self, p: usize) -> usize {
        self.row[self.layout.base(p) + PC] as usize
    }

    /// Process `p`'s decision, once it has returned.
    pub fn decided(&self, p: usize) -> Option<i64> {
        self.layout.decided(&self.row, p)
    }

    /// `true` once every process has decided: a leaf of the execution tree.
    pub fn is_terminal(&self) -> bool {
        self.layout.is_terminal(&self.row)
    }

    /// The decision vector at a terminal configuration.
    ///
    /// # Panics
    ///
    /// Panics if some process has not decided.
    pub fn decisions(&self) -> Vec<i64> {
        assert!(self.is_terminal(), "terminal configuration");
        let mut out = Vec::with_capacity(self.layout.processes);
        self.layout.decisions_into(&self.row, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Operand, ProgramBuilder};
    use wfc_spec::canonical;

    fn tas_system() -> System {
        let tas = Arc::new(canonical::test_and_set(2));
        let init = tas.state_id("unset").unwrap();
        let tas_inv = tas.invocation_id("test_and_set").unwrap();
        let obj = ObjectInstance::identity_ports(tas, init, 2);
        let program = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, Operand::Const(tas_inv.index() as i64), Some(r));
            b.ret(r);
            b.build().unwrap()
        };
        System::new(vec![obj], vec![program.clone(), program])
    }

    #[test]
    fn initial_config_pauses_at_invoke() {
        let sys = tas_system();
        let c = sys.initial_config().unwrap();
        assert!(!c.is_terminal());
        assert_eq!(c.pc(0), 0);
        let a = sys.pending_access(&c, 0).unwrap().unwrap();
        assert_eq!(a.obj, 0);
        assert_eq!(a.port, PortId::new(0));
    }

    #[test]
    fn stepping_decides_first_wins() {
        let sys = tas_system();
        let c0 = sys.initial_config().unwrap();
        let c1 = sys.step(&c0, 0).unwrap().pop().unwrap();
        assert_eq!(c1.decided(0), Some(0), "winner sees old value 0");
        let c2 = sys.step(&c1, 1).unwrap().pop().unwrap();
        assert_eq!(c2.decided(1), Some(1), "loser sees 1");
        assert!(c2.is_terminal());
        assert_eq!(c2.decisions(), vec![0, 1]);
    }

    #[test]
    fn decided_process_has_no_steps() {
        let sys = tas_system();
        let c0 = sys.initial_config().unwrap();
        let c1 = sys.step(&c0, 0).unwrap().pop().unwrap();
        assert!(sys.step(&c1, 0).unwrap().is_empty());
    }

    #[test]
    fn bad_object_index_is_reported() {
        let tas = Arc::new(canonical::test_and_set(2));
        let init = tas.state_id("unset").unwrap();
        let obj = ObjectInstance::identity_ports(tas, init, 1);
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        b.invoke(9_i64, 0_i64, Some(r));
        b.ret(r);
        let sys = System::new(vec![obj], vec![b.build().unwrap()]);
        let c = sys.initial_config().unwrap();
        assert!(matches!(
            sys.pending_access(&c, 0),
            Err(ExplorerError::NoSuchObject { process: 0, obj: 9 })
        ));
    }

    #[test]
    fn missing_port_is_reported() {
        let tas = Arc::new(canonical::test_and_set(2));
        let init = tas.state_id("unset").unwrap();
        // Process 0 has no port on the object.
        let obj = ObjectInstance::new(tas, init, vec![None]);
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        b.invoke(0_i64, 0_i64, Some(r));
        b.ret(r);
        let sys = System::new(vec![obj], vec![b.build().unwrap()]);
        let c = sys.initial_config().unwrap();
        assert!(matches!(
            sys.pending_access(&c, 0),
            Err(ExplorerError::NoPortAssigned { process: 0, obj: 0 })
        ));
    }

    #[test]
    #[should_panic(expected = "share a port")]
    fn shared_ports_are_rejected() {
        let tas = Arc::new(canonical::test_and_set(2));
        let init = tas.state_id("unset").unwrap();
        let _ = ObjectInstance::new(tas, init, vec![Some(PortId::new(0)), Some(PortId::new(0))]);
    }

    #[test]
    fn nondeterministic_objects_branch() {
        let oub = Arc::new(canonical::one_use_bit());
        let dead = oub.state_id("DEAD").unwrap();
        let read = oub.invocation_id("read").unwrap();
        let obj = ObjectInstance::identity_ports(oub, dead, 1);
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        b.invoke(0_i64, Operand::Const(read.index() as i64), Some(r));
        b.ret(r);
        let sys = System::new(vec![obj], vec![b.build().unwrap()]);
        let c = sys.initial_config().unwrap();
        let kids = sys.step(&c, 0).unwrap();
        assert_eq!(kids.len(), 2, "DEAD read may return 0 or 1");
    }

    #[test]
    fn step_into_appends_rows_and_keeps_the_buffer_on_error() {
        // Process 0 takes one TAS step; process 1 divides by zero after
        // its step. Rows are appended after whatever the buffer holds.
        let tas = Arc::new(canonical::test_and_set(2));
        let init = tas.state_id("unset").unwrap();
        let inv = tas.invocation_id("test_and_set").unwrap().index() as i64;
        let obj = ObjectInstance::identity_ports(tas, init, 2);
        let good = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, inv, Some(r));
            b.ret(r);
            b.build().unwrap()
        };
        let bad = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, inv, Some(r));
            b.compute(r, r, crate::program::BinOp::Mod, 0_i64);
            b.ret(r);
            b.build().unwrap()
        };
        let sys = System::new(vec![obj], vec![good, bad]);
        let c = sys.initial_config().unwrap();
        let mut out = vec![7, 7];
        assert_eq!(sys.step_into(c.row(), 0, &mut out).unwrap(), 1);
        assert_eq!(&out[..2], &[7, 7]);
        assert_eq!(out.len(), 2 + c.row().len());
        assert_eq!(sys.step(&c, 0).unwrap()[0].row(), &out[2..]);
        let before = out.clone();
        assert!(sys.step_into(c.row(), 1, &mut out).is_err());
        assert_eq!(out, before, "a failed step appends nothing");
    }
}
