//! The cooperative execution engine: virtual threads resumed one at a
//! time by a scheduler loop on the thread that runs the execution.
//!
//! The engine is loom/shuttle-style *stateless* model checking: every
//! schedule is executed from scratch. A virtual thread runs real fixture
//! code; each shared access (through the shim cells of [`crate::shim`])
//! **announces** itself — cell id plus read/write kind — and suspends
//! back to the scheduler. A thread is *settled* once it has announced or
//! its body has returned.
//!
//! **One scheduler loop.** [`run_one`] builds the execution, then
//! resumes every virtual thread once, so each runs to its first
//! announce (or to its end). From then on it asks the [`Decider`] for
//! one enabled thread and resumes it: the grantee performs its value
//! operation, runs on to its next announce, and suspends again. Because
//! a choice is only made while every thread is settled, every enabled
//! thread's pending access is known at each choice point, which is what
//! the sleep-set pruning in [`crate::explore`] needs; because only the
//! resumed thread runs, a granted access can never race another. The
//! loop ends when no thread is enabled.
//!
//! **Carriers.** Where a virtual thread runs is the [`Carrier`]'s
//! business (see [`crate::fiber`]): on x86_64 Linux every virtual thread
//! is a fiber on the calling OS thread, so a step costs a stack switch
//! and no syscall; other targets pass a baton between OS threads behind
//! the same resume/suspend calls. The [`CURRENT`] thread-local names the
//! running virtual thread after every switch, so a shim cell touched
//! from any other OS thread still finds no execution and panics.
//!
//! **Aborts take the same path.** When the step cap trips, every enabled
//! thread is spin-blocked (a livelock), the decider rejects a step, or
//! the decider panics, the loop instead resumes the lowest pending
//! thread, which unwinds via [`ABORT_MSG`] rather than performing its
//! access, until no thread is left. A decider panic is re-raised only
//! then, so no carrier is torn down under a live virtual thread.
//!
//! **Spin detection.** A retry loop (the seqlock reader, a writer
//! waiting out an odd counter) re-reads the same cell until another
//! thread changes it. Granting such a thread again before the cell
//! changes is a pure stutter — it re-announces the identical read — so
//! the engine tracks a per-cell write-version counter and treats a
//! thread as *spin-blocked* (not schedulable) while its pending read
//! repeats its previous **two** granted accesses with the cell's
//! version unmoved since. Two, not one: a single repeat also arises
//! from distinct program points — the seqlock reader's validation read
//! followed by the next attempt's head read — where the thread *is*
//! progressing; after two identical reads with nothing in between, the
//! thread has completed a full loop iteration with an identical outcome
//! and sits at the same program point, so the suppressed third read is
//! a genuine stutter. This keeps the schedule tree finite without a
//! fairness heuristic. (The argument assumes retry loops are
//! state-free, which holds for every loop in the register
//! implementations; a counting loop over identical reads would need a
//! fairness bound instead.)

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::fiber::{Carrier, Resumed};
use crate::schedule::Schedule;

/// Panic payload used to unwind virtual threads when an execution is
/// abandoned (step budget, replay mismatch, livelock).
pub(crate) const ABORT_MSG: &str = "wfc-sched: execution aborted";

/// Sentinel thread id for controller-context code (fixture setup and the
/// post-execution check), whose shared accesses run immediately without
/// scheduling.
pub(crate) const CONTROLLER: usize = usize::MAX;

/// The most virtual threads one execution may run (the base-36 schedule
/// encoding's limit).
const MAX_THREADS: usize = 36;

/// Whether a shared access may modify the cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// The access only observes the cell.
    Read,
    /// The access may modify the cell (stores and compare-exchanges).
    Write,
}

/// A pending shared access: which cell, and whether it can write it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Execution-local cell id (allocation order, deterministic).
    pub cell: u32,
    /// Read or write.
    pub kind: AccessKind,
}

impl Access {
    /// Two accesses commute iff they touch different cells or are both
    /// reads (the DPOR independence relation; a compare-exchange counts
    /// as a write even when it fails).
    pub fn independent(self, other: Access) -> bool {
        self.cell != other.cell || (self.kind == AccessKind::Read && other.kind == AccessKind::Read)
    }
}

/// A set of virtual-thread ids held in one word (at most
/// [`MAX_THREADS`] threads), so choice points allocate nothing.
/// Iterates in ascending id order.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ThreadSet(u64);

impl ThreadSet {
    fn insert(&mut self, t: usize) {
        self.0 |= 1 << t;
    }

    pub(crate) fn contains(self, t: usize) -> bool {
        t < MAX_THREADS && self.0 & (1 << t) != 0
    }

    pub(crate) fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The lowest id in the set.
    pub(crate) fn first(self) -> Option<usize> {
        (self.0 != 0).then(|| self.0.trailing_zeros() as usize)
    }

    pub(crate) fn iter(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let t = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            Some(t)
        })
    }
}

impl FromIterator<usize> for ThreadSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> ThreadSet {
        let mut set = ThreadSet::default();
        for t in iter {
            set.insert(t);
        }
        set
    }
}

impl std::fmt::Debug for ThreadSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

pub(crate) struct ExecState {
    /// Per-thread announced access; `None` while running or finished.
    pending: [Option<Access>; MAX_THREADS],
    /// Virtual threads in the execution.
    threads: usize,
    /// Monotone step counter: bumps at every granted access and every
    /// controller-context access, so it doubles as the logical clock
    /// behind [`crate::OpLog`] timestamps.
    step: u64,
    /// Per-cell write-version counters (spin detection).
    versions: Vec<u64>,
    /// Per-thread `(access, version-at-grant)` of the last granted
    /// access (spin detection).
    last: [Option<(Access, u64)>; MAX_THREADS],
    /// Per-thread granted access before `last` (spin detection needs
    /// two consecutive repeats).
    last2: [Option<(Access, u64)>; MAX_THREADS],
    /// When set, resumed threads unwind instead of running.
    abort: bool,
    next_cell: u32,
    /// A panic raised by the decider, re-raised once every thread has
    /// unwound.
    decider_panic: Option<Box<dyn Any + Send>>,
    /// The per-execution step cap.
    max_steps: u64,
    /// The previously granted thread.
    prev: Option<usize>,
    outcome: RunResult,
}

impl ExecState {
    fn enabled(&self) -> ThreadSet {
        (0..self.threads)
            .filter(|&t| self.pending[t].is_some())
            .collect()
    }

    fn spin_blocked(&self, t: usize) -> bool {
        match (self.pending[t], self.last[t], self.last2[t]) {
            (Some(acc), Some((last, version)), Some((last2, _))) => {
                acc == last
                    && acc == last2
                    && acc.kind == AccessKind::Read
                    && self.versions[acc.cell as usize] == version
            }
            _ => false,
        }
    }

    /// Asks `decider` for the next step and records it. `None` means
    /// the execution must be abandoned; the reason is already recorded.
    fn choose(&mut self, enabled: ThreadSet, decider: &mut dyn Decider) -> Option<usize> {
        let choosable: ThreadSet = enabled.iter().filter(|&t| !self.spin_blocked(t)).collect();
        if choosable.is_empty() {
            // Every enabled thread is spinning on a cell nobody will
            // write again: a genuine livelock in the fixture.
            self.outcome.violation = Some(format!(
                "livelock: all enabled threads {enabled:?} are spin-blocked"
            ));
            return None;
        }
        if self.outcome.steps >= self.max_steps {
            self.outcome.aborted = true;
            return None;
        }
        let pending = &self.pending[..self.threads];
        let (step, prev) = (self.outcome.schedule.len(), self.prev);
        let chosen = match catch_unwind(AssertUnwindSafe(|| {
            decider.choose(step, choosable, enabled, pending, prev)
        })) {
            Ok(Ok(t)) => t,
            Ok(Err(msg)) => {
                self.outcome.decider_error = Some(msg);
                return None;
            }
            Err(payload) => {
                self.decider_panic = Some(payload);
                return None;
            }
        };
        debug_assert!(enabled.contains(chosen));
        let out = &mut self.outcome;
        if prev.is_some_and(|p| p != chosen && choosable.contains(p)) {
            out.preemptions += 1;
        }
        if prev == Some(chosen) {
            out.self_grants += 1;
        } else {
            out.handoffs += 1;
        }
        out.schedule.push(chosen);
        out.steps += 1;
        self.prev = Some(chosen);
        Some(chosen)
    }
}

pub(crate) struct ExecCtx {
    /// Touched by one virtual thread or the scheduler at a time; the
    /// lock is never contended, and never held across a switch.
    state: Mutex<ExecState>,
    /// The carrier's [`Carrier::suspend`].
    suspend: fn(),
}

/// Locks tolerantly: a value operation that panics under the lock
/// poisons the mutex, but every mutation of the state completes before
/// any panic, so the state itself stays consistent.
fn lock(m: &Mutex<ExecState>) -> MutexGuard<'_, ExecState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// The execution and virtual thread (or [`CONTROLLER`]) this OS
    /// thread is running.
    static CURRENT: RefCell<Option<(Arc<ExecCtx>, usize)>> = const { RefCell::new(None) };
}

/// The executing context of the calling OS thread, if it is carrying a
/// virtual thread or the controller.
pub(crate) fn current() -> Option<(Arc<ExecCtx>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Restores the previous [`CURRENT`] when dropped.
struct TlsGuard(Option<(Arc<ExecCtx>, usize)>);

fn set_current(ctx: Arc<ExecCtx>, tid: usize) -> TlsGuard {
    TlsGuard(CURRENT.with(|c| c.borrow_mut().replace((ctx, tid))))
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Renames the running thread within the current execution.
fn set_tid(tid: usize) {
    CURRENT.with(|c| {
        if let Some((_, current)) = c.borrow_mut().as_mut() {
            *current = tid;
        }
    });
}

impl ExecCtx {
    fn new(max_steps: u64, suspend: fn()) -> ExecCtx {
        ExecCtx {
            state: Mutex::new(ExecState {
                pending: [None; MAX_THREADS],
                threads: 0,
                step: 0,
                versions: Vec::new(),
                last: [None; MAX_THREADS],
                last2: [None; MAX_THREADS],
                abort: false,
                next_cell: 0,
                decider_panic: None,
                max_steps,
                prev: None,
                outcome: RunResult::default(),
            }),
            suspend,
        }
    }

    /// Allocates a fresh cell id (creation order is deterministic: cells
    /// are created by fixture setup code in the controller context).
    pub(crate) fn alloc_cell(&self) -> u32 {
        let mut st = lock(&self.state);
        let id = st.next_cell;
        st.next_cell += 1;
        st.versions.push(0);
        id
    }

    /// Performs one shared access: announce, suspend until granted, run
    /// the value operation, and continue. `op` receives the step number
    /// of the grant (the logical clock) and reports whether it modified
    /// the cell.
    pub(crate) fn access<R>(
        self: &Arc<Self>,
        cell: u32,
        kind: AccessKind,
        op: impl FnOnce(u64) -> (R, bool),
    ) -> R {
        let me = CURRENT
            .with(|c| {
                c.borrow().as_ref().map(|(ctx, me)| {
                    assert!(
                        Arc::ptr_eq(ctx, self),
                        "sched cell accessed from a different execution than it was created in"
                    );
                    *me
                })
            })
            .expect(
                "sched cell accessed outside an execution; shim cells only work under \
                 wfc_sched::explore or wfc_sched::replay",
            );
        if me != CONTROLLER {
            lock(&self.state).pending[me] = Some(Access { cell, kind });
            (self.suspend)();
        }
        let mut st = lock(&self.state);
        if me != CONTROLLER {
            let access = st.pending[me]
                .take()
                .expect("a resumed thread has announced");
            if st.abort {
                drop(st);
                // resume_unwind skips the panic hook: an abort is engine
                // control flow, not a reportable thread panic.
                std::panic::resume_unwind(Box::new(ABORT_MSG));
            }
            st.last2[me] = st.last[me];
            st.last[me] = Some((access, st.versions[cell as usize]));
        }
        st.step += 1;
        let step = st.step;
        let (r, wrote) = op(step);
        if wrote {
            st.versions[cell as usize] += 1;
        }
        r
    }
}

/// One execution of a scenario: the virtual-thread bodies plus the
/// post-execution verdict.
pub struct Execution {
    /// The virtual threads; each runs fixture code over shim cells.
    pub threads: Vec<Box<dyn FnOnce() + Send + 'static>>,
    /// Runs in the controller context after all threads finish; returns
    /// a violation message if the execution's history is bad.
    pub check: Box<dyn FnOnce() -> Option<String>>,
}

impl std::fmt::Debug for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Execution")
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

/// The outcome of running one schedule.
#[derive(Debug, Default)]
pub(crate) struct RunResult {
    pub schedule: Schedule,
    pub steps: u64,
    pub preemptions: u32,
    /// Grants that switched to a different virtual thread than the
    /// previous grantee; the first grant of a run counts here.
    pub handoffs: u64,
    /// Grants that went back to the previous grantee.
    pub self_grants: u64,
    /// Thread panic or failed post-check.
    pub violation: Option<String>,
    /// The per-execution step budget tripped.
    pub aborted: bool,
    /// The decider rejected a step (replay mismatch).
    pub decider_error: Option<String>,
}

/// Chooses the next thread at each settled choice point.
pub(crate) trait Decider {
    /// Picks among `choosable` (enabled and not spin-blocked; never
    /// empty). `enabled` additionally holds spin-blocked threads;
    /// returning one of those is allowed (replay follows recorded
    /// schedules verbatim). `prev` is the previously granted thread.
    fn choose(
        &mut self,
        step: usize,
        choosable: ThreadSet,
        enabled: ThreadSet,
        pending: &[Option<Access>],
        prev: Option<usize>,
    ) -> Result<usize, String>;
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "virtual thread panicked".to_owned()
    }
}

/// Runs one execution of `build`'s scenario on `carrier` under
/// `decider`.
pub(crate) fn run_one<C: Carrier>(
    carrier: &mut C,
    build: &mut dyn FnMut() -> Execution,
    decider: &mut dyn Decider,
    max_steps: u64,
) -> RunResult {
    let ctx = Arc::new(ExecCtx::new(max_steps, C::suspend));
    let _tls = set_current(Arc::clone(&ctx), CONTROLLER);
    let execution = build();
    let n = execution.threads.len();
    assert!(
        n <= MAX_THREADS,
        "at most 36 virtual threads (schedule encoding)"
    );
    lock(&ctx.state).threads = n;
    for (tid, body) in execution.threads.into_iter().enumerate() {
        let ctx = Arc::clone(&ctx);
        carrier.start(
            tid,
            Box::new(move || {
                let _tls = set_current(ctx, tid);
                body();
            }),
        );
    }

    // The first panic message of a virtual thread, if any.
    let mut panic = None;
    let mut resume = |tid: usize| {
        set_tid(tid);
        let resumed = carrier.resume(tid);
        set_tid(CONTROLLER);
        if let Resumed::Finished(Err(payload)) = resumed {
            let msg = panic_message(payload);
            if msg != ABORT_MSG && panic.is_none() {
                panic = Some(format!("virtual thread {tid} panicked: {msg}"));
            }
        }
    };
    // Every thread runs to its first announce before the first choice.
    for tid in 0..n {
        resume(tid);
    }
    loop {
        let chosen = {
            let mut st = lock(&ctx.state);
            let enabled = st.enabled();
            let Some(lowest) = enabled.first() else {
                break;
            };
            if st.abort {
                lowest
            } else if let Some(t) = st.choose(enabled, decider) {
                t
            } else {
                st.abort = true;
                lowest
            }
        };
        resume(chosen);
    }

    let mut st = lock(&ctx.state);
    let mut result = std::mem::take(&mut st.outcome);
    let decider_panic = st.decider_panic.take();
    drop(st);
    if let Some(payload) = decider_panic {
        std::panic::resume_unwind(payload);
    }
    if result.violation.is_none() {
        result.violation = panic;
    }
    if result.violation.is_none() && !result.aborted && result.decider_error.is_none() {
        result.violation = (execution.check)();
    }
    result
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::{run_one, Access, Decider, ThreadSet};
    use crate::explore::{explore_on, Mode, SchedOptions};
    use crate::fiber::{Fibers, Threads};
    use crate::fixtures;

    struct PanickingDecider;

    impl Decider for PanickingDecider {
        fn choose(
            &mut self,
            _: usize,
            _: ThreadSet,
            _: ThreadSet,
            _: &[Option<Access>],
            _: Option<usize>,
        ) -> Result<usize, String> {
            panic!("decider boom")
        }
    }

    #[test]
    fn a_decider_panic_is_re_raised_after_every_fiber_has_unwound() {
        let mut carrier = Fibers::default();
        let mut build = fixtures::build("srsw").expect("fixture exists");
        let raised = catch_unwind(AssertUnwindSafe(|| {
            run_one(&mut carrier, &mut build, &mut PanickingDecider, 100)
        }))
        .expect_err("the decider's panic is re-raised");
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"decider boom"));
        // A fiber still live would refuse to start again.
        let found = explore_on(&mut carrier, &SchedOptions::default(), build).expect("explores");
        assert_eq!(found.schedules, 187);
    }

    /// The portable carrier is the only one on other targets; here it
    /// must take exactly the schedules the fibers take.
    #[test]
    fn fibers_and_threads_explore_bit_for_bit_alike() {
        let options = SchedOptions::default().with_mode(Mode::Exhaustive { sleep_sets: true });
        for target in ["srsw", "broken"] {
            let build = || fixtures::build(target).expect("fixture exists");
            let on_fibers =
                explore_on(&mut Fibers::default(), &options, build()).expect("explores");
            let on_threads =
                explore_on(&mut Threads::default(), &options, build()).expect("explores");
            assert!(on_fibers.schedules > 1, "{target}: {on_fibers:?}");
            assert_eq!(on_fibers, on_threads, "{target}");
        }
    }
}
