//! The cooperative execution engine: virtual threads carried by pooled
//! OS threads, with strictly one runnable at a time.
//!
//! The engine is loom/shuttle-style *stateless* model checking: every
//! schedule is executed from scratch. A virtual thread runs real fixture
//! code; each shared access (through the shim cells of [`crate::shim`])
//! **announces** itself — cell id plus read/write kind — and blocks. A
//! thread is *settled* once it has announced or its body has returned.
//!
//! **Direct handoff: the last thread to settle decides.** There is no
//! scheduling thread. Whichever virtual thread settles last — the one
//! that announces, or the one whose body returns — runs the active
//! [`Decider`] itself, under the engine lock, and grants one enabled
//! thread. If it grants itself it carries on with no syscall at all;
//! otherwise it wakes only the chosen thread's own slot condvar (one per
//! thread, all sharing the engine mutex) and parks on its own. The
//! granted thread performs its value operation **while still holding the
//! engine lock** before running on to its next announce. Performing the
//! operation under the lock closes the race where the next granted
//! thread could read a cell before the previous grantee's write landed;
//! because a choice is only made once every thread is settled, every
//! enabled thread's pending access is known at each choice point, which
//! is what the sleep-set pruning in [`crate::explore`] needs. The
//! controller — the thread that called `explore` — builds the execution,
//! hands the thread bodies to the pool and then only waits for
//! "execution done". The decider is moved into the execution state for
//! the run and handed back to the controller afterwards.
//!
//! **Aborts take the same path.** When the step cap trips, every enabled
//! thread is spin-blocked (a livelock), or the decider rejects a step,
//! the settler instead grants the lowest pending thread, which unwinds
//! via [`ABORT_MSG`] rather than performing its access; as it finishes
//! it is the last settler again and grants the next, until no thread is
//! left and the pool is reusable.
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
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

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
    /// Virtual threads not yet settled; the one that brings this to
    /// zero makes the next choice.
    running: usize,
    /// The thread currently holding the grant, if any.
    granted: Option<usize>,
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
    /// First panic message from a virtual thread, if any.
    panic: Option<String>,
    /// When set, granted threads unwind instead of running.
    abort: bool,
    /// Every thread has finished; the controller may collect.
    done: bool,
    next_cell: u32,
    /// The run's decider, owned by the execution until it is done.
    decider: Option<Box<dyn Decider>>,
    /// A panic raised by the decider, re-raised on the controller.
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

    /// Asks the decider for the next step and records it. `None` means
    /// the execution must be abandoned; the reason is already recorded.
    fn choose(&mut self, enabled: ThreadSet) -> Option<usize> {
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
        let decider = self.decider.as_mut().expect("the decider is in place");
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
    state: Mutex<ExecState>,
    /// One condvar per virtual thread: a grant wakes only its grantee.
    slots: [Condvar; MAX_THREADS],
    /// Signalled once, when the last thread finishes.
    done: Condvar,
}

/// Locks tolerantly: a virtual thread that panics between announce and
/// grant consumption can poison the mutex; the state itself stays
/// consistent because every mutation completes before any panic.
fn lock(m: &Mutex<ExecState>) -> MutexGuard<'_, ExecState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a>(cv: &Condvar, st: MutexGuard<'a, ExecState>) -> MutexGuard<'a, ExecState> {
    cv.wait(st).unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<ExecCtx>, usize)>> = const { RefCell::new(None) };
}

/// The executing context of the calling OS thread, if it is carrying a
/// virtual thread or the controller.
pub(crate) fn current() -> Option<(Arc<ExecCtx>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

struct TlsGuard;

fn set_current(ctx: Arc<ExecCtx>, tid: usize) -> TlsGuard {
    CURRENT.with(|c| *c.borrow_mut() = Some((ctx, tid)));
    TlsGuard
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

impl ExecCtx {
    fn new(decider: Box<dyn Decider>, max_steps: u64) -> ExecCtx {
        ExecCtx {
            state: Mutex::new(ExecState {
                pending: [None; MAX_THREADS],
                threads: 0,
                running: 0,
                granted: None,
                step: 0,
                versions: Vec::new(),
                last: [None; MAX_THREADS],
                last2: [None; MAX_THREADS],
                panic: None,
                abort: false,
                done: false,
                next_cell: 0,
                decider: Some(decider),
                decider_panic: None,
                max_steps,
                prev: None,
                outcome: RunResult::default(),
            }),
            slots: [const { Condvar::new() }; MAX_THREADS],
            done: Condvar::new(),
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

    /// Performs one shared access: announce, wait for the grant, run the
    /// value operation under the engine lock, and continue. `op`
    /// receives the step number of the grant (the logical clock) and
    /// reports whether it modified the cell.
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
        let mut st = lock(&self.state);
        if me != CONTROLLER {
            let access = Access { cell, kind };
            st.pending[me] = Some(access);
            self.settle(&mut st, me);
            while st.granted != Some(me) {
                st = wait(&self.slots[me], st);
            }
            st.granted = None;
            st.pending[me] = None;
            st.running += 1;
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

    /// Marks one virtual thread settled (announced or finished, already
    /// recorded by the caller). The last one to settle makes the choice.
    fn settle(&self, st: &mut ExecState, me: usize) {
        st.running -= 1;
        if st.running == 0 {
            self.decide(st, me);
        }
    }

    /// Runs the choice point once every thread is settled: grants the
    /// decider's pick, or in abort mode the lowest pending thread, or
    /// signals the controller when no thread is left. `me` is the
    /// settler making the choice.
    fn decide(&self, st: &mut ExecState, me: usize) {
        let enabled = st.enabled();
        let Some(lowest) = enabled.first() else {
            st.done = true;
            self.done.notify_one();
            return;
        };
        let chosen = if st.abort {
            lowest
        } else if let Some(t) = st.choose(enabled) {
            t
        } else {
            st.abort = true;
            lowest
        };
        st.granted = Some(chosen);
        if chosen != me {
            self.slots[chosen].notify_one();
        }
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
    /// Grants that switched to a different thread than the previous
    /// grantee (a targeted wake); the first grant of a run counts here.
    pub handoffs: u64,
    /// Grants that went back to the previous grantee, which carried on
    /// without a syscall.
    pub self_grants: u64,
    /// Thread panic or failed post-check.
    pub violation: Option<String>,
    /// The per-execution step budget tripped.
    pub aborted: bool,
    /// The decider rejected a step (replay mismatch).
    pub decider_error: Option<String>,
}

/// Chooses the next thread at each settled choice point. It runs on
/// whichever virtual thread settled last, so it must be `Send`, and it
/// is handed back to the caller of [`run_one`] after the run.
pub(crate) trait Decider: Any + Send {
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

/// A pool of OS threads carrying virtual threads, reused across the many
/// executions of an exploration (spawning per schedule would dominate
/// the runtime).
pub(crate) struct Pool {
    workers: Vec<Worker>,
}

struct Worker {
    tx: Option<Sender<Box<dyn FnOnce() + Send + 'static>>>,
    handle: Option<JoinHandle<()>>,
}

impl Pool {
    pub(crate) fn new() -> Pool {
        Pool {
            workers: Vec::new(),
        }
    }

    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            let (tx, rx) = std::sync::mpsc::channel::<Box<dyn FnOnce() + Send + 'static>>();
            let handle = std::thread::Builder::new()
                .name(format!("wfc-sched-{}", self.workers.len()))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn sched pool worker");
            self.workers.push(Worker {
                tx: Some(tx),
                handle: Some(handle),
            });
        }
    }

    fn submit(&mut self, slot: usize, job: Box<dyn FnOnce() + Send + 'static>) {
        self.ensure(slot + 1);
        self.workers[slot]
            .tx
            .as_ref()
            .expect("pool worker sender live")
            .send(job)
            .expect("pool worker alive");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.tx = None; // close the channel; the worker loop exits
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
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

/// Runs one execution of `build`'s scenario under `decider`, and hands
/// the decider back with the result.
pub(crate) fn run_one<D: Decider>(
    pool: &mut Pool,
    build: &mut dyn FnMut() -> Execution,
    decider: D,
    max_steps: u64,
) -> (RunResult, D) {
    let ctx = Arc::new(ExecCtx::new(Box::new(decider), max_steps));
    let _tls = set_current(Arc::clone(&ctx), CONTROLLER);
    let execution = build();
    let n = execution.threads.len();
    assert!(
        n <= MAX_THREADS,
        "at most 36 virtual threads (schedule encoding)"
    );
    {
        let mut st = lock(&ctx.state);
        st.threads = n;
        st.running = n;
        if n == 0 {
            ctx.decide(&mut st, CONTROLLER);
        }
    }
    for (tid, body) in execution.threads.into_iter().enumerate() {
        let ctx = Arc::clone(&ctx);
        pool.submit(
            tid,
            Box::new(move || {
                let tls = set_current(Arc::clone(&ctx), tid);
                let outcome = catch_unwind(AssertUnwindSafe(body));
                drop(tls);
                let mut st = lock(&ctx.state);
                if let Err(payload) = outcome {
                    let msg = panic_message(payload);
                    if msg != ABORT_MSG && st.panic.is_none() {
                        st.panic = Some(format!("virtual thread {tid} panicked: {msg}"));
                    }
                }
                ctx.settle(&mut st, tid);
            }),
        );
    }

    let mut st = lock(&ctx.state);
    while !st.done {
        st = wait(&ctx.done, st);
    }
    let mut result = std::mem::take(&mut st.outcome);
    let panic = st.panic.take();
    let decider_panic = st.decider_panic.take();
    let decider = st.decider.take().expect("the decider is handed back");
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
    let decider: Box<dyn Any> = decider;
    let decider = *decider.downcast::<D>().expect("the decider keeps its type");
    (result, decider)
}
