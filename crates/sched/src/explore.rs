//! The three exploration modes and the replay engine.
//!
//! All modes run *stateless*: every schedule is executed from scratch
//! through [`crate::exec::run_one`], so any schedule the explorer takes
//! can be re-taken verbatim by [`replay`] from its serialized string.
//!
//! - **Exhaustive DFS** walks the full schedule tree, optionally pruning
//!   with *sleep sets* (Godefroid): after a move is explored at a node,
//!   it is put to sleep for the node's later siblings and stays asleep
//!   down their subtrees until a dependent access executes. Dependence
//!   is the commuting rule of [`Access::independent`]; because every
//!   `OpLog` stamp is a write of one shared clock cell, schedules with
//!   different operation histories are never identified (see
//!   [`crate::log`]).
//! - **Preemption bounding** explores every schedule with at most `k`
//!   preemptions (a switch away from a thread that could have
//!   continued), for `k` rising until nothing was bounded out — each
//!   round a plain DFS whose sibling generation skips over-budget
//!   alternatives. Sleep sets are off in this mode (combining the two
//!   prunings soundly is subtle, and the bound is the point here).
//! - **PCT** random walks: each run draws random thread priorities and
//!   `depth − 1` priority-change points from the in-repo SplitMix64,
//!   then always schedules the highest-priority runnable thread. The
//!   schedule actually taken is recorded, so replay is independent of
//!   the PRNG.

use std::fmt;

use wfc_spec::control::{Budget, CancelToken, Progress};
use wfc_spec::prng::SplitMix64;

use crate::exec::{self, Access, Decider, Execution, Pool, RunResult, ThreadSet};
use crate::schedule::Schedule;

/// Which exploration strategy to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Exhaustive DFS over the schedule tree.
    Exhaustive {
        /// Enable sleep-set pruning of commuting access pairs.
        sleep_sets: bool,
    },
    /// Iterative preemption bounding: all schedules with `≤ k`
    /// preemptions, `k = 0, 1, …, max_preemptions`, stopping early once
    /// a round bounded nothing out (full coverage reached).
    Preemption {
        /// The largest preemption bound to try.
        max_preemptions: u32,
    },
    /// Seeded PCT-style random walks.
    Pct {
        /// PRNG seed (SplitMix64).
        seed: u64,
        /// Number of random schedules to run.
        runs: u64,
        /// PCT depth `d`: `d − 1` priority-change points per run.
        depth: u32,
    },
}

/// Budgets and strategy for one exploration.
#[derive(Clone, Copy, Debug)]
pub struct SchedOptions {
    /// The exploration strategy.
    pub mode: Mode,
    /// The control-plane budget: the checker meters `schedules` (a hard
    /// cap across the whole exploration — all preemption rounds / all
    /// PCT runs; exceeding it is [`SchedError::Exhausted`]) and `steps`
    /// (a per-execution cap, defense against unbounded fixtures —
    /// exceeding it is [`SchedError::StepLimit`]), plus the optional
    /// wall-clock deadline.
    pub budget: Budget,
    /// Cooperative cancellation, polled at schedule boundaries
    /// (defaults to [`CancelToken::NONE`]).
    pub cancel: CancelToken,
}

impl Default for SchedOptions {
    fn default() -> Self {
        SchedOptions {
            mode: Mode::Exhaustive { sleep_sets: true },
            budget: Budget::default(),
            cancel: CancelToken::NONE,
        }
    }
}

impl SchedOptions {
    /// This configuration with a different mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// This configuration with a whole replacement [`Budget`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// This configuration with a schedule budget.
    pub fn with_max_schedules(mut self, max_schedules: u64) -> Self {
        self.budget.schedules = max_schedules;
        self
    }

    /// This configuration with a per-execution step cap.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.budget.steps = max_steps;
        self
    }

    /// This configuration with a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// A model-checking failure (not a fixture verdict — counterexamples are
/// reported inside [`Exploration`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SchedError {
    /// A control-plane budget axis (schedules, or the wall-clock
    /// deadline) was exhausted before the exploration completed. The
    /// same [`Exhausted`](wfc_spec::control::Exhausted) the explorer
    /// raises, carrying the exact usage and a [`Progress`] snapshot.
    Exhausted(wfc_spec::control::Exhausted),
    /// One execution exceeded the per-execution `budget.steps` cap.
    StepLimit {
        /// The configured `budget.steps`.
        limit: u64,
        /// The schedule prefix that was abandoned.
        schedule: Schedule,
    },
    /// The exploration's [`CancelToken`] was set (server-side deadline
    /// or shutdown). Polled at schedule boundaries, so cancellation
    /// latency is at most one schedule execution and the snapshot
    /// counts only fully executed schedules.
    Cancelled {
        /// Work completed when the token was observed.
        progress: Progress,
    },
    /// A replayed schedule did not match the scenario.
    Replay(String),
    /// A spec or schedule string did not parse, or named an unknown
    /// target.
    Parse(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Exhausted(e) => write!(f, "{e}"),
            SchedError::Cancelled { .. } => {
                write!(f, "exploration cancelled before completion")
            }
            SchedError::StepLimit { limit, schedule } => write!(
                f,
                "execution exceeded {limit} steps (schedule prefix {schedule})"
            ),
            SchedError::Replay(m) => write!(f, "replay mismatch: {m}"),
            SchedError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// A schedule that produced a violation, with the rendered evidence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// The replayable schedule.
    pub schedule: Schedule,
    /// Violation message, including the rendered history.
    pub message: String,
}

/// The result of an exploration.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Exploration {
    /// Schedules executed (including sleep-redundant continuations).
    pub schedules: u64,
    /// Scheduler steps executed, summed over all schedules — the
    /// `steps` axis of the [`Progress`] this exploration would report
    /// if preempted.
    pub steps: u64,
    /// Sibling branches skipped by sleep-set pruning.
    pub pruned: u64,
    /// Longest schedule seen, in steps.
    pub max_depth: u64,
    /// Largest preemption count seen along any schedule.
    pub max_preemptions: u32,
    /// Rounds run (preemption bounds tried, or PCT runs).
    pub rounds: u32,
    /// `true` if the state space was covered exhaustively (always false
    /// for PCT; false for preemption mode if the final bound still
    /// suppressed alternatives).
    pub complete: bool,
    /// The first violating schedule found, if any.
    pub counterexample: Option<Counterexample>,
}

/// Explores the scenario built by `build` under `options`.
///
/// `build` is invoked once per schedule and must construct a fresh,
/// deterministic [`Execution`] each time (same cells in the same order,
/// same thread bodies) — the replay guarantees depend on it.
pub fn explore<F: FnMut() -> Execution>(
    options: &SchedOptions,
    mut build: F,
) -> Result<Exploration, SchedError> {
    let mut pool = Pool::new();
    let mut stats = Exploration::default();
    match options.mode {
        Mode::Exhaustive { sleep_sets } => {
            stats.rounds = 1;
            let bounded = dfs(options, &mut pool, &mut build, None, sleep_sets, &mut stats)?;
            debug_assert!(!bounded);
            if stats.counterexample.is_none() {
                stats.complete = true;
            }
        }
        Mode::Preemption { max_preemptions } => {
            for k in 0..=max_preemptions {
                stats.rounds += 1;
                let bounded = dfs(options, &mut pool, &mut build, Some(k), false, &mut stats)?;
                if stats.counterexample.is_some() {
                    break;
                }
                if !bounded {
                    stats.complete = true;
                    break;
                }
            }
        }
        Mode::Pct { seed, runs, depth } => {
            let mut rng = SplitMix64::new(seed);
            // Horizon estimate for change-point placement; refined from
            // the previous run's actual length.
            let mut horizon: u64 = 32;
            for _ in 0..runs {
                poll(options, &stats)?;
                stats.rounds += 1;
                let decider = PctDecider::new(&mut rng, depth, horizon);
                let (res, _) = exec::run_one(&mut pool, &mut build, decider, options.budget.steps);
                if res.aborted {
                    return Err(SchedError::StepLimit {
                        limit: options.budget.steps,
                        schedule: res.schedule,
                    });
                }
                horizon = res.steps.max(1);
                tally(&mut stats, &res);
                if let Some(message) = res.violation {
                    stats.counterexample = Some(Counterexample {
                        schedule: res.schedule,
                        message,
                    });
                    break;
                }
            }
        }
    }
    wfc_obs::gauge_max!("sched.max_depth", stats.max_depth);
    Ok(stats)
}

/// The per-schedule-boundary control poll. The schedules axis is
/// checked unconditionally (so `max_schedules = 0` still refuses to
/// run, and a budget equal to the tree size still completes), while
/// cancellation and the wall deadline wait until at least one schedule
/// has run — a preempted exploration therefore always reports nonzero,
/// resumable [`Progress`], and cancellation latency is bounded by one
/// schedule execution.
fn poll(options: &SchedOptions, stats: &Exploration) -> Result<(), SchedError> {
    let progress = Progress {
        schedules: stats.schedules,
        steps: stats.steps,
        ..Progress::default()
    };
    if let Some(e) = options.budget.schedules_exceeded(stats.schedules, progress) {
        return Err(SchedError::Exhausted(e));
    }
    if stats.schedules > 0 {
        if options.cancel.is_cancelled() {
            progress.record();
            return Err(SchedError::Cancelled { progress });
        }
        if let Some(e) = options.budget.wall_exceeded(progress) {
            return Err(SchedError::Exhausted(e));
        }
    }
    Ok(())
}

/// The outcome of re-running one recorded schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Replayed {
    /// The schedule actually taken (equals the input on success).
    pub schedule: Schedule,
    /// Steps executed.
    pub steps: u64,
    /// Preemptions along the schedule.
    pub preemptions: u32,
    /// The violation the schedule produces, if any.
    pub violation: Option<String>,
}

/// Re-executes one serialized schedule against the scenario.
///
/// The schedule must cover the entire execution: every step must name an
/// enabled thread, and the execution must finish exactly when the
/// schedule does. Deterministic: replaying the same schedule twice
/// yields byte-identical violations.
pub fn replay<F: FnMut() -> Execution>(
    schedule: &Schedule,
    mut build: F,
) -> Result<Replayed, SchedError> {
    let mut pool = Pool::new();
    let decider = ReplayDecider {
        schedule: schedule.choices().to_vec(),
    };
    let (res, _) = exec::run_one(&mut pool, &mut build, decider, schedule.len() as u64 + 1);
    if let Some(msg) = res.decider_error {
        return Err(SchedError::Replay(msg));
    }
    if res.aborted || res.steps != schedule.len() as u64 {
        return Err(SchedError::Replay(format!(
            "schedule has {} steps but the execution used {}",
            schedule.len(),
            res.steps
        )));
    }
    Ok(Replayed {
        schedule: res.schedule,
        steps: res.steps,
        preemptions: res.preemptions,
        violation: res.violation,
    })
}

fn tally(stats: &mut Exploration, res: &RunResult) {
    stats.schedules += 1;
    stats.steps += res.steps;
    stats.max_depth = stats.max_depth.max(res.steps);
    stats.max_preemptions = stats.max_preemptions.max(res.preemptions);
    wfc_obs::counter!("sched.schedules");
    wfc_obs::counter!("sched.handoffs", res.handoffs);
    wfc_obs::counter!("sched.self_grants", res.self_grants);
    wfc_obs::histogram!("sched.preemptions", res.preemptions);
}

/// A deferred DFS branch: the schedule prefix to replay and the sleep
/// set in force at the end of that prefix.
type Branch = (Vec<u8>, Vec<(usize, Access)>);

/// One DFS pass. Returns `true` if the preemption bound suppressed at
/// least one alternative (the pass under-approximates the tree).
fn dfs<F: FnMut() -> Execution>(
    options: &SchedOptions,
    pool: &mut Pool,
    build: &mut F,
    preemption_bound: Option<u32>,
    sleep_sets: bool,
    stats: &mut Exploration,
) -> Result<bool, SchedError> {
    let mut bounded = false;
    let mut stack: Vec<Branch> = vec![(Vec::new(), Vec::new())];
    while let Some((prefix, sleep)) = stack.pop() {
        poll(options, stats)?;
        let decider = DfsDecider {
            replayed: prefix.len(),
            path: prefix,
            sleep,
            use_sleep: sleep_sets,
            preemption_bound,
            preemptions: 0,
            bounded: false,
            dead: false,
            pruned: 0,
            siblings: Vec::new(),
        };
        let (res, decider) = exec::run_one(pool, build, decider, options.budget.steps);
        if let Some(msg) = res.decider_error {
            // A prefix generated by a previous run must replay cleanly;
            // failure means the scenario is not deterministic.
            return Err(SchedError::Replay(format!(
                "DFS prefix diverged — scenario builder is nondeterministic: {msg}"
            )));
        }
        if res.aborted {
            return Err(SchedError::StepLimit {
                limit: options.budget.steps,
                schedule: res.schedule,
            });
        }
        tally(stats, &res);
        stats.pruned += decider.pruned;
        wfc_obs::counter!("sched.pruned", decider.pruned);
        bounded |= decider.bounded;
        if let Some(message) = res.violation {
            stats.counterexample = Some(Counterexample {
                schedule: res.schedule,
                message,
            });
            return Ok(bounded);
        }
        // Later siblings must be explored after earlier ones (their
        // sleep sets assume it), so push in reverse generation order.
        for entry in decider.siblings.into_iter().rev() {
            stack.push(entry);
        }
    }
    Ok(bounded)
}

/// DFS decider: follows a prefix, then takes default choices while
/// generating sibling prefixes with their sleep sets.
struct DfsDecider {
    /// The schedule so far: the replayed prefix, then the choices this
    /// run made past it.
    path: Vec<u8>,
    /// How many leading steps of `path` replay the branch's prefix.
    replayed: usize,
    /// Current sleep set: threads (with the access they announced when
    /// put to sleep) whose scheduling would re-explore a covered
    /// subtree.
    sleep: Vec<(usize, Access)>,
    use_sleep: bool,
    preemption_bound: Option<u32>,
    preemptions: u32,
    bounded: bool,
    /// All candidates slept: this continuation re-runs covered ground
    /// and must not branch further.
    dead: bool,
    pruned: u64,
    siblings: Vec<Branch>,
}

impl DfsDecider {
    fn switch_cost(prev: Option<usize>, to: usize, choosable: ThreadSet) -> u32 {
        u32::from(prev.is_some_and(|p| p != to && choosable.contains(p)))
    }
}

impl Decider for DfsDecider {
    fn choose(
        &mut self,
        step: usize,
        choosable: ThreadSet,
        enabled: ThreadSet,
        pending: &[Option<Access>],
        prev: Option<usize>,
    ) -> Result<usize, String> {
        if step < self.replayed {
            let want = self.path[step] as usize;
            if !enabled.contains(want) {
                return Err(format!("step {step}: thread {want} is not enabled"));
            }
            self.preemptions += Self::switch_cost(prev, want, choosable);
            return Ok(want);
        }
        let candidates: ThreadSet = if self.use_sleep && !self.dead {
            let asleep = |t: usize| {
                self.sleep
                    .iter()
                    .any(|&(s, a)| s == t && Some(a) == pending[t])
            };
            choosable.iter().filter(|&t| !asleep(t)).collect()
        } else {
            choosable
        };
        self.pruned += (choosable.len() - candidates.len()) as u64;
        let (chosen, branch) = match candidates.first() {
            None => {
                self.dead = true;
                (choosable.first().expect("choosable is never empty"), false)
            }
            // Preemption mode prefers continuing the previous thread so
            // the default path stays within every bound.
            Some(first) => match prev {
                Some(p) if self.preemption_bound.is_some() && candidates.contains(p) => {
                    (p, !self.dead)
                }
                _ => (first, !self.dead),
            },
        };
        if branch && candidates.len() > 1 {
            let mut sibling_sleep = self.sleep.clone();
            sibling_sleep.push((chosen, pending[chosen].expect("chosen is enabled")));
            for alt in candidates.iter().filter(|&t| t != chosen) {
                if let Some(bound) = self.preemption_bound {
                    if self.preemptions + Self::switch_cost(prev, alt, choosable) > bound {
                        self.bounded = true;
                        continue;
                    }
                }
                let mut alt_prefix = Vec::with_capacity(step + 1);
                alt_prefix.extend_from_slice(&self.path);
                alt_prefix.push(alt as u8);
                // The sibling's sleep set holds at the state *after* its
                // prefix, whose final step is `alt` itself — so entries
                // dependent on `alt`'s access must wake now, exactly as
                // the `retain` below wakes sleepers when `chosen` runs.
                // Keeping them asleep prunes subtrees that were never
                // covered (the bug the `triple_broken` fixture exposed).
                let alt_acc = pending[alt].expect("alt is enabled");
                let woken: Vec<(usize, Access)> = sibling_sleep
                    .iter()
                    .copied()
                    .filter(|&(t, a)| t != alt && a.independent(alt_acc))
                    .collect();
                self.siblings.push((alt_prefix, woken));
                sibling_sleep.push((alt, alt_acc));
            }
        }
        let acc = pending[chosen].expect("chosen is enabled");
        self.sleep
            .retain(|&(t, a)| t != chosen && a.independent(acc));
        self.preemptions += Self::switch_cost(prev, chosen, choosable);
        self.path.push(chosen as u8);
        Ok(chosen)
    }
}

/// PCT decider: highest random priority wins; priorities drop at the
/// run's randomly chosen change points.
struct PctDecider {
    /// Priority per thread id, grown lazily; higher wins.
    priorities: Vec<u64>,
    change_at: Vec<u64>,
    next_low: u64,
    rng_stream: SplitMix64,
    steps: u64,
}

impl PctDecider {
    fn new(rng: &mut SplitMix64, depth: u32, horizon: u64) -> PctDecider {
        let change_at = (1..depth.max(1))
            .map(|_| rng.gen_range(1, horizon.max(2) as usize) as u64)
            .collect();
        PctDecider {
            priorities: Vec::new(),
            change_at,
            next_low: 1_000,
            rng_stream: SplitMix64::new(rng.next_u64()),
            steps: 0,
        }
    }

    fn priority(&mut self, t: usize) -> u64 {
        while self.priorities.len() <= t {
            // Initial priorities are all above the change-point band.
            let p = 1_000_000 + self.rng_stream.next_u64() % 1_000_000;
            self.priorities.push(p);
        }
        self.priorities[t]
    }

    /// The highest-priority thread of `choosable`; the lowest id wins a
    /// tie.
    fn highest(&mut self, choosable: ThreadSet) -> usize {
        let mut threads = choosable.iter();
        let mut pick = threads.next().expect("choosable is never empty");
        let mut best = self.priority(pick);
        for t in threads {
            let p = self.priority(t);
            if p > best {
                best = p;
                pick = t;
            }
        }
        pick
    }
}

impl Decider for PctDecider {
    fn choose(
        &mut self,
        _step: usize,
        choosable: ThreadSet,
        _enabled: ThreadSet,
        _pending: &[Option<Access>],
        _prev: Option<usize>,
    ) -> Result<usize, String> {
        self.steps += 1;
        let pick = self.highest(choosable);
        if self.change_at.contains(&self.steps) {
            // Demote the thread about to run below everything else and
            // re-pick.
            self.next_low -= 1;
            self.priorities[pick] = self.next_low;
            return Ok(self.highest(choosable));
        }
        Ok(pick)
    }
}

/// Replay decider: the recorded schedule, verbatim.
struct ReplayDecider {
    schedule: Vec<u8>,
}

impl Decider for ReplayDecider {
    fn choose(
        &mut self,
        step: usize,
        _choosable: ThreadSet,
        enabled: ThreadSet,
        _pending: &[Option<Access>],
        _prev: Option<usize>,
    ) -> Result<usize, String> {
        let Some(&want) = self.schedule.get(step) else {
            return Err(format!(
                "execution still running after the schedule's {} steps",
                self.schedule.len()
            ));
        };
        let want = want as usize;
        if !enabled.contains(want) {
            return Err(format!(
                "step {step}: schedule names thread {want}, which is not enabled"
            ));
        }
        Ok(want)
    }
}
