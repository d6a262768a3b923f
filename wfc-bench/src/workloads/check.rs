//! The check workloads: research batches that call the engine crates'
//! public functions directly, with `ExploreOptions::default()
//! .with_threads(2)`, in passes over a fixed job list.
//!
//! Every job carries its pinned oracle: the semantic result only —
//! candidate counts and zero survivors for a sweep, `total_configs` and
//! `D` for access bounds, a holding certificate, each sched verdict and,
//! for a violation, a counterexample that replays to the same message.
//! Work counts a legitimate optimisation may change (sched schedules
//! and prunings, explorer edges, sweep explorations) are layer metrics
//! and never part of the oracle.

use std::time::{Duration, Instant};

use wfc_core::OneUseSource;
use wfc_explorer::{ExploreOptions, ExplorerError};
use wfc_hierarchy::families;
use wfc_hierarchy::impossibility::search_one_round_protocols;
use wfc_hierarchy::CatalogEntry;
use wfc_obs::report::RunReport;
use wfc_sched::{fixtures, Exploration, Mode, SchedError, SchedOptions};
use wfc_spec::prng::SplitMix64;

use super::{overhead_pct, Params, Workload, SETUP_REPS};
use crate::alloc;
use crate::metrics::{median, Outcome};
use crate::trace::{self, Harvest};

/// An exhaustive protocol-family sweep in `wfc-hierarchy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// `search_shift2_three_process_full`: all 18³ winner tables.
    Shift2Full,
    /// `search_shift2_three_process_reduced`: the 9 · 18 natural ones.
    Shift2Reduced,
    /// `search_one_round_protocols`: register-only one-round pairs.
    OneRound,
    /// `search_shift1_protocols`.
    Shift1,
    /// `search_mpr1_protocols`.
    Mpr1,
}

/// One engine call and its pinned expectation.
#[derive(Clone, Debug, PartialEq)]
pub enum Call {
    /// A sweep: `candidates` examined, none surviving.
    Sweep {
        /// Which sweep.
        sweep: Sweep,
        /// Candidates the sweep must examine.
        candidates: usize,
    },
    /// `verify_entry` on catalog row `index` must hold.
    VerifyEntry {
        /// Row index into `catalog()`.
        index: usize,
    },
    /// `access_bounds(n, cas_announce)` with pinned totals.
    AccessBounds {
        /// Process count.
        n: usize,
        /// Expected `total_configs`.
        configs: usize,
        /// Expected `D`.
        d: usize,
    },
    /// `check_theorem5` on register protocol `protocol` must hold.
    Theorem5 {
        /// Index into `wfc_bench::register_protocols()`.
        protocol: usize,
    },
    /// A sched fixture exploration with its expected verdict; a
    /// violation must also replay to the same message.
    Sched {
        /// Fixture name.
        target: &'static str,
        /// Exploration strategy.
        mode: Mode,
        /// `true` if a counterexample must be found.
        violation: bool,
    },
}

/// One named job of a pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Human-readable job name (for failure messages).
    pub name: String,
    /// The call and its expectation.
    pub call: Call,
}

/// Passing fixtures explored exhaustively by a full sched pass.
const DFS_PASSING: [&str; 7] = ["srsw", "seqlock", "t4", "ring", "triple", "cell", "repl"];
/// Planted-bug fixtures: each must yield a replayable counterexample.
const VIOLATING: [&str; 6] = [
    "regular",
    "broken",
    "repl_broken",
    "ring_broken",
    "triple_broken",
    "cell_broken",
];

const DFS: Mode = Mode::Exhaustive { sleep_sets: true };

fn sched_job(target: &'static str, mode: Mode, violation: bool) -> Job {
    let how = match mode {
        Mode::Exhaustive { .. } => "dfs".to_owned(),
        Mode::Preemption { max_preemptions } => format!("preempt<={max_preemptions}"),
        Mode::Pct { seed, runs, .. } => format!("pct runs={runs} seed={seed}"),
    };
    Job {
        name: format!("sched {target} {how}"),
        call: Call::Sched {
            target,
            mode,
            violation,
        },
    }
}

/// The job list of one pass. `seed` drives the only random input, the
/// PCT walk of `mrsw`; `smoke` picks a small list that runs in well
/// under a second in a debug build.
pub fn jobs(workload: Workload, catalog: &[CatalogEntry], seed: u64, smoke: bool) -> Vec<Job> {
    let pct_seed = SplitMix64::new(seed).next_u64();
    match workload {
        Workload::CheckSweep if smoke => vec![
            sweep_job(Sweep::Shift2Reduced, 162),
            sweep_job(Sweep::Mpr1, 256),
            Job {
                name: "access_bounds cas_announce n=3".to_owned(),
                call: Call::AccessBounds {
                    n: 3,
                    configs: 816,
                    d: 11,
                },
            },
            theorem5_job(0),
        ],
        Workload::CheckSweep => {
            // n=4, not n=5: the 484k-configuration BFS of n=5 outgrows
            // the CPU caches, and on a shared host its time swung by
            // ±20 % between back-to-back calls while the sweeps moved
            // ±5 %. At n=4 the BFS still has frontiers wide enough for
            // both pool threads.
            let mut jobs = vec![
                Job {
                    name: "access_bounds cas_announce n=4".to_owned(),
                    call: Call::AccessBounds {
                        n: 4,
                        configs: 17_920,
                        d: 19,
                    },
                },
                sweep_job(Sweep::Shift2Full, 5832),
                sweep_job(Sweep::Shift2Reduced, 162),
                sweep_job(Sweep::OneRound, 1024),
                sweep_job(Sweep::Shift1, 4096),
                sweep_job(Sweep::Mpr1, 256),
            ];
            jobs.extend((0..catalog.len()).map(|index| Job {
                name: format!("verify_entry {}", catalog[index].ty.name()),
                call: Call::VerifyEntry { index },
            }));
            jobs.extend((0..wfc_bench::register_protocols().len()).map(theorem5_job));
            jobs
        }
        _ if smoke => {
            let mut jobs: Vec<Job> = ["srsw", "t4", "triple", "cell", "repl"]
                .into_iter()
                .map(|t| sched_job(t, DFS, false))
                .collect();
            jobs.push(sched_job(
                "mrsw",
                Mode::Pct {
                    seed: pct_seed,
                    runs: 8,
                    depth: 3,
                },
                false,
            ));
            jobs.extend(
                ["broken", "ring_broken", "cell_broken"]
                    .into_iter()
                    .map(|t| sched_job(t, DFS, true)),
            );
            jobs
        }
        _ => {
            let mut jobs: Vec<Job> = DFS_PASSING
                .into_iter()
                .map(|t| sched_job(t, DFS, false))
                .collect();
            jobs.push(sched_job(
                "mrsw",
                Mode::Preemption { max_preemptions: 2 },
                false,
            ));
            jobs.push(sched_job(
                "mrsw",
                Mode::Pct {
                    seed: pct_seed,
                    runs: 256,
                    depth: 3,
                },
                false,
            ));
            jobs.extend(VIOLATING.into_iter().map(|t| sched_job(t, DFS, true)));
            jobs
        }
    }
}

fn sweep_job(sweep: Sweep, candidates: usize) -> Job {
    Job {
        name: format!("sweep {sweep:?}"),
        call: Call::Sweep { sweep, candidates },
    }
}

fn theorem5_job(protocol: usize) -> Job {
    Job {
        name: format!(
            "check_theorem5 {}",
            wfc_bench::register_protocols()[protocol].0
        ),
        call: Call::Theorem5 { protocol },
    }
}

/// Explores a sched fixture with the same defaults a `wfc sched` spec
/// resolves to (schedule budget 200000, step cap 10000).
///
/// # Errors
///
/// An unknown fixture, or the checker's own error.
fn explore_fixture(target: &str, mode: Mode) -> Result<Exploration, SchedError> {
    let mut build = fixtures::build(target)
        .ok_or_else(|| SchedError::Parse(format!("unknown fixture {target}")))?;
    wfc_sched::explore(&SchedOptions::default().with_mode(mode), &mut build)
}

/// What one job did, beyond pass/fail.
#[derive(Clone, Copy, Debug, Default)]
struct Work {
    explorations: u64,
    schedules: u64,
    pruned: u64,
    steps: u64,
}

/// Which layer a job belongs to; indexes the per-layer tallies.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layer {
    Hierarchy = 0,
    VerifyEntry = 1,
    AccessBounds = 2,
    Theorem5 = 3,
    Sched = 4,
}

fn layer(call: &Call) -> Layer {
    match call {
        Call::Sweep { .. } => Layer::Hierarchy,
        Call::VerifyEntry { .. } => Layer::VerifyEntry,
        Call::AccessBounds { .. } => Layer::AccessBounds,
        Call::Theorem5 { .. } => Layer::Theorem5,
        Call::Sched { .. } => Layer::Sched,
    }
}

fn explorer_err(e: ExplorerError) -> String {
    format!("explorer error: {e}")
}

fn run_sweep(sweep: Sweep, opts: &ExploreOptions) -> Result<(usize, usize, usize), ExplorerError> {
    let family = |o: families::FamilyOutcome| (o.candidates, o.survivor_count, o.explorations);
    Ok(match sweep {
        Sweep::Shift2Full => family(families::search_shift2_three_process_full(opts)?),
        Sweep::Shift2Reduced => family(families::search_shift2_three_process_reduced(opts)?),
        Sweep::Shift1 => family(families::search_shift1_protocols(opts)?),
        Sweep::Mpr1 => family(families::search_mpr1_protocols(opts)?),
        Sweep::OneRound => {
            let o = search_one_round_protocols(opts)?;
            (o.candidates, o.survivors.len(), o.explorations)
        }
    })
}

/// Runs one job and checks it against its pinned expectation.
fn run_job(
    job: &Job,
    catalog: &[CatalogEntry],
    opts: &ExploreOptions,
    traced: bool,
) -> Result<Work, String> {
    match &job.call {
        Call::Sweep { sweep, candidates } => {
            let (seen, survivors, explorations) = {
                let _g = trace::call_span(traced, "hierarchy::sweep");
                run_sweep(*sweep, opts).map_err(explorer_err)?
            };
            if seen != *candidates || survivors != 0 {
                return Err(format!(
                    "{seen} candidates and {survivors} survivors, expected {candidates} and 0"
                ));
            }
            Ok(Work {
                explorations: explorations as u64,
                ..Work::default()
            })
        }
        Call::VerifyEntry { index } => {
            let _g = trace::call_span(traced, "hierarchy::verify_entry");
            if wfc_hierarchy::verify_entry(&catalog[*index]) {
                Ok(Work::default())
            } else {
                Err("catalog entry no longer verifies".to_owned())
            }
        }
        Call::AccessBounds { n, configs, d } => {
            let bounds = {
                let _g = trace::call_span(traced, "core::access_bounds");
                wfc_core::access_bounds(*n, wfc_consensus::cas_announce_consensus_system, opts)
                    .map_err(explorer_err)?
            };
            if bounds.total_configs != *configs || bounds.d_max != *d {
                return Err(format!(
                    "total_configs {} and D {}, expected {configs} and {d}",
                    bounds.total_configs, bounds.d_max
                ));
            }
            Ok(Work::default())
        }
        Call::Theorem5 { protocol } => {
            let cert = {
                let _g = trace::call_span(traced, "core::check_theorem5");
                wfc_core::check_theorem5(
                    2,
                    wfc_bench::register_protocols()[*protocol].1,
                    &OneUseSource::OneUseBits,
                    opts,
                )
                .map_err(|e| format!("transform error: {e}"))?
            };
            if cert.holds() {
                Ok(Work::default())
            } else {
                Err("the Theorem 5 certificate no longer holds".to_owned())
            }
        }
        Call::Sched {
            target,
            mode,
            violation,
        } => {
            let found = {
                let _g = trace::call_span(traced, "sched::explore");
                explore_fixture(target, *mode).map_err(|e| format!("sched error: {e}"))?
            };
            let work = Work {
                schedules: found.schedules,
                pruned: found.pruned,
                steps: found.steps,
                ..Work::default()
            };
            match (&found.counterexample, violation) {
                (None, false) => Ok(work),
                (Some(cx), true) => {
                    let replayed = {
                        let _g = trace::call_span(traced, "sched::replay");
                        let build = fixtures::build(target).expect("explored fixtures exist");
                        wfc_sched::replay(&cx.schedule, build)
                            .map_err(|e| format!("counterexample does not replay: {e}"))?
                    };
                    if replayed.violation.as_deref() == Some(cx.message.as_str()) {
                        Ok(work)
                    } else {
                        Err(format!(
                            "replaying {} gave {:?}, expected the original violation",
                            cx.schedule, replayed.violation
                        ))
                    }
                }
                (Some(cx), false) => Err(format!("unexpected violation: {}", cx.message)),
                (None, true) => Err("no counterexample found".to_owned()),
            }
        }
    }
}

/// Per-pass bookkeeping for the traced layer metrics.
#[derive(Default)]
struct Tally {
    passes: u64,
    work: Work,
    /// Wall time per layer, and calls per layer.
    time: [Duration; 5],
    calls: [u64; 5],
    /// Allocations inside sched jobs and inside hierarchy sweeps.
    sched_allocs: u64,
    sweep_allocs: u64,
    engine: Duration,
}

/// Runs one pass over `jobs`; returns its wall time.
fn run_pass(
    jobs: &[Job],
    catalog: &[CatalogEntry],
    traced: bool,
    out: &mut Outcome,
    tally: &mut Tally,
    harvest: &mut Harvest,
) -> Duration {
    // Built per pass so its observability default follows the global
    // flag of the phase it runs in.
    let opts = ExploreOptions::default().with_threads(2);
    let started = Instant::now();
    let _pass = trace::phase_span(traced, "pass");
    for job in jobs {
        let allocs = alloc::totals().0;
        let t = Instant::now();
        let result = run_job(job, catalog, &opts, traced);
        let dt = t.elapsed();
        let allocs = alloc::totals().0 - allocs;
        out.attempted += 1;
        match result {
            Ok(w) => {
                let l = layer(&job.call);
                tally.time[l as usize] += dt;
                tally.calls[l as usize] += 1;
                tally.engine += dt;
                tally.work.explorations += w.explorations;
                tally.work.schedules += w.schedules;
                tally.work.pruned += w.pruned;
                tally.work.steps += w.steps;
                match l {
                    Layer::Sched => tally.sched_allocs += allocs,
                    Layer::Hierarchy => tally.sweep_allocs += allocs,
                    _ => {}
                }
            }
            Err(why) => out.fail(format!("{}: {why}", job.name)),
        }
        if traced {
            harvest.absorb();
        }
    }
    tally.passes += 1;
    started.elapsed()
}

/// Runs passes over `jobs` for about `seconds` (at least one pass; a
/// pass starts only if half of it still fits). This is the whole
/// measured phase of a check workload; it is public so tests can run a
/// pass over an altered job list.
pub fn run_passes(
    jobs: &[Job],
    catalog: &[CatalogEntry],
    seconds: f64,
    out: &mut Outcome,
) -> Vec<Duration> {
    let mut tally = Tally::default();
    let mut harvest = Harvest::default();
    passes(jobs, catalog, seconds, false, out, &mut tally, &mut harvest)
}

fn passes(
    jobs: &[Job],
    catalog: &[CatalogEntry],
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
    tally: &mut Tally,
    harvest: &mut Harvest,
) -> Vec<Duration> {
    let started = Instant::now();
    let mut times: Vec<Duration> = Vec::new();
    while times
        .last()
        .is_none_or(|last| (started.elapsed() + *last / 2).as_secs_f64() < seconds)
    {
        times.push(run_pass(jobs, catalog, traced, out, tally, harvest));
    }
    times
}

/// The set-up a check run times: building the catalog and the job
/// list, then one warm-up pass over the smoke job list (oracle-checked
/// like any pass), so first-touch costs — worker threads, allocator
/// arenas, page faults — land here and not in the first measured pass.
fn setup(workload: Workload, params: &Params, out: &mut Outcome) -> (Vec<CatalogEntry>, Vec<Job>) {
    let catalog = wfc_hierarchy::catalog();
    let jobs = jobs(workload, &catalog, params.seed, params.smoke);
    let warm = self::jobs(workload, &catalog, params.seed, true);
    run_pass(
        &warm,
        &catalog,
        false,
        out,
        &mut Tally::default(),
        &mut Harvest::default(),
    );
    (catalog, jobs)
}

/// Runs a check workload: set-up, then passes for the window. A traced
/// run first times one untraced pass as the overhead reference.
pub fn run(workload: Workload, params: &Params, out: &mut Outcome) -> Option<RunReport> {
    let reps = if params.traced || params.smoke {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..reps {
        let t = Instant::now();
        built = Some(setup(workload, params, out));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let (catalog, jobs) = built.expect("at least one set-up");

    if !params.traced {
        out.set("setup_s", median(&setup_times), reps as u64);
        let times = run_passes(&jobs, &catalog, params.seconds, out);
        let ms: Vec<f64> = {
            let mut v: Vec<f64> = times.iter().map(|t| t.as_secs_f64() * 1000.0).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let n = ms.len() as u64;
        let total: f64 = ms.iter().sum();
        out.set("throughput_per_s", n as f64 / (total / 1000.0), n);
        out.set("latency_p50_ms", median(&ms), n);
        out.notes.push(format!(
            "passes {n} of {} jobs; pass_ms min {:.1} max {:.1}",
            jobs.len(),
            ms[0],
            ms[ms.len() - 1]
        ));
        return None;
    }

    // Overhead reference: one untraced pass.
    trace::set_tracing(false);
    let mut scratch = Tally::default();
    let mut unused = Harvest::default();
    let reference = run_pass(&jobs, &catalog, false, out, &mut scratch, &mut unused);
    trace::set_tracing(true);
    trace::discard();

    let mut tally = Tally::default();
    let mut harvest = Harvest::default();
    let remaining = (params.seconds - reference.as_secs_f64()).max(0.0);
    let times = passes(
        &jobs,
        &catalog,
        remaining,
        true,
        out,
        &mut tally,
        &mut harvest,
    );
    harvest.absorb();

    let passes = tally.passes as f64;
    let per_call_us = |l: Layer| {
        tally.time[l as usize].as_secs_f64() * 1e6 / tally.calls[l as usize].max(1) as f64
    };
    let w = tally.work;
    let n = tally.passes;
    out.set("hierarchy.explorations", w.explorations as f64 / passes, n);
    out.set(
        "hierarchy.us_per_exploration",
        tally.time[Layer::Hierarchy as usize].as_secs_f64() * 1e6 / w.explorations.max(1) as f64,
        w.explorations,
    );
    out.set(
        "core.access_bounds_ms",
        per_call_us(Layer::AccessBounds) / 1000.0,
        n,
    );
    out.set("core.theorem5_ms", per_call_us(Layer::Theorem5) / 1000.0, n);
    out.set("core.verify_entry_us", per_call_us(Layer::VerifyEntry), n);
    if workload == Workload::CheckSched {
        let sched = tally.time[Layer::Sched as usize].as_secs_f64();
        out.set("sched.schedules", w.schedules as f64 / passes, n);
        out.set("sched.pruned", w.pruned as f64 / passes, n);
        out.set(
            "sched.prune_ratio",
            w.pruned as f64 / (w.schedules + w.pruned).max(1) as f64,
            n,
        );
        out.set(
            "sched.us_per_schedule",
            sched * 1e6 / w.schedules.max(1) as f64,
            w.schedules,
        );
        out.set(
            "sched.ns_per_step",
            sched * 1e9 / w.steps.max(1) as f64,
            w.steps,
        );
        out.set(
            "alloc.per_schedule",
            tally.sched_allocs as f64 / w.schedules.max(1) as f64,
            w.schedules,
        );
    }
    out.set(
        "alloc.per_exploration",
        tally.sweep_allocs as f64 / w.explorations.max(1) as f64,
        w.explorations,
    );
    super::set_registry_layers(out, &harvest, passes, tally.engine.as_secs_f64());
    let traced_ms: Vec<f64> = times.iter().map(|t| t.as_secs_f64() * 1000.0).collect();
    out.set(
        "obs.trace_overhead_pct",
        overhead_pct(reference.as_secs_f64() * 1000.0, median(&traced_ms)),
        n,
    );
    Some(super::layer_report(workload, params, out, &harvest))
}
