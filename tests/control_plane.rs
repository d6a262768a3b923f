//! Acceptance tests for the unified control plane (`wfc_spec::control`):
//! one `Budget`/`CancelToken`/`Progress` triple threads through the
//! explorer BFS, the sched model checker, and the witness search, with
//! two guarantees at every poll point:
//!
//! 1. **Latency** — a set token or an expired wall stops the engine
//!    within one sync interval (one BFS level, one schedule), returning
//!    a `Progress` snapshot of the work already done, so a caller can
//!    resize its budgets and resume.
//! 2. **Transparency** — an armed-but-never-set token changes nothing:
//!    completed runs are bit-identical with and without control signals,
//!    at any thread count.

use std::sync::atomic::AtomicBool;
use std::time::Duration;

use wait_free_consensus::prelude::*;

use consensus::tas_consensus_system;
use explorer::{ExploreOptions, ExplorerError};
use wfc_sched::{fixtures, Mode, SchedError, SchedOptions};
use wfc_spec::control::{CancelToken, Resource, Wall};

/// A pre-set token cancels the explorer at its *first* sync point — the
/// top of the first BFS level — after the root is already interned, so
/// the returned progress shows exactly the resumable work done.
#[test]
fn explorer_cancellation_stops_within_one_sync_interval() {
    static FLAG: AtomicBool = AtomicBool::new(true);
    let sys = tas_consensus_system([false, true]).system;
    let opts = ExploreOptions::default().with_cancel(CancelToken::new(&FLAG));
    match explorer::explore(&sys, &opts) {
        Err(ExplorerError::Cancelled { progress }) => {
            assert_eq!(progress.configs, 1, "only the root was interned");
            assert_eq!(progress.depth, 0, "no level was expanded");
        }
        other => panic!("expected Cancelled at the first level, got {other:?}"),
    }
}

/// An already-expired wall deadline surfaces as a wall-clock `Exhausted`
/// at the same first sync point, with the deadline's allowance as the
/// budget — the same shape a served `deadline-exceeded` error carries.
#[test]
fn explorer_expired_wall_is_a_wall_exhausted_error() {
    let sys = tas_consensus_system([false, true]).system;
    let mut opts = ExploreOptions::default();
    opts.budget.wall = Some(Wall::expires_in(Duration::ZERO));
    match explorer::explore(&sys, &opts) {
        Err(ExplorerError::Exhausted(e)) => {
            assert_eq!(e.resource, Resource::WallMs);
            assert_eq!(e.budget, 0, "the allowance was zero ms");
            assert!(e.progress.configs >= 1, "the root was interned first");
        }
        other => panic!("expected a wall Exhausted error, got {other:?}"),
    }
}

/// The hierarchy sweeps poll before every candidate, on every worker:
/// a pre-set token stops a two-worker sweep before any candidate is
/// explored.
#[test]
fn sweep_cancellation_stops_before_any_candidate() {
    static FLAG: AtomicBool = AtomicBool::new(true);
    let opts = ExploreOptions::default()
        .with_threads(2)
        .with_cancel(CancelToken::new(&FLAG));
    match hierarchy::families::search_shift2_three_process_full(&opts) {
        Err(ExplorerError::Cancelled { progress }) => {
            assert_eq!(progress.steps, 0, "no exploration ran");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// Same for the wall clock: a deadline already past stops a two-worker
/// sweep with a wall `Exhausted` before any candidate is explored.
#[test]
fn sweep_expired_wall_stops_before_any_candidate() {
    let mut opts = ExploreOptions::default().with_threads(2);
    opts.budget.wall = Some(Wall::expires_in(Duration::ZERO));
    match hierarchy::families::search_shift2_three_process_full(&opts) {
        Err(ExplorerError::Exhausted(e)) => {
            assert_eq!(e.resource, Resource::WallMs);
            assert_eq!(e.progress.steps, 0, "no exploration ran");
        }
        other => panic!("expected a wall Exhausted error, got {other:?}"),
    }
}

/// The sched checker polls at schedule boundaries, with the cancel check
/// gated on having finished at least one schedule — so a pre-set token
/// stops the DFS after **exactly one** schedule, and the progress
/// snapshot proves real, resumable work (nonzero steps).
#[test]
fn sched_cancellation_stops_after_exactly_one_schedule() {
    static FLAG: AtomicBool = AtomicBool::new(true);
    let mut build = fixtures::build("srsw").unwrap();
    let options = SchedOptions::default()
        .with_mode(Mode::Exhaustive { sleep_sets: false })
        .with_cancel(CancelToken::new(&FLAG));
    match wfc_sched::explore(&options, &mut build) {
        Err(SchedError::Cancelled { progress }) => {
            assert_eq!(progress.schedules, 1, "the cut lands at the next boundary");
            assert!(progress.steps > 0, "the completed schedule took steps");
        }
        other => panic!("expected Cancelled after one schedule, got {other:?}"),
    }
}

/// Same latency bound for the wall clock: an expired deadline stops the
/// sched DFS at the first boundary after one schedule has run.
#[test]
fn sched_expired_wall_stops_after_exactly_one_schedule() {
    let mut build = fixtures::build("srsw").unwrap();
    let mut options = SchedOptions::default().with_mode(Mode::Exhaustive { sleep_sets: false });
    options.budget.wall = Some(Wall::expires_in(Duration::ZERO));
    match wfc_sched::explore(&options, &mut build) {
        Err(SchedError::Exhausted(e)) => {
            assert_eq!(e.resource, Resource::WallMs);
            assert_eq!(e.progress.schedules, 1);
            assert!(e.progress.steps > 0);
        }
        other => panic!("expected a wall Exhausted error, got {other:?}"),
    }
}

/// The witness search polls the same plane: a pre-set token cancels it
/// before any candidate pair is certified.
#[test]
fn witness_search_is_cancellable() {
    static FLAG: AtomicBool = AtomicBool::new(true);
    let ty = std::sync::Arc::new(spec::canonical::test_and_set(2));
    let budget = wfc_spec::control::Budget::default();
    match spec::witness::find_witness_with(&ty, CancelToken::new(&FLAG), &budget) {
        Err(wfc_spec::AnalysisError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// Transparency: an armed token that never fires must not perturb a
/// completed exploration in any field, at any thread count — control
/// polling is observationally free.
#[test]
fn armed_but_unset_token_changes_nothing() {
    static FLAG: AtomicBool = AtomicBool::new(false);
    let sys = tas_consensus_system([false, true]).system;
    let plain = format!("{:?}", explorer::explore(&sys, &ExploreOptions::default()));
    for threads in [1usize, 2, 4, 8] {
        let mut opts = ExploreOptions::default()
            .with_threads(threads)
            .with_cancel(CancelToken::new(&FLAG));
        // A far-future wall exercises the wall poll without firing.
        opts.budget.wall = Some(Wall::expires_in(Duration::from_secs(3600)));
        let armed = format!("{:?}", explorer::explore(&sys, &opts));
        assert_eq!(
            plain, armed,
            "armed token perturbed run at threads={threads}"
        );
    }

    let mut build = fixtures::build("srsw").unwrap();
    let base = SchedOptions::default().with_mode(Mode::Exhaustive { sleep_sets: true });
    let plain = format!("{:?}", wfc_sched::explore(&base, &mut build));
    let mut armed_opts = base.with_cancel(CancelToken::new(&FLAG));
    armed_opts.budget.wall = Some(Wall::expires_in(Duration::from_secs(3600)));
    let armed = format!("{:?}", wfc_sched::explore(&armed_opts, &mut build));
    assert_eq!(plain, armed, "armed token perturbed the sched run");
}
