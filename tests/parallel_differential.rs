//! Differential tests for the parallel explorer: every quantity computed
//! with `threads > 1` must be **bit-identical** to the sequential
//! (`threads = 1`) run — depths, configuration counts, access bounds,
//! decision sets, verdicts, and even which budget error surfaces.
//!
//! Comparison is by `Debug` rendering of the full result structs, so any
//! field that drifts under parallel scheduling fails the test.

use wait_free_consensus::prelude::*;

use consensus::{
    cas_announce_consensus_system, cas_consensus_system, queue_consensus_system,
    tas_consensus_system,
};
use explorer::{ExploreOptions, ObsOptions};
use hierarchy::{families, impossibility};

const THREADS: [usize; 3] = [2, 4, 8];

fn opts(threads: usize) -> ExploreOptions {
    ExploreOptions::default().with_threads(threads)
}

/// `explore` itself: one mixed-input system per protocol family.
#[test]
fn exploration_is_identical_across_thread_counts() {
    let families: Vec<(&str, explorer::System)> = vec![
        ("tas", tas_consensus_system([false, true]).system),
        ("queue", queue_consensus_system([false, true]).system),
        ("cas", cas_consensus_system(&[false, true, true]).system),
        (
            "cas_announce",
            cas_announce_consensus_system(&[true, false]).system,
        ),
    ];
    for (name, sys) in &families {
        let seq = format!("{:?}", explorer::explore(sys, &opts(1)).unwrap());
        for t in THREADS {
            let par = format!("{:?}", explorer::explore(sys, &opts(t)).unwrap());
            assert_eq!(seq, par, "{name}: explore differs at threads={t}");
        }
    }
}

/// The Section 4.2 analysis: 2^n trees fanned across the pool must merge
/// to the same depths, register bounds, and totals.
#[test]
fn access_bounds_are_identical_across_thread_counts() {
    type Builder = Box<dyn Fn(&[bool]) -> consensus::ConsensusSystem + Sync>;
    let families: Vec<(&str, usize, Builder)> = vec![
        (
            "tas",
            2,
            Box::new(|i: &[bool]| tas_consensus_system([i[0], i[1]])),
        ),
        ("cas", 3, Box::new(cas_consensus_system)),
        ("cas_announce", 2, Box::new(cas_announce_consensus_system)),
    ];
    for (name, n, build) in &families {
        let seq = format!("{:?}", core::access_bounds(*n, build, &opts(1)).unwrap());
        for t in THREADS {
            let par = format!("{:?}", core::access_bounds(*n, build, &opts(t)).unwrap());
            assert_eq!(seq, par, "{name}: access_bounds differs at threads={t}");
        }
    }
}

/// Full protocol verification (agreement + validity over all vectors).
#[test]
fn protocol_verdicts_are_identical_across_thread_counts() {
    let seq = format!(
        "{:?}",
        consensus::verify_consensus_protocol(2, |i| tas_consensus_system([i[0], i[1]]), &opts(1))
            .unwrap()
    );
    for t in THREADS {
        let par = format!(
            "{:?}",
            consensus::verify_consensus_protocol(
                2,
                |i| tas_consensus_system([i[0], i[1]]),
                &opts(t)
            )
            .unwrap()
        );
        assert_eq!(seq, par, "verify_consensus_protocol differs at threads={t}");
    }
}

/// The end-to-end Theorem 5 certificate (bounds, elimination, re-check).
#[test]
fn theorem5_certificates_are_identical_across_thread_counts() {
    let source = core::OneUseSource::OneUseBits;
    let seq = format!(
        "{:?}",
        core::check_theorem5(2, |i| tas_consensus_system([i[0], i[1]]), &source, &opts(1)).unwrap()
    );
    for t in THREADS {
        let par = format!(
            "{:?}",
            core::check_theorem5(2, |i| tas_consensus_system([i[0], i[1]]), &source, &opts(t))
                .unwrap()
        );
        assert_eq!(seq, par, "check_theorem5 differs at threads={t}");
    }
}

/// The hierarchy sweeps fan their candidates out across the pool; the
/// whole outcome (counts, explorations, one-round survivors in candidate
/// order) must not depend on how many workers claimed them.
#[test]
fn sweep_outcomes_are_identical_across_thread_counts() {
    type Sweep = fn(&ExploreOptions) -> String;
    let sweeps: [(&str, Sweep); 5] = [
        ("shift2 full", |o| {
            format!("{:?}", families::search_shift2_three_process_full(o))
        }),
        ("shift2 reduced", |o| {
            format!("{:?}", families::search_shift2_three_process_reduced(o))
        }),
        ("shift1", |o| {
            format!("{:?}", families::search_shift1_protocols(o))
        }),
        ("mpr1", |o| {
            format!("{:?}", families::search_mpr1_protocols(o))
        }),
        ("one-round", |o| {
            format!("{:?}", impossibility::search_one_round_protocols(o))
        }),
    ];
    for (name, sweep) in sweeps {
        let seq = sweep(&opts(1));
        assert!(seq.starts_with("Ok("), "{name}: {seq}");
        for t in THREADS {
            assert_eq!(seq, sweep(&opts(t)), "{name}: sweep differs at threads={t}");
        }
    }
}

/// Serialises the obs-instrumented tests: they share the process-global
/// metrics registry and span collector, which `RunReport::collect`
/// resets.
static OBS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Observability must not perturb results: instrumented runs (metrics
/// and spans on) are bit-identical to uninstrumented runs at every
/// thread count, for both `explore` and the 2^n-tree analysis (which
/// also exercises the report-emission path).
#[test]
fn instrumented_runs_are_identical_across_thread_counts() {
    let _g = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sys = tas_consensus_system([false, true]).system;
    let baseline = format!("{:?}", explorer::explore(&sys, &opts(1)).unwrap());
    let build = |i: &[bool]| tas_consensus_system([i[0], i[1]]);
    let bounds_baseline = format!("{:?}", core::access_bounds(2, build, &opts(1)).unwrap());
    for t in [1, 2, 4, 8] {
        for obs in [ObsOptions::off(), ObsOptions::on()] {
            let o = opts(t).with_obs(obs);
            let run = format!("{:?}", explorer::explore(&sys, &o).unwrap());
            assert_eq!(baseline, run, "explore differs at threads={t}, obs={obs:?}");
            let run = format!("{:?}", core::access_bounds(2, build, &o).unwrap());
            assert_eq!(
                bounds_baseline, run,
                "access_bounds differs at threads={t}, obs={obs:?}"
            );
        }
    }
}

/// The deterministic measurements themselves — counters, gauges, and
/// the structural (non-timing) histograms and span shapes — must also
/// be bit-identical across thread counts. Timing histograms (`*_ns`)
/// are the only quantities allowed to vary.
#[test]
fn instrumented_measurements_are_identical_across_thread_counts() {
    let _g = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sys = cas_announce_consensus_system(&[true, false]).system;
    let mut fingerprints = Vec::new();
    for t in [1, 2, 4, 8] {
        wfc_obs::metrics::Registry::global().reset();
        let _ = wfc_obs::span::drain();
        let o = opts(t).with_obs(ObsOptions::on());
        explorer::explore(&sys, &o).unwrap();
        let snap = wfc_obs::metrics::Registry::global().snapshot();
        let histograms: Vec<_> = snap
            .histograms
            .iter()
            .filter(|(k, _)| !k.ends_with("_ns"))
            .collect();
        let spans: Vec<_> = wfc_obs::span::drain()
            .into_iter()
            .map(|s| (s.name, s.label, s.count))
            .collect();
        fingerprints.push((
            t,
            format!(
                "counters={:?} gauges={:?} histograms={histograms:?} spans={spans:?}",
                snap.counters, snap.gauges
            ),
        ));
    }
    let (_, first) = &fingerprints[0];
    for (t, fp) in &fingerprints[1..] {
        assert_eq!(first, fp, "measurements differ at threads={t}");
    }
    // Sanity: the fingerprint actually contains the paper quantities.
    assert!(first.contains("explorer.configs"), "{first}");
    assert!(first.contains("explorer.interner.hits"), "{first}");
    assert!(first.contains("explorer.bfs.frontier"), "{first}");

    // A sweep spreads its explorations over the pool's workers; the
    // sweep and explorer counters they add up to must not move.
    let mut sweep_counters = Vec::new();
    for t in [1, 2, 4, 8] {
        wfc_obs::metrics::Registry::global().reset();
        let o = opts(t).with_obs(ObsOptions::on());
        families::search_shift2_three_process_reduced(&o).unwrap();
        let counters: Vec<_> = wfc_obs::metrics::Registry::global()
            .snapshot()
            .counters
            .into_iter()
            .filter(|(k, _)| k.starts_with("hierarchy.") || k.starts_with("explorer."))
            .collect();
        sweep_counters.push((t, format!("{counters:?}")));
    }
    let _ = wfc_obs::span::drain();
    let (_, first) = &sweep_counters[0];
    for (t, counters) in &sweep_counters[1..] {
        assert_eq!(first, counters, "sweep counters differ at threads={t}");
    }
    assert!(first.contains("hierarchy.explorations"), "{first}");
    assert!(first.contains("explorer.configs"), "{first}");
}

/// Budgets fire at exactly the same thresholds, with exactly the same
/// error, no matter how many workers discover the graph.
#[test]
fn budget_errors_are_identical_across_thread_counts() {
    let sys = tas_consensus_system([false, true]).system;
    let base = explorer::explore(&sys, &opts(1)).unwrap();
    let cases: Vec<(&str, ExploreOptions)> = vec![
        (
            "configs at threshold",
            opts(1).with_max_configs(base.configs),
        ),
        (
            "configs one below",
            opts(1).with_max_configs(base.configs - 1),
        ),
        ("depth at threshold", opts(1).with_max_depth(base.depth)),
        ("depth one below", opts(1).with_max_depth(base.depth - 1)),
    ];
    for (name, case) in &cases {
        let seq = format!("{:?}", explorer::explore(&sys, case));
        for t in THREADS {
            let par = format!("{:?}", explorer::explore(&sys, &case.with_threads(t)));
            assert_eq!(seq, par, "{name}: outcome differs at threads={t}");
        }
    }
    // Sanity: the one-below cases actually error, at-threshold succeed.
    assert!(explorer::explore(&sys, &cases[0].1).is_ok());
    match explorer::explore(&sys, &cases[1].1) {
        Err(explorer::ExplorerError::Exhausted(e)) => {
            assert_eq!(e.resource, wfc_spec::control::Resource::Configs);
            // Exact accounting: the budget fires at exactly one config
            // over, never at some thread-dependent overshoot.
            assert_eq!(e.used, e.budget + 1);
        }
        other => panic!("expected a configs Exhausted error, got {other:?}"),
    }
    assert!(explorer::explore(&sys, &cases[2].1).is_ok());
    match explorer::explore(&sys, &cases[3].1) {
        Err(explorer::ExplorerError::Exhausted(e)) => {
            assert_eq!(e.resource, wfc_spec::control::Resource::Depth);
            assert_eq!(e.used, e.budget + 1);
        }
        other => panic!("expected a depth Exhausted error, got {other:?}"),
    }
}
