//! The executor's handoff counters: `sched.handoffs` (a grant that woke
//! a different thread) and `sched.self_grants` (a grant back to the
//! thread that just settled, which carries on without a syscall).
//!
//! They split every scheduled step between them, repeat exactly from
//! run to run, and — like every other `wfc_obs` site — register nothing
//! while observability is off. This file is its own test binary because
//! it flips the process-global observability switch.

use wfc_obs::metrics::Registry;
use wfc_sched::{explore, fixtures, Exploration, Mode, SchedOptions};

fn run(target: &str, mode: Mode) -> Exploration {
    let mut build = fixtures::build(target).expect("fixture exists");
    explore(&SchedOptions::default().with_mode(mode), &mut build).expect("explores")
}

fn counter(name: &str) -> u64 {
    Registry::global()
        .snapshot()
        .counters
        .into_iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn handoff_counters_split_the_steps_repeat_exactly_and_cost_nothing_when_off() {
    let cases = [
        ("srsw", Mode::Exhaustive { sleep_sets: true }),
        ("mrsw", Mode::Preemption { max_preemptions: 1 }),
        (
            "mrsw",
            Mode::Pct {
                seed: 1,
                runs: 16,
                depth: 3,
            },
        ),
    ];

    wfc_obs::set_enabled(false);
    Registry::global().reset();
    for (target, mode) in cases {
        run(target, mode);
    }
    let snap = Registry::global().snapshot();
    assert!(snap.counters.is_empty(), "{:?}", snap.counters);
    assert!(snap.gauges.is_empty(), "{:?}", snap.gauges);
    assert!(snap.histograms.is_empty(), "{:?}", snap.histograms);

    wfc_obs::set_enabled(true);
    for (target, mode) in cases {
        let mut seen = Vec::new();
        for _ in 0..2 {
            Registry::global().reset();
            let found = run(target, mode);
            let (handoffs, self_grants) = (counter("sched.handoffs"), counter("sched.self_grants"));
            assert_eq!(
                handoffs + self_grants,
                found.steps,
                "{target} {mode:?}: every step is one or the other"
            );
            assert!(handoffs >= found.schedules, "{target} {mode:?}");
            assert!(self_grants > 0, "{target} {mode:?}");
            seen.push((handoffs, self_grants));
        }
        assert_eq!(seen[0], seen[1], "{target} {mode:?}: same counts every run");
    }
    wfc_obs::set_enabled(false);
    Registry::global().reset();
}
