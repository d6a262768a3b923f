//! The executor's abort and edge paths: a step-cap overrun, an
//! all-spin-blocked livelock, a panicking virtual thread, an execution
//! with no threads, and threads that never touch a shared cell.
//!
//! Each case runs under a watchdog, so an executor that hangs fails the
//! test instead of stalling the suite, and each is followed by a fresh
//! exploration of the `srsw` fixture that must still complete.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use wfc_sched::{explore, fixtures, replay, Cell, Execution, Mode, SchedError, SchedOptions};

const DFS: Mode = Mode::Exhaustive { sleep_sets: true };

/// Runs `f` on its own thread and fails if it has not answered within a
/// minute (a hung handoff) or if it panicked.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("{what}: no answer within 60 s ({e})"))
}

/// After an abnormal case, a normal exploration still runs to the end
/// with its usual counts.
fn srsw_still_completes(after: &str) {
    let found = within_deadline(after, || {
        let mut build = fixtures::build("srsw").expect("srsw exists");
        explore(&SchedOptions::default(), &mut build)
    })
    .unwrap_or_else(|e| panic!("srsw after {after}: {e}"));
    assert!(found.complete, "srsw after {after}");
    assert!(found.counterexample.is_none(), "srsw after {after}");
    assert_eq!(found.schedules, 187, "srsw after {after}");
}

fn boxed(f: impl FnOnce() + Send + 'static) -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(f)
}

/// A thread that stores into a cell 100 times, more steps than a 10-step
/// cap allows, beside one that stores once: the abort must unwind both.
fn endless_writer() -> Execution {
    let cell = Arc::new(Cell::new(0u32));
    let other = Arc::clone(&cell);
    Execution {
        threads: vec![
            boxed(move || {
                for i in 0..100 {
                    cell.store(i);
                }
            }),
            boxed(move || other.store(7)),
        ],
        check: Box::new(|| None),
    }
}

#[test]
fn a_step_cap_overrun_is_a_typed_error_with_its_prefix() {
    for mode in [
        DFS,
        Mode::Preemption { max_preemptions: 1 },
        Mode::Pct {
            seed: 1,
            runs: 4,
            depth: 2,
        },
    ] {
        let err = within_deadline("step cap", move || {
            explore(
                &SchedOptions::default().with_mode(mode).with_max_steps(10),
                endless_writer,
            )
        })
        .expect_err("the cap must trip");
        match err {
            SchedError::StepLimit { limit, schedule } => {
                assert_eq!(limit, 10, "{mode:?}");
                assert_eq!(schedule.len(), 10, "{mode:?}");
                if !matches!(mode, Mode::Pct { .. }) {
                    // The default path keeps running thread 0.
                    assert_eq!(schedule.to_string(), "0000000000", "{mode:?}");
                }
            }
            other => panic!("{mode:?}: expected StepLimit, got {other:?}"),
        }
    }
    srsw_still_completes("a step-cap overrun");
}

/// Two threads waiting on a flag nobody ever sets.
fn spinners() -> Execution {
    let flag = Arc::new(Cell::new(false));
    let spin = |flag: Arc<Cell<bool>>| {
        boxed(move || {
            while !flag.load() {
                std::hint::spin_loop();
            }
        })
    };
    Execution {
        threads: vec![spin(Arc::clone(&flag)), spin(flag)],
        check: Box::new(|| None),
    }
}

#[test]
fn an_all_spin_blocked_livelock_is_a_violation() {
    let found = within_deadline("livelock", || {
        explore(&SchedOptions::default().with_mode(DFS), spinners)
    })
    .expect("a livelock is a verdict, not an error");
    let cx = found.counterexample.expect("the livelock is reported");
    assert_eq!(
        cx.message,
        "livelock: all enabled threads [0, 1] are spin-blocked"
    );
    // Each thread reads the flag twice; the third read is a stutter.
    assert_eq!(cx.schedule.to_string(), "0011");
    let replayed = within_deadline("livelock replay", move || replay(&cx.schedule, spinners))
        .expect("the livelock replays");
    assert_eq!(
        replayed.violation.as_deref(),
        Some("livelock: all enabled threads [0, 1] are spin-blocked")
    );
    srsw_still_completes("a livelock");
}

/// A writer, and a reader that panics after its first read.
fn panicking_reader() -> Execution {
    let cell = Arc::new(Cell::new(0u32));
    let reader_cell = Arc::clone(&cell);
    Execution {
        threads: vec![
            boxed(move || cell.store(1)),
            boxed(move || {
                let seen = reader_cell.load();
                panic!("boom after reading {seen}");
            }),
        ],
        check: Box::new(|| None),
    }
}

#[test]
fn a_panicking_thread_is_reported_with_its_id() {
    let found = within_deadline("panic", || {
        explore(&SchedOptions::default().with_mode(DFS), panicking_reader)
    })
    .expect("a thread panic is a verdict, not an error");
    let cx = found.counterexample.expect("the panic is reported");
    assert_eq!(cx.schedule.to_string(), "01");
    assert_eq!(
        cx.message,
        "virtual thread 1 panicked: boom after reading 1"
    );
    srsw_still_completes("a panicking thread");
}

#[test]
fn an_execution_with_no_threads_runs_its_check_once() {
    let checks = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&checks);
    let found = within_deadline("zero threads", move || {
        explore(&SchedOptions::default().with_mode(DFS), move || {
            let counted = Arc::clone(&counted);
            Execution {
                threads: Vec::new(),
                check: Box::new(move || {
                    counted.fetch_add(1, Ordering::Relaxed);
                    None
                }),
            }
        })
    })
    .expect("an empty execution explores");
    assert!(found.complete);
    assert_eq!((found.schedules, found.steps, found.max_depth), (1, 0, 0));
    assert_eq!(checks.load(Ordering::Relaxed), 1);

    // A failing check on an empty execution is a counterexample whose
    // schedule is empty, and it replays.
    let failing = || Execution {
        threads: Vec::new(),
        check: Box::new(|| Some("nothing ran".to_owned())),
    };
    let found = within_deadline("zero threads, failing", move || {
        explore(&SchedOptions::default().with_mode(DFS), failing)
    })
    .expect("an empty execution explores");
    let cx = found.counterexample.expect("the check fails");
    assert!(cx.schedule.is_empty());
    assert_eq!(cx.message, "nothing ran");
    let replayed = within_deadline("zero threads replay", move || replay(&cx.schedule, failing))
        .expect("the empty schedule replays");
    assert_eq!(replayed.violation.as_deref(), Some("nothing ran"));
    srsw_still_completes("an execution with no threads");
}

#[test]
fn threads_that_never_touch_a_cell_finish_without_steps() {
    // Only local work: nothing to schedule.
    let found = within_deadline("no shared access", || {
        explore(&SchedOptions::default().with_mode(DFS), || Execution {
            threads: vec![
                boxed(|| {}),
                boxed(|| drop(std::hint::black_box(vec![1, 2]))),
            ],
            check: Box::new(|| None),
        })
    })
    .expect("explores");
    assert!(found.complete);
    assert_eq!((found.schedules, found.steps), (1, 0));

    // Beside a thread that does touch a cell: one schedule of one step.
    let found = within_deadline("one silent thread", || {
        explore(&SchedOptions::default().with_mode(DFS), || {
            let cell = Arc::new(Cell::new(0u32));
            Execution {
                threads: vec![boxed(|| {}), boxed(move || cell.store(1))],
                check: Box::new(|| None),
            }
        })
    })
    .expect("explores");
    assert!(found.complete);
    assert_eq!((found.schedules, found.steps), (1, 1));
    srsw_still_completes("threads that never touch a cell");
}
