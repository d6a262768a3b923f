//! Where virtual threads run: on x86_64 Linux every body runs on the OS
//! thread that called `explore`/`replay`, a shim cell touched from any
//! other OS thread finds no execution, and independent explorations on
//! different OS threads (two service workers) do not disturb each other.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use wfc_sched::{explore, fixtures, replay, Cell, Execution, Exploration, Mode, SchedOptions};

fn run(target: &str, mode: Mode) -> Exploration {
    let mut build = fixtures::build(target).expect("fixture exists");
    explore(&SchedOptions::default().with_mode(mode), &mut build).expect("explores")
}

/// Two threads that each touch a shared cell and record the OS thread
/// their body ran on.
fn recording(seen: &Arc<Mutex<Vec<ThreadId>>>) -> Execution {
    let cell = Arc::new(Cell::new(0u32));
    let body = |value: u32| {
        let (cell, seen) = (Arc::clone(&cell), Arc::clone(seen));
        Box::new(move || {
            seen.lock().unwrap().push(std::thread::current().id());
            cell.store(value);
            let _ = cell.load();
            seen.lock().unwrap().push(std::thread::current().id());
        }) as Box<dyn FnOnce() + Send>
    };
    Execution {
        threads: vec![body(1), body(2)],
        check: Box::new(|| None),
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn every_body_runs_on_the_exploring_thread() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let found = explore(&SchedOptions::default(), || recording(&seen)).expect("explores");
    assert!(found.complete && found.schedules > 1, "{found:?}");
    let replayed = replay(&"0101".parse().expect("a schedule"), || recording(&seen))
        .expect("the schedule replays");
    assert_eq!(replayed.steps, 4);

    let here = std::thread::current().id();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len() as u64, 4 * (found.schedules + 1));
    assert!(seen.iter().all(|&id| id == here), "{seen:?} vs {here:?}");
}

#[test]
fn a_cell_touched_from_another_os_thread_finds_no_execution() {
    let message = Arc::new(Mutex::new(None));
    let found = explore(&SchedOptions::default(), || {
        let cell = Arc::new(Cell::new(0u32));
        let message = Arc::clone(&message);
        Execution {
            threads: vec![Box::new(move || {
                cell.store(1);
                let outcome = std::thread::scope(|s| s.spawn(|| cell.load()).join());
                let payload = outcome.expect_err("the foreign access panics");
                *message.lock().unwrap() = payload.downcast_ref::<String>().cloned();
            })],
            check: Box::new(|| None),
        }
    })
    .expect("explores");
    assert!(found.counterexample.is_none(), "{found:?}");
    assert_eq!(
        message.lock().unwrap().as_deref(),
        Some(
            "sched cell accessed outside an execution; shim cells only work under \
             wfc_sched::explore or wfc_sched::replay"
        )
    );
}

#[test]
fn two_explorations_on_two_os_threads_match_their_sequential_runs() {
    let dfs = Mode::Exhaustive { sleep_sets: true };
    let pct = Mode::Pct {
        seed: 1,
        runs: 256,
        depth: 3,
    };
    let alone = (run("seqlock", dfs), run("mrsw", pct));
    let together = std::thread::scope(|s| {
        let seqlock = s.spawn(|| run("seqlock", dfs));
        let mrsw = s.spawn(|| run("mrsw", pct));
        (seqlock.join().unwrap(), mrsw.join().unwrap())
    });
    assert!(
        alone.0.complete && alone.0.schedules > 1000,
        "{:?}",
        alone.0
    );
    assert_eq!(alone.1.schedules, 256);
    assert_eq!(together, alone);
}
