//! Golden work counts for the `check-sched` benchmark job list.
//!
//! Every fixture and mode the end-to-end benchmark's `check-sched`
//! workload explores, with the PCT seed that workload derives from its
//! seed 1, is pinned here: schedule, step and pruning counts, the deepest
//! schedule, the most preemptions, the rounds, and, for each planted
//! bug, the exact counterexample schedule string and message. The
//! figures were recorded on the lock-step executor the direct-handoff
//! executor replaced, so this test shows the two make the same choices
//! bit for bit. Any change to the decider, the sleep sets or the spin
//! rule that moves one of these numbers must say why.

use wfc_sched::{explore, fixtures, replay, Exploration, Mode, SchedOptions};
use wfc_spec::prng::SplitMix64;

const DFS: Mode = Mode::Exhaustive { sleep_sets: true };

/// One pinned exploration.
struct Golden {
    target: &'static str,
    mode: Mode,
    /// `[schedules, steps, pruned, max_depth]`.
    counts: [u64; 4],
    max_preemptions: u32,
    rounds: u32,
    complete: bool,
    /// `(schedule, message)` of the first counterexample.
    counterexample: Option<(&'static str, &'static str)>,
}

#[allow(clippy::too_many_arguments)]
const fn golden(
    target: &'static str,
    mode: Mode,
    counts: [u64; 4],
    max_preemptions: u32,
    rounds: u32,
    complete: bool,
    counterexample: Option<(&'static str, &'static str)>,
) -> Golden {
    Golden {
        target,
        mode,
        counts,
        max_preemptions,
        rounds,
        complete,
        counterexample,
    }
}

/// The PCT seed `check-sched` derives from benchmark seed 1.
fn pct_seed() -> u64 {
    SplitMix64::new(1).next_u64()
}

fn table() -> Vec<Golden> {
    let pct = Mode::Pct {
        seed: pct_seed(),
        runs: 256,
        depth: 3,
    };
    vec![
        golden("srsw", DFS, [187, 3396, 334, 20], 9, 1, true, None),
        golden("seqlock", DFS, [5246, 137452, 9315, 30], 18, 1, true, None),
        golden("t4", DFS, [41, 434, 52, 11], 6, 1, true, None),
        golden("ring", DFS, [46, 663, 50, 17], 6, 1, true, None),
        golden("triple", DFS, [16, 167, 23, 13], 4, 1, true, None),
        golden("cell", DFS, [10, 78, 4, 9], 2, 1, true, None),
        golden("repl", DFS, [33, 562, 205, 18], 3, 1, true, None),
        golden(
            "mrsw",
            Mode::Preemption { max_preemptions: 2 },
            [4690, 165508, 0, 40],
            2,
            3,
            false,
            None,
        ),
        golden("mrsw", pct, [256, 9004, 0, 40], 4, 256, false, None),
        golden(
            "regular",
            DFS,
            [95, 950, 114, 10],
            7,
            1,
            false,
            Some((
                "1001122002",
                "history is not linearizable against register2:\n  P1 read -> 1 @[1,5]\n  \
                 P0 write1 -> ok @[2,9]\n  P2 read -> 0 @[6,10]",
            )),
        ),
        golden(
            "broken",
            DFS,
            [6, 72, 4, 12],
            3,
            1,
            false,
            Some((
                "111110100011",
                "torn read (0, 1): the two words of the register disagree\n  \
                 P1 read -> 0 @[1,4]\n  P1 read -> 3 @[5,12]\n  P0 write1 -> ok @[6,10]",
            )),
        ),
        golden(
            "repl_broken",
            DFS,
            [11, 176, 49, 16],
            2,
            1,
            false,
            Some((
                "0100000001111111",
                "agreement violated: two proposals were assigned log index 0",
            )),
        ),
        golden(
            "ring_broken",
            DFS,
            [4, 57, 1, 15],
            3,
            1,
            false,
            Some((
                "110110001000111",
                "pop observed [0, 2], but [1, 2] was pushed: the tail index was published \
                 before the slot write",
            )),
        ),
        golden(
            "triple_broken",
            DFS,
            [16, 237, 21, 15],
            5,
            1,
            false,
            Some((
                "001100011010001",
                "snapshot changed underfoot: read 1, then 3, with no refresh in between — \
                 the writer reclaimed the reader's front buffer",
            )),
        ),
        golden(
            "cell_broken",
            DFS,
            [4, 25, 2, 7],
            1,
            1,
            false,
            Some((
                "1101110",
                "take returned [0], but [7] was set: the FULL state was published before \
                 the payload",
            )),
        ),
    ]
}

fn check(g: &Golden, found: &Exploration) {
    let what = format!("{} {:?}", g.target, g.mode);
    assert_eq!(
        [found.schedules, found.steps, found.pruned, found.max_depth],
        g.counts,
        "{what}: [schedules, steps, pruned, max_depth]"
    );
    assert_eq!(found.max_preemptions, g.max_preemptions, "{what}");
    assert_eq!(found.rounds, g.rounds, "{what}");
    assert_eq!(found.complete, g.complete, "{what}");
    let cx = found
        .counterexample
        .as_ref()
        .map(|cx| (cx.schedule.to_string(), cx.message.as_str()));
    assert_eq!(
        cx.as_ref().map(|(s, m)| (s.as_str(), *m)),
        g.counterexample,
        "{what}: counterexample"
    );
}

#[test]
fn check_sched_job_list_matches_the_recorded_counts() {
    let table = table();
    assert_eq!(
        table.iter().map(|g| g.counts[0]).sum::<u64>(),
        10_661,
        "the pinned schedules total one check-sched pass"
    );
    for g in &table {
        let mut build = fixtures::build(g.target).expect("pinned fixtures exist");
        let found = explore(&SchedOptions::default().with_mode(g.mode), &mut build)
            .unwrap_or_else(|e| panic!("{} {:?}: {e}", g.target, g.mode));
        check(g, &found);
        if let Some((schedule, message)) = g.counterexample {
            let replayed = replay(&schedule.parse().expect("a schedule"), &mut build)
                .unwrap_or_else(|e| panic!("{}: {e}", g.target));
            assert_eq!(replayed.schedule.to_string(), schedule, "{}", g.target);
            assert_eq!(replayed.violation.as_deref(), Some(message), "{}", g.target);
        }
    }
}
