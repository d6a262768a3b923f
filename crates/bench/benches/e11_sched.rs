//! E11 — the `wfc-sched` model checker: schedules per second, DFS
//! versus PCT, on the 1-write/2-read SRSW conversation.
//!
//! Each schedule is one from-scratch execution whose virtual threads
//! are fibers on the benchmarking thread (on x86_64 Linux; other
//! targets hand a baton between OS threads), so a step costs a stack
//! switch plus the register code under test. The throughput lines read
//! as schedules/second, which is the number that decides what budgets
//! CI smoke runs can afford. Expected shape:
//! sleep-set DFS explores fewer schedules than plain DFS for the same
//! verdict, and PCT's cost is linear in its configured run count.

use std::hint::black_box;
use wfc_bench::harness::{Criterion, Throughput};
use wfc_bench::{criterion_group, criterion_main};
use wfc_sched::{explore, fixtures, Mode, SchedOptions};

fn bench_sched(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched");
    g.sample_size(10);
    let cases = [
        ("dfs_sleep_on", Mode::Exhaustive { sleep_sets: true }),
        ("dfs_sleep_off", Mode::Exhaustive { sleep_sets: false }),
        (
            "pct_seed1_runs32",
            Mode::Pct {
                seed: 1,
                runs: 32,
                depth: 3,
            },
        ),
    ];
    for (label, mode) in cases {
        let options = SchedOptions::default().with_mode(mode);
        let mut build = fixtures::build("srsw").expect("srsw fixture exists");
        // The verdict is deterministic, so one warm-up run tells us the
        // per-exploration schedule count for the throughput line.
        let schedules = explore(&options, &mut build)
            .expect("srsw fits the default budgets")
            .schedules;
        g.throughput(Throughput::Elements(schedules));
        g.bench_function(format!("srsw/{label}"), |b| {
            b.iter(|| black_box(explore(&options, &mut build).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
