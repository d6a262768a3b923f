//! E10 — valency analysis (the FLP structure behind Theorem 5's case 1).
//!
//! Measures `analyze_valency` on consensus systems: full-graph valency
//! classification with backward fixpoint. Expected shape: linear in the
//! configuration-graph size, which the depth columns of E3 predict.

use std::hint::black_box;
use wfc_bench::harness::{BenchmarkId, Criterion};
use wfc_bench::register_protocols;
use wfc_bench::{criterion_group, criterion_main};
use wfc_explorer::bivalence::analyze_valency;
use wfc_explorer::ExploreOptions;

fn bench_bivalence(c: &mut Criterion) {
    let opts = ExploreOptions::default();
    let mut g = c.benchmark_group("e10_valency");
    for (label, build) in register_protocols() {
        let cs = build(&[false, true]);
        g.bench_with_input(BenchmarkId::from_parameter(label), &cs, |b, cs| {
            b.iter(|| black_box(analyze_valency(&cs.system, &opts).unwrap()))
        });
    }
    for n in 2..=4 {
        let cs = wfc_consensus::cas_consensus_system(&vec![false; n]);
        g.bench_with_input(BenchmarkId::new("cas_all_zero", n), &cs, |b, cs| {
            b.iter(|| black_box(analyze_valency(&cs.system, &opts).unwrap()))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("e10_impossibility");
    g.sample_size(10);
    g.bench_function("one_round_sweep_1024", |b| {
        b.iter(|| {
            let outcome = wfc_hierarchy::impossibility::search_one_round_protocols(&opts).unwrap();
            assert!(outcome.survivors.is_empty());
            black_box(outcome)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_bivalence);
criterion_main!(benches);
