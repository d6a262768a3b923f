//! # `wfc-bench` — the end-to-end benchmark
//!
//! One seeded command measures the system the way its users meet it:
//! `wfc-bench run --workload NAME --seed S` runs one of four workloads
//! in a fresh process, checks every answer against a pinned oracle, and
//! prints each end-to-end metric as `name value unit (n=samples)`,
//! followed by one JSON summary line. `--trace` turns on `wfc-obs` and
//! the counting allocator and reports per-layer metrics instead, written
//! to `BENCH_<workload>.json` (`wfc-obs/v1`). See `README.md` beside
//! this crate for the workloads, the metric table with bounds, the map
//! from layer metrics to the end-to-end metrics they should move, and
//! the measured caveats of a 2-vCPU host.
//!
//! The metric names, units, directions and regression bounds live in
//! one place, the repository's top-level `BENCHMARK.json`, which this
//! crate embeds ([`metrics::spec`]).
//!
//! The E1–E13 experiment benches under `crates/bench` remain
//! micro-benches: they are useful for local investigation, and nothing
//! gates on them. Performance claims are made against this benchmark.

#![warn(missing_docs)]

mod alloc;
pub mod metrics;
pub mod trace;
pub mod workloads;
