//! The four workloads and what they share.
//!
//! | workload      | drives                         | shape                         |
//! |---------------|--------------------------------|-------------------------------|
//! | `serve-hot`   | the shipped server, over TCP   | closed loop, pipeline 8, hits |
//! | `serve-mixed` | the shipped server, over TCP   | open loop, 25 % hits, 75 % scenario misses |
//! | `check-sweep` | explorer, hierarchy, core      | passes over a fixed job list  |
//! | `check-sched` | the `wfc-sched` model checker  | passes over a fixed job list  |
//!
//! Every input is derived from the `--seed`; the system under test sees
//! only the generated requests and jobs. An operation is a request for
//! the served workloads and a pass over the job list for the check
//! workloads.

pub mod check;
pub mod serve;

use wfc_obs::json::Json;
use wfc_obs::report::RunReport;

use crate::metrics::Outcome;
use crate::trace::Harvest;

/// How many times an untraced run sets up, so `setup_s` is a median.
pub const SETUP_REPS: usize = 11;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop cache hits through the whole serving path.
    ServeHot,
    /// Open-loop never-reused scenario misses, with 25 % hits.
    ServeMixed,
    /// Explorer-dominated hierarchy/core research batch.
    CheckSweep,
    /// Model-checker-dominated sched fixture batch.
    CheckSched,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeMixed,
        Workload::CheckSweep,
        Workload::CheckSched,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeMixed => "serve-mixed",
            Workload::CheckSweep => "check-sweep",
            Workload::CheckSched => "check-sched",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Seed every request and job is derived from.
    pub seed: u64,
    /// Measured window, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Small, debug-build-friendly inputs for the smoke test.
    pub smoke: bool,
}

/// Runs one workload in this process and reports its outcome. In a
/// traced run the report also carries the `wfc-obs/v1` document for
/// `BENCH_<workload>.json`.
pub fn run(workload: Workload, params: &Params) -> (Outcome, Option<RunReport>) {
    let mut out = Outcome::default();
    if params.traced {
        for m in Outcome::required(true) {
            out.set(&m.name, 0.0, 0);
        }
    }
    let report = match workload {
        Workload::ServeHot | Workload::ServeMixed => serve::run(workload, params, &mut out),
        Workload::CheckSweep | Workload::CheckSched => check::run(workload, params, &mut out),
    };
    if !params.traced {
        match peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb, 1),
            None => out
                .notes
                .push("peak_rss_mb unavailable: no /proc/self/status".to_owned()),
        }
    }
    (out, report)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(traced / untraced − 1) × 100`: the cost tracing adds to the
/// workload's own operation time.
pub(crate) fn overhead_pct(untraced_cost: f64, traced_cost: f64) -> f64 {
    if untraced_cost > 0.0 {
        (traced_cost / untraced_cost - 1.0) * 100.0
    } else {
        0.0
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The layer metrics read straight off the `wfc-obs` registry: the
/// server's stage histograms, batcher, cache and explorer. Counts are
/// divided by `per` (passes for the check workloads, 1 for a served
/// window); `engine_secs` is the wall time the engine calls took, the
/// denominator of the pool's busy fraction.
pub(crate) fn set_registry_layers(out: &mut Outcome, h: &Harvest, per: f64, engine_secs: f64) {
    let per = per.max(1.0);
    for stage in [
        "decode", "admit", "batch", "queue", "engine", "respond", "flush",
    ] {
        let hist = h.hist(&format!("service.stage.{stage}_us"));
        out.set(
            &format!("stage.{stage}_us_p50"),
            hist.quantile(0.50),
            hist.count,
        );
        out.set(
            &format!("stage.{stage}_us_p99"),
            hist.quantile(0.99),
            hist.count,
        );
    }
    let entries = h.hist("service.batch.entries");
    out.set(
        "batch.entries_per_dispatch_mean",
        entries.mean(),
        entries.count,
    );
    let count = |name: &str| h.counter(name) as f64 / per;
    out.set("batch.coalesced", count("service.batch.coalesced"), 1);
    let hits = h.counter("service.cache.mem.hits");
    let misses = h.counter("service.cache.mem.misses");
    out.set(
        "cache.mem_hit_ratio",
        ratio(hits, hits + misses),
        hits + misses,
    );
    out.set("cache.misses", count("service.cache.mem.misses"), 1);
    out.set(
        "cache.singleflight_waits",
        count("service.cache.coalesced"),
        1,
    );
    out.set("cache.evictions", count("service.cache.evictions"), 1);

    out.set("explorer.configs", count("explorer.configs"), 1);
    out.set("explorer.edges", count("explorer.edges"), 1);
    let interned = h.counter("explorer.interner.hits");
    let fresh = h.counter("explorer.interner.misses");
    out.set(
        "explorer.interner_hit_ratio",
        ratio(interned, interned + fresh),
        interned + fresh,
    );
    let levels = h.hist("explorer.bfs.level_ns");
    out.set(
        "explorer.bfs_level_ns_p50",
        levels.quantile(0.50),
        levels.count,
    );
    let busy = h.hist("pool.worker.busy_ns");
    let capacity_ns = 2.0 * engine_secs * 1e9;
    out.set(
        "explorer.pool_busy_frac",
        if capacity_ns > 0.0 {
            busy.total as f64 / capacity_ns
        } else {
            0.0
        },
        busy.count,
    );
}

/// The `BENCH_<workload>.json` document of a traced run: everything
/// the registry and spans recorded, the layer metrics, and the span
/// self-times.
pub(crate) fn layer_report(
    workload: Workload,
    params: &Params,
    out: &Outcome,
    h: &Harvest,
) -> RunReport {
    let layers = Outcome::required(true)
        .iter()
        .filter_map(|m| {
            let v = out.metrics.get(&m.name)?;
            Some((m.name.clone(), Json::F64(v.value)))
        })
        .collect();
    h.report(
        &format!("BENCH_{}", workload.name()),
        vec![
            (
                "workload",
                Json::obj(vec![
                    ("name", Json::Str(workload.name().to_owned())),
                    ("seed", Json::U64(params.seed)),
                    ("seconds", Json::F64(params.seconds)),
                    ("smoke", Json::Bool(params.smoke)),
                ]),
            ),
            ("layers", Json::Obj(layers)),
        ],
    )
}
