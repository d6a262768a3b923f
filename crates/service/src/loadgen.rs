//! Load generation against a running `wfc serve` instance.
//!
//! Drives configurable traffic mixes over real sockets and reports
//! client-observed latency percentiles and throughput as a
//! `BENCH_service` run report (`wfc-obs/v1`), so a serving-layer change
//! can be compared against a recorded run.
//!
//! Two loop disciplines, per mix:
//!
//! * **closed-loop** — each connection keeps a fixed number of
//!   requests in flight (`pipeline`) and sends a replacement the
//!   moment a response lands. Measures the server's sustainable
//!   throughput at a fixed concurrency.
//! * **open-loop** — requests are injected on a fixed schedule
//!   (`rate` per second across the mix) regardless of completions, on
//!   the classic open-system argument: arrivals in the wild do not
//!   pause because the server is slow, so latency under a schedule is
//!   the honest number. A sender/receiver thread pair per connection
//!   keeps the schedule independent of response handling.
//!
//! Mixes default to cache-friendly query sets (each unique query is
//! warmed once before timing), so the numbers characterize the
//! frontend, queue, and cache layers rather than explorer search.
//!
//! The emitted document carries one section, `service_loadgen`: the
//! full per-mix numbers (counts, throughput, p50/p95/p99/max and the
//! server-side stage breakdown).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wfc_obs::json::Json;
use wfc_obs::report::RunReport;
use wfc_spec::text::format_type;

use crate::client::Client;
use crate::wire::{read_frame, write_frame, QueryKind, QueryOptions, Request, Response};

/// One weighted element of a traffic mix.
#[derive(Clone, Debug)]
pub struct MixEntry {
    /// Query kind to send.
    pub kind: QueryKind,
    /// Type text (or sched spec) to send.
    pub type_text: String,
    /// Options to send.
    pub options: QueryOptions,
    /// Relative frequency within the mix.
    pub weight: u32,
}

/// The loop discipline driving one mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Fixed in-flight count per connection; send-on-completion.
    Closed,
    /// Fixed injection schedule, `rate` requests/second mix-wide.
    Open {
        /// Target injection rate across all connections.
        rate_per_sec: u64,
    },
}

/// One named traffic mix: a loop discipline over weighted queries.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Mix name; becomes the benchmark id in the report.
    pub name: String,
    /// Loop discipline.
    pub mode: Mode,
    /// Weighted queries.
    pub entries: Vec<MixEntry>,
}

/// Loadgen run parameters.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Server address, e.g. `127.0.0.1:7411`.
    pub addr: String,
    /// Concurrent connections per mix.
    pub connections: usize,
    /// In-flight requests per connection (closed-loop mixes).
    pub pipeline: usize,
    /// Measured duration per mix.
    pub duration: Duration,
    /// Mixes to run, in order.
    pub mixes: Vec<Mix>,
}

/// Measured results for one mix.
#[derive(Clone, Debug, Default)]
pub struct MixReport {
    /// Mix name.
    pub name: String,
    /// `"closed"` or `"open"`.
    pub mode: String,
    /// Open-loop target rate (0 for closed loop).
    pub target_rate: u64,
    /// Connections driven.
    pub connections: usize,
    /// Pipeline depth (closed loop; 0 for open).
    pub pipeline: usize,
    /// Measured window.
    pub duration: Duration,
    /// Requests sent inside the window.
    pub sent: u64,
    /// `ok` responses received.
    pub ok: u64,
    /// Of those, answered from cache/coalescing.
    pub cached: u64,
    /// `busy` rejections.
    pub busy: u64,
    /// Structured errors.
    pub errors: u64,
    /// Transport failures (connection died mid-run).
    pub transport_errors: u64,
    /// Completed responses per second over the window.
    pub throughput_rps: f64,
    /// Fastest observed response, microseconds.
    pub min_us: u64,
    /// Client-observed latency percentiles, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Slowest observed response, microseconds.
    pub max_us: u64,
    /// Arithmetic mean latency, microseconds.
    pub mean_us: u64,
    /// Server-side per-stage latency aggregates over this mix's window,
    /// scraped from the `stats` introspection query (empty when the
    /// server runs without observability).
    pub stages: Vec<StageBreakdown>,
}

/// Per-stage latency aggregate for one mix: the difference between the
/// server's stage histograms before and after the mix ran, so each mix
/// sees only its own window even on a long-lived server.
#[derive(Clone, Debug, Default)]
pub struct StageBreakdown {
    /// Interval name (`decode`, `admit`, …, `flush`) or `total`.
    pub stage: String,
    /// Requests that recorded this stage inside the window.
    pub count: u64,
    /// Summed stage time, microseconds.
    pub total_us: u64,
    /// Mean stage time, microseconds.
    pub mean_us: u64,
    /// Median (bucket upper bound), microseconds.
    pub p50_us: u64,
    /// 95th percentile (bucket upper bound), microseconds.
    pub p95_us: u64,
    /// 99th percentile (bucket upper bound), microseconds.
    pub p99_us: u64,
}

/// `stage histogram name → (count, total, buckets)` from one scrape.
type StageSnapshot = HashMap<String, (u64, u64, Vec<(u64, u64)>)>;

/// Scrapes the server's `service.stage.*_us` histograms (bucket level,
/// from the `histograms` section of a `stats` snapshot). `None` when
/// the server is unreachable or runs without observability.
fn scrape_stages(addr: &str) -> Option<StageSnapshot> {
    let mut client = Client::connect(addr).ok()?;
    let response = client
        .query(QueryKind::Stats, "", &QueryOptions::default())
        .ok()?;
    let Response::Ok { result, .. } = response else {
        return None;
    };
    let mut snapshot = StageSnapshot::new();
    for (name, hist) in result.get("histograms")?.as_obj()? {
        let Some(stage) = name
            .strip_prefix("service.stage.")
            .and_then(|s| s.strip_suffix("_us"))
        else {
            continue;
        };
        let count = hist.get("count").and_then(Json::as_u64)?;
        let total = hist.get("total").and_then(Json::as_u64)?;
        let buckets = hist
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|pair| {
                let pair = pair.as_arr()?;
                Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
            })
            .collect();
        snapshot.insert(stage.to_owned(), (count, total, buckets));
    }
    if snapshot.is_empty() {
        None
    } else {
        Some(snapshot)
    }
}

/// Reduces two scrapes to the per-stage aggregates of the window
/// between them, in pipeline order (`decode` … `flush`, then `total`).
fn diff_breakdown(before: &StageSnapshot, after: &StageSnapshot) -> Vec<StageBreakdown> {
    const ORDER: [&str; 7] = [
        "decode", "admit", "queue", "engine", "respond", "flush", "total",
    ];
    let mut out = Vec::new();
    for stage in ORDER {
        let Some((after_count, after_total, after_buckets)) = after.get(stage) else {
            continue;
        };
        let (before_count, before_total, before_buckets) =
            before.get(stage).cloned().unwrap_or_default();
        let count = after_count.saturating_sub(before_count);
        if count == 0 {
            continue;
        }
        let total_us = after_total.saturating_sub(before_total);
        let earlier: HashMap<u64, u64> = before_buckets.into_iter().collect();
        let buckets: Vec<(u64, u64)> = after_buckets
            .iter()
            .map(|&(bound, n)| {
                (
                    bound,
                    n.saturating_sub(earlier.get(&bound).copied().unwrap_or(0)),
                )
            })
            .collect();
        let quantile = |q: f64| -> u64 {
            let rank = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0;
            for &(bound, n) in &buckets {
                seen += n;
                if seen >= rank {
                    return bound;
                }
            }
            buckets.last().map_or(0, |&(bound, _)| bound)
        };
        out.push(StageBreakdown {
            stage: stage.to_owned(),
            count,
            total_us,
            mean_us: total_us / count,
            p50_us: quantile(0.50),
            p95_us: quantile(0.95),
            p99_us: quantile(0.99),
        });
    }
    out
}

#[derive(Default)]
struct MixStats {
    latencies_us: Vec<u64>,
    sent: u64,
    ok: u64,
    cached: u64,
    busy: u64,
    errors: u64,
    transport_errors: u64,
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The built-in mixes: a closed-loop cache-hot mix exercising the
/// frontend/cache fast path, and an open-loop mixed-kind mix that
/// also crosses the sched engine. Both are cache-friendly by design —
/// every unique query is warmed before measurement.
pub fn default_mixes(rate_per_sec: u64) -> Vec<Mix> {
    let tas = format_type(&wfc_spec::canonical::test_and_set(2));
    let bit = format_type(&wfc_spec::canonical::boolean_register(2));
    let options = QueryOptions::default();
    vec![
        Mix {
            name: "closed-hot".to_owned(),
            mode: Mode::Closed,
            entries: vec![
                MixEntry {
                    kind: QueryKind::Classify,
                    type_text: tas.clone(),
                    options,
                    weight: 3,
                },
                MixEntry {
                    kind: QueryKind::AccessBounds,
                    type_text: tas.clone(),
                    options,
                    weight: 1,
                },
                MixEntry {
                    kind: QueryKind::Witness,
                    type_text: bit.clone(),
                    options,
                    weight: 1,
                },
            ],
        },
        Mix {
            name: "open-mixed".to_owned(),
            mode: Mode::Open { rate_per_sec },
            entries: vec![
                MixEntry {
                    kind: QueryKind::Classify,
                    type_text: bit,
                    options,
                    weight: 2,
                },
                MixEntry {
                    kind: QueryKind::VerifyConsensus,
                    type_text: tas,
                    options,
                    weight: 1,
                },
                MixEntry {
                    kind: QueryKind::Sched,
                    type_text: "srsw sleep=off".to_owned(),
                    options,
                    weight: 1,
                },
            ],
        },
    ]
}

/// A deterministic request schedule honoring the entry weights:
/// entry indices repeated by weight, walked round-robin. Thread `t`
/// starts at offset `t` so connections interleave entries instead of
/// marching in lockstep.
fn weighted_schedule(entries: &[MixEntry]) -> Vec<usize> {
    let mut schedule = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        for _ in 0..entry.weight.max(1) {
            schedule.push(i);
        }
    }
    if schedule.is_empty() {
        schedule.push(0);
    }
    schedule
}

fn classify_response(stats: &mut MixStats, response: &Response, sent_at: Instant) {
    stats
        .latencies_us
        .push(sent_at.elapsed().as_micros() as u64);
    match response {
        Response::Ok { cached, .. } => {
            stats.ok += 1;
            if *cached {
                stats.cached += 1;
            }
        }
        Response::Busy { .. } => stats.busy += 1,
        Response::Error { .. } => stats.errors += 1,
    }
}

/// One closed-loop connection: prime `pipeline` requests, then replace
/// each completion until the deadline, then drain what is in flight.
fn closed_loop_conn(
    addr: &str,
    mix: &Mix,
    schedule: &[usize],
    offset: usize,
    pipeline: usize,
    deadline: Instant,
    stats: &Arc<Mutex<MixStats>>,
) {
    let Ok(mut client) = Client::connect_retry(addr, Duration::from_secs(5)) else {
        stats.lock().unwrap().transport_errors += 1;
        return;
    };
    let mut cursor = offset;
    let mut inflight: HashMap<u64, Instant> = HashMap::new();
    let mut send_next = |client: &mut Client, inflight: &mut HashMap<u64, Instant>| -> bool {
        let entry = &mix.entries[schedule[cursor % schedule.len()]];
        cursor += 1;
        match client.send(entry.kind, &entry.type_text, &entry.options) {
            Ok(id) => {
                inflight.insert(id, Instant::now());
                stats.lock().unwrap().sent += 1;
                true
            }
            Err(_) => false,
        }
    };
    for _ in 0..pipeline.max(1) {
        if !send_next(&mut client, &mut inflight) {
            stats.lock().unwrap().transport_errors += 1;
            return;
        }
    }
    while !inflight.is_empty() {
        let response = match client.recv() {
            Ok(response) => response,
            Err(_) => {
                stats.lock().unwrap().transport_errors += 1;
                return;
            }
        };
        if let Some(sent_at) = inflight.remove(&response.id()) {
            classify_response(&mut stats.lock().unwrap(), &response, sent_at);
        }
        if Instant::now() < deadline && !send_next(&mut client, &mut inflight) {
            stats.lock().unwrap().transport_errors += 1;
            return;
        }
    }
}

/// One open-loop connection: a sender thread injects on the fixed
/// schedule while this thread receives, so a slow response never
/// delays the next arrival.
fn open_loop_conn(
    addr: &str,
    mix: &Mix,
    schedule: &[usize],
    offset: usize,
    interval: Duration,
    deadline: Instant,
    stats: &Arc<Mutex<MixStats>>,
) {
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(_) => {
            stats.lock().unwrap().transport_errors += 1;
            return;
        }
    };
    let _ = stream.set_nodelay(true);
    let Ok(mut write_half) = stream.try_clone() else {
        stats.lock().unwrap().transport_errors += 1;
        return;
    };
    let mut read_half = stream;
    let _ = read_half.set_read_timeout(Some(Duration::from_millis(50)));

    let pending: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let sender = {
        let pending = Arc::clone(&pending);
        let stats = Arc::clone(stats);
        let mix = mix.clone();
        let schedule = schedule.to_vec();
        std::thread::spawn(move || {
            let start = Instant::now();
            for k in 0u64.. {
                let due = start + interval.mul_f64(k as f64);
                if due >= deadline {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let entry = &mix.entries[schedule[(offset + k as usize) % schedule.len()]];
                let request = Request {
                    id: k + 1,
                    kind: entry.kind,
                    type_text: entry.type_text.clone(),
                    options: entry.options,
                };
                pending.lock().unwrap().insert(request.id, Instant::now());
                if write_frame(&mut write_half, &request.to_json()).is_err() {
                    stats.lock().unwrap().transport_errors += 1;
                    break;
                }
                stats.lock().unwrap().sent += 1;
            }
        })
    };

    // Receive until the sender is done and everything in flight came
    // back (or a grace period expires — the server may be saturated).
    let grace = deadline + Duration::from_secs(5);
    loop {
        let sender_done = sender.is_finished();
        if pending.lock().unwrap().is_empty() && sender_done {
            break;
        }
        if Instant::now() >= grace {
            break;
        }
        match read_frame(&mut read_half) {
            Ok(Some(doc)) => {
                if let Ok(response) = Response::from_json(&doc) {
                    let sent_at = pending.lock().unwrap().remove(&response.id());
                    if let Some(sent_at) = sent_at {
                        classify_response(&mut stats.lock().unwrap(), &response, sent_at);
                    }
                }
            }
            Ok(None) => break, // server closed
            Err(crate::wire::WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    let _ = sender.join();
}

/// Warms every unique query in `mixes` once through one connection so
/// measurement hits the cache tier, not first-time explorer search.
fn warm_caches(addr: &str, mixes: &[Mix]) -> Result<(), String> {
    let mut client = Client::connect_retry(addr, Duration::from_secs(5))
        .map_err(|e| format!("loadgen cannot connect to {addr}: {e}"))?;
    let mut seen = std::collections::HashSet::new();
    for mix in mixes {
        for entry in &mix.entries {
            if seen.insert((entry.kind, entry.type_text.clone())) {
                client
                    .query(entry.kind, &entry.type_text, &entry.options)
                    .map_err(|e| format!("warmup query failed: {e}"))?;
            }
        }
    }
    Ok(())
}

/// Runs one mix to completion and reduces its stats.
fn run_mix(opts: &LoadgenOptions, mix: &Mix) -> MixReport {
    let stats = Arc::new(Mutex::new(MixStats::default()));
    let schedule = weighted_schedule(&mix.entries);
    let connections = opts.connections.max(1);
    let started = Instant::now();
    let deadline = started + opts.duration;
    let mut threads = Vec::new();
    for t in 0..connections {
        let addr = opts.addr.clone();
        let mix = mix.clone();
        let schedule = schedule.clone();
        let stats = Arc::clone(&stats);
        let pipeline = opts.pipeline.max(1);
        threads.push(std::thread::spawn(move || match mix.mode {
            Mode::Closed => {
                closed_loop_conn(&addr, &mix, &schedule, t, pipeline, deadline, &stats);
            }
            Mode::Open { rate_per_sec } => {
                let per_conn = (rate_per_sec.max(1) as f64 / connections as f64).max(0.1);
                let interval = Duration::from_secs_f64(1.0 / per_conn);
                open_loop_conn(&addr, &mix, &schedule, t, interval, deadline, &stats);
            }
        }));
    }
    for thread in threads {
        let _ = thread.join();
    }
    let elapsed = started.elapsed();

    let mut stats = Arc::try_unwrap(stats)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_default();
    stats.latencies_us.sort_unstable();
    let lat = &stats.latencies_us;
    let completed = lat.len() as u64;
    let (mode, target_rate, pipeline) = match mix.mode {
        Mode::Closed => ("closed", 0, opts.pipeline.max(1)),
        Mode::Open { rate_per_sec } => ("open", rate_per_sec, 0),
    };
    MixReport {
        name: mix.name.clone(),
        mode: mode.to_owned(),
        target_rate,
        connections,
        pipeline,
        duration: elapsed,
        sent: stats.sent,
        ok: stats.ok,
        cached: stats.cached,
        busy: stats.busy,
        errors: stats.errors,
        transport_errors: stats.transport_errors,
        throughput_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        min_us: lat.first().copied().unwrap_or(0),
        p50_us: percentile(lat, 50.0),
        p95_us: percentile(lat, 95.0),
        p99_us: percentile(lat, 99.0),
        max_us: lat.last().copied().unwrap_or(0),
        mean_us: lat.iter().sum::<u64>().checked_div(completed).unwrap_or(0),
        stages: Vec::new(), // filled by `run` from the stats scrapes
    }
}

/// Runs every mix in order and returns the per-mix reports.
///
/// # Errors
///
/// A string describing the failure when the server is unreachable or
/// cache warmup fails (individual connection drops mid-run are counted
/// in `transport_errors`, not fatal).
pub fn run(opts: &LoadgenOptions) -> Result<Vec<MixReport>, String> {
    if opts.mixes.is_empty() {
        return Err("loadgen needs at least one mix".to_owned());
    }
    warm_caches(&opts.addr, &opts.mixes)?;
    let mut reports = Vec::new();
    for mix in &opts.mixes {
        // Bracket each mix with a `stats` scrape so its stage
        // breakdown covers only its own window.
        let before = scrape_stages(&opts.addr);
        let mut report = run_mix(opts, mix);
        if let (Some(before), Some(after)) = (before, scrape_stages(&opts.addr)) {
            report.stages = diff_breakdown(&before, &after);
        }
        reports.push(report);
    }
    Ok(reports)
}

/// Assembles the `BENCH_service` run report, whose `service_loadgen`
/// section carries the full per-mix numbers.
pub fn to_report(reports: &[MixReport]) -> RunReport {
    let mut run_report = RunReport::collect("BENCH_service");
    let mixes = reports
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::Str(r.name.clone())),
                ("mode", Json::Str(r.mode.clone())),
                ("target_rate", Json::U64(r.target_rate)),
                ("connections", Json::U64(r.connections as u64)),
                ("pipeline", Json::U64(r.pipeline as u64)),
                ("duration_ms", Json::U64(r.duration.as_millis() as u64)),
                ("sent", Json::U64(r.sent)),
                ("ok", Json::U64(r.ok)),
                ("cached", Json::U64(r.cached)),
                ("busy", Json::U64(r.busy)),
                ("errors", Json::U64(r.errors)),
                ("transport_errors", Json::U64(r.transport_errors)),
                ("throughput_rps", Json::F64(r.throughput_rps)),
                ("min_us", Json::U64(r.min_us)),
                ("p50_us", Json::U64(r.p50_us)),
                ("p95_us", Json::U64(r.p95_us)),
                ("p99_us", Json::U64(r.p99_us)),
                ("max_us", Json::U64(r.max_us)),
                ("mean_us", Json::U64(r.mean_us)),
                (
                    "stages",
                    Json::Arr(
                        r.stages
                            .iter()
                            .map(|s| {
                                Json::obj(vec![
                                    ("stage", Json::Str(s.stage.clone())),
                                    ("count", Json::U64(s.count)),
                                    ("total_us", Json::U64(s.total_us)),
                                    ("mean_us", Json::U64(s.mean_us)),
                                    ("p50_us", Json::U64(s.p50_us)),
                                    ("p95_us", Json::U64(s.p95_us)),
                                    ("p99_us", Json::U64(s.p99_us)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    run_report.section("service_loadgen", Json::Arr(mixes));
    run_report
}

/// Prints the human summary table for a finished run.
pub fn print_summary(reports: &[MixReport]) {
    println!(
        "{:<14} {:<7} {:>6} {:>6} {:>8} {:>8} {:>6} {:>6} {:>10} {:>9} {:>9} {:>9}",
        "mix",
        "mode",
        "conns",
        "pipe",
        "sent",
        "ok",
        "busy",
        "err",
        "rps",
        "p50_us",
        "p95_us",
        "p99_us"
    );
    for r in reports {
        println!(
            "{:<14} {:<7} {:>6} {:>6} {:>8} {:>8} {:>6} {:>6} {:>10.1} {:>9} {:>9} {:>9}",
            r.name,
            r.mode,
            r.connections,
            r.pipeline,
            r.sent,
            r.ok,
            r.busy,
            r.errors + r.transport_errors,
            r.throughput_rps,
            r.p50_us,
            r.p95_us,
            r.p99_us,
        );
    }
    for r in reports {
        if r.stages.is_empty() {
            continue;
        }
        println!("\n{} — server-side stage breakdown:", r.name);
        println!(
            "  {:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "mean_us", "p50_us", "p95_us", "p99_us"
        );
        for s in &r.stages {
            println!(
                "  {:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                s.stage, s.count, s.mean_us, s.p50_us, s.p95_us, s.p99_us
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 95.0), 100);
        assert_eq!(percentile(&sorted, 99.0), 100);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn weighted_schedule_respects_weights() {
        let tas = "t".to_owned();
        let entries = vec![
            MixEntry {
                kind: QueryKind::Classify,
                type_text: tas.clone(),
                options: QueryOptions::default(),
                weight: 3,
            },
            MixEntry {
                kind: QueryKind::Witness,
                type_text: tas,
                options: QueryOptions::default(),
                weight: 1,
            },
        ];
        let schedule = weighted_schedule(&entries);
        assert_eq!(schedule, vec![0, 0, 0, 1]);
    }

    #[test]
    fn report_document_is_schema_valid_with_two_mixes() {
        let mix = MixReport {
            name: "closed-hot".to_owned(),
            mode: "closed".to_owned(),
            connections: 2,
            pipeline: 4,
            duration: Duration::from_millis(1500),
            sent: 100,
            ok: 98,
            cached: 95,
            busy: 2,
            throughput_rps: 65.3,
            p50_us: 800,
            p95_us: 2000,
            p99_us: 4000,
            max_us: 9000,
            mean_us: 900,
            ..MixReport::default()
        };
        let mut open = mix.clone();
        open.name = "open-mixed".to_owned();
        open.mode = "open".to_owned();
        open.target_rate = 200;
        let report = to_report(&[mix, open]);
        let doc = wfc_obs::json::parse(&report.render()).unwrap();
        wfc_obs::report::validate(&doc).unwrap();
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("BENCH_service")
        );
        let section = doc
            .get("sections")
            .and_then(|s| s.get("service_loadgen"))
            .and_then(Json::as_arr)
            .expect("service_loadgen section");
        assert_eq!(section.len(), 2);
        for mix in section {
            for field in ["p50_us", "p95_us", "p99_us", "throughput_rps"] {
                assert!(mix.get(field).is_some(), "missing {field}");
            }
        }
    }

    #[test]
    fn diff_breakdown_subtracts_the_earlier_scrape() {
        let mut before = StageSnapshot::new();
        let mut after = StageSnapshot::new();
        // engine: 2 old requests in [0,63], 2 new in (63,127].
        before.insert("engine".to_owned(), (2, 40, vec![(63, 2)]));
        after.insert("engine".to_owned(), (4, 240, vec![(63, 2), (127, 2)]));
        // decode appears only after the window started.
        after.insert("decode".to_owned(), (1, 10, vec![(15, 1)]));
        // queue did not move: dropped from the breakdown.
        before.insert("queue".to_owned(), (3, 30, vec![(15, 3)]));
        after.insert("queue".to_owned(), (3, 30, vec![(15, 3)]));

        let stages = diff_breakdown(&before, &after);
        let names: Vec<&str> = stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            ["decode", "engine"],
            "pipeline order, no idle stages"
        );
        let engine = &stages[1];
        assert_eq!(engine.count, 2);
        assert_eq!(engine.total_us, 200);
        assert_eq!(engine.mean_us, 100);
        // Both window requests landed in the (63,127] bucket.
        assert_eq!(engine.p50_us, 127);
        assert_eq!(engine.p99_us, 127);
    }

    #[test]
    fn default_mixes_cover_both_disciplines() {
        let mixes = default_mixes(200);
        assert_eq!(mixes.len(), 2);
        assert_eq!(mixes[0].mode, Mode::Closed);
        assert_eq!(mixes[1].mode, Mode::Open { rate_per_sec: 200 });
        for mix in &mixes {
            assert!(!mix.entries.is_empty());
        }
    }
}
