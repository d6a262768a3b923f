//! Live service introspection: per-request stage tracing, the flight
//! recorder, and the `wfc-stats/v1` snapshot answered by the `stats`
//! query kind.
//!
//! ## Stage tracing
//!
//! Every accepted frame gets a [`RequestTrace`]: a process-unique
//! sequence number plus one microsecond stamp per
//! [`Stage`](wfc_spec::stage::Stage) it crosses, all measured from one
//! monotonic origin (the instant its bytes began arriving), so the
//! stamps are monotone by construction. The trace travels *with* the
//! request — IO thread → job queue → worker → back to the IO thread on
//! the response path — and is finalized exactly once, when the last
//! response byte leaves the socket (or the request is dropped). A
//! finalized trace feeds the six telescoping
//! `service.stage.<interval>_us` histograms and one packed record into
//! the flight recorder.
//!
//! Tracing exists only while `wfc_obs` is enabled: with observability
//! off, [`IntroCtx::trace`] returns `None`, no ring is ever allocated,
//! and the hot path pays one relaxed load — PR 2's zero-cost-when-off
//! contract, extended.
//!
//! ## The `stats` snapshot
//!
//! A `stats` request is answered **inline on the IO thread**, before
//! it could reach the job queue — it is structurally exempt from
//! caching and queueing, so it works even when the queue is saturated
//! and every worker is wedged. The snapshot reads the metrics registry
//! non-destructively and the flight ring wait-free; it never blocks
//! the writers it observes (the module-level rationale in
//! [`wfc_obs::flight`]).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wfc_obs::flight::{FlightRecorder, RECORD_WORDS};
use wfc_obs::json::Json;
use wfc_obs::metrics::{HistogramSnapshot, Registry};
use wfc_spec::stage::{Interval, Stage};

use crate::cache::CacheOutcome;
use crate::queue::JobQueue;
use crate::server::ServeConfig;
use crate::wire::QueryKind;

/// The stats snapshot's schema tag.
pub const STATS_SCHEMA: &str = "wfc-stats/v1";

/// How many flight records a snapshot embeds (the newest ones); the
/// full ring capacity can be larger.
const SNAPSHOT_FLIGHT_TAIL: usize = 32;

/// Histogram names for the six intervals, parallel to
/// [`Interval::ALL`] (a lookup table so the hot path never formats).
const INTERVAL_HIST: [&str; 6] = [
    "service.stage.decode_us",
    "service.stage.admit_us",
    "service.stage.queue_us",
    "service.stage.engine_us",
    "service.stage.respond_us",
    "service.stage.flush_us",
];

/// Histogram name for the accepted → bytes-flushed total.
const TOTAL_HIST: &str = "service.stage.total_us";

/// How a request's result was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Not yet determined (the request died before the engine).
    Unknown = 0,
    /// Computed fresh by a worker.
    Fresh = 1,
    /// Waited on another request's identical in-flight computation
    /// (the cache's single-flight).
    Coalesced = 2,
    /// Served from the result cache.
    CacheHit = 3,
    /// Answered inline on the IO thread (`stats` itself).
    Inline = 4,
}

impl From<CacheOutcome> for Disposition {
    /// The cache's verdict on how a worker's result was obtained.
    fn from(how: CacheOutcome) -> Disposition {
        match how {
            CacheOutcome::Memory | CacheOutcome::Disk => Disposition::CacheHit,
            CacheOutcome::Coalesced => Disposition::Coalesced,
            CacheOutcome::Computed => Disposition::Fresh,
        }
    }
}

impl Disposition {
    fn from_code(code: u8) -> Disposition {
        match code {
            1 => Disposition::Fresh,
            2 => Disposition::Coalesced,
            3 => Disposition::CacheHit,
            4 => Disposition::Inline,
            _ => Disposition::Unknown,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Disposition::Unknown => "unknown",
            Disposition::Fresh => "fresh",
            Disposition::Coalesced => "coalesced",
            Disposition::CacheHit => "cache-hit",
            Disposition::Inline => "inline",
        }
    }
}

/// How the request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TraceOutcome {
    /// Still in flight (never appears in a finalized record).
    Pending = 0,
    /// An `ok` response was delivered.
    Ok = 1,
    /// An `error` response was delivered.
    Error = 2,
    /// A `busy` rejection was delivered.
    Busy = 3,
    /// The peer vanished before the response could be delivered.
    Dropped = 4,
}

impl TraceOutcome {
    fn from_code(code: u8) -> TraceOutcome {
        match code {
            1 => TraceOutcome::Ok,
            2 => TraceOutcome::Error,
            3 => TraceOutcome::Busy,
            4 => TraceOutcome::Dropped,
            _ => TraceOutcome::Pending,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Pending => "pending",
            TraceOutcome::Ok => "ok",
            TraceOutcome::Error => "error",
            TraceOutcome::Busy => "busy",
            TraceOutcome::Dropped => "dropped",
        }
    }
}

const ANOMALY_SLOW: u8 = 1;
const ANOMALY_DEADLINE: u8 = 2;
const ANOMALY_BUSY: u8 = 4;

fn anomaly_names(flags: u8) -> Vec<Json> {
    let mut names = Vec::new();
    if flags & ANOMALY_SLOW != 0 {
        names.push(Json::Str("slow".to_owned()));
    }
    if flags & ANOMALY_DEADLINE != 0 {
        names.push(Json::Str("deadline".to_owned()));
    }
    if flags & ANOMALY_BUSY != 0 {
        names.push(Json::Str("busy".to_owned()));
    }
    names
}

/// Stamp slots in a packed flight record (words 2–5, two per word);
/// the seven stages fill the first seven.
const STAMP_SLOTS: usize = 8;

/// One in-flight request's stage stamps. Boxed and moved along the
/// pipeline with the request; all stamps share one monotonic origin.
#[derive(Debug)]
pub(crate) struct RequestTrace {
    /// Process-unique trace sequence number (the flight record's id).
    pub(crate) seq: u64,
    /// The wire request id (client-chosen, echoed on the response).
    pub(crate) request_id: u64,
    pub(crate) kind: QueryKind,
    started: Instant,
    /// Elapsed microseconds at each stage, `u32::MAX`-capped.
    stamps: [u32; Stage::ALL.len()],
    /// Bit `i` set ⇔ `stamps[i]` was taken.
    set: u8,
    pub(crate) disposition: Disposition,
    pub(crate) outcome: TraceOutcome,
    /// The response was a `deadline-exceeded` error.
    pub(crate) deadline_exceeded: bool,
}

impl RequestTrace {
    pub(crate) fn new(
        seq: u64,
        request_id: u64,
        kind: QueryKind,
        accepted: Instant,
    ) -> Box<RequestTrace> {
        let mut trace = Box::new(RequestTrace {
            seq,
            request_id,
            kind,
            started: accepted,
            stamps: [0; Stage::ALL.len()],
            set: 0,
            disposition: Disposition::Unknown,
            outcome: TraceOutcome::Pending,
            deadline_exceeded: false,
        });
        trace.set |= 1; // Accepted is the origin: stamp 0 at bit 0.
        trace
    }

    /// Stamps `stage` with the elapsed time since acceptance. Stamps
    /// are taken in pipeline order from one monotonic origin, so the
    /// recorded values are non-decreasing by construction.
    pub(crate) fn stamp(&mut self, stage: Stage) {
        let us = self.started.elapsed().as_micros().min(u32::MAX as u128) as u32;
        self.stamps[stage.index()] = us;
        self.set |= 1 << stage.index();
    }

    fn get(&self, stage: Stage) -> Option<u32> {
        (self.set & (1 << stage.index()) != 0).then_some(self.stamps[stage.index()])
    }

    /// End-to-end micros: the latest stamp taken.
    fn total_us(&self) -> u64 {
        Stage::ALL
            .into_iter()
            .rev()
            .find_map(|s| self.get(s))
            .unwrap_or(0) as u64
    }

    /// Packs the finalized trace into one flight record. Layout:
    /// word 0 = trace seq; word 1 = metadata (kind code, disposition,
    /// outcome, anomaly flags, stamp set-mask in bytes 0–4); words
    /// 2–5 = the seven stage stamps as `lo | hi << 32` pairs, the
    /// eighth slot zero; word 6 = total micros; word 7 = wire request
    /// id.
    fn pack(&self, anomaly: u8) -> [u64; RECORD_WORDS] {
        let kind_code = QueryKind::ALL
            .iter()
            .position(|k| *k == self.kind)
            .unwrap_or(0) as u64;
        let meta = kind_code
            | (self.disposition as u64) << 8
            | (self.outcome as u64) << 16
            | (anomaly as u64) << 24
            | (self.set as u64) << 32;
        let mut s = [0u32; STAMP_SLOTS];
        s[..Stage::ALL.len()].copy_from_slice(&self.stamps);
        [
            self.seq,
            meta,
            s[0] as u64 | (s[1] as u64) << 32,
            s[2] as u64 | (s[3] as u64) << 32,
            s[4] as u64 | (s[5] as u64) << 32,
            s[6] as u64 | (s[7] as u64) << 32,
            self.total_us(),
            self.request_id,
        ]
    }
}

/// Renders one packed flight record back into the snapshot's JSON
/// shape (the inverse of [`RequestTrace::pack`]).
fn unpack_record(ticket: u64, words: &[u64; RECORD_WORDS]) -> Json {
    let meta = words[1];
    let kind = QueryKind::ALL
        .get((meta & 0xff) as usize)
        .map_or("unknown", |k| k.as_str());
    let disposition = Disposition::from_code((meta >> 8) as u8);
    let outcome = TraceOutcome::from_code((meta >> 16) as u8);
    let anomaly = (meta >> 24) as u8;
    let set = (meta >> 32) as u8;
    let mut stamps = [0u32; STAMP_SLOTS];
    for (pair, chunk) in words[2..6].iter().zip(stamps.chunks_mut(2)) {
        chunk[0] = *pair as u32;
        chunk[1] = (*pair >> 32) as u32;
    }
    let stages = Stage::ALL
        .into_iter()
        .filter(|s| set & (1 << s.index()) != 0)
        .map(|s| (s.as_str(), Json::U64(stamps[s.index()] as u64)))
        .collect();
    Json::obj(vec![
        ("id", Json::U64(ticket)),
        ("request_id", Json::U64(words[7])),
        ("kind", Json::Str(kind.to_owned())),
        ("disposition", Json::Str(disposition.as_str().to_owned())),
        ("outcome", Json::Str(outcome.as_str().to_owned())),
        ("anomaly", Json::Arr(anomaly_names(anomaly))),
        ("total_us", Json::U64(words[6])),
        ("stages", Json::obj(stages)),
    ])
}

/// The server's introspection context: the trace sequence, live
/// in-flight count, the flight recorder (allocated only when
/// observability is on), and the static facts the snapshot reports.
/// One per `serve()` call, shared by the IO thread and every worker.
pub(crate) struct IntroCtx {
    started: Instant,
    seq: AtomicU64,
    accepted_total: AtomicU64,
    inflight: AtomicUsize,
    recorder: Option<FlightRecorder>,
    anomaly_threshold_us: Option<u64>,
    workers: usize,
    max_connections: usize,
    conn_count: Arc<AtomicUsize>,
}

impl IntroCtx {
    pub(crate) fn new(config: &ServeConfig, conn_count: Arc<AtomicUsize>) -> Arc<IntroCtx> {
        // The ring is allocated once, here, and only when observability
        // is on — a disabled server has no ring at all (zero-cost-off).
        let recorder = (wfc_obs::enabled() && config.flight_capacity > 0)
            .then(|| FlightRecorder::new(config.flight_capacity));
        Arc::new(IntroCtx {
            started: Instant::now(),
            seq: AtomicU64::new(0),
            accepted_total: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            recorder,
            anomaly_threshold_us: config
                .anomaly_threshold
                .map(|t| t.as_micros().min(u64::MAX as u128) as u64),
            workers: config.workers.max(1),
            max_connections: config.max_connections,
            conn_count,
        })
    }

    /// Counts one well-formed request (always, independent of obs).
    pub(crate) fn note_request(&self) {
        self.accepted_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Opens a trace for an accepted frame, or `None` with obs off —
    /// the single gate that keeps the whole tracing layer zero-cost
    /// when disabled.
    pub(crate) fn trace(
        &self,
        request_id: u64,
        kind: QueryKind,
        accepted: Instant,
    ) -> Option<Box<RequestTrace>> {
        if !wfc_obs::enabled() {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        Some(RequestTrace::new(seq, request_id, kind, accepted))
    }

    /// Marks one computation in flight; the guard decrements on drop.
    pub(crate) fn enter_flight(self: &Arc<Self>) -> FlightGuard {
        let n = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        wfc_obs::gauge_set!("service.inflight", n as i64);
        FlightGuard(Arc::clone(self))
    }

    /// Finalizes a completed trace: feeds the per-interval histograms,
    /// trips anomaly counters, and publishes the packed flight record.
    pub(crate) fn finalize(&self, trace: &RequestTrace) {
        for (name, interval) in INTERVAL_HIST.iter().zip(Interval::ALL) {
            if let (Some(a), Some(b)) = (trace.get(interval.start), trace.get(interval.end)) {
                wfc_obs::histogram!(*name, b.saturating_sub(a) as u64);
            }
        }
        let total = trace.total_us();
        wfc_obs::histogram!(TOTAL_HIST, total);
        let mut anomaly = 0u8;
        if self.anomaly_threshold_us.is_some_and(|t| total > t) {
            anomaly |= ANOMALY_SLOW;
            wfc_obs::counter!("service.anomalies.latency");
        }
        if trace.deadline_exceeded {
            anomaly |= ANOMALY_DEADLINE;
            wfc_obs::counter!("service.anomalies.deadline");
        }
        if trace.outcome == TraceOutcome::Busy {
            anomaly |= ANOMALY_BUSY;
            wfc_obs::counter!("service.anomalies.busy");
        }
        if anomaly != 0 {
            wfc_obs::counter!("service.anomalies");
        }
        if let Some(recorder) = &self.recorder {
            recorder.push(&trace.pack(anomaly));
            wfc_obs::counter!("service.flight.recorded");
        }
    }

    /// Finalizes a trace whose peer vanished before delivery.
    pub(crate) fn finalize_dropped(&self, mut trace: RequestTrace) {
        trace.outcome = TraceOutcome::Dropped;
        self.finalize(&trace);
    }

    /// Builds the `wfc-stats/v1` snapshot. Called inline on the IO
    /// thread; reads the registry non-destructively (unlike
    /// `RunReport::collect`, which resets it) and the ring wait-free.
    pub(crate) fn build_stats(&self, queue: &JobQueue) -> Json {
        let snapshot = Registry::global().snapshot();
        let server = Json::obj(vec![
            ("workers", Json::U64(self.workers as u64)),
            (
                "connections",
                Json::U64(self.conn_count.load(Ordering::Relaxed) as u64),
            ),
            ("max_connections", Json::U64(self.max_connections as u64)),
            ("queue_depth", Json::U64(queue.depth() as u64)),
            ("queue_capacity", Json::U64(queue.capacity() as u64)),
            (
                "inflight",
                Json::U64(self.inflight.load(Ordering::Relaxed) as u64),
            ),
            (
                "requests_accepted",
                Json::U64(self.accepted_total.load(Ordering::Relaxed)),
            ),
            ("obs_enabled", Json::Bool(wfc_obs::enabled())),
        ]);
        let counters = snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.as_str(), Json::U64(*value)))
            .collect();
        let gauges = snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.as_str(), Json::I64(*value)))
            .collect();
        let histograms = snapshot
            .histograms
            .iter()
            .map(|(name, hist)| (name.as_str(), histogram_doc(hist, true)))
            .collect();
        let mut stages: Vec<(&str, Json)> = INTERVAL_HIST
            .iter()
            .zip(Interval::ALL)
            .filter_map(|(hist_name, interval)| {
                let (_, hist) = snapshot.histograms.iter().find(|(n, _)| n == hist_name)?;
                Some((interval.name, histogram_doc(hist, false)))
            })
            .collect();
        if let Some((_, hist)) = snapshot.histograms.iter().find(|(n, _)| n == TOTAL_HIST) {
            stages.push(("total", histogram_doc(hist, false)));
        }
        let (capacity, recorded, records) = match &self.recorder {
            Some(recorder) => {
                let all = recorder.snapshot();
                let tail = all.len().saturating_sub(SNAPSHOT_FLIGHT_TAIL);
                (
                    recorder.capacity() as u64,
                    recorder.recorded(),
                    all[tail..]
                        .iter()
                        .map(|r| unpack_record(r.ticket, &r.words))
                        .collect(),
                )
            }
            None => (0, 0, Vec::new()),
        };
        Json::obj(vec![
            ("schema", Json::Str(STATS_SCHEMA.to_owned())),
            (
                "uptime_us",
                Json::U64(self.started.elapsed().as_micros().min(u64::MAX as u128) as u64),
            ),
            ("server", server),
            ("counters", Json::obj(counters)),
            ("gauges", Json::obj(gauges)),
            ("histograms", Json::obj(histograms)),
            ("stages", Json::obj(stages)),
            (
                "flight",
                Json::obj(vec![
                    ("capacity", Json::U64(capacity)),
                    ("recorded", Json::U64(recorded)),
                    ("records", Json::Arr(records)),
                ]),
            ),
        ])
    }
}

impl std::fmt::Debug for IntroCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntroCtx")
            .field("recorder", &self.recorder)
            .finish_non_exhaustive()
    }
}

/// RAII in-flight marker from [`IntroCtx::enter_flight`].
pub(crate) struct FlightGuard(Arc<IntroCtx>);

impl Drop for FlightGuard {
    fn drop(&mut self) {
        let n = self.0.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
        wfc_obs::gauge_set!("service.inflight", n as i64);
    }
}

/// Summarizes one histogram snapshot: count, value sum, integer mean,
/// and quantile upper bounds; raw nonzero buckets when `with_buckets`.
fn histogram_doc(hist: &HistogramSnapshot, with_buckets: bool) -> Json {
    let mean = hist.total.checked_div(hist.count).unwrap_or(0);
    let mut fields = vec![
        ("count", Json::U64(hist.count)),
        ("total", Json::U64(hist.total)),
        ("mean", Json::U64(mean)),
    ];
    for (name, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        if let Some(bound) = hist.quantile_upper_bound(q) {
            fields.push((name, Json::U64(bound)));
        }
    }
    if with_buckets {
        fields.push((
            "buckets",
            Json::Arr(
                hist.buckets
                    .iter()
                    .map(|&(bound, n)| Json::Arr(vec![Json::U64(bound), Json::U64(n)]))
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

fn field_u64(doc: &Json, ctx: &str, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing u64 `{key}`"))
}

fn validate_histogram_doc(doc: &Json, ctx: &str) -> Result<(), String> {
    let count = field_u64(doc, ctx, "count")?;
    field_u64(doc, ctx, "total")?;
    field_u64(doc, ctx, "mean")?;
    for q in ["p50", "p95", "p99"] {
        match doc.get(q) {
            None if count == 0 => {}
            Some(v) if v.as_u64().is_some() => {}
            _ => {
                return Err(format!(
                    "{ctx}: `{q}` must be a u64 (present iff count > 0)"
                ))
            }
        }
    }
    if let Some(buckets) = doc.get("buckets") {
        let buckets = buckets
            .as_arr()
            .ok_or_else(|| format!("{ctx}: `buckets` must be an array"))?;
        let mut last_bound = None;
        let mut sum = 0u64;
        for bucket in buckets {
            let pair = bucket.as_arr().filter(|p| p.len() == 2);
            let (bound, n) = match pair {
                Some(p) => match (p[0].as_u64(), p[1].as_u64()) {
                    (Some(b), Some(n)) => (b, n),
                    _ => return Err(format!("{ctx}: bucket entries must be u64 pairs")),
                },
                None => return Err(format!("{ctx}: buckets must be `[bound, count]` pairs")),
            };
            if last_bound.is_some_and(|last| bound <= last) {
                return Err(format!("{ctx}: bucket bounds must strictly increase"));
            }
            last_bound = Some(bound);
            sum += n;
        }
        if sum != count {
            return Err(format!(
                "{ctx}: bucket counts sum to {sum}, count is {count}"
            ));
        }
    }
    Ok(())
}

/// Validates a `wfc-stats/v1` snapshot document's shape: the schema
/// tag, the server block, every metric summary, and per-record stage
/// monotonicity in the flight tail.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_stats_json(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == STATS_SCHEMA => {}
        other => return Err(format!("schema must be `{STATS_SCHEMA}`, got {other:?}")),
    }
    field_u64(doc, "stats", "uptime_us")?;
    let server = doc
        .get("server")
        .filter(|v| v.as_obj().is_some())
        .ok_or("missing `server` object")?;
    for key in [
        "workers",
        "connections",
        "max_connections",
        "queue_depth",
        "queue_capacity",
        "inflight",
        "requests_accepted",
    ] {
        field_u64(server, "server", key)?;
    }
    if !matches!(server.get("obs_enabled"), Some(Json::Bool(_))) {
        return Err("server: missing bool `obs_enabled`".to_owned());
    }
    let counters = doc
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("missing `counters` object")?;
    for (name, value) in counters {
        if value.as_u64().is_none() {
            return Err(format!("counter `{name}` must be a u64"));
        }
    }
    let gauges = doc
        .get("gauges")
        .and_then(Json::as_obj)
        .ok_or("missing `gauges` object")?;
    for (name, value) in gauges {
        if !matches!(value, Json::U64(_) | Json::I64(_)) {
            return Err(format!("gauge `{name}` must be an integer"));
        }
    }
    let histograms = doc
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or("missing `histograms` object")?;
    for (name, hist) in histograms {
        validate_histogram_doc(hist, &format!("histogram `{name}`"))?;
    }
    let stages = doc
        .get("stages")
        .and_then(Json::as_obj)
        .ok_or("missing `stages` object")?;
    for (name, hist) in stages {
        if !Interval::ALL.iter().any(|i| i.name == name) && name != "total" {
            return Err(format!("unknown stage interval `{name}`"));
        }
        validate_histogram_doc(hist, &format!("stage `{name}`"))?;
    }
    let flight = doc
        .get("flight")
        .filter(|v| v.as_obj().is_some())
        .ok_or("missing `flight` object")?;
    field_u64(flight, "flight", "capacity")?;
    field_u64(flight, "flight", "recorded")?;
    let records = flight
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("flight: missing `records` array")?;
    let mut last_id = None;
    for record in records {
        let ctx = "flight record";
        let id = field_u64(record, ctx, "id")?;
        if last_id.is_some_and(|last| id <= last) {
            return Err("flight records must be in increasing id order".to_owned());
        }
        last_id = Some(id);
        field_u64(record, ctx, "request_id")?;
        field_u64(record, ctx, "total_us")?;
        for key in ["kind", "disposition", "outcome"] {
            if record.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("{ctx}: missing string `{key}`"));
            }
        }
        if record.get("anomaly").and_then(Json::as_arr).is_none() {
            return Err(format!("{ctx}: missing `anomaly` array"));
        }
        let stamps = record
            .get("stages")
            .filter(|v| v.as_obj().is_some())
            .ok_or_else(|| format!("{ctx}: missing `stages` object"))?;
        let mut last_stamp = None;
        for stage in Stage::ALL {
            let Some(value) = stamps.get(stage.as_str()) else {
                continue;
            };
            let us = value
                .as_u64()
                .ok_or_else(|| format!("{ctx}: stage `{}` must be a u64", stage.as_str()))?;
            if last_stamp.is_some_and(|last| us < last) {
                return Err(format!(
                    "{ctx}: stage `{}` stamp {us} regresses below {}",
                    stage.as_str(),
                    last_stamp.unwrap_or(0)
                ));
            }
            last_stamp = Some(us);
        }
    }
    // Clustered servers append a `repl` section; standalone ones omit
    // it. When present its core counters must be sane.
    if let Some(repl) = doc.get("repl") {
        if repl.as_obj().is_none() {
            return Err("`repl` must be an object".to_owned());
        }
        for key in [
            "node_id",
            "sequencer",
            "members",
            "last_index",
            "committed",
            "applied",
            "peers_connected",
        ] {
            field_u64(repl, "repl", key)?;
        }
        let committed = field_u64(repl, "repl", "committed")?;
        let applied = field_u64(repl, "repl", "applied")?;
        if applied > committed {
            return Err(format!(
                "repl: applied {applied} exceeds committed {committed}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Tests here toggle the global obs flag and reset the registry;
    /// they must not interleave with each other.
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn test_ctx(flight_capacity: usize) -> Arc<IntroCtx> {
        IntroCtx::new(
            &ServeConfig {
                flight_capacity,
                ..ServeConfig::default()
            },
            Arc::new(AtomicUsize::new(0)),
        )
    }

    #[test]
    fn interval_histogram_names_match_the_stage_vocabulary() {
        for (name, interval) in INTERVAL_HIST.iter().zip(Interval::ALL) {
            assert_eq!(*name, format!("service.stage.{}_us", interval.name));
        }
    }

    #[test]
    fn single_flight_waits_are_coalesced_and_tier_hits_cache_hits() {
        let of = |how| Disposition::from(how).as_str();
        assert_eq!(of(CacheOutcome::Coalesced), "coalesced");
        assert_eq!(of(CacheOutcome::Memory), "cache-hit");
        assert_eq!(of(CacheOutcome::Disk), "cache-hit");
        assert_eq!(of(CacheOutcome::Computed), "fresh");
    }

    #[test]
    fn traces_pack_and_unpack_without_loss() {
        let accepted = Instant::now() - Duration::from_micros(500);
        let mut trace = RequestTrace::new(7, 42, QueryKind::Witness, accepted);
        for stage in Stage::ALL.into_iter().skip(1) {
            trace.stamp(stage);
        }
        trace.disposition = Disposition::CacheHit;
        trace.outcome = TraceOutcome::Ok;
        let words = trace.pack(ANOMALY_SLOW | ANOMALY_DEADLINE);
        let doc = unpack_record(3, &words);
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("request_id").and_then(Json::as_u64), Some(42));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("witness"));
        assert_eq!(
            doc.get("disposition").and_then(Json::as_str),
            Some("cache-hit")
        );
        assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("ok"));
        assert_eq!(
            doc.get("anomaly").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        let stages = doc.get("stages").unwrap();
        for stage in Stage::ALL {
            assert_eq!(
                stages.get(stage.as_str()).and_then(Json::as_u64),
                Some(trace.stamps[stage.index()] as u64),
                "stage {} must round-trip",
                stage.as_str()
            );
        }
        assert_eq!(
            doc.get("total_us").and_then(Json::as_u64),
            Some(trace.total_us())
        );
    }

    #[test]
    fn stamps_are_monotone_and_partial_traces_report_their_latest() {
        let accepted = Instant::now();
        let mut trace = RequestTrace::new(0, 1, QueryKind::Classify, accepted);
        trace.stamp(Stage::Decoded);
        std::thread::sleep(Duration::from_millis(2));
        trace.stamp(Stage::Enqueued);
        let decoded = trace.get(Stage::Decoded).unwrap();
        let enqueued = trace.get(Stage::Enqueued).unwrap();
        assert!(enqueued >= decoded);
        assert!(enqueued >= 2000, "2ms sleep must register: {enqueued}");
        assert_eq!(trace.get(Stage::EngineStart), None);
        assert_eq!(trace.total_us(), enqueued as u64, "latest stamp wins");
    }

    #[test]
    fn snapshot_validates_and_reflects_finalized_traces() {
        let _l = obs_lock();
        let was = wfc_obs::enabled();
        wfc_obs::set_enabled(true);
        Registry::global().reset();
        let ctx = test_ctx(8);
        let queue = JobQueue::new(4);
        ctx.note_request();
        let mut trace = ctx
            .trace(9, QueryKind::Classify, Instant::now())
            .expect("tracing is on when obs is on");
        for stage in Stage::ALL.into_iter().skip(1) {
            trace.stamp(stage);
        }
        trace.disposition = Disposition::Fresh;
        trace.outcome = TraceOutcome::Ok;
        ctx.finalize(&trace);

        let doc = ctx.build_stats(&queue);
        validate_stats_json(&doc).expect("snapshot must validate");
        let server = doc.get("server").unwrap();
        assert_eq!(
            server.get("requests_accepted").and_then(Json::as_u64),
            Some(1)
        );
        let flight = doc.get("flight").unwrap();
        assert_eq!(flight.get("recorded").and_then(Json::as_u64), Some(1));
        assert_eq!(
            flight
                .get("records")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        let stages = doc.get("stages").and_then(Json::as_obj).unwrap();
        assert!(
            !stages.is_empty(),
            "finalize must populate stage histograms"
        );
        Registry::global().reset();
        wfc_obs::set_enabled(was);
    }

    #[test]
    fn disabled_obs_means_no_ring_and_no_traces() {
        let _l = obs_lock();
        let was = wfc_obs::enabled();
        wfc_obs::set_enabled(false);
        let ctx = test_ctx(64);
        assert!(
            ctx.trace(1, QueryKind::Classify, Instant::now()).is_none(),
            "tracing must be off with obs off"
        );
        let queue = JobQueue::new(4);
        let doc = ctx.build_stats(&queue);
        validate_stats_json(&doc).expect("disabled snapshot still validates");
        let flight = doc.get("flight").unwrap();
        assert_eq!(
            flight.get("capacity").and_then(Json::as_u64),
            Some(0),
            "no ring may be allocated with obs off"
        );
        wfc_obs::set_enabled(was);
    }

    #[test]
    fn validator_rejects_regressing_stage_stamps() {
        let record = Json::obj(vec![
            ("id", Json::U64(0)),
            ("request_id", Json::U64(1)),
            ("kind", Json::Str("classify".to_owned())),
            ("disposition", Json::Str("fresh".to_owned())),
            ("outcome", Json::Str("ok".to_owned())),
            ("anomaly", Json::Arr(Vec::new())),
            ("total_us", Json::U64(5)),
            (
                "stages",
                Json::obj(vec![("accepted", Json::U64(10)), ("decoded", Json::U64(4))]),
            ),
        ]);
        let doc = Json::obj(vec![
            ("schema", Json::Str(STATS_SCHEMA.to_owned())),
            ("uptime_us", Json::U64(1)),
            (
                "server",
                Json::obj(vec![
                    ("workers", Json::U64(1)),
                    ("connections", Json::U64(0)),
                    ("max_connections", Json::U64(1)),
                    ("queue_depth", Json::U64(0)),
                    ("queue_capacity", Json::U64(1)),
                    ("inflight", Json::U64(0)),
                    ("requests_accepted", Json::U64(0)),
                    ("obs_enabled", Json::Bool(true)),
                ]),
            ),
            ("counters", Json::obj(Vec::new())),
            ("gauges", Json::obj(Vec::new())),
            ("histograms", Json::obj(Vec::new())),
            ("stages", Json::obj(Vec::new())),
            (
                "flight",
                Json::obj(vec![
                    ("capacity", Json::U64(8)),
                    ("recorded", Json::U64(1)),
                    ("records", Json::Arr(vec![record])),
                ]),
            ),
        ]);
        let err = validate_stats_json(&doc).unwrap_err();
        assert!(err.contains("regresses"), "unexpected error: {err}");
    }
}
