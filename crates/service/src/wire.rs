//! The `wfc-svc/v1` wire protocol: length-prefixed JSON frames.
//!
//! Every message is a 4-byte big-endian length followed by that many
//! bytes of compact UTF-8 JSON (rendered by `wfc_obs::json`, which has
//! deterministic key order). Both directions use the same framing;
//! requests and responses carry a `proto` field naming the protocol
//! version, and responses echo the request `id`, which is what makes
//! per-connection pipelining possible — a client may have many requests
//! in flight and match answers by id (responses can arrive out of
//! order when a server runs several workers).
//!
//! Error and busy responses are structured, not bare strings: a budget
//! or deadline failure carries the same `budget`/`used`/`resource` triple
//! as [`control::Exhausted`](wfc_spec::control::Exhausted) plus a
//! `partial` [`Progress`](wfc_spec::control::Progress) snapshot of the
//! work done before the control plane stopped it, and a backpressure
//! rejection carries the observed queue depth as `used` against the
//! configured capacity as `budget`.

use std::fmt;
use std::io::{self, Read, Write};

use wfc_obs::json::Json;
use wfc_spec::control::Progress;

/// The protocol identifier carried by every frame.
pub const PROTO: &str = "wfc-svc/v1";

/// Frames larger than this are rejected before allocation (a hostile
/// peer must not be able to request an arbitrary buffer).
pub const MAX_FRAME: usize = 16 << 20;

/// A wire-level failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(io::Error),
    /// A frame violated the protocol (oversized, bad JSON, missing or
    /// mistyped fields, wrong `proto`).
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

fn proto_err(message: impl Into<String>) -> WireError {
    WireError::Protocol(message.into())
}

/// Writes one value as a length-prefixed frame.
pub fn write_frame(out: &mut impl Write, value: &Json) -> Result<(), WireError> {
    let payload = value.render();
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(proto_err(format!(
            "outgoing frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
            bytes.len()
        )));
    }
    out.write_all(&(bytes.len() as u32).to_be_bytes())?;
    out.write_all(bytes)?;
    out.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection between messages).
pub fn read_frame(input: &mut impl Read) -> Result<Option<Json>, WireError> {
    let mut header = [0u8; 4];
    // An idle timeout before any header byte arrives propagates as an
    // `Io` error (the server uses that to poll its shutdown flag); once
    // the first byte is in, timeouts resume the read so framing holds.
    match read_full(input, &mut header, false)? {
        0 => return Ok(None),
        4 => {}
        n => {
            return Err(proto_err(format!(
                "connection died {n} bytes into a header"
            )))
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(proto_err(format!(
            "incoming frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    if read_full(input, &mut payload, true)? != len {
        return Err(proto_err("connection died mid-frame"));
    }
    let text = std::str::from_utf8(&payload).map_err(|_| proto_err("frame is not UTF-8"))?;
    let value = wfc_obs::json::parse(text).map_err(|e| proto_err(format!("bad JSON: {e}")))?;
    Ok(Some(value))
}

/// An incremental frame decoder for nonblocking sockets: the readiness
/// frontend feeds it whatever bytes `read(2)` produced, and pulls out
/// complete frames as they materialize. A frame trickling in one byte
/// per readiness event yields exactly one document once its last byte
/// arrives — the buffer is the resumption state, so partial reads can
/// never desynchronize the framing.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends freshly read bytes.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame, or `Ok(None)` when the buffered
    /// bytes end mid-frame (call again after the next read).
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on an oversized declared length, invalid
    /// UTF-8, or malformed JSON; the stream is not trustworthy past that
    /// point and the connection should be closed.
    pub fn next_frame(&mut self) -> Result<Option<Json>, WireError> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > MAX_FRAME {
            return Err(proto_err(format!(
                "incoming frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
            )));
        }
        if pending.len() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let payload = &pending[4..4 + len];
        let text = std::str::from_utf8(payload).map_err(|_| proto_err("frame is not UTF-8"))?;
        let value = wfc_obs::json::parse(text).map_err(|e| proto_err(format!("bad JSON: {e}")))?;
        self.start += 4 + len;
        self.compact();
        Ok(Some(value))
    }

    /// Reclaims consumed space: cheap truncation when fully drained, an
    /// occasional shift when the dead prefix grows large.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Reads until `buf` is full or EOF; returns the bytes read. Always
/// retries `Interrupted`. `WouldBlock`/`TimedOut` are retried once at
/// least one byte has been read — or unconditionally when `retry_idle`
/// is set — so a mid-frame read timeout never desynchronizes the
/// framing, while an *idle* timeout (no bytes yet) can surface to the
/// caller as an `Io` error it treats as "poll again".
fn read_full(input: &mut impl Read, buf: &mut [u8], retry_idle: bool) -> Result<usize, WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) && (filled > 0 || retry_idle) =>
            {
                continue;
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(filled)
}

/// The analyses a `wfc-service` server can be asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Theorem 5 classification plus the one-use-bit recipe (case 2).
    Classify,
    /// The Lemma-4 minimal non-trivial pair.
    Witness,
    /// Section 4.2 access bounds (`D`, per-register `r_b`/`w_b`).
    AccessBounds,
    /// The full Theorem 5 pipeline: bounds, elimination, re-verification.
    Theorem5,
    /// Wait-freedom + agreement + validity over all `2^n` input vectors.
    VerifyConsensus,
    /// Schedule exploration of a concrete register implementation under
    /// the `wfc-sched` model checker. The request's `type` field carries
    /// a sched spec line (`<target> [key=value…]`), not a type.
    Sched,
    /// A full `wfc-scenario` file: the request's `type` field carries the
    /// scenario text, and the result is a `wfc-scenario/v1` document.
    /// Cached under the scenario's canonical text, so respelled but
    /// canonically equal files share a cache line.
    Scenario,
    /// Live server introspection: a `wfc-stats/v1` snapshot of registry
    /// metrics, per-stage latency histograms, connection/worker/queue
    /// state and the flight-recorder tail. Answered inline on the IO
    /// thread — never cached or queued; the `type` field is ignored.
    Stats,
}

impl QueryKind {
    /// Every query kind, in a fixed order (for tests and smoke scripts).
    pub const ALL: [QueryKind; 8] = [
        QueryKind::Classify,
        QueryKind::Witness,
        QueryKind::AccessBounds,
        QueryKind::Theorem5,
        QueryKind::VerifyConsensus,
        QueryKind::Sched,
        QueryKind::Scenario,
        QueryKind::Stats,
    ];

    /// The wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::Classify => "classify",
            QueryKind::Witness => "witness",
            QueryKind::AccessBounds => "access-bounds",
            QueryKind::Theorem5 => "theorem5",
            QueryKind::VerifyConsensus => "verify-consensus",
            QueryKind::Sched => "sched",
            QueryKind::Scenario => "scenario",
            QueryKind::Stats => "stats",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<QueryKind> {
        QueryKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-request exploration budgets: part of a type query's identity,
/// hence of its cache key. Sched specs and scenarios carry their
/// budgets in their own text and ignore these; every kind takes
/// `threads`.
///
/// `threads` is deliberately **not** part of the cache identity: every
/// analysis in the pipeline is bit-identical across thread counts
/// (enforced by `tests/parallel_differential.rs`), so results computed
/// at different parallelism must share cache lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryOptions {
    /// Maximum distinct configurations per exploration.
    pub max_configs: usize,
    /// Maximum execution-tree depth per exploration.
    pub max_depth: usize,
    /// Fan-out width within one request: the workers its independent
    /// explorations (execution trees, sweep candidates) are spread
    /// across; each exploration runs on one thread. Clamped by the
    /// server.
    pub threads: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        let d = wfc_explorer::ExploreOptions::default();
        QueryOptions {
            max_configs: usize::try_from(d.budget.configs).unwrap_or(usize::MAX),
            max_depth: usize::try_from(d.budget.depth).unwrap_or(usize::MAX),
            threads: 1,
        }
    }
}

impl QueryOptions {
    /// This configuration with a `max_configs` budget.
    pub fn with_max_configs(mut self, max_configs: usize) -> Self {
        self.max_configs = max_configs;
        self
    }

    /// This configuration with a `max_depth` budget.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// This configuration with a fan-out width of `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("max_configs", Json::U64(self.max_configs as u64)),
            ("max_depth", Json::U64(self.max_depth as u64)),
            ("threads", Json::U64(self.threads as u64)),
        ])
    }

    fn from_json(doc: &Json) -> Result<QueryOptions, WireError> {
        let field = |name: &str, default: usize| -> Result<usize, WireError> {
            match doc.get(name) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
                    .ok_or_else(|| proto_err(format!("options.{name} is not an integer"))),
            }
        };
        let d = QueryOptions::default();
        Ok(QueryOptions {
            max_configs: field("max_configs", d.max_configs)?,
            max_depth: field("max_depth", d.max_depth)?,
            threads: field("threads", d.threads)?,
        })
    }
}

/// One analysis request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id echoed by the response.
    pub id: u64,
    /// Which analysis to run.
    pub kind: QueryKind,
    /// The type, in the `wfc-spec` text format.
    pub type_text: String,
    /// Exploration budgets.
    pub options: QueryOptions,
}

impl Request {
    /// The request as a wire value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("proto", Json::Str(PROTO.to_owned())),
            ("id", Json::U64(self.id)),
            ("kind", Json::Str(self.kind.as_str().to_owned())),
            ("type", Json::Str(self.type_text.clone())),
            ("options", self.options.to_json()),
        ])
    }

    /// Parses a wire value.
    pub fn from_json(doc: &Json) -> Result<Request, WireError> {
        check_proto(doc)?;
        let id = doc
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| proto_err("request missing integer `id`"))?;
        let kind_name = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| proto_err("request missing string `kind`"))?;
        let kind = QueryKind::parse(kind_name)
            .ok_or_else(|| proto_err(format!("unknown query kind `{kind_name}`")))?;
        let type_text = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| proto_err("request missing string `type`"))?
            .to_owned();
        let options = match doc.get("options") {
            None => QueryOptions::default(),
            Some(o) => QueryOptions::from_json(o)?,
        };
        Ok(Request {
            id,
            kind,
            type_text,
            options,
        })
    }
}

/// The stable error codes a `wfc-svc/v1` error response may carry.
pub const ERROR_CODES: [&str; 7] = [
    "parse-error",
    "unsupported",
    "analysis-error",
    "budget-exceeded",
    "deadline-exceeded",
    "cancelled",
    "bad-request",
];

/// Validates a captured `wfc-svc/v1` **response** document (as saved by
/// smoke scripts or `wfc query`) against the wire schema. Beyond what
/// [`Response::from_json`] enforces structurally, error responses must
/// use a code from [`ERROR_CODES`], and `budget-exceeded`/
/// `deadline-exceeded` errors must carry the full `Exhausted` shape:
/// `budget`, `used`, a known `resource` slug, and `partial` progress.
/// `wfc-report --check` dispatches frames with this `proto` here.
pub fn validate_response_json(doc: &Json) -> Result<(), String> {
    let response = Response::from_json(doc).map_err(|e| e.to_string())?;
    let Response::Error {
        code,
        budget,
        used,
        resource,
        partial,
        ..
    } = &response
    else {
        return Ok(());
    };
    if !ERROR_CODES.contains(&code.as_str()) {
        return Err(format!("unknown error code {code:?}"));
    }
    if code == "budget-exceeded" || code == "deadline-exceeded" {
        if budget.is_none() || used.is_none() {
            return Err(format!("{code} errors must carry `budget` and `used`"));
        }
        let slug = resource
            .as_deref()
            .ok_or_else(|| format!("{code} errors must carry `resource`"))?;
        if !["configs", "depth", "schedules", "steps", "wall-ms"].contains(&slug) {
            return Err(format!("unknown resource slug {slug:?}"));
        }
        if code == "deadline-exceeded" && slug != "wall-ms" {
            return Err(format!("deadline-exceeded must be wall-ms, got {slug:?}"));
        }
        if partial.is_none() {
            return Err(format!("{code} errors must carry `partial` progress"));
        }
    }
    Ok(())
}

/// Renders a [`Progress`] snapshot as the wire's `partial` object. All
/// four counters are always present (deterministic key set), zeros
/// included, so clients need no per-field probing.
pub fn progress_to_json(p: Progress) -> Json {
    Json::obj(vec![
        ("configs", Json::U64(p.configs)),
        ("depth", Json::U64(p.depth)),
        ("schedules", Json::U64(p.schedules)),
        ("steps", Json::U64(p.steps)),
    ])
}

/// Parses a wire `partial` object back into a [`Progress`] snapshot.
/// Absent counters read as zero; a counter that is present but not an
/// integer is a protocol error.
pub fn progress_from_json(doc: &Json) -> Result<Progress, WireError> {
    let field = |name: &str| -> Result<u64, WireError> {
        match doc.get(name) {
            None => Ok(0),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| proto_err(format!("partial.{name} is not an integer"))),
        }
    };
    Ok(Progress {
        configs: field("configs")?,
        depth: field("depth")?,
        schedules: field("schedules")?,
        steps: field("steps")?,
    })
}

fn check_proto(doc: &Json) -> Result<(), WireError> {
    let proto = doc
        .get("proto")
        .and_then(Json::as_str)
        .ok_or_else(|| proto_err("frame missing `proto`"))?;
    if proto != PROTO {
        return Err(proto_err(format!(
            "peer speaks `{proto}`, this side speaks `{PROTO}`"
        )));
    }
    Ok(())
}

/// One analysis response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The analysis succeeded.
    Ok {
        /// Echo of the request id.
        id: u64,
        /// `true` if the result came from the cache (memory, disk, or a
        /// coalesced in-flight computation) rather than fresh work.
        cached: bool,
        /// The canonical result document for the query kind.
        result: Json,
    },
    /// The analysis failed.
    Error {
        /// Echo of the request id.
        id: u64,
        /// A stable machine-readable code (`parse-error`,
        /// `unsupported`, `budget-exceeded`, `deadline-exceeded`,
        /// `cancelled`, `analysis-error`, `bad-request`).
        code: String,
        /// Human-readable description.
        message: String,
        /// For `budget-exceeded`/`deadline-exceeded`: the configured
        /// budget (the wall allowance in milliseconds for deadlines).
        budget: Option<u64>,
        /// For `budget-exceeded`/`deadline-exceeded`: the observed
        /// consumption when the limit fired (same semantics as
        /// [`control::Exhausted`](wfc_spec::control::Exhausted)).
        used: Option<u64>,
        /// For `budget-exceeded`/`deadline-exceeded`: which resource
        /// ran out, as its wire slug (`configs`, `depth`, `schedules`,
        /// `steps`, `wall-ms`).
        resource: Option<String>,
        /// For `budget-exceeded`/`deadline-exceeded`/`cancelled`: the
        /// monotonic progress counters at the moment the control plane
        /// stopped the run — enough for a client to see a preempted
        /// query did real work and to resize its budgets.
        partial: Option<Progress>,
    },
    /// Backpressure: the bounded request queue is full. The request was
    /// **not** enqueued; the client may retry later.
    Busy {
        /// Echo of the request id.
        id: u64,
        /// The observed queue depth at rejection.
        used: u64,
        /// The configured queue capacity.
        budget: u64,
    },
}

impl Response {
    /// The response's request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok { id, .. } | Response::Error { id, .. } | Response::Busy { id, .. } => *id,
        }
    }

    /// The response as a wire value.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Ok { id, cached, result } => Json::obj(vec![
                ("proto", Json::Str(PROTO.to_owned())),
                ("id", Json::U64(*id)),
                ("status", Json::Str("ok".to_owned())),
                ("cached", Json::Bool(*cached)),
                ("result", result.clone()),
            ]),
            Response::Error {
                id,
                code,
                message,
                budget,
                used,
                resource,
                partial,
            } => {
                let mut fields = vec![
                    ("proto", Json::Str(PROTO.to_owned())),
                    ("id", Json::U64(*id)),
                    ("status", Json::Str("error".to_owned())),
                    ("code", Json::Str(code.clone())),
                    ("message", Json::Str(message.clone())),
                ];
                if let Some(b) = budget {
                    fields.push(("budget", Json::U64(*b)));
                }
                if let Some(u) = used {
                    fields.push(("used", Json::U64(*u)));
                }
                if let Some(r) = resource {
                    fields.push(("resource", Json::Str(r.clone())));
                }
                if let Some(p) = partial {
                    fields.push(("partial", progress_to_json(*p)));
                }
                Json::obj(fields)
            }
            Response::Busy { id, used, budget } => Json::obj(vec![
                ("proto", Json::Str(PROTO.to_owned())),
                ("id", Json::U64(*id)),
                ("status", Json::Str("busy".to_owned())),
                ("used", Json::U64(*used)),
                ("budget", Json::U64(*budget)),
            ]),
        }
    }

    /// Parses a wire value.
    pub fn from_json(doc: &Json) -> Result<Response, WireError> {
        check_proto(doc)?;
        let id = doc
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| proto_err("response missing integer `id`"))?;
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| proto_err("response missing string `status`"))?;
        match status {
            "ok" => Ok(Response::Ok {
                id,
                cached: matches!(doc.get("cached"), Some(Json::Bool(true))),
                result: doc
                    .get("result")
                    .cloned()
                    .ok_or_else(|| proto_err("ok response missing `result`"))?,
            }),
            "error" => Ok(Response::Error {
                id,
                code: doc
                    .get("code")
                    .and_then(Json::as_str)
                    .ok_or_else(|| proto_err("error response missing `code`"))?
                    .to_owned(),
                message: doc
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                budget: doc.get("budget").and_then(Json::as_u64),
                used: doc.get("used").and_then(Json::as_u64),
                resource: doc
                    .get("resource")
                    .and_then(Json::as_str)
                    .map(str::to_owned),
                partial: doc.get("partial").map(progress_from_json).transpose()?,
            }),
            "busy" => Ok(Response::Busy {
                id,
                used: doc
                    .get("used")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| proto_err("busy response missing `used`"))?,
                budget: doc
                    .get("budget")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| proto_err("busy response missing `budget`"))?,
            }),
            other => Err(proto_err(format!("unknown response status `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let req = Request {
            id: 7,
            kind: QueryKind::AccessBounds,
            type_text: "type t ports 2\n".to_owned(),
            options: QueryOptions::default().with_max_configs(123),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json()).unwrap();
        // A second frame in the same stream.
        let resp = Response::Busy {
            id: 7,
            used: 9,
            budget: 8,
        };
        write_frame(&mut buf, &resp.to_json()).unwrap();

        let mut cursor = &buf[..];
        let got = Request::from_json(&read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        assert_eq!(got, req);
        let got = Response::from_json(&read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        assert_eq!(got, resp);
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn frame_buffer_decodes_across_arbitrary_read_boundaries() {
        let first = Request {
            id: 1,
            kind: QueryKind::Classify,
            type_text: "type t ports 2\n".to_owned(),
            options: QueryOptions::default(),
        };
        let second = Request {
            id: 2,
            kind: QueryKind::Witness,
            type_text: "type u ports 3\n".to_owned(),
            options: QueryOptions::default().with_max_depth(9),
        };
        let mut stream = Vec::new();
        write_frame(&mut stream, &first.to_json()).unwrap();
        write_frame(&mut stream, &second.to_json()).unwrap();

        // Feed the stream one byte at a time: no frame may surface
        // early, and both must surface exactly once, in order.
        let mut fb = FrameBuffer::new();
        let mut decoded = Vec::new();
        for (i, byte) in stream.iter().enumerate() {
            fb.extend_from_slice(std::slice::from_ref(byte));
            while let Some(doc) = fb.next_frame().unwrap() {
                decoded.push((i, Request::from_json(&doc).unwrap()));
            }
        }
        assert_eq!(
            decoded.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            vec![first, second]
        );
        // Each frame completed only on its final byte.
        assert_eq!(decoded[1].0, stream.len() - 1);
        assert_eq!(fb.buffered(), 0, "fully drained");

        // An oversized header is a protocol error, not an allocation.
        let mut fb = FrameBuffer::new();
        fb.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(matches!(fb.next_frame(), Err(WireError::Protocol(_))));
    }

    #[test]
    fn every_query_kind_round_trips_by_name() {
        for kind in QueryKind::ALL {
            assert_eq!(QueryKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(QueryKind::parse("frobnicate"), None);
    }

    #[test]
    fn responses_round_trip_with_budget_fields() {
        let cases = vec![
            Response::Ok {
                id: 1,
                cached: true,
                result: Json::obj(vec![("D", Json::U64(5))]),
            },
            Response::Error {
                id: 2,
                code: "budget-exceeded".to_owned(),
                message: "exploration exceeded the budget".to_owned(),
                budget: Some(100),
                used: Some(135),
                resource: Some("configs".to_owned()),
                partial: Some(Progress {
                    configs: 135,
                    depth: 4,
                    schedules: 0,
                    steps: 0,
                }),
            },
            Response::Error {
                id: 3,
                code: "parse-error".to_owned(),
                message: "line 2".to_owned(),
                budget: None,
                used: None,
                resource: None,
                partial: None,
            },
            Response::Error {
                id: 5,
                code: "deadline-exceeded".to_owned(),
                message: "exploration exceeded the deadline of 50 ms".to_owned(),
                budget: Some(50),
                used: Some(61),
                resource: Some("wall-ms".to_owned()),
                partial: Some(Progress {
                    schedules: 1,
                    steps: 17,
                    ..Progress::default()
                }),
            },
            Response::Busy {
                id: 4,
                used: 64,
                budget: 64,
            },
        ];
        for r in cases {
            let back = Response::from_json(&r.to_json()).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.id(), r.id());
        }
    }

    #[test]
    fn response_validator_enforces_the_error_schema() {
        let ok = Response::Ok {
            id: 1,
            cached: false,
            result: Json::obj(vec![("D", Json::U64(5))]),
        };
        assert!(validate_response_json(&ok.to_json()).is_ok());

        let full = Response::Error {
            id: 2,
            code: "deadline-exceeded".to_owned(),
            message: "too slow".to_owned(),
            budget: Some(50),
            used: Some(61),
            resource: Some("wall-ms".to_owned()),
            partial: Some(Progress::default()),
        };
        assert!(validate_response_json(&full.to_json()).is_ok());

        // A deadline error without its quantities fails the check.
        let mut stripped = full.clone();
        if let Response::Error {
            resource, partial, ..
        } = &mut stripped
        {
            *resource = None;
            *partial = None;
        }
        assert!(validate_response_json(&stripped.to_json()).is_err());

        // Unknown codes and mismatched resources fail too.
        let mut bad_code = full.clone();
        if let Response::Error { code, .. } = &mut bad_code {
            *code = "out-of-cheese".to_owned();
        }
        assert!(validate_response_json(&bad_code.to_json()).is_err());
        let mut bad_resource = full;
        if let Response::Error { resource, .. } = &mut bad_resource {
            *resource = Some("configs".to_owned());
        }
        assert!(validate_response_json(&bad_resource.to_json()).is_err());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Oversized declared length.
        let mut bad = Vec::new();
        bad.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::Protocol(_))
        ));
        // Truncated payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&10u32.to_be_bytes());
        bad.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::Protocol(_))
        ));
        // Payload that is not JSON.
        let mut bad = Vec::new();
        bad.extend_from_slice(&3u32.to_be_bytes());
        bad.extend_from_slice(b"}{!");
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::Protocol(_))
        ));
        // Wrong protocol version.
        let doc = Json::obj(vec![
            ("proto", Json::Str("wfc-svc/v0".to_owned())),
            ("id", Json::U64(1)),
        ]);
        assert!(Request::from_json(&doc).is_err());
    }
}
