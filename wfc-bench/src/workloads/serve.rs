//! The served workloads: the shipped server, started in-process with
//! `wfc_service::serve(ServeConfig::default())` (two workers, default
//! batching, memory cache only), driven over loopback through one
//! connection by at most two generator threads.
//!
//! The driver is written here rather than reusing `wfc_service::loadgen`:
//! that generator only sends cache-warmed traffic, spends two threads
//! per connection, and stamps open-loop latency at the actual send, so
//! a late sender hides its own lateness. Here an open-loop request is
//! timed from the moment it was *due*, and the lateness is reported.
//!
//! Every hot response is checked to be a cache hit, and a seeded
//! 1-in-64 sample is compared byte for byte with `run_query_text`.
//! Every cold response must be computed (uncached), pass, and carry
//! the same query results as `run_query_text` on the same scenario.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wfc_obs::json::Json;
use wfc_obs::report::RunReport;
use wfc_service::wire::{read_frame, write_frame, WireError};
use wfc_service::{
    run_query_text, serve, QueryKind, QueryOptions, Request, Response, ServeConfig, ServerHandle,
};
use wfc_spec::prng::SplitMix64;
use wfc_spec::text::format_type;

use super::{overhead_pct, Params, Workload, SETUP_REPS};
use crate::alloc;
use crate::metrics::{median, percentile, LatencyHist, Outcome};
use crate::trace::{self, Harvest};

/// Requests kept in flight by the closed loop.
const PIPELINE: usize = 8;
/// Open-loop injection rate, requests per second. Every cold request
/// adds an entry to the server's memory cache (1024 entries in 8 LRU
/// shards by default); at this rate a 30 s window inserts about 630,
/// so no shard fills and no warmed hot entry is ever evicted. Windows
/// much longer than 40 s would start evicting them.
const OPEN_RATE: f64 = 28.0;
/// One open-loop request in this many is a hot cache hit; the rest are
/// cold misses, so the median request is a miss.
const HOT_EVERY: u64 = 4;
/// One hot response in this many is compared byte for byte.
const SAMPLE_EVERY: u64 = 64;
/// Cold budgets start here, far above the few thousand configurations
/// the cold scenario explores, so they never bind.
const COLD_BUDGET_FLOOR: u64 = 1_000_000_000;
/// Hot sched specs: default DFS on the fixtures that explore fast.
const HOT_SCHED: [&str; 6] = ["srsw", "t4", "ring", "triple", "cell", "repl"];
/// How long a closed-loop read may block before the run gives up.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Open-loop receiver poll interval while waiting for the sender.
const POLL: Duration = Duration::from_millis(20);
/// How long after the window the open loop waits for stragglers.
const GRACE: Duration = Duration::from_secs(5);

/// One hot-set query with its oracle document.
struct HotQuery {
    kind: QueryKind,
    /// Type text, sched spec, or scenario file.
    text: String,
    /// `run_query_text`'s rendering of the result.
    expected: String,
}

/// Everything a served window sends, with its oracle.
struct Queries {
    /// The warmed hot set.
    hot: Vec<HotQuery>,
    /// The rendered `queries` of the cold scenario, run directly.
    cold: String,
}

/// The checked-in scenario corpus, sorted by file name.
fn scenario_texts() -> Result<Vec<String>, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read the scenario corpus {dir}: {e}"))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// The hot set: every query in the candidate list that succeeds, with
/// its direct `run_query_text` document as the oracle. The candidates
/// are all five type queries on every zoo type, the scenario corpus,
/// and DFS sched specs; what succeeds is classify + witness on the
/// deterministic types and the exploration queries on the types with a
/// registered protocol (72 queries). `smoke` keeps the cheap part.
///
/// # Errors
///
/// The scenario corpus cannot be read.
fn hot_set(smoke: bool) -> Result<Vec<HotQuery>, String> {
    let mut zoo = wfc_spec::canonical::deterministic_zoo(2);
    zoo.push(wfc_spec::canonical::one_use_bit());
    let kinds: &[QueryKind] = if smoke {
        &[QueryKind::Classify, QueryKind::Witness]
    } else {
        &[
            QueryKind::Classify,
            QueryKind::Witness,
            QueryKind::AccessBounds,
            QueryKind::Theorem5,
            QueryKind::VerifyConsensus,
        ]
    };
    let mut candidates = Vec::new();
    for ty in &zoo {
        let text = format_type(ty);
        candidates.extend(kinds.iter().map(|&k| (k, text.clone())));
    }
    let sched = if smoke {
        &HOT_SCHED[..2]
    } else {
        &HOT_SCHED[..]
    };
    candidates.extend(sched.iter().map(|t| (QueryKind::Sched, (*t).to_owned())));
    let scenarios = scenario_texts()?;
    let keep = if smoke { 1 } else { scenarios.len() };
    candidates.extend(
        scenarios
            .into_iter()
            .take(keep)
            .map(|s| (QueryKind::Scenario, s)),
    );
    Ok(candidates
        .into_iter()
        .filter_map(|(kind, text)| {
            let doc = run_query_text(kind, &text, &QueryOptions::default()).ok()?;
            Some(HotQuery {
                kind,
                text,
                expected: doc.render(),
            })
        })
        .collect())
}

/// The bench's single connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(server: &ServerHandle) -> io::Result<Conn> {
        let stream = TcpStream::connect(server.addr())?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: BufWriter::with_capacity(1 << 16, stream),
        })
    }

    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(Some(timeout))
    }
}

/// Per-window measurements.
#[derive(Default)]
struct Window {
    elapsed: Duration,
    latency: LatencyHist,
    hit: LatencyHist,
    miss: LatencyHist,
    /// Completions per whole second of the window.
    per_second: Vec<u64>,
    late_ms: Vec<f64>,
    backlog_end: u64,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    request_bytes: u64,
    response_bytes: u64,
    /// What `wfc-obs` recorded over a traced window.
    harvest: Harvest,
}

impl Window {
    /// Records one completed request `at` into the window.
    fn complete(&mut self, at: Duration, latency: Duration, hit: bool) {
        self.latency.record(latency);
        if hit {
            self.hit.record(latency);
        } else {
            self.miss.record(latency);
        }
        let second = at.as_secs() as usize;
        if self.per_second.len() <= second {
            self.per_second.resize(second + 1, 0);
        }
        self.per_second[second] += 1;
    }

    /// Completions per second. A closed loop reports the median over
    /// the window's whole seconds, so a transient stall of the shared
    /// host moves it less than it moves the mean. An open loop's
    /// seconds each complete what the schedule offered unless a backlog
    /// builds, so it reports completions over the whole window, drain
    /// included; so do windows under 3 s.
    fn throughput(&self, closed: bool) -> f64 {
        let whole = self.elapsed.as_secs_f64() as usize;
        if !closed || whole < 3 {
            return self.latency.len() as f64 / self.elapsed.as_secs_f64();
        }
        let per: Vec<f64> = self.per_second[..whole.min(self.per_second.len())]
            .iter()
            .map(|&c| c as f64)
            .collect();
        median(&per)
    }

    fn absorb(&mut self, other: Window) {
        self.late_ms.extend(other.late_ms);
        self.backlog_end = other.backlog_end;
        self.encode_ns.extend(other.encode_ns);
        self.request_bytes += other.request_bytes;
    }
}

/// Everything derived from the seed: which query each request carries,
/// which responses are sampled, and the cold requests' budgets.
struct Gen {
    rng: SplitMix64,
    cold_base: u64,
    cold_issued: u64,
    next_id: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        let mut rng = SplitMix64::new(seed);
        // Cold budgets never repeat within a run, so every cold request
        // is a cache miss.
        let cold_base = COLD_BUDGET_FLOOR + (rng.next_u64() >> 34);
        Gen {
            rng,
            cold_base,
            cold_issued: 0,
            next_id: 1,
        }
    }

    fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// A uniform hot query and whether its response is sampled.
    fn hot(&mut self, len: usize) -> (usize, bool) {
        let idx = self.rng.gen_range(0, len);
        (idx, self.rng.next_u64().is_multiple_of(SAMPLE_EVERY))
    }

    /// The next never-reused cold budget.
    fn cold(&mut self) -> u64 {
        self.cold_issued += 1;
        self.cold_base + self.cold_issued
    }
}

/// A cold request: the Theorem 5 and consensus-verification queries of
/// the corpus's `cas-announce` scenario (the three-process
/// `cas_announce` protocol, about 7 ms of exploration) with a `budget
/// configs=N` line. The budget never binds, but it is part of the
/// canonical text and so of the cache key: every `N` is a fresh miss
/// doing the same work. The scenario's separate `access-bounds` query
/// is left out because Theorem 5 already runs `access_bounds`, and each
/// run emits a report that a traced window must read before the next
/// one overwrites it: one per miss can be read after its response.
///
/// The misses are explorer work rather than `wfc-sched` runs because
/// the checker hands control between OS threads at every shared access,
/// so a sched computation's time follows the host's wake-up latency: a
/// PCT mix with the same seed varied by 20 % from run to run.
fn cold_text(configs: u64) -> String {
    format!(
        "scenario cas-announce\ntype builtin cas\nprotocol cas_announce\n\
         budget configs={configs}\n\
         query theorem5 expect=holds\nquery verify-consensus expect=holds\n"
    )
}

/// The cold oracle: the rendered `queries` of the cold scenario, run
/// directly. Budgets that never bind leave them unchanged.
///
/// # Errors
///
/// The scenario does not run.
fn cold_oracle() -> Result<String, String> {
    let doc = run_query_text(
        QueryKind::Scenario,
        &cold_text(COLD_BUDGET_FLOOR),
        &QueryOptions::default(),
    )
    .map_err(|e| format!("the cold scenario does not run: {e}"))?;
    doc.get("queries")
        .map(Json::render)
        .ok_or_else(|| "the cold scenario has no queries".to_owned())
}

/// `Request::to_json` + `write_frame`: the wire layer's encode half.
fn encode(
    writer: &mut BufWriter<TcpStream>,
    request: &Request,
    traced: bool,
    encode_ns: &mut Vec<f64>,
    bytes: &mut u64,
) -> Result<(), WireError> {
    let started = traced.then(Instant::now);
    let doc = {
        let _g = trace::call_span(traced, "wire::encode");
        let doc = request.to_json();
        write_frame(writer, &doc)?;
        doc
    };
    if let Some(t) = started {
        encode_ns.push(t.elapsed().as_nanos() as f64);
        *bytes += doc.render().len() as u64;
    }
    Ok(())
}

/// `read_frame` + `Response::from_json`: the wire layer's decode half.
/// Waiting for the first byte is not part of the timed decode.
fn decode(
    reader: &mut BufReader<TcpStream>,
    traced: bool,
    w: &mut Window,
) -> Result<Response, WireError> {
    if reader.fill_buf()?.is_empty() {
        return Err(WireError::Protocol(
            "server closed the connection".to_owned(),
        ));
    }
    let started = traced.then(Instant::now);
    let (doc, response) = {
        let _g = trace::call_span(traced, "wire::decode");
        let doc = read_frame(reader)?
            .ok_or_else(|| WireError::Protocol("server closed the connection".to_owned()))?;
        let response = Response::from_json(&doc)?;
        (doc, response)
    };
    if let Some(t) = started {
        w.decode_ns.push(t.elapsed().as_nanos() as f64);
        w.response_bytes += doc.render().len() as u64;
    }
    Ok(response)
}

fn is_idle(e: &WireError) -> bool {
    matches!(e, WireError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
}

/// What a response must be.
enum Expect<'a> {
    Hot { query: &'a HotQuery, sample: bool },
    Cold { queries: &'a str },
}

fn check(out: &mut Outcome, response: &Response, expect: &Expect<'_>) {
    let (cached, result) = match response {
        Response::Ok { cached, result, .. } => (*cached, result),
        Response::Busy { used, budget, .. } => {
            return out.fail(format!("busy: queue {used}/{budget}"));
        }
        Response::Error { code, message, .. } => {
            return out.fail(format!("error {code}: {message}"));
        }
    };
    match expect {
        Expect::Hot { query, sample } => {
            if !cached {
                out.fail(format!("{} query was not a cache hit", query.kind));
            } else if *sample && result.render() != query.expected {
                out.fail(format!(
                    "{} query: served bytes differ from run_query_text",
                    query.kind
                ));
            }
        }
        Expect::Cold { queries } => {
            let pass = result.get("pass") == Some(&Json::Bool(true));
            let same = result.get("queries").map(Json::render).as_deref() == Some(*queries);
            if cached || !pass || !same {
                out.fail(format!(
                    "cold scenario answer: cached {cached}, pass {pass}, same results {same}"
                ));
            }
        }
    }
}

fn receive_warm(conn: &mut Conn, w: &mut Window) -> Result<(), String> {
    match decode(&mut conn.reader, false, w) {
        Ok(Response::Ok { .. }) => Ok(()),
        Ok(other) => Err(format!("warm-up answer: {other:?}")),
        Err(e) => Err(format!("warm-up receive: {e}")),
    }
}

/// Starts a server and warms every hot query into its memory cache.
fn start_and_warm(hot: &[HotQuery]) -> Result<(ServerHandle, Conn), String> {
    let server = serve(ServeConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let warmed = (|| -> Result<Conn, String> {
        let mut conn = Conn::connect(&server).map_err(|e| format!("connect: {e}"))?;
        conn.set_read_timeout(READ_TIMEOUT)
            .map_err(|e| format!("socket: {e}"))?;
        // Keep at most PIPELINE requests in flight, well inside the
        // server's queue capacity, so warm-up never meets `busy`.
        let mut w = Window::default();
        for (i, q) in hot.iter().enumerate() {
            if i >= PIPELINE {
                receive_warm(&mut conn, &mut w)?;
            }
            let request = Request {
                id: i as u64 + 1,
                kind: q.kind,
                type_text: q.text.clone(),
                options: QueryOptions::default(),
            };
            encode(
                &mut conn.writer,
                &request,
                false,
                &mut w.encode_ns,
                &mut w.request_bytes,
            )
            .map_err(|e| format!("warm-up send: {e}"))?;
        }
        for _ in 0..hot.len().min(PIPELINE) {
            receive_warm(&mut conn, &mut w)?;
        }
        Ok(conn)
    })();
    match warmed {
        Ok(conn) => Ok((server, conn)),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// Closed loop: keep [`PIPELINE`] hot requests in flight, replacing
/// each as it completes, until `seconds` have passed; then drain.
fn closed_loop(
    conn: &mut Conn,
    hot: &[HotQuery],
    gen: &mut Gen,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Window {
    let mut w = Window::default();
    let mut inflight: HashMap<u64, (Instant, usize, bool)> = HashMap::with_capacity(2 * PIPELINE);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut send =
        |conn: &mut Conn, w: &mut Window, out: &mut Outcome, inflight: &mut HashMap<_, _>| {
            let (idx, sample) = gen.hot(hot.len());
            let request = Request {
                id: gen.id(),
                kind: hot[idx].kind,
                type_text: hot[idx].text.clone(),
                options: QueryOptions::default(),
            };
            let sent = Instant::now();
            out.attempted += 1;
            match encode(
                &mut conn.writer,
                &request,
                traced,
                &mut w.encode_ns,
                &mut w.request_bytes,
            ) {
                Ok(()) => {
                    inflight.insert(request.id, (sent, idx, sample));
                    true
                }
                Err(e) => {
                    out.fail(format!("send: {e}"));
                    false
                }
            }
        };
    for _ in 0..PIPELINE {
        if !send(conn, &mut w, out, &mut inflight) {
            break;
        }
    }
    while !inflight.is_empty() {
        let response = match decode(&mut conn.reader, traced, &mut w) {
            Ok(r) => r,
            Err(e) => {
                for _ in 0..inflight.len() {
                    out.fail(format!("no answer: {e}"));
                }
                break;
            }
        };
        let now = Instant::now();
        let Some((sent, idx, sample)) = inflight.remove(&response.id()) else {
            out.fail(format!("answer to unknown id {}", response.id()));
            continue;
        };
        w.complete(now - started, now - sent, true);
        check(
            out,
            &response,
            &Expect::Hot {
                query: &hot[idx],
                sample,
            },
        );
        if now < deadline && !send(conn, &mut w, out, &mut inflight) {
            break;
        }
    }
    w.elapsed = started.elapsed();
    w
}

/// Sleeps until shortly before `due`, then spins the rest. A plain
/// sleep overshoots by the kernel's timer slack (50 µs by default) plus
/// the wake-up, and every microsecond of that lands in the due-time
/// latency of the request; the spin costs about 2 % of one CPU at
/// [`OPEN_RATE`].
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One in-flight open-loop request.
struct Pending {
    due: Instant,
    hot: Option<(usize, bool)>,
}

/// Open loop: one sender thread injects at [`OPEN_RATE`] on a fixed
/// schedule regardless of completions; this thread receives. Latency
/// runs from each request's due time.
fn open_loop(
    conn: &mut Conn,
    Queries { hot, cold }: &Queries,
    gen: &mut Gen,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Window {
    let total = (OPEN_RATE * seconds).round() as u64;
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let pending: Mutex<HashMap<u64, Pending>> = Mutex::new(HashMap::new());
    let sender_done = AtomicBool::new(false);
    let started = Instant::now();
    let give_up = started + Duration::from_secs_f64(seconds) + GRACE;
    let mut w = Window::default();
    if let Err(e) = conn.set_read_timeout(POLL) {
        out.attempted += 1;
        out.fail(format!("socket: {e}"));
        return w;
    }
    let Conn { reader, writer } = conn;
    let (sent, send_errors) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut tx = Window::default();
            let mut errors = Vec::new();
            let mut sent = 0u64;
            for k in 0..total {
                let due = started + interval.mul_f64(k as f64);
                wait_until(due);
                let at = Instant::now();
                tx.late_ms
                    .push(at.saturating_duration_since(due).as_nanos() as f64 / 1e6);
                let (text, kind, entry) = if gen.rng.next_u64().is_multiple_of(HOT_EVERY) {
                    let (idx, sample) = gen.hot(hot.len());
                    (hot[idx].text.clone(), hot[idx].kind, Some((idx, sample)))
                } else {
                    (cold_text(gen.cold()), QueryKind::Scenario, None)
                };
                let request = Request {
                    id: gen.id(),
                    kind,
                    type_text: text,
                    options: QueryOptions::default(),
                };
                pending
                    .lock()
                    .expect("pending map lock")
                    .insert(request.id, Pending { due, hot: entry });
                sent += 1;
                if let Err(e) = encode(
                    writer,
                    &request,
                    traced,
                    &mut tx.encode_ns,
                    &mut tx.request_bytes,
                ) {
                    pending
                        .lock()
                        .expect("pending map lock")
                        .remove(&request.id);
                    errors.push(format!("send: {e}"));
                    break;
                }
            }
            tx.backlog_end = pending.lock().expect("pending map lock").len() as u64;
            sender_done.store(true, Ordering::Release);
            (sent, errors, tx)
        });

        loop {
            let done = sender_done.load(Ordering::Acquire);
            if (done && pending.lock().expect("pending map lock").is_empty())
                || Instant::now() >= give_up
            {
                break;
            }
            let response = match decode(reader, traced, &mut w) {
                Ok(r) => r,
                Err(e) if is_idle(&e) => continue,
                Err(e) => {
                    // Shut the socket so the sender's next write fails
                    // fast; what is still pending is counted below.
                    let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
                    out.fail(format!("receive: {e}"));
                    break;
                }
            };
            let now = Instant::now();
            let Some(p) = pending
                .lock()
                .expect("pending map lock")
                .remove(&response.id())
            else {
                out.fail(format!("answer to unknown id {}", response.id()));
                continue;
            };
            w.complete(
                now - started,
                now.saturating_duration_since(p.due),
                p.hot.is_some(),
            );
            match p.hot {
                Some((idx, sample)) => {
                    check(
                        out,
                        &response,
                        &Expect::Hot {
                            query: &hot[idx],
                            sample,
                        },
                    );
                }
                None => {
                    check(out, &response, &Expect::Cold { queries: cold });
                    // The miss ran `access_bounds` once, which emitted
                    // its report and reset the registry; read it before
                    // the next miss overwrites it.
                    if traced {
                        w.harvest.absorb();
                    }
                }
            }
        }
        let (sent, errors, tx) = sender.join().expect("sender thread panicked");
        w.absorb(tx);
        (sent, errors)
    });
    let unanswered = pending.lock().expect("pending map lock").len();
    for _ in 0..unanswered {
        out.fail("no answer within the grace period");
    }
    out.attempted += sent;
    for e in send_errors {
        out.fail(e);
    }
    w.elapsed = started.elapsed();
    w
}

fn drive(
    workload: Workload,
    conn: &mut Conn,
    queries: &Queries,
    gen: &mut Gen,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Window {
    if let Err(e) = conn.set_read_timeout(READ_TIMEOUT) {
        out.attempted += 1;
        out.fail(format!("socket: {e}"));
        return Window::default();
    }
    match workload {
        Workload::ServeHot => closed_loop(conn, &queries.hot, gen, seconds, traced, out),
        _ => open_loop(conn, queries, gen, seconds, traced, out),
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Runs a served workload: set-up (server start plus hot-set warm-up,
/// [`SETUP_REPS`] times on fresh servers), then the window.
pub fn run(workload: Workload, params: &Params, out: &mut Outcome) -> Option<RunReport> {
    let queries = match hot_set(params.smoke).and_then(|hot| {
        if hot.is_empty() {
            return Err("the hot set is empty".to_owned());
        }
        Ok(Queries {
            hot,
            cold: cold_oracle()?,
        })
    }) {
        Ok(queries) => queries,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return None;
        }
    };
    let hot = &queries.hot;
    let reps = if params.traced || params.smoke {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_times = Vec::new();
    let mut live = None;
    for _ in 0..reps {
        if let Some((server, conn)) = live.take() {
            drop(conn);
            ServerHandle::shutdown(server);
        }
        let t = Instant::now();
        match start_and_warm(hot) {
            Ok(started) => live = Some(started),
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                return None;
            }
        }
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let (server, mut conn) = live.expect("at least one set-up");
    let mut gen = Gen::new(params.seed);

    let report = if params.traced {
        Some(traced_run(
            workload, params, &mut conn, &queries, &mut gen, out,
        ))
    } else {
        out.set("setup_s", median(&setup_times), reps as u64);
        let w = drive(
            workload,
            &mut conn,
            &queries,
            &mut gen,
            params.seconds,
            false,
            out,
        );
        end_to_end(out, &w, workload == Workload::ServeHot);
        out.notes.push(format!("hot set {} queries", hot.len()));
        None
    };
    drop(conn);
    server.shutdown();
    report
}

fn end_to_end(out: &mut Outcome, w: &Window, closed: bool) {
    let n = w.latency.len();
    out.set("throughput_per_s", w.throughput(closed), n);
    out.set("latency_p50_ms", w.latency.percentile_us(50.0) / 1000.0, n);
    // The tail is a layer metric, not an end-to-end one (README,
    // "Choices the noise forced"); it is printed for reference.
    out.notes.push(format!(
        "latency_p99_ms {:.3} (n={n})",
        w.latency.percentile_us(99.0) / 1000.0
    ));
    if !w.miss.is_empty() {
        let late = sorted(w.late_ms.clone());
        out.notes.push(format!(
            "hit_p99_us {:.1} (n={}); miss_p50_us {:.1} miss_p99_us {:.1} (n={}); \
             late_ms_p50 {:.3} late_ms_p99 {:.3} late_ms_max {:.3}; backlog_end {}",
            w.hit.percentile_us(99.0),
            w.hit.len(),
            w.miss.percentile_us(50.0),
            w.miss.percentile_us(99.0),
            w.miss.len(),
            percentile(&late, 50.0),
            percentile(&late, 99.0),
            late.last().copied().unwrap_or(0.0),
            w.backlog_end
        ));
        if percentile(&late, 99.0) > 1.0 {
            out.notes.push(
                "run validity: late_ms_p99 above 1 ms; the generator, not the server, \
                 set part of this run's latencies"
                    .to_owned(),
            );
        }
    }
}

/// A traced window: a quarter of the time untraced as the overhead
/// reference, then the rest with `wfc-obs` and allocation counting on.
fn traced_run(
    workload: Workload,
    params: &Params,
    conn: &mut Conn,
    queries: &Queries,
    gen: &mut Gen,
    out: &mut Outcome,
) -> RunReport {
    let cost = |w: &Window| match workload {
        Workload::ServeHot => 1.0 / w.throughput(true),
        _ => w.latency.mean_us(),
    };
    trace::set_tracing(false);
    let reference = drive(
        workload,
        conn,
        queries,
        gen,
        params.seconds / 4.0,
        false,
        out,
    );
    trace::set_tracing(true);
    trace::discard();
    let allocs = alloc::totals();
    let mut w = {
        let _phase = trace::phase_span(true, "window");
        drive(
            workload,
            conn,
            queries,
            gen,
            params.seconds * 0.75,
            true,
            out,
        )
    };
    let after = alloc::totals();
    let mut harvest = std::mem::take(&mut w.harvest);
    harvest.absorb();

    let n = w.latency.len();
    if !w.late_ms.is_empty() {
        let late = sorted(w.late_ms.clone());
        out.set(
            "loadgen.late_ms_p99",
            percentile(&late, 99.0),
            late.len() as u64,
        );
        out.set(
            "loadgen.late_ms_max",
            late[late.len() - 1],
            late.len() as u64,
        );
    }
    out.set("loadgen.backlog_end", w.backlog_end as f64, 1);
    out.set("loadgen.hit_p99_us", w.hit.percentile_us(99.0), w.hit.len());
    out.set(
        "loadgen.miss_p50_us",
        w.miss.percentile_us(50.0),
        w.miss.len(),
    );
    out.set(
        "loadgen.miss_p99_us",
        w.miss.percentile_us(99.0),
        w.miss.len(),
    );
    let sent = w.encode_ns.len().max(1) as f64;
    out.set(
        "wire.request_bytes_mean",
        w.request_bytes as f64 / sent,
        w.encode_ns.len() as u64,
    );
    out.set(
        "wire.response_bytes_mean",
        w.response_bytes as f64 / w.decode_ns.len().max(1) as f64,
        w.decode_ns.len() as u64,
    );
    out.set(
        "wire.encode_ns_p50",
        median(&w.encode_ns),
        w.encode_ns.len() as u64,
    );
    out.set(
        "wire.decode_ns_p50",
        median(&w.decode_ns),
        w.decode_ns.len() as u64,
    );
    out.set(
        "alloc.per_request",
        (after.0 - allocs.0) as f64 / n.max(1) as f64,
        n,
    );
    out.set(
        "alloc.bytes_per_request",
        (after.1 - allocs.1) as f64 / n.max(1) as f64,
        n,
    );
    super::set_registry_layers(out, &harvest, 1.0, 0.0);

    out.set(
        "obs.trace_overhead_pct",
        overhead_pct(cost(&reference), cost(&w)),
        n,
    );
    super::layer_report(workload, params, out, &harvest)
}
