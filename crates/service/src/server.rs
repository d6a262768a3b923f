//! The concurrent analysis server.
//!
//! Architecture (all std, no external dependencies):
//!
//! * a single **readiness-driven IO thread** multiplexes the listener
//!   and every connection over nonblocking sockets via a small
//!   `poll(2)` wrapper ([`crate::poller`]). Each connection is a pair
//!   of buffers — an incremental [`FrameBuffer`] assembling inbound
//!   frames across partial reads, and an outbound byte queue drained
//!   as the peer can absorb it — so a thousand idle pipelined clients
//!   cost zero threads and no worker ever blocks on a slow socket.
//!   This is the paper's own posture applied to the frontend: no
//!   participant waits on another, progress rides on readiness;
//! * a **bounded job queue** ([`crate::queue`]) between the IO loop and
//!   the workers: each admitted request is one job, answered alone by
//!   one worker. When the queue is full the request is rejected
//!   *immediately* with a `busy` response carrying the observed depth
//!   and the configured capacity (explicit backpressure, never
//!   unbounded buffering);
//! * a **fixed worker pool** draining jobs through the [`ResultCache`]
//!   (memory → disk → single-flight → compute), whose single-flight is
//!   the one place identical in-flight queries are deduplicated;
//!   workers append rendered response frames to the owning
//!   connection's one frame queue (a short lock; the IO thread copies
//!   and writes outside it) and nudge the IO thread through a
//!   self-pipe waker;
//! * per-connection **pipelining**: responses are matched to requests
//!   by id, so one client may keep many requests in flight and workers
//!   may complete them out of order;
//! * a **reaper thread** enforcing the per-request deadline by setting
//!   the owning worker's [`CancelToken`] flag. Every query kind —
//!   explorer-backed analyses *and* sched model checking — polls the
//!   same `wfc_spec::control` plane at its sync points (BFS level,
//!   per-path pop, schedule boundary), so any in-flight computation
//!   stops within one sync interval. A reaper-cancelled query answers
//!   with a structured `deadline-exceeded` error carrying the deadline
//!   as `budget`, the elapsed milliseconds as `used`, and a `partial`
//!   progress snapshot of the work completed before the cut.
//!
//! The thread total is **fixed at startup** — one IO thread, `workers`
//! workers, and the optional reaper — independent of connection count
//! ([`ServerHandle::thread_count`] reports it). Accept failures are
//! counted (`service.accept.errors`) and retried under a capped
//! exponential backoff; connections beyond `max_connections` are
//! answered with a structured `busy` frame and closed rather than
//! silently dropped.
//!
//! Worker cancellation flags are leaked `AtomicBool`s (one per worker
//! per server start — a bounded, intentional leak) because
//! `ExploreOptions` is `Copy` and its token borrows `'static`.

use std::io::{self, Read as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wfc_obs::json::Json;
use wfc_spec::control::{CancelToken, Exhausted, Resource, Wall};

use crate::analysis::{Query, QueryError};
use wfc_spec::stage::Stage;

use crate::cache::{cache_key, CacheOutcome, ResultCache};
use crate::conn::ConnShared;
use crate::poller::{fd_of, wait, Readiness, Waker};
use crate::queue::{Job, JobQueue};
use crate::repl_link::{dialer_loop, disabled_status, ReplConfig, ReplRuntime, ReplShared};
use crate::stats::{Disposition, IntroCtx, RequestTrace, TraceOutcome};
use crate::wire::{write_frame, FrameBuffer, QueryKind, Request, Response};

/// The most configurations one served exploration may visit, whatever
/// the request or a scenario's `budget` directive asks.
const MAX_CONFIGS: usize = 4_000_000;

/// The widest fan-out one served request may use (`threads`).
const MAX_THREADS: usize = 8;

/// Server configuration. `Default` gives a loopback server on an
/// ephemeral port with two workers.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Worker threads computing queries.
    pub workers: usize,
    /// Bounded job-queue capacity in requests; beyond it, requests get
    /// `busy`.
    pub queue_capacity: usize,
    /// In-memory result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Disk cache directory (`None` disables the disk tier).
    pub cache_dir: Option<PathBuf>,
    /// Per-request wall-clock deadline; `None` disables the reaper.
    pub request_timeout: Option<Duration>,
    /// Connections beyond this are answered `busy` and closed.
    pub max_connections: usize,
    /// Flight-recorder capacity in records; `0` disables the ring.
    /// The ring is only allocated when observability is on.
    pub flight_capacity: usize,
    /// Requests slower than this end-to-end are flagged as anomalies
    /// in the flight recorder; `None` disables the latency trigger.
    pub anomaly_threshold: Option<Duration>,
    /// Test hook: workers pass this gate after dequeuing a job and
    /// before computing, letting tests hold a worker deterministically.
    pub gate: Option<Arc<WorkerGate>>,
    /// Replication: when set, this server is one node of a `wfc-repl`
    /// cluster — computed results are proposed to the sequencer and
    /// committed inserts from any node land in this cache too.
    pub repl: Option<ReplConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 1024,
            cache_dir: None,
            request_timeout: None,
            max_connections: 8192,
            flight_capacity: 256,
            anomaly_threshold: None,
            gate: None,
            repl: None,
        }
    }
}

/// A gate workers pass between dequeuing a job and computing it. Tests
/// close it to hold workers at a known point (and read [`held`] to know
/// a worker has arrived), which makes queue-saturation and deadline
/// tests deterministic instead of timing-dependent.
///
/// [`held`]: WorkerGate::held
#[derive(Debug)]
pub struct WorkerGate {
    open: Mutex<bool>,
    cv: Condvar,
    held: AtomicUsize,
}

impl Default for WorkerGate {
    /// An open gate — a closed default would deadlock every worker.
    fn default() -> WorkerGate {
        WorkerGate {
            open: Mutex::new(true),
            cv: Condvar::new(),
            held: AtomicUsize::new(0),
        }
    }
}

impl WorkerGate {
    /// An open gate.
    pub fn new() -> Arc<WorkerGate> {
        Arc::new(WorkerGate::default())
    }

    /// Closes the gate: workers arriving at [`pass`](WorkerGate::pass)
    /// will block.
    pub fn close(&self) {
        *self.open.lock().unwrap() = false;
    }

    /// Opens the gate and releases every held worker.
    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// How many workers are currently blocked at the gate.
    pub fn held(&self) -> usize {
        self.held.load(Ordering::SeqCst)
    }

    fn pass(&self) {
        let mut open = self.open.lock().unwrap();
        if *open {
            return;
        }
        self.held.fetch_add(1, Ordering::SeqCst);
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        self.held.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-worker deadline slot, scanned by the reaper.
struct InFlight {
    deadline: Mutex<Option<Instant>>,
    cancel: &'static AtomicBool,
}

/// A handle on a running server: its bound address and its shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<JobQueue>,
    gate: Arc<WorkerGate>,
    waker: Arc<Waker>,
    cancel_flags: Vec<&'static AtomicBool>,
    conn_count: Arc<AtomicUsize>,
    thread_count: usize,
    io_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    reaper_thread: Option<JoinHandle<()>>,
    dialer_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("threads", &self.thread_count)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently held open by the IO loop. Rises on accept,
    /// falls when a peer disconnects — the value tests watch to prove
    /// connection lifecycles leak nothing.
    pub fn connections(&self) -> usize {
        self.conn_count.load(Ordering::SeqCst)
    }

    /// The server's total thread count: one IO thread, the workers, and
    /// the optional reaper. Fixed at startup — independent of how many
    /// connections are open, which is the readiness frontend's whole
    /// claim.
    pub fn thread_count(&self) -> usize {
        self.thread_count
    }

    /// Stops the server: cancels in-flight explorations, drains the
    /// pool, and joins every thread. Idempotent-by-consumption (takes
    /// `self`).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for flag in &self.cancel_flags {
            flag.store(true, Ordering::SeqCst);
        }
        self.gate.open(); // never strand a worker behind a test gate
        self.queue.close();
        self.waker.wake(); // pop the IO thread out of poll immediately
        if let Some(t) = self.io_thread.take() {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.reaper_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.dialer_thread.take() {
            let _ = t.join();
        }
    }
}

/// Capped exponential backoff after `consecutive` accept failures:
/// 2 ms, 4 ms, 8 ms, … capped at 1024 ms. Persistent accept errors
/// (EMFILE being the classic) must not spin the IO loop, but recovery
/// should be quick once descriptors free up.
pub fn accept_backoff(consecutive: u32) -> Duration {
    Duration::from_millis(1u64 << consecutive.clamp(1, 10))
}

/// Starts a server and returns once it is listening.
///
/// # Errors
///
/// Propagates bind/configuration failures.
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let cache = Arc::new(
        ResultCache::new(config.cache_capacity, config.cache_dir.clone())
            .map_err(io::Error::other)?,
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(JobQueue::new(config.queue_capacity.max(1)));
    let gate = config.gate.clone().unwrap_or_default();
    let waker = Arc::new(Waker::new()?);
    let conn_count = Arc::new(AtomicUsize::new(0));
    let intro = IntroCtx::new(&config, Arc::clone(&conn_count));
    let workers = config.workers.max(1);

    // Replication opens (and recovers) before the listener serves a
    // single request, so a replica never answers from a cache it has
    // not finished rebuilding.
    let repl_runtime = match &config.repl {
        Some(repl_config) => Some(ReplRuntime::open(repl_config, Arc::clone(&cache))?),
        None => None,
    };
    let repl_shared = repl_runtime.as_ref().map(|r| Arc::clone(&r.shared));
    let dialer_thread = match (&config.repl, &repl_shared) {
        (Some(repl_config), Some(shared)) => {
            let peers: Vec<String> = repl_config.peers.iter().map(|(_, a)| a.clone()).collect();
            let shared = Arc::clone(shared);
            let shutdown = Arc::clone(&shutdown);
            let waker = Arc::clone(&waker);
            Some(
                std::thread::Builder::new()
                    .name("wfc-svc-repl-dial".to_owned())
                    .spawn(move || dialer_loop(peers, shared, shutdown, waker))?,
            )
        }
        _ => None,
    };

    // One leaked cancellation flag per worker (bounded: workers × server
    // starts). `ExploreOptions` is `Copy`, so its token must be
    // `'static`.
    let cancel_flags: Vec<&'static AtomicBool> = (0..workers)
        .map(|_| &*Box::leak(Box::new(AtomicBool::new(false))))
        .collect();
    let inflight: Arc<Vec<InFlight>> = Arc::new(
        cancel_flags
            .iter()
            .map(|&cancel| InFlight {
                deadline: Mutex::new(None),
                cancel,
            })
            .collect(),
    );

    let mut worker_threads = Vec::with_capacity(workers);
    for (idx, &cancel) in cancel_flags.iter().enumerate() {
        let queue = Arc::clone(&queue);
        let cache = Arc::clone(&cache);
        let gate = Arc::clone(&gate);
        let waker = Arc::clone(&waker);
        let inflight = Arc::clone(&inflight);
        let intro = Arc::clone(&intro);
        let config = config.clone();
        let repl_shared = repl_shared.clone();
        worker_threads.push(
            std::thread::Builder::new()
                .name(format!("wfc-svc-worker-{idx}"))
                .spawn(move || {
                    worker_loop(
                        idx,
                        &queue,
                        &cache,
                        &gate,
                        &waker,
                        &inflight,
                        &intro,
                        cancel,
                        &config,
                        repl_shared.as_deref(),
                    )
                })?,
        );
    }

    let reaper_thread = if config.request_timeout.is_some() {
        let shutdown = Arc::clone(&shutdown);
        let inflight = Arc::clone(&inflight);
        Some(
            std::thread::Builder::new()
                .name("wfc-svc-reaper".to_owned())
                .spawn(move || {
                    while !shutdown.load(Ordering::SeqCst) {
                        let now = Instant::now();
                        for slot in inflight.iter() {
                            let expired = slot
                                .deadline
                                .lock()
                                .unwrap()
                                .is_some_and(|deadline| now >= deadline);
                            if expired {
                                slot.cancel.store(true, Ordering::SeqCst);
                            }
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                })?,
        )
    } else {
        None
    };

    let io_thread = {
        let shutdown = Arc::clone(&shutdown);
        let queue = Arc::clone(&queue);
        let waker = Arc::clone(&waker);
        let conn_count = Arc::clone(&conn_count);
        let intro = Arc::clone(&intro);
        let config = config.clone();
        std::thread::Builder::new()
            .name("wfc-svc-io".to_owned())
            .spawn(move || {
                io_loop(
                    &listener,
                    &shutdown,
                    &queue,
                    &waker,
                    &conn_count,
                    &intro,
                    &config,
                    repl_runtime,
                )
            })?
    };

    let thread_count =
        1 + workers + usize::from(reaper_thread.is_some()) + usize::from(dialer_thread.is_some());
    Ok(ServerHandle {
        addr,
        shutdown,
        queue,
        gate,
        waker,
        cancel_flags,
        conn_count,
        thread_count,
        io_thread: Some(io_thread),
        worker_threads,
        reaper_thread,
        dialer_thread,
    })
}

/// One multiplexed connection: the socket, the inbound frame assembler,
/// and the shared outbound channel workers write responses into.
struct Conn {
    stream: TcpStream,
    inbuf: FrameBuffer,
    shared: Arc<ConnShared>,
    /// Protocol violation seen: stop reading, flush what is queued
    /// (the `bad-request` answer), then close.
    closing: bool,
    /// Last flush hit `WouldBlock`; don't retry until poll reports the
    /// socket writable again.
    write_blocked: bool,
    dead: bool,
}

/// Reads at most this much per connection per iteration so one
/// firehose peer cannot starve the rest; level-triggered polling
/// re-reports the leftover on the next pass.
const READ_FAIRNESS_LIMIT: usize = 256 * 1024;

/// At most this many accepts per iteration, for the same reason.
const ACCEPT_BURST: usize = 128;

#[allow(clippy::too_many_arguments)] // mirrors the server's fixed wiring
fn io_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    queue: &JobQueue,
    waker: &Waker,
    conn_count: &AtomicUsize,
    intro: &Arc<IntroCtx>,
    config: &ServeConfig,
    mut repl: Option<ReplRuntime>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut consecutive_accept_errors: u32 = 0;
    let mut accept_resume: Option<Instant> = None;
    let mut interests = Vec::new();
    let mut ready: Vec<Readiness> = Vec::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut completed_traces: Vec<RequestTrace> = Vec::new();
    let mut live_links: Vec<usize> = Vec::new();

    while !shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        if accept_resume.is_some_and(|resume| now >= resume) {
            accept_resume = None;
        }
        let accept_paused = accept_resume.is_some();

        // Adopt dialer-connected peer links and propose worker-computed
        // results before building the interest set, so both get their
        // frames queued (and polled for writability) this same pass.
        if let Some(r) = repl.as_mut() {
            r.drain_incoming();
            r.drain_submits();
        }

        // Interest set: [listener, waker, conns..., peer links...] in
        // stable order; `live_links` maps trailing slots back to links.
        interests.clear();
        interests.push((fd_of(listener), !accept_paused, false));
        interests.push((waker.fd(), true, false));
        for conn in &conns {
            interests.push((fd_of(&conn.stream), !conn.closing, conn.shared.has_output()));
        }
        live_links.clear();
        if let Some(r) = repl.as_ref() {
            for (slot, link) in r.links.iter().enumerate() {
                if let Some(stream) = &link.stream {
                    interests.push((fd_of(stream), true, link.shared.has_output()));
                    live_links.push(slot);
                }
            }
        }

        let mut timeout = Duration::from_millis(50);
        if let Some(resume) = accept_resume {
            timeout = timeout.min(resume.saturating_duration_since(now));
        }
        let polled_conns = conns.len();
        if wait(&interests, timeout, &mut ready).is_err() {
            // A failed poll is unrecoverable for this design; degrade
            // to a paced retry rather than a busy spin.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if ready.get(1).is_some_and(|r| r.readable) {
            waker.drain();
        }

        // Accept new peers.
        if !accept_paused && ready.first().is_some_and(|r| r.readable) {
            for _ in 0..ACCEPT_BURST {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        consecutive_accept_errors = 0;
                        if conns.len() >= config.max_connections {
                            reject_connection(stream, conns.len(), config.max_connections);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn {
                            stream,
                            inbuf: FrameBuffer::new(),
                            shared: Arc::new(ConnShared::new()),
                            closing: false,
                            write_blocked: false,
                            dead: false,
                        });
                        conn_count.fetch_add(1, Ordering::SeqCst);
                        wfc_obs::counter!("service.connections.opened");
                        wfc_obs::gauge_max!("service.connections.open", conns.len() as i64);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        // EMFILE and friends: count it, back off with a
                        // cap, and let poll resume accepting later.
                        wfc_obs::counter!("service.accept.errors");
                        consecutive_accept_errors = consecutive_accept_errors.saturating_add(1);
                        accept_resume =
                            Some(Instant::now() + accept_backoff(consecutive_accept_errors));
                        break;
                    }
                }
            }
        }

        // Drain readable connections into the job queue (peer frames
        // are routed to the replication node inside the decode path).
        for (i, conn) in conns.iter_mut().enumerate() {
            let readiness = ready.get(i + 2).copied().unwrap_or_default();
            if conn.closing {
                if readiness.hangup {
                    conn.dead = true;
                }
                continue;
            }
            if readiness.readable {
                read_connection(conn, &mut read_buf, queue, intro, &mut repl);
            }
        }

        // Push queued response bytes to whoever can take them. New
        // output is try-written immediately; a connection whose last
        // flush hit WouldBlock waits for poll to report it writable
        // (its interest set includes POLLOUT while output is pending).
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.dead {
                continue;
            }
            let readiness = ready.get(i + 2).copied().unwrap_or_default();
            let pending = conn.shared.has_output();
            if pending && (!conn.write_blocked || readiness.writable) {
                match conn.shared.flush(&mut conn.stream, &mut completed_traces) {
                    Ok(flushed_all) => {
                        conn.write_blocked = !flushed_all;
                        if flushed_all && conn.closing {
                            conn.dead = true;
                        }
                    }
                    Err(_) => conn.dead = true,
                }
            } else if !pending && conn.closing {
                conn.dead = true;
            }
        }
        // Service peer links: a readable outbound link only ever means
        // EOF or stray bytes (peers answer on their *own* dialed link,
        // never ours); writability drains the queued frames.
        if let Some(r) = repl.as_mut() {
            let mut lost: Vec<usize> = Vec::new();
            for (pos, &slot) in live_links.iter().enumerate() {
                let readiness = ready
                    .get(2 + polled_conns + pos)
                    .copied()
                    .unwrap_or_default();
                let link = &mut r.links[slot];
                let Some(stream) = link.stream.as_mut() else {
                    continue;
                };
                let mut dead = readiness.hangup;
                if readiness.readable && !dead {
                    loop {
                        match stream.read(&mut read_buf) {
                            Ok(0) => {
                                dead = true;
                                break;
                            }
                            Ok(_) => {} // discard: nothing speaks here
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                }
                if !dead && link.shared.has_output() && (!link.write_blocked || readiness.writable)
                {
                    match link.shared.flush(stream, &mut completed_traces) {
                        Ok(flushed_all) => link.write_blocked = !flushed_all,
                        Err(_) => dead = true,
                    }
                }
                if dead {
                    lost.push(slot);
                }
            }
            for slot in lost {
                r.drop_link(slot);
            }
        }

        for trace in completed_traces.drain(..) {
            intro.finalize(&trace);
        }

        conns.retain(|conn| {
            if conn.dead {
                for trace in conn.shared.take_pending_traces() {
                    intro.finalize_dropped(trace);
                }
                conn.shared.set_closed();
                conn_count.fetch_sub(1, Ordering::SeqCst);
                wfc_obs::counter!("service.connections.closed");
            }
            !conn.dead
        });
    }

    // Shutdown: drop every socket (peers see EOF); the workers drain
    // whatever is still queued.
    for conn in &conns {
        for trace in conn.shared.take_pending_traces() {
            intro.finalize_dropped(trace);
        }
        conn.shared.set_closed();
    }
    conn_count.store(0, Ordering::SeqCst);
}

/// Answers an over-capacity connection with a structured `busy` frame
/// (id 0 — no request was read) and closes it. The accepted-then-
/// dropped stream of the old frontend left clients hanging forever;
/// an explicit refusal lets them back off and retry.
fn reject_connection(stream: TcpStream, open: usize, limit: usize) {
    wfc_obs::counter!("service.accept.rejected");
    let busy = Response::Busy {
        id: 0,
        used: open as u64,
        budget: limit as u64,
    };
    // Freshly accepted socket, empty send buffer: a bounded blocking
    // write is safe, and best-effort is fine — the close is the point.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut stream = stream;
    let _ = write_frame(&mut stream, &busy.to_json());
}

/// Reads until the socket is drained (or the fairness cap), feeding
/// bytes through the frame assembler into the job queue.
fn read_connection(
    conn: &mut Conn,
    read_buf: &mut [u8],
    queue: &JobQueue,
    intro: &Arc<IntroCtx>,
    repl: &mut Option<ReplRuntime>,
) {
    // The trace origin for every frame completed by this read pass:
    // the closest observable moment to the request's bytes arriving.
    let accepted = Instant::now();
    let mut total = 0usize;
    loop {
        match conn.stream.read(read_buf) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&read_buf[..n]);
                total += n;
                decode_frames(conn, queue, intro, accepted, repl);
                if conn.closing || conn.dead {
                    return;
                }
                if total >= READ_FAIRNESS_LIMIT || n < read_buf.len() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Pulls every complete frame out of the connection's buffer and
/// submits it. A framing violation answers `bad-request` and flags the
/// connection for flush-then-close — the byte stream is untrustworthy
/// past that point.
fn decode_frames(
    conn: &mut Conn,
    queue: &JobQueue,
    intro: &Arc<IntroCtx>,
    accepted: Instant,
    repl: &mut Option<ReplRuntime>,
) {
    loop {
        match conn.inbuf.next_frame() {
            Ok(Some(doc)) if wfc_repl::msg::is_repl_frame(&doc) => {
                // Peer-protocol traffic shares the listener with
                // clients; the `proto` field is the fork in the road.
                handle_repl_frame(&conn.shared, &doc, repl);
            }
            Ok(Some(doc)) => {
                handle_request(&doc, &conn.shared, queue, intro, accepted, repl.as_ref())
            }
            Ok(None) => return,
            Err(e) => {
                conn.shared
                    .enqueue_json(&bad_request(0, &format!("protocol error: {e}")).to_json());
                conn.closing = true;
                return;
            }
        }
    }
}

/// Routes one inbound `wfc-repl/v1` frame. `status` is answered inline
/// on the same connection — including on a server with replication
/// off, which reports `enabled: false` instead of a protocol error, so
/// `wfc cluster-status` can probe any node safely. Everything else is
/// peer traffic for the node.
fn handle_repl_frame(conn: &Arc<ConnShared>, doc: &Json, repl: &mut Option<ReplRuntime>) {
    use wfc_spec::repl::msg as repl_msg;
    if wfc_repl::msg::frame_type(doc) == Some(repl_msg::STATUS) {
        let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
        let reply = match repl.as_ref() {
            Some(r) => r.status_doc(id),
            None => disabled_status(id),
        };
        conn.enqueue_json(&reply);
        return;
    }
    match repl.as_mut() {
        Some(r) => r.handle_frame(doc),
        None => wfc_obs::counter!("repl.frames.ignored"),
    }
}

fn bad_request(id: u64, message: &str) -> Response {
    Response::Error {
        id,
        code: "bad-request".to_owned(),
        message: message.to_owned(),
        budget: None,
        used: None,
        resource: None,
        partial: None,
    }
}

fn handle_request(
    doc: &Json,
    conn: &Arc<ConnShared>,
    queue: &JobQueue,
    intro: &Arc<IntroCtx>,
    accepted: Instant,
    repl: Option<&ReplRuntime>,
) {
    let request = match Request::from_json(doc) {
        Ok(request) => request,
        Err(e) => {
            // The frame itself was sound; only this message is bad.
            let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
            conn.enqueue_json(&bad_request(id, &e.to_string()).to_json());
            return;
        }
    };
    wfc_obs::counter!("service.requests");
    intro.note_request();
    let id = request.id;
    let mut trace = intro.trace(id, request.kind, accepted);
    if let Some(t) = &mut trace {
        t.stamp(Stage::Decoded);
    }

    // `stats` is answered right here on the IO thread — structurally
    // exempt from caching, single-flight, and the job queue, so
    // introspection works even when every worker is wedged and the
    // queue is refusing real work.
    if request.kind == QueryKind::Stats {
        if let Some(t) = &mut trace {
            t.stamp(Stage::EngineStart);
        }
        let mut result = intro.build_stats(queue);
        if let (Some(r), Json::Obj(fields)) = (repl, &mut result) {
            fields.push(("repl".to_owned(), r.stats_section()));
        }
        if let Some(t) = &mut trace {
            t.stamp(Stage::EngineDone);
            t.disposition = Disposition::Inline;
            t.outcome = TraceOutcome::Ok;
        }
        wfc_obs::counter!("service.responses.ok");
        let response = Response::Ok {
            id,
            cached: false,
            result,
        };
        enqueue_traced(conn, intro, &response.to_json(), trace);
        return;
    }

    let job = Job {
        request,
        conn: Arc::clone(conn),
        trace,
    };
    if let Err((job, used)) = queue.try_push(job) {
        wfc_obs::counter!("service.responses.busy");
        let mut trace = job.trace;
        if let Some(t) = &mut trace {
            t.outcome = TraceOutcome::Busy;
        }
        let busy = Response::Busy {
            id,
            used: used as u64,
            budget: queue.capacity() as u64,
        };
        enqueue_traced(conn, intro, &busy.to_json(), trace);
    }
}

/// Queues a response with its trace riding on the flush watermark; a
/// response that cannot be queued finalizes its trace as dropped.
fn enqueue_traced(
    conn: &Arc<ConnShared>,
    intro: &Arc<IntroCtx>,
    doc: &Json,
    trace: Option<Box<RequestTrace>>,
) {
    match trace {
        Some(trace) => {
            if let Some(returned) = conn.enqueue_json_traced(doc, trace) {
                intro.finalize_dropped(*returned);
            }
        }
        None => conn.enqueue_json(doc),
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the server's fixed wiring
fn worker_loop(
    idx: usize,
    queue: &JobQueue,
    cache: &ResultCache,
    gate: &WorkerGate,
    waker: &Waker,
    inflight: &[InFlight],
    intro: &Arc<IntroCtx>,
    cancel: &'static AtomicBool,
    config: &ServeConfig,
    repl: Option<&ReplShared>,
) {
    while let Some(job) = queue.pop() {
        compute_job(
            job, idx, cache, gate, waker, inflight, intro, cancel, config, repl,
        );
    }
}

/// Computes one job through the cache and answers its requester.
/// `cached` is the cache's verdict: a memory or disk hit, or a wait on
/// another worker's identical in-flight computation (single-flight).
#[allow(clippy::too_many_arguments)] // mirrors the server's fixed wiring
fn compute_job(
    job: Job,
    idx: usize,
    cache: &ResultCache,
    gate: &WorkerGate,
    waker: &Waker,
    inflight: &[InFlight],
    intro: &Arc<IntroCtx>,
    cancel: &'static AtomicBool,
    config: &ServeConfig,
    repl: Option<&ReplShared>,
) {
    let Job {
        request,
        conn,
        mut trace,
    } = job;
    let _flight = intro.enter_flight();
    let started = Instant::now();
    if let Some(trace) = &mut trace {
        // Before the gate, matching the deadline: time a test spends
        // holding the worker counts as engine time.
        trace.stamp(Stage::EngineStart);
    }
    cancel.store(false, Ordering::SeqCst);
    // Arm the deadline — and the in-engine wall clock — before
    // passing the gate, so time a test spends holding the worker
    // counts against the deadline; that is what makes the
    // cancellation tests deterministic.
    *inflight[idx].deadline.lock().unwrap() = config.request_timeout.map(|t| started + t);
    let wall = config.request_timeout.map(Wall::expires_in);
    gate.pass();

    let token = CancelToken::new(cancel);
    // One path for every kind: the key is the query's identity, budgets
    // included, as the client asked; the cap binds only what runs. The
    // request deadline rides along out of band (cancel token + wall
    // clock) and is not part of the key: control signals never change
    // a completed query's document. The key and name ride along with
    // the result so a freshly computed entry can be handed to
    // replication verbatim.
    let outcome =
        Query::parse(request.kind, &request.type_text, &request.options).and_then(|mut query| {
            let key = cache_key(request.kind, query.identity());
            query.clamp(MAX_CONFIGS, MAX_THREADS);
            cache
                .get_or_compute(key, request.kind, query.name(), || query.run(token, wall))
                .map(|(value, how)| (value, how, key, query.name().to_owned()))
                .map_err(|e| as_deadline(e, started, config))
        });
    *inflight[idx].deadline.lock().unwrap() = None;

    // A *computed* result is news to the cluster: queue it for the IO
    // thread to propose. Cache hits were either replicated already or
    // predate the cluster; re-proposing them would be noise (and the
    // sequencer's key-dedup would drop it anyway).
    if let (Some(repl), Ok((value, CacheOutcome::Computed, key, type_name))) = (repl, &outcome) {
        repl.submit.lock().unwrap().push(wfc_repl::Entry {
            key: key.to_hex(),
            kind: request.kind.as_str().to_owned(),
            type_name: type_name.clone(),
            result: (**value).clone(),
        });
        // The waker nudge at the end of this function covers the
        // submit queue too.
    }

    let response = match &outcome {
        Ok((value, how, ..)) => Response::Ok {
            id: request.id,
            cached: how.is_cached(),
            result: (**value).clone(),
        },
        Err(e) => error_response(request.id, e),
    };
    if wfc_obs::enabled() {
        let name = match &response {
            Response::Ok { .. } => "service.responses.ok",
            _ => "service.responses.error",
        };
        wfc_obs::metrics::Registry::global().counter(name).add(1);
        wfc_obs::metrics::Registry::global()
            .histogram(&format!("service.latency_us.{}", request.kind))
            .record(started.elapsed().as_micros() as u64);
    }
    if let Some(trace) = &mut trace {
        trace.stamp(Stage::EngineDone);
        trace.disposition = match &outcome {
            Ok((_, how, ..)) => Disposition::from(*how),
            Err(_) => Disposition::Fresh,
        };
        trace.outcome = match &response {
            Response::Ok { .. } => TraceOutcome::Ok,
            _ => TraceOutcome::Error,
        };
        trace.deadline_exceeded = matches!(&outcome, Err(e) if e.code() == "deadline-exceeded");
    }
    if conn.is_closed() {
        if let Some(trace) = trace {
            intro.finalize_dropped(*trace);
        }
    } else {
        enqueue_traced(&conn, intro, &response.to_json(), trace);
    }
    waker.wake();
}

/// Normalizes a cancellation whose request deadline has elapsed into a
/// wall-clock [`Exhausted`] so clients see one `deadline-exceeded`
/// shape whether the engine noticed its own wall budget or the reaper's
/// token reached it first (the two race at every sync point). A
/// cancellation with time still on the clock — server shutdown — stays
/// `cancelled`.
fn as_deadline(e: QueryError, started: Instant, config: &ServeConfig) -> QueryError {
    match (e, config.request_timeout) {
        (QueryError::Cancelled { progress }, Some(timeout)) if started.elapsed() >= timeout => {
            QueryError::Exhausted(Exhausted {
                resource: Resource::WallMs,
                budget: timeout.as_millis() as u64,
                used: started.elapsed().as_millis() as u64,
                progress,
            })
        }
        (e, _) => e,
    }
}

fn error_response(id: u64, e: &QueryError) -> Response {
    let (budget, used) = match e.budget_used() {
        Some((b, u)) => (Some(b), Some(u)),
        None => (None, None),
    };
    Response::Error {
        id,
        code: e.code().to_owned(),
        message: e.to_string(),
        budget,
        used,
        resource: e.resource().map(str::to_owned),
        partial: e.partial(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_grows_and_caps() {
        assert_eq!(accept_backoff(1), Duration::from_millis(2));
        assert_eq!(accept_backoff(2), Duration::from_millis(4));
        assert_eq!(accept_backoff(5), Duration::from_millis(32));
        assert_eq!(accept_backoff(10), Duration::from_millis(1024));
        assert_eq!(
            accept_backoff(u32::MAX),
            Duration::from_millis(1024),
            "backoff must cap, not overflow"
        );
        assert_eq!(
            accept_backoff(0),
            Duration::from_millis(2),
            "even a first error backs off a little"
        );
    }
}
