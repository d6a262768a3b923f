//! Acceptance tests for the readiness-driven `wfc-service` frontend:
//! connection lifecycles must leak nothing (no per-connection threads,
//! no stale handles), partial frames and stalled peers must not starve
//! real clients, overflow connections must be told `busy` before they
//! are closed, identical pipelined requests must coalesce onto one
//! computation, and distinct requests arriving together must not queue
//! behind each other on one worker.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use wait_free_consensus::prelude::*;
use wfc_service::wire::write_frame;
use wfc_service::{
    serve, Client, FrameBuffer, QueryKind, QueryOptions, Request, Response, ServeConfig, WorkerGate,
};
use wfc_spec::text::format_type;

fn tas_text() -> String {
    format_type(&spec::canonical::test_and_set(2))
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Reads one response frame off a raw stream, using the same
/// incremental decoder the server does.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "peer closed before a full response frame arrived");
        fb.extend_from_slice(&buf[..n]);
        if let Some(doc) = fb.next_frame().expect("well-formed frame") {
            assert_eq!(fb.buffered(), 0, "no trailing bytes after the frame");
            return Response::from_json(&doc).expect("valid response");
        }
    }
}

/// OS-visible thread count of this test process, where the platform
/// exposes one.
fn os_thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// The tentpole claim: a thousand concurrent idle connections cost the
/// server zero additional threads. The thread total is fixed at startup
/// (IO loop + workers + optional reaper) and stays there no matter how
/// many sockets are parked on the poller.
#[test]
fn a_thousand_idle_connections_cost_no_extra_threads() {
    let handle = serve(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let fixed_threads = handle.thread_count();
    assert_eq!(fixed_threads, 3, "one IO thread + two workers, no reaper");
    let before = os_thread_count();

    let mut idle = Vec::with_capacity(1000);
    for i in 0..1000 {
        idle.push(TcpStream::connect(handle.addr()).unwrap());
        // Pace the dial loop against the accept loop so the listener
        // backlog never overflows into kernel SYN retries.
        if i % 100 == 99 {
            let floor = idle.len().saturating_sub(150);
            wait_until("accept loop to keep pace", || handle.connections() >= floor);
        }
    }
    wait_until("all 1000 connections accepted", || {
        handle.connections() >= 1000
    });

    assert_eq!(
        handle.thread_count(),
        fixed_threads,
        "thread total must be connection-count-independent"
    );
    if let (Some(before), Some(after)) = (before, os_thread_count()) {
        assert!(
            after <= before + 50,
            "1000 idle connections grew the process from {before} to {after} threads"
        );
    }

    // The server still serves while holding all of them.
    let mut client = Client::connect(handle.addr()).unwrap();
    match client
        .query(QueryKind::Classify, &tas_text(), &QueryOptions::default())
        .unwrap()
    {
        Response::Ok { .. } => {}
        other => panic!("query under 1000 idle connections failed: {other:?}"),
    }
    drop(client);

    drop(idle);
    wait_until("connection count to drain to zero", || {
        handle.connections() == 0
    });
    handle.shutdown();
}

/// The original leak, inverted into a regression test: after N
/// connect/disconnect cycles the server's connection count returns to
/// baseline — nothing accumulates per past connection.
#[test]
fn connection_count_returns_to_baseline_after_cycles() {
    let handle = serve(ServeConfig::default()).unwrap();
    let fixed_threads = handle.thread_count();
    let tas = tas_text();
    for round in 0..20 {
        let mut batch: Vec<Client> = (0..5)
            .map(|_| Client::connect(handle.addr()).unwrap())
            .collect();
        wait_until("the round's connections to be accepted", || {
            handle.connections() >= 5
        });
        // Exercise the full request path on one of them each round, so
        // teardown covers connections with served traffic too.
        match batch[round % 5]
            .query(QueryKind::Classify, &tas, &QueryOptions::default())
            .unwrap()
        {
            Response::Ok { .. } => {}
            other => panic!("round {round}: unexpected response {other:?}"),
        }
        drop(batch);
        wait_until("the round's connections to be reaped", || {
            handle.connections() == 0
        });
        assert_eq!(handle.thread_count(), fixed_threads);
    }
    handle.shutdown();
}

/// Frames delivered one byte at a time — worst-case TCP fragmentation —
/// decode into exactly one request each, across consecutive requests on
/// the same connection.
#[test]
fn requests_survive_byte_by_byte_delivery() {
    let handle = serve(ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let tas = tas_text();
    for id in [1u64, 2] {
        let request = Request {
            id,
            kind: QueryKind::Classify,
            type_text: tas.clone(),
            options: QueryOptions::default(),
        };
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &request.to_json()).unwrap();
        for byte in bytes {
            stream.write_all(&[byte]).unwrap();
            std::thread::sleep(Duration::from_micros(300));
        }
        match read_response(&mut stream) {
            Response::Ok {
                id: rid, cached, ..
            } => {
                assert_eq!(rid, id);
                assert_eq!(cached, id > 1, "second request repeats the first");
            }
            other => panic!("trickled request {id}: unexpected response {other:?}"),
        }
    }
    handle.shutdown();
}

/// Slow-loris peers — connections that send half a header and stall —
/// park on the poller without consuming a worker, so a real client's
/// query still completes promptly even with a single worker.
#[test]
fn slow_loris_connections_do_not_starve_real_clients() {
    let handle = serve(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let loris: Vec<TcpStream> = (0..6)
        .map(|_| {
            let mut s = TcpStream::connect(handle.addr()).unwrap();
            s.write_all(&[0, 0]).unwrap(); // half a length prefix, then silence
            s
        })
        .collect();
    wait_until("the stalled connections to be accepted", || {
        handle.connections() >= 6
    });

    let mut client = Client::connect(handle.addr()).unwrap();
    let started = Instant::now();
    match client
        .query(QueryKind::Classify, &tas_text(), &QueryOptions::default())
        .unwrap()
    {
        Response::Ok { .. } => {}
        other => panic!("query behind slow-loris peers failed: {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stalled peers must not delay a live request"
    );
    drop(loris);
    drop(client);
    wait_until("stalled connections to be reaped", || {
        handle.connections() == 0
    });
    handle.shutdown();
}

/// A connection beyond `max_connections` is not silently dropped: it
/// receives a structured `busy` frame (id 0 — no request was read) and
/// a clean close.
#[test]
fn overflow_connections_get_a_busy_frame_then_eof() {
    let handle = serve(ServeConfig {
        max_connections: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let held: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    wait_until("the two admitted connections", || handle.connections() == 2);

    let mut extra = TcpStream::connect(handle.addr()).unwrap();
    match read_response(&mut extra) {
        Response::Busy { id, used, budget } => {
            assert_eq!(id, 0, "no request id exists yet on a rejected connection");
            assert_eq!(used, 2);
            assert_eq!(budget, 2);
        }
        other => panic!("overflow connection got {other:?}, wanted busy"),
    }
    let mut buf = [0u8; 16];
    assert_eq!(
        extra.read(&mut buf).unwrap(),
        0,
        "rejected connection must be closed after the busy frame"
    );

    // Admitted connections are unaffected, and capacity frees on close.
    drop(held);
    wait_until("capacity to free", || handle.connections() == 0);
    let mut client = Client::connect(handle.addr()).unwrap();
    match client
        .query(QueryKind::Classify, &tas_text(), &QueryOptions::default())
        .unwrap()
    {
        Response::Ok { .. } => {}
        other => panic!("post-overflow query failed: {other:?}"),
    }
    handle.shutdown();
}

/// Identical pipelined requests coalesce: six in-flight copies of the
/// same query produce six responses but only one fresh computation.
#[test]
fn pipelined_identical_queries_coalesce_onto_one_computation() {
    let gate = WorkerGate::new();
    gate.close();
    let handle = serve(ServeConfig {
        workers: 1,
        gate: Some(gate.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tas = tas_text();
    let options = QueryOptions::default();
    let ids: Vec<u64> = (0..6)
        .map(|_| {
            client
                .send(QueryKind::AccessBounds, &tas, &options)
                .unwrap()
        })
        .collect();
    gate.open();

    let mut fresh = 0usize;
    let mut renders = Vec::new();
    let mut seen = Vec::new();
    for _ in 0..6 {
        match client.recv().unwrap() {
            Response::Ok {
                id, cached, result, ..
            } => {
                seen.push(id);
                renders.push(result.render());
                if !cached {
                    fresh += 1;
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    seen.sort_unstable();
    let mut expected = ids;
    expected.sort_unstable();
    assert_eq!(
        seen, expected,
        "every pipelined id is answered exactly once"
    );
    assert_eq!(fresh, 1, "exactly one response may be a fresh computation");
    assert!(
        renders.windows(2).all(|w| w[0] == w[1]),
        "coalesced responses must be byte-identical"
    );
    handle.shutdown();
}

/// No head-of-line blocking: two distinct queries arriving in one
/// segment are two jobs, so with two workers each is held by its own
/// worker — neither waits behind the other while a worker sits idle.
#[test]
fn distinct_queries_in_one_segment_each_hold_their_own_worker() {
    let gate = WorkerGate::new();
    gate.close();
    let handle = serve(ServeConfig {
        workers: 2,
        gate: Some(gate.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let tas = tas_text();
    let mut bytes = Vec::new();
    for (id, kind) in [(1u64, QueryKind::Classify), (2, QueryKind::Witness)] {
        let request = Request {
            id,
            kind,
            type_text: tas.clone(),
            options: QueryOptions::default(),
        };
        write_frame(&mut bytes, &request.to_json()).unwrap();
    }
    stream.write_all(&bytes).unwrap();
    wait_until("both workers to hold one query each", || gate.held() == 2);
    gate.open();

    // Both answers may arrive in one read, so decode frames off one
    // buffer rather than one buffer per response.
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 4096];
    let mut ids = Vec::new();
    while ids.len() < 2 {
        if let Some(doc) = fb.next_frame().expect("well-formed frame") {
            match Response::from_json(&doc).expect("valid response") {
                Response::Ok { id, .. } => ids.push(id),
                other => panic!("unexpected response {other:?}"),
            }
            continue;
        }
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "peer closed before both responses arrived");
        fb.extend_from_slice(&buf[..n]);
    }
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2]);
    handle.shutdown();
}
