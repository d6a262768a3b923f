//! Acceptance tests for `wfc-service`, in the spirit of
//! `parallel_differential.rs`: a served analysis must be **byte-identical**
//! to the direct library call, at any worker count, from any cache tier —
//! and the server's backpressure, budget and deadline behavior must be
//! structured, not stringly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wait_free_consensus::prelude::*;
use wfc_service::{serve, Client, QueryKind, QueryOptions, Response, ServeConfig, WorkerGate};
use wfc_spec::text::format_type;

fn tas_text() -> String {
    format_type(&spec::canonical::test_and_set(2))
}

fn local_config() -> ServeConfig {
    ServeConfig::default()
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The headline acceptance criterion: for **every** query kind, `wfc
/// query` against a running server returns the same bytes as the direct
/// library call — with 1 worker and with 4.
#[test]
fn served_results_are_byte_identical_to_direct_calls() {
    let tas = tas_text();
    let options = QueryOptions::default();
    for workers in [1usize, 4] {
        let handle = serve(ServeConfig {
            workers,
            ..local_config()
        })
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        // `sched` takes a fixture spec and `scenario` a scenario file,
        // not a type text; each gets its own differential test below.
        // `stats` is live introspection with no direct-call counterpart;
        // `tests/service_stats.rs` covers it.
        for kind in QueryKind::ALL
            .into_iter()
            .filter(|k| !matches!(k, QueryKind::Sched | QueryKind::Scenario | QueryKind::Stats))
        {
            let direct = wfc_service::run_query_text(kind, &tas, &options)
                .unwrap_or_else(|e| panic!("direct {kind} failed: {e}"))
                .render();
            match client.query(kind, &tas, &options).unwrap() {
                Response::Ok { cached, result, .. } => {
                    assert!(!cached, "{kind}: first query must compute fresh");
                    assert_eq!(
                        result.render(),
                        direct,
                        "{kind}: served bytes differ from direct call at {workers} workers"
                    );
                }
                other => panic!("{kind}: unexpected response {other:?}"),
            }
            // And again, now from the cache: still the same bytes.
            match client.query(kind, &tas, &options).unwrap() {
                Response::Ok { cached, result, .. } => {
                    assert!(cached, "{kind}: repeat query must hit the cache");
                    assert_eq!(result.render(), direct, "{kind}: cached bytes differ");
                }
                other => panic!("{kind}: unexpected repeat response {other:?}"),
            }
        }
        handle.shutdown();
    }
}

/// Responses are matched by id, so a client may pipeline requests and
/// collect out-of-order completions.
#[test]
fn pipelined_requests_complete_and_match_by_id() {
    let handle = serve(ServeConfig {
        workers: 2,
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tas = tas_text();
    let options = QueryOptions::default();
    let mut expected: Vec<u64> = Vec::new();
    for kind in [
        QueryKind::Classify,
        QueryKind::Witness,
        QueryKind::AccessBounds,
    ] {
        expected.push(client.send(kind, &tas, &options).unwrap());
    }
    let mut seen = Vec::new();
    for _ in 0..expected.len() {
        match client.recv().unwrap() {
            Response::Ok { id, .. } => seen.push(id),
            other => panic!("unexpected response {other:?}"),
        }
    }
    seen.sort_unstable();
    expected.sort_unstable();
    assert_eq!(seen, expected);
    handle.shutdown();
}

/// The bounded queue rejects overflow with an explicit `busy` response
/// carrying the observed depth and the capacity — it never buffers
/// without bound. The worker gate makes the saturation deterministic.
#[test]
fn saturated_queue_returns_busy_with_quantities() {
    let gate = WorkerGate::new();
    gate.close();
    let handle = serve(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        gate: Some(Arc::clone(&gate)),
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tas = tas_text();
    let options = QueryOptions::default();

    // First request: dequeued, then held at the gate.
    let id1 = client.send(QueryKind::Classify, &tas, &options).unwrap();
    wait_until("worker to hold at the gate", || gate.held() == 1);
    // Two more fill the queue; distinct budgets dodge the result cache.
    let id2 = client
        .send(QueryKind::Classify, &tas, &options.with_max_configs(1001))
        .unwrap();
    let id3 = client
        .send(QueryKind::Classify, &tas, &options.with_max_configs(1002))
        .unwrap();
    // Queue enqueues are asynchronous to this thread; the fourth send
    // must observe a full queue, which it does because one reader thread
    // handles this connection's frames strictly in order.
    let id4 = client
        .send(QueryKind::Classify, &tas, &options.with_max_configs(1003))
        .unwrap();

    // The busy rejection is written by the reader thread immediately,
    // while everything else is stuck behind the closed gate.
    match client.recv().unwrap() {
        Response::Busy { id, used, budget } => {
            assert_eq!(id, id4);
            assert_eq!(budget, 2, "capacity must be reported");
            assert_eq!(used, 2, "observed depth must be reported");
        }
        other => panic!("expected busy, got {other:?}"),
    }

    gate.open();
    let mut completed = Vec::new();
    for _ in 0..3 {
        match client.recv().unwrap() {
            Response::Ok { id, .. } => completed.push(id),
            other => panic!("unexpected response {other:?}"),
        }
    }
    completed.sort_unstable();
    let mut expected = vec![id1, id2, id3];
    expected.sort_unstable();
    assert_eq!(completed, expected);
    handle.shutdown();
}

/// Budget failures keep `control::Exhausted`'s quantities all the way
/// across the wire — `budget`, `used`, the exhausted `resource`, and a
/// `partial` progress snapshot as structured data, not prose.
#[test]
fn budget_errors_carry_quantities_on_the_wire() {
    let handle = serve(local_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tas = tas_text();
    let options = QueryOptions::default().with_max_configs(3);
    let direct = wfc_service::run_query_text(QueryKind::VerifyConsensus, &tas, &options)
        .expect_err("a 3-config budget cannot fit the TAS protocol");
    let (direct_budget, direct_used) = direct.budget_used().unwrap();
    match client
        .query(QueryKind::VerifyConsensus, &tas, &options)
        .unwrap()
    {
        Response::Error {
            code,
            budget,
            used,
            resource,
            partial,
            ..
        } => {
            assert_eq!(code, "budget-exceeded");
            assert_eq!(budget, Some(direct_budget));
            assert_eq!(used, Some(direct_used));
            assert_eq!(budget, Some(3));
            // Exact accounting: the budget fires at exactly one config
            // over the limit, not at some batch-shaped overshoot.
            assert_eq!(used, Some(4));
            assert_eq!(resource.as_deref(), Some("configs"));
            let partial = partial.expect("budget errors carry partial progress");
            assert_eq!(partial.configs, 4);
        }
        other => panic!("expected budget error, got {other:?}"),
    }
    handle.shutdown();
}

/// Unsupported and malformed queries come back as structured errors with
/// stable codes.
#[test]
fn structured_errors_for_bad_inputs() {
    let handle = serve(local_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let options = QueryOptions::default();
    match client
        .query(QueryKind::Classify, "not a type", &options)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, "parse-error"),
        other => panic!("unexpected {other:?}"),
    }
    let one_use = format_type(&spec::canonical::one_use_bit());
    match client
        .query(QueryKind::AccessBounds, &one_use, &options)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, "unsupported"),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

/// The `sched` query kind: a served model-checking run returns the same
/// bytes as the direct `SchedSpec` call, a repeat is served from cache,
/// and spellings that resolve to the same canonical spec share a cache
/// line.
#[test]
fn served_sched_results_are_byte_identical_to_direct_calls() {
    let handle = serve(local_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let options = QueryOptions::default();
    // The broken fixture exercises the richest document (a
    // counterexample object with a replayable schedule).
    let spec_text = "broken mode=dfs";
    let direct = wfc_service::run_query_text(QueryKind::Sched, spec_text, &options)
        .expect("direct sched query")
        .render();
    assert!(direct.contains("\"verdict\":\"violation\""), "{direct}");
    match client.query(QueryKind::Sched, spec_text, &options).unwrap() {
        Response::Ok { cached, result, .. } => {
            assert!(!cached, "first sched query must compute fresh");
            assert_eq!(result.render(), direct, "served sched bytes differ");
        }
        other => panic!("unexpected response {other:?}"),
    }
    // A different spelling of the same resolved spec hits the cache:
    // the key hashes the canonical text, not the submitted text.
    let respelled = "broken sleep=on mode=dfs";
    match client.query(QueryKind::Sched, respelled, &options).unwrap() {
        Response::Ok { cached, result, .. } => {
            assert!(cached, "equal canonical specs must share a cache line");
            assert_eq!(result.render(), direct, "cached sched bytes differ");
        }
        other => panic!("unexpected repeat response {other:?}"),
    }
    // Spelling the *budgets* out at their defaults resolves to the same
    // canonical text too — budget knobs are part of the spec, and equal
    // resolved budgets must share the line, however they were written.
    let with_budgets = "broken budget=200000 steps=10000 mode=dfs";
    match client
        .query(QueryKind::Sched, with_budgets, &options)
        .unwrap()
    {
        Response::Ok { cached, result, .. } => {
            assert!(cached, "equal resolved budgets must share a cache line");
            assert_eq!(result.render(), direct, "cached sched bytes differ");
        }
        other => panic!("unexpected repeat response {other:?}"),
    }
    handle.shutdown();
}

/// The `scenario` query kind: a served scenario file returns the same
/// bytes as the direct `run_query_text` call, a repeat is served
/// from cache, and a respelled-but-canonically-equal file (alias
/// spelling, comments, implicit defaults, reordered words) lands on the
/// same cache line.
#[test]
fn served_scenario_results_are_byte_identical_to_direct_calls() {
    let handle = serve(local_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let options = QueryOptions::default();
    let text = "\
scenario tas-check
type builtin test_and_set
query classify expect=non-trivial
query witness expect=non-trivial
";
    let direct = wfc_service::run_query_text(QueryKind::Scenario, text, &options)
        .expect("direct scenario run")
        .render();
    assert!(
        direct.contains("\"schema\":\"wfc-scenario/v1\""),
        "{direct}"
    );
    assert!(direct.contains("\"pass\":true"), "{direct}");
    match client.query(QueryKind::Scenario, text, &options).unwrap() {
        Response::Ok { cached, result, .. } => {
            assert!(!cached, "first scenario query must compute fresh");
            assert_eq!(result.render(), direct, "served scenario bytes differ");
        }
        other => panic!("unexpected response {other:?}"),
    }
    // A respelled file — alias `tas`, comments, blank lines, the same
    // queries — canonicalizes identically, so it must hit the cache and
    // return the exact same document.
    let respelled = "\
# same scenario, spelled differently
scenario tas-check

type builtin tas
query classify expect=non-trivial
query witness expect=non-trivial
";
    match client
        .query(QueryKind::Scenario, respelled, &options)
        .unwrap()
    {
        Response::Ok { cached, result, .. } => {
            assert!(cached, "equal canonical scenarios must share a cache line");
            assert_eq!(result.render(), direct, "cached scenario bytes differ");
        }
        other => panic!("unexpected repeat response {other:?}"),
    }
    handle.shutdown();
}

/// Malformed scenario files come back as structured `parse-error`
/// frames whose message carries the parser's line/column diagnostic —
/// for each class of error the language rejects: unknown query kinds,
/// bad budget words, non-deterministic FSM transitions, and unreachable
/// FSM states.
#[test]
fn scenario_parse_errors_are_structured_on_the_wire() {
    let handle = serve(local_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let options = QueryOptions::default();
    let cases: &[(&str, &str, &str)] = &[
        (
            "unknown query kind",
            "scenario b\ntype builtin tas\nquery frobnicate\n",
            "unknown query kind",
        ),
        (
            "bad budget word",
            "scenario b\ntype builtin tas\nbudget zoom=3\nquery classify\n",
            "unknown budget key",
        ),
        (
            "non-deterministic fsm",
            "scenario b\ntype fsm\ntype t ports 1\nstates s u\ninvocations i\n\
             responses r\ndelta s 0 i -> u r\ndelta u 0 i -> u r\n\
             delta s * i -> s r\nend\nquery classify\n",
            "non-deterministic",
        ),
        (
            "unreachable fsm state",
            "scenario b\ntype fsm\ntype t ports 1\nstates s orphan\ninvocations i\n\
             responses r\ndelta s 0 i -> s r\ndelta orphan 0 i -> orphan r\n\
             end\nquery classify\n",
            "unreachable",
        ),
    ];
    for (what, text, needle) in cases {
        match client.query(QueryKind::Scenario, text, &options).unwrap() {
            Response::Error { code, message, .. } => {
                assert_eq!(code, "parse-error", "{what}");
                assert!(message.contains(needle), "{what}: {message}");
                assert!(message.contains("line "), "{what} names a line: {message}");
                assert!(
                    message.contains("column "),
                    "{what} names a column: {message}"
                );
            }
            other => panic!("{what}: unexpected {other:?}"),
        }
    }
    handle.shutdown();
}

/// Bad sched specs come back as structured `parse-error`s, and sched
/// budget overruns keep their quantities on the wire like every other
/// budget failure.
#[test]
fn sched_errors_are_structured_on_the_wire() {
    let handle = serve(local_config()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let options = QueryOptions::default();
    match client
        .query(QueryKind::Sched, "nonesuch mode=dfs", &options)
        .unwrap()
    {
        Response::Error { code, message, .. } => {
            assert_eq!(code, "parse-error");
            assert!(message.contains("nonesuch"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    match client
        .query(QueryKind::Sched, "srsw sleep=off budget=5", &options)
        .unwrap()
    {
        Response::Error {
            code, budget, used, ..
        } => {
            assert_eq!(code, "budget-exceeded");
            assert_eq!(budget, Some(5));
            assert_eq!(used, Some(5));
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

/// The disk tier makes results outlive the server: a fresh instance on
/// the same cache directory serves the same bytes without recomputing.
#[test]
fn disk_cache_survives_server_restart() {
    let dir = std::env::temp_dir().join(format!("wfc-svc-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tas = tas_text();
    let options = QueryOptions::default();

    let first = {
        let handle = serve(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..local_config()
        })
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let result = match client
            .query(QueryKind::AccessBounds, &tas, &options)
            .unwrap()
        {
            Response::Ok { cached, result, .. } => {
                assert!(!cached);
                result.render()
            }
            other => panic!("unexpected {other:?}"),
        };
        handle.shutdown();
        result
    };

    let handle = serve(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    match client
        .query(QueryKind::AccessBounds, &tas, &options)
        .unwrap()
    {
        Response::Ok { cached, result, .. } => {
            assert!(cached, "restart must serve from disk, not recompute");
            assert_eq!(result.render(), first, "disk tier changed the bytes");
        }
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replication keeps the byte-identity contract across nodes: a query
/// computed on node A and replicated to node B is served from B's
/// cache with exactly the bytes of the direct engine call.
#[test]
fn replicated_results_are_byte_identical_to_direct_calls() {
    use wfc_service::ReplConfig;
    let base = std::env::temp_dir().join(format!("wfc-svc-diff-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // Two nodes on pre-reserved loopback ports.
    let addrs: Vec<String> = {
        let listeners: Vec<std::net::TcpListener> = (0..2)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect()
    };
    let node = |i: usize| ServeConfig {
        addr: addrs[i].clone(),
        repl: Some(ReplConfig {
            node_id: i as u64 + 1,
            peers: vec![(2 - i as u64, addrs[1 - i].clone())],
            data_dir: base.join(format!("node{i}")),
            compact_threshold: 1024,
        }),
        ..local_config()
    };
    let a = serve(node(0)).unwrap();
    let b = serve(node(1)).unwrap();

    let tas = tas_text();
    let options = QueryOptions::default();
    let direct = wfc_service::run_query_text(QueryKind::Theorem5, &tas, &options)
        .unwrap()
        .render();
    let mut client_a = Client::connect_retry(addrs[0].as_str(), Duration::from_secs(10)).unwrap();
    match client_a.query(QueryKind::Theorem5, &tas, &options).unwrap() {
        Response::Ok { cached, result, .. } => {
            assert!(!cached, "node A computes fresh");
            assert_eq!(result.render(), direct, "node A bytes differ from direct");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Wait for node B to *apply* the replicated entry (visible in its
    // stats), then query it: the answer must be a cache hit — the
    // replicated entry, not B recomputing — with the direct bytes.
    let mut client_b = Client::connect_retry(addrs[1].as_str(), Duration::from_secs(10)).unwrap();
    wait_until("replication to node B", || {
        match client_b.query(QueryKind::Stats, "", &options).unwrap() {
            Response::Ok { result, .. } => result
                .get("repl")
                .and_then(|r| r.get("applied"))
                .and_then(|a| a.as_u64())
                .unwrap_or(0)
                .ge(&1),
            other => panic!("unexpected stats reply {other:?}"),
        }
    });
    match client_b.query(QueryKind::Theorem5, &tas, &options).unwrap() {
        Response::Ok { cached, result, .. } => {
            assert!(
                cached,
                "node B must serve the replicated entry, not recompute"
            );
            assert_eq!(result.render(), direct, "node B bytes differ from direct");
        }
        other => panic!("unexpected {other:?}"),
    }
    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

/// The reaper turns an expired per-request deadline into a structured
/// `deadline-exceeded` error: the deadline as `budget`, the elapsed
/// milliseconds as `used`, `wall-ms` as the resource, and a `partial`
/// progress snapshot of the exploration's work before the cut. The gate
/// holds the worker past its deadline to make the expiry deterministic.
#[test]
fn deadline_expiry_cancels_the_exploration() {
    let gate = WorkerGate::new();
    gate.close();
    let handle = serve(ServeConfig {
        workers: 1,
        request_timeout: Some(Duration::from_millis(50)),
        gate: Some(Arc::clone(&gate)),
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tas = tas_text();
    client
        .send(QueryKind::VerifyConsensus, &tas, &QueryOptions::default())
        .unwrap();
    wait_until("worker to hold at the gate", || gate.held() == 1);
    // The deadline was armed before the gate; let it lapse, give the
    // reaper (10 ms tick) time to flag the worker, then release.
    std::thread::sleep(Duration::from_millis(150));
    gate.open();
    match client.recv().unwrap() {
        Response::Error {
            code,
            budget,
            used,
            resource,
            partial,
            ..
        } => {
            assert_eq!(code, "deadline-exceeded");
            assert_eq!(budget, Some(50), "budget is the deadline in ms");
            assert!(used.unwrap() >= 50, "used is the elapsed ms: {used:?}");
            assert_eq!(resource.as_deref(), Some("wall-ms"));
            assert!(partial.is_some(), "deadline errors carry partial progress");
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    handle.shutdown();
}

/// The reaper reaches **sched** explorations too: the model checker
/// polls the same control plane at every schedule boundary, so an
/// in-flight DFS whose deadline lapses stops after the schedule it is
/// on and reports how far it got — the `partial` snapshot shows real,
/// resumable progress (exactly the one schedule that ran before the
/// first boundary poll saw the flag).
#[test]
fn deadline_expiry_cancels_sched_exploration_mid_run() {
    let gate = WorkerGate::new();
    gate.close();
    let handle = serve(ServeConfig {
        workers: 1,
        request_timeout: Some(Duration::from_millis(50)),
        gate: Some(Arc::clone(&gate)),
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .send(QueryKind::Sched, "srsw sleep=off", &QueryOptions::default())
        .unwrap();
    wait_until("worker to hold at the gate", || gate.held() == 1);
    std::thread::sleep(Duration::from_millis(150));
    gate.open();
    match client.recv().unwrap() {
        Response::Error {
            code,
            budget,
            used,
            resource,
            partial,
            ..
        } => {
            assert_eq!(code, "deadline-exceeded");
            assert_eq!(budget, Some(50));
            assert!(used.unwrap() >= 50, "{used:?}");
            assert_eq!(resource.as_deref(), Some("wall-ms"));
            let partial = partial.expect("sched deadline errors carry partial progress");
            assert_eq!(
                partial.schedules, 1,
                "the cut lands at the first boundary after the flag"
            );
            assert!(partial.steps > 0, "the completed schedule took steps");
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    handle.shutdown();
}
