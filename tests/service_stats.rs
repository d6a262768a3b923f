//! Acceptance tests for live service introspection: the `stats` query
//! must answer inline (never queued, batched, coalesced, or cached)
//! with a schema-valid `wfc-stats/v1` snapshot; the flight-recorder
//! ring must wrap and keep the newest records; per-request stage
//! stamps must be monotone; and with observability off the whole
//! subsystem must cost nothing (empty registry, no ring allocation).
//!
//! The tests in this binary toggle the process-global observability
//! flag, so they serialize on one mutex and restore the flag on exit.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use wfc_obs::json::Json;
use wfc_service::{
    serve, validate_stats_json, Client, QueryKind, QueryOptions, Response, ServeConfig, WorkerGate,
    STATS_SCHEMA,
};
use wfc_spec::stage::Stage;
use wfc_spec::text::format_type;

static OBS_FLAG: Mutex<()> = Mutex::new(());

/// Holds the obs-flag mutex, forces the flag to `on`, drains the
/// global registry, and restores the previous flag state on drop.
struct ObsSession {
    _guard: MutexGuard<'static, ()>,
    was_on: bool,
}

impl ObsSession {
    fn with_obs(on: bool) -> ObsSession {
        let guard = OBS_FLAG.lock().unwrap_or_else(|e| e.into_inner());
        let was_on = wfc_obs::enabled();
        wfc_obs::set_enabled(true);
        // `collect` resets the registry, isolating this test from
        // whatever counters earlier tests in this process recorded.
        let _ = wfc_obs::report::RunReport::collect("drain");
        wfc_obs::set_enabled(on);
        ObsSession {
            _guard: guard,
            was_on,
        }
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        wfc_obs::set_enabled(self.was_on);
    }
}

fn tas_text() -> String {
    format_type(&wfc_spec::canonical::test_and_set(2))
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One `stats` round trip; asserts the reply is an uncached `Ok`
/// carrying a schema-valid snapshot.
fn fetch_stats(client: &mut Client) -> Json {
    match client
        .query(QueryKind::Stats, "", &QueryOptions::default())
        .expect("stats round trip")
    {
        Response::Ok { cached, result, .. } => {
            assert!(!cached, "stats must never be served from the cache");
            validate_stats_json(&result).expect("schema-valid stats snapshot");
            result
        }
        other => panic!("stats reply was not Ok: {other:?}"),
    }
}

fn u64_at(doc: &Json, path: &[&str]) -> u64 {
    let mut cursor = doc;
    for key in path {
        cursor = cursor.get(key).unwrap_or(&Json::Null);
    }
    cursor.as_u64().unwrap_or_else(|| {
        panic!("expected u64 at {path:?}");
    })
}

#[test]
fn stats_snapshots_are_valid_distinct_and_fill_stage_histograms() {
    let _obs = ObsSession::with_obs(true);
    let handle = serve(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tas = tas_text();
    for _ in 0..5 {
        let reply = client
            .query(QueryKind::Classify, &tas, &QueryOptions::default())
            .unwrap();
        assert!(matches!(reply, Response::Ok { .. }));
    }

    let first = fetch_stats(&mut client);
    let second = fetch_stats(&mut client);
    assert_eq!(
        first.get("schema").and_then(Json::as_str),
        Some(STATS_SCHEMA)
    );
    // Back-to-back identical stats requests must not coalesce into one
    // answer: each snapshot is taken fresh, so time and the request
    // counter both advance between them.
    assert!(
        u64_at(&second, &["uptime_us"]) > u64_at(&first, &["uptime_us"]),
        "each stats request takes a fresh snapshot"
    );
    assert!(
        u64_at(&second, &["server", "requests_accepted"])
            > u64_at(&first, &["server", "requests_accepted"]),
        "the first stats request itself is counted by the second"
    );

    // The classify round trips above were finalized before the stats
    // frame was even decoded (same IO thread), so every interval
    // histogram has samples and the telescoping identity holds.
    let stages = second.get("stages").and_then(Json::as_obj).unwrap();
    let mut interval_mean_sum = 0;
    let mut total_mean = 0;
    for name in [
        "decode", "admit", "queue", "engine", "respond", "flush", "total",
    ] {
        let hist = stages
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
            .unwrap_or_else(|| panic!("stage histogram `{name}` missing"));
        assert!(u64_at(hist, &["count"]) >= 5, "stage `{name}` has samples");
        if name == "total" {
            total_mean = u64_at(hist, &["mean"]);
        } else {
            interval_mean_sum += u64_at(hist, &["mean"]);
        }
    }
    // The six intervals telescope over accepted → bytes-flushed, so
    // their means sum back to the total mean up to integer truncation
    // (≤ 1µs per interval) and the handful of in-flight traces that
    // appear in some histograms but not yet others.
    assert!(
        interval_mean_sum <= total_mean + 6
            || interval_mean_sum.abs_diff(total_mean) * 5 <= total_mean,
        "interval means ({interval_mean_sum}µs) inconsistent with total mean ({total_mean}µs)"
    );

    handle.shutdown();
}

#[test]
fn stats_answers_inline_while_every_worker_is_held() {
    let _obs = ObsSession::with_obs(true);
    let gate = WorkerGate::new();
    gate.close();
    let handle = serve(ServeConfig {
        workers: 2,
        gate: Some(gate.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let classify_id = client
        .send(QueryKind::Classify, &tas_text(), &QueryOptions::default())
        .unwrap();
    let stats_id = client
        .send(QueryKind::Stats, "", &QueryOptions::default())
        .unwrap();

    // With both workers parked at the gate, the classify cannot finish;
    // the stats response arriving first proves it bypassed the batch,
    // queue, and worker pool entirely.
    let reply = client.recv().expect("stats response with workers held");
    assert_eq!(reply.id(), stats_id, "stats overtook the gated classify");
    let Response::Ok { cached, result, .. } = reply else {
        panic!("stats reply was not Ok");
    };
    assert!(!cached);
    validate_stats_json(&result).unwrap();

    gate.open();
    let reply = client.recv().expect("classify response after the gate");
    assert_eq!(reply.id(), classify_id);
    handle.shutdown();
}

#[test]
fn flight_ring_wraps_and_keeps_the_newest_monotone_records() {
    let _obs = ObsSession::with_obs(true);
    let handle = serve(ServeConfig {
        workers: 2,
        flight_capacity: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tas = tas_text();
    for _ in 0..12 {
        client
            .query(QueryKind::Classify, &tas, &QueryOptions::default())
            .unwrap();
    }

    // Traces finalize when their response bytes clear the socket, a
    // hair after the client reads them; poll until the ring has seen
    // all twelve.
    let mut snapshot = Json::Null;
    wait_until("twelve finalized flight records", || {
        snapshot = fetch_stats(&mut client);
        u64_at(&snapshot, &["flight", "recorded"]) >= 12
    });
    let flight = snapshot.get("flight").unwrap();
    assert_eq!(u64_at(flight, &["capacity"]), 4);
    let records = flight.get("records").and_then(Json::as_arr).unwrap();
    assert!(
        !records.is_empty() && records.len() <= 4,
        "ring overwrote, never grew"
    );

    let ids: Vec<u64> = records.iter().map(|r| u64_at(r, &["id"])).collect();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "records sorted by trace id"
    );
    assert!(
        *ids.last().unwrap() >= 11,
        "the ring keeps the newest records (tail id {} of ≥ 12)",
        ids.last().unwrap()
    );

    // Stage stamps inside every surviving record walk forward in
    // pipeline order: each is elapsed-µs since accept, so a later
    // stage may never report an earlier time.
    for record in records {
        let stages = record.get("stages").and_then(Json::as_obj).unwrap();
        let mut last = 0;
        for stage in Stage::ALL {
            if let Some((_, v)) = stages.iter().find(|(n, _)| n == stage.as_str()) {
                let us = v.as_u64().unwrap();
                assert!(
                    us >= last,
                    "stage `{}` regressed in {record:?}",
                    stage.as_str()
                );
                last = us;
            }
        }
    }
    handle.shutdown();
}

#[test]
fn disabled_observability_costs_nothing() {
    let _obs = ObsSession::with_obs(false);
    let handle = serve(ServeConfig {
        workers: 2,
        flight_capacity: 256,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..3 {
        client
            .query(QueryKind::Classify, &tas_text(), &QueryOptions::default())
            .unwrap();
    }

    let doc = fetch_stats(&mut client);
    assert_eq!(
        doc.get("server").unwrap().get("obs_enabled"),
        Some(&Json::Bool(false))
    );
    // Zero-cost-when-off: no metric was recorded anywhere, no trace
    // was allocated, and the ring itself was never even created
    // (capacity 0 despite the configured 256).
    for section in ["counters", "gauges", "histograms", "stages"] {
        assert_eq!(
            doc.get(section).and_then(Json::as_obj).map(<[_]>::len),
            Some(0),
            "`{section}` must be empty with observability off"
        );
    }
    assert_eq!(u64_at(&doc, &["flight", "capacity"]), 0);
    assert_eq!(u64_at(&doc, &["flight", "recorded"]), 0);
    assert_eq!(
        doc.get("flight")
            .unwrap()
            .get("records")
            .and_then(Json::as_arr)
            .map(<[_]>::len),
        Some(0)
    );
    // The server still counts what it needs for its own accounting.
    assert!(u64_at(&doc, &["server", "requests_accepted"]) >= 4);
    handle.shutdown();
}

/// Scenario queries ride the existing pipeline end to end: `wfc top`
/// and the stats surface need no changes for them, and with
/// observability off a served scenario adds **zero** registry entries —
/// the same zero-cost-when-off contract every other kind honors.
#[test]
fn scenario_queries_add_no_registry_entries_with_obs_off() {
    let _obs = ObsSession::with_obs(false);
    let handle = serve(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let text = "\
scenario stats-probe
type builtin tas
query classify expect=non-trivial
query witness expect=non-trivial
";
    match client
        .query(QueryKind::Scenario, text, &QueryOptions::default())
        .unwrap()
    {
        Response::Ok { result, .. } => {
            assert_eq!(result.get("pass"), Some(&Json::Bool(true)));
        }
        other => panic!("unexpected scenario response {other:?}"),
    }
    let doc = fetch_stats(&mut client);
    for section in ["counters", "gauges", "histograms", "stages"] {
        assert_eq!(
            doc.get(section).and_then(Json::as_obj).map(<[_]>::len),
            Some(0),
            "`{section}` must stay empty after a scenario query with obs off"
        );
    }
    handle.shutdown();
}
