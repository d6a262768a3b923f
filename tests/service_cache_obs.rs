//! Cache-effectiveness test, proven through `wfc-obs` counters rather
//! than timing: a repeated identical query must be answered with **zero
//! new explorer work** — no configurations interned, no interner
//! traffic, no witness searches.
//!
//! This lives in its own integration-test binary because it flips the
//! process-global observability switch and snapshots/resets the global
//! metrics registry; sharing a process with the other service tests
//! would let their servers write into the registry mid-assertion.

use wait_free_consensus::prelude::*;
use wfc_service::{serve, Client, QueryKind, QueryOptions, Response, ServeConfig};
use wfc_spec::text::format_type;

fn counter(snapshot: &wfc_obs::metrics::Snapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn repeated_query_does_zero_explorer_work() {
    wfc_obs::set_enabled(true);
    let registry = wfc_obs::metrics::Registry::global();
    registry.reset();

    let handle = serve(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let tas = format_type(&spec::canonical::test_and_set(2));
    let options = QueryOptions::default();

    let fresh = match client
        .query(QueryKind::VerifyConsensus, &tas, &options)
        .unwrap()
    {
        Response::Ok { cached, result, .. } => {
            assert!(!cached);
            result.render()
        }
        other => panic!("unexpected {other:?}"),
    };
    let after_first = registry.snapshot();
    assert!(
        counter(&after_first, "explorer.configs") > 0,
        "the fresh query must actually explore: {after_first:?}"
    );
    assert_eq!(counter(&after_first, "service.cache.mem.misses"), 1);

    // Clean slate, then repeat the identical query.
    registry.reset();
    let cached = match client
        .query(QueryKind::VerifyConsensus, &tas, &options)
        .unwrap()
    {
        Response::Ok { cached, result, .. } => {
            assert!(cached, "repeat must be served from cache");
            result.render()
        }
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(cached, fresh, "cached bytes differ from fresh computation");

    let after_second = registry.snapshot();
    for name in [
        "explorer.configs",
        "explorer.edges",
        "explorer.terminals",
        "explorer.interner.hits",
        "explorer.interner.misses",
        "spec.witness_searches",
        "pool.runs",
    ] {
        assert_eq!(
            counter(&after_second, name),
            0,
            "cached query performed explorer work ({name}): {after_second:?}"
        );
    }
    assert_eq!(counter(&after_second, "service.cache.mem.hits"), 1);
    assert_eq!(counter(&after_second, "service.cache.mem.misses"), 0);

    // A fresh access-bounds miss runs the protocol pass; the registry
    // must still hold what the server recorded for it afterwards.
    registry.reset();
    match client
        .query(QueryKind::AccessBounds, &tas, &options)
        .unwrap()
    {
        Response::Ok { cached, .. } => assert!(!cached),
        other => panic!("unexpected {other:?}"),
    }
    let after_bounds = registry.snapshot();
    assert_eq!(
        counter(&after_bounds, "service.cache.mem.misses"),
        1,
        "the access-bounds miss wiped the registry: {after_bounds:?}"
    );
    assert!(
        counter(&after_bounds, "explorer.configs") > 0,
        "the access-bounds miss wiped the registry: {after_bounds:?}"
    );

    handle.shutdown();
    registry.reset();
    wfc_obs::set_enabled(false);
}
