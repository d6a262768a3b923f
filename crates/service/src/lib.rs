//! # `wfc-service` — a concurrent, cache-fronted analysis server
//!
//! The reproduction's pipeline — classification, witnesses, Section 4.2
//! access bounds, the Theorem 5 certificate, and full consensus
//! verification — behind a versioned wire protocol, so repeated and
//! concurrent analyses share work instead of re-exploring execution
//! trees.
//!
//! Everything is `std`-only, like the rest of the workspace:
//!
//! * [`wire`] — the `wfc-svc/v1` protocol: length-prefixed JSON frames,
//!   [`Request`]/[`Response`], pipelining by id, structured `busy` and
//!   budget errors.
//! * [`analysis`] — [`run_query`], the single code path shared by the
//!   CLI subcommands and the server workers (bit-identical results by
//!   construction), plus the canonical-protocol registry.
//! * [`cache`] — [`cache_key`] over `wfc_spec::hash` content hashes,
//!   the sharded in-memory LRU, the append-only disk tier, and
//!   single-flight deduplication.
//! * [`server`] — a readiness-driven frontend (one IO thread
//!   multiplexing every socket over a std-only `poll(2)` wrapper, so
//!   idle connections cost zero threads), a bounded job queue (one job
//!   per request) with explicit backpressure, a fixed worker pool, and
//!   a deadline reaper driving the unified control plane
//!   ([`wfc_spec::control`](wfc_spec::control)) — every query kind,
//!   sched included, cancels mid-run and answers `deadline-exceeded`
//!   with partial progress.
//! * [`repl_link`] — the service half of `wfc-repl` clustering: peer
//!   links as extra registrations on the same IO thread (outbound
//!   frames ride dialed sockets, inbound repl frames arrive on
//!   ordinary accepted connections), a dialer with capped backoff,
//!   and recovery/catch-up wiring into the shared [`ResultCache`].
//! * [`client`] — a blocking client with split send/receive for
//!   pipelining, address failover, and capped connect retries.
//! * [`loadgen`] — open/closed-loop traffic generation against a
//!   running server, reporting latency percentiles and throughput as a
//!   `BENCH_service` document.
//! * [`stats`] — live introspection: per-request stage traces, the
//!   flight-recorder ring of recently completed requests, and the
//!   `wfc-stats/v1` snapshot ([`validate_stats_json`]) that a running
//!   server answers inline for the `stats` query kind.
//!
//! ## Example: in-process round trip
//!
//! ```
//! use wfc_service::{serve, Client, QueryKind, QueryOptions, Response, ServeConfig};
//!
//! let handle = serve(ServeConfig::default())?;
//! let mut client = Client::connect(handle.addr())?;
//! let tas = wfc_spec::text::format_type(&wfc_spec::canonical::test_and_set(2));
//! let reply = client.query(QueryKind::Classify, &tas, &QueryOptions::default())?;
//! match reply {
//!     Response::Ok { result, .. } => {
//!         assert_eq!(result.get("case").and_then(|c| c.as_u64()), Some(2));
//!     }
//!     other => panic!("unexpected reply: {other:?}"),
//! }
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod cache;
pub mod client;
mod conn;
pub mod loadgen;
mod poller;
mod queue;
pub mod repl_link;
pub mod scenario;
pub mod server;
pub mod stats;
pub mod wire;

pub use analysis::{
    explore_options, parse_query_type, parse_sched_spec, protocol_by_name, run_query,
    run_query_text, run_query_text_with, run_query_with_protocol, run_sched, run_sched_with,
    QueryError,
};
pub use cache::{
    cache_key, scenario_cache_key, sched_cache_key, validate_cache_json, CacheOutcome, ResultCache,
    CACHE_SCHEMA,
};
pub use client::Client;
pub use repl_link::ReplConfig;
pub use scenario::{run_scenario_text, run_scenario_text_with, run_scenario_with};
pub use server::{accept_backoff, serve, ServeConfig, ServerHandle, WorkerGate};
pub use stats::{validate_stats_json, STATS_SCHEMA};
pub use wire::{
    validate_response_json, FrameBuffer, QueryKind, QueryOptions, Request, Response, WireError,
    PROTO,
};
