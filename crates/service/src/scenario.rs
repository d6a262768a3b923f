//! Scenario execution: lowering `wfc-scenario` files onto the shared
//! query path.
//!
//! The scenario crate owns the language — parsing, canonicalization,
//! lowering, result-document assembly. This module owns nothing but the
//! glue: each [`LoweredQuery`] is dispatched onto the **same**
//! query functions ([`run_query_with_protocol`](crate::run_query_with_protocol),
//! [`run_sched_with`]) the direct CLI subcommands and the server workers
//! use, which is what makes a scenario's per-query `result` objects
//! byte-identical to standalone `wfc classify`/`wfc sched`/`wfc query`
//! runs of the same inputs. The one difference is that a scenario's
//! exploration queries read one shared protocol pass instead of each
//! exploring the protocol again.

use std::time::Duration;

use wfc_obs::json::Json;
use wfc_scenario::{LoweredQuery, Scenario};
use wfc_spec::control::{CancelToken, Wall};

use crate::analysis::{
    explore_options, parse_query_type, parse_sched_spec, protocol_by_name, run_query_on,
    run_sched_with, ProtocolEntry, ProtocolPass, QueryError,
};
use crate::wire::{QueryKind, QueryOptions};

/// The sooner-expiring of two optional deadlines: a scenario's
/// `wall-ms` budget tightens the request deadline, never loosens it.
fn tighter(a: Option<Wall>, b: Option<Wall>) -> Option<Wall> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if x.deadline <= y.deadline { x } else { y }),
        (x, y) => x.or(y),
    }
}

/// Parses and runs a scenario file — the code path behind
/// `wfc scenario run` and `wfc query scenario`.
///
/// # Errors
///
/// [`QueryError::Parse`] with the scenario parser's `line, column`
/// diagnostic embedded in the message, or whatever the lowered queries
/// report. An **expectation** failure is not an error: it lands in the
/// result document as `pass: false`.
pub fn run_scenario_text(text: &str, options: &QueryOptions) -> Result<Json, QueryError> {
    run_scenario_text_with(text, options, CancelToken::NONE, None)
}

/// [`run_scenario_text`] under external control (the serving layer's
/// cancellation token and wall-clock deadline).
///
/// # Errors
///
/// As [`run_scenario_text`].
pub fn run_scenario_text_with(
    text: &str,
    options: &QueryOptions,
    cancel: CancelToken,
    wall: Option<Wall>,
) -> Result<Json, QueryError> {
    let sc = wfc_scenario::parse_scenario(text).map_err(|e| QueryError::Parse(e.to_string()))?;
    run_scenario_with(&sc, options, cancel, wall)
}

/// Runs a parsed scenario to its `wfc-scenario/v1` result document.
///
/// The scenario's `budget` directive overrides the request-level
/// exploration budgets (`configs=` → `max_configs`, `depth=` →
/// `max_depth`; `schedules=`/`steps=` were already merged into sched
/// specs by [`Scenario::lower`]) and `wall-ms=` imposes a whole-run
/// deadline, tightened against the request's own.
///
/// # Errors
///
/// The first lowered query to fail aborts the run with its
/// [`QueryError`]; expectation failures are data, not errors.
pub fn run_scenario_with(
    sc: &Scenario,
    options: &QueryOptions,
    cancel: CancelToken,
    wall: Option<Wall>,
) -> Result<Json, QueryError> {
    let protocol = match &sc.protocol {
        Some(name) => Some(protocol_by_name(name).ok_or_else(|| {
            QueryError::Unsupported(format!(
                "no consensus protocol is registered under the name `{name}` \
                 (known: cas_announce)"
            ))
        })?),
        None => None,
    };
    run_scenario_on(sc, options, cancel, wall, protocol)
}

/// [`run_scenario_with`] with the scenario's protocol already resolved.
/// Its exploration queries share one [`ProtocolPass`], so the protocol's
/// trees are built and explored once per run.
fn run_scenario_on(
    sc: &Scenario,
    options: &QueryOptions,
    cancel: CancelToken,
    wall: Option<Wall>,
    protocol: Option<ProtocolEntry>,
) -> Result<Json, QueryError> {
    let mut effective = *options;
    if let Some(c) = sc.budget.configs {
        effective = effective.with_max_configs(usize::try_from(c).unwrap_or(usize::MAX));
    }
    if let Some(d) = sc.budget.depth {
        effective = effective.with_max_depth(usize::try_from(d).unwrap_or(usize::MAX));
    }
    let wall = tighter(
        wall,
        sc.budget
            .wall_ms
            .map(|ms| Wall::expires_in(Duration::from_millis(ms))),
    );
    let mut pass = ProtocolPass::default();
    let mut results = Vec::with_capacity(sc.queries.len());
    for step in sc.lower() {
        let result = match step {
            LoweredQuery::Type { kind, type_text } => {
                let kind = QueryKind::parse(&kind)
                    .expect("the scenario parser only admits engine query kinds");
                let ty = parse_query_type(&type_text)?;
                let mut opts = explore_options(&effective).with_cancel(cancel);
                opts.budget.wall = wall;
                run_query_on(kind, &ty, &opts, protocol, &mut pass)?
            }
            LoweredQuery::Sched { spec_text } => {
                run_sched_with(&parse_sched_spec(&spec_text)?, cancel, wall)?
            }
        };
        results.push(result);
    }
    Ok(sc.result_doc(&results))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use wfc_consensus::ConsensusSystem;

    use super::*;
    use crate::analysis::run_query_with_protocol;

    /// Systems built by [`counting_cas_announce`]; only the test below
    /// builds with it.
    static BUILDS: AtomicUsize = AtomicUsize::new(0);

    fn counting_cas_announce(inputs: &[bool]) -> ConsensusSystem {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        wfc_consensus::cas_announce_consensus_system(inputs)
    }

    /// A scenario holding all three exploration queries builds (and so
    /// explores) each of the protocol's `2^n` systems once, and each
    /// query's result is the one the query reports on its own.
    #[test]
    fn a_scenario_explores_its_protocol_once() {
        let sc = wfc_scenario::parse_scenario(
            "scenario count\ntype builtin cas\nquery access-bounds\n\
             query theorem5 expect=holds\nquery verify-consensus expect=holds\n",
        )
        .unwrap();
        let entry = ProtocolEntry {
            label: "cas+announce registers",
            n: 3,
            build: counting_cas_announce,
        };
        let options = QueryOptions::default();
        let doc = run_scenario_on(&sc, &options, CancelToken::NONE, None, Some(entry)).unwrap();
        assert_eq!(BUILDS.load(Ordering::Relaxed), 1 << 3, "one build per tree");
        assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));

        let ty = parse_query_type(&wfc_spec::text::format_type(&sc.resolved)).unwrap();
        let Some(Json::Arr(queries)) = doc.get("queries") else {
            panic!("a result document lists its queries: {}", doc.render());
        };
        for (kind, q) in [
            QueryKind::AccessBounds,
            QueryKind::Theorem5,
            QueryKind::VerifyConsensus,
        ]
        .into_iter()
        .zip(queries)
        {
            let alone = run_query_with_protocol(kind, &ty, &explore_options(&options), Some(entry))
                .unwrap();
            assert_eq!(q.get("result"), Some(&alone), "{kind:?}");
        }
    }
}
