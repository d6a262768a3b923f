//! The shared query engine behind `wfc serve`, `wfc query`, the
//! scenario runner and the direct CLI subcommands.
//!
//! Every request kind parses into one [`Query`] with one identity (the
//! cache's input), one budget rule and one dispatch, so a direct
//! library call, a `wfc access-bounds` invocation and a served request
//! produce **byte-identical** result documents — the property the
//! differential tests pin down. Result documents are [`Json`] values;
//! `Json::render` is deterministic (ordered keys, canonical number
//! formatting), so byte-level equality of rendered results is
//! meaningful.

use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::Duration;

use wfc_consensus::{ConsensusSystem, ProtocolRuns};
use wfc_core::{AccessBounds, DeriveError, TransformError};
use wfc_explorer::{ExploreOptions, ExplorerError};
use wfc_obs::json::Json;
use wfc_scenario::{LoweredQuery, Scenario};
use wfc_sched::{SchedError, SchedSpec};
use wfc_spec::control::{CancelToken, Exhausted, Progress, Resource, Wall};
use wfc_spec::text::format_type;
use wfc_spec::FiniteType;

use crate::wire::{QueryKind, QueryOptions};

/// A query failure, structured so the wire layer can preserve the
/// control-plane quantities of
/// [`Exhausted`](wfc_spec::control::Exhausted) — resource, budget, used
/// and the partial [`Progress`] snapshot — instead of flattening them
/// into a message string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The type text did not parse.
    Parse(String),
    /// The query is not defined for this type (nondeterministic type
    /// under `classify`, no registered protocol for the exploration
    /// queries, trivial type under `theorem5`, …).
    Unsupported(String),
    /// The analysis itself failed (not wait-free, SRSW violation, …).
    Analysis(String),
    /// A control-plane budget axis fired — a work budget
    /// (`budget-exceeded` on the wire) or the wall-clock deadline
    /// (`deadline-exceeded`). Carries the engine's
    /// [`Exhausted`](wfc_spec::control::Exhausted) unchanged.
    Exhausted(Exhausted),
    /// The request's cancellation token fired (server shutdown), with
    /// the partial progress at the abort.
    Cancelled {
        /// Work completed when the token was observed.
        progress: Progress,
    },
}

impl QueryError {
    /// The stable machine-readable code for the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            QueryError::Parse(_) => "parse-error",
            QueryError::Unsupported(_) => "unsupported",
            QueryError::Analysis(_) => "analysis-error",
            QueryError::Exhausted(e) if e.resource == Resource::WallMs => "deadline-exceeded",
            QueryError::Exhausted(_) => "budget-exceeded",
            QueryError::Cancelled { .. } => "cancelled",
        }
    }

    /// For `budget-exceeded`/`deadline-exceeded`: the `(budget, used)`
    /// pair.
    pub fn budget_used(&self) -> Option<(u64, u64)> {
        match self {
            QueryError::Exhausted(e) => Some((e.budget, e.used)),
            _ => None,
        }
    }

    /// The wire slug of the exhausted resource, if any.
    pub fn resource(&self) -> Option<&'static str> {
        match self {
            QueryError::Exhausted(e) => Some(e.resource.as_str()),
            _ => None,
        }
    }

    /// The partial [`Progress`] snapshot a preempted query reports, if
    /// this error carries one.
    pub fn partial(&self) -> Option<Progress> {
        match self {
            QueryError::Exhausted(e) => Some(e.progress),
            QueryError::Cancelled { progress } => Some(*progress),
            _ => None,
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(m) => write!(f, "cannot parse type: {m}"),
            QueryError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            QueryError::Analysis(m) => write!(f, "analysis failed: {m}"),
            QueryError::Exhausted(e) => write!(f, "{e}"),
            QueryError::Cancelled { .. } => write!(f, "query cancelled before completion"),
        }
    }
}

impl std::error::Error for QueryError {}

fn from_explorer(e: ExplorerError) -> QueryError {
    match e {
        ExplorerError::Exhausted(e) => QueryError::Exhausted(e),
        ExplorerError::Cancelled { progress } => QueryError::Cancelled { progress },
        other => QueryError::Analysis(other.to_string()),
    }
}

fn from_transform(e: TransformError) -> QueryError {
    match e {
        TransformError::Explore(inner) => from_explorer(inner),
        other => QueryError::Analysis(other.to_string()),
    }
}

fn from_sched(e: SchedError) -> QueryError {
    match e {
        SchedError::Exhausted(e) => QueryError::Exhausted(e),
        SchedError::Cancelled { progress } => QueryError::Cancelled { progress },
        SchedError::Parse(m) => QueryError::Parse(m),
        other => QueryError::Analysis(other.to_string()),
    }
}

fn from_derive(e: DeriveError) -> QueryError {
    match e {
        DeriveError::Trivial { type_name } => QueryError::Unsupported(format!(
            "type `{type_name}` is trivial; no one-use bit or register elimination exists"
        )),
        DeriveError::Analysis(inner) => QueryError::Unsupported(inner.to_string()),
    }
}

/// A consensus protocol registered for a canonical type, used by the
/// exploration queries (`access-bounds`, `theorem5`,
/// `verify-consensus`).
#[derive(Clone, Copy)]
pub struct ProtocolEntry {
    /// Human-readable implementation label (e.g. `tas+registers`).
    pub label: &'static str,
    /// The process count the protocol is built for.
    pub n: usize,
    /// Builds the model-checkable system for one input vector.
    pub build: fn(&[bool]) -> ConsensusSystem,
}

impl fmt::Debug for ProtocolEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolEntry")
            .field("label", &self.label)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

fn tas2(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::tas_consensus_system([i[0], i[1]])
}
fn queue2(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::queue_consensus_system([i[0], i[1]])
}
fn stack2(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::stack_consensus_system([i[0], i[1]])
}
fn swap2(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::swap_consensus_system([i[0], i[1]])
}
fn fetch_add2(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::fetch_add_consensus_system([i[0], i[1]])
}
fn cas2(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::cas_consensus_system(i)
}
fn sticky2(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::sticky_consensus_system(i)
}
fn shift2_2(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::shift2_consensus_system([i[0], i[1]])
}
fn mpr2_2(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::mpr2_consensus_system([i[0], i[1]])
}
fn cas_announce3(i: &[bool]) -> ConsensusSystem {
    wfc_consensus::cas_announce_consensus_system(i)
}

/// Looks up the consensus implementation registered for a type, by the
/// canonical naming convention of `wfc_spec::canonical` (`queue1x2`,
/// `fetch_and_add2`, …). Returns `None` for types without a registered
/// protocol — the exploration queries report those as unsupported.
pub fn protocol_for_type(ty: &FiniteType) -> Option<ProtocolEntry> {
    let name = ty.name();
    let entry = |label, build| Some(ProtocolEntry { label, n: 2, build });
    if name == "test_and_set" {
        entry("tas+registers", tas2)
    } else if name.starts_with("queue") {
        entry("queue+registers", queue2)
    } else if name.starts_with("stack") {
        entry("stack+registers", stack2)
    } else if name.starts_with("swap") {
        entry("swap+registers", swap2)
    } else if name.starts_with("fetch_and_add") {
        entry("fetch&add+registers", fetch_add2)
    } else if name.starts_with("compare_and_swap") {
        entry("cas (register-free)", cas2)
    } else if name == "sticky_bit" {
        entry("sticky+registers", sticky2)
    } else if name == "shift2" {
        entry("shift2+registers", shift2_2)
    } else if name == "mpr2" {
        entry("mpr2+registers", mpr2_2)
    } else {
        None
    }
}

/// Looks up a consensus implementation by **protocol name** rather than
/// by type — the override a scenario's `protocol NAME` directive selects
/// when the default type-keyed registry entry is not the implementation
/// under study (e.g. the 3-process `cas_announce` stress protocol for
/// the `compare_and_swap` type).
pub fn protocol_by_name(name: &str) -> Option<ProtocolEntry> {
    match name {
        "cas_announce" => Some(ProtocolEntry {
            label: "cas+announce registers",
            n: 3,
            build: cas_announce3,
        }),
        _ => None,
    }
}

/// `over`, or else the protocol registered for `ty`.
fn resolve_protocol(
    ty: &FiniteType,
    over: Option<ProtocolEntry>,
) -> Result<ProtocolEntry, QueryError> {
    over.or_else(|| protocol_for_type(ty)).ok_or_else(|| {
        QueryError::Unsupported(format!(
            "no consensus protocol is registered for type `{}`; exploration \
             queries support the canonical zoo protocols (test_and_set, \
             queue*, stack*, swap*, fetch_and_add*, compare_and_swap*, \
             sticky_bit, shift2, mpr2)",
            ty.name()
        ))
    })
}

fn depths_json(depths: &[usize]) -> Json {
    Json::Arr(depths.iter().map(|&d| Json::U64(d as u64)).collect())
}

fn verdict_json(v: &wfc_consensus::ProtocolVerdict) -> Json {
    Json::obj(vec![
        ("D", Json::U64(v.d_max as u64)),
        ("depth_per_tree", depths_json(&v.depth_per_tree)),
        ("total_configs", Json::U64(v.total_configs as u64)),
        ("agreement", Json::Bool(v.agreement)),
        ("validity", Json::Bool(v.validity)),
        ("holds", Json::Bool(v.holds())),
    ])
}

fn bounds_json(ty: &FiniteType, label: &str, n: usize, b: &wfc_core::AccessBounds) -> Json {
    let registers = b
        .registers
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("obj", Json::U64(r.obj as u64)),
                ("r_b", Json::U64(r.reads as u64)),
                ("w_b", Json::U64(r.writes as u64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("type", Json::Str(ty.name().to_owned())),
        ("protocol", Json::Str(label.to_owned())),
        ("n", Json::U64(n as u64)),
        ("D", Json::U64(b.d_max as u64)),
        ("depth_per_tree", depths_json(&b.depth_per_tree)),
        ("total_configs", Json::U64(b.total_configs as u64)),
        ("registers", Json::Arr(registers)),
        (
            "one_use_bits_required",
            Json::U64(b.one_use_bits_required() as u64),
        ),
    ])
}

fn recipe_json(ty: &FiniteType, recipe: &wfc_core::OneUseRecipe) -> Json {
    let probes = recipe
        .reader_seq()
        .iter()
        .map(|&i| Json::Str(ty.invocation_name(i).to_owned()))
        .collect();
    Json::obj(vec![
        ("init", Json::Str(ty.state_name(recipe.init()).to_owned())),
        (
            "writer_port",
            Json::U64(recipe.writer_port().index() as u64),
        ),
        (
            "writer_inv",
            Json::Str(ty.invocation_name(recipe.writer_inv()).to_owned()),
        ),
        (
            "reader_port",
            Json::U64(recipe.reader_port().index() as u64),
        ),
        ("reader_seq", Json::Arr(probes)),
        (
            "unwritten_last",
            Json::Str(ty.response_name(recipe.unwritten_last()).to_owned()),
        ),
        ("read_cost", Json::U64(recipe.read_cost() as u64)),
    ])
}

fn classify(ty: &Arc<FiniteType>) -> Result<Json, QueryError> {
    if !ty.is_deterministic() {
        return Err(QueryError::Unsupported(format!(
            "type `{}` is nondeterministic: Theorem 5 case 3 needs a \
             2-consensus implementation, not a classification",
            ty.name()
        )));
    }
    let doc = match wfc_core::classify_deterministic(ty).map_err(from_derive)? {
        wfc_core::Theorem5Classification::Trivial => vec![
            ("type", Json::Str(ty.name().to_owned())),
            ("case", Json::U64(1)),
            ("classification", Json::Str("trivial".to_owned())),
            ("recipe", Json::Null),
        ],
        wfc_core::Theorem5Classification::NonTrivial(recipe) => vec![
            ("type", Json::Str(ty.name().to_owned())),
            ("case", Json::U64(2)),
            ("classification", Json::Str("non-trivial".to_owned())),
            ("recipe", recipe_json(ty, &recipe)),
        ],
    };
    Ok(Json::obj(doc))
}

fn witness(ty: &Arc<FiniteType>, opts: &ExploreOptions) -> Result<Json, QueryError> {
    let found = wfc_spec::witness::find_witness_with(ty, opts.cancel, &opts.budget).map_err(
        |e| match e {
            wfc_spec::AnalysisError::Exhausted(e) => QueryError::Exhausted(e),
            wfc_spec::AnalysisError::Cancelled { progress } => QueryError::Cancelled { progress },
            other => QueryError::Unsupported(other.to_string()),
        },
    )?;
    let witness = match found {
        None => Json::Null,
        Some(w) => {
            let invs = |seq: &[wfc_spec::InvId]| {
                Json::Arr(
                    seq.iter()
                        .map(|&i| Json::Str(ty.invocation_name(i).to_owned()))
                        .collect(),
                )
            };
            let resps = |seq: &[wfc_spec::RespId]| {
                Json::Arr(
                    seq.iter()
                        .map(|&r| Json::Str(ty.response_name(r).to_owned()))
                        .collect(),
                )
            };
            Json::obj(vec![
                ("start", Json::Str(ty.state_name(w.start).to_owned())),
                ("reader_port", Json::U64(w.reader_port.index() as u64)),
                ("writer_port", Json::U64(w.writer_port.index() as u64)),
                (
                    "writer_inv",
                    Json::Str(ty.invocation_name(w.writer_inv).to_owned()),
                ),
                ("reader_seq", invs(&w.reader_seq)),
                ("unwritten_resps", resps(&w.unwritten_resps)),
                ("written_resps", resps(&w.written_resps)),
                ("k", Json::U64(w.k() as u64)),
                ("total_len", Json::U64(w.total_len() as u64)),
            ])
        }
    };
    Ok(Json::obj(vec![
        ("type", Json::Str(ty.name().to_owned())),
        ("witness", witness),
    ]))
}

/// The protocol pass behind the exploration queries (`access-bounds`,
/// `theorem5`, `verify-consensus`): the protocol's `2^n` systems are
/// built and explored at most once, however many of those queries read
/// them. A single query reads a fresh pass; a scenario shares one among
/// its queries — they all run one type, one protocol and one set of
/// options — and drops it when the run ends. Nothing here outlives a
/// request.
#[derive(Debug, Default)]
struct ProtocolPass {
    runs: Option<ProtocolRuns>,
    bounds: Option<AccessBounds>,
}

impl ProtocolPass {
    fn explore<'a>(
        runs: &'a mut Option<ProtocolRuns>,
        p: ProtocolEntry,
        opts: &ExploreOptions,
    ) -> Result<&'a ProtocolRuns, QueryError> {
        if runs.is_none() {
            let explored = wfc_consensus::explore_protocol(p.n, p.build, opts);
            *runs = Some(explored.map_err(from_explorer)?);
        }
        Ok(runs.as_ref().expect("explored above"))
    }

    fn runs(
        &mut self,
        p: ProtocolEntry,
        opts: &ExploreOptions,
    ) -> Result<&ProtocolRuns, QueryError> {
        Self::explore(&mut self.runs, p, opts)
    }

    /// The pass and its access bounds, derived once.
    fn bounds(
        &mut self,
        p: ProtocolEntry,
        opts: &ExploreOptions,
    ) -> Result<(&ProtocolRuns, &AccessBounds), QueryError> {
        let runs = Self::explore(&mut self.runs, p, opts)?;
        let bounds = self
            .bounds
            .get_or_insert_with(|| AccessBounds::from_runs(runs));
        Ok((runs, bounds))
    }
}

fn access_bounds(
    ty: &Arc<FiniteType>,
    opts: &ExploreOptions,
    p: ProtocolEntry,
    pass: &mut ProtocolPass,
) -> Result<Json, QueryError> {
    let (_, bounds) = pass.bounds(p, opts)?;
    Ok(bounds_json(ty, p.label, p.n, bounds))
}

fn theorem5(
    ty: &Arc<FiniteType>,
    opts: &ExploreOptions,
    p: ProtocolEntry,
    pass: &mut ProtocolPass,
) -> Result<Json, QueryError> {
    if !ty.is_deterministic() {
        return Err(QueryError::Unsupported(format!(
            "type `{}` is nondeterministic; derive its one-use bits from a \
             consensus implementation instead (wfc_core::one_use_from_consensus)",
            ty.name()
        )));
    }
    let recipe = wfc_core::OneUseRecipe::from_type(ty).map_err(from_derive)?;
    let (runs, bounds) = pass.bounds(p, opts)?;
    let cert =
        wfc_core::check_theorem5_on(runs, bounds, &wfc_core::OneUseSource::Recipe(recipe), opts)
            .map_err(from_transform)?;
    Ok(Json::obj(vec![
        ("type", Json::Str(ty.name().to_owned())),
        ("protocol", Json::Str(p.label.to_owned())),
        ("n", Json::U64(p.n as u64)),
        ("bounds", bounds_json(ty, p.label, p.n, &cert.bounds)),
        ("one_use_bits", Json::U64(cert.one_use_bits as u64)),
        ("before", verdict_json(&cert.before)),
        ("after", verdict_json(&cert.after)),
        ("holds", Json::Bool(cert.holds())),
    ]))
}

fn verify_consensus(
    ty: &Arc<FiniteType>,
    opts: &ExploreOptions,
    p: ProtocolEntry,
    pass: &mut ProtocolPass,
) -> Result<Json, QueryError> {
    let verdict = verdict_json(&pass.runs(p, opts)?.verdict());
    let mut doc = Json::obj(vec![
        ("type", Json::Str(ty.name().to_owned())),
        ("protocol", Json::Str(p.label.to_owned())),
        ("n", Json::U64(p.n as u64)),
    ]);
    if let (Json::Obj(fields), Json::Obj(verdict)) = (&mut doc, verdict) {
        fields.extend(verdict);
    }
    Ok(doc)
}

/// One parsed query of any kind: the single request path.
///
/// The server workers, [`run_query_text`], each step of a scenario and
/// every `wfc` subcommand that prints a result document parse their
/// input into a `Query`, key it by [`identity`](Query::identity) and
/// [`run`](Query::run) it, so served and direct results are
/// byte-identical by construction.
///
/// A query's budgets are part of its identity, and each kind carries
/// them in one place: a type query in the request's `max_configs` and
/// `max_depth`, a sched spec in its `budget=`/`steps=` words, a
/// scenario in its `budget` directive (the request's budgets do not
/// apply to it). `threads` is never identity: every analysis is
/// bit-identical across thread counts.
#[derive(Clone, Debug)]
pub struct Query {
    kind: QueryKind,
    identity: String,
    body: Body,
}

#[derive(Clone, Debug)]
enum Body {
    /// `classify`, `witness`, `access-bounds`, `theorem5` and
    /// `verify-consensus`: a type under the request's options.
    Type {
        ty: Arc<FiniteType>,
        options: QueryOptions,
    },
    Sched(SchedSpec),
    /// A scenario; `options` are its effective exploration budgets —
    /// the defaults overridden by its `budget` directive — and the
    /// request's `threads`.
    Scenario {
        scenario: Scenario,
        options: QueryOptions,
    },
}

impl Query {
    /// Parses `text` as a query of `kind`: a type in the `wfc-spec`
    /// text format, a sched spec line (`<target> [key=value…]`), or a
    /// scenario file. `options` supply a type query's budgets and every
    /// kind's `threads`.
    ///
    /// # Errors
    ///
    /// [`QueryError::Parse`] when the text does not parse (a scenario's
    /// message carries the parser's `line, column`), and
    /// [`QueryError::Unsupported`] for `stats`, which a live server
    /// answers inline and which has no analysis.
    pub fn parse(kind: QueryKind, text: &str, options: &QueryOptions) -> Result<Query, QueryError> {
        let body = match kind {
            QueryKind::Sched => Body::Sched(text.parse().map_err(from_sched)?),
            QueryKind::Scenario => {
                let scenario = wfc_scenario::parse_scenario(text)
                    .map_err(|e| QueryError::Parse(e.to_string()))?;
                let bound = |v: Option<u64>, default: usize| {
                    v.map_or(default, |v| usize::try_from(v).unwrap_or(usize::MAX))
                };
                let d = QueryOptions::default();
                let options = QueryOptions {
                    max_configs: bound(scenario.budget.configs, d.max_configs),
                    max_depth: bound(scenario.budget.depth, d.max_depth),
                    threads: options.threads,
                };
                Body::Scenario { scenario, options }
            }
            QueryKind::Stats => {
                return Err(QueryError::Unsupported(
                    "stats is a live-server introspection query; it is answered \
                     inline by `wfc serve` and has no direct analysis"
                        .to_owned(),
                ))
            }
            _ => Body::Type {
                ty: wfc_spec::text::parse_type(text)
                    .map(Arc::new)
                    .map_err(|e| QueryError::Parse(e.to_string()))?,
                options: *options,
            },
        };
        let identity = match &body {
            Body::Type { ty, options } => {
                let mut text = format_type(ty);
                let (configs, depth) = (options.max_configs, options.max_depth);
                let _ = writeln!(text, "max_configs={configs} max_depth={depth}");
                text
            }
            Body::Sched(spec) => spec.canonical_text(),
            Body::Scenario { scenario, .. } => scenario.canonical_text(),
        };
        Ok(Query {
            kind,
            identity,
            body,
        })
    }

    /// The canonical text the cache hashes (with the kind, see
    /// [`cache_key`](crate::cache_key)), fixed at parse: the
    /// `format_type` rendering and budgets of a type query, a sched
    /// spec's or a scenario's canonical text. Respellings of one query
    /// share an identity.
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// What the query is about, for logs and the disk cache: the type
    /// name, the sched target, or the scenario name.
    pub fn name(&self) -> &str {
        match &self.body {
            Body::Type { ty, .. } => ty.name(),
            Body::Sched(spec) => &spec.target,
            Body::Scenario { scenario, .. } => &scenario.name,
        }
    }

    /// Caps what this query runs — its exploration `max_configs` and
    /// its `threads` (at least 1) — without changing its
    /// [`identity`](Query::identity). A document computed under the cap
    /// is the one the uncapped query computes; a query the cap cuts
    /// short fails, and failures are never cached.
    pub(crate) fn clamp(&mut self, max_configs: usize, max_threads: usize) {
        if let Body::Type { options, .. } | Body::Scenario { options, .. } = &mut self.body {
            options.max_configs = options.max_configs.min(max_configs);
            options.threads = options.threads.clamp(1, max_threads.max(1));
        }
    }

    /// Runs the query to its canonical result document under a
    /// cancellation token and an optional wall-clock deadline, polled
    /// at the engine's sync points. Neither ever changes a completed
    /// query's document.
    ///
    /// # Errors
    ///
    /// [`QueryError`]: unsupported types, analysis failures, exhausted
    /// budgets, or cancellation. A scenario's expectation failure is
    /// not an error: it lands in its document as `pass: false`.
    pub fn run(&self, cancel: CancelToken, wall: Option<Wall>) -> Result<Json, QueryError> {
        self.run_on(cancel, wall, None, &mut ProtocolPass::default())
    }

    /// [`Query::run`] with the exploration queries' protocol overridden
    /// by `protocol` and read off `pass`, which explores it on first
    /// use.
    fn run_on(
        &self,
        cancel: CancelToken,
        wall: Option<Wall>,
        protocol: Option<ProtocolEntry>,
        pass: &mut ProtocolPass,
    ) -> Result<Json, QueryError> {
        match &self.body {
            Body::Type { ty, options } => {
                let mut opts = ExploreOptions::default()
                    .with_max_configs(options.max_configs)
                    .with_max_depth(options.max_depth)
                    .with_threads(options.threads)
                    .with_cancel(cancel);
                opts.budget.wall = wall;
                match self.kind {
                    QueryKind::Classify => classify(ty),
                    QueryKind::Witness => witness(ty, &opts),
                    QueryKind::AccessBounds => {
                        access_bounds(ty, &opts, resolve_protocol(ty, protocol)?, pass)
                    }
                    QueryKind::Theorem5 => {
                        theorem5(ty, &opts, resolve_protocol(ty, protocol)?, pass)
                    }
                    QueryKind::VerifyConsensus => {
                        verify_consensus(ty, &opts, resolve_protocol(ty, protocol)?, pass)
                    }
                    QueryKind::Sched | QueryKind::Scenario | QueryKind::Stats => {
                        unreachable!("Query::parse gives only type kinds a type body")
                    }
                }
            }
            Body::Sched(spec) => spec.run_with(cancel, wall).map_err(from_sched),
            Body::Scenario { scenario, options } => {
                let protocol = match &scenario.protocol {
                    Some(name) => Some(protocol_by_name(name).ok_or_else(|| {
                        QueryError::Unsupported(format!(
                            "no consensus protocol is registered under the name `{name}` \
                             (known: cas_announce)"
                        ))
                    })?),
                    None => None,
                };
                run_scenario(scenario, options, cancel, wall, protocol)
            }
        }
    }
}

/// Runs a scenario's queries in file order, each through [`Query`]
/// under the scenario's effective `options`, and assembles its
/// `wfc-scenario/v1` document. The exploration queries share one
/// [`ProtocolPass`], so the protocol's trees are explored once per run;
/// a `wall-ms` budget tightens the deadline, never loosens it. The
/// first query to fail aborts the run with its error.
fn run_scenario(
    sc: &Scenario,
    options: &QueryOptions,
    cancel: CancelToken,
    wall: Option<Wall>,
    protocol: Option<ProtocolEntry>,
) -> Result<Json, QueryError> {
    let own = sc
        .budget
        .wall_ms
        .map(|ms| Wall::expires_in(Duration::from_millis(ms)));
    let wall = match (wall, own) {
        (Some(x), Some(y)) => Some(if x.deadline <= y.deadline { x } else { y }),
        (x, y) => x.or(y),
    };
    let mut pass = ProtocolPass::default();
    let mut results = Vec::with_capacity(sc.queries.len());
    for step in sc.lower() {
        let step = match step {
            LoweredQuery::Type { kind, type_text } => {
                let kind = QueryKind::parse(&kind)
                    .expect("the scenario parser only admits engine query kinds");
                Query::parse(kind, &type_text, options)?
            }
            LoweredQuery::Sched { spec_text } => {
                Query::parse(QueryKind::Sched, &spec_text, options)?
            }
        };
        results.push(step.run_on(cancel, wall, protocol, &mut pass)?);
    }
    Ok(sc.result_doc(&results))
}

/// Parses and runs one query with no deadline — `Query::parse` then
/// [`Query::run`].
///
/// # Errors
///
/// As [`Query::parse`] and [`Query::run`].
pub fn run_query_text(
    kind: QueryKind,
    text: &str,
    options: &QueryOptions,
) -> Result<Json, QueryError> {
    Query::parse(kind, text, options)?.run(CancelToken::NONE, None)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use wfc_spec::canonical;

    #[test]
    fn classify_reports_both_cases() {
        let tas = format_type(&canonical::test_and_set(2));
        let doc = run_query_text(QueryKind::Classify, &tas, &QueryOptions::default()).unwrap();
        assert_eq!(doc.get("case").and_then(Json::as_u64), Some(2));
        assert!(doc.get("recipe").unwrap().get("read_cost").is_some());

        let mute = canonical::deterministic_zoo(2)
            .into_iter()
            .find(|t| t.name() == "mute")
            .expect("zoo has `mute`");
        let doc = run_query_text(
            QueryKind::Classify,
            &format_type(&mute),
            &QueryOptions::default(),
        )
        .unwrap();
        assert_eq!(doc.get("case").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("recipe"), Some(&Json::Null));
    }

    #[test]
    fn witness_distinguishes_trivial_from_non_trivial() {
        let tas = format_type(&canonical::test_and_set(2));
        let doc = run_query_text(QueryKind::Witness, &tas, &QueryOptions::default()).unwrap();
        assert!(doc.get("witness").unwrap().get("k").is_some());

        let mute = canonical::deterministic_zoo(2)
            .into_iter()
            .find(|t| t.name() == "mute")
            .unwrap();
        let doc = run_query_text(
            QueryKind::Witness,
            &format_type(&mute),
            &QueryOptions::default(),
        )
        .unwrap();
        assert_eq!(doc.get("witness"), Some(&Json::Null));
    }

    #[test]
    fn access_bounds_matches_direct_library_call() {
        let tas = format_type(&canonical::test_and_set(2));
        let doc = run_query_text(QueryKind::AccessBounds, &tas, &QueryOptions::default()).unwrap();
        let direct = wfc_core::access_bounds(
            2,
            |i| wfc_consensus::tas_consensus_system([i[0], i[1]]),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert_eq!(
            doc.get("D").and_then(Json::as_u64),
            Some(direct.d_max as u64)
        );
        assert_eq!(
            doc.get("one_use_bits_required").and_then(Json::as_u64),
            Some(direct.one_use_bits_required() as u64)
        );
        assert_eq!(
            doc.get("registers").and_then(Json::as_arr).map(<[_]>::len),
            Some(direct.registers.len())
        );
    }

    #[test]
    fn unsupported_types_are_rejected_not_mangled() {
        let one_use = format_type(&canonical::one_use_bit());
        let err = run_query_text(QueryKind::AccessBounds, &one_use, &QueryOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), "unsupported");
        let err = run_query_text(QueryKind::Classify, "not a type", &QueryOptions::default())
            .unwrap_err();
        assert_eq!(err.code(), "parse-error");
    }

    #[test]
    fn budget_errors_surface_budget_and_used() {
        let tas = format_type(&canonical::test_and_set(2));
        let err = run_query_text(
            QueryKind::VerifyConsensus,
            &tas,
            &QueryOptions::default().with_max_configs(3),
        )
        .unwrap_err();
        let (budget, used) = err.budget_used().expect("budget error carries quantities");
        assert_eq!(budget, 3);
        assert!(used > 3);
        assert_eq!(err.code(), "budget-exceeded");
    }

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
        let doc = run_scenario(&sc, &options, CancelToken::NONE, None, Some(entry)).unwrap();
        assert_eq!(BUILDS.load(Ordering::Relaxed), 1 << 3, "one build per tree");
        assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));

        let type_text = format_type(&sc.resolved);
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
            let alone = Query::parse(kind, &type_text, &options)
                .unwrap()
                .run_on(
                    CancelToken::NONE,
                    None,
                    Some(entry),
                    &mut ProtocolPass::default(),
                )
                .unwrap();
            assert_eq!(q.get("result"), Some(&alone), "{kind:?}");
        }
    }

    /// The cap binds what a scenario runs — the effective budget its own
    /// `budget` directive sets — and a type query's request budget, and
    /// leaves both identities (the cache key's input) untouched.
    #[test]
    fn clamp_caps_what_runs_but_not_the_identity() {
        let text = "scenario big\ntype builtin tas\nbudget configs=1000000000\nquery witness\n";
        let options = QueryOptions::default().with_threads(64);
        let mut scenario = Query::parse(QueryKind::Scenario, text, &options).unwrap();
        let tas = format_type(&canonical::test_and_set(2));
        let mut typed = Query::parse(
            QueryKind::Witness,
            &tas,
            &options.with_max_configs(1_000_000_000),
        )
        .unwrap();
        let runs = |query: &Query| match &query.body {
            Body::Type { options, .. } | Body::Scenario { options, .. } => {
                (options.max_configs, options.threads)
            }
            Body::Sched(_) => panic!("both queries explore"),
        };
        for query in [&mut scenario, &mut typed] {
            let before = query.identity().to_owned();
            assert_eq!(runs(query), (1_000_000_000, 64), "what was asked");
            query.clamp(4_000_000, 8);
            assert_eq!(runs(query), (4_000_000, 8));
            assert_eq!(query.identity(), before, "the key is what was asked");
        }
    }
}
