//! The shared query engine behind both `wfc query`/`wfc serve` and the
//! direct CLI subcommands.
//!
//! Everything funnels through [`run_query`], so a direct library call, a
//! `wfc access-bounds` invocation and a served request produce
//! **byte-identical** result documents — the property the differential
//! tests pin down. Result documents are [`Json`] values; `Json::render`
//! is deterministic (ordered keys, canonical number formatting), so
//! byte-level equality of rendered results is meaningful.

use std::fmt;
use std::sync::Arc;

use wfc_consensus::{ConsensusSystem, ProtocolRuns};
use wfc_core::{AccessBounds, DeriveError, TransformError};
use wfc_explorer::{ExploreOptions, ExplorerError};
use wfc_obs::json::Json;
use wfc_sched::{SchedError, SchedSpec};
use wfc_spec::control::{CancelToken, Exhausted, Progress, Resource, Wall};
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

/// Parses a sched query line (`<target> [key=value…]`) into its fully
/// resolved spec. The spec's [`canonical_text`](SchedSpec::canonical_text)
/// is the string the cache hashes.
///
/// # Errors
///
/// [`QueryError::Parse`] on an unknown target, key, or malformed value.
pub fn parse_sched_spec(text: &str) -> Result<SchedSpec, QueryError> {
    text.parse().map_err(from_sched)
}

/// Runs a sched spec to its canonical result document — the single code
/// path shared by `wfc sched`, the server workers, and the differential
/// tests, so served and direct results are byte-identical.
///
/// # Errors
///
/// [`QueryError::Exhausted`] when exploration outgrows the spec's
/// schedule budget (resource `schedules`) or an imposed deadline,
/// [`QueryError::Analysis`] on replay mismatches or step-limit
/// overruns.
pub fn run_sched(spec: &SchedSpec) -> Result<Json, QueryError> {
    run_sched_with(spec, CancelToken::NONE, None)
}

/// [`run_sched`] under external control: a serving layer's cancellation
/// token and wall-clock deadline, polled at schedule boundaries. With
/// an inert token and no deadline this is exactly `run_sched` —
/// control signals never change a completed query's document.
pub fn run_sched_with(
    spec: &SchedSpec,
    cancel: CancelToken,
    wall: Option<Wall>,
) -> Result<Json, QueryError> {
    spec.run_with(cancel, wall).map_err(from_sched)
}

fn from_derive(e: DeriveError) -> QueryError {
    match e {
        DeriveError::Trivial { type_name } => QueryError::Unsupported(format!(
            "type `{type_name}` is trivial; no one-use bit or register elimination exists"
        )),
        DeriveError::Analysis(inner) => QueryError::Unsupported(inner.to_string()),
    }
}

/// Parses a type in the `wfc-spec` text format into the form the query
/// engine wants.
pub fn parse_query_type(text: &str) -> Result<Arc<FiniteType>, QueryError> {
    wfc_spec::text::parse_type(text)
        .map(Arc::new)
        .map_err(|e| QueryError::Parse(e.to_string()))
}

/// Converts wire-level budgets into explorer options. Observability
/// stays at its global default so served queries record metrics exactly
/// when the process has `wfc-obs` enabled.
pub fn explore_options(q: &QueryOptions) -> ExploreOptions {
    ExploreOptions::default()
        .with_max_configs(q.max_configs)
        .with_max_depth(q.max_depth)
        .with_threads(q.threads)
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

fn require_protocol(ty: &FiniteType) -> Result<ProtocolEntry, QueryError> {
    protocol_for_type(ty).ok_or_else(|| {
        QueryError::Unsupported(format!(
            "no consensus protocol is registered for type `{}`; exploration \
             queries support the canonical zoo protocols (test_and_set, \
             queue*, stack*, swap*, fetch_and_add*, compare_and_swap*, \
             sticky_bit, shift2, mpr2)",
            ty.name()
        ))
    })
}

fn resolve_protocol(
    ty: &FiniteType,
    over: Option<ProtocolEntry>,
) -> Result<ProtocolEntry, QueryError> {
    match over {
        Some(p) => Ok(p),
        None => require_protocol(ty),
    }
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
pub(crate) struct ProtocolPass {
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
    let verdict = pass.runs(p, opts)?.verdict();
    let mut fields = vec![
        ("type", Json::Str(ty.name().to_owned())),
        ("protocol", Json::Str(p.label.to_owned())),
        ("n", Json::U64(p.n as u64)),
    ];
    if let Json::Obj(pairs) = verdict_json(&verdict) {
        for (k, v) in pairs {
            match k.as_str() {
                "D" => fields.push(("D", v)),
                "depth_per_tree" => fields.push(("depth_per_tree", v)),
                "total_configs" => fields.push(("total_configs", v)),
                "agreement" => fields.push(("agreement", v)),
                "validity" => fields.push(("validity", v)),
                "holds" => fields.push(("holds", v)),
                _ => {}
            }
        }
    }
    Ok(Json::obj(fields))
}

/// Runs one analysis query and produces its canonical result document.
///
/// This is **the** code path: the CLI's direct subcommands, the server's
/// workers and the differential tests all call it, which is what makes
/// served results bit-identical to direct library calls.
///
/// # Errors
///
/// [`QueryError`] — parse failures, unsupported types, analysis
/// failures, exhausted budgets, or cancellation.
pub fn run_query(
    kind: QueryKind,
    ty: &Arc<FiniteType>,
    opts: &ExploreOptions,
) -> Result<Json, QueryError> {
    run_query_with_protocol(kind, ty, opts, None)
}

/// [`run_query`] with an optional protocol override for the exploration
/// queries (`access-bounds`, `theorem5`, `verify-consensus`) — the hook
/// a scenario's `protocol NAME` directive uses. With `None` this **is**
/// `run_query`: both paths run the same code, so overridden and default
/// runs stay byte-identical per protocol choice.
///
/// # Errors
///
/// As [`run_query`].
pub fn run_query_with_protocol(
    kind: QueryKind,
    ty: &Arc<FiniteType>,
    opts: &ExploreOptions,
    protocol: Option<ProtocolEntry>,
) -> Result<Json, QueryError> {
    run_query_on(kind, ty, opts, protocol, &mut ProtocolPass::default())
}

/// [`run_query_with_protocol`] reading the exploration queries off
/// `pass`, which explores the protocol on first use.
pub(crate) fn run_query_on(
    kind: QueryKind,
    ty: &Arc<FiniteType>,
    opts: &ExploreOptions,
    protocol: Option<ProtocolEntry>,
    pass: &mut ProtocolPass,
) -> Result<Json, QueryError> {
    match kind {
        QueryKind::Classify => classify(ty),
        QueryKind::Witness => witness(ty, opts),
        QueryKind::AccessBounds => access_bounds(ty, opts, resolve_protocol(ty, protocol)?, pass),
        QueryKind::Theorem5 => theorem5(ty, opts, resolve_protocol(ty, protocol)?, pass),
        QueryKind::VerifyConsensus => {
            verify_consensus(ty, opts, resolve_protocol(ty, protocol)?, pass)
        }
        QueryKind::Sched => Err(QueryError::Unsupported(
            "sched queries take a fixture spec, not a type; use run_sched \
             (or run_query_text, which dispatches on the kind)"
                .to_owned(),
        )),
        QueryKind::Scenario => Err(QueryError::Unsupported(
            "scenario queries take a scenario file, not a type; use \
             run_scenario (or run_query_text, which dispatches on the kind)"
                .to_owned(),
        )),
        QueryKind::Stats => Err(QueryError::Unsupported(
            "stats is a live-server introspection query; it is answered \
             inline by `wfc serve` and has no direct analysis"
                .to_owned(),
        )),
    }
}

/// Parses the query text and runs the query — the convenience used by
/// both the CLI subcommands and the server worker.
///
/// For [`QueryKind::Sched`] the text is a sched spec line, not a type,
/// and `options` is ignored: the checker's budgets travel inside the
/// spec itself (`budget=`, `steps=`), where they are part of the cache
/// identity.
pub fn run_query_text(
    kind: QueryKind,
    type_text: &str,
    options: &QueryOptions,
) -> Result<Json, QueryError> {
    run_query_text_with(kind, type_text, options, CancelToken::NONE, None)
}

/// [`run_query_text`] under external control: the serving layer's
/// cancellation token and per-request wall-clock deadline are threaded
/// into whichever engine the query kind dispatches to — the explorer,
/// the sched checker, or the witness search — and polled at that
/// engine's sync points. With an inert token and no deadline this is
/// exactly `run_query_text`.
pub fn run_query_text_with(
    kind: QueryKind,
    type_text: &str,
    options: &QueryOptions,
    cancel: CancelToken,
    wall: Option<Wall>,
) -> Result<Json, QueryError> {
    if kind == QueryKind::Sched {
        return run_sched_with(&parse_sched_spec(type_text)?, cancel, wall);
    }
    if kind == QueryKind::Scenario {
        return crate::scenario::run_scenario_text_with(type_text, options, cancel, wall);
    }
    if kind == QueryKind::Stats {
        return Err(QueryError::Unsupported(
            "stats is a live-server introspection query; it is answered \
             inline by `wfc serve` and has no direct analysis"
                .to_owned(),
        ));
    }
    let ty = parse_query_type(type_text)?;
    let mut opts = explore_options(options).with_cancel(cancel);
    opts.budget.wall = wall;
    run_query(kind, &ty, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfc_spec::canonical;
    use wfc_spec::text::format_type;

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
}
