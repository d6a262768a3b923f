//! The scenario model: AST, canonicalization, and lowering.

use std::sync::Arc;

use wfc_obs::json::Json;
use wfc_spec::text::format_type;
use wfc_spec::{canonical, FiniteType};

/// Resolves a built-in type family name to its canonical small-arity
/// representative (the same instances `wfc-hierarchy`'s catalog and the
/// service's protocol registry use). Aliases (`tas`, `cas`, `register`)
/// resolve to the same instance as their canonical spelling.
pub fn builtin(name: &str) -> Option<FiniteType> {
    Some(match name {
        "register" | "register2" => canonical::boolean_register(2),
        "test_and_set" | "tas" => canonical::test_and_set(2),
        "queue" => canonical::queue(1, 1, 2),
        "stack" => canonical::stack(1, 1, 2),
        "swap" => canonical::swap(2, 2),
        "fetch_and_add" => canonical::fetch_and_add(2, 2),
        "compare_and_swap" | "cas" => canonical::compare_and_swap(3, 3),
        "sticky_bit" => canonical::sticky_bit(3),
        "consensus" => canonical::consensus(2),
        "mute" => canonical::mute(2),
        "one_use_bit" => canonical::one_use_bit(),
        _ => return None,
    })
}

/// The canonical spelling of a built-in name (aliases collapse, so
/// respelled scenarios canonicalize — and therefore cache — equally).
pub(crate) fn canonical_builtin_name(name: &str) -> &'static str {
    match name {
        "register" | "register2" => "register2",
        "test_and_set" | "tas" => "test_and_set",
        "queue" => "queue",
        "stack" => "stack",
        "swap" => "swap",
        "fetch_and_add" => "fetch_and_add",
        "compare_and_swap" | "cas" => "compare_and_swap",
        "sticky_bit" => "sticky_bit",
        "consensus" => "consensus",
        "mute" => "mute",
        "one_use_bit" => "one_use_bit",
        _ => unreachable!("parse validated the builtin name"),
    }
}

/// The type declaration of a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeDecl {
    /// `type builtin NAME` — a canonical zoo member (canonical
    /// spelling; aliases are resolved at parse time).
    Builtin {
        /// Canonical built-in name.
        name: &'static str,
    },
    /// `type shift w=W [ports=P]` — a `w`-bit shift register.
    Shift {
        /// Register width in bits (1..=8).
        w: usize,
        /// Port count (default 2).
        ports: usize,
    },
    /// `type mpr k=K [ports=P]` — the MPR `k`-sliding-window register.
    Mpr {
        /// Window size (1..=8).
        k: usize,
        /// Port count (default 2).
        ports: usize,
    },
    /// `type fsm … end` — an embedded `wfc-spec` text block, parsed,
    /// determinism-checked, and stored in canonical form.
    Fsm {
        /// `format_type` rendering of the parsed block (canonical).
        canonical: String,
    },
}

/// Scenario-level budgets, the only budgets a scenario runs under.
/// Every field is optional; set fields override the default
/// exploration budgets (for the exploration queries) or are merged into
/// sched specs that do not set their own, and are part of the canonical
/// text — budgets change results, so they are cache identity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScenarioBudget {
    /// `configs=` — explorer `max_configs`.
    pub configs: Option<u64>,
    /// `depth=` — explorer `max_depth`.
    pub depth: Option<u64>,
    /// `schedules=` — sched-query schedule budget (`budget=` word).
    pub schedules: Option<u64>,
    /// `steps=` — sched-query per-execution step cap.
    pub steps: Option<u64>,
    /// `wall-ms=` — wall-clock allowance for the whole scenario run.
    pub wall_ms: Option<u64>,
}

impl ScenarioBudget {
    /// True when no budget key is set (the `budget` line is omitted
    /// from the canonical text).
    pub fn is_empty(&self) -> bool {
        *self == ScenarioBudget::default()
    }

    fn canonical_words(&self) -> String {
        let mut words = Vec::new();
        if let Some(v) = self.configs {
            words.push(format!("configs={v}"));
        }
        if let Some(v) = self.depth {
            words.push(format!("depth={v}"));
        }
        if let Some(v) = self.schedules {
            words.push(format!("schedules={v}"));
        }
        if let Some(v) = self.steps {
            words.push(format!("steps={v}"));
        }
        if let Some(v) = self.wall_ms {
            words.push(format!("wall-ms={v}"));
        }
        words.join(" ")
    }
}

/// What a query line asserts about its result document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// `expect=trivial` — `classify` reports case 1 / `witness` finds
    /// no non-trivial pair.
    Trivial,
    /// `expect=non-trivial` — the complement.
    NonTrivial,
    /// `expect=holds` — `theorem5` / `verify-consensus` report
    /// `holds: true`.
    Holds,
    /// `expect=pass` — `sched` reports verdict `pass`.
    Pass,
    /// `expect=violation` — `sched` reports verdict `violation`.
    Violation,
}

impl Expectation {
    /// The canonical word.
    pub fn as_str(self) -> &'static str {
        match self {
            Expectation::Trivial => "trivial",
            Expectation::NonTrivial => "non-trivial",
            Expectation::Holds => "holds",
            Expectation::Pass => "pass",
            Expectation::Violation => "violation",
        }
    }

    /// Checks this expectation against a query's result document.
    pub fn check(self, kind: &str, result: &Json) -> bool {
        match self {
            Expectation::Trivial | Expectation::NonTrivial => {
                let trivial = if kind == "witness" {
                    result.get("witness") == Some(&Json::Null)
                } else {
                    result.get("classification").and_then(Json::as_str) == Some("trivial")
                };
                (self == Expectation::Trivial) == trivial
            }
            Expectation::Holds => result.get("holds") == Some(&Json::Bool(true)),
            Expectation::Pass => result.get("verdict").and_then(Json::as_str) == Some("pass"),
            Expectation::Violation => {
                result.get("verdict").and_then(Json::as_str) == Some("violation")
            }
        }
    }
}

/// One `query` line: kind, canonically ordered `key=value` words, and
/// the optional expectation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioQuery {
    /// The wire name of the query kind (`classify`, `witness`,
    /// `access-bounds`, `theorem5`, `verify-consensus`, `sched`).
    pub kind: String,
    /// `key=value` settings, sorted by key with last-wins dedup. For
    /// `sched` these are the spec words (`target=` is mandatory).
    pub words: Vec<(String, String)>,
    /// The `expect=` assertion, if any.
    pub expect: Option<Expectation>,
    /// 1-based source line of the `query` directive (diagnostics only;
    /// not part of the canonical text).
    pub line: usize,
}

/// One query lowered onto the engine's input formats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoweredQuery {
    /// A type-driven analysis: run `kind` against the type text.
    Type {
        /// Wire name of the kind.
        kind: String,
        /// The scenario type in `wfc-spec` text format.
        type_text: String,
    },
    /// A sched query: the spec line for `wfc-sched`.
    Sched {
        /// `<target> [key=value…]` spec text.
        spec_text: String,
    },
}

/// A parsed, validated scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// The scenario name (`scenario NAME`).
    pub name: String,
    /// The type declaration.
    pub ty: TypeDecl,
    /// The resolved type instance.
    pub resolved: Arc<FiniteType>,
    /// Optional protocol label (`protocol NAME`) — recorded in the
    /// result document; the engine's protocol registry keys off the
    /// type, so this is a human-facing annotation the runner checks
    /// for consistency.
    pub protocol: Option<String>,
    /// Scenario-level budgets.
    pub budget: ScenarioBudget,
    /// The queries, in file order.
    pub queries: Vec<ScenarioQuery>,
}

impl Scenario {
    /// The canonical rendering: aliases resolved, FSM blocks
    /// normalized, query words sorted and deduplicated, budgets in
    /// fixed order. Equal canonical texts mean equal results — the
    /// service hashes this string for its cache key, so respelled but
    /// canonically equal files share cache lines.
    pub fn canonical_text(&self) -> String {
        let mut out = format!("scenario {}\n", self.name);
        match &self.ty {
            TypeDecl::Builtin { name } => out.push_str(&format!("type builtin {name}\n")),
            TypeDecl::Shift { w, ports } => {
                out.push_str(&format!("type shift w={w} ports={ports}\n"));
            }
            TypeDecl::Mpr { k, ports } => {
                out.push_str(&format!("type mpr k={k} ports={ports}\n"));
            }
            TypeDecl::Fsm { canonical } => {
                out.push_str("type fsm\n");
                out.push_str(canonical);
                if !canonical.ends_with('\n') {
                    out.push('\n');
                }
                out.push_str("end\n");
            }
        }
        if let Some(p) = &self.protocol {
            out.push_str(&format!("protocol {p}\n"));
        }
        if !self.budget.is_empty() {
            out.push_str(&format!("budget {}\n", self.budget.canonical_words()));
        }
        for q in &self.queries {
            out.push_str("query ");
            out.push_str(&q.kind);
            for (k, v) in &q.words {
                out.push_str(&format!(" {k}={v}"));
            }
            if let Some(e) = q.expect {
                out.push_str(&format!(" expect={}", e.as_str()));
            }
            out.push('\n');
        }
        out
    }

    /// Lowers every query onto the engine's input formats, in file
    /// order. A deterministic function of the canonical text: the type
    /// is rendered once via `format_type`, and sched specs inherit the
    /// scenario-level `schedules`/`steps` budgets unless the query sets
    /// its own `budget`/`steps` words.
    pub fn lower(&self) -> Vec<LoweredQuery> {
        let type_text = format_type(&self.resolved);
        self.queries
            .iter()
            .map(|q| {
                if q.kind == "sched" {
                    let target = q
                        .words
                        .iter()
                        .find(|(k, _)| k == "target")
                        .map(|(_, v)| v.clone())
                        .expect("parse requires target= on sched queries");
                    let mut words: Vec<(String, String)> = q
                        .words
                        .iter()
                        .filter(|(k, _)| k != "target")
                        .cloned()
                        .collect();
                    // The sched checker spells its schedule budget
                    // `budget=`; the scenario spells it `schedules=` to
                    // keep one vocabulary across query kinds.
                    if let Some(v) = self.budget.schedules {
                        if !words.iter().any(|(k, _)| k == "budget") {
                            words.push(("budget".to_owned(), v.to_string()));
                        }
                    }
                    if let Some(v) = self.budget.steps {
                        if !words.iter().any(|(k, _)| k == "steps") {
                            words.push(("steps".to_owned(), v.to_string()));
                        }
                    }
                    words.sort();
                    let mut spec_text = target;
                    for (k, v) in &words {
                        spec_text.push_str(&format!(" {k}={v}"));
                    }
                    LoweredQuery::Sched { spec_text }
                } else {
                    LoweredQuery::Type {
                        kind: q.kind.clone(),
                        type_text: type_text.clone(),
                    }
                }
            })
            .collect()
    }

    /// Assembles the canonical `wfc-scenario/v1` result document from
    /// the per-query result documents (one per query, in order).
    /// Expectation failures are **data** (`pass: false`), not errors —
    /// engine errors abort the whole run before this point.
    ///
    /// # Panics
    ///
    /// If `results.len()` differs from the query count.
    pub fn result_doc(&self, results: &[Json]) -> Json {
        assert_eq!(results.len(), self.queries.len(), "one result per query");
        let mut all_pass = true;
        let queries: Vec<Json> = self
            .queries
            .iter()
            .zip(results)
            .map(|(q, r)| {
                let pass = q.expect.is_none_or(|e| e.check(&q.kind, r));
                all_pass &= pass;
                Json::obj(vec![
                    ("kind", Json::Str(q.kind.clone())),
                    (
                        "expect",
                        q.expect
                            .map_or(Json::Null, |e| Json::Str(e.as_str().to_owned())),
                    ),
                    ("pass", Json::Bool(pass)),
                    ("result", r.clone()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str(crate::SCHEMA.to_owned())),
            ("scenario", Json::Str(self.name.clone())),
            ("type", Json::Str(self.resolved.name().to_owned())),
            (
                "protocol",
                self.protocol
                    .as_ref()
                    .map_or(Json::Null, |p| Json::Str(p.clone())),
            ),
            ("canonical", Json::Str(self.canonical_text())),
            ("queries", Json::Arr(queries)),
            ("pass", Json::Bool(all_pass)),
        ])
    }
}
