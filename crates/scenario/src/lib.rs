//! # `wfc-scenario` — the scenario description language
//!
//! One text file describes a shared-object type (a built-in family
//! reference like `shift w=2` or an embedded finite-state machine), an
//! optional protocol label, optional budgets, and a list of queries to
//! run against it. The language makes breadth cheap: pinning the next
//! type's position in the hierarchy is a scenario file, not a Rust
//! module.
//!
//! ```text
//! # 2-bit shift register: consensus number exactly 2 (Aspnes).
//! scenario shift-w2
//! type shift w=2 ports=2
//! query classify expect=non-trivial
//! query witness expect=non-trivial
//! query verify-consensus expect=holds
//! query theorem5 expect=holds
//! ```
//!
//! The crate owns the **language**: a strict line-oriented parser with
//! typed line/column errors ([`ParseError`]), a canonicalizer
//! ([`Scenario::canonical_text`] — the cache identity, exactly like
//! `SchedSpec::canonical_text`), the lowering onto the engine's query
//! kinds ([`Scenario::lower`]), and the result-document schema
//! ([`SCHEMA`], [`result_doc`](Scenario::result_doc),
//! [`validate_scenario_json`]). **Execution** lives in `wfc-service`,
//! which parses each lowered step into its single `Query` path — that
//! is what makes scenario results byte-identical whether served, run by
//! `wfc scenario run`, or produced by a direct library call.
//!
//! Determinism requirements for embedded FSM types are enforced at parse
//! time: every `(state, port, invocation)` key may have at most one
//! transition, and every declared state must be reachable from the
//! first-declared (initial) one.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod model;
mod parse;
mod report;
#[cfg(test)]
mod tests;

pub use model::{
    builtin, Expectation, LoweredQuery, Scenario, ScenarioBudget, ScenarioQuery, TypeDecl,
};
pub use parse::{parse_scenario, ParseError};
pub use report::{validate_scenario_json, SCHEMA};
