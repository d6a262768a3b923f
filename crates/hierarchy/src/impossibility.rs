//! A bounded, exhaustive impossibility result for register-only
//! consensus (supporting Theorem 5's first case).
//!
//! The classical theorem — registers cannot implement 2-process wait-free
//! consensus \[4,6,14\] — quantifies over *all* protocols and cannot be
//! checked by enumeration. What **can** be machine-proved is its
//! restriction to a bounded protocol family, and this module does so for
//! the natural one-round family:
//!
//! > Each process owns one SRSW boolean register. It performs its write
//! > (of its input) and its read (of the other's register) in either
//! > order, then decides by an arbitrary boolean function of its input
//! > and the value it read.
//!
//! There are `2 · 16` choices per process — order × decision table —
//! giving `1024` candidate protocols. [`search_one_round_protocols`]
//! refutes **every candidate by a violating execution, or verifies it on
//! every schedule of every input vector**, and reports the survivors. The classical theorem predicts
//! zero; the search confirms it, making the impossibility *exhaustively
//! verified* on this family rather than cited.

use std::sync::Arc;

use wfc_explorer::program::{BinOp, ProgramBuilder};
use wfc_explorer::{ExploreOptions, ExplorerError, ObjectInstance, System};
use wfc_spec::{canonical, FiniteType, PortId};

use crate::families::FamilyOutcome;
use crate::sweep::{self, Family, Symmetry};

/// One process's strategy in the one-round family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Strategy {
    /// `true`: write before reading; `false`: read before writing.
    pub write_first: bool,
    /// `decide[own][read]` ∈ {0, 1}: the decision table.
    pub decide: [[u8; 2]; 2],
}

impl Strategy {
    /// Enumerates all 32 strategies.
    pub fn all() -> Vec<Strategy> {
        let mut out = Vec::with_capacity(32);
        for write_first in [false, true] {
            for table in 0u8..16 {
                let bit = |k: u8| (table >> k) & 1;
                out.push(Strategy {
                    write_first,
                    decide: [[bit(0), bit(1)], [bit(2), bit(3)]],
                });
            }
        }
        out
    }
}

/// The result of the exhaustive one-round search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Number of candidate protocols examined.
    pub candidates: usize,
    /// Candidates actually model-checked: one per pair `{(a, b), (b, a)}`
    /// of candidates that differ only by swapping the processes.
    pub representatives: usize,
    /// Strategy pairs that satisfied agreement + validity + wait-freedom
    /// on every schedule of every input vector. The classical
    /// impossibility predicts this is empty.
    pub survivors: Vec<(Strategy, Strategy)>,
    /// Total violation searches and exhaustive explorations performed.
    pub explorations: usize,
}

fn build_system(reg: &Arc<FiniteType>, [s0, s1]: [Strategy; 2], inputs: [bool; 2]) -> System {
    let v0 = reg.state_id("v0").unwrap();
    // announce[p] written by p (port 0), read by 1-p (port 1).
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(reg), v0, ports)
    };
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let program = |me: usize, s: Strategy, input: bool| {
        let write = reg
            .invocation_id(if input { "write1" } else { "write0" })
            .unwrap()
            .index() as i64;
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        if s.write_first {
            b.invoke(me as i64, write, None);
            b.invoke(1 - me as i64, read, Some(r));
        } else {
            b.invoke(1 - me as i64, read, Some(r));
            b.invoke(me as i64, write, None);
        }
        // decide = table[own][r]: responses "0"/"1" are indices 0/1, so
        // decide = d0 + r * (d1 - d0) where d_b = decide[own][b].
        let own = usize::from(input);
        let d0 = i64::from(s.decide[own][0]);
        let d1 = i64::from(s.decide[own][1]);
        let dec = b.var("dec");
        b.compute(dec, r, BinOp::Mul, d1 - d0);
        b.compute(dec, dec, BinOp::Add, d0);
        b.ret(dec);
        b.build().expect("well-formed one-round program")
    };
    System::new(
        vec![announce(0), announce(1)],
        vec![program(0, s0, inputs[0]), program(1, s1, inputs[1])],
    )
}

/// Exhaustively searches the one-round family for a correct register-only
/// consensus protocol.
///
/// # Errors
///
/// Propagates exploration failures (none occur for this family: every
/// candidate is trivially wait-free, being straight-line).
pub fn search_one_round_protocols(opts: &ExploreOptions) -> Result<SearchOutcome, ExplorerError> {
    let swept = sweep::run(opts, &one_round_family())?;
    Ok(SearchOutcome {
        candidates: swept.candidates,
        representatives: swept.representatives,
        survivors: swept
            .survivors
            .into_iter()
            .map(|[s0, s1]| (s0, s1))
            .collect(),
        explorations: swept.explorations,
    })
}

/// The one-round family. Its strategies name no process, so swapping the
/// two processes maps `(a, b)` to `(b, a)`: 528 orbits.
pub(crate) fn one_round_family(
) -> Family<Strategy, 2, impl Fn([Strategy; 2], [bool; 2]) -> System + Sync> {
    let strategies = Strategy::all();
    let reg = Arc::new(canonical::boolean_register(2));
    Family {
        name: "search_one_round_protocols",
        choices: [strategies.clone(), strategies],
        symmetry: Symmetry::processes(|s, _| s),
        build: move |c, i| build_system(&reg, c, i),
    }
}

/// One process's strategy in the *two-read* family: a write of its input
/// and **two** reads of the peer's register, in any of the three
/// arrangements, deciding by an arbitrary function of (input, r₁, r₂).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TwoReadStrategy {
    /// Position of the write among the three operations (0, 1 or 2).
    pub write_pos: u8,
    /// `decide[own][r1][r2]` ∈ {0, 1}.
    pub decide: [[[u8; 2]; 2]; 2],
}

impl TwoReadStrategy {
    /// Enumerates all `3 · 2^8 = 768` strategies.
    pub fn all() -> Vec<TwoReadStrategy> {
        let mut out = Vec::with_capacity(768);
        for write_pos in 0..3u8 {
            for table in 0u16..256 {
                let bit = |k: u16| ((table >> k) & 1) as u8;
                let mut decide = [[[0u8; 2]; 2]; 2];
                #[allow(clippy::needless_range_loop)] // mirrors decide[own][r1][r2]
                for own in 0..2 {
                    for r1 in 0..2 {
                        for r2 in 0..2 {
                            decide[own][r1][r2] = bit((own * 4 + r1 * 2 + r2) as u16);
                        }
                    }
                }
                out.push(TwoReadStrategy { write_pos, decide });
            }
        }
        out
    }
}

fn build_two_read_system(
    reg: &Arc<FiniteType>,
    [s0, s1]: [TwoReadStrategy; 2],
    inputs: [bool; 2],
) -> System {
    let v0 = reg.state_id("v0").unwrap();
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(reg), v0, ports)
    };
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let program = |me: usize, s: TwoReadStrategy, input: bool| {
        let write = reg
            .invocation_id(if input { "write1" } else { "write0" })
            .unwrap()
            .index() as i64;
        let mut b = ProgramBuilder::new();
        let r1 = b.var("r1");
        let r2 = b.var("r2");
        let mut read_slot = 0;
        for pos in 0..3 {
            if pos == s.write_pos {
                b.invoke(me as i64, write, None);
            } else {
                let dst = if read_slot == 0 { r1 } else { r2 };
                b.invoke(1 - me as i64, read, Some(dst));
                read_slot += 1;
            }
        }
        // dec = Σ_{i,j} [r1 == i][r2 == j] · decide[own][i][j], as
        // straight-line arithmetic over the 0/1-valued reads.
        let own = usize::from(input);
        let t = s.decide[own];
        let dec = b.var("dec");
        let term = b.var("term");
        b.copy(dec, 0_i64);
        #[allow(clippy::needless_range_loop)] // mirrors t[i][j]
        for i in 0..2usize {
            for j in 0..2usize {
                if t[i][j] == 0 {
                    continue;
                }
                // term = [r1 == i] · [r2 == j]
                let f1 = b.var("f1");
                let f2 = b.var("f2");
                b.compute(f1, r1, BinOp::Eq, i as i64);
                b.compute(f2, r2, BinOp::Eq, j as i64);
                b.compute(term, f1, BinOp::Mul, f2);
                b.compute(dec, dec, BinOp::Add, term);
            }
        }
        b.ret(dec);
        b.build().expect("well-formed two-read program")
    };
    System::new(
        vec![announce(0), announce(1)],
        vec![program(0, s0, inputs[0]), program(1, s1, inputs[1])],
    )
}

/// The result of the two-read exhaustive search (`768² = 589 824`
/// candidates; the classical impossibility predicts zero survivors).
pub type TwoReadOutcome = FamilyOutcome;

/// Exhaustively searches the two-read family (`768² = 589 824` candidate
/// protocols) for a correct register-only consensus. The classical
/// impossibility predicts zero survivors. Only the 295 296 orbit
/// representatives under swapping the processes are model-checked.
/// Expensive (about 1.5 s in release on two cores); exercised by the
/// `--ignored` test `no_two_read_register_protocol_solves_consensus`.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn search_two_read_protocols(opts: &ExploreOptions) -> Result<TwoReadOutcome, ExplorerError> {
    sweep::run(opts, &two_read_family()).map(FamilyOutcome::from)
}

/// The two-read family. Its strategies name no process, so swapping the
/// two processes maps `(a, b)` to `(b, a)`: 295 296 orbits.
pub(crate) fn two_read_family(
) -> Family<TwoReadStrategy, 2, impl Fn([TwoReadStrategy; 2], [bool; 2]) -> System + Sync> {
    let strategies = TwoReadStrategy::all();
    let reg = Arc::new(canonical::boolean_register(2));
    Family {
        name: "search_two_read_protocols",
        choices: [strategies.clone(), strategies],
        symmetry: Symmetry::processes(|s, _| s),
        build: move |c, i| build_two_read_system(&reg, c, i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfc_explorer::explore;

    #[test]
    fn strategy_enumeration_is_complete_and_distinct() {
        let all = Strategy::all();
        assert_eq!(all.len(), 32);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// The machine-checked impossibility: no one-round register protocol
    /// solves 2-process consensus — all 1024 candidates refuted on some
    /// schedule.
    #[test]
    fn no_one_round_register_protocol_solves_consensus() {
        let outcome = search_one_round_protocols(&ExploreOptions::default()).unwrap();
        assert_eq!(outcome.candidates, 1024);
        assert!(
            outcome.survivors.is_empty(),
            "registers solved consensus?! {:?}",
            outcome.survivors
        );
        assert_eq!(outcome.representatives, 528, "one per unordered pair");
        assert!(
            outcome.explorations >= outcome.representatives,
            "each representative explored at least once"
        );
    }

    #[test]
    fn two_read_strategy_enumeration_is_complete() {
        let all = TwoReadStrategy::all();
        assert_eq!(all.len(), 768);
    }

    /// A two-read candidate with a sensible-looking rule still fails —
    /// spot check before the exhaustive (ignored) sweep.
    #[test]
    fn two_read_spot_check_fails() {
        // Write first, then read twice; decide the second read if the
        // two reads agree and are "set", else own value. Plausible and
        // wrong.
        let mut decide = [[[0u8; 2]; 2]; 2];
        #[allow(clippy::needless_range_loop)] // mirrors decide[own][r1][r2]
        for own in 0..2 {
            for r1 in 0..2 {
                for r2 in 0..2 {
                    decide[own][r1][r2] = if r1 == 1 && r2 == 1 { 1 } else { own as u8 };
                }
            }
        }
        let s = TwoReadStrategy {
            write_pos: 0,
            decide,
        };
        let opts = ExploreOptions::default();
        let reg = Arc::new(canonical::boolean_register(2));
        let build = |c, i| build_two_read_system(&reg, c, i);
        assert!(
            !sweep::is_consensus([s, s], build, &opts, &mut 0).unwrap(),
            "the plausible rule must fail on some vector"
        );
    }

    /// The full two-read sweep: 589 824 candidates, zero survivors.
    /// Uses every core (`threads = 0`). Run with
    /// `cargo test --release -p wfc-hierarchy -- --ignored`.
    #[test]
    #[ignore = "exhaustive sweep, about 1.5 s in release on two cores; run with --ignored"]
    fn no_two_read_register_protocol_solves_consensus() {
        let outcome =
            search_two_read_protocols(&ExploreOptions::default().with_threads(0)).unwrap();
        assert_eq!(outcome.candidates, 768 * 768);
        assert_eq!(outcome.survivor_count, 0, "{outcome:?}");
    }

    /// Sanity: a strategy pair *almost* works — write-first with
    /// "decide own input" passes the equal-input vectors and only dies on
    /// mixed ones. This guards the checker against vacuous refutation.
    #[test]
    fn equal_inputs_alone_do_not_refute() {
        let own_value = Strategy {
            write_first: true,
            decide: [[0, 0], [1, 1]],
        };
        let opts = ExploreOptions::default();
        let reg = Arc::new(canonical::boolean_register(2));
        for inputs in [[false, false], [true, true]] {
            let system = build_system(&reg, [own_value, own_value], inputs);
            let e = explore(&system, &opts).unwrap();
            assert!(e.decisions_agree(), "equal inputs must agree");
        }
        let system = build_system(&reg, [own_value, own_value], [false, true]);
        let e = explore(&system, &opts).unwrap();
        assert!(!e.decisions_agree(), "mixed inputs expose the flaw");
    }
}
