//! Bounded impossibility sweeps for the new parameterized families,
//! pinning the **upper** side of their consensus numbers with machine
//! evidence instead of citation alone:
//!
//! * **1-bit shift register at 2 processes** — the one-round register
//!   family of [`crate::impossibility`], augmented with one access to a
//!   shared `shift1` object. Every candidate fails, exhibiting on a
//!   bounded family that `shift1` (which is trivial — every shift
//!   returns `"0"`) adds nothing to registers: `h(shift1) = 1`, the base
//!   case of Aspnes's `h(shift_w) = w`.
//! * **2-bit shift register at 3 processes** — the *winner-table*
//!   family: the exact mechanism that solves 2-process consensus
//!   (announce, shift once, map the returned contents to a winner, adopt
//!   the winner's announce) generalized to 3 processes. Every candidate
//!   fails: `h(shift2) < 3`, which together with the model-checked
//!   2-process protocol pins `h(shift2) = 2`.
//! * **1-window MPR register at 2 processes** — the write-then-read
//!   family on a single `mpr1` object: with window size 1 a read names
//!   the *last* writer, which (like a register, and unlike the `k = 2`
//!   window whose oldest entry names the *first* writer) cannot decide a
//!   race. Every candidate fails: `h_1(mpr1) = 1` on this family.
//!
//! Each sweep is exhaustive over its strategy space: every candidate is
//! refuted by a violating execution or verified on every schedule of
//! every input vector, on the same parallel runner as
//! [`crate::impossibility::search_one_round_protocols`].

use std::sync::Arc;

use wfc_explorer::program::{BinOp, ProgramBuilder};
use wfc_explorer::{ExploreOptions, ExplorerError, ObjectInstance, System};
use wfc_spec::{canonical, FiniteType, PortId};

use crate::sweep::{self, Family, Swept, Symmetry};

/// Outcome of a family sweep: candidates examined, orbit
/// representatives checked, survivors (the impossibility predicts zero),
/// explorations performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FamilyOutcome {
    /// Candidate protocols examined.
    pub candidates: usize,
    /// Candidates actually model-checked: one per class of candidates
    /// that differ only by a relabelling of the processes. Every other
    /// candidate shares its representative's verdict.
    pub representatives: usize,
    /// Candidates that satisfied consensus on every schedule of every
    /// input vector.
    pub survivor_count: usize,
    /// Violation searches and exhaustive explorations performed (early
    /// termination per candidate on the first refuting input vector).
    pub explorations: usize,
}

impl<C> From<Swept<C>> for FamilyOutcome {
    fn from(swept: Swept<C>) -> FamilyOutcome {
        FamilyOutcome {
            candidates: swept.candidates,
            representatives: swept.representatives,
            survivor_count: swept.survivors.len(),
            explorations: swept.explorations,
        }
    }
}

// ---------------------------------------------------------------------
// shift1 at 2 processes
// ---------------------------------------------------------------------

/// One process's strategy in the shift1-augmented one-round family:
/// shift the shared `shift1` object once (capturing its — constant —
/// response is pointless, so the strategy only picks the direction),
/// then run the one-round register protocol: write own input and read
/// the peer's register in either order, deciding by a table over
/// (own input, peer read).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shift1Strategy {
    /// `true`: shift left; `false`: shift right.
    pub shl: bool,
    /// `true`: write before reading; `false`: read before writing.
    pub write_first: bool,
    /// `decide[own][read]` ∈ {0, 1}.
    pub decide: [[u8; 2]; 2],
}

impl Shift1Strategy {
    /// Enumerates all `2 · 2 · 16 = 64` strategies.
    pub fn all() -> Vec<Shift1Strategy> {
        let mut out = Vec::with_capacity(64);
        for shl in [false, true] {
            for write_first in [false, true] {
                for table in 0u8..16 {
                    let bit = |k: u8| (table >> k) & 1;
                    out.push(Shift1Strategy {
                        shl,
                        write_first,
                        decide: [[bit(0), bit(1)], [bit(2), bit(3)]],
                    });
                }
            }
        }
        out
    }
}

fn build_shift1_system(
    reg: &Arc<FiniteType>,
    shift: &Arc<FiniteType>,
    [s0, s1]: [Shift1Strategy; 2],
    inputs: [bool; 2],
) -> System {
    let v0 = reg.state_id("v0").unwrap();
    let init = shift.state_id("1").unwrap();
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(reg), v0, ports)
    };
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let shl = shift.invocation_id("shl").unwrap().index() as i64;
    let shr = shift.invocation_id("shr").unwrap().index() as i64;
    let program = |me: usize, s: Shift1Strategy, input: bool| {
        let write = reg
            .invocation_id(if input { "write1" } else { "write0" })
            .unwrap()
            .index() as i64;
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        b.invoke(2_i64, if s.shl { shl } else { shr }, None);
        if s.write_first {
            b.invoke(me as i64, write, None);
            b.invoke(1 - me as i64, read, Some(r));
        } else {
            b.invoke(1 - me as i64, read, Some(r));
            b.invoke(me as i64, write, None);
        }
        let own = usize::from(input);
        let d0 = i64::from(s.decide[own][0]);
        let d1 = i64::from(s.decide[own][1]);
        let dec = b.var("dec");
        b.compute(dec, r, BinOp::Mul, d1 - d0);
        b.compute(dec, dec, BinOp::Add, d0);
        b.ret(dec);
        b.build().expect("well-formed shift1 program")
    };
    System::new(
        vec![
            announce(0),
            announce(1),
            ObjectInstance::identity_ports(Arc::clone(shift), init, 2),
        ],
        vec![program(0, s0, inputs[0]), program(1, s1, inputs[1])],
    )
}

/// Exhaustively searches the shift1-augmented one-round family
/// (`64² = 4096` candidate pairs) for a 2-process consensus protocol.
/// Zero survivors: the trivial 1-bit shift register adds nothing to
/// registers.
///
/// # Errors
///
/// Propagates cancellation and budget exhaustion.
pub fn search_shift1_protocols(opts: &ExploreOptions) -> Result<FamilyOutcome, ExplorerError> {
    sweep::run(opts, &shift1_family()).map(FamilyOutcome::from)
}

/// The shift1 family. Its strategies name no process, so swapping the
/// two processes maps `(a, b)` to `(b, a)`: 2080 orbits.
pub(crate) fn shift1_family(
) -> Family<Shift1Strategy, 2, impl Fn([Shift1Strategy; 2], [bool; 2]) -> System + Sync> {
    let strategies = Shift1Strategy::all();
    let reg = Arc::new(canonical::boolean_register(2));
    let shift = Arc::new(canonical::shift_register(1, 2));
    Family {
        name: "search_shift1_protocols",
        choices: [strategies.clone(), strategies],
        symmetry: Symmetry::processes(|s, _| s),
        build: move |c, i| build_shift1_system(&reg, &shift, c, i),
    }
}

// ---------------------------------------------------------------------
// shift2 at 3 processes
// ---------------------------------------------------------------------

/// Responses a single shift can return, per direction, starting from
/// `"01"` with every process shifting exactly once: `shl` outputs have
/// low bit 0 (`{"00", "10"}`), `shr` outputs have high bit 0
/// (`{"00", "01"}`); `"11"` is unreachable either way.
const SHL_RESPONSES: [&str; 2] = ["00", "10"];
const SHR_RESPONSES: [&str; 2] = ["00", "01"];

/// One process's strategy in the 3-process winner-table family: announce
/// your input in your own register, which both peers read; shift the
/// shared `shift2` object once in your chosen direction; map the returned
/// contents to a *winner* process; and decide the winner's announced
/// value (your own input if the winner is you).
///
/// Strategies whose winner tables differ only on unreachable responses
/// are behaviorally identical, so the table is indexed by the two
/// responses reachable for the chosen direction: `2 · 3² = 18`
/// strategies per process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShiftWinnerStrategy {
    /// `true`: shift left; `false`: shift right.
    pub shl: bool,
    /// `winner[i]` ∈ {0, 1, 2}: the process whose announce to adopt on
    /// seeing the `i`-th reachable response ([`SHL_RESPONSES`] /
    /// [`SHR_RESPONSES`]).
    pub winner: [u8; 2],
}

impl ShiftWinnerStrategy {
    /// Enumerates all `2 · 9 = 18` strategies.
    pub fn all() -> Vec<ShiftWinnerStrategy> {
        let mut out = Vec::with_capacity(18);
        for shl in [false, true] {
            for w0 in 0..3u8 {
                for w1 in 0..3u8 {
                    out.push(ShiftWinnerStrategy {
                        shl,
                        winner: [w0, w1],
                    });
                }
            }
        }
        out
    }

    /// The same strategy with its winner ids relabelled by `pi`.
    pub(crate) fn relabelled<const N: usize>(self, pi: &[usize; N]) -> ShiftWinnerStrategy {
        ShiftWinnerStrategy {
            winner: self.winner.map(|w| pi[usize::from(w)] as u8),
            ..self
        }
    }
}

/// The winner-table system on `inputs`, with types built for this one
/// call; the sweeps build theirs once and call [`shift2_system`].
#[cfg(test)]
fn build_shift2_three_system(strategies: [ShiftWinnerStrategy; 3], inputs: [bool; 3]) -> System {
    let reg = Arc::new(canonical::boolean_register(3));
    let shift = Arc::new(canonical::shift_register(2, 3));
    shift2_system(&reg, &shift, strategies, inputs)
}

/// The 2-process winner-table family (winners 0 and 1: 8 strategies
/// per process), which has survivors — the positive control for orbit
/// reduction.
#[cfg(test)]
pub(crate) fn shift2_two_process_family(
    symmetry: Symmetry<ShiftWinnerStrategy, 2>,
) -> Family<ShiftWinnerStrategy, 2, impl Fn([ShiftWinnerStrategy; 2], [bool; 2]) -> System + Sync> {
    let strategies: Vec<ShiftWinnerStrategy> = ShiftWinnerStrategy::all()
        .into_iter()
        .filter(|s| s.winner.iter().all(|&w| w < 2))
        .collect();
    let reg = Arc::new(canonical::boolean_register(2));
    let shift = Arc::new(canonical::shift_register(2, 2));
    Family {
        name: "shift2_two_process",
        choices: [strategies.clone(), strategies],
        symmetry,
        build: move |c, i| shift2_system(&reg, &shift, c, i),
    }
}

/// The winner-table system of `N` processes (winner ids below `N`).
fn shift2_system<const N: usize>(
    reg: &Arc<FiniteType>,
    shift: &Arc<FiniteType>,
    strategies: [ShiftWinnerStrategy; N],
    inputs: [bool; N],
) -> System {
    let v0 = reg.state_id("v0").unwrap();
    let init = shift.state_id("01").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let shl = shift.invocation_id("shl").unwrap().index() as i64;
    let shr = shift.invocation_id("shr").unwrap().index() as i64;
    // announce[p], written by p and read by its peers, is object p; the
    // shared shift register is object N. One register per process, not
    // one per ordered pair: a process writing its peers' registers one
    // after another would have to pick an order, and no order by peer id
    // survives every relabelling of the processes.
    let mut objects: Vec<ObjectInstance> = (0..N)
        .map(|_| ObjectInstance::identity_ports(Arc::clone(reg), v0, N))
        .collect();
    let shift_obj = N as i64;
    let resp_id = |name: &str| shift.response_id(name).unwrap().index() as i64;
    objects.push(ObjectInstance::identity_ports(Arc::clone(shift), init, N));
    let program = |me: usize, s: ShiftWinnerStrategy, input: bool| {
        let write = reg
            .invocation_id(if input { "write1" } else { "write0" })
            .unwrap()
            .index() as i64;
        let responses = if s.shl { SHL_RESPONSES } else { SHR_RESPONSES };
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let t = b.var("t");
        b.invoke(me as i64, write, None);
        b.invoke(shift_obj, if s.shl { shl } else { shr }, Some(r));
        for (i, name) in responses.iter().enumerate() {
            let resp = resp_id(name);
            let skip = b.fresh_label();
            b.compute(t, r, BinOp::Eq, resp);
            b.jump_if_zero(t, skip);
            let w = s.winner[i] as usize;
            if w == me {
                b.ret(i64::from(input));
            } else {
                let rv = b.var("rv");
                b.invoke(w as i64, read, Some(rv));
                b.ret(rv);
            }
            b.bind(skip);
        }
        // Unreachable ("11"): decide own input so the program is total.
        b.ret(i64::from(input));
        b.build().expect("well-formed winner-table program")
    };
    System::new(
        objects,
        (0..N)
            .map(|p| program(p, strategies[p], inputs[p]))
            .collect(),
    )
}

/// Sweeps the third process's strategy against every pair of *natural*
/// strategies for the first two — the lifted 2-process mechanism (P0
/// shifts left, P1 shifts right, each reading the race off the returned
/// contents), with all guesses for the third party: `9 · 18 = 162`
/// candidates. Zero survive. The fast half of the shift2 impossibility;
/// [`search_shift2_three_process_full`] sweeps all `18³`.
///
/// # Errors
///
/// Propagates cancellation and budget exhaustion.
pub fn search_shift2_three_process_reduced(
    opts: &ExploreOptions,
) -> Result<FamilyOutcome, ExplorerError> {
    sweep::run(opts, &shift2_reduced_family()).map(FamilyOutcome::from)
}

/// The reduced winner-table family. It fixes the first two processes'
/// directions, so no process relabelling maps it into itself: every
/// candidate is its own representative.
pub(crate) fn shift2_reduced_family(
) -> Family<ShiftWinnerStrategy, 3, impl Fn([ShiftWinnerStrategy; 3], [bool; 3]) -> System + Sync> {
    // P0: left-shifter; "10" ⇒ P0 itself, "00" ⇒ guess w0.
    let first: Vec<ShiftWinnerStrategy> = (0..3u8)
        .map(|w0| ShiftWinnerStrategy {
            shl: true,
            winner: [w0, 0],
        })
        .collect();
    // P1: right-shifter; "00" ⇒ P1 itself, "01" ⇒ guess w1.
    let second: Vec<ShiftWinnerStrategy> = (0..3u8)
        .map(|w1| ShiftWinnerStrategy {
            shl: false,
            winner: [1, w1],
        })
        .collect();
    let third = ShiftWinnerStrategy::all();
    let reg = Arc::new(canonical::boolean_register(3));
    let shift = Arc::new(canonical::shift_register(2, 3));
    Family {
        name: "search_shift2_three_process_reduced",
        choices: [first, second, third],
        symmetry: Symmetry::none(),
        build: move |c, i| shift2_system(&reg, &shift, c, i),
    }
}

/// The full 3-process winner-table sweep: `18³ = 5832` candidate
/// triples, every input vector, every schedule. Zero survivors:
/// `h(shift2) < 3`, so with the model-checked 2-process protocol,
/// `h(shift2) = 2` exactly. Only the 996 orbit representatives under
/// process relabelling are model-checked: about 7 ms in release on two
/// cores (0.1 s in a debug build); exercised by the test
/// `no_winner_table_protocol_solves_3_consensus`.
///
/// # Errors
///
/// Propagates cancellation and budget exhaustion.
pub fn search_shift2_three_process_full(
    opts: &ExploreOptions,
) -> Result<FamilyOutcome, ExplorerError> {
    sweep::run(opts, &shift2_full_family()).map(FamilyOutcome::from)
}

/// The full winner-table family, closed under all six relabellings of
/// its three processes (winner ids relabelled with them): 996 orbits.
pub(crate) fn shift2_full_family(
) -> Family<ShiftWinnerStrategy, 3, impl Fn([ShiftWinnerStrategy; 3], [bool; 3]) -> System + Sync> {
    let strategies = ShiftWinnerStrategy::all();
    let reg = Arc::new(canonical::boolean_register(3));
    let shift = Arc::new(canonical::shift_register(2, 3));
    Family {
        name: "search_shift2_three_process_full",
        choices: [strategies.clone(), strategies.clone(), strategies],
        symmetry: Symmetry::processes(ShiftWinnerStrategy::relabelled),
        build: move |c, i| shift2_system(&reg, &shift, c, i),
    }
}

// ---------------------------------------------------------------------
// mpr1 at 2 processes
// ---------------------------------------------------------------------

/// One process's strategy in the single-object `mpr1` family: append
/// your identity as a marker to the shared 1-window register, read the
/// window back (it holds the *last* marker written, so after your own
/// write the window is never empty), and decide by a table over
/// (own input, read marker).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mpr1Strategy {
    /// `decide[own][marker]` ∈ {0, 1}.
    pub decide: [[u8; 2]; 2],
}

impl Mpr1Strategy {
    /// Enumerates all 16 strategies.
    pub fn all() -> Vec<Mpr1Strategy> {
        (0u8..16)
            .map(|table| {
                let bit = |k: u8| (table >> k) & 1;
                Mpr1Strategy {
                    decide: [[bit(0), bit(1)], [bit(2), bit(3)]],
                }
            })
            .collect()
    }
}

fn build_mpr1_system(
    mpr: &Arc<FiniteType>,
    [s0, s1]: [Mpr1Strategy; 2],
    inputs: [bool; 2],
) -> System {
    let empty = mpr.state_id("⟨⟩").unwrap();
    let read = mpr.invocation_id("read").unwrap().index() as i64;
    let marker_inv = [
        mpr.invocation_id("write0").unwrap().index() as i64,
        mpr.invocation_id("write1").unwrap().index() as i64,
    ];
    // After the process's own write the window holds exactly one marker:
    // responses "⟨0⟩"/"⟨1⟩", mapped to 0/1 for the decision table.
    let marker_one = mpr.response_id("⟨1⟩").unwrap().index() as i64;
    let program = |me: usize, s: Mpr1Strategy, input: bool| {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let m = b.var("m");
        b.invoke(0_i64, marker_inv[me], None);
        b.invoke(0_i64, read, Some(r));
        // m = [r == "⟨1⟩"] ∈ {0, 1}; "⟨⟩" is unreachable after the write.
        b.compute(m, r, BinOp::Eq, marker_one);
        let own = usize::from(input);
        let d0 = i64::from(s.decide[own][0]);
        let d1 = i64::from(s.decide[own][1]);
        let dec = b.var("dec");
        b.compute(dec, m, BinOp::Mul, d1 - d0);
        b.compute(dec, dec, BinOp::Add, d0);
        b.ret(dec);
        b.build().expect("well-formed mpr1 program")
    };
    System::new(
        vec![ObjectInstance::identity_ports(Arc::clone(mpr), empty, 2)],
        vec![program(0, s0, inputs[0]), program(1, s1, inputs[1])],
    )
}

/// Exhaustively searches the single-object `mpr1` family (`16² = 256`
/// candidate pairs) for a 2-process consensus protocol. Zero survivors:
/// a 1-window read names the *last* writer, which decides nothing —
/// `h_1(mpr1) = 1` on this family, against `h_1^r(mpr2) = 2` one window
/// slot up.
///
/// # Errors
///
/// Propagates cancellation and budget exhaustion.
pub fn search_mpr1_protocols(opts: &ExploreOptions) -> Result<FamilyOutcome, ExplorerError> {
    sweep::run(opts, &mpr1_family()).map(FamilyOutcome::from)
}

/// The mpr1 family. A process's marker is its id, so swapping the
/// processes swaps the markers too, and each decision table's marker
/// columns with them; the window starts empty (`⟨⟩`), which names
/// neither marker, so that swap is sound: 136 orbits.
pub(crate) fn mpr1_family(
) -> Family<Mpr1Strategy, 2, impl Fn([Mpr1Strategy; 2], [bool; 2]) -> System + Sync> {
    let strategies = Mpr1Strategy::all();
    let mpr = Arc::new(canonical::mpr(1, 2));
    Family {
        name: "search_mpr1_protocols",
        choices: [strategies.clone(), strategies],
        symmetry: Symmetry::processes(|s, pi| {
            let mut decide = s.decide;
            for (own, row) in s.decide.iter().enumerate() {
                for (marker, &d) in row.iter().enumerate() {
                    decide[own][pi[marker]] = d;
                }
            }
            Mpr1Strategy { decide }
        }),
        build: move |c, i| build_mpr1_system(&mpr, c, i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfc_explorer::explore;

    #[test]
    fn strategy_enumerations_are_complete_and_distinct() {
        let s1 = Shift1Strategy::all();
        assert_eq!(s1.len(), 64);
        let sw = ShiftWinnerStrategy::all();
        assert_eq!(sw.len(), 18);
        for (i, a) in sw.iter().enumerate() {
            for b in &sw[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Mpr1Strategy::all().len(), 16);
    }

    /// `h(shift1) = 1`, machine-checked on the augmented one-round
    /// family: all 4096 candidates refuted.
    #[test]
    fn no_shift1_protocol_solves_consensus() {
        let outcome = search_shift1_protocols(&ExploreOptions::default()).unwrap();
        assert_eq!(outcome.candidates, 64 * 64);
        assert_eq!(outcome.survivor_count, 0, "{outcome:?}");
    }

    /// `h_1(mpr1) = 1`, machine-checked: all 256 candidates refuted.
    #[test]
    fn no_mpr1_protocol_solves_consensus() {
        let outcome = search_mpr1_protocols(&ExploreOptions::default()).unwrap();
        assert_eq!(outcome.candidates, 16 * 16);
        assert_eq!(outcome.survivor_count, 0, "{outcome:?}");
    }

    /// The 2-process winner-table mechanism (which *does* solve 2-process
    /// consensus — see `shift2_consensus_system`) dies at 3 processes for
    /// every choice of the third strategy: 162 candidates, zero survive.
    #[test]
    fn natural_shift2_strategies_fail_at_three_processes() {
        let outcome = search_shift2_three_process_reduced(&ExploreOptions::default()).unwrap();
        assert_eq!(outcome.candidates, 9 * 18);
        assert_eq!(outcome.survivor_count, 0, "{outcome:?}");
    }

    /// The full winner-table sweep: `18³ = 5832` triples, zero
    /// survivors — `h(shift2) < 3`. Uses every core (`threads = 0`).
    #[test]
    fn no_winner_table_protocol_solves_3_consensus() {
        let outcome =
            search_shift2_three_process_full(&ExploreOptions::default().with_threads(0)).unwrap();
        assert_eq!(outcome.candidates, 18 * 18 * 18);
        assert_eq!(outcome.survivor_count, 0, "{outcome:?}");
    }

    /// Guard against vacuous refutation: the decide-self triple (every
    /// winner table names its own process) passes both all-equal input
    /// vectors and only dies on mixed ones — so the sweep's refutations
    /// are doing real schedule-level work, not rejecting everything
    /// outright.
    #[test]
    fn decide_self_triple_fails_only_on_mixed_inputs() {
        let triple = [
            ShiftWinnerStrategy {
                shl: true,
                winner: [0, 0],
            },
            ShiftWinnerStrategy {
                shl: false,
                winner: [1, 1],
            },
            ShiftWinnerStrategy {
                shl: true,
                winner: [2, 2],
            },
        ];
        let opts = ExploreOptions::default();
        for inputs in [[false; 3], [true; 3]] {
            let system = build_shift2_three_system(triple, inputs);
            let e = explore(&system, &opts).unwrap();
            assert!(e.decisions_agree(), "equal inputs must agree");
        }
        let mut explorations = 0;
        assert!(
            !sweep::is_consensus(triple, build_shift2_three_system, &opts, &mut explorations)
                .unwrap(),
            "a mixed vector must refute the decide-self triple"
        );
    }
}
