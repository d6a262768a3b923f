//! The one runner behind every exhaustive protocol-family sweep.
//!
//! A sweep model-checks every candidate protocol — one strategy per
//! process — against every input vector and every schedule. Candidates
//! are independent, so [`run`] fans them out across
//! [`wfc_explorer::pool::parallel_map`] at `opts.effective_threads()`.
//! Each inner exploration runs with `threads = 1`: the candidates'
//! systems are far too small for the explorer's own frontier pool, and a
//! pool nested inside a pool would only oversubscribe the cores.
//!
//! A candidate is refuted by a concrete execution:
//! [`wfc_explorer::find_violation`] searches one input vector at a time,
//! mixed vectors first, and stops at the first violating terminal. Only
//! a candidate that no vector refutes pays for full explorations, one
//! per vector, which verify it on every schedule.
//!
//! The outcome is identical at every thread count. Per-candidate
//! verdicts come back in candidate order; each candidate stops at its
//! first refuting input vector, so its exploration count does not depend
//! on scheduling either. Errors resolve to the **lowest-index** failing
//! candidate: once a candidate fails, workers skip every candidate past
//! it, while those before it (already claimed, since claims run in
//! index order) still finish and may report an earlier error.

use std::sync::atomic::{AtomicUsize, Ordering};

use wfc_explorer::pool::parallel_map;
use wfc_explorer::{explore, find_violation, ExploreOptions, ExplorerError, Progress, System};

/// What a sweep found.
pub(crate) struct Swept<C> {
    /// Candidates examined.
    pub(crate) candidates: usize,
    /// Candidates that satisfied consensus on every schedule of every
    /// input vector, in candidate order.
    pub(crate) survivors: Vec<C>,
    /// Violation searches plus exhaustive explorations performed.
    pub(crate) explorations: usize,
}

/// Every combination of one choice per process, the first process's
/// choice varying slowest.
pub(crate) fn product<S: Copy, const N: usize>(choices: [&[S]; N]) -> Vec<[S; N]> {
    let total: usize = choices.iter().map(|c| c.len()).product();
    let mut out = Vec::with_capacity(total);
    for mut i in 0..total {
        let mut pick = [choices[0][0]; N];
        for p in (0..N).rev() {
            pick[p] = choices[p][i % choices[p].len()];
            i /= choices[p].len();
        }
        out.push(pick);
    }
    out
}

/// The sweep-level control poll, once per candidate: each inner
/// exploration is tiny, so this is the sync point that bounds
/// cancellation latency. Progress is reported on the `steps` axis
/// (explorations finished so far).
fn poll(opts: &ExploreOptions, explorations: usize) -> Result<(), ExplorerError> {
    let progress = Progress {
        steps: explorations as u64,
        ..Progress::default()
    };
    if opts.cancel.is_cancelled() {
        progress.record();
        return Err(ExplorerError::Cancelled { progress });
    }
    if let Some(e) = opts.budget.wall_exceeded(progress) {
        return Err(ExplorerError::Exhausted(e));
    }
    Ok(())
}

/// The input vectors of `N` processes in the order a candidate meets
/// them: every mixed vector, then all-`false`, then all-`true`. Equal
/// inputs rarely refute a candidate, so the cheap refutations come
/// first.
fn input_vectors<const N: usize>() -> impl Iterator<Item = [bool; N]> {
    let all = (1u32 << N) - 1;
    (1..all)
        .chain([0, all])
        .map(|mask| std::array::from_fn(|p| (mask >> p) & 1 != 0))
}

/// The values a process may decide on `inputs`: the proposed ones.
fn proposed<const N: usize>(inputs: [bool; N]) -> Vec<i64> {
    inputs.iter().map(|&b| i64::from(b)).collect()
}

/// Checks one candidate against every input vector and schedule. Each
/// vector is searched for a violating execution, which refutes the
/// candidate at once. A candidate no execution refutes is then
/// explored exhaustively on every vector, so a survivor carries
/// [`explore`]'s verdict and budgets. Each search and each exploration
/// counts once in `explorations`.
pub(crate) fn is_consensus<S: Copy, const N: usize>(
    candidate: [S; N],
    build: impl Fn([S; N], [bool; N]) -> System,
    opts: &ExploreOptions,
    explorations: &mut usize,
) -> Result<bool, ExplorerError> {
    for inputs in input_vectors::<N>() {
        *explorations += 1;
        if find_violation(&build(candidate, inputs), &proposed(inputs), opts)?.is_some() {
            return Ok(false);
        }
    }
    for inputs in input_vectors::<N>() {
        *explorations += 1;
        let e = explore(&build(candidate, inputs), opts)?;
        if !e.decisions_agree() || !e.decisions_within(&proposed(inputs)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Sweeps `candidates`, building each one's system per input vector
/// with `build`. `name` labels the sweep's span.
///
/// # Errors
///
/// The error of the lowest-index candidate that failed: cancellation
/// or wall-budget exhaustion observed before it started, or its own
/// exploration error.
pub(crate) fn run<S, const N: usize>(
    name: &'static str,
    opts: &ExploreOptions,
    candidates: &[[S; N]],
    build: impl Fn([S; N], [bool; N]) -> System + Sync,
) -> Result<Swept<[S; N]>, ExplorerError>
where
    S: Copy + Send + Sync,
{
    let _span = wfc_obs::span::enter_if(opts.obs.spans, name, String::new());
    let inner = opts.with_threads(1);
    // Both atomics publish no other data: `explored` feeds the progress
    // report and `first_error` only lets workers skip doomed candidates.
    // The outcome is read from the verdicts after the pool joins.
    let explored = AtomicUsize::new(0);
    let first_error = AtomicUsize::new(usize::MAX);
    let order: Vec<usize> = (0..candidates.len()).collect();
    let verdicts = parallel_map(opts.effective_threads(), &order, |&i| {
        if i > first_error.load(Ordering::Relaxed) {
            return None;
        }
        let mut n = 0;
        let verdict = poll(opts, explored.load(Ordering::Relaxed))
            .and_then(|()| is_consensus(candidates[i], &build, &inner, &mut n));
        explored.fetch_add(n, Ordering::Relaxed);
        if verdict.is_err() {
            first_error.fetch_min(i, Ordering::Relaxed);
        }
        // Boxing the rare error keeps the per-candidate result at 16 bytes.
        Some(verdict.map(|survives| (n, survives)).map_err(Box::new))
    });
    let mut swept = Swept {
        candidates: candidates.len(),
        survivors: Vec::new(),
        explorations: 0,
    };
    for (verdict, &candidate) in verdicts.into_iter().zip(candidates) {
        // Only candidates past a failed one are skipped, and the failed
        // one returns first.
        let (n, survives) = verdict
            .expect("candidate before the first error ran")
            .map_err(|e| *e)?;
        swept.explorations += n;
        if survives {
            swept.survivors.push(candidate);
        }
    }
    if opts.obs.metrics {
        let reg = wfc_obs::metrics::Registry::global();
        reg.counter("hierarchy.candidates")
            .add(swept.candidates as u64);
        reg.counter("hierarchy.explorations")
            .add(swept.explorations as u64);
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{self, FamilyOutcome};
    use crate::impossibility;
    use wfc_explorer::program::ProgramBuilder;

    /// One process deciding its own input — a survivor — unless
    /// `c ≡ 3 (mod 7)`: then it invokes the missing object `100 + c`
    /// and fails with an error naming it.
    fn own_input_or_broken([c]: [u8; 1], [input]: [bool; 1]) -> System {
        let mut b = ProgramBuilder::new();
        if c % 7 == 3 {
            b.invoke(100 + i64::from(c), 0_i64, None);
        }
        b.ret(i64::from(input));
        System::new(Vec::new(), vec![b.build().unwrap()])
    }

    #[test]
    fn the_lowest_failing_candidate_wins_at_every_thread_count() {
        let pairs = product([&[0, 1][..], &[0, 1, 2][..]]);
        assert_eq!(pairs, [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]);
        let all: Vec<u8> = (0..64).collect();
        let candidates = product([&all[..]]);
        let good: Vec<[u8; 1]> = (0..3).map(|c| [c]).collect();
        for threads in [1, 2, 4, 8] {
            let opts = ExploreOptions::default().with_threads(threads);
            let error = run("test", &opts, &candidates, own_input_or_broken).err();
            let lowest = ExplorerError::NoSuchObject {
                process: 0,
                obj: 103,
            };
            assert_eq!(error, Some(lowest), "threads={threads}");
            let swept = run("test", &opts, &good, own_input_or_broken).unwrap();
            assert_eq!(swept.survivors, good, "threads={threads}");
            // Each survivor is searched, then explored, on both vectors.
            assert_eq!(swept.explorations, 12, "threads={threads}");
        }
    }

    #[test]
    fn mixed_input_vectors_come_first() {
        let (f, t) = (false, true);
        let two: Vec<[bool; 2]> = input_vectors().collect();
        assert_eq!(two, [[t, f], [f, t], [f, f], [t, t]]);
        let three: Vec<[bool; 3]> = input_vectors().collect();
        assert_eq!(three.len(), 8);
        assert_eq!(three[6..], [[f; 3], [t; 3]]);
    }

    /// Two-process candidates for the positive control.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Protocol {
        /// Test-and-set plus announce registers: solves consensus.
        Tas,
        /// Compare-and-swap plus announce registers: solves consensus.
        CasAnnounce,
        /// Each process decides its own input: disagrees on mixed inputs.
        OwnInput,
    }

    /// The system of a candidate `[p, p]` on `inputs`.
    fn protocol_system([p, _]: [Protocol; 2], inputs: [bool; 2]) -> System {
        match p {
            Protocol::Tas => wfc_consensus::tas_consensus_system(inputs).system,
            Protocol::CasAnnounce => wfc_consensus::cas_announce_consensus_system(&inputs).system,
            Protocol::OwnInput => {
                let own = |input: bool| {
                    let mut b = ProgramBuilder::new();
                    b.ret(i64::from(input));
                    b.build().unwrap()
                };
                System::new(Vec::new(), vec![own(inputs[0]), own(inputs[1])])
            }
        }
    }

    /// Guard against a runner that refutes everything: correct protocols
    /// among refutable candidates survive, and the searches that clear
    /// them visit exactly `explore`'s configurations on every vector.
    #[test]
    fn correct_protocols_survive_and_are_searched_in_full() {
        use Protocol::*;
        let candidates = [OwnInput, Tas, OwnInput, CasAnnounce].map(|p| [p, p]);
        for threads in [1, 2, 4, 8] {
            let opts = ExploreOptions::default().with_threads(threads);
            let swept = run("test", &opts, &candidates, protocol_system).unwrap();
            assert_eq!(swept.survivors, [[Tas, Tas], [CasAnnounce, CasAnnounce]]);
            // An own-input candidate falls to the first mixed vector; a
            // survivor is searched, then explored, on all four.
            assert_eq!(swept.explorations, 1 + 8 + 1 + 8, "threads={threads}");
        }
        // A search fits a configs budget of exactly `explore`'s size and
        // trips one below it, with `explore`'s error.
        let opts = ExploreOptions::default();
        for p in [Tas, CasAnnounce] {
            for inputs in input_vectors() {
                let system = protocol_system([p, p], inputs);
                let allowed = proposed(inputs);
                let configs = explore(&system, &opts).unwrap().configs;
                let at = opts.with_max_configs(configs);
                assert_eq!(find_violation(&system, &allowed, &at), Ok(None));
                let below = opts.with_max_configs(configs - 1);
                assert_eq!(
                    find_violation(&system, &allowed, &below).unwrap_err(),
                    explore(&system, &below).unwrap_err(),
                    "{p:?} on {inputs:?}"
                );
            }
        }
    }

    /// `(candidates, survivors, explorations)` of each named sweep.
    type Pinned = Vec<(&'static str, (usize, usize, usize))>;

    fn family(o: Result<FamilyOutcome, ExplorerError>) -> (usize, usize, usize) {
        let o = o.unwrap();
        (o.candidates, o.survivor_count, o.explorations)
    }

    /// Every sweep's outcome at every thread count. The exploration
    /// counts are the sweeps' cost: a violation search per refuting
    /// vector, plus a full exploration per vector of a survivor.
    #[test]
    fn every_sweep_outcome_is_pinned_at_every_thread_count() {
        for threads in [1, 2, 4, 8] {
            let o = ExploreOptions::default().with_threads(threads);
            let one_round = impossibility::search_one_round_protocols(&o).unwrap();
            let outcomes: Pinned = vec![
                (
                    "one_round",
                    (
                        one_round.candidates,
                        one_round.survivors.len(),
                        one_round.explorations,
                    ),
                ),
                ("shift1", family(families::search_shift1_protocols(&o))),
                ("mpr1", family(families::search_mpr1_protocols(&o))),
                (
                    "shift2_reduced",
                    family(families::search_shift2_three_process_reduced(&o)),
                ),
                (
                    "shift2_full",
                    family(families::search_shift2_three_process_full(&o)),
                ),
            ];
            let expected: Pinned = vec![
                ("one_round", (1024, 0, 1360)),
                ("shift1", (4096, 0, 5440)),
                ("mpr1", (256, 0, 293)),
                ("shift2_reduced", (162, 0, 162)),
                ("shift2_full", (5832, 0, 6564)),
            ];
            assert_eq!(outcomes, expected, "threads={threads}");
        }
    }

    #[test]
    #[ignore = "exhaustive sweep at four thread counts, about 12.5 s in release on two cores; run with --ignored"]
    fn two_read_sweep_outcome_is_pinned_at_every_thread_count() {
        for threads in [1, 2, 4, 8] {
            let o = ExploreOptions::default().with_threads(threads);
            let outcome = family(impossibility::search_two_read_protocols(&o));
            assert_eq!(outcome, (768 * 768, 0, 675_072), "threads={threads}");
        }
    }
}
