//! The one runner behind every exhaustive protocol-family sweep.
//!
//! A sweep model-checks every candidate protocol — one strategy per
//! process — against every input vector and every schedule. Candidates
//! are independent, so [`run`] fans them out across
//! [`wfc_explorer::pool::parallel_map`] at `opts.effective_threads()`.
//! Each inner exploration runs with `threads = 1`, so nothing inside a
//! candidate fans out again: a pool nested inside a pool would only
//! oversubscribe the cores.
//!
//! Many candidates are the same protocol with the processes numbered
//! differently. A [`Family`] declares the process relabellings it is
//! closed under as a [`Symmetry`], and the runner checks one candidate
//! per orbit: its **lowest-index** member, the representative. Every
//! other member gets its representative's verdict, because relabelling
//! the processes of a candidate and of an input vector together yields
//! an isomorphic system (DESIGN.md, "Sweep symmetry"); the
//! `equivariance` tests check that isomorphism rather than assume it.
//! Orbits are computed on the calling thread before the pool starts, and
//! the runner refuses a symmetry that maps a candidate outside the
//! family.
//!
//! A candidate is refuted by a concrete execution:
//! [`wfc_explorer::find_violation`] searches one input vector at a time,
//! mixed vectors first, and stops at the first violating terminal. Only
//! a candidate that no vector refutes pays for full explorations, one
//! per vector, which verify it on every schedule.
//!
//! The outcome is identical at every thread count. Per-representative
//! verdicts come back in candidate order; each representative stops at
//! its first refuting input vector, so its exploration count does not
//! depend on scheduling either. Errors resolve to the **lowest-index**
//! failing candidate, which is always a representative (a failing
//! candidate's representative fails too and comes no later): once a
//! representative fails, workers skip every one past it, while those
//! before it (already claimed, since claims run in index order) still
//! finish and may report an earlier error.

use std::sync::atomic::{AtomicUsize, Ordering};

use wfc_explorer::pool::parallel_map;
use wfc_explorer::{explore, find_violation, ExploreOptions, ExplorerError, Progress, System};

/// What a sweep found.
pub(crate) struct Swept<C> {
    /// Candidates examined, representatives or not.
    pub(crate) candidates: usize,
    /// Orbit representatives actually checked.
    pub(crate) representatives: usize,
    /// Candidates that satisfied consensus on every schedule of every
    /// input vector, in candidate order.
    pub(crate) survivors: Vec<C>,
    /// Violation searches plus exhaustive explorations performed.
    pub(crate) explorations: usize,
}

/// A protocol family to sweep: every combination of one strategy per
/// process, the first process's choice varying slowest.
pub(crate) struct Family<S, const N: usize, B> {
    /// Labels the sweep's span and the closure check's refusal.
    pub(crate) name: &'static str,
    /// Each process's strategies.
    pub(crate) choices: [Vec<S>; N],
    /// The process relabellings the family is closed under.
    pub(crate) symmetry: Symmetry<S, N>,
    /// A candidate's system on an input vector.
    pub(crate) build: B,
}

impl<S: Copy, const N: usize, B> Family<S, N, B> {
    /// The number of candidates.
    pub(crate) fn len(&self) -> usize {
        self.choices.iter().map(Vec::len).product()
    }

    /// Candidate `i`'s choice index per process.
    fn digits(&self, mut i: usize) -> [usize; N] {
        let mut digits = [0; N];
        for p in (0..N).rev() {
            digits[p] = i % self.choices[p].len();
            i /= self.choices[p].len();
        }
        digits
    }

    /// Candidate `i`.
    pub(crate) fn candidate(&self, i: usize) -> [S; N] {
        let digits = self.digits(i);
        std::array::from_fn(|p| self.choices[p][digits[p]])
    }
}

/// A group of process relabellings acting on a family's candidates. A
/// relabelling `π` sends process `p` to `π[p]`: its strategy, with the
/// process ids it names relabelled by `permute`, moves to slot `π[p]`,
/// and its input moves with it.
pub(crate) struct Symmetry<S, const N: usize> {
    /// The group's elements other than the identity.
    relabellings: Vec<[usize; N]>,
    /// Relabels the process ids named inside one strategy.
    permute: fn(S, &[usize; N]) -> S,
}

impl<S: Copy, const N: usize> Symmetry<S, N> {
    /// The trivial group: every candidate is its own representative.
    pub(crate) fn none() -> Self {
        Symmetry {
            relabellings: Vec::new(),
            permute: |s, _| s,
        }
    }

    /// Every relabelling of the `N` processes, acting on strategies
    /// through `permute`.
    pub(crate) fn processes(permute: fn(S, &[usize; N]) -> S) -> Self {
        let maps = (0..N.pow(N as u32))
            .map(|i| std::array::from_fn(|p| i / N.pow((N - 1 - p) as u32) % N));
        let relabellings = maps
            .filter(|pi: &[usize; N]| (0..N).all(|q| pi.contains(&q)))
            .filter(|pi| pi.iter().enumerate().any(|(p, &q)| p != q))
            .collect();
        Symmetry {
            relabellings,
            permute,
        }
    }
}

/// The orbits of a family's candidates: each orbit's representative, in
/// candidate order, and for every candidate the position of its orbit's
/// representative in that list.
struct Orbits {
    representatives: Vec<usize>,
    class: Vec<usize>,
}

/// Partitions `family`'s candidates into orbits. A relabelling moves
/// each process's strategy into another slot's choice list, so the
/// index of a candidate's image is a sum over processes, looked up in a
/// per-strategy table instead of built and searched for.
///
/// # Panics
///
/// If the symmetry maps some strategy outside its new slot's choices:
/// the family is not closed under it, so a representative's verdict
/// would not speak for its orbit.
fn orbits<S: Copy + PartialEq, const N: usize, B>(family: &Family<S, N, B>) -> Orbits {
    let n = family.len();
    let symmetry = &family.symmetry;
    if symmetry.relabellings.is_empty() {
        return Orbits {
            representatives: (0..n).collect(),
            class: (0..n).collect(),
        };
    }
    // `stride[p]`: how far one step of process p's choice moves the index.
    let mut stride = [1; N];
    for p in (0..N - 1).rev() {
        stride[p] = stride[p + 1] * family.choices[p + 1].len();
    }
    // `moved[k][p][j]`: what process p's strategy `j` adds to the image's
    // index once the k-th relabelling `π` has moved it to slot `π[p]`.
    let moved: Vec<[Vec<usize>; N]> = symmetry
        .relabellings
        .iter()
        .map(|pi| {
            std::array::from_fn(|p| {
                let target = &family.choices[pi[p]];
                let index = |(j, &s): (usize, &S)| {
                    let image = (symmetry.permute)(s, pi);
                    let Some(at) = target.iter().position(|&t| t == image) else {
                        panic!(
                            "{}: relabelling {pi:?} maps strategy {j} of process {p} \
                             outside the family",
                            family.name
                        );
                    };
                    at * stride[pi[p]]
                };
                family.choices[p].iter().enumerate().map(index).collect()
            })
        })
        .collect();
    let mut orbits = Orbits {
        representatives: Vec::new(),
        class: Vec::with_capacity(n),
    };
    for i in 0..n {
        let digits = family.digits(i);
        let lowest = moved
            .iter()
            .map(|m| (0..N).map(|p| m[p][digits[p]]).sum())
            .fold(i, usize::min);
        if lowest == i {
            orbits.class.push(orbits.representatives.len());
            orbits.representatives.push(i);
        } else {
            // The representative precedes `i`, so its class is known.
            orbits.class.push(orbits.class[lowest]);
        }
    }
    orbits
}

/// The sweep-level control poll, once per representative: each inner
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

/// Sweeps `family`, checking one representative per orbit of its
/// symmetry.
///
/// # Errors
///
/// The error of the lowest-index candidate that failed: cancellation
/// or wall-budget exhaustion observed before it started, or its own
/// exploration error.
///
/// # Panics
///
/// If the family is not closed under its symmetry.
pub(crate) fn run<S, const N: usize, B>(
    opts: &ExploreOptions,
    family: &Family<S, N, B>,
) -> Result<Swept<[S; N]>, ExplorerError>
where
    S: Copy + PartialEq + Send + Sync,
    B: Fn([S; N], [bool; N]) -> System + Sync,
{
    let _span = wfc_obs::span::enter_if(opts.obs.spans, family.name, String::new());
    let orbits = orbits(family);
    let inner = opts.with_threads(1);
    // Both atomics publish no other data: `explored` feeds the progress
    // report and `first_error` only lets workers skip doomed candidates.
    // The outcome is read from the verdicts after the pool joins.
    let explored = AtomicUsize::new(0);
    let first_error = AtomicUsize::new(usize::MAX);
    let verdicts = parallel_map(opts.effective_threads(), &orbits.representatives, |&i| {
        if i > first_error.load(Ordering::Relaxed) {
            return None;
        }
        let mut n = 0;
        let verdict = poll(opts, explored.load(Ordering::Relaxed))
            .and_then(|()| is_consensus(family.candidate(i), &family.build, &inner, &mut n));
        explored.fetch_add(n, Ordering::Relaxed);
        if verdict.is_err() {
            first_error.fetch_min(i, Ordering::Relaxed);
        }
        // Boxing the rare error keeps each worker result at 16 bytes.
        Some(verdict.map(|survives| (n, survives)).map_err(Box::new))
    });
    let mut explorations = 0;
    let mut survives = Vec::with_capacity(verdicts.len());
    for verdict in verdicts {
        // Only representatives past a failed one are skipped, and the
        // failed one returns first.
        let (n, s) = verdict
            .expect("representative before the first error ran")
            .map_err(|e| *e)?;
        explorations += n;
        survives.push(s);
    }
    let swept = Swept {
        candidates: family.len(),
        representatives: orbits.representatives.len(),
        survivors: (0..family.len())
            .filter(|&i| survives[orbits.class[i]])
            .map(|i| family.candidate(i))
            .collect(),
        explorations,
    };
    if opts.obs.metrics {
        let reg = wfc_obs::metrics::Registry::global();
        reg.counter("hierarchy.candidates")
            .add(swept.candidates as u64);
        reg.counter("hierarchy.representatives")
            .add(swept.representatives as u64);
        reg.counter("hierarchy.explorations")
            .add(swept.explorations as u64);
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::families::{self, FamilyOutcome};
    use crate::impossibility;
    use wfc_explorer::program::ProgramBuilder;
    use wfc_spec::prng::SplitMix64;

    /// An unreduced family named `test`.
    fn plain<S: Copy, const N: usize, B>(choices: [Vec<S>; N], build: B) -> Family<S, N, B> {
        Family {
            name: "test",
            choices,
            symmetry: Symmetry::none(),
            build,
        }
    }

    fn every<S: Copy, const N: usize, B>(family: &Family<S, N, B>) -> Vec<[S; N]> {
        (0..family.len()).map(|i| family.candidate(i)).collect()
    }

    /// Moves `xs[p]` to slot `pi[p]`.
    fn relabel<T: Copy>(pi: &[usize], xs: &[T]) -> Vec<T> {
        let mut out = xs.to_vec();
        for (p, &x) in xs.iter().enumerate() {
            out[pi[p]] = x;
        }
        out
    }

    /// [`relabel`] on an array.
    fn moved<T: Copy, const N: usize>(pi: &[usize; N], xs: [T; N]) -> [T; N] {
        let mut out = xs;
        for (p, &x) in xs.iter().enumerate() {
            out[pi[p]] = x;
        }
        out
    }

    /// The image `π · candidate`.
    fn image<S: Copy, const N: usize>(
        symmetry: &Symmetry<S, N>,
        pi: &[usize; N],
        candidate: [S; N],
    ) -> [S; N] {
        moved(pi, candidate.map(|s| (symmetry.permute)(s, pi)))
    }

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
        let pairs = plain([vec![0, 1], vec![0, 1, 2]], ());
        assert_eq!(
            every(&pairs),
            [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
        );
        let candidates = plain([(0..64).collect()], own_input_or_broken);
        let good = plain([vec![0, 1, 2]], own_input_or_broken);
        for threads in [1, 2, 4, 8] {
            let opts = ExploreOptions::default().with_threads(threads);
            let error = run(&opts, &candidates).err();
            let lowest = ExplorerError::NoSuchObject {
                process: 0,
                obj: 103,
            };
            assert_eq!(error, Some(lowest), "threads={threads}");
            let swept = run(&opts, &good).unwrap();
            assert_eq!(swept.survivors, every(&good), "threads={threads}");
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
        /// The second process's only choice: run the first one's protocol.
        Same,
    }

    /// The system of a candidate `[p, Same]` on `inputs`.
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
            Protocol::Same => unreachable!("`Same` is never a first choice"),
        }
    }

    /// Guard against a runner that refutes everything: correct protocols
    /// among refutable candidates survive, and the searches that clear
    /// them visit exactly `explore`'s configurations on every vector.
    #[test]
    fn correct_protocols_survive_and_are_searched_in_full() {
        use Protocol::*;
        let family = plain(
            [vec![OwnInput, Tas, OwnInput, CasAnnounce], vec![Same]],
            protocol_system,
        );
        for threads in [1, 2, 4, 8] {
            let opts = ExploreOptions::default().with_threads(threads);
            let swept = run(&opts, &family).unwrap();
            assert_eq!(swept.survivors, [[Tas, Same], [CasAnnounce, Same]]);
            // An own-input candidate falls to the first mixed vector; a
            // survivor is searched, then explored, on all four.
            assert_eq!(swept.explorations, 1 + 8 + 1 + 8, "threads={threads}");
        }
        // A search fits a configs budget of exactly `explore`'s size and
        // trips one below it, with `explore`'s error.
        let opts = ExploreOptions::default();
        for p in [Tas, CasAnnounce] {
            for inputs in input_vectors() {
                let system = protocol_system([p, Same], inputs);
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

    /// A two-process candidate breaks when a process's strategy is
    /// `≡ 3 (mod 7)`: it invokes the missing object `100 + c`.
    fn own_input_or_broken_pair(c: [u8; 2], inputs: [bool; 2]) -> System {
        let program = |c: u8, input: bool| {
            let mut b = ProgramBuilder::new();
            if c % 7 == 3 {
                b.invoke(100 + i64::from(c), 0_i64, None);
            }
            b.ret(i64::from(input));
            b.build().unwrap()
        };
        System::new(
            Vec::new(),
            vec![program(c[0], inputs[0]), program(c[1], inputs[1])],
        )
    }

    /// The reduction keeps "the lowest-index failing candidate": `(0, 3)`
    /// fails first, in process 1, and is its own orbit's representative,
    /// so reduced and unreduced sweeps report the same error.
    #[test]
    fn the_lowest_failing_candidate_wins_under_reduction() {
        let all: Vec<u8> = (0..8).collect();
        let unreduced = plain([all.clone(), all.clone()], own_input_or_broken_pair);
        let reduced = Family {
            symmetry: Symmetry::processes(|s, _| s),
            ..plain([all.clone(), all], own_input_or_broken_pair)
        };
        let lowest = ExplorerError::NoSuchObject {
            process: 1,
            obj: 103,
        };
        for threads in [1, 2, 4, 8] {
            let opts = ExploreOptions::default().with_threads(threads);
            assert_eq!(run(&opts, &unreduced).err(), Some(lowest.clone()));
            assert_eq!(run(&opts, &reduced).err(), Some(lowest.clone()));
        }
    }

    #[test]
    fn relabellings_are_every_non_identity_permutation() {
        let s3 = Symmetry::<u8, 3>::processes(|s, _| s);
        assert_eq!(
            s3.relabellings,
            [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]]
        );
        assert_eq!(
            Symmetry::<u8, 2>::processes(|s, _| s).relabellings,
            [[1, 0]]
        );
        assert!(Symmetry::<u8, 3>::none().relabellings.is_empty());
        // Process 0 moves to slot 1, 1 to 2, 2 to 0.
        assert_eq!(moved(&[1, 2, 0], ['a', 'b', 'c']), ['c', 'a', 'b']);
    }

    /// What relabelling the processes must preserve of one exploration.
    #[derive(Debug, PartialEq)]
    struct Shape {
        configs: usize,
        edges: usize,
        depth: usize,
        per_process_steps: Vec<u32>,
        decisions: BTreeSet<Vec<i64>>,
    }

    fn shape(system: &System) -> Shape {
        let e = explore(system, &ExploreOptions::default()).unwrap();
        Shape {
            configs: e.configs,
            edges: e.edges,
            depth: e.depth,
            per_process_steps: e.per_process_steps,
            decisions: e.decisions,
        }
    }

    impl Shape {
        fn relabelled(&self, pi: &[usize]) -> Shape {
            Shape {
                per_process_steps: relabel(pi, &self.per_process_steps),
                decisions: self.decisions.iter().map(|d| relabel(pi, d)).collect(),
                ..*self
            }
        }
    }

    /// Checks that the family's symmetry is an isomorphism on the
    /// candidates at `which`: for every relabelling `π` and input vector
    /// `v`, exploring `π · c` on `π · v` gives the same configurations,
    /// edges and depth as `c` on `v`, with the decision vectors and
    /// per-process step bounds relabelled by `π`. Returns the first
    /// mismatch found.
    fn equivariance<S, const N: usize, B>(
        family: &Family<S, N, B>,
        which: &[usize],
    ) -> Result<(), String>
    where
        S: Copy + std::fmt::Debug + Sync,
        B: Fn([S; N], [bool; N]) -> System + Sync,
    {
        let mismatches = parallel_map(0, which, |&i| {
            let c = family.candidate(i);
            for v in input_vectors::<N>() {
                let original = shape(&(family.build)(c, v));
                for pi in &family.symmetry.relabellings {
                    let seen = shape(&(family.build)(
                        image(&family.symmetry, pi, c),
                        moved(pi, v),
                    ));
                    let expected = original.relabelled(pi);
                    if seen != expected {
                        return Some(format!(
                            "{}: {c:?} on {v:?} under {pi:?}: {seen:?}, expected {expected:?}",
                            family.name
                        ));
                    }
                }
            }
            None
        });
        mismatches.into_iter().flatten().next().map_or(Ok(()), Err)
    }

    fn all_indices<S: Copy, const N: usize, B>(family: &Family<S, N, B>) -> Vec<usize> {
        (0..family.len()).collect()
    }

    /// `count` distinct candidate indices drawn with a fixed seed.
    fn sample<S: Copy, const N: usize, B>(family: &Family<S, N, B>, count: usize) -> Vec<usize> {
        let mut rng = SplitMix64::new(20_261_019);
        let mut picked = BTreeSet::new();
        while picked.len() < count {
            picked.insert(rng.gen_range(0, family.len()));
        }
        picked.into_iter().collect()
    }

    #[test]
    fn the_two_process_families_are_equivariant_on_every_candidate() {
        let one_round = impossibility::one_round_family();
        assert_eq!(equivariance(&one_round, &all_indices(&one_round)), Ok(()));
        let shift1 = families::shift1_family();
        assert_eq!(equivariance(&shift1, &all_indices(&shift1)), Ok(()));
        let mpr1 = families::mpr1_family();
        assert_eq!(equivariance(&mpr1, &all_indices(&mpr1)), Ok(()));
    }

    #[test]
    fn sampled_shift2_and_two_read_candidates_are_equivariant() {
        let shift2 = families::shift2_full_family();
        assert_eq!(equivariance(&shift2, &sample(&shift2, 500)), Ok(()));
        let two_read = impossibility::two_read_family();
        assert_eq!(equivariance(&two_read, &sample(&two_read, 200)), Ok(()));
    }

    #[test]
    #[ignore = "all 5832 triples under all six relabellings; run with --ignored"]
    fn every_shift2_triple_is_equivariant() {
        let shift2 = families::shift2_full_family();
        assert_eq!(equivariance(&shift2, &all_indices(&shift2)), Ok(()));
    }

    /// Negative control: mpr1's marker swap, copied onto the one-round
    /// family's read values. The family is closed under it, so the runner
    /// would accept it, but it is unsound — an unwritten register reads
    /// `0`, whoever owns it — and the equivariance check must say so.
    #[test]
    fn a_planted_read_value_swap_is_not_equivariant() {
        let planted = Family {
            symmetry: Symmetry::processes(|s: impossibility::Strategy, _| {
                impossibility::Strategy {
                    decide: s.decide.map(|[d0, d1]| [d1, d0]),
                    ..s
                }
            }),
            ..impossibility::one_round_family()
        };
        assert_eq!(orbits(&planted).representatives.len(), 528);
        assert!(equivariance(&planted, &all_indices(&planted)).is_err());
    }

    /// Negative control: the reduced shift2 product fixes P0 to shift
    /// left and P1 to shift right, so relabelling its processes leaves it.
    #[test]
    #[should_panic(expected = "maps strategy 0 of process 2 outside the family")]
    fn relabelling_the_reduced_shift2_product_is_refused() {
        let family = Family {
            symmetry: Symmetry::processes(families::ShiftWinnerStrategy::relabelled),
            ..families::shift2_reduced_family()
        };
        let _ = run(&ExploreOptions::default(), &family);
    }

    /// Positive control: a family with survivors, some fixed by the swap
    /// and some in pairs, reports the same survivors reduced or not.
    #[test]
    fn reduction_keeps_every_survivor_of_the_two_process_shift2_family() {
        use families::ShiftWinnerStrategy;
        let reduced = families::shift2_two_process_family(Symmetry::processes(
            ShiftWinnerStrategy::relabelled,
        ));
        let unreduced = families::shift2_two_process_family(Symmetry::none());
        assert_eq!(equivariance(&reduced, &all_indices(&reduced)), Ok(()));
        for threads in [1, 2, 4, 8] {
            let opts = ExploreOptions::default().with_threads(threads);
            let r = run(&opts, &reduced).unwrap();
            let u = run(&opts, &unreduced).unwrap();
            assert_eq!(r.survivors, u.survivors, "threads={threads}");
            assert_eq!(
                (r.candidates, r.representatives, r.survivors.len()),
                (64, 36, 3),
                "threads={threads}"
            );
            // The first two survivors are one orbit: the second, not a
            // representative, gets its verdict from the first.
            let swap = image(&reduced.symmetry, &[1, 0], r.survivors[0]);
            assert_eq!(r.survivors[1], swap);
            assert_eq!(u.representatives, 64);
        }
    }

    /// `(candidates, representatives, survivors, explorations)` of each
    /// named sweep.
    type Pinned = Vec<(&'static str, (usize, usize, usize, usize))>;

    fn family(o: Result<FamilyOutcome, ExplorerError>) -> (usize, usize, usize, usize) {
        let o = o.unwrap();
        (
            o.candidates,
            o.representatives,
            o.survivor_count,
            o.explorations,
        )
    }

    /// Every sweep's outcome at every thread count. The exploration
    /// counts are the sweeps' cost: a violation search per refuting
    /// vector, plus a full exploration per vector of a survivor, for
    /// each orbit representative.
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
                        one_round.representatives,
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
            // Unreduced, every candidate was checked: 1360, 5440, 293,
            // 162 and 6564 explorations, 13,819 per pass.
            let expected: Pinned = vec![
                ("one_round", (1024, 528, 0, 706)),
                ("shift1", (4096, 2080, 0, 2772)),
                ("mpr1", (256, 136, 0, 157)),
                ("shift2_reduced", (162, 162, 0, 162)),
                ("shift2_full", (5832, 996, 0, 1038)),
            ];
            assert_eq!(outcomes, expected, "threads={threads}");
        }
    }

    #[test]
    #[ignore = "exhaustive sweep at four thread counts; run with --ignored"]
    fn two_read_sweep_outcome_is_pinned_at_every_thread_count() {
        for threads in [1, 2, 4, 8] {
            let o = ExploreOptions::default().with_threads(threads);
            let outcome = family(impossibility::search_two_read_protocols(&o));
            // Unreduced: 675,072 explorations.
            assert_eq!(
                outcome,
                (768 * 768, 295_296, 0, 338_040),
                "threads={threads}"
            );
        }
    }
}
