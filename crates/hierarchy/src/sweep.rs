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
//! The outcome is identical at every thread count. Per-candidate
//! verdicts come back in candidate order; each candidate stops at its
//! first refuting input vector, so its exploration count does not depend
//! on scheduling either. Errors resolve to the **lowest-index** failing
//! candidate: once a candidate fails, workers skip every candidate past
//! it, while those before it (already claimed, since claims run in
//! index order) still finish and may report an earlier error.

use std::sync::atomic::{AtomicUsize, Ordering};

use wfc_explorer::pool::parallel_map;
use wfc_explorer::{explore, ExploreOptions, ExplorerError, Progress, System};

/// What a sweep found.
pub(crate) struct Swept<C> {
    /// Candidates examined.
    pub(crate) candidates: usize,
    /// Candidates that satisfied consensus on every schedule of every
    /// input vector, in candidate order.
    pub(crate) survivors: Vec<C>,
    /// Exhaustive explorations performed.
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

/// Checks one candidate against every input vector and schedule,
/// stopping at the first vector that refutes it.
pub(crate) fn is_consensus<S: Copy, const N: usize>(
    candidate: [S; N],
    build: impl Fn([S; N], [bool; N]) -> System,
    opts: &ExploreOptions,
    explorations: &mut usize,
) -> Result<bool, ExplorerError> {
    for mask in 0..1u32 << N {
        let inputs: [bool; N] = std::array::from_fn(|p| (mask >> p) & 1 != 0);
        let system = build(candidate, inputs);
        *explorations += 1;
        let e = explore(&system, opts)?;
        let allowed: Vec<i64> = inputs.iter().map(|&b| i64::from(b)).collect();
        if !e.decisions_agree() || !e.decisions_within(&allowed) {
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
            assert_eq!(swept.explorations, 6, "threads={threads}");
        }
    }
}
