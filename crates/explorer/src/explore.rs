//! Exhaustive exploration of all interleavings (paper, Section 4.2).
//!
//! The paper analyses wait-free implementations through *execution trees*:
//! nodes are configurations, children are the results of single low-level
//! operations, and wait-freedom makes every tree finite (König's Lemma).
//! [`explore`] builds the configuration graph (the tree with shared
//! subtrees merged), detects infinite executions as cycles, and computes
//! the quantities the paper's Section 4.2 extracts from the trees:
//!
//! * the **depth** `d` — the longest execution, whose maximum over the
//!   `2^n` input vectors is the paper's bound `D`;
//! * **per-object access bounds** — for each object and invocation, the
//!   maximum number of times it is invoked in any execution; for a register
//!   bit `b`, these are the paper's `r_b` and `w_b`;
//! * the set of terminal **decision vectors**, from which consensus
//!   agreement and validity are checked.

use std::collections::BTreeSet;

use crate::error::ExplorerError;
use crate::graph::{ConfigGraph, Interner};
use crate::system::System;

pub use wfc_spec::control::{Budget, CancelToken, Progress, Wall};

/// Per-call observability knobs: which kinds of instrumentation an
/// exploration records into the `wfc-obs` global registry.
///
/// The default is taken from the process-wide `wfc-obs` enable flag
/// (`WFC_OBS=1` or [`wfc_obs::set_enabled`]), so plain
/// `ExploreOptions::default()` picks up the environment; [`ObsOptions::on`]
/// and [`ObsOptions::off`] override it per call. Instrumentation is a
/// write-only side channel — it never changes any explored quantity, at
/// any thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsOptions {
    /// Record counters, gauges and histograms.
    pub metrics: bool,
    /// Record timing spans (per-thread buffers, deterministic merge).
    pub spans: bool,
}

impl ObsOptions {
    /// Everything on, regardless of the global flag.
    pub fn on() -> Self {
        ObsOptions {
            metrics: true,
            spans: true,
        }
    }

    /// Everything off, regardless of the global flag.
    pub fn off() -> Self {
        ObsOptions {
            metrics: false,
            spans: false,
        }
    }

    /// `true` if any instrumentation is requested.
    pub fn any(&self) -> bool {
        self.metrics || self.spans
    }
}

impl Default for ObsOptions {
    fn default() -> Self {
        if wfc_obs::enabled() {
            ObsOptions::on()
        } else {
            ObsOptions::off()
        }
    }
}

/// Budget, fan-out and observability knobs for [`explore`],
/// [`ConfigGraph::build`] and the analyses built on them.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// The control-plane budget: the explorer meters the `configs` and
    /// `depth` axes (exactly — see [`Budget::configs_exceeded`]) plus
    /// the optional wall-clock deadline, raising
    /// [`ExplorerError::Exhausted`] at the level-sync point that trips.
    /// A system whose longest execution is exactly `budget.depth` steps
    /// still succeeds.
    pub budget: Budget,
    /// Fan-out width: the worker threads that analyses running many
    /// independent explorations (a protocol's `2^n` execution trees,
    /// sweep candidates, crash-check configurations) spread them
    /// across. `1` (the default) runs everything on the calling thread,
    /// `0` means one per available core. A single exploration
    /// ([`explore`], [`ConfigGraph::build`]) always runs on one thread,
    /// and every quantity is bit-identical across thread counts.
    pub threads: usize,
    /// What instrumentation this exploration records (defaults to the
    /// process-wide `wfc-obs` flag; see [`ObsOptions`]).
    pub obs: ObsOptions,
    /// Cooperative cancellation, polled at level-sync points alongside
    /// the budgets (defaults to [`CancelToken::NONE`]). Cancellation is
    /// a control signal, not a measurement: it never changes any
    /// quantity a *completed* exploration reports.
    pub cancel: CancelToken,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            budget: Budget::default(),
            threads: 1,
            obs: ObsOptions::default(),
            cancel: CancelToken::NONE,
        }
    }
}

impl ExploreOptions {
    /// This configuration with a fan-out width of `threads` workers.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// This configuration with a whole replacement [`Budget`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// This configuration with a `configs` budget axis.
    pub fn with_max_configs(mut self, max_configs: usize) -> Self {
        self.budget.configs = max_configs as u64;
        self
    }

    /// This configuration with a `depth` budget axis.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.budget.depth = max_depth as u64;
        self
    }

    /// This configuration with a wall-clock deadline.
    pub fn with_wall(mut self, wall: Wall) -> Self {
        self.budget.wall = Some(wall);
        self
    }

    /// This configuration with explicit observability knobs.
    pub fn with_obs(mut self, obs: ObsOptions) -> Self {
        self.obs = obs;
        self
    }

    /// This configuration with a cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The resolved fan-out width: `threads`, with `0` meaning one per
    /// available core (see [`crate::pool::resolve_threads`]).
    pub fn effective_threads(&self) -> usize {
        crate::pool::resolve_threads(self.threads)
    }
}

/// Per-object, per-invocation access maxima over all executions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessTable {
    /// `counts[obj][inv]` is the maximum number of times `inv` is invoked
    /// on object `obj` along any execution.
    counts: Vec<Vec<u32>>,
    /// `write_totals[obj]` is the maximum number of `write*` invocations
    /// on object `obj` along any *single* execution, all write values
    /// combined. At most — and often below — the sum of the per-write
    /// entries of `counts[obj]`, which take their maxima on different
    /// executions.
    write_totals: Vec<u32>,
}

impl AccessTable {
    /// Maximum invocations of `inv` on object `obj` in any execution.
    pub fn max_for(&self, obj: usize, inv: usize) -> u32 {
        self.counts[obj][inv]
    }

    /// An upper bound on total accesses of `obj` in any execution — the
    /// sum of the per-invocation maxima.
    pub fn upper_bound_for(&self, obj: usize) -> u32 {
        self.counts[obj].iter().sum()
    }

    /// The paper's `w_b`, exactly: the maximum number of writes (any
    /// value) to `obj` along any single execution.
    pub fn max_writes_for(&self, obj: usize) -> u32 {
        self.write_totals[obj]
    }

    /// Number of objects covered.
    pub fn objects(&self) -> usize {
        self.counts.len()
    }
}

/// The result of exhaustively exploring a [`System`].
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Number of distinct configurations (nodes of the merged graph).
    pub configs: usize,
    /// Number of edges (single low-level operations).
    pub edges: usize,
    /// Number of distinct terminal configurations.
    pub terminals: usize,
    /// Length of the longest execution: the paper's tree depth `d`.
    pub depth: usize,
    /// `per_process_steps[p]` is the maximum number of shared-memory
    /// steps process `p` takes in any execution — the constant behind
    /// wait-freedom ("a finite number of its own steps", Section 1).
    pub per_process_steps: Vec<u32>,
    /// All decision vectors observed at terminal configurations.
    pub decisions: BTreeSet<Vec<i64>>,
    /// Per-object, per-invocation access bounds.
    pub access: AccessTable,
}

impl Exploration {
    /// `true` if every decision vector is constant: consensus *agreement*.
    pub fn decisions_agree(&self) -> bool {
        self.decisions
            .iter()
            .all(|v| v.windows(2).all(|w| w[0] == w[1]))
    }

    /// `true` if every decided value appears in `allowed`: consensus
    /// *validity* against the set of proposed values.
    pub fn decisions_within(&self, allowed: &[i64]) -> bool {
        self.decisions
            .iter()
            .all(|v| v.iter().all(|d| allowed.contains(d)))
    }
}

/// A concrete execution violating consensus correctness, extracted for
/// debugging: the schedule (process indices in step order) and the
/// decisions it leads to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The schedule, one process index per low-level step. For
    /// nondeterministic objects the adversary's outcome choices are
    /// implicit in the replayed run.
    pub schedule: Vec<usize>,
    /// The terminal decision vector.
    pub decisions: Vec<i64>,
    /// `true` if the vector breaks agreement, `false` if it breaks
    /// validity.
    pub disagreement: bool,
}

/// Searches for a single schedule on which `system` violates consensus
/// agreement or validity (decisions outside `allowed`), returning it for
/// inspection — the counterexample extractor behind the refutation
/// tests, and the hierarchy sweeps' refuter.
///
/// An iterative depth-first search over the configuration *graph*:
/// configurations are interned, so a shared subtree is searched once,
/// and a configuration still on the current path marks a cycle.
/// Children are generated in process order, then outcome order, and
/// taken last first; on an acyclic graph this meets the same first
/// violating execution (schedule and decisions) as walking the
/// execution tree path by path would. Without a violation the search
/// visits exactly [`explore`]'s reachable configurations and edges.
///
/// # Errors
///
/// Cancellation and the wall-clock deadline stop the search directly.
/// A malformed program, a cycle (an infinite execution) or more than
/// `opts.budget.configs` distinct configurations stop it too, and then
/// the system is re-run through [`explore`] so the error returned is
/// exactly `explore`'s. A violation met before any of these is still
/// returned, since it refutes the system on its own.
pub fn find_violation(
    system: &System,
    allowed: &[i64],
    opts: &ExploreOptions,
) -> Result<Option<Violation>, ExplorerError> {
    let mut search = ViolationSearch::default();
    let found = search.run(system, allowed, opts);
    if opts.obs.metrics {
        let reg = wfc_obs::metrics::Registry::global();
        reg.counter("explorer.configs").add(search.configs as u64);
        reg.counter("explorer.edges").add(search.edges as u64);
    }
    match found {
        Ok(found) => Ok(found),
        Err(Stop::Control(e)) => Err(e),
        Err(Stop::Defer) => {
            Err(explore(system, opts)
                .expect_err("explore fails wherever the violation search stopped"))
        }
    }
}

/// Why [`ViolationSearch::run`] stopped without an answer.
enum Stop {
    /// Cancellation or the wall clock: returned as is.
    Control(ExplorerError),
    /// A program error, a cycle or the configs budget: [`explore`]
    /// names the error.
    Defer,
}

/// The work one [`find_violation`] call did, for its metrics.
#[derive(Default)]
struct ViolationSearch {
    /// Distinct configurations interned.
    configs: usize,
    /// Edges generated: one per child of every expanded configuration.
    edges: usize,
}

impl ViolationSearch {
    fn run(
        &mut self,
        system: &System,
        allowed: &[i64],
        opts: &ExploreOptions,
    ) -> Result<Option<Violation>, Stop> {
        /// Interned but not entered yet, on the current path, finished.
        const NEW: u8 = 0;
        const ON_PATH: u8 = 1;
        const DONE: u8 = 2;

        let layout = system.layout();
        let width = layout.width();
        let init = system.initial_config().map_err(|_| Stop::Defer)?;
        let mut nodes = Interner::new(width);
        nodes.intern(init.row());
        self.configs = 1;
        let mut colour = vec![NEW];
        // `(node, process that stepped into it, depth)`, taken last first.
        let mut pending: Vec<(usize, usize, usize)> = vec![(0, 0, 0)];
        // The current execution: each configuration on it with the
        // process that stepped into it (the root's is unused).
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut kids: Vec<i64> = Vec::new();
        let mut entered = 0u64;
        while let Some((v, p, depth)) = pending.pop() {
            // Every configuration below `depth` on the path has had all
            // its children taken: their subtrees are finished.
            for (u, _) in path.drain(depth..) {
                colour[u] = DONE;
            }
            match colour[v] {
                ON_PATH => return Err(Stop::Defer),
                DONE => continue,
                _ => {}
            }
            let progress = Progress {
                configs: self.configs as u64,
                ..Progress::default()
            };
            if opts.cancel.is_cancelled() {
                progress.record();
                return Err(Stop::Control(ExplorerError::Cancelled { progress }));
            }
            // Clock reads are much costlier than a step; amortize.
            if entered & 0x3FF == 0 {
                if let Some(e) = opts.budget.wall_exceeded(progress) {
                    return Err(Stop::Control(ExplorerError::Exhausted(e)));
                }
            }
            entered += 1;
            colour[v] = ON_PATH;
            path.push((v, p));
            if layout.is_terminal(nodes.row(v)) {
                let mut decisions = Vec::new();
                layout.decisions_into(nodes.row(v), &mut decisions);
                let disagreement = decisions.windows(2).any(|w| w[0] != w[1]);
                let invalid = decisions.iter().any(|d| !allowed.contains(d));
                if disagreement || invalid {
                    return Ok(Some(Violation {
                        schedule: path[1..].iter().map(|&(_, p)| p).collect(),
                        decisions,
                        disagreement,
                    }));
                }
                continue;
            }
            for q in 0..system.processes() {
                kids.clear();
                let n = system
                    .step_into(nodes.row(v), q, &mut kids)
                    .map_err(|_| Stop::Defer)?;
                for kid in kids.chunks_exact(width) {
                    let (c, new) = nodes.intern(kid);
                    if new {
                        self.configs += 1;
                        if self.configs as u64 > opts.budget.configs {
                            return Err(Stop::Defer);
                        }
                        colour.push(NEW);
                    }
                    pending.push((c, q, depth + 1));
                }
                self.edges += n;
            }
        }
        Ok(None)
    }
}

/// Exhaustively explores every interleaving of `system`.
///
/// Wait-freedom is verified as a side effect: an infinite execution exists
/// iff the configuration graph has a cycle, in which case
/// [`ExplorerError::NotWaitFree`] is returned — this is the contrapositive
/// of the paper's König-Lemma argument.
///
/// # Errors
///
/// Returns [`ExplorerError`] on malformed programs, missing ports, budget
/// exhaustion, or non-wait-freedom.
pub fn explore(system: &System, opts: &ExploreOptions) -> Result<Exploration, ExplorerError> {
    let _span = wfc_obs::span::enter_if(opts.obs.spans, "explore", String::new());
    let graph = ConfigGraph::build(system, opts)?;
    if graph.has_cycle {
        return Err(ExplorerError::NotWaitFree);
    }

    // Flattened (obj, inv) dimensions for the access table, plus one
    // extra per-object slot tracking the *total* `write*` invocations
    // along a single execution (all values combined): summing the
    // per-value write maxima afterwards would over-approximate, because
    // those maxima can come from different executions.
    let mut obj_inv_offsets = Vec::with_capacity(system.objects().len());
    let mut dims = 0usize;
    for o in system.objects() {
        obj_inv_offsets.push(dims);
        dims += o.ty().invocation_count();
    }
    let objects = system.objects().len();
    // `write_slot[slot]` is the extra accumulator fed by `slot`, if any.
    let mut write_slot: Vec<Option<usize>> = vec![None; dims];
    for (oi, o) in system.objects().iter().enumerate() {
        let ty = o.ty();
        for inv in ty.invocations() {
            if ty.invocation_name(inv).starts_with("write") {
                write_slot[obj_inv_offsets[oi] + inv.index()] = Some(dims + oi);
            }
        }
    }
    let total_dims = dims + objects;

    // Flat per-node tables: node `v`'s access row is
    // `access[v * total_dims..]` and its step row `steps[v * procs..]`.
    // Terminals keep their all-zero rows.
    let procs = system.processes();
    let n = graph.len();
    let mut depth: Vec<u32> = vec![0; n];
    let mut access: Vec<u32> = vec![0; n * total_dims];
    let mut steps: Vec<u32> = vec![0; n * procs];
    let mut acc = vec![0u32; total_dims];
    let mut st = vec![0u32; procs];
    let mut decided = Vec::with_capacity(procs);
    let mut decisions = BTreeSet::new();
    let mut terminals = 0usize;

    // `post_order` is a reverse topological order on acyclic graphs, so
    // children are finalized before their parents.
    for &v in &graph.post_order {
        let kids = graph.children(v);
        if kids.len() == 0 {
            debug_assert!(graph.is_terminal(v), "only terminals lack children");
            terminals += 1;
            graph.decisions_into(v, &mut decided);
            if !decisions.contains(&decided) {
                decisions.insert(decided.clone());
            }
            continue;
        }
        let mut d = 0u32;
        acc.fill(0);
        st.fill(0);
        let row = graph.row(v);
        for (p, c) in kids {
            d = d.max(depth[c] + 1);
            let a = system
                .access_in(row, p)?
                .expect("undecided process has a pending access");
            let slot = obj_inv_offsets[a.obj] + a.inv.index();
            let child = &access[c * total_dims..(c + 1) * total_dims];
            for (cell, &x) in acc.iter_mut().zip(child) {
                *cell = (*cell).max(x);
            }
            // This edge is one more `slot` access (and one more write,
            // if `slot` is a write) than the child's executions make.
            acc[slot] = acc[slot].max(child[slot] + 1);
            if let Some(w) = write_slot[slot] {
                acc[w] = acc[w].max(child[w] + 1);
            }
            let child = &steps[c * procs..(c + 1) * procs];
            for (cell, &x) in st.iter_mut().zip(child) {
                *cell = (*cell).max(x);
            }
            st[p] = st[p].max(child[p] + 1);
        }
        depth[v] = d;
        access[v * total_dims..(v + 1) * total_dims].copy_from_slice(&acc);
        steps[v * procs..(v + 1) * procs].copy_from_slice(&st);
    }
    let root = graph.root;
    let root_access = &access[root * total_dims..(root + 1) * total_dims];

    if opts.obs.metrics {
        let reg = wfc_obs::metrics::Registry::global();
        reg.histogram("explorer.tree_depth")
            .record(depth[root] as u64);
        reg.counter("explorer.terminals").add(terminals as u64);
    }

    if let Some(e) = opts.budget.depth_exceeded(
        depth[root] as u64,
        Progress {
            configs: graph.len() as u64,
            depth: depth[root] as u64,
            ..Progress::default()
        },
    ) {
        return Err(ExplorerError::Exhausted(e));
    }

    let per_object = system
        .objects()
        .iter()
        .enumerate()
        .map(|(oi, o)| {
            let base = obj_inv_offsets[oi];
            root_access[base..base + o.ty().invocation_count()].to_vec()
        })
        .collect();
    let write_totals = root_access[dims..].to_vec();

    Ok(Exploration {
        configs: graph.len(),
        edges: graph.edges,
        terminals,
        depth: depth[root] as usize,
        per_process_steps: steps[root * procs..(root + 1) * procs].to_vec(),
        decisions,
        access: AccessTable {
            counts: per_object,
            write_totals,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Operand, ProgramBuilder};
    use crate::system::ObjectInstance;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use wfc_spec::canonical;
    use wfc_spec::control::Resource;

    /// Unwraps an [`ExplorerError::Exhausted`] into its
    /// `(resource, budget, used)` triple for exact assertions.
    fn exhausted(e: ExplorerError) -> (Resource, u64, u64) {
        match e {
            ExplorerError::Exhausted(e) => (e.resource, e.budget, e.used),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    /// Two processes each test-and-set once and decide the response.
    fn tas_race() -> System {
        let tas = Arc::new(canonical::test_and_set(2));
        let init = tas.state_id("unset").unwrap();
        let tas_inv = tas.invocation_id("test_and_set").unwrap();
        let obj = ObjectInstance::identity_ports(tas, init, 2);
        let mk = || {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, Operand::Const(tas_inv.index() as i64), Some(r));
            b.ret(r);
            b.build().unwrap()
        };
        System::new(vec![obj], vec![mk(), mk()])
    }

    #[test]
    fn tas_race_explores_both_orders() {
        let e = explore(&tas_race(), &ExploreOptions::default()).unwrap();
        assert_eq!(e.depth, 2, "each of two processes takes one step");
        // Either process may win.
        assert!(e.decisions.contains(&vec![0, 1]));
        assert!(e.decisions.contains(&vec![1, 0]));
        assert_eq!(e.decisions.len(), 2);
        assert!(!e.decisions_agree(), "raw TAS responses disagree");
        assert!(e.decisions_within(&[0, 1]));
        // TAS object: invoked at most twice in any execution.
        assert_eq!(e.access.max_for(0, 0), 2);
        // Each process takes exactly one shared step in every execution.
        assert_eq!(e.per_process_steps, vec![1, 1]);
    }

    /// A process spinning on a register forever: not wait-free.
    fn spin_loop() -> System {
        let reg = Arc::new(canonical::boolean_register(2));
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap();
        let r1 = reg.response_id("1").unwrap();
        let obj = ObjectInstance::identity_ports(reg, init, 1);
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let t = b.var("t");
        let top = b.fresh_label();
        b.bind(top);
        b.invoke(0_i64, Operand::Const(read.index() as i64), Some(r));
        b.compute(t, r, crate::program::BinOp::Eq, r1.index() as i64);
        b.jump_if_zero(t, top); // loop until the register reads 1 (never)
        b.ret(r);
        System::new(vec![obj], vec![b.build().unwrap()])
    }

    #[test]
    fn spin_loop_is_not_wait_free() {
        assert_eq!(
            explore(&spin_loop(), &ExploreOptions::default()).unwrap_err(),
            ExplorerError::NotWaitFree
        );
    }

    /// Nondeterministic one-use bit: DEAD reads branch.
    #[test]
    fn nondeterminism_multiplies_decisions() {
        let oub = Arc::new(canonical::one_use_bit());
        let dead = oub.state_id("DEAD").unwrap();
        let read = oub.invocation_id("read").unwrap();
        let obj = ObjectInstance::identity_ports(oub, dead, 1);
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        b.invoke(0_i64, Operand::Const(read.index() as i64), Some(r));
        b.ret(r);
        let sys = System::new(vec![obj], vec![b.build().unwrap()]);
        let e = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(e.decisions.len(), 2, "adversary chooses the DEAD read");
    }

    #[test]
    fn cancellation_aborts_at_level_sync() {
        static FLAG: AtomicBool = AtomicBool::new(false);
        let opts = ExploreOptions::default().with_cancel(CancelToken::new(&FLAG));
        // Token unset: the run completes and matches an uncancellable one.
        let base = format!(
            "{:?}",
            explore(&tas_race(), &ExploreOptions::default()).unwrap()
        );
        assert_eq!(base, format!("{:?}", explore(&tas_race(), &opts).unwrap()));
        // Token set: both the explorer and the violation search abort.
        FLAG.store(true, Ordering::Relaxed);
        assert!(matches!(
            explore(&tas_race(), &opts).unwrap_err(),
            ExplorerError::Cancelled { .. }
        ));
        assert!(matches!(
            find_violation(&tas_race(), &[0, 1], &opts).unwrap_err(),
            ExplorerError::Cancelled { .. }
        ));
        FLAG.store(false, Ordering::Relaxed);
    }

    #[test]
    fn budget_is_enforced() {
        let e = explore(&tas_race(), &ExploreOptions::default().with_max_configs(2)).unwrap_err();
        let (resource, budget, _) = exhausted(e);
        assert_eq!((resource, budget), (Resource::Configs, 2));
    }

    #[test]
    fn budgets_fire_exactly_at_their_thresholds() {
        // The race has exactly 5 configurations and depth 2: budgets
        // equal to the true size succeed, one below fail.
        let baseline = explore(&tas_race(), &ExploreOptions::default()).unwrap();
        assert_eq!((baseline.configs, baseline.depth), (5, 2));
        for threads in [1, 4] {
            let opts = ExploreOptions::default().with_threads(threads);
            assert!(explore(&tas_race(), &opts.with_max_configs(5)).is_ok());
            // Children are interned one at a time, so the trip reports
            // exactly budget + 1 — no level overshoot.
            assert_eq!(
                exhausted(explore(&tas_race(), &opts.with_max_configs(4)).unwrap_err()),
                (Resource::Configs, 4, 5)
            );
            assert!(explore(&tas_race(), &opts.with_max_depth(2)).is_ok());
            assert_eq!(
                exhausted(explore(&tas_race(), &opts.with_max_depth(1)).unwrap_err()),
                (Resource::Depth, 1, 2)
            );
        }
    }

    #[test]
    fn exact_depth_budget_catches_paths_longer_than_bfs_levels() {
        // Writer takes 2 steps, reader 3: every configuration is within
        // 5 BFS levels, but the longest execution is 5 — a depth budget
        // of 4 must fail via the post-DP check even though discovery
        // (whose levels bound only the *shortest* path to each node)
        // may not fire.
        let reg = Arc::new(canonical::boolean_register(2));
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let write1 = reg.invocation_id("write1").unwrap().index() as i64;
        let obj = ObjectInstance::identity_ports(reg, init, 2);
        let writer = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, write1, Some(r));
            b.invoke(0_i64, write1, Some(r));
            b.ret(0_i64);
            b.build().unwrap()
        };
        let reader = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            for _ in 0..3 {
                b.invoke(0_i64, read, Some(r));
            }
            b.ret(r);
            b.build().unwrap()
        };
        let sys = System::new(vec![obj], vec![writer, reader]);
        assert!(explore(&sys, &ExploreOptions::default().with_max_depth(5)).is_ok());
        assert_eq!(
            exhausted(explore(&sys, &ExploreOptions::default().with_max_depth(4)).unwrap_err()),
            (Resource::Depth, 4, 5)
        );
    }

    /// The write-bound satellite: per-value write maxima can each be
    /// attained on *different* executions, so their sum over-approximates
    /// the true per-execution write total.
    #[test]
    fn write_totals_beat_summed_per_value_maxima() {
        // One process: read the register, then write the value it saw
        // twice — every execution does either two write0s or two write1s,
        // never both.
        let reg = Arc::new(canonical::boolean_register(2));
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let w0 = reg.invocation_id("write0").unwrap().index() as i64;
        let w1 = reg.invocation_id("write1").unwrap().index() as i64;
        let r1 = reg.response_id("1").unwrap().index() as i64;
        let obj = ObjectInstance::identity_ports(Arc::clone(&reg), init, 2);
        let chooser = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            let t = b.var("t");
            let zeros = b.fresh_label();
            b.invoke(0_i64, read, Some(r));
            b.compute(t, r, crate::program::BinOp::Eq, r1);
            b.jump_if_zero(t, zeros); // saw 0 → write 0s; fall through → write 1s
            b.invoke(0_i64, w1, None);
            b.invoke(0_i64, w1, None);
            b.ret(1_i64);
            b.bind(zeros);
            b.invoke(0_i64, w0, None);
            b.invoke(0_i64, w0, None);
            b.ret(0_i64);
            b.build().unwrap()
        };
        let flipper = {
            let mut b = ProgramBuilder::new();
            b.invoke(0_i64, w1, None);
            b.ret(1_i64);
            b.build().unwrap()
        };
        let sys = System::new(vec![obj], vec![chooser, flipper]);
        let e = explore(&sys, &ExploreOptions::default()).unwrap();
        let w0_ix = reg.invocation_id("write0").unwrap().index();
        let w1_ix = reg.invocation_id("write1").unwrap().index();
        // Some execution does two write0s, some does two write1s (plus
        // the flipper's write1)...
        assert_eq!(e.access.max_for(0, w0_ix), 2);
        assert_eq!(e.access.max_for(0, w1_ix), 3);
        // ...but no single execution does all five writes.
        assert!(
            e.access.max_writes_for(0) < e.access.max_for(0, w0_ix) + e.access.max_for(0, w1_ix)
        );
        assert_eq!(e.access.max_writes_for(0), 3);
    }

    #[test]
    fn no_step_system_is_terminal_at_once() {
        // A program that decides locally without shared access.
        let reg = Arc::new(canonical::boolean_register(2));
        let init = reg.state_id("v0").unwrap();
        let obj = ObjectInstance::identity_ports(reg, init, 1);
        let mut b = ProgramBuilder::new();
        b.ret(42_i64);
        let sys = System::new(vec![obj], vec![b.build().unwrap()]);
        let e = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(e.depth, 0);
        assert_eq!(e.configs, 1);
        assert_eq!(e.decisions.iter().next().unwrap(), &vec![42]);
    }

    #[test]
    fn find_violation_extracts_a_schedule() {
        // The raw TAS race "disagrees" by design; the extractor must
        // return a 2-step schedule ending in distinct decisions.
        let v = find_violation(&tas_race(), &[0, 1], &ExploreOptions::default())
            .unwrap()
            .expect("the race always disagrees");
        assert_eq!(v.schedule.len(), 2);
        assert!(v.disagreement);
        assert_ne!(v.decisions[0], v.decisions[1]);
    }

    #[test]
    fn find_violation_reports_none_for_correct_systems() {
        // A system where both processes decide the constant 7.
        let reg = Arc::new(canonical::boolean_register(2));
        let init = reg.state_id("v0").unwrap();
        let obj = ObjectInstance::identity_ports(reg, init, 2);
        let mk = || {
            let mut b = ProgramBuilder::new();
            b.ret(7_i64);
            b.build().unwrap()
        };
        let sys = System::new(vec![obj], vec![mk(), mk()]);
        assert_eq!(
            find_violation(&sys, &[7], &ExploreOptions::default()).unwrap(),
            None
        );
    }

    #[test]
    fn find_violation_flags_validity() {
        let reg = Arc::new(canonical::boolean_register(2));
        let init = reg.state_id("v0").unwrap();
        let obj = ObjectInstance::identity_ports(reg, init, 1);
        let mut b = ProgramBuilder::new();
        b.ret(9_i64);
        let sys = System::new(vec![obj], vec![b.build().unwrap()]);
        let v = find_violation(&sys, &[0, 1], &ExploreOptions::default())
            .unwrap()
            .expect("9 is not a proposed value");
        assert!(!v.disagreement, "single process cannot disagree");
        assert_eq!(v.decisions, vec![9]);
    }

    #[test]
    fn find_violation_reports_a_spin_loop_as_not_wait_free() {
        // The loop's one configuration steps to itself: the search meets
        // it on its own path at once, instead of walking the cycle until
        // the configs budget trips.
        assert_eq!(
            find_violation(&spin_loop(), &[0, 1], &ExploreOptions::default()).unwrap_err(),
            ExplorerError::NotWaitFree
        );
    }

    /// Four processes each read a register nobody writes six times, then
    /// decide 0: `24! / (6!)^4`, about 2.3 · 10^12 executions, but only
    /// `7^4 = 2401` configurations.
    fn idle_readers() -> System {
        let reg = Arc::new(canonical::boolean_register(4));
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let obj = ObjectInstance::identity_ports(reg, init, 4);
        let reader = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            for _ in 0..6 {
                b.invoke(0_i64, read, Some(r));
            }
            b.ret(0_i64);
            b.build().unwrap()
        };
        System::new(vec![obj], vec![reader; 4])
    }

    #[test]
    fn find_violation_searches_the_graph_not_the_tree() {
        let sys = idle_readers();
        let opts = ExploreOptions::default();
        assert_eq!(explore(&sys, &opts).unwrap().configs, 2401);
        assert_eq!(find_violation(&sys, &[0], &opts), Ok(None));
    }

    #[test]
    fn find_violation_budget_counts_distinct_configurations() {
        // Without a violation the search interns every configuration:
        // a budget of exactly `explore`'s count fits, one below trips,
        // and the error is `explore`'s own.
        let sys = idle_readers();
        let at = ExploreOptions::default().with_max_configs(2401);
        assert_eq!(find_violation(&sys, &[0], &at), Ok(None));
        let below = ExploreOptions::default().with_max_configs(2400);
        let e = find_violation(&sys, &[0], &below).unwrap_err();
        assert_eq!(e, explore(&sys, &below).unwrap_err());
        assert_eq!(exhausted(e), (Resource::Configs, 2400, 2401));
    }

    /// Access bounds separate reads from writes per object.
    #[test]
    fn access_bounds_split_by_invocation() {
        let reg = Arc::new(canonical::boolean_register(2));
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let write1 = reg.invocation_id("write1").unwrap().index() as i64;
        let obj = ObjectInstance::identity_ports(reg.clone(), init, 2);
        // Process 0 writes twice; process 1 reads three times.
        let writer = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, write1, Some(r));
            b.invoke(0_i64, write1, Some(r));
            b.ret(0_i64);
            b.build().unwrap()
        };
        let reader = {
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            for _ in 0..3 {
                b.invoke(0_i64, read, Some(r));
            }
            b.ret(r);
            b.build().unwrap()
        };
        let sys = System::new(vec![obj], vec![writer, reader]);
        let e = explore(&sys, &ExploreOptions::default()).unwrap();
        let read_ix = reg.invocation_id("read").unwrap().index();
        let w1_ix = reg.invocation_id("write1").unwrap().index();
        assert_eq!(e.access.max_for(0, read_ix), 3);
        assert_eq!(e.access.max_for(0, w1_ix), 2);
        assert_eq!(e.depth, 5);
    }
}
