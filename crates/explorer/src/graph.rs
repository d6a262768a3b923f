//! The configuration graph of a system.
//!
//! The paper reasons about executions as trees (Section 4.2); the
//! [`ConfigGraph`] is the same object with identical subtrees merged:
//! nodes are configurations, and an edge `(p, c)` from `v` means process
//! `p`'s next low-level operation moves the system from `v` to `c`.
//! Depth, access bounds, decision sets and valency are all computed over
//! this graph.
//!
//! Every configuration is one packed `i64` row (see
//! [`Config`]). The graph keeps its rows back to back in
//! one slab, interns them through an open-addressed table of `u32` node
//! ids keyed by a word hash, and stores its edges in compressed sparse
//! row (CSR) form: one offsets array and one flat `(process, child)`
//! array. Discovery allocates nothing per configuration.
//!
//! Discovery is a sequential, level-synchronised breadth-first search.
//! Each level first expands every frontier node for every process into
//! one reused buffer of child rows, surfaces the level's program error
//! if there is one, and only then interns the children in frontier
//! order. Node numbering is therefore deterministic, and the
//! configs budget is exact: the build aborts the moment the
//! `budget.configs + 1`-st distinct configuration appears, with no
//! end-of-level overshoot. Because nodes are numbered in discovery
//! order, each level's frontier is a contiguous id range and the CSR
//! offsets are appended in node order as the frontier is expanded.
//! Cycle detection and the post-order are computed afterwards by a
//! cheap sequential pass over the finished edges, which touches no
//! program state.
//!
//! One build runs on one thread. Parallelism lives one level up: the
//! analyses fan independent execution trees, sweep candidates and
//! crash-check configurations across [`crate::pool::parallel_map`], each
//! building its own graph. [`ExploreOptions::threads`] sets that fan-out
//! width and is ignored here.

use std::sync::Arc;
use std::time::Instant;

use wfc_obs::metrics::{Counter, Gauge, Histogram, Registry};
use wfc_spec::control::Progress;

use crate::error::ExplorerError;
use crate::explore::ExploreOptions;
use crate::system::{Config, Layout, System};

/// The reachable configuration graph of a [`System`].
#[derive(Clone, Debug)]
pub struct ConfigGraph {
    layout: Layout,
    /// Every node's packed row, back to back, in node order.
    rows: Vec<i64>,
    /// CSR offsets: node `v`'s edges are `kids[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// `(process, child)` edges, grouped by source node.
    kids: Vec<(u32, u32)>,
    /// The initial configuration's node id.
    pub root: usize,
    /// Total number of edges.
    pub edges: usize,
    /// `true` if the graph contains a cycle — i.e. the system admits an
    /// infinite execution and is **not** wait-free.
    pub has_cycle: bool,
    /// A DFS post-order of all nodes. When `has_cycle` is `false`, this is
    /// a reverse topological order suitable for dynamic programming.
    pub post_order: Vec<usize>,
}

/// A std-only word hash for packed rows: a multiply-rotate fold over the
/// words (the `FxHash` recipe) with a final mix, so the high bits the
/// index table uses depend on every word. Like the unkeyed
/// `DefaultHasher` map it replaced, it is deterministic, not hardened
/// against rows crafted to collide.
pub(crate) fn row_hash(row: &[i64]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = row.len() as u64;
    for &w in row {
        h = (h.rotate_left(5) ^ w as u64).wrapping_mul(K);
    }
    (h ^ (h >> 29)).wrapping_mul(K)
}

/// An empty slot of the index table.
const EMPTY: u32 = u32::MAX;

/// A slab of distinct packed rows with an open-addressed index: node
/// `id`'s row is `rows[id * width..(id + 1) * width]`, and `table` maps
/// a row's hash to its id by linear probing. Lookups borrow the probe
/// row, so nothing is cloned to look it up.
#[derive(Clone, Debug)]
pub(crate) struct Interner {
    width: usize,
    rows: Vec<i64>,
    hashes: Vec<u64>,
    /// Node ids or [`EMPTY`]; a power of two long, at most half full.
    table: Vec<u32>,
}

impl Interner {
    pub(crate) fn new(width: usize) -> Interner {
        Interner {
            width,
            rows: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY; 64],
        }
    }

    /// Number of distinct rows.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The row of node `id`.
    pub(crate) fn row(&self, id: usize) -> &[i64] {
        &self.rows[id * self.width..(id + 1) * self.width]
    }

    fn home(&self, hash: u64) -> usize {
        // The table length is a power of two: take the hash's high bits.
        (hash >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// The id of `row` (whose hash is `hash`), if it has been interned.
    pub(crate) fn find(&self, hash: u64, row: &[i64]) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut i = self.home(hash);
        loop {
            let id = self.table[i];
            if id == EMPTY {
                return None;
            }
            let id = id as usize;
            if self.hashes[id] == hash && self.row(id) == row {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Appends `row`, which must not be interned yet, and returns its id.
    pub(crate) fn insert(&mut self, hash: u64, row: &[i64]) -> usize {
        let id = self.len();
        assert!(id < EMPTY as usize, "more than 2^32 - 1 configurations");
        if 2 * (id + 1) > self.table.len() {
            self.grow();
        }
        self.rows.extend_from_slice(row);
        self.hashes.push(hash);
        self.place(id);
        id
    }

    /// The id of `row`, interning it first if it is new; the flag says
    /// whether it was.
    pub(crate) fn intern(&mut self, row: &[i64]) -> (usize, bool) {
        let hash = row_hash(row);
        match self.find(hash, row) {
            Some(id) => (id, false),
            None => (self.insert(hash, row), true),
        }
    }

    fn place(&mut self, id: usize) {
        let mask = self.table.len() - 1;
        let mut i = self.home(self.hashes[id]);
        while self.table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.table[i] = id as u32;
    }

    fn grow(&mut self) {
        self.table = vec![EMPTY; 2 * self.table.len()];
        for id in 0..self.len() {
            self.place(id);
        }
    }
}

/// The level's error, keyed by `(Debug string, process)`: the smallest
/// key over the whole level wins, so the choice does not depend on the
/// order in which the level was expanded.
type LevelError = (String, usize, ExplorerError);

fn merge_error(slot: &mut Option<LevelError>, candidate: LevelError) {
    let replace = match slot {
        None => true,
        Some((key, p, _)) => (candidate.0.as_str(), candidate.1) < (key.as_str(), *p),
    };
    if replace {
        *slot = Some(candidate);
    }
}

/// Handles into the global registry held for the duration of one build,
/// so per-level recording is a handful of lock-free atomic ops (the
/// registry mutex is taken once, up front). Only constructed when
/// `opts.obs.metrics` is set — a disabled build never touches the
/// registry.
struct BuildMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    frontier: Arc<Histogram>,
    level_ns: Arc<Histogram>,
    max_level: Arc<Gauge>,
}

impl BuildMetrics {
    fn new() -> BuildMetrics {
        let reg = Registry::global();
        BuildMetrics {
            hits: reg.counter("explorer.interner.hits"),
            misses: reg.counter("explorer.interner.misses"),
            frontier: reg.histogram("explorer.bfs.frontier"),
            level_ns: reg.histogram("explorer.bfs.level_ns"),
            max_level: reg.gauge("explorer.bfs.max_level"),
        }
    }
}

impl ConfigGraph {
    /// Builds the reachable configuration graph of `system`.
    ///
    /// Cycles are recorded, not rejected; callers needing wait-freedom
    /// should inspect [`ConfigGraph::has_cycle`].
    ///
    /// # Errors
    ///
    /// Returns [`ExplorerError`] on malformed programs,
    /// [`ExplorerError::Exhausted`] when the control-plane budget trips
    /// (the configs axis is exact — the reported usage is always
    /// `budget + 1`; the depth axis fires when the breadth-first level
    /// count exceeds `opts.budget.depth`, and the BFS level of a node
    /// never exceeds its execution depth, so this fires only on systems
    /// genuinely deeper than the budget), or
    /// [`ExplorerError::Cancelled`] once `opts.cancel` is observed at a
    /// level-sync point.
    pub fn build(system: &System, opts: &ExploreOptions) -> Result<ConfigGraph, ExplorerError> {
        let init = system.initial_config()?;
        let layout = system.layout();
        let width = layout.width();
        let metrics = opts.obs.metrics.then(BuildMetrics::new);

        let mut nodes = Interner::new(width);
        let root = nodes.insert(row_hash(init.row()), init.row());
        if let Some(m) = &metrics {
            m.misses.add(1); // the root's intern
        }

        let mut offsets: Vec<usize> = vec![0];
        let mut kids: Vec<(u32, u32)> = Vec::new();
        // The level's children, reused across levels: child `k`'s row is
        // `child_rows[k * width..]` and `child_procs[k]` the process
        // whose step produced it.
        let mut child_rows: Vec<i64> = Vec::new();
        let mut child_procs: Vec<u32> = Vec::new();
        let mut frontier = root..nodes.len();
        let mut level = 0usize;

        while !frontier.is_empty() {
            let progress = Progress {
                configs: nodes.len() as u64,
                depth: level as u64,
                ..Progress::default()
            };
            if opts.cancel.is_cancelled() {
                progress.record();
                return Err(ExplorerError::Cancelled { progress });
            }
            if let Some(e) = opts.budget.wall_exceeded(progress) {
                return Err(ExplorerError::Exhausted(e));
            }
            if let Some(e) = opts.budget.depth_exceeded(level as u64, progress) {
                return Err(ExplorerError::Exhausted(e));
            }
            let _level_span =
                wfc_obs::span::enter_lazy(opts.obs.spans, "bfs_level", || format!("level={level}"));
            let level_start = metrics.as_ref().map(|_| Instant::now());
            child_rows.clear();
            child_procs.clear();
            let mut error: Option<LevelError> = None;
            for v in frontier.clone() {
                let row = nodes.row(v);
                for p in 0..system.processes() {
                    match system.step_into(row, p, &mut child_rows) {
                        Ok(n) => child_procs.extend(std::iter::repeat_n(p as u32, n)),
                        Err(e) => merge_error(&mut error, (format!("{e:?}"), p, e)),
                    }
                }
                // Each child becomes one edge, so `v`'s edges end here.
                offsets.push(kids.len() + child_procs.len());
            }
            // A program error anywhere in the level beats a configs trip.
            if let Some((_, _, e)) = error {
                return Err(e);
            }

            let mut discovered = 0usize;
            for (k, &p) in child_procs.iter().enumerate() {
                let row = &child_rows[k * width..(k + 1) * width];
                let hash = row_hash(row);
                let id = match nodes.find(hash, row) {
                    Some(id) => id,
                    None => {
                        let used = nodes.len() as u64 + 1;
                        if let Some(e) = opts.budget.configs_exceeded(
                            used,
                            Progress {
                                configs: used,
                                depth: level as u64,
                                ..Progress::default()
                            },
                        ) {
                            return Err(ExplorerError::Exhausted(e));
                        }
                        discovered += 1;
                        nodes.insert(hash, row)
                    }
                };
                kids.push((p, id as u32));
            }
            if let Some(m) = &metrics {
                // Every edge is one intern lookup; the lookups that did
                // not discover a new node were hits.
                m.frontier.record(frontier.len() as u64);
                m.misses.add(discovered as u64);
                m.hits.add((child_procs.len() - discovered) as u64);
                m.max_level.record_max(level as i64);
                if let Some(t0) = level_start {
                    m.level_ns.record(t0.elapsed().as_nanos() as u64);
                }
            }
            frontier = frontier.end..nodes.len();
            level += 1;
        }

        let len = nodes.len();
        let edges = kids.len();
        if opts.obs.metrics {
            let reg = Registry::global();
            reg.counter("explorer.configs").add(len as u64);
            reg.counter("explorer.edges").add(edges as u64);
        }

        let mut graph = ConfigGraph {
            layout,
            rows: nodes.rows,
            offsets,
            kids,
            root,
            edges,
            has_cycle: false,
            post_order: Vec::with_capacity(len),
        };

        // Cycle detection + post-order: sequential iterative DFS with
        // colours (0 white, 1 grey, 2 black) over the finished edges.
        let mut colour: Vec<u8> = vec![0; len];
        let mut stack: Vec<(usize, usize)> = vec![(root, graph.offsets[root])];
        colour[root] = 1;
        while let Some(&(v, next_edge)) = stack.last() {
            if next_edge < graph.offsets[v + 1] {
                let c = graph.kids[next_edge].1 as usize;
                stack.last_mut().expect("non-empty").1 += 1;
                match colour[c] {
                    0 => {
                        colour[c] = 1;
                        stack.push((c, graph.offsets[c]));
                    }
                    1 => graph.has_cycle = true,
                    _ => {}
                }
            } else {
                colour[v] = 2;
                graph.post_order.push(v);
                stack.pop();
            }
        }
        Ok(graph)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the graph has no nodes (never: the root always exists).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node `v`'s packed row.
    pub(crate) fn row(&self, v: usize) -> &[i64] {
        let width = self.layout.width();
        &self.rows[v * width..(v + 1) * width]
    }

    /// Node `v`'s configuration, as an owned copy.
    pub fn config(&self, v: usize) -> Config {
        Config::new(self.row(v), self.layout)
    }

    /// The `(process, child)` edges out of node `v`, in step order.
    pub fn children(&self, v: usize) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        self.kids[self.offsets[v]..self.offsets[v + 1]]
            .iter()
            .map(|&(p, c)| (p as usize, c as usize))
    }

    /// `true` if every process has decided at node `v`.
    pub fn is_terminal(&self, v: usize) -> bool {
        self.layout.is_terminal(self.row(v))
    }

    /// The decisions made at node `v`, in process order; processes that
    /// have not decided are skipped, so at a terminal this is the
    /// decision vector.
    pub fn decisions(&self, v: usize) -> Vec<i64> {
        let mut out = Vec::new();
        self.decisions_into(v, &mut out);
        out
    }

    /// [`ConfigGraph::decisions`] into a caller-owned buffer.
    pub(crate) fn decisions_into(&self, v: usize, out: &mut Vec<i64>) {
        self.layout.decisions_into(self.row(v), out);
    }

    /// Node ids of terminal configurations (all processes decided).
    pub fn terminals(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&v| self.is_terminal(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Operand, ProgramBuilder};
    use crate::system::ObjectInstance;
    use std::sync::Arc;
    use wfc_spec::canonical;

    #[test]
    fn graph_of_two_step_race_is_a_diamond_plus_tails() {
        let sys = tas_race();
        let g = ConfigGraph::build(&sys, &ExploreOptions::default()).unwrap();
        assert!(!g.has_cycle);
        // root, two intermediate, two terminals (decisions differ by winner).
        assert_eq!(g.len(), 5);
        assert_eq!(g.terminals().count(), 2);
        assert_eq!(g.post_order.len(), g.len());
        // Post-order ends at the root.
        assert_eq!(*g.post_order.last().unwrap(), g.root);
    }

    #[test]
    fn cycle_is_flagged_not_fatal() {
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
        b.jump_if_zero(t, top);
        b.ret(r);
        let sys = System::new(vec![obj], vec![b.build().unwrap()]);
        let g = ConfigGraph::build(&sys, &ExploreOptions::default()).unwrap();
        assert!(g.has_cycle);
        assert_eq!(g.terminals().count(), 0);
    }

    /// The two-process test-and-set race: every level is tiny.
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

    /// Four processes on one shared register, each writing its parity
    /// and then reading twice: a graph with wide middle levels.
    fn wide_register_system() -> System {
        let reg = Arc::new(canonical::boolean_register(4));
        let init = reg.state_id("v0").unwrap();
        let read = reg.invocation_id("read").unwrap().index() as i64;
        let obj = ObjectInstance::identity_ports(Arc::clone(&reg), init, 4);
        let programs = (0..4)
            .map(|p| {
                let write = if p % 2 == 0 { "write0" } else { "write1" };
                let write = reg.invocation_id(write).unwrap().index() as i64;
                let mut b = ProgramBuilder::new();
                let r = b.var("r");
                let s = b.var("s");
                b.invoke(0_i64, write, None);
                b.invoke(0_i64, read, Some(r));
                b.invoke(0_i64, read, Some(s));
                b.compute(r, r, crate::program::BinOp::Add, s);
                b.ret(r);
                b.build().unwrap()
            })
            .collect();
        System::new(vec![obj], programs)
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        for sys in [tas_race(), wide_register_system()] {
            let seq = ConfigGraph::build(&sys, &ExploreOptions::default()).unwrap();
            for threads in [2, 4, 8] {
                let opts = ExploreOptions::default().with_threads(threads);
                let par = ConfigGraph::build(&sys, &opts).unwrap();
                // A build runs on one thread whatever `threads` says,
                // so even the node *numbering* is thread-invariant and
                // whole graphs compare equal.
                assert_eq!(format!("{par:?}"), format!("{seq:?}"));
            }
        }
    }
}
