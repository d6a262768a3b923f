//! The configuration graph of a system.
//!
//! The paper reasons about executions as trees (Section 4.2); the
//! [`ConfigGraph`] is the same object with identical subtrees merged:
//! nodes are configurations, and an edge `(p, c)` from `v` means process
//! `p`'s next low-level operation moves the system from `v` to `c`.
//! Depth, access bounds, decision sets and valency are all computed over
//! this graph.
//!
//! Discovery is a level-synchronised breadth-first search; with
//! [`ExploreOptions::threads`] > 1 each frontier is sharded across a
//! scoped thread pool of which the coordinator is one worker (a level
//! at `n` threads spawns `n - 1`). Workers only *expand*
//! configurations — all interning happens on the coordinator, in
//! frontier order, after the level joins. Node numbering is therefore
//! identical at every thread count (not merely the node *set*), and the
//! configs budget is exact: the build aborts the moment the
//! `budget.configs + 1`-st distinct configuration appears, with no
//! end-of-level overshoot. Cycle detection and the post-order are
//! computed afterwards by a cheap sequential pass over the already-built
//! adjacency, which touches no program state.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wfc_obs::metrics::{Counter, Gauge, Histogram, Registry};
use wfc_spec::control::Progress;

use crate::error::ExplorerError;
use crate::explore::ExploreOptions;
use crate::system::{Config, System};

/// The reachable configuration graph of a [`System`].
#[derive(Clone, Debug)]
pub struct ConfigGraph {
    /// All distinct configurations, indexed by node id.
    pub configs: Vec<Config>,
    /// `children[v]` lists `(process, child)` edges out of `v`.
    pub children: Vec<Vec<(usize, usize)>>,
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

/// Frontiers smaller than this are expanded inline even when
/// `threads > 1`: per-level thread spawns would dominate the work.
const PARALLEL_FRONTIER_MIN: usize = 64;

/// What one worker contributes to a frontier level: for each claimed
/// frontier position, the raw `(process, child configuration)` pairs it
/// expands to, plus the minimal error encountered (keyed so the choice
/// is independent of scheduling). Nothing is interned here — the
/// coordinator does that in frontier order.
struct LevelPart {
    children: Vec<(usize, Vec<(usize, Config)>)>,
    error: Option<(String, usize, ExplorerError)>,
}

fn merge_error(
    slot: &mut Option<(String, usize, ExplorerError)>,
    candidate: (String, usize, ExplorerError),
) {
    let replace = match slot {
        None => true,
        Some((key, p, _)) => (candidate.0.as_str(), candidate.1) < (key.as_str(), *p),
    };
    if replace {
        *slot = Some(candidate);
    }
}

/// Expands the slice of `frontier` this worker claims via `next`. Pure
/// expansion: the result depends only on which positions were claimed,
/// never on scheduling, so any partition of a level across workers
/// yields the same merged level.
fn expand_worker(
    system: &System,
    configs: &[Config],
    frontier: &[usize],
    next: &AtomicUsize,
) -> LevelPart {
    let mut part = LevelPart {
        children: Vec::new(),
        error: None,
    };
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= frontier.len() {
            return part;
        }
        let cfg = &configs[frontier[i]];
        let mut kids = Vec::new();
        for p in 0..system.processes() {
            match system.step(cfg, p) {
                Ok(steps) => kids.extend(steps.into_iter().map(|child| (p, child))),
                Err(e) => merge_error(&mut part.error, (format!("{e:?}"), p, e)),
            }
        }
        part.children.push((i, kids));
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
        let threads = opts.effective_threads();
        let metrics = opts.obs.metrics.then(BuildMetrics::new);

        let mut map: HashMap<Config, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut configs: Vec<Config> = Vec::new();
        let root = 0usize;
        map.insert(init.clone(), root);
        configs.push(init);
        if let Some(m) = &metrics {
            m.misses.add(1); // the root's intern
        }

        let mut frontier: Vec<usize> = vec![root];
        let mut adjacency: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
        let mut edges = 0usize;
        let mut level = 0usize;

        while !frontier.is_empty() {
            let progress = Progress {
                configs: configs.len() as u64,
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
            let next = AtomicUsize::new(0);
            // Spawning workers costs more than expanding a small frontier;
            // expand those levels inline. This is exactly the `threads = 1`
            // path, so results are unchanged — parallel output is invariant
            // under how each level was scheduled.
            let level_workers = if frontier.len() < PARALLEL_FRONTIER_MIN {
                1
            } else {
                threads
            };
            let expand = || expand_worker(system, &configs, &frontier, &next);
            let parts: Vec<LevelPart> = if level_workers <= 1 {
                vec![expand()]
            } else {
                std::thread::scope(|s| {
                    let helpers: Vec<_> = (1..level_workers).map(|_| s.spawn(expand)).collect();
                    let mut parts = vec![expand()];
                    parts.extend(
                        helpers
                            .into_iter()
                            .map(|w| w.join().expect("worker panicked")),
                    );
                    parts
                })
            };

            // Reassemble the level in frontier order: slot the expansions
            // by frontier position, surface the (deterministically
            // merged) error first, then intern on this thread.
            let mut error: Option<(String, usize, ExplorerError)> = None;
            let mut slots: Vec<Option<Vec<(usize, Config)>>> =
                (0..frontier.len()).map(|_| None).collect();
            for part in parts {
                for (i, kids) in part.children {
                    slots[i] = Some(kids);
                }
                if let Some(e) = part.error {
                    merge_error(&mut error, e);
                }
            }
            if let Some((_, _, e)) = error {
                return Err(e);
            }

            let mut next_frontier = Vec::new();
            let mut level_edges = 0usize;
            for (i, slot) in slots.into_iter().enumerate() {
                let kids = slot.expect("every frontier position was expanded");
                let mut kid_ids = Vec::with_capacity(kids.len());
                for (p, child) in kids {
                    level_edges += 1;
                    let id = match map.get(&child) {
                        Some(&id) => id,
                        None => {
                            let used = configs.len() as u64 + 1;
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
                            let id = configs.len();
                            map.insert(child.clone(), id);
                            configs.push(child);
                            next_frontier.push(id);
                            id
                        }
                    };
                    kid_ids.push((p, id));
                }
                adjacency.push((frontier[i], kid_ids));
            }
            edges += level_edges;
            if let Some(m) = &metrics {
                // Every edge is one intern lookup; the lookups that did
                // not discover a new node were hits.
                m.frontier.record(frontier.len() as u64);
                m.misses.add(next_frontier.len() as u64);
                m.hits.add((level_edges - next_frontier.len()) as u64);
                m.max_level.record_max(level as i64);
                if let Some(t0) = level_start {
                    m.level_ns.record(t0.elapsed().as_nanos() as u64);
                }
            }
            frontier = next_frontier;
            level += 1;
        }

        if opts.obs.metrics {
            let reg = Registry::global();
            reg.counter("explorer.configs").add(configs.len() as u64);
            reg.counter("explorer.edges").add(edges as u64);
        }

        let mut children: Vec<Vec<(usize, usize)>> = vec![Vec::new(); configs.len()];
        for (v, kids) in adjacency {
            children[v] = kids;
        }

        // Cycle detection + post-order: sequential iterative DFS with
        // colours (0 white, 1 grey, 2 black) over the finished adjacency.
        let mut colour: Vec<u8> = vec![0; configs.len()];
        let mut post_order: Vec<usize> = Vec::with_capacity(configs.len());
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        colour[root] = 1;
        let mut has_cycle = false;
        while let Some(&(v, next_child)) = stack.last() {
            let kids = &children[v];
            if next_child < kids.len() {
                let (_, c) = kids[next_child];
                stack.last_mut().expect("non-empty").1 += 1;
                match colour[c] {
                    0 => {
                        colour[c] = 1;
                        stack.push((c, 0));
                    }
                    1 => has_cycle = true,
                    _ => {}
                }
            } else {
                colour[v] = 2;
                post_order.push(v);
                stack.pop();
            }
        }

        Ok(ConfigGraph {
            configs,
            children,
            root,
            edges,
            has_cycle,
            post_order,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// `true` if the graph has no nodes (never: the root always exists).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Node ids of terminal configurations (all processes decided).
    pub fn terminals(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&v| self.configs[v].is_terminal())
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
        let sys = System::new(vec![obj], vec![mk(), mk()]);
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

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
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
        let sys = System::new(vec![obj], vec![mk(), mk()]);
        let seq = ConfigGraph::build(&sys, &ExploreOptions::default()).unwrap();
        for threads in [2, 4, 8] {
            let par =
                ConfigGraph::build(&sys, &ExploreOptions::default().with_threads(threads)).unwrap();
            // Coordinator-side interning makes even the node *numbering*
            // thread-invariant, so whole graphs compare equal.
            assert_eq!(format!("{par:?}"), format!("{seq:?}"));
        }
    }
}
