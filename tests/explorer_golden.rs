//! Golden table for the exhaustive explorer.
//!
//! A fixed corpus of systems is pushed through `explore`,
//! `ConfigGraph::build`, `analyze_valency`, `check_crash_tolerance` and
//! `find_violation`, and every result is rendered into
//! `tests/golden/explorer.txt`:
//!
//! * the full `Exploration` `Debug` string, or the error;
//! * the graph's node and edge counts, whether it has a cycle, and
//!   FNV-1a digests of its `post_order` and of every node's
//!   `(process, child)` list, in node order (small graphs are also
//!   spelled out in full);
//! * the valency and crash-tolerance reports;
//! * the first violating execution (schedule and decisions), `None`, or
//!   the error.
//!
//! The corpus: the test-and-set race, the nondeterministic one-use-bit
//! DEAD read (also against a validity set it can break), the
//! write-totals system, `cas_announce` at two and three processes on
//! every input vector (at three also against each single allowed
//! value), a three-process register race on every input vector, the
//! five register protocols of experiment E8, a spin loop (not
//! wait-free), a malformed program, and configs and depth budget trips
//! at 1, 2 and 4 threads on a four-process `cas_announce` graph whose
//! levels are wide enough for the parallel level path.
//!
//! The explorer rows were recorded on the heap-allocated `Config`
//! explorer that the packed-row explorer replaced, so they show that
//! both number nodes, order edges, choose errors and trip budgets the
//! same way. The violation rows were recorded on the search that walked
//! the execution tree path by path, before the interned depth-first
//! search replaced it; they agree on every violation. Two error rows
//! moved on purpose: the spin loop is a cycle, now `NotWaitFree` where
//! the tree walk ran into its configs budget, and the malformed system
//! now reports `explore`'s error (the least by `Debug` string) where the
//! tree walk reported the first process it stepped. A change that moves
//! a line here changes what the explorer computes and must say why.

use std::fmt::Write as _;
use std::sync::Arc;

use wait_free_consensus::prelude::*;

use consensus::{binary_input_vectors, cas_announce_consensus_system};
use explorer::bivalence::analyze_valency;
use explorer::crash::check_crash_tolerance;
use explorer::graph::ConfigGraph;
use explorer::program::{BinOp, Operand, ProgramBuilder};
use explorer::{explore, find_violation, ExploreOptions, ObjectInstance, System};
use spec::canonical;

const GOLDEN: &str = include_str!("golden/explorer.txt");

/// Graphs up to this many nodes are written out edge by edge.
const SPELLED_OUT: usize = 8;

/// FNV-1a, 64 bits: a stable digest for the larger graphs.
fn fnv64(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn debug_or_err<T: std::fmt::Debug, E: std::fmt::Debug>(r: &Result<T, E>) -> String {
    match r {
        Ok(v) => format!("{v:?}"),
        Err(e) => format!("Err({e:?})"),
    }
}

fn render_graph(g: &ConfigGraph) -> String {
    let mut kids = String::new();
    for v in 0..g.len() {
        let row: Vec<(usize, usize)> = g.children(v).collect();
        let _ = write!(kids, "{v}:{row:?};");
    }
    let post = format!("{:?}", g.post_order);
    let mut out = format!(
        "len={} edges={} has_cycle={} post_order={} children={}",
        g.len(),
        g.edges,
        g.has_cycle,
        fnv64(&post),
        fnv64(&kids)
    );
    if g.len() <= SPELLED_OUT {
        let _ = write!(out, " post_order={post} children={kids}");
    }
    out
}

/// Renders every analysis of one corpus entry.
fn render_case(out: &mut String, name: &str, sys: &System, allowed: &[i64], opts: &ExploreOptions) {
    let _ = writeln!(out, "case {name}");
    let _ = writeln!(out, "  explore {}", debug_or_err(&explore(sys, opts)));
    let graph = match ConfigGraph::build(sys, opts) {
        Ok(g) => render_graph(&g),
        Err(e) => format!("Err({e:?})"),
    };
    let _ = writeln!(out, "  graph {graph}");
    let _ = writeln!(
        out,
        "  valency {}",
        debug_or_err(&analyze_valency(sys, opts))
    );
    let _ = writeln!(
        out,
        "  crash {}",
        debug_or_err(&check_crash_tolerance(sys, allowed, opts))
    );
    let _ = writeln!(
        out,
        "  violation {}",
        debug_or_err(&find_violation(sys, allowed, opts))
    );
}

/// Two processes each test-and-set once and decide the response.
fn tas_race() -> System {
    let tas = Arc::new(canonical::test_and_set(2));
    let init = tas.state_id("unset").unwrap();
    let inv = tas.invocation_id("test_and_set").unwrap().index() as i64;
    let obj = ObjectInstance::identity_ports(tas, init, 2);
    let mk = || {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        b.invoke(0_i64, inv, Some(r));
        b.ret(r);
        b.build().unwrap()
    };
    System::new(vec![obj], vec![mk(), mk()])
}

/// One process reads a DEAD one-use bit: the object may answer 0 or 1.
fn dead_read() -> System {
    let oub = Arc::new(canonical::one_use_bit());
    let dead = oub.state_id("DEAD").unwrap();
    let read = oub.invocation_id("read").unwrap().index() as i64;
    let obj = ObjectInstance::identity_ports(oub, dead, 1);
    let mut b = ProgramBuilder::new();
    let r = b.var("r");
    b.invoke(0_i64, read, Some(r));
    b.ret(r);
    System::new(vec![obj], vec![b.build().unwrap()])
}

/// A chooser that writes back twice what it read, beside a flipper that
/// writes 1 once: the per-value write maxima come from different runs.
fn write_totals() -> System {
    let reg = Arc::new(canonical::boolean_register(2));
    let init = reg.state_id("v0").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let w0 = reg.invocation_id("write0").unwrap().index() as i64;
    let w1 = reg.invocation_id("write1").unwrap().index() as i64;
    let r1 = reg.response_id("1").unwrap().index() as i64;
    let obj = ObjectInstance::identity_ports(reg, init, 2);
    let chooser = {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let t = b.var("t");
        let zeros = b.fresh_label();
        b.invoke(0_i64, read, Some(r));
        b.compute(t, r, BinOp::Eq, r1);
        b.jump_if_zero(t, zeros);
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
    System::new(vec![obj], vec![chooser, flipper])
}

/// A reader spinning until a register nobody writes reads 1.
fn spin_loop() -> System {
    let reg = Arc::new(canonical::boolean_register(2));
    let init = reg.state_id("v0").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let r1 = reg.response_id("1").unwrap().index() as i64;
    let obj = ObjectInstance::identity_ports(reg, init, 1);
    let mut b = ProgramBuilder::new();
    let r = b.var("r");
    let t = b.var("t");
    let top = b.fresh_label();
    b.bind(top);
    b.invoke(0_i64, read, Some(r));
    b.compute(t, r, BinOp::Eq, r1);
    b.jump_if_zero(t, top);
    b.ret(r);
    System::new(vec![obj], vec![b.build().unwrap()])
}

/// Each process writes its input to one shared register, reads it back
/// and decides what it read: agreement fails on every mixed input
/// vector, by a schedule that interleaves the writes and the reads.
fn register_race(inputs: &[bool]) -> System {
    let n = inputs.len();
    let reg = Arc::new(canonical::boolean_register(n));
    let init = reg.state_id("v0").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let obj = ObjectInstance::identity_ports(Arc::clone(&reg), init, n);
    let programs = inputs
        .iter()
        .map(|&input| {
            let write = if input { "write1" } else { "write0" };
            let write = reg.invocation_id(write).unwrap().index() as i64;
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            b.invoke(0_i64, write, None);
            b.invoke(0_i64, read, Some(r));
            b.ret(r);
            b.build().unwrap()
        })
        .collect();
    System::new(vec![obj], programs)
}

/// Two broken processes on one register: process 0 reads and then
/// divides by zero, process 1 invokes an object that does not exist.
/// Both errors surface on the first level, so the level's deterministic
/// error choice (the least `Debug` string, then the least process)
/// decides which one is reported.
fn malformed() -> System {
    let reg = Arc::new(canonical::boolean_register(2));
    let init = reg.state_id("v0").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let obj = ObjectInstance::identity_ports(reg, init, 2);
    let bad_division = {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        b.invoke(0_i64, read, Some(r));
        b.compute(r, r, BinOp::Mod, 0_i64);
        b.ret(r);
        b.build().unwrap()
    };
    let bad_object = {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        b.invoke(Operand::Const(9), read, Some(r));
        b.ret(r);
        b.build().unwrap()
    };
    System::new(vec![obj], vec![bad_division, bad_object])
}

/// A two-process protocol builder, by input vector.
type Protocol = fn([bool; 2]) -> consensus::ConsensusSystem;

/// The five register protocols of experiment E8 (the bench crate's
/// `register_protocols()`), on every input vector.
fn register_protocols() -> Vec<(&'static str, Protocol)> {
    vec![
        ("tas+regs", consensus::tas_consensus_system),
        ("queue+regs", consensus::queue_consensus_system),
        ("fetch_add+regs", consensus::fetch_add_consensus_system),
        ("stack+regs", consensus::stack_consensus_system),
        ("swap+regs", consensus::swap_consensus_system),
    ]
}

fn label(inputs: &[bool]) -> String {
    inputs.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn table() -> String {
    let opts = ExploreOptions::default();
    let mut out = String::new();
    render_case(&mut out, "tas_race", &tas_race(), &[0, 1], &opts);
    render_case(&mut out, "dead_read", &dead_read(), &[0, 1], &opts);
    // Only 1 is a valid decision here: the DEAD read may answer 0.
    render_case(&mut out, "dead_read/allowed=1", &dead_read(), &[1], &opts);
    render_case(&mut out, "write_totals", &write_totals(), &[0, 1], &opts);
    // A small budget: the spin loop has one configuration, and a search
    // that does not notice the cycle walks it until the budget trips.
    render_case(
        &mut out,
        "spin_loop",
        &spin_loop(),
        &[0, 1],
        &opts.with_max_configs(100),
    );
    render_case(&mut out, "malformed", &malformed(), &[0, 1], &opts);
    for n in [2, 3] {
        for inputs in binary_input_vectors(n) {
            let name = format!("cas_announce/{}", label(&inputs));
            let sys = cas_announce_consensus_system(&inputs).system;
            render_case(&mut out, &name, &sys, &[0, 1], &opts);
        }
    }
    // Validity against one value only: the search passes terminals that
    // decide the allowed value and shared subtrees before the first one
    // that does not.
    for inputs in binary_input_vectors(3) {
        let sys = cas_announce_consensus_system(&inputs).system;
        for allowed in [0, 1] {
            let _ = writeln!(
                out,
                "case cas_announce/{}/allowed={allowed}",
                label(&inputs)
            );
            let r = find_violation(&sys, &[allowed], &opts);
            let _ = writeln!(out, "  violation {}", debug_or_err(&r));
        }
    }
    for inputs in binary_input_vectors(3) {
        let name = format!("register_race/{}", label(&inputs));
        render_case(&mut out, &name, &register_race(&inputs), &[0, 1], &opts);
    }
    for (name, build) in register_protocols() {
        for inputs in binary_input_vectors(2) {
            let name = format!("{name}/{}", label(&inputs));
            let sys = build([inputs[0], inputs[1]]).system;
            render_case(&mut out, &name, &sys, &[0, 1], &opts);
        }
    }
    // Budget trips on a graph wide enough for the parallel level path
    // (frontiers above 64 configurations): the configs axis reports
    // exactly budget + 1 at every thread count.
    let wide = cas_announce_consensus_system(&[false, true, true, false]).system;
    for threads in [1, 2, 4] {
        let o = opts.with_threads(threads);
        for max_configs in [1, 100, 600, 1_000_000] {
            let name = format!("wide/configs={max_configs}/threads={threads}");
            let _ = writeln!(out, "case {name}");
            let r = explore(&wide, &o.with_max_configs(max_configs));
            let _ = writeln!(out, "  explore {}", debug_or_err(&r));
        }
        let _ = writeln!(out, "case wide/depth=5/threads={threads}");
        let r = explore(&wide, &o.with_max_depth(5));
        let _ = writeln!(out, "  explore {}", debug_or_err(&r));
    }
    out
}

#[test]
fn explorer_results_match_the_golden_table() {
    let actual = table();
    for (k, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "golden line {} differs", k + 1);
    }
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "golden table length differs; actual table:\n{actual}"
    );
}
