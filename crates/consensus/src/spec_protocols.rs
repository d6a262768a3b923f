//! Spec-level consensus protocols for the model checker.
//!
//! These are the same protocols as [`crate::native`], expressed as
//! `wfc-explorer` [`System`]s over `wfc-spec` object types, so that:
//!
//! * every interleaving can be enumerated (wait-freedom, agreement,
//!   validity — the paper's Section 2.2 correctness conditions);
//! * the Section 4.2 execution-tree bounds `D`, `r_b`, `w_b` can be
//!   computed exactly;
//! * the protocols that use registers can be fed to `wfc-core`'s
//!   register-elimination compiler (Theorem 5).
//!
//! Each builder takes a concrete input vector (the paper considers the
//! `2^n` execution trees separately, one per vector) and returns a
//! [`ConsensusSystem`]: the system plus metadata identifying its
//! register objects, which is what the eliminator rewrites.

use std::sync::Arc;

use wfc_explorer::program::{BinOp, ProgramBuilder, Var};
use wfc_explorer::{explore, Exploration, ExploreOptions, ExplorerError, ObjectInstance, System};
use wfc_spec::{canonical, PortId};

/// Metadata for one single-reader single-writer boolean register object
/// inside a [`ConsensusSystem`] — the elimination target of Theorem 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SrswRegisterInfo {
    /// Index of the register in the system's object list.
    pub obj: usize,
    /// The single process that writes it.
    pub writer_process: usize,
    /// The single process that reads it.
    pub reader_process: usize,
    /// The register's initial value.
    pub init: bool,
}

/// A consensus implementation as a model-checkable system, with its
/// register objects identified.
#[derive(Clone, Debug)]
pub struct ConsensusSystem {
    /// The implementation.
    pub system: System,
    /// The SRSW boolean registers among its objects (empty for
    /// register-free protocols).
    pub registers: Vec<SrswRegisterInfo>,
    /// The input value proposed by each process.
    pub inputs: Vec<bool>,
}

/// All `2^n` binary input vectors — one per execution tree of the
/// paper's Section 4.2 — in counting order of the mask whose bit `p` is
/// process `p`'s input: process 0 varies fastest, so vector 1 is
/// `[true, false, …]`. Every per-tree list in this workspace (and the
/// golden tables pinning them) follows this order.
pub fn binary_input_vectors(n: usize) -> Vec<Vec<bool>> {
    (0..1usize << n)
        .map(|mask| (0..n).map(|p| mask & (1 << p) != 0).collect())
        .collect()
}

fn decide_register_value(b: &mut ProgramBuilder, r: Var) {
    // canonical::register(2, _) numbers responses "0" → 0 and "1" → 1, so
    // a read's response index *is* the value; decide it directly.
    b.ret(r);
}

/// Two-process consensus from one test-and-set object and two SRSW
/// boolean announce registers (the `h_1^r(TAS) = 2` protocol,
/// Herlihy \[7\]).
///
/// Objects: `0` and `1` are the announce registers of processes 0 and 1;
/// `2` is the test-and-set. Each process writes its input, races on the
/// TAS, and on a loss reads the winner's announcement.
pub fn tas_consensus_system(inputs: [bool; 2]) -> ConsensusSystem {
    let reg = Arc::new(canonical::boolean_register(2));
    let tas = Arc::new(canonical::test_and_set(2));
    assert_eq!(reg.response_id("0").map(|r| r.index()), Some(0));
    assert_eq!(reg.response_id("1").map(|r| r.index()), Some(1));
    let v0 = reg.state_id("v0").unwrap();
    let unset = tas.state_id("unset").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let write_inv = |v: bool| {
        reg.invocation_id(if v { "write1" } else { "write0" })
            .unwrap()
            .index() as i64
    };
    let tas_inv = tas.invocation_id("test_and_set").unwrap().index() as i64;
    // announce[p]: written by p through port 0, read by 1-p through port 1.
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(&reg), v0, ports)
    };
    let objects = vec![
        announce(0),
        announce(1),
        ObjectInstance::identity_ports(tas, unset, 2),
    ];
    let program = |me: usize, input: bool| {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let won = b.var("won");
        let lose = b.fresh_label();
        b.invoke(me as i64, write_inv(input), None);
        b.invoke(2_i64, tas_inv, Some(r));
        b.compute(won, r, BinOp::Eq, 0_i64);
        b.jump_if_zero(won, lose);
        b.ret(i64::from(input));
        b.bind(lose);
        b.invoke(1 - me as i64, read, Some(r));
        decide_register_value(&mut b, r);
        b.build().expect("well-formed protocol program")
    };
    ConsensusSystem {
        system: System::new(objects, vec![program(0, inputs[0]), program(1, inputs[1])]),
        registers: vec![
            SrswRegisterInfo {
                obj: 0,
                writer_process: 0,
                reader_process: 1,
                init: false,
            },
            SrswRegisterInfo {
                obj: 1,
                writer_process: 1,
                reader_process: 0,
                init: false,
            },
        ],
        inputs: inputs.to_vec(),
    }
}

/// Two-process consensus from one fetch-and-add counter and two SRSW
/// announce registers: the first incrementer (response 0) wins.
pub fn fetch_add_consensus_system(inputs: [bool; 2]) -> ConsensusSystem {
    let reg = Arc::new(canonical::boolean_register(2));
    let fa = Arc::new(canonical::fetch_and_add(2, 2));
    let v0 = reg.state_id("v0").unwrap();
    let zero = fa.state_id("0").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let write_inv = |v: bool| {
        reg.invocation_id(if v { "write1" } else { "write0" })
            .unwrap()
            .index() as i64
    };
    let fadd = fa.invocation_id("fetch_add").unwrap().index() as i64;
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(&reg), v0, ports)
    };
    let objects = vec![
        announce(0),
        announce(1),
        ObjectInstance::identity_ports(fa, zero, 2),
    ];
    let program = |me: usize, input: bool| {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let won = b.var("won");
        let lose = b.fresh_label();
        b.invoke(me as i64, write_inv(input), None);
        b.invoke(2_i64, fadd, Some(r));
        b.compute(won, r, BinOp::Eq, 0_i64);
        b.jump_if_zero(won, lose);
        b.ret(i64::from(input));
        b.bind(lose);
        b.invoke(1 - me as i64, read, Some(r));
        decide_register_value(&mut b, r);
        b.build().expect("well-formed protocol program")
    };
    ConsensusSystem {
        system: System::new(objects, vec![program(0, inputs[0]), program(1, inputs[1])]),
        registers: vec![
            SrswRegisterInfo {
                obj: 0,
                writer_process: 0,
                reader_process: 1,
                init: false,
            },
            SrswRegisterInfo {
                obj: 1,
                writer_process: 1,
                reader_process: 0,
                init: false,
            },
        ],
        inputs: inputs.to_vec(),
    }
}

/// Two-process consensus from a FIFO queue pre-filled with one token and
/// two SRSW announce registers (Herlihy \[7\]): the process that dequeues
/// the token wins.
pub fn queue_consensus_system(inputs: [bool; 2]) -> ConsensusSystem {
    let reg = Arc::new(canonical::boolean_register(2));
    let queue = Arc::new(canonical::queue(1, 1, 2));
    let v0 = reg.state_id("v0").unwrap();
    let token = queue.state_id("⟨0⟩").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let write_inv = |v: bool| {
        reg.invocation_id(if v { "write1" } else { "write0" })
            .unwrap()
            .index() as i64
    };
    let deq = queue.invocation_id("deq").unwrap().index() as i64;
    let token_resp = queue.response_id("0").unwrap().index() as i64;
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(&reg), v0, ports)
    };
    let objects = vec![
        announce(0),
        announce(1),
        ObjectInstance::identity_ports(queue, token, 2),
    ];
    let program = |me: usize, input: bool| {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let won = b.var("won");
        let lose = b.fresh_label();
        b.invoke(me as i64, write_inv(input), None);
        b.invoke(2_i64, deq, Some(r));
        b.compute(won, r, BinOp::Eq, token_resp);
        b.jump_if_zero(won, lose);
        b.ret(i64::from(input));
        b.bind(lose);
        b.invoke(1 - me as i64, read, Some(r));
        decide_register_value(&mut b, r);
        b.build().expect("well-formed protocol program")
    };
    ConsensusSystem {
        system: System::new(objects, vec![program(0, inputs[0]), program(1, inputs[1])]),
        registers: vec![
            SrswRegisterInfo {
                obj: 0,
                writer_process: 0,
                reader_process: 1,
                init: false,
            },
            SrswRegisterInfo {
                obj: 1,
                writer_process: 1,
                reader_process: 0,
                init: false,
            },
        ],
        inputs: inputs.to_vec(),
    }
}

/// Two-process consensus from a LIFO stack pre-filled with one token and
/// two SRSW announce registers: the process that pops the token wins —
/// the stack twin of [`queue_consensus_system`].
pub fn stack_consensus_system(inputs: [bool; 2]) -> ConsensusSystem {
    let reg = Arc::new(canonical::boolean_register(2));
    let stack = Arc::new(canonical::stack(1, 1, 2));
    let v0 = reg.state_id("v0").unwrap();
    let token = stack.state_id("\u{27e8}0\u{27e9}").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let write_inv = |v: bool| {
        reg.invocation_id(if v { "write1" } else { "write0" })
            .unwrap()
            .index() as i64
    };
    let pop = stack.invocation_id("pop").unwrap().index() as i64;
    let token_resp = stack.response_id("0").unwrap().index() as i64;
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(&reg), v0, ports)
    };
    let objects = vec![
        announce(0),
        announce(1),
        ObjectInstance::identity_ports(stack, token, 2),
    ];
    let program = |me: usize, input: bool| {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let won = b.var("won");
        let lose = b.fresh_label();
        b.invoke(me as i64, write_inv(input), None);
        b.invoke(2_i64, pop, Some(r));
        b.compute(won, r, BinOp::Eq, token_resp);
        b.jump_if_zero(won, lose);
        b.ret(i64::from(input));
        b.bind(lose);
        b.invoke(1 - me as i64, read, Some(r));
        decide_register_value(&mut b, r);
        b.build().expect("well-formed protocol program")
    };
    ConsensusSystem {
        system: System::new(objects, vec![program(0, inputs[0]), program(1, inputs[1])]),
        registers: vec![
            SrswRegisterInfo {
                obj: 0,
                writer_process: 0,
                reader_process: 1,
                init: false,
            },
            SrswRegisterInfo {
                obj: 1,
                writer_process: 1,
                reader_process: 0,
                init: false,
            },
        ],
        inputs: inputs.to_vec(),
    }
}

/// Two-process consensus from one swap register and two SRSW announce
/// registers: each process swaps a marker into the cell; whoever gets
/// the initial value back went first and wins (Herlihy \[7\]).
pub fn swap_consensus_system(inputs: [bool; 2]) -> ConsensusSystem {
    let reg = Arc::new(canonical::boolean_register(2));
    let swap = Arc::new(canonical::swap(2, 2));
    let v0 = reg.state_id("v0").unwrap();
    let swap_init = swap.state_id("v0").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let write_inv = |v: bool| {
        reg.invocation_id(if v { "write1" } else { "write0" })
            .unwrap()
            .index() as i64
    };
    // Both processes swap in the marker value 1; response 0 = "the cell
    // still held the initial value" = first = winner.
    let swap1 = swap.invocation_id("swap1").unwrap().index() as i64;
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(&reg), v0, ports)
    };
    let objects = vec![
        announce(0),
        announce(1),
        ObjectInstance::identity_ports(swap, swap_init, 2),
    ];
    let program = |me: usize, input: bool| {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let won = b.var("won");
        let lose = b.fresh_label();
        b.invoke(me as i64, write_inv(input), None);
        b.invoke(2_i64, swap1, Some(r));
        b.compute(won, r, BinOp::Eq, 0_i64);
        b.jump_if_zero(won, lose);
        b.ret(i64::from(input));
        b.bind(lose);
        b.invoke(1 - me as i64, read, Some(r));
        decide_register_value(&mut b, r);
        b.build().expect("well-formed protocol program")
    };
    ConsensusSystem {
        system: System::new(objects, vec![program(0, inputs[0]), program(1, inputs[1])]),
        registers: vec![
            SrswRegisterInfo {
                obj: 0,
                writer_process: 0,
                reader_process: 1,
                init: false,
            },
            SrswRegisterInfo {
                obj: 1,
                writer_process: 1,
                reader_process: 0,
                init: false,
            },
        ],
        inputs: inputs.to_vec(),
    }
}

/// Two-process consensus from one 2-bit shift register (init `"01"`) and
/// two SRSW announce registers (Aspnes 2025: consensus number of a
/// `w`-bit shift register is exactly `w`).
///
/// Process 0 shifts **left**, process 1 shifts **right**; each shift
/// returns the new contents, which encode who moved first:
///
/// * P0 first: `"01" —shl→ "10"` (P0 sees `10`, wins); a later
///   `shr` yields `"01"` (P1 sees `01`, loses).
/// * P1 first: `"01" —shr→ "00"` (P1 sees `00`, wins); a later
///   `shl` stays `"00"` (P0 sees `00`, loses).
///
/// The winner decides its own input; the loser reads the winner's
/// announce register.
pub fn shift2_consensus_system(inputs: [bool; 2]) -> ConsensusSystem {
    let reg = Arc::new(canonical::boolean_register(2));
    let shift = Arc::new(canonical::shift_register(2, 2));
    let v0 = reg.state_id("v0").unwrap();
    let init = shift.state_id("01").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let write_inv = |v: bool| {
        reg.invocation_id(if v { "write1" } else { "write0" })
            .unwrap()
            .index() as i64
    };
    let shl = shift.invocation_id("shl").unwrap().index() as i64;
    let shr = shift.invocation_id("shr").unwrap().index() as i64;
    // Losing responses: P0's shl yields "00" iff P1 shifted first;
    // P1's shr yields "01" iff P0 shifted first.
    let resp = |name: &str| shift.response_id(name).unwrap().index() as i64;
    let lost_resp = [resp("00"), resp("01")];
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(&reg), v0, ports)
    };
    let objects = vec![
        announce(0),
        announce(1),
        ObjectInstance::identity_ports(shift, init, 2),
    ];
    let program = |me: usize, input: bool| {
        let op = if me == 0 { shl } else { shr };
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let lost = b.var("lost");
        let win = b.fresh_label();
        b.invoke(me as i64, write_inv(input), None);
        b.invoke(2_i64, op, Some(r));
        b.compute(lost, r, BinOp::Eq, lost_resp[me]);
        b.jump_if_zero(lost, win);
        b.invoke(1 - me as i64, read, Some(r));
        b.ret(r);
        b.bind(win);
        b.ret(i64::from(input));
        b.build().expect("well-formed protocol program")
    };
    ConsensusSystem {
        system: System::new(objects, vec![program(0, inputs[0]), program(1, inputs[1])]),
        registers: vec![
            SrswRegisterInfo {
                obj: 0,
                writer_process: 0,
                reader_process: 1,
                init: false,
            },
            SrswRegisterInfo {
                obj: 1,
                writer_process: 1,
                reader_process: 0,
                init: false,
            },
        ],
        inputs: inputs.to_vec(),
    }
}

/// Two-process consensus from one MPR 2-sliding-window register (init
/// `"⟨⟩"`) and two SRSW announce registers (Mostéfaoui–Perrin–Raynal:
/// the `k`-sliding-window register has consensus number exactly `k`).
///
/// Each process appends its identity as a marker (`write0` for P0,
/// `write1` for P1) and reads the window; with at most two writes the
/// window's **oldest** entry names the first writer, who wins. P0 lost
/// iff it reads `⟨1,0⟩`; P1 lost iff it reads `⟨0,1⟩`. The loser reads
/// the winner's announce register.
pub fn mpr2_consensus_system(inputs: [bool; 2]) -> ConsensusSystem {
    let reg = Arc::new(canonical::boolean_register(2));
    let mpr = Arc::new(canonical::mpr(2, 2));
    let v0 = reg.state_id("v0").unwrap();
    let empty = mpr.state_id("⟨⟩").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let write_inv = |v: bool| {
        reg.invocation_id(if v { "write1" } else { "write0" })
            .unwrap()
            .index() as i64
    };
    let mark = [
        mpr.invocation_id("write0").unwrap().index() as i64,
        mpr.invocation_id("write1").unwrap().index() as i64,
    ];
    let window_read = mpr.invocation_id("read").unwrap().index() as i64;
    let resp = |name: &str| mpr.response_id(name).unwrap().index() as i64;
    let lost_resp = [resp("⟨1,0⟩"), resp("⟨0,1⟩")];
    let announce = |p: usize| {
        let mut ports = vec![None, None];
        ports[p] = Some(PortId::new(0));
        ports[1 - p] = Some(PortId::new(1));
        ObjectInstance::new(Arc::clone(&reg), v0, ports)
    };
    let objects = vec![
        announce(0),
        announce(1),
        ObjectInstance::identity_ports(mpr, empty, 2),
    ];
    let program = |me: usize, input: bool| {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let lost = b.var("lost");
        let win = b.fresh_label();
        b.invoke(me as i64, write_inv(input), None);
        b.invoke(2_i64, mark[me], None);
        b.invoke(2_i64, window_read, Some(r));
        b.compute(lost, r, BinOp::Eq, lost_resp[me]);
        b.jump_if_zero(lost, win);
        b.invoke(1 - me as i64, read, Some(r));
        b.ret(r);
        b.bind(win);
        b.ret(i64::from(input));
        b.build().expect("well-formed protocol program")
    };
    ConsensusSystem {
        system: System::new(objects, vec![program(0, inputs[0]), program(1, inputs[1])]),
        registers: vec![
            SrswRegisterInfo {
                obj: 0,
                writer_process: 0,
                reader_process: 1,
                init: false,
            },
            SrswRegisterInfo {
                obj: 1,
                writer_process: 1,
                reader_process: 0,
                init: false,
            },
        ],
        inputs: inputs.to_vec(),
    }
}

/// `n`-process consensus from a single compare-and-swap object — **no
/// registers** (`h_1(CAS) = ∞`, Herlihy \[7\]).
///
/// The CAS cell ranges over `{empty, decided-0, decided-1}`; a proposer
/// CASes `empty → decided-v` and decodes the response.
pub fn cas_consensus_system(inputs: &[bool]) -> ConsensusSystem {
    let n = inputs.len();
    let cas = Arc::new(canonical::compare_and_swap(3, n));
    let empty = cas.state_id("v0").unwrap();
    let objects = vec![ObjectInstance::identity_ports(Arc::clone(&cas), empty, n)];
    let program = |input: bool| {
        // cas0_{v+1}: install decided-v if empty.
        let inv = cas
            .invocation_id(&format!("cas0_{}", 1 + usize::from(input)))
            .unwrap()
            .index() as i64;
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let was_empty = b.var("was_empty");
        let taken = b.fresh_label();
        b.invoke(0_i64, inv, Some(r));
        b.compute(was_empty, r, BinOp::Eq, 0_i64);
        b.jump_if_zero(was_empty, taken);
        b.ret(i64::from(input));
        b.bind(taken);
        // Response k (k ≥ 1) means the cell held decided-(k-1).
        let dec = b.var("dec");
        b.compute(dec, r, BinOp::Sub, 1_i64);
        b.ret(dec);
        b.build().expect("well-formed protocol program")
    };
    ConsensusSystem {
        system: System::new(objects, inputs.iter().map(|&i| program(i)).collect()),
        registers: Vec::new(),
        inputs: inputs.to_vec(),
    }
}

/// `n`-process binary consensus from a single sticky bit — **no
/// registers** (Plotkin \[19\]).
pub fn sticky_consensus_system(inputs: &[bool]) -> ConsensusSystem {
    let n = inputs.len();
    let sticky = Arc::new(canonical::sticky_bit(n));
    let bot = sticky.state_id("⊥").unwrap();
    let objects = vec![ObjectInstance::identity_ports(Arc::clone(&sticky), bot, n)];
    let program = |input: bool| {
        let inv = sticky
            .invocation_id(if input { "write1" } else { "write0" })
            .unwrap()
            .index() as i64;
        let resp0 = sticky.response_id("0").unwrap().index() as i64;
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        let dec = b.var("dec");
        b.invoke(0_i64, inv, Some(r));
        // Responses: "0" or "1" (⊥ impossible for a write); decode.
        b.compute(dec, r, BinOp::Sub, resp0);
        b.ret(dec);
        b.build().expect("well-formed protocol program")
    };
    ConsensusSystem {
        system: System::new(objects, inputs.iter().map(|&i| program(i)).collect()),
        registers: Vec::new(),
        inputs: inputs.to_vec(),
    }
}

/// `n`-process consensus from one compare-and-swap object **plus**
/// `n·(n-1)` SRSW boolean announce registers.
///
/// Unlike [`cas_consensus_system`] (which needs no registers), this
/// variant deliberately routes the winner's *value* through registers:
/// each process writes its input to a dedicated register per peer, then
/// CASes its own *identity* into the cell; losers learn the winner's
/// identity from the CAS response and read the winner's announcement
/// addressed to them. Every register has exactly one writer and one
/// reader, which makes the protocol a register-elimination target at
/// `n > 2` — the stress case for the Theorem 5 compiler.
pub fn cas_announce_consensus_system(inputs: &[bool]) -> ConsensusSystem {
    let n = inputs.len();
    assert!(n >= 2, "consensus needs at least two processes");
    let reg = Arc::new(canonical::boolean_register(2));
    // CAS over n + 1 values: v0 = empty, v_{1+p} = "process p won".
    let cas = Arc::new(canonical::compare_and_swap(n + 1, n));
    let v0 = reg.state_id("v0").unwrap();
    let empty = cas.state_id("v0").unwrap();
    let read = reg.invocation_id("read").unwrap().index() as i64;
    let write_inv = |v: bool| {
        reg.invocation_id(if v { "write1" } else { "write0" })
            .unwrap()
            .index() as i64
    };
    // Object layout: 0 = CAS; then registers announce[w→r] for each
    // ordered pair w ≠ r, indexed row-major skipping the diagonal.
    let mut objects = vec![ObjectInstance::identity_ports(Arc::clone(&cas), empty, n)];
    let mut registers = Vec::new();
    let mut reg_index = vec![vec![usize::MAX; n]; n];
    for w in 0..n {
        for r in 0..n {
            if w == r {
                continue;
            }
            let mut ports = vec![None; n];
            ports[w] = Some(PortId::new(0));
            ports[r] = Some(PortId::new(1));
            reg_index[w][r] = objects.len();
            registers.push(SrswRegisterInfo {
                obj: objects.len(),
                writer_process: w,
                reader_process: r,
                init: false,
            });
            objects.push(ObjectInstance::new(Arc::clone(&reg), v0, ports));
        }
    }
    let programs = (0..n)
        .map(|me| {
            let input = inputs[me];
            // cas0_{me+1}: claim the cell for my identity.
            let claim = cas
                .invocation_id(&format!("cas0_{}", me + 1))
                .unwrap()
                .index() as i64;
            let mut b = ProgramBuilder::new();
            let r = b.var("r");
            let won = b.var("won");
            // Announce my input to every peer.
            #[allow(clippy::needless_range_loop)] // peer indexes reg_index[me][peer]
            for peer in 0..n {
                if peer != me {
                    b.invoke(reg_index[me][peer] as i64, write_inv(input), None);
                }
            }
            b.invoke(0_i64, claim, Some(r));
            let lose = b.fresh_label();
            b.compute(won, r, BinOp::Eq, 0_i64);
            b.jump_if_zero(won, lose);
            b.ret(i64::from(input));
            b.bind(lose);
            // Response k ≥ 1 means process k-1 won; read its announcement
            // to me. The winner index is dynamic, so compute the register
            // object index from a jump table over peers.
            let done = b.fresh_label();
            let winner_is = |b: &mut ProgramBuilder, r: Var, peer: usize| {
                let t = b.var("t");
                b.compute(t, r, BinOp::Eq, (peer + 1) as i64);
                t
            };
            #[allow(clippy::needless_range_loop)] // peer indexes reg_index[peer][me]
            for peer in 0..n {
                if peer == me {
                    continue;
                }
                let next = b.fresh_label();
                let t = winner_is(&mut b, r, peer);
                b.jump_if_zero(t, next);
                let v = b.var("v");
                b.invoke(reg_index[peer][me] as i64, read, Some(v));
                b.copy(r, v);
                b.jump(done);
                b.bind(next);
            }
            // Unreachable fallback (the winner is always some peer here).
            b.copy(r, 0_i64);
            b.bind(done);
            // Register responses "0"/"1" are numbered 0/1: decide directly.
            b.ret(r);
            b.build().expect("well-formed protocol program")
        })
        .collect();
    ConsensusSystem {
        system: System::new(objects, programs),
        registers,
        inputs: inputs.to_vec(),
    }
}

/// The verdict of model-checking a consensus protocol over all `2^n`
/// input vectors.
#[derive(Clone, Debug)]
pub struct ProtocolVerdict {
    /// Per-input-vector execution-tree depth `d` (the paper's Section 4.2).
    pub depth_per_tree: Vec<usize>,
    /// The paper's bound `D = max d` over all trees.
    pub d_max: usize,
    /// Total configurations across all trees.
    pub total_configs: usize,
    /// `true` if every tree satisfied agreement.
    pub agreement: bool,
    /// `true` if every tree satisfied validity.
    pub validity: bool,
}

impl ProtocolVerdict {
    /// `true` if the protocol is a correct wait-free consensus
    /// implementation (wait-freedom is implied: exploration fails
    /// otherwise).
    pub fn holds(&self) -> bool {
        self.agreement && self.validity
    }

    /// The verdict over trees given in [`binary_input_vectors`] order.
    pub fn from_trees(trees: impl IntoIterator<Item = TreeVerdict>) -> Self {
        let mut v = ProtocolVerdict {
            depth_per_tree: Vec::new(),
            d_max: 0,
            total_configs: 0,
            agreement: true,
            validity: true,
        };
        for t in trees {
            v.depth_per_tree.push(t.depth);
            v.d_max = v.d_max.max(t.depth);
            v.total_configs += t.configs;
            v.agreement &= t.agreement;
            v.validity &= t.validity;
        }
        v
    }
}

/// What one explored execution tree contributes to a [`ProtocolVerdict`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeVerdict {
    /// The tree's depth `d`.
    pub depth: usize,
    /// Its distinct configurations.
    pub configs: usize,
    /// `true` if every execution satisfied agreement.
    pub agreement: bool,
    /// `true` if every decision was one of the proposed inputs.
    pub validity: bool,
}

impl TreeVerdict {
    /// Reads the verdict off the exploration of the tree for `inputs`.
    pub fn of(inputs: &[bool], e: &Exploration) -> TreeVerdict {
        let allowed: Vec<i64> = inputs.iter().map(|&b| i64::from(b)).collect();
        TreeVerdict {
            depth: e.depth,
            configs: e.configs,
            agreement: e.decisions_agree(),
            validity: e.decisions_within(&allowed),
        }
    }
}

/// Read/write bounds for one register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegisterBounds {
    /// The register's object index (within each per-vector system).
    pub obj: usize,
    /// `r_b`: the maximum number of reads in any execution.
    pub reads: u32,
    /// `w_b`: the maximum number of writes in any execution.
    pub writes: u32,
}

/// One of a protocol's execution trees: the system built for one input
/// vector and what its exhaustive exploration showed. The exploration
/// itself is dropped on the thread that ran it.
#[derive(Clone, Debug)]
pub struct ProtocolTree {
    /// The input vector, one bit per process.
    pub inputs: Vec<bool>,
    /// The system the builder returned for `inputs`.
    pub system: ConsensusSystem,
    /// The tree's verdict.
    pub verdict: TreeVerdict,
    /// The bounds of each of `system.registers`, in order, in this tree.
    pub registers: Vec<RegisterBounds>,
}

/// All `2^n` execution trees of a consensus protocol, each built and
/// explored exactly once, in [`binary_input_vectors`] order — the one pass
/// that the verdict ([`ProtocolRuns::verdict`]), the Section 4.2 access
/// bounds and Theorem 5's elimination (both in `wfc-core`) all read.
#[derive(Clone, Debug)]
pub struct ProtocolRuns {
    n: usize,
    trees: Vec<ProtocolTree>,
}

impl ProtocolRuns {
    /// The process count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The trees, in the order of [`binary_input_vectors`].
    pub fn trees(&self) -> &[ProtocolTree] {
        &self.trees
    }

    /// Agreement and validity over every tree, with the depths and
    /// configuration totals.
    pub fn verdict(&self) -> ProtocolVerdict {
        ProtocolVerdict::from_trees(self.trees.iter().map(|t| t.verdict))
    }

    /// Applies `f` to every tree on the explorer pool, under the same
    /// fan-out rule as [`explore_protocol`], and returns the results in
    /// tree order. `f` gets the options for any exploration it runs.
    pub fn map_trees<R: Send>(
        &self,
        opts: &ExploreOptions,
        f: impl Fn(&ProtocolTree, &ExploreOptions) -> R + Sync,
    ) -> Vec<R> {
        fan_out(&self.trees, opts, f)
    }
}

/// Maps `f` over `items` with `effective_threads()` workers. `f` gets
/// `threads = 1`, so nothing it runs fans out again: the outer fan-out
/// already fills the pool.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    opts: &ExploreOptions,
    f: impl Fn(&T, &ExploreOptions) -> R + Sync,
) -> Vec<R> {
    let inner = opts.with_threads(1);
    wfc_explorer::pool::parallel_map(opts.effective_threads(), items, |item| f(item, &inner))
}

/// Builds and explores a consensus protocol's system for **each** of
/// the `2^n` input vectors, once.
///
/// # Errors
///
/// The error of the first failing tree in [`binary_input_vectors`] order, so
/// which error surfaces does not depend on how the trees were scheduled
/// — in particular [`ExplorerError::NotWaitFree`] when some interleaving
/// never terminates.
pub fn explore_protocol(
    n: usize,
    build: impl Fn(&[bool]) -> ConsensusSystem + Sync,
    opts: &ExploreOptions,
) -> Result<ProtocolRuns, ExplorerError> {
    let _span = wfc_obs::span::enter_lazy(opts.obs.spans, "explore_protocol", || format!("n={n}"));
    if opts.obs.metrics {
        wfc_obs::metrics::Registry::global()
            .counter("consensus.protocol_verifications")
            .add(1);
    }
    let vectors = binary_input_vectors(n);
    let trees = fan_out(
        &vectors,
        opts,
        |inputs, inner| -> Result<_, ExplorerError> {
            let cs = build(inputs);
            // The pass keeps every tree, and what a pool worker allocates
            // but the caller frees later slows the pool work that follows;
            // so only the (small) system and a compact reading of the
            // exploration outlive this call.
            let e = explore(&cs.system, inner)?;
            Ok(ProtocolTree {
                inputs: inputs.clone(),
                verdict: TreeVerdict::of(inputs, &e),
                registers: register_bounds(&cs, &e),
                system: cs,
            })
        },
    );
    Ok(ProtocolRuns {
        n,
        trees: trees.into_iter().collect::<Result<_, _>>()?,
    })
}

/// The read and write maxima of each of `cs`'s registers in one tree.
fn register_bounds(cs: &ConsensusSystem, e: &Exploration) -> Vec<RegisterBounds> {
    cs.registers
        .iter()
        .map(|info| {
            let ty = cs.system.objects()[info.obj].ty();
            let read_ix = ty
                .invocation_id("read")
                .expect("register type has a read")
                .index();
            RegisterBounds {
                obj: info.obj,
                reads: e.access.max_for(info.obj, read_ix),
                // Writes: the exact maximum of total writes (any value)
                // along a single execution, tracked by the explorer.
                // Summing the per-value write maxima instead would
                // over-approximate, since those maxima can each be
                // attained on different executions.
                writes: e.access.max_writes_for(info.obj),
            }
        })
        .collect()
}

/// Model-checks a consensus protocol builder over **all** `2^n` input
/// vectors: wait-freedom, agreement, and validity in every execution.
///
/// # Errors
///
/// As [`explore_protocol`].
pub fn verify_consensus_protocol(
    n: usize,
    build: impl Fn(&[bool]) -> ConsensusSystem + Sync,
    opts: &ExploreOptions,
) -> Result<ProtocolVerdict, ExplorerError> {
    explore_protocol(n, build, opts).map(|runs| runs.verdict())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_vectors_enumerate_the_hypercube() {
        // Mask order, process 0 the least-significant bit — not
        // lexicographic: the golden tables depend on exactly this order.
        let (f, t) = (false, true);
        let expected = [
            [f, f, f],
            [t, f, f],
            [f, t, f],
            [t, t, f],
            [f, f, t],
            [t, f, t],
            [f, t, t],
            [t, t, t],
        ];
        assert_eq!(binary_input_vectors(3), expected.map(Vec::from));
    }

    #[test]
    fn tas_protocol_is_correct_consensus() {
        let v = verify_consensus_protocol(
            2,
            |i| tas_consensus_system([i[0], i[1]]),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(v.holds(), "{v:?}");
        // Winner path: write + TAS = 2 accesses; loser: write + TAS +
        // read = 3; D = 5 across both processes.
        assert_eq!(v.d_max, 5);
    }

    #[test]
    fn fetch_add_protocol_is_correct_consensus() {
        let v = verify_consensus_protocol(
            2,
            |i| fetch_add_consensus_system([i[0], i[1]]),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(v.holds(), "{v:?}");
    }

    #[test]
    fn queue_protocol_is_correct_consensus() {
        let v = verify_consensus_protocol(
            2,
            |i| queue_consensus_system([i[0], i[1]]),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(v.holds(), "{v:?}");
    }

    #[test]
    fn cas_protocol_is_correct_for_three_processes() {
        let v =
            verify_consensus_protocol(3, cas_consensus_system, &ExploreOptions::default()).unwrap();
        assert!(v.holds(), "{v:?}");
        assert_eq!(v.d_max, 3, "one access per process");
    }

    #[test]
    fn sticky_protocol_is_correct_for_three_processes() {
        let v = verify_consensus_protocol(3, sticky_consensus_system, &ExploreOptions::default())
            .unwrap();
        assert!(v.holds(), "{v:?}");
    }

    #[test]
    fn stack_protocol_is_correct_consensus() {
        let v = verify_consensus_protocol(
            2,
            |i| stack_consensus_system([i[0], i[1]]),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(v.holds(), "{v:?}");
    }

    #[test]
    fn swap_protocol_is_correct_consensus() {
        let v = verify_consensus_protocol(
            2,
            |i| swap_consensus_system([i[0], i[1]]),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(v.holds(), "{v:?}");
    }

    #[test]
    fn shift2_protocol_is_correct_consensus() {
        let v = verify_consensus_protocol(
            2,
            |i| shift2_consensus_system([i[0], i[1]]),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(v.holds(), "{v:?}");
        // Winner: write + shift = 2 accesses; loser: write + shift +
        // read = 3; D = 5 across both processes.
        assert_eq!(v.d_max, 5);
    }

    #[test]
    fn mpr2_protocol_is_correct_consensus() {
        let v = verify_consensus_protocol(
            2,
            |i| mpr2_consensus_system([i[0], i[1]]),
            &ExploreOptions::default(),
        )
        .unwrap();
        assert!(v.holds(), "{v:?}");
    }

    #[test]
    fn cas_announce_protocol_is_correct_for_two_and_three_processes() {
        for n in 2..=3 {
            let v = verify_consensus_protocol(
                n,
                cas_announce_consensus_system,
                &ExploreOptions::default(),
            )
            .unwrap();
            assert!(v.holds(), "n = {n}: {v:?}");
        }
    }

    #[test]
    fn cas_announce_registers_are_all_srsw_pairs() {
        let cs = cas_announce_consensus_system(&[true, false, true]);
        assert_eq!(cs.registers.len(), 6, "n·(n-1) ordered pairs");
        for info in &cs.registers {
            assert_ne!(info.writer_process, info.reader_process);
        }
    }

    #[test]
    fn register_annotations_point_at_registers() {
        let cs = tas_consensus_system([true, false]);
        assert_eq!(cs.registers.len(), 2);
        for r in &cs.registers {
            let obj = &cs.system.objects()[r.obj];
            assert!(obj.ty().name().starts_with("register"));
        }
        assert!(cas_consensus_system(&[true, false]).registers.is_empty());
    }

    /// A deliberately broken protocol (no announce) violates agreement —
    /// the checker must catch it.
    #[test]
    fn broken_protocol_is_caught() {
        let broken = |inputs: &[bool]| {
            let mut cs = tas_consensus_system([inputs[0], inputs[1]]);
            // Sabotage: replace programs with "decide own input".
            let programs: Vec<_> = inputs
                .iter()
                .map(|&i| {
                    let mut b = ProgramBuilder::new();
                    b.ret(i64::from(i));
                    b.build().unwrap()
                })
                .collect();
            cs.system = System::new(cs.system.objects().to_vec(), programs);
            cs
        };
        let v = verify_consensus_protocol(2, broken, &ExploreOptions::default()).unwrap();
        assert!(!v.agreement);
    }
}
