//! Deterministic process programs (paper, Section 2.2).
//!
//! An implementation consists of "deterministic programs that operate on
//! \[shared\] objects". We represent programs in a small register-machine
//! bytecode rather than as Rust closures for two reasons:
//!
//! 1. **Explorability.** A local state (program counter, decision,
//!    variables) is a flat run of `i64` words, so a whole system
//!    configuration packs into one row that the exhaustive explorer
//!    hashes, compares and memoises as plain words — the paper's
//!    execution-tree model (Section 4.2) requires enumerating *all*
//!    interleavings.
//! 2. **Transformability.** The register-elimination compiler of Theorem 5
//!    (implemented in `wfc-core`) rewrites programs: it replaces register
//!    accesses with the one-use-bit subroutines of Sections 4.3 and 5.
//!    Rewriting is only tractable over a first-class program representation.
//!
//! Programs compute over `i64` variables; invocation and response
//! identifiers are carried as their indices. Object indices may be computed
//! dynamically (needed for the `bits[i_w, j_w]` array addressing of
//! Section 4.3).

use std::fmt;

use crate::error::ProgramError;

/// A local variable slot of a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub usize);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// An operand: a constant or a variable reference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A literal value.
    Const(i64),
    /// The current value of a variable.
    Var(Var),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(c) => write!(f, "{c}"),
            Operand::Var(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Operand {
    fn from(c: i64) -> Self {
        Operand::Const(c)
    }
}

impl From<Var> for Operand {
    fn from(v: Var) -> Self {
        Operand::Var(v)
    }
}

/// Binary operations of the local ALU.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Euclidean remainder; `x mod 0` is a runtime error.
    Mod,
    /// Equality test (1 if equal, 0 otherwise).
    Eq,
    /// Strict less-than test (1 or 0).
    Lt,
}

impl BinOp {
    fn apply(self, a: i64, b: i64) -> Result<i64, ProgramError> {
        Ok(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Mod => {
                if b == 0 {
                    return Err(ProgramError::DivisionByZero);
                }
                a.rem_euclid(b)
            }
            BinOp::Eq => i64::from(a == b),
            BinOp::Lt => i64::from(a < b),
        })
    }
}

/// One instruction of a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// `dst := lhs op rhs`.
    Compute {
        /// Destination variable.
        dst: Var,
        /// Left operand.
        lhs: Operand,
        /// Operation.
        op: BinOp,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst := src`.
    Copy {
        /// Destination variable.
        dst: Var,
        /// Source operand.
        src: Operand,
    },
    /// Invoke `inv` on shared object `obj`; if `store` is set, the response
    /// index is written there. The only instruction that touches shared
    /// state: one `Invoke` is one low-level step of the paper's execution
    /// trees.
    Invoke {
        /// Object index into the system's object list (computable).
        obj: Operand,
        /// Invocation index into the object's type (computable).
        inv: Operand,
        /// Where to store the response index, if anywhere.
        store: Option<Var>,
    },
    /// Jump to `target` if `cond` evaluates to zero.
    JumpIfZero {
        /// Condition operand.
        cond: Operand,
        /// Target instruction index.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Terminate, deciding `value`.
    Return {
        /// The decision value.
        value: Operand,
    },
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Mod => "mod",
            BinOp::Eq => "==",
            BinOp::Lt => "<",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Compute { dst, lhs, op, rhs } => write!(f, "{dst} := {lhs} {op} {rhs}"),
            Instr::Copy { dst, src } => write!(f, "{dst} := {src}"),
            Instr::Invoke { obj, inv, store } => match store {
                Some(v) => write!(f, "{v} := invoke obj[{obj}].inv[{inv}]"),
                None => write!(f, "invoke obj[{obj}].inv[{inv}]"),
            },
            Instr::JumpIfZero { cond, target } => write!(f, "if {cond} == 0 goto {target}"),
            Instr::Jump { target } => write!(f, "goto {target}"),
            Instr::Return { value } => write!(f, "return {value}"),
        }
    }
}

/// A deterministic program: straight-line bytecode over local variables and
/// shared-object invocations. Build with [`ProgramBuilder`].
///
/// The [`Display`](fmt::Display) implementation is a disassembly, one
/// instruction per line with its index — handy for inspecting the output
/// of the Theorem 5 compiler.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Program {
    code: Vec<Instr>,
    vars: usize,
    init: Vec<i64>,
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program ({} vars, init {:?})", self.vars, self.init)?;
        for (k, instr) in self.code.iter().enumerate() {
            writeln!(f, "  {k:>3}: {instr}")?;
        }
        Ok(())
    }
}

impl Program {
    /// The instruction sequence.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// The number of variable slots.
    pub fn var_count(&self) -> usize {
        self.vars
    }

    /// Initial variable values (the process's "input" is conventionally
    /// placed in designated variables before the run).
    pub fn init_vars(&self) -> &[i64] {
        &self.init
    }

    /// Returns a copy of the program with variable `var` initialised to
    /// `value` — how per-process inputs are injected when building the
    /// `2^n` execution trees of Section 4.2.
    pub fn with_input(&self, var: Var, value: i64) -> Program {
        let mut p = self.clone();
        p.init[var.0] = value;
        p
    }
}

impl Operand {
    /// Evaluates the operand against a process's variables.
    pub fn eval(self, vars: &[i64]) -> i64 {
        match self {
            Operand::Const(c) => c,
            Operand::Var(v) => vars[v.0],
        }
    }
}

/// Index of the program counter in a process's local state.
pub const PC: usize = 0;
/// Index of the decided flag (0 or 1) in a process's local state.
pub const DECIDED: usize = 1;
/// Index of the decision value (0 until decided) in a process's local
/// state.
pub const DECISION: usize = 2;
/// Index of the first variable in a process's local state.
pub const VARS: usize = 3;

/// Maximum number of purely-local instructions executed per scheduler step
/// before the run is declared divergent. Wait-freedom also covers local
/// loops; this fuel bound turns them into errors instead of hangs.
pub const LOCAL_FUEL: usize = 100_000;

/// Advances the local state `local` through local instructions until it
/// reaches an [`Instr::Invoke`] (leaving the program counter addressing
/// it) or returns (setting the decided flag and the decision).
///
/// A local state is a flat slice `[pc, decided, decision, vars…]`
/// (indices [`PC`], [`DECIDED`], [`DECISION`], [`VARS`]), exactly as
/// long as the program's variables: the block each process occupies
/// inside a packed configuration row. A process that has not run yet
/// is all zeros apart from its initial variables.
///
/// # Errors
///
/// Returns a [`ProgramError`] on out-of-range jumps, running off the end of
/// the program, division by zero, or exceeding [`LOCAL_FUEL`].
pub fn local_run(program: &Program, local: &mut [i64]) -> Result<(), ProgramError> {
    let (head, vars) = local.split_at_mut(VARS);
    if head[DECIDED] != 0 {
        return Ok(());
    }
    let mut pc = head[PC] as usize;
    for _ in 0..LOCAL_FUEL {
        let instr = *program
            .code
            .get(pc)
            .ok_or(ProgramError::PcOutOfRange { pc })?;
        match instr {
            Instr::Compute { dst, lhs, op, rhs } => {
                vars[dst.0] = op.apply(lhs.eval(vars), rhs.eval(vars))?;
                pc += 1;
            }
            Instr::Copy { dst, src } => {
                vars[dst.0] = src.eval(vars);
                pc += 1;
            }
            Instr::Invoke { .. } => {
                head[PC] = pc as i64;
                return Ok(());
            }
            Instr::JumpIfZero { cond, target } => {
                if cond.eval(vars) == 0 {
                    pc = target;
                } else {
                    pc += 1;
                }
            }
            Instr::Jump { target } => pc = target,
            Instr::Return { value } => {
                head[PC] = pc as i64;
                head[DECIDED] = 1;
                head[DECISION] = value.eval(vars);
                return Ok(());
            }
        }
    }
    Err(ProgramError::LocalDivergence)
}

/// A forward-reference label handed out by [`ProgramBuilder::fresh_label`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(usize);

/// Builder for [`Program`]s with labels and named variables
/// ([C-BUILDER]).
///
/// # Examples
///
/// A process that test-and-sets and decides whether it won:
///
/// ```
/// use wfc_explorer::program::{ProgramBuilder, Operand};
///
/// let mut b = ProgramBuilder::new();
/// let won = b.var("won");
/// b.invoke(Operand::Const(0), Operand::Const(0), Some(won)); // TAS object 0
/// b.ret(won);
/// let p = b.build()?;
/// assert_eq!(p.code().len(), 2);
/// # Ok::<(), wfc_explorer::ExplorerError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    code: Vec<Instr>,
    var_names: Vec<String>,
    init: Vec<i64>,
    labels: Vec<Option<usize>>,
    /// (instruction index, label) pairs awaiting back-patching.
    fixups: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Declares (or looks up) a variable by name, initialised to 0.
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(k) = self.var_names.iter().position(|v| v == name) {
            Var(k)
        } else {
            self.var_names.push(name.to_owned());
            self.init.push(0);
            Var(self.var_names.len() - 1)
        }
    }

    /// Declares a variable with an initial value.
    pub fn var_init(&mut self, name: &str, value: i64) -> Var {
        let v = self.var(name);
        self.init[v.0] = value;
        v
    }

    /// Allocates a label to be bound later with [`ProgramBuilder::bind`].
    pub fn fresh_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next instruction emitted.
    pub fn bind(&mut self, label: Label) {
        self.labels[label.0] = Some(self.code.len());
    }

    /// Emits `dst := lhs op rhs`.
    pub fn compute(
        &mut self,
        dst: Var,
        lhs: impl Into<Operand>,
        op: BinOp,
        rhs: impl Into<Operand>,
    ) {
        self.code.push(Instr::Compute {
            dst,
            lhs: lhs.into(),
            op,
            rhs: rhs.into(),
        });
    }

    /// Emits `dst := src`.
    pub fn copy(&mut self, dst: Var, src: impl Into<Operand>) {
        self.code.push(Instr::Copy {
            dst,
            src: src.into(),
        });
    }

    /// Emits an invocation of `inv` on object `obj`, storing the response.
    pub fn invoke(&mut self, obj: impl Into<Operand>, inv: impl Into<Operand>, store: Option<Var>) {
        self.code.push(Instr::Invoke {
            obj: obj.into(),
            inv: inv.into(),
            store,
        });
    }

    /// Emits a conditional jump to `label` when `cond` is zero.
    pub fn jump_if_zero(&mut self, cond: impl Into<Operand>, label: Label) {
        self.fixups.push((self.code.len(), label));
        self.code.push(Instr::JumpIfZero {
            cond: cond.into(),
            target: usize::MAX,
        });
    }

    /// Emits an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) {
        self.fixups.push((self.code.len(), label));
        self.code.push(Instr::Jump { target: usize::MAX });
    }

    /// Emits a decision.
    pub fn ret(&mut self, value: impl Into<Operand>) {
        self.code.push(Instr::Return {
            value: value.into(),
        });
    }

    /// Finalizes the program, patching labels and validating targets.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnboundLabel`] if a referenced label was
    /// never bound, or [`ProgramError::PcOutOfRange`] if a bound label
    /// points past the end of the code.
    pub fn build(mut self) -> Result<Program, ProgramError> {
        for (at, label) in &self.fixups {
            let target = self.labels[label.0].ok_or(ProgramError::UnboundLabel)?;
            if target > self.code.len() {
                return Err(ProgramError::PcOutOfRange { pc: target });
            }
            match &mut self.code[*at] {
                Instr::JumpIfZero { target: t, .. } | Instr::Jump { target: t } => *t = target,
                _ => unreachable!("fixups only point at jumps"),
            }
        }
        Ok(Program {
            code: self.code,
            vars: self.var_names.len(),
            init: self.init,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `p`'s local state before it has run.
    fn initial_local(p: &Program) -> Vec<i64> {
        let mut local = vec![0; VARS];
        local.extend_from_slice(p.init_vars());
        local
    }

    /// Runs `p` from its initial state; the decision, if it returned.
    fn run(p: &Program) -> Result<Option<i64>, ProgramError> {
        let mut s = initial_local(p);
        local_run(p, &mut s)?;
        Ok((s[DECIDED] != 0).then_some(s[DECISION]))
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = ProgramBuilder::new();
        let x = b.var_init("x", 5);
        let y = b.var("y");
        b.compute(y, x, BinOp::Mul, 3_i64);
        b.compute(y, y, BinOp::Mod, 4_i64);
        b.ret(y);
        let p = b.build().unwrap();
        assert_eq!(run(&p), Ok(Some(3))); // 15 mod 4
    }

    #[test]
    fn loops_terminate_via_labels() {
        // Sum 0..5 with a while loop.
        let mut b = ProgramBuilder::new();
        let i = b.var("i");
        let acc = b.var("acc");
        let t = b.var("t");
        let top = b.fresh_label();
        let done = b.fresh_label();
        b.bind(top);
        b.compute(t, i, BinOp::Lt, 5_i64);
        b.jump_if_zero(t, done);
        b.compute(acc, acc, BinOp::Add, i);
        b.compute(i, i, BinOp::Add, 1_i64);
        b.jump(top);
        b.bind(done);
        b.ret(acc);
        let p = b.build().unwrap();
        assert_eq!(run(&p), Ok(Some(10)));
    }

    #[test]
    fn stops_at_invoke() {
        let mut b = ProgramBuilder::new();
        let r = b.var("r");
        b.copy(r, 7_i64);
        b.invoke(0_i64, 1_i64, Some(r));
        b.ret(r);
        let p = b.build().unwrap();
        let mut s = initial_local(&p);
        local_run(&p, &mut s).unwrap();
        assert_eq!(s[PC], 1, "paused at the invoke");
        assert_eq!(s[DECIDED], 0);
        assert_eq!(s[VARS], 7);
    }

    #[test]
    fn local_divergence_is_detected() {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label();
        b.bind(top);
        b.jump(top);
        let p = b.build().unwrap();
        assert_eq!(run(&p), Err(ProgramError::LocalDivergence));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        b.compute(x, 1_i64, BinOp::Mod, 0_i64);
        b.ret(x);
        let p = b.build().unwrap();
        assert_eq!(run(&p), Err(ProgramError::DivisionByZero));
    }

    #[test]
    fn unbound_label_is_rejected() {
        let mut b = ProgramBuilder::new();
        let l = b.fresh_label();
        b.jump(l);
        assert_eq!(b.build().unwrap_err(), ProgramError::UnboundLabel);
    }

    #[test]
    fn falling_off_the_end_is_an_error() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        b.copy(x, 1_i64);
        // no Return
        let p = b.build().unwrap();
        assert_eq!(run(&p), Err(ProgramError::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn with_input_overrides_initial_value() {
        let mut b = ProgramBuilder::new();
        let input = b.var("input");
        b.ret(input);
        let p = b.build().unwrap();
        let p1 = p.with_input(input, 1);
        assert_eq!(run(&p1), Ok(Some(1)));
    }

    #[test]
    fn mod_is_euclidean() {
        assert_eq!(BinOp::Mod.apply(-1, 2).unwrap(), 1);
        assert_eq!(BinOp::Mod.apply(5, 2).unwrap(), 1);
    }
}
