//! The bytecode optimizer: a pass pipeline over compiled kernels.
//!
//! `crate::compile` lowers the AST naively — every evaluation of every
//! expression re-materializes its literals, re-computes its index math and
//! emits its own ALU charge. For sweep throughput that is the hot path:
//! the perforated stencil kernels spend most of their instructions on
//! constant index arithmetic like `clamp(gx, 0, w - 1) * width +
//! clamp(gy, 0, h - 1)` that is recomputed for every tap of every work
//! item. This module rewrites the bytecode once, at [`crate::IrKernel`]
//! construction, through the following passes (in order, per phase):
//!
//! 1. **Frozen-constant propagation** — registers that no instruction in
//!    any phase ever writes (scalar parameters like `width`, plus loop
//!    guards before their reset) hold their initial-register-file value
//!    for the whole launch and are treated as compile-time constants.
//! 2. **Value numbering** over the phase's dominator tree, which carries
//!    three rewrites at once:
//!    * **constant folding** — an instruction whose operands are all
//!      known constants is replaced by [`Inst::Const`]. Folding uses
//!      *checked* arithmetic and refuses to fold anything the VM would
//!      report as a runtime error or panic on (integer division or
//!      remainder by zero, `i64::MIN` negation, overflowing `i64` math):
//!      those instructions are left in place so the error still happens
//!      at run time, exactly as in the unoptimized bytecode;
//!    * **algebraic simplification** — `x + 0`, `x - 0`, `x * 1`,
//!      `x / 1` and `x * 0` reduce to copies (or a zero constant), but
//!      only when the non-constant operand's run-time type is *known* to
//!      be `int`: float identities are unsound under IEEE negative zero,
//!      and a shadow-leaked `bool` must keep its `Value::Bool`
//!      representation. Conditional branches on known conditions become
//!      unconditional (or disappear);
//!    * **common-subexpression elimination** — pure register
//!      instructions (arithmetic, builtin calls, promotions) that
//!      recompute a value some live register already holds become
//!      register copies. Memory instructions are **never** CSE'd or
//!      reordered: every load and store is observable in the simulator's
//!      coalescing statistics and fault logs. Each block inherits the
//!      value-number state of its immediate dominator, pruned of every
//!      register that a block executing in between (a branch arm before
//!      its join, the loop body around a back edge) may redefine — so
//!      values survive branches and joins but never leak across loop
//!      iterations. Phases are compiled independently, so CSE can never
//!      merge computations across a `barrier()`.
//! 3. **Dead-code elimination** — a backward liveness pass over the
//!    phase's control-flow graph removes pure, non-faulting instructions
//!    whose destination is never read again (named registers count as
//!    live out of a phase only if a *later* phase reads them).
//! 4. **ALU-charge coalescing** — runs of [`Inst::Ops`] charges merge
//!    into one instruction per flush point. Flush points are the places
//!    where the charge total is observable mid-phase: instructions that
//!    can abort the work item (integer division/remainder, negation,
//!    loop-guard bumps), control-flow edges, and the end of the block.
//!    Between flush points the simulator only ever sees the phase total,
//!    so merging is invisible to the timing model.
//! 5. **Constant pooling** — constants still materialized by
//!    [`Inst::Const`] after the passes above move into dedicated
//!    registers appended to the initial register file, so literals inside
//!    loops cost zero instructions per iteration.
//! 6. **Copy fusion** — a `Copy` that immediately consumes a dying
//!    definition retargets the definition ([`OptStats::fused`]).
//! 7. **Dead-phase elimination** — a phase whose instruction sequence
//!    became empty (a trailing `barrier();`, a `return;`-only epilogue)
//!    provably cannot touch memory, charge ALU ops, fault, or change
//!    per-item state, and the VM skips it wholesale at run time.
//!    The *number* of phases is preserved — per-phase barrier costs in
//!    the launch report must not change.
//!
//! The contract mirrors the rest of the execution stack: the optimizer
//! may only remove **host-side** interpretation work, never change what
//! the simulated GPU observably does. Outputs, launch statistics, timing,
//! fault logs and runtime errors are bit-identical between
//! [`kp_gpu_sim::OptLevel::None`] and [`kp_gpu_sim::OptLevel::Full`] —
//! asserted app by app in the cross-crate `vm_differential` suite.

use std::collections::HashMap;

use crate::ast::{BinOp, ScalarTy, UnOp};
use crate::builtins::Builtin;
use crate::bytecode::{CompiledKernel, Inst, Reg};
use crate::interp::{apply_bin, apply_un, coerce};
use crate::Value;

/// What the optimizer did to one kernel, for reporting and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// Instruction count before optimization (all phases).
    pub insts_before: usize,
    /// Instruction count after optimization (all phases).
    pub insts_after: usize,
    /// Instructions replaced by [`Inst::Const`] (constant folding).
    pub folded: usize,
    /// Instructions replaced by [`Inst::Copy`] (CSE and algebraic
    /// simplification reusing an existing register).
    pub cse_reused: usize,
    /// Conditional branches folded to unconditional jumps or removed.
    pub branches_folded: usize,
    /// [`Inst::Ops`] charges merged into a preceding charge.
    pub ops_merged: usize,
    /// Constants moved into the pooled initial register file.
    pub pooled_consts: usize,
    /// `Copy` instructions folded into their producing definition by
    /// copy fusion.
    pub fused: usize,
    /// Phases whose instruction sequence became empty (skipped at run
    /// time; the phase *count* is preserved for the timing model).
    pub dead_phases: usize,
}

/// A value number: an abstract name for "the value this computation
/// produces", shared by every register currently holding it.
type Vn = u32;

/// Hashable identity of a constant [`Value`]. Floats are keyed by bit
/// pattern — `-0.0` and `0.0` (and distinct NaNs) are *different*
/// constants, because they behave differently under division and bitwise
/// output comparison.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Int(i64),
    Float(u32),
    Bool(bool),
}

fn const_key(v: Value) -> ConstKey {
    match v {
        Value::Int(x) => ConstKey::Int(x),
        Value::Float(x) => ConstKey::Float(x.to_bits()),
        Value::Bool(x) => ConstKey::Bool(x),
    }
}

/// Structural identity of a pure computation, for CSE.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ExprKey {
    Un(UnOp, Vn),
    Promote(Vn),
    AsBool(Vn),
    Bin(BinOp, Vn, Vn),
    /// Unused argument slots are padded with `Vn::MAX`, which is never a
    /// real value number, so arity is part of the key.
    Call(Builtin, [Vn; 3]),
}

/// What is known about a value number.
#[derive(Clone, Copy, Default)]
struct VnInfo {
    /// Compile-time value, if the computation is a known constant.
    konst: Option<Value>,
    /// Run-time [`ScalarTy`] of the value, when provable. Needed because
    /// registers are dynamically typed (shadow-leaked re-declarations can
    /// leave any type in any slot), so algebraic identities are only
    /// sound when the operand type is known.
    ty: Option<ScalarTy>,
}

// ---------------------------------------------------------------------
// Checked folding helpers. These must agree bit-for-bit with the runtime
// primitives in `crate::interp` wherever they return `Some`, and must
// return `None` wherever the runtime would error or panic — folding an
// erroring computation would make the optimized kernel diverge.
// ---------------------------------------------------------------------

/// Constant-folds a binary operator, refusing anything `apply_bin` would
/// error on (division/remainder by zero) or panic on in debug builds
/// (`i64` overflow, `i64::MIN / -1`).
fn fold_bin(op: BinOp, l: Value, r: Value) -> Option<Value> {
    let float_mode = matches!(l, Value::Float(_)) || matches!(r, Value::Float(_));
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div if !float_mode => {
            let (a, b) = (l.as_i64(), r.as_i64());
            let v = match op {
                BinOp::Add => a.checked_add(b)?,
                BinOp::Sub => a.checked_sub(b)?,
                BinOp::Mul => a.checked_mul(b)?,
                _ => a.checked_div(b)?, // checked: None on b == 0 and MIN / -1
            };
            Some(Value::Int(v))
        }
        BinOp::Rem => {
            // `%` is always integer-mode at run time, whatever the operand
            // types (see `apply_bin`).
            Some(Value::Int(l.as_i64().checked_rem(r.as_i64())?))
        }
        // Float arithmetic and all comparisons are total; delegate to the
        // runtime implementation so the folded bits are identical.
        BinOp::Add
        | BinOp::Sub
        | BinOp::Mul
        | BinOp::Div
        | BinOp::Eq
        | BinOp::Ne
        | BinOp::Lt
        | BinOp::Le
        | BinOp::Gt
        | BinOp::Ge => apply_bin(op, l, r).ok(),
        // Short-circuit operators never reach the bytecode.
        BinOp::And | BinOp::Or => None,
    }
}

/// Constant-folds a unary operator, refusing `i64::MIN` negation (debug
/// panic at run time) and bool negation (runtime error).
fn fold_un(op: UnOp, v: Value) -> Option<Value> {
    match (op, v) {
        (UnOp::Neg, Value::Int(x)) => x.checked_neg().map(Value::Int),
        (UnOp::Neg, Value::Bool(_)) => None,
        _ => apply_un(op, v).ok(),
    }
}

/// Constant-folds a builtin call. Work-item geometry builtins depend on
/// the executing item and never fold; `abs(i64::MIN)` would panic at run
/// time and is refused. Everything else delegates to the same `f32`
/// operations the runtime uses, so folded bits are identical.
fn fold_call(b: Builtin, args: &[Value]) -> Option<Value> {
    let float_mode = args.iter().any(|v| matches!(v, Value::Float(_)));
    Some(match b {
        Builtin::GlobalId
        | Builtin::LocalId
        | Builtin::GroupId
        | Builtin::GlobalSize
        | Builtin::LocalSize
        | Builtin::NumGroups => return None,
        Builtin::Min => {
            if float_mode {
                Value::Float(args[0].as_f32().min(args[1].as_f32()))
            } else {
                Value::Int(args[0].as_i64().min(args[1].as_i64()))
            }
        }
        Builtin::Max => {
            if float_mode {
                Value::Float(args[0].as_f32().max(args[1].as_f32()))
            } else {
                Value::Int(args[0].as_i64().max(args[1].as_i64()))
            }
        }
        Builtin::Clamp => {
            // std's clamp asserts min <= max (and, for floats, non-NaN
            // bounds) — in release builds too. Refuse to fold those so
            // the panic stays where the runtime has it: at execution, if
            // the instruction is ever reached, not at kernel
            // construction (the code may be unreachable).
            if float_mode {
                let (lo, hi) = (args[1].as_f32(), args[2].as_f32());
                if lo.is_nan() || hi.is_nan() || lo > hi {
                    return None;
                }
                Value::Float(args[0].as_f32().clamp(lo, hi))
            } else {
                let (lo, hi) = (args[1].as_i64(), args[2].as_i64());
                if lo > hi {
                    return None;
                }
                Value::Int(args[0].as_i64().clamp(lo, hi))
            }
        }
        Builtin::Sqrt => Value::Float(args[0].as_f32().sqrt()),
        Builtin::Fabs => Value::Float(args[0].as_f32().abs()),
        Builtin::Abs => Value::Int(args[0].as_i64().checked_abs()?),
        Builtin::Floor => Value::Float(args[0].as_f32().floor()),
        Builtin::Exp => Value::Float(args[0].as_f32().exp()),
        Builtin::Log => Value::Float(args[0].as_f32().ln()),
        Builtin::Sin => Value::Float(args[0].as_f32().sin()),
        Builtin::Cos => Value::Float(args[0].as_f32().cos()),
        Builtin::Pow => Value::Float(args[0].as_f32().powf(args[1].as_f32())),
        Builtin::ToFloat => Value::Float(args[0].as_f32()),
        Builtin::ToInt => Value::Int(args[0].as_i64()),
    })
}

/// Result type of a builtin call given (possibly unknown) argument types.
fn call_ty(b: Builtin, args: &[Option<ScalarTy>]) -> Option<ScalarTy> {
    match b {
        Builtin::GlobalId
        | Builtin::LocalId
        | Builtin::GroupId
        | Builtin::GlobalSize
        | Builtin::LocalSize
        | Builtin::NumGroups
        | Builtin::Abs
        | Builtin::ToInt => Some(ScalarTy::Int),
        Builtin::Sqrt
        | Builtin::Fabs
        | Builtin::Floor
        | Builtin::Exp
        | Builtin::Log
        | Builtin::Sin
        | Builtin::Cos
        | Builtin::Pow
        | Builtin::ToFloat => Some(ScalarTy::Float),
        Builtin::Min | Builtin::Max | Builtin::Clamp => {
            if args.contains(&Some(ScalarTy::Float)) {
                Some(ScalarTy::Float)
            } else if args.iter().all(Option::is_some) {
                // Any mix of int/bool runs in integer mode.
                Some(ScalarTy::Int)
            } else {
                None
            }
        }
    }
}

/// Value type of a [`Value`].
fn ty_of(v: Value) -> ScalarTy {
    match v {
        Value::Int(_) => ScalarTy::Int,
        Value::Float(_) => ScalarTy::Float,
        Value::Bool(_) => ScalarTy::Bool,
    }
}

// ---------------------------------------------------------------------
// Instruction shape helpers.
// ---------------------------------------------------------------------

/// The register an instruction writes, if any.
fn dst_of(inst: &Inst) -> Option<Reg> {
    match *inst {
        Inst::Const { dst, .. }
        | Inst::Copy { dst, .. }
        | Inst::Promote { dst, .. }
        | Inst::Assign { dst, .. }
        | Inst::AsBool { dst, .. }
        | Inst::Un { dst, .. }
        | Inst::Bin { dst, .. }
        | Inst::LoadGlobal { dst, .. }
        | Inst::LoadLocal { dst, .. }
        | Inst::Call { dst, .. } => Some(dst),
        Inst::GuardReset { guard } | Inst::GuardBump { guard, .. } => Some(guard),
        _ => None,
    }
}

/// Collects the registers an instruction reads (including read-modify
/// targets like [`Inst::Assign`]'s destination, whose current *type*
/// steers the coercion).
fn read_regs(inst: &Inst, out: &mut Vec<Reg>) {
    out.clear();
    match *inst {
        Inst::Copy { src, .. }
        | Inst::Promote { src, .. }
        | Inst::AsBool { src, .. }
        | Inst::Un { src, .. } => out.push(src),
        Inst::Assign { dst, src } => out.extend([dst, src]),
        Inst::Bin { lhs, rhs, .. } => out.extend([lhs, rhs]),
        Inst::LoadGlobal { idx, .. } | Inst::LoadLocal { idx, .. } => out.push(idx),
        Inst::StoreGlobal { idx, src, .. } | Inst::StoreLocal { idx, src, .. } => {
            out.extend([idx, src]);
        }
        Inst::Call { args, argc, .. } => out.extend(&args[..argc as usize]),
        Inst::JumpIfFalse { cond, .. } | Inst::JumpIfTrue { cond, .. } => out.push(cond),
        Inst::GuardBump { guard, .. } => out.push(guard),
        Inst::Const { .. }
        | Inst::Ops { .. }
        | Inst::Jump { .. }
        | Inst::GuardReset { .. }
        | Inst::Return => {}
    }
}

/// Applies `f` to every *pure-read* register operand — read-modify
/// operands ([`Inst::Assign`]'s destination, guard registers) are
/// excluded because they cannot be redirected to another register.
fn rewrite_reads(inst: &mut Inst, mut f: impl FnMut(&mut Reg)) {
    match inst {
        Inst::Copy { src, .. }
        | Inst::Promote { src, .. }
        | Inst::Assign { src, .. }
        | Inst::AsBool { src, .. }
        | Inst::Un { src, .. } => f(src),
        Inst::Bin { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Inst::LoadGlobal { idx, .. } | Inst::LoadLocal { idx, .. } => f(idx),
        Inst::StoreGlobal { idx, src, .. } | Inst::StoreLocal { idx, src, .. } => {
            f(idx);
            f(src);
        }
        Inst::Call { args, argc, .. } => {
            for a in &mut args[..*argc as usize] {
                f(a);
            }
        }
        Inst::JumpIfFalse { cond, .. } | Inst::JumpIfTrue { cond, .. } => f(cond),
        _ => {}
    }
}

/// Redirects an instruction's destination register. Only called by the
/// copy-fusion peephole on instructions that never read their own
/// destination ([`Inst::Assign`] and the guard instructions are filtered
/// out by the caller).
fn set_dst(inst: &mut Inst, new: Reg) {
    match inst {
        Inst::Const { dst, .. }
        | Inst::Copy { dst, .. }
        | Inst::Promote { dst, .. }
        | Inst::AsBool { dst, .. }
        | Inst::Un { dst, .. }
        | Inst::Bin { dst, .. }
        | Inst::LoadGlobal { dst, .. }
        | Inst::LoadLocal { dst, .. }
        | Inst::Call { dst, .. } => *dst = new,
        other => unreachable!("cannot redirect destination of {other:?}"),
    }
}

/// Whether dead-code elimination may drop the instruction when its
/// destination is dead. Only pure instructions that can neither error,
/// panic, fault, nor touch any counter qualify: loads are observable in
/// the coalescing/bank statistics and fault log, `Ops` is the timing
/// model, integer `Neg`/`+ - * /` can panic or error and must stay.
fn removable_when_dead(inst: &Inst) -> bool {
    match *inst {
        Inst::Const { .. }
        | Inst::Copy { .. }
        | Inst::Promote { .. }
        | Inst::Assign { .. }
        | Inst::AsBool { .. } => true,
        // `abs(i64::MIN)` and `clamp` with inverted (or NaN) bounds panic
        // inside apply_builtin; removing a dead one would diverge from
        // the unoptimized bytecode exactly like removing a dead `Neg`.
        Inst::Call { builtin, .. } => !matches!(builtin, Builtin::Abs | Builtin::Clamp),
        Inst::Un { op, .. } => op == UnOp::Not,
        Inst::Bin { op, .. } => matches!(
            op,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        ),
        _ => false,
    }
}

/// Whether the running item can abort (runtime error) at this
/// instruction. Pending ALU charges must be flushed before these points
/// so a mid-phase abort observes the same `item_ops` total as the
/// unoptimized bytecode.
fn can_abort(inst: &Inst) -> bool {
    match *inst {
        Inst::Bin { op, .. } => matches!(op, BinOp::Div | BinOp::Rem),
        Inst::Un { op, .. } => op == UnOp::Neg, // bool negation errors
        Inst::GuardBump { .. } => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Global register type inference.
// ---------------------------------------------------------------------

/// Per-register type lattice: `Bot` = no write seen (optimistic), `Ty` =
/// every write produces this type, `Top` = mixed types (the shadow-leak
/// case, where dynamism is real).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TyLat {
    Bot,
    Ty(ScalarTy),
    Top,
}

impl TyLat {
    fn join(self, other: TyLat) -> TyLat {
        match (self, other) {
            (TyLat::Bot, x) | (x, TyLat::Bot) => x,
            (TyLat::Ty(a), TyLat::Ty(b)) if a == b => self,
            _ => TyLat::Top,
        }
    }

    fn known(self) -> Option<ScalarTy> {
        match self {
            TyLat::Ty(t) => Some(t),
            _ => None,
        }
    }
}

/// Infers, for every register, the run-time type it holds at any point a
/// reachable read can observe it — `Some(T)` when *every* write in *any*
/// phase produces a `T`.
///
/// Soundness rests on the type checker's declare-before-use rule: every
/// read of a non-parameter register is dominated by some tracked write
/// (the declaration executes first), so joining over all writes covers
/// everything a read can see. Parameter slots are additionally seeded
/// from their `reg_init` binding, the one case where reading before any
/// write is legal. Registers whose writes disagree (an `int`-shadowed
/// `float`, say) land at `Top` and stay dynamically typed, which is
/// exactly the shadow-leak behavior the VM must preserve.
fn infer_reg_types(kernel: &CompiledKernel, frozen: &HashMap<Reg, Value>) -> Vec<Option<ScalarTy>> {
    let mut lat = vec![TyLat::Bot; kernel.reg_count];
    for (slot, &init) in lat.iter_mut().zip(&kernel.reg_init).take(kernel.param_regs) {
        *slot = TyLat::Ty(ty_of(init));
    }
    for (&r, &v) in frozen {
        lat[r as usize] = lat[r as usize].join(TyLat::Ty(ty_of(v)));
    }
    let cur = |lat: &[TyLat], r: Reg| lat[r as usize];
    let mut changed = true;
    while changed {
        changed = false;
        let mut join = |lat: &mut Vec<TyLat>, r: Reg, t: TyLat| {
            let j = lat[r as usize].join(t);
            if j != lat[r as usize] {
                lat[r as usize] = j;
                changed = true;
            }
        };
        let arith = |a: TyLat, b: TyLat| match (a, b) {
            (TyLat::Bot, _) | (_, TyLat::Bot) => TyLat::Bot,
            (TyLat::Ty(ScalarTy::Float), _) | (_, TyLat::Ty(ScalarTy::Float)) => {
                TyLat::Ty(ScalarTy::Float)
            }
            (TyLat::Ty(_), TyLat::Ty(_)) => TyLat::Ty(ScalarTy::Int),
            _ => TyLat::Top,
        };
        let bin_ty = |op: BinOp, a: TyLat, b: TyLat| match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                TyLat::Ty(ScalarTy::Bool)
            }
            BinOp::Rem => TyLat::Ty(ScalarTy::Int),
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(a, b),
            BinOp::And | BinOp::Or => TyLat::Top, // never emitted
        };
        for code in &kernel.phases {
            for inst in code {
                match *inst {
                    Inst::Const { dst, value } => join(&mut lat, dst, TyLat::Ty(ty_of(value))),
                    Inst::Copy { dst, src } => {
                        let t = cur(&lat, src);
                        join(&mut lat, dst, t);
                    }
                    Inst::Promote { dst, src } => {
                        let t = match cur(&lat, src) {
                            TyLat::Bot => TyLat::Bot,
                            TyLat::Ty(ScalarTy::Bool) => TyLat::Ty(ScalarTy::Bool),
                            TyLat::Ty(_) => TyLat::Ty(ScalarTy::Float),
                            TyLat::Top => TyLat::Top,
                        };
                        join(&mut lat, dst, t);
                    }
                    Inst::Assign { dst, src } => {
                        let t = match cur(&lat, src) {
                            TyLat::Bot => TyLat::Bot,
                            TyLat::Ty(ScalarTy::Float) => TyLat::Ty(ScalarTy::Float),
                            TyLat::Ty(ScalarTy::Bool) => TyLat::Ty(ScalarTy::Bool),
                            TyLat::Ty(ScalarTy::Int) => match cur(&lat, dst) {
                                TyLat::Ty(ScalarTy::Float) => TyLat::Ty(ScalarTy::Float),
                                TyLat::Ty(_) => TyLat::Ty(ScalarTy::Int),
                                // First-ever write cannot be an Assign for
                                // checked kernels; stay conservative.
                                TyLat::Bot | TyLat::Top => TyLat::Top,
                            },
                            TyLat::Top => TyLat::Top,
                        };
                        join(&mut lat, dst, t);
                    }
                    Inst::AsBool { dst, .. } => join(&mut lat, dst, TyLat::Ty(ScalarTy::Bool)),
                    Inst::Un { op, dst, src } => {
                        let t = match op {
                            UnOp::Not => TyLat::Ty(ScalarTy::Bool),
                            UnOp::Neg => cur(&lat, src), // bool input errors, no write
                        };
                        join(&mut lat, dst, t);
                    }
                    Inst::Bin { op, dst, lhs, rhs } => {
                        let t = bin_ty(op, cur(&lat, lhs), cur(&lat, rhs));
                        join(&mut lat, dst, t);
                    }
                    Inst::LoadGlobal { dst, elem, .. } | Inst::LoadLocal { dst, elem, .. } => {
                        join(&mut lat, dst, TyLat::Ty(elem));
                    }
                    Inst::Call {
                        builtin,
                        dst,
                        args,
                        argc,
                    } => {
                        let tys: Vec<Option<ScalarTy>> = args[..argc as usize]
                            .iter()
                            .map(|&a| cur(&lat, a).known())
                            .collect();
                        let t = match call_ty(builtin, &tys) {
                            Some(t) => TyLat::Ty(t),
                            None => {
                                // Min/Max/Clamp with unresolved arguments:
                                // optimistic only while arguments are Bot.
                                if args[..argc as usize]
                                    .iter()
                                    .any(|&a| cur(&lat, a) == TyLat::Bot)
                                {
                                    TyLat::Bot
                                } else {
                                    TyLat::Top
                                }
                            }
                        };
                        join(&mut lat, dst, t);
                    }
                    Inst::GuardReset { guard } | Inst::GuardBump { guard, .. } => {
                        join(&mut lat, guard, TyLat::Ty(ScalarTy::Int));
                    }
                    Inst::StoreGlobal { .. }
                    | Inst::StoreLocal { .. }
                    | Inst::Ops { .. }
                    | Inst::Jump { .. }
                    | Inst::JumpIfFalse { .. }
                    | Inst::JumpIfTrue { .. }
                    | Inst::Return => {}
                }
            }
        }
    }
    lat.into_iter().map(TyLat::known).collect()
}

// ---------------------------------------------------------------------
// Local value numbering.
// ---------------------------------------------------------------------

/// Per-block value-numbering state. Blocks inherit the state of their
/// immediate dominator (minus registers redefined on any path in
/// between, see the pass in [`optimize`]) rather than resetting, so
/// folding, CSE and branch folding see straight-line and diamond facts
/// across block boundaries. Value numbers still never cross a barrier:
/// phases are separate instruction sequences to begin with.
#[derive(Clone)]
struct Lvn<'a> {
    /// Registers no instruction in any phase writes: compile-time
    /// constants holding their initial-register-file value.
    frozen: &'a HashMap<Reg, Value>,
    /// Globally inferred per-register types (see [`infer_reg_types`]),
    /// used for registers whose defining write is outside the block.
    global_ty: &'a [Option<ScalarTy>],
    reg_vn: HashMap<Reg, Vn>,
    infos: Vec<VnInfo>,
    /// A register currently holding each value number, for CSE reuse.
    holder: HashMap<Vn, Reg>,
    exprs: HashMap<ExprKey, Vn>,
    consts: HashMap<ConstKey, Vn>,
}

impl<'a> Lvn<'a> {
    fn new(frozen: &'a HashMap<Reg, Value>, global_ty: &'a [Option<ScalarTy>]) -> Self {
        Self {
            frozen,
            global_ty,
            reg_vn: HashMap::new(),
            infos: Vec::new(),
            holder: HashMap::new(),
            exprs: HashMap::new(),
            consts: HashMap::new(),
        }
    }

    fn fresh(&mut self, ty: Option<ScalarTy>) -> Vn {
        self.infos.push(VnInfo { konst: None, ty });
        (self.infos.len() - 1) as Vn
    }

    fn const_vn(&mut self, v: Value) -> Vn {
        if let Some(&vn) = self.consts.get(&const_key(v)) {
            return vn;
        }
        self.infos.push(VnInfo {
            konst: Some(v),
            ty: Some(ty_of(v)),
        });
        let vn = (self.infos.len() - 1) as Vn;
        self.consts.insert(const_key(v), vn);
        vn
    }

    /// The value number a register currently holds, created on demand
    /// (frozen registers materialize as constants).
    fn vn_of(&mut self, r: Reg) -> Vn {
        if let Some(&vn) = self.reg_vn.get(&r) {
            return vn;
        }
        let vn = match self.frozen.get(&r) {
            Some(&v) => self.const_vn(v),
            None => {
                let ty = self.global_ty.get(r as usize).copied().flatten();
                self.fresh(ty)
            }
        };
        self.reg_vn.insert(r, vn);
        vn
    }

    fn set_reg(&mut self, r: Reg, vn: Vn) {
        if let Some(&old) = self.reg_vn.get(&r) {
            if self.holder.get(&old) == Some(&r) {
                self.holder.remove(&old);
            }
        }
        self.reg_vn.insert(r, vn);
        self.holder.entry(vn).or_insert(r);
    }

    /// Forgets everything about a register: its value binding and any
    /// holder role. Later reads see a fresh unknown, and CSE can no
    /// longer redirect other registers to it. Used when inheriting state
    /// across blocks for registers a path in between may redefine.
    fn kill(&mut self, r: Reg) {
        self.reg_vn.remove(&r);
        self.holder.retain(|_, h| *h != r);
    }

    fn konst(&self, vn: Vn) -> Option<Value> {
        self.infos[vn as usize].konst
    }

    fn ty(&self, vn: Vn) -> Option<ScalarTy> {
        self.infos[vn as usize].ty
    }

    /// The canonical register for an operand: the oldest register still
    /// holding the same value. Redirecting reads to it turns intermediate
    /// copies dead so DCE can drop them.
    fn canon(&mut self, r: Reg) -> Reg {
        let vn = self.vn_of(r);
        self.holder.get(&vn).copied().unwrap_or(r)
    }

    /// CSE lookup: if `key` was already computed into a register that
    /// still holds it, emit a copy; otherwise record the computation and
    /// keep `make()`. Returns `(inst, vn)` — `inst` is `None` when the
    /// computation collapses to a register that is already `dst`.
    fn cse(
        &mut self,
        key: ExprKey,
        dst: Reg,
        ty: Option<ScalarTy>,
        make: impl FnOnce(&mut Self) -> Inst,
        stats: &mut OptStats,
    ) -> (Option<Inst>, Vn) {
        if let Some(&vn) = self.exprs.get(&key) {
            if let Some(&h) = self.holder.get(&vn) {
                stats.cse_reused += 1;
                let inst = (h != dst).then_some(Inst::Copy { dst, src: h });
                self.set_reg(dst, vn);
                return (inst, vn);
            }
            // Computed before, but no live register holds it any more
            // (the holder was overwritten — statement temporaries are
            // reused aggressively). Keep the recompute but reuse the
            // value number: the key's operand numbers pin the operand
            // values, so the result is the same value, and downstream
            // expressions keyed on it still match.
            let inst = make(self);
            self.set_reg(dst, vn);
            return (Some(inst), vn);
        }
        let inst = make(self);
        let vn = self.fresh(ty);
        self.exprs.insert(key, vn);
        self.set_reg(dst, vn);
        (Some(inst), vn)
    }
}

// ---------------------------------------------------------------------
// Basic blocks and liveness.
// ---------------------------------------------------------------------

/// Half-open basic-block ranges over the phase's (original) instruction
/// indices, plus the leader → block lookup for jump targets.
struct Blocks {
    bounds: Vec<(usize, usize)>,
    block_of: HashMap<usize, usize>,
}

fn find_blocks(code: &[Inst]) -> Blocks {
    let mut leaders = vec![0usize];
    for (i, inst) in code.iter().enumerate() {
        match *inst {
            Inst::Jump { target }
            | Inst::JumpIfFalse { target, .. }
            | Inst::JumpIfTrue { target, .. } => {
                if (target as usize) < code.len() {
                    leaders.push(target as usize);
                }
                leaders.push(i + 1);
            }
            Inst::Return => leaders.push(i + 1),
            _ => {}
        }
    }
    leaders.sort_unstable();
    leaders.dedup();
    leaders.retain(|&l| l < code.len());
    let bounds: Vec<(usize, usize)> = leaders
        .iter()
        .enumerate()
        .map(|(b, &s)| (s, leaders.get(b + 1).copied().unwrap_or(code.len())))
        .collect();
    let block_of = leaders.iter().enumerate().map(|(b, &s)| (s, b)).collect();
    Blocks { bounds, block_of }
}

impl Blocks {
    /// Successor block ids of block `b` given the current (possibly
    /// rewritten) code; `None` entries are deleted instructions. A jump
    /// target equal to the code length is a fall-off-the-end exit and has
    /// no successor block.
    fn successors(&self, b: usize, code: &[Option<Inst>]) -> Vec<usize> {
        let (s, e) = self.bounds[b];
        let last = code[s..e].iter().rev().flatten().next();
        let next = (b + 1 < self.bounds.len()).then_some(b + 1);
        let target_block = |t: u32| self.block_of.get(&(t as usize)).copied();
        match last {
            Some(Inst::Jump { target }) => target_block(*target).into_iter().collect(),
            Some(Inst::JumpIfFalse { target, .. }) | Some(Inst::JumpIfTrue { target, .. }) => {
                target_block(*target).into_iter().chain(next).collect()
            }
            Some(Inst::Return) => Vec::new(),
            _ => next.into_iter().collect(),
        }
    }
}

/// Backward liveness over the phase CFG. Returns the live-out register
/// set of every block; `exit_live` is the set live at phase exit (and,
/// conservatively, at every `Return`).
fn liveness(
    blocks: &Blocks,
    code: &[Option<Inst>],
    reg_count: usize,
    exit_live: &[bool],
) -> Vec<Vec<bool>> {
    let n = blocks.bounds.len();
    // Per-block use/def over the kept instructions, in order.
    let mut uses = vec![vec![false; reg_count]; n];
    let mut defs = vec![vec![false; reg_count]; n];
    let mut reads = Vec::new();
    for (b, &(s, e)) in blocks.bounds.iter().enumerate() {
        for inst in code[s..e].iter().flatten() {
            read_regs(inst, &mut reads);
            for &r in &reads {
                if !defs[b][r as usize] {
                    uses[b][r as usize] = true;
                }
            }
            if let Some(d) = dst_of(inst) {
                defs[b][d as usize] = true;
            }
        }
    }
    let mut live_in = vec![vec![false; reg_count]; n];
    let mut live_out = vec![vec![false; reg_count]; n];
    let succs: Vec<Vec<usize>> = (0..n).map(|b| blocks.successors(b, code)).collect();
    // Blocks with an edge out of the phase: a `Return`, a jump whose
    // target is the code length (the shared loop-exit target), or falling
    // off the last block. Those edges see `exit_live` — persistent
    // registers later phases read must survive them.
    let exits: Vec<bool> = (0..n)
        .map(|b| {
            let (s, e) = blocks.bounds[b];
            let last_block = b + 1 == n;
            match code[s..e].iter().rev().flatten().next() {
                Some(Inst::Jump { target }) => *target as usize >= code.len(),
                Some(Inst::JumpIfFalse { target, .. }) | Some(Inst::JumpIfTrue { target, .. }) => {
                    *target as usize >= code.len() || last_block
                }
                Some(Inst::Return) => true,
                _ => last_block,
            }
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut out = vec![false; reg_count];
            for &s in &succs[b] {
                for (o, &i) in out.iter_mut().zip(&live_in[s]) {
                    *o |= i;
                }
            }
            if exits[b] {
                for (o, &x) in out.iter_mut().zip(exit_live) {
                    *o |= x;
                }
            }
            let mut inn = out.clone();
            for (i, d) in inn.iter_mut().zip(&defs[b]) {
                if *d {
                    *i = false;
                }
            }
            for (i, u) in inn.iter_mut().zip(&uses[b]) {
                if *u {
                    *i = true;
                }
            }
            if inn != live_in[b] || out != live_out[b] {
                live_in[b] = inn;
                live_out[b] = out;
                changed = true;
            }
        }
    }
    live_out
}

// ---------------------------------------------------------------------
// Whole-CFG analyses for dominator-tree value numbering.
// ---------------------------------------------------------------------

/// Successor lists plus reachability and dominator relations of a phase
/// CFG. The relation matrices are flattened row-major: entry
/// `[b * n + j]` describes blocks `b` and `j`.
struct Cfg {
    n: usize,
    succs: Vec<Vec<usize>>,
    /// `reach[b * n + j]`: a (possibly empty) path from `b` to `j` exists.
    reach: Vec<bool>,
    /// `dom[b * n + j]`: `j` dominates `b`, with block 0 as the entry.
    /// Rows of blocks unreachable from the entry are meaningless (and
    /// left all-true, the dataflow lattice top).
    dom: Vec<bool>,
}

fn analyze_cfg(blocks: &Blocks, code: &[Option<Inst>]) -> Cfg {
    let n = blocks.bounds.len();
    let succs: Vec<Vec<usize>> = (0..n).map(|b| blocks.successors(b, code)).collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(b);
        }
    }
    // Reflexive-transitive reachability, iterated to a fixpoint.
    let mut reach = vec![false; n * n];
    for b in 0..n {
        reach[b * n + b] = true;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            for s in succs[b].clone() {
                for j in 0..n {
                    if reach[s * n + j] && !reach[b * n + j] {
                        reach[b * n + j] = true;
                        changed = true;
                    }
                }
            }
        }
    }
    // Dominators: `dom(entry) = {entry}`, `dom(b) = {b} ∪ ⋂ dom(preds)`,
    // over blocks reachable from the entry.
    let mut dom = vec![true; n * n];
    for (j, slot) in dom.iter_mut().enumerate().take(n) {
        *slot = j == 0;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            if !reach[b] {
                continue; // unreachable from entry
            }
            let mut row = vec![true; n];
            for &p in preds[b].iter().filter(|&&p| reach[p]) {
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot &= dom[p * n + j];
                }
            }
            for (j, slot) in row.iter_mut().enumerate() {
                if j == b {
                    *slot = true;
                }
                if *slot != dom[b * n + j] {
                    dom[b * n + j] = *slot;
                    changed = true;
                }
            }
        }
    }
    Cfg {
        n,
        succs,
        reach,
        dom,
    }
}

// ---------------------------------------------------------------------
// The pipeline.
// ---------------------------------------------------------------------

/// Runs the full pass pipeline over a compiled kernel, returning the
/// optimized kernel and a summary of what changed.
///
/// The input is left untouched — [`crate::IrKernel`] keeps both forms and
/// selects by [`kp_gpu_sim::OptLevel`] at launch time, so the unoptimized
/// bytecode stays available as the differential reference.
pub fn optimize(kernel: &CompiledKernel) -> (CompiledKernel, OptStats) {
    let mut stats = OptStats {
        insts_before: kernel.len(),
        ..OptStats::default()
    };

    // Frozen constants: registers never written by any instruction of any
    // phase hold their reg_init value forever (scalar parameters, mostly).
    let mut written = vec![false; kernel.reg_count];
    for code in &kernel.phases {
        for inst in code {
            if let Some(d) = dst_of(inst) {
                written[d as usize] = true;
            }
        }
    }
    let frozen: HashMap<Reg, Value> = kernel
        .reg_init
        .iter()
        .enumerate()
        .filter(|&(r, _)| !written[r])
        .map(|(r, &v)| (r as Reg, v))
        .collect();
    let global_ty = infer_reg_types(kernel, &frozen);

    // Registers read by phases *after* a given one: persistent registers
    // (names + guards) are only live out of a phase if some later phase
    // reads them.
    let mut reads_by_phase: Vec<Vec<bool>> = Vec::new();
    let mut reads = Vec::new();
    for code in &kernel.phases {
        let mut set = vec![false; kernel.reg_count];
        for inst in code {
            read_regs(inst, &mut reads);
            for &r in &reads {
                set[r as usize] = true;
            }
        }
        reads_by_phase.push(set);
    }

    let mut pool: HashMap<ConstKey, Reg> = HashMap::new();
    let mut pool_values: Vec<Value> = Vec::new();
    let mut pool_full = false;

    let phase_count = kernel.phases.len();
    let mut new_phases: Vec<Vec<Inst>> = Vec::with_capacity(phase_count);
    for (p, original) in kernel.phases.iter().enumerate() {
        // Live at phase exit: persistent registers some later phase reads.
        let mut exit_live = vec![false; kernel.reg_count];
        for later in &reads_by_phase[p + 1..] {
            for (x, &rd) in exit_live.iter_mut().zip(later) {
                *x |= rd;
            }
        }
        for x in exit_live.iter_mut().skip(kernel.first_temp) {
            *x = false; // temporaries never cross statements, let alone phases
        }

        let mut code: Vec<Option<Inst>> = original.iter().copied().map(Some).collect();

        // A `Return` that ends the *last* phase is a no-op (there is
        // nothing left to skip); trimming it can empty the phase.
        if p + 1 == phase_count {
            while matches!(code.iter().rev().flatten().next(), Some(Inst::Return)) {
                let i = code
                    .iter()
                    .rposition(Option::is_some)
                    .expect("just matched");
                code[i] = None;
            }
        }

        let blocks = find_blocks(original);

        // Pass: value numbering (fold + algebraic + CSE + branch fold).
        //
        // Blocks inherit the entry state of their immediate dominator, so
        // values computed before a branch stay available in both arms and
        // past the join. Inheritance is pruned conservatively: entering
        // child `c`, every register defined in a block that can execute
        // between the dominator and `c` (including `c` itself around a
        // back edge) is killed. The CFG is taken from the pre-pass code —
        // branch folding only *removes* edges, so the analysis sees a
        // superset of the final paths and the kills err safe.
        {
            let cfg = analyze_cfg(&blocks, &code);
            let n = cfg.n;
            // Immediate dominator = the strict dominator dominated by all
            // the others, i.e. the one with the largest dominator set.
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
            for b in 1..n {
                if !cfg.reach[b] {
                    continue;
                }
                let idom = (0..n)
                    .filter(|&j| j != b && cfg.dom[b * n + j])
                    .max_by_key(|&j| (0..n).filter(|&k| cfg.dom[j * n + k]).count());
                if let Some(p) = idom {
                    children[p].push(b);
                }
            }
            // Preorder over the dominator tree; `usize::MAX` marks the
            // root (no parent, no kills). Kills are applied when a block
            // is *popped*, not when it is pushed: sibling subtrees that
            // sort earlier (e.g. both branch arms before their join) have
            // been rewritten by then, so the kill set reflects the defs
            // that actually survived value numbering in them. Blocks not
            // yet processed (a loop body below its header) contribute
            // their pre-pass defs — a conservative superset either way.
            let mut stack: Vec<(usize, usize, Lvn)> =
                vec![(0, usize::MAX, Lvn::new(&frozen, &global_ty))];
            while let Some((b, parent, mut lvn)) = stack.pop() {
                if parent != usize::MAX {
                    // Kill everything a block that can execute between the
                    // immediate dominator and `b` (including `b` itself
                    // around a back edge) may redefine.
                    for mid in 0..n {
                        let after_p = cfg.succs[parent].iter().any(|&x| cfg.reach[x * n + mid]);
                        let before_b = cfg.succs[mid].iter().any(|&x| cfg.reach[x * n + b]);
                        if after_p && before_b {
                            let (ms, me) = blocks.bounds[mid];
                            for r in code[ms..me].iter().flatten().filter_map(dst_of) {
                                lvn.kill(r);
                            }
                        }
                    }
                }
                let (bs, be) = blocks.bounds[b];
                for slot in code[bs..be].iter_mut() {
                    let Some(inst) = *slot else { continue };
                    *slot = lvn_inst(&mut lvn, inst, &mut stats);
                }
                // Reverse push + pop = children process in ascending order.
                for &c in children[b].iter().rev() {
                    stack.push((c, b, lvn.clone()));
                }
            }
            // Blocks unreachable from the entry are not in the dominator
            // tree; they still get fresh-state folding.
            for b in 1..n {
                if cfg.reach[b] {
                    continue;
                }
                let (bs, be) = blocks.bounds[b];
                let mut lvn = Lvn::new(&frozen, &global_ty);
                for slot in code[bs..be].iter_mut() {
                    let Some(inst) = *slot else { continue };
                    *slot = lvn_inst(&mut lvn, inst, &mut stats);
                }
            }
        }

        // Pass: dead-code elimination (backward over block liveness).
        let live_out = liveness(&blocks, &code, kernel.reg_count, &exit_live);
        for (b, &(s, e)) in blocks.bounds.iter().enumerate() {
            let mut live = live_out[b].clone();
            for slot in code[s..e].iter_mut().rev() {
                let Some(inst) = slot else { continue };
                if let Some(d) = dst_of(inst) {
                    if !live[d as usize] && removable_when_dead(inst) {
                        *slot = None;
                        continue;
                    }
                    live[d as usize] = false;
                }
                read_regs(inst, &mut reads);
                for &r in &reads {
                    live[r as usize] = true;
                }
            }
        }

        // Pass: ALU-charge coalescing within each block.
        for &(s, e) in &blocks.bounds {
            let kept: Vec<Inst> = code[s..e].iter().flatten().copied().collect();
            let mut rebuilt: Vec<Inst> = Vec::with_capacity(kept.len());
            let mut pending = 0u64;
            for inst in kept {
                match inst {
                    Inst::Ops { n } => {
                        if pending > 0 {
                            stats.ops_merged += 1;
                        }
                        pending += n;
                    }
                    _ => {
                        let is_flow = matches!(
                            inst,
                            Inst::Jump { .. }
                                | Inst::JumpIfFalse { .. }
                                | Inst::JumpIfTrue { .. }
                                | Inst::Return
                        );
                        if pending > 0 && (can_abort(&inst) || is_flow) {
                            rebuilt.push(Inst::Ops { n: pending });
                            pending = 0;
                        }
                        rebuilt.push(inst);
                    }
                }
            }
            if pending > 0 {
                rebuilt.push(Inst::Ops { n: pending });
            }
            for (i, slot) in code[s..e].iter_mut().enumerate() {
                *slot = rebuilt.get(i).copied();
            }
        }

        // Pass: constant pooling (recompute liveness — DCE changed uses).
        let live_out = liveness(&blocks, &code, kernel.reg_count, &exit_live);
        for (b, &(s, e)) in blocks.bounds.iter().enumerate() {
            for i in s..e {
                let Some(Inst::Const { dst, value }) = code[i] else {
                    continue;
                };
                if pool_full {
                    break;
                }
                let pool_reg = |pool: &mut HashMap<ConstKey, Reg>,
                                pool_values: &mut Vec<Value>,
                                pool_full: &mut bool| {
                    if let Some(&r) = pool.get(&const_key(value)) {
                        return Some(r);
                    }
                    let next = kernel.reg_count + pool_values.len();
                    match Reg::try_from(next) {
                        Ok(r) => {
                            pool.insert(const_key(value), r);
                            pool_values.push(value);
                            Some(r)
                        }
                        Err(_) => {
                            *pool_full = true;
                            None
                        }
                    }
                };
                // Rewrite in-block uses of `dst` to the pooled register
                // until `dst` is redefined; delete the Const if every use
                // was rewritten and the value does not escape the block.
                let mut tied = false; // read-modify use we cannot redirect
                let mut redefined = false;
                #[allow(clippy::needless_range_loop)] // j is a position, not just an index
                for j in i + 1..e {
                    let Some(next_inst) = &mut code[j] else {
                        continue;
                    };
                    read_regs(next_inst, &mut reads);
                    if reads.contains(&dst) {
                        let mut rewritten = 0usize;
                        let total = reads.iter().filter(|&&r| r == dst).count();
                        if let Some(pr) = pool_reg(&mut pool, &mut pool_values, &mut pool_full) {
                            rewrite_reads(next_inst, |r| {
                                if *r == dst {
                                    *r = pr;
                                    rewritten += 1;
                                }
                            });
                        }
                        if rewritten < total {
                            tied = true; // e.g. Assign's own destination
                        }
                    }
                    if dst_of(next_inst) == Some(dst) {
                        redefined = true;
                        break;
                    }
                }
                if !tied && (redefined || !live_out[b][dst as usize]) {
                    code[i] = None;
                    stats.pooled_consts += 1;
                }
            }
        }

        // Pass: copy fusion. It needs instruction-grained liveness of the
        // copied register, computed per block from live-out.
        // Pooling has already run, so operands may reference pool
        // registers past the original file — widen the universe (pool
        // slots are read-only constants; their liveness is immaterial).
        let universe = kernel.reg_count + pool_values.len();
        let mut exit_live_wide = exit_live.clone();
        exit_live_wide.resize(universe, false);
        let live_out = liveness(&blocks, &code, universe, &exit_live_wide);
        for (b, &(s, e)) in blocks.bounds.iter().enumerate() {
            // `live_after[k]` = registers live immediately after the k-th
            // instruction slot of the block.
            let width = e - s;
            let mut live_after: Vec<Vec<bool>> = vec![Vec::new(); width];
            let mut live = live_out[b].clone();
            for k in (0..width).rev() {
                live_after[k] = live.clone();
                if let Some(inst) = &code[s + k] {
                    if let Some(d) = dst_of(inst) {
                        live[d as usize] = false;
                    }
                    read_regs(inst, &mut reads);
                    for &r in &reads {
                        live[r as usize] = true;
                    }
                }
            }
            // Copy fusion: `I dst=t; Copy d←t` with `t` dead afterwards
            // becomes `I dst=d`. Sound for every instruction that does
            // not read its own destination (Assign does — its coercion
            // target is the destination's current type — and guard
            // identity is load-bearing, so both are excluded).
            let mut prev: Option<usize> = None;
            for k in 0..width {
                let Some(inst) = code[s + k] else { continue };
                if let (Inst::Copy { dst, src }, Some(pk)) = (inst, prev) {
                    let fusable = |i: &Inst| {
                        !matches!(
                            i,
                            Inst::Assign { .. } | Inst::GuardReset { .. } | Inst::GuardBump { .. }
                        )
                    };
                    if dst != src && !live_after[k][src as usize] {
                        if let Some(pinst) = &mut code[s + pk] {
                            if dst_of(pinst) == Some(src) && fusable(pinst) {
                                set_dst(pinst, dst);
                                code[s + k] = None;
                                stats.fused += 1;
                                continue; // `prev` still points at the def
                            }
                        }
                    }
                }
                prev = Some(k);
            }
        }

        // Cleanup: delete jumps whose target is the next kept instruction,
        // then compact and remap targets.
        loop {
            let mut kept_before = vec![0usize; original.len() + 1];
            for i in 0..original.len() {
                kept_before[i + 1] = kept_before[i] + usize::from(code[i].is_some());
            }
            let mut removed_any = false;
            for i in 0..original.len() {
                let target = match code[i] {
                    Some(Inst::Jump { target }) => target,
                    _ => continue,
                };
                let t = (target as usize).min(original.len());
                if t > i && kept_before[t] == kept_before[i + 1] {
                    code[i] = None;
                    removed_any = true;
                }
            }
            if !removed_any {
                break;
            }
        }
        let mut kept_before = vec![0usize; original.len() + 1];
        for i in 0..original.len() {
            kept_before[i + 1] = kept_before[i] + usize::from(code[i].is_some());
        }
        let remap = |t: u32| kept_before[(t as usize).min(original.len())] as u32;
        let compacted: Vec<Inst> = code
            .into_iter()
            .flatten()
            .map(|inst| match inst {
                Inst::Jump { target } => Inst::Jump {
                    target: remap(target),
                },
                Inst::JumpIfFalse { cond, target } => Inst::JumpIfFalse {
                    cond,
                    target: remap(target),
                },
                Inst::JumpIfTrue { cond, target } => Inst::JumpIfTrue {
                    cond,
                    target: remap(target),
                },
                other => other,
            })
            .collect();
        if compacted.is_empty() && !original.is_empty() {
            stats.dead_phases += 1;
        }
        new_phases.push(compacted);
    }

    let reg_count = kernel.reg_count + pool_values.len();
    let mut reg_init = kernel.reg_init.clone();
    reg_init.extend(pool_values);
    let optimized = CompiledKernel {
        phases: new_phases,
        reg_count,
        reg_init,
        first_temp: kernel.first_temp,
        param_regs: kernel.param_regs,
    };
    stats.insts_after = optimized.len();
    (optimized, stats)
}

/// Value-numbers one instruction, returning its rewritten form (`None`
/// deletes it).
fn lvn_inst(lvn: &mut Lvn<'_>, inst: Inst, stats: &mut OptStats) -> Option<Inst> {
    /// `Copy { dst, src }`, eliding self-copies.
    fn copy_to(dst: Reg, src: Reg) -> Option<Inst> {
        (src != dst).then_some(Inst::Copy { dst, src })
    }

    match inst {
        Inst::Const { dst, value } => {
            let vn = lvn.const_vn(value);
            lvn.set_reg(dst, vn);
            Some(inst)
        }
        Inst::Copy { dst, src } => {
            let s = lvn.vn_of(src);
            let rewritten = if let Some(v) = lvn.konst(s) {
                Some(Inst::Const { dst, value: v })
            } else {
                copy_to(dst, lvn.canon(src))
            };
            lvn.set_reg(dst, s);
            rewritten.or_else(|| {
                stats.cse_reused += 1;
                None
            })
        }
        Inst::Promote { dst, src } => {
            let s = lvn.vn_of(src);
            if let Some(v) = lvn.konst(s) {
                stats.folded += 1;
                let folded = coerce(v, ScalarTy::Float);
                let vn = lvn.const_vn(folded);
                lvn.set_reg(dst, vn);
                return Some(Inst::Const { dst, value: folded });
            }
            if matches!(lvn.ty(s), Some(ScalarTy::Float) | Some(ScalarTy::Bool)) {
                // coerce() only converts int → float; this is a move.
                let c = lvn.canon(src);
                lvn.set_reg(dst, s);
                return copy_to(dst, c);
            }
            let ty = match lvn.ty(s) {
                Some(ScalarTy::Int) => Some(ScalarTy::Float),
                _ => None,
            };
            let src = lvn.canon(src);
            let (inst, _) = lvn.cse(
                ExprKey::Promote(s),
                dst,
                ty,
                |_| Inst::Promote { dst, src },
                stats,
            );
            inst
        }
        Inst::Assign { dst, src } => {
            let old = lvn.vn_of(dst);
            let s = lvn.vn_of(src);
            let target_ty = lvn.ty(old);
            if let (Some(v), Some(t)) = (lvn.konst(s), target_ty) {
                stats.folded += 1;
                let folded = coerce(v, t);
                let vn = lvn.const_vn(folded);
                lvn.set_reg(dst, vn);
                return Some(Inst::Const { dst, value: folded });
            }
            if matches!(lvn.ty(s), Some(ScalarTy::Float) | Some(ScalarTy::Bool))
                || matches!(target_ty, Some(ScalarTy::Int) | Some(ScalarTy::Bool))
            {
                // Either the source never converts (non-int values pass
                // through coerce unchanged) or the target type never
                // triggers a conversion: a plain move either way.
                let c = lvn.canon(src);
                lvn.set_reg(dst, s);
                return copy_to(dst, c);
            }
            if target_ty == Some(ScalarTy::Float) && lvn.ty(s) == Some(ScalarTy::Int) {
                let src = lvn.canon(src);
                let (inst, _) = lvn.cse(
                    ExprKey::Promote(s),
                    dst,
                    Some(ScalarTy::Float),
                    |_| Inst::Promote { dst, src },
                    stats,
                );
                return inst;
            }
            // Target or source type unknown: keep the dynamic assignment.
            let ty = match lvn.ty(s) {
                Some(ScalarTy::Float) => Some(ScalarTy::Float),
                Some(ScalarTy::Bool) => Some(ScalarTy::Bool),
                _ => None,
            };
            let src = lvn.canon(src);
            let vn = lvn.fresh(ty);
            lvn.set_reg(dst, vn);
            Some(Inst::Assign { dst, src })
        }
        Inst::AsBool { dst, src } => {
            let s = lvn.vn_of(src);
            if let Some(v) = lvn.konst(s) {
                stats.folded += 1;
                let folded = Value::Bool(v.as_bool());
                let vn = lvn.const_vn(folded);
                lvn.set_reg(dst, vn);
                return Some(Inst::Const { dst, value: folded });
            }
            if lvn.ty(s) == Some(ScalarTy::Bool) {
                let c = lvn.canon(src);
                lvn.set_reg(dst, s);
                return copy_to(dst, c);
            }
            let src = lvn.canon(src);
            let (inst, _) = lvn.cse(
                ExprKey::AsBool(s),
                dst,
                Some(ScalarTy::Bool),
                |_| Inst::AsBool { dst, src },
                stats,
            );
            inst
        }
        Inst::Un { op, dst, src } => {
            let s = lvn.vn_of(src);
            if let Some(folded) = lvn.konst(s).and_then(|v| fold_un(op, v)) {
                stats.folded += 1;
                let vn = lvn.const_vn(folded);
                lvn.set_reg(dst, vn);
                return Some(Inst::Const { dst, value: folded });
            }
            let ty = match op {
                UnOp::Not => Some(ScalarTy::Bool),
                UnOp::Neg => match lvn.ty(s) {
                    Some(ScalarTy::Int) => Some(ScalarTy::Int),
                    Some(ScalarTy::Float) => Some(ScalarTy::Float),
                    _ => None,
                },
            };
            let src = lvn.canon(src);
            let (inst, _) = lvn.cse(
                ExprKey::Un(op, s),
                dst,
                ty,
                |_| Inst::Un { op, dst, src },
                stats,
            );
            inst
        }
        Inst::Bin { op, dst, lhs, rhs } => {
            let l = lvn.vn_of(lhs);
            let r = lvn.vn_of(rhs);
            if let (Some(a), Some(b)) = (lvn.konst(l), lvn.konst(r)) {
                if let Some(folded) = fold_bin(op, a, b) {
                    stats.folded += 1;
                    let vn = lvn.const_vn(folded);
                    lvn.set_reg(dst, vn);
                    return Some(Inst::Const { dst, value: folded });
                }
            }
            // Algebraic identities, only over provably-int operands:
            // float identities break under -0.0/NaN, and a shadow-leaked
            // bool must keep its representation.
            let int = |vn: Vn| lvn.ty(vn) == Some(ScalarTy::Int);
            let is_k = |vn: Vn, k: i64| lvn.konst(vn) == Some(Value::Int(k));
            let passthrough = match op {
                BinOp::Add if is_k(l, 0) && int(r) => Some((rhs, r)),
                BinOp::Add | BinOp::Sub if is_k(r, 0) && int(l) => Some((lhs, l)),
                BinOp::Mul if is_k(l, 1) && int(r) => Some((rhs, r)),
                BinOp::Mul | BinOp::Div if is_k(r, 1) && int(l) => Some((lhs, l)),
                _ => None,
            };
            if let Some((keep_reg, keep_vn)) = passthrough {
                stats.cse_reused += 1;
                let c = lvn.canon(keep_reg);
                lvn.set_reg(dst, keep_vn);
                return copy_to(dst, c);
            }
            if op == BinOp::Mul && ((is_k(l, 0) && int(r)) || (is_k(r, 0) && int(l))) {
                stats.folded += 1;
                let vn = lvn.const_vn(Value::Int(0));
                lvn.set_reg(dst, vn);
                return Some(Inst::Const {
                    dst,
                    value: Value::Int(0),
                });
            }
            let ty = match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    Some(ScalarTy::Bool)
                }
                BinOp::Rem => Some(ScalarTy::Int),
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => match (lvn.ty(l), lvn.ty(r)) {
                    (Some(ScalarTy::Float), _) | (_, Some(ScalarTy::Float)) => {
                        Some(ScalarTy::Float)
                    }
                    (Some(_), Some(_)) => Some(ScalarTy::Int),
                    _ => None,
                },
                BinOp::And | BinOp::Or => None, // never emitted
            };
            let (clhs, crhs) = (lvn.canon(lhs), lvn.canon(rhs));
            let (inst, _) = lvn.cse(
                ExprKey::Bin(op, l, r),
                dst,
                ty,
                |_| Inst::Bin {
                    op,
                    dst,
                    lhs: clhs,
                    rhs: crhs,
                },
                stats,
            );
            inst
        }
        Inst::Ops { .. } => Some(inst), // merged by the coalescing pass
        Inst::LoadGlobal {
            dst,
            buf,
            elem,
            idx,
        } => {
            let idx = lvn.canon(idx);
            let vn = lvn.fresh(Some(elem));
            lvn.set_reg(dst, vn);
            Some(Inst::LoadGlobal {
                dst,
                buf,
                elem,
                idx,
            })
        }
        Inst::LoadLocal {
            dst,
            arr,
            elem,
            idx,
        } => {
            let idx = lvn.canon(idx);
            let vn = lvn.fresh(Some(elem));
            lvn.set_reg(dst, vn);
            Some(Inst::LoadLocal {
                dst,
                arr,
                elem,
                idx,
            })
        }
        Inst::StoreGlobal {
            buf,
            elem,
            idx,
            src,
        } => Some(Inst::StoreGlobal {
            buf,
            elem,
            idx: lvn.canon(idx),
            src: lvn.canon(src),
        }),
        Inst::StoreLocal {
            arr,
            elem,
            idx,
            src,
        } => Some(Inst::StoreLocal {
            arr,
            elem,
            idx: lvn.canon(idx),
            src: lvn.canon(src),
        }),
        Inst::Call {
            builtin,
            dst,
            args,
            argc,
        } => {
            let n = argc as usize;
            let arg_vns: Vec<Vn> = args[..n].iter().map(|&a| lvn.vn_of(a)).collect();
            let arg_consts: Option<Vec<Value>> = arg_vns.iter().map(|&vn| lvn.konst(vn)).collect();
            if let Some(folded) = arg_consts.and_then(|vals| fold_call(builtin, &vals)) {
                stats.folded += 1;
                let vn = lvn.const_vn(folded);
                lvn.set_reg(dst, vn);
                return Some(Inst::Const { dst, value: folded });
            }
            let tys: Vec<Option<ScalarTy>> = arg_vns.iter().map(|&vn| lvn.ty(vn)).collect();
            let ty = call_ty(builtin, &tys);
            let mut key = [Vn::MAX; 3];
            key[..n].copy_from_slice(&arg_vns);
            let mut cargs = args;
            for a in &mut cargs[..n] {
                *a = lvn.canon(*a);
            }
            let (inst, _) = lvn.cse(
                ExprKey::Call(builtin, key),
                dst,
                ty,
                |_| Inst::Call {
                    builtin,
                    dst,
                    args: cargs,
                    argc,
                },
                stats,
            );
            inst
        }
        Inst::Jump { .. } => Some(inst),
        Inst::JumpIfFalse { cond, target } => {
            let c = lvn.vn_of(cond);
            match lvn.konst(c) {
                Some(v) if v.as_bool() => {
                    stats.branches_folded += 1;
                    None // never taken
                }
                Some(_) => {
                    stats.branches_folded += 1;
                    Some(Inst::Jump { target })
                }
                None => Some(Inst::JumpIfFalse {
                    cond: lvn.canon(cond),
                    target,
                }),
            }
        }
        Inst::JumpIfTrue { cond, target } => {
            let c = lvn.vn_of(cond);
            match lvn.konst(c) {
                Some(v) if !v.as_bool() => {
                    stats.branches_folded += 1;
                    None
                }
                Some(_) => {
                    stats.branches_folded += 1;
                    Some(Inst::Jump { target })
                }
                None => Some(Inst::JumpIfTrue {
                    cond: lvn.canon(cond),
                    target,
                }),
            }
        }
        Inst::GuardReset { guard } => {
            let vn = lvn.const_vn(Value::Int(0));
            lvn.set_reg(guard, vn);
            Some(inst)
        }
        Inst::GuardBump { guard, .. } => {
            lvn.vn_of(guard);
            let vn = lvn.fresh(Some(ScalarTy::Int));
            lvn.set_reg(guard, vn);
            Some(inst)
        }
        Inst::Return => Some(inst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Inst;
    use crate::{ArgValue, IrKernel};
    use kp_gpu_sim::{Device, DeviceConfig, LaunchReport, NdRange, OptLevel};

    /// Builds a kernel over one f32 output buffer plus optional int args.
    fn kernel_with(
        dev: &mut Device,
        src: &str,
        n: usize,
        ints: &[(&str, i64)],
    ) -> (IrKernel, kp_gpu_sim::BufferId) {
        let dst = dev.create_buffer::<f32>("dst", n).unwrap();
        let mut args = vec![("dst", ArgValue::Buffer(dst))];
        for &(name, v) in ints {
            args.push((name, ArgValue::Int(v)));
        }
        let kernel = IrKernel::from_source(src, &args).unwrap();
        (kernel, dst)
    }

    /// Launches at the given opt level, returning (output, report, error).
    fn run_at(
        src: &str,
        n: usize,
        ints: &[(&str, i64)],
        opt: OptLevel,
    ) -> (Vec<f32>, Option<LaunchReport>, Option<String>) {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.opt_level = opt;
        let mut dev = Device::new(cfg).unwrap();
        let (kernel, dst) = kernel_with(&mut dev, src, n, ints);
        let report = dev
            .launch(&kernel, NdRange::new_1d(n, n.min(4)).unwrap())
            .ok();
        let err = kernel.take_runtime_error().map(|e| e.to_string());
        (dev.read_buffer::<f32>(dst).unwrap(), report, err)
    }

    /// Asserts outputs, reports and runtime errors are bit-identical at
    /// both optimization levels, returning the optimized-side triple.
    fn assert_levels_identical(
        src: &str,
        n: usize,
        ints: &[(&str, i64)],
    ) -> (Vec<f32>, Option<LaunchReport>, Option<String>) {
        let reference = run_at(src, n, ints, OptLevel::None);
        let optimized = run_at(src, n, ints, OptLevel::Full);
        assert_eq!(
            reference.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            optimized.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "outputs diverge"
        );
        assert_eq!(reference.1, optimized.1, "reports diverge");
        assert_eq!(reference.2, optimized.2, "runtime errors diverge");
        optimized
    }

    fn count_insts(k: &crate::bytecode::CompiledKernel, pred: impl Fn(&Inst) -> bool) -> usize {
        (0..k.phase_count())
            .flat_map(|p| k.phase(p).iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn constant_expressions_fold_and_reports_stay_identical() {
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            dst[i] = float(2 + 3 * 4) + float(i * (10 - 10));
        }";
        let (out, report, _) = assert_levels_identical(src, 4, &[]);
        assert_eq!(out, vec![14.0; 4]);
        // The folded kernel still charges every ALU op to the timing model.
        assert!(report.unwrap().stats.alu_ops > 0);
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 4, &[]);
        assert!(kernel.opt_stats().folded > 0);
        // `3 * 4` and `10 - 10` folded; `i * 0` needs the algebraic rule.
        let bins = |k| count_insts(k, |i| matches!(i, Inst::Bin { .. }));
        assert!(bins(kernel.optimized()) < bins(kernel.compiled()));
    }

    #[test]
    fn scalar_parameters_freeze_into_constants() {
        // `width` is never written, so `width - 1` folds at bind time and
        // the clamp upper bound becomes a pooled constant.
        let src = "kernel k(global float* dst, int width) {
            int i = get_global_id(0);
            dst[i] = float(clamp(i, 0, width - 1));
        }";
        let (out, ..) = assert_levels_identical(src, 4, &[("width", 3)]);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 2.0]);
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 4, &[("width", 3)]);
        assert_eq!(
            count_insts(kernel.optimized(), |i| matches!(
                i,
                Inst::Bin { op: BinOp::Sub, .. }
            )),
            0,
            "width - 1 must fold away"
        );
    }

    #[test]
    fn division_by_zero_is_never_folded_and_errors_identically() {
        // `1 / z` with z == 0 must stay a runtime error, not fold (or
        // panic) at compile time — at every optimization level.
        let src = "kernel k(global float* dst) {
            int z = 0;
            dst[0] = float(1 / z);
        }";
        let (_, _, err) = assert_levels_identical(src, 1, &[]);
        assert!(err.unwrap().contains("division by zero"));
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 1, &[]);
        assert!(
            count_insts(kernel.optimized(), |i| matches!(
                i,
                Inst::Bin { op: BinOp::Div, .. }
            )) >= 1,
            "the erroring division must survive optimization"
        );
    }

    #[test]
    fn integer_overflow_is_never_folded() {
        // i64::MIN negation and i64::MAX + 1 would change behavior if the
        // optimizer folded them with wrapping arithmetic; both must stay
        // in the bytecode (where debug builds keep their overflow check).
        let src = "kernel k(global float* dst, int n) {
            int m = (0 - n) - 1;
            int q = 0 - m;
            int o = n + 1;
            dst[0] = float(q) + float(o);
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 1, &[("n", i64::MAX)]);
        // m folds to i64::MIN, but `0 - m` and `n + 1` must not fold.
        let subs = count_insts(kernel.optimized(), |i| {
            matches!(
                i,
                Inst::Bin {
                    op: BinOp::Sub | BinOp::Add,
                    ..
                }
            )
        });
        assert!(subs >= 2, "overflowing ops must survive, found {subs}");
        assert!(
            count_insts(kernel.optimized(), |i| matches!(
                i,
                Inst::Const {
                    value: Value::Int(i64::MIN),
                    ..
                }
            )) > 0
                || kernel
                    .optimized()
                    .fresh_regs()
                    .contains(&Value::Int(i64::MIN)),
            "the in-range part must still fold"
        );
    }

    #[test]
    fn min_negation_refuses_to_fold() {
        assert_eq!(fold_un(UnOp::Neg, Value::Int(i64::MIN)), None);
        assert_eq!(fold_un(UnOp::Neg, Value::Bool(true)), None);
        assert_eq!(fold_un(UnOp::Neg, Value::Int(7)), Some(Value::Int(-7)));
        assert_eq!(
            fold_bin(BinOp::Div, Value::Int(i64::MIN), Value::Int(-1)),
            None
        );
        assert_eq!(
            fold_bin(BinOp::Rem, Value::Int(i64::MIN), Value::Int(-1)),
            None
        );
        assert_eq!(
            fold_bin(BinOp::Add, Value::Int(i64::MAX), Value::Int(1)),
            None
        );
        assert_eq!(
            fold_bin(BinOp::Mul, Value::Int(i64::MAX / 2), Value::Int(3)),
            None
        );
        assert_eq!(fold_call(Builtin::Abs, &[Value::Int(i64::MIN)]), None);
    }

    #[test]
    fn cse_reuses_repeated_index_math_within_a_phase() {
        let src = "kernel k(global float* dst, int w, int h) {
            int x = get_global_id(0);
            dst[clamp(x, 0, w - 1) * w + clamp(x, 0, h - 1)] =
                float(clamp(x, 0, w - 1) * w + clamp(x, 0, h - 1));
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        // Distinct w/h keep the two clamp value-numbers distinct (equal
        // bounds would legitimately merge all four into one call).
        let (kernel, _) = kernel_with(&mut dev, src, 16, &[("w", 4), ("h", 5)]);
        // Four syntactic clamps, two distinct values: CSE halves them.
        assert_eq!(
            count_insts(kernel.compiled(), |i| matches!(i, Inst::Call { .. })),
            6 // get_global_id + 4 clamps + float()
        );
        assert_eq!(
            count_insts(kernel.optimized(), |i| matches!(i, Inst::Call { .. })),
            4, // get_global_id + 2 distinct clamps + float()
        );
        assert!(kernel.opt_stats().cse_reused >= 2);
        assert_levels_identical(src, 16, &[("w", 4), ("h", 5)]);
    }

    #[test]
    fn cse_never_merges_across_a_barrier() {
        // The same clamp appears before and after the barrier; each phase
        // must keep its own call — value numbers do not survive phase
        // boundaries (registers can change between them via other items'
        // perspective of time, and the contract is per-phase lowering).
        let src = "kernel k(global float* dst, int w) {
            int x = get_global_id(0);
            int a = clamp(x, 0, w);
            barrier();
            int b = clamp(x, 0, w);
            dst[x] = float(a + b);
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 4, &[("w", 7)]);
        let clamps_in = |p: usize| {
            kernel
                .optimized()
                .phase(p)
                .iter()
                .filter(|i| {
                    matches!(
                        i,
                        Inst::Call {
                            builtin: Builtin::Clamp,
                            ..
                        }
                    )
                })
                .count()
        };
        assert_eq!(clamps_in(0), 1);
        assert_eq!(clamps_in(1), 1, "CSE must not reach across the barrier");
        assert_levels_identical(src, 4, &[("w", 7)]);
    }

    #[test]
    fn dead_phase_elimination_skips_empty_phases_only() {
        // A `return;`-only final phase empties out; the store phase must
        // survive untouched, and the *phase count* (barrier accounting)
        // is preserved.
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            dst[i] = 1.0;
            barrier();
            return;
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 4, &[]);
        assert_eq!(kernel.optimized().phase_count(), 2);
        assert!(!kernel.optimized().phase(0).is_empty());
        assert!(kernel.optimized().phase(1).is_empty());
        assert_eq!(kernel.opt_stats().dead_phases, 1);
        let (out, report, _) = assert_levels_identical(src, 4, &[]);
        assert_eq!(out, vec![1.0; 4]);
        assert_eq!(report.unwrap().phases, 2);
    }

    #[test]
    fn dead_phase_elimination_never_drops_stores_or_faulting_code() {
        // The second phase's only effect is an out-of-bounds store: it
        // must not be considered dead — the fault log is observable.
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            barrier();
            dst[i + 100] = 1.0;
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 2, &[]);
        assert_eq!(kernel.opt_stats().dead_phases, 0);
        assert!(!kernel.optimized().phase(1).is_empty());
        // Both levels fault identically.
        for opt in [OptLevel::None, OptLevel::Full] {
            let mut cfg = DeviceConfig::test_tiny();
            cfg.opt_level = opt;
            let mut dev = Device::new(cfg).unwrap();
            let (kernel, _) = kernel_with(&mut dev, src, 2, &[]);
            let err = dev
                .launch(&kernel, NdRange::new_1d(2, 2).unwrap())
                .unwrap_err();
            assert!(
                matches!(err, kp_gpu_sim::SimError::KernelFaults { total: 2, .. }),
                "{opt}: {err:?}"
            );
        }
    }

    #[test]
    fn ops_charges_are_coalesced_but_totals_preserved() {
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            int acc = 0;
            for (int k = 0; k < 10; k = k + 1) { acc = acc + k * k + 1; }
            dst[i] = float(acc);
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 4, &[]);
        assert!(kernel.opt_stats().ops_merged > 0);
        let (out, report, _) = assert_levels_identical(src, 4, &[]);
        assert_eq!(out, vec![295.0; 4]);
        assert!(report.unwrap().stats.alu_ops > 0);
    }

    #[test]
    fn constants_are_pooled_into_the_register_file() {
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            float acc = 0.0;
            for (int k = 0; k < 4; k = k + 1) { acc = acc + 2.5; }
            dst[i] = acc;
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 4, &[]);
        assert!(kernel.opt_stats().pooled_consts > 0);
        assert!(kernel.optimized().reg_count() > kernel.compiled().reg_count());
        assert!(kernel.optimized().fresh_regs().contains(&Value::Float(2.5)));
        let (out, ..) = assert_levels_identical(src, 4, &[]);
        assert_eq!(out, vec![10.0; 4]);
    }

    #[test]
    fn known_branches_fold_away() {
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            if (1 < 2) { dst[i] = 1.0; } else { dst[i] = 2.0; }
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 4, &[]);
        assert!(kernel.opt_stats().branches_folded >= 1);
        let (out, ..) = assert_levels_identical(src, 4, &[]);
        assert_eq!(out, vec![1.0; 4]);
    }

    #[test]
    fn shadow_leaked_registers_stay_dynamically_typed() {
        // `x` holds Float then (via the leak) Int: the type lattice lands
        // at Top, so `x + 0`-style identities must NOT fire and Assign
        // must stay dynamic. The differential harness proves behavior.
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            float x = 1.5;
            if (i > 1) { int x = 2; }
            x = x + 0;
            dst[i] = float(x) + float(i * 1);
        }";
        let (out, ..) = assert_levels_identical(src, 4, &[]);
        assert_eq!(out, vec![1.5, 2.5, 4.0, 5.0]);
    }

    #[test]
    fn loop_guards_survive_optimization() {
        let src = "kernel k(global float* dst) {
            int i = 0;
            while (i >= 0) { i = i + 1; }
            dst[0] = float(i);
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, dst) = kernel_with(&mut dev, src, 1, &[]);
        assert!(count_insts(kernel.optimized(), |i| matches!(i, Inst::GuardBump { .. })) >= 1);
        let _ = dev.launch(&kernel, NdRange::new_1d(1, 1).unwrap());
        let err = kernel.take_runtime_error().expect("runaway loop reported");
        assert!(err.to_string().contains("iteration guard"), "{err}");
        let _ = dst;
    }

    #[test]
    fn inverted_clamp_bounds_are_never_folded() {
        // std's clamp asserts min <= max even in release builds; a
        // constant clamp(3, 7, 1) in unreachable code must not panic at
        // kernel *construction* — it stays in the bytecode and panics
        // only if actually executed, like the unoptimized form.
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            if (i < 0 - 1) { dst[0] = float(clamp(3, 7, 1)); }
            dst[i] = 1.0;
        }";
        let (out, ..) = assert_levels_identical(src, 4, &[]);
        assert_eq!(out, vec![1.0; 4]);
        assert_eq!(
            fold_call(
                Builtin::Clamp,
                &[Value::Int(3), Value::Int(7), Value::Int(1)]
            ),
            None
        );
        assert_eq!(
            fold_call(
                Builtin::Clamp,
                &[Value::Float(1.0), Value::Float(f32::NAN), Value::Float(2.0)]
            ),
            None
        );
        assert_eq!(
            fold_call(
                Builtin::Clamp,
                &[Value::Int(9), Value::Int(1), Value::Int(5)]
            ),
            Some(Value::Int(5))
        );
    }

    #[test]
    fn dead_panicking_calls_are_not_eliminated() {
        // `abs(i64::MIN)` panics inside apply_builtin in debug builds;
        // DCE deleting the dead call would make the optimized kernel
        // succeed where the unoptimized one panics. It must survive.
        let src = "kernel k(global float* dst, int n) {
            int dead = abs(n);
            int i = get_global_id(0);
            dst[i] = 1.0;
        }";
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 4, &[("n", i64::MIN)]);
        assert_eq!(
            count_insts(kernel.optimized(), |i| matches!(
                i,
                Inst::Call {
                    builtin: Builtin::Abs,
                    ..
                }
            )),
            1,
            "the dead abs() call must survive DCE"
        );
    }

    #[test]
    fn values_stay_available_across_branches_and_joins() {
        // `(i + 3) * (w + 5)` is computed before the branch, inside both
        // arms, and past the join. Block-local value numbering kept four
        // multiplies; dominator-tree inheritance reduces them to one (the
        // arms and the join all inherit the entry block's state).
        let src = "kernel k(global float* dst, int w) {
            int i = get_global_id(0);
            int a = (i + 3) * (w + 5);
            float v = 0.0;
            if (i % 2 == 0) { v = float((i + 3) * (w + 5)); }
            else { v = float((i + 3) * (w + 5) + 1); }
            dst[i] = v + float((i + 3) * (w + 5));
        }";
        assert_levels_identical(src, 4, &[("w", 2)]);
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (kernel, _) = kernel_with(&mut dev, src, 4, &[("w", 2)]);
        let muls = count_insts(kernel.optimized(), |i| {
            matches!(i, Inst::Bin { op: BinOp::Mul, .. })
        });
        assert_eq!(muls, 1, "the common multiply must be computed once");
        assert!(kernel.opt_stats().cse_reused >= 3);
    }

    #[test]
    fn loop_carried_values_are_not_merged_across_the_back_edge() {
        // `t * t` depends on the loop induction variable: the back edge
        // must kill its value number, or every iteration would reuse the
        // first iteration's square.
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            float acc = 0.0;
            for (int t = 0; t < 4; t = t + 1) {
                acc = acc + float(t * t);
            }
            dst[i] = acc;
        }";
        let (out, _, _) = assert_levels_identical(src, 4, &[]);
        assert_eq!(out, vec![14.0; 4]); // 0 + 1 + 4 + 9
    }

    #[test]
    fn adjacent_dependent_bins_fuse_into_bin2() {
        // Named for the `Bin2` fusion the optimizer no longer does; the
        // dependent index chain stays as an O0 == O2 check.
        let src = "kernel k(global float* dst, int w) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            dst[y * w + x] = float(y * w + x);
        }";
        assert_levels_identical(src, 8, &[("w", 8)]);
    }

    #[test]
    fn licm_hoists_invariant_chains_to_a_preheader() {
        // Named for the loop-invariant code motion the optimizer no longer
        // does: the chain feeding the accumulation is invariant in `i` and
        // `w` but not a constant. O2 must equal O0 and the exact sum.
        let src = "kernel k(global float* dst, int w) {
            int i = get_global_id(0);
            float acc = 0.0;
            for (int t = 0; t < 8; t = t + 1) {
                acc = acc + float(i * 7 + 3) * sqrt(float(w + i));
            }
            dst[i] = acc;
        }";
        let (out, _, _) = assert_levels_identical(src, 4, &[("w", 16)]);
        for (i, &v) in out.iter().enumerate() {
            let x = ((i * 7 + 3) as f32) * ((16 + i) as f32).sqrt();
            let mut acc = 0.0f32;
            for _ in 0..8 {
                acc += x;
            }
            assert_eq!(v.to_bits(), acc.to_bits(), "item {i}");
        }
    }

    #[test]
    fn licm_leaves_loop_carried_computation_alone() {
        // The only arithmetic in the loop reads its own previous value, so
        // every iteration must compute it afresh.
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            float acc = 1.5;
            for (int t = 0; t < 6; t = t + 1) {
                acc = acc * 0.5;
            }
            dst[i] = acc;
        }";
        let (out, _, _) = assert_levels_identical(src, 4, &[]);
        assert_eq!(out, vec![1.5 * 0.5f32.powi(6); 4]);
    }

    #[test]
    fn reduction_loads_fuse_with_their_consumer() {
        // Named for the `LoadGlobalBin` fusion the optimizer no longer
        // does; the `acc = acc + buf[t]` reduction stays as an O0 == O2
        // check.
        let src = "kernel k(global float* dst, int n) {
            int i = get_global_id(0);
            float acc = 0.0;
            for (int t = 0; t < n; t = t + 1) {
                acc = acc + dst[t];
            }
            dst[i] = acc + float(i + 1);
        }";
        assert_levels_identical(src, 4, &[("n", 4)]);
    }

    #[test]
    fn optimizer_is_deterministic() {
        let src = "kernel k(global float* dst, int w) {
            int x = get_global_id(0);
            dst[clamp(x, 0, w - 1)] = float(x * w + 7);
        }";
        // Fresh device per kernel so the bound buffer ids match too.
        let mut dev1 = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (k1, _) = kernel_with(&mut dev1, src, 4, &[("w", 4)]);
        let mut dev2 = Device::new(DeviceConfig::test_tiny()).unwrap();
        let (k2, _) = kernel_with(&mut dev2, src, 4, &[("w", 4)]);
        assert_eq!(k1.optimized(), k2.optimized());
        assert_eq!(k1.opt_stats(), k2.opt_stats());
    }
}
