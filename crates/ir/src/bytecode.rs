//! Register bytecode for PerfCL kernels: the instruction set.
//!
//! The tree-walking evaluator in `crate::interp` re-resolves every
//! variable name, buffer binding and builtin on every statement of every
//! work item — fine for correctness, hopeless for sweep throughput. This
//! module defines the flat, register-based instruction set that
//! `crate::compile` lowers a checked kernel to **once** at
//! [`crate::IrKernel`] construction:
//!
//! * variables live in a per-item **register file** with slots resolved
//!   at compile time — no `HashMap<String, _>` on the hot path;
//! * buffer and local-array names are pre-bound to their simulator handles
//!   ([`BufferId`] / [`LocalId`]) inside the instructions;
//! * builtins are pre-resolved to [`Builtin`] values with their ALU cost
//!   folded into explicit [`Inst::Ops`] charges;
//! * structured control flow (`if`/`for`/`while`, `&&`/`||`
//!   short-circuiting) becomes jump-target branches, with the
//!   interpreter's loop iteration guards preserved as dedicated guard
//!   registers.
//!
//! One instruction sequence is produced per barrier-separated phase; the
//! register file persists across phases exactly like the interpreter's
//! variable map (OpenCL private memory).
//!
//! Every instruction is one `crate::compile` emits: the optimizer
//! ([`crate::optimize`]) rewrites sequences of them but adds no
//! instruction of its own, so optimized and as-lowered bytecode run
//! through the same VM code.
//!
//! The VM that executes this bytecode is lane-batched (`crate::vector`):
//! it runs one simulated wavefront of work items through each
//! instruction in lockstep. Every operation funnels through the same
//! primitives as the tree walk (`apply_bin`, `apply_builtin`, the
//! load/store converters in `crate::interp`), so the two execution modes
//! produce bit-identical outputs, statistics and fault logs by
//! construction — asserted app by app in the cross-crate
//! `vm_differential` suite.

use kp_gpu_sim::{BufferId, LocalId};

use crate::ast::{BinOp, ScalarTy, UnOp};
use crate::builtins::Builtin;
use crate::Value;

/// A register index into the per-item register file.
pub type Reg = u16;

/// Iteration ceiling of `for`/`while` loops, matching the tree-walking
/// evaluator's runaway-loop guard.
pub const LOOP_GUARD_LIMIT: i64 = 100_000_000;

/// One bytecode instruction.
///
/// Instructions are 3-address register form; `dst`/`src`/operand fields
/// index the per-item register file. Jump targets are absolute instruction
/// indices within the current phase's sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// `regs[dst] = value`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: Value,
    },
    /// `regs[dst] = regs[src]`.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = coerce(regs[src], float)` — the `int → float`
    /// conversion applied by declarations of `float` variables.
    Promote {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = coerce(regs[src], typeof regs[dst])` — assignment with
    /// the interpreter's *dynamic* target typing: the value is coerced to
    /// the run-time type of what the destination currently holds (this is
    /// what makes shadowed re-declarations behave identically to the
    /// tree-walk's flat variable map).
    Assign {
        /// Destination register (must already hold a value).
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = Bool(regs[src].as_bool())` — truthiness
    /// normalization, used where the interpreter materializes
    /// `Value::Bool(…)` from an operand of *dynamic* type (the right-hand
    /// side of `&&`/`||`: under shadow-leaked re-declarations a
    /// statically-bool value can hold a number at run time).
    AsBool {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = op regs[src]` (unary minus / logical not).
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `regs[dst] = regs[lhs] op regs[rhs]` for every operator except the
    /// short-circuiting `&&`/`||`, which lower to branches.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// Charge `n` ALU operations to this work item (timing model).
    Ops {
        /// Operation count.
        n: u64,
    },
    /// `regs[dst] = buf[regs[idx]]` — global-memory read through the
    /// simulator (coalescing-tracked, faulting).
    LoadGlobal {
        /// Destination register.
        dst: Reg,
        /// Pre-bound buffer handle.
        buf: BufferId,
        /// Element type of the buffer.
        elem: ScalarTy,
        /// Register holding the element index.
        idx: Reg,
    },
    /// `buf[regs[idx]] = regs[src]` — global-memory write.
    StoreGlobal {
        /// Pre-bound buffer handle.
        buf: BufferId,
        /// Element type of the buffer.
        elem: ScalarTy,
        /// Register holding the element index.
        idx: Reg,
        /// Register holding the value to store.
        src: Reg,
    },
    /// `regs[dst] = arr[regs[idx]]` — local-memory read (bank-tracked).
    LoadLocal {
        /// Destination register.
        dst: Reg,
        /// Pre-bound local array handle.
        arr: LocalId,
        /// Element type of the array.
        elem: ScalarTy,
        /// Register holding the element index.
        idx: Reg,
    },
    /// `arr[regs[idx]] = regs[src]` — local-memory write.
    StoreLocal {
        /// Pre-bound local array handle.
        arr: LocalId,
        /// Element type of the array.
        elem: ScalarTy,
        /// Register holding the element index.
        idx: Reg,
        /// Register holding the value to store.
        src: Reg,
    },
    /// `regs[dst] = builtin(regs[args[0]], …, regs[args[argc-1]])`. The
    /// builtin's ALU cost is emitted as a preceding [`Inst::Ops`].
    Call {
        /// Pre-resolved builtin.
        builtin: Builtin,
        /// Destination register.
        dst: Reg,
        /// Argument registers (first `argc` entries are meaningful).
        args: [Reg; 3],
        /// Number of arguments.
        argc: u8,
    },
    /// Unconditional jump to instruction index `target`.
    Jump {
        /// Absolute target within the phase.
        target: u32,
    },
    /// Jump to `target` when `regs[cond]` is false.
    JumpIfFalse {
        /// Condition register.
        cond: Reg,
        /// Absolute target within the phase.
        target: u32,
    },
    /// Jump to `target` when `regs[cond]` is true.
    JumpIfTrue {
        /// Condition register.
        cond: Reg,
        /// Absolute target within the phase.
        target: u32,
    },
    /// `regs[guard] = 0` — reset a loop's iteration guard at loop entry.
    GuardReset {
        /// Guard register.
        guard: Reg,
    },
    /// Increment a loop guard; errors past [`LOOP_GUARD_LIMIT`] exactly
    /// like the interpreter's runaway-loop check.
    GuardBump {
        /// Guard register.
        guard: Reg,
        /// Whether the owning loop is a `for` (controls the error text).
        is_for: bool,
    },
    /// Retire this work item: skip the rest of this phase and all later
    /// phases (PerfCL `return`).
    Return,
}

/// A kernel lowered to register bytecode: one instruction sequence per
/// barrier-separated phase plus the register-file layout.
///
/// The register file is layered: slots `0..first_temp` are **persistent**
/// (named variables — one slot per distinct *name*, which is what gives
/// shadowed re-declarations their write-through semantics — followed by
/// loop guards) and live across phases like OpenCL private memory; slots
/// `first_temp..reg_count` are **expression temporaries**, recycled per
/// statement and never live across a statement boundary. The optimizer
/// ([`crate::optimize`]) relies on exactly this layering: persistent slots
/// are conservatively treated as live, temporaries are subject to
/// dead-code elimination, and constant-pool slots it appends start at the
/// original `reg_count`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    pub(crate) phases: Vec<Vec<Inst>>,
    /// Total registers (named slots + loop guards + expression temps, plus
    /// any constant-pool slots appended by the optimizer).
    pub(crate) reg_count: usize,
    /// Initial register file: scalar parameter slots hold their bound
    /// values, everything else starts as `Int(0)` (never read before
    /// written — the type checker enforces declare-before-use). The
    /// optimizer's constant pool also lives here.
    pub(crate) reg_init: Vec<Value>,
    /// First expression-temporary slot; everything below is persistent
    /// (named variables, then loop guards).
    pub(crate) first_temp: usize,
    /// Number of leading register slots holding scalar parameters (their
    /// `reg_init` entries are the bound argument values). Only these
    /// slots can be *read before any write* at run time — the type
    /// checker's declare-before-use rule guarantees it for every other
    /// name — which is what lets the optimizer seed its register type
    /// inference from `reg_init` for exactly these slots.
    pub(crate) param_regs: usize,
}

impl CompiledKernel {
    /// Number of registers in the per-item register file.
    pub fn reg_count(&self) -> usize {
        self.reg_count
    }

    /// The instruction sequence of one phase.
    pub fn phase(&self, phase: usize) -> &[Inst] {
        &self.phases[phase]
    }

    /// Number of barrier-separated phases.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// Total instruction count across all phases.
    pub fn len(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// Whether the kernel compiled to zero instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A fresh per-item register file (parameter slots pre-loaded).
    pub fn fresh_regs(&self) -> Vec<Value> {
        self.reg_init.clone()
    }

    /// First expression-temporary register slot. Slots below this index
    /// are persistent across phases (named variables, then loop guards);
    /// slots at or above it are statement-scoped temporaries (and, in
    /// optimized kernels, constant-pool slots pre-loaded via
    /// [`CompiledKernel::fresh_regs`]).
    pub fn first_temp(&self) -> usize {
        self.first_temp
    }
}
