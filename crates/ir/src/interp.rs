//! Interpreter: runs a type-checked PerfCL kernel on the simulated GPU.
//!
//! [`IrKernel`] implements [`kp_gpu_sim::Kernel`]: the kernel body is split
//! into phases at `barrier();` statements, per-item private variables
//! persist across barriers (as in OpenCL), and global/local accesses go
//! through the simulator so functional results *and* performance accounting
//! are identical to hand-written kernels.

use std::collections::HashMap;
use std::sync::Mutex;

use kp_gpu_sim::{BufferId, ElemKind, ItemCtx, Kernel, LocalId, LocalSpec, OptLevel, WaveCtx};

use crate::ast::{BinOp, Expr, KernelDef, ParamTy, ScalarTy, Stmt, UnOp};
use crate::builtins::Builtin;
use crate::error::IrError;
use crate::typeck::check;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (OpenCL `int`, widened for arithmetic).
    Int(i64),
    /// 32-bit float.
    Float(f32),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Numeric conversion to `f32` (OpenCL-style: bools become 0/1).
    pub fn as_f32(self) -> f32 {
        match self {
            Value::Int(v) => v as f32,
            Value::Float(v) => v,
            Value::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Numeric conversion to `i64` (floats truncate, bools become 0/1).
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => v as i64,
            Value::Bool(b) => i64::from(b),
        }
    }

    /// Truthiness (non-zero numbers are true).
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
        }
    }
}

/// An argument bound to a kernel parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f32),
    /// Global-memory buffer.
    Buffer(BufferId),
}

/// What a parameter name resolves to at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Binding {
    Scalar(Value),
    Buffer { id: BufferId, elem: ScalarTy },
    Local { id: LocalId, elem: ScalarTy },
}

/// Per-item state of the tree-walking evaluator, carried across phases:
/// named variables plus the retired flag.
#[derive(Debug, Default, Clone)]
struct ItemState {
    vars: HashMap<String, Value>,
    returned: bool,
}

/// The tree-walking evaluator's engine-scratch payload of one worker:
/// per-item states of the work group that worker is currently executing
/// (the bytecode VM keeps its own, `crate::vector::VectorStates`). Lives
/// in the launch engine's [`kp_gpu_sim::KernelScratch`] (one per worker
/// thread), so no locking is ever needed — the engine guarantees a worker
/// runs all items of all phases of a group before its next group, and
/// workers never share scratch. Entries are re-initialized at
/// `(phase 0, item)` time, which also makes the storage safely reusable
/// across groups, launches and even different `IrKernel` instances.
#[derive(Debug, Default)]
struct GroupStates {
    items: Vec<ItemState>,
}

enum Flow {
    Normal,
    Returned,
}

/// An executable PerfCL kernel with bound arguments.
///
/// # Concurrency
///
/// `IrKernel` is [`Sync`] and internally immutable during execution: all
/// per-item state (the VM's register slabs, the interpreter's variable
/// maps) lives in the launch engine's per-worker scratch
/// ([`kp_gpu_sim::KernelScratch`]), not in the kernel, so work groups
/// shard across worker threads without any locking and one instance can
/// even be launched from several devices concurrently. The only shared
/// mutable slot is the runtime-error report ([`IrKernel::take_runtime_error`],
/// behind a mutex touched only on the error path) — concurrent launches
/// would race for that one slot, so keep one kernel per device when you
/// need per-launch error attribution.
///
/// # Execution strategies
///
/// At construction the checked AST is lowered to register bytecode
/// (`crate::compile`) and that bytecode is run through the optimizer
/// pass pipeline ([`crate::optimize`]). Which of the three forms executes
/// is selected per launch by the device:
/// [`kp_gpu_sim::ExecMode::Interpreted`] walks the AST item by item
/// (`run_phase`, the slow reference), while the default
/// [`kp_gpu_sim::ExecMode::Compiled`] runs the bytecode on the
/// lane-batched VM one wavefront at a time (`run_phase_wave`) — the
/// as-lowered form at [`kp_gpu_sim::OptLevel::None`], the optimized form
/// at [`kp_gpu_sim::OptLevel::Full`] (the default). All three are
/// bit-identical by contract.
///
/// # Examples
///
/// ```
/// use kp_gpu_sim::{Device, DeviceConfig, NdRange};
/// use kp_ir::{ArgValue, IrKernel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dev = Device::new(DeviceConfig::test_tiny())?;
/// let src = dev.create_buffer_from("src", &[1.0f32, 2.0, 3.0, 4.0])?;
/// let dst = dev.create_buffer::<f32>("dst", 4)?;
///
/// let kernel = IrKernel::from_source(
///     "kernel scale(global const float* src, global float* dst, int n) {
///          int i = get_global_id(0);
///          if (i < n) { dst[i] = src[i] * 2.0; }
///      }",
///     &[("src", ArgValue::Buffer(src)),
///       ("dst", ArgValue::Buffer(dst)),
///       ("n", ArgValue::Int(4))],
/// )?;
/// dev.launch(&kernel, NdRange::new_1d(4, 4)?)?;
/// assert_eq!(dev.read_buffer::<f32>(dst)?, vec![2.0, 4.0, 6.0, 8.0]);
/// # Ok(())
/// # }
/// ```
pub struct IrKernel {
    def: KernelDef,
    bindings: HashMap<String, Binding>,
    /// The kernel body lowered to register bytecode at construction time
    /// (see [`crate::bytecode`]), exactly as the compiler emitted it —
    /// kept as the [`OptLevel::None`] differential reference.
    compiled: crate::bytecode::CompiledKernel,
    /// `compiled` after the optimizer pass pipeline (see
    /// [`crate::optimize`]); what `run_phase_wave` executes at the default
    /// [`OptLevel::Full`].
    optimized: crate::bytecode::CompiledKernel,
    /// What the optimizer did, for reporting and tests.
    opt_stats: crate::optimize::OptStats,
    local_specs: Vec<LocalSpec>,
    phase_count: usize,
    /// First runtime error by row-major group order, stored with its
    /// (reversed, so `Ord` compares z then y then x) group key. This is
    /// the kernel's only shared mutable state; it is locked exclusively
    /// on the (cold) error path.
    runtime_error: Mutex<Option<([usize; 3], IrError)>>,
}

impl std::fmt::Debug for IrKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IrKernel")
            .field("name", &self.def.name)
            .field("phases", &self.phase_count)
            .field("locals", &self.local_specs)
            .finish_non_exhaustive()
    }
}

fn elem_kind(t: ScalarTy) -> ElemKind {
    match t {
        ScalarTy::Float => ElemKind::F32,
        ScalarTy::Int => ElemKind::I32,
        ScalarTy::Bool => ElemKind::U8,
    }
}

impl IrKernel {
    /// Parses, checks and binds a single-kernel source string.
    ///
    /// # Errors
    ///
    /// Propagates lex/parse/type errors and [`IrError::Binding`] for
    /// mismatched arguments.
    pub fn from_source(src: &str, args: &[(&str, ArgValue)]) -> Result<Self, IrError> {
        let (def, _) = crate::typeck::check_source(src)?;
        Self::new(def, args)
    }

    /// Binds arguments to a parsed kernel definition.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Type`] if the kernel is ill-typed and
    /// [`IrError::Binding`] for missing, extra or mistyped arguments, or
    /// local array sizes that do not evaluate to a positive constant.
    pub fn new(def: KernelDef, args: &[(&str, ArgValue)]) -> Result<Self, IrError> {
        let info = check(&def)?;

        let mut bindings: HashMap<String, Binding> = HashMap::new();
        for (name, value) in args {
            let param = def
                .param(name)
                .ok_or_else(|| IrError::Binding(format!("no parameter named '{name}'")))?;
            let binding = match (param.ty, value) {
                (ParamTy::Scalar(ScalarTy::Int), ArgValue::Int(v)) => {
                    Binding::Scalar(Value::Int(*v))
                }
                (ParamTy::Scalar(ScalarTy::Float), ArgValue::Float(v)) => {
                    Binding::Scalar(Value::Float(*v))
                }
                (ParamTy::Scalar(ScalarTy::Float), ArgValue::Int(v)) => {
                    Binding::Scalar(Value::Float(*v as f32))
                }
                (ParamTy::GlobalPtr { elem, .. }, ArgValue::Buffer(id)) => {
                    Binding::Buffer { id: *id, elem }
                }
                (expected, actual) => {
                    return Err(IrError::Binding(format!(
                        "parameter '{name}' has type {expected} but got {actual:?}"
                    )))
                }
            };
            if bindings.insert((*name).to_owned(), binding).is_some() {
                return Err(IrError::Binding(format!("argument '{name}' bound twice")));
            }
        }
        for p in &def.params {
            if !bindings.contains_key(&p.name) {
                return Err(IrError::Binding(format!("missing argument '{}'", p.name)));
            }
        }

        // Evaluate local array lengths with only scalar params in scope.
        let mut local_specs = Vec::new();
        for (i, (name, elem)) in info.local_arrays.iter().enumerate() {
            let len_expr = find_local_len(&def.body, name).ok_or_else(|| {
                IrError::Binding(format!("local array '{name}' missing declaration"))
            })?;
            let len = eval_const(len_expr, &bindings).ok_or_else(|| {
                IrError::Binding(format!(
                    "local array '{name}' length must be a constant expression over scalar \
                     parameters"
                ))
            })?;
            if len <= 0 {
                return Err(IrError::Binding(format!(
                    "local array '{name}' length must be positive, got {len}"
                )));
            }
            bindings.insert(
                name.clone(),
                Binding::Local {
                    id: LocalId(i),
                    elem: *elem,
                },
            );
            local_specs.push(LocalSpec::new(elem_kind(*elem), len as usize));
        }

        let phase_count = def.phases().len();
        let compiled = crate::compile::compile(&def, &bindings)?;
        let (optimized, opt_stats) = crate::optimize::optimize(&compiled);
        Ok(Self {
            def,
            bindings,
            compiled,
            optimized,
            opt_stats,
            local_specs,
            phase_count,
            runtime_error: Mutex::new(None),
        })
    }

    /// The kernel's definition (e.g. for pretty-printing).
    pub fn def(&self) -> &KernelDef {
        &self.def
    }

    /// The register bytecode the kernel body was compiled to, exactly as
    /// lowered (the [`OptLevel::None`] form).
    pub fn compiled(&self) -> &crate::bytecode::CompiledKernel {
        &self.compiled
    }

    /// The bytecode after the optimizer pass pipeline (the
    /// [`OptLevel::Full`] form, executed by default).
    pub fn optimized(&self) -> &crate::bytecode::CompiledKernel {
        &self.optimized
    }

    /// Summary of what the optimizer changed in this kernel.
    pub fn opt_stats(&self) -> crate::optimize::OptStats {
        self.opt_stats
    }

    /// Takes the first runtime evaluation error of the last launch, if any
    /// (e.g. integer division by zero) — "first" in deterministic
    /// row-major group order, independent of how many engine workers ran
    /// the launch. Launch results are unreliable when this is `Some`.
    pub fn take_runtime_error(&self) -> Option<IrError> {
        self.runtime_error
            .lock()
            .expect("interp state poisoned")
            .take()
            .map(|(_, e)| e)
    }

    /// Keeps the error of the row-major-earliest group (not the first to
    /// arrive by wall clock), so the reported error matches what serial
    /// execution reports at any thread count.
    fn record_error(&self, group: [usize; 3], e: IrError) {
        let key = [group[2], group[1], group[0]]; // row-major: x fastest
        let mut slot = self.runtime_error.lock().expect("interp state poisoned");
        match slot.as_ref() {
            Some((held, _)) if *held <= key => {}
            _ => *slot = Some((key, e)),
        }
    }
}

/// Finds the length expression of a named local array declaration.
fn find_local_len<'a>(body: &'a [Stmt], name: &str) -> Option<&'a Expr> {
    body.iter().find_map(|s| match s {
        Stmt::LocalDecl { name: n, len, .. } if n == name => Some(len),
        _ => None,
    })
}

/// Best-effort constant evaluation over integer literals and bound scalar
/// parameters (used for local array sizes).
///
/// All arithmetic is checked: expressions that overflow `i64` (or divide
/// by zero, including `i64::MIN / -1`) fold to `None` and surface as a
/// binding error instead of panicking in debug builds.
fn eval_const(e: &Expr, bindings: &HashMap<String, Binding>) -> Option<i64> {
    match e {
        Expr::IntLit(v) => Some(*v),
        Expr::Var(name) => match bindings.get(name) {
            Some(Binding::Scalar(Value::Int(v))) => Some(*v),
            _ => None,
        },
        Expr::Bin { op, lhs, rhs } => {
            let l = eval_const(lhs, bindings)?;
            let r = eval_const(rhs, bindings)?;
            match op {
                BinOp::Add => l.checked_add(r),
                BinOp::Sub => l.checked_sub(r),
                BinOp::Mul => l.checked_mul(r),
                BinOp::Div => l.checked_div(r),
                BinOp::Rem => l.checked_rem(r),
                _ => None,
            }
        }
        Expr::Un {
            op: UnOp::Neg,
            expr,
        } => eval_const(expr, bindings)?.checked_neg(),
        _ => None,
    }
}

impl Kernel for IrKernel {
    fn name(&self) -> &str {
        &self.def.name
    }

    fn phases(&self) -> usize {
        self.phase_count
    }

    fn local_buffers(&self) -> Vec<LocalSpec> {
        self.local_specs.clone()
    }

    /// The tree-walking evaluator: the differential reference the engine
    /// drives item by item under [`kp_gpu_sim::ExecMode::Interpreted`].
    fn run_phase(&self, phase: usize, ctx: &mut ItemCtx<'_>) {
        let flat = ctx.flat_local_id();
        let group_size = ctx.group_size();
        let group = [ctx.group_id(0), ctx.group_id(1), ctx.group_id(2)];
        // Per-item states live in the engine's per-worker scratch: the
        // worker runs every item of every phase of a group before its
        // next group, so this is exclusive access without a lock.
        let states: &mut GroupStates = ctx.kernel_scratch().get_or_default();
        if states.items.len() < group_size {
            states.items.resize_with(group_size, ItemState::default);
        }
        let mut state = std::mem::take(&mut states.items[flat]);
        if phase == 0 {
            // Reset in place: the scratch may hold the previous group's
            // (or launch's, or kernel's) state. Buffers are reused.
            state.returned = false;
            state.vars.clear();
        }
        if !state.returned {
            let phases = self.def.phases();
            let mut exec = Exec { kernel: self, ctx };
            match exec.stmts(phases[phase], &mut state) {
                Ok(Flow::Returned) => state.returned = true,
                Ok(Flow::Normal) => {}
                Err(e) => {
                    self.record_error(group, e);
                    state.returned = true;
                }
            }
        }
        ctx.kernel_scratch().get_or_default::<GroupStates>().items[flat] = state;
    }

    fn lane_batched(&self) -> bool {
        true
    }

    /// The bytecode VM, one wavefront at a time: what the engine drives
    /// under the default [`kp_gpu_sim::ExecMode::Compiled`].
    fn run_phase_wave(&self, phase: usize, wave: &mut WaveCtx<'_>) {
        let bytecode = match wave.opt_level() {
            OptLevel::Full => &self.optimized,
            OptLevel::None => &self.compiled,
        };
        // Dead-phase elimination: a phase the optimizer emptied provably
        // cannot touch memory, charge ops, fault, error or change lane
        // state, so skip it without even touching the scratch. Phase 0 is
        // exempt — it must still reset the lanes below.
        if phase != 0 && bytecode.phase(phase).is_empty() {
            return;
        }
        let group = [wave.group_id(0), wave.group_id(1), wave.group_id(2)];
        // Take the slabs out of the scratch so the vector VM can hand the
        // scratch to per-lane memory/builtin contexts while it executes.
        let mut states: crate::vector::VectorStates =
            std::mem::take(wave.kernel_scratch().get_or_default());
        states.ensure(wave.group_size(), bytecode.reg_count());
        if phase == 0 {
            states.reset_lanes(bytecode, wave.first_flat_id(), wave.lanes());
        }
        let errors = crate::vector::execute_phase_wave(bytecode, phase, &mut states, wave);
        *wave
            .kernel_scratch()
            .get_or_default::<crate::vector::VectorStates>() = states;
        // Lane order is item order: recording in this order makes the kept
        // (first) error of the group match the item loop exactly.
        for (_lane, msg) in errors {
            self.record_error(group, IrError::Eval(format!("{}: {msg}", self.def.name)));
        }
    }
}

// ---------------------------------------------------------------------
// Shared evaluation primitives.
//
// The tree-walking evaluator below and the bytecode VM in
// [`crate::vector`] both funnel every arithmetic operation, builtin and
// memory access through these functions, so the two execution modes are
// bit-identical by construction — there is exactly one implementation of
// each semantic rule.
// ---------------------------------------------------------------------

/// Applies a unary operator. The only possible error, negating a bool, is
/// unreachable for type-checked kernels.
pub(crate) fn apply_un(op: UnOp, v: Value) -> Result<Value, &'static str> {
    Ok(match op {
        UnOp::Neg => match v {
            Value::Int(x) => Value::Int(-x),
            Value::Float(x) => Value::Float(-x),
            Value::Bool(_) => return Err("negating a bool"),
        },
        UnOp::Not => Value::Bool(!v.as_bool()),
    })
}

/// Applies a non-short-circuit binary operator with the interpreter's
/// numeric promotion rules (any float operand switches to f32 arithmetic).
///
/// # Panics
///
/// `&&`/`||` must be lowered to control flow before reaching this point.
pub(crate) fn apply_bin(op: BinOp, l: Value, r: Value) -> Result<Value, &'static str> {
    let float_mode = matches!(l, Value::Float(_)) || matches!(r, Value::Float(_));
    Ok(match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if float_mode {
                let (a, b) = (l.as_f32(), r.as_f32());
                Value::Float(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    _ => a / b,
                })
            } else {
                let (a, b) = (l.as_i64(), r.as_i64());
                match op {
                    BinOp::Add => Value::Int(a + b),
                    BinOp::Sub => Value::Int(a - b),
                    BinOp::Mul => Value::Int(a * b),
                    _ => {
                        if b == 0 {
                            return Err("integer division by zero");
                        }
                        Value::Int(a / b)
                    }
                }
            }
        }
        BinOp::Rem => {
            let (a, b) = (l.as_i64(), r.as_i64());
            if b == 0 {
                return Err("integer remainder by zero");
            }
            Value::Int(a % b)
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = if float_mode {
                l.as_f32()
                    .partial_cmp(&r.as_f32())
                    .unwrap_or(std::cmp::Ordering::Greater)
            } else {
                l.as_i64().cmp(&r.as_i64())
            };
            let res = match op {
                BinOp::Eq => ord == std::cmp::Ordering::Equal,
                BinOp::Ne => ord != std::cmp::Ordering::Equal,
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::Le => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                _ => ord != std::cmp::Ordering::Less,
            };
            Value::Bool(res)
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuit operators lower to control flow"),
    })
}

/// Reads one element of a global buffer (negative indices become the OOB
/// sentinel and fault inside the simulator, returning the default value).
pub(crate) fn load_global(ctx: &mut ItemCtx<'_>, id: BufferId, elem: ScalarTy, idx: i64) -> Value {
    let uidx = usize::try_from(idx).unwrap_or(usize::MAX); // negative -> OOB fault
    match elem {
        ScalarTy::Float => Value::Float(ctx.read_global::<f32>(id, uidx)),
        ScalarTy::Int => Value::Int(i64::from(ctx.read_global::<i32>(id, uidx))),
        ScalarTy::Bool => Value::Bool(ctx.read_global::<u8>(id, uidx) != 0),
    }
}

/// Writes one element of a global buffer (faults as [`load_global`]).
pub(crate) fn store_global(
    ctx: &mut ItemCtx<'_>,
    id: BufferId,
    elem: ScalarTy,
    idx: i64,
    v: Value,
) {
    let uidx = usize::try_from(idx).unwrap_or(usize::MAX); // negative -> OOB fault
    match elem {
        ScalarTy::Float => ctx.write_global(id, uidx, v.as_f32()),
        ScalarTy::Int => ctx.write_global(id, uidx, v.as_i64() as i32),
        ScalarTy::Bool => ctx.write_global(id, uidx, u8::from(v.as_bool())),
    }
}

/// Reads one element of a local array (faults as [`load_global`]).
pub(crate) fn load_local(ctx: &mut ItemCtx<'_>, id: LocalId, elem: ScalarTy, idx: i64) -> Value {
    let uidx = usize::try_from(idx).unwrap_or(usize::MAX); // negative -> OOB fault
    match elem {
        ScalarTy::Float => Value::Float(ctx.read_local::<f32>(id, uidx)),
        ScalarTy::Int => Value::Int(i64::from(ctx.read_local::<i32>(id, uidx))),
        ScalarTy::Bool => Value::Bool(ctx.read_local::<u8>(id, uidx) != 0),
    }
}

/// Writes one element of a local array (faults as [`load_global`]).
pub(crate) fn store_local(ctx: &mut ItemCtx<'_>, id: LocalId, elem: ScalarTy, idx: i64, v: Value) {
    let uidx = usize::try_from(idx).unwrap_or(usize::MAX); // negative -> OOB fault
    match elem {
        ScalarTy::Float => ctx.write_local(id, uidx, v.as_f32()),
        ScalarTy::Int => ctx.write_local(id, uidx, v.as_i64() as i32),
        ScalarTy::Bool => ctx.write_local(id, uidx, u8::from(v.as_bool())),
    }
}

/// Evaluates a builtin call on already-evaluated arguments. The ALU cost
/// ([`Builtin::op_cost`]) is charged by the caller.
pub(crate) fn apply_builtin(ctx: &mut ItemCtx<'_>, b: Builtin, args: &[Value]) -> Value {
    let dim = |v: Value| usize::try_from(v.as_i64()).unwrap_or(0);
    let float_mode = args.iter().any(|v| matches!(v, Value::Float(_)));
    match b {
        Builtin::GlobalId => Value::Int(ctx.global_id(dim(args[0])) as i64),
        Builtin::LocalId => Value::Int(ctx.local_id(dim(args[0])) as i64),
        Builtin::GroupId => Value::Int(ctx.group_id(dim(args[0])) as i64),
        Builtin::GlobalSize => Value::Int(ctx.global_size(dim(args[0])) as i64),
        Builtin::LocalSize => Value::Int(ctx.local_size(dim(args[0])) as i64),
        Builtin::NumGroups => Value::Int(ctx.num_groups(dim(args[0])) as i64),
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
            if float_mode {
                Value::Float(args[0].as_f32().clamp(args[1].as_f32(), args[2].as_f32()))
            } else {
                Value::Int(args[0].as_i64().clamp(args[1].as_i64(), args[2].as_i64()))
            }
        }
        Builtin::Sqrt => Value::Float(args[0].as_f32().sqrt()),
        Builtin::Fabs => Value::Float(args[0].as_f32().abs()),
        Builtin::Abs => Value::Int(args[0].as_i64().abs()),
        Builtin::Floor => Value::Float(args[0].as_f32().floor()),
        Builtin::Exp => Value::Float(args[0].as_f32().exp()),
        Builtin::Log => Value::Float(args[0].as_f32().ln()),
        Builtin::Sin => Value::Float(args[0].as_f32().sin()),
        Builtin::Cos => Value::Float(args[0].as_f32().cos()),
        Builtin::Pow => Value::Float(args[0].as_f32().powf(args[1].as_f32())),
        Builtin::ToFloat => Value::Float(args[0].as_f32()),
        Builtin::ToInt => Value::Int(args[0].as_i64()),
    }
}

struct Exec<'e, 'w, 'a> {
    kernel: &'e IrKernel,
    ctx: &'w mut ItemCtx<'a>,
}

impl Exec<'_, '_, '_> {
    fn err(&self, msg: String) -> IrError {
        IrError::Eval(format!("{}: {msg}", self.kernel.def.name))
    }

    fn stmts(&mut self, stmts: &[Stmt], state: &mut ItemState) -> Result<Flow, IrError> {
        for s in stmts {
            if let Flow::Returned = self.stmt(s, state)? {
                return Ok(Flow::Returned);
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(&mut self, stmt: &Stmt, state: &mut ItemState) -> Result<Flow, IrError> {
        match stmt {
            Stmt::Decl { name, init, ty } => {
                let v = self.eval(init, state)?;
                let v = coerce(v, *ty);
                state.vars.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::LocalDecl { .. } => Ok(Flow::Normal), // allocated at bind time
            Stmt::Assign { name, value } => {
                let v = self.eval(value, state)?;
                let target_ty = match state.vars.get(name) {
                    Some(Value::Int(_)) => ScalarTy::Int,
                    Some(Value::Float(_)) => ScalarTy::Float,
                    Some(Value::Bool(_)) => ScalarTy::Bool,
                    None => {
                        // Assignment to a scalar parameter shadow: OpenCL
                        // allows mutating parameters; model as a var.
                        match self.kernel.bindings.get(name) {
                            Some(Binding::Scalar(Value::Int(_))) => ScalarTy::Int,
                            Some(Binding::Scalar(Value::Float(_))) => ScalarTy::Float,
                            Some(Binding::Scalar(Value::Bool(_))) => ScalarTy::Bool,
                            _ => return Err(self.err(format!("unknown variable '{name}'"))),
                        }
                    }
                };
                state.vars.insert(name.clone(), coerce(v, target_ty));
                Ok(Flow::Normal)
            }
            Stmt::Store { base, index, value } => {
                let idx = self.eval(index, state)?.as_i64();
                let v = self.eval(value, state)?;
                match self.kernel.bindings.get(base) {
                    Some(&Binding::Buffer { id, elem }) => {
                        store_global(self.ctx, id, elem, idx, v);
                        Ok(Flow::Normal)
                    }
                    Some(&Binding::Local { id, elem }) => {
                        store_local(self.ctx, id, elem, idx, v);
                        Ok(Flow::Normal)
                    }
                    _ => Err(self.err(format!("unknown buffer '{base}'"))),
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.ctx.ops(1);
                if self.eval(cond, state)?.as_bool() {
                    self.stmts(then_body, state)
                } else {
                    self.stmts(else_body, state)
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.stmt(init, state)?;
                let mut guard = 0u64;
                loop {
                    self.ctx.ops(1);
                    if !self.eval(cond, state)?.as_bool() {
                        break;
                    }
                    if let Flow::Returned = self.stmts(body, state)? {
                        return Ok(Flow::Returned);
                    }
                    self.stmt(step, state)?;
                    guard += 1;
                    if guard > 100_000_000 {
                        return Err(self.err("for loop exceeded iteration guard".into()));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body } => {
                let mut guard = 0u64;
                loop {
                    self.ctx.ops(1);
                    if !self.eval(cond, state)?.as_bool() {
                        break;
                    }
                    if let Flow::Returned = self.stmts(body, state)? {
                        return Ok(Flow::Returned);
                    }
                    guard += 1;
                    if guard > 100_000_000 {
                        return Err(self.err("while loop exceeded iteration guard".into()));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Barrier => {
                // Unreachable: top-level barriers are phase boundaries and
                // the checker rejects nested ones.
                Err(self.err("barrier in statement position".into()))
            }
            Stmt::Return => Ok(Flow::Returned),
        }
    }

    fn eval(&mut self, e: &Expr, state: &mut ItemState) -> Result<Value, IrError> {
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::FloatLit(v) => Ok(Value::Float(*v)),
            Expr::BoolLit(b) => Ok(Value::Bool(*b)),
            Expr::Var(name) => {
                if let Some(v) = state.vars.get(name) {
                    return Ok(*v);
                }
                match self.kernel.bindings.get(name) {
                    Some(Binding::Scalar(v)) => Ok(*v),
                    _ => Err(self.err(format!("unknown variable '{name}'"))),
                }
            }
            Expr::Un { op, expr } => {
                let v = self.eval(expr, state)?;
                self.ctx.ops(1);
                apply_un(*op, v).map_err(|msg| self.err(msg.into()))
            }
            Expr::Bin { op, lhs, rhs } => {
                // Short-circuit logical operators.
                if *op == BinOp::And {
                    self.ctx.ops(1);
                    let l = self.eval(lhs, state)?.as_bool();
                    return if l {
                        Ok(Value::Bool(self.eval(rhs, state)?.as_bool()))
                    } else {
                        Ok(Value::Bool(false))
                    };
                }
                if *op == BinOp::Or {
                    self.ctx.ops(1);
                    let l = self.eval(lhs, state)?.as_bool();
                    return if l {
                        Ok(Value::Bool(true))
                    } else {
                        Ok(Value::Bool(self.eval(rhs, state)?.as_bool()))
                    };
                }
                let l = self.eval(lhs, state)?;
                let r = self.eval(rhs, state)?;
                self.ctx.ops(1);
                apply_bin(*op, l, r).map_err(|msg| self.err(msg.into()))
            }
            Expr::Index { base, index } => {
                let idx = self.eval(index, state)?.as_i64();
                match self.kernel.bindings.get(base) {
                    Some(&Binding::Buffer { id, elem }) => Ok(load_global(self.ctx, id, elem, idx)),
                    Some(&Binding::Local { id, elem }) => Ok(load_local(self.ctx, id, elem, idx)),
                    _ => Err(self.err(format!("unknown buffer '{base}'"))),
                }
            }
            Expr::Call { name, args } => {
                let builtin = Builtin::from_name(name)
                    .ok_or_else(|| self.err(format!("unknown function '{name}'")))?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, state)?);
                }
                self.ctx.ops(builtin.op_cost());
                Ok(apply_builtin(self.ctx, builtin, &vals))
            }
        }
    }
}

/// OpenCL-style implicit conversion: only `int → float` converts; every
/// other (value, target) combination passes through unchanged.
pub(crate) fn coerce(v: Value, ty: ScalarTy) -> Value {
    match (v, ty) {
        (Value::Int(x), ScalarTy::Float) => Value::Float(x as f32),
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kp_gpu_sim::{Device, DeviceConfig, NdRange};

    fn device() -> Device {
        Device::new(DeviceConfig::test_tiny()).unwrap()
    }

    #[test]
    fn runs_the_doc_example() {
        let mut dev = device();
        let src = dev
            .create_buffer_from("src", &[1.0f32, 2.0, 3.0, 4.0])
            .unwrap();
        let dst = dev.create_buffer::<f32>("dst", 4).unwrap();
        let kernel = IrKernel::from_source(
            "kernel scale(global const float* src, global float* dst, int n) {
                 int i = get_global_id(0);
                 if (i < n) { dst[i] = src[i] * 2.0; }
             }",
            &[
                ("src", ArgValue::Buffer(src)),
                ("dst", ArgValue::Buffer(dst)),
                ("n", ArgValue::Int(4)),
            ],
        )
        .unwrap();
        dev.launch(&kernel, NdRange::new_1d(4, 4).unwrap()).unwrap();
        assert_eq!(
            dev.read_buffer::<f32>(dst).unwrap(),
            vec![2.0, 4.0, 6.0, 8.0]
        );
        assert!(kernel.take_runtime_error().is_none());
    }

    #[test]
    fn loops_and_control_flow_work() {
        let mut dev = device();
        let dst = dev.create_buffer::<i32>("dst", 8).unwrap();
        let kernel = IrKernel::from_source(
            "kernel triangle(global int* dst) {
                 int i = get_global_id(0);
                 int acc = 0;
                 for (int k = 0; k <= i; k = k + 1) { acc = acc + k; }
                 while (acc > 100) { acc = acc - 100; }
                 dst[i] = acc;
             }",
            &[("dst", ArgValue::Buffer(dst))],
        )
        .unwrap();
        dev.launch(&kernel, NdRange::new_1d(8, 4).unwrap()).unwrap();
        let out = dev.read_buffer::<i32>(dst).unwrap();
        assert_eq!(out, vec![0, 1, 3, 6, 10, 15, 21, 28]);
    }

    #[test]
    fn barriers_and_local_memory_cooperate() {
        // Reverse values within a work group through local memory: needs a
        // real barrier between write and read.
        let mut dev = device();
        let buf = dev
            .create_buffer_from("buf", &[0.0f32, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
            .unwrap();
        let kernel = IrKernel::from_source(
            "kernel reverse(global float* buf) {
                 local float tile[4];
                 int li = get_local_id(0);
                 int gi = get_global_id(0);
                 tile[li] = buf[gi];
                 barrier();
                 int n = get_local_size(0);
                 buf[gi] = tile[n - 1 - li];
             }",
            &[("buf", ArgValue::Buffer(buf))],
        )
        .unwrap();
        assert_eq!(kernel.phases(), 2);
        dev.launch(&kernel, NdRange::new_1d(8, 4).unwrap()).unwrap();
        let out = dev.read_buffer::<f32>(buf).unwrap();
        assert_eq!(out, vec![3.0, 2.0, 1.0, 0.0, 7.0, 6.0, 5.0, 4.0]);
    }

    #[test]
    fn variables_persist_across_barriers() {
        let mut dev = device();
        let dst = dev.create_buffer::<i32>("dst", 4).unwrap();
        let kernel = IrKernel::from_source(
            "kernel carry(global int* dst) {
                 int i = get_global_id(0);
                 int x = i * 10;
                 barrier();
                 dst[i] = x + 1;
             }",
            &[("dst", ArgValue::Buffer(dst))],
        )
        .unwrap();
        dev.launch(&kernel, NdRange::new_1d(4, 4).unwrap()).unwrap();
        assert_eq!(dev.read_buffer::<i32>(dst).unwrap(), vec![1, 11, 21, 31]);
    }

    #[test]
    fn local_size_from_parameter_expression() {
        let mut dev = device();
        let dst = dev.create_buffer::<f32>("dst", 4).unwrap();
        let kernel = IrKernel::from_source(
            "kernel k(global float* dst, int tw, int th) {
                 local float tile[18 * 3];
                 int i = get_global_id(0);
                 tile[i] = float(tw * th);
                 barrier();
                 dst[i] = tile[i];
             }",
            &[
                ("dst", ArgValue::Buffer(dst)),
                ("tw", ArgValue::Int(4)),
                ("th", ArgValue::Int(2)),
            ],
        )
        .unwrap();
        assert_eq!(kernel.local_buffers()[0].len, 54);
        dev.launch(&kernel, NdRange::new_1d(4, 4).unwrap()).unwrap();
        assert_eq!(dev.read_buffer::<f32>(dst).unwrap(), vec![8.0; 4]);
    }

    #[test]
    fn binding_errors_are_reported() {
        let src = "kernel k(global float* b, int n) { b[0] = float(n); }";
        let def = crate::parser::parse(src).unwrap().kernels.remove(0);
        // Missing argument.
        assert!(matches!(
            IrKernel::new(def.clone(), &[("n", ArgValue::Int(1))]),
            Err(IrError::Binding(_))
        ));
        // Wrong type.
        assert!(matches!(
            IrKernel::new(
                def.clone(),
                &[("b", ArgValue::Int(0)), ("n", ArgValue::Int(1))]
            ),
            Err(IrError::Binding(_))
        ));
        // Unknown name.
        assert!(matches!(
            IrKernel::new(def, &[("zzz", ArgValue::Int(1))]),
            Err(IrError::Binding(_))
        ));
    }

    #[test]
    fn local_length_const_eval_overflow_is_a_binding_error() {
        // `i64::MIN / -1`, `i64::MIN % -1` and huge products used to panic
        // in debug builds inside eval_const; they must fold to None and
        // surface as a binding error instead.
        let mut dev = device();
        let dst = dev.create_buffer::<f32>("dst", 1).unwrap();
        let cases = [
            ("n / d", i64::MIN, -1),
            ("n % d", i64::MIN, -1),
            ("n * d", i64::MAX / 2, 3),
            ("n + d", i64::MAX, 1),
            ("n - d", i64::MIN, 1),
            ("-(n + d)", i64::MIN, 0),
            ("n / d", 4, 0), // plain division by zero folds to None too
        ];
        for (len_expr, n, d) in cases {
            let src = format!(
                "kernel k(global float* dst, int n, int d) {{
                     local float t[{len_expr}];
                     dst[0] = t[0];
                 }}"
            );
            let def = crate::parser::parse(&src).unwrap().kernels.remove(0);
            let err = IrKernel::new(
                def,
                &[
                    ("dst", ArgValue::Buffer(dst)),
                    ("n", ArgValue::Int(n)),
                    ("d", ArgValue::Int(d)),
                ],
            )
            .unwrap_err();
            assert!(
                matches!(err, IrError::Binding(_)),
                "{len_expr}: expected binding error, got {err:?}"
            );
        }
    }

    #[test]
    fn division_by_zero_is_a_runtime_error() {
        let mut dev = device();
        let dst = dev.create_buffer::<i32>("dst", 4).unwrap();
        let kernel = IrKernel::from_source(
            "kernel k(global int* dst) {
                 int i = get_global_id(0);
                 dst[i] = 1 / (i - i);
             }",
            &[("dst", ArgValue::Buffer(dst))],
        )
        .unwrap();
        let _ = dev.launch(&kernel, NdRange::new_1d(4, 4).unwrap());
        assert!(kernel.take_runtime_error().is_some());
    }

    #[test]
    fn out_of_bounds_becomes_kernel_fault() {
        let mut dev = device();
        let dst = dev.create_buffer::<f32>("dst", 2).unwrap();
        let kernel = IrKernel::from_source(
            "kernel k(global float* dst) {
                 int i = get_global_id(0);
                 dst[i + 10] = 1.0;
             }",
            &[("dst", ArgValue::Buffer(dst))],
        )
        .unwrap();
        let err = dev
            .launch(&kernel, NdRange::new_1d(2, 2).unwrap())
            .unwrap_err();
        assert!(matches!(err, kp_gpu_sim::SimError::KernelFaults { .. }));
    }

    #[test]
    fn negative_index_becomes_kernel_fault() {
        let mut dev = device();
        let dst = dev.create_buffer::<f32>("dst", 4).unwrap();
        let kernel = IrKernel::from_source(
            "kernel k(global float* dst) { dst[0 - 1] = 1.0; }",
            &[("dst", ArgValue::Buffer(dst))],
        )
        .unwrap();
        let err = dev
            .launch(&kernel, NdRange::new_1d(1, 1).unwrap())
            .unwrap_err();
        assert!(matches!(err, kp_gpu_sim::SimError::KernelFaults { .. }));
    }

    #[test]
    fn builtins_compute_correctly() {
        let mut dev = device();
        let dst = dev.create_buffer::<f32>("dst", 6).unwrap();
        let kernel = IrKernel::from_source(
            "kernel k(global float* dst) {
                 dst[0] = sqrt(9.0);
                 dst[1] = min(3.0, 2.0);
                 dst[2] = float(max(3, 7));
                 dst[3] = clamp(5.0, 0.0, 1.0);
                 dst[4] = fabs(-2.5);
                 dst[5] = pow(2.0, 10.0);
             }",
            &[("dst", ArgValue::Buffer(dst))],
        )
        .unwrap();
        dev.launch(&kernel, NdRange::new_1d(1, 1).unwrap()).unwrap();
        let out = dev.read_buffer::<f32>(dst).unwrap();
        assert_eq!(out, vec![3.0, 2.0, 7.0, 1.0, 2.5, 1024.0]);
    }

    #[test]
    fn one_kernel_can_launch_from_several_devices_concurrently() {
        // All per-item state lives in engine-owned per-worker scratch, so
        // a single IrKernel is safe to share across devices and threads —
        // something the old kernel-held state map forbade.
        // Buffer slot ids are allocation-ordered, so the first buffer of
        // every fresh device resolves to the same handle the kernel was
        // bound against.
        let mut seed_dev = device();
        let dst0 = seed_dev.create_buffer::<f32>("dst", 8).unwrap();
        let kernel = IrKernel::from_source(
            "kernel k(global float* dst, int n) {
                 int i = get_global_id(0);
                 int acc = 0;
                 barrier();
                 for (int j = 0; j <= i; j = j + 1) { acc = acc + j; }
                 dst[i] = float(acc * n);
             }",
            &[
                ("dst", crate::ArgValue::Buffer(dst0)),
                ("n", crate::ArgValue::Int(2)),
            ],
        )
        .unwrap();
        let kernel = &kernel;
        let outputs: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut cfg = DeviceConfig::test_tiny();
                        cfg.parallelism = 2;
                        let mut dev = Device::new(cfg).unwrap();
                        let dst = dev.create_buffer::<f32>("dst", 8).unwrap();
                        assert_eq!(dst, dst0);
                        dev.launch(kernel, NdRange::new_1d(8, 4).unwrap()).unwrap();
                        dev.read_buffer::<f32>(dst).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(kernel.take_runtime_error().is_none());
        let expected: Vec<f32> = (0..8).map(|i| (i * (i + 1)) as f32).collect();
        for out in outputs {
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn early_return_skips_later_phases() {
        let mut dev = device();
        let dst = dev.create_buffer_from("dst", &[9.0f32; 4]).unwrap();
        let kernel = IrKernel::from_source(
            "kernel k(global float* dst) {
                 int i = get_global_id(0);
                 if (i > 1) { return; }
                 barrier();
                 dst[i] = 1.0;
             }",
            &[("dst", ArgValue::Buffer(dst))],
        )
        .unwrap();
        dev.launch(&kernel, NdRange::new_1d(4, 4).unwrap()).unwrap();
        assert_eq!(
            dev.read_buffer::<f32>(dst).unwrap(),
            vec![1.0, 1.0, 9.0, 9.0]
        );
    }
}
