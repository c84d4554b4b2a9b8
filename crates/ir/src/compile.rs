//! AST → bytecode lowering for PerfCL kernels.
//!
//! Compilation happens once, at [`crate::IrKernel`] construction, after
//! type checking and argument binding succeeded:
//!
//! * every variable **name** gets one register slot — deliberately one per
//!   name, not one per declaration, mirroring the tree-walking evaluator's
//!   flat `HashMap<String, Value>` (whose shadowed re-declarations write
//!   through to the same storage); assignments use the dynamic-typed
//!   [`Inst::Assign`] so coercion decisions match the interpreter's
//!   run-time behavior exactly;
//! * scalar parameters are pre-loaded into their slots via the initial
//!   register file, buffer/local names are resolved to simulator handles
//!   baked into the load/store instructions, builtins to [`Builtin`]s;
//! * structured control flow lowers to forward/backward jumps, with one
//!   guard register per loop preserving the interpreter's
//!   runaway-iteration limit;
//! * ALU-cost charges (`ops`) are emitted at the same evaluation points
//!   as the tree walk, so per-item operation counts — and therefore the
//!   whole timing model — are identical in both execution modes.
//!
//! Expression temporaries are allocated above all named and guard slots
//! and recycled per statement; the register file is sized by the deepest
//! expression. Lowering cannot fail for kernels that type-check — every
//! [`IrError::Compile`] here is defense in depth.

use std::collections::HashMap;

use crate::ast::ScalarTy;
use crate::ast::{BinOp, Expr, KernelDef, Stmt};
use crate::builtins::Builtin;
use crate::bytecode::{CompiledKernel, Inst, Reg};
use crate::error::IrError;
use crate::interp::Binding;
use crate::Value;

/// Lowers a checked, bound kernel to register bytecode.
///
/// # Errors
///
/// Returns [`IrError::Compile`] only for kernels that would already have
/// failed the type checker (unknown names, misused buffers, barriers in
/// statement position) or that exceed the 65 536-register file.
pub(crate) fn compile(
    def: &KernelDef,
    bindings: &HashMap<String, Binding>,
) -> Result<CompiledKernel, IrError> {
    // Named slots: scalar parameters first (pre-loaded via reg_init), then
    // every distinct declared variable name in syntactic order.
    let mut slots: HashMap<String, Reg> = HashMap::new();
    let mut reg_init: Vec<Value> = Vec::new();
    for p in &def.params {
        if let Some(Binding::Scalar(v)) = bindings.get(&p.name) {
            slots.insert(p.name.clone(), to_reg(reg_init.len())?);
            reg_init.push(*v);
        }
    }
    let param_regs = reg_init.len();
    let mut named_end = reg_init.len();
    let mut loop_count = 0usize;
    collect_names(&def.body, &mut slots, &mut named_end, &mut loop_count)?;
    let temps_base = named_end + loop_count;
    to_reg(temps_base)?; // the whole fixed layout must fit u16

    let mut c = Compiler {
        bindings,
        slots,
        guard_next: named_end,
        temps_base,
        temp_next: temps_base,
        max_regs: temps_base,
        code: Vec::new(),
    };
    let mut phases = Vec::new();
    for phase_stmts in def.phases() {
        c.code = Vec::new();
        for stmt in phase_stmts {
            c.stmt(stmt)?;
        }
        phases.push(std::mem::take(&mut c.code));
    }

    let reg_count = c.max_regs;
    reg_init.resize(reg_count, Value::Int(0));
    Ok(CompiledKernel {
        phases,
        reg_count,
        reg_init,
        first_temp: temps_base,
        param_regs,
    })
}

/// Narrows a slot index to the `u16` register space.
fn to_reg(slot: usize) -> Result<Reg, IrError> {
    Reg::try_from(slot)
        .map_err(|_| IrError::Compile("kernel needs more than 65536 registers".into()))
}

/// Pass 1: assign a slot to every distinct declared name and count loops
/// (each loop owns one guard register).
fn collect_names(
    stmts: &[Stmt],
    slots: &mut HashMap<String, Reg>,
    next: &mut usize,
    loops: &mut usize,
) -> Result<(), IrError> {
    for stmt in stmts {
        match stmt {
            Stmt::Decl { name, .. } => {
                if !slots.contains_key(name) {
                    slots.insert(name.clone(), to_reg(*next)?);
                    *next += 1;
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_names(then_body, slots, next, loops)?;
                collect_names(else_body, slots, next, loops)?;
            }
            Stmt::For { init, body, .. } => {
                *loops += 1;
                collect_names(std::slice::from_ref(init), slots, next, loops)?;
                collect_names(body, slots, next, loops)?;
            }
            Stmt::While { body, .. } => {
                *loops += 1;
                collect_names(body, slots, next, loops)?;
            }
            Stmt::LocalDecl { .. }
            | Stmt::Assign { .. }
            | Stmt::Store { .. }
            | Stmt::Barrier
            | Stmt::Return => {}
        }
    }
    Ok(())
}

struct Compiler<'a> {
    bindings: &'a HashMap<String, Binding>,
    slots: HashMap<String, Reg>,
    /// Next free loop-guard slot (guards live between names and temps).
    guard_next: usize,
    /// First expression-temporary slot.
    temps_base: usize,
    /// Next free temporary (reset per statement).
    temp_next: usize,
    /// High-water mark — the final register-file size.
    max_regs: usize,
    code: Vec<Inst>,
}

impl Compiler<'_> {
    fn emit(&mut self, inst: Inst) {
        self.code.push(inst);
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Emits a branch with a dummy target, returning its index for
    /// [`Compiler::patch`].
    fn emit_branch(&mut self, inst: Inst) -> usize {
        self.code.push(inst);
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Inst::Jump { target }
            | Inst::JumpIfFalse { target, .. }
            | Inst::JumpIfTrue { target, .. } => *target = to,
            other => unreachable!("patching non-branch {other:?}"),
        }
    }

    fn temp(&mut self) -> Result<Reg, IrError> {
        let slot = self.temp_next;
        self.temp_next += 1;
        self.max_regs = self.max_regs.max(self.temp_next);
        to_reg(slot)
    }

    /// Temporaries die at statement boundaries.
    fn reset_temps(&mut self) {
        self.temp_next = self.temps_base;
    }

    fn alloc_guard(&mut self) -> Result<Reg, IrError> {
        let slot = self.guard_next;
        self.guard_next += 1;
        debug_assert!(self.guard_next <= self.temps_base, "guard count miscounted");
        to_reg(slot)
    }

    fn slot(&self, name: &str) -> Result<Reg, IrError> {
        self.slots
            .get(name)
            .copied()
            .ok_or_else(|| IrError::Compile(format!("unknown variable '{name}'")))
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), IrError> {
        match stmt {
            Stmt::Decl { ty, name, init } => {
                self.reset_temps();
                let src = self.expr(init)?;
                let dst = self.slot(name)?;
                // Declarations coerce to the *declared* type; only
                // int → float converts, so non-float targets are copies.
                self.emit(if *ty == ScalarTy::Float {
                    Inst::Promote { dst, src }
                } else {
                    Inst::Copy { dst, src }
                });
                Ok(())
            }
            Stmt::LocalDecl { .. } => Ok(()), // allocated at bind time
            Stmt::Assign { name, value } => {
                self.reset_temps();
                let src = self.expr(value)?;
                let dst = self.slot(name)?;
                // Assignments coerce to the run-time type of the current
                // value — dynamic, matching the interpreter.
                self.emit(Inst::Assign { dst, src });
                Ok(())
            }
            Stmt::Store { base, index, value } => {
                self.reset_temps();
                let idx = self.expr(index)?;
                let src = self.expr(value)?;
                match self.bindings.get(base) {
                    Some(&Binding::Buffer { id, elem }) => {
                        self.emit(Inst::StoreGlobal {
                            buf: id,
                            elem,
                            idx,
                            src,
                        });
                        Ok(())
                    }
                    Some(&Binding::Local { id, elem }) => {
                        self.emit(Inst::StoreLocal {
                            arr: id,
                            elem,
                            idx,
                            src,
                        });
                        Ok(())
                    }
                    _ => Err(IrError::Compile(format!("unknown buffer '{base}'"))),
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.reset_temps();
                self.emit(Inst::Ops { n: 1 });
                let c = self.expr(cond)?;
                let to_else = self.emit_branch(Inst::JumpIfFalse { cond: c, target: 0 });
                for s in then_body {
                    self.stmt(s)?;
                }
                if else_body.is_empty() {
                    let end = self.here();
                    self.patch(to_else, end);
                } else {
                    let to_end = self.emit_branch(Inst::Jump { target: 0 });
                    let else_start = self.here();
                    self.patch(to_else, else_start);
                    for s in else_body {
                        self.stmt(s)?;
                    }
                    let end = self.here();
                    self.patch(to_end, end);
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.stmt(init)?;
                let guard = self.alloc_guard()?;
                self.emit(Inst::GuardReset { guard });
                let loop_start = self.here();
                self.emit(Inst::Ops { n: 1 });
                self.reset_temps();
                let c = self.expr(cond)?;
                let exit = self.emit_branch(Inst::JumpIfFalse { cond: c, target: 0 });
                for s in body {
                    self.stmt(s)?;
                }
                self.stmt(step)?;
                self.emit(Inst::GuardBump {
                    guard,
                    is_for: true,
                });
                self.emit(Inst::Jump { target: loop_start });
                let end = self.here();
                self.patch(exit, end);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let guard = self.alloc_guard()?;
                self.emit(Inst::GuardReset { guard });
                let loop_start = self.here();
                self.emit(Inst::Ops { n: 1 });
                self.reset_temps();
                let c = self.expr(cond)?;
                let exit = self.emit_branch(Inst::JumpIfFalse { cond: c, target: 0 });
                for s in body {
                    self.stmt(s)?;
                }
                self.emit(Inst::GuardBump {
                    guard,
                    is_for: false,
                });
                self.emit(Inst::Jump { target: loop_start });
                let end = self.here();
                self.patch(exit, end);
                Ok(())
            }
            Stmt::Barrier => {
                // Top-level barriers are phase boundaries; the checker
                // rejects nested ones before compilation is reached.
                Err(IrError::Compile("barrier in statement position".into()))
            }
            Stmt::Return => {
                self.emit(Inst::Return);
                Ok(())
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Reg, IrError> {
        match e {
            Expr::IntLit(v) => self.constant(Value::Int(*v)),
            Expr::FloatLit(v) => self.constant(Value::Float(*v)),
            Expr::BoolLit(b) => self.constant(Value::Bool(*b)),
            // Reads resolve straight to the name's slot — no copy. Nothing
            // can write a named slot mid-statement (the language has no
            // assignment expressions), so the alias is safe.
            Expr::Var(name) => self.slot(name),
            Expr::Un { op, expr } => {
                let src = self.expr(expr)?;
                self.emit(Inst::Ops { n: 1 });
                let dst = self.temp()?;
                self.emit(Inst::Un { op: *op, dst, src });
                Ok(dst)
            }
            Expr::Bin { op, lhs, rhs } if matches!(op, BinOp::And | BinOp::Or) => {
                // Short-circuit: the result register is seeded with the
                // operator's absorbing value and only overwritten when the
                // right-hand side actually evaluates.
                self.emit(Inst::Ops { n: 1 });
                let l = self.expr(lhs)?;
                let dst = self.temp()?;
                let (seed, short) = if *op == BinOp::And {
                    let seed = Inst::Const {
                        dst,
                        value: Value::Bool(false),
                    };
                    (seed, Inst::JumpIfFalse { cond: l, target: 0 })
                } else {
                    let seed = Inst::Const {
                        dst,
                        value: Value::Bool(true),
                    };
                    (seed, Inst::JumpIfTrue { cond: l, target: 0 })
                };
                self.emit(seed);
                let skip = self.emit_branch(short);
                let r = self.expr(rhs)?;
                // The interpreter materializes Bool(rhs.as_bool()); a raw
                // copy would differ when a shadow-leaked value left a
                // number in a statically-bool name.
                self.emit(Inst::AsBool { dst, src: r });
                let end = self.here();
                self.patch(skip, end);
                Ok(dst)
            }
            Expr::Bin { op, lhs, rhs } => {
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                self.emit(Inst::Ops { n: 1 });
                let dst = self.temp()?;
                self.emit(Inst::Bin {
                    op: *op,
                    dst,
                    lhs: l,
                    rhs: r,
                });
                Ok(dst)
            }
            Expr::Index { base, index } => {
                let idx = self.expr(index)?;
                let dst = self.temp()?;
                match self.bindings.get(base) {
                    Some(&Binding::Buffer { id, elem }) => {
                        self.emit(Inst::LoadGlobal {
                            dst,
                            buf: id,
                            elem,
                            idx,
                        });
                        Ok(dst)
                    }
                    Some(&Binding::Local { id, elem }) => {
                        self.emit(Inst::LoadLocal {
                            dst,
                            arr: id,
                            elem,
                            idx,
                        });
                        Ok(dst)
                    }
                    _ => Err(IrError::Compile(format!("unknown buffer '{base}'"))),
                }
            }
            Expr::Call { name, args } => {
                let builtin = Builtin::from_name(name)
                    .ok_or_else(|| IrError::Compile(format!("unknown function '{name}'")))?;
                if args.len() > 3 {
                    return Err(IrError::Compile(format!(
                        "'{name}' called with {} arguments",
                        args.len()
                    )));
                }
                let mut arg_regs = [0 as Reg; 3];
                for (slot, a) in arg_regs.iter_mut().zip(args) {
                    *slot = self.expr(a)?;
                }
                let cost = builtin.op_cost();
                if cost > 0 {
                    self.emit(Inst::Ops { n: cost });
                }
                let dst = self.temp()?;
                self.emit(Inst::Call {
                    builtin,
                    dst,
                    args: arg_regs,
                    argc: args.len() as u8,
                });
                Ok(dst)
            }
        }
    }

    fn constant(&mut self, value: Value) -> Result<Reg, IrError> {
        let dst = self.temp()?;
        self.emit(Inst::Const { dst, value });
        Ok(dst)
    }
}

#[cfg(test)]
mod tests {
    use crate::{ArgValue, IrKernel};
    use kp_gpu_sim::{Device, DeviceConfig, ExecMode, NdRange};

    /// Runs a one-buffer kernel on the bytecode VM and on the tree walk
    /// and returns (compiled, interpreted) outputs. The VM runs in waves
    /// of 3 lanes, so groups of 4 items end in a 1-lane tail wave.
    fn run_both(src: &str, n: usize) -> (Vec<f32>, Vec<f32>) {
        let run = |mode: ExecMode| {
            let mut cfg = DeviceConfig::test_tiny();
            cfg.exec_mode = mode;
            cfg.wavefront_size = 3;
            let mut dev = Device::new(cfg).unwrap();
            let dst = dev.create_buffer::<f32>("dst", n).unwrap();
            let kernel = IrKernel::from_source(src, &[("dst", ArgValue::Buffer(dst))]).unwrap();
            dev.launch(&kernel, NdRange::new_1d(n, n.min(4)).unwrap())
                .unwrap();
            assert!(kernel.take_runtime_error().is_none());
            dev.read_buffer::<f32>(dst).unwrap()
        };
        (run(ExecMode::Compiled), run(ExecMode::Interpreted))
    }

    #[test]
    fn shadowed_declarations_match_the_tree_walk() {
        // The interpreter's variable map is flat: an inner-scope
        // re-declaration (even with a different type) writes through to
        // the outer variable and the new value *leaks* past the scope
        // end. The compiler reproduces this by assigning one register per
        // name and typing assignments dynamically.
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            float x = 1.0;
            if (i > 1) { int x = 7; }
            x = x + 1;
            dst[i] = float(x);
        }";
        let (compiled, interpreted) = run_both(src, 4);
        assert_eq!(compiled, interpreted);
        assert_eq!(compiled, vec![2.0, 2.0, 8.0, 8.0]);
    }

    #[test]
    fn short_circuit_skips_rhs_side_effects() {
        // `10 / i` must not run (and not divide by zero) when `i > 0` is
        // already false.
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            if (i > 0 && 10 / i > 3) { dst[i] = 1.0; } else { dst[i] = 0.0; }
        }";
        let (compiled, interpreted) = run_both(src, 4);
        assert_eq!(compiled, interpreted);
        assert_eq!(compiled, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn short_circuit_rhs_normalizes_shadow_leaked_values_to_bool() {
        // Regression: a shadow-leaked re-declaration can leave Int(7) in a
        // statically-bool name; the interpreter evaluates `y && x` to
        // Bool(x.as_bool()), so the VM must normalize the rhs too — a raw
        // register copy made `(y && x) == true` compare 7 == 1.
        let src = "kernel k(global float* dst) {
            bool x = true;
            int i = get_global_id(0);
            if (i < 1) { int x = 7; }
            bool y = true;
            if ((y && x) == true) { dst[i] = 1.0; } else { dst[i] = 0.0; }
        }";
        let (compiled, interpreted) = run_both(src, 4);
        assert_eq!(compiled, interpreted);
        assert_eq!(compiled, vec![1.0; 4]);
    }

    #[test]
    fn loops_compile_to_backward_jumps() {
        let src = "kernel k(global float* dst) {
            int i = get_global_id(0);
            int acc = 0;
            for (int k = 0; k <= i; k = k + 1) { acc = acc + k; }
            while (acc > 5) { acc = acc - 5; }
            dst[i] = float(acc);
        }";
        let (compiled, interpreted) = run_both(src, 8);
        assert_eq!(compiled, interpreted);
        // Triangle numbers mod-ish 5: 0,1,3,6→1,10→0(5→0? 10-5=5>5 false→5)…
        assert_eq!(compiled[0..4], [0.0, 1.0, 3.0, 1.0]);
    }

    #[test]
    fn compiled_layout_is_flat_and_small() {
        let mut dev = Device::new(DeviceConfig::test_tiny()).unwrap();
        let dst = dev.create_buffer::<f32>("dst", 4).unwrap();
        let kernel = IrKernel::from_source(
            "kernel k(global float* dst, int n) {
                 int i = get_global_id(0);
                 barrier();
                 if (i < n) { dst[i] = float(i * n); }
             }",
            &[("dst", ArgValue::Buffer(dst)), ("n", ArgValue::Int(4))],
        )
        .unwrap();
        let compiled = kernel.compiled();
        assert_eq!(compiled.phase_count(), 2);
        assert!(!compiled.is_empty());
        // Registers: n + i + a handful of expression temps.
        assert!(compiled.reg_count() >= 2);
        assert!(compiled.reg_count() < 12, "{}", compiled.reg_count());
        // Parameter slots are pre-loaded in the initial register file.
        assert_eq!(compiled.fresh_regs().len(), compiled.reg_count());
        assert!(compiled.fresh_regs().contains(&crate::Value::Int(4)));
    }

    #[test]
    fn trivial_kernel_compiles_to_return_only() {
        let kernel = IrKernel::from_source("kernel k() { return; }", &[]).unwrap();
        let compiled = kernel.compiled();
        assert_eq!(compiled.phase_count(), 1);
        assert_eq!(compiled.len(), 1);
        assert_eq!(compiled.reg_count(), 0);
        assert!(compiled.fresh_regs().is_empty());
    }
}
