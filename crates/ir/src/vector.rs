//! The bytecode VM: work items of one wavefront in lockstep.
//!
//! Dispatching one [`crate::bytecode`] instruction per work item per step
//! would make the `match` over [`Inst`] — not the arithmetic — dominate
//! every launch. This VM instead runs a *wave* of `W` work items of one
//! group through each instruction in lockstep, the CPU analogue of GPU
//! wavefront execution: the engine hands it one simulated wavefront at a
//! time (`W` = the device's `wavefront_size`, fewer in a group's tail
//! wave), so one opcode dispatch covers up to `W` lanes.
//!
//! ## Structure-of-arrays register file
//!
//! Lane register files share one untyped slab per group:
//! `bits[r * group_size + flat]` holds register `r` of the item with flat
//! local id `flat` as a raw `u64` bit pattern, with a parallel one-byte
//! dynamic-type tag array (`Int`/`Float`/`Bool` — PerfCL registers are
//! dynamically retyped by shadow-leaked re-declarations, so the tag is
//! runtime state, not metadata). A wave touching register `r` therefore
//! reads one contiguous slice; values round-trip bit-exactly
//! (`i64 ↔ u64`, `f32::to_bits`/`from_bits` preserve NaN payloads).
//!
//! ## Divergence: minimum-pc reconvergence scheduling
//!
//! Each lane keeps its own program counter. Every step the wave executes
//! the instruction at the **smallest pc among running lanes**, for exactly
//! the lanes sitting at that pc. Lanes that branch elsewhere simply wait;
//! because compiled control flow only jumps backward at loop latches,
//! lanes at a smaller pc catch up and waves reconverge at join points
//! without any explicit mask stack. Each lane's *instruction trace* —
//! and therefore its op charges, its memory access sequence, its faults
//! and its errors — is exactly the trace the item would produce running
//! the same bytecode alone.
//!
//! ## Deactivation masks and bit-identity
//!
//! The active-lane list is the divergence mask: a lane leaves it when it
//! falls off the end of the phase, executes `Return`, or aborts with a
//! runtime error — without desyncing the remaining lanes. Per-lane
//! effects stay bit-identical to the tree-walking interpreter, which the
//! engine runs item by item, because every operation funnels through the
//! same primitives (`apply_bin`, `apply_builtin`, `load_global`, …), op
//! charges accumulate per lane ([`WaveCtx::lane_ops`]), faults collect
//! into per-lane buffers that the engine merges in lane order, and
//! runtime errors are reported back in lane order (the item loop's
//! order). The one caveat is inherited from OpenCL itself: two items of a
//! group touching the same memory location *within one phase* (no
//! barrier between the accesses) is a data race with no defined order on
//! real hardware; lockstep interleaves such races differently than the
//! item loop. Race-free kernels — everything the barrier contract allows
//! — are bit-identical across both execution modes, which the
//! cross-crate `vm_differential` suite asserts at several wavefront
//! widths.

use kp_gpu_sim::WaveCtx;

use crate::ast::ScalarTy;
use crate::bytecode::{CompiledKernel, Inst, Reg, LOOP_GUARD_LIMIT};
use crate::interp::{
    apply_bin, apply_builtin, apply_un, coerce, load_global, load_local, store_global, store_local,
};
use crate::Value;

/// Dynamic-type tag of a register slot: the value is an `i64`.
const TAG_INT: u8 = 0;
/// The value is an `f32` stored via `to_bits` in the low 32 bits.
const TAG_FLOAT: u8 = 1;
/// The value is a bool stored as 0/1.
const TAG_BOOL: u8 = 2;

#[inline]
fn enc(v: Value) -> (u64, u8) {
    match v {
        Value::Int(x) => (x as u64, TAG_INT),
        Value::Float(f) => (u64::from(f.to_bits()), TAG_FLOAT),
        Value::Bool(b) => (u64::from(b), TAG_BOOL),
    }
}

#[inline]
fn dec(bits: u64, tag: u8) -> Value {
    match tag {
        TAG_INT => Value::Int(bits as i64),
        TAG_FLOAT => Value::Float(f32::from_bits(bits as u32)),
        _ => Value::Bool(bits != 0),
    }
}

/// The VM's engine-scratch payload: the structure-of-arrays register
/// slabs of the group the owning worker is currently executing, plus
/// reusable per-wave scheduling scratch. Lives in the engine's
/// per-worker [`kp_gpu_sim::KernelScratch`] exactly like the
/// interpreter's `GroupStates`, so access is lock-free by construction.
#[derive(Debug, Default)]
pub(crate) struct VectorStates {
    /// Raw register bits, laid out `[r * group_size + flat]`.
    bits: Vec<u64>,
    /// Dynamic-type tags, index-aligned with `bits`.
    tags: Vec<u8>,
    /// Per-item retired flag (PerfCL `return` or a runtime error);
    /// persists across phases, reset per item at phase 0.
    returned: Vec<bool>,
    group_size: usize,
    reg_count: usize,
    /// Per-lane program counters of the wave in flight (scratch).
    pcs: Vec<usize>,
    /// Running-lane list — the divergence mask (scratch).
    active: Vec<u32>,
    /// Lanes executing the current instruction (scratch).
    cur: Vec<u32>,
}

impl VectorStates {
    /// Sizes the slabs for a group/kernel geometry. Contents are *not*
    /// initialized here — every item's registers and retired flag are
    /// (re)initialized by [`VectorStates::reset_lanes`] at phase 0, which
    /// also makes the storage safely reusable across groups, launches and
    /// kernels of one worker.
    pub(crate) fn ensure(&mut self, group_size: usize, reg_count: usize) {
        if self.group_size != group_size || self.reg_count != reg_count {
            self.group_size = group_size;
            self.reg_count = reg_count;
            let need = group_size * reg_count;
            self.bits.clear();
            self.bits.resize(need, 0);
            self.tags.clear();
            self.tags.resize(need, TAG_INT);
            self.returned.clear();
            self.returned.resize(group_size, false);
        }
    }

    /// Re-initializes the register slabs and retired flags of one wave's
    /// lanes from the kernel's initial register file (the phase-0 reset).
    pub(crate) fn reset_lanes(&mut self, compiled: &CompiledKernel, base: usize, lanes: usize) {
        let gs = self.group_size;
        for (r, &init) in compiled.reg_init.iter().enumerate() {
            let (b, t) = enc(init);
            let start = r * gs + base;
            self.bits[start..start + lanes].fill(b);
            self.tags[start..start + lanes].fill(t);
        }
        self.returned[base..base + lanes].fill(false);
    }

    // Scalar-granularity accessors, kept for the unit tests below;
    // the execution loops index the slabs directly with hoisted rows.
    #[cfg(test)]
    fn get(&self, r: Reg, flat: usize) -> Value {
        let i = r as usize * self.group_size + flat;
        dec(self.bits[i], self.tags[i])
    }

    #[cfg(test)]
    fn set(&mut self, r: Reg, flat: usize, v: Value) {
        let i = r as usize * self.group_size + flat;
        let (b, t) = enc(v);
        self.bits[i] = b;
        self.tags[i] = t;
    }

    #[cfg(test)]
    fn copy_reg(&mut self, dst: Reg, src: Reg, flat: usize) {
        let s = src as usize * self.group_size + flat;
        let d = dst as usize * self.group_size + flat;
        self.bits[d] = self.bits[s];
        self.tags[d] = self.tags[s];
    }

    /// The register's *dynamic* type — what [`Inst::Assign`] coerces to.
    #[cfg(test)]
    fn ty(&self, r: Reg, flat: usize) -> ScalarTy {
        match self.tags[r as usize * self.group_size + flat] {
            TAG_INT => ScalarTy::Int,
            TAG_FLOAT => ScalarTy::Float,
            _ => ScalarTy::Bool,
        }
    }
}

/// Executes one phase of a compiled kernel for one wave of work items in
/// lockstep. Lane `l` of the wave is the item with flat local id
/// `wave.first_flat_id() + l`.
///
/// Returns the runtime errors raised this phase as `(lane, message)`
/// pairs in **lane order** — the caller reports them in that order so the
/// recorded first error matches the item loop's order exactly. Erroring
/// lanes are retired (their remaining phases are skipped), like the
/// interpreter marks an erroring item `returned`.
pub(crate) fn execute_phase_wave(
    compiled: &CompiledKernel,
    phase: usize,
    states: &mut VectorStates,
    wave: &mut WaveCtx<'_>,
) -> Vec<(u32, String)> {
    let code = compiled.phase(phase);
    let len = code.len();
    let base = wave.first_flat_id();
    let lanes = wave.lanes();
    let mut errors: Vec<(u32, String)> = Vec::new();

    let mut pcs = std::mem::take(&mut states.pcs);
    let mut active = std::mem::take(&mut states.active);
    let mut cur = std::mem::take(&mut states.cur);
    pcs.clear();
    pcs.resize(lanes, 0);
    active.clear();
    for l in 0..lanes {
        if !states.returned[base + l] {
            active.push(l as u32);
        }
    }

    // Two scheduling modes. **Converged** (the overwhelmingly common
    // case — waves start converged and reconverge at joins): every
    // running lane sits at one shared pc, so instructions dispatch
    // straight off `pc` with no per-lane program counters, no min-pc
    // scan and no ready-set rebuild. **Diverged**: lanes split at a
    // non-uniform branch; per-lane pcs drive min-pc scheduling until
    // the lagging lanes catch up, then the wave pops back into the
    // fast path. Both modes execute lanes in ascending lane order, so
    // the per-lane effect order is identical either way.
    let mut pc = 0usize;
    let mut converged = true;
    'sched: while !active.is_empty() {
        if converged {
            while pc < len {
                let inst = code[pc];
                match inst {
                    Inst::Jump { target } => pc = target as usize,
                    Inst::JumpIfFalse { cond, target } | Inst::JumpIfTrue { cond, target } => {
                        let want = matches!(inst, Inst::JumpIfTrue { .. });
                        let row = cond as usize * states.group_size + base;
                        let mut all = true;
                        let mut none = true;
                        for &l in &active {
                            let i = row + l as usize;
                            let taken = dec(states.bits[i], states.tags[i]).as_bool() == want;
                            all &= taken;
                            none &= !taken;
                        }
                        if all {
                            pc = target as usize;
                        } else if none {
                            pc += 1;
                        } else {
                            // The wave splits: materialize per-lane pcs
                            // and fall back to min-pc scheduling.
                            for &l in &active {
                                let i = row + l as usize;
                                let taken = dec(states.bits[i], states.tags[i]).as_bool() == want;
                                pcs[l as usize] = if taken { target as usize } else { pc + 1 };
                            }
                            converged = false;
                            continue 'sched;
                        }
                    }
                    Inst::Return => {
                        for &l in &active {
                            states.returned[base + l as usize] = true;
                        }
                        active.clear();
                    }
                    _ => {
                        if exec_straight(inst, &active, states, wave, base, &mut errors) {
                            active.retain(|&l| !states.returned[base + l as usize]);
                            if active.is_empty() {
                                break;
                            }
                        }
                        pc += 1;
                    }
                }
                if active.is_empty() {
                    break;
                }
            }
            break;
        }

        // Diverged: execute the instruction at the smallest pc among
        // running lanes, for exactly the lanes sitting there.
        let mut min_pc = usize::MAX;
        for &l in &active {
            min_pc = min_pc.min(pcs[l as usize]);
        }
        if min_pc >= len {
            // Every running lane has fallen off the end of the phase.
            break;
        }
        cur.clear();
        for &l in &active {
            if pcs[l as usize] == min_pc {
                cur.push(l);
            }
        }
        if cur.len() == active.len() {
            // Reconverged: all running lanes are at one pc again.
            converged = true;
            pc = min_pc;
            continue;
        }
        let next = min_pc + 1;
        match code[min_pc] {
            Inst::Jump { target } => {
                for &l in &cur {
                    pcs[l as usize] = target as usize;
                }
            }
            inst @ (Inst::JumpIfFalse { cond, target } | Inst::JumpIfTrue { cond, target }) => {
                let want = matches!(inst, Inst::JumpIfTrue { .. });
                let row = cond as usize * states.group_size + base;
                for &l in &cur {
                    let i = row + l as usize;
                    let taken = dec(states.bits[i], states.tags[i]).as_bool() == want;
                    pcs[l as usize] = if taken { target as usize } else { next };
                }
            }
            Inst::Return => {
                for &l in &cur {
                    states.returned[base + l as usize] = true;
                }
                active.retain(|&l| !states.returned[base + l as usize]);
            }
            inst => {
                if exec_straight(inst, &cur, states, wave, base, &mut errors) {
                    active.retain(|&l| !states.returned[base + l as usize]);
                }
                for &l in &cur {
                    pcs[l as usize] = next;
                }
            }
        }
    }

    states.pcs = pcs;
    states.active = active;
    states.cur = cur;
    // Lane order == the item loop's order within this wave's phase.
    errors.sort_by_key(|&(l, _)| l);
    errors
}

/// Lane-wise fast path for [`Inst::Bin`] when every lane's operand
/// types are wave-uniform: all-float or all-int waves run a tight loop
/// on the raw slab bits with no `Value` construction. Only shapes whose
/// [`apply_bin`] result is reproduced *exactly* qualify — float
/// arithmetic and comparisons (never error; same `partial_cmp`
/// tie-break), int `+`/`-`/`*` (the identical Rust operators, so debug
/// overflow behavior matches) and int comparisons. Division, remainder
/// and mixed/bool waves stay on the generic path. Returns whether the
/// instruction was handled.
#[inline]
fn bin_fast(
    op: crate::ast::BinOp,
    states: &mut VectorStates,
    lanes: &[u32],
    d: usize,
    lr: usize,
    rr: usize,
) -> bool {
    use crate::ast::BinOp;
    let mut all_float = true;
    let mut all_int = true;
    for &l in lanes {
        let o = l as usize;
        let (lt, rt) = (states.tags[lr + o], states.tags[rr + o]);
        all_float &= lt == TAG_FLOAT && rt == TAG_FLOAT;
        all_int &= lt == TAG_INT && rt == TAG_INT;
    }
    if all_float {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                for &l in lanes {
                    let o = l as usize;
                    let a = f32::from_bits(states.bits[lr + o] as u32);
                    let b = f32::from_bits(states.bits[rr + o] as u32);
                    let v = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        _ => a / b,
                    };
                    states.bits[d + o] = u64::from(v.to_bits());
                    states.tags[d + o] = TAG_FLOAT;
                }
                true
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                for &l in lanes {
                    let o = l as usize;
                    let a = f32::from_bits(states.bits[lr + o] as u32);
                    let b = f32::from_bits(states.bits[rr + o] as u32);
                    let ord = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Greater);
                    let res = cmp_result(op, ord);
                    states.bits[d + o] = u64::from(res);
                    states.tags[d + o] = TAG_BOOL;
                }
                true
            }
            _ => false,
        }
    } else if all_int {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                for &l in lanes {
                    let o = l as usize;
                    let a = states.bits[lr + o] as i64;
                    let b = states.bits[rr + o] as i64;
                    let v = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        _ => a * b,
                    };
                    states.bits[d + o] = v as u64;
                    states.tags[d + o] = TAG_INT;
                }
                true
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                for &l in lanes {
                    let o = l as usize;
                    let a = states.bits[lr + o] as i64;
                    let b = states.bits[rr + o] as i64;
                    let res = cmp_result(op, a.cmp(&b));
                    states.bits[d + o] = u64::from(res);
                    states.tags[d + o] = TAG_BOOL;
                }
                true
            }
            _ => false,
        }
    } else {
        false
    }
}

/// The comparison decode shared with [`apply_bin`]'s comparison arm.
#[inline]
fn cmp_result(op: crate::ast::BinOp, ord: std::cmp::Ordering) -> bool {
    use crate::ast::BinOp;
    use std::cmp::Ordering;
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        _ => ord != Ordering::Less,
    }
}

/// Executes one straight-line (non-control-flow) instruction for the
/// given lanes, in ascending lane order. Program counters are the
/// caller's concern — a converged wave advances one shared pc, a
/// diverged wave rewrites per-lane pcs — which is what lets the
/// converged fast path skip per-lane pc bookkeeping entirely. Register
/// row offsets are hoisted out of the lane loops so the per-lane work
/// is one add + the operation itself. Returns whether any lane retired
/// (runtime error or guard exhaustion); the caller prunes the active
/// set.
#[inline(always)]
fn exec_straight(
    inst: Inst,
    lanes: &[u32],
    states: &mut VectorStates,
    wave: &mut WaveCtx<'_>,
    base: usize,
    errors: &mut Vec<(u32, String)>,
) -> bool {
    let gs = states.group_size;
    let row = |r: Reg| r as usize * gs + base;
    let mut retired = false;
    match inst {
        Inst::Const { dst, value } => {
            let d = row(dst);
            let (b, t) = enc(value);
            for &l in lanes {
                let i = d + l as usize;
                states.bits[i] = b;
                states.tags[i] = t;
            }
        }
        Inst::Copy { dst, src } => {
            let (d, s) = (row(dst), row(src));
            for &l in lanes {
                let (di, si) = (d + l as usize, s + l as usize);
                states.bits[di] = states.bits[si];
                states.tags[di] = states.tags[si];
            }
        }
        Inst::Promote { dst, src } => {
            let (d, s) = (row(dst), row(src));
            for &l in lanes {
                let (di, si) = (d + l as usize, s + l as usize);
                let v = coerce(dec(states.bits[si], states.tags[si]), ScalarTy::Float);
                let (b, t) = enc(v);
                states.bits[di] = b;
                states.tags[di] = t;
            }
        }
        Inst::Assign { dst, src } => {
            let (d, s) = (row(dst), row(src));
            for &l in lanes {
                let (di, si) = (d + l as usize, s + l as usize);
                let ty = match states.tags[di] {
                    TAG_INT => ScalarTy::Int,
                    TAG_FLOAT => ScalarTy::Float,
                    _ => ScalarTy::Bool,
                };
                let v = coerce(dec(states.bits[si], states.tags[si]), ty);
                let (b, t) = enc(v);
                states.bits[di] = b;
                states.tags[di] = t;
            }
        }
        Inst::AsBool { dst, src } => {
            let (d, s) = (row(dst), row(src));
            for &l in lanes {
                let (di, si) = (d + l as usize, s + l as usize);
                let v = dec(states.bits[si], states.tags[si]).as_bool();
                states.bits[di] = u64::from(v);
                states.tags[di] = TAG_BOOL;
            }
        }
        Inst::Un { op, dst, src } => {
            let (d, s) = (row(dst), row(src));
            for &l in lanes {
                let (di, si) = (d + l as usize, s + l as usize);
                match apply_un(op, dec(states.bits[si], states.tags[si])) {
                    Ok(v) => {
                        let (b, t) = enc(v);
                        states.bits[di] = b;
                        states.tags[di] = t;
                    }
                    Err(msg) => {
                        errors.push((l, msg.to_owned()));
                        states.returned[base + l as usize] = true;
                        retired = true;
                    }
                }
            }
        }
        Inst::Bin { op, dst, lhs, rhs } => {
            let (d, lr, rr) = (row(dst), row(lhs), row(rhs));
            // Wave-uniform operand types take a tight loop with no
            // `Value` round-trip; `apply_bin` stays the reference (and
            // the fallback for mixed/bool waves and erroring ops).
            if bin_fast(op, states, lanes, d, lr, rr) {
                return false;
            }
            for &l in lanes {
                let o = l as usize;
                let a = dec(states.bits[lr + o], states.tags[lr + o]);
                let b = dec(states.bits[rr + o], states.tags[rr + o]);
                match apply_bin(op, a, b) {
                    Ok(v) => {
                        let (bb, t) = enc(v);
                        states.bits[d + o] = bb;
                        states.tags[d + o] = t;
                    }
                    Err(msg) => {
                        errors.push((l, msg.to_owned()));
                        states.returned[base + o] = true;
                        retired = true;
                    }
                }
            }
        }
        Inst::Ops { n } => {
            for &l in lanes {
                wave.lane_ops(l as usize, n);
            }
        }
        Inst::LoadGlobal {
            dst,
            buf,
            elem,
            idx,
        } => {
            let (d, ir) = (row(dst), row(idx));
            for &l in lanes {
                let o = l as usize;
                let i = dec(states.bits[ir + o], states.tags[ir + o]).as_i64();
                let v = wave.with_lane(o, |ctx| load_global(ctx, buf, elem, i));
                let (b, t) = enc(v);
                states.bits[d + o] = b;
                states.tags[d + o] = t;
            }
        }
        Inst::StoreGlobal {
            buf,
            elem,
            idx,
            src,
        } => {
            let (ir, sr) = (row(idx), row(src));
            for &l in lanes {
                let o = l as usize;
                let i = dec(states.bits[ir + o], states.tags[ir + o]).as_i64();
                let v = dec(states.bits[sr + o], states.tags[sr + o]);
                wave.with_lane(o, |ctx| store_global(ctx, buf, elem, i, v));
            }
        }
        Inst::LoadLocal {
            dst,
            arr,
            elem,
            idx,
        } => {
            let (d, ir) = (row(dst), row(idx));
            for &l in lanes {
                let o = l as usize;
                let i = dec(states.bits[ir + o], states.tags[ir + o]).as_i64();
                let v = wave.with_lane(o, |ctx| load_local(ctx, arr, elem, i));
                let (b, t) = enc(v);
                states.bits[d + o] = b;
                states.tags[d + o] = t;
            }
        }
        Inst::StoreLocal {
            arr,
            elem,
            idx,
            src,
        } => {
            let (ir, sr) = (row(idx), row(src));
            for &l in lanes {
                let o = l as usize;
                let i = dec(states.bits[ir + o], states.tags[ir + o]).as_i64();
                let v = dec(states.bits[sr + o], states.tags[sr + o]);
                wave.with_lane(o, |ctx| store_local(ctx, arr, elem, i, v));
            }
        }
        Inst::Call {
            builtin,
            dst,
            args,
            argc,
        } => {
            let d = row(dst);
            for &l in lanes {
                let o = l as usize;
                let mut vals = [Value::Int(0); 3];
                for (slot, &arg) in vals.iter_mut().zip(&args).take(argc as usize) {
                    let i = arg as usize * gs + base + o;
                    *slot = dec(states.bits[i], states.tags[i]);
                }
                let v =
                    wave.with_lane(o, |ctx| apply_builtin(ctx, builtin, &vals[..argc as usize]));
                let (b, t) = enc(v);
                states.bits[d + o] = b;
                states.tags[d + o] = t;
            }
        }
        Inst::GuardReset { guard } => {
            let g = row(guard);
            for &l in lanes {
                let i = g + l as usize;
                states.bits[i] = 0;
                states.tags[i] = TAG_INT;
            }
        }
        Inst::GuardBump { guard, is_for } => {
            let g = row(guard);
            for &l in lanes {
                let i = g + l as usize;
                let n = dec(states.bits[i], states.tags[i]).as_i64() + 1;
                states.bits[i] = n as u64;
                states.tags[i] = TAG_INT;
                if n > LOOP_GUARD_LIMIT {
                    let msg = if is_for {
                        "for loop exceeded iteration guard"
                    } else {
                        "while loop exceeded iteration guard"
                    };
                    errors.push((l, msg.to_owned()));
                    states.returned[base + l as usize] = true;
                    retired = true;
                }
            }
        }
        Inst::Jump { .. } | Inst::JumpIfFalse { .. } | Inst::JumpIfTrue { .. } | Inst::Return => {
            unreachable!("control flow is scheduled by the caller")
        }
    }
    retired
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_encoding_roundtrips_bit_exactly() {
        let cases = [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f32::INFINITY),
            Value::Float(1.5e-42), // subnormal
            Value::Bool(true),
            Value::Bool(false),
        ];
        for v in cases {
            let (b, t) = enc(v);
            let back = dec(b, t);
            match (v, back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, back),
            }
        }
        // NaN payloads survive the trip (PartialEq can't see this).
        let nan = f32::from_bits(0x7fc0_1234);
        let (b, t) = enc(Value::Float(nan));
        match dec(b, t) {
            Value::Float(f) => assert_eq!(f.to_bits(), 0x7fc0_1234),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn slabs_isolate_lanes_and_registers() {
        let mut s = VectorStates::default();
        s.ensure(4, 3);
        s.set(1, 2, Value::Float(2.5));
        s.set(1, 3, Value::Int(7));
        s.set(2, 2, Value::Bool(true));
        assert_eq!(s.get(1, 2), Value::Float(2.5));
        assert_eq!(s.get(1, 3), Value::Int(7));
        assert_eq!(s.get(2, 2), Value::Bool(true));
        assert_eq!(s.get(0, 2), Value::Int(0));
        assert_eq!(s.ty(1, 2), ScalarTy::Float);
        assert_eq!(s.ty(1, 3), ScalarTy::Int);
        s.copy_reg(0, 1, 2);
        assert_eq!(s.get(0, 2), Value::Float(2.5));
    }
}
