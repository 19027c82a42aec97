//! The FIR interpreter, with cycle accounting, coverage collection,
//! `setjmp`/`longjmp` continuations, and fuel-bounded execution.

use fir::{BinOp, Inst, Module, Operand, Terminator};

use crate::cost::CostModel;
use crate::cov::CovMap;
use crate::crash::{Crash, CrashKind};
use crate::decoded::{ChainComp, ChainTail, DFunc, DOp, DecodedImage};
use crate::hostcalls::{self, HostRet};
use crate::os::Os;
use crate::process::{Frame, JmpCtx, Process, MAX_CALL_DEPTH, STACK_MAX_BYTES, STACK_TOP};

/// How a [`Machine::call`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallResult {
    /// The function returned normally.
    Return(i64),
    /// The target called `exit(code)`.
    Exited(i32),
    /// The target called the ClosureX exit hook — control unwound to the
    /// persistent-loop harness without process teardown (paper §4.1).
    ExitHooked(i32),
    /// The process crashed.
    Crashed(Crash),
    /// The fuel budget ran out (hang / infinite loop).
    OutOfFuel,
}

impl CallResult {
    /// The crash, if this result is one.
    pub fn crash(&self) -> Option<&Crash> {
        match self {
            CallResult::Crashed(c) => Some(c),
            _ => None,
        }
    }
}

/// Outcome + resource accounting of one interpreted call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutcome {
    /// How the call ended.
    pub result: CallResult,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub insts: u64,
}

/// Host context handed to every interpreted call: the OS (filesystem +
/// cost model), the coverage map, and an optional path-sensitive edge trace
/// (used by the control-flow-equivalence checker, paper §6.1.4).
#[derive(Debug)]
pub struct HostCtx<'a> {
    /// The OS this process runs under.
    pub os: &'a mut Os,
    /// Shared-memory coverage bitmap (AFL's `__afl_area_ptr` analog).
    pub cov: &'a mut CovMap,
    /// Optional path-sensitive trace of folded edge indices.
    pub trace: Option<&'a mut Vec<u16>>,
    /// Cost model snapshot (copied from the OS at construction).
    pub cost: CostModel,
}

impl<'a> HostCtx<'a> {
    /// Build a context over an OS and coverage map.
    pub fn new(os: &'a mut Os, cov: &'a mut CovMap) -> Self {
        let cost = os.cost.clone();
        HostCtx {
            os,
            cov,
            trace: None,
            cost,
        }
    }

    /// Same, with a path trace sink attached.
    pub fn with_trace(os: &'a mut Os, cov: &'a mut CovMap, trace: &'a mut Vec<u16>) -> Self {
        let cost = os.cost.clone();
        HostCtx {
            os,
            cov,
            trace: Some(trace),
            cost,
        }
    }

    /// Does `path` exist in the simulated filesystem?
    pub fn fs_exists(&self, path: &str) -> bool {
        self.os.fs.exists(path)
    }

    /// Read a file from the simulated filesystem.
    pub fn fs_read(&self, path: &str) -> Option<&[u8]> {
        self.os.fs.read_file(path)
    }
}

/// The interpreter for one module. Stateless: all mutable state lives in
/// the [`Process`] and [`HostCtx`], so one machine can drive many processes
/// (exactly how one kernel runs many forked children).
///
/// A machine built with [`Machine::new`] always runs the reference
/// tree-walking interpreter. [`Machine::with_image`] attaches a
/// [`DecodedImage`] and runs the pre-decoded fast engine instead — unless
/// the thread is pinned to the reference path (see [`crate::engine`]).
/// Both engines produce bit-identical simulated behavior.
#[derive(Debug, Clone, Copy)]
pub struct Machine<'m> {
    module: &'m Module,
    image: Option<&'m DecodedImage>,
}

impl<'m> Machine<'m> {
    /// Create a machine for `module` (reference engine).
    pub fn new(module: &'m Module) -> Self {
        Machine {
            module,
            image: None,
        }
    }

    /// Create a machine running `module` through its pre-decoded `image`.
    ///
    /// The caller is responsible for `image` being the lowering of
    /// `module` (executors pair them via [`DecodedImage::cached`]).
    pub fn with_image(module: &'m Module, image: &'m DecodedImage) -> Self {
        debug_assert_eq!(image.funcs.len(), module.functions.len());
        Machine {
            module,
            image: Some(image),
        }
    }

    /// The module this machine executes.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Call `func(args...)` inside process `p`, bounded by `fuel`
    /// instructions.
    ///
    /// # Panics
    /// Panics if `func` does not exist in the module (harness bug, not a
    /// target bug).
    pub fn call(
        &self,
        p: &mut Process,
        ctx: &mut HostCtx<'_>,
        func: &str,
        args: &[i64],
        fuel: u64,
    ) -> CallOutcome {
        let fid = self
            .module
            .function_id(func)
            .unwrap_or_else(|| panic!("no such function: {func}"));
        let f = &self.module.functions[fid.0 as usize];
        let base = push_window(&mut p.regs, f.num_regs, f.num_params, args);
        let base_depth = p.frames.len();
        p.frames.push(Frame {
            func: fid,
            block: 0,
            ip: 0,
            base,
            saved_sp: p.sp,
            ret_dst: None,
        });
        let out = match self.image {
            Some(img) if !crate::engine::reference_engine() => {
                self.run_decoded(img, p, ctx, base_depth, fuel)
            }
            _ => self.run(p, ctx, base_depth, fuel),
        };
        // On abnormal endings, unwind any frames this call pushed and
        // restore the stack pointer (the OS would reclaim them; the
        // ClosureX harness relies on this for stack restoration).
        if let Some(entry) = p.frames.get(base_depth) {
            p.sp = entry.saved_sp;
            unwind_to(p, base_depth);
        }
        out
    }

    #[allow(clippy::too_many_lines)]
    fn run(
        &self,
        p: &mut Process,
        ctx: &mut HostCtx<'_>,
        base_depth: usize,
        fuel: u64,
    ) -> CallOutcome {
        let mut cycles: u64 = 0;
        let mut insts: u64 = 0;
        let inst_cost = ctx.cost.inst;

        macro_rules! finish {
            ($result:expr) => {
                return CallOutcome {
                    result: $result,
                    cycles,
                    insts,
                }
            };
        }

        loop {
            if insts >= fuel {
                finish!(CallResult::OutOfFuel);
            }
            let depth = p.frames.len();
            debug_assert!(depth > base_depth);
            let (fidx, block, ip) = {
                let fr = p.frames.last().expect("non-empty frame stack");
                (fr.func.0 as usize, fr.block, fr.ip)
            };
            let func = &self.module.functions[fidx];
            let fname = func.name.as_str();
            let blk = &func.blocks[block as usize];

            insts += 1;
            cycles += inst_cost;

            if ip < blk.insts.len() {
                // Advance ip first so calls/setjmp resume after this inst.
                p.frames.last_mut().expect("frame").ip = ip + 1;
                let inst = &blk.insts[ip];
                match inst {
                    Inst::Const { dst, value } => {
                        *reg_mut(p, dst.0) = *value;
                    }
                    Inst::Mov { dst, src } => {
                        let v = read_op(p, *src);
                        *reg_mut(p, dst.0) = v;
                    }
                    Inst::Bin { op, dst, lhs, rhs } => {
                        let a = read_op(p, *lhs);
                        let b = read_op(p, *rhs);
                        let v = match eval_bin(*op, a, b) {
                            Ok(v) => v,
                            Err(detail) => finish!(CallResult::Crashed(Crash {
                                kind: CrashKind::DivisionByZero,
                                function: fname.to_string(),
                                block,
                                detail,
                            })),
                        };
                        *reg_mut(p, dst.0) = v;
                    }
                    Inst::Cmp {
                        pred,
                        dst,
                        lhs,
                        rhs,
                    } => {
                        let v = i64::from(pred.eval(read_op(p, *lhs), read_op(p, *rhs)));
                        *reg_mut(p, dst.0) = v;
                    }
                    Inst::Select {
                        dst,
                        cond,
                        if_true,
                        if_false,
                    } => {
                        let v = if read_op(p, *cond) != 0 {
                            read_op(p, *if_true)
                        } else {
                            read_op(p, *if_false)
                        };
                        *reg_mut(p, dst.0) = v;
                    }
                    Inst::Load { dst, addr, width } => {
                        let a = read_op(p, *addr) as u64;
                        if let Err(c) = p.check_access(a, width.bytes(), false, fname, block) {
                            finish!(CallResult::Crashed(c));
                        }
                        let v = p.mem.read_uint(a, width.bytes()) as i64;
                        *reg_mut(p, dst.0) = v;
                    }
                    Inst::Store { addr, value, width } => {
                        let a = read_op(p, *addr) as u64;
                        let v = read_op(p, *value);
                        if let Err(c) = p.check_access(a, width.bytes(), true, fname, block) {
                            finish!(CallResult::Crashed(c));
                        }
                        p.mem.write_uint(a, v as u64, width.bytes());
                    }
                    Inst::AddrOf { dst, global } => {
                        let a = p.globals.addr_of(*global).expect("verified global") as i64;
                        *reg_mut(p, dst.0) = a;
                    }
                    Inst::Alloca { dst, size } => {
                        let rounded = u64::from(*size).div_ceil(16) * 16;
                        if p.sp < STACK_TOP - STACK_MAX_BYTES + rounded {
                            finish!(CallResult::Crashed(Crash {
                                kind: CrashKind::StackOverflow,
                                function: fname.to_string(),
                                block,
                                detail: format!("alloca of {size} bytes"),
                            }));
                        }
                        p.sp -= rounded;
                        let a = p.sp as i64;
                        *reg_mut(p, dst.0) = a;
                    }
                    Inst::Call { dst, callee, args } => {
                        let argv: Vec<i64> = args.iter().map(|a| read_op(p, *a)).collect();
                        // Fast path: coverage probe.
                        if callee == "__cov_edge" {
                            let id = *argv.first().unwrap_or(&0) as u16;
                            let idx = p.cov_state.edge(id, ctx.cov);
                            if let Some(tr) = ctx.trace.as_deref_mut() {
                                tr.push(idx);
                            }
                            continue;
                        }
                        if callee == "setjmp" {
                            let buf = *argv.first().unwrap_or(&0) as u64;
                            let jc = JmpCtx {
                                depth: p.frames.len(),
                                block,
                                ip: ip + 1,
                                sp: p.sp,
                                dst: *dst,
                            };
                            p.jmpbufs.insert(buf, jc);
                            if let Some(d) = dst {
                                *reg_mut(p, d.0) = 0;
                            }
                            cycles += 4;
                            continue;
                        }
                        if callee == "longjmp" {
                            let buf = *argv.first().unwrap_or(&0) as u64;
                            let val = *argv.get(1).unwrap_or(&1);
                            let Some(jc) = p.jmpbufs.get(&buf).cloned() else {
                                finish!(CallResult::Crashed(Crash {
                                    kind: CrashKind::BadLongjmp,
                                    function: fname.to_string(),
                                    block,
                                    detail: format!("no jmp_buf at {buf:#x}"),
                                }));
                            };
                            if jc.depth > p.frames.len() || jc.depth <= base_depth {
                                finish!(CallResult::Crashed(Crash {
                                    kind: CrashKind::BadLongjmp,
                                    function: fname.to_string(),
                                    block,
                                    detail: "jmp_buf frame no longer live".into(),
                                }));
                            }
                            unwind_to(p, jc.depth);
                            let fr = p.frames.last_mut().expect("frame");
                            fr.block = jc.block;
                            fr.ip = jc.ip;
                            if let Some(d) = jc.dst {
                                *reg_mut(p, d.0) = if val == 0 { 1 } else { val };
                            }
                            p.sp = jc.sp;
                            cycles += 8;
                            continue;
                        }
                        // Module-defined function?
                        if let Some(callee_id) = self.module.function_id(callee) {
                            if p.frames.len() >= MAX_CALL_DEPTH {
                                finish!(CallResult::Crashed(Crash {
                                    kind: CrashKind::StackOverflow,
                                    function: fname.to_string(),
                                    block,
                                    detail: format!("call depth {}", p.frames.len()),
                                }));
                            }
                            let cf = &self.module.functions[callee_id.0 as usize];
                            let base = push_window(&mut p.regs, cf.num_regs, cf.num_params, &argv);
                            cycles += 2; // call/ret overhead
                            p.frames.push(Frame {
                                func: callee_id,
                                block: 0,
                                ip: 0,
                                base,
                                saved_sp: p.sp,
                                ret_dst: *dst,
                            });
                            continue;
                        }
                        // Host call.
                        match hostcalls::dispatch(
                            callee,
                            &argv,
                            p,
                            ctx,
                            (fname, block),
                            &mut cycles,
                        ) {
                            Ok(Some(HostRet::Val(v))) => {
                                if let Some(d) = dst {
                                    *reg_mut(p, d.0) = v;
                                }
                            }
                            Ok(Some(HostRet::Void)) => {}
                            Ok(Some(HostRet::Exit(code))) => {
                                finish!(CallResult::Exited(code));
                            }
                            Ok(Some(HostRet::ExitHook(code))) => {
                                finish!(CallResult::ExitHooked(code));
                            }
                            Ok(None) => {
                                finish!(CallResult::Crashed(Crash {
                                    kind: CrashKind::Abort,
                                    function: fname.to_string(),
                                    block,
                                    detail: format!("unresolved symbol '{callee}'"),
                                }));
                            }
                            Err(c) => finish!(CallResult::Crashed(c)),
                        }
                    }
                }
            } else {
                // Terminator.
                match &blk.term {
                    Terminator::Ret(v) => {
                        let val = v.map(|o| read_op(p, o)).unwrap_or(0);
                        let fr = p.frames.pop().expect("frame");
                        p.sp = fr.saved_sp;
                        p.regs.truncate(fr.base);
                        if p.frames.len() == base_depth {
                            finish!(CallResult::Return(val));
                        }
                        if let Some(d) = fr.ret_dst {
                            *reg_mut(p, d.0) = val;
                        }
                    }
                    Terminator::Br(t) => {
                        let fr = p.frames.last_mut().expect("frame");
                        fr.block = t.0;
                        fr.ip = 0;
                    }
                    Terminator::CondBr {
                        cond,
                        if_true,
                        if_false,
                    } => {
                        let c = read_op(p, *cond) != 0;
                        let fr = p.frames.last_mut().expect("frame");
                        fr.block = if c { if_true.0 } else { if_false.0 };
                        fr.ip = 0;
                    }
                    Terminator::Switch {
                        value,
                        cases,
                        default,
                    } => {
                        let v = read_op(p, *value);
                        let target = cases
                            .iter()
                            .find(|(cv, _)| *cv == v)
                            .map(|(_, b)| *b)
                            .unwrap_or(*default);
                        let fr = p.frames.last_mut().expect("frame");
                        fr.block = target.0;
                        fr.ip = 0;
                    }
                    Terminator::Unreachable => {
                        finish!(CallResult::Crashed(Crash {
                            kind: CrashKind::UnreachableExecuted,
                            function: fname.to_string(),
                            block,
                            detail: String::new(),
                        }));
                    }
                }
            }
        }
    }

    /// The decoded-bytecode execution loop, over the register stack
    /// lifted out of `p` for the duration of the call.
    fn run_decoded(
        &self,
        img: &DecodedImage,
        p: &mut Process,
        ctx: &mut HostCtx<'_>,
        base_depth: usize,
        fuel: u64,
    ) -> CallOutcome {
        let mut stack = std::mem::take(&mut p.regs);
        let out = Self::run_decoded_on(img, p, &mut stack, ctx, base_depth, fuel);
        p.regs = stack;
        out
    }

    /// The body of [`Machine::run_decoded`].
    ///
    /// Mirrors [`Machine::run`] transition-for-transition: identical fuel
    /// checks, cycle charges, crash sites, and frame/stack manipulation —
    /// only the *representation* of the program differs. Frames keep
    /// source `(block, ip)` coordinates so `setjmp` records, checkpoints,
    /// and the reference engine all interoperate; the loop keeps a local
    /// flat `pc`, function and register window (`regs`, the top frame's
    /// slice of `stack`), and touches `p.frames` only at frame-stack
    /// transitions (call, return, `setjmp`, `longjmp`), which are the only
    /// points the reference engine's eager coordinate updates are
    /// observable.
    #[allow(clippy::too_many_lines)]
    fn run_decoded_on(
        img: &DecodedImage,
        p: &mut Process,
        stack: &mut Vec<i64>,
        ctx: &mut HostCtx<'_>,
        base_depth: usize,
        fuel: u64,
    ) -> CallOutcome {
        let mut cycles: u64 = 0;
        let mut insts: u64 = 0;
        let inst_cost = ctx.cost.inst;

        macro_rules! finish {
            ($result:expr) => {
                return CallOutcome {
                    result: $result,
                    cycles,
                    insts,
                }
            };
        }

        // Stream select: the optimized stream unless this thread holds a
        // `DecodeOptGuard`, else the plain 1:1 stream. Both resume from
        // the same source coordinates.
        let funcs: &[DFunc] = if crate::engine::decode_opt() {
            &img.opt_funcs
        } else {
            &img.funcs
        };

        let (mut df, mut pc, mut base) = {
            let fr = p.frames.last().expect("non-empty frame stack");
            let df = &funcs[fr.func.0 as usize];
            // Optimized streams may use scratch registers beyond the
            // source file (inline windows); grow the entry frame, the top
            // of the stack, to fit. Registers are host-only state, and
            // every frame this call touches is popped or truncated before
            // `call` returns, so the growth never reaches a checkpoint.
            if stack.len() < fr.base + df.num_regs as usize {
                stack.resize(fr.base + df.num_regs as usize, 0);
            }
            (df, df.src_pc(fr.block, fr.ip), fr.base)
        };
        let mut regs: &mut [i64] = &mut stack[base..];

        loop {
            if insts >= fuel {
                finish!(CallResult::OutOfFuel);
            }
            debug_assert!(p.frames.len() > base_depth);
            debug_assert_eq!(p.frames.last().map(|f| f.base), Some(base));
            // Bulk-charge the eliminated instructions owed before this op
            // (dead decoded temps, folded fallthrough branches), clamped
            // so an OutOfFuel exec reports insts == fuel exactly like the
            // reference stopping mid-run. Eliminated work is register- or
            // layout-only, so charging is its entire observable effect.
            let pre = df.pre[pc as usize];
            if pre != 0 {
                let take = (fuel - insts).min(u64::from(pre));
                insts += take;
                cycles += take * inst_cost;
                if insts >= fuel {
                    finish!(CallResult::OutOfFuel);
                }
            }
            insts += 1;
            cycles += inst_cost;

            macro_rules! crash_here {
                ($kind:expr, $detail:expr) => {
                    finish!(CallResult::Crashed(Crash {
                        kind: $kind,
                        function: funcs[df.fname_of[pc as usize] as usize].name.clone(),
                        block: df.block_of[pc as usize],
                        detail: $detail,
                    }))
                };
            }
            // Per-component charge inside fused superinstructions — the
            // same loop-top fuel check the reference engine performs
            // between the component instructions.
            macro_rules! charge {
                () => {
                    if insts >= fuel {
                        finish!(CallResult::OutOfFuel);
                    }
                    insts += 1;
                    cycles += inst_cost;
                };
            }
            // The memory check at this pc's site: the inlined verdict, and
            // the out-of-line crash only when it rejects the access.
            macro_rules! check_mem {
                ($a:expr, $bytes:expr, $is_write:expr) => {
                    if !p.access_ok($a, $bytes, $is_write) {
                        finish!(CallResult::Crashed(access_crash(
                            p, funcs, df, pc, $a, $bytes, $is_write
                        )));
                    }
                };
            }
            macro_rules! set_reg {
                ($dst:expr, $v:expr) => {
                    regs[$dst as usize] = $v
                };
            }

            match &df.ops[pc as usize] {
                DOp::Const { dst, value } => {
                    set_reg!(*dst, *value);
                    pc += 1;
                }
                DOp::Mov { dst, src } => {
                    regs[*dst as usize] = reg_read(regs, *src);
                    pc += 1;
                }
                DOp::Bin { op, dst, lhs, rhs } => {
                    let a = reg_read(regs, *lhs);
                    let b = reg_read(regs, *rhs);
                    match eval_bin(*op, a, b) {
                        Ok(v) => regs[*dst as usize] = v,
                        Err(detail) => crash_here!(CrashKind::DivisionByZero, detail),
                    }
                    pc += 1;
                }
                DOp::Cmp {
                    pred,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let v = i64::from(pred.eval(reg_read(regs, *lhs), reg_read(regs, *rhs)));
                    regs[*dst as usize] = v;
                    pc += 1;
                }
                DOp::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let v = if reg_read(regs, *cond) != 0 {
                        reg_read(regs, *if_true)
                    } else {
                        reg_read(regs, *if_false)
                    };
                    regs[*dst as usize] = v;
                    pc += 1;
                }
                DOp::Load { dst, addr, bytes } => {
                    let a = reg_read(regs, *addr) as u64;
                    check_mem!(a, *bytes, false);
                    let v = p.mem.read_uint(a, *bytes) as i64;
                    set_reg!(*dst, v);
                    pc += 1;
                }
                DOp::Store { addr, value, bytes } => {
                    let a = reg_read(regs, *addr) as u64;
                    let v = reg_read(regs, *value);
                    check_mem!(a, *bytes, true);
                    p.mem.write_uint(a, v as u64, *bytes);
                    pc += 1;
                }
                DOp::AddrOf { dst, global } => {
                    let a = p.globals.addr_of(*global).expect("verified global") as i64;
                    set_reg!(*dst, a);
                    pc += 1;
                }
                DOp::Alloca { dst, size, rounded } => {
                    if p.sp < STACK_TOP - STACK_MAX_BYTES + rounded {
                        crash_here!(CrashKind::StackOverflow, format!("alloca of {size} bytes"));
                    }
                    p.sp -= rounded;
                    set_reg!(*dst, p.sp as i64);
                    pc += 1;
                }
                DOp::CovEdge { id } => {
                    let id = reg_read(regs, *id) as u16;
                    let idx = p.cov_state.edge(id, ctx.cov);
                    if let Some(tr) = ctx.trace.as_deref_mut() {
                        tr.push(idx);
                    }
                    pc += 1;
                }
                DOp::Setjmp {
                    dst,
                    buf,
                    ret_block,
                    ret_ip,
                } => {
                    let buf = reg_read(regs, *buf) as u64;
                    // The decode-time-embedded *source* coordinates of the
                    // next instruction — valid whatever this stream's
                    // layout is, and identical to what the reference
                    // engine records.
                    p.jmpbufs.insert(
                        buf,
                        JmpCtx {
                            depth: p.frames.len(),
                            block: *ret_block,
                            ip: *ret_ip as usize,
                            sp: p.sp,
                            dst: *dst,
                        },
                    );
                    if let Some(d) = dst {
                        set_reg!(d.0, 0);
                    }
                    cycles += 4;
                    pc += 1;
                }
                DOp::Longjmp { buf, val } => {
                    let buf = reg_read(regs, *buf) as u64;
                    let val = reg_read(regs, *val);
                    let Some(jc) = p.jmpbufs.get(&buf).cloned() else {
                        crash_here!(CrashKind::BadLongjmp, format!("no jmp_buf at {buf:#x}"));
                    };
                    if jc.depth > p.frames.len() || jc.depth <= base_depth {
                        crash_here!(CrashKind::BadLongjmp, "jmp_buf frame no longer live".into());
                    }
                    if let Some(cut) = p.frames.get(jc.depth) {
                        stack.truncate(cut.base);
                    }
                    p.frames.truncate(jc.depth);
                    let top = p.frames.last_mut().expect("frame");
                    top.block = jc.block;
                    top.ip = jc.ip;
                    df = &funcs[top.func.0 as usize];
                    base = top.base;
                    regs = &mut stack[base..];
                    if let Some(d) = jc.dst {
                        regs[d.0 as usize] = if val == 0 { 1 } else { val };
                    }
                    p.sp = jc.sp;
                    cycles += 8;
                    pc = df.src_pc(jc.block, jc.ip);
                }
                DOp::CallFn {
                    dst,
                    callee,
                    args,
                    ret_block,
                    ret_ip,
                } => {
                    if p.frames.len() >= MAX_CALL_DEPTH {
                        crash_here!(
                            CrashKind::StackOverflow,
                            format!("call depth {}", p.frames.len())
                        );
                    }
                    let cf = &funcs[callee.0 as usize];
                    // The callee's window goes on top of the caller's:
                    // zeroed, then the parameters copied in from below.
                    let caller = base;
                    base = stack.len();
                    stack.resize(base + cf.num_regs as usize, 0);
                    let (below, window) = stack.split_at_mut(base);
                    for (i, a) in args.iter().take(cf.num_params as usize).enumerate() {
                        window[i] = reg_read(&below[caller..], *a);
                    }
                    regs = &mut stack[base..];
                    cycles += 2; // call/ret overhead

                    // Sync the caller's resume coordinates (decode-time
                    // embedded source coordinates) before pushing.
                    let top = p.frames.last_mut().expect("frame");
                    top.block = *ret_block;
                    top.ip = *ret_ip as usize;
                    p.frames.push(Frame {
                        func: *callee,
                        block: 0,
                        ip: 0,
                        base,
                        saved_sp: p.sp,
                        ret_dst: *dst,
                    });
                    df = cf;
                    pc = df.src_pc(0, 0);
                }
                DOp::CallHost { dst, host, args } => {
                    // Hostcall argv lives on the stack: simulated-libc
                    // arities are tiny, and a heap Vec per call is the
                    // single biggest non-dispatch cost in string/memory
                    // heavy targets.
                    let mut buf = [0i64; 8];
                    let heap: Vec<i64>;
                    let argv: &[i64] = if args.len() <= buf.len() {
                        for (i, a) in args.iter().enumerate() {
                            buf[i] = reg_read(regs, *a);
                        }
                        &buf[..args.len()]
                    } else {
                        heap = args.iter().map(|a| reg_read(regs, *a)).collect();
                        &heap
                    };
                    let site = (
                        funcs[df.fname_of[pc as usize] as usize].name.as_str(),
                        df.block_of[pc as usize],
                    );
                    match hostcalls::dispatch_id(*host, argv, p, ctx, site, &mut cycles) {
                        Ok(Some(HostRet::Val(v))) => {
                            if let Some(d) = dst {
                                set_reg!(d.0, v);
                            }
                        }
                        Ok(Some(HostRet::Void)) => {}
                        Ok(Some(HostRet::Exit(code))) => finish!(CallResult::Exited(code)),
                        Ok(Some(HostRet::ExitHook(code))) => {
                            finish!(CallResult::ExitHooked(code))
                        }
                        Ok(None) => unreachable!("pre-bound host calls always resolve"),
                        Err(c) => finish!(CallResult::Crashed(c)),
                    }
                    pc += 1;
                }
                DOp::CallUnknown { name } => {
                    crash_here!(CrashKind::Abort, format!("unresolved symbol '{name}'"));
                }
                DOp::Ret(v) => {
                    let val = v.map(|o| reg_read(regs, o)).unwrap_or(0);
                    let fr = p.frames.pop().expect("frame");
                    p.sp = fr.saved_sp;
                    stack.truncate(fr.base);
                    if p.frames.len() == base_depth {
                        finish!(CallResult::Return(val));
                    }
                    let top = p.frames.last().expect("frame");
                    df = &funcs[top.func.0 as usize];
                    pc = df.src_pc(top.block, top.ip);
                    base = top.base;
                    regs = &mut stack[base..];
                    if let Some(d) = fr.ret_dst {
                        set_reg!(d.0, val);
                    }
                }
                DOp::Br(t) => pc = *t,
                DOp::CondBr {
                    cond,
                    if_true,
                    if_false,
                } => {
                    pc = if reg_read(regs, *cond) != 0 {
                        *if_true
                    } else {
                        *if_false
                    };
                }
                DOp::Switch {
                    value,
                    cases,
                    default,
                } => {
                    let v = reg_read(regs, *value);
                    pc = cases
                        .iter()
                        .find(|(cv, _)| *cv == v)
                        .map(|(_, t)| *t)
                        .unwrap_or(*default);
                }
                DOp::Unreachable => {
                    crash_here!(CrashKind::UnreachableExecuted, String::new());
                }

                // ----- optimized-stream ops -----
                DOp::CovEdgeK { id } => {
                    let idx = p.cov_state.edge(*id, ctx.cov);
                    if let Some(tr) = ctx.trace.as_deref_mut() {
                        tr.push(idx);
                    }
                    pc += 1;
                }
                DOp::CovCmpBr {
                    id,
                    pred,
                    dst,
                    lhs,
                    rhs,
                    if_true,
                    if_false,
                } => {
                    // Component 1 (charged at loop top): coverage probe.
                    let idx = p.cov_state.edge(*id, ctx.cov);
                    if let Some(tr) = ctx.trace.as_deref_mut() {
                        tr.push(idx);
                    }
                    // Component 2: compare.
                    charge!();
                    let v = i64::from(pred.eval(reg_read(regs, *lhs), reg_read(regs, *rhs)));
                    regs[*dst as usize] = v;
                    // Component 3: conditional branch.
                    charge!();
                    pc = if v != 0 { *if_true } else { *if_false };
                }
                DOp::CmpBr {
                    pred,
                    dst,
                    lhs,
                    rhs,
                    if_true,
                    if_false,
                } => {
                    let v = i64::from(pred.eval(reg_read(regs, *lhs), reg_read(regs, *rhs)));
                    regs[*dst as usize] = v;
                    charge!();
                    pc = if v != 0 { *if_true } else { *if_false };
                }
                DOp::BinBr {
                    op,
                    dst,
                    lhs,
                    rhs,
                    target,
                } => {
                    let a = reg_read(regs, *lhs);
                    let b = reg_read(regs, *rhs);
                    match eval_bin(*op, a, b) {
                        Ok(v) => regs[*dst as usize] = v,
                        Err(detail) => crash_here!(CrashKind::DivisionByZero, detail),
                    }
                    charge!();
                    pc = *target;
                }
                DOp::MovBr { dst, src, target } => {
                    regs[*dst as usize] = reg_read(regs, *src);
                    charge!();
                    pc = *target;
                }
                DOp::StoreBr {
                    addr,
                    value,
                    bytes,
                    target,
                } => {
                    let a = reg_read(regs, *addr) as u64;
                    let v = reg_read(regs, *value);
                    check_mem!(a, *bytes, true);
                    p.mem.write_uint(a, v as u64, *bytes);
                    charge!();
                    pc = *target;
                }
                DOp::BinLoad {
                    op,
                    bdst,
                    lhs,
                    rhs,
                    ldst,
                    addr,
                    bytes,
                } => {
                    let a = reg_read(regs, *lhs);
                    let b = reg_read(regs, *rhs);
                    match eval_bin(*op, a, b) {
                        Ok(v) => regs[*bdst as usize] = v,
                        Err(detail) => crash_here!(CrashKind::DivisionByZero, detail),
                    }
                    charge!();
                    // The address reads the just-written register when the
                    // fusion was an addr-compute + load pair.
                    let a = reg_read(regs, *addr) as u64;
                    check_mem!(a, *bytes, false);
                    let v = p.mem.read_uint(a, *bytes) as i64;
                    set_reg!(*ldst, v);
                    pc += 1;
                }
                DOp::LoadBin {
                    ldst,
                    addr,
                    bytes,
                    op,
                    bdst,
                    lhs,
                    rhs,
                } => {
                    let a = reg_read(regs, *addr) as u64;
                    check_mem!(a, *bytes, false);
                    let v = p.mem.read_uint(a, *bytes) as i64;
                    set_reg!(*ldst, v);
                    charge!();
                    let a = reg_read(regs, *lhs);
                    let b = reg_read(regs, *rhs);
                    match eval_bin(*op, a, b) {
                        Ok(v) => regs[*bdst as usize] = v,
                        Err(detail) => crash_here!(CrashKind::DivisionByZero, detail),
                    }
                    pc += 1;
                }
                DOp::BrChain { target, skipped } => {
                    // Bulk-charge the folded jump-only blocks, clamped at
                    // the fuel boundary: the reference engine would stop
                    // inside the chain with nothing else observable.
                    let take = (fuel - insts).min(u64::from(*skipped));
                    insts += take;
                    cycles += take * inst_cost;
                    if take < u64::from(*skipped) {
                        finish!(CallResult::OutOfFuel);
                    }
                    pc = *target;
                }
                DOp::SwitchTable {
                    value,
                    base,
                    table,
                    default,
                } => {
                    let v = reg_read(regs, *value);
                    let off = v.wrapping_sub(*base) as u64;
                    pc = if off < table.len() as u64 {
                        table[off as usize]
                    } else {
                        *default
                    };
                }
                DOp::InlineEnter {
                    callee: _,
                    args,
                    base,
                    nregs,
                    sp_slot,
                    entry,
                } => {
                    // Same order as the reference `Call` path: depth check
                    // (and its crash detail) before the 2-cycle overhead.
                    if p.frames.len() >= MAX_CALL_DEPTH {
                        crash_here!(
                            CrashKind::StackOverflow,
                            format!("call depth {}", p.frames.len())
                        );
                    }
                    cycles += 2; // call/ret overhead
                    let sp = p.sp as i64;
                    let b = *base as usize;
                    regs[b..b + *nregs as usize].fill(0);
                    // Argument operands index below `base`, so reading
                    // after the zeroing matches the reference's fresh
                    // callee frame.
                    for (i, a) in args.iter().enumerate() {
                        let v = reg_read(regs, *a);
                        regs[b + i] = v;
                    }
                    regs[*sp_slot as usize] = sp;
                    pc = *entry;
                }
                DOp::InlineRet {
                    val,
                    dst,
                    sp_slot,
                    resume,
                } => {
                    let v = val.map(|o| reg_read(regs, o)).unwrap_or(0);
                    let sp = regs[*sp_slot as usize] as u64;
                    if let Some(d) = dst {
                        regs[*d as usize] = v;
                    }
                    p.sp = sp;
                    pc = *resume;
                }
                DOp::Chain { comps, tail, rest } => {
                    // Component 0's charge is the loop-top charge already
                    // applied; nothing a component does reads the frame
                    // stack.
                    macro_rules! run {
                        ($checked:literal) => {
                            run_chain::<$checked>(
                                comps,
                                tail,
                                *rest,
                                pc,
                                regs,
                                p,
                                ctx,
                                fuel,
                                inst_cost,
                                &mut insts,
                                &mut cycles,
                            )
                        };
                    }
                    let run = if fuel - insts >= *rest {
                        run!(false)
                    } else {
                        run!(true)
                    };
                    match run {
                        Ok(next) => pc = next,
                        Err(ChainStop::OutOfFuel) => finish!(CallResult::OutOfFuel),
                        Err(ChainStop::DivTrap(detail)) => {
                            crash_here!(CrashKind::DivisionByZero, detail)
                        }
                        Err(ChainStop::Access {
                            addr,
                            len,
                            is_write,
                        }) => finish!(CallResult::Crashed(access_crash(
                            p, funcs, df, pc, addr, len, is_write
                        ))),
                    }
                }
            }
        }
    }
}

/// Why a [`DOp::Chain`] stopped before handing control on.
enum ChainStop {
    OutOfFuel,
    /// A division trapped, with its crash detail.
    DivTrap(String),
    /// [`Process::access_ok`] rejected a load or store.
    Access {
        addr: u64,
        len: u64,
        is_write: bool,
    },
}

/// Run a [`DOp::Chain`]'s components and tail after the head's charge;
/// returns the next pc.
///
/// `CHECKED` is the reference order: each later component bulk-charges
/// its `pre` (clamped) and then itself behind a fuel check, so the fuel
/// position of every effect matches the reference. The unchecked form
/// runs only when the remaining fuel covers `rest`, where none of those
/// checks can fail: it charges `rest` once at the end, or, when
/// component `k` traps, the prefix through `k` — the same `insts` and
/// `cycles` the checked form reaches.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_chain<const CHECKED: bool>(
    comps: &[ChainComp],
    tail: &ChainTail,
    rest: u64,
    pc: u32,
    regs: &mut [i64],
    p: &mut Process,
    ctx: &mut HostCtx<'_>,
    fuel: u64,
    inst_cost: u64,
    insts: &mut u64,
    cycles: &mut u64,
) -> Result<u32, ChainStop> {
    macro_rules! charge {
        ($pre:expr) => {
            if CHECKED {
                let pre = u64::from($pre);
                if pre != 0 {
                    let take = (fuel - *insts).min(pre);
                    *insts += take;
                    *cycles += take * inst_cost;
                    if take < pre {
                        return Err(ChainStop::OutOfFuel);
                    }
                }
                if *insts >= fuel {
                    return Err(ChainStop::OutOfFuel);
                }
                *insts += 1;
                *cycles += inst_cost;
            }
        };
    }
    macro_rules! trap {
        ($k:expr, $stop:expr) => {{
            if !CHECKED {
                let prefix: u64 = comps[1..=$k].iter().map(|c| u64::from(c.pre()) + 1).sum();
                *insts += prefix;
                *cycles += prefix * inst_cost;
            }
            return Err($stop);
        }};
    }
    macro_rules! bin {
        ($k:expr, $op:expr, $dst:expr, $a:expr, $b:expr) => {
            match eval_bin($op, $a, $b) {
                Ok(v) => regs[$dst as usize] = v,
                Err(detail) => trap!($k, ChainStop::DivTrap(detail)),
            }
        };
    }
    macro_rules! load {
        ($k:expr, $dst:expr, $addr:expr, $bytes:expr) => {{
            let (a, len) = ($addr, u64::from($bytes));
            if !p.access_ok(a, len, false) {
                trap!(
                    $k,
                    ChainStop::Access {
                        addr: a,
                        len,
                        is_write: false
                    }
                );
            }
            regs[$dst as usize] = p.mem.read_uint(a, len) as i64;
        }};
    }
    macro_rules! store {
        ($k:expr, $addr:expr, $value:expr, $bytes:expr) => {{
            let (a, len) = ($addr, u64::from($bytes));
            if !p.access_ok(a, len, true) {
                trap!(
                    $k,
                    ChainStop::Access {
                        addr: a,
                        len,
                        is_write: true
                    }
                );
            }
            p.mem.write_uint(a, $value as u64, len);
        }};
    }
    for (k, comp) in comps.iter().enumerate() {
        if CHECKED && k > 0 {
            charge!(comp.pre());
        }
        match *comp {
            ChainComp::Const { dst, value, .. } | ChainComp::MovImm { dst, value, .. } => {
                regs[dst as usize] = value;
            }
            ChainComp::Mov { dst, src, .. } => regs[dst as usize] = regs[src as usize],
            ChainComp::AddRR { dst, a, b, .. } => {
                regs[dst as usize] = regs[a as usize].wrapping_add(regs[b as usize]);
            }
            ChainComp::AddRI { dst, a, imm, .. } | ChainComp::AddIR { dst, imm, b: a, .. } => {
                regs[dst as usize] = regs[a as usize].wrapping_add(imm);
            }
            ChainComp::MulRI { dst, a, imm, .. } => {
                regs[dst as usize] = regs[a as usize].wrapping_mul(imm);
            }
            ChainComp::AndRI { dst, a, imm, .. } => regs[dst as usize] = regs[a as usize] & imm,
            ChainComp::SRemRK { dst, a, k, .. } => regs[dst as usize] = regs[a as usize] % k,
            ChainComp::BinRR { op, dst, a, b, .. } => {
                bin!(k, op, dst, regs[a as usize], regs[b as usize]);
            }
            ChainComp::BinRI {
                op, dst, a, imm, ..
            } => bin!(k, op, dst, regs[a as usize], imm),
            ChainComp::BinIR {
                op, dst, imm, b, ..
            } => bin!(k, op, dst, imm, regs[b as usize]),
            ChainComp::BinII { op, dst, x, y, .. } => bin!(k, op, dst, x, y),
            ChainComp::CmpRR {
                pred, dst, a, b, ..
            } => {
                regs[dst as usize] = i64::from(pred.eval(regs[a as usize], regs[b as usize]));
            }
            ChainComp::CmpRI {
                pred, dst, a, imm, ..
            } => {
                regs[dst as usize] = i64::from(pred.eval(regs[a as usize], imm));
            }
            ChainComp::CmpIR {
                pred, dst, imm, b, ..
            } => {
                regs[dst as usize] = i64::from(pred.eval(imm, regs[b as usize]));
            }
            ChainComp::CmpII {
                pred, dst, x, y, ..
            } => {
                regs[dst as usize] = i64::from(pred.eval(x, y));
            }
            ChainComp::Select { dst, ref ops, .. } => {
                let [cond, if_true, if_false] = **ops;
                regs[dst as usize] = if reg_read(regs, cond) != 0 {
                    reg_read(regs, if_true)
                } else {
                    reg_read(regs, if_false)
                };
            }
            ChainComp::Cov { id, .. } => {
                let idx = p.cov_state.edge(id, ctx.cov);
                if let Some(tr) = ctx.trace.as_deref_mut() {
                    tr.push(idx);
                }
            }
            ChainComp::LoadR {
                bytes, dst, addr, ..
            } => load!(k, dst, regs[addr as usize] as u64, bytes),
            ChainComp::LoadI {
                bytes, dst, addr, ..
            } => load!(k, dst, addr, bytes),
            ChainComp::StoreRR {
                bytes, addr, value, ..
            } => store!(k, regs[addr as usize] as u64, regs[value as usize], bytes),
            ChainComp::StoreRI {
                bytes, addr, value, ..
            } => store!(k, regs[addr as usize] as u64, value, bytes),
            ChainComp::StoreIR {
                bytes, addr, value, ..
            } => store!(k, addr, regs[value as usize], bytes),
            ChainComp::StoreII {
                bytes, addr, value, ..
            } => store!(k, addr, value, bytes),
            ChainComp::AddrOf { dst, global, .. } => {
                regs[dst as usize] = p.globals.addr_of(global).expect("verified global") as i64;
            }
        }
    }
    let next = match tail {
        ChainTail::Next => pc + 1,
        ChainTail::Br { pre, target } => {
            // The absorbed branch: its own eliminated predecessors first,
            // then the branch charge.
            charge!(*pre);
            *target
        }
        ChainTail::CondBr {
            pre,
            cond,
            if_true,
            if_false,
        } => {
            charge!(*pre);
            if reg_read(regs, *cond) != 0 {
                *if_true
            } else {
                *if_false
            }
        }
    };
    if !CHECKED {
        *insts += rest;
        *cycles += rest * inst_cost;
    }
    Ok(next)
}

/// The crash a rejected access reports at `pc`'s site in `df`.
#[cold]
#[inline(never)]
fn access_crash(
    p: &Process,
    funcs: &[DFunc],
    df: &DFunc,
    pc: u32,
    addr: u64,
    len: u64,
    is_write: bool,
) -> Crash {
    let fname = &funcs[df.fname_of[pc as usize] as usize].name;
    p.check_access_slow(addr, len, is_write, fname, df.block_of[pc as usize])
        .expect_err("the access fast path rejected this access")
}

/// Push a zeroed window of `num_regs` registers on the register stack,
/// holding the first `num_params` of `args`; returns its base.
fn push_window(regs: &mut Vec<i64>, num_regs: u32, num_params: u32, args: &[i64]) -> usize {
    let base = regs.len();
    regs.resize(base + num_regs as usize, 0);
    for (i, a) in args.iter().take(num_params as usize).enumerate() {
        regs[base + i] = *a;
    }
    base
}

/// Pop every frame above `depth`, and their register windows.
fn unwind_to(p: &mut Process, depth: usize) {
    if let Some(fr) = p.frames.get(depth) {
        p.regs.truncate(fr.base);
    }
    p.frames.truncate(depth);
}

/// Register `r` of the top frame.
fn reg_mut(p: &mut Process, r: u32) -> &mut i64 {
    let base = p.frames.last().expect("frame").base;
    &mut p.regs[base + r as usize]
}

/// An operand's value in the top frame.
fn read_op(p: &Process, o: Operand) -> i64 {
    match o {
        Operand::Reg(r) => p.regs[p.frames.last().expect("frame").base + r.0 as usize],
        Operand::Imm(v) => v,
    }
}

/// [`read_op`] against a register window: the decoded loop keeps the top
/// frame's window in a local and resolves every generic operand through
/// this.
#[inline]
fn reg_read(regs: &[i64], o: Operand) -> i64 {
    match o {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v,
    }
}

/// Evaluate one binary operation with the interpreter's exact semantics:
/// wrapping arithmetic, shift counts masked to 6 bits, and division traps
/// (`/ 0`, `i64::MIN / -1`) reported as crash detail strings. Public so
/// compiler-side constant folding (`passes::optimize::fold_bin`) can be
/// differentially tested against the engine it must agree with.
#[inline(always)]
pub fn eval_bin(op: BinOp, a: i64, b: i64) -> Result<i64, String> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::UDiv => {
            if b == 0 {
                return Err(div_trap(op, a, b));
            }
            ((a as u64) / (b as u64)) as i64
        }
        BinOp::SDiv => {
            if b == 0 || (a == i64::MIN && b == -1) {
                return Err(div_trap(op, a, b));
            }
            a / b
        }
        BinOp::URem => {
            if b == 0 {
                return Err(div_trap(op, a, b));
            }
            ((a as u64) % (b as u64)) as i64
        }
        BinOp::SRem => {
            if b == 0 || (a == i64::MIN && b == -1) {
                return Err(div_trap(op, a, b));
            }
            a % b
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::LShr => ((a as u64) >> (b as u32 & 63)) as i64,
        BinOp::AShr => a >> (b as u32 & 63),
    })
}

/// The crash detail of a trapping division, kept out of line so
/// [`eval_bin`]'s arithmetic inlines into the dispatch loops.
#[cold]
#[inline(never)]
fn div_trap(op: BinOp, a: i64, b: i64) -> String {
    match op {
        BinOp::UDiv => format!("{a} udiv 0"),
        BinOp::SDiv => format!("{a} sdiv {b}"),
        BinOp::URem => format!("{a} urem 0"),
        BinOp::SRem => format!("{a} srem {b}"),
        _ => unreachable!("only divisions trap"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::ModuleBuilder;
    use fir::{CmpPred, Global, Operand};

    const FUEL: u64 = 1_000_000;

    fn run(module: &Module, func: &str, args: &[i64]) -> (CallResult, Process) {
        let mut os = Os::new();
        let (mut p, _) = os.spawn(module);
        let mut cov = CovMap::new();
        let mut ctx = HostCtx::new(&mut os, &mut cov);
        let m = Machine::new(module);
        let out = m.call(&mut p, &mut ctx, func, args, FUEL);
        (out.result, p)
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function_with_params("f", 2);
        let (a, b) = (f.param(0), f.param(1));
        let s = f.add(Operand::Reg(a), Operand::Reg(b));
        let m2 = f.mul(Operand::Reg(s), Operand::Imm(3));
        f.ret(Some(Operand::Reg(m2)));
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[4, 6]);
        assert_eq!(r, CallResult::Return(30));
    }

    #[test]
    fn division_by_zero_crashes() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function_with_params("f", 2);
        let d = f.bin(
            BinOp::SDiv,
            Operand::Reg(f.param(0)),
            Operand::Reg(f.param(1)),
        );
        f.ret(Some(Operand::Reg(d)));
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[10, 0]);
        assert_eq!(r.crash().unwrap().kind, CrashKind::DivisionByZero);
        let (r, _) = run(&m, "f", &[i64::MIN, -1]);
        assert_eq!(r.crash().unwrap().kind, CrashKind::DivisionByZero);
        let (r, _) = run(&m, "f", &[10, 2]);
        assert_eq!(r, CallResult::Return(5));
    }

    #[test]
    fn loop_with_branches() {
        // sum 0..n
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function_with_params("sum", 1);
        let n = f.param(0);
        let acc = f.const_i64(0);
        let i = f.const_i64(0);
        let hdr = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        f.br(hdr);
        f.switch_to(hdr);
        let c = f.cmp(CmpPred::SLt, Operand::Reg(i), Operand::Reg(n));
        f.cond_br(Operand::Reg(c), body, done);
        f.switch_to(body);
        let a2 = f.add(Operand::Reg(acc), Operand::Reg(i));
        f.mov_to(acc, Operand::Reg(a2));
        let i2 = f.add(Operand::Reg(i), Operand::Imm(1));
        f.mov_to(i, Operand::Reg(i2));
        f.br(hdr);
        f.switch_to(done);
        f.ret(Some(Operand::Reg(acc)));
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "sum", &[10]);
        assert_eq!(r, CallResult::Return(45));
    }

    #[test]
    fn nested_calls_and_return_values() {
        let mut mb = ModuleBuilder::new("m");
        let mut g = mb.function_with_params("double", 1);
        let d = g.add(Operand::Reg(g.param(0)), Operand::Reg(g.param(0)));
        g.ret(Some(Operand::Reg(d)));
        g.finish();
        let mut f = mb.function_with_params("f", 1);
        let r1 = f.call("double", vec![Operand::Reg(f.param(0))]);
        let r2 = f.call("double", vec![Operand::Reg(r1)]);
        f.ret(Some(Operand::Reg(r2)));
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[5]);
        assert_eq!(r, CallResult::Return(20));
    }

    #[test]
    fn recursion_overflow_detected() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function_with_params("inf", 1);
        let r = f.call("inf", vec![Operand::Reg(f.param(0))]);
        f.ret(Some(Operand::Reg(r)));
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "inf", &[1]);
        assert_eq!(r.crash().unwrap().kind, CrashKind::StackOverflow);
    }

    #[test]
    fn fuel_exhaustion_on_infinite_loop() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("spin");
        let l = f.new_block();
        f.br(l);
        f.switch_to(l);
        f.br(l);
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "spin", &[]);
        assert_eq!(r, CallResult::OutOfFuel);
    }

    #[test]
    fn globals_load_store_and_null_crash() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global(Global::zeroed("counter", 8));
        let mut f = mb.function("bump");
        let a = f.addr_of(g);
        let v = f.load64(Operand::Reg(a));
        let v2 = f.add(Operand::Reg(v), Operand::Imm(1));
        f.store64(Operand::Reg(a), Operand::Reg(v2));
        f.ret(Some(Operand::Reg(v2)));
        f.finish();
        let mut f = mb.function("nullread");
        let v = f.load64(Operand::Imm(0));
        f.ret(Some(Operand::Reg(v)));
        f.finish();
        let m = mb.finish();
        let mut os = Os::new();
        let (mut p, _) = os.spawn(&m);
        let mut cov = CovMap::new();
        let mut ctx = HostCtx::new(&mut os, &mut cov);
        let machine = Machine::new(&m);
        assert_eq!(
            machine.call(&mut p, &mut ctx, "bump", &[], FUEL).result,
            CallResult::Return(1)
        );
        assert_eq!(
            machine.call(&mut p, &mut ctx, "bump", &[], FUEL).result,
            CallResult::Return(2),
            "global state persists across calls in one process"
        );
        let r = machine.call(&mut p, &mut ctx, "nullread", &[], FUEL);
        assert_eq!(r.result.crash().unwrap().kind, CrashKind::NullPtrDeref);
    }

    #[test]
    fn alloca_stack_discipline() {
        let mut mb = ModuleBuilder::new("m");
        let mut inner = mb.function("inner");
        let buf = inner.alloca(64);
        inner.store64(Operand::Reg(buf), Operand::Imm(7));
        let v = inner.load64(Operand::Reg(buf));
        inner.ret(Some(Operand::Reg(v)));
        inner.finish();
        let mut f = mb.function("outer");
        let a = f.call("inner", vec![]);
        let b = f.call("inner", vec![]);
        let s = f.add(Operand::Reg(a), Operand::Reg(b));
        f.ret(Some(Operand::Reg(s)));
        f.finish();
        let m = mb.finish();
        let (r, p) = run(&m, "outer", &[]);
        assert_eq!(r, CallResult::Return(14));
        assert_eq!(p.sp, STACK_TOP, "stack fully unwound after return");
    }

    #[test]
    fn exit_hostcall_terminates() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f");
        f.call_void("exit", vec![Operand::Imm(3)]);
        f.unreachable();
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[]);
        assert_eq!(r, CallResult::Exited(3));
    }

    #[test]
    fn exit_hook_unwinds_instead() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f");
        f.call_void("closurex_exit_hook", vec![Operand::Imm(3)]);
        f.unreachable();
        f.finish();
        let m = mb.finish();
        let (r, p) = run(&m, "f", &[]);
        assert_eq!(r, CallResult::ExitHooked(3));
        assert!(p.frames.is_empty(), "frames unwound to harness");
    }

    #[test]
    fn setjmp_longjmp_roundtrip() {
        // main: if (setjmp(buf)) return 99; helper(); return 1;
        // helper: longjmp(buf, 7)  →  main returns... 99 path takes value 7?
        // We return the setjmp value to observe it.
        let mut mb = ModuleBuilder::new("m");
        let buf_g = mb.global(Global::zeroed("jbuf", 64));
        let mut h = mb.function("helper");
        let a = h.addr_of(buf_g);
        h.call_void("longjmp", vec![Operand::Reg(a), Operand::Imm(7)]);
        h.unreachable();
        h.finish();
        let mut f = mb.function("main");
        let a = f.addr_of(buf_g);
        let v = f.call("setjmp", vec![Operand::Reg(a)]);
        let taken = f.new_block();
        let normal = f.new_block();
        f.cond_br(Operand::Reg(v), taken, normal);
        f.switch_to(taken);
        f.ret(Some(Operand::Reg(v)));
        f.switch_to(normal);
        f.call_void("helper", vec![]);
        f.ret(Some(Operand::Imm(1)));
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "main", &[]);
        assert_eq!(r, CallResult::Return(7), "longjmp value arrives at setjmp");
    }

    #[test]
    fn longjmp_without_setjmp_crashes() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f");
        f.call_void("longjmp", vec![Operand::Imm(0x1234), Operand::Imm(1)]);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[]);
        assert_eq!(r.crash().unwrap().kind, CrashKind::BadLongjmp);
    }

    #[test]
    fn malloc_free_via_hostcalls() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f");
        let ptr = f.call("malloc", vec![Operand::Imm(32)]);
        f.store64(Operand::Reg(ptr), Operand::Imm(1234));
        let v = f.load64(Operand::Reg(ptr));
        f.call_void("free", vec![Operand::Reg(ptr)]);
        f.ret(Some(Operand::Reg(v)));
        f.finish();
        let m = mb.finish();
        let (r, p) = run(&m, "f", &[]);
        assert_eq!(r, CallResult::Return(1234));
        assert_eq!(p.heap.live_chunks(), 0);
    }

    #[test]
    fn use_after_free_via_hostcalls() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f");
        let ptr = f.call("malloc", vec![Operand::Imm(32)]);
        f.call_void("free", vec![Operand::Reg(ptr)]);
        let v = f.load64(Operand::Reg(ptr));
        f.ret(Some(Operand::Reg(v)));
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[]);
        assert_eq!(r.crash().unwrap().kind, CrashKind::UnaddressableAccess);
    }

    #[test]
    fn double_free_via_hostcalls() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f");
        let ptr = f.call("malloc", vec![Operand::Imm(8)]);
        f.call_void("free", vec![Operand::Reg(ptr)]);
        f.call_void("free", vec![Operand::Reg(ptr)]);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[]);
        assert_eq!(r.crash().unwrap().kind, CrashKind::DoubleFree);
    }

    #[test]
    fn file_io_roundtrip() {
        let mut mb = ModuleBuilder::new("m");
        let path = mb.global(Global::constant("path", b"/fuzz/input\0".to_vec()));
        let mut f = mb.function("f");
        let pa = f.addr_of(path);
        let h = f.call("fopen", vec![Operand::Reg(pa), Operand::Imm(0)]);
        let buf = f.alloca(16);
        let n = f.call(
            "fread",
            vec![
                Operand::Reg(buf),
                Operand::Imm(1),
                Operand::Imm(16),
                Operand::Reg(h),
            ],
        );
        let b0 = f.load8(Operand::Reg(buf));
        f.call_void("fclose", vec![Operand::Reg(h)]);
        let sum = f.add(Operand::Reg(n), Operand::Reg(b0));
        f.ret(Some(Operand::Reg(sum)));
        f.finish();
        let m = mb.finish();

        let mut os = Os::new();
        os.fs.write_file("/fuzz/input", vec![40, 2, 3]);
        let (mut p, _) = os.spawn(&m);
        let mut cov = CovMap::new();
        let mut ctx = HostCtx::new(&mut os, &mut cov);
        let out = Machine::new(&m).call(&mut p, &mut ctx, "f", &[], FUEL);
        // read 3 bytes, first byte 40 → 43
        assert_eq!(out.result, CallResult::Return(43));
        assert_eq!(p.fds.open_count(), 0);
    }

    #[test]
    fn fopen_missing_file_returns_null() {
        let mut mb = ModuleBuilder::new("m");
        let path = mb.global(Global::constant("path", b"/nope\0".to_vec()));
        let mut f = mb.function("f");
        let pa = f.addr_of(path);
        let h = f.call("fopen", vec![Operand::Reg(pa), Operand::Imm(0)]);
        f.ret(Some(Operand::Reg(h)));
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[]);
        assert_eq!(r, CallResult::Return(0));
    }

    #[test]
    fn negative_memcpy_detected() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f");
        let a = f.alloca(16);
        let b = f.alloca(16);
        f.call_void(
            "memcpy",
            vec![Operand::Reg(a), Operand::Reg(b), Operand::Imm(-5)],
        );
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[]);
        assert_eq!(r.crash().unwrap().kind, CrashKind::NegativeSizeMemcpy);
    }

    #[test]
    fn coverage_edges_recorded() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function_with_params("f", 1);
        f.call_void("__cov_edge", vec![Operand::Imm(100)]);
        let t = f.new_block();
        let e = f.new_block();
        f.cond_br(Operand::Reg(f.param(0)), t, e);
        f.switch_to(t);
        f.call_void("__cov_edge", vec![Operand::Imm(200)]);
        f.ret(Some(Operand::Imm(1)));
        f.switch_to(e);
        f.call_void("__cov_edge", vec![Operand::Imm(300)]);
        f.ret(Some(Operand::Imm(0)));
        f.finish();
        let m = mb.finish();

        let mut os = Os::new();
        let (mut p, _) = os.spawn(&m);
        let mut cov = CovMap::new();
        let mut trace = Vec::new();
        {
            let mut ctx = HostCtx::with_trace(&mut os, &mut cov, &mut trace);
            Machine::new(&m).call(&mut p, &mut ctx, "f", &[1], FUEL);
        }
        assert_eq!(cov.count_nonzero(), 2);
        assert_eq!(trace.len(), 2);

        // Different branch → different trace.
        let mut cov2 = CovMap::new();
        let mut trace2 = Vec::new();
        p.cov_state.reset();
        {
            let mut ctx = HostCtx::with_trace(&mut os, &mut cov2, &mut trace2);
            Machine::new(&m).call(&mut p, &mut ctx, "f", &[0], FUEL);
        }
        assert_ne!(trace, trace2);
    }

    #[test]
    fn switch_dispatch() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function_with_params("f", 1);
        let b1 = f.new_block();
        let b2 = f.new_block();
        let d = f.new_block();
        f.switch(Operand::Reg(f.param(0)), vec![(10, b1), (20, b2)], d);
        f.switch_to(b1);
        f.ret(Some(Operand::Imm(1)));
        f.switch_to(b2);
        f.ret(Some(Operand::Imm(2)));
        f.switch_to(d);
        f.ret(Some(Operand::Imm(-1)));
        f.finish();
        let m = mb.finish();
        assert_eq!(run(&m, "f", &[10]).0, CallResult::Return(1));
        assert_eq!(run(&m, "f", &[20]).0, CallResult::Return(2));
        assert_eq!(run(&m, "f", &[30]).0, CallResult::Return(-1));
    }

    #[test]
    fn unresolved_symbol_crashes() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f");
        f.call_void("no_such_fn", vec![]);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let (r, _) = run(&m, "f", &[]);
        let c = r.crash().unwrap();
        assert_eq!(c.kind, CrashKind::Abort);
        assert!(c.detail.contains("no_such_fn"));
    }

    #[test]
    fn closurex_wrappers_update_chunk_map() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("f");
        let p1 = f.call("closurex_malloc", vec![Operand::Imm(10)]);
        let _p2 = f.call("closurex_malloc", vec![Operand::Imm(20)]);
        f.call_void("closurex_free", vec![Operand::Reg(p1)]);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let mut os = Os::new();
        let (mut p, _) = os.spawn(&m);
        p.rt.enabled = true;
        let mut cov = CovMap::new();
        let mut ctx = HostCtx::new(&mut os, &mut cov);
        Machine::new(&m).call(&mut p, &mut ctx, "f", &[], FUEL);
        assert_eq!(p.rt.chunk_map.len(), 1, "one leaked chunk tracked");
        assert_eq!(p.heap.live_chunks(), 1);
    }
}
