//! Plain 1:1 lowering of FIR functions into [`DOp`] streams.
//!
//! Lowering is strictly 1:1 — one `DOp` per instruction plus one per block
//! terminator — so a flat pc and the reference engine's `(block, ip)`
//! coordinates are interconvertible: `pc = block_start[block] + ip`. That
//! equivalence is what lets the decoded loop share the `Process` frame
//! representation (frames store source coordinates) with the reference
//! engine, `setjmp`/`longjmp` included. The optimizer ([`super::opt`])
//! builds its block-level IR from the plain stream's instruction ops and
//! [`lower_term`], so call-site classification can never diverge between
//! the two streams.

use fir::{BlockId, Inst, Module, Operand, Terminator};

use super::{DFunc, DOp};
use crate::hostcalls;

/// Lower one function into the plain stream. The classification of call
/// sites mirrors the reference interpreter's run-time precedence exactly:
/// `__cov_edge`, then `setjmp`, then `longjmp`, then module functions
/// (first name match), then host calls, and finally the unresolved-symbol
/// crash.
pub(super) fn lower(module: &Module, self_fid: u32, f: &fir::Function) -> DFunc {
    let mut block_start = Vec::with_capacity(f.blocks.len());
    let mut pc: u32 = 0;
    for b in &f.blocks {
        block_start.push(pc);
        pc += b.insts.len() as u32 + 1; // +1 for the terminator
    }
    let total = pc as usize;

    let mut ops = Vec::with_capacity(total);
    let mut block_of = Vec::with_capacity(total);
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ip, inst) in b.insts.iter().enumerate() {
            ops.push(lower_inst(module, inst, bi as u32, ip as u32));
            block_of.push(bi as u32);
        }
        ops.push(lower_term(&b.term, |b| block_start[b.0 as usize]));
        block_of.push(bi as u32);
    }
    debug_assert_eq!(ops.len(), total);

    DFunc {
        name: f.name.clone(),
        num_params: f.num_params,
        num_regs: f.num_regs,
        pre: vec![0; total],
        fname_of: vec![self_fid; total],
        orig_start: block_start.clone(),
        pc_of_src: (0..total as u32).collect(),
        ops,
        block_start,
        block_of,
    }
}

/// Lower one non-terminator instruction. `(bi, ip)` are the instruction's
/// *source* coordinates; calls and `setjmp`s embed the coordinates of the
/// following instruction as their resume point, which stays valid under
/// every later pass because those ops are never moved relative to the
/// source coordinate space.
fn lower_inst(module: &Module, inst: &Inst, bi: u32, ip: u32) -> DOp {
    match inst {
        Inst::Const { dst, value } => DOp::Const {
            dst: dst.0,
            value: *value,
        },
        Inst::Mov { dst, src } => DOp::Mov {
            dst: dst.0,
            src: *src,
        },
        Inst::Bin { op, dst, lhs, rhs } => DOp::Bin {
            op: *op,
            dst: dst.0,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Cmp {
            pred,
            dst,
            lhs,
            rhs,
        } => DOp::Cmp {
            pred: *pred,
            dst: dst.0,
            lhs: *lhs,
            rhs: *rhs,
        },
        Inst::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => DOp::Select {
            dst: dst.0,
            cond: *cond,
            if_true: *if_true,
            if_false: *if_false,
        },
        Inst::Load { dst, addr, width } => DOp::Load {
            dst: dst.0,
            addr: *addr,
            bytes: width.bytes(),
        },
        Inst::Store { addr, value, width } => DOp::Store {
            addr: *addr,
            value: *value,
            bytes: width.bytes(),
        },
        Inst::AddrOf { dst, global } => DOp::AddrOf {
            dst: dst.0,
            global: *global,
        },
        Inst::Alloca { dst, size } => DOp::Alloca {
            dst: dst.0,
            size: *size,
            rounded: u64::from(*size).div_ceil(16) * 16,
        },
        Inst::Call { dst, callee, args } => lower_call(module, *dst, callee, args, bi, ip),
    }
}

fn lower_call(
    module: &Module,
    dst: Option<fir::Reg>,
    callee: &str,
    args: &[Operand],
    bi: u32,
    ip: u32,
) -> DOp {
    let arg_or = |i: usize, default: i64| args.get(i).copied().unwrap_or(Operand::Imm(default));
    match callee {
        "__cov_edge" => DOp::CovEdge { id: arg_or(0, 0) },
        "setjmp" => DOp::Setjmp {
            dst,
            buf: arg_or(0, 0),
            ret_block: bi,
            ret_ip: ip + 1,
        },
        "longjmp" => DOp::Longjmp {
            buf: arg_or(0, 0),
            val: arg_or(1, 1),
        },
        _ => {
            if let Some(fid) = module.function_id(callee) {
                DOp::CallFn {
                    dst,
                    callee: fid,
                    args: args.into(),
                    ret_block: bi,
                    ret_ip: ip + 1,
                }
            } else if let Some(host) = hostcalls::resolve(callee) {
                DOp::CallHost {
                    dst,
                    host,
                    args: args.into(),
                }
            } else {
                DOp::CallUnknown {
                    name: callee.into(),
                }
            }
        }
    }
}

/// Lower a terminator, mapping block targets through `target` (flat pcs
/// for the plain stream, block indices inside the optimizer's IR).
pub(super) fn lower_term(term: &Terminator, target: impl Fn(BlockId) -> u32) -> DOp {
    match term {
        Terminator::Ret(v) => DOp::Ret(*v),
        Terminator::Br(b) => DOp::Br(target(*b)),
        Terminator::CondBr {
            cond,
            if_true,
            if_false,
        } => DOp::CondBr {
            cond: *cond,
            if_true: target(*if_true),
            if_false: target(*if_false),
        },
        Terminator::Switch {
            value,
            cases,
            default,
        } => DOp::Switch {
            value: *value,
            cases: cases.iter().map(|(v, b)| (*v, target(*b))).collect(),
            default: target(*default),
        },
        Terminator::Unreachable => DOp::Unreachable,
    }
}
