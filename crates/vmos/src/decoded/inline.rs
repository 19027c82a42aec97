//! Phase B of the decode-time pass stack: inlining small leaf callees
//! into their call sites.
//!
//! An inlined call keeps the reference engine's *complete* observable
//! behavior without pushing a frame: [`DOp::InlineEnter`] performs the
//! depth check, the 2-cycle call overhead, the zeroing of the callee
//! register window and the parameter copy; [`DOp::InlineRet`] restores the
//! stack pointer and delivers the return value for 1 instruction, exactly
//! like the `Ret` it replaces. The callee's registers live at
//! `base..base+nregs` of the caller's *extended* register file, where
//! `base` is the caller's **source** register count — source operands
//! always index below `base`, so the windows can never collide, and every
//! inlined site of a caller reuses the same scratch window (calls never
//! overlap in time within one frame).
//!
//! Eligibility is strict: the callee must be a leaf (no `CallFn`, no
//! `setjmp`/`longjmp` — hostcalls are fine, they never touch frames),
//! small (live size after phase A ≤ [`INLINE_MAX_OPS`]), and have a
//! modest register file. Callee bodies are snapshotted *before* any
//! inlining happens, so inlining never cascades. Crash and hostcall sites
//! inside the spliced body keep the **callee's** function name and block
//! — the same report the reference engine produces from its own frame.

use std::collections::{HashMap, HashSet};

use fir::{Module, Operand};

use super::opt::{FuncIr, Kind, OBlock, Slot};
use super::{DOp, OptStats};

/// Largest callee (live ops, post phase A) considered for inlining.
const INLINE_MAX_OPS: usize = 24;
/// Largest callee register file considered for inlining.
const INLINE_MAX_REGS: u32 = 96;
/// Per-caller growth budget (live ops added by splicing).
const INLINE_CALLER_GROWTH: usize = 512;

/// Inline eligible callees into every caller, hot (loop-resident) call
/// sites first until the per-caller growth budget runs out.
pub(super) fn inline_all(module: &Module, irs: &mut [FuncIr], stats: &mut OptStats) {
    let snapshots: HashMap<u32, FuncIr> = irs
        .iter()
        .enumerate()
        .filter(|(_, ir)| {
            ir.leaf
                && !ir.has_setjmp
                && ir.live_size() <= INLINE_MAX_OPS
                && ir.num_regs <= INLINE_MAX_REGS
        })
        .map(|(i, ir)| (i as u32, ir.clone()))
        .collect();
    if snapshots.is_empty() {
        return;
    }

    let mut inlined_callees: HashSet<u32> = HashSet::new();
    for (ci, ir) in irs.iter_mut().enumerate() {
        // One flag per block: source blocks (all of `ir.blocks` until the
        // first splice here) first, spliced blocks appended by `splice`.
        let mut hotness = fir::cfg::loop_blocks(&module.functions[ci]);
        // The scratch window base: the caller's *source* register count.
        // (`ir.num_regs` may already have grown from earlier splices.)
        let base = module.functions[ci].num_regs;
        let mut budget = INLINE_CALLER_GROWTH;
        for hot_pass in [true, false] {
            let mut bi = 0;
            while bi < ir.blocks.len() {
                if hot_pass && !hotness[bi] {
                    bi += 1;
                    continue;
                }
                for si in 0..ir.blocks[bi].slots.len() {
                    let slot = &ir.blocks[bi].slots[si];
                    if slot.kind != Kind::Live {
                        continue;
                    }
                    let DOp::CallFn { callee, .. } = &slot.op else {
                        continue;
                    };
                    let Some(cs) = snapshots.get(&callee.0) else {
                        continue;
                    };
                    if cs.live_size() > budget {
                        continue;
                    }
                    budget -= cs.live_size();
                    inlined_callees.insert(callee.0);
                    stats.inline_sites += 1;
                    splice(ir, &mut hotness, bi, si, cs, base);
                    // Everything after the call moved to the continuation
                    // block (appended; scanned later in this same walk).
                    break;
                }
                bi += 1;
            }
        }
    }
    stats.inlined_callees += inlined_callees.len() as u64;
}

/// Splice callee snapshot `cs` into caller `ir` at the live `CallFn` slot
/// `(bi, si)`: the block is split at the call, the call slot becomes an
/// [`DOp::InlineEnter`], the tail becomes the continuation block, and the
/// callee's blocks are appended with registers shifted by `base` and
/// `Ret` rewritten to [`DOp::InlineRet`].
fn splice(ir: &mut FuncIr, hotness: &mut Vec<bool>, bi: usize, si: usize, cs: &FuncIr, base: u32) {
    let nregs = cs.num_regs;
    let sp_slot = base + nregs;
    ir.num_regs = ir.num_regs.max(sp_slot + 1);
    let hot = hotness[bi];

    let cont_idx = ir.blocks.len() as u32;
    let callee_off = cont_idx + 1;

    let tail = ir.blocks[bi].slots.split_off(si + 1);
    let call = ir.blocks[bi].slots.pop().expect("call slot");
    let DOp::CallFn {
        dst, callee, args, ..
    } = call.op
    else {
        unreachable!("splice target must be a CallFn");
    };
    // The reference copies `argv.iter().take(num_params)` — trim now.
    let args: Box<[Operand]> = args.iter().copied().take(cs.num_params as usize).collect();
    ir.blocks[bi].slots.push(Slot {
        op: DOp::InlineEnter {
            callee,
            args,
            base,
            nregs,
            sp_slot,
            entry: callee_off,
        },
        kind: Kind::Live,
        site_fn: call.site_fn,
        site_block: call.site_block,
        src: call.src,
    });

    // Continuation: the split-off tail. Source coordinates ride along, so
    // the post-call resume coordinate maps to its first live op.
    ir.blocks.push(OBlock { slots: tail });
    hotness.push(hot);

    for cb in &cs.blocks {
        let slots = cb
            .slots
            .iter()
            .map(|s| {
                let mut op = s.op.clone();
                op.for_each_use_mut(|o| {
                    if let Operand::Reg(r) = o {
                        *o = Operand::Reg(fir::Reg(r.0 + base));
                    }
                });
                if let Some(d) = op.def_reg() {
                    op.set_def_reg(d + base);
                }
                op.retarget(|t| t + callee_off);
                if let DOp::Ret(val) = op {
                    op = DOp::InlineRet {
                        val,
                        dst: dst.map(|r| r.0),
                        sp_slot,
                        resume: cont_idx,
                    };
                }
                Slot {
                    op,
                    kind: s.kind,
                    site_fn: s.site_fn,
                    site_block: s.site_block,
                    src: None,
                }
            })
            .collect();
        ir.blocks.push(OBlock { slots });
        hotness.push(hot);
    }
}
