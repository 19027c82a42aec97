//! Decode-time optimizer: block IR, operand pre-resolution, coalescing,
//! and dead decoded-temp elimination (phase A of the pass stack).
//!
//! The optimizer never changes what the program *simulates* — every pass
//! must leave cycle charges, instruction counts, coverage updates, crash
//! sites, and `setjmp` coordinates bit-identical to the reference
//! interpreter. The passes here exploit exactly two degrees of freedom:
//!
//! 1. **Registers are host-only state at abnormal boundaries.** When a
//!    call ends in a crash / `OutOfFuel` / exit, `Machine::call` truncates
//!    the frames it pushed, so mid-call register contents never escape.
//!    Dead register writes are therefore pure host bookkeeping and can be
//!    skipped — as long as their *instruction charge* survives, which the
//!    emitted stream preserves through per-pc `pre` counters (see
//!    [`super::fuse`]).
//! 2. **Decode-time constants are run-time constants.** Global addresses
//!    ([`GlobalMap::layout`] is deterministic per module) and
//!    const-assigned registers can be forwarded into operand slots without
//!    changing any computed value.
//!
//! `setjmp` is the boundary of both arguments: a `longjmp` re-enters a
//! function at the recorded source coordinates with whatever register
//! file the suspended frame held, which static liveness does not model.
//! Functions containing `setjmp` therefore skip coalescing and DCE
//! entirely (const-forwarding stays safe because the lattice is cleared
//! at every `setjmp`).

use fir::liveness::{liveness, RegSet};
use fir::{BinOp, Module, Operand};

use super::{fuse, inline, lower, DFunc, DOp, OptStats};
use crate::layout::GlobalMap;

/// What a slot contributes to the emitted stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kind {
    /// Emitted as an op with its own pc.
    Live,
    /// Not emitted; its instruction charge folds into the next live pc's
    /// `pre` counter. Only ops with no effect beyond a dead register
    /// write (or a branch folded by block merging) are eliminated.
    Elim,
    /// Consumed as a component of a fused superinstruction; the fused op
    /// (which precedes it in slot order) executes and charges it.
    Absorbed,
}

/// One op slot in the optimizer IR. Branch fields of `op` hold **block
/// indices** (not pcs) until emission resolves the final layout.
#[derive(Debug, Clone)]
pub(super) struct Slot {
    pub op: DOp,
    pub kind: Kind,
    /// Function whose *name* crash/host sites at this op report
    /// (differs from the owner only in inlined regions).
    pub site_fn: u32,
    /// Source block crash sites at this op report (callee block inside
    /// inlined regions).
    pub site_block: u32,
    /// Source `(block, ip)` coordinate this slot descends from, for the
    /// `pc_of_src` resume map. `None` for inlined-body slots.
    pub src: Option<(u32, u32)>,
}

/// A block of slots. The last [`Kind::Live`] slot is the terminator
/// (`Br`/`CondBr`/`Switch`/`Ret`/`Unreachable` or, after inlining,
/// `InlineEnter`/`InlineRet`).
#[derive(Debug, Clone, Default)]
pub(super) struct OBlock {
    pub slots: Vec<Slot>,
}

impl OBlock {
    /// Index of the last live slot (the terminator), if any.
    pub fn last_live(&self) -> Option<usize> {
        self.slots.iter().rposition(|s| s.kind == Kind::Live)
    }
}

/// One function in optimizer IR form.
#[derive(Debug, Clone)]
pub(super) struct FuncIr {
    pub name: String,
    pub num_params: u32,
    /// May exceed the source register file after inlining (scratch space).
    pub num_regs: u32,
    /// Blocks; indices 0..orig_start.len() are source blocks, anything
    /// beyond was appended by splitting/inlining.
    pub blocks: Vec<OBlock>,
    /// Does the function contain a `setjmp`? Disables elimination.
    pub has_setjmp: bool,
    /// No `CallFn`/`setjmp`/`longjmp` anywhere — an inlining candidate.
    pub leaf: bool,
    /// Source flat-coordinate base per source block
    /// (`insts.len() + 1` accumulated) — the index space of `pc_of_src`.
    pub orig_start: Vec<u32>,
    /// Total number of source coordinates (`orig_start` end).
    pub src_total: u32,
}

impl FuncIr {
    /// Number of live (emitted) ops.
    pub fn live_size(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.slots)
            .filter(|s| s.kind == Kind::Live)
            .count()
    }
}

/// Run the whole decode-time pass stack over `module`, returning the
/// optimized streams (same [`fir::FunctionId`] indexing as the plain
/// ones).
pub(super) fn optimize_module(module: &Module, stats: &mut OptStats) -> Vec<DFunc> {
    let gmap = GlobalMap::layout(module);
    let mut irs: Vec<FuncIr> = module
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| build_ir(module, i as u32, f))
        .collect();

    // Phase A: per-function local passes.
    for (i, ir) in irs.iter_mut().enumerate() {
        resolve(ir, &gmap, stats);
        if !ir.has_setjmp {
            let lv = liveness(&module.functions[i]);
            coalesce(ir, &lv.live_out, stats);
            dce(ir, &lv.live_out, stats);
        }
    }

    // Phase B: decode-time inlining of small leaf callees.
    inline::inline_all(module, &mut irs, stats);

    // Phase C: layout — merge, chain folding, linearization,
    // specialization, fusion, emission.
    irs.into_iter()
        .map(|ir| fuse::finish(ir, &gmap, stats))
        .collect()
}

/// Lower one function into optimizer IR. Reuses the plain lowering's
/// instruction/call classification so the two streams cannot diverge; only
/// terminators differ (block indices instead of pcs).
fn build_ir(module: &Module, self_fid: u32, f: &fir::Function) -> FuncIr {
    let mut orig_start = Vec::with_capacity(f.blocks.len());
    let mut acc: u32 = 0;
    for b in &f.blocks {
        orig_start.push(acc);
        acc += b.insts.len() as u32 + 1;
    }

    let mut has_setjmp = false;
    let mut leaf = true;
    let blocks = f
        .blocks
        .iter()
        .enumerate()
        .map(|(bi, b)| {
            let mut slots = Vec::with_capacity(b.insts.len() + 1);
            for (ip, inst) in b.insts.iter().enumerate() {
                let op = lower::lower_inst(module, inst, bi as u32, ip as u32);
                match op {
                    DOp::Setjmp { .. } => {
                        has_setjmp = true;
                        leaf = false;
                    }
                    DOp::Longjmp { .. } | DOp::CallFn { .. } => leaf = false,
                    _ => {}
                }
                slots.push(Slot {
                    op,
                    kind: Kind::Live,
                    site_fn: self_fid,
                    site_block: bi as u32,
                    src: Some((bi as u32, ip as u32)),
                });
            }
            slots.push(Slot {
                op: lower::lower_term(&b.term, |t| t.0),
                kind: Kind::Live,
                site_fn: self_fid,
                site_block: bi as u32,
                src: Some((bi as u32, b.insts.len() as u32)),
            });
            OBlock { slots }
        })
        .collect();

    FuncIr {
        name: f.name.clone(),
        num_params: f.num_params,
        num_regs: f.num_regs,
        blocks,
        has_setjmp,
        leaf,
        orig_start,
        src_total: acc,
    }
}

/// Operand pre-resolution: `addr_of` results become decode-time constants
/// (the global layout is deterministic per module), and registers known to
/// hold a constant are forwarded into operand slots. Purely local
/// (per-block); the constant lattice is cleared at `setjmp` so nothing is
/// forwarded across a `longjmp` re-entry point.
fn resolve(ir: &mut FuncIr, gmap: &GlobalMap, stats: &mut OptStats) {
    use std::collections::HashMap;
    for block in &mut ir.blocks {
        let mut known: HashMap<u32, i64> = HashMap::new();
        for slot in &mut block.slots {
            // Rewrite uses before looking at the definition.
            slot.op.for_each_use_mut(|o| {
                if let Operand::Reg(r) = o {
                    if let Some(c) = known.get(&r.0) {
                        *o = Operand::Imm(*c);
                        stats.operands_resolved += 1;
                    }
                }
            });
            if let DOp::AddrOf { dst, global } = slot.op {
                let addr = gmap.addr_of(global).expect("verified global") as i64;
                slot.op = DOp::Const { dst, value: addr };
                stats.operands_resolved += 1;
            }
            match &slot.op {
                DOp::Const { dst, value } => {
                    known.insert(*dst, *value);
                }
                DOp::Mov {
                    dst,
                    src: Operand::Imm(v),
                } => {
                    known.insert(*dst, *v);
                }
                DOp::Setjmp { .. } => known.clear(),
                op => {
                    if let Some(d) = op.def_reg() {
                        known.remove(&d);
                    }
                }
            }
        }
    }
}

/// Can this op's destination be redirected by coalescing? Calls are
/// excluded: a `CallFn`'s destination write happens when the callee
/// returns, so redirecting it would move a visible-to-`longjmp` write —
/// and the simple ops below already cover the MinC `tmp = ...; mov x, tmp`
/// idiom.
fn coalescable(op: &DOp) -> bool {
    matches!(
        op,
        DOp::Const { .. }
            | DOp::Mov { .. }
            | DOp::Bin { .. }
            | DOp::Cmp { .. }
            | DOp::Select { .. }
            | DOp::Load { .. }
            | DOp::AddrOf { .. }
            | DOp::Alloca { .. }
    )
}

/// Is register `r` read by any live slot at or after index `from`?
fn used_later(slots: &[Slot], from: usize, r: u32) -> bool {
    slots[from..]
        .iter()
        .filter(|s| s.kind == Kind::Live)
        .any(|s| s.op.use_regs().contains(&r))
}

/// Collapse `t = <op>; v = mov t` into `v = <op>` when `t` dies at the
/// mov. The mov slot is eliminated (charge preserved via `pre`); the
/// defining op simply writes the final destination. Skipped entirely for
/// functions containing `setjmp` (see module docs).
fn coalesce(ir: &mut FuncIr, live_out: &[RegSet], stats: &mut OptStats) {
    for (bi, block) in ir.blocks.iter_mut().enumerate() {
        let out = &live_out[bi];
        let mut prev: Option<usize> = None;
        for i in 0..block.slots.len() {
            if block.slots[i].kind != Kind::Live {
                continue;
            }
            if let DOp::Mov {
                dst: v,
                src: Operand::Reg(t),
            } = block.slots[i].op
            {
                if let Some(pi) = prev {
                    if t.0 != v
                        && block.slots[pi].op.def_reg() == Some(t.0)
                        && coalescable(&block.slots[pi].op)
                        && !out.contains(t.0)
                        && !used_later(&block.slots, i + 1, t.0)
                    {
                        block.slots[pi].op.set_def_reg(v);
                        block.slots[i].kind = Kind::Elim;
                        stats.movs_coalesced += 1;
                        // `prev` keeps pointing at the (re-targeted)
                        // defining op, so mov chains collapse fully.
                        continue;
                    }
                }
            }
            prev = Some(i);
        }
    }
}

/// A binop that can never trap, so eliminating it when its result is dead
/// removes no crash.
fn bin_is_safe(op: BinOp, rhs: Operand) -> bool {
    match op {
        BinOp::Add
        | BinOp::Sub
        | BinOp::Mul
        | BinOp::And
        | BinOp::Or
        | BinOp::Xor
        | BinOp::Shl
        | BinOp::LShr
        | BinOp::AShr => true,
        BinOp::UDiv | BinOp::URem => matches!(rhs, Operand::Imm(v) if v != 0),
        // `i64::MIN / -1` also traps, and the lhs is not known statically.
        BinOp::SDiv | BinOp::SRem => matches!(rhs, Operand::Imm(v) if v != 0 && v != -1),
    }
}

/// Dead decoded-temp elimination: backward scan per block seeded with the
/// source function's live-out set. Only effect-free ops (no memory, no
/// coverage, no possible trap) with a dead destination are eliminated;
/// their charges survive as `pre` counts. Skipped for `setjmp` functions.
fn dce(ir: &mut FuncIr, live_out: &[RegSet], stats: &mut OptStats) {
    for (bi, block) in ir.blocks.iter_mut().enumerate() {
        let mut live = live_out[bi].clone();
        for slot in block.slots.iter_mut().rev() {
            if slot.kind != Kind::Live {
                continue;
            }
            let eliminable = match &slot.op {
                DOp::Const { .. }
                | DOp::Mov { .. }
                | DOp::Cmp { .. }
                | DOp::Select { .. }
                | DOp::AddrOf { .. } => true,
                DOp::Bin { op, rhs, .. } => bin_is_safe(*op, *rhs),
                _ => false,
            };
            if eliminable {
                if let Some(d) = slot.op.def_reg() {
                    if !live.contains(d) {
                        slot.kind = Kind::Elim;
                        stats.insts_eliminated += 1;
                        continue;
                    }
                }
            }
            if let Some(d) = slot.op.def_reg() {
                live.remove(d);
            }
            for r in slot.op.use_regs() {
                live.insert(r);
            }
        }
    }
}
