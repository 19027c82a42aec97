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

/// Run the whole decode-time pass stack over `module`, whose plain
/// streams are `plain`, returning the optimized streams (same
/// [`fir::FunctionId`] indexing as the plain ones).
pub(super) fn optimize_module(
    module: &Module,
    plain: &[DFunc],
    stats: &mut OptStats,
) -> Vec<DFunc> {
    let gmap = GlobalMap::layout(module);
    let mut irs: Vec<FuncIr> = module
        .functions
        .iter()
        .zip(plain)
        .enumerate()
        .map(|(i, (f, p))| build_ir(i as u32, f, p))
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

/// Lift one function into optimizer IR from its plain stream `plain`.
/// Instruction ops are copied from the plain lowering, so call-site
/// classification cannot diverge between the two streams (and callees are
/// resolved once); only terminators differ (block indices instead of
/// pcs). The plain stream is 1:1, so its block starts are the source
/// flat coordinates.
fn build_ir(self_fid: u32, f: &fir::Function, plain: &DFunc) -> FuncIr {
    let orig_start = plain.orig_start.clone();
    let src_total = plain.ops.len() as u32;

    let mut has_setjmp = false;
    let mut leaf = true;
    let blocks = f
        .blocks
        .iter()
        .enumerate()
        .map(|(bi, b)| {
            let mut slots = Vec::with_capacity(b.insts.len() + 1);
            let start = orig_start[bi] as usize;
            for (ip, op) in plain.ops[start..start + b.insts.len()].iter().enumerate() {
                let op = op.clone();
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
        src_total,
    }
}

/// Operand pre-resolution: `addr_of` results become decode-time constants
/// (the global layout is deterministic per module), and registers known to
/// hold a constant are forwarded into operand slots. Purely local
/// (per-block); the constant lattice is cleared at `setjmp` so nothing is
/// forwarded across a `longjmp` re-entry point.
fn resolve(ir: &mut FuncIr, gmap: &GlobalMap, stats: &mut OptStats) {
    let mut known = ConstLattice::new(ir.num_regs);
    for block in &mut ir.blocks {
        known.clear();
        for slot in &mut block.slots {
            // Rewrite uses before looking at the definition.
            slot.op.for_each_use_mut(|o| {
                if let Operand::Reg(r) = o {
                    if let Some(c) = known.get(r.0) {
                        *o = Operand::Imm(c);
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
                DOp::Const { dst, value } => known.set(*dst, *value),
                DOp::Mov {
                    dst,
                    src: Operand::Imm(v),
                } => known.set(*dst, *v),
                DOp::Setjmp { .. } => known.clear(),
                op => {
                    if let Some(d) = op.def_reg() {
                        known.unset(d);
                    }
                }
            }
        }
    }
}

/// Registers known to hold a decode-time constant, with an O(1) `clear`:
/// an entry is valid only while its stamp equals the current epoch.
struct ConstLattice {
    value: Vec<i64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl ConstLattice {
    fn new(num_regs: u32) -> Self {
        ConstLattice {
            value: vec![0; num_regs as usize],
            stamp: vec![0; num_regs as usize],
            epoch: 1,
        }
    }

    fn get(&self, r: u32) -> Option<i64> {
        (self.stamp[r as usize] == self.epoch).then(|| self.value[r as usize])
    }

    fn set(&mut self, r: u32, v: i64) {
        self.value[r as usize] = v;
        self.stamp[r as usize] = self.epoch;
    }

    fn unset(&mut self, r: u32) {
        self.stamp[r as usize] = 0;
    }

    fn clear(&mut self) {
        self.epoch += 1;
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

/// Collapse `t = <op>; v = mov t` into `v = <op>` when `t` dies at the
/// mov. The mov slot is eliminated (charge preserved via `pre`); the
/// defining op simply writes the final destination. Skipped entirely for
/// functions containing `setjmp` (see module docs).
///
/// "Dies at the mov" needs `t` unread by every later live slot of the
/// block. Coalescing only re-targets definitions and eliminates the mov
/// it stands on, so no later slot's reads change during the walk, and
/// one scan per block (recording the last slot reading each register)
/// answers every such question up front.
fn coalesce(ir: &mut FuncIr, live_out: &[RegSet], stats: &mut OptStats) {
    // `last_read[r]` = 1 + index of the last live slot reading `r` in the
    // current block, valid while `read_in[r]` names that block.
    let mut last_read = vec![0usize; ir.num_regs as usize];
    let mut read_in = vec![usize::MAX; ir.num_regs as usize];
    for (bi, block) in ir.blocks.iter_mut().enumerate() {
        for (i, slot) in block.slots.iter().enumerate() {
            if slot.kind == Kind::Live {
                slot.op.for_each_use_reg(|r| {
                    last_read[r as usize] = i + 1;
                    read_in[r as usize] = bi;
                });
            }
        }
        let read_after =
            |r: u32, i: usize| read_in[r as usize] == bi && last_read[r as usize] > i + 1;
        let out = &live_out[bi];
        let mut prev: Option<usize> = None;
        // Eliminated slots immediately before `i`: a run's charge lands in
        // one `u16` `pre` counter, so a full run keeps the next mov live.
        let mut run = 0usize;
        for i in 0..block.slots.len() {
            if block.slots[i].kind != Kind::Live {
                run += 1;
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
                        && !read_after(t.0, i)
                        && run < usize::from(u16::MAX)
                    {
                        block.slots[pi].op.set_def_reg(v);
                        block.slots[i].kind = Kind::Elim;
                        stats.movs_coalesced += 1;
                        run += 1;
                        // `prev` keeps pointing at the (re-targeted)
                        // defining op, so mov chains collapse fully.
                        continue;
                    }
                }
            }
            run = 0;
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
///
/// A run of consecutive eliminated slots is charged through one `u16`
/// `pre` counter, so an op that would grow its run (with the slots already
/// eliminated on both sides) past `u16::MAX` stays live.
fn dce(ir: &mut FuncIr, live_out: &[RegSet], stats: &mut OptStats) {
    let mut before = Vec::new();
    for (bi, block) in ir.blocks.iter_mut().enumerate() {
        let mut live = live_out[bi].clone();
        // `before[i]`: eliminated slots (coalesced movs) immediately
        // before slot `i`; the backward walk never changes them.
        before.clear();
        let mut run = 0usize;
        for slot in &block.slots {
            before.push(run);
            run = if slot.kind == Kind::Elim { run + 1 } else { 0 };
        }
        // Eliminated slots immediately after the current one.
        let mut after = 0usize;
        for (i, slot) in block.slots.iter_mut().enumerate().rev() {
            if slot.kind != Kind::Live {
                after += 1;
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
            if eliminable && before[i] + 1 + after <= usize::from(u16::MAX) {
                if let Some(d) = slot.op.def_reg() {
                    if !live.contains(d) {
                        slot.kind = Kind::Elim;
                        stats.insts_eliminated += 1;
                        after += 1;
                        continue;
                    }
                }
            }
            after = 0;
            if let Some(d) = slot.op.def_reg() {
                live.remove(d);
            }
            slot.op.for_each_use_reg(|r| {
                live.insert(r);
            });
        }
    }
}
