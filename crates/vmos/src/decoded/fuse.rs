//! Phase C of the decode-time pass stack: block merging, jump-chain
//! folding, hot-path linearization, op specialization, superinstruction
//! fusion, and final emission into a [`DFunc`].
//!
//! ## Charge accounting
//!
//! The emitted stream carries a `pre[pc]` counter: the number of
//! eliminated source instructions that execute (conceptually) *before*
//! the live op at `pc`. The interpreter bulk-charges `pre[pc]` at the top
//! of each dispatch, clamped so an `OutOfFuel` exec still reports
//! `insts == fuel` exactly. For this to be sound, two invariants must
//! hold and are maintained here:
//!
//! * **Ordering** — a *pair/triple* fused op may only combine strictly
//!   adjacent live slots. If an eliminated slot sat between two
//!   components, its charge would be bulk-applied before component 1 even
//!   though the reference engine executes it between the components, and
//!   a fuel boundary could then observe (e.g.) a coverage update on one
//!   engine but not the other. [`DOp::Chain`]s relax this safely: each
//!   component carries its own `pre` counter, charged at exactly the
//!   component's position, so interior eliminated slots are absorbed
//!   without reordering a single charge.
//! * **Entry** — every resume point (function entry, post-call, post-
//!   `setjmp`, branch targets) lands at the start of an eliminated run,
//!   never inside one, so the whole `pre` count is owed on arrival. This
//!   holds because eliminations never move across a call/`setjmp` (those
//!   ops are never eliminated or fused) and branch targets are always
//!   block starts.
//!
//! ## Placement
//!
//! A fused op occupies its *first* component's slot; later components
//! become [`Kind::Absorbed`] and their source coordinates map backward to
//! the fused pc. Absorbed coordinates are never resume targets: calls and
//! `setjmp`s never fuse, and fusion never crosses a block boundary.

use fir::Operand;

use super::opt::{FuncIr, Kind, OBlock, Slot};
use super::{ChainOp, ChainSrc, ChainTail, DFunc, DOp, LoopTail, OptStats};
use crate::layout::GlobalMap;

/// Largest value span a `Switch` may cover to become a `SwitchTable`.
const SWITCH_TABLE_MAX_SPAN: i128 = 512;
/// Minimum number of cases worth a table.
const SWITCH_TABLE_MIN_CASES: usize = 3;

/// Run the layout pipeline over one function IR and emit the final
/// optimized stream.
pub(super) fn finish(mut ir: FuncIr, globals: &GlobalMap, stats: &mut OptStats) -> DFunc {
    merge(&mut ir, stats);
    fold_chains(&mut ir, stats);
    let layout = linearize(&ir);
    specialize(&mut ir, stats);
    fuse_ops(&mut ir, stats);
    build_chains(&mut ir, globals, stats);
    let mut df = emit(ir, &layout);
    loop_tails(&mut df);
    df
}

/// Index of the last live slot of a block, if any. Blocks emptied by
/// merging have none.
fn term_idx(b: &OBlock) -> Option<usize> {
    b.last_live()
}

/// Visit the block targets of a block's terminator (none for merged-away
/// blocks).
fn for_each_term_target(b: &OBlock, f: impl FnMut(u32)) {
    if let Some(i) = term_idx(b) {
        b.slots[i].op.for_each_target(f);
    }
}

/// Fallthrough merging: a block whose only predecessor reaches it through
/// an unconditional `Br` is spliced into that predecessor; the `Br` slot
/// becomes [`Kind::Elim`] in place. Because the merged block had exactly
/// one predecessor, every execution that reaches its slots passes through
/// the eliminated `Br`, so folding the branch charge into the next live
/// pc's `pre` is exact. Whole hot chains become one straight-line block.
///
/// One pass in block order, merging into each block until its terminator
/// stops qualifying. Predecessor counts are computed once: a merge moves
/// the merged block's terminator, and so its edges, into the predecessor
/// unchanged, and only drops the merged block's own (single) incoming
/// edge. A block's eligibility therefore changes only when something is
/// merged into it, so no earlier block ever needs a second look.
///
/// A merge that would join two runs of eliminated slots (the
/// predecessor's tail, the `Br`, the merged block's head) into more than
/// a `pre` counter holds is skipped.
fn merge(ir: &mut FuncIr, stats: &mut OptStats) {
    let mut preds = vec![0u32; ir.blocks.len()];
    for b in &ir.blocks {
        for_each_term_target(b, |t| preds[t as usize] += 1);
    }
    for a in 0..ir.blocks.len() {
        while let Some(ti) = term_idx(&ir.blocks[a]) {
            let DOp::Br(t) = ir.blocks[a].slots[ti].op else {
                break;
            };
            let t = t as usize;
            if t == a || t == 0 || preds[t] != 1 {
                break;
            }
            let joined = elim_run(ir.blocks[a].slots[..ti].iter().rev())
                + 1
                + elim_run(ir.blocks[t].slots.iter());
            if joined > usize::from(u16::MAX) {
                break;
            }
            ir.blocks[a].slots[ti].kind = Kind::Elim;
            let spliced = std::mem::take(&mut ir.blocks[t].slots);
            ir.blocks[a].slots.extend(spliced);
            preds[t] = 0;
            stats.blocks_merged += 1;
        }
    }
}

/// Length of the run of eliminated slots at the front of `slots`.
fn elim_run<'a>(slots: impl Iterator<Item = &'a Slot>) -> usize {
    slots.take_while(|s| s.kind == Kind::Elim).count()
}

/// Is this block nothing but an unconditional `Br` (plus eliminated
/// slots)? Returns the target and the total instruction charge of passing
/// through it.
fn trivial_jump(b: &OBlock) -> Option<(u32, u32)> {
    let ti = term_idx(b)?;
    let DOp::Br(t) = b.slots[ti].op else {
        return None;
    };
    if b.slots
        .iter()
        .enumerate()
        .any(|(i, s)| s.kind == Kind::Live && i != ti)
    {
        return None;
    }
    let charge = b.slots.iter().filter(|s| s.kind != Kind::Absorbed).count() as u32;
    Some((t, charge))
}

/// Fold chains of jump-only blocks: a `Br` whose target is itself a
/// jump-only block becomes a [`DOp::BrChain`] straight to the end of the
/// chain, with `skipped` carrying the aggregate charge of every hop
/// (each hop's `Br` plus any eliminated slots it held). The interpreter
/// bulk-charges `skipped` after the chain op's own charge, clamped at the
/// fuel boundary. Multi-predecessor jump blocks — the ones merging cannot
/// touch — are exactly the ones this pass erases from the hot path.
fn fold_chains(ir: &mut FuncIr, stats: &mut OptStats) {
    // `seen_from[b] == a` marks block `b` visited by the walk from `a`.
    let mut seen_from = vec![usize::MAX; ir.blocks.len()];
    for a in 0..ir.blocks.len() {
        let Some(ti) = term_idx(&ir.blocks[a]) else {
            continue;
        };
        let DOp::Br(first) = ir.blocks[a].slots[ti].op else {
            continue;
        };
        seen_from[a] = a;
        seen_from[first as usize] = a;
        let mut cur = first;
        let mut skipped: u32 = 0;
        let mut hops: u64 = 0;
        while let Some((next, charge)) = trivial_jump(&ir.blocks[cur as usize]) {
            // A cycle of jump-only blocks must keep charging per hop
            // (it can burn fuel forever); never fold into it.
            if std::mem::replace(&mut seen_from[next as usize], a) == a {
                break;
            }
            skipped += charge;
            hops += 1;
            cur = next;
        }
        if hops > 0 && skipped <= u32::from(u16::MAX) {
            ir.blocks[a].slots[ti].op = DOp::BrChain {
                target: cur,
                skipped: skipped as u16,
            };
            stats.br_chains_folded += hops;
        }
    }
}

/// Depth-first layout over live terminator edges: hot chains stay
/// contiguous (the first successor is laid out immediately after its
/// branch), merged-away and unreachable blocks are dropped. Purely a
/// cache-locality ordering — no charges change here.
fn linearize(ir: &FuncIr) -> Vec<u32> {
    let mut seen = vec![false; ir.blocks.len()];
    seen[0] = true;
    let mut order = Vec::with_capacity(ir.blocks.len());
    let mut stack = vec![0u32];
    let mut targets = Vec::new();
    while let Some(b) = stack.pop() {
        order.push(b);
        for_each_term_target(&ir.blocks[b as usize], |t| targets.push(t));
        // Push in reverse so the first successor is visited next.
        for t in targets.drain(..).rev() {
            if !std::mem::replace(&mut seen[t as usize], true) {
                stack.push(t);
            }
        }
    }
    order
}

/// Specialize ops whose operands resolved to constants: `CovEdge` with an
/// immediate id becomes the unboxed `CovEdgeK`, and dense `Switch`es
/// become first-match-preserving jump tables.
fn specialize(ir: &mut FuncIr, stats: &mut OptStats) {
    for block in &mut ir.blocks {
        for slot in &mut block.slots {
            if slot.kind != Kind::Live {
                continue;
            }
            match &slot.op {
                DOp::CovEdge {
                    id: Operand::Imm(v),
                } => {
                    // Same truncation as the reference hostcall path:
                    // the first argv value `as u16`.
                    slot.op = DOp::CovEdgeK { id: *v as u16 };
                    stats.cov_edges_resolved += 1;
                }
                DOp::Switch {
                    value,
                    cases,
                    default,
                } if cases.len() >= SWITCH_TABLE_MIN_CASES => {
                    let lo = cases.iter().map(|(v, _)| *v).min().expect("cases");
                    let hi = cases.iter().map(|(v, _)| *v).max().expect("cases");
                    let span = i128::from(hi) - i128::from(lo) + 1;
                    if span > SWITCH_TABLE_MAX_SPAN {
                        continue;
                    }
                    let mut table = vec![*default; span as usize];
                    let mut filled = vec![false; span as usize];
                    // First match wins, exactly like the linear scan.
                    for (v, t) in cases.iter() {
                        let i = (v - lo) as usize;
                        if !filled[i] {
                            table[i] = *t;
                            filled[i] = true;
                        }
                    }
                    slot.op = DOp::SwitchTable {
                        value: *value,
                        base: lo,
                        table: table.into_boxed_slice(),
                        default: *default,
                    };
                    stats.switch_tables += 1;
                }
                _ => {}
            }
        }
    }
}

/// Superinstruction fusion over strictly adjacent live slots. Greedy,
/// longest-pattern-first, left to right; consumed components become
/// [`Kind::Absorbed`]. Each fused op charges its components individually
/// at run time (one dispatch, component-exact fuel checks), so coverage
/// updates, register writes, and crash points land on the same
/// instruction boundary as the reference engine.
fn fuse_ops(ir: &mut FuncIr, stats: &mut OptStats) {
    for block in &mut ir.blocks {
        let n = block.slots.len();
        let mut i = 0;
        while i < n {
            if block.slots[i].kind != Kind::Live {
                i += 1;
                continue;
            }
            // Adjacency in *slot index* space, which is stricter than
            // "next live op": an Elim between components would reorder
            // its pre-charge relative to component effects. Components
            // must also share a crash site — the fused op reports its
            // head's `(site_fn, site_block)`, so fusing across a merge
            // seam would mis-attribute a crash in the second component.
            let site = |k: usize| (block.slots[k].site_fn, block.slots[k].site_block);
            let live2 =
                i + 1 < n && block.slots[i + 1].kind == Kind::Live && site(i + 1) == site(i);
            let live3 = live2
                && i + 2 < n
                && block.slots[i + 2].kind == Kind::Live
                && site(i + 2) == site(i);

            // Triple: coverage probe + compare + branch — the MinC `while`
            // header. One dispatch for the three hottest ops in a loop.
            if live3 {
                if let (
                    DOp::CovEdgeK { id },
                    DOp::Cmp {
                        pred,
                        dst,
                        lhs,
                        rhs,
                    },
                    DOp::CondBr {
                        cond: Operand::Reg(c),
                        if_true,
                        if_false,
                    },
                ) = (
                    &block.slots[i].op,
                    &block.slots[i + 1].op,
                    &block.slots[i + 2].op,
                ) {
                    if c.0 == *dst {
                        block.slots[i].op = DOp::CovCmpBr {
                            id: *id,
                            pred: *pred,
                            dst: *dst,
                            lhs: *lhs,
                            rhs: *rhs,
                            if_true: *if_true,
                            if_false: *if_false,
                        };
                        block.slots[i + 1].kind = Kind::Absorbed;
                        block.slots[i + 2].kind = Kind::Absorbed;
                        stats.fused_cov_cmp_br += 1;
                        i += 3;
                        continue;
                    }
                }
            }

            if live2 {
                let fused = match (&block.slots[i].op, &block.slots[i + 1].op) {
                    (
                        DOp::Cmp {
                            pred,
                            dst,
                            lhs,
                            rhs,
                        },
                        DOp::CondBr {
                            cond: Operand::Reg(c),
                            if_true,
                            if_false,
                        },
                    ) if c.0 == *dst => {
                        stats.fused_cmp_br += 1;
                        Some(DOp::CmpBr {
                            pred: *pred,
                            dst: *dst,
                            lhs: *lhs,
                            rhs: *rhs,
                            if_true: *if_true,
                            if_false: *if_false,
                        })
                    }
                    (DOp::Bin { op, dst, lhs, rhs }, DOp::Br(t)) => {
                        stats.fused_bin_br += 1;
                        Some(DOp::BinBr {
                            op: *op,
                            dst: *dst,
                            lhs: *lhs,
                            rhs: *rhs,
                            target: *t,
                        })
                    }
                    (DOp::Mov { dst, src }, DOp::Br(t)) => {
                        stats.fused_mov_br += 1;
                        Some(DOp::MovBr {
                            dst: *dst,
                            src: *src,
                            target: *t,
                        })
                    }
                    (DOp::Store { addr, value, bytes }, DOp::Br(t)) => {
                        stats.fused_store_br += 1;
                        Some(DOp::StoreBr {
                            addr: *addr,
                            value: *value,
                            bytes: *bytes,
                            target: *t,
                        })
                    }
                    (
                        DOp::Bin { op, dst, lhs, rhs },
                        DOp::Load {
                            dst: ldst,
                            addr,
                            bytes,
                        },
                    ) => {
                        stats.fused_bin_load += 1;
                        Some(DOp::BinLoad {
                            op: *op,
                            bdst: *dst,
                            lhs: *lhs,
                            rhs: *rhs,
                            ldst: *ldst,
                            addr: *addr,
                            bytes: *bytes,
                        })
                    }
                    (
                        DOp::Load { dst, addr, bytes },
                        DOp::Bin {
                            op,
                            dst: bdst,
                            lhs,
                            rhs,
                        },
                    ) => {
                        stats.fused_load_bin += 1;
                        Some(DOp::LoadBin {
                            ldst: *dst,
                            addr: *addr,
                            bytes: *bytes,
                            op: *op,
                            bdst: *bdst,
                            lhs: *lhs,
                            rhs: *rhs,
                        })
                    }
                    _ => None,
                };
                if let Some(op) = fused {
                    block.slots[i].op = op;
                    block.slots[i + 1].kind = Kind::Absorbed;
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// The chain-component form of a plain op, if it has one. Control flow,
/// calls, `setjmp`/`longjmp`, `Alloca` (stack-pointer motion feeds crash
/// details), and already-fused superinstructions never chain.
fn chain_op(op: &DOp) -> Option<ChainOp> {
    Some(match op {
        DOp::Const { dst, value } => ChainOp::Const {
            dst: *dst,
            value: *value,
        },
        DOp::Mov { dst, src } => ChainOp::Mov {
            dst: *dst,
            src: *src,
        },
        DOp::Bin { op, dst, lhs, rhs } => ChainOp::Bin {
            op: *op,
            dst: *dst,
            lhs: *lhs,
            rhs: *rhs,
        },
        DOp::Cmp {
            pred,
            dst,
            lhs,
            rhs,
        } => ChainOp::Cmp {
            pred: *pred,
            dst: *dst,
            lhs: *lhs,
            rhs: *rhs,
        },
        DOp::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => ChainOp::Select {
            dst: *dst,
            cond: *cond,
            if_true: *if_true,
            if_false: *if_false,
        },
        DOp::CovEdgeK { id } => ChainOp::Cov { id: *id },
        DOp::Load { dst, addr, bytes } => ChainOp::Load {
            dst: *dst,
            addr: *addr,
            bytes: *bytes,
        },
        DOp::Store { addr, value, bytes } => ChainOp::Store {
            addr: *addr,
            value: *value,
            bytes: *bytes,
        },
        DOp::AddrOf { dst, global } => ChainOp::AddrOf {
            dst: *dst,
            global: *global,
        },
        _ => return None,
    })
}

/// Can this component crash? Crash-capable components report the chain
/// *head's* `(site_fn, site_block)`, so they may only join a chain whose
/// head shares their site; pure register/coverage components have no
/// observable site and may cross merge seams freely.
fn crashy(op: &ChainOp) -> bool {
    matches!(
        op,
        ChainOp::Bin { .. } | ChainOp::Load { .. } | ChainOp::Store { .. }
    )
}

/// The two-component decomposition of a fused interior pair
/// (`BinLoad`/`LoadBin`), if the op is one. A chain charges one cycle per
/// component, exactly what the fused op charges for its two source
/// instructions, so decomposing is cost-neutral — and it keeps one
/// pair-fusion site from splitting a long straight-line run in half.
fn pair_comps(op: &DOp) -> Option<[ChainOp; 2]> {
    match op {
        DOp::BinLoad {
            op,
            bdst,
            lhs,
            rhs,
            ldst,
            addr,
            bytes,
        } => Some([
            ChainOp::Bin {
                op: *op,
                dst: *bdst,
                lhs: *lhs,
                rhs: *rhs,
            },
            ChainOp::Load {
                dst: *ldst,
                addr: *addr,
                bytes: *bytes,
            },
        ]),
        DOp::LoadBin {
            ldst,
            addr,
            bytes,
            op,
            bdst,
            lhs,
            rhs,
        } => Some([
            ChainOp::Load {
                dst: *ldst,
                addr: *addr,
                bytes: *bytes,
            },
            ChainOp::Bin {
                op: *op,
                dst: *bdst,
                lhs: *lhs,
                rhs: *rhs,
            },
        ]),
        _ => None,
    }
}

/// Collapse straight-line runs of simple ops into [`DOp::Chain`]s — the
/// big dispatch-count lever. A run is a maximal sequence (in slot-index
/// space) of live chainable ops; interior eliminated slots are absorbed
/// into the *next* component's `pre` counter, so their charge lands at
/// exactly the reference position, and an unconditional `Br` terminator
/// immediately following the run is absorbed into the chain's tail. The
/// head slot stays live carrying the chain; every other consumed slot
/// becomes [`Kind::Absorbed`]. Trailing eliminated slots that never found
/// a following component stay [`Kind::Elim`] and ride the next live op's
/// stream-level `pre` as before.
fn build_chains(ir: &mut FuncIr, globals: &GlobalMap, stats: &mut OptStats) {
    for block in &mut ir.blocks {
        let n = block.slots.len();
        let mut i = 0;
        while i < n {
            if block.slots[i].kind != Kind::Live {
                i += 1;
                continue;
            }
            // A fused pair may head a chain too: its second component has
            // `pre == 0` and draws the fused op's second charge, and its
            // site is the head site by construction.
            let mut comps = if let Some(op) = chain_op(&block.slots[i].op) {
                vec![ChainSrc { pre: 0, op }]
            } else if let Some([a, b]) = pair_comps(&block.slots[i].op) {
                vec![ChainSrc { pre: 0, op: a }, ChainSrc { pre: 0, op: b }]
            } else {
                i += 1;
                continue;
            };
            let head_site = (block.slots[i].site_fn, block.slots[i].site_block);
            let mut tail = ChainTail::Next;
            // Last slot index consumed by the chain (head so far).
            let mut committed = i;
            // Eliminated slots seen since the last committed component,
            // owed by whatever component commits next.
            let mut pending: u16 = 0;
            let mut j = i + 1;
            while j < n {
                let slot = &block.slots[j];
                match slot.kind {
                    Kind::Absorbed => break,
                    Kind::Elim => {
                        let Some(p) = pending.checked_add(1) else {
                            break;
                        };
                        pending = p;
                    }
                    Kind::Live => {
                        // Terminator absorption first: the block's branch —
                        // including the compare/bin/store half of an
                        // already-fused branch, which decomposes back into
                        // a component plus a plain tail — ends the chain
                        // with the whole block under one dispatch.
                        let same_site = (slot.site_fn, slot.site_block) == head_site;
                        let absorbed = match &slot.op {
                            DOp::Br(t) => Some(ChainTail::Br {
                                pre: pending,
                                target: *t,
                            }),
                            DOp::CondBr {
                                cond,
                                if_true,
                                if_false,
                            } => Some(ChainTail::CondBr {
                                pre: pending,
                                cond: *cond,
                                if_true: *if_true,
                                if_false: *if_false,
                            }),
                            DOp::CmpBr {
                                pred,
                                dst,
                                lhs,
                                rhs,
                                if_true,
                                if_false,
                            } => {
                                comps.push(ChainSrc {
                                    pre: pending,
                                    op: ChainOp::Cmp {
                                        pred: *pred,
                                        dst: *dst,
                                        lhs: *lhs,
                                        rhs: *rhs,
                                    },
                                });
                                Some(ChainTail::CondBr {
                                    pre: 0,
                                    cond: Operand::Reg(fir::Reg(*dst)),
                                    if_true: *if_true,
                                    if_false: *if_false,
                                })
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
                                comps.push(ChainSrc {
                                    pre: pending,
                                    op: ChainOp::Cov { id: *id },
                                });
                                comps.push(ChainSrc {
                                    pre: 0,
                                    op: ChainOp::Cmp {
                                        pred: *pred,
                                        dst: *dst,
                                        lhs: *lhs,
                                        rhs: *rhs,
                                    },
                                });
                                Some(ChainTail::CondBr {
                                    pre: 0,
                                    cond: Operand::Reg(fir::Reg(*dst)),
                                    if_true: *if_true,
                                    if_false: *if_false,
                                })
                            }
                            DOp::BinBr {
                                op,
                                dst,
                                lhs,
                                rhs,
                                target,
                            } if same_site => {
                                comps.push(ChainSrc {
                                    pre: pending,
                                    op: ChainOp::Bin {
                                        op: *op,
                                        dst: *dst,
                                        lhs: *lhs,
                                        rhs: *rhs,
                                    },
                                });
                                Some(ChainTail::Br {
                                    pre: 0,
                                    target: *target,
                                })
                            }
                            DOp::MovBr { dst, src, target } => {
                                comps.push(ChainSrc {
                                    pre: pending,
                                    op: ChainOp::Mov {
                                        dst: *dst,
                                        src: *src,
                                    },
                                });
                                Some(ChainTail::Br {
                                    pre: 0,
                                    target: *target,
                                })
                            }
                            DOp::StoreBr {
                                addr,
                                value,
                                bytes,
                                target,
                            } if same_site => {
                                comps.push(ChainSrc {
                                    pre: pending,
                                    op: ChainOp::Store {
                                        addr: *addr,
                                        value: *value,
                                        bytes: *bytes,
                                    },
                                });
                                Some(ChainTail::Br {
                                    pre: 0,
                                    target: *target,
                                })
                            }
                            _ => None,
                        };
                        if let Some(t) = absorbed {
                            tail = t;
                            committed = j;
                            break;
                        }
                        // Interior fused pairs decompose into components
                        // rather than fragmenting the run — a chain already
                        // charges per component, so `Bin`+`Load` inside a
                        // chain costs exactly what `BinLoad` does. Both
                        // halves are crash-capable, so a pair from another
                        // site ends the chain.
                        if let Some([a, b]) = pair_comps(&slot.op) {
                            if !same_site {
                                break;
                            }
                            comps.push(ChainSrc {
                                pre: pending,
                                op: a,
                            });
                            comps.push(ChainSrc { pre: 0, op: b });
                            pending = 0;
                            committed = j;
                            j += 1;
                            continue;
                        }
                        let Some(op) = chain_op(&slot.op) else {
                            break;
                        };
                        if crashy(&op) && !same_site {
                            break;
                        }
                        comps.push(ChainSrc { pre: pending, op });
                        pending = 0;
                        committed = j;
                    }
                }
                j += 1;
            }
            // A chain that consumed only its own head slot gains nothing
            // (a lone op — or a lone fused pair — is already one
            // dispatch); one that absorbed further slots or a terminator
            // always saves dispatches.
            if committed == i && matches!(tail, ChainTail::Next) {
                i += 1;
                continue;
            }
            for k in i + 1..=committed {
                debug_assert_ne!(block.slots[k].kind, Kind::Absorbed);
                block.slots[k].kind = Kind::Absorbed;
            }
            stats.chains += 1;
            stats.chain_comps += comps.len() as u64;
            block.slots[i].op = DOp::chain(&comps, tail, globals);
            i = committed + 1;
        }
    }
}

/// Give every chain whose absorbed `Br` goes to a [`DOp::CovCmpBr`] loop
/// header a [`ChainTail::Loop`], so the engine can run the header in place
/// and, when the header branches back to the chain, go round again under
/// the same dispatch. This runs on the emitted stream, where the header's
/// and the chain's stream `pre` charges are known; the loop tail carries
/// both, so the engine charges each iteration exactly what the separate
/// dispatches would. The header op stays where it is: the loop is entered
/// through it, and it runs whenever the fuel left does not cover it.
fn loop_tails(df: &mut DFunc) {
    for c in 0..df.ops.len() {
        let DOp::Chain {
            tail: ChainTail::Br { pre, target },
            ..
        } = df.ops[c]
        else {
            continue;
        };
        let h = target as usize;
        let DOp::CovCmpBr {
            id,
            pred,
            dst,
            lhs,
            rhs,
            if_true,
            if_false,
        } = df.ops[h]
        else {
            continue;
        };
        let lt = LoopTail {
            pre,
            header: target,
            id,
            pred,
            dst,
            lhs,
            rhs,
            if_true,
            if_false,
            header_charge: u64::from(df.pre[h]) + 3,
            head_charge: u64::from(df.pre[c]) + 1,
        };
        if let DOp::Chain { tail, .. } = &mut df.ops[c] {
            *tail = ChainTail::Loop(Box::new(lt));
        }
    }
}

/// Emit the laid-out IR as a [`DFunc`]: assign pcs to live slots, resolve
/// branch targets from block indices to pcs, accumulate `pre` counters
/// from eliminated slots, and build the source-coordinate resume map.
fn emit(mut ir: FuncIr, layout: &[u32]) -> DFunc {
    // Pass 1: pc of each block's first live slot (branch target), plus a
    // per-slot pc assignment for live slots.
    let mut block_entry = vec![0u32; ir.blocks.len()];
    let mut pc: u32 = 0;
    for &b in layout {
        let mut first = true;
        for slot in &ir.blocks[b as usize].slots {
            if slot.kind != Kind::Live {
                continue;
            }
            if first {
                block_entry[b as usize] = pc;
                first = false;
            }
            pc += 1;
        }
        debug_assert!(!first, "laid-out block {b} has no live terminator");
    }
    let total = pc as usize;

    // Pass 2: emit.
    let mut ops = Vec::with_capacity(total);
    let mut pre = Vec::with_capacity(total);
    let mut block_of = Vec::with_capacity(total);
    let mut fname_of = Vec::with_capacity(total);
    let mut pc_of_src = vec![0u32; ir.src_total as usize];
    let mut pending: u16 = 0;
    let mut pending_srcs: Vec<(u32, u32)> = Vec::new();
    let mut last_pc: u32 = 0;
    let src_idx = |src: (u32, u32)| (ir.orig_start[src.0 as usize] + src.1) as usize;
    // Each block is laid out once, so its ops move into the stream.
    for &b in layout {
        for slot in std::mem::take(&mut ir.blocks[b as usize].slots) {
            match slot.kind {
                Kind::Elim => {
                    pending = pending.checked_add(1).expect("pre counter fits u16");
                    if let Some(src) = slot.src {
                        pending_srcs.push(src);
                    }
                }
                Kind::Absorbed => {
                    // Components of a fused op map backward to it.
                    if let Some(src) = slot.src {
                        pc_of_src[src_idx(src)] = last_pc;
                    }
                }
                Kind::Live => {
                    let pc = ops.len() as u32;
                    let mut op = slot.op;
                    op.retarget(|blk| block_entry[blk as usize]);
                    ops.push(op);
                    pre.push(pending);
                    block_of.push(slot.site_block);
                    fname_of.push(slot.site_fn);
                    // Eliminated slots resume at the next live op, with
                    // their charge owed in its `pre`.
                    for src in pending_srcs.drain(..) {
                        pc_of_src[src_idx(src)] = pc;
                    }
                    if let Some(src) = slot.src {
                        pc_of_src[src_idx(src)] = pc;
                    }
                    pending = 0;
                    last_pc = pc;
                }
            }
        }
        debug_assert_eq!(pending, 0, "block must end in a live terminator");
    }
    debug_assert_eq!(ops.len(), total);

    // Source block starts, through the resume map (a source block whose
    // slots were merged into a predecessor still resolves correctly).
    let block_start = ir
        .orig_start
        .iter()
        .map(|&s| pc_of_src.get(s as usize).copied().unwrap_or(0))
        .collect();

    DFunc {
        name: ir.name,
        num_params: ir.num_params,
        num_regs: ir.num_regs,
        ops,
        pre,
        block_of,
        fname_of,
        block_start,
        orig_start: ir.orig_start,
        pc_of_src,
    }
}
