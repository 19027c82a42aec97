//! Property-based tests over FIR: random well-formed modules must verify,
//! print, and re-parse to an identical module; the CFG and liveness
//! analyses must agree with their naive definitions on random CFGs; and
//! the streamed fingerprint must hash exactly the printed text.

use proptest::prelude::*;

use crate::builder::ModuleBuilder;
use crate::cfg::loop_blocks;
use crate::global::Global;
use crate::inst::{BinOp, BlockId, CmpPred, Inst, Operand, Reg, Terminator, Width};
use crate::liveness::liveness;
use crate::module::{Block, Function, Module};
use crate::parser::parse_module;
use crate::printer::print_module;
use crate::verify::verify_module;

#[derive(Debug, Clone)]
enum GenInst {
    Const(i64),
    Bin(u8, i64),
    Cmp(u8, i64),
    Load(u8),
    Store(u8, i64),
    AddrOf,
    Alloca(u32),
    Call(String, Vec<i64>),
    Select(i64, i64),
}

fn gen_inst() -> impl Strategy<Value = GenInst> {
    prop_oneof![
        any::<i64>().prop_map(GenInst::Const),
        (0u8..13, any::<i64>()).prop_map(|(o, v)| GenInst::Bin(o, v)),
        (0u8..10, any::<i64>()).prop_map(|(p, v)| GenInst::Cmp(p, v)),
        (0u8..4).prop_map(GenInst::Load),
        ((0u8..4), any::<i64>()).prop_map(|(w, v)| GenInst::Store(w, v)),
        Just(GenInst::AddrOf),
        (1u32..512).prop_map(GenInst::Alloca),
        (
            "[a-z][a-z0-9_]{0,10}",
            prop::collection::vec(any::<i64>(), 0..4)
        )
            .prop_map(|(n, a)| GenInst::Call(n, a)),
        (any::<i64>(), any::<i64>()).prop_map(|(a, b)| GenInst::Select(a, b)),
    ]
}

const BINOPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::UDiv,
    BinOp::SDiv,
    BinOp::URem,
    BinOp::SRem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::LShr,
    BinOp::AShr,
];
const PREDS: [CmpPred; 10] = [
    CmpPred::Eq,
    CmpPred::Ne,
    CmpPred::ULt,
    CmpPred::ULe,
    CmpPred::UGt,
    CmpPred::UGe,
    CmpPred::SLt,
    CmpPred::SLe,
    CmpPred::SGt,
    CmpPred::SGe,
];
const WIDTHS: [Width; 4] = [Width::W8, Width::W16, Width::W32, Width::W64];

/// Build a random-but-well-formed module out of generated instruction specs.
fn build_module(fn_bodies: Vec<Vec<GenInst>>, global_sizes: Vec<u16>) -> Module {
    let mut mb = ModuleBuilder::new("prop");
    let mut gids = Vec::new();
    for (i, sz) in global_sizes.iter().enumerate() {
        gids.push(mb.global(Global::zeroed(format!("g{i}"), u64::from(*sz) + 1)));
    }
    if gids.is_empty() {
        gids.push(mb.global(Global::zeroed("g_default", 8)));
    }
    for (fi, body) in fn_bodies.iter().enumerate() {
        let mut f = mb.function_with_params(format!("f{fi}"), 1);
        let mut last = f.param(0);
        for gi in body {
            last = match gi.clone() {
                GenInst::Const(v) => f.const_i64(v),
                GenInst::Bin(o, v) => f.bin(
                    BINOPS[o as usize % BINOPS.len()],
                    Operand::Reg(last),
                    Operand::Imm(v),
                ),
                GenInst::Cmp(p, v) => f.cmp(
                    PREDS[p as usize % PREDS.len()],
                    Operand::Reg(last),
                    Operand::Imm(v),
                ),
                GenInst::Load(w) => f.load(Operand::Reg(last), WIDTHS[w as usize % 4]),
                GenInst::Store(w, v) => {
                    f.store(Operand::Reg(last), Operand::Imm(v), WIDTHS[w as usize % 4]);
                    last
                }
                GenInst::AddrOf => f.addr_of(gids[0]),
                GenInst::Alloca(s) => f.alloca(s),
                GenInst::Call(name, args) => {
                    f.call(name, args.into_iter().map(Operand::Imm).collect::<Vec<_>>())
                }
                GenInst::Select(a, b) => {
                    f.select(Operand::Reg(last), Operand::Imm(a), Operand::Imm(b))
                }
            };
        }
        f.ret(Some(Operand::Reg(last)));
        f.finish();
    }
    mb.finish()
}

/// Registers of a generated CFG function.
const CFG_REGS: u32 = 70;

/// One generated block: `(dst, lhs, rhs, kind)` instruction specs, then a
/// terminator `(kind, operand register, raw targets)`. Targets are taken
/// modulo the block count, so any raw value names a block.
type GenBlock = (Vec<(u32, u32, u32, u8)>, (u8, u32, Vec<u32>));

fn gen_block() -> impl Strategy<Value = GenBlock> {
    (
        prop::collection::vec((0..CFG_REGS, 0..CFG_REGS, 0..CFG_REGS, 0u8..4), 0..6),
        (
            0u8..6,
            0..CFG_REGS,
            prop::collection::vec(any::<u32>(), 3..6),
        ),
    )
}

/// Build a function with an arbitrary CFG: self-loops, switches with
/// repeated targets, unreachable blocks and exits all occur. Registers
/// span more than one 64-bit word of a register set.
fn build_cfg(blocks: Vec<GenBlock>) -> Function {
    let n = blocks.len() as u32;
    let blocks = blocks
        .into_iter()
        .map(|(insts, (kind, r, targets))| {
            let reg = |r: u32| Operand::Reg(Reg(r));
            let insts = insts
                .into_iter()
                .map(|(d, a, b, k)| match k {
                    0 => Inst::Bin {
                        op: BinOp::Add,
                        dst: Reg(d),
                        lhs: reg(a),
                        rhs: reg(b),
                    },
                    1 => Inst::Mov {
                        dst: Reg(d),
                        src: reg(a),
                    },
                    2 => Inst::Store {
                        addr: reg(a),
                        value: reg(b),
                        width: Width::W64,
                    },
                    _ => Inst::Call {
                        dst: Some(Reg(d)),
                        callee: "f".into(),
                        args: vec![reg(a), Operand::Imm(1), reg(b)],
                    },
                })
                .collect();
            let t = |i: usize| BlockId(targets[i] % n);
            let term = match kind {
                0 => Terminator::Ret(Some(reg(r))),
                1 => Terminator::Ret(None),
                2 => Terminator::Br(t(0)),
                3 => Terminator::CondBr {
                    cond: reg(r),
                    if_true: t(0),
                    if_false: t(1),
                },
                4 => Terminator::Switch {
                    value: reg(r),
                    cases: (1..targets.len()).map(|i| (i as i64, t(i))).collect(),
                    default: t(0),
                },
                _ => Terminator::Unreachable,
            };
            Block { insts, term }
        })
        .collect();
    Function {
        name: "cfg".into(),
        num_params: 1,
        num_regs: CFG_REGS,
        blocks,
    }
}

/// `loop_blocks`' definition: block `b` can reach itself, by breadth-first
/// search from its successors.
fn reaches_itself(f: &Function, b: usize) -> bool {
    let mut seen = vec![false; f.blocks.len()];
    let mut queue: std::collections::VecDeque<usize> = f.blocks[b]
        .term
        .successors()
        .map(|s| s.0 as usize)
        .collect();
    while let Some(x) = queue.pop_front() {
        if x == b {
            return true;
        }
        if !std::mem::replace(&mut seen[x], true) {
            queue.extend(f.blocks[x].term.successors().map(|s| s.0 as usize));
        }
    }
    false
}

/// Per-block live-in/live-out sets by the textbook per-instruction
/// fixpoint over `BTreeSet`s: `out[b]` is the union of the successors'
/// `in`, and `in[b]` walks `b` backwards one instruction at a time.
type Sets = Vec<std::collections::BTreeSet<u32>>;
fn naive_liveness(f: &Function) -> (Sets, Sets) {
    let n = f.blocks.len();
    let mut live_in: Sets = vec![Default::default(); n];
    let mut live_out: Sets = vec![Default::default(); n];
    let regs = |ops: Vec<Operand>| ops.into_iter().filter_map(|o| o.as_reg().map(|r| r.0));
    loop {
        let mut changed = false;
        for b in 0..n {
            let block = &f.blocks[b];
            let out: std::collections::BTreeSet<u32> = block
                .term
                .successors()
                .flat_map(|s| live_in[s.0 as usize].iter().copied().collect::<Vec<_>>())
                .collect();
            let mut live = out.clone();
            let term_uses = match &block.term {
                Terminator::Ret(v) => v.iter().copied().collect(),
                Terminator::CondBr { cond, .. } => vec![*cond],
                Terminator::Switch { value, .. } => vec![*value],
                Terminator::Br(_) | Terminator::Unreachable => vec![],
            };
            live.extend(regs(term_uses));
            for inst in block.insts.iter().rev() {
                if let Some(d) = inst.dst() {
                    live.remove(&d.0);
                }
                live.extend(regs(inst.operands().collect()));
            }
            changed |= out != live_out[b] || live != live_in[b];
            live_out[b] = out;
            live_in[b] = live;
        }
        if !changed {
            return (live_in, live_out);
        }
    }
}

/// FNV-1a of `text`, then the fingerprint's structural folds: what
/// `Module::fingerprint` must equal without ever building the text.
fn fingerprint_of_text(m: &Module, text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h ^= (m.functions.len() as u64).rotate_left(17);
    h ^= (m.globals.len() as u64).rotate_left(33);
    h ^ (m.inst_count() as u64).rotate_left(49)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `loop_blocks` flags exactly the blocks that can reach themselves.
    #[test]
    fn loop_blocks_match_per_block_search(
        blocks in prop::collection::vec(gen_block(), 1..14),
    ) {
        let f = build_cfg(blocks);
        let flags = loop_blocks(&f);
        prop_assert_eq!(flags.len(), f.blocks.len());
        for (b, flag) in flags.iter().enumerate() {
            prop_assert_eq!(*flag, reaches_itself(&f, b), "block {}", b);
        }
    }

    /// The gen/kill liveness equals the per-instruction fixpoint, on
    /// random CFGs and on builder-produced modules.
    #[test]
    fn liveness_matches_naive_fixpoint(
        blocks in prop::collection::vec(gen_block(), 1..14),
        bodies in prop::collection::vec(prop::collection::vec(gen_inst(), 0..20), 1..3),
    ) {
        let m = build_module(bodies, vec![]);
        for f in std::iter::once(&build_cfg(blocks)).chain(&m.functions) {
            let lv = liveness(f);
            let (live_in, live_out) = naive_liveness(f);
            for b in 0..f.blocks.len() {
                for r in 0..f.num_regs {
                    prop_assert_eq!(lv.live_in[b].contains(r), live_in[b].contains(&r));
                    prop_assert_eq!(lv.live_out[b].contains(r), live_out[b].contains(&r));
                }
            }
        }
    }

    /// The streamed fingerprint hashes exactly `print_module`'s bytes.
    #[test]
    fn fingerprint_hashes_the_printed_text(
        bodies in prop::collection::vec(prop::collection::vec(gen_inst(), 0..20), 1..4),
        sizes in prop::collection::vec(any::<u16>(), 0..3),
        blocks in prop::collection::vec(gen_block(), 1..8),
    ) {
        let mut m = build_module(bodies, sizes);
        m.functions.push(build_cfg(blocks));
        prop_assert_eq!(m.fingerprint(), fingerprint_of_text(&m, &print_module(&m)));
    }

    /// Any module produced through the builder is structurally valid.
    #[test]
    fn built_modules_verify(
        bodies in prop::collection::vec(prop::collection::vec(gen_inst(), 0..20), 1..4),
        sizes in prop::collection::vec(any::<u16>(), 0..3),
    ) {
        let m = build_module(bodies, sizes);
        prop_assert!(verify_module(&m).is_ok());
    }

    /// print → parse is the identity on builder-produced modules.
    #[test]
    fn print_parse_roundtrip(
        bodies in prop::collection::vec(prop::collection::vec(gen_inst(), 0..20), 1..4),
        sizes in prop::collection::vec(any::<u16>(), 0..3),
    ) {
        let m = build_module(bodies, sizes);
        let text = print_module(&m);
        let parsed = parse_module(&text).expect("parse printed module");
        prop_assert_eq!(m, parsed);
    }

    /// replace_callee is idempotent and conserves total call-site count.
    #[test]
    fn replace_callee_conserves_calls(
        bodies in prop::collection::vec(prop::collection::vec(gen_inst(), 0..20), 1..4),
    ) {
        let mut m = build_module(bodies, vec![]);
        let before: usize = m.call_site_histogram().values().sum();
        m.replace_callee("malloc", "closurex_malloc");
        let n2 = m.replace_callee("malloc", "closurex_malloc");
        prop_assert_eq!(n2, 0, "second rewrite must find nothing");
        let after: usize = m.call_site_histogram().values().sum();
        prop_assert_eq!(before, after);
    }
}
