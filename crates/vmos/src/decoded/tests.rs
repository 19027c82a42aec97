use std::sync::Arc;

use fir::builder::ModuleBuilder;
use fir::{CmpPred, Module, Operand};

use super::*;
use crate::hostcalls;

fn sample_module() -> Module {
    let mut mb = ModuleBuilder::new("m");
    let mut g = mb.function_with_params("helper", 1);
    let d = g.add(Operand::Reg(g.param(0)), Operand::Imm(1));
    g.ret(Some(Operand::Reg(d)));
    g.finish();
    let mut f = mb.function_with_params("main", 1);
    let r = f.call("helper", vec![Operand::Reg(f.param(0))]);
    let t = f.new_block();
    let e = f.new_block();
    f.cond_br(Operand::Reg(r), t, e);
    f.switch_to(t);
    f.call_void("puts", vec![Operand::Imm(0)]);
    f.ret(Some(Operand::Imm(1)));
    f.switch_to(e);
    f.call_void("no_such_symbol", vec![]);
    f.ret(Some(Operand::Imm(0)));
    f.finish();
    mb.finish()
}

/// `sum(n) = 0 + 1 + ... + n-1` with a coverage probe in the loop header —
/// the canonical MinC loop shape the fusion pass targets.
fn loop_module() -> Module {
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
    f.call_void("__cov_edge", vec![Operand::Imm(7)]);
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
    mb.finish()
}

#[test]
fn lowering_is_one_to_one_with_source() {
    let m = sample_module();
    let img = DecodedImage::new(&m);
    for (fi, f) in m.functions.iter().enumerate() {
        let df = &img.funcs[fi];
        let expect: usize = f.blocks.iter().map(|b| b.insts.len() + 1).sum();
        assert_eq!(df.ops.len(), expect);
        assert_eq!(df.block_of.len(), expect);
        assert_eq!(df.block_start.len(), f.blocks.len());
        // Round-trip every pc through (block, ip) coordinates.
        for pc in 0..df.ops.len() as u32 {
            let (b, ip) = df.coords(pc);
            assert_eq!(df.flat_pc(b, ip), pc);
            assert!(ip <= f.blocks[b as usize].insts.len());
        }
    }
}

#[test]
fn calls_are_classified_like_the_reference_precedence() {
    let m = sample_module();
    let img = DecodedImage::new(&m);
    let main = &img.funcs[m.function_id("main").unwrap().0 as usize];
    assert!(main.ops.iter().any(
        |op| matches!(op, DOp::CallFn { callee, .. } if *callee == m.function_id("helper").unwrap())
    ));
    assert!(main.ops.iter().any(|op| matches!(
        op,
        DOp::CallHost { host, .. } if host.fun == hostcalls::HostFn::Puts
    )));
    assert!(main
        .ops
        .iter()
        .any(|op| matches!(op, DOp::CallUnknown { name } if &**name == "no_such_symbol")));
}

#[test]
fn module_functions_shadow_hostcalls() {
    // A module defining its own `malloc` must win over the host table,
    // exactly like the reference interpreter's resolution order.
    let mut mb = ModuleBuilder::new("m");
    let mut g = mb.function_with_params("malloc", 1);
    g.ret(Some(Operand::Imm(0)));
    g.finish();
    let mut f = mb.function("main");
    let _ = f.call("malloc", vec![Operand::Imm(8)]);
    f.ret(None);
    f.finish();
    let m = mb.finish();
    let img = DecodedImage::new(&m);
    let main = &img.funcs[m.function_id("main").unwrap().0 as usize];
    assert!(main.ops.iter().any(|op| matches!(op, DOp::CallFn { .. })));
}

#[test]
fn cache_returns_same_image_for_equal_modules() {
    let m1 = sample_module();
    let m2 = sample_module();
    let i1 = DecodedImage::cached(&m1);
    let i2 = DecodedImage::cached(&m2);
    assert!(Arc::ptr_eq(&i1, &i2), "structurally equal modules share");
    assert_eq!(i1.fingerprint, m1.fingerprint());

    let mut m3 = sample_module();
    m3.function_mut("helper").unwrap().num_regs += 1;
    let i3 = DecodedImage::cached(&m3);
    assert!(!Arc::ptr_eq(&i1, &i3), "different module, different image");
}

#[test]
fn warm_populates_the_cache_and_reports_hits() {
    let mut m = sample_module();
    // A module no other test lowers, so the first warm is a miss.
    m.function_mut("helper").unwrap().num_regs += 7;
    let fp = m.fingerprint();
    assert!(!DecodedImage::cache_contains(fp));
    assert_eq!(
        DecodedImage::warm(&m),
        WarmSource::Lowered,
        "first warm pays for the lowering"
    );
    assert!(DecodedImage::cache_contains(fp));
    assert_eq!(
        DecodedImage::warm(&m),
        WarmSource::Cache,
        "second warm is a cache hit"
    );
}

#[test]
fn cache_key_mixes_the_optimizer_discriminant() {
    // The historical bug: images keyed by fingerprint alone, so a build
    // with a different optimizer revision could be served another
    // revision's stream. The key must differ from the raw fingerprint for
    // every fingerprint.
    for fp in [0u64, 1, 0xdead_beef, u64::MAX] {
        assert_ne!(DecodedImage::cache_key(fp), fp);
    }
    // Pinned: the key is the cache's identity for an image.
    assert_eq!(DecodedImage::cache_key(0), 0x3779_b97f_4a7c_1500);
}

#[test]
fn loop_header_fuses_into_the_cov_cmp_br_triple() {
    let img = DecodedImage::new(&loop_module());
    let stats = &img.stats;
    assert!(stats.fused_cov_cmp_br >= 1, "stats: {stats:?}");
    assert!(stats.movs_coalesced >= 2, "latch movs coalesce: {stats:?}");
    let df = &img.opt_funcs[0];
    assert!(df.ops.iter().any(|op| matches!(op, DOp::CovCmpBr { .. })));
    // The plain stream must stay strictly 1:1.
    assert!(img.funcs[0]
        .ops
        .iter()
        .all(|op| !matches!(op, DOp::CovCmpBr { .. } | DOp::CovEdgeK { .. })));
    assert!(img.funcs[0].pre.iter().all(|&p| p == 0));
}

/// Every eliminated or fused source instruction must still be charged
/// exactly once: live pcs + `pre` counters + fused-component extras
/// must add up to the source instruction count.
#[test]
fn charge_capacity_matches_the_source_instruction_count() {
    let m = loop_module();
    let img = DecodedImage::new(&m);
    let f = &m.functions[0];
    let source_total: usize = f.blocks.iter().map(|b| b.insts.len() + 1).sum();
    let df = &img.opt_funcs[0];
    let extras: usize = df
        .ops
        .iter()
        .map(|op| match op {
            DOp::CovCmpBr { .. } => 2,
            DOp::CmpBr { .. }
            | DOp::BinBr { .. }
            | DOp::MovBr { .. }
            | DOp::StoreBr { .. }
            | DOp::BinLoad { .. }
            | DOp::LoadBin { .. } => 1,
            DOp::BrChain { skipped, .. } => *skipped as usize,
            // A chain charges each component (head rides the stream
            // charge) plus every absorbed eliminated slot plus the
            // absorbed branch, if any.
            DOp::Chain { comps, tail, rest } => {
                let comp_charges: usize = comps.iter().skip(1).map(|c| 1 + c.pre() as usize).sum();
                let charge = comp_charges
                    + match tail {
                        ChainTail::Next => 0,
                        ChainTail::Br { pre, .. } => 1 + *pre as usize,
                        ChainTail::CondBr { pre, .. } => 1 + *pre as usize,
                        ChainTail::Loop(lt) => 1 + lt.pre as usize,
                    };
                assert_eq!(*rest, charge as u64, "derived chain charge");
                charge
            }
            _ => 0,
        })
        .sum();
    let pres: usize = df.pre.iter().map(|&p| p as usize).sum();
    assert_eq!(df.ops.len() + pres + extras, source_total);
}

#[test]
fn resume_map_is_total_over_source_coordinates() {
    for m in [sample_module(), loop_module()] {
        let img = DecodedImage::new(&m);
        for (fi, f) in m.functions.iter().enumerate() {
            let df = &img.opt_funcs[fi];
            for (bi, b) in f.blocks.iter().enumerate() {
                for ip in 0..=b.insts.len() {
                    let pc = df.src_pc(bi as u32, ip);
                    assert!(
                        (pc as usize) < df.ops.len(),
                        "{}: ({bi},{ip}) -> {pc} out of range",
                        f.name
                    );
                }
            }
        }
    }
}

#[test]
fn small_leaf_callees_inline_at_decode_time() {
    let mut mb = ModuleBuilder::new("m");
    let mut g = mb.function_with_params("inc", 1);
    let d = g.add(Operand::Reg(g.param(0)), Operand::Imm(1));
    g.ret(Some(Operand::Reg(d)));
    g.finish();
    let mut f = mb.function_with_params("count", 1);
    let n = f.param(0);
    let i = f.const_i64(0);
    let hdr = f.new_block();
    let body = f.new_block();
    let done = f.new_block();
    f.br(hdr);
    f.switch_to(hdr);
    let c = f.cmp(CmpPred::SLt, Operand::Reg(i), Operand::Reg(n));
    f.cond_br(Operand::Reg(c), body, done);
    f.switch_to(body);
    let i2 = f.call("inc", vec![Operand::Reg(i)]);
    f.mov_to(i, Operand::Reg(i2));
    f.br(hdr);
    f.switch_to(done);
    f.ret(Some(Operand::Reg(i)));
    f.finish();
    let m = mb.finish();
    let img = DecodedImage::new(&m);
    assert!(img.stats.inline_sites >= 1, "stats: {:?}", img.stats);
    assert_eq!(img.stats.inlined_callees, 1);
    let count = &img.opt_funcs[m.function_id("count").unwrap().0 as usize];
    assert!(count
        .ops
        .iter()
        .any(|op| matches!(op, DOp::InlineEnter { .. })));
    assert!(count
        .ops
        .iter()
        .any(|op| matches!(op, DOp::InlineRet { .. })));
    assert!(count.ops.iter().all(|op| !matches!(op, DOp::CallFn { .. })));
    // The inline window extends the register file beyond the source's.
    let src_regs = m.function("count").unwrap().num_regs;
    assert!(count.num_regs > src_regs);
    // The plain stream still calls.
    assert!(img.funcs[m.function_id("count").unwrap().0 as usize]
        .ops
        .iter()
        .any(|op| matches!(op, DOp::CallFn { .. })));
}

#[test]
fn dense_switches_become_jump_tables() {
    let mut mb = ModuleBuilder::new("m");
    let mut f = mb.function_with_params("classify", 1);
    let v = f.param(0);
    let a = f.new_block();
    let b = f.new_block();
    let c = f.new_block();
    let dflt = f.new_block();
    f.switch(Operand::Reg(v), vec![(10, a), (11, b), (12, c)], dflt);
    for (blk, r) in [(a, 1i64), (b, 2), (c, 3), (dflt, 0)] {
        f.switch_to(blk);
        f.ret(Some(Operand::Imm(r)));
    }
    f.finish();
    let m = mb.finish();
    let img = DecodedImage::new(&m);
    assert_eq!(img.stats.switch_tables, 1);
    let df = &img.opt_funcs[0];
    let table = df
        .ops
        .iter()
        .find_map(|op| match op {
            DOp::SwitchTable { base, table, .. } => Some((*base, table.len())),
            _ => None,
        })
        .expect("switch specialized");
    assert_eq!(table, (10, 3));
}

#[test]
fn setjmp_functions_skip_elimination_but_not_layout() {
    let mut mb = ModuleBuilder::new("m");
    let g = mb.global(fir::Global::zeroed("jbuf", 64));
    let mut f = mb.function("main");
    let a = f.addr_of(g);
    let v = f.call("setjmp", vec![Operand::Reg(a)]);
    // A dead temp that DCE would normally erase.
    let dead = f.add(Operand::Reg(v), Operand::Imm(1));
    let _ = dead;
    f.ret(Some(Operand::Reg(v)));
    f.finish();
    let m = mb.finish();
    let img = DecodedImage::new(&m);
    let df = &img.opt_funcs[0];
    // Nothing eliminated: longjmp re-entry makes static liveness moot.
    assert!(df.pre.iter().all(|&p| p == 0));
    assert_eq!(df.ops.len(), img.funcs[0].ops.len());
}

#[test]
fn dop_size_stays_dispatch_friendly() {
    // The ops array stride is the dispatch loop's cache footprint;
    // growing the largest variant taxes every target. 72 bytes is the
    // current stride (set by the fattest fused variants); anyone adding a
    // wider op should box its payload instead of raising this bound.
    assert!(
        std::mem::size_of::<DOp>() <= 72,
        "DOp grew to {} bytes — box the new variant's payload",
        std::mem::size_of::<DOp>()
    );
    // A chain runs its component array in a tight loop: 24 bytes holds the
    // widest resolved component (two 64-bit immediates plus a tag, `pre`
    // and a register or width).
    assert!(
        std::mem::size_of::<ChainComp>() <= 24,
        "ChainComp grew to {} bytes — box the new variant's payload",
        std::mem::size_of::<ChainComp>()
    );
}

#[test]
fn chain_components_resolve_to_their_variants() {
    use fir::{BinOp, GlobalId, Reg};
    let (r, i) = (|n| Operand::Reg(Reg(n)), Operand::Imm);
    let bin = |op, lhs, rhs| ChainOp::Bin {
        op,
        dst: 9,
        lhs,
        rhs,
    };
    let cases = [
        (ChainOp::Const { dst: 1, value: -5 }, "Const"),
        (ChainOp::Mov { dst: 1, src: r(2) }, "Mov"),
        (ChainOp::Mov { dst: 1, src: i(7) }, "MovImm"),
        (bin(BinOp::Add, r(1), r(2)), "AddRR"),
        (bin(BinOp::Add, r(1), i(3)), "AddRI"),
        (bin(BinOp::Add, i(3), r(1)), "AddIR"),
        (bin(BinOp::Add, i(3), i(4)), "BinII"),
        (bin(BinOp::Mul, r(1), r(2)), "BinRR"),
        (bin(BinOp::Mul, r(1), i(3)), "MulRI"),
        (bin(BinOp::Mul, i(3), r(1)), "BinIR"),
        (bin(BinOp::And, r(1), r(2)), "BinRR"),
        (bin(BinOp::And, r(1), i(255)), "AndRI"),
        (bin(BinOp::SRem, r(1), i(8)), "SRemPow2"),
        (bin(BinOp::SRem, r(1), i(1)), "SRemPow2"),
        (bin(BinOp::SRem, r(1), i(1 << 62)), "SRemPow2"),
        (bin(BinOp::SRem, r(1), i(-8)), "SRemRK"),
        (bin(BinOp::SRem, r(1), i(12)), "SRemRK"),
        (bin(BinOp::SRem, r(1), i(i64::MIN)), "SRemRK"),
        // Divisors that can trap keep the checked generic form.
        (bin(BinOp::SRem, r(1), i(0)), "BinRI"),
        (bin(BinOp::SRem, r(1), i(-1)), "BinRI"),
        (bin(BinOp::SRem, r(1), r(2)), "BinRR"),
        (bin(BinOp::SDiv, r(1), i(2)), "BinRI"),
        (bin(BinOp::Shl, i(1), i(2)), "BinII"),
        (
            ChainOp::Cmp {
                pred: CmpPred::SLt,
                dst: 3,
                lhs: r(1),
                rhs: i(4),
            },
            "CmpRI",
        ),
        (
            ChainOp::Cmp {
                pred: CmpPred::Eq,
                dst: 3,
                lhs: i(1),
                rhs: r(4),
            },
            "CmpIR",
        ),
        (
            ChainOp::Select {
                dst: 3,
                cond: r(1),
                if_true: i(2),
                if_false: r(3),
            },
            "Select",
        ),
        (ChainOp::Cov { id: 77 }, "Cov"),
        (
            ChainOp::Load {
                dst: 2,
                addr: r(1),
                bytes: 8,
            },
            "LoadR",
        ),
        (
            ChainOp::Load {
                dst: 2,
                addr: i(0x1000_0010),
                bytes: 1,
            },
            "LoadG",
        ),
        // Constant addresses the layout does not accept keep the check:
        // `ro`'s padding, past `rw`'s end, a store to `ro`, the heap.
        (
            ChainOp::Load {
                dst: 2,
                addr: i(0x1000_0008),
                bytes: 1,
            },
            "LoadI",
        ),
        (
            ChainOp::Load {
                dst: 2,
                addr: i(0x1000_001c),
                bytes: 8,
            },
            "LoadI",
        ),
        (
            ChainOp::Load {
                dst: 2,
                addr: i(0x4000_0000),
                bytes: 8,
            },
            "LoadI",
        ),
        (
            ChainOp::Store {
                addr: i(0x1000_0010),
                value: r(2),
                bytes: 8,
            },
            "StoreGR",
        ),
        (
            ChainOp::Store {
                addr: i(0x1000_0018),
                value: i(3),
                bytes: 8,
            },
            "StoreGI",
        ),
        (
            ChainOp::Store {
                addr: i(0x1000_001c),
                value: i(3),
                bytes: 8,
            },
            "StoreII",
        ),
        (
            ChainOp::Store {
                addr: r(1),
                value: r(2),
                bytes: 4,
            },
            "StoreRR",
        ),
        (
            ChainOp::Store {
                addr: r(1),
                value: i(-1),
                bytes: 2,
            },
            "StoreRI",
        ),
        (
            ChainOp::Store {
                addr: i(-16),
                value: r(2),
                bytes: 8,
            },
            "StoreIR",
        ),
        (
            ChainOp::Store {
                addr: i(0x1000_0000),
                value: i(3),
                bytes: 1,
            },
            "StoreII",
        ),
        (
            ChainOp::AddrOf {
                dst: 4,
                global: GlobalId(2),
            },
            "AddrOf",
        ),
    ];
    // `ro`: 8 read-only bytes at the region's start; `rw`: 16 writable
    // bytes after its padding.
    let mut mb = ModuleBuilder::new("m");
    mb.global(fir::Global::constant("ro", vec![1; 8]));
    mb.global(fir::Global::zeroed("rw", 16));
    let globals = GlobalMap::layout(&mb.finish());
    assert_eq!(globals.addr_of_name("rw"), Some(0x1000_0010));
    for (pre, (op, form)) in cases.into_iter().enumerate() {
        let src = ChainSrc {
            pre: pre as u16,
            op,
        };
        let comp = ChainComp::resolve(&src, &globals);
        let name = format!("{comp:?}");
        assert!(
            name.starts_with(&format!("{form} ")),
            "{src:?} resolved to {name}"
        );
        assert_eq!(comp.pre(), src.pre);
    }
}
