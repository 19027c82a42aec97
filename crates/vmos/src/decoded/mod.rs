//! Pre-decoded FIR bytecode: the host-throughput execution engine.
//!
//! The reference interpreter (`Machine::run` in [`crate::interp`]) re-walks the
//! `fir` AST on every instruction: nested `functions[f].blocks[b].insts[i]`
//! indexing, callee resolution by *string name* at every call site, and
//! hostcall dispatch through a string match. None of that work depends on
//! run-time state, so this module does it **once per module**. It produces
//! two op streams per function:
//!
//! * a **plain** stream (`lower`) — strictly 1:1 with the source, one
//!   [`DOp`] per instruction plus one per terminator, with block targets
//!   pre-resolved to flat pcs and callees pre-bound;
//! * an **optimized** stream (`opt`, `fuse`, `inline`) — the same
//!   program after a decode-time pass stack: operand pre-resolution
//!   (`addr_of`/const forwarding), dead decoded-temp elimination,
//!   superinstruction fusion (`cmp`+branch, `bin`+load, load+`bin`,
//!   counter-update+branch, coverage-probe+compare+branch), block
//!   linearization with fallthrough merging, and small leaf-callee
//!   inlining.
//!
//! **The equivalence contract.** Both streams perform the *same sequence
//! of simulated state transitions* as the reference interpreter: identical
//! cycle charges, instruction counts (fuel), coverage-map updates, crash
//! sites, and `setjmp`/checkpoint coordinates. Fused ops charge each
//! component exactly where the reference would, with an inline fuel check
//! between components; eliminated host-only work (dead register writes,
//! folded jumps) is bulk-charged through per-pc `pre` counters, which is
//! observationally identical because eliminated ops have no effect beyond
//! the charge and frame registers are never observable at an
//! `OutOfFuel`/crash boundary (frames are truncated by `Machine::call`).
//! `tests/engine_equivalence.rs` enforces all of this end-to-end, three
//! ways (reference / decoded / decoded+opt).
//!
//! Every image carries both streams. The optimized one runs unless the
//! current thread holds a [`crate::DecodeOptGuard`], which pins the plain
//! stream for the equivalence gate and for measurement.
//!
//! Images are immutable and cached per module fingerprint **and optimizer
//! version** (see [`DecodedImage::cached`]), so an optimizer revision can
//! never serve a stale image and every executor in a campaign — including
//! respawned and restored processes — shares one decode.

mod fuse;
mod inline;
mod lower;
mod opt;

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use fir::{BinOp, CmpPred, FunctionId, GlobalId, Module, Operand};
use serde::{Deserialize, Serialize};

use crate::hostcalls::HostId;

/// One pre-decoded operation. Branch operands are flat pcs into the owning
/// function's `ops`; register/immediate operands keep the (Copy) `fir`
/// representation since reading them is already a single array index.
///
/// The variants after [`DOp::Unreachable`] only appear in optimized
/// streams: pre-resolved forms and fused superinstructions. Each fused op
/// executes its components in source order, charging one instruction per
/// component with an inline fuel check between components, so the fuel
/// boundary and every observable effect land exactly where the reference
/// interpreter puts them.
#[derive(Debug, Clone, PartialEq)]
pub enum DOp {
    /// `dst = value`
    Const { dst: u32, value: i64 },
    /// `dst = src`
    Mov { dst: u32, src: Operand },
    /// `dst = op lhs, rhs`
    Bin {
        op: BinOp,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cmp pred lhs, rhs`
    Cmp {
        pred: CmpPred,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cond ? if_true : if_false`
    Select {
        dst: u32,
        cond: Operand,
        if_true: Operand,
        if_false: Operand,
    },
    /// `dst = load bytes, [addr]` — width pre-resolved to a byte count.
    Load { dst: u32, addr: Operand, bytes: u64 },
    /// `store bytes value, [addr]`
    Store {
        addr: Operand,
        value: Operand,
        bytes: u64,
    },
    /// `dst = &global`
    AddrOf { dst: u32, global: GlobalId },
    /// `dst = alloca size` with the 16-byte rounding pre-computed
    /// (`size` is kept for the crash message).
    Alloca { dst: u32, size: u32, rounded: u64 },
    /// `__cov_edge(id)` — the coverage probe intrinsic.
    CovEdge { id: Operand },
    /// `setjmp(buf)`. `ret_block`/`ret_ip` are the *source* coordinates of
    /// the next instruction — what the `JmpCtx` must record regardless of
    /// how this stream is laid out.
    Setjmp {
        dst: Option<fir::Reg>,
        buf: Operand,
        ret_block: u32,
        ret_ip: u32,
    },
    /// `longjmp(buf, val)` — missing `val` defaults to `Imm(1)` exactly
    /// like the reference's `argv.get(1).unwrap_or(&1)`.
    Longjmp { buf: Operand, val: Operand },
    /// Call to a module-defined function, pre-bound by id. `ret_block`/
    /// `ret_ip` are the source coordinates the caller frame resumes at.
    CallFn {
        dst: Option<fir::Reg>,
        callee: FunctionId,
        args: Box<[Operand]>,
        ret_block: u32,
        ret_ip: u32,
    },
    /// Call to the simulated libc, pre-bound to a [`HostId`].
    CallHost {
        dst: Option<fir::Reg>,
        host: HostId,
        args: Box<[Operand]>,
    },
    /// Call to a name nothing resolves — executing it is the
    /// unresolved-symbol crash.
    CallUnknown { name: Box<str> },
    /// Return, optionally with a value.
    Ret(Option<Operand>),
    /// Unconditional jump to a flat pc.
    Br(u32),
    /// Conditional jump on `cond != 0`.
    CondBr {
        cond: Operand,
        if_true: u32,
        if_false: u32,
    },
    /// Multi-way dispatch; first matching case wins, like the reference.
    Switch {
        value: Operand,
        cases: Box<[(i64, u32)]>,
        default: u32,
    },
    /// Executing this is an `UnreachableExecuted` crash.
    Unreachable,

    // ----- optimized streams only -----
    /// `__cov_edge` with the edge id pre-resolved to a constant.
    CovEdgeK { id: u16 },
    /// Fused coverage probe + compare + conditional branch — the loop
    /// header superinstruction. Charges 3 instructions.
    CovCmpBr {
        id: u16,
        pred: CmpPred,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
        if_true: u32,
        if_false: u32,
    },
    /// Fused compare + conditional branch on the compared value.
    /// Charges 2 instructions.
    CmpBr {
        pred: CmpPred,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
        if_true: u32,
        if_false: u32,
    },
    /// Fused binop + unconditional branch (loop latch counter update).
    /// Charges 2 instructions.
    BinBr {
        op: BinOp,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
        target: u32,
    },
    /// Fused move + unconditional branch. Charges 2 instructions.
    MovBr { dst: u32, src: Operand, target: u32 },
    /// Fused store + unconditional branch. Charges 2 instructions.
    StoreBr {
        addr: Operand,
        value: Operand,
        bytes: u64,
        target: u32,
    },
    /// Fused address-compute + load. Charges 2 instructions.
    BinLoad {
        op: BinOp,
        bdst: u32,
        lhs: Operand,
        rhs: Operand,
        ldst: u32,
        addr: Operand,
        bytes: u64,
    },
    /// Fused load + binop over the loaded value. Charges 2 instructions.
    LoadBin {
        ldst: u32,
        addr: Operand,
        bytes: u64,
        op: BinOp,
        bdst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    /// Unconditional jump with `skipped` folded jump-only blocks
    /// bulk-charged (1 + `skipped` instructions total).
    BrChain { target: u32, skipped: u16 },
    /// Dense jump-table form of `Switch`: `pc = table[value - base]`, out
    /// of range → `default`. First-match-wins duplicates were resolved at
    /// decode time.
    SwitchTable {
        value: Operand,
        base: i64,
        table: Box<[u32]>,
        default: u32,
    },
    /// Inlined-call prologue: the decode-time splice of a small leaf
    /// callee. Performs exactly what the reference `Call` does (depth
    /// check, +2 cycles, zeroed callee registers at `base..base+nregs`,
    /// parameter copy) except that the callee's registers live in the
    /// *caller's* extended register file and the stack pointer is saved in
    /// scratch slot `sp_slot` instead of a new frame.
    InlineEnter {
        callee: FunctionId,
        args: Box<[Operand]>,
        base: u32,
        nregs: u32,
        sp_slot: u32,
        entry: u32,
    },
    /// Inlined-call epilogue: restores the stack pointer, writes the
    /// return value to the caller's destination register, and jumps to the
    /// continuation. Charges 1 instruction, exactly like the `Ret` it
    /// replaces.
    InlineRet {
        val: Option<Operand>,
        dst: Option<u32>,
        sp_slot: u32,
        resume: u32,
    },
    /// Fused straight-line run: a whole sequence of simple ops executed
    /// under **one** dispatch, in a tight loop over an out-of-line
    /// component array. Each component charges 1 instruction behind its
    /// own fuel check (plus its `pre` worth of absorbed eliminated
    /// instructions), so every coverage update, memory effect, and crash
    /// lands at exactly the fuel position the reference interpreter gives
    /// it. Every crash-capable component (`Bin`/`Load`/`Store`) shares the
    /// head's `(site_fn, site_block)`, so `crash_here!` at the head pc
    /// reports the right source location; pure register and coverage
    /// components may cross merge seams because their site is never
    /// observable.
    ///
    /// `comps` is the executable form of the components ([`ChainComp`])
    /// and `rest` is everything the chain charges after its head: each
    /// later component's `pre + 1` plus the tail's charge. When the
    /// remaining fuel covers it, no per-component check can fail, so the
    /// engine skips them and charges `rest` once. `DOp::chain` derives
    /// both from the generic components ([`ChainSrc`]) and `tail`.
    Chain {
        comps: Box<[ChainComp]>,
        tail: ChainTail,
        rest: u64,
    },
}

/// One component of a [`DOp::Chain`] in generic form: what the fusion
/// pass builds. `DOp::chain` resolves it into a
/// [`ChainComp`] to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSrc {
    /// Eliminated-instruction charge owed immediately before this
    /// component executes (interior dead temps / folded branches the
    /// chain absorbed). Always 0 on the first component — the head's
    /// charge lives in the stream-level [`DFunc::pre`] array.
    pub pre: u16,
    pub op: ChainOp,
}

/// The simple op forms a [`DOp::Chain`] may carry: everything that stays
/// within one frame and one pc run — register arithmetic, coverage
/// probes, and straight-line memory traffic. Control flow, calls, and
/// `setjmp`/`longjmp` machinery never chain.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainOp {
    /// `dst = value`
    Const { dst: u32, value: i64 },
    /// `dst = src`
    Mov { dst: u32, src: Operand },
    /// `dst = op lhs, rhs` (may crash: division traps).
    Bin {
        op: BinOp,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cmp pred lhs, rhs`
    Cmp {
        pred: CmpPred,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cond ? if_true : if_false`
    Select {
        dst: u32,
        cond: Operand,
        if_true: Operand,
        if_false: Operand,
    },
    /// Coverage probe with a pre-resolved edge id.
    Cov { id: u16 },
    /// `dst = load bytes, [addr]` (may crash: invalid memory).
    Load { dst: u32, addr: Operand, bytes: u64 },
    /// `store bytes value, [addr]` (may crash: invalid memory).
    Store {
        addr: Operand,
        value: Operand,
        bytes: u64,
    },
    /// `dst = &global`
    AddrOf { dst: u32, global: GlobalId },
}

/// The executable form of a chain component: a [`ChainSrc`] with every
/// operand resolved at decode time. A register operand is a plain index
/// into the frame's registers and an immediate is a typed field, so
/// running a component is one dispatch with no operand-tag branch. The
/// binops that dominate executed chains have their own variants, with no
/// second match on the operator: `add` in every register/immediate shape,
/// `mul` and `and` by an immediate, and `srem` by a constant other than 0
/// and −1 (which cannot trap). On the benchmark workloads these six carry
/// over 97% of executed chain binops; `mul` and `and` of two registers
/// carry under 0.02% and stay generic.
///
/// Every variant keeps its source's `pre` and operand shape (a `BinIR`
/// stays distinct from a `BinRI`), so `ChainComp::src` gives back the
/// exact [`ChainSrc`] it came from.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainComp {
    /// `dst = value`
    Const { pre: u16, dst: u32, value: i64 },
    /// `dst = src` (register source)
    Mov { pre: u16, dst: u32, src: u32 },
    /// `dst = value` from a `mov` of an immediate.
    MovImm { pre: u16, dst: u32, value: i64 },
    /// `dst = a + b`
    AddRR { pre: u16, dst: u32, a: u32, b: u32 },
    /// `dst = a + imm`
    AddRI {
        pre: u16,
        dst: u32,
        a: u32,
        imm: i64,
    },
    /// `dst = imm + b`
    AddIR {
        pre: u16,
        dst: u32,
        imm: i64,
        b: u32,
    },
    /// `dst = a * imm`
    MulRI {
        pre: u16,
        dst: u32,
        a: u32,
        imm: i64,
    },
    /// `dst = a & imm`
    AndRI {
        pre: u16,
        dst: u32,
        a: u32,
        imm: i64,
    },
    /// `dst = a srem k` with `k` neither 0 nor −1: never traps.
    SRemRK { pre: u16, dst: u32, a: u32, k: i64 },
    /// Any other `dst = a op b` (may trap: division).
    BinRR {
        pre: u16,
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Any other `dst = a op imm`.
    BinRI {
        pre: u16,
        op: BinOp,
        dst: u32,
        a: u32,
        imm: i64,
    },
    /// Any other `dst = imm op b`.
    BinIR {
        pre: u16,
        op: BinOp,
        dst: u32,
        imm: i64,
        b: u32,
    },
    /// `dst = x op y` over two immediates.
    BinII {
        pre: u16,
        op: BinOp,
        dst: u32,
        x: i64,
        y: i64,
    },
    /// `dst = cmp pred a, b`
    CmpRR {
        pre: u16,
        pred: CmpPred,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `dst = cmp pred a, imm`
    CmpRI {
        pre: u16,
        pred: CmpPred,
        dst: u32,
        a: u32,
        imm: i64,
    },
    /// `dst = cmp pred imm, b`
    CmpIR {
        pre: u16,
        pred: CmpPred,
        dst: u32,
        imm: i64,
        b: u32,
    },
    /// `dst = cmp pred x, y` over two immediates.
    CmpII {
        pre: u16,
        pred: CmpPred,
        dst: u32,
        x: i64,
        y: i64,
    },
    /// `dst = cond ? if_true : if_false`, operands kept generic (MinC
    /// emits no `select`, so this never runs hot).
    Select {
        pre: u16,
        dst: u32,
        ops: Box<[Operand; 3]>,
    },
    /// Coverage probe with a pre-resolved edge id.
    Cov { pre: u16, id: u16 },
    /// `dst = load bytes, [addr]`, address in a register.
    LoadR {
        pre: u16,
        bytes: u8,
        dst: u32,
        addr: u32,
    },
    /// `dst = load bytes, [addr]`, constant address.
    LoadI {
        pre: u16,
        bytes: u8,
        dst: u32,
        addr: u64,
    },
    /// `store bytes value, [addr]`: register address and value.
    StoreRR {
        pre: u16,
        bytes: u8,
        addr: u32,
        value: u32,
    },
    /// Register address, immediate value.
    StoreRI {
        pre: u16,
        bytes: u8,
        addr: u32,
        value: i64,
    },
    /// Constant address, register value.
    StoreIR {
        pre: u16,
        bytes: u8,
        addr: u64,
        value: u32,
    },
    /// Constant address and value.
    StoreII {
        pre: u16,
        bytes: u8,
        addr: u64,
        value: i64,
    },
    /// `dst = &global`
    AddrOf {
        pre: u16,
        dst: u32,
        global: GlobalId,
    },
}

impl ChainComp {
    /// Resolve a generic component.
    pub(crate) fn resolve(src: &ChainSrc) -> ChainComp {
        use fir::Reg as R;
        use ChainComp as C;
        use Operand::{Imm, Reg};
        let pre = src.pre;
        let width = |bytes: u64| u8::try_from(bytes).expect("an access is 1, 2, 4 or 8 bytes");
        match src.op {
            ChainOp::Const { dst, value } => C::Const { pre, dst, value },
            ChainOp::Mov {
                dst,
                src: Reg(R(src)),
            } => C::Mov { pre, dst, src },
            ChainOp::Mov {
                dst,
                src: Imm(value),
            } => C::MovImm { pre, dst, value },
            ChainOp::Bin { op, dst, lhs, rhs } => match (op, lhs, rhs) {
                (BinOp::Add, Reg(R(a)), Reg(R(b))) => C::AddRR { pre, dst, a, b },
                (BinOp::Add, Reg(R(a)), Imm(imm)) => C::AddRI { pre, dst, a, imm },
                (BinOp::Add, Imm(imm), Reg(R(b))) => C::AddIR { pre, dst, imm, b },
                (BinOp::Mul, Reg(R(a)), Imm(imm)) => C::MulRI { pre, dst, a, imm },
                (BinOp::And, Reg(R(a)), Imm(imm)) => C::AndRI { pre, dst, a, imm },
                (BinOp::SRem, Reg(R(a)), Imm(k)) if k != 0 && k != -1 => {
                    C::SRemRK { pre, dst, a, k }
                }
                (op, Reg(R(a)), Reg(R(b))) => C::BinRR { pre, op, dst, a, b },
                (op, Reg(R(a)), Imm(imm)) => C::BinRI {
                    pre,
                    op,
                    dst,
                    a,
                    imm,
                },
                (op, Imm(imm), Reg(R(b))) => C::BinIR {
                    pre,
                    op,
                    dst,
                    imm,
                    b,
                },
                (op, Imm(x), Imm(y)) => C::BinII { pre, op, dst, x, y },
            },
            ChainOp::Cmp {
                pred,
                dst,
                lhs,
                rhs,
            } => match (lhs, rhs) {
                (Reg(R(a)), Reg(R(b))) => C::CmpRR {
                    pre,
                    pred,
                    dst,
                    a,
                    b,
                },
                (Reg(R(a)), Imm(imm)) => C::CmpRI {
                    pre,
                    pred,
                    dst,
                    a,
                    imm,
                },
                (Imm(imm), Reg(R(b))) => C::CmpIR {
                    pre,
                    pred,
                    dst,
                    imm,
                    b,
                },
                (Imm(x), Imm(y)) => C::CmpII {
                    pre,
                    pred,
                    dst,
                    x,
                    y,
                },
            },
            ChainOp::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                let ops = Box::new([cond, if_true, if_false]);
                C::Select { pre, dst, ops }
            }
            ChainOp::Cov { id } => C::Cov { pre, id },
            ChainOp::Load { dst, addr, bytes } => {
                let bytes = width(bytes);
                match addr {
                    Reg(R(addr)) => C::LoadR {
                        pre,
                        bytes,
                        dst,
                        addr,
                    },
                    Imm(addr) => C::LoadI {
                        pre,
                        bytes,
                        dst,
                        addr: addr as u64,
                    },
                }
            }
            ChainOp::Store { addr, value, bytes } => {
                let bytes = width(bytes);
                match (addr, value) {
                    (Reg(R(addr)), Reg(R(value))) => C::StoreRR {
                        pre,
                        bytes,
                        addr,
                        value,
                    },
                    (Reg(R(addr)), Imm(value)) => C::StoreRI {
                        pre,
                        bytes,
                        addr,
                        value,
                    },
                    (Imm(a), Reg(R(value))) => C::StoreIR {
                        pre,
                        bytes,
                        addr: a as u64,
                        value,
                    },
                    (Imm(a), Imm(value)) => C::StoreII {
                        pre,
                        bytes,
                        addr: a as u64,
                        value,
                    },
                }
            }
            ChainOp::AddrOf { dst, global } => C::AddrOf { pre, dst, global },
        }
    }

    /// The generic component this one was resolved from.
    pub(crate) fn src(&self) -> ChainSrc {
        use ChainComp as C;
        let r = |r: u32| Operand::Reg(fir::Reg(r));
        let i = Operand::Imm;
        let bin = |op, dst, lhs, rhs| ChainOp::Bin { op, dst, lhs, rhs };
        let cmp = |pred, dst, lhs, rhs| ChainOp::Cmp {
            pred,
            dst,
            lhs,
            rhs,
        };
        let load = |dst, addr, bytes: u8| ChainOp::Load {
            dst,
            addr,
            bytes: bytes.into(),
        };
        let store = |addr, value, bytes: u8| ChainOp::Store {
            addr,
            value,
            bytes: bytes.into(),
        };
        let (pre, op) = match *self {
            C::Const { pre, dst, value } => (pre, ChainOp::Const { dst, value }),
            C::Mov { pre, dst, src } => (pre, ChainOp::Mov { dst, src: r(src) }),
            C::MovImm { pre, dst, value } => (pre, ChainOp::Mov { dst, src: i(value) }),
            C::AddRR { pre, dst, a, b } => (pre, bin(BinOp::Add, dst, r(a), r(b))),
            C::AddRI { pre, dst, a, imm } => (pre, bin(BinOp::Add, dst, r(a), i(imm))),
            C::AddIR { pre, dst, imm, b } => (pre, bin(BinOp::Add, dst, i(imm), r(b))),
            C::MulRI { pre, dst, a, imm } => (pre, bin(BinOp::Mul, dst, r(a), i(imm))),
            C::AndRI { pre, dst, a, imm } => (pre, bin(BinOp::And, dst, r(a), i(imm))),
            C::SRemRK { pre, dst, a, k } => (pre, bin(BinOp::SRem, dst, r(a), i(k))),
            C::BinRR { pre, op, dst, a, b } => (pre, bin(op, dst, r(a), r(b))),
            C::BinRI {
                pre,
                op,
                dst,
                a,
                imm,
            } => (pre, bin(op, dst, r(a), i(imm))),
            C::BinIR {
                pre,
                op,
                dst,
                imm,
                b,
            } => (pre, bin(op, dst, i(imm), r(b))),
            C::BinII { pre, op, dst, x, y } => (pre, bin(op, dst, i(x), i(y))),
            C::CmpRR {
                pre,
                pred,
                dst,
                a,
                b,
            } => (pre, cmp(pred, dst, r(a), r(b))),
            C::CmpRI {
                pre,
                pred,
                dst,
                a,
                imm,
            } => (pre, cmp(pred, dst, r(a), i(imm))),
            C::CmpIR {
                pre,
                pred,
                dst,
                imm,
                b,
            } => (pre, cmp(pred, dst, i(imm), r(b))),
            C::CmpII {
                pre,
                pred,
                dst,
                x,
                y,
            } => (pre, cmp(pred, dst, i(x), i(y))),
            C::Select { pre, dst, ref ops } => {
                let [cond, if_true, if_false] = **ops;
                (
                    pre,
                    ChainOp::Select {
                        dst,
                        cond,
                        if_true,
                        if_false,
                    },
                )
            }
            C::Cov { pre, id } => (pre, ChainOp::Cov { id }),
            C::LoadR {
                pre,
                bytes,
                dst,
                addr,
            } => (pre, load(dst, r(addr), bytes)),
            C::LoadI {
                pre,
                bytes,
                dst,
                addr,
            } => (pre, load(dst, i(addr as i64), bytes)),
            C::StoreRR {
                pre,
                bytes,
                addr,
                value,
            } => (pre, store(r(addr), r(value), bytes)),
            C::StoreRI {
                pre,
                bytes,
                addr,
                value,
            } => (pre, store(r(addr), i(value), bytes)),
            C::StoreIR {
                pre,
                bytes,
                addr,
                value,
            } => (pre, store(i(addr as i64), r(value), bytes)),
            C::StoreII {
                pre,
                bytes,
                addr,
                value,
            } => (pre, store(i(addr as i64), i(value), bytes)),
            C::AddrOf { pre, dst, global } => (pre, ChainOp::AddrOf { dst, global }),
        };
        ChainSrc { pre, op }
    }

    /// The eliminated-instruction charge owed before this component (see
    /// [`ChainSrc::pre`]).
    #[inline]
    pub(crate) fn pre(&self) -> u16 {
        use ChainComp as C;
        match *self {
            C::Const { pre, .. }
            | C::Mov { pre, .. }
            | C::MovImm { pre, .. }
            | C::AddRR { pre, .. }
            | C::AddRI { pre, .. }
            | C::AddIR { pre, .. }
            | C::MulRI { pre, .. }
            | C::AndRI { pre, .. }
            | C::SRemRK { pre, .. }
            | C::BinRR { pre, .. }
            | C::BinRI { pre, .. }
            | C::BinIR { pre, .. }
            | C::BinII { pre, .. }
            | C::CmpRR { pre, .. }
            | C::CmpRI { pre, .. }
            | C::CmpIR { pre, .. }
            | C::CmpII { pre, .. }
            | C::Select { pre, .. }
            | C::Cov { pre, .. }
            | C::LoadR { pre, .. }
            | C::LoadI { pre, .. }
            | C::StoreRR { pre, .. }
            | C::StoreRI { pre, .. }
            | C::StoreIR { pre, .. }
            | C::StoreII { pre, .. }
            | C::AddrOf { pre, .. } => pre,
        }
    }
}

/// How a [`DOp::Chain`] hands control back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChainTail {
    /// Fall through to `pc + 1`.
    Next,
    /// Absorbed unconditional branch: bulk-charge `pre` eliminated
    /// instructions, charge 1 for the branch itself, jump to `target`.
    Br { pre: u16, target: u32 },
    /// Absorbed conditional branch (from a `CondBr`, or the branch half of
    /// a decomposed `CmpBr`/`CovCmpBr`, whose compare became the last
    /// component): bulk-charge `pre`, charge 1, branch on `cond != 0`.
    CondBr {
        pre: u16,
        cond: Operand,
        if_true: u32,
        if_false: u32,
    },
}

impl ChainTail {
    /// Instructions the tail charges: its absorbed `pre`, then the branch.
    fn charge(&self) -> u64 {
        match self {
            ChainTail::Next => 0,
            ChainTail::Br { pre, .. } | ChainTail::CondBr { pre, .. } => u64::from(*pre) + 1,
        }
    }
}

impl DOp {
    /// A [`DOp::Chain`] over the generic components `src`, with its
    /// derived executable components and `rest` charge.
    pub(crate) fn chain(src: &[ChainSrc], tail: ChainTail) -> DOp {
        let rest = src
            .iter()
            .skip(1)
            .map(|c| u64::from(c.pre) + 1)
            .sum::<u64>()
            + tail.charge();
        let comps = src.iter().map(ChainComp::resolve).collect();
        DOp::Chain { comps, tail, rest }
    }

    /// Rewrite every flat-pc (or, inside the optimizer, block-index)
    /// branch-target field through `f`. This is the single source of truth
    /// for "which `u32`s are control-flow targets" — the optimizer uses it
    /// to remap block indices when splicing, and emission uses it to
    /// resolve block indices to final pcs.
    pub(crate) fn retarget(&mut self, mut f: impl FnMut(u32) -> u32) {
        match self {
            DOp::Br(t)
            | DOp::BinBr { target: t, .. }
            | DOp::MovBr { target: t, .. }
            | DOp::StoreBr { target: t, .. }
            | DOp::BrChain { target: t, .. }
            | DOp::InlineEnter { entry: t, .. }
            | DOp::InlineRet { resume: t, .. } => *t = f(*t),
            DOp::CondBr {
                if_true, if_false, ..
            }
            | DOp::CmpBr {
                if_true, if_false, ..
            }
            | DOp::CovCmpBr {
                if_true, if_false, ..
            } => {
                *if_true = f(*if_true);
                *if_false = f(*if_false);
            }
            DOp::Switch { cases, default, .. } => {
                for (_, t) in cases.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            DOp::SwitchTable { table, default, .. } => {
                for t in table.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            DOp::Chain { tail, .. } => match tail {
                ChainTail::Next => {}
                ChainTail::Br { target, .. } => *target = f(*target),
                ChainTail::CondBr {
                    if_true, if_false, ..
                } => {
                    *if_true = f(*if_true);
                    *if_false = f(*if_false);
                }
            },
            _ => {}
        }
    }

    /// The branch targets this op can transfer control to (same fields as
    /// [`DOp::retarget`]).
    pub(crate) fn targets(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut probe = self.clone();
        probe.retarget(|t| {
            out.push(t);
            t
        });
        out
    }

    /// Apply `f` to every *read* operand (not destinations). Used by the
    /// operand pre-resolution pass.
    pub(crate) fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            DOp::Mov { src, .. } | DOp::MovBr { src, .. } => f(src),
            DOp::Bin { lhs, rhs, .. }
            | DOp::Cmp { lhs, rhs, .. }
            | DOp::CmpBr { lhs, rhs, .. }
            | DOp::CovCmpBr { lhs, rhs, .. }
            | DOp::BinBr { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            DOp::BinLoad { lhs, rhs, addr, .. } | DOp::LoadBin { lhs, rhs, addr, .. } => {
                f(lhs);
                f(rhs);
                f(addr);
            }
            DOp::Select {
                cond,
                if_true,
                if_false,
                ..
            } => {
                f(cond);
                f(if_true);
                f(if_false);
            }
            DOp::Load { addr, .. } => f(addr),
            DOp::Store { addr, value, .. } | DOp::StoreBr { addr, value, .. } => {
                f(addr);
                f(value);
            }
            DOp::CovEdge { id } => f(id),
            DOp::Setjmp { buf, .. } => f(buf),
            DOp::Longjmp { buf, val } => {
                f(buf);
                f(val);
            }
            DOp::CallFn { args, .. }
            | DOp::CallHost { args, .. }
            | DOp::InlineEnter { args, .. } => {
                for a in args.iter_mut() {
                    f(a);
                }
            }
            DOp::Ret(Some(v)) | DOp::InlineRet { val: Some(v), .. } => f(v),
            DOp::CondBr { cond, .. } => f(cond),
            DOp::Switch { value, .. } | DOp::SwitchTable { value, .. } => f(value),
            DOp::Chain { comps, tail, .. } => {
                if let ChainTail::CondBr { cond, .. } = tail {
                    f(cond);
                }
                let mut src: Vec<ChainSrc> = comps.iter().map(ChainComp::src).collect();
                for c in &mut src {
                    match &mut c.op {
                        ChainOp::Mov { src, .. } => f(src),
                        ChainOp::Bin { lhs, rhs, .. } | ChainOp::Cmp { lhs, rhs, .. } => {
                            f(lhs);
                            f(rhs);
                        }
                        ChainOp::Select {
                            cond,
                            if_true,
                            if_false,
                            ..
                        } => {
                            f(cond);
                            f(if_true);
                            f(if_false);
                        }
                        ChainOp::Load { addr, .. } => f(addr),
                        ChainOp::Store { addr, value, .. } => {
                            f(addr);
                            f(value);
                        }
                        ChainOp::Const { .. } | ChainOp::Cov { .. } | ChainOp::AddrOf { .. } => {}
                    }
                }
                *comps = src.iter().map(ChainComp::resolve).collect();
            }
            DOp::Const { .. }
            | DOp::AddrOf { .. }
            | DOp::Alloca { .. }
            | DOp::CallUnknown { .. }
            | DOp::Ret(None)
            | DOp::InlineRet { val: None, .. }
            | DOp::Br(_)
            | DOp::BrChain { .. }
            | DOp::CovEdgeK { .. }
            | DOp::Unreachable => {}
        }
    }

    /// Registers this op *reads* (same coverage as
    /// [`DOp::for_each_use_mut`], collected).
    pub(crate) fn use_regs(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut probe = self.clone();
        probe.for_each_use_mut(|o| {
            if let Operand::Reg(r) = o {
                out.push(r.0);
            }
        });
        out
    }

    /// The plain register this op defines, when that write is its *only*
    /// register effect (used by coalescing/DCE; call-style dsts are
    /// handled separately).
    pub(crate) fn def_reg(&self) -> Option<u32> {
        match self {
            DOp::Const { dst, .. }
            | DOp::Mov { dst, .. }
            | DOp::Bin { dst, .. }
            | DOp::Cmp { dst, .. }
            | DOp::Select { dst, .. }
            | DOp::Load { dst, .. }
            | DOp::AddrOf { dst, .. }
            | DOp::Alloca { dst, .. } => Some(*dst),
            DOp::CallFn { dst, .. } | DOp::CallHost { dst, .. } => dst.map(|r| r.0),
            _ => None,
        }
    }

    /// Redirect this op's destination register (coalescing). Must only be
    /// called on ops for which [`DOp::def_reg`] returns `Some`.
    pub(crate) fn set_def_reg(&mut self, r: u32) {
        match self {
            DOp::Const { dst, .. }
            | DOp::Mov { dst, .. }
            | DOp::Bin { dst, .. }
            | DOp::Cmp { dst, .. }
            | DOp::Select { dst, .. }
            | DOp::Load { dst, .. }
            | DOp::AddrOf { dst, .. }
            | DOp::Alloca { dst, .. } => *dst = r,
            DOp::CallFn { dst, .. } | DOp::CallHost { dst, .. } => *dst = Some(fir::Reg(r)),
            _ => unreachable!("set_def_reg on a non-defining op"),
        }
    }
}

/// One lowered function (plain or optimized stream — same representation,
/// one execution loop).
#[derive(Debug, Clone, PartialEq)]
pub struct DFunc {
    /// Symbol name (crash sites and hostcall sites report it).
    pub name: String,
    /// Number of parameters.
    pub num_params: u32,
    /// Register file size. Optimized streams may extend this beyond the
    /// source function's file for inline scratch space (host-only state;
    /// the decoded loop grows the entry frame on the way in).
    pub num_regs: u32,
    /// Flat op stream.
    pub ops: Vec<DOp>,
    /// `pre[pc]` = number of *eliminated* source instructions charged
    /// immediately before the op at `pc` executes (0 almost everywhere;
    /// identically 0 in plain streams).
    pub pre: Vec<u16>,
    /// `block_of[pc]` = source block of the op at `pc` (crash sites;
    /// for inlined ops this is the **callee's** block).
    pub block_of: Vec<u32>,
    /// `fname_of[pc]` = `FunctionId` index whose *name* sites at `pc`
    /// report (differs from the owning function only inside inlined
    /// regions).
    pub fname_of: Vec<u32>,
    /// `block_start[b]` = flat pc a branch to source block `b` lands on.
    pub block_start: Vec<u32>,
    /// `orig_start[b]` = base of block `b` in *source* flat coordinates
    /// (`insts.len() + 1` per block) — the index space of `pc_of_src`.
    pub orig_start: Vec<u32>,
    /// Source-coordinate → pc map: `pc_of_src[orig_start[b] + ip]` is the
    /// pc to resume at for reference coordinates `(b, ip)`. Identity for
    /// plain streams.
    pub pc_of_src: Vec<u32>,
}

impl DFunc {
    /// Convert a flat pc back to the reference engine's `(block, ip)`
    /// coordinates. Only meaningful for **plain** (1:1) streams, where the
    /// op layout matches the source layout.
    #[inline]
    pub fn coords(&self, pc: u32) -> (u32, usize) {
        let block = self.block_of[pc as usize];
        (block, (pc - self.block_start[block as usize]) as usize)
    }

    /// Convert reference `(block, ip)` coordinates to a flat pc. Only
    /// meaningful for plain streams; optimized streams resume through
    /// [`DFunc::src_pc`].
    #[inline]
    pub fn flat_pc(&self, block: u32, ip: usize) -> u32 {
        self.block_start[block as usize] + ip as u32
    }

    /// The pc at which execution of reference coordinates `(block, ip)`
    /// resumes in this stream. Valid for every resume point the engine can
    /// produce (function entry, post-call, post-`setjmp`); total over all
    /// source coordinates.
    #[inline]
    pub fn src_pc(&self, block: u32, ip: usize) -> u32 {
        self.pc_of_src[(self.orig_start[block as usize] + ip as u32) as usize]
    }
}

/// Decode-time optimization statistics for one module image, surfaced by
/// `exec_throughput` so pass regressions are visible next to throughput.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptStats {
    /// Optimizer version baked into the cache key.
    pub version: u32,
    /// Fused coverage-probe + compare + branch triples.
    pub fused_cov_cmp_br: u64,
    /// Fused compare + conditional-branch pairs.
    pub fused_cmp_br: u64,
    /// Fused binop + unconditional-branch pairs (loop latches).
    pub fused_bin_br: u64,
    /// Fused move + unconditional-branch pairs.
    pub fused_mov_br: u64,
    /// Fused store + unconditional-branch pairs.
    pub fused_store_br: u64,
    /// Fused address-compute + load pairs.
    pub fused_bin_load: u64,
    /// Fused load + binop pairs.
    pub fused_load_bin: u64,
    /// Fused straight-line chains (one dispatch each).
    pub chains: u64,
    /// Total ops absorbed into chains as components (incl. heads and
    /// absorbed tail branches).
    pub chain_comps: u64,
    /// `Switch` terminators converted to dense jump tables.
    pub switch_tables: u64,
    /// Jump-only blocks folded out of unconditional branch chains.
    pub br_chains_folded: u64,
    /// Blocks merged into their unique predecessor's pc range.
    pub blocks_merged: u64,
    /// Dead decoded temps eliminated (charges preserved via `pre`).
    pub insts_eliminated: u64,
    /// `mov` destinations coalesced into their defining op.
    pub movs_coalesced: u64,
    /// Operands rewritten to immediates (const/`addr_of` forwarding).
    pub operands_resolved: u64,
    /// Coverage probes with pre-resolved constant edge ids.
    pub cov_edges_resolved: u64,
    /// Call sites inlined at decode time.
    pub inline_sites: u64,
    /// Distinct leaf callees that were inlined somewhere.
    pub inlined_callees: u64,
    /// Wall-clock time of the whole decode (lower + optimize), in
    /// microseconds.
    pub decode_micros: u64,
}

impl OptStats {
    /// Total fused superinstructions across all kinds.
    pub fn fused_total(&self) -> u64 {
        self.fused_cov_cmp_br
            + self.fused_cmp_br
            + self.fused_bin_br
            + self.fused_mov_br
            + self.fused_store_br
            + self.fused_bin_load
            + self.fused_load_bin
            + self.chains
    }
}

/// A fully lowered module image, shared (behind `Arc`) by every executor
/// running the module.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedImage {
    /// Plain 1:1 lowered functions, indexed by [`FunctionId`]. This is the
    /// stream [`crate::DecodeOptGuard`] pins.
    pub funcs: Vec<DFunc>,
    /// Optimized streams, same indexing.
    pub opt_funcs: Vec<DFunc>,
    /// Fingerprint of the module this image was lowered from.
    pub fingerprint: u64,
    /// What the optimizer did.
    pub stats: OptStats,
}

/// Bump when a pass changes in any observable-layout way: the value is
/// folded into the image cache key, so stale images can never be served
/// across optimizer revisions.
pub const OPT_VERSION: u32 = 1;

/// Where a decoded-image warm-up got its image from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WarmSource {
    /// Already in the process-wide cache — nothing was paid.
    Cache,
    /// Nothing cached anywhere: this warm-up paid the full lower +
    /// optimize.
    Lowered,
}

impl WarmSource {
    /// Did the warm-up avoid re-lowering the module?
    pub fn was_warm(self) -> bool {
        !matches!(self, WarmSource::Lowered)
    }
}

/// Process-wide decode accounting: how many images were fully lowered or
/// served from the in-memory cache. The
/// service-restore correctness gate ("restoring 1000 campaigns of one
/// target decodes once") is asserted against these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeCounters {
    /// Full decodes paid (lower + optimizer stack).
    pub lowered: u64,
    /// [`DecodedImage::cached`] / warm-up calls answered by the in-memory
    /// cache.
    pub cache_hits: u64,
}

fn counters() -> &'static Mutex<DecodeCounters> {
    static COUNTERS: OnceLock<Mutex<DecodeCounters>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(DecodeCounters::default()))
}

/// Snapshot the process-wide decode counters.
pub fn decode_counters() -> DecodeCounters {
    *counters().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reset the process-wide decode counters to zero (bench/test hook).
pub fn reset_decode_counters() {
    *counters().lock().unwrap_or_else(PoisonError::into_inner) = DecodeCounters::default();
}

fn note(f: impl FnOnce(&mut DecodeCounters)) {
    f(&mut counters().lock().unwrap_or_else(PoisonError::into_inner));
}

impl DecodedImage {
    /// Lower every function of `module` and run the decode-time optimizer
    /// stack over it.
    pub fn new(module: &Module) -> Self {
        let started = std::time::Instant::now();
        let funcs: Vec<DFunc> = module
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| lower::lower(module, i as u32, f))
            .collect();
        let mut stats = OptStats {
            version: OPT_VERSION,
            ..OptStats::default()
        };
        let opt_funcs = opt::optimize_module(module, &mut stats);
        stats.decode_micros = started.elapsed().as_micros() as u64;
        note(|c| c.lowered += 1);
        DecodedImage {
            funcs,
            opt_funcs,
            fingerprint: module.fingerprint(),
            stats,
        }
    }

    /// The process-wide cache key for a module fingerprint: the
    /// fingerprint alone is **not** enough, because what an image contains
    /// depends on the optimizer revision, so [`OPT_VERSION`] is folded in.
    pub fn cache_key(fingerprint: u64) -> u64 {
        fingerprint ^ (u64::from(OPT_VERSION) << 8).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Lower `module`, or return the image another executor already
    /// lowered for a structurally identical module. The cache is global
    /// and keyed by [`DecodedImage::cache_key`] — [`Module::fingerprint`]
    /// plus the optimizer version — so a campaign's respawn / restore
    /// churn — and parallel bench trials over the same target — decode
    /// each module exactly once per process, and no optimizer revision
    /// can alias another's image.
    pub fn cached(module: &Module) -> Arc<DecodedImage> {
        Self::lookup(module).0
    }

    /// The cached image for `module`, lowering it on a miss, and whether
    /// the cache already held it.
    fn lookup(module: &Module) -> (Arc<DecodedImage>, WarmSource) {
        let mut map = Self::cache().lock().unwrap_or_else(PoisonError::into_inner);
        match map.entry(Self::cache_key(module.fingerprint())) {
            std::collections::hash_map::Entry::Occupied(e) => {
                note(|c| c.cache_hits += 1);
                (Arc::clone(e.get()), WarmSource::Cache)
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let img = Arc::clone(e.insert(Arc::new(DecodedImage::new(module))));
                (img, WarmSource::Lowered)
            }
        }
    }

    /// Is an image for `fingerprint` (under the current optimizer
    /// version) already in the process-wide cache? Checkpoint resume
    /// uses this to report whether the decoded image was ready before
    /// replay began.
    pub fn cache_contains(fingerprint: u64) -> bool {
        Self::cache()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&Self::cache_key(fingerprint))
    }

    /// Ensure `module`'s decoded image is in the process-wide cache,
    /// lowering it now if absent, and report which of the two happened —
    /// resume paths call this eagerly so no campaign step ever re-lowers
    /// lazily.
    pub fn warm(module: &Module) -> WarmSource {
        Self::lookup(module).1
    }

    /// [`DecodedImage::warm`]; the directory is ignored. Kept for callers
    /// written against the decoded-image sidecar, which no longer exists.
    pub fn warm_with_sidecar(module: &Module, _dir: Option<&std::path::Path>) -> WarmSource {
        Self::warm(module)
    }

    /// Drop every image from the process-wide cache. Test/bench hook: lets
    /// one process simulate a server restart (the service grid's
    /// decode-once cell restores N campaigns against a cold cache and
    /// asserts exactly one decode).
    pub fn cache_evict_all() {
        Self::cache()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    fn cache() -> &'static Mutex<HashMap<u64, Arc<DecodedImage>>> {
        static CACHE: OnceLock<Mutex<HashMap<u64, Arc<DecodedImage>>>> = OnceLock::new();
        CACHE.get_or_init(|| Mutex::new(HashMap::new()))
    }
}

#[cfg(test)]
mod tests;
