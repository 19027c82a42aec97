//! Instruction set of FIR.
//!
//! FIR is a register machine: every function owns an unbounded file of 64-bit
//! virtual registers ([`Reg`]). Instructions read [`Operand`]s (a register or
//! an immediate) and write at most one destination register. Memory is
//! byte-addressed; loads and stores carry an access [`Width`].

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::global::GlobalId;

/// A virtual register, local to one function.
///
/// Registers are 64-bit signed integers at runtime. Pointer values are plain
/// addresses stored in registers, exactly like LLVM `ptrtoint`ed pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic-block index inside one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// An instruction operand: either a register or a 64-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Read the value of a virtual register.
    Reg(Reg),
    /// A constant immediate.
    Imm(i64),
}

impl Operand {
    /// Returns the register if this operand is one.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            Operand::Imm(_) => None,
        }
    }

    /// Returns the immediate if this operand is one.
    pub fn as_imm(&self) -> Option<i64> {
        match self {
            Operand::Reg(_) => None,
            Operand::Imm(v) => Some(*v),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

/// Memory access width in bytes for [`Inst::Load`] / [`Inst::Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Width {
    /// One byte; loads zero-extend.
    W8,
    /// Two bytes, little-endian; loads zero-extend.
    W16,
    /// Four bytes, little-endian; loads zero-extend.
    W32,
    /// Eight bytes, little-endian.
    W64,
}

impl Width {
    /// Number of bytes this width covers.
    pub fn bytes(self) -> u64 {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.bytes() * 8)
    }
}

/// Two-operand integer arithmetic / bitwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division. Traps (crash) on zero divisor.
    UDiv,
    /// Signed division. Traps on zero divisor or `i64::MIN / -1`.
    SDiv,
    /// Unsigned remainder. Traps on zero divisor.
    URem,
    /// Signed remainder. Traps on zero divisor.
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (modulo 64).
    Shl,
    /// Logical shift right (modulo 64).
    LShr,
    /// Arithmetic shift right (modulo 64).
    AShr,
}

impl BinOp {
    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::SDiv => "sdiv",
            BinOp::URem => "urem",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
        }
    }

    /// Parse a mnemonic back into a [`BinOp`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "udiv" => BinOp::UDiv,
            "sdiv" => BinOp::SDiv,
            "urem" => BinOp::URem,
            "srem" => BinOp::SRem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "lshr" => BinOp::LShr,
            "ashr" => BinOp::AShr,
            _ => return None,
        })
    }
}

/// Comparison predicates, mirroring LLVM `icmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    ULt,
    /// Unsigned less-or-equal.
    ULe,
    /// Unsigned greater-than.
    UGt,
    /// Unsigned greater-or-equal.
    UGe,
    /// Signed less-than.
    SLt,
    /// Signed less-or-equal.
    SLe,
    /// Signed greater-than.
    SGt,
    /// Signed greater-or-equal.
    SGe,
}

impl CmpPred {
    /// Mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::ULt => "ult",
            CmpPred::ULe => "ule",
            CmpPred::UGt => "ugt",
            CmpPred::UGe => "uge",
            CmpPred::SLt => "slt",
            CmpPred::SLe => "sle",
            CmpPred::SGt => "sgt",
            CmpPred::SGe => "sge",
        }
    }

    /// Parse a mnemonic back into a [`CmpPred`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "ult" => CmpPred::ULt,
            "ule" => CmpPred::ULe,
            "ugt" => CmpPred::UGt,
            "uge" => CmpPred::UGe,
            "slt" => CmpPred::SLt,
            "sle" => CmpPred::SLe,
            "sgt" => CmpPred::SGt,
            "sge" => CmpPred::SGe,
            _ => return None,
        })
    }

    /// Evaluate the predicate on two 64-bit values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        let (ua, ub) = (a as u64, b as u64);
        match self {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::ULt => ua < ub,
            CmpPred::ULe => ua <= ub,
            CmpPred::UGt => ua > ub,
            CmpPred::UGe => ua >= ub,
            CmpPred::SLt => a < b,
            CmpPred::SLe => a <= b,
            CmpPred::SGt => a > b,
            CmpPred::SGe => a >= b,
        }
    }
}

/// A non-terminator FIR instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = value`
    Const { dst: Reg, value: i64 },
    /// `dst = src` (register-to-register or immediate move).
    Mov { dst: Reg, src: Operand },
    /// `dst = op lhs, rhs`
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cmp pred lhs, rhs` — produces 0 or 1.
    Cmp {
        pred: CmpPred,
        dst: Reg,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cond ? if_true : if_false`
    Select {
        dst: Reg,
        cond: Operand,
        if_true: Operand,
        if_false: Operand,
    },
    /// `dst = load width, [addr]`
    Load {
        dst: Reg,
        addr: Operand,
        width: Width,
    },
    /// `store width value, [addr]`
    Store {
        addr: Operand,
        value: Operand,
        width: Width,
    },
    /// `dst = &global` — materialize a global's address.
    AddrOf { dst: Reg, global: GlobalId },
    /// `dst = alloca size` — reserve `size` bytes in the current stack frame.
    ///
    /// The reservation is released when the frame pops (or when a `longjmp`
    /// unwinds past it), mirroring C automatic storage.
    Alloca { dst: Reg, size: u32 },
    /// `dst = call callee(args...)`
    ///
    /// Callees are resolved **by name** at execution time: first against the
    /// module's functions, then against the host-call table (the simulated
    /// libc). Name-based call sites are what make the ClosureX passes'
    /// `replaceAllUsesWith`-style rewrites possible.
    Call {
        dst: Option<Reg>,
        callee: String,
        args: Vec<Operand>,
    },
}

impl Inst {
    /// The destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::AddrOf { dst, .. }
            | Inst::Alloca { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } => None,
        }
    }

    /// All operands read by this instruction, in source order. Allocation
    /// free: analyses walk it once per instruction per sweep.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        let (fixed, args): ([Option<Operand>; 3], &[Operand]) = match self {
            Inst::Const { .. } | Inst::AddrOf { .. } | Inst::Alloca { .. } => ([None; 3], &[]),
            Inst::Mov { src, .. } | Inst::Load { addr: src, .. } => ([Some(*src), None, None], &[]),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                ([Some(*lhs), Some(*rhs), None], &[])
            }
            Inst::Select {
                cond,
                if_true,
                if_false,
                ..
            } => ([Some(*cond), Some(*if_true), Some(*if_false)], &[]),
            Inst::Store { addr, value, .. } => ([Some(*addr), Some(*value), None], &[]),
            Inst::Call { args, .. } => ([None; 3], args),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }

    /// True if this is a call to `callee`.
    pub fn is_call_to(&self, callee: &str) -> bool {
        matches!(self, Inst::Call { callee: c, .. } if c == callee)
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Terminator {
    /// Return from the function, optionally with a value.
    Ret(Option<Operand>),
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on `cond != 0`.
    CondBr {
        cond: Operand,
        if_true: BlockId,
        if_false: BlockId,
    },
    /// Multi-way dispatch on an integer value.
    Switch {
        value: Operand,
        cases: Vec<(i64, BlockId)>,
        default: BlockId,
    },
    /// Control never reaches here; executing it is a crash.
    Unreachable,
}

impl Terminator {
    /// Successor block ids of this terminator, in branch order (a
    /// `Switch`'s cases, then its default). Allocation free.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (cases, fixed): (&[(i64, BlockId)], [Option<BlockId>; 2]) = match self {
            Terminator::Ret(_) | Terminator::Unreachable => (&[], [None, None]),
            Terminator::Br(b) => (&[], [Some(*b), None]),
            Terminator::CondBr {
                if_true, if_false, ..
            } => (&[], [Some(*if_true), Some(*if_false)]),
            Terminator::Switch { cases, default, .. } => (cases, [Some(*default), None]),
        };
        cases
            .iter()
            .map(|&(_, b)| b)
            .chain(fixed.into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        let r: Operand = Reg(3).into();
        assert_eq!(r.as_reg(), Some(Reg(3)));
        assert_eq!(r.as_imm(), None);
        let i: Operand = 42i64.into();
        assert_eq!(i.as_imm(), Some(42));
        assert_eq!(i.as_reg(), None);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::W8.bytes(), 1);
        assert_eq!(Width::W16.bytes(), 2);
        assert_eq!(Width::W32.bytes(), 4);
        assert_eq!(Width::W64.bytes(), 8);
    }

    #[test]
    fn binop_mnemonic_roundtrip() {
        for op in [
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
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
    }

    #[test]
    fn cmp_mnemonic_roundtrip_and_eval() {
        for p in [
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
        ] {
            assert_eq!(CmpPred::from_mnemonic(p.mnemonic()), Some(p));
        }
        assert!(CmpPred::SLt.eval(-1, 0));
        assert!(!CmpPred::ULt.eval(-1, 0), "-1 is u64::MAX unsigned");
        assert!(CmpPred::UGe.eval(-1, 0));
        assert!(CmpPred::Eq.eval(7, 7));
    }

    #[test]
    fn terminator_successors() {
        let succs = |t: &Terminator| t.successors().collect::<Vec<_>>();
        assert!(succs(&Terminator::Ret(None)).is_empty());
        assert_eq!(succs(&Terminator::Br(BlockId(2))), vec![BlockId(2)]);
        let t = Terminator::CondBr {
            cond: Operand::Imm(1),
            if_true: BlockId(1),
            if_false: BlockId(2),
        };
        assert_eq!(succs(&t), vec![BlockId(1), BlockId(2)]);
        let s = Terminator::Switch {
            value: Operand::Imm(0),
            cases: vec![(1, BlockId(3)), (2, BlockId(4))],
            default: BlockId(5),
        };
        assert_eq!(succs(&s), vec![BlockId(3), BlockId(4), BlockId(5)]);
    }

    #[test]
    fn inst_dst_and_operands() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(5),
            lhs: Operand::Reg(Reg(1)),
            rhs: Operand::Imm(2),
        };
        assert_eq!(i.dst(), Some(Reg(5)));
        assert_eq!(
            i.operands().collect::<Vec<_>>(),
            vec![Operand::Reg(Reg(1)), Operand::Imm(2)]
        );
        let s = Inst::Store {
            addr: Operand::Reg(Reg(0)),
            value: Operand::Imm(9),
            width: Width::W64,
        };
        assert_eq!(s.dst(), None);
    }

    #[test]
    fn is_call_to() {
        let c = Inst::Call {
            dst: None,
            callee: "malloc".into(),
            args: vec![Operand::Imm(16)],
        };
        assert!(c.is_call_to("malloc"));
        assert!(!c.is_call_to("free"));
    }
}
