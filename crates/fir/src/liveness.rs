//! Per-block register liveness for FIR functions.
//!
//! Classic backward dataflow over the CFG: `live_out[b]` is the union of
//! the `live_in` of `b`'s successors, and `live_in[b]` is computed by
//! walking `b` backwards (terminator first), removing definitions and
//! adding uses. The decoded-layer optimizer (`vmos::decoded::opt`) uses
//! the result to prove that a register write is dead — i.e. host-only
//! bookkeeping with no observable FIR effect — before eliminating or
//! coalescing it.
//!
//! The analysis is deliberately *syntactic*: it models only the normal
//! control-flow edges a [`crate::Terminator`] declares. `longjmp`
//! re-entry edges are not modeled, so callers that transform functions
//! containing `setjmp` must apply their own (stricter) rules; the decoded
//! optimizer simply refuses to eliminate anything in such functions.

use crate::inst::{Operand, Terminator};
use crate::module::{Block, Function};

/// A dense register set sized to one function's register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// Empty set with capacity for `num_regs` registers.
    pub fn new(num_regs: u32) -> Self {
        RegSet {
            words: vec![0; (num_regs as usize).div_ceil(64)],
        }
    }

    /// Insert register `r`; returns true if it was newly added.
    pub fn insert(&mut self, r: u32) -> bool {
        let (w, b) = (r as usize / 64, r as usize % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Remove register `r`.
    pub fn remove(&mut self, r: u32) {
        let (w, b) = (r as usize / 64, r as usize % 64);
        self.words[w] &= !(1 << b);
    }

    /// Is register `r` in the set?
    pub fn contains(&self, r: u32) -> bool {
        let (w, b) = (r as usize / 64, r as usize % 64);
        self.words[w] & (1 << b) != 0
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Number of registers in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

/// Per-block liveness sets for one function.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: Vec<RegSet>,
    /// Registers live on exit from each block.
    pub live_out: Vec<RegSet>,
}

/// Set bit `r` in a register set stored as `words`.
fn set_bit(words: &mut [u64], r: u32) {
    words[r as usize / 64] |= 1 << (r % 64);
}

/// Build `b`'s transfer function `live_in = gen ∪ (live_out − kill)` in
/// one backward walk (terminator first), folding each instruction's
/// `live = (live − {dst}) ∪ uses` step in: `gen` ends up holding the
/// registers read before any write in the block (upward-exposed uses) and
/// `kill` the registers it writes.
fn transfer(b: &Block, gen: &mut [u64], kill: &mut [u64]) {
    let term_use = match &b.term {
        Terminator::Ret(v) => *v,
        Terminator::Br(_) | Terminator::Unreachable => None,
        Terminator::CondBr { cond, .. } => Some(*cond),
        Terminator::Switch { value, .. } => Some(*value),
    };
    if let Some(Operand::Reg(r)) = term_use {
        set_bit(gen, r.0);
    }
    for inst in b.insts.iter().rev() {
        if let Some(d) = inst.dst() {
            gen[d.0 as usize / 64] &= !(1 << (d.0 % 64));
            set_bit(kill, d.0);
        }
        for o in inst.operands() {
            if let Operand::Reg(r) = o {
                set_bit(gen, r.0);
            }
        }
    }
}

/// Compute per-block liveness for `f`.
///
/// Each block's `gen`/`kill` sets are built once; the fixpoint sweeps then
/// touch only register-set words (all blocks' sets in flat arrays), so the
/// analysis costs one pass over the instructions plus word-wise unions per
/// sweep.
pub fn liveness(f: &Function) -> Liveness {
    let n = f.blocks.len();
    let w = (f.num_regs as usize).div_ceil(64);
    let mut gen = vec![0u64; n * w];
    let mut kill = vec![0u64; n * w];
    for (bi, b) in f.blocks.iter().enumerate() {
        let at = bi * w..(bi + 1) * w;
        transfer(b, &mut gen[at.clone()], &mut kill[at]);
    }
    let mut live_in = vec![0u64; n * w];
    let mut live_out = vec![0u64; n * w];
    // Iterate to a fixpoint, visiting blocks in reverse order (a good
    // approximation of post-order for machine-generated CFGs).
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..n).rev() {
            let at = bi * w..(bi + 1) * w;
            let out = &mut live_out[at.clone()];
            for s in f.blocks[bi].term.successors() {
                let succ_in = &live_in[s.0 as usize * w..(s.0 as usize + 1) * w];
                for (o, i) in out.iter_mut().zip(succ_in) {
                    changed |= *i & !*o != 0;
                    *o |= *i;
                }
            }
            for (k, i) in at.enumerate() {
                let next = gen[i] | (out[k] & !kill[i]);
                changed |= next != live_in[i];
                live_in[i] = next;
            }
        }
    }
    let sets = |words: Vec<u64>| {
        (0..n)
            .map(|bi| RegSet {
                words: words[bi * w..(bi + 1) * w].to_vec(),
            })
            .collect()
    };
    Liveness {
        live_in: sets(live_in),
        live_out: sets(live_out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::{CmpPred, Operand};

    #[test]
    fn loop_counter_is_live_around_the_backedge() {
        // sum 0..n: acc and i are live around the loop; the cmp temp is not.
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
        let f = m.function("sum").unwrap();
        let lv = liveness(f);
        let hdr_in = &lv.live_in[hdr.0 as usize];
        assert!(hdr_in.contains(acc.0) && hdr_in.contains(i.0) && hdr_in.contains(n.0));
        assert!(
            !hdr_in.contains(c.0),
            "the branch temp must be dead on entry to the header"
        );
        // The body's live-out is the header's live-in (its only successor).
        assert_eq!(lv.live_out[body.0 as usize], *hdr_in);
        // Nothing is live out of the exit block.
        assert!(lv.live_out[done.0 as usize].is_empty());
    }

    #[test]
    fn straight_line_temps_die_at_last_use() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function_with_params("f", 1);
        let t = f.add(Operand::Reg(f.param(0)), Operand::Imm(1));
        let u = f.mul(Operand::Reg(t), Operand::Imm(2));
        f.ret(Some(Operand::Reg(u)));
        f.finish();
        let m = mb.finish();
        let lv = liveness(m.function("f").unwrap());
        // Single block: only the parameter is live on entry.
        assert!(lv.live_in[0].contains(0));
        assert!(!lv.live_in[0].contains(t.0));
        assert_eq!(lv.live_in[0].len(), 1);
        assert!(lv.live_out[0].is_empty());
    }
}
