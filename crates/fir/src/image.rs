//! Binary-image size accounting.
//!
//! The `vmos` cost model charges `exec` proportionally to the loaded image
//! size, and Table 4 of the paper reports each benchmark's executable size.
//! This module defines the deterministic encoding-size estimate used for both.

use crate::inst::{Inst, Terminator};
use crate::module::Module;

/// Estimated encoded size in bytes of one instruction.
///
/// The estimate models a simple fixed-width encoding: 4 bytes of opcode +
/// operand descriptors, 8 bytes per immediate, plus callee-name bytes for
/// calls (string table).
pub fn inst_size(inst: &Inst) -> u64 {
    let base = 4u64;
    let imm_bytes: u64 = inst.operands().filter(|o| o.as_imm().is_some()).count() as u64 * 8;
    let extra = match inst {
        Inst::Call { callee, args, .. } => callee.len() as u64 + args.len() as u64,
        Inst::Const { .. } => 8,
        Inst::AddrOf { .. } => 4,
        _ => 0,
    };
    base + imm_bytes + extra
}

fn term_size(t: &Terminator) -> u64 {
    match t {
        Terminator::Ret(_) => 4,
        Terminator::Br(_) => 8,
        Terminator::CondBr { .. } => 12,
        Terminator::Switch { cases, .. } => 12 + cases.len() as u64 * 12,
        Terminator::Unreachable => 4,
    }
}

/// Estimated loadable image size of a module in bytes:
/// text (all instructions + terminators) + data (global images) + symbol
/// table (names).
pub fn image_size(m: &Module) -> u64 {
    let text: u64 = m
        .functions
        .iter()
        .map(|f| {
            f.blocks
                .iter()
                .map(|b| b.insts.iter().map(inst_size).sum::<u64>() + term_size(&b.term))
                .sum::<u64>()
                + f.name.len() as u64
                + 16
        })
        .sum();
    let data: u64 = m
        .globals
        .iter()
        .map(|g| g.size + g.name.len() as u64 + 8)
        .sum();
    text + data + 64
}

/// Human-readable size string, matching the paper's Table 4 style
/// ("4.7 M", "232 K").
pub fn human_size(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1} M", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.0} K", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::global::Global;
    use crate::inst::Operand;

    #[test]
    fn image_grows_with_code_and_data() {
        let mut mb = ModuleBuilder::new("a");
        let mut f = mb.function("main");
        f.ret(None);
        f.finish();
        let small = image_size(&mb.finish());

        let mut mb = ModuleBuilder::new("b");
        mb.global(Global::zeroed("big", 4096));
        let mut f = mb.function("main");
        for i in 0..100 {
            f.const_i64(i);
        }
        f.call_void("helper", vec![Operand::Imm(0)]);
        f.ret(None);
        f.finish();
        let big = image_size(&mb.finish());
        assert!(big > small + 4096, "big={big} small={small}");
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(100), "100 B");
        assert_eq!(human_size(232 * 1024), "232 K");
        assert_eq!(human_size(4928307), "4.7 M");
    }

    #[test]
    fn deterministic() {
        let mut mb = ModuleBuilder::new("d");
        let mut f = mb.function("main");
        f.const_i64(1);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        assert_eq!(image_size(&m), image_size(&m.clone()));
    }
}
