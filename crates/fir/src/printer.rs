//! Textual FIR printer. The [`crate::parser`] round-trips this format.
//!
//! Format sketch:
//!
//! ```text
//! module "gif"
//! global @frame_count : 8 bytes, section .bss
//! global @magic : 4 bytes, section .rodata, const, init = [47 49 46 38]
//! fn @main(0) regs=12 {
//! bb0:
//!   %0 = const 42
//!   %1 = add %0, 1
//!   %2 = call @malloc(%1)
//!   store i64 %1, [%2]
//!   ret %1
//! }
//! ```

use std::fmt::{self, Write};

use crate::inst::{Inst, Operand, Terminator};
use crate::module::{Function, Module};

/// Render a whole module as text.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    write_module(&mut s, m).expect("writing to a String cannot fail");
    s
}

/// Write a whole module's text into `w`: exactly the bytes
/// [`print_module`] returns, with no intermediate string, so a consumer
/// that only digests the text (see [`Module::fingerprint`]) never holds it.
pub fn write_module<W: Write + ?Sized>(w: &mut W, m: &Module) -> fmt::Result {
    writeln!(w, "module \"{}\"", m.name)?;
    for g in &m.globals {
        write!(
            w,
            "global @{} : {} bytes, section {}",
            g.name, g.size, g.section
        )?;
        if g.is_const {
            w.write_str(", const")?;
        }
        if !g.init.is_empty() {
            w.write_str(", init = [")?;
            for (i, b) in g.init.iter().enumerate() {
                if i > 0 {
                    w.write_char(' ')?;
                }
                write!(w, "{b:02x}")?;
            }
            w.write_char(']')?;
        }
        w.write_char('\n')?;
    }
    for f in &m.functions {
        write_function(w, m, f)?;
    }
    Ok(())
}

fn write_function<W: Write + ?Sized>(w: &mut W, m: &Module, f: &Function) -> fmt::Result {
    writeln!(w, "fn @{}({}) regs={} {{", f.name, f.num_params, f.num_regs)?;
    for (bi, b) in f.blocks.iter().enumerate() {
        writeln!(w, "bb{bi}:")?;
        for inst in &b.insts {
            w.write_str("  ")?;
            write_inst(w, m, inst)?;
            w.write_char('\n')?;
        }
        w.write_str("  ")?;
        write_term(w, &b.term)?;
        w.write_char('\n')?;
    }
    w.write_str("}\n")
}

fn write_inst<W: Write + ?Sized>(w: &mut W, m: &Module, inst: &Inst) -> fmt::Result {
    match inst {
        Inst::Const { dst, value } => write!(w, "{dst} = const {value}"),
        Inst::Mov { dst, src } => write!(w, "{dst} = mov {src}"),
        Inst::Bin { op, dst, lhs, rhs } => {
            write!(w, "{dst} = {} {lhs}, {rhs}", op.mnemonic())
        }
        Inst::Cmp {
            pred,
            dst,
            lhs,
            rhs,
        } => write!(w, "{dst} = cmp {} {lhs}, {rhs}", pred.mnemonic()),
        Inst::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => write!(w, "{dst} = select {cond}, {if_true}, {if_false}"),
        Inst::Load { dst, addr, width } => write!(w, "{dst} = load {width}, [{addr}]"),
        Inst::Store { addr, value, width } => write!(w, "store {width} {value}, [{addr}]"),
        Inst::AddrOf { dst, global } => {
            let name = m
                .globals
                .get(global.0 as usize)
                .map(|g| g.name.as_str())
                .unwrap_or("?");
            write!(w, "{dst} = addrof @{name}")
        }
        Inst::Alloca { dst, size } => write!(w, "{dst} = alloca {size}"),
        Inst::Call { dst, callee, args } => {
            if let Some(d) = dst {
                write!(w, "{d} = ")?;
            }
            write!(w, "call @{callee}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    w.write_str(", ")?;
                }
                write!(w, "{a}")?;
            }
            w.write_char(')')
        }
    }
}

fn write_term<W: Write + ?Sized>(w: &mut W, t: &Terminator) -> fmt::Result {
    match t {
        Terminator::Ret(None) => w.write_str("ret"),
        Terminator::Ret(Some(v)) => write!(w, "ret {v}"),
        Terminator::Br(b) => write!(w, "br {b}"),
        Terminator::CondBr {
            cond,
            if_true,
            if_false,
        } => write!(w, "condbr {cond}, {if_true}, {if_false}"),
        Terminator::Switch {
            value,
            cases,
            default,
        } => {
            write!(w, "switch {value} [")?;
            for (i, (v, b)) in cases.iter().enumerate() {
                if i > 0 {
                    w.write_str(", ")?;
                }
                write!(w, "{v} -> {b}")?;
            }
            write!(w, "] default {default}")
        }
        Terminator::Unreachable => w.write_str("unreachable"),
    }
}

/// Render one operand (used by diagnostics in other crates).
pub fn print_operand(o: &Operand) -> String {
    o.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::global::Global;
    use crate::inst::{CmpPred, Operand};

    #[test]
    fn prints_module_with_all_constructs() {
        let mut mb = ModuleBuilder::new("demo");
        let g = mb.global(Global::constant("magic", b"GIF8".to_vec()));
        let w = mb.global(Global::zeroed("count", 8));
        let mut f = mb.function_with_params("main", 2);
        let a = f.addr_of(g);
        let v = f.load8(Operand::Reg(a));
        let c = f.cmp(CmpPred::Eq, Operand::Reg(v), Operand::Imm(0x47));
        let yes = f.new_block();
        let no = f.new_block();
        f.cond_br(Operand::Reg(c), yes, no);
        f.switch_to(yes);
        let wa = f.addr_of(w);
        f.store64(Operand::Reg(wa), Operand::Imm(1));
        let buf = f.alloca(64);
        f.call_void(
            "memset",
            vec![Operand::Reg(buf), Operand::Imm(0), Operand::Imm(64)],
        );
        f.ret(Some(Operand::Imm(0)));
        f.switch_to(no);
        f.call_void("exit", vec![Operand::Imm(1)]);
        f.unreachable();
        f.finish();
        let m = mb.finish();
        let text = print_module(&m);
        assert!(text.contains("module \"demo\""));
        assert!(text.contains("global @magic : 4 bytes, section .rodata, const"));
        assert!(text.contains("init = [47 49 46 38]"));
        assert!(text.contains("fn @main(2) regs="));
        assert!(text.contains("= addrof @magic"));
        assert!(text.contains("call @exit(1)"));
        assert!(text.contains("unreachable"));
    }
}
