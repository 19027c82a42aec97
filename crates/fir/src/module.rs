//! Modules, functions and basic blocks.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

use crate::global::{Global, GlobalId};
use crate::inst::{BlockId, Inst, Terminator};

/// Index of a function within its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FunctionId(pub u32);

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@f{}", self.0)
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Instructions executed in order.
    pub insts: Vec<Inst>,
    /// The terminator deciding the successor (or return).
    pub term: Terminator,
}

impl Block {
    /// An empty block ending in `unreachable` (builder placeholder).
    pub fn placeholder() -> Self {
        Block {
            insts: Vec::new(),
            term: Terminator::Unreachable,
        }
    }
}

/// A FIR function.
///
/// Parameters are the first `num_params` registers (`%0..%num_params`); all
/// parameters and the optional return value are 64-bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    /// Symbol name, unique within the module. Calls resolve against it.
    pub name: String,
    /// Number of parameters (bound to registers `%0..`).
    pub num_params: u32,
    /// Number of virtual registers used (register file size).
    pub num_regs: u32,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block id (always `bb0`).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Look up a block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block lookup.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Total instruction count (excluding terminators).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A compilation unit: globals + functions, the unit ClosureX passes run on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Module {
    /// Module (target) name.
    pub name: String,
    /// Global variables, indexed by [`GlobalId`].
    pub globals: Vec<Global>,
    /// Functions, indexed by [`FunctionId`].
    pub functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            globals: Vec::new(),
            functions: Vec::new(),
        }
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Id of the function with the given name.
    pub fn function_id(&self, name: &str) -> Option<FunctionId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FunctionId(i as u32))
    }

    /// Find a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Id of the global with the given name.
    pub fn global_id(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Append a global, returning its id.
    ///
    /// # Panics
    /// Panics if a global with the same name already exists.
    pub fn push_global(&mut self, g: Global) -> GlobalId {
        assert!(
            self.global(&g.name).is_none(),
            "duplicate global {}",
            g.name
        );
        self.globals.push(g);
        GlobalId(self.globals.len() as u32 - 1)
    }

    /// Append a function, returning its id.
    ///
    /// # Panics
    /// Panics if a function with the same name already exists.
    pub fn push_function(&mut self, f: Function) -> FunctionId {
        assert!(
            self.function(&f.name).is_none(),
            "duplicate function {}",
            f.name
        );
        self.functions.push(f);
        FunctionId(self.functions.len() as u32 - 1)
    }

    /// Rewrite every call to `from` so it calls `to` instead, across the whole
    /// module. Returns the number of call sites rewritten.
    ///
    /// This is the FIR analog of collecting a function's users in LLVM and
    /// invoking `replaceAllUsesWith` — the primitive all five ClosureX passes
    /// are built from.
    pub fn replace_callee(&mut self, from: &str, to: &str) -> usize {
        let mut n = 0;
        for f in &mut self.functions {
            for b in &mut f.blocks {
                for inst in &mut b.insts {
                    if let Inst::Call { callee, .. } = inst {
                        if callee == from {
                            *callee = to.to_string();
                            n += 1;
                        }
                    }
                }
            }
        }
        n
    }

    /// Histogram of callee names across the module (diagnostics / tests).
    pub fn call_site_histogram(&self) -> HashMap<String, usize> {
        let mut h = HashMap::new();
        for f in &self.functions {
            for b in &f.blocks {
                for inst in &b.insts {
                    if let Inst::Call { callee, .. } = inst {
                        *h.entry(callee.clone()).or_insert(0) += 1;
                    }
                }
            }
        }
        h
    }

    /// Total instruction count over all functions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.inst_count()).sum()
    }

    /// Content fingerprint of the module, used to key derived artifacts
    /// (e.g. the decoded-bytecode image cache in `vmos`). Two structurally
    /// equal modules always fingerprint equal; distinct modules collide
    /// only if FNV-1a over their printed forms collides, and the printed
    /// form round-trips the entire module (see `printer`), so every
    /// semantic difference reaches the hash.
    ///
    /// The printer streams straight into the hash state, so no text is
    /// ever built; the value is FNV-1a of [`crate::printer::print_module`]'s
    /// bytes all the same. It costs one walk of the module: callers that
    /// need it more than once should keep it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        crate::printer::write_module(&mut h, self).expect("hashing cannot fail");
        let mut h = h.0;
        // Fold in cheap structural counts so a (vanishingly unlikely)
        // text-hash collision would still need matching shape.
        h ^= (self.functions.len() as u64).rotate_left(17);
        h ^= (self.globals.len() as u64).rotate_left(33);
        h ^= (self.inst_count() as u64).rotate_left(49);
        h
    }
}

/// FNV-1a (64-bit) state over the bytes written into it.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;

    fn call(callee: &str) -> Inst {
        Inst::Call {
            dst: None,
            callee: callee.into(),
            args: vec![Operand::Imm(1)],
        }
    }

    fn one_block_fn(name: &str, insts: Vec<Inst>) -> Function {
        Function {
            name: name.into(),
            num_params: 0,
            num_regs: 8,
            blocks: vec![Block {
                insts,
                term: Terminator::Ret(None),
            }],
        }
    }

    #[test]
    fn replace_callee_rewrites_all_sites() {
        let mut m = Module::new("t");
        m.push_function(one_block_fn("a", vec![call("malloc"), call("free")]));
        m.push_function(one_block_fn("b", vec![call("malloc")]));
        let n = m.replace_callee("malloc", "closurex_malloc");
        assert_eq!(n, 2);
        let h = m.call_site_histogram();
        assert_eq!(h.get("closurex_malloc"), Some(&2));
        assert_eq!(h.get("malloc"), None);
        assert_eq!(h.get("free"), Some(&1));
    }

    #[test]
    fn lookups() {
        let mut m = Module::new("t");
        let fid = m.push_function(one_block_fn("main", vec![]));
        let gid = m.push_global(Global::zeroed("counter", 8));
        assert_eq!(m.function_id("main"), Some(fid));
        assert_eq!(m.global_id("counter"), Some(gid));
        assert!(m.function("nope").is_none());
        assert!(m.global("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut m = Module::new("t");
        m.push_function(one_block_fn("main", vec![]));
        m.push_function(one_block_fn("main", vec![]));
    }

    #[test]
    fn inst_count_sums_blocks() {
        let mut m = Module::new("t");
        m.push_function(one_block_fn("a", vec![call("x"), call("y")]));
        m.push_function(one_block_fn("b", vec![call("z")]));
        assert_eq!(m.inst_count(), 3);
    }
}
