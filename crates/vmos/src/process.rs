//! The simulated process: memory, heap, descriptors, frames, and the
//! ClosureX runtime side-state installed by the compiler passes.

use std::collections::HashMap;

use fir::{FunctionId, Module};

use crate::cov::CovState;
use crate::crash::{Crash, CrashKind};
use crate::fd::FdTable;
use crate::heap::{AccessVerdict, HeapState, HEAP_BASE};
use crate::layout::GlobalMap;
use crate::mem::PageTable;

/// Top of the stack region; frames grow downward from here.
pub const STACK_TOP: u64 = 0x7fff_0000;
/// Maximum stack bytes before a stack-overflow crash.
pub const STACK_MAX_BYTES: u64 = 1 << 20;
/// Maximum call depth before a stack-overflow crash.
pub const MAX_CALL_DEPTH: usize = 384;
/// Null page extent: accesses below this are null-pointer dereferences.
pub const NULL_PAGE_END: u64 = 0x1_0000;

/// One interpreter activation record.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Function being executed.
    pub func: FunctionId,
    /// Current basic block.
    pub block: u32,
    /// Index of the *next* instruction in the block.
    pub ip: usize,
    /// Start of this frame's registers in [`Process::regs`]; they run to
    /// the next frame's `base` (or the stack's end for the top frame).
    pub base: usize,
    /// Stack pointer to restore when this frame pops.
    pub saved_sp: u64,
    /// Caller register that receives this frame's return value.
    pub ret_dst: Option<fir::Reg>,
}

/// A `setjmp` continuation.
#[derive(Debug, Clone)]
pub struct JmpCtx {
    /// Call-stack depth at `setjmp` time.
    pub depth: usize,
    /// Block of the instruction after the `setjmp` call.
    pub block: u32,
    /// Instruction index after the `setjmp` call.
    pub ip: usize,
    /// Stack pointer at `setjmp` time.
    pub sp: u64,
    /// Register receiving `setjmp`'s return value.
    pub dst: Option<fir::Reg>,
}

/// ClosureX runtime side-state, populated by the hooked host calls the
/// `HeapPass`/`FilePass`/`ExitPass` rewrote the target to use.
///
/// This is the *mechanism* half; the *policy* (when to sweep, snapshot,
/// restore) lives in the `closurex` crate's harness.
#[derive(Debug, Clone, Default)]
pub struct ClosureRt {
    /// Whether the hooks are active in this process.
    pub enabled: bool,
    /// Live chunk map: pointer → requested size (paper Fig. 5).
    pub chunk_map: HashMap<u64, u64>,
    /// Handles opened via `closurex_fopen` during test-case execution.
    pub open_files: Vec<u64>,
    /// Handles opened during the initialization phase; these are *rewound*
    /// (fseek to 0) between test cases instead of closed and reopened.
    pub init_files: Vec<u64>,
    /// True while the harness runs deferred initialization.
    pub in_init_phase: bool,
}

/// A simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Copy-on-write paged memory.
    pub mem: PageTable,
    /// Heap allocator state.
    pub heap: HeapState,
    /// Descriptor table.
    pub fds: FdTable,
    /// Loaded-globals layout.
    pub globals: GlobalMap,
    /// Live activation records (empty when idle).
    pub frames: Vec<Frame>,
    /// The register stack: every live frame's registers, one window per
    /// frame from its [`Frame::base`] (empty when idle).
    pub regs: Vec<i64>,
    /// Current stack pointer.
    pub sp: u64,
    /// Coverage `prev_loc` state.
    pub cov_state: CovState,
    /// ClosureX runtime side-state.
    pub rt: ClosureRt,
    /// Live `setjmp` contexts keyed by `jmp_buf` address.
    pub jmpbufs: HashMap<u64, JmpCtx>,
    /// Deterministic PRNG state for the `rand` hostcall.
    pub rng_state: u64,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Pid for diagnostics.
    pub pid: u32,
}

impl Process {
    /// Load a module into a fresh process image.
    pub fn load(module: &Module, heap_limit: u64, fd_limit: usize, pid: u32) -> Self {
        let globals = GlobalMap::layout(module);
        let mut mem = PageTable::new();
        globals.load_into(module, &mut mem);
        // Heap-base ASLR analog: each process's heap lands at a slightly
        // different address, so stored pointers differ across fresh runs
        // (the paper's non-determinism source for global snapshots).
        let heap_base = HEAP_BASE + u64::from(pid % 16) * 0x10_0000;
        Process {
            mem,
            heap: HeapState::with_base(heap_base, heap_limit),
            fds: FdTable::new(fd_limit),
            globals,
            frames: Vec::new(),
            regs: Vec::new(),
            sp: STACK_TOP,
            cov_state: CovState::default(),
            rt: ClosureRt::default(),
            jmpbufs: HashMap::new(),
            rng_state: 0x243F6A8885A308D3 ^ u64::from(pid),
            stdout: Vec::new(),
            pid,
        }
    }

    /// Validate a memory access, producing the crash that a hardware MMU +
    /// sanitizer would report.
    ///
    /// # Errors
    /// The appropriate [`Crash`] for the faulting access.
    #[inline]
    pub fn check_access(
        &self,
        addr: u64,
        len: u64,
        is_write: bool,
        function: &str,
        block: u32,
    ) -> Result<(), Crash> {
        if self.access_ok(addr, len, is_write) {
            Ok(())
        } else {
            self.check_access_slow(addr, len, is_write, function, block)
        }
    }

    /// The verdict of [`Process::check_access`] without the crash: a few
    /// compares when the access lands in the global slot or heap chunk
    /// the previous accepted access did. Walks the regions in the same
    /// order as the slow path: null page, globals, heap, stack.
    #[inline]
    pub(crate) fn access_ok(&self, addr: u64, len: u64, is_write: bool) -> bool {
        let ok = if addr < NULL_PAGE_END {
            false
        } else if self.globals.contains(addr) {
            self.globals.access_ok(addr, len, is_write)
        } else if (self.heap.base()..self.heap.high_water().max(self.heap.base())).contains(&addr) {
            self.heap.access_ok(addr, len)
        } else if (STACK_TOP - STACK_MAX_BYTES..STACK_TOP).contains(&addr) {
            addr + len <= STACK_TOP
        } else {
            false
        };
        debug_assert_eq!(
            ok,
            self.check_access_slow(addr, len, is_write, "", 0).is_ok(),
            "access fast path disagrees with the region walk at {addr:#x}+{len} (write: {is_write})"
        );
        ok
    }

    /// The full region walk behind [`Process::check_access`], and the only
    /// code that builds an access [`Crash`]. Runs only once
    /// [`Process::access_ok`] has rejected the access (and, in debug
    /// builds, as that fast path's oracle).
    ///
    /// # Errors
    /// The appropriate [`Crash`] for the faulting access.
    #[cold]
    #[inline(never)]
    pub(crate) fn check_access_slow(
        &self,
        addr: u64,
        len: u64,
        is_write: bool,
        function: &str,
        block: u32,
    ) -> Result<(), Crash> {
        let crash = |kind: CrashKind, detail: String| {
            Err(Crash {
                kind,
                function: function.to_string(),
                block,
                detail,
            })
        };
        if addr < NULL_PAGE_END {
            return crash(CrashKind::NullPtrDeref, format!("addr={addr:#x}"));
        }
        // Globals region.
        if self.globals.contains(addr) {
            return match self.globals.find(addr) {
                Some(slot) => {
                    if addr + len > slot.end() {
                        crash(
                            CrashKind::OutOfBoundsAccess,
                            format!("{} past global '{}'", addr + len - slot.end(), slot.name),
                        )
                    } else if is_write && !slot.writable {
                        crash(
                            CrashKind::InvalidWrite,
                            format!("write to read-only '{}'", slot.name),
                        )
                    } else {
                        Ok(())
                    }
                }
                None => {
                    if is_write {
                        crash(
                            CrashKind::InvalidWrite,
                            format!("addr={addr:#x} (global gap)"),
                        )
                    } else {
                        crash(
                            CrashKind::InvalidRead,
                            format!("addr={addr:#x} (global gap)"),
                        )
                    }
                }
            };
        }
        // Heap region.
        if (self.heap.base()..self.heap.high_water().max(self.heap.base())).contains(&addr) {
            return match self.heap.check_access(addr, len) {
                AccessVerdict::Ok => Ok(()),
                AccessVerdict::UseAfterFree => crash(
                    CrashKind::UnaddressableAccess,
                    format!("use-after-free at {addr:#x}"),
                ),
                AccessVerdict::OutOfBounds => crash(
                    CrashKind::OutOfBoundsAccess,
                    format!("heap OOB at {addr:#x}+{len}"),
                ),
                AccessVerdict::Unaddressable => crash(
                    CrashKind::UnaddressableAccess,
                    format!("heap gap at {addr:#x}"),
                ),
            };
        }
        // Stack region.
        if (STACK_TOP - STACK_MAX_BYTES..STACK_TOP).contains(&addr) {
            if addr + len <= STACK_TOP {
                return Ok(());
            }
            return crash(CrashKind::InvalidWrite, format!("past stack top {addr:#x}"));
        }
        crash(
            CrashKind::UnaddressableAccess,
            format!("unmapped addr={addr:#x} len={len}"),
        )
    }

    /// Read `len` bytes (unchecked; callers run [`Process::check_access`]).
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.mem.read(addr, &mut buf);
        buf
    }

    /// Write bytes (unchecked; callers run [`Process::check_access`]).
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.mem.write(addr, data);
    }

    /// Next value from the deterministic per-process PRNG (SplitMix64).
    pub fn next_rand(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// Convenience: address just below the null page boundary is invalid, the
/// first global is at [`GLOBAL_BASE`](crate::layout::GLOBAL_BASE).
pub fn is_null_addr(addr: u64) -> bool {
    addr < NULL_PAGE_END
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::GLOBAL_BASE;
    use fir::builder::ModuleBuilder;
    use fir::Global;

    fn proc() -> Process {
        let mut mb = ModuleBuilder::new("m");
        mb.global(Global::constant("ro", vec![9; 8]));
        mb.global(Global::zeroed("rw", 32));
        let m = mb.finish();
        Process::load(&m, 1 << 20, 16, 1)
    }

    #[test]
    fn heap_chunks_past_the_stack_top_are_stored() {
        // The heap limits live bytes, not its address range, and reuses a
        // freed chunk only for the same rounded size: allocations of
        // ever-new sizes walk the bump pointer past every fixed region.
        let m = ModuleBuilder::new("m").finish();
        let mut p = Process::load(&m, 64 << 20, 16, 1);
        let size = |i: u64| (60 << 20) + i * 16;
        for i in 0..24 {
            let chunk = p.heap.alloc(size(i)).unwrap();
            p.heap.free(chunk).unwrap();
        }
        let addr = p.heap.alloc(size(24)).unwrap();
        assert!(addr > STACK_TOP, "chunk at {addr:#x}");
        assert!(p.check_access(addr, 8, true, "f", 0).is_ok());
        let resident = p.mem.resident_pages();
        p.mem.write_uint(addr, 0xfeed, 8);
        assert_eq!(p.mem.read_uint(addr, 8), 0xfeed);
        assert_eq!(p.mem.resident_pages(), resident + 1);
    }

    #[test]
    fn null_deref_detected() {
        let p = proc();
        let e = p.check_access(0, 8, false, "f", 0).unwrap_err();
        assert_eq!(e.kind, CrashKind::NullPtrDeref);
        let e = p.check_access(0x8000, 1, true, "f", 0).unwrap_err();
        assert_eq!(e.kind, CrashKind::NullPtrDeref);
    }

    #[test]
    fn rodata_write_detected() {
        let p = proc();
        let ro = p.globals.addr_of_name("ro").unwrap();
        assert!(p.check_access(ro, 8, false, "f", 0).is_ok());
        let e = p.check_access(ro, 8, true, "f", 0).unwrap_err();
        assert_eq!(e.kind, CrashKind::InvalidWrite);
    }

    #[test]
    fn global_oob_detected() {
        let p = proc();
        let rw = p.globals.addr_of_name("rw").unwrap();
        assert!(p.check_access(rw + 31, 1, true, "f", 0).is_ok());
        let e = p.check_access(rw + 24, 16, true, "f", 0).unwrap_err();
        assert_eq!(e.kind, CrashKind::OutOfBoundsAccess);
    }

    #[test]
    fn heap_lifecycle_access_checks() {
        let mut p = proc();
        let a = p.heap.alloc(64).unwrap();
        assert!(p.check_access(a, 64, true, "f", 0).is_ok());
        p.heap.free(a).unwrap();
        let e = p.check_access(a, 1, false, "f", 0).unwrap_err();
        assert_eq!(e.kind, CrashKind::UnaddressableAccess);
    }

    #[test]
    fn stack_access_ok_unmapped_not() {
        let p = proc();
        assert!(p.check_access(STACK_TOP - 64, 32, true, "f", 0).is_ok());
        let e = p.check_access(0x6000_0000, 8, false, "f", 0).unwrap_err();
        assert_eq!(e.kind, CrashKind::UnaddressableAccess);
    }

    /// `check_access` on `p`, returning the crash kind and detail. In debug
    /// builds every call also checks the fast path against the region walk.
    fn verdict(p: &Process, addr: u64, len: u64, is_write: bool) -> Option<(CrashKind, String)> {
        let fast = p.check_access(addr, len, is_write, "f", 0);
        let slow = p.check_access_slow(addr, len, is_write, "f", 0);
        assert_eq!(fast, slow, "fast and slow verdicts at {addr:#x}+{len}");
        fast.err().map(|c| (c.kind, c.detail))
    }

    fn kind(p: &Process, addr: u64, len: u64, is_write: bool) -> Option<CrashKind> {
        verdict(p, addr, len, is_write).map(|(k, _)| k)
    }

    /// `ro` (8 bytes, rodata), then in .bss: zero-size `z0`, `rw` (20
    /// bytes, padded to 32), zero-size `tail` at the very end.
    fn padded_proc() -> Process {
        let mut mb = ModuleBuilder::new("m");
        mb.global(Global::constant("ro", vec![9; 8]));
        mb.global(Global::zeroed("z0", 0));
        mb.global(Global::zeroed("rw", 20));
        mb.global(Global::zeroed("tail", 0));
        Process::load(&mb.finish(), 1 << 20, 16, 1)
    }

    #[test]
    fn access_fast_path_null_page() {
        let p = padded_proc();
        for addr in [0, 1, NULL_PAGE_END - 8, NULL_PAGE_END - 1] {
            assert_eq!(kind(&p, addr, 8, false), Some(CrashKind::NullPtrDeref));
            assert_eq!(kind(&p, addr, 1, true), Some(CrashKind::NullPtrDeref));
        }
    }

    #[test]
    fn access_fast_path_rodata_store_after_cached_read() {
        let p = padded_proc();
        let ro = p.globals.addr_of_name("ro").unwrap();
        assert_eq!(kind(&p, ro, 8, false), None, "warms the slot cache");
        let (k, detail) = verdict(&p, ro, 8, true).unwrap();
        assert_eq!(k, CrashKind::InvalidWrite);
        assert_eq!(detail, "write to read-only 'ro'");
        assert_eq!(kind(&p, ro + 4, 4, false), None);
        assert_eq!(
            kind(&p, ro + 4, 8, false),
            Some(CrashKind::OutOfBoundsAccess)
        );
    }

    #[test]
    fn access_fast_path_padding_gap_and_zero_size_globals() {
        let p = padded_proc();
        let rw = p.globals.addr_of_name("rw").unwrap();
        assert_eq!(
            p.globals.addr_of_name("z0"),
            Some(rw),
            "zero-size slot shares rw's start"
        );
        assert_eq!(kind(&p, rw, 8, true), None, "z0's address resolves to rw");
        assert_eq!(kind(&p, rw + 19, 1, true), None);
        // The padding after rw's 20 bytes is a gap, cached slot or not.
        let (k, detail) = verdict(&p, rw + 20, 1, false).unwrap();
        assert_eq!(k, CrashKind::InvalidRead);
        assert!(detail.ends_with("(global gap)"), "{detail}");
        assert_eq!(kind(&p, rw + 24, 8, true), Some(CrashKind::InvalidWrite));
        assert_eq!(
            kind(&p, rw + 16, 8, true),
            Some(CrashKind::OutOfBoundsAccess)
        );
        assert_eq!(
            kind(&p, rw, 0, false),
            None,
            "zero-length access inside a slot"
        );
        assert_eq!(kind(&p, rw + 20, 0, false), Some(CrashKind::InvalidRead));
        // `tail` starts at the region's end: outside every region.
        let tail = p.globals.addr_of_name("tail").unwrap();
        assert_eq!(tail, p.globals.end());
        assert_eq!(
            kind(&p, tail, 1, false),
            Some(CrashKind::UnaddressableAccess)
        );
    }

    #[test]
    fn access_fast_path_heap_live_freed_guard_and_oob() {
        let mut p = padded_proc();
        let a = p.heap.alloc(20).unwrap(); // rounded to 32
        let b = p.heap.alloc(16).unwrap();
        assert_eq!(kind(&p, a, 8, true), None);
        assert_eq!(
            kind(&p, a + 24, 8, false),
            None,
            "inside the rounded extent"
        );
        assert_eq!(
            kind(&p, a + 28, 8, false),
            Some(CrashKind::OutOfBoundsAccess)
        );
        let (k, detail) = verdict(&p, a + 32, 1, false).unwrap();
        assert_eq!(
            (k, detail.starts_with("heap gap")),
            (CrashKind::UnaddressableAccess, true)
        );
        assert_eq!(kind(&p, b, 16, false), None, "moves the cache to b");
        assert_eq!(kind(&p, a, 8, false), None, "and back to a");
        p.heap.free(b).unwrap();
        let (k, detail) = verdict(&p, b + 8, 1, true).unwrap();
        assert_eq!(k, CrashKind::UnaddressableAccess);
        assert!(detail.starts_with("use-after-free"), "{detail}");
        let high = p.heap.high_water();
        assert_eq!(
            kind(&p, high, 1, false),
            Some(CrashKind::UnaddressableAccess)
        );
    }

    #[test]
    fn access_fast_path_use_after_free_of_the_cached_chunk() {
        let mut p = padded_proc();
        let a = p.heap.alloc(64).unwrap();
        assert_eq!(kind(&p, a + 8, 8, false), None, "the cache now holds a");
        p.heap.free(a).unwrap();
        let (k, detail) = verdict(&p, a + 8, 8, false).unwrap();
        assert_eq!(k, CrashKind::UnaddressableAccess);
        assert_eq!(detail, format!("use-after-free at {:#x}", a + 8));
        let again = p.heap.alloc(60).unwrap();
        assert_eq!(again, a, "same size class: the chunk is reused");
        assert_eq!(kind(&p, a + 8, 8, true), None);
    }

    #[test]
    fn access_fast_path_stack_top_edge_and_unmapped() {
        let p = padded_proc();
        assert_eq!(kind(&p, STACK_TOP - 8, 8, true), None);
        assert_eq!(kind(&p, STACK_TOP - STACK_MAX_BYTES, 8, false), None);
        let (k, detail) = verdict(&p, STACK_TOP - 4, 8, true).unwrap();
        assert_eq!(
            (k, detail.starts_with("past stack top")),
            (CrashKind::InvalidWrite, true)
        );
        for addr in [
            STACK_TOP,
            STACK_TOP - STACK_MAX_BYTES - 1,
            0x6000_0000,
            u64::MAX - 16,
        ] {
            assert_eq!(
                kind(&p, addr, 8, false),
                Some(CrashKind::UnaddressableAccess)
            );
        }
    }

    /// Sweep addresses across every region edge with warm caches in
    /// between; each probe compares the fast verdict with the region walk.
    #[test]
    fn access_fast_path_agrees_with_region_walk_everywhere() {
        let mut p = padded_proc();
        let chunks: Vec<u64> = [1, 16, 20, 33]
            .iter()
            .map(|&n| p.heap.alloc(n).unwrap())
            .collect();
        p.heap.free(chunks[1]).unwrap();
        let mut probes = vec![0, NULL_PAGE_END - 1, NULL_PAGE_END, GLOBAL_BASE - 1];
        for slot in p.globals.slots() {
            probes.extend([slot.start, slot.end()]);
        }
        for &c in &chunks {
            probes.extend([c, c + 16, c + 32, c + 48]);
        }
        probes.extend([p.heap.high_water(), STACK_TOP - STACK_MAX_BYTES, STACK_TOP]);
        for &base in &probes {
            for delta in [-9i64, -8, -1, 0, 1, 7, 8, 15] {
                let addr = base.wrapping_add_signed(delta);
                if addr > u64::MAX - 16 {
                    continue;
                }
                for len in [0, 1, 2, 4, 8, 16] {
                    for is_write in [false, true] {
                        verdict(&p, addr, len, is_write);
                    }
                }
            }
        }
    }

    #[test]
    fn rng_is_deterministic_per_pid() {
        let mut a = proc();
        let mut b = proc();
        assert_eq!(a.next_rand(), b.next_rand());
        let mut c = {
            let mut mb = ModuleBuilder::new("m");
            mb.global(Global::zeroed("g", 8));
            Process::load(&mb.finish(), 1 << 20, 16, 2)
        };
        assert_ne!(a.next_rand(), c.next_rand());
    }

    #[test]
    fn globals_loaded_into_memory() {
        let p = proc();
        let ro = p.globals.addr_of_name("ro").unwrap();
        assert_eq!(p.read_bytes(ro, 8), vec![9; 8]);
        assert!(p.globals.contains(GLOBAL_BASE));
    }
}
