//! The simulated heap allocator, with full error detection.
//!
//! Chunk metadata lives outside the simulated address space (like a
//! hardened allocator's side table), which lets the VM detect:
//!
//! * use-after-free and gap accesses (→ unaddressable access),
//! * out-of-bounds accesses past a chunk's end,
//! * double free and invalid free,
//! * leak enumeration — the Valgrind stand-in used both by the ClosureX
//!   harness (to sweep leaked chunks between test cases, paper Fig. 5) and
//!   by the correctness evaluation (§6.1.4).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

use crate::process::{STACK_MAX_BYTES, STACK_TOP};

/// Base virtual address of the heap region.
pub const HEAP_BASE: u64 = 0x4000_0000;
/// One past the heap region's last address: the stack region begins
/// here, and no chunk (or the guard gap after it) may reach into it.
pub const HEAP_END: u64 = STACK_TOP - STACK_MAX_BYTES;
/// Guard gap between chunks; accesses inside it are unaddressable.
pub const GUARD: u64 = 16;
/// Allocation granularity.
pub const ALIGN: u64 = 16;

/// Allocation state of one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    Allocated,
    Freed,
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    size: u64,
    rounded: u64,
    state: ChunkState,
}

/// Why an allocator operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// `free` on an already-freed chunk.
    DoubleFree,
    /// `free` on a pointer that is not a chunk start.
    InvalidFree,
    /// The heap byte limit would be exceeded.
    OutOfMemory,
}

/// Result of validating a memory access against the chunk table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessVerdict {
    /// Fully inside a live chunk.
    Ok,
    /// Inside a freed chunk (use-after-free).
    UseAfterFree,
    /// Starts inside a live chunk but runs past its end.
    OutOfBounds,
    /// In the heap region but not inside any chunk.
    Unaddressable,
}

/// The allocator: bump allocation with exact-size free-list reuse and a
/// persistent chunk side table.
#[derive(Debug, Clone)]
pub struct HeapState {
    base: u64,
    next: u64,
    chunks: BTreeMap<u64, Chunk>,
    free_by_size: HashMap<u64, Vec<u64>>,
    live_bytes: u64,
    limit_bytes: u64,
    total_allocs: u64,
    /// `[start, start + rounded)` of the last live chunk
    /// [`HeapState::access_ok`] accepted an access in; `(0, 0)` caches
    /// nothing. Host-only and never serialized; [`HeapState::free`]
    /// clears it, so it never covers a freed chunk.
    last_ok: Cell<(u64, u64)>,
}

impl HeapState {
    /// New heap with the given live-byte limit (the 3.5 GB Azure instance
    /// analog; exceeding it is the paper's accumulated-leak OOM false
    /// crash).
    pub fn new(limit_bytes: u64) -> Self {
        Self::with_base(HEAP_BASE, limit_bytes)
    }

    /// New heap starting at `base` — the ASLR analog. Per-process bases make
    /// stored heap pointers vary across fresh runs, which is exactly how the
    /// paper's correctness methodology discovers non-deterministic global
    /// bytes to mask (§6.1.4).
    pub fn with_base(base: u64, limit_bytes: u64) -> Self {
        HeapState {
            base,
            next: base,
            chunks: BTreeMap::new(),
            free_by_size: HashMap::new(),
            live_bytes: 0,
            limit_bytes,
            total_allocs: 0,
            last_ok: Cell::new((0, 0)),
        }
    }

    /// The heap's base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Bytes currently allocated (live).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of live chunks.
    pub fn live_chunks(&self) -> usize {
        self.chunks
            .values()
            .filter(|c| c.state == ChunkState::Allocated)
            .count()
    }

    /// Total successful allocations ever.
    pub fn total_allocs(&self) -> u64 {
        self.total_allocs
    }

    /// One-past-the-end of the heap's used address range.
    pub fn high_water(&self) -> u64 {
        self.next
    }

    /// Allocate `size` bytes (size 0 is rounded up to [`ALIGN`]).
    ///
    /// # Errors
    /// [`HeapError::OutOfMemory`] if the live-byte limit would be exceeded,
    /// or if no freed chunk of this rounded size is left to reuse and a new
    /// one (with its guard gap) would end past [`HEAP_END`]: the bump
    /// pointer never walks into the stack region.
    pub fn alloc(&mut self, size: u64) -> Result<u64, HeapError> {
        let rounded = size.max(1).div_ceil(ALIGN) * ALIGN;
        if self.live_bytes + rounded > self.limit_bytes {
            return Err(HeapError::OutOfMemory);
        }
        if let Some(list) = self.free_by_size.get_mut(&rounded) {
            if let Some(addr) = list.pop() {
                let c = self.chunks.get_mut(&addr).expect("free-list chunk exists");
                c.state = ChunkState::Allocated;
                c.size = size;
                self.total_allocs += 1;
                self.live_bytes += rounded;
                return Ok(addr);
            }
        }
        let addr = self.next;
        let end = addr
            .checked_add(rounded + GUARD)
            .filter(|&end| end <= HEAP_END)
            .ok_or(HeapError::OutOfMemory)?;
        self.total_allocs += 1;
        self.live_bytes += rounded;
        self.next = end;
        self.chunks.insert(
            addr,
            Chunk {
                size,
                rounded,
                state: ChunkState::Allocated,
            },
        );
        Ok(addr)
    }

    /// Free a chunk.
    ///
    /// # Errors
    /// [`HeapError::DoubleFree`] or [`HeapError::InvalidFree`].
    pub fn free(&mut self, addr: u64) -> Result<(), HeapError> {
        match self.chunks.get_mut(&addr) {
            Some(c) if c.state == ChunkState::Allocated => {
                self.last_ok.set((0, 0));
                c.state = ChunkState::Freed;
                self.live_bytes -= c.rounded;
                self.free_by_size.entry(c.rounded).or_default().push(addr);
                Ok(())
            }
            Some(_) => Err(HeapError::DoubleFree),
            None => Err(HeapError::InvalidFree),
        }
    }

    /// Requested size of the live chunk at `addr`, if any.
    pub fn chunk_size(&self, addr: u64) -> Option<u64> {
        self.chunks
            .get(&addr)
            .filter(|c| c.state == ChunkState::Allocated)
            .map(|c| c.size)
    }

    /// The chunk whose *rounded* extent holds `addr`, with its start.
    fn covering(&self, addr: u64) -> Option<(u64, &Chunk)> {
        let (&start, chunk) = self.chunks.range(..=addr).next_back()?;
        (addr < start + chunk.rounded).then_some((start, chunk))
    }

    /// Validate an access of `len` bytes at `addr`.
    pub fn check_access(&self, addr: u64, len: u64) -> AccessVerdict {
        // Access must begin inside the chunk's *rounded* extent.
        let Some((start, chunk)) = self.covering(addr) else {
            return AccessVerdict::Unaddressable;
        };
        if chunk.state == ChunkState::Freed {
            return AccessVerdict::UseAfterFree;
        }
        if addr + len.max(1) > start + chunk.rounded {
            return AccessVerdict::OutOfBounds;
        }
        AccessVerdict::Ok
    }

    /// `check_access(addr, len) == AccessVerdict::Ok`, answered from the
    /// last accepted chunk when `addr` falls inside it: chunks never
    /// overlap, so that chunk is the one the side-table lookup would find.
    #[inline(always)]
    pub(crate) fn access_ok(&self, addr: u64, len: u64) -> bool {
        let (start, end) = self.last_ok.get();
        if start <= addr && addr < end {
            return addr + len.max(1) <= end;
        }
        self.access_ok_miss(addr, len)
    }

    #[inline(never)]
    fn access_ok_miss(&self, addr: u64, len: u64) -> bool {
        match self.covering(addr) {
            Some((start, c))
                if c.state == ChunkState::Allocated && addr + len.max(1) <= start + c.rounded =>
            {
                self.last_ok.set((start, start + c.rounded));
                true
            }
            _ => false,
        }
    }

    /// Addresses of all live chunks — the leak set the ClosureX harness
    /// sweeps between test cases and the Valgrind-style leak report.
    pub fn live_chunk_addrs(&self) -> Vec<u64> {
        self.chunks
            .iter()
            .filter(|(_, c)| c.state == ChunkState::Allocated)
            .map(|(a, _)| *a)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> HeapState {
        HeapState::new(1 << 20)
    }

    #[test]
    fn alloc_free_cycle() {
        let mut h = heap();
        let p = h.alloc(100).unwrap();
        assert!(p >= HEAP_BASE);
        assert_eq!(h.live_chunks(), 1);
        assert_eq!(h.chunk_size(p), Some(100));
        h.free(p).unwrap();
        assert_eq!(h.live_chunks(), 0);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn double_free_detected() {
        let mut h = heap();
        let p = h.alloc(8).unwrap();
        h.free(p).unwrap();
        assert_eq!(h.free(p), Err(HeapError::DoubleFree));
    }

    #[test]
    fn invalid_free_detected() {
        let mut h = heap();
        let p = h.alloc(8).unwrap();
        assert_eq!(h.free(p + 4), Err(HeapError::InvalidFree));
        assert_eq!(h.free(0xdead0000), Err(HeapError::InvalidFree));
    }

    #[test]
    fn oom_at_limit() {
        let mut h = HeapState::new(64);
        let _ = h.alloc(48).unwrap();
        assert_eq!(h.alloc(48), Err(HeapError::OutOfMemory));
    }

    #[test]
    fn use_after_free_detected() {
        let mut h = heap();
        let p = h.alloc(32).unwrap();
        assert_eq!(h.check_access(p, 32), AccessVerdict::Ok);
        h.free(p).unwrap();
        assert_eq!(h.check_access(p, 1), AccessVerdict::UseAfterFree);
    }

    #[test]
    fn oob_detected_past_rounded_end() {
        let mut h = heap();
        let p = h.alloc(32).unwrap();
        assert_eq!(h.check_access(p + 31, 1), AccessVerdict::Ok);
        assert_eq!(h.check_access(p, 33), AccessVerdict::OutOfBounds);
        assert_eq!(h.check_access(p + 16, 32), AccessVerdict::OutOfBounds);
    }

    #[test]
    fn guard_gap_is_unaddressable() {
        let mut h = heap();
        let a = h.alloc(16).unwrap();
        let _b = h.alloc(16).unwrap();
        assert_eq!(h.check_access(a + 16 + 1, 1), AccessVerdict::Unaddressable);
    }

    #[test]
    fn reuse_from_free_list_flips_state_back() {
        let mut h = heap();
        let a = h.alloc(24).unwrap();
        h.free(a).unwrap();
        let b = h.alloc(20).unwrap(); // same 32-byte class → reuse
        assert_eq!(a, b);
        assert_eq!(h.check_access(b, 20), AccessVerdict::Ok);
        assert_eq!(h.chunk_size(b), Some(20));
    }

    #[test]
    fn leak_enumeration() {
        let mut h = heap();
        let a = h.alloc(8).unwrap();
        let b = h.alloc(8).unwrap();
        let c = h.alloc(8).unwrap();
        h.free(b).unwrap();
        let mut leaks = h.live_chunk_addrs();
        leaks.sort();
        assert_eq!(leaks, vec![a, c]);
    }

    #[test]
    fn zero_size_alloc_is_valid_and_distinct() {
        let mut h = heap();
        let a = h.alloc(0).unwrap();
        let b = h.alloc(0).unwrap();
        assert_ne!(a, b);
    }
}
