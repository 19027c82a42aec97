//! Property-based tests over the OS substrate: allocator invariants, CoW
//! isolation, recycled forks, and coverage-map algebra.

use std::collections::{BTreeMap, BTreeSet};

use fir::builder::ModuleBuilder;
use fir::Global;
use proptest::prelude::*;

use crate::cov::{classify_count, CovMap, VirginMap};
use crate::heap::{AccessVerdict, HeapState, GUARD, HEAP_BASE};
use crate::layout::GLOBAL_BASE;
use crate::mem::{PageTable, PAGE_SIZE};
use crate::os::{ForkServer, Os};
use crate::process::{Process, STACK_MAX_BYTES, STACK_TOP};

#[derive(Debug, Clone)]
enum HeapOp {
    Alloc(u16),
    FreeNth(u8),
}

fn heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..2048).prop_map(HeapOp::Alloc),
            any::<u8>().prop_map(HeapOp::FreeNth),
        ],
        1..60,
    )
}

/// A parent with four pages of writable globals and two of rodata.
fn fork_parent() -> Process {
    let mut mb = ModuleBuilder::new("m");
    mb.global(Global::constant("ro", vec![0x5A; 2 * PAGE_SIZE as usize]));
    mb.global(Global::with_init("rw", vec![0xA5; 4 * PAGE_SIZE as usize]));
    Process::load(&mb.finish(), 1 << 20, 16, 1)
}

/// One step of a child's exec: `(kind, offset, len, byte)`.
type ChildOp = (u8, u64, u64, u8);

/// Apply `op` to `p` and return the page indices whose bytes it may have
/// changed. Writes hit the parent's pages (kinds 0–3), pages only a child
/// materializes — heap (4) and stack (5) growth — and page boundaries (6).
/// Kind 7 privatizes a parent, heap or stack page; kind 8 dirties the rest
/// of the process: a heap chunk, a descriptor, stdout, the PRNG and the
/// stack pointer.
fn apply_op(p: &mut Process, rw: u64, (kind, off, len, byte): ChildOp) -> Vec<u64> {
    let addr = match kind {
        0..=3 => rw + off,
        4 => HEAP_BASE + off,
        5 => STACK_TOP - 4 * PAGE_SIZE + off,
        6 => (rw / PAGE_SIZE + 1 + off % 3) * PAGE_SIZE - len / 2,
        7 => {
            let base = [rw, HEAP_BASE, STACK_TOP - PAGE_SIZE][off as usize % 3];
            let idx = base / PAGE_SIZE + off % 2;
            p.mem.privatize(idx);
            return vec![idx];
        }
        _ => {
            let _ = p.heap.alloc(len);
            let _ = p.fds.open("/f");
            p.stdout.push(byte);
            p.next_rand();
            p.sp -= 16;
            return Vec::new();
        }
    };
    p.mem.write(addr, &vec![byte; len as usize]);
    vec![addr / PAGE_SIZE, (addr + len - 1) / PAGE_SIZE]
}

fn child_ops() -> impl Strategy<Value = Vec<Vec<ChildOp>>> {
    let op = (0u8..9, 0u64..PAGE_SIZE * 4 - 64, 1u64..40, any::<u8>());
    prop::collection::vec(prop::collection::vec(op, 0..10), 50..60)
}

/// An address near a region edge of a process image, or far outside every
/// region: two pages either side of the globals base, both ends of the
/// heap (also with a per-pid heap offset) and both ends of the stack, or
/// in the low and high address space no region covers.
fn table_addr() -> impl Strategy<Value = u64> {
    let bases = [
        4 * PAGE_SIZE,
        GLOBAL_BASE,
        HEAP_BASE,
        HEAP_BASE + 7 * 0x10_0000,
        STACK_TOP - STACK_MAX_BYTES,
        STACK_TOP,
        0x9_0000_0000,
    ];
    (0..bases.len(), 0u64..PAGE_SIZE * 4).prop_map(move |(b, off)| bases[b] - 2 * PAGE_SIZE + off)
}

fn page_bytes(p: &Process, idx: u64) -> Vec<u8> {
    p.read_bytes(idx * PAGE_SIZE, PAGE_SIZE as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A recycled [`ForkServer`] child is, exec after exec, the process a
    /// fresh [`Os::fork`] of the same parent would be: same bytes, pages,
    /// CoW faults, private pages, pid and charges.
    #[test]
    fn recycled_fork_matches_a_fresh_fork(execs in child_ops()) {
        // `parent` shares every page with the server's own parent, so it
        // stands in for it while the server's child is borrowed.
        let parent = fork_parent();
        let mut server = ForkServer::new(parent.clone());
        let (mut os, mut oracle_os) = (Os::new(), Os::new());
        let rw = parent.globals.addr_of_name("rw").expect("rw");
        let mut touched: Vec<u64> = Vec::new();
        for ops in execs {
            let (child, fork_cycles) = server.fork(&mut os).expect("no fault plan");
            let (mut oracle, oracle_fork) = oracle_os.fork(&parent);
            prop_assert_eq!(fork_cycles, oracle_fork);
            for &op in &ops {
                apply_op(&mut oracle, rw, op);
                touched.extend(apply_op(child, rw, op));
            }
            touched.sort_unstable();
            touched.dedup();
            for &idx in &touched {
                prop_assert!(page_bytes(child, idx) == page_bytes(&oracle, idx), "page {} differs", idx);
            }
            prop_assert_eq!(child.pid, oracle.pid);
            prop_assert_eq!(child.mem.resident_pages(), oracle.mem.resident_pages());
            prop_assert_eq!(child.mem.cow_faults(), oracle.mem.cow_faults());
            prop_assert_eq!(
                child.mem.private_pages_vs(&parent.mem),
                oracle.mem.private_pages_vs(&parent.mem)
            );
            prop_assert_eq!(child.heap.live_bytes(), oracle.heap.live_bytes());
            prop_assert_eq!(child.fds.open_count(), oracle.fds.open_count());
            prop_assert_eq!(&child.stdout, &oracle.stdout);
            prop_assert_eq!((child.rng_state, child.sp), (oracle.rng_state, oracle.sp));
            prop_assert_eq!(server.reap(&mut os), oracle_os.teardown(oracle));
        }
        prop_assert_eq!(os.mgmt_cycles, oracle_os.mgmt_cycles);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Live chunks never overlap, never touch the guard gaps, and
    /// live-byte accounting is exact.
    #[test]
    fn allocator_invariants(ops in heap_ops()) {
        let mut h = HeapState::new(1 << 22);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (addr, size)
        for op in ops {
            match op {
                HeapOp::Alloc(sz) => {
                    if let Ok(p) = h.alloc(u64::from(sz)) {
                        live.push((p, u64::from(sz)));
                    }
                }
                HeapOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let idx = usize::from(i) % live.len();
                        let (p, _) = live.swap_remove(idx);
                        h.free(p).expect("tracked chunk frees cleanly");
                    }
                }
            }
        }
        // accounting
        prop_assert_eq!(h.live_chunks(), live.len());
        let mut addrs = h.live_chunk_addrs();
        addrs.sort_unstable();
        let mut expect: Vec<u64> = live.iter().map(|(a, _)| *a).collect();
        expect.sort_unstable();
        prop_assert_eq!(addrs, expect);
        // no overlap: every live chunk's rounded extent is disjoint
        let mut spans: Vec<(u64, u64)> = live
            .iter()
            .map(|(a, s)| (*a, *a + s.max(&1).div_ceil(16) * 16))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 + GUARD <= w[1].0, "chunks overlap or touch: {w:?}");
        }
        // every live chunk is fully accessible; one past is not OK
        for (a, s) in &live {
            prop_assert_eq!(h.check_access(*a, (*s).max(1)), AccessVerdict::Ok);
        }
    }

    /// Double-free is always detected, whatever the history.
    #[test]
    fn double_free_always_detected(sizes in prop::collection::vec(1u64..512, 1..20)) {
        let mut h = HeapState::new(1 << 22);
        let ptrs: Vec<u64> = sizes.iter().map(|s| h.alloc(*s).expect("fits")).collect();
        for p in &ptrs {
            h.free(*p).expect("first free ok");
        }
        for p in &ptrs {
            // Either detected as double free, or the chunk was legally
            // reused — in which case it must currently be free-listed, so
            // freeing again after realloc is a *different* chunk. Without
            // intervening allocs, it must always be DoubleFree.
            prop_assert!(h.free(*p).is_err());
        }
    }

    /// Page table: what you write is what you read — in the globals, heap
    /// and stack regions and outside all three, including writes that
    /// straddle a page or a region's dense-storage boundary — and resident
    /// pages are exactly the pages written. Forked children never see later
    /// parent writes, and those writes fault once per page they share.
    #[test]
    fn pagetable_roundtrip_and_fork_isolation(
        writes in prop::collection::vec((table_addr(), prop::collection::vec(any::<u8>(), 1..64)), 1..20),
        probe in table_addr(),
    ) {
        let mut pt = PageTable::new();
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for (addr, data) in &writes {
            pt.write(*addr, data);
            for (i, b) in data.iter().enumerate() {
                model.insert(addr + i as u64, *b);
            }
        }
        for (&addr, &byte) in &model {
            prop_assert_eq!(pt.read_uint(addr, 1), u64::from(byte), "byte at {:#x}", addr);
        }
        for (addr, data) in &writes {
            let mut back = vec![0u8; data.len()];
            pt.read(*addr, &mut back);
            let want: Vec<u8> = (0..data.len() as u64).map(|i| model[&(addr + i)]).collect();
            prop_assert_eq!(back, want, "slice read at {:#x}", addr);
            let word: Vec<u8> = (0..8).map(|i| model.get(&(addr + i)).copied().unwrap_or(0)).collect();
            prop_assert_eq!(pt.read_uint(*addr, 8).to_le_bytes().to_vec(), word);
        }
        let pages: BTreeSet<u64> = model.keys().map(|a| a / PAGE_SIZE).collect();
        prop_assert_eq!(pt.resident_pages(), pages.len() as u64);

        let child = pt.fork();
        let mut before = [0u8; 8];
        child.read(probe, &mut before);
        let shared = [probe / PAGE_SIZE, (probe + 7) / PAGE_SIZE]
            .into_iter()
            .collect::<BTreeSet<u64>>()
            .intersection(&pages)
            .count();
        pt.write(probe, &[0xEE; 8]);
        prop_assert_eq!(pt.cow_faults(), shared as u64, "one fault per shared page");
        let mut after = [0u8; 8];
        child.read(probe, &mut after);
        prop_assert_eq!(before, after, "parent writes invisible to child");
        prop_assert_eq!(pt.read_uint(probe, 8), u64::from_le_bytes([0xEE; 8]));
    }

    /// Coverage bucketing is idempotent and merge is monotone: merging the
    /// same map twice never reports new coverage the second time.
    #[test]
    fn virgin_merge_monotone(hits in prop::collection::vec(any::<u16>(), 0..200)) {
        let mut run = CovMap::new();
        for h in &hits {
            run.hit(*h);
        }
        let mut virgin = VirginMap::new();
        let first = virgin.merge(&run);
        prop_assert_eq!(first, !hits.is_empty());
        prop_assert!(!virgin.merge(&run), "second merge of same map finds nothing");
        let mut distinct: Vec<u16> = hits.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(virgin.edges_found(), distinct.len());
    }

    /// Bucket labels come from AFL's fixed set and grow monotonically with
    /// the hitcount.
    #[test]
    fn classify_bucket_labels(c in any::<u8>()) {
        let b = classify_count(c);
        prop_assert!([0u8, 1, 2, 4, 8, 16, 32, 64, 128].contains(&b));
        if c < 255 {
            prop_assert!(classify_count(c + 1) >= b);
        }
    }
}
