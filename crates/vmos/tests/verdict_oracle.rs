//! The access fast path against its oracle, in every build profile.
//!
//! `Process::access` answers a guest load or store from the globals'
//! verdict table, the heap's chunk table or the stack top, and names the
//! region the access lies in; `Process::check_access_slow` walks the
//! regions and builds the crash. In debug builds `access` asserts that the
//! two agree on every access, but release builds (which the benchmark
//! runs) skip that assertion, so this test asks both on every address
//! within 32 bytes of each edge that matters, in every build:
//!
//! * the layouts of all ten bundled targets, before and after each
//!   instrumentation pipeline, and a synthetic layout with zero-size
//!   globals and several globals sharing a page;
//! * each global slot's start and end and each page boundary of the
//!   globals region;
//! * live, freed and reused heap chunks, the heap's high water, the stack
//!   region's both ends and the null page.
//!
//! Each probe runs lengths 1, 2, 4, 8 and 16, as a read and as a write.
//! The verdicts must match, and an accepted access must lie in the region
//! the page table files its address under.

use fir::builder::ModuleBuilder;
use fir::{Global, Module, Section};
use vmos::layout::GLOBAL_BASE;
use vmos::mem::{Region, PAGE_SIZE};
use vmos::process::{NULL_PAGE_END, STACK_MAX_BYTES, STACK_TOP};
use vmos::Process;

const LENS: [u64; 5] = [1, 2, 4, 8, 16];

/// Check every address within 32 bytes of each of `edges`.
fn check_around(p: &Process, edges: impl IntoIterator<Item = u64>, what: &str) -> usize {
    let mut probes = 0;
    for edge in edges {
        for addr in edge.saturating_sub(32)..=edge.saturating_add(32) {
            for len in LENS {
                for is_write in [false, true] {
                    let fast = p.access(addr, len, is_write);
                    let slow = p.check_access_slow(addr, len, is_write, "f", 0);
                    assert_eq!(
                        fast.is_some(),
                        slow.is_ok(),
                        "{what}: {addr:#x}+{len} (write: {is_write}): fast {fast:?}, slow {slow:?}"
                    );
                    if let Some(region) = fast {
                        assert_eq!(
                            Some(region),
                            Region::of(addr),
                            "{what}: {addr:#x}+{len} accepted in the wrong region"
                        );
                    }
                    probes += 1;
                }
            }
        }
    }
    probes
}

/// Every global slot's start and end, and every page boundary of the
/// globals region.
fn global_edges(p: &Process) -> Vec<u64> {
    let mut edges: Vec<u64> = p
        .globals
        .slots()
        .iter()
        .flat_map(|s| [s.start, s.end()])
        .collect();
    edges.extend((GLOBAL_BASE..=p.globals.end()).step_by(PAGE_SIZE as usize));
    edges.push(p.globals.end());
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Allocate, free and reuse heap chunks in `p`, then check the globals,
/// the chunks' edges, the heap's high water, the stack region's ends and
/// the null page.
fn check_process(mut p: Process, what: &str) {
    let sizes = [1, 16, 20, 33, 4096, 5000, 64];
    let chunks: Vec<u64> = sizes.iter().map(|&n| p.heap.alloc(n).unwrap()).collect();
    p.heap.free(chunks[1]).unwrap();
    p.heap.free(chunks[4]).unwrap();
    let reused = p.heap.alloc(4090).unwrap();
    assert_eq!(reused, chunks[4], "same size class: the chunk is reused");
    let mut probes = check_around(&p, global_edges(&p), what);
    let heap_edges = chunks
        .iter()
        .zip(sizes)
        .flat_map(|(&c, n)| [c, c + n, c + n.div_ceil(16) * 16])
        .chain([reused + 4090, p.heap.base(), p.heap.high_water()]);
    probes += check_around(&p, heap_edges, what);
    let other = [
        STACK_TOP - STACK_MAX_BYTES,
        STACK_TOP - 8,
        STACK_TOP,
        0,
        NULL_PAGE_END,
        GLOBAL_BASE,
    ];
    probes += check_around(&p, other, what);
    assert!(probes > 0);
}

#[test]
fn every_target_layout_agrees_with_the_region_walk() {
    for t in targets::all() {
        let raw = t.module();
        let mut layouts: Vec<Module> = vec![raw.clone()];
        for mut pipeline in [
            passes::pipelines::baseline_pipeline(),
            passes::pipelines::closurex_pipeline(),
        ] {
            let mut m = raw.clone();
            pipeline.run(&mut m).expect("pipeline runs");
            layouts.push(m);
        }
        for (i, m) in layouts.iter().enumerate() {
            let p = Process::load(m, 64 << 20, 16, 1);
            check_process(p, &format!("{} layout {i}", t.name));
        }
    }
}

#[test]
fn a_crowded_synthetic_layout_agrees_with_the_region_walk() {
    // Zero-size globals at the region's start, between slots and at its
    // end; a page shared by a dozen small slots of both kinds; slots that
    // straddle pages; one large slot spanning several pages alone.
    let mut mb = ModuleBuilder::new("m");
    mb.global(Global::zeroed("z_first", 0));
    for i in 0..6 {
        mb.global(Global::constant(format!("ro{i}"), vec![7; 1 + 5 * i]));
    }
    mb.global(Global::with_init("data", vec![1; 24]));
    mb.global(Global::zeroed("z_mid", 0));
    for i in 0..6 {
        mb.global(Global::zeroed(format!("bss{i}"), 3 + 7 * i as u64));
    }
    mb.global(Global::zeroed("straddle", PAGE_SIZE - 40));
    mb.global(Global::zeroed("big", 3 * PAGE_SIZE + 8));
    let mut moved = Global::zeroed("moved", 100);
    moved.section = Section::ClosureGlobal;
    mb.global(moved);
    mb.global(Global::zeroed("z_last", 0));
    let p = Process::load(&mb.finish(), 1 << 20, 16, 3);
    let shared_first_page = p
        .globals
        .slots()
        .iter()
        .filter(|s| s.size > 0 && s.start < GLOBAL_BASE + PAGE_SIZE)
        .count();
    assert!(shared_first_page >= 12, "{shared_first_page} slots");
    check_process(p, "synthetic");
}
