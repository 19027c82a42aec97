//! Global-variable memory layout.
//!
//! Globals are laid out section-by-section (`.rodata`, `.data`, `.bss`,
//! `closure_global_section`) so that the ClosureX harness can ask for the
//! contiguous `closure_global_section` range — the analog of the paper's
//! `CLOSURE_GLOBAL_SECTION_ADDR` / `CLOSURE_GLOBAL_SECTION_SIZE`
//! environment variables populated via `readelf`.

use std::cell::Cell;
use std::sync::Arc;

use fir::{GlobalId, Module, Section};

use crate::mem::PageTable;

/// Base virtual address of the globals region.
pub const GLOBAL_BASE: u64 = 0x1000_0000;
/// Per-global alignment.
pub const GLOBAL_ALIGN: u64 = 16;

/// One laid-out global.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalSlot {
    /// The module's global id.
    pub gid: GlobalId,
    /// Symbol name.
    pub name: String,
    /// Start address.
    pub start: u64,
    /// Size in bytes.
    pub size: u64,
    /// Whether stores are legal.
    pub writable: bool,
    /// The section it was placed in.
    pub section: Section,
}

impl GlobalSlot {
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.start + self.size
    }
}

/// The loaded-globals map of one process image.
#[derive(Debug, Clone, Default)]
pub struct GlobalMap {
    /// Immutable once [`GlobalMap::layout`] returns, so every clone (a
    /// fork, a template copy) shares it instead of copying each name.
    layout: Arc<Layout>,
    end: u64,
    /// `(start, end, writable)` of the last slot [`GlobalMap::access_ok`]
    /// accepted an access in; `(0, 0, _)` caches nothing. Host-only: the
    /// layout never changes after [`GlobalMap::layout`], so the entry can
    /// never go stale, and it is never serialized.
    last_hit: Cell<(u64, u64, bool)>,
}

/// The slots and sections of a [`GlobalMap`].
#[derive(Debug, Default)]
struct Layout {
    slots: Vec<GlobalSlot>, // sorted by start
    sections: Vec<(Section, u64, u64)>,
    /// `addrs[gid]` = start of global `gid`'s slot.
    addrs: Vec<u64>,
}

impl GlobalMap {
    /// Compute the layout for a module (deterministic).
    pub fn layout(module: &Module) -> Self {
        let mut slots = Vec::new();
        let mut sections = Vec::new();
        let mut cursor = GLOBAL_BASE;
        for section in [
            Section::Rodata,
            Section::Data,
            Section::Bss,
            Section::ClosureGlobal,
        ] {
            let sec_start = cursor;
            for (i, g) in module.globals.iter().enumerate() {
                if g.section != section {
                    continue;
                }
                slots.push(GlobalSlot {
                    gid: GlobalId(i as u32),
                    name: g.name.clone(),
                    start: cursor,
                    size: g.size,
                    writable: section.writable(),
                    section,
                });
                cursor += g.size.div_ceil(GLOBAL_ALIGN) * GLOBAL_ALIGN;
            }
            if cursor > sec_start {
                sections.push((section, sec_start, cursor - sec_start));
            }
        }
        let mut addrs = vec![0; module.globals.len()];
        for slot in &slots {
            addrs[slot.gid.0 as usize] = slot.start;
        }
        GlobalMap {
            layout: Arc::new(Layout {
                slots,
                sections,
                addrs,
            }),
            end: cursor,
            last_hit: Cell::new((0, 0, false)),
        }
    }

    /// Copy every global's initial image into memory.
    pub fn load_into(&self, module: &Module, mem: &mut PageTable) {
        for slot in &self.layout.slots {
            let g = &module.globals[slot.gid.0 as usize];
            mem.write(slot.start, &g.image());
        }
    }

    /// One past the end of the globals region.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// True if `addr` is inside the globals region.
    pub fn contains(&self, addr: u64) -> bool {
        (GLOBAL_BASE..self.end).contains(&addr)
    }

    /// The slot covering `addr`, if any.
    pub fn find(&self, addr: u64) -> Option<&GlobalSlot> {
        let slots = &self.layout.slots;
        let idx = slots.partition_point(|s| s.start <= addr);
        let slot = slots.get(idx.checked_sub(1)?)?;
        (addr < slot.end()).then_some(slot)
    }

    /// True exactly when an access of `len` bytes at `addr`, which must lie
    /// inside the region, is accepted: it starts in a slot, ends by the
    /// slot's end, and writes only a writable slot.
    ///
    /// Nonzero-size slots are disjoint, so `start <= addr < end` of the
    /// cached slot means [`GlobalMap::find`] would return that same slot,
    /// and the verdict can be read off the cache without a search.
    #[inline]
    pub(crate) fn access_ok(&self, addr: u64, len: u64, is_write: bool) -> bool {
        let (start, end, writable) = self.last_hit.get();
        if start <= addr && addr < end {
            return addr + len <= end && (writable || !is_write);
        }
        self.access_ok_miss(addr, len, is_write)
    }

    #[inline(never)]
    fn access_ok_miss(&self, addr: u64, len: u64, is_write: bool) -> bool {
        let Some(slot) = self.find(addr) else {
            return false;
        };
        let ok = addr + len <= slot.end() && (slot.writable || !is_write);
        if ok {
            self.last_hit.set((slot.start, slot.end(), slot.writable));
        }
        ok
    }

    /// Address of a global by id: one table read.
    #[inline]
    pub fn addr_of(&self, gid: GlobalId) -> Option<u64> {
        self.layout.addrs.get(gid.0 as usize).copied()
    }

    /// Address of a global by name.
    pub fn addr_of_name(&self, name: &str) -> Option<u64> {
        self.layout
            .slots
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.start)
    }

    /// `(start, size)` of a section, if non-empty — the
    /// `CLOSURE_GLOBAL_SECTION_ADDR/SIZE` analog.
    pub fn section_range(&self, section: Section) -> Option<(u64, u64)> {
        self.layout
            .sections
            .iter()
            .find(|(s, _, _)| *s == section)
            .map(|(_, a, l)| (*a, *l))
    }

    /// All slots, sorted by address.
    pub fn slots(&self) -> &[GlobalSlot] {
        &self.layout.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::ModuleBuilder;
    use fir::Global;

    fn module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.global(Global::constant("ro", vec![1, 2, 3, 4]));
        mb.global(Global::with_init("counter", 7i64.to_le_bytes().to_vec()));
        mb.global(Global::zeroed("scratch", 100));
        let mut g = Global::zeroed("moved", 24);
        g.section = Section::ClosureGlobal;
        mb.global(g);
        mb.finish()
    }

    #[test]
    fn sections_are_contiguous_and_ordered() {
        let m = module();
        let gm = GlobalMap::layout(&m);
        let ro = gm.section_range(Section::Rodata).unwrap();
        let da = gm.section_range(Section::Data).unwrap();
        let bs = gm.section_range(Section::Bss).unwrap();
        let cg = gm.section_range(Section::ClosureGlobal).unwrap();
        assert!(ro.0 < da.0 && da.0 < bs.0 && bs.0 < cg.0);
        assert_eq!(cg.1, 32, "24 rounded to 16-alignment blocks");
    }

    #[test]
    fn find_resolves_interior_addresses() {
        let m = module();
        let gm = GlobalMap::layout(&m);
        let a = gm.addr_of_name("scratch").unwrap();
        assert_eq!(gm.find(a + 50).unwrap().name, "scratch");
        assert_eq!(gm.find(a + 99).unwrap().name, "scratch");
        assert!(gm.find(a + 100).is_none() || gm.find(a + 100).unwrap().name != "scratch");
    }

    #[test]
    fn writability_follows_section() {
        let m = module();
        let gm = GlobalMap::layout(&m);
        let ro = gm.addr_of_name("ro").unwrap();
        assert!(!gm.find(ro).unwrap().writable);
        let c = gm.addr_of_name("counter").unwrap();
        assert!(gm.find(c).unwrap().writable);
    }

    #[test]
    fn load_into_writes_initializers() {
        let m = module();
        let gm = GlobalMap::layout(&m);
        let mut mem = PageTable::new();
        gm.load_into(&m, &mut mem);
        let c = gm.addr_of_name("counter").unwrap();
        assert_eq!(mem.read_uint(c, 8), 7);
        let ro = gm.addr_of_name("ro").unwrap();
        assert_eq!(
            mem.read_uint(ro, 4) as u32,
            u32::from_le_bytes([1, 2, 3, 4])
        );
    }

    #[test]
    fn clones_share_the_layout_but_not_the_slot_cache() {
        let m = module();
        let gm = GlobalMap::layout(&m);
        let c = gm.addr_of_name("counter").unwrap();
        assert!(gm.access_ok(c, 8, true), "warms the original's cache");
        let twin = gm.clone();
        assert!(Arc::ptr_eq(&gm.layout, &twin.layout), "no per-clone copy");
        assert_eq!(twin.slots(), gm.slots());
        let s = gm.addr_of_name("scratch").unwrap();
        assert!(twin.access_ok(s, 8, true), "moves only the twin's cache");
        assert_eq!(gm.last_hit.get(), (c, c + 8, true));
        assert_eq!(twin.last_hit.get(), (s, s + 100, true));
    }

    #[test]
    fn every_gid_resolves_to_its_slot_start() {
        // Globals declared out of section order, two in each of the four
        // sections, one of them zero-size.
        let mut mb = ModuleBuilder::new("m");
        let mut moved = Global::zeroed("moved", 40);
        moved.section = Section::ClosureGlobal;
        mb.global(moved);
        mb.global(Global::zeroed("bss", 8));
        mb.global(Global::constant("ro", vec![1; 3]));
        mb.global(Global::with_init("data", vec![2; 20]));
        let mut moved2 = Global::zeroed("moved2", 0);
        moved2.section = Section::ClosureGlobal;
        mb.global(moved2);
        mb.global(Global::constant("ro2", vec![3; 17]));
        mb.global(Global::with_init("data2", vec![4; 1]));
        mb.global(Global::zeroed("bss2", 5000));
        let m = mb.finish();
        let gm = GlobalMap::layout(&m);
        assert_eq!(gm.slots().len(), m.globals.len());
        for section in [
            Section::Rodata,
            Section::Data,
            Section::Bss,
            Section::ClosureGlobal,
        ] {
            assert_eq!(
                m.globals.iter().filter(|g| g.section == section).count(),
                2,
                "{section:?}"
            );
        }
        for (i, g) in m.globals.iter().enumerate() {
            let gid = GlobalId(i as u32);
            let slot = gm.slots().iter().find(|s| s.gid == gid).expect("laid out");
            assert_eq!(gm.addr_of(gid), Some(slot.start), "{}", g.name);
            assert_eq!(gm.addr_of_name(&g.name), Some(slot.start));
        }
        assert_eq!(gm.addr_of(GlobalId(m.globals.len() as u32)), None);
    }

    #[test]
    fn addresses_outside_region_not_found() {
        let m = module();
        let gm = GlobalMap::layout(&m);
        assert!(gm.find(GLOBAL_BASE - 1).is_none());
        assert!(gm.find(gm.end()).is_none());
        assert!(!gm.contains(gm.end()));
    }
}
