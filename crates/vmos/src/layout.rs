//! Global-variable memory layout.
//!
//! Globals are laid out section-by-section (`.rodata`, `.data`, `.bss`,
//! `closure_global_section`) so that the ClosureX harness can ask for the
//! contiguous `closure_global_section` range — the analog of the paper's
//! `CLOSURE_GLOBAL_SECTION_ADDR` / `CLOSURE_GLOBAL_SECTION_SIZE`
//! environment variables populated via `readelf`.

use std::sync::Arc;

use fir::{GlobalId, Module, Section};

use crate::mem::{PageTable, PAGE_SIZE};

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
///
/// Everything in it is immutable once [`GlobalMap::layout`] returns, so
/// every clone (a fork, a template copy) shares it instead of copying each
/// name or table.
#[derive(Debug, Clone, Default)]
pub struct GlobalMap {
    layout: Arc<Layout>,
    end: u64,
    /// The verdict table, one entry per page of the region from its first
    /// page on: an index into `spans`, or, with [`SHARED`] set, the start
    /// of the page's [`GRANULES`] entries in `granules`. See
    /// [`GlobalMap::access_ok`].
    pages: Arc<[u32]>,
    /// One index into `spans` per granule of each page several slots
    /// share.
    granules: Arc<[u32]>,
    /// [`Span::NONE`], then the span of every nonzero-size slot.
    spans: Arc<[Span]>,
}

/// Granules of [`GLOBAL_ALIGN`] bytes per page. Slots start on a granule
/// and nonzero-size slots end before the next slot's first granule, so no
/// granule holds bytes of two slots.
const GRANULES: usize = (PAGE_SIZE / GLOBAL_ALIGN) as usize;

/// Marks a verdict-table page entry that indexes `granules`, not `spans`.
const SHARED: u32 = 1 << 31;

/// The one slot with bytes in a stretch of the globals region (a page or a
/// granule), as the verdict table names it: every address of the stretch
/// outside `[start, end)` is a gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u64,
    /// One past the slot's last byte.
    end: u64,
    /// One past the last byte a store may reach: `end` for a writable
    /// slot, `start` for a read-only one, so every store to it fails.
    write_end: u64,
}

impl Span {
    /// A stretch without slot bytes: every access fails.
    const NONE: Span = Span {
        start: 0,
        end: 0,
        write_end: 0,
    };

    fn of(slot: &GlobalSlot) -> Span {
        Span {
            start: slot.start,
            end: slot.end(),
            write_end: if slot.writable {
                slot.end()
            } else {
                slot.start
            },
        }
    }

    /// [`GlobalMap::find`]'s verdict for an access starting in this
    /// stretch: it starts in the slot, ends by the slot's end, and stores
    /// only to a writable slot.
    #[inline(always)]
    fn admits(self, addr: u64, len: u64, is_write: bool) -> bool {
        let end = if is_write { self.write_end } else { self.end };
        self.start <= addr && addr < end && addr + len <= end
    }
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
        let (pages, granules, spans) = verdict_table(&slots, cursor);
        GlobalMap {
            layout: Arc::new(Layout {
                slots,
                sections,
                addrs,
            }),
            end: cursor,
            pages: pages.into(),
            granules: granules.into(),
            spans: spans.into(),
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
    /// One read of the verdict table, two when several slots share
    /// `addr`'s page: the entry names the span of the only slot with bytes
    /// in the page (or in the 16-byte granule, on a shared page), which is
    /// the slot [`GlobalMap::find`] returns whenever it returns one. The
    /// tables hold `u32` indices into the few spans, so a table costs 4
    /// bytes a page.
    #[inline(always)]
    pub(crate) fn access_ok(&self, addr: u64, len: u64, is_write: bool) -> bool {
        debug_assert!(self.contains(addr), "{addr:#x} is outside the globals");
        let off = addr - GLOBAL_BASE;
        let mut entry = self.pages[(off / PAGE_SIZE) as usize];
        if entry & SHARED != 0 {
            entry = self.granules
                [(entry & !SHARED) as usize + (off % PAGE_SIZE / GLOBAL_ALIGN) as usize];
        }
        self.spans[entry as usize].admits(addr, len, is_write)
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

/// The verdict table of the region `[GLOBAL_BASE, end)` holding `slots`:
/// one entry per page, [`GRANULES`] more for each page that several slots
/// share, and the spans they index. Work is proportional to the pages and
/// the slots, not to the bytes.
fn verdict_table(slots: &[GlobalSlot], end: u64) -> (Vec<u32>, Vec<u32>, Vec<Span>) {
    let page_of = |addr: u64| ((addr - GLOBAL_BASE) / PAGE_SIZE) as usize;
    // Point the granules of `page` that hold bytes of `span` at `id`.
    let mark = |granules: &mut [u32], page: usize, id: u32, span: Span| {
        let page_start = GLOBAL_BASE + page as u64 * PAGE_SIZE;
        let lo = span.start.max(page_start) - page_start;
        let hi = span.end.min(page_start + PAGE_SIZE) - page_start;
        for g in &mut granules[(lo / GLOBAL_ALIGN) as usize..hi.div_ceil(GLOBAL_ALIGN) as usize] {
            assert_eq!(*g, 0, "two globals share a granule");
            *g = id;
        }
    };
    let index = |n: usize| {
        u32::try_from(n)
            .ok()
            .filter(|&i| i < SHARED)
            .expect("verdict table index fits below SHARED")
    };
    let mut spans = vec![Span::NONE];
    let mut pages = vec![0; (end - GLOBAL_BASE).div_ceil(PAGE_SIZE) as usize];
    let mut granules = Vec::new();
    for span in slots.iter().filter(|s| s.size > 0).map(Span::of) {
        let id = index(spans.len());
        spans.push(span);
        let first = page_of(span.start);
        for (page, entry) in (first..).zip(&mut pages[first..=page_of(span.end - 1)]) {
            let at = match *entry {
                0 => {
                    *entry = id;
                    continue;
                }
                shared if shared & SHARED != 0 => (shared & !SHARED) as usize,
                other => {
                    let at = granules.len();
                    granules.resize(at + GRANULES, 0);
                    mark(&mut granules[at..], page, other, spans[other as usize]);
                    *entry = SHARED | index(at);
                    at
                }
            };
            mark(&mut granules[at..at + GRANULES], page, id, span);
        }
    }
    (pages, granules, spans)
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
    fn clones_share_the_layout_and_the_verdict_table() {
        let m = module();
        let gm = GlobalMap::layout(&m);
        let twin = gm.clone();
        assert!(Arc::ptr_eq(&gm.layout, &twin.layout), "no per-clone copy");
        assert!(Arc::ptr_eq(&gm.pages, &twin.pages));
        assert!(Arc::ptr_eq(&gm.granules, &twin.granules));
        assert!(Arc::ptr_eq(&gm.spans, &twin.spans));
        assert_eq!(twin.slots(), gm.slots());
        let s = twin.addr_of_name("scratch").unwrap();
        assert!(twin.access_ok(s, 8, true));
    }

    #[test]
    fn the_verdict_table_splits_only_shared_pages_into_granules() {
        // `big` spans pages 0-2 alone except for page 0, which it shares
        // with `ro`; `tail` shares page 2 with it; page 3 is `last`'s.
        let mut mb = ModuleBuilder::new("m");
        mb.global(Global::constant("ro", vec![1; 20]));
        mb.global(Global::zeroed("big", 2 * PAGE_SIZE + 100));
        mb.global(Global::zeroed("tail", 8));
        mb.global(Global::zeroed("z", 0));
        mb.global(Global::zeroed("pad", PAGE_SIZE - 160));
        mb.global(Global::zeroed("last", 40));
        let gm = GlobalMap::layout(&mb.finish());
        let kinds: Vec<bool> = gm.pages.iter().map(|&p| p & SHARED != 0).collect();
        assert_eq!(kinds, [true, false, true, false]);
        assert_eq!(gm.granules.len(), 2 * GRANULES);
        let big = gm.addr_of_name("big").unwrap();
        let tail = gm.addr_of_name("tail").unwrap();
        let ro = gm.addr_of_name("ro").unwrap();
        assert!(gm.access_ok(big + PAGE_SIZE, 8, true));
        assert!(gm.access_ok(tail, 8, true));
        assert!(!gm.access_ok(tail + 8, 1, false), "padding after tail");
        assert!(!gm.access_ok(ro + 20, 1, false), "padding after ro");
        assert!(gm.access_ok(ro, 20, false));
        assert!(!gm.access_ok(ro, 1, true), "read-only");
        assert!(
            !gm.access_ok(big + 2 * PAGE_SIZE + 96, 8, false),
            "runs past big"
        );
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
