//! Copy-on-write paged memory.
//!
//! Each page a table maps is either *owned* — only this table maps it, so a
//! store is a slot lookup and a copy — or *shared* behind an `Arc` with
//! other tables. Sharing happens only in `&mut` steps ([`PageTable::share`],
//! [`PageTable::fork`]), which move every owned page behind an `Arc` first,
//! so nothing deep-copies an owned page behind the table's back. The first
//! write to a shared page after a fork copies it — exactly the mechanism
//! whose cost the paper's forkserver baseline pays per test case.
//! `PageTable::refork` turns a used child back into a fresh fork of its
//! unchanged parent by re-pointing only the pages it dirtied.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::heap::HEAP_BASE;
use crate::layout::GLOBAL_BASE;
use crate::process::{STACK_MAX_BYTES, STACK_TOP};

/// Page size in bytes (4 KiB, like Linux).
pub const PAGE_SIZE: u64 = 4096;

type PageBuf = [u8; PAGE_SIZE as usize];

/// One mapped page.
#[derive(Debug)]
enum Page {
    /// Only this table maps the page: a store writes straight into it.
    Own(Box<PageBuf>),
    /// The page was shared with other tables. The first write copies it
    /// (one CoW fault), unless every other holder has since dropped it:
    /// then it is this table's alone, and taking it back costs no fault.
    Shared(Arc<PageBuf>),
}

impl Page {
    fn zeroed() -> Page {
        Page::Own(Box::new([0u8; PAGE_SIZE as usize]))
    }

    #[inline]
    fn bytes(&self) -> &PageBuf {
        match self {
            Page::Own(page) => page,
            Page::Shared(page) => page,
        }
    }

    /// The page behind an `Arc`, so another table can map it.
    fn frozen(self) -> Page {
        match self {
            Page::Own(page) => Page::Shared(Arc::from(page)),
            shared => shared,
        }
    }

    /// Another handle on a shared page.
    ///
    /// # Panics
    /// On an owned page: sharing one takes [`Page::frozen`] first, and
    /// copying it here would hide a page copy no CoW fault accounts for.
    fn share(&self) -> Page {
        match self {
            Page::Shared(page) => Page::Shared(Arc::clone(page)),
            Page::Own(_) => panic!("an owned page is shared only through a `&mut` freeze"),
        }
    }

    /// The page as one this table owns, and whether that copied it away
    /// from another holder (a CoW copy). A shared page nobody else holds
    /// any more is unwrapped without counting a copy.
    fn into_owned(self) -> (Box<PageBuf>, bool) {
        match self {
            Page::Own(page) => (page, false),
            Page::Shared(page) => match Arc::try_unwrap(page) {
                Ok(page) => (Box::new(page), false),
                Err(page) => (Box::new(*page), true),
            },
        }
    }
}

/// One of the three fixed regions a process maps, in address order. Each
/// has dense storage in a [`PageTable`]; no page outside them is ever
/// written. `Process::access` names the region of every access it
/// accepts, so the access goes straight to that region's storage
/// ([`PageTable::read_uint_in`], [`PageTable::write_uint_in`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `[GLOBAL_BASE, HEAP_BASE)`: the loaded globals.
    Globals,
    /// `[HEAP_BASE, STACK_TOP - STACK_MAX_BYTES)`: heap chunks.
    Heap,
    /// `[STACK_TOP - STACK_MAX_BYTES, STACK_TOP)`: stack frames.
    Stack,
}

impl Region {
    /// The region holding `addr`, if any.
    #[inline]
    pub fn of(addr: u64) -> Option<Region> {
        region(addr / PAGE_SIZE)
    }
}

/// Page-index bounds `[start, end)` of each [`Region`], by its index.
const REGIONS: [(u64, u64); 3] = [
    (GLOBAL_BASE / PAGE_SIZE, HEAP_BASE / PAGE_SIZE),
    (
        HEAP_BASE / PAGE_SIZE,
        (STACK_TOP - STACK_MAX_BYTES) / PAGE_SIZE,
    ),
    (
        (STACK_TOP - STACK_MAX_BYTES) / PAGE_SIZE,
        STACK_TOP / PAGE_SIZE,
    ),
];

/// Which region holds page `idx`, if any.
#[inline]
fn region(idx: u64) -> Option<Region> {
    if idx < REGIONS[0].0 || idx >= REGIONS[2].1 {
        None
    } else if idx < REGIONS[1].0 {
        Some(Region::Globals)
    } else if idx < REGIONS[2].0 {
        Some(Region::Heap)
    } else {
        Some(Region::Stack)
    }
}

/// Dense storage for the pages of one region: slot `i` holds page
/// `lo + i`. It covers only the span of pages ever written, and grows (by
/// doubling, within the region) when a write lands outside it.
#[derive(Debug, Default)]
struct Window {
    lo: u64,
    slots: Vec<Option<Page>>,
}

impl Window {
    #[inline]
    fn get(&self, idx: u64) -> Option<&Page> {
        self.slots.get(idx.wrapping_sub(self.lo) as usize)?.as_ref()
    }

    /// The slot of page `idx`, growing the window to cover it. `idx` must
    /// lie in `region`.
    #[inline]
    fn slot_mut(&mut self, idx: u64, region: (u64, u64)) -> &mut Option<Page> {
        let i = idx.wrapping_sub(self.lo) as usize;
        if i >= self.slots.len() {
            self.grow(idx, region);
        }
        &mut self.slots[idx.wrapping_sub(self.lo) as usize]
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, idx: u64, (start, end): (u64, u64)) {
        let len = self.slots.len() as u64;
        if len == 0 {
            self.lo = idx;
            self.slots.push(None);
        } else if idx < self.lo {
            let lo = idx.min(self.lo.saturating_sub(len)).max(start);
            let mut slots: Vec<Option<Page>> = (lo..self.lo).map(|_| None).collect();
            slots.append(&mut self.slots);
            self.slots = slots;
            self.lo = lo;
        } else {
            let want = (idx - self.lo + 1).max(2 * len).min(end - self.lo);
            self.slots.resize_with(want as usize, || None);
        }
    }

    /// Every mapped page, by index.
    fn iter(&self) -> impl Iterator<Item = (u64, &Page)> {
        let lo = self.lo;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, p)| Some((lo + i as u64, p.as_ref()?)))
    }

    /// Freeze every page and return a window mapping the same pages.
    fn share(&mut self) -> Window {
        let slots = self
            .slots
            .iter_mut()
            .map(|slot| {
                *slot = slot.take().map(Page::frozen);
                slot.as_ref().map(Page::share)
            })
            .collect();
        Window { lo: self.lo, slots }
    }
}

/// The page store of a [`PageTable`]: one [`Window`] per fixed region. A
/// `None` slot is unmapped, and so is every page outside the regions.
#[derive(Debug, Default)]
struct Pages {
    dense: [Window; 3],
}

impl Pages {
    /// The page mapped at `idx`: index arithmetic.
    #[inline]
    fn get(&self, idx: u64) -> Option<&Page> {
        self.dense[region(idx)? as usize].get(idx)
    }

    /// The slot of page `idx`, created (unmapped) if absent.
    ///
    /// # Panics
    /// When `idx` lies outside the three regions: see [`outside_regions`].
    #[inline]
    fn slot_mut(&mut self, idx: u64) -> &mut Option<Page> {
        let Some(r) = region(idx) else {
            outside_regions(idx)
        };
        self.slot_in(r, idx)
    }

    /// The slot of page `idx`, which lies in region `r`.
    #[inline]
    fn slot_in(&mut self, r: Region, idx: u64) -> &mut Option<Page> {
        self.dense[r as usize].slot_mut(idx, REGIONS[r as usize])
    }

    /// Every mapped page, by index (not sorted across regions).
    fn iter(&self) -> impl Iterator<Item = (u64, &Page)> {
        self.dense.iter().flat_map(Window::iter)
    }

    /// Freeze every page and return a store mapping the same pages.
    fn share(&mut self) -> Pages {
        Pages {
            dense: self.dense.each_mut().map(Window::share),
        }
    }
}

/// A write to page `idx`, outside the globals, heap and stack regions, is
/// a simulator bug, not a guest fault: `Process::check_access` admits a
/// guest access only inside the regions, and the heap refuses a chunk
/// that would end past [`crate::heap::HEAP_END`], so only a caller that
/// skipped the check gets here.
#[cold]
#[inline(never)]
fn outside_regions(idx: u64) -> ! {
    panic!(
        "write to page {idx:#x}, outside the globals, heap and stack regions: \
         guest accesses pass `Process::check_access` and heap chunks end by `HEAP_END`"
    )
}

/// Source of [`PageTable::ownership_stamp`] values. Global, so a stamp is
/// never reused by another table: a cache keyed by stamps cannot mistake
/// a replacement process for the one it replaced.
static NEXT_OWNERSHIP_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    // Relaxed: the counter publishes no other data; `fetch_add` alone
    // makes every value unique.
    NEXT_OWNERSHIP_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A copy-on-write page table.
///
/// Unmapped pages read as zeros and are materialized on first write.
/// *Validity* of an access (is this address inside an object?) is not the
/// page table's job — [`crate::process::Process::check_access`] performs
/// region checks before touching memory.
///
/// Pages live in dense per-region storage for the globals, heap and stack
/// regions, so finding one is index arithmetic. A page outside all three
/// reads as zeros, and writing one panics: no guest access reaches it
/// (`Process::check_access` admits only the three regions, and the heap
/// refuses a chunk past [`crate::heap::HEAP_END`]).
///
/// A table is not `Clone`: another table maps its pages only through
/// [`PageTable::share`] or [`PageTable::fork`], which take `&mut self` to
/// move owned pages behind an `Arc`.
#[derive(Debug, Default)]
pub struct PageTable {
    pages: Pages,
    own: Ownership,
}

/// Ownership bookkeeping of a [`PageTable`]: everything a write must
/// update when it materializes or copies a page.
#[derive(Debug, Clone, Default)]
struct Ownership {
    /// Mapped pages.
    resident: u64,
    /// CoW faults taken since the last [`PageTable::reset_fault_count`].
    cow_faults: u64,
    /// See [`PageTable::ownership_stamp`]. 0 is the empty table's stamp.
    stamp: u64,
    /// Indices whose ownership changed since this table was forked:
    /// materialized, CoW-copied or privatized. See [`Ownership::changed`].
    dirty: Vec<u64>,
}

impl Ownership {
    /// Make `slot` (page `page_idx`) a page only this table holds:
    /// materialize it if unmapped, copy it (one CoW fault) if shared.
    /// Cold and out of line, so the store path stays a slot lookup.
    /// A shared page no other table holds any more is taken back as it
    /// is: no fault, and its ownership did not change.
    #[cold]
    #[inline(never)]
    fn take(&mut self, slot: &mut Option<Page>, page_idx: u64) {
        match slot.take() {
            None => {
                *slot = Some(Page::zeroed());
                self.resident += 1;
            }
            Some(page) => {
                let (page, copied) = page.into_owned();
                *slot = Some(Page::Own(page));
                if !copied {
                    return;
                }
                // Copy-on-write fault: this page is shared with another
                // process (post-fork); it was duplicated before the write.
                self.cow_faults += 1;
            }
        }
        self.changed(page_idx);
    }

    /// Record that `page_idx`'s backing changed: draw a fresh stamp and
    /// append the index to the dirty list. Every listed index is mapped,
    /// so once the list holds twice as many entries as the table has
    /// resident pages it is mostly duplicates: deduplicate it then, which
    /// bounds its length without a set lookup on the write path.
    fn changed(&mut self, page_idx: u64) {
        self.stamp = fresh_stamp();
        if self.dirty.len() >= 2 * (self.resident as usize).max(8) {
            self.dirty.sort_unstable();
            self.dirty.dedup();
        }
        self.dirty.push(page_idx);
    }
}

impl PageTable {
    /// Create an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (materialized) pages.
    pub fn resident_pages(&self) -> u64 {
        self.own.resident
    }

    /// CoW faults taken since the last reset.
    pub fn cow_faults(&self) -> u64 {
        self.own.cow_faults
    }

    /// Zero the CoW fault counter (called right after a fork is charged).
    pub fn reset_fault_count(&mut self) {
        self.own.cow_faults = 0;
    }

    /// Restore the CoW fault counter to a checkpointed value (resume path).
    pub fn set_cow_faults(&mut self, n: u64) {
        self.own.cow_faults = n;
    }

    /// Identity of the table's page *ownership*: which page object backs
    /// each index. Every change to that — a page materialized, a CoW
    /// copy, [`PageTable::privatize`], a [`PageTable::fork`] — draws a
    /// fresh, never-reused stamp; writes into an already-owned page leave
    /// it alone. Two tables with equal stamps therefore map every index to
    /// the same page object, so [`PageTable::private_pages_vs`] is a pure
    /// function of the two stamps and callers may cache it on them.
    pub fn ownership_stamp(&self) -> u64 {
        self.own.stamp
    }

    /// Page indices whose backing differs from `parent`'s: pages this table
    /// privatized — or materialized outright — since it was forked/cloned
    /// from `parent`. Sorted, so the result is deterministic.
    pub fn private_pages_vs(&self, parent: &PageTable) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .pages
            .iter()
            .filter(|(idx, page)| match (page, parent.pages.get(*idx)) {
                (Page::Shared(page), Some(Page::Shared(pp))) => !Arc::ptr_eq(page, pp),
                // An owned page is mapped by no other table.
                _ => true,
            })
            .map(|(idx, _)| idx)
            .collect();
        out.sort_unstable();
        out
    }

    /// Unshare (or materialize) `page_idx` without counting a CoW fault.
    /// The resume path uses this to rebuild a checkpointed process's
    /// page-ownership state: the fault was already taken before the kill
    /// and travels in the restored counter, so counting it again here
    /// would double-charge the eventual teardown.
    pub fn privatize(&mut self, page_idx: u64) {
        let slot = self.pages.slot_mut(page_idx);
        *slot = Some(match slot.take() {
            None => {
                self.own.resident += 1;
                Page::zeroed()
            }
            Some(page) => Page::Own(page.into_owned().0),
        });
        self.own.changed(page_idx);
    }

    /// A table mapping every page of this one, with the same counters,
    /// stamp and dirty list: what a clone would be, except that both
    /// tables now share each page, so whichever writes one first copies
    /// it (a CoW fault). Owned pages move behind an `Arc` here, which is
    /// why this takes `&mut self`. Template creation uses it.
    pub fn share(&mut self) -> PageTable {
        PageTable {
            pages: self.pages.share(),
            own: self.own.clone(),
        }
    }

    /// Move every owned page behind an `Arc`, as sharing would, without
    /// making a second table. Counters, stamp and dirty list stay: which
    /// page backs each index is unchanged.
    pub(crate) fn freeze(&mut self) {
        for slot in self.pages.dense.iter_mut().flat_map(|w| &mut w.slots) {
            *slot = slot.take().map(Page::frozen);
        }
    }

    /// Duplicate the table the way `fork(2)` does: share all pages. The
    /// child starts with no faults, an empty dirty list and a fresh stamp.
    pub fn fork(&mut self) -> PageTable {
        PageTable {
            pages: self.pages.share(),
            own: Ownership {
                resident: self.own.resident,
                cow_faults: 0,
                stamp: fresh_stamp(),
                dirty: Vec::new(),
            },
        }
    }

    /// Turn this table back into an exact [`PageTable::fork`] of `parent`,
    /// in time proportional to the pages it dirtied rather than to the
    /// pages it holds: each index whose ownership changed since the last
    /// fork is re-pointed at `parent`'s page, or unmapped if `parent` has
    /// none. The fault count restarts at 0 and a fresh stamp is drawn, as
    /// for a new fork.
    ///
    /// `self` must have been forked (or re-forked) from `parent`, and
    /// `parent`'s page ownership must not have changed since.
    pub(crate) fn refork(&mut self, parent: &PageTable) {
        for idx in self.own.dirty.drain(..) {
            let slot = self.pages.slot_mut(idx);
            let was_mapped = slot.is_some();
            *slot = parent.pages.get(idx).map(Page::share);
            match (was_mapped, slot.is_some()) {
                (true, false) => self.own.resident -= 1,
                (false, true) => self.own.resident += 1,
                _ => {}
            }
        }
        self.own.cow_faults = 0;
        self.own.stamp = fresh_stamp();
        debug_assert!(
            self.own.resident == parent.own.resident && self.private_pages_vs(parent).is_empty(),
            "re-fork left pages that differ from the parent's"
        );
    }

    /// Read `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut a = addr;
        let mut off = 0;
        while off < buf.len() {
            let in_page = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            match self.pages.get(a / PAGE_SIZE) {
                Some(p) => buf[off..off + n].copy_from_slice(&p.bytes()[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            a += n as u64;
            off += n;
        }
    }

    /// Write `buf` starting at `addr`, taking CoW faults as needed.
    pub fn write(&mut self, addr: u64, buf: &[u8]) {
        let mut a = addr;
        let mut off = 0;
        while off < buf.len() {
            let in_page = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            let page = self.owned_page(a / PAGE_SIZE);
            page[in_page..in_page + n].copy_from_slice(&buf[off..off + n]);
            a += n as u64;
            off += n;
        }
    }

    /// Set the `n` bytes at `addr` to `byte`: what [`PageTable::write`] of
    /// `n` copies of `byte` does, page by page, without the buffer.
    pub fn fill(&mut self, addr: u64, byte: u8, n: u64) {
        let end = addr + n;
        let mut a = addr;
        while a < end {
            let in_page = (a % PAGE_SIZE) as usize;
            let run = (PAGE_SIZE - a % PAGE_SIZE).min(end - a) as usize;
            self.owned_page(a / PAGE_SIZE)[in_page..in_page + run].fill(byte);
            a += run as u64;
        }
    }

    /// Copy the `n` bytes at `src` to `dst`: what [`PageTable::read`] of
    /// the source into a buffer and [`PageTable::write`] of that buffer do,
    /// without allocating it. Overlapping ranges copy like `memmove`, and
    /// the destination's pages change ownership in the same (address)
    /// order as in that write.
    pub fn copy(&mut self, dst: u64, src: u64, n: u64) {
        if n == 0 {
            return;
        }
        // Take every destination page first, as the write would, so the
        // copy below changes no ownership; the source reads the same bytes
        // either way, since a page copy keeps its contents.
        for idx in dst / PAGE_SIZE..(dst + n).div_ceil(PAGE_SIZE) {
            self.owned_page(idx);
        }
        // Page-sized pieces through a stack buffer; when the destination
        // starts inside the source, last piece first, so no piece reads
        // bytes an earlier piece wrote.
        let mut buf = [0u8; PAGE_SIZE as usize];
        let pieces = n.div_ceil(PAGE_SIZE);
        let backward = dst > src && dst - src < n;
        for k in 0..pieces {
            let off = PAGE_SIZE * if backward { pieces - 1 - k } else { k };
            let len = (n - off).min(PAGE_SIZE) as usize;
            self.read(src + off, &mut buf[..len]);
            self.write(dst + off, &buf[..len]);
        }
    }

    /// The page at `page_idx`, made writable: materialized if unmapped,
    /// copied (one CoW fault) if shared.
    ///
    /// # Panics
    /// When `page_idx` lies outside the three regions: see
    /// [`outside_regions`].
    #[inline]
    fn owned_page(&mut self, page_idx: u64) -> &mut PageBuf {
        let Some(r) = region(page_idx) else {
            outside_regions(page_idx)
        };
        self.owned_page_in(r, page_idx)
    }

    /// [`PageTable::owned_page`] of a page that lies in region `r`. A page
    /// this table already owns costs one slot lookup.
    #[inline(always)]
    fn owned_page_in(&mut self, r: Region, page_idx: u64) -> &mut PageBuf {
        let slot = self.pages.slot_in(r, page_idx);
        if !matches!(slot, Some(Page::Own(_))) {
            self.own.take(slot, page_idx);
        }
        match slot {
            Some(Page::Own(page)) => page,
            _ => unreachable!("taken above"),
        }
    }

    /// Read a little-endian unsigned integer of `width` bytes (1/2/4/8).
    #[inline]
    pub fn read_uint(&self, addr: u64, width: u64) -> u64 {
        match Region::of(addr) {
            Some(r) => self.read_uint_in(r, addr, width),
            // Outside every region: zeros, unless the access straddles
            // into the region whose first page follows.
            None => {
                let mut buf = [0u8; 8];
                self.read(addr, &mut buf[..width as usize]);
                u64::from_le_bytes(buf)
            }
        }
    }

    /// [`PageTable::read_uint`] of an access that starts in region `r`,
    /// as `Process::access` names it: the page comes straight from that
    /// region's storage.
    #[inline(always)]
    pub fn read_uint_in(&self, r: Region, addr: u64, width: u64) -> u64 {
        match width {
            1 => self.read_n::<1>(r, addr),
            2 => self.read_n::<2>(r, addr),
            4 => self.read_n::<4>(r, addr),
            8 => self.read_n::<8>(r, addr),
            _ => {
                let mut buf = [0u8; 8];
                self.read(addr, &mut buf[..width as usize]);
                u64::from_le_bytes(buf)
            }
        }
    }

    /// A `W`-byte integer at `addr`, in region `r`: a constant-size copy
    /// when it fits in one page, the slice path when it straddles two.
    #[inline(always)]
    fn read_n<const W: usize>(&self, r: Region, addr: u64) -> u64 {
        debug_assert_eq!(Region::of(addr), Some(r), "read at {addr:#x} outside {r:?}");
        let mut buf = [0u8; 8];
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page + W > PAGE_SIZE as usize {
            self.read(addr, &mut buf[..W]);
        } else if let Some(p) = self.pages.dense[r as usize].get(addr / PAGE_SIZE) {
            buf[..W].copy_from_slice(&p.bytes()[in_page..in_page + W]);
        }
        u64::from_le_bytes(buf)
    }

    /// Write the low `width` bytes of `value`, little-endian.
    ///
    /// # Panics
    /// When `addr` lies outside the three regions: no guest access gets
    /// there, since `Process::check_access` admits only the regions.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, value: u64, width: u64) {
        match Region::of(addr) {
            Some(r) => self.write_uint_in(r, addr, value, width),
            None => outside_regions(addr / PAGE_SIZE),
        }
    }

    /// [`PageTable::write_uint`] of an access that starts in region `r`,
    /// as `Process::access` names it.
    #[inline(always)]
    pub fn write_uint_in(&mut self, r: Region, addr: u64, value: u64, width: u64) {
        match width {
            1 => self.write_n::<1>(r, addr, value),
            2 => self.write_n::<2>(r, addr, value),
            4 => self.write_n::<4>(r, addr, value),
            8 => self.write_n::<8>(r, addr, value),
            _ => self.write(addr, &value.to_le_bytes()[..width as usize]),
        }
    }

    /// [`PageTable::write`] of a `W`-byte integer at `addr`, in region
    /// `r`: the same CoW and stamp steps, then a constant-size copy when
    /// it fits in one page; the slice path when it straddles two.
    #[inline(always)]
    fn write_n<const W: usize>(&mut self, r: Region, addr: u64, value: u64) {
        debug_assert_eq!(
            Region::of(addr),
            Some(r),
            "write at {addr:#x} outside {r:?}"
        );
        let bytes = value.to_le_bytes();
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page + W > PAGE_SIZE as usize {
            self.write(addr, &bytes[..W]);
            return;
        }
        let page = self.owned_page_in(r, addr / PAGE_SIZE);
        page[in_page..in_page + W].copy_from_slice(&bytes[..W]);
    }

    /// Read a NUL-terminated string (capped at `max` bytes).
    ///
    /// Works in page-sized runs — one table lookup per page, then a memchr
    /// for the NUL inside the run — instead of one lookup per byte. An
    /// unmapped page reads as zeros, i.e. an immediate terminator.
    pub fn read_cstr(&self, addr: u64, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut a = addr;
        while out.len() < max {
            let in_page = (a % PAGE_SIZE) as usize;
            let run = ((PAGE_SIZE as usize) - in_page).min(max - out.len());
            let Some(p) = self.pages.get(a / PAGE_SIZE) else {
                return out;
            };
            let chunk = &p.bytes()[in_page..in_page + run];
            match chunk.iter().position(|&b| b == 0) {
                Some(n) => {
                    out.extend_from_slice(&chunk[..n]);
                    return out;
                }
                None => out.extend_from_slice(chunk),
            }
            a += run as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first byte of the globals region: the tests' address origin.
    const G: u64 = crate::layout::GLOBAL_BASE;

    #[test]
    fn unmapped_reads_zero() {
        let pt = PageTable::new();
        let mut buf = [0xAAu8; 16];
        pt.read(0x5000, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_read_roundtrip_across_page_boundary() {
        let mut pt = PageTable::new();
        let addr = G + PAGE_SIZE - 3; // straddles two pages
        let data: Vec<u8> = (0..10).collect();
        pt.write(addr, &data);
        let mut back = [0u8; 10];
        pt.read(addr, &mut back);
        assert_eq!(&back[..], &data[..]);
        assert_eq!(pt.resident_pages(), 2);
    }

    #[test]
    fn uint_roundtrip_all_widths() {
        let mut pt = PageTable::new();
        for (w, v) in [(1, 0xAB), (2, 0xBEEF), (4, 0xDEADBEEF), (8, u64::MAX - 5)] {
            pt.write_uint(G + 0x100, v, w);
            assert_eq!(pt.read_uint(G + 0x100, w), v & mask(w));
        }
        fn mask(w: u64) -> u64 {
            if w == 8 {
                u64::MAX
            } else {
                (1u64 << (w * 8)) - 1
            }
        }
    }

    #[test]
    fn uint_access_straddling_pages_matches_byte_access() {
        for w in [2u64, 4, 8] {
            let mut parent = PageTable::new();
            parent.write(G + PAGE_SIZE - 8, &[0xEE; 16]);
            let mut child = parent.fork();
            let addr = G + PAGE_SIZE - w / 2;
            let mask = u64::MAX >> (64 - 8 * w);
            let v = 0x0123_4567_89AB_CDEF_u64 & mask;
            child.write_uint(addr, v, w);
            assert_eq!(child.cow_faults(), 2, "width {w}: one fault per page");
            assert_eq!(child.read_uint(addr, w), v);
            let mut bytes = vec![0u8; w as usize];
            child.read(addr, &mut bytes);
            assert_eq!(bytes, v.to_le_bytes()[..w as usize]);
            assert_eq!(parent.read_uint(addr, w), 0xEEEE_EEEE_EEEE_EEEE & mask);
        }
    }

    #[test]
    fn fork_shares_then_cow_on_write() {
        let mut parent = PageTable::new();
        parent.write_uint(G + 0x1000, 42, 8);
        parent.write_uint(G + 0x3000, 7, 8);
        let mut child = parent.fork();
        assert_eq!(child.cow_faults(), 0);
        assert_eq!(child.read_uint(G + 0x1000, 8), 42);

        // Child writes: must not be visible in parent, must count a fault.
        child.write_uint(G + 0x1000, 99, 8);
        assert_eq!(child.cow_faults(), 1);
        assert_eq!(parent.read_uint(G + 0x1000, 8), 42);
        assert_eq!(child.read_uint(G + 0x1000, 8), 99);

        // Untouched page still shared and equal.
        assert_eq!(
            parent.read_uint(G + 0x3000, 8),
            child.read_uint(G + 0x3000, 8)
        );
    }

    #[test]
    fn parent_write_after_fork_also_faults() {
        let mut parent = PageTable::new();
        parent.write_uint(G + 0x1000, 1, 8);
        let child = parent.fork();
        parent.reset_fault_count();
        parent.write_uint(G + 0x1008, 2, 8);
        assert_eq!(parent.cow_faults(), 1);
        assert_eq!(child.read_uint(G + 0x1008, 8), 0);
    }

    #[test]
    fn second_write_to_same_page_does_not_fault_again() {
        let mut parent = PageTable::new();
        parent.write_uint(G + 0x1000, 1, 8);
        let mut child = parent.fork();
        child.write_uint(G + 0x1000, 2, 8);
        child.write_uint(G + 0x1010, 3, 8);
        assert_eq!(child.cow_faults(), 1);
    }

    #[test]
    fn ownership_stamp_moves_exactly_when_page_ownership_does() {
        let mut pt = PageTable::new();
        assert_eq!(pt.ownership_stamp(), 0, "the empty table");
        pt.write_uint(G + 0x1000, 1, 8);
        let materialized = pt.ownership_stamp();
        assert_ne!(materialized, 0, "materializing a page moves the stamp");
        pt.write_uint(G + 0x1008, 2, 8);
        assert_eq!(pt.ownership_stamp(), materialized, "owned page: no move");

        let mut child = pt.fork();
        let forked = child.ownership_stamp();
        assert_ne!(forked, materialized, "a fork gets its own stamp");
        assert_eq!(
            pt.ownership_stamp(),
            materialized,
            "forking leaves the parent"
        );
        child.write_uint(G + 0x1000, 3, 8);
        let copied = child.ownership_stamp();
        assert_ne!(copied, forked, "a CoW copy moves the stamp");
        child.write_uint(G + 0x1000, 4, 8);
        assert_eq!(child.ownership_stamp(), copied);
        let page = (G + 0x1000) / PAGE_SIZE;
        assert_eq!(child.private_pages_vs(&pt), vec![page]);

        let twin = child.share();
        assert_eq!(twin.ownership_stamp(), copied, "sharing keeps every page");
        assert_eq!(child.ownership_stamp(), copied);
        child.privatize(page + 4);
        assert_ne!(child.ownership_stamp(), copied, "privatize moves the stamp");
        assert_eq!(child.private_pages_vs(&pt), vec![page, page + 4]);
    }

    /// The page-ownership model this table replaced: every page behind an
    /// `Arc`, shared exactly while another table still holds it, so a
    /// write copies (and faults) iff the page's strong count exceeds one.
    #[derive(Default)]
    struct ArcModel {
        pages: std::collections::BTreeMap<u64, Arc<u8>>,
        cow_faults: u64,
        dirty: Vec<u64>,
    }

    impl ArcModel {
        fn write(&mut self, idx: u64) {
            match self.pages.get_mut(&idx) {
                None => {
                    self.pages.insert(idx, Arc::new(0));
                }
                Some(page) if Arc::strong_count(page) > 1 => {
                    *page = Arc::new(**page);
                    self.cow_faults += 1;
                }
                Some(_) => return,
            }
            self.dirty.push(idx);
        }

        fn fork(&self) -> ArcModel {
            ArcModel {
                pages: self.pages.clone(),
                ..ArcModel::default()
            }
        }

        fn refork(&mut self, parent: &ArcModel) {
            for idx in self.dirty.drain(..) {
                match parent.pages.get(&idx) {
                    Some(page) => self.pages.insert(idx, Arc::clone(page)),
                    None => self.pages.remove(&idx),
                };
            }
            self.cow_faults = 0;
        }

        fn private_vs(&self, parent: &ArcModel) -> Vec<u64> {
            self.pages
                .iter()
                .filter(
                    |(idx, page)| !matches!(parent.pages.get(idx), Some(p) if Arc::ptr_eq(p, page)),
                )
                .map(|(idx, _)| G / PAGE_SIZE + idx)
                .collect()
        }
    }

    /// One write per listed page, to the table and to the model.
    fn write_pages(pt: &mut PageTable, model: &mut ArcModel, pages: &[u64]) {
        for &idx in pages {
            pt.write_uint(G + idx * PAGE_SIZE + 8, idx + 1, 8);
            model.write(idx);
        }
    }

    #[test]
    fn fork_writes_and_refork_match_the_arc_model() {
        fn check(what: &str, pt: &PageTable, model: &ArcModel, parent: (&PageTable, &ArcModel)) {
            assert_eq!(pt.cow_faults(), model.cow_faults, "{what}: cow faults");
            assert_eq!(
                pt.resident_pages(),
                model.pages.len() as u64,
                "{what}: resident"
            );
            assert_eq!(
                pt.private_pages_vs(parent.0),
                model.private_vs(parent.1),
                "{what}: private pages"
            );
        }
        let (mut parent, mut parent_m) = (PageTable::new(), ArcModel::default());
        write_pages(&mut parent, &mut parent_m, &[0, 1, 2, 3]);
        parent.reset_fault_count();
        let (mut child, mut child_m) = (parent.fork(), parent_m.fork());
        check("fork", &child, &child_m, (&parent, &parent_m));
        write_pages(&mut child, &mut child_m, &[1, 5, 1]);
        check("child writes", &child, &child_m, (&parent, &parent_m));
        child.refork(&parent);
        child_m.refork(&parent_m);
        check("refork", &child, &child_m, (&parent, &parent_m));
        write_pages(&mut child, &mut child_m, &[2, 6]);
        check(
            "writes after refork",
            &child,
            &child_m,
            (&parent, &parent_m),
        );

        // The parent's side: pages a live child shares fault, and once
        // every sharer is gone a shared page is the parent's again, free.
        let (twin, twin_m) = (parent.fork(), parent_m.fork());
        write_pages(&mut parent, &mut parent_m, &[0, 3, 7]);
        check("parent writes", &parent, &parent_m, (&twin, &twin_m));
        drop((child, child_m, twin, twin_m));
        write_pages(&mut parent, &mut parent_m, &[1, 2, 3]);
        let empty = (PageTable::new(), ArcModel::default());
        check(
            "after the children",
            &parent,
            &parent_m,
            (&empty.0, &empty.1),
        );
        assert_eq!(parent.cow_faults(), 2, "pages 0 and 3 only");
    }

    #[test]
    fn cstr_reading() {
        let mut pt = PageTable::new();
        pt.write(G + 0x200, b"hello\0world");
        assert_eq!(pt.read_cstr(G + 0x200, 64), b"hello");
        assert_eq!(pt.read_cstr(G + 0x200, 3), b"hel"); // cap respected
    }

    #[test]
    fn cstr_spans_pages_and_stops_at_unmapped() {
        let mut pt = PageTable::new();
        // String crossing a page boundary, NUL on the second page.
        let start = G + PAGE_SIZE - 4;
        pt.write(start, b"abcdefgh\0tail");
        assert_eq!(pt.read_cstr(start, 64), b"abcdefgh");
        // Cap lands exactly on the boundary.
        assert_eq!(pt.read_cstr(start, 4), b"abcd");
        // No NUL before an unmapped page: the zero page terminates.
        let mut q = PageTable::new();
        let tail = G + PAGE_SIZE - 2;
        q.write(tail, b"xy"); // fills to end of its page; the next is unmapped
        assert_eq!(q.read_cstr(tail, 64), b"xy");
        // Entirely unmapped → empty.
        assert_eq!(q.read_cstr(0x9000, 64), b"");
    }

    #[test]
    fn reads_do_not_perturb_cow_fault_decisions() {
        let mut parent = PageTable::new();
        parent.write_uint(G + 0x1000, 42, 8);
        // A read holds no reference to the page, so the exclusive page
        // it read must not look shared to the next write.
        assert_eq!(parent.read_uint(G + 0x1000, 8), 42);
        parent.reset_fault_count();
        parent.write_uint(G + 0x1000, 43, 8);
        assert_eq!(parent.cow_faults(), 0, "exclusive page must not fault");

        // A shared page faults exactly once, whoever read it first.
        let mut child = parent.fork();
        assert_eq!(child.read_uint(G + 0x1000, 8), 43);
        assert_eq!(parent.read_uint(G + 0x1000, 8), 43);
        child.write_uint(G + 0x1000, 99, 8);
        assert_eq!(child.cow_faults(), 1);
        child.write_uint(G + 0x1008, 7, 8);
        assert_eq!(child.cow_faults(), 1, "page already private");
        assert_eq!(parent.read_uint(G + 0x1000, 8), 43);
        assert_eq!(child.read_uint(G + 0x1000, 8), 99);
    }

    #[test]
    fn reads_see_writes_through_same_table() {
        let mut pt = PageTable::new();
        pt.write_uint(G + 0x2000, 1, 8);
        assert_eq!(pt.read_uint(G + 0x2000, 8), 1);
        pt.write_uint(G + 0x2000, 2, 8);
        assert_eq!(pt.read_uint(G + 0x2000, 8), 2, "no stale read");
    }

    /// `copy` and `fill` against the buffered read and write they stand
    /// for, on a fork (so every destination page starts shared): the same
    /// bytes, CoW faults, resident pages and private pages, for forward
    /// and backward overlaps, page-straddling runs and unmapped pages.
    #[test]
    fn copy_and_fill_match_buffered_read_and_write() {
        let mut parent = PageTable::new();
        let pattern: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i * 7 + 3) as u8).collect();
        parent.write(G + 100, &pattern);
        let cases: [(u64, u64, u64); 6] = [
            (G + 5000, G + 100, 9000),              // forward overlap
            (G + 100, G + 5000, 9000),              // backward overlap
            (G + 4090, G + 4000, 20),               // straddles, small shift
            (G + 8 * PAGE_SIZE + 3, G + 200, 5000), // into unmapped pages
            (G + 300, G + 12 * PAGE_SIZE, 4200),    // from unmapped pages
            (G + 700, G + 700, 64),                 // onto itself
        ];
        for (dst, src, n) in cases {
            let (mut a, mut b) = (parent.fork(), parent.fork());
            a.copy(dst, src, n);
            let mut buf = vec![0u8; n as usize];
            b.read(src, &mut buf);
            b.write(dst, &buf);
            let what = format!("copy {n} bytes {src:#x} -> {dst:#x}");
            let mut got = vec![0u8; 16 * PAGE_SIZE as usize];
            let mut want = got.clone();
            a.read(G, &mut got);
            b.read(G, &mut want);
            assert_eq!(got, want, "{what}: bytes");
            assert_eq!(a.cow_faults(), b.cow_faults(), "{what}: cow faults");
            assert_eq!(a.resident_pages(), b.resident_pages(), "{what}: resident");
            assert_eq!(a.private_pages_vs(&parent), b.private_pages_vs(&parent));
        }
        for (addr, n) in [(G + 4000, 9000), (G + 20 * PAGE_SIZE + 1, 10), (G, 0)] {
            let (mut a, mut b) = (parent.fork(), parent.fork());
            a.fill(addr, 0xA5, n);
            b.write(addr, &vec![0xA5; n as usize]);
            let mut got = vec![0u8; 24 * PAGE_SIZE as usize];
            let mut want = got.clone();
            a.read(G, &mut got);
            b.read(G, &mut want);
            assert_eq!(got, want, "fill {n} at {addr:#x}");
            assert_eq!(a.cow_faults(), b.cow_faults());
            assert_eq!(a.resident_pages(), b.resident_pages());
            assert_eq!(a.private_pages_vs(&parent), b.private_pages_vs(&parent));
        }
    }

    #[test]
    #[should_panic(expected = "outside the globals, heap and stack regions")]
    fn writes_outside_the_regions_panic() {
        PageTable::new().write_uint(G - 8, 1, 8);
    }
}
