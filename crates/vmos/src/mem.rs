//! Copy-on-write paged memory.
//!
//! Pages are reference-counted; [`PageTable::fork`] clones only the page
//! *table* (Arc bumps), and the first write to a shared page after a fork
//! copies it — exactly the mechanism whose cost the paper's forkserver
//! baseline pays per test case. `PageTable::refork` turns a used child
//! back into a fresh fork of its unchanged parent by re-pointing only the
//! pages it dirtied.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::heap::HEAP_BASE;
use crate::layout::GLOBAL_BASE;
use crate::process::{STACK_MAX_BYTES, STACK_TOP};

/// Page size in bytes (4 KiB, like Linux).
pub const PAGE_SIZE: u64 = 4096;

type Page = Arc<[u8; PAGE_SIZE as usize]>;

fn zero_page() -> Page {
    Arc::new([0u8; PAGE_SIZE as usize])
}

/// Page-index bounds `[start, end)` of the three fixed regions a process
/// maps: globals, heap and stack. Each has dense storage in a
/// [`PageTable`]; every other page lives in its sparse map.
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

/// Which of [`REGIONS`] holds page `idx`, if any.
#[inline]
fn region(idx: u64) -> Option<usize> {
    if (REGIONS[0].0..REGIONS[2].1).contains(&idx) {
        Some(usize::from(idx >= REGIONS[1].0) + usize::from(idx >= REGIONS[2].0))
    } else {
        None
    }
}

/// Dense storage for the pages of one region: slot `i` holds page
/// `lo + i`. It covers only the span of pages ever written, and grows (by
/// doubling, within the region) when a write lands outside it.
#[derive(Debug, Clone, Default)]
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
            let mut slots = vec![None; (self.lo - lo) as usize];
            slots.append(&mut self.slots);
            self.slots = slots;
            self.lo = lo;
        } else {
            let want = (idx - self.lo + 1).max(2 * len).min(end - self.lo);
            self.slots.resize(want as usize, None);
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
}

/// The page store of a [`PageTable`]: one [`Window`] per fixed region,
/// and a sparse map for pages outside all three. A `None` slot or entry is
/// unmapped.
#[derive(Debug, Clone, Default)]
struct Pages {
    dense: [Window; 3],
    sparse: BTreeMap<u64, Option<Page>>,
}

impl Pages {
    /// The page mapped at `idx`: index arithmetic for the fixed regions.
    #[inline]
    fn get(&self, idx: u64) -> Option<&Page> {
        match region(idx) {
            Some(r) => self.dense[r].get(idx),
            None => self.sparse.get(&idx)?.as_ref(),
        }
    }

    /// The slot of page `idx`, created (unmapped) if absent.
    #[inline]
    fn slot_mut(&mut self, idx: u64) -> &mut Option<Page> {
        match region(idx) {
            Some(r) => self.dense[r].slot_mut(idx, REGIONS[r]),
            None => self.sparse.entry(idx).or_default(),
        }
    }

    /// Every mapped page, by index (not sorted across regions).
    fn iter(&self) -> impl Iterator<Item = (u64, &Page)> {
        self.dense.iter().flat_map(Window::iter).chain(
            self.sparse
                .iter()
                .filter_map(|(i, p)| Some((*i, p.as_ref()?))),
        )
    }
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
/// Pages in the globals, heap and stack regions sit in dense per-region
/// storage, so finding one is index arithmetic; any other page goes to a
/// sparse map. Guest stores reach it: the heap bounds its live bytes, not
/// its address range, so its chunks can lie past the stack top.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    pages: Pages,
    own: Ownership,
}

/// Ownership bookkeeping of a [`PageTable`]: everything a write must
/// update when it materializes or copies a page.
#[derive(Debug, Clone, Default)]
struct Ownership {
    /// Mapped pages, in both stores.
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
    #[cold]
    #[inline(never)]
    fn take(&mut self, slot: &mut Option<Page>, page_idx: u64) {
        match slot {
            None => {
                *slot = Some(zero_page());
                self.resident += 1;
            }
            Some(page) => {
                // Copy-on-write fault: this page is shared with another
                // process (post-fork); duplicate before writing.
                *page = Arc::new(**page);
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
            .filter(|(idx, page)| match parent.pages.get(*idx) {
                Some(pp) => !Arc::ptr_eq(page, pp),
                None => true,
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
        match slot {
            None => {
                *slot = Some(zero_page());
                self.own.resident += 1;
            }
            Some(page) if Arc::strong_count(page) > 1 => *page = Arc::new(**page),
            Some(_) => {}
        }
        self.own.changed(page_idx);
    }

    /// Duplicate the table the way `fork(2)` does: share all pages.
    pub fn fork(&self) -> PageTable {
        PageTable {
            pages: self.pages.clone(),
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
            *slot = parent.pages.get(idx).cloned();
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
                Some(p) => buf[off..off + n].copy_from_slice(&p[in_page..in_page + n]),
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

    /// The page at `page_idx`, made writable: materialized if unmapped,
    /// copied (one CoW fault) if shared. A page this table already owns
    /// costs one slot lookup.
    #[inline]
    fn owned_page(&mut self, page_idx: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let slot = self.pages.slot_mut(page_idx);
        if !matches!(slot, Some(page) if Arc::strong_count(page) == 1) {
            self.own.take(slot, page_idx);
        }
        Arc::get_mut(slot.as_mut().expect("mapped above")).expect("unshared above")
    }

    /// Read a little-endian unsigned integer of `width` bytes (1/2/4/8).
    #[inline]
    pub fn read_uint(&self, addr: u64, width: u64) -> u64 {
        match width {
            1 => self.read_n::<1>(addr),
            2 => self.read_n::<2>(addr),
            4 => self.read_n::<4>(addr),
            8 => self.read_n::<8>(addr),
            _ => {
                let mut buf = [0u8; 8];
                self.read(addr, &mut buf[..width as usize]);
                u64::from_le_bytes(buf)
            }
        }
    }

    /// [`PageTable::read`] of a `W`-byte integer: a constant-size copy
    /// when it fits in one page, the slice path when it straddles two.
    #[inline]
    fn read_n<const W: usize>(&self, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page + W > PAGE_SIZE as usize {
            self.read(addr, &mut buf[..W]);
        } else if let Some(p) = self.pages.get(addr / PAGE_SIZE) {
            buf[..W].copy_from_slice(&p[in_page..in_page + W]);
        }
        u64::from_le_bytes(buf)
    }

    /// Write the low `width` bytes of `value`, little-endian.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, value: u64, width: u64) {
        match width {
            1 => self.write_n::<1>(addr, value),
            2 => self.write_n::<2>(addr, value),
            4 => self.write_n::<4>(addr, value),
            8 => self.write_n::<8>(addr, value),
            _ => self.write(addr, &value.to_le_bytes()[..width as usize]),
        }
    }

    /// [`PageTable::write`] of a `W`-byte integer: the same CoW and stamp
    /// steps, then a constant-size copy when it fits in one page; the
    /// slice path when it straddles two.
    #[inline]
    fn write_n<const W: usize>(&mut self, addr: u64, value: u64) {
        let bytes = value.to_le_bytes();
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page + W > PAGE_SIZE as usize {
            self.write(addr, &bytes[..W]);
            return;
        }
        let page = self.owned_page(addr / PAGE_SIZE);
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
            let chunk = &p[in_page..in_page + run];
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
        let addr = PAGE_SIZE - 3; // straddles two pages
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
            pt.write_uint(0x100, v, w);
            assert_eq!(pt.read_uint(0x100, w), v & mask(w));
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
            parent.write(PAGE_SIZE - 8, &[0xEE; 16]);
            let mut child = parent.fork();
            let addr = PAGE_SIZE - w / 2;
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
        parent.write_uint(0x1000, 42, 8);
        parent.write_uint(0x3000, 7, 8);
        let mut child = parent.fork();
        assert_eq!(child.cow_faults(), 0);
        assert_eq!(child.read_uint(0x1000, 8), 42);

        // Child writes: must not be visible in parent, must count a fault.
        child.write_uint(0x1000, 99, 8);
        assert_eq!(child.cow_faults(), 1);
        assert_eq!(parent.read_uint(0x1000, 8), 42);
        assert_eq!(child.read_uint(0x1000, 8), 99);

        // Untouched page still shared and equal.
        assert_eq!(parent.read_uint(0x3000, 8), child.read_uint(0x3000, 8));
    }

    #[test]
    fn parent_write_after_fork_also_faults() {
        let mut parent = PageTable::new();
        parent.write_uint(0x1000, 1, 8);
        let child = parent.fork();
        parent.reset_fault_count();
        parent.write_uint(0x1008, 2, 8);
        assert_eq!(parent.cow_faults(), 1);
        assert_eq!(child.read_uint(0x1008, 8), 0);
    }

    #[test]
    fn second_write_to_same_page_does_not_fault_again() {
        let mut parent = PageTable::new();
        parent.write_uint(0x1000, 1, 8);
        let mut child = parent.fork();
        child.write_uint(0x1000, 2, 8);
        child.write_uint(0x1010, 3, 8);
        assert_eq!(child.cow_faults(), 1);
    }

    #[test]
    fn ownership_stamp_moves_exactly_when_page_ownership_does() {
        let mut pt = PageTable::new();
        assert_eq!(pt.ownership_stamp(), 0, "the empty table");
        pt.write_uint(0x1000, 1, 8);
        let materialized = pt.ownership_stamp();
        assert_ne!(materialized, 0, "materializing a page moves the stamp");
        pt.write_uint(0x1008, 2, 8);
        assert_eq!(pt.ownership_stamp(), materialized, "owned page: no move");

        let mut child = pt.fork();
        let forked = child.ownership_stamp();
        assert_ne!(forked, materialized, "a fork gets its own stamp");
        assert_eq!(
            pt.ownership_stamp(),
            materialized,
            "forking leaves the parent"
        );
        child.write_uint(0x1000, 3, 8);
        let copied = child.ownership_stamp();
        assert_ne!(copied, forked, "a CoW copy moves the stamp");
        child.write_uint(0x1000, 4, 8);
        assert_eq!(child.ownership_stamp(), copied);
        assert_eq!(child.private_pages_vs(&pt), vec![1]);

        let twin = child.clone();
        assert_eq!(twin.ownership_stamp(), copied, "a clone shares every page");
        child.privatize(5);
        assert_ne!(child.ownership_stamp(), copied, "privatize moves the stamp");
        assert_eq!(child.private_pages_vs(&pt), vec![1, 5]);
    }

    #[test]
    fn cstr_reading() {
        let mut pt = PageTable::new();
        pt.write(0x200, b"hello\0world");
        assert_eq!(pt.read_cstr(0x200, 64), b"hello");
        assert_eq!(pt.read_cstr(0x200, 3), b"hel"); // cap respected
    }

    #[test]
    fn cstr_spans_pages_and_stops_at_unmapped() {
        let mut pt = PageTable::new();
        // String crossing a page boundary, NUL on the second page.
        let start = PAGE_SIZE - 4;
        pt.write(start, b"abcdefgh\0tail");
        assert_eq!(pt.read_cstr(start, 64), b"abcdefgh");
        // Cap lands exactly on the boundary.
        assert_eq!(pt.read_cstr(start, 4), b"abcd");
        // No NUL before an unmapped page: the zero page terminates.
        let mut q = PageTable::new();
        let tail = PAGE_SIZE - 2;
        q.write(tail, b"xy"); // fills to end of page 0; page 1 unmapped
        assert_eq!(q.read_cstr(tail, 64), b"xy");
        // Entirely unmapped → empty.
        assert_eq!(q.read_cstr(0x9000, 64), b"");
    }

    #[test]
    fn reads_do_not_perturb_cow_fault_decisions() {
        let mut parent = PageTable::new();
        parent.write_uint(0x1000, 42, 8);
        // A read holds no reference to the page, so the exclusive page
        // it read must not look shared to the next write.
        assert_eq!(parent.read_uint(0x1000, 8), 42);
        parent.reset_fault_count();
        parent.write_uint(0x1000, 43, 8);
        assert_eq!(parent.cow_faults(), 0, "exclusive page must not fault");

        // A shared page faults exactly once, whoever read it first.
        let mut child = parent.fork();
        assert_eq!(child.read_uint(0x1000, 8), 43);
        assert_eq!(parent.read_uint(0x1000, 8), 43);
        child.write_uint(0x1000, 99, 8);
        assert_eq!(child.cow_faults(), 1);
        child.write_uint(0x1008, 7, 8);
        assert_eq!(child.cow_faults(), 1, "page already private");
        assert_eq!(parent.read_uint(0x1000, 8), 43);
        assert_eq!(child.read_uint(0x1000, 8), 99);
    }

    #[test]
    fn reads_see_writes_through_same_table() {
        let mut pt = PageTable::new();
        pt.write_uint(0x2000, 1, 8);
        assert_eq!(pt.read_uint(0x2000, 8), 1);
        pt.write_uint(0x2000, 2, 8);
        assert_eq!(pt.read_uint(0x2000, 8), 2, "no stale read");
    }
}
