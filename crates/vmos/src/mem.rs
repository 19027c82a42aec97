//! Copy-on-write paged memory.
//!
//! Pages are reference-counted; [`PageTable::fork`] clones only the page
//! *table* (Arc bumps), and the first write to a shared page after a fork
//! copies it — exactly the mechanism whose cost the paper's forkserver
//! baseline pays per test case. `PageTable::refork` turns a used child
//! back into a fresh fork of its unchanged parent by re-pointing only the
//! pages it dirtied.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Page size in bytes (4 KiB, like Linux).
pub const PAGE_SIZE: u64 = 4096;

type Page = Arc<[u8; PAGE_SIZE as usize]>;

fn zero_page() -> Page {
    Arc::new([0u8; PAGE_SIZE as usize])
}

/// Deterministic FxHash-style hasher for page indices. Replaces the
/// default SipHash `RandomState` — cheaper per lookup on the load/store
/// hot path, and with no per-process random seed, so the table's behavior
/// is a pure function of its inputs.
#[derive(Debug, Default, Clone)]
pub struct PageHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(FX_SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }
}

type PageMap = HashMap<u64, Page, BuildHasherDefault<PageHasher>>;

/// Source of [`PageTable::ownership_stamp`] values. Global, so a stamp is
/// never reused by another table: a cache keyed by stamps cannot mistake
/// a replacement process for the one it replaced.
static NEXT_OWNERSHIP_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    // Relaxed: the counter publishes no other data; `fetch_add` alone
    // makes every value unique.
    NEXT_OWNERSHIP_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A sparse, copy-on-write page table.
///
/// Unmapped pages read as zeros and are materialized on first write.
/// *Validity* of an access (is this address inside an object?) is not the
/// page table's job — [`crate::process::Process::check_access`] performs
/// region checks before touching memory.
///
/// # The read mini-TLB and CoW determinism
///
/// Reads keep a one-entry direct-mapped cache of the last page touched
/// (`tlb`), skipping the hash lookup on the common sequential-access
/// pattern. Because the cache holds an extra `Arc` reference, it could in
/// principle perturb the `strong_count > 1` copy-on-write test that the
/// teardown cycle charges depend on. Two rules make that impossible:
///
/// * a table's TLB only ever caches a page its *own* map currently holds —
///   [`PageTable::write`] invalidates the TLB entry for a page before
///   replacing the map entry, so the TLB can never outlive its map entry;
/// * [`PageTable::write`] drops its own TLB reference *before* inspecting
///   `strong_count`, so the count it sees is "maps holding this page, plus
///   foreign TLBs whose maps also hold it" — which crosses the `> 1`
///   threshold exactly when "maps holding this page" does.
///
/// Hence every CoW-fault decision, and therefore every simulated cycle
/// count, is identical to the pre-TLB table.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    pages: PageMap,
    /// Last page served by [`PageTable::read`]: `(page index, page)`.
    tlb: RefCell<Option<(u64, Page)>>,
    /// CoW faults taken since the last [`PageTable::reset_fault_count`].
    cow_faults: u64,
    /// See [`PageTable::ownership_stamp`]. 0 is the empty table's stamp.
    stamp: u64,
    /// Indices whose ownership changed since this table was forked:
    /// materialized, CoW-copied or privatized. See [`mark_dirty`].
    dirty: Vec<u64>,
}

/// Append `page_idx` to a table's dirty list. Every listed index is
/// mapped, so once the list holds twice as many entries as the table has
/// `resident` pages it is mostly duplicates: deduplicate it then, which
/// bounds its length without a set lookup on the write path. Cold and out
/// of line, so the store path `PageTable::owned_page` stays small.
#[cold]
#[inline(never)]
fn mark_dirty(dirty: &mut Vec<u64>, resident: usize, page_idx: u64) {
    if dirty.len() >= 2 * resident.max(8) {
        dirty.sort_unstable();
        dirty.dedup();
    }
    dirty.push(page_idx);
}

impl PageTable {
    /// Create an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (materialized) pages.
    pub fn resident_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// CoW faults taken since the last reset.
    pub fn cow_faults(&self) -> u64 {
        self.cow_faults
    }

    /// Zero the CoW fault counter (called right after a fork is charged).
    pub fn reset_fault_count(&mut self) {
        self.cow_faults = 0;
    }

    /// Restore the CoW fault counter to a checkpointed value (resume path).
    pub fn set_cow_faults(&mut self, n: u64) {
        self.cow_faults = n;
    }

    /// Identity of the table's page *ownership*: which page object backs
    /// each index. Every change to that — a page materialized, a CoW
    /// copy, [`PageTable::privatize`], a [`PageTable::fork`] — draws a
    /// fresh, never-reused stamp; writes into an already-owned page leave
    /// it alone. Two tables with equal stamps therefore map every index to
    /// the same page object, so [`PageTable::private_pages_vs`] is a pure
    /// function of the two stamps and callers may cache it on them.
    pub fn ownership_stamp(&self) -> u64 {
        self.stamp
    }

    /// Page indices whose backing differs from `parent`'s: pages this table
    /// privatized — or materialized outright — since it was forked/cloned
    /// from `parent`. Sorted, so the result is deterministic.
    pub fn private_pages_vs(&self, parent: &PageTable) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .pages
            .iter()
            .filter(|(idx, page)| match parent.pages.get(idx) {
                Some(pp) => !Arc::ptr_eq(page, pp),
                None => true,
            })
            .map(|(idx, _)| *idx)
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
        {
            let mut tlb = self.tlb.borrow_mut();
            if matches!(*tlb, Some((ci, _)) if ci == page_idx) {
                *tlb = None;
            }
        }
        let entry = self.pages.entry(page_idx).or_insert_with(zero_page);
        if Arc::strong_count(entry) > 1 {
            *entry = Arc::new(**entry);
        }
        self.stamp = fresh_stamp();
        mark_dirty(&mut self.dirty, self.pages.len(), page_idx);
    }

    /// Duplicate the table the way `fork(2)` does: share all pages.
    /// The child starts with a cold TLB.
    pub fn fork(&self) -> PageTable {
        PageTable {
            pages: self.pages.clone(),
            tlb: RefCell::new(None),
            cow_faults: 0,
            stamp: fresh_stamp(),
            dirty: Vec::new(),
        }
    }

    /// Turn this table back into an exact [`PageTable::fork`] of `parent`,
    /// in time proportional to the pages it dirtied rather than to the
    /// pages it holds: each index whose ownership changed since the last
    /// fork is re-pointed at `parent`'s page, or unmapped if `parent` has
    /// none. The TLB goes cold, the fault count restarts at 0 and a fresh
    /// stamp is drawn, as for a new fork.
    ///
    /// `self` must have been forked (or re-forked) from `parent`, and
    /// `parent`'s page ownership must not have changed since.
    pub(crate) fn refork(&mut self, parent: &PageTable) {
        *self.tlb.get_mut() = None;
        for idx in self.dirty.drain(..) {
            match parent.pages.get(&idx) {
                Some(page) => {
                    self.pages.insert(idx, Arc::clone(page));
                }
                None => {
                    self.pages.remove(&idx);
                }
            }
        }
        self.cow_faults = 0;
        self.stamp = fresh_stamp();
        debug_assert!(
            self.pages.len() == parent.pages.len() && self.private_pages_vs(parent).is_empty(),
            "re-fork left pages that differ from the parent's"
        );
    }

    /// Read `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let page_idx = addr / PAGE_SIZE;
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page + buf.len() <= PAGE_SIZE as usize {
            // Single-page fast path through the mini-TLB.
            if let Some((ci, p)) = self.tlb.borrow().as_ref() {
                if *ci == page_idx {
                    buf.copy_from_slice(&p[in_page..in_page + buf.len()]);
                    return;
                }
            }
            match self.pages.get(&page_idx) {
                Some(p) => {
                    buf.copy_from_slice(&p[in_page..in_page + buf.len()]);
                    *self.tlb.borrow_mut() = Some((page_idx, Arc::clone(p)));
                }
                None => buf.fill(0),
            }
            return;
        }
        let mut a = addr;
        let mut off = 0;
        while off < buf.len() {
            let page_idx = a / PAGE_SIZE;
            let in_page = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            match self.pages.get(&page_idx) {
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
            let page_idx = a / PAGE_SIZE;
            let in_page = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(buf.len() - off);
            let page = self.owned_page(page_idx);
            page[in_page..in_page + n].copy_from_slice(&buf[off..off + n]);
            a += n as u64;
            off += n;
        }
    }

    /// The page at `page_idx`, made writable: materialized if unmapped,
    /// copied (one CoW fault) if shared.
    #[inline]
    fn owned_page(&mut self, page_idx: u64) -> &mut [u8; PAGE_SIZE as usize] {
        // Drop our own TLB reference to this page *before* the CoW
        // strong-count test — see the type-level comment.
        {
            let mut tlb = self.tlb.borrow_mut();
            if matches!(*tlb, Some((ci, _)) if ci == page_idx) {
                *tlb = None;
            }
        }
        let resident = self.pages.len();
        let entry = match self.pages.entry(page_idx) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.stamp = fresh_stamp();
                mark_dirty(&mut self.dirty, resident, page_idx);
                e.insert(zero_page())
            }
        };
        if Arc::strong_count(entry) > 1 {
            // Copy-on-write fault: this page is shared with another
            // process (post-fork); duplicate before writing.
            *entry = Arc::new(**entry);
            self.cow_faults += 1;
            self.stamp = fresh_stamp();
            mark_dirty(&mut self.dirty, resident, page_idx);
        }
        Arc::get_mut(entry).expect("just un-shared")
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
    fn read_n<const W: usize>(&self, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        let page_idx = addr / PAGE_SIZE;
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page + W > PAGE_SIZE as usize {
            self.read(addr, &mut buf[..W]);
            return u64::from_le_bytes(buf);
        }
        if let Some((ci, p)) = self.tlb.borrow().as_ref() {
            if *ci == page_idx {
                buf[..W].copy_from_slice(&p[in_page..in_page + W]);
                return u64::from_le_bytes(buf);
            }
        }
        if let Some(p) = self.pages.get(&page_idx) {
            buf[..W].copy_from_slice(&p[in_page..in_page + W]);
            *self.tlb.borrow_mut() = Some((page_idx, Arc::clone(p)));
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

    /// [`PageTable::write`] of a `W`-byte integer: the same TLB, CoW and
    /// stamp steps, then a constant-size copy when it fits in one page;
    /// the slice path when it straddles two.
    fn write_n<const W: usize>(&mut self, addr: u64, value: u64) {
        let bytes = value.to_le_bytes();
        let page_idx = addr / PAGE_SIZE;
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page + W > PAGE_SIZE as usize {
            self.write(addr, &bytes[..W]);
            return;
        }
        let page = self.owned_page(page_idx);
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
            let page_idx = a / PAGE_SIZE;
            let in_page = (a % PAGE_SIZE) as usize;
            let run = ((PAGE_SIZE as usize) - in_page).min(max - out.len());
            let Some(p) = self.pages.get(&page_idx) else {
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
    fn tlb_does_not_perturb_cow_fault_decisions() {
        let mut parent = PageTable::new();
        parent.write_uint(0x1000, 42, 8);
        // Warm the parent's TLB on the page it will write next: without the
        // invalidate-before-count rule this self-reference would fake a
        // shared page and charge a spurious fault.
        assert_eq!(parent.read_uint(0x1000, 8), 42);
        parent.reset_fault_count();
        parent.write_uint(0x1000, 43, 8);
        assert_eq!(parent.cow_faults(), 0, "exclusive page must not fault");

        // Shared page still faults exactly once even with both TLBs warm.
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
    fn tlb_reads_see_writes_through_same_table() {
        let mut pt = PageTable::new();
        pt.write_uint(0x2000, 1, 8);
        assert_eq!(pt.read_uint(0x2000, 8), 1); // TLB now warm
        pt.write_uint(0x2000, 2, 8); // invalidates TLB entry
        assert_eq!(pt.read_uint(0x2000, 8), 2, "no stale TLB read");
    }
}
