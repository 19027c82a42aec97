//! AFL-style edge coverage.
//!
//! The coverage pass instruments every basic block with
//! `__cov_edge(block_id)`; at runtime the classic AFL update is applied:
//! `map[block_id ^ prev] += 1; prev = block_id >> 1`. Both ClosureX and the
//! AFL++ baseline share this implementation, mirroring the paper's setup
//! ("the same hitcount-based edge coverage collection implementation,
//! loosely based on LLVM's Sanitizer Coverage Guards").

use serde::{Deserialize, Serialize};

/// Size of the shared coverage bitmap (64 KiB, AFL's default).
pub const MAP_SIZE: usize = 1 << 16;

/// A hitcount edge-coverage bitmap.
///
/// Alongside the 64 KiB byte map, the struct maintains a *sparse touched
/// list*: the index of every slot that went 0 → nonzero since the last
/// [`CovMap::clear`]. Because `map` is private and [`CovMap::hit`] is the
/// only writer, the list is always exactly the set of nonzero slots —
/// which lets `clear` and [`VirginMap::merge`] run in O(touched edges)
/// instead of O(64 KiB) on the fast-engine path.
#[derive(Clone, Serialize, Deserialize)]
pub struct CovMap {
    map: Vec<u8>,
    touched: Vec<u16>,
}

impl Default for CovMap {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CovMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CovMap")
            .field("edges_hit", &self.count_nonzero())
            .finish()
    }
}

impl CovMap {
    /// Fresh, all-zero map.
    pub fn new() -> Self {
        CovMap {
            map: vec![0; MAP_SIZE],
            touched: Vec::new(),
        }
    }

    /// Record a hit on `edge_index` (already XOR-folded).
    #[inline]
    pub fn hit(&mut self, edge_index: u16) {
        let slot = &mut self.map[edge_index as usize];
        if *slot == 0 {
            self.touched.push(edge_index);
        }
        *slot = slot.saturating_add(1);
    }

    /// Raw bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.map
    }

    /// Indices touched since the last [`CovMap::clear`], in hit order.
    pub fn touched(&self) -> &[u16] {
        &self.touched
    }

    /// Zero the map (between test cases).
    ///
    /// On the fast-engine path only the touched slots are zeroed; the
    /// reference path wipes all 64 KiB like the pre-change engine did.
    /// Both leave the map all-zero, so the choice is invisible to the
    /// simulation.
    pub fn clear(&mut self) {
        if crate::engine::reference_engine() {
            self.map.fill(0);
        } else {
            for &i in &self.touched {
                self.map[i as usize] = 0;
            }
        }
        self.touched.clear();
    }

    /// Number of edges with a non-zero hitcount.
    pub fn count_nonzero(&self) -> usize {
        self.map.iter().filter(|&&b| b != 0).count()
    }

    /// FNV-1a hash of the *bucketed* map — used as a cheap path identity.
    ///
    /// Bucketing runs word-at-a-time through [`classify_word`]; the FNV
    /// fold itself is inherently per-byte, so the hash value is identical
    /// to classifying byte-by-byte.
    pub fn classified_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for chunk in self.map.chunks_exact(8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            for b in classify_word(word).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }
}

/// AFL's hitcount buckets, precomputed for every possible count so the hot
/// paths index a table instead of running [`classify_count_reference`]'s
/// branch ladder.
pub const COUNT_CLASS_LUT: [u8; 256] = {
    let mut lut = [0u8; 256];
    let mut c = 0usize;
    while c < 256 {
        lut[c] = match c {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 4,
            4..=7 => 8,
            8..=15 => 16,
            16..=31 => 32,
            32..=127 => 64,
            _ => 128,
        };
        c += 1;
    }
    lut
};

/// AFL's hitcount bucketing: collapse counts into power-of-two-ish buckets
/// so loop-iteration jitter doesn't register as new coverage.
#[inline]
pub fn classify_count(count: u8) -> u8 {
    COUNT_CLASS_LUT[count as usize]
}

/// The original branchy bucketing, kept as a test oracle for the LUT.
pub fn classify_count_reference(count: u8) -> u8 {
    match count {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => 4,
        4..=7 => 8,
        8..=15 => 16,
        16..=31 => 32,
        32..=127 => 64,
        _ => 128,
    }
}

/// Classify all eight hitcount lanes of a little-endian `u64` at once
/// (AFL++'s `classify_word`). Zero words — the overwhelmingly common case
/// on a sparse map — return immediately.
#[inline]
pub fn classify_word(word: u64) -> u64 {
    if word == 0 {
        return 0;
    }
    let b = word.to_le_bytes();
    u64::from_le_bytes([
        COUNT_CLASS_LUT[b[0] as usize],
        COUNT_CLASS_LUT[b[1] as usize],
        COUNT_CLASS_LUT[b[2] as usize],
        COUNT_CLASS_LUT[b[3] as usize],
        COUNT_CLASS_LUT[b[4] as usize],
        COUNT_CLASS_LUT[b[5] as usize],
        COUNT_CLASS_LUT[b[6] as usize],
        COUNT_CLASS_LUT[b[7] as usize],
    ])
}

/// Tracks accumulated ("virgin") coverage across a whole campaign and
/// answers "did this execution produce anything new?".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirginMap {
    virgin: Vec<u8>,
    edges_found: usize,
}

impl Default for VirginMap {
    fn default() -> Self {
        Self::new()
    }
}

impl VirginMap {
    /// All-virgin map.
    pub fn new() -> Self {
        VirginMap {
            virgin: vec![0; MAP_SIZE],
            edges_found: 0,
        }
    }

    /// Merge a run's coverage; returns `true` if any new bucketed bit
    /// appeared (AFL's `has_new_bits`).
    ///
    /// Scans the map in 64-bit words and skips zero words, the same trick
    /// AFL uses to keep the per-execution scan off the profile.
    pub fn merge(&mut self, run: &CovMap) -> bool {
        if !crate::engine::reference_engine() {
            // Fast path: the run's touched list is exactly its nonzero
            // slots, each listed once, so visiting it performs the same
            // byte merges as the reference scan in O(touched) instead of
            // O(MAP_SIZE). Each merge touches only its own byte, so the
            // order is free.
            let mut new = false;
            for &idx in &run.touched {
                let i = idx as usize;
                let bucket = classify_count(run.map[i]);
                let v = &mut self.virgin[i];
                if *v & bucket != bucket {
                    if *v == 0 {
                        self.edges_found += 1;
                    }
                    *v |= bucket;
                    new = true;
                }
            }
            return new;
        }
        let mut new = false;
        for (wi, chunk) in run.as_slice().chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            if word == 0 {
                continue;
            }
            for (k, &raw) in chunk.iter().enumerate() {
                if raw == 0 {
                    continue;
                }
                let i = wi * 8 + k;
                let bucket = classify_count(raw);
                let v = &mut self.virgin[i];
                if *v & bucket != bucket {
                    if *v == 0 {
                        self.edges_found += 1;
                    }
                    *v |= bucket;
                    new = true;
                }
            }
        }
        new
    }

    /// Number of distinct edges seen so far.
    pub fn edges_found(&self) -> usize {
        self.edges_found
    }

    /// Raw accumulated map bytes (checkpoint serialization).
    pub fn as_bytes(&self) -> &[u8] {
        &self.virgin
    }

    /// Rebuild a map from bytes saved via [`VirginMap::as_bytes`]. The
    /// edge count is recomputed from the bytes themselves (it is exactly
    /// the number of nonzero bucket bytes), so a checkpoint cannot smuggle
    /// in an inconsistent counter.
    ///
    /// # Panics
    /// Panics if `bytes` is not [`MAP_SIZE`] long; checkpoint decoders
    /// validate the length first.
    pub fn from_saved(bytes: Vec<u8>) -> Self {
        assert_eq!(bytes.len(), MAP_SIZE, "virgin map must be MAP_SIZE bytes");
        let edges_found = bytes.iter().filter(|&&b| b != 0).count();
        VirginMap {
            virgin: bytes,
            edges_found,
        }
    }

    /// OR `value` into one bucket byte, keeping the edge count consistent.
    /// It can only grow coverage, which is what a shard merge needs:
    /// OR-ing never discards bucket bits another lane already contributed.
    pub fn or_byte(&mut self, index: usize, value: u8) {
        let slot = &mut self.virgin[index];
        if *slot == 0 && value != 0 {
            self.edges_found += 1;
        }
        *slot |= value;
    }

    /// OR another whole virgin map into `self`, recording `(index, merged
    /// byte)` for every byte that changed. Returns `true` if anything
    /// changed. Because bytewise OR is commutative and associative, the
    /// final map is independent of the order lanes are unioned in — the
    /// property the sharded campaign merge relies on.
    ///
    /// Scans in 64-bit words and skips words with no new bits, so unioning
    /// a lane that found nothing new is O(MAP_SIZE / 8) word loads.
    pub fn union_tracked(&mut self, other: &VirginMap, changed: &mut Vec<(usize, u8)>) -> bool {
        let mut new = false;
        for (wi, chunk) in other.virgin.chunks_exact(8).enumerate() {
            let theirs = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            if theirs == 0 {
                continue;
            }
            let base = wi * 8;
            let ours =
                u64::from_le_bytes(self.virgin[base..base + 8].try_into().expect("chunk of 8"));
            if theirs & !ours == 0 {
                continue;
            }
            for (k, &b) in chunk.iter().enumerate() {
                let i = base + k;
                let v = &mut self.virgin[i];
                if b & !*v != 0 {
                    if *v == 0 {
                        self.edges_found += 1;
                    }
                    *v |= b;
                    new = true;
                    changed.push((i, *v));
                }
            }
        }
        new
    }
}

/// The per-process coverage update state (AFL's `prev_loc`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CovState {
    prev: u16,
}

impl CovState {
    /// Apply the AFL edge transform for a block with id `cur`, updating the
    /// map and returning the folded edge index.
    ///
    /// This is the single coverage entry point for every engine form: the
    /// reference interpreter's `CovEdge` hostcall, the decoded `CovEdgeK`
    /// op, the fused `CovCmpBr` superinstruction, and `Cov` components
    /// inside a `DOp::Chain` all funnel here — coverage equivalence across
    /// engines is by construction, not by parallel implementations.
    #[inline]
    pub fn edge(&mut self, cur: u16, map: &mut CovMap) -> u16 {
        let idx = cur ^ self.prev;
        map.hit(idx);
        self.prev = cur >> 1;
        idx
    }

    /// Reset `prev_loc` (start of a test case).
    pub fn reset(&mut self) {
        self.prev = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_buckets_are_monotone() {
        let buckets: Vec<u8> = (0..=255u16).map(|c| classify_count(c as u8)).collect();
        for w in buckets.windows(2) {
            assert!(w[1] >= w[0] || w[0] == 128);
        }
        assert_eq!(classify_count(0), 0);
        assert_eq!(classify_count(1), 1);
        assert_eq!(classify_count(200), 128);
    }

    #[test]
    fn edge_transform_distinguishes_direction() {
        // a->b and b->a must map to different indices (AFL's prev>>1 trick).
        let mut m1 = CovMap::new();
        let mut s = CovState::default();
        let ab = {
            s.reset();
            s.edge(10, &mut m1);
            s.edge(20, &mut m1)
        };
        let ba = {
            s.reset();
            s.edge(20, &mut m1);
            s.edge(10, &mut m1)
        };
        assert_ne!(ab, ba);
    }

    #[test]
    fn virgin_map_detects_new_then_saturates() {
        let mut virgin = VirginMap::new();
        let mut run = CovMap::new();
        run.hit(5);
        assert!(virgin.merge(&run));
        assert!(!virgin.merge(&run), "same coverage is not new");
        assert_eq!(virgin.edges_found(), 1);

        // Higher hitcount bucket on the same edge IS new.
        for _ in 0..10 {
            run.hit(5);
        }
        assert!(virgin.merge(&run));
        assert_eq!(virgin.edges_found(), 1, "same edge, new bucket");
    }

    #[test]
    fn virgin_save_restore_and_or_byte_keep_edge_count() {
        let mut v = VirginMap::new();
        let mut run = CovMap::new();
        run.hit(9);
        run.hit(4000);
        v.merge(&run);
        let restored = VirginMap::from_saved(v.as_bytes().to_vec());
        assert_eq!(restored, v);
        assert_eq!(restored.edges_found(), 2);

        let mut w = VirginMap::new();
        w.or_byte(7, 1);
        assert_eq!(w.edges_found(), 1);
        w.or_byte(7, 2); // same edge, new bucket
        assert_eq!(w.edges_found(), 1);
        w.or_byte(7, 0);
        assert_eq!(w.edges_found(), 1);
    }

    #[test]
    fn lut_matches_branchy_oracle_for_all_counts() {
        for c in 0..=255u8 {
            assert_eq!(
                classify_count(c),
                classify_count_reference(c),
                "count {c}"
            );
            assert_eq!(COUNT_CLASS_LUT[c as usize], classify_count_reference(c));
        }
    }

    #[test]
    fn classify_word_matches_per_byte_classification() {
        let words = [
            0u64,
            1,
            0xFF,
            0x0102_0304_0506_0708,
            u64::MAX,
            0x8000_0000_0000_0001,
            0x2020_0303_FF00_1001,
        ];
        for w in words {
            let expect =
                u64::from_le_bytes(w.to_le_bytes().map(classify_count_reference));
            assert_eq!(classify_word(w), expect, "word {w:#x}");
        }
    }

    #[test]
    fn touched_list_is_exactly_the_nonzero_slots() {
        let mut m = CovMap::new();
        m.hit(9);
        m.hit(9);
        m.hit(3);
        m.hit(60000);
        let mut t = m.touched().to_vec();
        t.sort_unstable();
        assert_eq!(t, vec![3, 9, 60000], "no duplicates, every nonzero slot");
        m.clear();
        assert!(m.touched().is_empty());
        assert_eq!(m.count_nonzero(), 0);
        // Clearing on the reference path leaves the same all-zero state.
        m.hit(7);
        let _g = crate::engine::ReferenceEngineGuard::new();
        m.clear();
        assert_eq!(m.count_nonzero(), 0);
        assert!(m.touched().is_empty());
    }

    #[test]
    fn sparse_merge_matches_full_scan_merge() {
        let mut run = CovMap::new();
        // Hit in deliberately non-ascending order, with bucket variety.
        for &e in &[5000u16, 12, 64001, 12, 300, 7, 7, 7, 7] {
            run.hit(e);
        }
        let mut fast = VirginMap::new();
        let fast_new = fast.merge(&run);

        let _g = crate::engine::ReferenceEngineGuard::new();
        let mut slow = VirginMap::new();
        let slow_new = slow.merge(&run);

        assert_eq!(fast_new, slow_new);
        assert_eq!(fast, slow);
        assert_eq!(fast.edges_found(), slow.edges_found());
    }

    #[test]
    fn union_is_commutative_and_tracks_changes() {
        let mut runs = [CovMap::new(), CovMap::new(), CovMap::new()];
        for &e in &[5u16, 9000, 5, 77] {
            runs[0].hit(e);
        }
        for &e in &[5u16, 42, 60000] {
            runs[1].hit(e);
        }
        for _ in 0..40 {
            runs[2].hit(5); // same edge, bigger bucket than lane 0/1
        }
        let lanes: Vec<VirginMap> = runs
            .iter()
            .map(|r| {
                let mut v = VirginMap::new();
                v.merge(r);
                v
            })
            .collect();

        // Union in two different orders: identical result.
        let mut fwd = VirginMap::new();
        let mut rev = VirginMap::new();
        let mut fwd_changed = Vec::new();
        for l in &lanes {
            fwd.union_tracked(l, &mut fwd_changed);
        }
        for l in lanes.iter().rev() {
            rev.union_tracked(l, &mut Vec::new());
        }
        assert_eq!(fwd, rev, "union must be lane-order-invariant");

        // Replaying the changes through or_byte reproduces the union.
        let mut replay = VirginMap::new();
        for &(i, v) in &fwd_changed {
            replay.or_byte(i, v);
        }
        assert_eq!(replay, fwd);

        // Re-unioning an already-covered lane changes nothing.
        let mut changed = Vec::new();
        assert!(!fwd.union_tracked(&lanes[0], &mut changed));
        assert!(changed.is_empty());
    }

    #[test]
    fn or_byte_never_loses_bits() {
        let mut v = VirginMap::new();
        v.or_byte(3, 0b0000_0100);
        assert_eq!(v.edges_found(), 1);
        v.or_byte(3, 0b0010_0000);
        assert_eq!(v.as_bytes()[3], 0b0010_0100);
        assert_eq!(v.edges_found(), 1, "same edge, more buckets");
        v.or_byte(3, 0);
        assert_eq!(v.as_bytes()[3], 0b0010_0100, "OR with zero is a no-op");
        v.or_byte(9, 0);
        assert_eq!(v.edges_found(), 1, "zero value does not count an edge");
    }

    #[test]
    fn hitcounts_saturate() {
        let mut m = CovMap::new();
        for _ in 0..300 {
            m.hit(1);
        }
        assert_eq!(m.as_slice()[1], 255);
    }

    #[test]
    fn classified_hash_stable_under_jitter_within_bucket() {
        let mut a = CovMap::new();
        let mut b = CovMap::new();
        for _ in 0..33 {
            a.hit(7);
        }
        for _ in 0..100 {
            b.hit(7);
        }
        // 33 and 100 both land in bucket 64.
        assert_eq!(a.classified_hash(), b.classified_hash());
        let mut c = CovMap::new();
        c.hit(7);
        assert_ne!(a.classified_hash(), c.classified_hash());
    }
}
