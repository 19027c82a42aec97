//! The fuzzer's seed queue.

/// One queue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// The input bytes.
    pub data: Vec<u8>,
    /// Cycles its discovery execution took (scheduling prefers fast seeds).
    pub exec_cycles: u64,
    /// Campaign clock when it was added.
    pub found_at: u64,
    /// Whether the deterministic stage has run on it.
    pub det_done: bool,
    /// True when the discovery execution found a brand-new edge (not just a
    /// new hitcount bucket on a known edge). Scheduling ignores this; the
    /// sharded merge sorts favored entries first within a sync epoch so the
    /// canonical queue order is coverage-meaningful.
    pub favored: bool,
}

vmos::wire_struct!(QueueEntry {
    data,
    exec_cycles,
    found_at,
    det_done,
    favored,
});

/// The corpus of coverage-increasing inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Queue {
    entries: Vec<QueueEntry>,
    cursor: usize,
}

impl Queue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append an entry.
    pub fn push(&mut self, e: QueueEntry) {
        self.entries.push(e);
    }

    /// Entry by index.
    pub fn get(&self, i: usize) -> Option<&QueueEntry> {
        self.entries.get(i)
    }

    /// Mutable entry by index.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut QueueEntry> {
        self.entries.get_mut(i)
    }

    /// Round-robin scheduling: next entry index to fuzz.
    pub fn next_index(&mut self) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let i = self.cursor % self.entries.len();
        self.cursor = self.cursor.wrapping_add(1);
        Some(i)
    }

    /// The round-robin scheduling position (campaign checkpointing).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Restore a scheduling position saved via [`Queue::cursor`].
    pub fn set_cursor(&mut self, cursor: usize) {
        self.cursor = cursor;
    }

    /// All input bytes (correctness evaluation consumes the whole queue).
    pub fn inputs(&self) -> Vec<Vec<u8>> {
        self.entries.iter().map(|e| e.data.clone()).collect()
    }

    /// Iterate entries.
    pub fn iter(&self) -> std::slice::Iter<'_, QueueEntry> {
        self.entries.iter()
    }

    /// Entries appended at or after index `from` (a shard barrier collects
    /// each lane's discoveries this way).
    pub fn entries_from(&self, from: usize) -> &[QueueEntry] {
        &self.entries[from.min(self.entries.len())..]
    }

    /// Replace the whole entry list, preserving the scheduling cursor —
    /// shard barriers swap in the canonically merged global queue without
    /// disturbing each lane's round-robin position (the cursor is a raw
    /// counter, reduced modulo the length at pick time).
    pub fn replace_entries(&mut self, entries: Vec<QueueEntry>) {
        self.entries = entries;
    }
}

impl<'a> IntoIterator for &'a Queue {
    type Item = &'a QueueEntry;
    type IntoIter = std::slice::Iter<'a, QueueEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(data: &[u8]) -> QueueEntry {
        QueueEntry {
            data: data.to_vec(),
            exec_cycles: 10,
            found_at: 0,
            det_done: false,
            favored: false,
        }
    }

    #[test]
    fn replace_entries_keeps_cursor() {
        let mut q = Queue::new();
        q.push(entry(b"a"));
        q.push(entry(b"b"));
        assert_eq!(q.next_index(), Some(0));
        q.replace_entries(vec![entry(b"a"), entry(b"b"), entry(b"c")]);
        assert_eq!(q.cursor(), 1, "cursor survives the swap");
        assert_eq!(q.next_index(), Some(1));
        assert_eq!(q.entries_from(2).len(), 1);
        assert_eq!(q.entries_from(99).len(), 0);
    }

    #[test]
    fn round_robin_cycles() {
        let mut q = Queue::new();
        assert_eq!(q.next_index(), None);
        q.push(entry(b"a"));
        q.push(entry(b"b"));
        assert_eq!(q.next_index(), Some(0));
        assert_eq!(q.next_index(), Some(1));
        assert_eq!(q.next_index(), Some(0));
    }

    #[test]
    fn inputs_snapshot() {
        let mut q = Queue::new();
        q.push(entry(b"x"));
        q.push(entry(b"yz"));
        assert_eq!(q.inputs(), vec![b"x".to_vec(), b"yz".to_vec()]);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
