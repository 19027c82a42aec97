//! The simulated filesystem: a flat path → bytes store shared by all
//! processes of one [`crate::os::Os`]. Fuzzing executors write the current
//! test case to [`FUZZ_INPUT_PATH`] before each run, exactly like AFL++'s
//! `.cur_input` file.

use std::collections::HashMap;

/// Path every target reads its fuzzed input from.
pub const FUZZ_INPUT_PATH: &str = "/fuzz/input";

/// A trivially simple in-memory filesystem.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    files: HashMap<String, Vec<u8>>,
}

impl SimFs {
    /// Empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create or replace a file.
    pub fn write_file(&mut self, path: impl Into<String>, data: Vec<u8>) {
        self.files.insert(path.into(), data);
    }

    /// Create or replace a file with a copy of `data`, reusing the old
    /// contents' buffer and path when the file exists — the per-exec test
    /// case write allocates nothing once the buffer is large enough.
    pub fn overwrite_file(&mut self, path: &str, data: &[u8]) {
        match self.files.get_mut(path) {
            Some(buf) => {
                buf.clear();
                buf.extend_from_slice(data);
            }
            None => {
                self.files.insert(path.to_string(), data.to_vec());
            }
        }
    }

    /// Read a file's contents.
    pub fn read_file(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|v| v.as_slice())
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Remove a file.
    pub fn remove(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if no files exist.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_remove() {
        let mut fs = SimFs::new();
        assert!(fs.is_empty());
        fs.write_file("/a", vec![1, 2, 3]);
        assert_eq!(fs.read_file("/a"), Some(&[1u8, 2, 3][..]));
        assert!(fs.exists("/a"));
        assert_eq!(fs.len(), 1);
        assert!(fs.remove("/a"));
        assert!(!fs.remove("/a"));
        assert!(fs.read_file("/a").is_none());
    }

    #[test]
    fn overwrite_replaces() {
        let mut fs = SimFs::new();
        fs.write_file(FUZZ_INPUT_PATH, vec![1]);
        fs.write_file(FUZZ_INPUT_PATH, vec![2, 3]);
        assert_eq!(fs.read_file(FUZZ_INPUT_PATH), Some(&[2u8, 3][..]));
    }

    #[test]
    fn overwrite_in_place_longer_shorter_and_empty() {
        let mut fs = SimFs::new();
        fs.overwrite_file(FUZZ_INPUT_PATH, b"abc");
        assert_eq!(fs.read_file(FUZZ_INPUT_PATH), Some(&b"abc"[..]), "creates");
        fs.overwrite_file(FUZZ_INPUT_PATH, b"longer input");
        assert_eq!(fs.read_file(FUZZ_INPUT_PATH), Some(&b"longer input"[..]));
        let buf = fs.read_file(FUZZ_INPUT_PATH).unwrap().as_ptr();
        fs.overwrite_file(FUZZ_INPUT_PATH, b"xy");
        assert_eq!(
            fs.read_file(FUZZ_INPUT_PATH).unwrap().as_ptr(),
            buf,
            "a shorter overwrite reuses the buffer"
        );
        assert_eq!(
            fs.read_file(FUZZ_INPUT_PATH),
            Some(&b"xy"[..]),
            "no stale tail"
        );
        fs.overwrite_file(FUZZ_INPUT_PATH, b"");
        assert_eq!(fs.read_file(FUZZ_INPUT_PATH), Some(&b""[..]));
        assert!(fs.exists(FUZZ_INPUT_PATH), "an empty file still exists");
        assert_eq!(fs.len(), 1);
    }
}
