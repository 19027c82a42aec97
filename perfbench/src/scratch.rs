//! Per-run scratch space and process facts.
//!
//! Every run works in a fresh `.perfbench_scratch/run-<pid>-<ns>/` under
//! the working directory and removes it when it ends, so repeated runs
//! neither grow disk use nor resume stale checkpoint or service state.

use std::path::{Path, PathBuf};

/// Scratch root, relative to the working directory (the checkout root).
pub const ROOT: &str = ".perfbench_scratch";

/// A fresh per-run directory, removed on drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create() -> Result<RunDir, String> {
        let root = Path::new(ROOT);
        std::fs::create_dir_all(root).map_err(|e| format!("{ROOT}: {e}"))?;
        sweep_dead_runs(root);
        let name = format!("run-{}-{}", std::process::id(), crate::wrap::now_ns());
        let path = root.join(name);
        std::fs::create_dir(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let path = path
            .canonicalize()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh subdirectory.
    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Remove run directories left by runs whose process no longer exists
/// (a killed run cannot clean up after itself).
fn sweep_dead_runs(root: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pid) = name
            .strip_prefix("run-")
            .and_then(|r| r.split('-').next())
            .and_then(|p| p.parse::<u32>().ok())
        else {
            continue;
        };
        if !Path::new("/proc").join(pid.to_string()).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// The filesystem type `path` sits on, from the longest matching mount
/// point in `/proc/self/mountinfo`.
pub fn filesystem(path: &Path) -> String {
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() > *n) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_filesystem_is_named() {
        assert_ne!(filesystem(Path::new("/")), "unknown");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
