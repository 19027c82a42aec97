//! Self-healing support for the executor continuum: typed harness errors,
//! online restore-integrity verification, and graceful degradation.
//!
//! The ClosureX guarantee — every test case observes fresh-process-
//! equivalent state — is only as strong as the restore machinery behind it.
//! On a hostile substrate (the fault plane in [`vmos::fault`]) restoration
//! itself can be corrupted: a bit flips in the restored global section, a
//! descriptor slot leaks past the sweep, a respawn `fork` is refused. This
//! module gives the harness the vocabulary to *notice* and *survive* those
//! events instead of panicking or silently mis-reporting crashes:
//!
//! * [`HarnessError`] — typed, non-panicking failures of the harness
//!   machinery itself, surfaced through
//!   [`ExecStatus::Fault`](crate::executor::ExecStatus::Fault)(crate::executor::ExecStatus);
//! * [`RestoreDivergence`] — what a sampled post-restore integrity check
//!   (global-section hash, heap census, fd census) found out of place;
//! * [`DegradationLevel`] — where on the continuum the executor currently
//!   runs: full persistent mode, or fork-per-exec after repeated
//!   divergences (correctness preserved at forkserver speed);
//! * [`ResilienceReport`] — the counters campaigns aggregate.

use serde::{Deserialize, Serialize};

/// A failure of the harness machinery itself — not the target. These used
/// to be `expect()` panics; they now propagate as data so a fuzzing
/// campaign can retry, degrade, or report instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// The initial spawn of the harness process failed.
    BootFailed(String),
    /// Forking a fresh child (template respawn or fork-per-exec) was
    /// refused by the OS.
    ForkFailed(String),
    /// Recovery needed the pristine template but none exists.
    TemplateMissing,
    /// End-of-iteration restoration failed partway.
    RestoreFailed(String),
    /// No live process and no way to make one.
    ProcessLost,
    /// The operation (e.g. checkpoint export/restore) is not supported by
    /// this execution mechanism.
    Unsupported(String),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::BootFailed(d) => write!(f, "harness boot failed: {d}"),
            HarnessError::ForkFailed(d) => write!(f, "harness fork failed: {d}"),
            HarnessError::TemplateMissing => write!(f, "pristine template missing"),
            HarnessError::RestoreFailed(d) => write!(f, "state restoration failed: {d}"),
            HarnessError::ProcessLost => write!(f, "harness process lost"),
            HarnessError::Unsupported(d) => write!(f, "unsupported harness operation: {d}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// What a post-restore integrity check found diverging from the pristine
/// boot state. Each variant carries the expected/observed pair so reports
/// can say *how* restoration went wrong, not just that it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreDivergence {
    /// The restored global section no longer hashes to the boot snapshot.
    GlobalSectionHash {
        /// FNV-1a hash of the boot-time snapshot.
        expected: u64,
        /// Hash observed after restoration.
        actual: u64,
    },
    /// Live heap bytes after the sweep differ from the post-boot baseline.
    HeapCensus {
        /// Baseline live bytes right after boot.
        expected_bytes: u64,
        /// Live bytes observed after the sweep.
        actual_bytes: u64,
    },
    /// Open descriptors after the sweep differ from the post-boot baseline.
    FdCensus {
        /// Baseline open handles right after boot.
        expected_open: usize,
        /// Open handles observed after the sweep.
        actual_open: usize,
    },
}

impl RestoreDivergence {
    /// Stable short name for logs and JSON reports.
    pub fn name(&self) -> &'static str {
        match self {
            RestoreDivergence::GlobalSectionHash { .. } => "global_section_hash",
            RestoreDivergence::HeapCensus { .. } => "heap_census",
            RestoreDivergence::FdCensus { .. } => "fd_census",
        }
    }
}

impl std::fmt::Display for RestoreDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreDivergence::GlobalSectionHash { expected, actual } => {
                write!(f, "global section hash {actual:#x} != boot {expected:#x}")
            }
            RestoreDivergence::HeapCensus {
                expected_bytes,
                actual_bytes,
            } => write!(
                f,
                "heap census {actual_bytes} live bytes != baseline {expected_bytes}"
            ),
            RestoreDivergence::FdCensus {
                expected_open,
                actual_open,
            } => write!(
                f,
                "fd census {actual_open} open handles != baseline {expected_open}"
            ),
        }
    }
}

/// Where on the continuum the executor currently operates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// Full ClosureX persistent mode (fine-grain restoration).
    #[default]
    Persistent,
    /// Fallen back to fork-per-exec: every test case runs in a fork of the
    /// pristine template and is torn down afterwards. Forkserver cost,
    /// fresh-process correctness — the safe harbor after restoration has
    /// repeatedly proven untrustworthy on this substrate.
    ForkPerExec,
}

impl DegradationLevel {
    /// Stable short name for logs and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::Persistent => "persistent",
            DegradationLevel::ForkPerExec => "fork_per_exec",
        }
    }
}

/// When and how aggressively the harness verifies restore integrity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityPolicy {
    /// Verify after every `check_every`-th restore (1 = every iteration,
    /// 0 = never). Sampling keeps the common-case overhead near zero while
    /// still bounding how long corruption can survive undetected.
    pub check_every: u64,
    /// After this many divergences, degrade to
    /// [`DegradationLevel::ForkPerExec`] permanently (0 = never degrade).
    pub max_divergences: u64,
}

impl Default for IntegrityPolicy {
    fn default() -> Self {
        IntegrityPolicy {
            check_every: 16,
            max_divergences: 8,
        }
    }
}

impl IntegrityPolicy {
    /// Check after every restore and never degrade — maximal vigilance,
    /// used by tests and the correctness evaluation.
    pub fn paranoid() -> Self {
        IntegrityPolicy {
            check_every: 1,
            max_divergences: 0,
        }
    }

    /// Never check (the pre-resilience behavior).
    pub fn disabled() -> Self {
        IntegrityPolicy {
            check_every: 0,
            max_divergences: 0,
        }
    }
}

/// Resilience counters an executor accumulates over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Times the process was re-created after a crash/hang/divergence.
    pub respawns: u64,
    /// Restore divergences detected by the integrity check.
    pub divergences: u64,
    /// Integrity checks performed.
    pub integrity_checks: u64,
    /// Inputs quarantined because a divergence was detected after running
    /// them (their observed behavior is untrustworthy).
    pub quarantined: u64,
    /// Quarantined inputs evicted past the ring's capacity. A nonzero
    /// value means the retained quarantine is a *sample*, not the full
    /// set — campaigns surface this instead of discarding silently.
    pub quarantine_dropped: u64,
    /// Harness faults surfaced as [`ExecStatus::Fault`](crate::executor::ExecStatus::Fault)
    /// (crate::executor::ExecStatus::Fault) instead of panics.
    pub harness_faults: u64,
    /// Current degradation level.
    pub degradation: DegradationLevel,
}

/// FNV-1a over `bytes` — the cheap, deterministic digest the integrity
/// check compares global sections with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_detects_single_bit_flips() {
        let base = vec![0u8; 4096];
        let h0 = fnv1a(&base);
        for (byte, bit) in [(0usize, 0u8), (17, 3), (4095, 7)] {
            let mut flipped = base.clone();
            flipped[byte] ^= 1 << bit;
            assert_ne!(fnv1a(&flipped), h0, "flip at {byte}:{bit} must change hash");
        }
        assert_eq!(fnv1a(&base), h0, "hash is deterministic");
    }

    #[test]
    fn divergence_display_names_are_stable() {
        let d = RestoreDivergence::GlobalSectionHash {
            expected: 1,
            actual: 2,
        };
        assert_eq!(d.name(), "global_section_hash");
        assert!(d.to_string().contains("boot"));
        let f = RestoreDivergence::FdCensus {
            expected_open: 1,
            actual_open: 3,
        };
        assert_eq!(f.name(), "fd_census");
    }

    #[test]
    fn policy_defaults_and_presets() {
        assert_eq!(IntegrityPolicy::paranoid().check_every, 1);
        assert_eq!(IntegrityPolicy::disabled().check_every, 0);
        assert!(IntegrityPolicy::default().check_every > 0);
        assert_eq!(DegradationLevel::default(), DegradationLevel::Persistent);
    }

    #[test]
    fn harness_error_display() {
        assert!(HarnessError::ForkFailed("EAGAIN".into())
            .to_string()
            .contains("EAGAIN"));
        assert!(HarnessError::TemplateMissing
            .to_string()
            .contains("template"));
    }
}
