//! Executor-side campaign checkpointing: a serializable snapshot of the
//! resilience machinery's mutable state.
//!
//! A crash-safe campaign must be able to kill the fuzzer at an arbitrary
//! execution boundary and resume **deterministically** — every counter that
//! influences future behavior has to travel with the checkpoint. For the
//! executors that means:
//!
//! * the resilience tallies (`respawns`, `divergences`, …) that feed
//!   [`ResilienceReport`],
//! * the restore-iteration counter that drives the *sampled* integrity
//!   check cadence (resume mid-sample-window and the checks fire at the
//!   same executions they would have),
//! * the degradation level — a campaign that fell down the continuum to
//!   fork-per-exec must resume there, not silently re-promote itself,
//! * whether the persistent process was alive (a dead process means the
//!   next run pays a respawn, exactly as the killed run would have),
//! * the quarantine ring contents, and
//! * the fault plane's roll-stream position, so injected faults continue
//!   at the same points of the roll sequence.
//!
//! Process *memory* is deliberately **not** serialized: executor
//! construction is deterministic (boot ≡ template fork for the pristine
//! image), so a resumed executor reconstructs the process from the module
//! and only the counters need restoring. That keeps checkpoints small and
//! immune to memory-layout drift across versions. Page *contents* come for
//! free that way, but page *ownership* does not: teardown charges the
//! process's accumulated copy-on-write faults, so the pending fault count
//! and the set of already-privatized pages travel with the checkpoint
//! (`proc_cow_faults` / `proc_private_pages`) and are grafted back onto the
//! rebuilt process — otherwise a resumed run's next teardown drifts by one
//! `cow_fault` charge per page the killed run privatized but the resumed
//! run never rewrote.

use vmos::{wire_enum, wire_struct};

use crate::resilience::{DegradationLevel, ResilienceReport};

wire_enum!(DegradationLevel, "degradation tag" {
    0 => Persistent,
    1 => ForkPerExec,
});

/// The mutable executor state a campaign checkpoint carries. Exported via
/// [`Executor::export_state`](crate::executor::Executor::export_state) and
/// re-applied with
/// [`Executor::restore_state`](crate::executor::Executor::restore_state)
/// after the executor has been freshly reconstructed from the module.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutorState {
    /// Times the process was re-created after a crash/hang/divergence.
    pub respawns: u64,
    /// Restore divergences detected so far.
    pub divergences: u64,
    /// Integrity checks performed so far.
    pub integrity_checks: u64,
    /// Harness faults surfaced so far.
    pub harness_faults: u64,
    /// Restores performed (drives the sampled integrity-check cadence).
    pub iters: u64,
    /// Current position on the degradation ladder.
    pub degradation: DegradationLevel,
    /// Was the persistent process alive at checkpoint time? When `false`
    /// the restored executor discards its booted process so the next run
    /// pays the respawn the killed run would have paid.
    pub proc_alive: bool,
    /// The quarantine ring contents (bounded sample of tainted inputs).
    pub quarantine: Vec<Vec<u8>>,
    /// Quarantined inputs evicted past the ring's capacity.
    pub quarantine_dropped: u64,
    /// Fault-plane roll-stream position.
    pub fault_rolls: u64,
    /// Fault-plane per-kind injection tallies.
    pub fault_injected: [u64; 5],
    /// Pending copy-on-write faults the live process had accumulated —
    /// charged at its *eventual* teardown, so they must survive a resume.
    pub proc_cow_faults: u64,
    /// Pages the live process had already privatized against its pristine
    /// template. A rebuilt boot process shares every page with the template,
    /// so without this set the resumed process would re-fault (and the
    /// teardown re-charge) pages whose faults the checkpoint already
    /// carries — and never fault pages the killed run privatized but the
    /// resumed run never rewrites.
    pub proc_private_pages: Vec<u64>,
}

wire_struct!(ExecutorState {
    respawns,
    divergences,
    integrity_checks,
    harness_faults,
    iters,
    degradation,
    proc_alive,
    quarantine,
    quarantine_dropped,
    fault_rolls,
    fault_injected,
    proc_cow_faults,
    proc_private_pages,
});

// Out-of-process lanes ship their lifetime resilience counters to the
// supervisor in this form at every barrier.
wire_struct!(ResilienceReport {
    respawns,
    divergences,
    integrity_checks,
    quarantined,
    quarantine_dropped,
    harness_faults,
    degradation,
});

#[cfg(test)]
mod tests {
    use super::*;
    use vmos::{Wire, WireError};

    #[test]
    fn bad_tags_rejected() {
        let mut bytes = ExecutorState::default().to_bytes();
        bytes[40] = 7; // degradation tag byte
        assert_eq!(
            ExecutorState::from_bytes(&bytes).unwrap_err(),
            WireError::Malformed("degradation tag")
        );
        assert!(DegradationLevel::from_bytes(&[2]).is_err());
        assert_eq!(
            DegradationLevel::from_bytes(&[1]).unwrap(),
            DegradationLevel::ForkPerExec
        );
    }
}
