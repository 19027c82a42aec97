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

use vmos::{Reader, WireError, Writer};

use crate::resilience::{DegradationLevel, ResilienceReport};

impl DegradationLevel {
    /// Stable wire tag (checkpoint format v1; append-only).
    pub fn wire_tag(self) -> u8 {
        match self {
            DegradationLevel::Persistent => 0,
            DegradationLevel::ForkPerExec => 1,
        }
    }

    /// Inverse of [`DegradationLevel::wire_tag`].
    ///
    /// # Errors
    /// [`WireError::Malformed`] on an unknown tag.
    pub fn from_wire_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => DegradationLevel::Persistent,
            1 => DegradationLevel::ForkPerExec,
            _ => return Err(WireError::Malformed("degradation tag")),
        })
    }
}

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

impl ExecutorState {
    /// Encode into `w` (checkpoint format v1).
    pub fn encode(&self, w: &mut Writer) {
        w.put_u64(self.respawns);
        w.put_u64(self.divergences);
        w.put_u64(self.integrity_checks);
        w.put_u64(self.harness_faults);
        w.put_u64(self.iters);
        w.put_u8(self.degradation.wire_tag());
        w.put_bool(self.proc_alive);
        w.put_usize(self.quarantine.len());
        for q in &self.quarantine {
            w.put_bytes(q);
        }
        w.put_u64(self.quarantine_dropped);
        w.put_u64(self.fault_rolls);
        for v in self.fault_injected {
            w.put_u64(v);
        }
        w.put_u64(self.proc_cow_faults);
        w.put_usize(self.proc_private_pages.len());
        for idx in &self.proc_private_pages {
            w.put_u64(*idx);
        }
    }

    /// Decode from `r`.
    ///
    /// # Errors
    /// [`WireError`] on truncated or malformed bytes — never panics.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let respawns = r.get_u64()?;
        let divergences = r.get_u64()?;
        let integrity_checks = r.get_u64()?;
        let harness_faults = r.get_u64()?;
        let iters = r.get_u64()?;
        let degradation = DegradationLevel::from_wire_tag(r.get_u8()?)?;
        let proc_alive = r.get_bool()?;
        let n = r.get_count()?;
        // Each entry costs at least its 8-byte length prefix; bounding the
        // count keeps a corrupt field from pre-allocating gigabytes.
        if n > r.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        let mut quarantine = Vec::with_capacity(n);
        for _ in 0..n {
            quarantine.push(r.get_bytes()?);
        }
        let quarantine_dropped = r.get_u64()?;
        let fault_rolls = r.get_u64()?;
        let mut fault_injected = [0u64; 5];
        for v in &mut fault_injected {
            *v = r.get_u64()?;
        }
        let proc_cow_faults = r.get_u64()?;
        let pages = r.get_count()?;
        if pages > r.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        let mut proc_private_pages = Vec::with_capacity(pages);
        for _ in 0..pages {
            proc_private_pages.push(r.get_u64()?);
        }
        Ok(ExecutorState {
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
        })
    }
}

impl ResilienceReport {
    /// Encode into `w` — out-of-process lanes ship their lifetime
    /// resilience counters to the supervisor over this codec at every
    /// barrier.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u64(self.respawns);
        w.put_u64(self.divergences);
        w.put_u64(self.integrity_checks);
        w.put_u64(self.quarantined);
        w.put_u64(self.quarantine_dropped);
        w.put_u64(self.harness_faults);
        w.put_u8(self.degradation.wire_tag());
    }

    /// Decode from `r`.
    ///
    /// # Errors
    /// [`WireError`] on truncated or malformed bytes — never panics.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ResilienceReport {
            respawns: r.get_u64()?,
            divergences: r.get_u64()?,
            integrity_checks: r.get_u64()?,
            quarantined: r.get_u64()?,
            quarantine_dropped: r.get_u64()?,
            harness_faults: r.get_u64()?,
            degradation: DegradationLevel::from_wire_tag(r.get_u8()?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecutorState {
        ExecutorState {
            respawns: 3,
            divergences: 1,
            integrity_checks: 40,
            harness_faults: 2,
            iters: 123,
            degradation: DegradationLevel::ForkPerExec,
            proc_alive: false,
            quarantine: vec![b"bad".to_vec(), Vec::new(), vec![0xFF; 70]],
            quarantine_dropped: 5,
            fault_rolls: 999,
            fault_injected: [1, 0, 2, 0, 4],
            proc_cow_faults: 3,
            proc_private_pages: vec![0, 7, 0x4_0000],
        }
    }

    #[test]
    fn executor_state_round_trips() {
        for s in [ExecutorState::default(), sample()] {
            let mut w = Writer::new();
            s.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(ExecutorState::decode(&mut r).unwrap(), s);
            assert!(r.is_empty(), "decode must consume everything");
        }
    }

    #[test]
    fn truncated_state_is_error_not_panic() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ExecutorState::decode(&mut Reader::new(&bytes[..cut])).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut w = Writer::new();
        let mut s = sample();
        s.quarantine.clear();
        s.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes[40] = 7; // degradation tag byte
        assert_eq!(
            ExecutorState::decode(&mut Reader::new(&bytes)).unwrap_err(),
            WireError::Malformed("degradation tag")
        );
        assert!(DegradationLevel::from_wire_tag(2).is_err());
        assert_eq!(
            DegradationLevel::from_wire_tag(1).unwrap(),
            DegradationLevel::ForkPerExec
        );
    }

    #[test]
    fn corrupt_quarantine_count_cannot_allocate() {
        let mut w = Writer::new();
        let s = ExecutorState::default();
        s.encode(&mut w);
        let mut bytes = w.into_bytes();
        // Overwrite the quarantine count (after 5 u64s + tag + bool) with a
        // huge value; decode must reject it without allocating.
        bytes[42..50].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ExecutorState::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn resilience_report_round_trips() {
        let r = ResilienceReport {
            respawns: 2,
            divergences: 1,
            integrity_checks: 64,
            quarantined: 3,
            quarantine_dropped: 1,
            harness_faults: 5,
            degradation: DegradationLevel::ForkPerExec,
        };
        for report in [ResilienceReport::default(), r] {
            let mut w = Writer::new();
            report.encode(&mut w);
            let bytes = w.into_bytes();
            let mut rd = Reader::new(&bytes);
            assert_eq!(ResilienceReport::decode(&mut rd).unwrap(), report);
            assert!(rd.is_empty());
            for cut in 0..bytes.len() {
                assert!(ResilienceReport::decode(&mut Reader::new(&bytes[..cut])).is_err());
            }
        }
    }
}
