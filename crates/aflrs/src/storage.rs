//! The storage fault plane: every checkpoint/journal byte goes through
//! here, so every storage failure mode is contained, typed, and
//! deterministically testable.
//!
//! PRs 2/5/6 made campaigns survive *compute* faults — panics, hangs,
//! SIGKILLed worker processes. This module does the same for the storage
//! those recovery paths bottom out in. A `Storage` handle wraps each
//! checkpoint I/O operation (snapshot writes, journal appends, rotation
//! unlinks, orphan sweeps) in a **recovery ladder**:
//!
//! 1. **Retry with seeded exponential backoff** — transient errors
//!    (ENOSPC, EIO, short writes; injected *or* real) are retried up to
//!    the configured budget. Backoff cycles are accounted in
//!    [`StorageCounters`] but never charged to the simulated campaign
//!    clock: checkpoint I/O must stay invisible in the result.
//! 2. **Typed graceful degradation** — an operation that fails past the
//!    retry budget marks its *stream* degraded: the campaign drops to
//!    in-memory checkpointing on that stream (subsequent writes become
//!    counted no-ops) and a [`StorageDegradation`] is surfaced in the
//!    campaign result. Never a raw `io::Error` abort.
//! 3. **Crash containment** — injected crash-at-boundary faults stop the
//!    run exactly as a power loss would (partial bytes on disk, nothing
//!    after the boundary runs); the resume path's scrub-and-repair
//!    machinery (see [`crate::checkpoint`]) restores the campaign
//!    byte-identically from whatever survived.
//!
//! Fault injection is driven by a position-pure
//! [`DiskFaultPlan`]: decisions are keyed by
//! `(stream, op, attempt)`. Every campaign has one stream, stream 0, the
//! coordinator: the single driver's snapshots, journal and rotation, or a
//! sharded campaign's barrier snapshots, rotation and sweeps. Lanes do no
//! I/O of their own (a sharded campaign is durable only at its barriers),
//! so the operation numbering is the coordinator's program order and
//! cannot depend on how concurrent lanes interleave. A plan keyed at any
//! other stream never fires.

use std::fs;
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use vmos::{DiskFaultKind, DiskFaultPlan, PlanKind, Reader, WireError, Writer};

/// A storage stream retired to in-memory checkpointing after exhausting
/// its retry budget. Typed and reported through
/// [`ResilienceCounters`](crate::ResilienceCounters) — the campaign
/// result carries every degradation, never a silent drop.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageDegradation {
    /// Which I/O stream degraded (always 0, the coordinator).
    pub stream: u64,
    /// Operation index whose repeated failures exhausted the budget.
    pub op: u64,
    /// Total failed attempts (initial + retries) before degradation.
    pub attempts: u64,
    /// Short name of the last error observed (`no_space`, `io_error`,
    /// `short_write`, or a real OS error rendered as text).
    pub last_error: String,
}

/// Storage-plane accounting surfaced through
/// [`ResilienceCounters`](crate::ResilienceCounters). These describe the
/// *recovery process*, not the campaign's fuzzing outcome: every field is
/// zero on a clean run, and a fault-recovered run matches its unfaulted
/// twin everywhere except this block (see
/// [`CampaignResult::outcome_diff`](crate::CampaignResult::outcome_diff)).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageCounters {
    /// Transient write errors observed (injected or real).
    pub transient_faults: u64,
    /// Operation attempts retried after a transient error.
    pub retries: u64,
    /// Simulated backoff cycles waited before retries. Accounted here,
    /// never charged to the campaign clock — checkpoint I/O is invisible.
    pub backoff_cycles: u64,
    /// Injected crash-at-boundary / rename-lost faults that stopped a run.
    pub crashes: u64,
    /// Injected silent post-commit bit flips.
    pub bitrot_injected: u64,
    /// Operations skipped because their stream had already degraded.
    pub writes_skipped: u64,
    /// Non-fatal sweep/rotation unlink failures (counted, not fatal).
    pub sweep_warnings: u64,
    /// Snapshot generations that failed checksum validation on resume.
    pub corrupt_snapshots: u64,
    /// Corrupt snapshot generations rewritten by the re-run from an older
    /// good generation (scrub-and-repair).
    pub snapshots_repaired: u64,
    /// Streams retired to in-memory checkpointing.
    pub degradations: Vec<StorageDegradation>,
}

impl StorageCounters {
    /// Did the storage plane do anything at all?
    pub fn is_quiet(&self) -> bool {
        self == &StorageCounters::default()
    }

    /// Fold another campaign's counters into this one.
    pub fn absorb(&mut self, other: &StorageCounters) {
        self.transient_faults += other.transient_faults;
        self.retries += other.retries;
        self.backoff_cycles += other.backoff_cycles;
        self.crashes += other.crashes;
        self.bitrot_injected += other.bitrot_injected;
        self.writes_skipped += other.writes_skipped;
        self.sweep_warnings += other.sweep_warnings;
        self.corrupt_snapshots += other.corrupt_snapshots;
        self.snapshots_repaired += other.snapshots_repaired;
        self.degradations.extend(other.degradations.iter().cloned());
    }

    /// Encode for the wire (results travel over RPC).
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_u64(self.transient_faults);
        w.put_u64(self.retries);
        w.put_u64(self.backoff_cycles);
        w.put_u64(self.crashes);
        w.put_u64(self.bitrot_injected);
        w.put_u64(self.writes_skipped);
        w.put_u64(self.sweep_warnings);
        w.put_u64(self.corrupt_snapshots);
        w.put_u64(self.snapshots_repaired);
        w.put_usize(self.degradations.len());
        for d in &self.degradations {
            w.put_u64(d.stream);
            w.put_u64(d.op);
            w.put_u64(d.attempts);
            w.put_str(&d.last_error);
        }
    }

    /// Decode counters written by [`StorageCounters::encode`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let transient_faults = r.get_u64()?;
        let retries = r.get_u64()?;
        let backoff_cycles = r.get_u64()?;
        let crashes = r.get_u64()?;
        let bitrot_injected = r.get_u64()?;
        let writes_skipped = r.get_u64()?;
        let sweep_warnings = r.get_u64()?;
        let corrupt_snapshots = r.get_u64()?;
        let snapshots_repaired = r.get_u64()?;
        let n = r.get_count()?;
        // Each degradation is at least 28 bytes on the wire.
        if n > r.remaining() / 28 {
            return Err(WireError::Truncated);
        }
        let mut degradations = Vec::with_capacity(n);
        for _ in 0..n {
            degradations.push(StorageDegradation {
                stream: r.get_u64()?,
                op: r.get_u64()?,
                attempts: r.get_u64()?,
                last_error: r.get_str()?,
            });
        }
        Ok(StorageCounters {
            transient_faults,
            retries,
            backoff_cycles,
            crashes,
            bitrot_injected,
            writes_skipped,
            sweep_warnings,
            corrupt_snapshots,
            snapshots_repaired,
            degradations,
        })
    }
}

/// What one mediated storage operation did, from the caller's view. The
/// retry/degrade ladder runs *inside* the operation, so callers only ever
/// see these three — never a raw `io::Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpOutcome {
    /// The operation committed (possibly after retries).
    Done,
    /// An injected crash fault fired at this boundary: the machine is
    /// "dead" — partial bytes may be on disk, and the caller must stop
    /// the run exactly as a power loss would (`CampaignOutcome::Killed`).
    Crashed,
    /// The stream is degraded (now or previously): the operation was
    /// dropped, counted, and the campaign continues in-memory.
    Skipped,
}

impl OpOutcome {
    /// Did this boundary kill the machine?
    pub(crate) fn crashed(self) -> bool {
        self == OpOutcome::Crashed
    }
}

/// What the fault plane asks an operation body to do on this attempt.
pub(crate) enum Injected {
    /// Perform the real operation.
    None,
    /// Write only a prefix of the bytes (the payload carries the aux bits
    /// that choose how many); the attempt then fails or crashes.
    Partial(u64),
    /// Skip the rename itself — power loss between `rename` and the
    /// directory fsync lost the new directory entry.
    SkipRename,
    /// Perform the real operation, then flip one committed bit (the
    /// payload carries the aux bits that choose which).
    Bitrot(u64),
}

/// How failures inside an operation are treated.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FailureMode {
    /// Retry with backoff; degrade the stream past the budget.
    Retry,
    /// Count a warning and move on — for cleanup work (orphan sweeps,
    /// rotation unlinks) whose failure must never stop a campaign.
    Warn,
}

struct StreamState {
    /// Next operation index.
    ops: u64,
    /// Stream retired to in-memory checkpointing.
    degraded: bool,
}

/// The one I/O stream: the coordinator's.
const STREAM: u64 = 0;

struct StorageShared {
    plan: DiskFaultPlan,
    max_retries: u32,
    backoff_cycles: u64,
    state: Mutex<SharedState>,
}

struct SharedState {
    counters: StorageCounters,
    stream: StreamState,
}

/// A handle onto the campaign's storage plane. Cheap to clone; clones
/// share the fault plan, counters, and operation numbering.
#[derive(Clone)]
pub(crate) struct Storage {
    shared: Arc<StorageShared>,
}

impl Storage {
    /// A storage plane with `plan` injected.
    pub(crate) fn new(plan: DiskFaultPlan, max_retries: u32, backoff_cycles: u64) -> Self {
        Storage {
            shared: Arc::new(StorageShared {
                plan,
                max_retries,
                backoff_cycles,
                state: Mutex::new(SharedState {
                    counters: StorageCounters::default(),
                    stream: StreamState {
                        ops: 0,
                        degraded: false,
                    },
                }),
            }),
        }
    }

    /// A fault-free plane with default budgets — for paths that need a
    /// handle but no injection (unit tests, ad-hoc maintenance).
    #[cfg(test)]
    pub(crate) fn quiet() -> Self {
        Storage::new(DiskFaultPlan::none(), 3, 2_000)
    }

    /// Snapshot of the accumulated counters.
    pub(crate) fn counters(&self) -> StorageCounters {
        self.shared.state.lock().expect("storage lock").counters.clone()
    }

    /// Record `n` cleanup failures observed inside a sweep/rotation body
    /// (individual unlink errors the operation itself swallowed).
    pub(crate) fn note_sweep_warnings(&self, n: u64) {
        self.shared
            .state
            .lock()
            .expect("storage lock")
            .counters
            .sweep_warnings += n;
    }

    /// Record a snapshot generation that failed validation on resume.
    pub(crate) fn note_corrupt_snapshot(&self) {
        self.shared
            .state
            .lock()
            .expect("storage lock")
            .counters
            .corrupt_snapshots += 1;
    }

    /// Record a scrub-and-repair snapshot rewrite.
    pub(crate) fn note_snapshot_repaired(&self) {
        self.shared
            .state
            .lock()
            .expect("storage lock")
            .counters
            .snapshots_repaired += 1;
    }

    /// Run one mediated operation whose failure is retried and, past the
    /// budget, degrades the stream. `is_rename` marks the commit-rename
    /// boundary (the only place a lost-rename fault is meaningful).
    pub(crate) fn op(
        &self,
        is_rename: bool,
        body: impl FnMut(&Injected) -> io::Result<()>,
    ) -> OpOutcome {
        self.run_op(FailureMode::Retry, is_rename, body)
    }

    /// Run one mediated *cleanup* operation: failures are counted as
    /// warnings and never retried, degraded, or fatal. Crash faults still
    /// crash — a kill point is a kill point even during cleanup.
    pub(crate) fn cleanup_op(&self, body: impl FnMut(&Injected) -> io::Result<()>) -> OpOutcome {
        self.run_op(FailureMode::Warn, false, body)
    }

    fn run_op(
        &self,
        mode: FailureMode,
        is_rename: bool,
        mut body: impl FnMut(&Injected) -> io::Result<()>,
    ) -> OpOutcome {
        let shared = &*self.shared;
        let op = {
            let mut st = shared.state.lock().expect("storage lock");
            if st.stream.degraded {
                st.counters.writes_skipped += 1;
                return OpOutcome::Skipped;
            }
            let op = st.stream.ops;
            st.stream.ops += 1;
            op
        };
        let mut attempt: u32 = 0;
        loop {
            let decided = shared.plan.decide((STREAM, op), attempt);
            let aux = shared.plan.aux_bits((STREAM, op), attempt);
            let failed: io::Result<()> = match decided {
                None => body(&Injected::None),
                Some(DiskFaultKind::NoSpace) => Err(io::Error::from_raw_os_error(28)), // ENOSPC
                Some(DiskFaultKind::Io) => Err(io::Error::from_raw_os_error(5)),       // EIO
                Some(DiskFaultKind::ShortWrite) => {
                    let _ = body(&Injected::Partial(aux));
                    Err(io::Error::from_raw_os_error(5))
                }
                Some(DiskFaultKind::CrashAtBoundary) => {
                    let _ = body(&Injected::Partial(aux));
                    let mut st = shared.state.lock().expect("storage lock");
                    st.counters.crashes += 1;
                    return OpOutcome::Crashed;
                }
                Some(DiskFaultKind::RenameLost) => {
                    let inj = if is_rename {
                        Injected::SkipRename
                    } else {
                        Injected::Partial(aux)
                    };
                    let _ = body(&inj);
                    let mut st = shared.state.lock().expect("storage lock");
                    st.counters.crashes += 1;
                    return OpOutcome::Crashed;
                }
                Some(DiskFaultKind::Bitrot) => {
                    let res = body(&Injected::Bitrot(aux));
                    if res.is_ok() {
                        shared.state.lock().expect("storage lock").counters.bitrot_injected += 1;
                    }
                    res
                }
            };
            let err = match failed {
                Ok(()) => return OpOutcome::Done,
                Err(e) => e,
            };
            let last_error = decided
                .map(|k| k.name().to_string())
                .unwrap_or_else(|| err.to_string());
            let mut st = shared.state.lock().expect("storage lock");
            if mode == FailureMode::Warn {
                st.counters.sweep_warnings += 1;
                return OpOutcome::Done;
            }
            st.counters.transient_faults += 1;
            if attempt >= shared.max_retries {
                st.counters.degradations.push(StorageDegradation {
                    stream: STREAM,
                    op,
                    attempts: u64::from(attempt) + 1,
                    last_error,
                });
                st.stream.degraded = true;
                return OpOutcome::Skipped;
            }
            attempt += 1;
            st.counters.retries += 1;
            if shared.backoff_cycles > 0 {
                // PR 2's backoff shape: double per attempt, plus seeded
                // jitter in [0, base). Accounted, never charged to the
                // simulated clock — checkpoint I/O stays invisible.
                let base = shared.backoff_cycles;
                let delay = (base << u64::from(attempt - 1).min(10)) + aux % base;
                st.counters.backoff_cycles += delay;
            }
        }
    }
}

/// Write `bytes` to `path`, honoring an injected partial write or bit
/// flip. The file is created (truncated) fresh on every attempt, so
/// retries are idempotent.
pub(crate) fn faulted_create(path: &Path, bytes: &[u8], inject: &Injected) -> io::Result<()> {
    let mut f = fs::File::create(path)?;
    match inject {
        Injected::Partial(aux) => {
            let keep = (*aux as usize) % (bytes.len() + 1);
            f.write_all(&bytes[..keep])
        }
        Injected::Bitrot(aux) => {
            let mut rotted = bytes.to_vec();
            flip_bit(&mut rotted, *aux);
            f.write_all(&rotted)
        }
        _ => f.write_all(bytes),
    }
}

/// Flip one bit of `bytes` chosen by `aux` (no-op on an empty buffer).
pub(crate) fn flip_bit(bytes: &mut [u8], aux: u64) {
    if bytes.is_empty() {
        return;
    }
    let bit = aux as usize % (bytes.len() * 8);
    bytes[bit / 8] ^= 1 << (bit % 8);
}

/// Flip one committed bit of the file at `path` — the on-platter bitrot
/// a post-commit scrub exists to catch.
pub(crate) fn flip_bit_in_file(path: &Path, aux: u64) -> io::Result<()> {
    let mut f = fs::OpenOptions::new().read(true).write(true).open(path)?;
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let bit = aux % (len * 8);
    let mut byte = [0u8];
    f.seek(SeekFrom::Start(bit / 8))?;
    f.read_exact(&mut byte)?;
    byte[0] ^= 1 << (bit % 8);
    f.seek(SeekFrom::Start(bit / 8))?;
    f.write_all(&byte)
}

/// Fsync a directory so a rename (or unlink) inside it survives power
/// loss. Directory fsync is advisory on some filesystems; failures are
/// reported as plain I/O errors and ride the caller's retry ladder.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_ops_count_nothing() {
        let s = Storage::quiet();
        let dir = std::env::temp_dir().join(format!("aflrs-storage-clean-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        for i in 0..4 {
            let path = dir.join(format!("f{i}"));
            assert_eq!(
                s.op(false, |inj| faulted_create(&path, b"payload", inj)),
                OpOutcome::Done
            );
        }
        assert!(s.counters().is_quiet(), "clean runs leave zero counters");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_fault_retries_then_succeeds() {
        let mut plan = DiskFaultPlan::at((0, 1), DiskFaultKind::NoSpace);
        plan.targeted[0].fires = 2;
        let s = Storage::new(plan, 3, 1_000);
        assert_eq!(s.op(false, |_| Ok(())), OpOutcome::Done); // op 0 clean
        assert_eq!(s.op(false, |_| Ok(())), OpOutcome::Done); // op 1 retried through
        let c = s.counters();
        assert_eq!(c.transient_faults, 2);
        assert_eq!(c.retries, 2);
        assert!(c.backoff_cycles >= 3_000, "1k + 2k doubling minimum");
        assert!(c.degradations.is_empty());
    }

    #[test]
    fn exhausted_budget_degrades_stream_not_campaign() {
        let mut plan = DiskFaultPlan::at((0, 1), DiskFaultKind::Io);
        plan.targeted[0].fires = 99;
        let s = Storage::new(plan, 2, 0);
        assert_eq!(s.op(false, |_| Ok(())), OpOutcome::Done);
        assert_eq!(s.op(false, |_| Ok(())), OpOutcome::Skipped);
        // The stream is now in-memory: later ops skip without touching disk.
        let mut body_ran = false;
        assert_eq!(
            s.op(false, |_| {
                body_ran = true;
                Ok(())
            }),
            OpOutcome::Skipped
        );
        assert!(!body_ran, "degraded streams must not attempt I/O");
        let c = s.counters();
        assert_eq!(c.degradations.len(), 1);
        assert_eq!(c.degradations[0].stream, 0);
        assert_eq!(c.degradations[0].op, 1);
        assert_eq!(c.degradations[0].attempts, 3);
        assert_eq!(c.degradations[0].last_error, "io_error");
        assert_eq!(c.writes_skipped, 1);
    }

    #[test]
    fn plans_keyed_off_the_coordinator_stream_never_fire() {
        let s = Storage::new(DiskFaultPlan::at((1, 0), DiskFaultKind::CrashAtBoundary), 3, 0);
        assert_eq!(s.op(false, |_| Ok(())), OpOutcome::Done);
        assert!(s.counters().is_quiet());
    }

    #[test]
    fn crash_boundary_reports_a_crash() {
        let plan = DiskFaultPlan::at((0, 0), DiskFaultKind::CrashAtBoundary);
        let s = Storage::new(plan, 3, 0);
        assert_eq!(s.op(false, |_| Ok(())), OpOutcome::Crashed);
        assert_eq!(s.counters().crashes, 1);
    }

    #[test]
    fn warn_mode_never_retries_or_degrades() {
        let mut plan = DiskFaultPlan::at((0, 0), DiskFaultKind::Io);
        plan.targeted[0].fires = 99;
        let s = Storage::new(plan, 3, 0);
        assert_eq!(s.cleanup_op(|_| Ok(())), OpOutcome::Done);
        let c = s.counters();
        assert_eq!(c.sweep_warnings, 1);
        assert_eq!(c.retries, 0);
        assert!(c.degradations.is_empty());
        assert_eq!(s.op(false, |_| Ok(())), OpOutcome::Done, "stream still live");
    }

    #[test]
    fn counters_round_trip_on_the_wire() {
        let mut c = StorageCounters {
            transient_faults: 3,
            retries: 2,
            backoff_cycles: 7_000,
            crashes: 1,
            bitrot_injected: 1,
            writes_skipped: 4,
            sweep_warnings: 2,
            corrupt_snapshots: 2,
            snapshots_repaired: 1,
            degradations: Vec::new(),
        };
        c.degradations.push(StorageDegradation {
            stream: 3,
            op: 17,
            attempts: 4,
            last_error: "no_space".into(),
        });
        let mut w = Writer::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(StorageCounters::decode(&mut r).unwrap(), c);
        assert!(r.is_empty());
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(StorageCounters::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn absorb_sums_and_concatenates() {
        let mut a = StorageCounters {
            retries: 1,
            ..StorageCounters::default()
        };
        let b = StorageCounters {
            retries: 2,
            snapshots_repaired: 1,
            degradations: vec![StorageDegradation::default()],
            ..StorageCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.retries, 3);
        assert_eq!(a.snapshots_repaired, 1);
        assert_eq!(a.degradations.len(), 1);
        assert!(!a.is_quiet());
        assert!(StorageCounters::default().is_quiet());
    }

    #[test]
    fn bit_flip_helpers_flip_exactly_one_bit() {
        let mut buf = vec![0u8; 16];
        flip_bit(&mut buf, 0x1234);
        assert_eq!(buf.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        let path = std::env::temp_dir().join(format!("aflrs-rot-{}", std::process::id()));
        fs::write(&path, vec![0u8; 32]).unwrap();
        flip_bit_in_file(&path, 0x99).unwrap();
        let rotted = fs::read(&path).unwrap();
        assert_eq!(rotted.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        let _ = fs::remove_file(&path);
    }
}
