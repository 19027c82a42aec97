//! The storage fault plane: every checkpoint/journal byte goes through
//! here, so every storage failure mode is contained, typed, and
//! deterministically testable.
//!
//! PRs 2/5/6 made campaigns survive *compute* faults — panics, hangs,
//! SIGKILLed worker processes. This module does the same for the storage
//! those recovery paths bottom out in. A [`Storage`] handle wraps each
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
//! [`DiskFaultPlan`](vmos::DiskFaultPlan): decisions are keyed by
//! `(stream, op, attempt)`, where stream 0 is the campaign's coordinator
//! control plane (snapshots, rotation, sweeps) and stream `1 + lane` is
//! that lane's journal stream. Per-stream operation numbering makes the
//! same plan hit the same operation regardless of how concurrent lanes
//! interleave — the same scheduling-independence argument as
//! [`OrchFaultPlan`](vmos::OrchFaultPlan).

use std::fs;
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use vmos::{DiskFaultKind, DiskFaultPlan, PlanKind, Reader, WireError, Writer};

/// A storage stream retired to in-memory checkpointing after exhausting
/// its retry budget. Typed and reported through
/// [`ResilienceCounters`](crate::ResilienceCounters) — the campaign
/// result carries every degradation, never a silent drop.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageDegradation {
    /// Which I/O stream degraded (0 = coordinator, `1 + lane` = that
    /// lane's journal stream).
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
/// [`CampaignResult::sans_storage`](crate::CampaignResult::sans_storage)).
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
    /// Torn journal tail records dropped during resume replay.
    pub torn_records_dropped: u64,
    /// Snapshot generations that failed checksum validation on resume.
    pub corrupt_snapshots: u64,
    /// Corrupt snapshot generations rewritten from an older good
    /// generation plus journal replay (scrub-and-repair).
    pub snapshots_repaired: u64,
    /// Streams retired to in-memory checkpointing.
    pub degradations: Vec<StorageDegradation>,
}

impl StorageCounters {
    /// Did the storage plane do anything at all?
    pub fn is_quiet(&self) -> bool {
        self == &StorageCounters::default()
    }

    /// Fold another campaign's (or worker's) counters into this one.
    pub fn absorb(&mut self, other: &StorageCounters) {
        self.transient_faults += other.transient_faults;
        self.retries += other.retries;
        self.backoff_cycles += other.backoff_cycles;
        self.crashes += other.crashes;
        self.bitrot_injected += other.bitrot_injected;
        self.writes_skipped += other.writes_skipped;
        self.sweep_warnings += other.sweep_warnings;
        self.torn_records_dropped += other.torn_records_dropped;
        self.corrupt_snapshots += other.corrupt_snapshots;
        self.snapshots_repaired += other.snapshots_repaired;
        self.degradations.extend(other.degradations.iter().cloned());
    }

    /// Encode for transfer from a worker process (barrier reporting).
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.put_u64(self.transient_faults);
        w.put_u64(self.retries);
        w.put_u64(self.backoff_cycles);
        w.put_u64(self.crashes);
        w.put_u64(self.bitrot_injected);
        w.put_u64(self.writes_skipped);
        w.put_u64(self.sweep_warnings);
        w.put_u64(self.torn_records_dropped);
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
        let torn_records_dropped = r.get_u64()?;
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
            torn_records_dropped,
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
    /// the run exactly as a power loss would (`CampaignOutcome::Killed`
    /// in-process, `process::abort()` in a worker).
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

struct StorageShared {
    plan: DiskFaultPlan,
    max_retries: u32,
    backoff_cycles: u64,
    /// Set when any stream hits an injected crash boundary; the epoch
    /// loops poll it to stop the run.
    crashed: AtomicBool,
    state: Mutex<SharedState>,
}

struct SharedState {
    counters: StorageCounters,
    streams: Vec<StreamState>,
}

impl SharedState {
    fn stream(&mut self, stream: u64) -> &mut StreamState {
        let idx = stream as usize;
        while self.streams.len() <= idx {
            self.streams.push(StreamState {
                ops: 0,
                degraded: false,
            });
        }
        &mut self.streams[idx]
    }
}

/// A handle onto the campaign's storage plane, bound to one I/O stream.
/// Cheap to clone; clones share the fault plan, counters, and per-stream
/// operation numbering.
#[derive(Clone)]
pub(crate) struct Storage {
    shared: Arc<StorageShared>,
    stream: u64,
    /// Added to the attempt coordinate of every fault decision. Worker
    /// processes set this to their lane-epoch attempt so a targeted fault
    /// consumed by attempt 0 does not re-fire when the supervisor re-runs
    /// the epoch in a respawned worker.
    base_attempt: u32,
}

impl Storage {
    /// A storage plane with `plan` injected, bound to stream 0 (the
    /// coordinator control plane).
    pub(crate) fn new(plan: DiskFaultPlan, max_retries: u32, backoff_cycles: u64) -> Self {
        Storage {
            shared: Arc::new(StorageShared {
                plan,
                max_retries,
                backoff_cycles,
                crashed: AtomicBool::new(false),
                state: Mutex::new(SharedState {
                    counters: StorageCounters::default(),
                    streams: Vec::new(),
                }),
            }),
            stream: 0,
            base_attempt: 0,
        }
    }

    /// A fault-free plane with default budgets — for paths that need a
    /// handle but no injection (unit tests, ad-hoc maintenance).
    #[cfg(test)]
    pub(crate) fn quiet() -> Self {
        Storage::new(DiskFaultPlan::none(), 3, 2_000)
    }

    /// This plane, rebound to `stream` (shares counters and numbering).
    pub(crate) fn stream(&self, stream: u64) -> Storage {
        Storage {
            shared: Arc::clone(&self.shared),
            stream,
            base_attempt: self.base_attempt,
        }
    }

    /// This plane with fault decisions offset by `base_attempt`.
    pub(crate) fn with_base_attempt(&self, base_attempt: u32) -> Storage {
        Storage {
            shared: Arc::clone(&self.shared),
            stream: self.stream,
            base_attempt,
        }
    }

    /// Has any stream hit an injected crash boundary?
    pub(crate) fn crashed(&self) -> bool {
        self.shared.crashed.load(Ordering::SeqCst)
    }

    /// Snapshot of the accumulated counters.
    pub(crate) fn counters(&self) -> StorageCounters {
        self.shared.state.lock().expect("storage lock").counters.clone()
    }

    /// Drain the accumulated counters (worker barrier reporting: each
    /// barrier ships the delta since the previous one).
    pub(crate) fn take_counters(&self) -> StorageCounters {
        std::mem::take(&mut self.shared.state.lock().expect("storage lock").counters)
    }

    /// Fold a worker's reported counters into this plane's.
    pub(crate) fn absorb(&self, other: &StorageCounters) {
        self.shared
            .state
            .lock()
            .expect("storage lock")
            .counters
            .absorb(other);
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

    /// Record a torn journal tail dropped during resume replay.
    pub(crate) fn note_torn_records(&self, n: u64) {
        self.shared
            .state
            .lock()
            .expect("storage lock")
            .counters
            .torn_records_dropped += n;
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
            let s = st.stream(self.stream);
            if s.degraded {
                st.counters.writes_skipped += 1;
                return OpOutcome::Skipped;
            }
            let op = s.ops;
            s.ops += 1;
            op
        };
        let mut attempt: u32 = 0;
        loop {
            let coord = self.base_attempt.saturating_add(attempt);
            let decided = shared.plan.decide((self.stream, op), coord);
            let aux = shared.plan.aux_bits((self.stream, op), coord);
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
                    shared.crashed.store(true, Ordering::SeqCst);
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
                    shared.crashed.store(true, Ordering::SeqCst);
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
                    stream: self.stream,
                    op,
                    attempts: u64::from(attempt) + 1,
                    last_error,
                });
                st.stream(self.stream).degraded = true;
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
        assert!(!s.crashed());
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
        let mut plan = DiskFaultPlan::at((2, 0), DiskFaultKind::Io);
        plan.targeted[0].fires = 99;
        let s = Storage::new(plan, 2, 0);
        let lane = s.stream(2);
        assert_eq!(lane.op(false, |_| Ok(())), OpOutcome::Skipped);
        // The stream is now in-memory: later ops skip without touching disk.
        let mut body_ran = false;
        assert_eq!(
            lane.op(false, |_| {
                body_ran = true;
                Ok(())
            }),
            OpOutcome::Skipped
        );
        assert!(!body_ran, "degraded streams must not attempt I/O");
        // Sibling streams are untouched.
        assert_eq!(s.op(false, |_| Ok(())), OpOutcome::Done);
        let c = s.counters();
        assert_eq!(c.degradations.len(), 1);
        assert_eq!(c.degradations[0].stream, 2);
        assert_eq!(c.degradations[0].attempts, 3);
        assert_eq!(c.degradations[0].last_error, "io_error");
        assert_eq!(c.writes_skipped, 1);
    }

    #[test]
    fn crash_boundary_sets_the_dead_flag() {
        let plan = DiskFaultPlan::at((0, 0), DiskFaultKind::CrashAtBoundary);
        let s = Storage::new(plan, 3, 0);
        assert_eq!(s.op(false, |_| Ok(())), OpOutcome::Crashed);
        assert!(s.crashed());
        assert_eq!(s.counters().crashes, 1);
    }

    #[test]
    fn base_attempt_clears_consumed_faults() {
        let plan = DiskFaultPlan::at((1, 0), DiskFaultKind::CrashAtBoundary);
        let retry = Storage::new(plan, 3, 0).stream(1).with_base_attempt(1);
        assert_eq!(
            retry.op(false, |_| Ok(())),
            OpOutcome::Done,
            "a fires=1 fault consumed by attempt 0 must not re-fire on the re-run"
        );
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
            torn_records_dropped: 1,
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
            torn_records_dropped: 1,
            degradations: vec![StorageDegradation::default()],
            ..StorageCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.retries, 3);
        assert_eq!(a.torn_records_dropped, 1);
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
