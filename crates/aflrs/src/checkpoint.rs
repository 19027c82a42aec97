//! Crash-safe campaign checkpointing: versioned snapshots plus a
//! write-ahead journal of per-execution deltas, with deterministic resume.
//!
//! A fuzzing campaign is a long-running investment; a power cut or an OOM
//! kill must not discard it. This module persists the campaign state
//! machine of [`crate::campaign`] so that a campaign killed at **any**
//! execution boundary resumes bit-for-bit identically — same coverage map,
//! same queue, same crash records, same simulated clock — as a campaign
//! that never died.
//!
//! # On-disk layout
//!
//! Inside the checkpoint directory:
//!
//! * `ckpt-{execs:012}.bin` — a full snapshot of the campaign state after
//!   `execs` executions: `"CXCK"` magic, format version, FNV-1a checksum,
//!   payload length, then the serialized state (queue + cursor, virgin
//!   map, crash records, both RNG streams, stage position, all counters,
//!   and the executor's exported state). Written atomically
//!   (write-temp-then-rename); older snapshots are rotated away, keeping
//!   [`CheckpointConfig::keep_snapshots`].
//! * `journal-{base:012}.bin` — the write-ahead journal that starts at
//!   snapshot `base`: `"CXJL"` header, then one length- and
//!   checksum-framed [`DeltaRecord`] per execution. A torn final record
//!   (the write the kill interrupted) is detected by its checksum and
//!   dropped.
//!
//! # Resume semantics
//!
//! Resume (via [`crate::Campaign::resume`]) loads the **newest snapshot
//! that validates**; a
//! corrupt or version-mismatched snapshot is skipped and the previous one
//! used instead, with the journal *chain* (`journal-{S1}` covers
//! `S1..S2`, …) replayed across the gap. Journal replay applies recorded
//! state patches — it never re-executes inputs — so resume cost is
//! proportional to the journal tail, not the campaign. Checkpoint I/O
//! charges **zero simulated cycles**: a checkpointed campaign's result is
//! identical to an uncheckpointed one.
//!
//! The executor handed to a resume must be freshly constructed
//! from the same module and configuration (construction is deterministic),
//! with any fault plan re-armed *before* the call; the checkpoint then
//! restores its mutable counters via
//! [`Executor::restore_state`](closurex::executor::Executor::restore_state).
//! Exact resume needs an export-capable executor (ClosureX, fresh
//! process); mechanisms whose `export_state` returns `None` resume with
//! fresh executor counters.

use std::fs;
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use closurex::checkpoint::ExecutorState;
use closurex::executor::Executor;
use closurex::resilience::HarnessError;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use vmos::cov::VirginMap;
use vmos::wire::fnv1a;
use vmos::{Crash, DiskFaultPlan, Reader, WireError, Writer};

use crate::campaign::{CampaignConfig, Driver, Stage, StepOutcome};
use crate::queue::QueueEntry;
use crate::stats::{CampaignResult, CrashRecord};
use crate::storage::{faulted_create, flip_bit, fsync_dir, Injected, OpOutcome, Storage};

/// Checkpoint format version; bump on any wire-layout change.
/// v2: queue entries carry the `favored` bit and the snapshot header embeds
/// the target module's fingerprint.
/// v3: `ExecutorState` carries the live process's CoW lineage
/// (`proc_cow_faults` + `proc_private_pages`) so a resumed process's
/// teardown charges match the killed run's.
pub(crate) const FORMAT_VERSION: u32 = 3;
/// Snapshot file magic.
const SNAPSHOT_MAGIC: &[u8; 4] = b"CXCK";
/// Journal file magic.
pub(crate) const JOURNAL_MAGIC: &[u8; 4] = b"CXJL";
/// Bytes before a journal's first record: magic + version + base execs.
pub(crate) const JOURNAL_HEADER_LEN: u64 = 16;

/// When checkpoint files are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync — fastest; a kill may lose OS-buffered records (they
    /// are detected as a torn tail, so correctness is unaffected).
    Never,
    /// Fsync snapshots only (the default): a kill loses at most the
    /// journal tail since the last snapshot flush.
    #[default]
    OnSnapshot,
    /// Fsync after every journal record: at most the in-flight execution
    /// is lost. Paranoid and slow.
    EveryRecord,
}

/// Checkpointing parameters.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory the snapshot/journal files live in (created on demand).
    pub dir: PathBuf,
    /// Write a full snapshot every this many executions (0 = only the
    /// initial and final snapshots; the journal covers everything else).
    pub snapshot_every_execs: u64,
    /// How many most-recent snapshots to retain; older ones (and the
    /// journals wholly before the oldest kept snapshot) are deleted.
    pub keep_snapshots: usize,
    /// Flush policy.
    pub fsync: FsyncPolicy,
    /// Simulate a SIGKILL after this many executions: the campaign stops
    /// abruptly — no final snapshot, no graceful shutdown — and returns
    /// [`CampaignOutcome::Killed`]. Test-harness hook for the
    /// kill-and-resume torture evaluation.
    pub kill_after_execs: Option<u64>,
    /// Deterministic storage fault injection (disabled by default). Every
    /// checkpoint I/O operation consults this plan; see
    /// [`vmos::DiskFaultPlan`] and the [`crate::storage`] recovery ladder.
    pub disk_faults: DiskFaultPlan,
    /// Retry budget for transient storage errors before the affected
    /// stream degrades to in-memory checkpointing.
    pub storage_retries: u32,
    /// Base simulated-cycle delay for the storage retry backoff (doubled
    /// per attempt, plus seeded jitter). Accounted in
    /// [`crate::StorageCounters::backoff_cycles`], never charged to the
    /// campaign clock.
    pub storage_backoff_cycles: u64,
}

impl CheckpointConfig {
    /// Defaults: snapshot every 2000 execs, keep 2, fsync on snapshot,
    /// no fault injection, 3 retries over a 2000-cycle backoff base.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            snapshot_every_execs: 2_000,
            keep_snapshots: 2,
            fsync: FsyncPolicy::default(),
            kill_after_execs: None,
            disk_faults: DiskFaultPlan::none(),
            storage_retries: 3,
            storage_backoff_cycles: 2_000,
        }
    }
}

/// The storage plane a config describes: its fault plan plus retry and
/// backoff budgets, bound to stream 0 (the coordinator control plane).
pub(crate) fn storage_for(ck: &CheckpointConfig) -> Storage {
    Storage::new(ck.disk_faults.clone(), ck.storage_retries, ck.storage_backoff_cycles)
}

/// How a checkpointed campaign ended.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one outcome per campaign; size is fine
pub enum CampaignOutcome {
    /// Budget exhausted (or early-stop): the normal result.
    Finished(CampaignResult),
    /// The simulated kill fired after `execs` executions; resume with
    /// [`crate::Campaign::resume`].
    Killed {
        /// Executions completed (and journaled) before the kill.
        execs: u64,
    },
}

impl CampaignOutcome {
    /// The result, if the campaign finished.
    pub fn finished(self) -> Option<CampaignResult> {
        match self {
            CampaignOutcome::Finished(r) => Some(r),
            CampaignOutcome::Killed { .. } => None,
        }
    }
}

/// What a resume found on disk — the one typed resume surface, shared by
/// single-driver, sharded, lane-per-process, and service-restored
/// campaigns, and nested into [`CampaignResult::resume`] so service status
/// and single-campaign resume report through the same struct.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResumeReport {
    /// Execution count of the snapshot the resume started from.
    pub snapshot_execs: u64,
    /// Journal records replayed on top of the snapshot.
    pub records_applied: u64,
    /// Snapshots that failed validation (corrupt / truncated / wrong
    /// version) and were skipped in favor of an older one.
    pub corrupt_snapshots_skipped: u64,
    /// Journal records dropped because they sat in (or beyond) a torn or
    /// checksum-failing region. Silent journal loss is observable: each
    /// dropped record is one execution resume will re-run.
    pub torn_records: u64,
    /// Corrupt snapshot generations rewritten during replay from an older
    /// good generation plus the journal chain (scrub-and-repair).
    pub snapshots_repaired: u64,
    /// Orphaned tmp files the pre-replay sweep could not remove (see
    /// [`crate::StorageCounters::sweep_warnings`]).
    pub sweep_warnings: u64,
    /// Whether the target's lowered image was available without a
    /// re-lower when the resume validated it (`false` also when the
    /// mechanism does not use the decoded engine). Resume warms the cache
    /// either way, so the replayed campaign never pays a lazy mid-run
    /// lowering the original did not.
    pub decoded_image_ready: bool,
    /// Where the decoded image came from: in-memory cache, sidecar file,
    /// or a fresh lowering (`None` when the mechanism does not use the
    /// decoded engine).
    pub decoded_image_source: Option<vmos::WarmSource>,
}

impl ResumeReport {
    /// Record where the decoded-image warm-up got its image from.
    pub(crate) fn note_decoded_image(&mut self, source: Option<vmos::WarmSource>) {
        self.decoded_image_source = source;
        self.decoded_image_ready = source.is_some_and(vmos::WarmSource::was_warm);
    }
}

/// Checkpointing failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// No snapshot in the directory survived validation.
    NoUsableSnapshot,
    /// The executor refused to restore the checkpointed state.
    Executor(HarnessError),
    /// The snapshot was written against a different target module: the
    /// fingerprint embedded in its header does not match the executor's.
    /// Resuming would replay decisions made for other code — refuse.
    TargetMismatch {
        /// Fingerprint in the snapshot header.
        snapshot: u64,
        /// Fingerprint of the module the executor actually runs.
        executor: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            CheckpointError::NoUsableSnapshot => {
                write!(f, "no usable snapshot in checkpoint directory")
            }
            CheckpointError::Executor(e) => write!(f, "executor state restore failed: {e}"),
            CheckpointError::TargetMismatch { snapshot, executor } => write!(
                f,
                "snapshot was written for module {snapshot:#018x}, executor runs {executor:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Wire codecs for the campaign types.
// ---------------------------------------------------------------------------

impl Stage {
    fn encode(self, w: &mut Writer) {
        match self {
            Stage::Seeds(i) => {
                w.put_u8(0);
                w.put_usize(i);
                w.put_u64(0);
            }
            Stage::Pick => {
                w.put_u8(1);
                w.put_u64(0);
                w.put_u64(0);
            }
            Stage::Det { entry, mutant } => {
                w.put_u8(2);
                w.put_usize(entry);
                w.put_usize(mutant);
            }
            Stage::Havoc { entry, iter } => {
                w.put_u8(3);
                w.put_usize(entry);
                w.put_u64(u64::from(iter));
            }
            Stage::Done => {
                w.put_u8(4);
                w.put_u64(0);
                w.put_u64(0);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        let a = r.get_u64()?;
        let b = r.get_u64()?;
        Ok(match tag {
            0 => Stage::Seeds(a as usize),
            1 => Stage::Pick,
            2 => Stage::Det {
                entry: a as usize,
                mutant: b as usize,
            },
            3 => Stage::Havoc {
                entry: a as usize,
                iter: u32::try_from(b).map_err(|_| WireError::Malformed("havoc iter"))?,
            },
            4 => Stage::Done,
            _ => return Err(WireError::Malformed("stage tag")),
        })
    }
}

fn encode_entry(e: &QueueEntry, w: &mut Writer) {
    w.put_bytes(&e.data);
    w.put_u64(e.exec_cycles);
    w.put_u64(e.found_at);
    w.put_bool(e.det_done);
    w.put_bool(e.favored);
}

fn decode_entry(r: &mut Reader<'_>) -> Result<QueueEntry, WireError> {
    Ok(QueueEntry {
        data: r.get_bytes()?,
        exec_cycles: r.get_u64()?,
        found_at: r.get_u64()?,
        det_done: r.get_bool()?,
        favored: r.get_bool()?,
    })
}

pub(crate) fn encode_crash_record(c: &CrashRecord, w: &mut Writer) {
    c.crash.encode(w);
    w.put_u64(c.found_at_cycles);
    w.put_bytes(&c.input);
    w.put_u64(c.hits);
    w.put_bool(c.flaky);
}

pub(crate) fn decode_crash_record(r: &mut Reader<'_>) -> Result<CrashRecord, WireError> {
    Ok(CrashRecord {
        crash: Crash::decode(r)?,
        found_at_cycles: r.get_u64()?,
        input: r.get_bytes()?,
        hits: r.get_u64()?,
        flaky: r.get_bool()?,
    })
}

fn encode_rng(s: [u64; 4], w: &mut Writer) {
    for v in s {
        w.put_u64(v);
    }
}

fn decode_rng(r: &mut Reader<'_>) -> Result<[u64; 4], WireError> {
    let mut s = [0u64; 4];
    for v in &mut s {
        *v = r.get_u64()?;
    }
    Ok(s)
}

fn encode_exec_state(es: &Option<ExecutorState>, w: &mut Writer) {
    match es {
        Some(s) => {
            w.put_bool(true);
            s.encode(w);
        }
        None => w.put_bool(false),
    }
}

fn decode_exec_state(r: &mut Reader<'_>) -> Result<Option<ExecutorState>, WireError> {
    Ok(if r.get_bool()? {
        Some(ExecutorState::decode(r)?)
    } else {
        None
    })
}

/// The shared scalar block both snapshots and deltas carry: absolute
/// values of every behavior-relevant campaign scalar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Scalars {
    pub(crate) stage: Stage,
    pub(crate) clock: u64,
    pub(crate) execs: u64,
    pub(crate) hangs: u64,
    pub(crate) mgmt_cycles: u64,
    pub(crate) exec_cycles: u64,
    pub(crate) retries: u64,
    pub(crate) dropped_inputs: u64,
    pub(crate) harness_faults: u64,
    pub(crate) consecutive_hangs: u64,
    pub(crate) watchdog_trips: u64,
    pub(crate) rng: [u64; 4],
    pub(crate) backoff_rng: [u64; 4],
    pub(crate) cursor: u64,
}

impl Scalars {
    pub(crate) fn capture(d: &Driver<'_>) -> Self {
        Scalars {
            stage: d.stage,
            clock: d.clock,
            execs: d.execs,
            hangs: d.hangs,
            mgmt_cycles: d.mgmt_cycles,
            exec_cycles: d.exec_cycles,
            retries: d.retries,
            dropped_inputs: d.dropped_inputs,
            harness_faults: d.harness_faults,
            consecutive_hangs: d.consecutive_hangs,
            watchdog_trips: d.watchdog_trips,
            rng: d.rng.state(),
            backoff_rng: d.backoff_rng.state(),
            cursor: d.queue.cursor() as u64,
        }
    }

    pub(crate) fn apply(&self, d: &mut Driver<'_>) {
        d.stage = self.stage;
        d.clock = self.clock;
        d.execs = self.execs;
        d.hangs = self.hangs;
        d.mgmt_cycles = self.mgmt_cycles;
        d.exec_cycles = self.exec_cycles;
        d.retries = self.retries;
        d.dropped_inputs = self.dropped_inputs;
        d.harness_faults = self.harness_faults;
        d.consecutive_hangs = self.consecutive_hangs;
        d.watchdog_trips = self.watchdog_trips;
        d.rng = SmallRng::from_state(self.rng);
        d.backoff_rng = SmallRng::from_state(self.backoff_rng);
        d.queue.set_cursor(self.cursor as usize);
    }

    fn encode(&self, w: &mut Writer) {
        self.stage.encode(w);
        w.put_u64(self.clock);
        w.put_u64(self.execs);
        w.put_u64(self.hangs);
        w.put_u64(self.mgmt_cycles);
        w.put_u64(self.exec_cycles);
        w.put_u64(self.retries);
        w.put_u64(self.dropped_inputs);
        w.put_u64(self.harness_faults);
        w.put_u64(self.consecutive_hangs);
        w.put_u64(self.watchdog_trips);
        encode_rng(self.rng, w);
        encode_rng(self.backoff_rng, w);
        w.put_u64(self.cursor);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Scalars {
            stage: Stage::decode(r)?,
            clock: r.get_u64()?,
            execs: r.get_u64()?,
            hangs: r.get_u64()?,
            mgmt_cycles: r.get_u64()?,
            exec_cycles: r.get_u64()?,
            retries: r.get_u64()?,
            dropped_inputs: r.get_u64()?,
            harness_faults: r.get_u64()?,
            consecutive_hangs: r.get_u64()?,
            watchdog_trips: r.get_u64()?,
            rng: decode_rng(r)?,
            backoff_rng: decode_rng(r)?,
            cursor: r.get_u64()?,
        })
    }
}

/// A full campaign snapshot: the serializable image of a [`Driver`].
#[derive(Debug, Clone)]
pub(crate) struct SnapshotState {
    pub(crate) scalars: Scalars,
    pub(crate) entries: Vec<QueueEntry>,
    pub(crate) virgin: VirginMap,
    pub(crate) crashes: Vec<CrashRecord>,
    pub(crate) exec_state: Option<ExecutorState>,
}

impl SnapshotState {
    pub(crate) fn capture(d: &Driver<'_>) -> Self {
        SnapshotState {
            scalars: Scalars::capture(d),
            entries: d.queue.iter().cloned().collect(),
            virgin: d.virgin.clone(),
            crashes: d.crashes.clone(),
            exec_state: d.executor.export_state(),
        }
    }

    /// Install this snapshot into a freshly constructed driver.
    pub(crate) fn apply(self, d: &mut Driver<'_>) -> Result<(), CheckpointError> {
        for e in self.entries {
            d.queue.push(e);
        }
        self.scalars.apply(d); // after pushes: cursor must not be clobbered
        d.virgin = self.virgin;
        d.crashes = self.crashes;
        d.rebuild_crash_sites();
        d.journaled_queue_len = d.queue.len();
        d.journaled_crash_len = d.crashes.len();
        if let Some(es) = &self.exec_state {
            d.executor.restore_state(es).map_err(CheckpointError::Executor)?;
        }
        Ok(())
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.scalars.encode(&mut w);
        w.put_usize(self.entries.len());
        for e in &self.entries {
            encode_entry(e, &mut w);
        }
        self.virgin.encode(&mut w);
        w.put_usize(self.crashes.len());
        for c in &self.crashes {
            encode_crash_record(c, &mut w);
        }
        encode_exec_state(&self.exec_state, &mut w);
        w.into_bytes()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let scalars = Scalars::decode(&mut r)?;
        let n = r.get_count()?;
        if n > r.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(decode_entry(&mut r)?);
        }
        let virgin = VirginMap::decode(&mut r)?;
        let n = r.get_count()?;
        if n > r.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        let mut crashes = Vec::with_capacity(n);
        for _ in 0..n {
            crashes.push(decode_crash_record(&mut r)?);
        }
        let exec_state = decode_exec_state(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::Malformed("trailing snapshot bytes"));
        }
        Ok(SnapshotState {
            scalars,
            entries,
            virgin,
            crashes,
            exec_state,
        })
    }
}

/// One journaled execution: the absolute post-execution scalars plus the
/// incremental collection changes since the previous record. Replay is a
/// pure state patch — no input is re-executed.
#[derive(Debug, Clone)]
pub(crate) struct DeltaRecord {
    pub(crate) scalars: Scalars,
    pub(crate) new_entries: Vec<QueueEntry>,
    pub(crate) det_done: Vec<u64>,
    pub(crate) new_crashes: Vec<CrashRecord>,
    pub(crate) crash_hits: Vec<(u64, u64)>,
    pub(crate) virgin: Vec<(u32, u8)>,
    pub(crate) exec_state: Option<ExecutorState>,
}

impl DeltaRecord {
    /// Drain the driver's pending-delta trackers into a record.
    pub(crate) fn take(d: &mut Driver<'_>) -> Self {
        let new_entries: Vec<QueueEntry> =
            d.queue.iter().skip(d.journaled_queue_len).cloned().collect();
        d.journaled_queue_len = d.queue.len();
        let new_crashes = d.crashes[d.journaled_crash_len..].to_vec();
        d.journaled_crash_len = d.crashes.len();
        DeltaRecord {
            scalars: Scalars::capture(d),
            new_entries,
            det_done: std::mem::take(&mut d.pending_det_done)
                .into_iter()
                .map(|i| i as u64)
                .collect(),
            new_crashes,
            crash_hits: std::mem::take(&mut d.pending_crash_hits)
                .into_iter()
                .map(|(i, h)| (i as u64, h))
                .collect(),
            virgin: std::mem::take(&mut d.pending_virgin)
                .into_iter()
                .map(|(i, v)| (i as u32, v))
                .collect(),
            exec_state: d.executor.export_state(),
        }
    }

    /// Patch the driver's state with this record. The executor state is
    /// *not* applied here (only the final record's matters; the caller
    /// applies it once at the end of replay).
    pub(crate) fn apply(&self, d: &mut Driver<'_>) {
        for e in &self.new_entries {
            d.queue.push(e.clone());
        }
        self.scalars.apply(d);
        for &i in &self.det_done {
            if let Some(e) = d.queue.get_mut(i as usize) {
                e.det_done = true;
            }
        }
        for c in &self.new_crashes {
            d.crash_sites.insert(c.crash.site_key(), d.crashes.len());
            d.crashes.push(c.clone());
        }
        for &(i, hits) in &self.crash_hits {
            if let Some(rec) = d.crashes.get_mut(i as usize) {
                rec.hits = hits;
            }
        }
        for &(i, v) in &self.virgin {
            d.virgin.set_byte(i as usize, v);
        }
        d.journaled_queue_len = d.queue.len();
        d.journaled_crash_len = d.crashes.len();
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.scalars.encode(&mut w);
        w.put_usize(self.new_entries.len());
        for e in &self.new_entries {
            encode_entry(e, &mut w);
        }
        w.put_usize(self.det_done.len());
        for &i in &self.det_done {
            w.put_u64(i);
        }
        w.put_usize(self.new_crashes.len());
        for c in &self.new_crashes {
            encode_crash_record(c, &mut w);
        }
        w.put_usize(self.crash_hits.len());
        for &(i, h) in &self.crash_hits {
            w.put_u64(i);
            w.put_u64(h);
        }
        w.put_usize(self.virgin.len());
        for &(i, v) in &self.virgin {
            w.put_u32(i);
            w.put_u8(v);
        }
        encode_exec_state(&self.exec_state, &mut w);
        w.into_bytes()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let scalars = Scalars::decode(&mut r)?;
        let n = r.get_count()?;
        if n > r.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        let mut new_entries = Vec::with_capacity(n);
        for _ in 0..n {
            new_entries.push(decode_entry(&mut r)?);
        }
        let n = r.get_count()?;
        if n > r.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        let mut det_done = Vec::with_capacity(n);
        for _ in 0..n {
            det_done.push(r.get_u64()?);
        }
        let n = r.get_count()?;
        if n > r.remaining() / 8 {
            return Err(WireError::Truncated);
        }
        let mut new_crashes = Vec::with_capacity(n);
        for _ in 0..n {
            new_crashes.push(decode_crash_record(&mut r)?);
        }
        let n = r.get_count()?;
        if n > r.remaining() / 16 {
            return Err(WireError::Truncated);
        }
        let mut crash_hits = Vec::with_capacity(n);
        for _ in 0..n {
            crash_hits.push((r.get_u64()?, r.get_u64()?));
        }
        let n = r.get_count()?;
        if n > r.remaining() / 5 {
            return Err(WireError::Truncated);
        }
        let mut virgin = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.get_u32()?;
            if i as usize >= vmos::MAP_SIZE {
                return Err(WireError::Malformed("virgin index out of range"));
            }
            virgin.push((i, r.get_u8()?));
        }
        let exec_state = decode_exec_state(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::Malformed("trailing delta bytes"));
        }
        Ok(DeltaRecord {
            scalars,
            new_entries,
            det_done,
            new_crashes,
            crash_hits,
            virgin,
            exec_state,
        })
    }
}

// ---------------------------------------------------------------------------
// Files.
// ---------------------------------------------------------------------------

fn snapshot_path(dir: &Path, execs: u64) -> PathBuf {
    dir.join(format!("ckpt-{execs:012}.bin"))
}

fn journal_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("journal-{base:012}.bin"))
}

/// Parse `{prefix}-{12 digits}.bin` file names, returning the number.
pub(crate) fn parse_numbered(name: &str, prefix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(".bin")?;
    (rest.len() == 12 && rest.bytes().all(|b| b.is_ascii_digit()))
        .then(|| rest.parse().ok())
        .flatten()
}

/// All `{prefix}-N.bin` files in `dir`, sorted ascending by N.
pub(crate) fn list_numbered(dir: &Path, prefix: &str) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(n) = entry.file_name().to_str().and_then(|s| parse_numbered(s, prefix)) {
            out.push((n, entry.path()));
        }
    }
    out.sort_by_key(|(n, _)| *n);
    Ok(out)
}

/// Byte length of the sealed-snapshot header: magic + version + target
/// fingerprint + checksum + payload length.
pub(crate) const SNAPSHOT_HEADER_LEN: usize = 32;

/// Seal a snapshot payload with the magic + version + target-fingerprint +
/// checksum header. `fingerprint` is the executing module's
/// `Module::fingerprint` (0 when the mechanism does not pin one); resume
/// validates it against the freshly constructed executor so state recorded
/// for one target can never be replayed onto another.
pub(crate) fn seal_snapshot(payload: &[u8], fingerprint: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + SNAPSHOT_HEADER_LEN);
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&fingerprint.to_le_bytes());
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Atomically write sealed snapshot bytes through the storage plane:
/// write to a temp file, optionally fsync it, rename into place, then
/// fsync the parent directory so the rename itself is durable (without
/// the directory fsync a power loss can lose the committed dirent — the
/// classic rename-without-dir-fsync bug). Each of those four steps is one
/// storage operation: a distinct retry scope, kill point, and fault-grid
/// cell.
pub(crate) fn write_sealed(
    storage: &Storage,
    final_path: &Path,
    bytes: &[u8],
    fsync: FsyncPolicy,
) -> OpOutcome {
    let tmp = final_path.with_extension("tmp");
    // Op: write the temp file (recreated from scratch per attempt, so
    // retries after a short write are idempotent).
    let o = storage.op(false, |inj| faulted_create(&tmp, bytes, inj));
    if o != OpOutcome::Done {
        return o;
    }
    if fsync != FsyncPolicy::Never {
        // Op: flush the payload to stable storage.
        let o = storage.op(false, |inj| {
            if let Injected::Bitrot(aux) = inj {
                crate::storage::flip_bit_in_file(&tmp, *aux)?;
            }
            fs::File::open(&tmp)?.sync_data()
        });
        if o != OpOutcome::Done {
            return o;
        }
    }
    // Op: commit by rename. An injected partial/lost outcome leaves the
    // rename undone (the syscall never took effect); a retry after an
    // already-committed rename is a no-op.
    let o = storage.op(true, |inj| match inj {
        Injected::SkipRename | Injected::Partial(_) => Ok(()),
        Injected::Bitrot(aux) => {
            fs::rename(&tmp, final_path)?;
            crate::storage::flip_bit_in_file(final_path, *aux)
        }
        Injected::None => match fs::rename(&tmp, final_path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && final_path.is_file() => Ok(()),
            r => r,
        },
    });
    if o != OpOutcome::Done {
        return o;
    }
    if fsync != FsyncPolicy::Never {
        if let Some(parent) = final_path.parent() {
            // Op: make the rename durable. A crash at this boundary models
            // power loss after rename but before the dirent reached the
            // platter with the entry surviving; `rename_lost` at the
            // previous op models it not surviving.
            let o = storage.op(false, |inj| {
                if let Injected::Bitrot(aux) = inj {
                    crate::storage::flip_bit_in_file(final_path, *aux)?;
                }
                fsync_dir(parent)
            });
            if o != OpOutcome::Done {
                return o;
            }
        }
    }
    OpOutcome::Done
}

/// Capture + seal + atomically write one driver's snapshot.
fn write_snapshot(storage: &Storage, dir: &Path, d: &Driver<'_>, fsync: FsyncPolicy) -> OpOutcome {
    let fp = d.executor.module_fingerprint().unwrap_or(0);
    let bytes = seal_snapshot(&SnapshotState::capture(d).encode(), fp);
    write_sealed(storage, &snapshot_path(dir, d.execs), &bytes, fsync)
}

/// Little-endian `u32` at `at`, as a wire error instead of a panicking
/// `expect` — header parsing sits on the campaign control path, where a
/// malformed file must surface as a typed error, never an abort.
fn le_u32(bytes: &[u8], at: usize) -> Result<u32, WireError> {
    bytes
        .get(at..at + 4)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or(WireError::Truncated)
}

/// Little-endian `u64` at `at` (see [`le_u32`]).
fn le_u64(bytes: &[u8], at: usize) -> Result<u64, WireError> {
    bytes
        .get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or(WireError::Truncated)
}

/// Validate a sealed snapshot's header + checksum, returning the embedded
/// target fingerprint and the payload slice.
pub(crate) fn open_sealed(bytes: &[u8]) -> Result<(u64, &[u8]), WireError> {
    if bytes.len() < SNAPSHOT_HEADER_LEN || &bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(WireError::Malformed("snapshot magic"));
    }
    let version = le_u32(bytes, 4)?;
    if version != FORMAT_VERSION {
        return Err(WireError::Malformed("snapshot version"));
    }
    let fingerprint = le_u64(bytes, 8)?;
    let checksum = le_u64(bytes, 16)?;
    let len = le_u64(bytes, 24)?;
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    if len != payload.len() as u64 {
        return Err(WireError::Truncated);
    }
    if fnv1a(payload) != checksum {
        return Err(WireError::Malformed("snapshot checksum"));
    }
    Ok((fingerprint, payload))
}

/// Load and validate one snapshot file, returning the state and the target
/// fingerprint embedded in its header.
pub(crate) fn load_snapshot(path: &Path) -> Result<(SnapshotState, u64), WireError> {
    let bytes = fs::read(path).map_err(|_| WireError::Truncated)?;
    let (fingerprint, payload) = open_sealed(&bytes)?;
    Ok((SnapshotState::decode(payload)?, fingerprint))
}

/// Check a snapshot's embedded target fingerprint against the executor's.
/// A mismatch is only detectable when both sides pin one (nonzero in the
/// header, `Some` from the executor).
pub(crate) fn check_target(
    snapshot_fp: u64,
    executor: &dyn Executor,
) -> Result<(), CheckpointError> {
    if let Some(fp) = executor.module_fingerprint() {
        if snapshot_fp != 0 && snapshot_fp != fp {
            return Err(CheckpointError::TargetMismatch {
                snapshot: snapshot_fp,
                executor: fp,
            });
        }
    }
    Ok(())
}

/// Remove orphaned `*.tmp` files a crashed [`write_sealed`] left behind —
/// the process died between `File::create` and the rename, so the file is
/// garbage by construction (a completed write always renames). Swept on
/// campaign start, resume, and every rotation, so failed atomic writes can
/// never accumulate in the checkpoint directory. Only snapshot-shaped
/// names are touched; anything else in the directory is not ours to
/// delete.
/// Sweeping is cleanup, not correctness: every failure (an unreadable
/// directory, an undeletable file) is a counted
/// [`StorageCounters::sweep_warnings`](crate::StorageCounters) warning,
/// never an error into campaign start or resume.
pub(crate) fn sweep_orphan_tmp(storage: &Storage, dir: &Path) -> OpOutcome {
    let mut failed = 0u64;
    let o = storage.cleanup_op(|_| {
        if !dir.is_dir() {
            return Ok(());
        }
        for entry in fs::read_dir(dir)? {
            let Ok(entry) = entry else {
                failed += 1;
                continue;
            };
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp")
                && (name.starts_with("ckpt-") || name.starts_with("shard-ckpt-"))
                && fs::remove_file(entry.path()).is_err()
            {
                failed += 1;
            }
        }
        Ok(())
    });
    if failed > 0 {
        storage.note_sweep_warnings(failed);
    }
    o
}

/// Delete snapshots beyond the newest `keep`, and journals that start
/// before the oldest kept snapshot (nothing can resume from them anymore).
/// Unlink failures are counted warnings (a file we failed to delete today
/// is retried by the next rotation); successful unlinks are made durable
/// with a directory fsync.
fn rotate(storage: &Storage, dir: &Path, keep: usize, fsync: FsyncPolicy) -> OpOutcome {
    let o = sweep_orphan_tmp(storage, dir);
    if o.crashed() {
        return o;
    }
    let mut failed = 0u64;
    let mut removed = false;
    let o = storage.cleanup_op(|_| {
        let snaps = list_numbered(dir, "ckpt-")?;
        let keep = keep.max(1);
        if snaps.len() <= keep {
            return Ok(());
        }
        let cutoff = snaps[snaps.len() - keep].0;
        for (_, path) in &snaps[..snaps.len() - keep] {
            match fs::remove_file(path) {
                Ok(()) => removed = true,
                Err(_) => failed += 1,
            }
        }
        for (base, path) in list_numbered(dir, "journal-")? {
            if base < cutoff {
                match fs::remove_file(&path) {
                    Ok(()) => removed = true,
                    Err(_) => failed += 1,
                }
            }
        }
        Ok(())
    });
    if failed > 0 {
        storage.note_sweep_warnings(failed);
    }
    if o.crashed() {
        return o;
    }
    if removed && fsync != FsyncPolicy::Never {
        // Op: unlinks are directory mutations too — make them durable.
        return storage.op(false, |_| fsync_dir(dir));
    }
    o
}

/// The append side of the write-ahead journal. All I/O routes through the
/// storage plane: `file` is `None` when the journal's stream degraded
/// before (or at) creation — appends then skip, counted, and the campaign
/// continues with in-memory state only.
pub(crate) struct Journal {
    file: Option<fs::File>,
    fsync: FsyncPolicy,
    storage: Storage,
}

impl Journal {
    /// Create (truncating) the journal for snapshot `base`.
    fn create(storage: &Storage, dir: &Path, base: u64, fsync: FsyncPolicy) -> (Self, OpOutcome) {
        Self::create_at(storage, &journal_path(dir, base), base, fsync)
    }

    /// Create (truncating) a journal at an explicit path — the sharded
    /// runner names its per-lane journals outside the `journal-{base}`
    /// scheme but shares the format.
    pub(crate) fn create_at(
        storage: &Storage,
        path: &Path,
        base: u64,
        fsync: FsyncPolicy,
    ) -> (Self, OpOutcome) {
        let mut header = Vec::with_capacity(JOURNAL_HEADER_LEN as usize);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&base.to_le_bytes());
        let mut file = None;
        let o = storage.op(false, |inj| {
            file = None; // discard any handle from a failed attempt
            faulted_create(path, &header, inj)?;
            let mut f = fs::OpenOptions::new().write(true).open(path)?;
            f.seek(SeekFrom::End(0))?;
            if fsync != FsyncPolicy::Never {
                f.sync_data()?;
            }
            file = Some(f);
            Ok(())
        });
        let file = if o == OpOutcome::Done { file } else { None };
        (
            Journal {
                file,
                fsync,
                storage: storage.clone(),
            },
            o,
        )
    }

    /// Re-open an existing journal after replay, truncating away a torn
    /// tail (`valid_len` is the last byte replay validated).
    pub(crate) fn reopen(
        storage: &Storage,
        path: &Path,
        valid_len: u64,
        fsync: FsyncPolicy,
    ) -> (Self, OpOutcome) {
        let mut file = None;
        let o = storage.op(false, |inj| {
            file = None;
            let f = fs::OpenOptions::new().read(true).write(true).open(path)?;
            f.set_len(valid_len)?;
            let mut f = f;
            f.seek(SeekFrom::End(0))?;
            if let Injected::Bitrot(aux) = inj {
                crate::storage::flip_bit_in_file(path, *aux)?;
            }
            file = Some(f);
            Ok(())
        });
        let file = if o == OpOutcome::Done { file } else { None };
        (
            Journal {
                file,
                fsync,
                storage: storage.clone(),
            },
            o,
        )
    }

    /// Append one length- and checksum-framed record. One storage
    /// operation: a retry truncates back to the record start first, so a
    /// short write never leaves garbage in front of the re-written frame.
    pub(crate) fn append(&mut self, rec: &DeltaRecord) -> OpOutcome {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let start = match self.file.as_mut() {
            Some(f) => f.stream_position().ok(),
            None => None,
        };
        let file = &mut self.file;
        let fsync = self.fsync;
        self.storage.op(false, |inj| {
            let (Some(f), Some(start)) = (file.as_mut(), start) else {
                return Ok(());
            };
            f.set_len(start)?;
            f.seek(SeekFrom::Start(start))?;
            match inj {
                Injected::Partial(aux) => {
                    let keep = (*aux as usize) % (frame.len() + 1);
                    f.write_all(&frame[..keep])
                }
                Injected::Bitrot(aux) => {
                    let mut rotted = frame.clone();
                    flip_bit(&mut rotted, *aux);
                    f.write_all(&rotted)?;
                    if fsync == FsyncPolicy::EveryRecord {
                        f.sync_data()?;
                    }
                    Ok(())
                }
                _ => {
                    f.write_all(&frame)?;
                    if fsync == FsyncPolicy::EveryRecord {
                        f.sync_data()?;
                    }
                    Ok(())
                }
            }
        })
    }
}

/// Read a journal, validating the header against `expected_base` and every
/// record's checksum. Returns the decoded records, the byte length of the
/// valid prefix, and how many records beyond it were dropped (0 = clean).
/// The dropped count is exact when the bad record's length field still
/// walks the buffer (a payload bit flip) and a lower bound of 1 when
/// framing itself is destroyed (a true torn tail). A journal whose
/// *header* is invalid yields `None` (it cannot be chained or appended to).
#[allow(clippy::type_complexity)]
pub(crate) fn read_journal(path: &Path, expected_base: u64) -> Option<(Vec<DeltaRecord>, u64, u64)> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < JOURNAL_HEADER_LEN as usize
        || &bytes[0..4] != JOURNAL_MAGIC
        || le_u32(&bytes, 4).ok()? != FORMAT_VERSION
        || le_u64(&bytes, 8).ok()? != expected_base
    {
        return None;
    }
    let mut records = Vec::new();
    let mut pos = JOURNAL_HEADER_LEN as usize;
    let mut dropped = 0u64;
    while pos < bytes.len() {
        if pos + 12 > bytes.len() {
            dropped = 1; // partial frame header: one interrupted record
            break;
        }
        let len = le_u32(&bytes, pos).ok()? as usize;
        let checksum = le_u64(&bytes, pos + 4).ok()?;
        let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else {
            dropped = 1; // frame overruns the file: one torn record
            break;
        };
        let rec = (fnv1a(payload) == checksum)
            .then(|| DeltaRecord::decode(payload).ok())
            .flatten();
        let Some(rec) = rec else {
            // The frame walks but its payload is bad (bit rot, not a torn
            // write). Count it and every still-framed record behind it —
            // replay cannot safely resync past corruption, but the loss
            // must be observable.
            dropped = 1 + count_framed(&bytes, pos + 12 + len);
            break;
        };
        records.push(rec);
        pos += 12 + len;
    }
    Some((records, pos as u64, dropped))
}

/// Count length-framed records from `pos` to the end of the buffer,
/// stopping at the first frame that does not fit. Used only to size the
/// loss behind a corrupt record — nothing here is replayed.
fn count_framed(bytes: &[u8], mut pos: usize) -> u64 {
    let mut n = 0;
    while pos + 12 <= bytes.len() {
        let Ok(len) = le_u32(bytes, pos) else { break };
        let end = pos + 12 + len as usize;
        if end > bytes.len() {
            break;
        }
        n += 1;
        pos = end;
    }
    n
}

// ---------------------------------------------------------------------------
// The checkpointed campaign loop.
// ---------------------------------------------------------------------------

/// Step the driver to completion (or the simulated kill), journaling each
/// execution and snapshotting on cadence. A storage operation that hits an
/// injected crash boundary stops the run exactly like the simulated
/// SIGKILL — whatever reached the files is all resume gets.
fn drive(
    mut d: Driver<'_>,
    ck: &CheckpointConfig,
    storage: &Storage,
    mut journal: Journal,
) -> Result<CampaignOutcome, CheckpointError> {
    loop {
        if d.step() == StepOutcome::Finished {
            let mut result = d.finish();
            // A final snapshot so a finished directory is self-describing.
            if write_snapshot(storage, &ck.dir, &d, ck.fsync).crashed()
                || rotate(storage, &ck.dir, ck.keep_snapshots, ck.fsync).crashed()
            {
                return Ok(CampaignOutcome::Killed { execs: d.execs });
            }
            result.resilience.storage = storage.counters();
            return Ok(CampaignOutcome::Finished(result));
        }
        if journal.append(&DeltaRecord::take(&mut d)).crashed() {
            return Ok(CampaignOutcome::Killed { execs: d.execs });
        }
        if let Some(k) = ck.kill_after_execs {
            if d.execs >= k {
                // Simulated SIGKILL: stop right here — no snapshot, no
                // cleanup. Whatever reached the files is all resume gets.
                return Ok(CampaignOutcome::Killed { execs: d.execs });
            }
        }
        if ck.snapshot_every_execs > 0 && d.execs.is_multiple_of(ck.snapshot_every_execs) {
            if write_snapshot(storage, &ck.dir, &d, ck.fsync).crashed()
                || rotate(storage, &ck.dir, ck.keep_snapshots, ck.fsync).crashed()
            {
                return Ok(CampaignOutcome::Killed { execs: d.execs });
            }
            let (j, o) = Journal::create(storage, &ck.dir, d.execs, ck.fsync);
            if o.crashed() {
                return Ok(CampaignOutcome::Killed { execs: d.execs });
            }
            journal = j;
        }
    }
}

/// Run a fresh campaign with crash-safe checkpointing (internal; the
/// [`crate::Campaign`] builder and the deprecated wrapper dispatch here).
pub(crate) fn run_checkpointed_impl<'e>(
    executor: &'e mut dyn Executor,
    revalidator: Option<&'e mut dyn Executor>,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    ck: &CheckpointConfig,
) -> Result<CampaignOutcome, CheckpointError> {
    let storage = storage_for(ck);
    // Even directory creation rides the ladder: if the checkpoint
    // directory cannot be made, the campaign degrades to in-memory
    // checkpointing instead of refusing to start.
    if storage.op(false, |_| fs::create_dir_all(&ck.dir)).crashed()
        || sweep_orphan_tmp(&storage, &ck.dir).crashed()
    {
        return Ok(CampaignOutcome::Killed { execs: 0 });
    }
    // Best-effort decoded-image sidecar next to the snapshots, so resume —
    // possibly in another process — skips the re-lower. Outside the
    // storage fault plane: it is a cache, never campaign state.
    executor.save_decoded_sidecar(&ck.dir);
    let d = Driver::new(executor, revalidator, seeds, cfg, true);
    if write_snapshot(&storage, &ck.dir, &d, ck.fsync).crashed() {
        return Ok(CampaignOutcome::Killed { execs: 0 });
    }
    let (journal, o) = Journal::create(&storage, &ck.dir, 0, ck.fsync);
    if o.crashed() {
        return Ok(CampaignOutcome::Killed { execs: 0 });
    }
    drive(d, ck, &storage, journal)
}

/// Resume a killed campaign from its checkpoint directory (the
/// [`crate::Campaign`] builder dispatches here). See the module docs for
/// the snapshot-fallback and journal-chaining semantics. The `executor`
/// (and `revalidator`) must be freshly constructed over the same module
/// and configuration as the original run, with any fault plan already
/// re-armed.
///
/// # Errors
/// [`CheckpointError::NoUsableSnapshot`] when every snapshot fails
/// validation; I/O and executor-restore failures otherwise. Corrupt
/// snapshots and torn journal tails are *not* errors — they are skipped
/// (counted in [`ResumeReport`]) and the campaign falls back to the newest
/// state that validates.
pub(crate) fn resume_impl<'e>(
    executor: &'e mut dyn Executor,
    revalidator: Option<&'e mut dyn Executor>,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    ck: &CheckpointConfig,
) -> Result<(CampaignOutcome, ResumeReport), CheckpointError> {
    let storage = storage_for(ck);
    let mut info = ResumeReport::default();
    if sweep_orphan_tmp(&storage, &ck.dir).crashed() {
        return Ok((CampaignOutcome::Killed { execs: 0 }, info));
    }
    // Scrub: checksum-verify generations newest-first. Corrupt ones are
    // skipped (and remembered — replay repairs any it walks back over);
    // an unreadable directory is simply a directory with no snapshots.
    let snaps = list_numbered(&ck.dir, "ckpt-").unwrap_or_default();
    let mut chosen = None;
    let mut corrupt: Vec<(u64, PathBuf)> = Vec::new();
    for (execs, path) in snaps.iter().rev() {
        match load_snapshot(path) {
            Ok((state, fp)) => {
                chosen = Some((*execs, state, fp));
                break;
            }
            Err(_) => {
                info.corrupt_snapshots_skipped += 1;
                storage.note_corrupt_snapshot();
                corrupt.push((*execs, path.clone()));
            }
        }
    }
    let Some((snapshot_execs, state, snapshot_fp)) = chosen else {
        return Err(CheckpointError::NoUsableSnapshot);
    };
    // Validate the target identity before touching any state: all
    // snapshots in a directory share the module, so a mismatch is a
    // caller error (wrong target), not corruption to fall back from.
    check_target(snapshot_fp, &*executor)?;
    // Warm the decoded-image cache up front — through the sidecar written
    // next to the snapshots when one is usable — so the replayed campaign
    // never pays a lazy mid-run lowering the original did not, and resume
    // cost stays O(journal tail) rather than O(re-lower).
    info.note_decoded_image(executor.warm_decoded_image(Some(&ck.dir)));
    info.snapshot_execs = snapshot_execs;

    let mut d = Driver::new(executor, revalidator, seeds, cfg, true);
    let mut last_exec_state = state.exec_state.clone();
    state.apply(&mut d)?;

    // Chain journals forward from the snapshot: journal-{B} covers
    // executions B..B', where B' is the next snapshot's base.
    let mut journals = list_numbered(&ck.dir, "journal-").unwrap_or_default();
    let mut tail: Option<(PathBuf, u64)> = None;
    let mut current = snapshot_execs;
    while let Some(pos) = journals.iter().position(|(b, _)| *b == current) {
        let (_, path) = journals.remove(pos);
        let Some((records, valid_len, dropped)) = read_journal(&path, current) else {
            break;
        };
        for rec in &records {
            rec.apply(&mut d);
            if rec.exec_state.is_some() {
                last_exec_state.clone_from(&rec.exec_state);
            }
            info.records_applied += 1;
            // Repair: replay has rebuilt the exact state a corrupt
            // generation snapshotted — re-seal and rewrite it. Snapshot
            // serialization is deterministic, so the repaired file is
            // byte-identical to the one that rotted.
            while let Some(idx) = corrupt.iter().position(|(e, _)| *e == d.execs) {
                let (_, cpath) = corrupt.remove(idx);
                let repaired = SnapshotState {
                    scalars: Scalars::capture(&d),
                    entries: d.queue.iter().cloned().collect(),
                    virgin: d.virgin.clone(),
                    crashes: d.crashes.clone(),
                    exec_state: last_exec_state.clone(),
                };
                let fp = d.executor.module_fingerprint().unwrap_or(0);
                let bytes = seal_snapshot(&repaired.encode(), fp);
                if write_sealed(&storage, &cpath, &bytes, ck.fsync).crashed() {
                    return Ok((CampaignOutcome::Killed { execs: d.execs }, info));
                }
                info.snapshots_repaired += 1;
                storage.note_snapshot_repaired();
            }
        }
        current = d.execs;
        tail = Some((path, valid_len));
        if dropped > 0 {
            info.torn_records += dropped;
            storage.note_torn_records(dropped);
            break;
        }
    }
    if let Some(es) = &last_exec_state {
        d.executor.restore_state(es).map_err(CheckpointError::Executor)?;
    }

    let (journal, o) = match tail {
        Some((path, valid_len)) => Journal::reopen(&storage, &path, valid_len, ck.fsync),
        None => Journal::create(&storage, &ck.dir, current, ck.fsync),
    };
    if o.crashed() {
        return Ok((CampaignOutcome::Killed { execs: d.execs }, info));
    }
    info.sweep_warnings = storage.counters().sweep_warnings;
    drive(d, ck, &storage, journal).map(|outcome| (outcome, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Campaign;
    use closurex::harness::{ClosureXConfig, ClosureXExecutor};
    use fir::Module;

    const TARGET: &str = r#"
        global total;
        fn main() {
            var f = fopen("/fuzz/input", 0);
            if (f == 0) { exit(1); }
            var buf[32];
            var n = fread(buf, 1, 32, f);
            fclose(f);
            if (n < 4) { exit(2); }
            if (load8(buf) == 'F') {
                if (load8(buf + 1) == 'U') {
                    if (load8(buf + 2) == 'Z') {
                        if (load8(buf + 3) == 'Z') {
                            return load64(0); // planted crash
                        }
                        return 3;
                    }
                    return 2;
                }
                return 1;
            }
            total = total + n;
            return 0;
        }
    "#;

    fn module() -> Module {
        minic::compile("t", TARGET).unwrap()
    }

    fn executor(m: &Module) -> ClosureXExecutor {
        ClosureXExecutor::new(m, ClosureXConfig::default()).unwrap()
    }

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            budget_cycles: 6_000_000,
            seed: 21,
            ..CampaignConfig::default()
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "closurex-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The JSON rendering compares every field at once — minus the resume
    /// report, the one legitimately resume-only field.
    fn fingerprint(r: &CampaignResult) -> String {
        serde_json::to_string(&r.sans_resume()).unwrap()
    }

    fn run_plain(m: &Module, seeds: &[Vec<u8>]) -> CampaignResult {
        Campaign::new(seeds, &cfg())
            .executor(&mut executor(m))
            .run()
            .unwrap()
            .finished()
            .unwrap()
    }

    fn run_checkpointed(m: &Module, seeds: &[Vec<u8>], ck: &CheckpointConfig) -> CampaignOutcome {
        Campaign::new(seeds, &cfg())
            .executor(&mut executor(m))
            .checkpoint(ck.clone())
            .run()
            .unwrap()
    }

    fn resume(m: &Module, seeds: &[Vec<u8>], ck: &CheckpointConfig) -> (CampaignOutcome, ResumeReport) {
        Campaign::new(seeds, &cfg())
            .executor(&mut executor(m))
            .checkpoint(ck.clone())
            .resume()
            .unwrap()
    }

    #[test]
    fn orphan_tmp_files_swept_on_next_attempt() {
        let dir = tmpdir("tmp-sweep");
        fs::create_dir_all(&dir).unwrap();
        // A crashed write_sealed leaves these behind; a foreign .tmp file
        // is not ours to delete.
        fs::write(dir.join("ckpt-000000000050.tmp"), b"torn").unwrap();
        fs::write(dir.join("shard-ckpt-000002.tmp"), b"torn").unwrap();
        fs::write(dir.join("unrelated.tmp"), b"keep").unwrap();
        sweep_orphan_tmp(&Storage::quiet(), &dir);
        assert!(!dir.join("ckpt-000000000050.tmp").exists());
        assert!(!dir.join("shard-ckpt-000002.tmp").exists());
        assert!(dir.join("unrelated.tmp").exists());

        // And the campaign entry points sweep implicitly: start a fresh
        // checkpointed run in a directory holding another orphan.
        fs::write(dir.join("ckpt-000000000099.tmp"), b"torn").unwrap();
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let ck = CheckpointConfig::new(&dir);
        run_checkpointed(&m, &seeds, &ck);
        assert!(
            !dir.join("ckpt-000000000099.tmp").exists(),
            "campaign start sweeps orphaned tmp files"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_reports_decoded_image_cache_state() {
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let dir = tmpdir("decoded-warm");
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 40;
        ck.kill_after_execs = Some(60);
        run_checkpointed(&m, &seeds, &ck);
        ck.kill_after_execs = None;
        let (_, info) = resume(&m, &seeds, &ck);
        // Whether or not the cache was already warm (`decoded_image_ready`
        // depends on test ordering in this process), after resume it must
        // hold the module's lowered image.
        let fp = executor(&m)
            .module_fingerprint()
            .expect("closurex pins a module identity");
        assert!(
            vmos::DecodedImage::cache_contains(fp),
            "resume warmed the decoded-image cache (ready={})",
            info.decoded_image_ready
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_equals_plain_run() {
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let plain = run_plain(&m, &seeds);

        let dir = tmpdir("plain-eq");
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 50;
        let out = run_checkpointed(&m, &seeds, &ck)
            .finished()
            .expect("no kill configured");
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&out),
            "checkpoint I/O must charge zero simulated cycles"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_and_resume_reproduces_uninterrupted_result() {
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let reference = run_plain(&m, &seeds);

        let dir = tmpdir("kill-resume");
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 40;
        ck.kill_after_execs = Some(97); // mid-journal, off the snapshot grid
        let killed = run_checkpointed(&m, &seeds, &ck);
        assert!(matches!(killed, CampaignOutcome::Killed { execs: 97 }));

        ck.kill_after_execs = None;
        let (out, info) = resume(&m, &seeds, &ck);
        assert_eq!(info.snapshot_execs, 80, "resumed from the last snapshot");
        assert_eq!(info.records_applied, 17, "journal tail replayed");
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&out.finished().unwrap()),
            "kill+resume must be invisible in the result"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_and_still_matches() {
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let reference = run_plain(&m, &seeds);

        let dir = tmpdir("fallback");
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 40;
        ck.kill_after_execs = Some(90);
        run_checkpointed(&m, &seeds, &ck);

        // Flip a payload bit in the newest snapshot (execs=80).
        let newest = snapshot_path(&dir, 80);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();

        ck.kill_after_execs = None;
        let (out, info) = resume(&m, &seeds, &ck);
        assert_eq!(info.corrupt_snapshots_skipped, 1);
        assert_eq!(info.snapshot_execs, 40, "fell back one snapshot");
        assert!(info.records_applied >= 50, "chained journals across the gap");
        assert_eq!(
            info.snapshots_repaired, 1,
            "replay walked back over the corrupt generation and repaired it"
        );
        let result = out.finished().unwrap();
        assert_eq!(result.resilience.storage.corrupt_snapshots, 1);
        assert_eq!(result.resilience.storage.snapshots_repaired, 1);
        assert_eq!(fingerprint(&reference), fingerprint(&result.sans_storage()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_dropped_not_fatal() {
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let reference = run_plain(&m, &seeds);

        let dir = tmpdir("torn");
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 40;
        ck.kill_after_execs = Some(95);
        run_checkpointed(&m, &seeds, &ck);

        // Tear the live journal mid-record: chop off its last 5 bytes.
        let jpath = journal_path(&dir, 80);
        let bytes = fs::read(&jpath).unwrap();
        fs::write(&jpath, &bytes[..bytes.len() - 5]).unwrap();

        ck.kill_after_execs = None;
        let (out, info) = resume(&m, &seeds, &ck);
        assert_eq!(info.torn_records, 1, "the torn record must be counted");
        let result = out.finished().unwrap();
        assert_eq!(result.resilience.storage.torn_records_dropped, 1);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&result.sans_storage()),
            "the torn execution is simply re-run"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_refuses_resume() {
        let dir = tmpdir("empty");
        fs::create_dir_all(&dir).unwrap();
        let m = module();
        let err = Campaign::new(&[], &cfg())
            .executor(&mut executor(&m))
            .checkpoint(CheckpointConfig::new(&dir))
            .resume()
            .unwrap_err();
        assert!(matches!(
            err,
            crate::builder::CampaignError::Checkpoint(CheckpointError::NoUsableSnapshot)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_storage_degrades_to_in_memory_not_dead() {
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let plain = run_plain(&m, &seeds);

        // Every storage operation fails, forever: the campaign must drop
        // to in-memory checkpointing and still produce the exact result.
        let dir = tmpdir("degrade");
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 50;
        ck.disk_faults = vmos::DiskFaultPlan::uniform(7, 1.0, vmos::DiskFaultKind::is_transient);
        let out = run_checkpointed(&m, &seeds, &ck)
            .finished()
            .expect("storage failure must degrade, never kill the campaign");
        let st = &out.resilience.storage;
        assert!(
            !st.degradations.is_empty(),
            "past the retry budget the stream must surface a typed degradation"
        );
        assert_eq!(st.degradations[0].stream, 0);
        assert!(st.transient_faults > 0 && st.retries > 0 && st.backoff_cycles > 0);
        assert!(st.writes_skipped > 0, "later ops skip without touching disk");
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&out.sans_storage()),
            "degraded checkpointing must not perturb the campaign"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_bounds_disk_usage() {
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let dir = tmpdir("rotate");
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 25;
        ck.keep_snapshots = 2;
        run_checkpointed(&m, &seeds, &ck);
        let snaps = list_numbered(&dir, "ckpt-").unwrap();
        assert!(
            snaps.len() <= 2,
            "rotation must keep at most keep_snapshots files, found {}",
            snaps.len()
        );
        let oldest_kept = snaps.first().unwrap().0;
        for (base, _) in list_numbered(&dir, "journal-").unwrap() {
            assert!(base >= oldest_kept, "stale journals must be pruned");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
