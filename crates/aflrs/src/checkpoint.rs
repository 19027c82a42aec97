//! Crash-safe campaign checkpointing: versioned, sealed snapshots with
//! deterministic resume.
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
//! Inside the checkpoint directory, `ckpt-{execs:012}.bin` is a full
//! snapshot of the campaign state after `execs` executions: `"CXCK"`
//! magic, format version, target fingerprint, FNV-1a checksum, payload
//! length, then the serialized state (queue + cursor, virgin map, crash
//! records, both RNG streams, stage position, all counters, and the
//! executor's exported state). Each is written atomically
//! (write-temp-then-rename); older snapshots are rotated away, keeping
//! [`CheckpointConfig::keep_snapshots`]. Nothing else in the directory is
//! campaign state: a `journal-*.bin` file an older build's per-execution
//! journal left behind is never read, and rotation deletes it.
//!
//! # Resume semantics
//!
//! Every snapshot is durable, and nothing between two snapshots is.
//! Resume (via [`crate::Campaign::resume`]) loads the **newest snapshot
//! that validates** — a corrupt or version-mismatched generation is
//! skipped and the previous one used — restores the executor export it
//! holds, and re-runs the campaign from there. Execution is deterministic
//! given that state, so the re-run reproduces the lost executions bit for
//! bit, and the snapshot it writes at a skipped generation's execution
//! count rewrites that generation with identical bytes (scrub-and-repair,
//! counted in [`ResumeReport::snapshots_repaired`]). A resume therefore
//! re-runs at most [`CheckpointConfig::snapshot_every_execs`] executions
//! per generation it falls back. Checkpoint I/O charges **zero simulated
//! cycles**: a checkpointed campaign's result is identical to an
//! uncheckpointed one.
//!
//! The executor handed to a resume must be freshly constructed
//! from the same module and configuration (construction is deterministic),
//! with any fault plan re-armed *before* the call; the checkpoint then
//! restores its mutable counters via
//! [`Executor::restore_state`].
//! Exact resume needs an export-capable executor (ClosureX, fresh
//! process); mechanisms whose `export_state` returns `None` resume with
//! fresh executor counters.

use std::fs;
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
use crate::storage::{faulted_create, fsync_dir, Injected, OpOutcome, Storage};

/// Checkpoint format version; bump on any wire-layout change.
/// v2: queue entries carry the `favored` bit and the snapshot header embeds
/// the target module's fingerprint.
/// v3: `ExecutorState` carries the live process's CoW lineage
/// (`proc_cow_faults` + `proc_private_pages`) so a resumed process's
/// teardown charges match the killed run's.
pub(crate) const FORMAT_VERSION: u32 = 3;
/// Snapshot file magic.
const SNAPSHOT_MAGIC: &[u8; 4] = b"CXCK";

/// When checkpoint files are flushed to stable storage.
///
/// Snapshots are the only durable state, so the policy only decides what
/// a *power loss* can take: anything lost there is detected (failed
/// checksum, missing file) and resume falls back to the newest snapshot
/// that survived. A killed *process* loses nothing a snapshot committed
/// under either policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync anything — fastest; a power loss may lose any snapshot
    /// written since the OS last flushed on its own.
    Never,
    /// The default. Fsync each snapshot's temp file before its rename,
    /// and the directory after that rename and after rotation unlinks: a
    /// committed snapshot survives a power loss.
    #[default]
    OnSnapshot,
}

/// Checkpointing parameters.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory the snapshot files live in (created on demand).
    pub dir: PathBuf,
    /// Write a full snapshot every this many executions. It bounds what a
    /// resume re-runs: the executions since the newest valid snapshot.
    /// 0 writes only the initial and final snapshots, so a resume re-runs
    /// the campaign from the start.
    pub snapshot_every_execs: u64,
    /// How many most-recent snapshots to retain; older ones are deleted.
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
        /// Executions completed before the kill. Resume re-runs those
        /// past the newest valid snapshot (single driver) or barrier
        /// (sharded).
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
    /// Execution count of the snapshot the resume started from (summed
    /// over lanes for a sharded campaign). A campaign killed past it
    /// re-runs the difference.
    pub snapshot_execs: u64,
    /// Snapshots that failed validation (corrupt / truncated / wrong
    /// version) and were skipped in favor of an older one.
    pub corrupt_snapshots_skipped: u64,
    /// Corrupt snapshot generations the single driver's re-run rewrote:
    /// its snapshot at such a generation's execution count replaces the
    /// damaged file with identical bytes (scrub-and-repair).
    pub snapshots_repaired: u64,
    /// Orphaned tmp files the resume's start-up sweep could not remove (see
    /// [`crate::StorageCounters::sweep_warnings`]).
    pub sweep_warnings: u64,
    /// Whether the target's lowered image was available without a
    /// re-lower when the resume validated it (`false` also when the
    /// mechanism does not use the decoded engine). Resume warms the cache
    /// either way, so the re-run never pays a lazy mid-run lowering.
    pub decoded_image_ready: bool,
    /// Where the decoded image came from: the in-memory cache or a fresh
    /// lowering (`None` when the mechanism does not use the decoded
    /// engine).
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

pub(crate) fn encode_exec_state(es: &Option<ExecutorState>, w: &mut Writer) {
    match es {
        Some(s) => {
            w.put_bool(true);
            s.encode(w);
        }
        None => w.put_bool(false),
    }
}

pub(crate) fn decode_exec_state(r: &mut Reader<'_>) -> Result<Option<ExecutorState>, WireError> {
    Ok(if r.get_bool()? {
        Some(ExecutorState::decode(r)?)
    } else {
        None
    })
}

/// The scalar block every snapshot carries: absolute values of every
/// behavior-relevant campaign scalar.
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

    pub(crate) fn encode(&self, w: &mut Writer) {
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

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
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
        if let Some(es) = &self.exec_state {
            d.executor.restore_state(es).map_err(CheckpointError::Executor)?;
        }
        Ok(())
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.scalars.encode(&mut w);
        encode_collections(&self.entries, &self.virgin, &self.crashes, &mut w);
        encode_exec_state(&self.exec_state, &mut w);
        w.into_bytes()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let scalars = Scalars::decode(&mut r)?;
        let (entries, virgin, crashes) = decode_collections(&mut r)?;
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

/// The campaign collections a snapshot carries: queue entries, virgin map
/// and crash records. A shard snapshot stores the merged copy once.
pub(crate) type Collections = (Vec<QueueEntry>, VirginMap, Vec<CrashRecord>);

pub(crate) fn encode_collections(
    entries: &[QueueEntry],
    virgin: &VirginMap,
    crashes: &[CrashRecord],
    w: &mut Writer,
) {
    w.put_usize(entries.len());
    for e in entries {
        encode_entry(e, w);
    }
    virgin.encode(w);
    w.put_usize(crashes.len());
    for c in crashes {
        encode_crash_record(c, w);
    }
}

pub(crate) fn decode_collections(r: &mut Reader<'_>) -> Result<Collections, WireError> {
    let n = r.get_count()?;
    if n > r.remaining() / 8 {
        return Err(WireError::Truncated);
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(decode_entry(r)?);
    }
    let virgin = VirginMap::decode(r)?;
    let n = r.get_count()?;
    if n > r.remaining() / 8 {
        return Err(WireError::Truncated);
    }
    let mut crashes = Vec::with_capacity(n);
    for _ in 0..n {
        crashes.push(decode_crash_record(r)?);
    }
    Ok((entries, virgin, crashes))
}

// ---------------------------------------------------------------------------
// Files.
// ---------------------------------------------------------------------------

fn snapshot_path(dir: &Path, execs: u64) -> PathBuf {
    dir.join(format!("ckpt-{execs:012}.bin"))
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
    bytes.resize(SNAPSHOT_HEADER_LEN, 0);
    bytes.extend_from_slice(payload);
    seal_in_place(bytes, FORMAT_VERSION, fingerprint)
}

/// A writer whose first [`SNAPSHOT_HEADER_LEN`] bytes are reserved for the
/// seal: encode the payload behind them, then [`seal_in_place`], so a
/// large snapshot is built in one buffer with no second copy.
pub(crate) fn sealed_writer(capacity: usize) -> Writer {
    let mut w = Writer::with_capacity(SNAPSHOT_HEADER_LEN + capacity);
    for _ in 0..SNAPSHOT_HEADER_LEN / 8 {
        w.put_u64(0);
    }
    w
}

/// Fill in the header reserved at the front of `bytes` (magic, `version`,
/// target fingerprint, payload checksum and length) over the payload
/// behind it.
pub(crate) fn seal_in_place(mut bytes: Vec<u8>, version: u32, fingerprint: u64) -> Vec<u8> {
    let (header, payload) = bytes.split_at_mut(SNAPSHOT_HEADER_LEN);
    header[0..4].copy_from_slice(SNAPSHOT_MAGIC);
    header[4..8].copy_from_slice(&version.to_le_bytes());
    header[8..16].copy_from_slice(&fingerprint.to_le_bytes());
    header[16..24].copy_from_slice(&fnv1a(payload).to_le_bytes());
    header[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
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

/// Validate a sealed snapshot's header + checksum against the expected
/// format `version`, returning the embedded target fingerprint and the
/// payload slice.
pub(crate) fn open_sealed(bytes: &[u8], expected: u32) -> Result<(u64, &[u8]), WireError> {
    if bytes.len() < SNAPSHOT_HEADER_LEN || &bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(WireError::Malformed("snapshot magic"));
    }
    let version = le_u32(bytes, 4)?;
    if version != expected {
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
    let (fingerprint, payload) = open_sealed(&bytes, FORMAT_VERSION)?;
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

/// Delete snapshots beyond the newest `keep`, and every `journal-*` file
/// an older build's per-execution journal left behind (no resume reads
/// one). Unlink failures are counted warnings (a file we failed to delete
/// today is retried by the next rotation); successful unlinks are made
/// durable with a directory fsync.
fn rotate(storage: &Storage, dir: &Path, keep: usize, fsync: FsyncPolicy) -> OpOutcome {
    let o = sweep_orphan_tmp(storage, dir);
    if o.crashed() {
        return o;
    }
    let mut failed = 0u64;
    let mut removed = false;
    let o = storage.cleanup_op(|_| {
        let snaps = list_numbered(dir, "ckpt-")?;
        let stale = snaps.len().saturating_sub(keep.max(1));
        let journals = list_numbered(dir, "journal-")?;
        for (_, path) in snaps[..stale].iter().chain(&journals) {
            match fs::remove_file(path) {
                Ok(()) => removed = true,
                Err(_) => failed += 1,
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

// ---------------------------------------------------------------------------
// The checkpointed campaign loop.
// ---------------------------------------------------------------------------

/// Step the driver to completion (or the simulated kill), snapshotting on
/// cadence and at the end. `repair` holds the execution counts of the
/// corrupt generations a resume skipped: the snapshot this run writes at
/// such a count rewrites that generation and is counted as a repair. A
/// storage operation that hits an injected crash boundary stops the run
/// exactly like the simulated SIGKILL — whatever reached the files is all
/// resume gets.
fn drive(
    mut d: Driver<'_>,
    ck: &CheckpointConfig,
    storage: &Storage,
    mut repair: Vec<u64>,
) -> CampaignOutcome {
    // Snapshot and rotate; `true` when a storage crash stopped the run.
    let mut checkpoint = |d: &Driver<'_>| {
        let o = write_snapshot(storage, &ck.dir, d, ck.fsync);
        if o == OpOutcome::Done {
            if let Some(i) = repair.iter().position(|&e| e == d.execs) {
                repair.swap_remove(i);
                storage.note_snapshot_repaired();
            }
        }
        o.crashed() || rotate(storage, &ck.dir, ck.keep_snapshots, ck.fsync).crashed()
    };
    loop {
        if d.step() == StepOutcome::Finished {
            let mut result = d.finish();
            // A final snapshot so a finished directory is self-describing.
            if checkpoint(&d) {
                return CampaignOutcome::Killed { execs: d.execs };
            }
            result.resilience.storage = storage.counters();
            return CampaignOutcome::Finished(result);
        }
        if let Some(k) = ck.kill_after_execs {
            if d.execs >= k {
                // Simulated SIGKILL: stop right here — no snapshot, no
                // cleanup. Whatever reached the files is all resume gets.
                return CampaignOutcome::Killed { execs: d.execs };
            }
        }
        if ck.snapshot_every_execs > 0
            && d.execs.is_multiple_of(ck.snapshot_every_execs)
            && checkpoint(&d)
        {
            return CampaignOutcome::Killed { execs: d.execs };
        }
    }
}

/// Run a fresh campaign with crash-safe checkpointing (internal; the
/// [`crate::Campaign`] builder dispatches here).
pub(crate) fn run_checkpointed_impl<'e>(
    executor: &'e mut dyn Executor,
    revalidator: Option<&'e mut dyn Executor>,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    ck: &CheckpointConfig,
) -> CampaignOutcome {
    let storage = storage_for(ck);
    // Even directory creation rides the ladder: if the checkpoint
    // directory cannot be made, the campaign degrades to in-memory
    // checkpointing instead of refusing to start.
    if storage.op(false, |_| fs::create_dir_all(&ck.dir)).crashed()
        || sweep_orphan_tmp(&storage, &ck.dir).crashed()
    {
        return CampaignOutcome::Killed { execs: 0 };
    }
    let d = Driver::new(executor, revalidator, seeds, cfg);
    if write_snapshot(&storage, &ck.dir, &d, ck.fsync).crashed() {
        return CampaignOutcome::Killed { execs: 0 };
    }
    drive(d, ck, &storage, Vec::new())
}

/// Resume a killed campaign from its checkpoint directory (the
/// [`crate::Campaign`] builder dispatches here): restore the newest
/// snapshot that validates and re-run from it (see the module docs). The
/// `executor` (and `revalidator`) must be freshly constructed over the
/// same module and configuration as the original run, with any fault plan
/// already re-armed.
///
/// # Errors
/// [`CheckpointError::NoUsableSnapshot`] when every snapshot fails
/// validation; target-mismatch and executor-restore failures otherwise.
/// Corrupt snapshots are *not* errors — they are skipped (counted in
/// [`ResumeReport`]) and the campaign falls back to the newest generation
/// that validates.
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
    // skipped and remembered — the re-run rewrites each as it passes its
    // execution count; an unreadable directory is simply a directory with
    // no snapshots.
    let snaps = list_numbered(&ck.dir, "ckpt-").unwrap_or_default();
    let mut chosen = None;
    let mut corrupt = Vec::new();
    for (execs, path) in snaps.iter().rev() {
        match load_snapshot(path) {
            Ok((state, fp)) => {
                chosen = Some((*execs, state, fp));
                break;
            }
            Err(_) => {
                info.corrupt_snapshots_skipped += 1;
                storage.note_corrupt_snapshot();
                corrupt.push(*execs);
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
    // Warm the decoded-image cache up front, so the re-run never pays a
    // lazy mid-run lowering.
    info.note_decoded_image(executor.warm_decoded_image(None));
    info.snapshot_execs = snapshot_execs;
    info.sweep_warnings = storage.counters().sweep_warnings;

    let mut d = Driver::new(executor, revalidator, seeds, cfg);
    state.apply(&mut d)?;
    let outcome = drive(d, ck, &storage, corrupt);
    info.snapshots_repaired = storage.counters().snapshots_repaired;
    Ok((outcome, info))
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
            plain.outcome_diff(&out),
            None,
            "checkpoint I/O must charge zero simulated cycles"
        );
        assert!(out.resilience.storage.is_quiet());
        assert!(out.resilience.supervision.is_quiet());
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
        ck.kill_after_execs = Some(97); // off the snapshot grid
        let killed = run_checkpointed(&m, &seeds, &ck);
        assert!(matches!(killed, CampaignOutcome::Killed { execs: 97 }));

        ck.kill_after_execs = None;
        let (out, info) = resume(&m, &seeds, &ck);
        assert_eq!(info.snapshot_execs, 80, "resumed from the last snapshot");
        let out = out.finished().unwrap();
        assert_eq!(
            reference.outcome_diff(&out),
            None,
            "kill+resume must be invisible in the result"
        );
        assert!(out.resilience.storage.is_quiet());
        assert!(out.resilience.supervision.is_quiet());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_and_is_repaired() {
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
        let intact = fs::read(&newest).unwrap();
        let mut bytes = intact.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();

        // Stop the re-run just past the damaged generation: it has been
        // rewritten with the bytes it held before the flip.
        ck.kill_after_execs = Some(85);
        let (out, info) = resume(&m, &seeds, &ck);
        assert!(matches!(out, CampaignOutcome::Killed { execs: 85 }));
        assert_eq!(info.corrupt_snapshots_skipped, 1);
        assert_eq!(info.snapshot_execs, 40, "fell back one snapshot");
        assert_eq!(
            info.snapshots_repaired, 1,
            "the re-run passed the corrupt generation and rewrote it"
        );
        assert_eq!(fs::read(&newest).unwrap(), intact, "repaired byte for byte");

        ck.kill_after_execs = None;
        let (out, info) = resume(&m, &seeds, &ck);
        assert_eq!(info.snapshot_execs, 80, "resumed from the repaired generation");
        let result = out.finished().unwrap();
        assert_eq!(reference.outcome_diff(&result), None);
        assert!(result.resilience.storage.is_quiet());
        assert!(result.resilience.supervision.is_quiet());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_final_snapshot_is_repaired_by_the_rerun() {
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let dir = tmpdir("final-rot");
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 40;
        let want = run_checkpointed(&m, &seeds, &ck).finished().unwrap();
        let (execs, last) = list_numbered(&dir, "ckpt-").unwrap().pop().unwrap();
        assert_eq!(execs, want.execs, "the final snapshot is the newest");
        let intact = fs::read(&last).unwrap();
        fs::write(&last, &intact[..intact.len() / 2]).unwrap();

        let (out, info) = resume(&m, &seeds, &ck);
        let result = out.finished().unwrap();
        assert_eq!(info.corrupt_snapshots_skipped, 1);
        assert_eq!(info.snapshots_repaired, 1);
        assert_eq!(result.resilience.storage.snapshots_repaired, 1);
        assert_eq!(fs::read(&last).unwrap(), intact);
        assert_eq!(want.outcome_diff(&result), None);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A per-execution journal an older build left next to its snapshots.
    fn stray_journal(dir: &Path, base: u64) -> PathBuf {
        let path = dir.join(format!("journal-{base:012}.bin"));
        fs::write(&path, b"CXJL stale journal bytes").unwrap();
        path
    }

    #[test]
    fn stray_journals_are_ignored_by_resume() {
        let m = module();
        let seeds = vec![b"seed".to_vec()];
        let reference = run_plain(&m, &seeds);

        let dir = tmpdir("stray-journal");
        let mut ck = CheckpointConfig::new(&dir);
        ck.snapshot_every_execs = 40;
        ck.kill_after_execs = Some(97);
        run_checkpointed(&m, &seeds, &ck);
        // Journals for the live generation and an older one, one of them
        // garbage: the resume must read none of them.
        stray_journal(&dir, 40);
        stray_journal(&dir, 80);
        fs::write(dir.join("journal-000000000000.bin"), [0xFF; 64]).unwrap();

        ck.kill_after_execs = None;
        let (out, info) = resume(&m, &seeds, &ck);
        assert_eq!(info.snapshot_execs, 80);
        let result = out.finished().unwrap();
        assert_eq!(reference.outcome_diff(&result), None);
        assert!(result.resilience.storage.is_quiet());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_deletes_stray_journals() {
        let dir = tmpdir("rotate-journals");
        fs::create_dir_all(&dir).unwrap();
        fs::write(snapshot_path(&dir, 40), b"snap").unwrap();
        let strays = [stray_journal(&dir, 0), stray_journal(&dir, 40), stray_journal(&dir, 80)];
        fs::write(dir.join("journal-notes.txt"), b"not ours").unwrap();
        let storage = Storage::quiet();
        assert_eq!(rotate(&storage, &dir, 2, FsyncPolicy::OnSnapshot), OpOutcome::Done);
        for p in &strays {
            assert!(!p.exists(), "{} survived rotation", p.display());
        }
        assert!(snapshot_path(&dir, 40).exists(), "kept snapshots stay");
        assert!(dir.join("journal-notes.txt").exists(), "foreign files stay");
        assert_eq!(storage.counters().sweep_warnings, 0);
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
            plain.outcome_diff(&out),
            None,
            "degraded checkpointing must not perturb the campaign"
        );
        assert!(out.resilience.supervision.is_quiet());
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
        let _ = fs::remove_dir_all(&dir);
    }
}
