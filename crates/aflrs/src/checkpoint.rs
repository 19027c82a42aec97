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
//! [`CheckpointConfig::keep_snapshots`].
//!
//! Every engine reaches its checkpoint directory through one store here:
//! a `Layout` per engine (`ckpt-*` for the single driver, `shard-ckpt-*`
//! for sharded campaigns, see [`crate::shard`]) names the files and owns
//! the directory scan, rotation, the start-up sweep, the resume scrub and
//! the seal. Nothing else in the directory is campaign state: an orphaned
//! temp file, or a `journal-*.bin` file an older build's per-execution
//! journal left behind, is never read, and rotation deletes it.
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
use vmos::wire::Codec;
use vmos::{wire_struct, DiskFaultPlan, Reader, WarmSource, Wire, WireError, Writer};

use crate::campaign::{seeded_rngs, CampaignConfig, Driver, Stage, StepOutcome};
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
    Storage::new(
        ck.disk_faults.clone(),
        ck.storage_retries,
        ck.storage_backoff_cycles,
    )
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

wire_struct!(ResumeReport {
    snapshot_execs,
    corrupt_snapshots_skipped,
    snapshots_repaired,
    sweep_warnings,
    decoded_image_ready,
    decoded_image_source as SourceTag,
});

/// Hand-written: `decoded_image_source` is one tag byte with 0 for `None`,
/// not an `Option`'s flag and value.
struct SourceTag;

impl Codec<Option<WarmSource>> for SourceTag {
    const MIN_LEN: usize = 1;

    fn encode(v: &Option<WarmSource>, w: &mut Writer) {
        w.put_u8(match v {
            None => 0,
            Some(WarmSource::Cache) => 1,
            // Tag 2 is reserved: it named a decoded-image source that no
            // longer exists.
            Some(WarmSource::Lowered) => 3,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Option<WarmSource>, WireError> {
        Ok(match r.get_u8()? {
            0 => None,
            1 => Some(WarmSource::Cache),
            3 => Some(WarmSource::Lowered),
            _ => return Err(WireError::Malformed("warm source tag")),
        })
    }
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

/// Hand-written: a fixed 17-byte layout (tag and two `u64` slots, unused
/// slots zero), not field order.
impl Wire for Stage {
    const MIN_LEN: usize = 17;

    fn encode(&self, w: &mut Writer) {
        let (tag, a, b) = match *self {
            Stage::Seeds(i) => (0, i as u64, 0),
            Stage::Pick => (1, 0, 0),
            Stage::Det { entry, mutant } => (2, entry as u64, mutant as u64),
            Stage::Havoc { entry, iter } => (3, entry as u64, u64::from(iter)),
            Stage::Done => (4, 0, 0),
        };
        w.put_u8(tag);
        w.put_u64(a);
        w.put_u64(b);
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
}

wire_struct!(Scalars {
    stage,
    clock,
    execs,
    hangs,
    mgmt_cycles,
    exec_cycles,
    retries,
    dropped_inputs,
    harness_faults,
    consecutive_hangs,
    watchdog_trips,
    rng,
    backoff_rng,
    cursor,
});

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
    /// The state [`Driver::new`] starts a campaign from, built without a
    /// driver: a pure function of `cfg`.
    pub(crate) fn initial(cfg: &CampaignConfig) -> Self {
        let (rng, backoff_rng) = seeded_rngs(cfg);
        SnapshotState {
            scalars: Scalars {
                stage: Stage::Seeds(0),
                clock: 0,
                execs: 0,
                hangs: 0,
                mgmt_cycles: 0,
                exec_cycles: 0,
                retries: 0,
                dropped_inputs: 0,
                harness_faults: 0,
                consecutive_hangs: 0,
                watchdog_trips: 0,
                rng: rng.state(),
                backoff_rng: backoff_rng.state(),
                cursor: 0,
            },
            entries: Vec::new(),
            virgin: VirginMap::new(),
            crashes: Vec::new(),
            exec_state: None,
        }
    }

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
            d.executor
                .restore_state(es)
                .map_err(CheckpointError::Executor)?;
        }
        Ok(())
    }
}

wire_struct!(SnapshotState {
    scalars,
    entries,
    virgin,
    crashes,
    exec_state,
});

// ---------------------------------------------------------------------------
// The snapshot store: every file a checkpoint directory holds.
// ---------------------------------------------------------------------------

/// Shard snapshot format version, separate from the single driver's
/// [`FORMAT_VERSION`]. v4: the merged collections once, then each lane's
/// scalars and executor state (v3 and older held one full lane snapshot
/// per lane and are refused, never misparsed).
pub(crate) const SHARD_FORMAT_VERSION: u32 = 4;

/// How one engine lays out its checkpoint directory.
///
/// A snapshot is `{prefix}{n}.bin`: `n` (executions for the single
/// driver, the epoch for a sharded campaign) zero-padded to `pad` digits,
/// and wider once it outgrows them, sealed under `version`. Nothing else
/// in the directory is campaign state. An orphaned snapshot temp file (a
/// write that died before its rename) and a `{journal}…bin` file an older
/// build's journal left behind are *debris*: never read, and deleted by
/// rotation. Every other file (a service tenant's `spec.bin`, say) is
/// foreign and left alone.
pub(crate) struct Layout {
    prefix: &'static str,
    pad: usize,
    version: u32,
    journal: &'static str,
}

/// The single driver's layout: `ckpt-{execs:012}.bin`.
pub(crate) const SINGLE: Layout = Layout {
    prefix: "ckpt-",
    pad: 12,
    version: FORMAT_VERSION,
    journal: "journal-",
};

/// The sharded engine's layout: `shard-ckpt-{epoch:06}.bin`.
pub(crate) const SHARDED: Layout = Layout {
    prefix: "shard-ckpt-",
    pad: 6,
    version: SHARD_FORMAT_VERSION,
    journal: "shard-journal-",
};

/// What one scan of a checkpoint directory finds.
pub(crate) struct Scan {
    /// Snapshots, ascending by number.
    pub(crate) snapshots: Vec<(u64, PathBuf)>,
    /// Debris (see [`Layout`]).
    pub(crate) debris: Vec<PathBuf>,
}

/// Delete `paths`, returning `(files removed, unlink failures)`.
fn remove_all<'p>(paths: impl Iterator<Item = &'p PathBuf>) -> (u64, u64) {
    let (mut removed, mut failed) = (0, 0);
    for path in paths {
        match fs::remove_file(path) {
            Ok(()) => removed += 1,
            Err(_) => failed += 1,
        }
    }
    (removed, failed)
}

impl Layout {
    /// The path of snapshot `n` in `dir`.
    pub(crate) fn path(&self, dir: &Path, n: u64) -> PathBuf {
        dir.join(format!("{}{n:0pad$}.bin", self.prefix, pad = self.pad))
    }

    /// The number in a snapshot name: `pad` or more digits (the padded
    /// name grows a digit once `n` outgrows the pad).
    fn parse(&self, name: &str) -> Option<u64> {
        let digits = name.strip_prefix(self.prefix)?.strip_suffix(".bin")?;
        (digits.len() >= self.pad && digits.bytes().all(|b| b.is_ascii_digit()))
            .then(|| digits.parse().ok())
            .flatten()
    }

    /// An orphaned temp file of either layout's snapshots, or one of this
    /// layout's journal files (`{journal}` + digits and dashes + `.bin`).
    fn is_debris(&self, name: &str) -> bool {
        let orphan_tmp = name.ends_with(".tmp")
            && [SINGLE.prefix, SHARDED.prefix]
                .iter()
                .any(|p| name.starts_with(p));
        let journal = name
            .strip_prefix(self.journal)
            .and_then(|rest| rest.strip_suffix(".bin"))
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit() || b == b'-'));
        orphan_tmp || journal
    }

    /// One scan of `dir`. A directory that does not exist holds nothing.
    pub(crate) fn scan(&self, dir: &Path) -> std::io::Result<Scan> {
        let mut found = Scan {
            snapshots: Vec::new(),
            debris: Vec::new(),
        };
        let entries = match fs::read_dir(dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
            entries => entries?,
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = self.parse(name) {
                found.snapshots.push((n, entry.path()));
            } else if self.is_debris(name) {
                found.debris.push(entry.path());
            }
        }
        found.snapshots.sort_by_key(|(n, _)| *n);
        Ok(found)
    }

    /// One scan of `dir`: delete its debris and every snapshot but the
    /// newest `keep` (never the newest one). Returns `(files removed,
    /// unlink failures)`.
    pub(crate) fn prune(&self, dir: &Path, keep: usize) -> std::io::Result<(u64, u64)> {
        let Scan { snapshots, debris } = self.scan(dir)?;
        let old = snapshots.len().saturating_sub(keep.max(1));
        Ok(remove_all(
            debris.iter().chain(snapshots[..old].iter().map(|(_, p)| p)),
        ))
    }

    /// Rotation after a snapshot commits: one cleanup op that prunes to
    /// [`CheckpointConfig::keep_snapshots`], then, when it unlinked
    /// anything and the policy fsyncs, a directory fsync that makes the
    /// unlinks durable. Unlink failures are counted warnings: the next
    /// rotation retries them.
    pub(crate) fn rotate(&self, storage: &Storage, ck: &CheckpointConfig) -> OpOutcome {
        let (mut removed, mut failed) = (0, 0);
        let o = storage.cleanup_op(|_| {
            (removed, failed) = self.prune(&ck.dir, ck.keep_snapshots)?;
            Ok(())
        });
        if failed > 0 {
            storage.note_sweep_warnings(failed);
        }
        if o.crashed() {
            return o;
        }
        if removed > 0 && ck.fsync != FsyncPolicy::Never {
            // Op: unlinks are directory mutations too — make them durable.
            return storage.op(false, |_| fsync_dir(&ck.dir));
        }
        o
    }

    /// The start-up sweep, one cleanup op on campaign start and resume:
    /// delete the orphaned temp files a killed write left, so failed
    /// atomic writes never accumulate. Sweeping is cleanup, not
    /// correctness: every failure is a counted
    /// [`StorageCounters::sweep_warnings`](crate::StorageCounters)
    /// warning, never an error.
    pub(crate) fn sweep(&self, storage: &Storage, dir: &Path) -> OpOutcome {
        let mut failed = 0;
        let o = storage.cleanup_op(|_| {
            let debris = self.scan(dir)?.debris;
            let tmp = debris
                .iter()
                .filter(|p| p.extension().is_some_and(|e| e == "tmp"));
            failed = remove_all(tmp).1;
            Ok(())
        });
        if failed > 0 {
            storage.note_sweep_warnings(failed);
        }
        o
    }

    /// Archival rotation, outside any storage plane: keep only the newest
    /// snapshot (enough to revive a killed campaign), delete the rest and
    /// all debris, and fsync the directory when anything went, unless
    /// `fsync` is [`FsyncPolicy::Never`]. Returns `(files removed,
    /// warnings)`; a failure is never fatal.
    pub(crate) fn archive(&self, dir: &Path, fsync: FsyncPolicy) -> (u64, u64) {
        match self.prune(dir, 1) {
            Ok((removed, failed)) => {
                let synced = removed == 0 || fsync == FsyncPolicy::Never || fsync_dir(dir).is_ok();
                (removed, failed + u64::from(!synced))
            }
            Err(_) => (0, 1),
        }
    }

    /// Seal the payload encoded behind [`sealed_writer`]'s reserved header
    /// under this layout's version and the target `fingerprint`.
    pub(crate) fn seal(&self, w: Writer, fingerprint: u64) -> Vec<u8> {
        seal_in_place(w.into_bytes(), self.version, fingerprint)
    }

    /// Seal `w` and write it atomically as snapshot `n` of `ck.dir`.
    pub(crate) fn write(
        &self,
        storage: &Storage,
        ck: &CheckpointConfig,
        n: u64,
        w: Writer,
        fingerprint: u64,
    ) -> OpOutcome {
        let bytes = self.seal(w, fingerprint);
        write_sealed(storage, &self.path(&ck.dir, n), &bytes, ck.fsync)
    }

    /// Validate sealed snapshot bytes (magic, this layout's version,
    /// length, checksum), returning the embedded target fingerprint and
    /// the payload.
    pub(crate) fn open<'b>(&self, bytes: &'b [u8]) -> Result<(u64, &'b [u8]), WireError> {
        if bytes.len() < SNAPSHOT_HEADER_LEN || &bytes[0..4] != SNAPSHOT_MAGIC {
            return Err(WireError::Malformed("snapshot magic"));
        }
        let (header, payload) = bytes[4..].split_at(SNAPSHOT_HEADER_LEN - 4);
        let mut r = Reader::new(header);
        if r.get_u32()? != self.version {
            return Err(WireError::Malformed("snapshot version"));
        }
        let (fingerprint, checksum, len) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
        if len != payload.len() as u64 {
            return Err(WireError::Truncated);
        }
        if fnv1a(payload) != checksum {
            return Err(WireError::Malformed("snapshot checksum"));
        }
        Ok((fingerprint, payload))
    }

    /// The resume scrub: validate generations newest-first and return the
    /// first that `decode(n, fingerprint, payload)` accepts, with its
    /// number and the numbers of the corrupt generations skipped on the
    /// way (each counted in `info` and on `storage`), newest first.
    ///
    /// # Errors
    /// [`CheckpointError::NoUsableSnapshot`] when no generation validates;
    /// [`CheckpointError::Io`] when `dir` cannot be scanned.
    pub(crate) fn newest<T>(
        &self,
        storage: &Storage,
        dir: &Path,
        info: &mut ResumeReport,
        mut decode: impl FnMut(u64, u64, &[u8]) -> Result<T, WireError>,
    ) -> Result<(u64, T, Vec<u64>), CheckpointError> {
        let mut corrupt = Vec::new();
        for (n, path) in self.scan(dir)?.snapshots.into_iter().rev() {
            let bytes = fs::read(&path).map_err(|_| WireError::Truncated);
            match bytes.and_then(|b| self.open(&b).and_then(|(fp, p)| decode(n, fp, p))) {
                Ok(found) => return Ok((n, found, corrupt)),
                Err(_) => {
                    info.corrupt_snapshots_skipped += 1;
                    storage.note_corrupt_snapshot();
                    corrupt.push(n);
                }
            }
        }
        Err(CheckpointError::NoUsableSnapshot)
    }
}

/// Byte length of the sealed-snapshot header: magic + version + target
/// fingerprint + checksum + payload length.
const SNAPSHOT_HEADER_LEN: usize = 32;

/// A writer whose first [`SNAPSHOT_HEADER_LEN`] bytes are reserved for the
/// seal: encode the payload behind them, then [`Layout::seal`] or
/// [`Layout::write`], so a large snapshot is built in one buffer with no
/// second copy.
pub(crate) fn sealed_writer(capacity: usize) -> Writer {
    let mut w = Writer::with_capacity(SNAPSHOT_HEADER_LEN + capacity);
    for _ in 0..SNAPSHOT_HEADER_LEN / 8 {
        w.put_u64(0);
    }
    w
}

/// Fill in the header reserved at the front of `bytes` (magic, `version`,
/// target fingerprint, payload checksum and length) over the payload
/// behind it. The fingerprint is the executing module's
/// `Module::fingerprint` (0 when the mechanism pins none); resume checks
/// it against the freshly built executor, so state recorded for one
/// target is never replayed onto another.
fn seal_in_place(mut bytes: Vec<u8>, version: u32, fingerprint: u64) -> Vec<u8> {
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
fn write_sealed(
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
fn write_snapshot(storage: &Storage, ck: &CheckpointConfig, d: &Driver<'_>) -> OpOutcome {
    let fp = d.executor.module_fingerprint().unwrap_or(0);
    let queued: usize = d.queue.iter().map(|e| e.data.len() + 40).sum();
    let mut w = sealed_writer(queued + vmos::MAP_SIZE + 1024);
    SnapshotState::capture(d).encode(&mut w);
    SINGLE.write(storage, ck, d.execs, w, fp)
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
        let o = write_snapshot(storage, ck, d);
        if o == OpOutcome::Done {
            if let Some(i) = repair.iter().position(|&e| e == d.execs) {
                repair.swap_remove(i);
                storage.note_snapshot_repaired();
            }
        }
        o.crashed() || SINGLE.rotate(storage, ck).crashed()
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
        || SINGLE.sweep(&storage, &ck.dir).crashed()
    {
        return CampaignOutcome::Killed { execs: 0 };
    }
    let d = Driver::new(executor, revalidator, seeds, cfg);
    if write_snapshot(&storage, ck, &d).crashed() {
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
    if SINGLE.sweep(&storage, &ck.dir).crashed() {
        return Ok((CampaignOutcome::Killed { execs: 0 }, info));
    }
    // Scrub: the re-run rewrites each corrupt generation as it passes its
    // execution count.
    let (snapshot_execs, (state, snapshot_fp), corrupt) =
        SINGLE.newest(&storage, &ck.dir, &mut info, |_, fp, payload| {
            Ok((SnapshotState::from_bytes(payload)?, fp))
        })?;
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
        let dir = std::env::temp_dir().join(format!("closurex-ckpt-{tag}-{}", std::process::id()));
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

    fn resume(
        m: &Module,
        seeds: &[Vec<u8>],
        ck: &CheckpointConfig,
    ) -> (CampaignOutcome, ResumeReport) {
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
        // The campaign entry points sweep (the sweep itself is in
        // `one_store_serves_both_layouts`): start a fresh checkpointed run
        // in a directory holding the orphan a crashed write left.
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

        // Journal files an older build would have left for the live
        // generation and older ones, one of them garbage: the resume reads
        // none of them, and its first rotation deletes them.
        let journals = ["journal-000000000040.bin", "journal-000000000080.bin"];
        for name in journals {
            fs::write(dir.join(name), b"CXJL stale journal bytes").unwrap();
        }
        fs::write(dir.join("journal-000000000000.bin"), [0xFF; 64]).unwrap();

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
        assert!(SINGLE.scan(&dir).unwrap().debris.is_empty());
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
        let newest = SINGLE.path(&dir, 80);
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
        assert_eq!(
            info.snapshot_execs, 80,
            "resumed from the repaired generation"
        );
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
        let (execs, last) = SINGLE.scan(&dir).unwrap().snapshots.pop().unwrap();
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
        assert!(
            st.writes_skipped > 0,
            "later ops skip without touching disk"
        );
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
        let snaps = SINGLE.scan(&dir).unwrap().snapshots;
        assert!(
            snaps.len() <= 2,
            "rotation must keep at most keep_snapshots files, found {}",
            snaps.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Names in a layout's directory: a snapshot (`Some(n)`), debris or a
    /// foreign file, by what its scan must make of it.
    enum Kind {
        Snapshot(u64),
        Debris,
        Foreign,
    }

    /// The store's contract, once per layout: names past the pad width,
    /// numeric order, debris against foreign files, `prune`, rotation,
    /// the start-up sweep, archival and the newest-first scrub.
    #[test]
    fn one_store_serves_both_layouts() {
        use Kind::{Debris, Foreign, Snapshot};
        let cases: [(&Layout, [(&str, Kind); 12]); 2] = [
            (
                &SINGLE,
                [
                    ("ckpt-000000000002.bin", Snapshot(2)),
                    ("ckpt-999999999999.bin", Snapshot(999_999_999_999)),
                    ("ckpt-1000000000000.bin", Snapshot(1_000_000_000_000)),
                    ("ckpt-00000000007.bin", Foreign),
                    ("ckpt-00000000000x.bin", Foreign),
                    ("ckpt-000000000050.tmp", Debris),
                    ("shard-ckpt-000002.tmp", Debris),
                    ("journal-000000000040.bin", Debris),
                    ("journal-notes.txt", Foreign),
                    ("shard-ckpt-000003.bin", Foreign),
                    ("spec.bin", Foreign),
                    ("unrelated.tmp", Foreign),
                ],
            ),
            (
                &SHARDED,
                [
                    ("shard-ckpt-000002.bin", Snapshot(2)),
                    ("shard-ckpt-999999.bin", Snapshot(999_999)),
                    ("shard-ckpt-1000000.bin", Snapshot(1_000_000)),
                    ("shard-ckpt-00007.bin", Foreign),
                    ("shard-ckpt-00000x.bin", Foreign),
                    ("shard-ckpt-000008.tmp", Debris),
                    ("ckpt-000000000050.tmp", Debris),
                    ("shard-journal-000003-002.bin", Debris),
                    ("shard-journal-notes.txt", Foreign),
                    ("ckpt-000000000001.bin", Foreign),
                    ("spec.bin", Foreign),
                    ("unrelated.tmp", Foreign),
                ],
            ),
        ];
        for (layout, names) in &cases {
            let tag = layout.prefix.trim_end_matches('-');
            // Names round-trip at every width, the pad's and past it; a
            // number too wide for a u64 names no snapshot.
            for n in [0, 7, 999_999, 1_000_000, 12_345_678, u64::MAX] {
                let path = layout.path(Path::new("/ckpt"), n);
                let name = path.file_name().and_then(|n| n.to_str()).unwrap();
                assert_eq!(layout.parse(name), Some(n), "{name}");
            }
            let too_wide = format!("{}99999999999999999999999.bin", layout.prefix);
            assert_eq!(layout.parse(&too_wide), None);

            // One scan sorts snapshots numerically and tells debris from
            // foreign files.
            let dir = tmpdir(&format!("store-{tag}"));
            fs::create_dir_all(&dir).unwrap();
            for (name, _) in names {
                fs::write(dir.join(name), b"bytes").unwrap();
            }
            let scan = layout.scan(&dir).unwrap();
            let numbers: Vec<u64> = scan.snapshots.iter().map(|(n, _)| *n).collect();
            let want: Vec<u64> = names
                .iter()
                .filter_map(|(_, k)| match k {
                    Snapshot(n) => Some(*n),
                    _ => None,
                })
                .collect();
            assert_eq!(numbers, want, "{tag}: ascending by number");
            let mut debris: Vec<String> = scan
                .debris
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect();
            debris.sort();
            let mut want: Vec<&str> = names
                .iter()
                .filter(|(_, k)| matches!(k, Debris))
                .map(|(n, _)| *n)
                .collect();
            want.sort();
            assert_eq!(debris, want, "{tag}: debris");
            let on_disk = |dir: &Path| {
                let mut left: Vec<String> = fs::read_dir(dir)
                    .unwrap()
                    .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                    .collect();
                left.sort();
                left
            };
            let foreign: Vec<&str> = names
                .iter()
                .filter(|(_, k)| matches!(k, Foreign))
                .map(|(n, _)| *n)
                .collect();
            let with = |kept: &[&str]| {
                let mut all: Vec<String> =
                    foreign.iter().chain(kept).map(|n| n.to_string()).collect();
                all.sort();
                all
            };

            // The start-up sweep deletes only orphaned temp files.
            let storage = Storage::quiet();
            assert_eq!(layout.sweep(&storage, &dir), OpOutcome::Done);
            let journal = names[7].0;
            let kept = [names[0].0, names[1].0, names[2].0, journal];
            assert_eq!(on_disk(&dir), with(&kept), "{tag}: sweep");

            // Rotation prunes in one scan: the newest `keep` snapshots and
            // the foreign files stay, older snapshots and debris go.
            let ck = CheckpointConfig {
                keep_snapshots: 2,
                ..CheckpointConfig::new(&dir)
            };
            assert_eq!(layout.rotate(&storage, &ck), OpOutcome::Done);
            assert_eq!(on_disk(&dir), with(&[names[1].0, names[2].0]), "{tag}");
            assert!(storage.counters().is_quiet(), "{:?}", storage.counters());

            // Archival keeps the newest snapshot only, and is idempotent.
            fs::write(dir.join(journal), b"bytes").unwrap();
            assert_eq!(
                layout.archive(&dir, FsyncPolicy::OnSnapshot),
                (2, 0),
                "{tag}: one snapshot, one journal"
            );
            assert_eq!(on_disk(&dir), with(&[names[2].0]), "{tag}");
            assert_eq!(layout.archive(&dir, FsyncPolicy::OnSnapshot), (0, 0));
            // Without snapshots, archival and prune only clear debris.
            fs::remove_file(dir.join(names[2].0)).unwrap();
            fs::write(dir.join(journal), b"bytes").unwrap();
            assert_eq!(layout.archive(&dir, FsyncPolicy::OnSnapshot), (1, 0));
            assert_eq!(on_disk(&dir), with(&[]), "{tag}");

            // The scrub: newest-first, a corrupt newest generation and a
            // foreign layout's seal are skipped, counted and remembered;
            // debris is never read.
            let seal = |n: u64| {
                let mut w = sealed_writer(8);
                n.encode(&mut w);
                w
            };
            for n in [1u64, 2, 3] {
                assert_eq!(
                    layout.write(&storage, &ck, n, seal(n), 0xF00D),
                    OpOutcome::Done
                );
            }
            fs::write(dir.join(journal), [0xFF; 64]).unwrap();
            let newest = layout.path(&dir, 3);
            let mut bytes = fs::read(&newest).unwrap();
            *bytes.last_mut().unwrap() ^= 0x40;
            fs::write(&newest, &bytes).unwrap();
            let other = if layout.version == SINGLE.version {
                &SHARDED
            } else {
                &SINGLE
            };
            fs::write(layout.path(&dir, 2), other.seal(seal(2), 0xF00D)).unwrap();
            let mut info = ResumeReport::default();
            let decode = |n, fp, payload: &[u8]| {
                assert_eq!(fp, 0xF00D);
                assert_eq!(u64::from_bytes(payload)?, n, "payload of snapshot {n}");
                Ok(n)
            };
            let found = layout.newest(&storage, &dir, &mut info, decode).unwrap();
            assert_eq!(
                found,
                (1, 1, vec![3, 2]),
                "{tag}: fell back two generations"
            );
            assert_eq!(info.corrupt_snapshots_skipped, 2);
            assert_eq!(storage.counters().corrupt_snapshots, 2);
            fs::remove_file(layout.path(&dir, 1)).unwrap();
            assert!(matches!(
                layout.newest(&storage, &dir, &mut info, decode),
                Err(CheckpointError::NoUsableSnapshot)
            ));
            let _ = fs::remove_dir_all(&dir);
            assert!(matches!(
                layout.newest(&storage, &dir, &mut info, decode),
                Err(CheckpointError::NoUsableSnapshot)
            ));
        }
    }
}
