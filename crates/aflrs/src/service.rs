//! The multi-tenant campaign service: one long-lived process hosting many
//! concurrent fuzzing campaigns.
//!
//! A fuzzing cluster does not run one campaign per process invocation — it
//! runs a *server* that accepts campaign submissions, multiplexes them
//! over a bounded worker pool, survives restarts, and answers status
//! queries. This module is that layer, built entirely on top of the
//! single-campaign machinery: a [`Service`] owns a set of *tenants* (one
//! admitted [`CampaignSpec`] each) and a pool of scheduler threads that
//! drive each tenant's [`EpochSession`](crate::shard) one *grant* at a
//! time.
//!
//! # Scheduling model
//!
//! The shard epoch barrier is the preemption point. Between two
//! `EpochSession::step_epoch` calls a campaign
//! is fully merged and (since the service always checkpoints) durable on
//! disk, so parking it there costs nothing and changes nothing. The
//! scheduler exploits exactly that: a *grant* is
//! [`ServiceConfig::epoch_grant`] epochs, and each free worker hands the
//! next grant to the runnable tenant with the **fewest simulated cycles
//! consumed so far** (ties to the earliest-admitted tenant). That is
//! fair-share over *simulated* time — the resource campaigns actually
//! compete for — and it is deterministic: [`fair_pick`] is a pure
//! function of the tenants' cycle counters.
//!
//! Because every campaign is an independent deterministic state machine,
//! the interleaving chosen by the scheduler (and the OS threads beneath
//! it) can never change any campaign's result — only *when* it finishes.
//!
//! # Durability and churn
//!
//! Admission persists the spec (`spec.bin`, wire-encoded) in the tenant's
//! directory before the campaign first runs; every grant leaves behind the
//! usual shard snapshots, one per barrier. Killing the whole service
//! process at an arbitrary point therefore loses nothing that cannot be
//! recomputed: [`Service::restore`] re-reads every `spec.bin`, re-admits
//! every tenant, and resumes each campaign from its newest valid barrier
//! snapshot, re-running the interrupted epoch — to the bit-identical
//! [`CampaignResult`] the unkilled service would have produced (compare
//! with
//! [`CampaignResult::outcome_diff`]). The restore is cheap in decode work
//! too: the first resumed tenant lowers the target once and every later
//! tenant over the same target hits the process-wide cache, so a
//! thousand-campaign restore decodes the module once (see
//! [`vmos::decode_counters`]).
//!
//! # Health
//!
//! Each grant appends a progress sample to the tenant's history;
//! [`CampaignHandle::health`] folds that history into a [`HealthReport`]
//! — coverage-growth stall, queue staleness, and mutation yield, the
//! observables Görz et al. recommend watching instead of raw exec/s.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use closurex::executor::ExecutorFactory;
use vmos::{wire_enum, wire_struct, Reader, Wire, WireError, Writer};

use crate::builder::Isolation;
use crate::campaign::CampaignConfig;
use crate::checkpoint::{CheckpointConfig, FsyncPolicy, ResumeReport, SHARDED};
use crate::shard::{
    EpochSession, EpochStatus, SessionProgress, SessionStart, ShardPlan, DEFAULT_LANES,
    DEFAULT_SYNC_EPOCHS,
};
use crate::stats::CampaignResult;
use crate::storage::fsync_dir;
use crate::supervise::SupervisorConfig;

/// `spec.bin` wire-format version; bump on any layout change. Other
/// versions are refused, so restore fails closed on them.
const SPEC_VERSION: u32 = 2;
/// `spec.bin` magic.
const SPEC_MAGIC: &[u8; 4] = b"CXSP";
/// The spec file's name inside a tenant directory.
const SPEC_FILE: &str = "spec.bin";
/// Where [`write_spec`] stages `spec.bin` before renaming it into place.
/// Never committed state: a success renames it away, a failure deletes
/// it, and [`Service::restore`] deletes one a killed admission left.
const SPEC_TMP: &str = "spec.bin.tmp";

/// Resolves the opaque [`CampaignSpec::factory_spec`] bytes into an
/// executor factory. The service itself is target-agnostic — what a spec
/// *means* is the embedding application's business (the bench harness
/// resolves `(mechanism, target name)` pairs; a test resolves whatever it
/// compiled). Must be deterministic: restore re-resolves every spec and
/// expects factories over the bit-identical module.
pub trait SpecResolver: Send + Sync {
    /// Build the factory `factory_spec` describes.
    ///
    /// # Errors
    /// A human-readable message when the bytes are malformed or name an
    /// unknown target; surfaced as [`AdmissionError::Resolver`].
    fn resolve(
        &self,
        factory_spec: &[u8],
    ) -> Result<Box<dyn ExecutorFactory + Send + Sync>, String>;
}

/// Everything the service needs to run one campaign — the one
/// serializable campaign description, shared by live submission
/// ([`Service::submit`]) and churn recovery ([`Service::restore`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Tenant name: names the on-disk directory, must be unique within a
    /// service and match `[A-Za-z0-9._-]+`.
    pub name: String,
    /// Opaque factory recipe, interpreted by the service's
    /// [`SpecResolver`].
    pub factory_spec: Vec<u8>,
    /// Seed corpus.
    pub seeds: Vec<Vec<u8>>,
    /// Campaign parameters (budget, RNG seed, stage shape, …).
    pub cfg: CampaignConfig,
    /// Logical lanes (the determinism unit; default [`DEFAULT_LANES`]).
    pub lanes: usize,
    /// Worker threads *within* this campaign's epochs (the throughput
    /// knob; clamped to `[1, lanes]`).
    pub shards: usize,
    /// Merge barriers across the budget (default
    /// [`DEFAULT_SYNC_EPOCHS`]); also the preemption granularity.
    pub sync_epochs: u64,
    /// Snapshot generations to retain in the tenant directory.
    pub keep_snapshots: usize,
}

impl CampaignSpec {
    /// A spec with the standard sharding shape and retention defaults.
    pub fn new(
        name: impl Into<String>,
        factory_spec: Vec<u8>,
        seeds: Vec<Vec<u8>>,
        cfg: CampaignConfig,
    ) -> Self {
        CampaignSpec {
            name: name.into(),
            factory_spec,
            seeds,
            cfg,
            lanes: DEFAULT_LANES,
            shards: 1,
            sync_epochs: DEFAULT_SYNC_EPOCHS,
            keep_snapshots: 2,
        }
    }

    fn plan(&self) -> ShardPlan {
        let lanes = self.lanes.max(1);
        ShardPlan {
            lanes,
            workers: self.shards.clamp(1, lanes),
            sync_epochs: self.sync_epochs.max(1),
            isolation: Isolation::InProcess,
        }
    }
}

/// Hand-written: `spec.bin` opens with a magic and a format version that
/// decoding checks before the fields.
impl Wire for CampaignSpec {
    const MIN_LEN: usize = 8 + SPEC_MAGIC.len() + 4 + 8 * 7 + CampaignConfig::MIN_LEN;

    fn encode(&self, w: &mut Writer) {
        w.put_bytes(SPEC_MAGIC);
        w.put_u32(SPEC_VERSION);
        self.name.encode(w);
        self.factory_spec.encode(w);
        self.seeds.encode(w);
        self.cfg.encode(w);
        self.lanes.encode(w);
        self.shards.encode(w);
        self.sync_epochs.encode(w);
        self.keep_snapshots.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.get_bytes()? != SPEC_MAGIC {
            return Err(WireError::Malformed("bad campaign spec magic"));
        }
        if r.get_u32()? != SPEC_VERSION {
            return Err(WireError::Malformed("campaign spec version"));
        }
        Ok(CampaignSpec {
            name: Wire::decode(r)?,
            factory_spec: Wire::decode(r)?,
            seeds: Wire::decode(r)?,
            cfg: Wire::decode(r)?,
            lanes: Wire::decode(r)?,
            shards: Wire::decode(r)?,
            sync_epochs: Wire::decode(r)?,
            keep_snapshots: Wire::decode(r)?,
        })
    }
}

/// Why [`Service::submit`] refused a campaign.
#[derive(Debug)]
pub enum AdmissionError {
    /// The service already hosts [`ServiceConfig::max_campaigns`] live
    /// campaigns — back off and resubmit later.
    Full {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// A tenant with this name already exists (names are directory names:
    /// unique for the service's lifetime, finished or not).
    Duplicate(String),
    /// The spec is structurally unusable (bad name, no seeds, …).
    InvalidSpec(&'static str),
    /// The service's [`SpecResolver`] could not build a factory.
    Resolver(String),
    /// Persisting `spec.bin` failed — the campaign was *not* admitted
    /// (admission is durable or it did not happen).
    Io(std::io::Error),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Full { capacity } => {
                write!(f, "service is at capacity ({capacity} campaigns)")
            }
            AdmissionError::Duplicate(name) => {
                write!(f, "a campaign named {name:?} already exists")
            }
            AdmissionError::InvalidSpec(msg) => write!(f, "invalid campaign spec: {msg}"),
            AdmissionError::Resolver(msg) => write!(f, "spec resolver failed: {msg}"),
            AdmissionError::Io(e) => write!(f, "could not persist campaign spec: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why a [`CampaignHandle`] operation could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The campaign was killed (simulated SIGKILL or
    /// [`CampaignHandle::kill`]) after `execs` executions; it is resumable
    /// via [`CampaignHandle::resume`] or a service restart.
    Killed {
        /// Executions completed before the kill.
        execs: u64,
    },
    /// The campaign errored out (factory failure, corrupt checkpoint, …).
    Failed(String),
    /// The service shut down before the campaign reached a terminal
    /// state.
    ShutDown,
}

wire_enum!(ServiceError, "service error tag" {
    0 => Killed { execs },
    1 => Failed(msg),
    2 => ShutDown,
});

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Killed { execs } => {
                write!(f, "campaign killed after {execs} executions (resumable)")
            }
            ServiceError::Failed(msg) => write!(f, "campaign failed: {msg}"),
            ServiceError::ShutDown => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Where a campaign stands, as reported by [`CampaignHandle::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignState {
    /// Admitted; no grant has run yet.
    Queued,
    /// Live: parked between grants or currently being stepped.
    Running,
    /// Parked by [`CampaignHandle::pause`]; resumable instantly.
    Paused,
    /// Dead but resumable from disk (simulated SIGKILL or
    /// [`CampaignHandle::kill`]).
    Killed {
        /// Executions completed before the kill.
        execs: u64,
    },
    /// Done; [`CampaignHandle::await_result`] returns the result.
    Finished,
    /// Errored out; the message is in
    /// [`ServiceError::Failed`].
    Failed,
}

wire_enum!(CampaignState, "campaign state tag" {
    0 => Queued,
    1 => Running,
    2 => Paused,
    3 => Killed { execs },
    4 => Finished,
    5 => Failed,
});

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Root directory; each tenant gets `dir/<name>/` for its spec,
    /// and shard snapshots.
    pub dir: PathBuf,
    /// Scheduler threads — the bound on campaigns stepping concurrently
    /// (each campaign additionally uses its own `shards` threads while
    /// stepping).
    pub workers: usize,
    /// Admission bound: maximum live (not finished, not failed) campaigns.
    pub max_campaigns: usize,
    /// Epochs per scheduling grant. Smaller = finer-grained fairness,
    /// more scheduling overhead.
    pub epoch_grant: u64,
    /// Simulated-SIGKILL torture hook, armed onto *every* tenant's
    /// checkpoint config: each campaign dies abruptly after this many
    /// executions (see [`CheckpointConfig::kill_after_execs`]). The
    /// churn-identity evaluation arms this, kills the service, and
    /// restores with it disarmed.
    pub kill_after_execs: Option<u64>,
    /// Flush policy for every tenant's checkpoints and `spec.bin`.
    pub fsync: FsyncPolicy,
    /// Lane supervision config for every tenant.
    pub supervision: SupervisorConfig,
    /// Health-driven rotation: when `Some(n)`, a tenant whose
    /// [`HealthReport::stalled_grants`] reaches `n` at park time is cooled
    /// for [`ServiceConfig::stall_cooldown_grants`] scheduling grants, so
    /// plateaued campaigns stop starving tenants that are still finding
    /// coverage. Work-conserving: cooled tenants still run when nothing
    /// hotter is runnable. `None` (the default) disables rotation.
    pub stall_threshold: Option<u64>,
    /// How many service-wide grants a rotated-out tenant sits out.
    pub stall_cooldown_grants: u64,
    /// Terminal-campaign retention budget: when `Some(n)` and more than
    /// `n` terminal (killed / finished / failed) tenants exist, the oldest
    /// beyond the budget are archived — checkpoint generations rotated
    /// down to the single newest sealed snapshot. Killed tenants stay
    /// resumable from that snapshot.
    /// Sweep failures are warnings, never fatal. `None` disables.
    pub retain_terminal: Option<usize>,
}

impl ServiceConfig {
    /// Defaults: 2 workers, 8 campaigns, 1-epoch grants, no kill hook,
    /// no stall rotation, no terminal archival.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            dir: dir.into(),
            workers: 2,
            max_campaigns: 8,
            epoch_grant: 1,
            kill_after_execs: None,
            fsync: FsyncPolicy::default(),
            supervision: SupervisorConfig::default(),
            stall_threshold: None,
            stall_cooldown_grants: 4,
            retain_terminal: None,
        }
    }
}

/// Per-campaign health, folded from the per-grant progress history (the
/// campaign-introspection observables of Görz et al.: watch coverage
/// growth and corpus dynamics, not raw exec/s).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct HealthReport {
    /// Barriers completed / total.
    pub epoch: u64,
    /// Total barriers this campaign will run.
    pub epochs: u64,
    /// Executions across all lanes.
    pub execs: u64,
    /// Simulated cycles consumed.
    pub clock_cycles: u64,
    /// Edges in the merged virgin map.
    pub edges_found: u64,
    /// Merged queue length.
    pub queue_len: u64,
    /// Merged unique crash sites.
    pub crashes: u64,
    /// Mutation yield: edges found per million executions. Decaying yield
    /// is the expected coverage-over-time shape; a sudden collapse to 0
    /// together with a growing `stalled_grants` marks a plateaued
    /// campaign worth rotating out.
    pub edges_per_megaexec: f64,
    /// Consecutive trailing grants with zero new edges.
    pub stalled_grants: u64,
    /// Consecutive trailing grants with an unchanged queue (no new
    /// interesting inputs — staler than `stalled_grants` alone, since
    /// queue growth without new edges still feeds the splice stage).
    pub stale_queue_grants: u64,
}

wire_struct!(HealthReport {
    epoch,
    epochs,
    execs,
    clock_cycles,
    edges_found,
    queue_len,
    crashes,
    edges_per_megaexec,
    stalled_grants,
    stale_queue_grants,
});

fn health_from(history: &[SessionProgress]) -> Option<HealthReport> {
    let last = history.last()?;
    let trailing = |same: &dyn Fn(&SessionProgress, &SessionProgress) -> bool| -> u64 {
        history
            .windows(2)
            .rev()
            .take_while(|w| same(&w[0], &w[1]))
            .count() as u64
    };
    Some(HealthReport {
        epoch: last.epoch,
        epochs: last.epochs,
        execs: last.execs,
        clock_cycles: last.clock_cycles,
        edges_found: last.edges_found,
        queue_len: last.queue_len as u64,
        crashes: last.crashes as u64,
        edges_per_megaexec: if last.execs == 0 {
            0.0
        } else {
            last.edges_found as f64 * 1_000_000.0 / last.execs as f64
        },
        stalled_grants: trailing(&|a, b| a.edges_found == b.edges_found),
        stale_queue_grants: trailing(&|a, b| a.queue_len == b.queue_len),
    })
}

/// A service-wide counter snapshot ([`Service::stats`]).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct ServiceStats {
    /// Campaigns ever admitted (including restored ones).
    pub admitted: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Tenants with no grant run yet.
    pub queued: usize,
    /// Live tenants (parked between grants or stepping).
    pub running: usize,
    /// Paused tenants.
    pub paused: usize,
    /// Killed-but-resumable tenants.
    pub killed: usize,
    /// Finished tenants.
    pub finished: usize,
    /// Failed tenants.
    pub failed: usize,
    /// Scheduling grants handed out.
    pub epoch_grants: u64,
    /// Simulated cycles consumed across all tenants.
    pub cycles_granted: u64,
    /// Executions across all tenants.
    pub total_execs: u64,
    /// Stall rotations: times a plateaued tenant was cooled out of the
    /// scheduler (see [`ServiceConfig::stall_threshold`]).
    pub stall_rotations: u64,
    /// Terminal tenants archived down to one sealed snapshot (see
    /// [`ServiceConfig::retain_terminal`]).
    pub archived_tenants: u64,
    /// Non-fatal failures during archival sweeps (files that could not be
    /// listed or removed; the tenant stays archived, extra files linger).
    pub archive_warnings: u64,
    /// Process-wide decoded-image counters — the restore-decodes-once
    /// story is asserted through this (see [`vmos::decode_counters`]).
    pub decode: vmos::DecodeCounters,
}

/// Pause/kill requests, checked by the stepping worker at every epoch
/// barrier (the preemption point) without taking the scheduler lock.
#[derive(Default)]
struct TenantFlags {
    pause: AtomicBool,
    kill: AtomicBool,
}

/// Tenant lifecycle phase (internal; [`CampaignState`] is the public
/// projection).
enum Phase {
    /// Runnable: waiting for a worker grant.
    Ready,
    /// A worker holds the session and is stepping it.
    Stepping,
    Paused,
    Killed {
        execs: u64,
    },
    Finished,
    Failed,
}

struct Tenant {
    spec: CampaignSpec,
    /// Taken (moved out) by the stepping worker, put back at park.
    factory: Option<Box<dyn ExecutorFactory + Send + Sync>>,
    /// The live session, parked between grants. `None` before the first
    /// grant, while stepping, and after a kill.
    session: Option<Box<EpochSession>>,
    /// With no live session: `true` when on-disk state exists and the
    /// next grant must [`EpochSession::resume`] rather than `start`.
    needs_resume: bool,
    phase: Phase,
    flags: Arc<TenantFlags>,
    /// Fair-share key: simulated cycles this campaign has consumed.
    granted_cycles: u64,
    grants: u64,
    history: Vec<SessionProgress>,
    /// The newest resume's report, embedded into the final result.
    resume_report: Option<ResumeReport>,
    result: Option<CampaignResult>,
    error: Option<String>,
    /// Stall rotation: this tenant is deprioritised until the service-wide
    /// grant counter passes this value (0 = never cooled).
    cooldown_until_grant: u64,
    /// The terminal-retention sweep already rotated this tenant's
    /// checkpoints down to one sealed snapshot (once per tenant).
    archived: bool,
}

impl Tenant {
    fn state(&self) -> CampaignState {
        match self.phase {
            Phase::Ready if self.grants == 0 => CampaignState::Queued,
            Phase::Ready | Phase::Stepping => CampaignState::Running,
            Phase::Paused => CampaignState::Paused,
            Phase::Killed { execs } => CampaignState::Killed { execs },
            Phase::Finished => CampaignState::Finished,
            Phase::Failed => CampaignState::Failed,
        }
    }

    fn live(&self) -> bool {
        !matches!(self.phase, Phase::Finished | Phase::Failed)
    }

    fn last_execs(&self) -> u64 {
        self.history.last().map_or(0, |p| p.execs)
    }
}

struct State {
    tenants: Vec<Tenant>,
    shutdown: bool,
    admitted: u64,
    rejected: u64,
    epoch_grants: u64,
    stall_rotations: u64,
    archived_tenants: u64,
    archive_warnings: u64,
}

struct Shared {
    cfg: ServiceConfig,
    resolver: Arc<dyn SpecResolver>,
    state: Mutex<State>,
    /// Workers wait here for runnable tenants.
    work: Condvar,
    /// [`CampaignHandle::await_result`] waiters wait here.
    done: Condvar,
}

/// Pick the next tenant to grant: among `candidates = (id, granted
/// simulated cycles)` of runnable tenants, the minimum cycles, ties to
/// the smallest id. Pure — the whole fair-share policy in one testable
/// function.
pub fn fair_pick(candidates: &[(usize, u64)]) -> Option<usize> {
    candidates
        .iter()
        .min_by_key(|(id, cycles)| (*cycles, *id))
        .map(|(id, _)| *id)
}

/// The long-lived multi-tenant campaign server. See the module docs.
///
/// Dropping the service is a *graceful* shutdown: in-flight grants finish
/// their epoch, workers exit, campaigns stay durable on disk. The abrupt
/// death the churn evaluation exercises is simulated with
/// [`ServiceConfig::kill_after_execs`], which kills mid-epoch, losing the
/// work since the last barrier to a re-run.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Start an empty service over `cfg.dir` (created if missing).
    ///
    /// # Errors
    /// [`std::io::Error`] when the root directory cannot be created.
    pub fn new(cfg: ServiceConfig, resolver: Arc<dyn SpecResolver>) -> std::io::Result<Service> {
        fs::create_dir_all(&cfg.dir)?;
        let workers_n = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            resolver,
            state: Mutex::new(State {
                tenants: Vec::new(),
                shutdown: false,
                admitted: 0,
                rejected: 0,
                epoch_grants: 0,
                stall_rotations: 0,
                archived_tenants: 0,
                archive_warnings: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..workers_n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Service { shared, workers })
    }

    /// Restart a service over a directory a previous (possibly killed)
    /// service used: every persisted `spec.bin` is re-admitted — capacity
    /// is not enforced against prior commitments — and every campaign
    /// with on-disk state resumes from its newest valid snapshot. A tenant
    /// directory without a shard snapshot (admitted and never granted, or
    /// killed while laying down its first snapshot, which leaves only an
    /// orphaned temp file) starts from scratch.
    ///
    /// # Errors
    /// [`AdmissionError::Io`] when the directory cannot be scanned or a
    /// spec cannot be read; [`AdmissionError::InvalidSpec`] /
    /// [`AdmissionError::Resolver`] when a persisted spec no longer
    /// resolves (the deployment changed underneath the data).
    pub fn restore(
        cfg: ServiceConfig,
        resolver: Arc<dyn SpecResolver>,
    ) -> Result<Service, AdmissionError> {
        let service = Service::new(cfg, resolver).map_err(AdmissionError::Io)?;
        let mut names = Vec::new();
        let entries = fs::read_dir(&service.shared.cfg.dir).map_err(AdmissionError::Io)?;
        for entry in entries {
            let entry = entry.map_err(AdmissionError::Io)?;
            let dir = entry.path();
            if dir.join(SPEC_TMP).is_file() {
                // Best effort, like the snapshot store's debris sweep: the
                // temp is never state. Without a `spec.bin` its admission
                // was never acknowledged, so the directory goes too if the
                // temp was all it held.
                let _ = fs::remove_file(dir.join(SPEC_TMP));
                if !dir.join(SPEC_FILE).exists() {
                    let _ = fs::remove_dir(&dir);
                }
            }
            if dir.join(SPEC_FILE).is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        // Deterministic re-admission order — tenant ids (the fair-share
        // tie-breaker) must not depend on directory iteration order.
        names.sort();
        for name in names {
            let dir = service.shared.cfg.dir.join(&name);
            let bytes = fs::read(dir.join(SPEC_FILE)).map_err(AdmissionError::Io)?;
            let spec = CampaignSpec::from_bytes(&bytes)
                .map_err(|_| AdmissionError::InvalidSpec("corrupt spec.bin"))?;
            // On-disk campaign state = a shard snapshot generation. Debris
            // (an orphaned temp file, an old lane journal) is not state.
            let scan = SHARDED.scan(&dir).map_err(AdmissionError::Io)?;
            let has_state = !scan.snapshots.is_empty();
            service.admit(spec, has_state, false)?;
        }
        Ok(service)
    }

    /// Admit a campaign. On `Ok` the spec is durable on disk and the
    /// campaign will be scheduled; the returned handle observes and
    /// controls it.
    ///
    /// # Errors
    /// [`AdmissionError`] — capacity, duplicate name, structural
    /// problems, resolver failure, or spec-persistence I/O. A rejected
    /// campaign leaves no trace.
    pub fn submit(&self, spec: CampaignSpec) -> Result<CampaignHandle, AdmissionError> {
        self.admit(spec, false, true)
    }

    fn admit(
        &self,
        spec: CampaignSpec,
        needs_resume: bool,
        enforce_capacity: bool,
    ) -> Result<CampaignHandle, AdmissionError> {
        let reject = |st: &mut State, e: AdmissionError| {
            st.rejected += 1;
            Err(e)
        };
        let mut st = self.shared.state.lock().expect("service state poisoned");
        if spec.name.is_empty()
            || !spec
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_')
        {
            return reject(
                &mut st,
                AdmissionError::InvalidSpec("tenant names are [A-Za-z0-9._-]+"),
            );
        }
        if spec.seeds.is_empty() {
            return reject(&mut st, AdmissionError::InvalidSpec("no seeds"));
        }
        if st.tenants.iter().any(|t| t.spec.name == spec.name) {
            return reject(&mut st, AdmissionError::Duplicate(spec.name));
        }
        let capacity = self.shared.cfg.max_campaigns;
        if enforce_capacity && st.tenants.iter().filter(|t| t.live()).count() >= capacity {
            return reject(&mut st, AdmissionError::Full { capacity });
        }
        let factory = match self.shared.resolver.resolve(&spec.factory_spec) {
            Ok(f) => f,
            Err(msg) => return reject(&mut st, AdmissionError::Resolver(msg)),
        };
        // Durable admission: spec.bin reaches the tenant directory before
        // the tenant exists in memory, so a service killed right here
        // restores the campaign instead of forgetting it.
        if let Err(e) = write_spec(&self.shared.cfg, &spec) {
            return reject(&mut st, AdmissionError::Io(e));
        }
        let id = st.tenants.len();
        st.tenants.push(Tenant {
            spec,
            factory: Some(factory),
            session: None,
            needs_resume,
            phase: Phase::Ready,
            flags: Arc::new(TenantFlags::default()),
            granted_cycles: 0,
            grants: 0,
            history: Vec::new(),
            resume_report: None,
            result: None,
            error: None,
            cooldown_until_grant: 0,
            archived: false,
        });
        st.admitted += 1;
        drop(st);
        self.shared.work.notify_one();
        Ok(CampaignHandle {
            shared: Arc::clone(&self.shared),
            id,
        })
    }

    /// The handle for an admitted campaign, by tenant name.
    pub fn handle(&self, name: &str) -> Option<CampaignHandle> {
        let st = self.shared.state.lock().expect("service state poisoned");
        st.tenants
            .iter()
            .position(|t| t.spec.name == name)
            .map(|id| CampaignHandle {
                shared: Arc::clone(&self.shared),
                id,
            })
    }

    /// The admitted spec for a tenant, by name. The RPC front end uses
    /// this to deduplicate retried `Submit`s against the durable
    /// admission (`spec.bin` lands before any ack).
    pub fn spec(&self, name: &str) -> Option<CampaignSpec> {
        let st = self.shared.state.lock().expect("service state poisoned");
        st.tenants
            .iter()
            .find(|t| t.spec.name == name)
            .map(|t| t.spec.clone())
    }

    /// The service root directory (tenant state lives under it; the RPC
    /// reply journal sits beside the tenant directories).
    pub fn dir(&self) -> &Path {
        &self.shared.cfg.dir
    }

    /// Handles for every admitted campaign, in admission order.
    pub fn handles(&self) -> Vec<CampaignHandle> {
        let st = self.shared.state.lock().expect("service state poisoned");
        (0..st.tenants.len())
            .map(|id| CampaignHandle {
                shared: Arc::clone(&self.shared),
                id,
            })
            .collect()
    }

    /// A service-wide counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let st = self.shared.state.lock().expect("service state poisoned");
        let mut s = ServiceStats {
            admitted: st.admitted,
            rejected: st.rejected,
            epoch_grants: st.epoch_grants,
            stall_rotations: st.stall_rotations,
            archived_tenants: st.archived_tenants,
            archive_warnings: st.archive_warnings,
            decode: vmos::decode_counters(),
            ..ServiceStats::default()
        };
        for t in &st.tenants {
            match t.state() {
                CampaignState::Queued => s.queued += 1,
                CampaignState::Running => s.running += 1,
                CampaignState::Paused => s.paused += 1,
                CampaignState::Killed { .. } => s.killed += 1,
                CampaignState::Finished => s.finished += 1,
                CampaignState::Failed => s.failed += 1,
            }
            s.cycles_granted += t.granted_cycles;
            s.total_execs += t.last_execs();
        }
        s
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Wake await_result callers on other threads so they observe
        // `ShutDown` instead of blocking forever.
        self.shared.done.notify_all();
    }
}

/// Observe and control one admitted campaign. Clonable, independent of
/// the [`Service`] value's lifetime (it holds the shared state alive);
/// after the service is dropped, control operations become no-ops and
/// waits report [`ServiceError::ShutDown`].
#[derive(Clone)]
pub struct CampaignHandle {
    shared: Arc<Shared>,
    id: usize,
}

impl std::fmt::Debug for CampaignHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignHandle")
            .field("name", &self.name())
            .field("status", &self.status())
            .finish_non_exhaustive()
    }
}

impl CampaignHandle {
    /// The tenant name.
    pub fn name(&self) -> String {
        let st = self.shared.state.lock().expect("service state poisoned");
        st.tenants[self.id].spec.name.clone()
    }

    /// Where the campaign stands right now.
    pub fn status(&self) -> CampaignState {
        let st = self.shared.state.lock().expect("service state poisoned");
        st.tenants[self.id].state()
    }

    /// The campaign's health, folded from its per-grant progress history
    /// (`None` before the first grant completes).
    pub fn health(&self) -> Option<HealthReport> {
        let st = self.shared.state.lock().expect("service state poisoned");
        health_from(&st.tenants[self.id].history)
    }

    /// Park the campaign at its next epoch barrier. Idempotent; no-op on
    /// terminal states. The campaign's durable state is unaffected —
    /// pausing is purely a scheduling exclusion.
    pub fn pause(&self) {
        let mut st = self.shared.state.lock().expect("service state poisoned");
        let t = &mut st.tenants[self.id];
        t.flags.pause.store(true, Ordering::SeqCst);
        if matches!(t.phase, Phase::Ready) {
            t.phase = Phase::Paused;
        }
    }

    /// Make the campaign runnable again: un-pauses a paused campaign,
    /// resurrects a killed one (its next grant resumes from the
    /// checkpoint). No-op on running, finished, or failed campaigns.
    pub fn resume(&self) {
        let mut st = self.shared.state.lock().expect("service state poisoned");
        let t = &mut st.tenants[self.id];
        t.flags.pause.store(false, Ordering::SeqCst);
        t.flags.kill.store(false, Ordering::SeqCst);
        match t.phase {
            Phase::Paused | Phase::Killed { .. } => {
                t.phase = Phase::Ready;
                drop(st);
                self.shared.work.notify_one();
            }
            _ => {}
        }
    }

    /// Stop the campaign at its next epoch barrier and release its
    /// in-memory session. The on-disk state stays; [`Self::resume`] or a
    /// service restart brings it back. Idempotent; no-op on terminal
    /// states.
    pub fn kill(&self) {
        let mut st = self.shared.state.lock().expect("service state poisoned");
        let t = &mut st.tenants[self.id];
        t.flags.kill.store(true, Ordering::SeqCst);
        match t.phase {
            Phase::Ready | Phase::Paused => {
                let execs = t
                    .session
                    .as_ref()
                    .map_or(t.last_execs(), |s| s.progress().execs);
                // A parked session is at a barrier: its state is already
                // durable, dropping it loses nothing.
                let had_state = t.session.take().is_some() || t.needs_resume;
                t.needs_resume = had_state;
                t.phase = Phase::Killed { execs };
                drop(st);
                self.shared.done.notify_all();
            }
            _ => {}
        }
    }

    /// Block until the campaign reaches a terminal state and return its
    /// result.
    ///
    /// # Errors
    /// [`ServiceError::Killed`] when the campaign was killed (it is still
    /// resumable — this is a state report, not a loss),
    /// [`ServiceError::Failed`] when it errored out, and
    /// [`ServiceError::ShutDown`] when the service stopped first. A
    /// paused campaign never terminates on its own; pair this with
    /// [`Self::resume`].
    pub fn await_result(&self) -> Result<CampaignResult, ServiceError> {
        let mut st = self.shared.state.lock().expect("service state poisoned");
        loop {
            match &st.tenants[self.id].phase {
                Phase::Finished => {
                    return Ok(st.tenants[self.id]
                        .result
                        .clone()
                        .expect("finished tenant has a result"));
                }
                Phase::Failed => {
                    return Err(ServiceError::Failed(
                        st.tenants[self.id].error.clone().unwrap_or_default(),
                    ));
                }
                Phase::Killed { execs } => return Err(ServiceError::Killed { execs: *execs }),
                _ if st.shutdown => return Err(ServiceError::ShutDown),
                _ => {
                    st = self.shared.done.wait(st).expect("service state poisoned");
                }
            }
        }
    }
}

/// Atomically persist `spec.bin` into the tenant directory: temp file,
/// then rename. Unless [`ServiceConfig::fsync`] is
/// [`FsyncPolicy::Never`], the temp file is fsynced before the rename,
/// and the tenant directory (the rename) and the service root (a new
/// tenant directory's entry) after it, so the spec survives a power loss.
/// A failure before the rename removes the temp file.
fn write_spec(cfg: &ServiceConfig, spec: &CampaignSpec) -> std::io::Result<()> {
    let dir = cfg.dir.join(&spec.name);
    fs::create_dir_all(&dir)?;
    let tmp = dir.join(SPEC_TMP);
    let durable = cfg.fsync != FsyncPolicy::Never;
    let staged = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&spec.to_bytes())?;
        if durable {
            f.sync_data()?;
        }
        fs::rename(&tmp, dir.join(SPEC_FILE))
    })();
    if let Err(e) = staged {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if durable {
        fsync_dir(&dir)?;
        fsync_dir(&cfg.dir)?;
    }
    Ok(())
}

/// What a worker carries out of the scheduler lock for one grant.
struct Grant {
    id: usize,
    spec: CampaignSpec,
    factory: Box<dyn ExecutorFactory + Send + Sync>,
    session: Option<Box<EpochSession>>,
    needs_resume: bool,
    flags: Arc<TenantFlags>,
}

/// How the grant left the tenant.
enum Parked {
    Ready(Box<EpochSession>),
    Paused(Box<EpochSession>),
    Killed { execs: u64 },
    Finished(Box<CampaignResult>),
    Failed(String),
}

fn worker_loop(shared: &Shared) {
    loop {
        let grant = {
            let mut st = shared.state.lock().expect("service state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                // Stall rotation: tenants in cooldown only run when no
                // hot (uncooled) tenant is runnable — deprioritised, not
                // starved (the rotation is work-conserving).
                let now = st.epoch_grants;
                let collect = |st: &State, include_cooled: bool| -> Vec<(usize, u64)> {
                    st.tenants
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| {
                            matches!(t.phase, Phase::Ready)
                                && (include_cooled || t.cooldown_until_grant <= now)
                        })
                        .map(|(id, t)| (id, t.granted_cycles))
                        .collect()
                };
                let mut candidates = collect(&st, false);
                if candidates.is_empty() {
                    candidates = collect(&st, true);
                }
                if let Some(id) = fair_pick(&candidates) {
                    let t = &mut st.tenants[id];
                    t.phase = Phase::Stepping;
                    st.epoch_grants += 1;
                    let t = &mut st.tenants[id];
                    break Grant {
                        id,
                        spec: t.spec.clone(),
                        factory: t.factory.take().expect("ready tenant keeps its factory"),
                        session: t.session.take(),
                        needs_resume: t.needs_resume,
                        flags: Arc::clone(&t.flags),
                    };
                }
                st = shared.work.wait(st).expect("service state poisoned");
            }
        };
        let id = grant.id;
        let (parked, factory, resume_report) = run_grant(shared, grant);
        let archive: Vec<String> = {
            let mut st = shared.state.lock().expect("service state poisoned");
            let now = st.epoch_grants;
            let mut rotated = false;
            let t = &mut st.tenants[id];
            t.factory = Some(factory);
            t.grants += 1;
            if let Some(r) = resume_report {
                t.resume_report = Some(r);
            }
            let paused = matches!(parked, Parked::Paused(_));
            match parked {
                Parked::Ready(s) | Parked::Paused(s) => {
                    let p = s.progress();
                    t.granted_cycles = p.clock_cycles;
                    t.history.push(p);
                    t.session = Some(s);
                    t.needs_resume = false;
                    t.phase = if paused { Phase::Paused } else { Phase::Ready };
                    // Health-driven rotation: a plateaued tenant parks
                    // into a cooldown window instead of re-entering the
                    // fair-share race immediately.
                    if let Some(threshold) = shared.cfg.stall_threshold {
                        let stalled =
                            health_from(&t.history).is_some_and(|h| h.stalled_grants >= threshold);
                        if !paused && stalled && t.cooldown_until_grant <= now {
                            t.cooldown_until_grant = now + shared.cfg.stall_cooldown_grants;
                            rotated = true;
                        }
                    }
                }
                Parked::Killed { execs } => {
                    // The session died mid-epoch (simulated SIGKILL or
                    // storage crash) or was killed at a barrier; either
                    // way the in-memory object is gone and the next grant
                    // resumes from disk.
                    t.session = None;
                    t.needs_resume = true;
                    t.phase = Phase::Killed { execs };
                }
                Parked::Finished(result) => {
                    let mut result = *result;
                    result.resume = t.resume_report.clone();
                    let p = SessionProgress {
                        epoch: t.spec.sync_epochs.max(1),
                        epochs: t.spec.sync_epochs.max(1),
                        execs: result.execs,
                        clock_cycles: result.clock_cycles,
                        edges_found: result.edges_found as u64,
                        queue_len: result.queue_len,
                        crashes: result.crashes.len(),
                    };
                    t.granted_cycles = p.clock_cycles;
                    t.history.push(p);
                    t.result = Some(result);
                    t.phase = Phase::Finished;
                }
                Parked::Failed(msg) => {
                    t.error = Some(msg);
                    t.phase = Phase::Failed;
                }
            }
            if rotated {
                st.stall_rotations += 1;
            }
            let archive = plan_archival(&shared.cfg, &mut st);
            let more = st.tenants.iter().any(|t| matches!(t.phase, Phase::Ready));
            drop(st);
            shared.done.notify_all();
            if more {
                shared.work.notify_one();
            }
            archive
        };
        // Sweep outside the scheduler lock — directory pruning must not
        // stall grant scheduling. The victims are already claimed
        // (`archived = true`), so concurrent workers never double-sweep.
        for name in archive {
            let (_, warnings) = SHARDED.archive(&shared.cfg.dir.join(&name), shared.cfg.fsync);
            let mut st = shared.state.lock().expect("service state poisoned");
            st.archived_tenants += 1;
            st.archive_warnings += warnings;
        }
    }
}

/// Under the scheduler lock: claim terminal tenants beyond the
/// [`ServiceConfig::retain_terminal`] budget for archival, oldest
/// (smallest tenant id) first, and return their names. Each tenant is
/// claimed at most once for the service's lifetime.
fn plan_archival(cfg: &ServiceConfig, st: &mut State) -> Vec<String> {
    let Some(budget) = cfg.retain_terminal else {
        return Vec::new();
    };
    let terminal: Vec<usize> = st
        .tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            matches!(
                t.phase,
                Phase::Killed { .. } | Phase::Finished | Phase::Failed
            )
        })
        .map(|(id, _)| id)
        .collect();
    if terminal.len() <= budget {
        return Vec::new();
    }
    let mut names = Vec::new();
    for &id in &terminal[..terminal.len() - budget] {
        let t = &mut st.tenants[id];
        if !t.archived {
            t.archived = true;
            names.push(t.spec.name.clone());
        }
    }
    names
}

/// Step one tenant for one grant, outside the scheduler lock. Returns how
/// the tenant parks, its factory (always handed back), and the resume
/// report if this grant had to revive the campaign from disk.
fn run_grant(
    shared: &Shared,
    grant: Grant,
) -> (
    Parked,
    Box<dyn ExecutorFactory + Send + Sync>,
    Option<ResumeReport>,
) {
    let Grant {
        id: _,
        spec,
        factory,
        session,
        needs_resume,
        flags,
    } = grant;
    let ck = tenant_checkpoint(&shared.cfg, &spec);
    let plan = spec.plan();
    let mut resume_report = None;
    let mut session = match session {
        Some(s) => s,
        None => {
            let started = if needs_resume {
                EpochSession::resume(
                    &*factory,
                    &spec.seeds,
                    &spec.cfg,
                    &plan,
                    &ck,
                    &shared.cfg.supervision,
                )
                .map(|(start, report)| {
                    resume_report = Some(report);
                    start
                })
            } else {
                EpochSession::start(
                    &*factory,
                    &spec.seeds,
                    &spec.cfg,
                    &plan,
                    Some(&ck),
                    &shared.cfg.supervision,
                )
            };
            match started {
                Ok(SessionStart::Live(s)) => s,
                Ok(SessionStart::Dead { execs }) => {
                    return (Parked::Killed { execs }, factory, resume_report)
                }
                Err(e) => return (Parked::Failed(e.to_string()), factory, resume_report),
            }
        }
    };
    for _ in 0..shared.cfg.epoch_grant.max(1) {
        if flags.kill.load(Ordering::SeqCst) {
            let execs = session.progress().execs;
            return (Parked::Killed { execs }, factory, resume_report);
        }
        match session.step_epoch(&*factory) {
            Ok(EpochStatus::Running) => {
                if flags.pause.load(Ordering::SeqCst) {
                    return (Parked::Paused(session), factory, resume_report);
                }
            }
            Ok(EpochStatus::Killed { execs }) => {
                return (Parked::Killed { execs }, factory, resume_report)
            }
            Ok(EpochStatus::Finished) => {
                let result = Box::new(session.finish());
                return (Parked::Finished(result), factory, resume_report);
            }
            Err(e) => return (Parked::Failed(e.to_string()), factory, resume_report),
        }
    }
    if flags.pause.load(Ordering::SeqCst) {
        return (Parked::Paused(session), factory, resume_report);
    }
    (Parked::Ready(session), factory, resume_report)
}

/// The tenant's checkpoint config: its directory under the service root,
/// service-wide fsync/kill policy, per-spec retention.
fn tenant_checkpoint(cfg: &ServiceConfig, spec: &CampaignSpec) -> CheckpointConfig {
    let mut ck = CheckpointConfig::new(cfg.dir.join(&spec.name));
    ck.keep_snapshots = spec.keep_snapshots.max(1);
    ck.fsync = cfg.fsync;
    ck.kill_after_execs = cfg.kill_after_execs;
    ck
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fair_pick_minimizes_cycles_then_id() {
        assert_eq!(fair_pick(&[]), None);
        assert_eq!(fair_pick(&[(3, 10)]), Some(3));
        assert_eq!(fair_pick(&[(0, 10), (1, 5), (2, 7)]), Some(1));
        assert_eq!(
            fair_pick(&[(2, 5), (0, 5), (1, 9)]),
            Some(0),
            "tie → lowest id"
        );
    }

    #[test]
    fn spec_roundtrips_exactly() {
        let mut spec = CampaignSpec::new(
            "tenant-a",
            vec![3, 1, 4, 1, 5],
            vec![b"seed".to_vec(), b"corpus!".to_vec()],
            CampaignConfig {
                budget_cycles: 123_456,
                seed: 42,
                ..CampaignConfig::default()
            },
        );
        spec.lanes = 3;
        spec.shards = 2;
        spec.sync_epochs = 7;
        spec.keep_snapshots = 5;
        let decoded = CampaignSpec::from_bytes(&spec.to_bytes()).expect("roundtrip");
        assert_eq!(decoded.name, spec.name);
        assert_eq!(decoded.factory_spec, spec.factory_spec);
        assert_eq!(decoded.seeds, spec.seeds);
        assert_eq!(decoded.cfg.budget_cycles, 123_456);
        assert_eq!(decoded.cfg.seed, 42);
        assert_eq!(decoded.lanes, 3);
        assert_eq!(decoded.shards, 2);
        assert_eq!(decoded.sync_epochs, 7);
        assert_eq!(decoded.keep_snapshots, 5);
    }

    #[test]
    fn spec_decode_rejects_corruption() {
        let spec = CampaignSpec::new("t", vec![1], vec![b"s".to_vec()], CampaignConfig::default());
        let good = spec.to_bytes();
        assert!(
            CampaignSpec::from_bytes(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(
            CampaignSpec::from_bytes(&trailing).is_err(),
            "trailing bytes"
        );
        let mut bad_magic = good;
        bad_magic[4] = b'X'; // first magic byte (after the length prefix)
        assert!(CampaignSpec::from_bytes(&bad_magic).is_err(), "bad magic");
    }

    /// A version-1 `spec.bin`, byte for byte as that format wrote it:
    /// the current layout plus the old per-campaign optimizer flag.
    fn encode_v1(spec: &CampaignSpec) -> Vec<u8> {
        let mut w = vmos::Writer::new();
        w.put_bytes(SPEC_MAGIC);
        w.put_u32(1);
        w.put_str(&spec.name);
        w.put_bytes(&spec.factory_spec);
        w.put_usize(spec.seeds.len());
        for s in &spec.seeds {
            w.put_bytes(s);
        }
        spec.cfg.encode(&mut w);
        w.put_usize(spec.lanes);
        w.put_usize(spec.shards);
        w.put_u64(spec.sync_epochs);
        w.put_bool(true);
        w.put_usize(spec.keep_snapshots);
        w.into_bytes()
    }

    #[test]
    fn version_1_spec_fails_closed() {
        struct CountingResolver(AtomicUsize);
        impl SpecResolver for CountingResolver {
            fn resolve(&self, _: &[u8]) -> Result<Box<dyn ExecutorFactory + Send + Sync>, String> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Err("no targets here".into())
            }
        }

        let spec = CampaignSpec::new(
            "old-tenant",
            vec![7],
            vec![b"seed".to_vec()],
            CampaignConfig::default(),
        );
        let v1 = encode_v1(&spec);
        assert!(matches!(
            CampaignSpec::from_bytes(&v1),
            Err(vmos::WireError::Malformed("campaign spec version"))
        ));

        let root = std::env::temp_dir().join(format!("cx-spec-v1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join(&spec.name)).expect("mkdir");
        let spec_path = root.join(&spec.name).join(SPEC_FILE);
        fs::write(&spec_path, &v1).expect("write spec");
        let resolver = Arc::new(CountingResolver(Default::default()));
        let mut cfg = ServiceConfig::new(&root);
        cfg.workers = 1;
        let restored = Service::restore(cfg, Arc::clone(&resolver) as Arc<dyn SpecResolver>);
        assert!(matches!(restored, Err(AdmissionError::InvalidSpec(_))));
        // Refused before resolution, so no tenant was admitted, and the
        // old file is left for the operator.
        assert_eq!(resolver.0.load(Ordering::SeqCst), 0);
        assert_eq!(fs::read(&spec_path).expect("spec kept"), v1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_failed_spec_write_leaves_no_temp_file() {
        let root = std::env::temp_dir().join(format!("cx-spec-tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let spec = CampaignSpec::new("t", vec![1], vec![b"s".to_vec()], CampaignConfig::default());
        // A non-empty directory where `spec.bin` goes: the rename fails.
        let blocker = root.join("t").join(SPEC_FILE);
        fs::create_dir_all(&blocker).expect("mkdir");
        fs::write(blocker.join("x"), b"x").expect("write");
        let mut cfg = ServiceConfig::new(&root);
        cfg.fsync = FsyncPolicy::Never;
        assert!(write_spec(&cfg, &spec).is_err(), "the rename must fail");
        assert!(!root.join("t").join(SPEC_TMP).exists(), "temp left behind");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn health_folds_stall_and_staleness() {
        let p = |epoch, edges, queue| SessionProgress {
            epoch,
            epochs: 8,
            execs: epoch * 100,
            clock_cycles: epoch * 1000,
            edges_found: edges,
            queue_len: queue,
            crashes: 0,
        };
        assert_eq!(health_from(&[]), None);
        let h = health_from(&[p(1, 10, 3), p(2, 12, 4), p(3, 12, 4), p(4, 12, 4)])
            .expect("has history");
        assert_eq!(h.edges_found, 12);
        assert_eq!(h.stalled_grants, 2, "two trailing grants without new edges");
        assert_eq!(h.stale_queue_grants, 2);
        assert!((h.edges_per_megaexec - 12.0 * 1e6 / 400.0).abs() < 1e-9);
    }
}
