//! Lane-per-process isolation: supervised out-of-process worker lanes.
//!
//! [`crate::shard`] runs every lane in the coordinator's address space — a
//! lane that aborts, leaks, or wedges takes the whole campaign with it. This
//! module moves each lane into its own **supervised child process** behind
//! the same `Campaign` builder (`.isolation(Isolation::Process)`):
//!
//! * The supervisor self-execs the current binary with [`WORKER_ENV`] set;
//!   the child's entrypoint (a [`worker_main_hook`] call at the top of
//!   `main`) never returns and serves the lane over stdin/stdout pipes.
//! * Every message travels as a `vmos::wire` frame — length-prefixed,
//!   checksum-sealed, bounded before allocation — so a corrupt or truncated
//!   byte stream surfaces as a typed [`LaneFault::FrameCorrupt`], never a
//!   panic or a desync.
//! * Lane state transfer reuses the checkpoint codecs: `RunEpoch` carries
//!   the lane's barrier snapshot down, `BarrierSnapshot` carries the
//!   post-epoch state (executor export included) back up. The merge, the
//!   shard checkpoint files, and kill/resume are shared with the in-process
//!   engine — which is what makes `Isolation::Process` **bit-identical**
//!   (modulo the supervision report) to `Isolation::InProcess`.
//! * A worker that dies — SIGKILL, abort, OOM-style exit, stall past the
//!   wall-clock read deadline, or garbage on the pipe — is just another
//!   [`LaneFault`]: the supervisor maps the exit status to a typed fault,
//!   respawns the lane from the factory plus its barrier snapshot, and
//!   retires it past the retry budget with the unspent cycle budget folded
//!   into the surviving lanes.
//!
//! # The wire protocol
//!
//! Parent → child: `Hello` (1) once, then one `RunEpoch` (2) per epoch
//! attempt, then `Shutdown` (3). Child → parent: `Ack` (16) answering
//! `Hello`, then per epoch one of `BarrierSnapshot` (17), `FaultReport`
//! (18), or `Fatal` (19). The child exits on `Shutdown` or pipe EOF; the
//! supervisor kills and reaps the child when its handle drops, so no
//! campaign outcome — including an error path — leaks a process.
//!
//! # Determinism under supervision
//!
//! Respawn recovery mirrors the in-process executor rebuild exactly: the
//! fresh child restores the executor state exported at the epoch barrier
//! (`Hello.exec_restore`), recreates the epoch journal at the barrier's
//! exec base, and re-runs the epoch from the same stripped snapshot. The
//! wall-clock read deadline only decides *when* the supervisor acts; the
//! re-run itself is a pure function of the barrier state, so recovery
//! erases any trace of the fault from the campaign result.

use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use closurex::checkpoint::ExecutorState;
use closurex::executor::ExecutorFactory;
use closurex::resilience::ResilienceReport;
use vmos::wire::{read_frame, write_frame, FrameError, FRAME_MAGIC, MAX_FRAME_LEN};
use vmos::{DiskFaultPlan, OrchFaultPlan, ProcFaultKind, ProcFaultPlan, Reader, WireError, Writer};

use crate::builder::CampaignError;
use crate::campaign::{CampaignConfig, Driver};
use crate::checkpoint::{
    check_target, read_journal, storage_for, sweep_orphan_tmp, CampaignOutcome, CheckpointConfig,
    CheckpointError, FsyncPolicy, Journal, ResumeReport, SnapshotState,
};
use crate::shard::{
    assemble_parts, barrier_state, lane_config, list_shard_snapshots, load_shard_snapshot,
    rotate_shards, run_lane_epoch, shard_journal_path, stripped, write_shard_snapshot_states,
    Global, KillSwitch, Lane, LaneAttempt, ShardPlan,
};
use crate::storage::{OpOutcome, Storage, StorageCounters};
use crate::supervise::{self, LaneFault, Supervisor, SupervisorConfig};

/// Environment variable marking a process as a spawned worker lane.
/// [`worker_main_hook`] checks it and, when set, serves the lane protocol
/// over stdin/stdout instead of returning to `main`.
pub const WORKER_ENV: &str = "AFLRS_PROC_WORKER";

// Frame kinds, parent → child.
const K_HELLO: u8 = 1;
const K_RUN_EPOCH: u8 = 2;
const K_SHUTDOWN: u8 = 3;
// Frame kinds, child → parent.
const K_ACK: u8 = 16;
const K_BARRIER: u8 = 17;
const K_FAULT: u8 = 18;
const K_FATAL: u8 = 19;

// ---------------------------------------------------------------------------
// Message codecs. Every payload is built from the same append-only wire
// primitives the checkpoint files use; decode never panics and bounds every
// count before allocating.
// ---------------------------------------------------------------------------

fn fsync_tag(f: FsyncPolicy) -> u8 {
    match f {
        FsyncPolicy::Never => 0,
        FsyncPolicy::OnSnapshot => 1,
        FsyncPolicy::EveryRecord => 2,
    }
}

fn fsync_from_tag(tag: u8) -> Result<FsyncPolicy, WireError> {
    Ok(match tag {
        0 => FsyncPolicy::Never,
        1 => FsyncPolicy::OnSnapshot,
        2 => FsyncPolicy::EveryRecord,
        _ => return Err(WireError::Malformed("fsync tag")),
    })
}

fn put_exec_state(w: &mut Writer, es: &Option<ExecutorState>) {
    match es {
        Some(es) => {
            w.put_bool(true);
            es.encode(w);
        }
        None => w.put_bool(false),
    }
}

fn get_exec_state(r: &mut Reader<'_>) -> Result<Option<ExecutorState>, WireError> {
    Ok(if r.get_bool()? {
        Some(ExecutorState::decode(r)?)
    } else {
        None
    })
}

/// The one-time handshake: everything a fresh worker needs to build its
/// executor pair and run epochs for one lane.
struct Hello {
    /// Engine choice inherited from the supervisor (workers are separate
    /// processes; the thread-inheritance trick of the in-process pool
    /// cannot cross the `exec` boundary).
    reference: bool,
    /// Decode-time optimizer choice, inherited the same way; `false`
    /// pins the worker onto the plain 1:1 decoded streams.
    decode_opt: bool,
    /// Whether checkpoint journaling is armed.
    track: bool,
    fsync: FsyncPolicy,
    /// Checkpoint directory (empty when `track` is off).
    dir: String,
    /// This worker's lane index.
    lane: u64,
    /// The factory recipe ([`ExecutorFactory::worker_spec`]); the worker
    /// entrypoint's parse closure turns it back into a factory.
    spec: Vec<u8>,
    /// The lane's (already budget-sliced, lane-seeded) campaign config.
    cfg: CampaignConfig,
    /// The lane's round-robin slice of the seed corpus.
    seeds: Vec<Vec<u8>>,
    /// Orchestration-layer fault plan (panic/hang/barrier injection runs
    /// inside the child, exactly where the in-process engine runs it).
    faults: OrchFaultPlan,
    hang_deadline_ticks: u64,
    /// Process-layer fault plan: the child performs its own abort / OOM /
    /// stall / garbage-frame sabotage; `Kill` is the parent's job.
    proc_faults: ProcFaultPlan,
    /// Storage fault plan: the child mediates its own journal I/O through
    /// a [`Storage`] bound to stream `1 + lane`, exactly where the
    /// in-process engine injects.
    disk_faults: DiskFaultPlan,
    /// Transient-storage-error retry budget (see `CheckpointConfig`).
    storage_retries: u32,
    /// Storage retry backoff base in simulated cycles.
    storage_backoff_cycles: u64,
    /// Executor state to restore after building (respawn recovery and
    /// checkpoint resume); `None` on a fresh first spawn.
    exec_restore: Option<ExecutorState>,
}

fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bool(h.reference);
    w.put_bool(h.decode_opt);
    w.put_bool(h.track);
    w.put_u8(fsync_tag(h.fsync));
    w.put_str(&h.dir);
    w.put_u64(h.lane);
    w.put_bytes(&h.spec);
    h.cfg.encode(&mut w);
    w.put_usize(h.seeds.len());
    for s in &h.seeds {
        w.put_bytes(s);
    }
    h.faults.encode(&mut w);
    w.put_u64(h.hang_deadline_ticks);
    h.proc_faults.encode(&mut w);
    h.disk_faults.encode(&mut w);
    w.put_u32(h.storage_retries);
    w.put_u64(h.storage_backoff_cycles);
    put_exec_state(&mut w, &h.exec_restore);
    w.into_bytes()
}

fn decode_hello(bytes: &[u8]) -> Result<Hello, WireError> {
    let mut r = Reader::new(bytes);
    let reference = r.get_bool()?;
    let decode_opt = r.get_bool()?;
    let track = r.get_bool()?;
    let fsync = fsync_from_tag(r.get_u8()?)?;
    let dir = r.get_str()?;
    let lane = r.get_u64()?;
    let spec = r.get_bytes()?;
    let cfg = CampaignConfig::decode(&mut r)?;
    let n = r.get_count()?;
    if n > r.remaining() / 8 {
        return Err(WireError::Truncated);
    }
    let mut seeds = Vec::with_capacity(n);
    for _ in 0..n {
        seeds.push(r.get_bytes()?);
    }
    let faults = OrchFaultPlan::decode(&mut r)?;
    let hang_deadline_ticks = r.get_u64()?;
    let proc_faults = ProcFaultPlan::decode(&mut r)?;
    let disk_faults = DiskFaultPlan::decode(&mut r)?;
    let storage_retries = r.get_u32()?;
    let storage_backoff_cycles = r.get_u64()?;
    let exec_restore = get_exec_state(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Malformed("trailing hello bytes"));
    }
    Ok(Hello {
        reference,
        decode_opt,
        track,
        fsync,
        dir,
        lane,
        spec,
        cfg,
        seeds,
        faults,
        hang_deadline_ticks,
        proc_faults,
        disk_faults,
        storage_retries,
        storage_backoff_cycles,
        exec_restore,
    })
}

/// The worker's answer to [`Hello`]: identity plus the freshly built (and
/// possibly restored) executor's observable state, so the supervisor can
/// seed the epoch-0 shard snapshot without an executor of its own.
struct Ack {
    executor: String,
    fingerprint: u64,
    report: ResilienceReport,
    exec_state: Option<ExecutorState>,
}

fn encode_ack(a: &Ack) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(&a.executor);
    w.put_u64(a.fingerprint);
    a.report.encode(&mut w);
    put_exec_state(&mut w, &a.exec_state);
    w.into_bytes()
}

fn decode_ack(bytes: &[u8]) -> Result<Ack, WireError> {
    let mut r = Reader::new(bytes);
    let executor = r.get_str()?;
    let fingerprint = r.get_u64()?;
    let report = ResilienceReport::decode(&mut r)?;
    let exec_state = get_exec_state(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Malformed("trailing ack bytes"));
    }
    Ok(Ack {
        executor,
        fingerprint,
        report,
        exec_state,
    })
}

/// How the worker should (re)open its epoch journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JournalMode {
    /// No journaling (checkpointing off, or nothing left to run).
    Off,
    /// Fresh journal based at `base` execs (fresh epochs and recovery
    /// re-runs, which truncate the faulted attempt's partial records).
    Create { base: u64 },
    /// Reopen the existing journal, truncated to `valid_len` bytes
    /// (checkpoint resume continuing a half-written epoch).
    Reopen { valid_len: u64 },
}

fn put_journal_mode(w: &mut Writer, m: JournalMode) {
    match m {
        JournalMode::Off => w.put_u8(0),
        JournalMode::Create { base } => {
            w.put_u8(1);
            w.put_u64(base);
        }
        JournalMode::Reopen { valid_len } => {
            w.put_u8(2);
            w.put_u64(valid_len);
        }
    }
}

fn get_journal_mode(r: &mut Reader<'_>) -> Result<JournalMode, WireError> {
    Ok(match r.get_u8()? {
        0 => JournalMode::Off,
        1 => JournalMode::Create { base: r.get_u64()? },
        2 => JournalMode::Reopen {
            valid_len: r.get_u64()?,
        },
        _ => return Err(WireError::Malformed("journal mode tag")),
    })
}

/// One epoch attempt: the lane's barrier state (executor export stripped —
/// the live child process *is* the executor state) plus everything that
/// may have changed since the handshake.
struct RunEpochMsg {
    epoch: u64,
    epochs: u64,
    attempt: u32,
    /// Current lane budget (degradation folds retired lanes' cycles into
    /// survivors mid-campaign, so this cannot live in `Hello`).
    budget_cycles: u64,
    state: SnapshotState,
    /// Simulated-SIGKILL hook: `(limit, base)` — stop once `base` plus the
    /// lane's own journaled execs reaches `limit`.
    kill: Option<(u64, u64)>,
    journal: JournalMode,
}

fn encode_run_epoch(m: &RunEpochMsg) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(m.epoch);
    w.put_u64(m.epochs);
    w.put_u32(m.attempt);
    w.put_u64(m.budget_cycles);
    w.put_bytes(&m.state.encode());
    match m.kill {
        Some((limit, base)) => {
            w.put_bool(true);
            w.put_u64(limit);
            w.put_u64(base);
        }
        None => w.put_bool(false),
    }
    put_journal_mode(&mut w, m.journal);
    w.into_bytes()
}

fn decode_run_epoch(bytes: &[u8]) -> Result<RunEpochMsg, WireError> {
    let mut r = Reader::new(bytes);
    let epoch = r.get_u64()?;
    let epochs = r.get_u64()?;
    let attempt = r.get_u32()?;
    let budget_cycles = r.get_u64()?;
    let state = SnapshotState::decode(&r.get_bytes()?)?;
    let kill = if r.get_bool()? {
        Some((r.get_u64()?, r.get_u64()?))
    } else {
        None
    };
    let journal = get_journal_mode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Malformed("trailing run-epoch bytes"));
    }
    Ok(RunEpochMsg {
        epoch,
        epochs,
        attempt,
        budget_cycles,
        state,
        kill,
        journal,
    })
}

/// The epoch's result: the lane's barrier state **with** the executor
/// export (the supervisor's recovery snapshot, merge substrate, and shard
/// checkpoint payload) plus the executor's lifetime resilience report.
struct BarrierMsg {
    /// The simulated kill switch tripped during this epoch.
    killed: bool,
    state: SnapshotState,
    report: ResilienceReport,
    /// The child's storage-plane accounting since the previous barrier
    /// (drained per epoch, so the supervisor's absorb never double-counts).
    storage: StorageCounters,
}

fn encode_barrier(b: &BarrierMsg) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bool(b.killed);
    w.put_bytes(&b.state.encode());
    b.report.encode(&mut w);
    b.storage.encode(&mut w);
    w.into_bytes()
}

fn decode_barrier(bytes: &[u8]) -> Result<BarrierMsg, WireError> {
    let mut r = Reader::new(bytes);
    let killed = r.get_bool()?;
    let state = SnapshotState::decode(&r.get_bytes()?)?;
    let report = ResilienceReport::decode(&mut r)?;
    let storage = StorageCounters::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Malformed("trailing barrier bytes"));
    }
    Ok(BarrierMsg {
        killed,
        state,
        report,
        storage,
    })
}

/// An in-child lane fault the worker detected itself (the out-of-process
/// analogues of what `run_epoch_parallel` catches in-process).
fn encode_fault(f: &LaneFault) -> Vec<u8> {
    let mut w = Writer::new();
    match f {
        LaneFault::Panic(msg) => {
            w.put_u8(0);
            w.put_str(msg);
        }
        LaneFault::Hang => w.put_u8(1),
        LaneFault::BarrierTimeout => w.put_u8(2),
        // Process-transport faults are diagnosed by the parent from the
        // exit status / pipe state; a child never reports them.
        _ => w.put_u8(1),
    }
    w.into_bytes()
}

fn decode_fault(bytes: &[u8]) -> Result<LaneFault, WireError> {
    let mut r = Reader::new(bytes);
    let f = match r.get_u8()? {
        0 => LaneFault::Panic(r.get_str()?),
        1 => LaneFault::Hang,
        2 => LaneFault::BarrierTimeout,
        _ => return Err(WireError::Malformed("fault tag")),
    };
    if !r.is_empty() {
        return Err(WireError::Malformed("trailing fault bytes"));
    }
    Ok(f)
}

// ---------------------------------------------------------------------------
// The worker side.
// ---------------------------------------------------------------------------

/// Call this at the **top of `main`** in any binary that runs
/// `Isolation::Process` campaigns. When the process was spawned as a worker
/// lane (the supervisor self-execs the current binary with [`WORKER_ENV`]
/// set), this serves the lane protocol over stdin/stdout and **exits** —
/// it only returns in the parent. `parse` turns the factory recipe shipped
/// in the handshake ([`ExecutorFactory::worker_spec`]) back into a factory.
///
/// Nothing else in a worker may write to stdout: the pipe carries protocol
/// frames. (Diagnostics go to stderr, which the worker inherits.)
pub fn worker_main_hook<F>(parse: F)
where
    F: FnOnce(&[u8]) -> Result<Box<dyn ExecutorFactory>, String>,
{
    if std::env::var_os(WORKER_ENV).is_none() {
        return;
    }
    let code = worker_serve(parse);
    std::process::exit(code);
}

/// Send a `Fatal` frame; best-effort (the parent may already be gone).
fn send_fatal(out: &mut impl std::io::Write, msg: &str) {
    let mut w = Writer::new();
    w.put_str(msg);
    let _ = write_frame(out, K_FATAL, &w.into_bytes());
}

/// The worker protocol loop. Returns the process exit code.
fn worker_serve<F>(parse: F) -> i32
where
    F: FnOnce(&[u8]) -> Result<Box<dyn ExecutorFactory>, String>,
{
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();

    let hello = match read_frame(&mut stdin, MAX_FRAME_LEN) {
        Ok((K_HELLO, payload)) => match decode_hello(&payload) {
            Ok(h) => h,
            Err(e) => {
                send_fatal(&mut stdout, &format!("bad hello payload: {e}"));
                return 0;
            }
        },
        Ok((kind, _)) => {
            send_fatal(&mut stdout, &format!("expected hello, got frame kind {kind}"));
            return 0;
        }
        // EOF before the handshake: the parent gave up; nothing to report.
        Err(_) => return 0,
    };

    vmos::set_reference_engine(hello.reference);
    vmos::set_decode_opt(hello.decode_opt);
    supervise::install_quiet_panic_hook();

    let factory = match parse(&hello.spec) {
        Ok(f) => f,
        Err(msg) => {
            send_fatal(&mut stdout, &format!("worker spec rejected: {msg}"));
            return 0;
        }
    };
    let mut executor = match factory.build() {
        Ok(e) => e,
        Err(e) => {
            send_fatal(&mut stdout, &format!("executor build failed: {e}"));
            return 0;
        }
    };
    if let Some(es) = &hello.exec_restore {
        if let Err(e) = executor.restore_state(es) {
            send_fatal(&mut stdout, &format!("executor state restore failed: {e}"));
            return 0;
        }
    }
    let mut revalidator = match factory.build_revalidator() {
        Ok(r) => r,
        Err(e) => {
            send_fatal(&mut stdout, &format!("revalidator build failed: {e}"));
            return 0;
        }
    };

    let ack = Ack {
        executor: executor.name().to_string(),
        fingerprint: executor.module_fingerprint().unwrap_or(0),
        report: executor.resilience(),
        exec_state: executor.export_state(),
    };
    if write_frame(&mut stdout, K_ACK, &encode_ack(&ack)).is_err() {
        return 0;
    }

    let mut cfg = hello.cfg.clone();
    let lane_idx = hello.lane;
    let dir = Path::new(&hello.dir);
    // The child's storage plane, bound to this lane's stream. A respawned
    // child starts a fresh plane (op indices reset), so `RunEpoch.attempt`
    // offsets the fault coordinates — faults consumed by a crashed attempt
    // do not re-fire on the supervisor's re-run.
    let storage = Storage::new(
        hello.disk_faults.clone(),
        hello.storage_retries,
        hello.storage_backoff_cycles,
    )
    .stream(1 + hello.lane);

    loop {
        let (kind, payload) = match read_frame(&mut stdin, MAX_FRAME_LEN) {
            Ok(f) => f,
            // Pipe EOF (or a torn parent write): the supervisor is gone or
            // has killed us mid-read; exit quietly.
            Err(_) => return 0,
        };
        match kind {
            K_SHUTDOWN => return 0,
            K_RUN_EPOCH => {
                let msg = match decode_run_epoch(&payload) {
                    Ok(m) => m,
                    Err(e) => {
                        send_fatal(&mut stdout, &format!("bad run-epoch payload: {e}"));
                        continue;
                    }
                };
                cfg.budget_cycles = msg.budget_cycles;
                let epoch_storage = storage.with_base_attempt(msg.attempt);
                let journal = match msg.journal {
                    JournalMode::Off => None,
                    JournalMode::Create { base } => {
                        let path = shard_journal_path(dir, msg.epoch, lane_idx as usize);
                        let (j, o) = Journal::create_at(&epoch_storage, &path, base, hello.fsync);
                        if o.crashed() {
                            // An injected crash boundary: die the way the
                            // machine would — the supervisor contains it as
                            // a signal fault and re-runs the epoch.
                            std::process::abort();
                        }
                        Some(j)
                    }
                    JournalMode::Reopen { valid_len } => {
                        let path = shard_journal_path(dir, msg.epoch, lane_idx as usize);
                        let (j, o) = Journal::reopen(&epoch_storage, &path, valid_len, hello.fsync);
                        if o.crashed() {
                            std::process::abort();
                        }
                        Some(j)
                    }
                };

                // Scheduled self-sabotage for this attempt. `Kill` belongs
                // to the parent; everything else the child performs on
                // itself, `trip_after` journaled execs into the epoch (or
                // at the barrier for shorter epochs) via a private kill
                // switch — the real one is ignored for a doomed attempt,
                // since recovery re-runs the epoch wholesale either way.
                let start_execs = msg.state.scalars.execs;
                let site = (lane_idx, msg.epoch);
                let self_fault = match hello.proc_faults.decide(site, msg.attempt) {
                    Some(ProcFaultKind::Kill) | None => None,
                    Some(k) => Some(k),
                };
                let trip_after = hello.proc_faults.aux_bits(site, msg.attempt) % 16;
                let sabotage = self_fault
                    .map(|_| KillSwitch::new(start_execs + trip_after, start_execs));
                let real_kill = msg
                    .kill
                    .map(|(limit, base)| KillSwitch::new(limit, base));
                let kill_ref = sabotage.as_ref().or(real_kill.as_ref());

                let mut lane = Lane {
                    executor,
                    revalidator,
                    cfg: cfg.clone(),
                    seeds: hello.seeds.clone(),
                    state: msg.state,
                    journal,
                };
                let watch = LaneAttempt {
                    lane: lane_idx,
                    attempt: msg.attempt,
                    faults: &hello.faults,
                    hang_deadline: hello.hang_deadline_ticks,
                };
                let outcome = {
                    let lane = &mut lane;
                    supervise::contain(|| {
                        run_lane_epoch(lane, msg.epoch, msg.epochs, hello.track, kill_ref, &watch)
                    })
                };
                let state = lane.state;
                executor = lane.executor;
                revalidator = lane.revalidator;
                // `lane.journal` dropped here: the epoch's records are on
                // disk whatever happens next.

                match outcome {
                    Err(panic_payload) => {
                        // Contained (injected or organic) panic: report it
                        // and wait — the supervisor kills and respawns us.
                        let f = LaneFault::Panic(panic_payload);
                        if write_frame(&mut stdout, K_FAULT, &encode_fault(&f)).is_err() {
                            return 0;
                        }
                    }
                    Ok(Err(e)) => {
                        send_fatal(&mut stdout, &format!("lane epoch failed: {e}"));
                    }
                    Ok(Ok(Some(fault))) => {
                        if write_frame(&mut stdout, K_FAULT, &encode_fault(&fault)).is_err() {
                            return 0;
                        }
                    }
                    Ok(Ok(None)) => {
                        if epoch_storage.crashed() {
                            // A journal append hit an injected crash
                            // boundary mid-epoch: no barrier — die here.
                            std::process::abort();
                        }
                        if let Some(kind) = self_fault {
                            perform_self_fault(kind, &mut stdout);
                        }
                        let killed = real_kill.as_ref().is_some_and(|k| k.stopped());
                        let mut st = state;
                        st.exec_state = executor.export_state();
                        let b = BarrierMsg {
                            killed,
                            state: st,
                            report: executor.resilience(),
                            storage: epoch_storage.take_counters(),
                        };
                        if write_frame(&mut stdout, K_BARRIER, &encode_barrier(&b)).is_err() {
                            return 0;
                        }
                    }
                }
            }
            other => {
                send_fatal(&mut stdout, &format!("unexpected frame kind {other}"));
            }
        }
    }
}

/// Execute a scheduled self-fault. Never returns normally (the process
/// dies, stalls until the supervisor's deadline kill, or exits after
/// poisoning the pipe).
fn perform_self_fault(kind: ProcFaultKind, out: &mut impl std::io::Write) -> ! {
    match kind {
        // Parent-side; never scheduled here.
        ProcFaultKind::Kill => std::process::abort(),
        ProcFaultKind::Abort => std::process::abort(),
        // The classic container OOM-kill exit status.
        ProcFaultKind::Oom => std::process::exit(137),
        ProcFaultKind::Stall => loop {
            std::thread::sleep(Duration::from_secs(600));
        },
        ProcFaultKind::GarbageFrame => {
            // A structurally plausible frame with a wrong checksum: the
            // supervisor must reject it as `FrameCorrupt`, not desync.
            let mut bad = Vec::new();
            bad.extend_from_slice(&FRAME_MAGIC);
            bad.push(K_BARRIER);
            bad.extend_from_slice(&4u32.to_le_bytes());
            bad.extend_from_slice(&0u64.to_le_bytes());
            bad.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
            let _ = out.write_all(&bad);
            let _ = out.flush();
            std::process::exit(0);
        }
    }
}

// ---------------------------------------------------------------------------
// The supervisor side: one child process per lane.
// ---------------------------------------------------------------------------

/// A supervised worker process: the child handle, its protocol pipe, and a
/// reader thread that turns the stdout byte stream into framed messages so
/// the supervisor can enforce a wall-clock receive deadline.
struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    rx: mpsc::Receiver<Result<(u8, Vec<u8>), FrameError>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl ChildProc {
    /// Self-exec the current binary as a worker lane and send the
    /// handshake. I/O errors here are environmental (no executable, fork
    /// refused) — they abort the campaign rather than count as lane
    /// faults.
    fn spawn(hello: &Hello) -> Result<ChildProc, CheckpointError> {
        let exe = std::env::current_exe().map_err(CheckpointError::Io)?;
        let mut child = Command::new(exe)
            .env(WORKER_ENV, "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(CheckpointError::Io)?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || loop {
            match read_frame(&mut stdout, MAX_FRAME_LEN) {
                Ok(frame) => {
                    if tx.send(Ok(frame)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        });
        // The handshake write can fail if the child died instantly; that
        // is diagnosed by the first receive, not here.
        let _ = write_frame(&mut stdin, K_HELLO, &encode_hello(hello));
        Ok(ChildProc {
            child,
            stdin: Some(stdin),
            rx,
            reader: Some(reader),
        })
    }

    /// Send a frame to the worker. A failed write means the child is gone:
    /// reap it and report the typed transport fault.
    fn send(&mut self, kind: u8, payload: &[u8]) -> Result<(), LaneFault> {
        let ok = self
            .stdin
            .as_mut()
            .is_some_and(|w| write_frame(w, kind, payload).is_ok());
        if ok {
            Ok(())
        } else {
            Err(self.reap_fault())
        }
    }

    /// Receive one frame within `deadline` wall-clock time. On timeout the
    /// child is killed (`LaneFault::Deadline`); on a poisoned or closed
    /// pipe the exit status decides the fault type.
    fn recv(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), LaneFault> {
        match self.rx.recv_timeout(deadline) {
            Ok(Ok(frame)) => Ok(frame),
            Ok(Err(e)) => match e {
                FrameError::ChecksumMismatch
                | FrameError::BadMagic
                | FrameError::Oversized { .. } => {
                    self.kill();
                    Err(LaneFault::FrameCorrupt)
                }
                FrameError::Eof | FrameError::Truncated | FrameError::Io(_) => {
                    Err(self.reap_fault())
                }
            },
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.kill();
                Err(LaneFault::Deadline)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.reap_fault()),
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Reap a child that closed its pipe and translate the exit status
    /// into a typed fault. Gives the child a short grace window to finish
    /// dying (the pipe closes a beat before `wait` can see the status),
    /// then force-kills.
    fn reap_fault(&mut self) -> LaneFault {
        let mut status = None;
        for _ in 0..200 {
            match self.child.try_wait() {
                Ok(Some(st)) => {
                    status = Some(st);
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        let Some(status) = status else {
            self.kill();
            return LaneFault::PipeEof;
        };
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            if let Some(sig) = status.signal() {
                return LaneFault::Signal(sig);
            }
        }
        match status.code() {
            Some(0) | None => LaneFault::PipeEof,
            Some(code) => LaneFault::Exit(code),
        }
    }
}

impl Drop for ChildProc {
    /// Containment on every exit path: kill, reap (no zombies), release
    /// the pipe, join the reader.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stdin = None;
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Supervisor-side lane bookkeeping. The barrier state kept here always
/// carries the executor export — it is simultaneously the recovery
/// snapshot, the merge substrate, and the shard-checkpoint payload.
struct ProcLane {
    child: Option<ChildProc>,
    cfg: CampaignConfig,
    seeds: Vec<Vec<u8>>,
    state: SnapshotState,
    report: ResilienceReport,
}

/// Everything the epoch loop needs that is not per-lane state.
struct ProcCtx<'a> {
    spec: Vec<u8>,
    cfg: &'a CampaignConfig,
    ck: Option<&'a CheckpointConfig>,
    epochs: u64,
    executor_name: String,
    fingerprint: u64,
    /// The supervisor's storage plane (stream 0: shard snapshots, rotation,
    /// sweeps). Children run their own planes and ship the counters back in
    /// each barrier, absorbed here.
    storage: Option<Storage>,
}

impl ProcCtx<'_> {
    fn hello(
        &self,
        sup_cfg: &SupervisorConfig,
        lane: usize,
        lane_cfg: &CampaignConfig,
        seeds: &[Vec<u8>],
        exec_restore: Option<ExecutorState>,
    ) -> Hello {
        Hello {
            reference: vmos::reference_engine(),
            decode_opt: vmos::decode_opt(),
            track: self.ck.is_some(),
            fsync: self.ck.map_or(FsyncPolicy::Never, |c| c.fsync),
            dir: self
                .ck
                .map_or(String::new(), |c| c.dir.to_string_lossy().into_owned()),
            lane: lane as u64,
            spec: self.spec.clone(),
            cfg: lane_cfg.clone(),
            seeds: seeds.to_vec(),
            faults: sup_cfg.faults.clone(),
            hang_deadline_ticks: sup_cfg.hang_deadline_ticks,
            proc_faults: sup_cfg.proc_faults.clone(),
            disk_faults: self
                .ck
                .map_or_else(DiskFaultPlan::none, |c| c.disk_faults.clone()),
            storage_retries: self.ck.map_or(3, |c| c.storage_retries),
            storage_backoff_cycles: self.ck.map_or(0, |c| c.storage_backoff_cycles),
            exec_restore,
        }
    }

    fn deadline(&self, sup_cfg: &SupervisorConfig) -> Duration {
        Duration::from_millis(sup_cfg.read_deadline_ms.max(1))
    }
}

/// Spawn one worker lane and complete the handshake. Outer error: the
/// spawn itself failed (environmental, campaign-fatal). Inner error: the
/// worker died or misbehaved during the handshake (a lane fault — the
/// caller may retry).
fn spawn_lane(
    ctx: &ProcCtx<'_>,
    sup_cfg: &SupervisorConfig,
    lane: usize,
    lane_cfg: &CampaignConfig,
    seeds: &[Vec<u8>],
    exec_restore: Option<ExecutorState>,
) -> Result<Result<(ChildProc, Ack), LaneFault>, CampaignError> {
    let hello = ctx.hello(sup_cfg, lane, lane_cfg, seeds, exec_restore);
    let mut child = ChildProc::spawn(&hello).map_err(CampaignError::Checkpoint)?;
    match child.recv(ctx.deadline(sup_cfg)) {
        Ok((K_ACK, payload)) => match decode_ack(&payload) {
            Ok(ack) => Ok(Ok((child, ack))),
            Err(_) => {
                child.kill();
                Ok(Err(LaneFault::FrameCorrupt))
            }
        },
        Ok((K_FATAL, payload)) => Err(fatal_to_error(&payload)),
        Ok(_) => {
            child.kill();
            Ok(Err(LaneFault::FrameCorrupt))
        }
        Err(fault) => Ok(Err(fault)),
    }
}

/// A worker's `Fatal` report: the lane cannot run for a structural reason
/// (spec rejected, factory build failed) that a respawn will not fix.
fn fatal_to_error(payload: &[u8]) -> CampaignError {
    let msg = Reader::new(payload)
        .get_str()
        .unwrap_or_else(|_| "worker sent an unreadable fatal report".to_string());
    CampaignError::Checkpoint(CheckpointError::Io(std::io::Error::other(format!(
        "worker fatal: {msg}"
    ))))
}

/// Spawn with the supervisor's retry budget; handshake faults are counted
/// like any other lane fault.
fn spawn_lane_retrying(
    ctx: &ProcCtx<'_>,
    sup: &mut Supervisor,
    lane: usize,
    lane_cfg: &CampaignConfig,
    seeds: &[Vec<u8>],
    exec_restore: &Option<ExecutorState>,
) -> Result<(ChildProc, Ack), CampaignError> {
    let mut attempt = 0u32;
    loop {
        match spawn_lane(ctx, &sup.cfg, lane, lane_cfg, seeds, exec_restore.clone())? {
            Ok(pair) => return Ok(pair),
            Err(fault) => {
                sup.counters.record(&fault);
                attempt += 1;
                if attempt > sup.cfg.max_lane_retries {
                    return Err(CampaignError::WorkerLost(
                        "a worker process failed its handshake past the retry budget",
                    ));
                }
                sup.counters.record_respawn(lane);
            }
        }
    }
}

/// Read one epoch reply from a worker. `Ok(Ok)` — the barrier snapshot;
/// `Ok(Err)` — a typed lane fault (in-child report or transport); `Err` —
/// a campaign-fatal condition.
fn read_epoch_reply(
    child: &mut ChildProc,
    deadline: Duration,
) -> Result<Result<BarrierMsg, LaneFault>, CampaignError> {
    match child.recv(deadline) {
        Ok((K_BARRIER, payload)) => match decode_barrier(&payload) {
            Ok(b) => Ok(Ok(b)),
            Err(_) => {
                child.kill();
                Ok(Err(LaneFault::FrameCorrupt))
            }
        },
        Ok((K_FAULT, payload)) => match decode_fault(&payload) {
            Ok(f) => Ok(Err(f)),
            Err(_) => {
                child.kill();
                Ok(Err(LaneFault::FrameCorrupt))
            }
        },
        Ok((K_FATAL, payload)) => Err(fatal_to_error(&payload)),
        Ok(_) => {
            child.kill();
            Ok(Err(LaneFault::FrameCorrupt))
        }
        Err(fault) => Ok(Err(fault)),
    }
}

/// Send `RunEpoch` for one lane, honoring a parent-side `Kill` decision:
/// the child is SIGKILLed right after the send — the exact kill moment is
/// irrelevant because recovery re-runs the whole epoch from the barrier.
#[allow(clippy::too_many_arguments)]
fn dispatch_epoch(
    child: &mut ChildProc,
    lane_idx: usize,
    epoch: u64,
    attempt: u32,
    budget_cycles: u64,
    state: &SnapshotState,
    journal: JournalMode,
    kill: Option<(u64, u64)>,
    ctx: &ProcCtx<'_>,
    sup_cfg: &SupervisorConfig,
) -> Result<(), LaneFault> {
    let msg = RunEpochMsg {
        epoch,
        epochs: ctx.epochs,
        attempt,
        budget_cycles,
        state: stripped(state),
        kill,
        journal,
    };
    child.send(K_RUN_EPOCH, &encode_run_epoch(&msg))?;
    let site = (lane_idx as u64, epoch);
    if sup_cfg.proc_faults.decide(site, attempt) == Some(ProcFaultKind::Kill) {
        child.kill();
    }
    Ok(())
}

/// Rebuild a faulted worker lane from its epoch-barrier snapshot and
/// re-run the epoch — the out-of-process mirror of `shard::recover_lane`.
/// The respawned child restores the snapshot's executor export, recreates
/// the journal at the snapshot's exec base, and replays the epoch; past
/// the retry budget the lane is retired, with one final respawn to collect
/// a sane resilience report and the unspent budget folded into survivors.
#[allow(clippy::too_many_arguments)]
fn recover_proc_lane(
    ctx: &ProcCtx<'_>,
    lanes: &mut [ProcLane],
    idx: usize,
    epoch: u64,
    snap: &SnapshotState,
    first_fault: LaneFault,
    kill: Option<(u64, u64)>,
    sup: &mut Supervisor,
) -> Result<(), CampaignError> {
    let mut fault = first_fault;
    let mut attempt: u32 = 1;
    loop {
        sup.counters.record(&fault);
        if attempt > sup.cfg.max_lane_retries {
            // Degradation: retire the lane at its barrier snapshot. One
            // final respawn gives the report a sane restored instance to
            // read from (mirroring the in-process rebuild); then the
            // worker is shut down for good.
            lanes[idx].child = None;
            sup.counters.record_respawn(idx);
            let (lane_cfg, lane_seeds) = (lanes[idx].cfg.clone(), lanes[idx].seeds.clone());
            match spawn_lane(
                ctx,
                &sup.cfg,
                idx,
                &lane_cfg,
                &lane_seeds,
                snap.exec_state.clone(),
            )? {
                Ok((mut child, ack)) => {
                    lanes[idx].report = ack.report;
                    let _ = child.send(K_SHUTDOWN, &[]);
                }
                // Even the report-collection respawn faulted; keep the
                // last known report — the lane is being retired anyway.
                Err(f) => sup.counters.record(&f),
            }
            let reclaimed = lanes[idx]
                .cfg
                .budget_cycles
                .saturating_sub(snap.scalars.clock);
            lanes[idx].state = snap.clone();
            sup.dead[idx] = true;
            if sup.live() == 0 {
                return Err(CampaignError::AllLanesLost { epoch });
            }
            let heirs: Vec<usize> = (0..lanes.len())
                .filter(|&j| j != idx && !sup.dead[j])
                .collect();
            let share = reclaimed / heirs.len() as u64;
            let rem = reclaimed % heirs.len() as u64;
            for (k, &j) in heirs.iter().enumerate() {
                lanes[j].cfg.budget_cycles += share + u64::from((k as u64) < rem);
            }
            sup.counters.degradations.push(supervise::LaneDegradation {
                lane: idx as u64,
                epoch,
                attempts: u64::from(attempt),
                reclaimed_cycles: reclaimed,
                last_fault: fault.name().to_string(),
            });
            return Ok(());
        }
        // Respawn from the barrier snapshot and re-run the epoch.
        lanes[idx].child = None;
        sup.counters.record_respawn(idx);
        sup.counters.lane_rebuilds += 1;
        let (lane_cfg, lane_seeds) = (lanes[idx].cfg.clone(), lanes[idx].seeds.clone());
        let spawned = spawn_lane(
            ctx,
            &sup.cfg,
            idx,
            &lane_cfg,
            &lane_seeds,
            snap.exec_state.clone(),
        )?;
        let outcome = match spawned {
            Err(f) => Err(f),
            Ok((mut child, ack)) => {
                lanes[idx].report = ack.report;
                let journal = if ctx.ck.is_some() {
                    JournalMode::Create {
                        base: snap.scalars.execs,
                    }
                } else {
                    JournalMode::Off
                };
                let sent = dispatch_epoch(
                    &mut child,
                    idx,
                    epoch,
                    attempt,
                    lane_cfg.budget_cycles,
                    snap,
                    journal,
                    kill,
                    ctx,
                    &sup.cfg,
                );
                let reply = match sent {
                    Err(f) => Err(f),
                    Ok(()) => read_epoch_reply(&mut child, ctx.deadline(&sup.cfg))?,
                };
                lanes[idx].child = Some(child);
                reply
            }
        };
        match outcome {
            Ok(barrier) => {
                if let Some(st) = &ctx.storage {
                    st.absorb(&barrier.storage);
                }
                lanes[idx].state = barrier.state;
                lanes[idx].report = barrier.report;
                sup.counters.recovered += 1;
                return Ok(());
            }
            Err(f) => {
                fault = f;
                attempt += 1;
            }
        }
    }
}

/// Create (and immediately close) a retired lane's journal file, keeping
/// the on-disk epoch layout identical to the in-process engine's, which
/// opens a journal for every lane — dead or alive.
fn touch_dead_lane_journal(
    storage: &Storage,
    ck: &CheckpointConfig,
    epoch: u64,
    lane: usize,
    base: u64,
) -> OpOutcome {
    let (_, o) = Journal::create_at(
        &storage.stream(1 + lane as u64),
        &shard_journal_path(&ck.dir, epoch, lane),
        base,
        ck.fsync,
    );
    o
}

/// The epoch loop shared by fresh runs and resumes — the out-of-process
/// mirror of `shard::run_epochs`, with the same ordering: run (dispatch +
/// collect), kill check, recovery, merge, checkpoint, early stop.
#[allow(clippy::too_many_arguments)]
fn run_proc_epochs(
    ctx: &ProcCtx<'_>,
    lanes: &mut [ProcLane],
    global: &mut Global,
    start_epoch: u64,
    kill_limit: Option<u64>,
    mut first_epoch_journals: Option<Vec<JournalMode>>,
    sup: &mut Supervisor,
) -> Result<CampaignOutcome, CampaignError> {
    let track = ctx.ck.is_some();
    for epoch in start_epoch..ctx.epochs {
        let base_total: u64 = lanes.iter().map(|l| l.state.scalars.execs).sum();
        if kill_limit.is_some_and(|k| base_total >= k) {
            // The budget of a previous epoch (or the resumed snapshot)
            // already crossed the kill line.
            return Ok(CampaignOutcome::Killed { execs: base_total });
        }
        let kill = kill_limit.map(|k| (k, base_total));
        let journal_overrides = first_epoch_journals.take();

        // Recovery snapshots: the lane states already carry the executor
        // export from the previous barrier (or the handshake ack).
        let recovery: Vec<Option<SnapshotState>> = lanes
            .iter()
            .enumerate()
            .map(|(i, l)| (!sup.dead[i]).then(|| l.state.clone()))
            .collect();

        // Dispatch the epoch to every live worker, then collect replies in
        // lane order — the children run concurrently regardless of the
        // collection order, and the merge is insensitive to it.
        let mut sent: Vec<Option<Result<(), LaneFault>>> = Vec::with_capacity(lanes.len());
        for idx in 0..lanes.len() {
            if sup.dead[idx] {
                sent.push(None);
                continue;
            }
            let journal = match &journal_overrides {
                Some(modes) => modes[idx],
                None if track => JournalMode::Create {
                    base: lanes[idx].state.scalars.execs,
                },
                None => JournalMode::Off,
            };
            let lane = &mut lanes[idx];
            let outcome = match lane.child.as_mut() {
                Some(child) => dispatch_epoch(
                    child,
                    idx,
                    epoch,
                    0,
                    lane.cfg.budget_cycles,
                    &lane.state,
                    journal,
                    kill,
                    ctx,
                    &sup.cfg,
                ),
                None => Err(LaneFault::PipeEof),
            };
            sent.push(Some(outcome));
        }
        let deadline = ctx.deadline(&sup.cfg);
        let mut faults: Vec<Option<LaneFault>> = vec![None; lanes.len()];
        let mut any_killed = false;
        for idx in 0..lanes.len() {
            let Some(sent) = sent[idx].take() else {
                continue;
            };
            let reply = match sent {
                Err(f) => Err(f),
                Ok(()) => match lanes[idx].child.as_mut() {
                    Some(child) => read_epoch_reply(child, deadline)?,
                    None => Err(LaneFault::PipeEof),
                },
            };
            match reply {
                Ok(barrier) => {
                    any_killed |= barrier.killed;
                    if let Some(st) = &ctx.storage {
                        st.absorb(&barrier.storage);
                    }
                    lanes[idx].state = barrier.state;
                    lanes[idx].report = barrier.report;
                }
                Err(f) => faults[idx] = Some(f),
            }
        }

        if any_killed {
            // Simulated SIGKILL: stop right here — no recovery, no merge,
            // no snapshot (resume replays the journals whatever state the
            // killed epoch left them in), exactly like the in-process
            // engine.
            let total: u64 = lanes.iter().map(|l| l.state.scalars.execs).sum();
            return Ok(CampaignOutcome::Killed { execs: total });
        }

        for idx in 0..lanes.len() {
            let Some(fault) = faults[idx].take() else {
                continue;
            };
            let Some(snap) = &recovery[idx] else { continue };
            recover_proc_lane(ctx, lanes, idx, epoch, snap, fault, kill, sup)?;
        }

        let mut states: Vec<&mut SnapshotState> = lanes.iter_mut().map(|l| &mut l.state).collect();
        global.merge_epoch_states(&mut states);

        if let (Some(ck), Some(st)) = (ctx.ck, ctx.storage.as_ref()) {
            let snap_states: Vec<SnapshotState> = lanes.iter().map(|l| l.state.clone()).collect();
            let mut crashed = write_shard_snapshot_states(
                st,
                ck,
                epoch + 1,
                &snap_states,
                ctx.fingerprint,
            )
            .crashed()
                || rotate_shards(st, ck).crashed();
            if !crashed && epoch + 1 < ctx.epochs {
                // Live workers create their own journals when the next
                // `RunEpoch` arrives; retired lanes get theirs here for
                // on-disk parity with the in-process engine.
                for (i, lane) in lanes.iter().enumerate() {
                    if sup.dead[i]
                        && touch_dead_lane_journal(st, ck, epoch + 1, i, lane.state.scalars.execs)
                            .crashed()
                    {
                        crashed = true;
                        break;
                    }
                }
            }
            if crashed {
                // A supervisor-side storage crash boundary: the machine is
                // dead. Resume replays whatever reached the disk.
                let total: u64 = lanes.iter().map(|l| l.state.scalars.execs).sum();
                return Ok(CampaignOutcome::Killed { execs: total });
            }
        }
        if ctx.cfg.stop_after_crashes > 0 && global.crashes.len() >= ctx.cfg.stop_after_crashes {
            break;
        }
    }

    // Graceful shutdown; the `Drop` kill is the backstop.
    for lane in lanes.iter_mut() {
        if let Some(child) = lane.child.as_mut() {
            let _ = child.send(K_SHUTDOWN, &[]);
        }
        lane.child = None;
    }
    let states: Vec<&SnapshotState> = lanes.iter().map(|l| &l.state).collect();
    let reports: Vec<ResilienceReport> = lanes.iter().map(|l| l.report.clone()).collect();
    Ok(CampaignOutcome::Finished(assemble_parts(
        &states,
        &reports,
        &ctx.executor_name,
        global,
        sup,
        ctx.storage
            .as_ref()
            .map(Storage::counters)
            .unwrap_or_default(),
    )))
}

/// Run a lane-per-process campaign — `shard::run_sharded` with every lane
/// behind a supervised worker process. Requires a factory that implements
/// [`ExecutorFactory::worker_spec`]; `plan.workers` is ignored (each lane
/// already has a whole process; all live lanes run concurrently).
pub(crate) fn run_proc(
    factory: &dyn ExecutorFactory,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    plan: &ShardPlan,
    ck: Option<&CheckpointConfig>,
    sup_cfg: &SupervisorConfig,
) -> Result<CampaignOutcome, CampaignError> {
    let Some(spec) = factory.worker_spec() else {
        return Err(CampaignError::Config(
            "process isolation needs ExecutorFactory::worker_spec so workers can rebuild the factory",
        ));
    };
    let lanes_n = plan.lanes.max(1);
    let epochs = plan.sync_epochs.max(1);
    let track = ck.is_some();

    // One scratch executor builds the initial per-lane barrier states (a
    // fresh driver's state is a pure function of config and seeds — the
    // executor instance never runs).
    let mut scratch = factory.build().map_err(CampaignError::Build)?;
    let mut lanes: Vec<ProcLane> = Vec::with_capacity(lanes_n);
    for i in 0..lanes_n {
        let lane_cfg = lane_config(cfg, i, lanes_n);
        let lane_seeds: Vec<Vec<u8>> = seeds
            .iter()
            .enumerate()
            .filter(|(j, _)| j % lanes_n == i)
            .map(|(_, s)| s.clone())
            .collect();
        let state = barrier_state(&Driver::new(
            scratch.as_mut(),
            None,
            &lane_seeds,
            &lane_cfg,
            track,
        ));
        lanes.push(ProcLane {
            child: None,
            cfg: lane_cfg,
            seeds: lane_seeds,
            state,
            report: ResilienceReport::default(),
        });
    }
    if let Some(ck) = ck {
        // Best-effort decoded-image sidecar next to the snapshots, so a
        // later resume warms without re-lowering. Plain fs, outside the
        // storage fault plane: the sidecar is a cache, not campaign state,
        // and must not consume deterministic fault-plan op numbers. (The
        // idempotent create_dir_all below still runs as a storage op.)
        let _ = std::fs::create_dir_all(&ck.dir);
        scratch.save_decoded_sidecar(&ck.dir);
    }
    drop(scratch);

    let mut ctx = ProcCtx {
        spec,
        cfg,
        ck,
        epochs,
        executor_name: String::new(),
        fingerprint: 0,
        storage: ck.map(storage_for),
    };
    let mut sup = Supervisor::new(sup_cfg.clone(), lanes_n);
    for (i, lane) in lanes.iter_mut().enumerate() {
        let (child, ack) = spawn_lane_retrying(&ctx, &mut sup, i, &lane.cfg, &lane.seeds, &None)?;
        if i == 0 {
            ctx.executor_name = ack.executor.clone();
            ctx.fingerprint = ack.fingerprint;
        }
        lane.child = Some(child);
        lane.report = ack.report;
        lane.state.exec_state = ack.exec_state;
    }

    if let (Some(ck), Some(st)) = (ck, ctx.storage.as_ref()) {
        let snap_states: Vec<SnapshotState> = lanes.iter().map(|l| l.state.clone()).collect();
        if st.op(false, |_| std::fs::create_dir_all(&ck.dir)).crashed()
            || sweep_orphan_tmp(st, &ck.dir).crashed()
            || write_shard_snapshot_states(st, ck, 0, &snap_states, ctx.fingerprint).crashed()
        {
            return Ok(CampaignOutcome::Killed { execs: 0 });
        }
    }

    let mut global = Global::new();
    run_proc_epochs(
        &ctx,
        &mut lanes,
        &mut global,
        0,
        ck.and_then(|c| c.kill_after_execs),
        None,
        &mut sup,
    )
}

/// Resume a killed lane-per-process campaign from its shard checkpoint —
/// `shard::resume_sharded` with the journal replay performed on a scratch
/// driver (state only; no input re-executes) and the interrupted epoch's
/// journals handed to the respawned workers to reopen at their valid
/// length.
pub(crate) fn resume_proc(
    factory: &dyn ExecutorFactory,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    plan: &ShardPlan,
    ck: &CheckpointConfig,
    sup_cfg: &SupervisorConfig,
) -> Result<(CampaignOutcome, ResumeReport), CampaignError> {
    let Some(spec) = factory.worker_spec() else {
        return Err(CampaignError::Config(
            "process isolation needs ExecutorFactory::worker_spec so workers can rebuild the factory",
        ));
    };
    let lanes_n = plan.lanes.max(1);
    let epochs = plan.sync_epochs.max(1);
    let mut info = ResumeReport::default();
    let storage = storage_for(ck);
    if sweep_orphan_tmp(&storage, &ck.dir).crashed() {
        return Ok((CampaignOutcome::Killed { execs: 0 }, info));
    }
    let snaps = list_shard_snapshots(&ck.dir).map_err(CheckpointError::Io)?;
    let mut chosen = None;
    for (epoch, path) in snaps.iter().rev() {
        match load_shard_snapshot(path) {
            Ok((e, states, fp)) if e == *epoch => {
                chosen = Some((e, states, fp));
                break;
            }
            _ => {
                info.corrupt_snapshots_skipped += 1;
                storage.note_corrupt_snapshot();
            }
        }
    }
    let Some((epoch, states, fp)) = chosen else {
        return Err(CampaignError::Checkpoint(CheckpointError::NoUsableSnapshot));
    };
    if states.len() != lanes_n {
        return Err(CampaignError::Config(
            "shard snapshot lane count disagrees with the configured lanes",
        ));
    }
    info.snapshot_execs = states.iter().map(|s| s.scalars.execs).sum();

    // The scratch executor validates the snapshot's target fingerprint and
    // hosts the journal replay (replay is a pure state patch; the executor
    // never runs an input). The real executors live in the workers.
    // Warm the cache through the sidecar before the scratch build — a
    // cold-cache construction would lower and waste the sidecar.
    let warm = factory.warm_decoded_image(Some(&ck.dir));
    let mut scratch = factory.build().map_err(CampaignError::Build)?;
    check_target(fp, &*scratch).map_err(CampaignError::Checkpoint)?;
    info.note_decoded_image(warm.or_else(|| scratch.warm_decoded_image(Some(&ck.dir))));

    let mut global = Global::from_state(&states[0]);
    let mut lanes: Vec<ProcLane> = Vec::with_capacity(lanes_n);
    let mut journal_modes: Vec<JournalMode> = Vec::with_capacity(lanes_n);
    for (i, st) in states.into_iter().enumerate() {
        let lane_cfg = lane_config(cfg, i, lanes_n);
        let lane_seeds: Vec<Vec<u8>> = seeds
            .iter()
            .enumerate()
            .filter(|(j, _)| j % lanes_n == i)
            .map(|(_, s)| s.clone())
            .collect();
        let jpath = shard_journal_path(&ck.dir, epoch, i);
        let base = st.scalars.execs;
        let mut last_exec_state = st.exec_state.clone();
        let mut d = Driver::new(scratch.as_mut(), None, &lane_seeds, &lane_cfg, true);
        // Strip the executor export before applying: the scratch executor
        // is a replay substrate, not a lane.
        stripped(&st).apply(&mut d).map_err(CampaignError::Checkpoint)?;
        let mode = if epoch < epochs {
            match read_journal(&jpath, base) {
                Some((records, valid_len, dropped)) => {
                    for rec in &records {
                        rec.apply(&mut d);
                        if rec.exec_state.is_some() {
                            last_exec_state.clone_from(&rec.exec_state);
                        }
                        info.records_applied += 1;
                    }
                    if dropped > 0 {
                        info.torn_records += dropped;
                        storage.note_torn_records(dropped);
                    }
                    JournalMode::Reopen { valid_len }
                }
                // Killed before this lane's journal reached the disk.
                None => JournalMode::Create { base },
            }
        } else {
            JournalMode::Off
        };
        let mut state = barrier_state(&d);
        drop(d);
        state.exec_state = last_exec_state;
        lanes.push(ProcLane {
            child: None,
            cfg: lane_cfg,
            seeds: lane_seeds,
            state,
            report: ResilienceReport::default(),
        });
        journal_modes.push(mode);
    }
    drop(scratch);
    info.sweep_warnings = storage.counters().sweep_warnings;

    let mut ctx = ProcCtx {
        spec,
        cfg,
        ck: Some(ck),
        epochs,
        executor_name: String::new(),
        fingerprint: fp,
        storage: Some(storage),
    };
    // Supervision state is in-memory only: a resume starts every lane live
    // with fresh counters, exactly like the in-process engine.
    let mut sup = Supervisor::new(sup_cfg.clone(), lanes_n);
    for (i, lane) in lanes.iter_mut().enumerate() {
        let restore = lane.state.exec_state.clone();
        let (child, ack) =
            spawn_lane_retrying(&ctx, &mut sup, i, &lane.cfg, &lane.seeds, &restore)?;
        if i == 0 {
            ctx.executor_name = ack.executor.clone();
        }
        lane.child = Some(child);
        lane.report = ack.report;
    }

    let outcome = run_proc_epochs(
        &ctx,
        &mut lanes,
        &mut global,
        epoch,
        ck.kill_after_execs,
        Some(journal_modes),
        &mut sup,
    )?;
    Ok((outcome, info))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hello() -> Hello {
        Hello {
            reference: true,
            decode_opt: false,
            track: true,
            fsync: FsyncPolicy::OnSnapshot,
            dir: "/tmp/ckpt".to_string(),
            lane: 3,
            spec: vec![9, 9, 9],
            cfg: CampaignConfig {
                budget_cycles: 123_456,
                seed: 42,
                ..CampaignConfig::default()
            },
            seeds: vec![b"a".to_vec(), Vec::new(), vec![0xFF; 33]],
            faults: OrchFaultPlan::none(),
            hang_deadline_ticks: 2048,
            proc_faults: ProcFaultPlan::at((1, 2), ProcFaultKind::Abort),
            disk_faults: DiskFaultPlan::at((1, 4), vmos::DiskFaultKind::ShortWrite),
            storage_retries: 5,
            storage_backoff_cycles: 1234,
            exec_restore: Some(ExecutorState {
                respawns: 7,
                ..ExecutorState::default()
            }),
        }
    }

    #[test]
    fn hello_round_trips() {
        let h = sample_hello();
        let bytes = encode_hello(&h);
        let d = decode_hello(&bytes).unwrap();
        assert_eq!(d.reference, h.reference);
        assert_eq!(d.decode_opt, h.decode_opt);
        assert_eq!(d.track, h.track);
        assert_eq!(d.fsync, h.fsync);
        assert_eq!(d.dir, h.dir);
        assert_eq!(d.lane, h.lane);
        assert_eq!(d.spec, h.spec);
        assert_eq!(d.cfg.budget_cycles, h.cfg.budget_cycles);
        assert_eq!(d.cfg.seed, h.cfg.seed);
        assert_eq!(d.cfg.max_retries, h.cfg.max_retries);
        assert_eq!(d.seeds, h.seeds);
        assert_eq!(d.faults, h.faults);
        assert_eq!(d.hang_deadline_ticks, h.hang_deadline_ticks);
        assert_eq!(d.proc_faults, h.proc_faults);
        assert_eq!(d.disk_faults, h.disk_faults);
        assert_eq!(d.storage_retries, h.storage_retries);
        assert_eq!(d.storage_backoff_cycles, h.storage_backoff_cycles);
        assert_eq!(d.exec_restore, h.exec_restore);
    }

    #[test]
    fn truncated_hello_is_error_not_panic() {
        let bytes = encode_hello(&sample_hello());
        for cut in 0..bytes.len() {
            assert!(decode_hello(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn ack_round_trips() {
        let a = Ack {
            executor: "closurex".to_string(),
            fingerprint: 0xDEAD_BEEF,
            report: ResilienceReport {
                respawns: 2,
                ..ResilienceReport::default()
            },
            exec_state: None,
        };
        let d = decode_ack(&encode_ack(&a)).unwrap();
        assert_eq!(d.executor, a.executor);
        assert_eq!(d.fingerprint, a.fingerprint);
        assert_eq!(d.report, a.report);
        assert_eq!(d.exec_state, a.exec_state);
    }

    #[test]
    fn journal_modes_round_trip() {
        for m in [
            JournalMode::Off,
            JournalMode::Create { base: 77 },
            JournalMode::Reopen { valid_len: 1024 },
        ] {
            let mut w = Writer::new();
            put_journal_mode(&mut w, m);
            let bytes = w.into_bytes();
            assert_eq!(get_journal_mode(&mut Reader::new(&bytes)).unwrap(), m);
        }
        let mut w = Writer::new();
        w.put_u8(7);
        let bytes = w.into_bytes();
        assert!(get_journal_mode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn fault_reports_round_trip() {
        for f in [
            LaneFault::Panic("boom".to_string()),
            LaneFault::Hang,
            LaneFault::BarrierTimeout,
        ] {
            assert_eq!(decode_fault(&encode_fault(&f)).unwrap(), f);
        }
        assert!(decode_fault(&[9]).is_err());
    }

    #[test]
    fn fsync_tags_round_trip() {
        for f in [
            FsyncPolicy::Never,
            FsyncPolicy::OnSnapshot,
            FsyncPolicy::EveryRecord,
        ] {
            assert_eq!(fsync_from_tag(fsync_tag(f)).unwrap(), f);
        }
        assert!(fsync_from_tag(3).is_err());
    }

    #[test]
    fn worker_env_is_stable() {
        // The env var is part of the spawn contract between binaries;
        // renaming it would break mixed-version parent/worker pairs.
        assert_eq!(WORKER_ENV, "AFLRS_PROC_WORKER");
    }
}
