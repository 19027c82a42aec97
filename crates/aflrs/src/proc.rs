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
//! (`Hello.exec_restore`) and re-runs the epoch from the same stripped
//! snapshot. The wall-clock read deadline only decides *when* the
//! supervisor acts; the re-run itself is a pure function of the barrier
//! state, so recovery erases any trace of the fault from the campaign
//! result. Checkpoint resume is the same re-run: workers do no I/O of
//! their own, and the supervisor seals each barrier's lane states into
//! the shard snapshot a resume respawns the workers from.

use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use closurex::checkpoint::ExecutorState;
use closurex::executor::ExecutorFactory;
use closurex::resilience::ResilienceReport;
use vmos::wire::Nested;
use vmos::wire::{read_frame, write_frame, FrameError, FRAME_MAGIC, MAX_FRAME_LEN};
use vmos::{
    wire_struct, OrchFaultPlan, ProcFaultKind, ProcFaultPlan, Reader, Wire, WireError, Writer,
};

use crate::builder::CampaignError;
use crate::campaign::{CampaignConfig, Driver};
use crate::checkpoint::{
    check_target, storage_for, sweep_orphan_tmp, CampaignOutcome, CheckpointConfig, ResumeReport,
    SnapshotState,
};
use crate::shard::{
    assemble_parts, barrier_state, lane_config, lane_seeds, load_newest_shard_snapshot,
    rotate_shards, run_lane_epoch, write_shard_snapshot, Global, KillSwitch, Lane, LaneAttempt,
    ShardPlan,
};
use crate::storage::{OpOutcome, Storage};
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
// Messages. Each payload is a declared `Wire` type (the checkpoint files'
// codecs included), so decode never panics and bounds every count before
// allocating.
// ---------------------------------------------------------------------------

/// The one-time handshake: everything a fresh worker needs to build its
/// executor pair and run epochs for one lane.
pub(crate) struct Hello {
    /// Engine choice inherited from the supervisor (workers are separate
    /// processes; the thread-inheritance trick of the in-process pool
    /// cannot cross the `exec` boundary).
    pub(crate) reference: bool,
    /// This worker's lane index.
    pub(crate) lane: u64,
    /// The factory recipe ([`ExecutorFactory::worker_spec`]); the worker
    /// entrypoint's parse closure turns it back into a factory.
    pub(crate) spec: Vec<u8>,
    /// The lane's (already budget-sliced, lane-seeded) campaign config.
    pub(crate) cfg: CampaignConfig,
    /// The lane's round-robin slice of the seed corpus.
    pub(crate) seeds: Vec<Vec<u8>>,
    /// Orchestration-layer fault plan (panic/hang/barrier injection runs
    /// inside the child, exactly where the in-process engine runs it).
    pub(crate) faults: OrchFaultPlan,
    pub(crate) hang_deadline_ticks: u64,
    /// Process-layer fault plan: the child performs its own abort / OOM /
    /// stall / garbage-frame sabotage; `Kill` is the parent's job.
    pub(crate) proc_faults: ProcFaultPlan,
    /// Executor state to restore after building (respawn recovery and
    /// checkpoint resume); `None` on a fresh first spawn.
    pub(crate) exec_restore: Option<ExecutorState>,
}

wire_struct!(Hello {
    reference,
    lane,
    spec,
    cfg,
    seeds,
    faults,
    hang_deadline_ticks,
    proc_faults,
    exec_restore,
});

/// The worker's answer to [`Hello`]: identity plus the freshly built (and
/// possibly restored) executor's observable state, so the supervisor can
/// seed the epoch-0 shard snapshot without an executor of its own.
pub(crate) struct Ack {
    pub(crate) executor: String,
    pub(crate) fingerprint: u64,
    pub(crate) report: ResilienceReport,
    pub(crate) exec_state: Option<ExecutorState>,
}

wire_struct!(Ack {
    executor,
    fingerprint,
    report,
    exec_state,
});

/// One epoch attempt: the lane's barrier state (executor export stripped —
/// the live child process *is* the executor state) plus everything that
/// may have changed since the handshake.
pub(crate) struct RunEpochMsg {
    pub(crate) epoch: u64,
    pub(crate) epochs: u64,
    pub(crate) attempt: u32,
    /// Current lane budget (degradation folds retired lanes' cycles into
    /// survivors mid-campaign, so this cannot live in `Hello`).
    pub(crate) budget_cycles: u64,
    pub(crate) state: SnapshotState,
    /// Simulated-SIGKILL hook: `(limit, base)` — stop once `base` plus the
    /// lane's own execs reaches `limit`.
    pub(crate) kill: Option<(u64, u64)>,
}

wire_struct!(RunEpochMsg {
    epoch,
    epochs,
    attempt,
    budget_cycles,
    state as Nested,
    kill,
});

/// The epoch's result: the lane's barrier state **with** the executor
/// export (the supervisor's recovery snapshot, merge substrate, and shard
/// checkpoint payload) plus the executor's lifetime resilience report.
pub(crate) struct BarrierMsg {
    /// The simulated kill switch tripped during this epoch.
    pub(crate) killed: bool,
    pub(crate) state: SnapshotState,
    pub(crate) report: ResilienceReport,
}

wire_struct!(BarrierMsg {
    killed,
    state as Nested,
    report,
});

/// An in-child lane fault the worker detected itself (the out-of-process
/// analogues of what `run_epoch_parallel` catches in-process).
/// Hand-written: the parent diagnoses process-transport faults from the
/// exit status and pipe state, so a child never reports them, and the
/// encoder folds them into `Hang`'s tag.
impl Wire for LaneFault {
    const MIN_LEN: usize = 1;

    fn encode(&self, w: &mut Writer) {
        match self {
            LaneFault::Panic(msg) => {
                w.put_u8(0);
                w.put_str(msg);
            }
            LaneFault::BarrierTimeout => w.put_u8(2),
            _ => w.put_u8(1),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => LaneFault::Panic(r.get_str()?),
            1 => LaneFault::Hang,
            2 => LaneFault::BarrierTimeout,
            _ => return Err(WireError::Malformed("fault tag")),
        })
    }
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
pub(crate) fn send_fatal(out: &mut impl std::io::Write, msg: &str) {
    let _ = write_frame(out, K_FATAL, &msg.to_owned().to_bytes());
}

/// The worker protocol loop. Returns the process exit code.
fn worker_serve<F>(parse: F) -> i32
where
    F: FnOnce(&[u8]) -> Result<Box<dyn ExecutorFactory>, String>,
{
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();

    let hello = match read_frame(&mut stdin, MAX_FRAME_LEN) {
        Ok((K_HELLO, payload)) => match Hello::from_bytes(&payload) {
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
    if write_frame(&mut stdout, K_ACK, &ack.to_bytes()).is_err() {
        return 0;
    }

    let mut cfg = hello.cfg.clone();
    let lane_idx = hello.lane;

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
                let msg = match RunEpochMsg::from_bytes(&payload) {
                    Ok(m) => m,
                    Err(e) => {
                        send_fatal(&mut stdout, &format!("bad run-epoch payload: {e}"));
                        continue;
                    }
                };
                cfg.budget_cycles = msg.budget_cycles;

                // Scheduled self-sabotage for this attempt. `Kill` belongs
                // to the parent; everything else the child performs on
                // itself, `trip_after` execs into the epoch (or
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
                        run_lane_epoch(lane, msg.epoch, msg.epochs, kill_ref, &watch)
                    })
                };
                let state = lane.state;
                executor = lane.executor;
                revalidator = lane.revalidator;

                match outcome {
                    Err(panic_payload) => {
                        // Contained (injected or organic) panic: report it
                        // and wait — the supervisor kills and respawns us.
                        let f = LaneFault::Panic(panic_payload);
                        if write_frame(&mut stdout, K_FAULT, &f.to_bytes()).is_err() {
                            return 0;
                        }
                    }
                    Ok(Err(e)) => {
                        send_fatal(&mut stdout, &format!("lane epoch failed: {e}"));
                    }
                    Ok(Ok(Some(fault))) => {
                        if write_frame(&mut stdout, K_FAULT, &fault.to_bytes()).is_err() {
                            return 0;
                        }
                    }
                    Ok(Ok(None)) => {
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
                        };
                        if write_frame(&mut stdout, K_BARRIER, &b.to_bytes()).is_err() {
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
    fn spawn(hello: &Hello) -> Result<ChildProc, CampaignError> {
        let not_started =
            |e: std::io::Error| CampaignError::WorkerFailed(format!("worker not started: {e}"));
        let exe = std::env::current_exe().map_err(not_started)?;
        let mut child = Command::new(exe)
            .env(WORKER_ENV, "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(not_started)?;
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
        let _ = write_frame(&mut stdin, K_HELLO, &hello.to_bytes());
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
    /// The supervisor's storage plane (shard snapshots, rotation, sweeps);
    /// workers do no I/O of their own.
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
            lane: lane as u64,
            spec: self.spec.clone(),
            cfg: lane_cfg.clone(),
            seeds: seeds.to_vec(),
            faults: sup_cfg.faults.clone(),
            hang_deadline_ticks: sup_cfg.hang_deadline_ticks,
            proc_faults: sup_cfg.proc_faults.clone(),
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
    let mut child = ChildProc::spawn(&hello)?;
    match child.recv(ctx.deadline(sup_cfg)) {
        Ok((K_ACK, payload)) => match Ack::from_bytes(&payload) {
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
    CampaignError::WorkerFailed(
        String::from_bytes(payload)
            .unwrap_or_else(|_| "worker sent an unreadable fatal report".to_string()),
    )
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
        Ok((K_BARRIER, payload)) => match BarrierMsg::from_bytes(&payload) {
            Ok(b) => Ok(Ok(b)),
            Err(_) => {
                child.kill();
                Ok(Err(LaneFault::FrameCorrupt))
            }
        },
        Ok((K_FAULT, payload)) => match LaneFault::from_bytes(&payload) {
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
/// the child is SIGKILLed right after the send and the signal fault is
/// returned at once — the exact kill moment is irrelevant because
/// recovery re-runs the whole epoch from the barrier.
#[allow(clippy::too_many_arguments)]
fn dispatch_epoch(
    child: &mut ChildProc,
    lane_idx: usize,
    epoch: u64,
    attempt: u32,
    budget_cycles: u64,
    state: &SnapshotState,
    kill: Option<(u64, u64)>,
    ctx: &ProcCtx<'_>,
    sup_cfg: &SupervisorConfig,
) -> Result<(), LaneFault> {
    let msg = RunEpochMsg {
        epoch,
        epochs: ctx.epochs,
        attempt,
        budget_cycles,
        state: SnapshotState {
            exec_state: None,
            ..state.clone()
        },
        kill,
    };
    child.send(K_RUN_EPOCH, &msg.to_bytes())?;
    let site = (lane_idx as u64, epoch);
    if sup_cfg.proc_faults.decide(site, attempt) == Some(ProcFaultKind::Kill) {
        // The fault is a SIGKILL during the epoch, so report it here. A
        // short epoch may already have written its barrier frame before
        // the signal landed; reading that frame would hide the fault.
        child.kill();
        return Err(child.reap_fault());
    }
    Ok(())
}

/// Rebuild a faulted worker lane from its epoch-barrier snapshot and
/// re-run the epoch — the out-of-process mirror of `shard::recover_lane`.
/// The respawned child restores the snapshot's executor export and replays
/// the epoch; past the retry budget the lane is retired, with one final
/// respawn to collect a sane resilience report and the unspent budget
/// folded into survivors.
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
                let sent = dispatch_epoch(
                    &mut child,
                    idx,
                    epoch,
                    attempt,
                    lane_cfg.budget_cycles,
                    snap,
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
    sup: &mut Supervisor,
) -> Result<CampaignOutcome, CampaignError> {
    for epoch in start_epoch..ctx.epochs {
        let base_total: u64 = lanes.iter().map(|l| l.state.scalars.execs).sum();
        if kill_limit.is_some_and(|k| base_total >= k) {
            // The budget of a previous epoch (or the resumed snapshot)
            // already crossed the kill line.
            return Ok(CampaignOutcome::Killed { execs: base_total });
        }
        let kill = kill_limit.map(|k| (k, base_total));

        // Dispatch the epoch to every live worker, then collect replies in
        // lane order — the children run concurrently regardless of the
        // collection order, and the merge is insensitive to it.
        let mut sent: Vec<Option<Result<(), LaneFault>>> = Vec::with_capacity(lanes.len());
        for (idx, lane) in lanes.iter_mut().enumerate() {
            if sup.dead[idx] {
                sent.push(None);
                continue;
            }
            let outcome = match lane.child.as_mut() {
                Some(child) => dispatch_epoch(
                    child,
                    idx,
                    epoch,
                    0,
                    lane.cfg.budget_cycles,
                    &lane.state,
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
                    lanes[idx].state = barrier.state;
                    lanes[idx].report = barrier.report;
                }
                Err(f) => faults[idx] = Some(f),
            }
        }

        if any_killed {
            // Simulated SIGKILL: stop right here — no recovery, no merge,
            // no snapshot (resume re-runs this epoch from the last
            // barrier), exactly like the in-process engine.
            let total: u64 = lanes.iter().map(|l| l.state.scalars.execs).sum();
            return Ok(CampaignOutcome::Killed { execs: total });
        }

        for idx in 0..lanes.len() {
            let Some(fault) = faults[idx].take() else {
                continue;
            };
            // A faulted lane's state is still its barrier state, executor
            // export included: that is its recovery snapshot.
            let snap = lanes[idx].state.clone();
            recover_proc_lane(ctx, lanes, idx, epoch, &snap, fault, kill, sup)?;
        }

        let mut states: Vec<&mut SnapshotState> = lanes.iter_mut().map(|l| &mut l.state).collect();
        global.merge_epoch_states(&mut states);

        if let (Some(ck), Some(st)) = (ctx.ck, ctx.storage.as_ref()) {
            if write_barrier(ctx, ck, st, epoch + 1, global, lanes).crashed()
                || rotate_shards(st, ck).crashed()
            {
                // A supervisor-side storage crash boundary: the machine is
                // dead. Resume re-runs from the newest durable barrier.
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

/// Seal the lanes' barrier states (executor exports from the workers) as
/// the shard snapshot for `epoch`.
fn write_barrier(
    ctx: &ProcCtx<'_>,
    ck: &CheckpointConfig,
    storage: &Storage,
    epoch: u64,
    global: &Global,
    lanes: &[ProcLane],
) -> OpOutcome {
    let parts: Vec<_> = lanes
        .iter()
        .map(|l| (&l.state.scalars, &l.state.exec_state))
        .collect();
    write_shard_snapshot(storage, ck, epoch, global, &parts, ctx.fingerprint)
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

    // One scratch executor builds the initial per-lane barrier states (a
    // fresh driver's state is a pure function of config and seeds — the
    // executor instance never runs).
    let mut scratch = factory.build().map_err(CampaignError::Build)?;
    let mut lanes: Vec<ProcLane> = Vec::with_capacity(lanes_n);
    for i in 0..lanes_n {
        let lane_cfg = lane_config(cfg, i, lanes_n);
        let lane_seeds = lane_seeds(seeds, i, lanes_n);
        let state = barrier_state(&Driver::new(scratch.as_mut(), None, &lane_seeds, &lane_cfg));
        lanes.push(ProcLane {
            child: None,
            cfg: lane_cfg,
            seeds: lane_seeds,
            state,
            report: ResilienceReport::default(),
        });
    }
    drop(scratch);

    let mut ctx = ProcCtx {
        spec,
        cfg,
        ck,
        epochs: plan.sync_epochs.max(1),
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

    let mut global = Global::new();
    if let (Some(ck), Some(st)) = (ck, ctx.storage.as_ref()) {
        if st.op(false, |_| std::fs::create_dir_all(&ck.dir)).crashed()
            || sweep_orphan_tmp(st, &ck.dir).crashed()
            || write_barrier(&ctx, ck, st, 0, &global, &lanes).crashed()
        {
            return Ok(CampaignOutcome::Killed { execs: 0 });
        }
    }

    run_proc_epochs(
        &ctx,
        &mut lanes,
        &mut global,
        0,
        ck.and_then(|c| c.kill_after_execs),
        &mut sup,
    )
}

/// Resume a killed lane-per-process campaign from its shard checkpoint —
/// `shard::resume_sharded` with the workers respawned from the snapshot's
/// lane states and executor exports, re-running the interrupted epoch.
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
    let mut info = ResumeReport::default();
    let storage = storage_for(ck);
    if sweep_orphan_tmp(&storage, &ck.dir).crashed() {
        return Ok((CampaignOutcome::Killed { execs: 0 }, info));
    }
    let snap = load_newest_shard_snapshot(&storage, ck, lanes_n, &mut info)?;
    info.sweep_warnings = storage.counters().sweep_warnings;

    // The scratch executor validates the snapshot's target fingerprint;
    // the real executors live in the workers. Warm the cache before the
    // scratch build, whose cold-cache construction would lower and hide
    // whether the resume paid for it.
    let warm = factory.warm_decoded_image(None);
    let scratch = factory.build().map_err(CampaignError::Build)?;
    check_target(snap.fingerprint, &*scratch).map_err(CampaignError::Checkpoint)?;
    info.note_decoded_image(warm.or_else(|| scratch.warm_decoded_image(None)));
    drop(scratch);

    let mut global = snap.global;
    let mut lanes: Vec<ProcLane> = snap
        .lanes
        .into_iter()
        .enumerate()
        .map(|(i, lb)| ProcLane {
            child: None,
            cfg: lane_config(cfg, i, lanes_n),
            seeds: lane_seeds(seeds, i, lanes_n),
            state: SnapshotState {
                exec_state: lb.exec_state.clone(),
                ..lb.state(&global)
            },
            report: ResilienceReport::default(),
        })
        .collect();

    let mut ctx = ProcCtx {
        spec,
        cfg,
        ck: Some(ck),
        epochs: plan.sync_epochs.max(1),
        executor_name: String::new(),
        fingerprint: snap.fingerprint,
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
        snap.epoch,
        ck.kill_after_execs,
        &mut sup,
    )?;
    Ok((outcome, info))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_fault_tag_is_malformed() {
        assert_eq!(
            LaneFault::from_bytes(&[9]),
            Err(WireError::Malformed("fault tag"))
        );
    }

    #[test]
    fn worker_env_is_stable() {
        // The env var is part of the spawn contract between binaries;
        // renaming it would break mixed-version parent/worker pairs.
        assert_eq!(WORKER_ENV, "AFLRS_PROC_WORKER");
    }
}
