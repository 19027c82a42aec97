//! Lane-per-process isolation: the process runner behind
//! `shard::EpochSession`.
//!
//! In-process lanes share the coordinator's address space — a lane that
//! aborts, leaks, or wedges takes the whole campaign with it. Under
//! `Campaign::isolation(Isolation::Process)` the session's lanes run in
//! `ProcRunner` instead: one **supervised child process** per lane. The
//! session is the same one that drives in-process lanes — the epoch order,
//! the recovery ladder, the merge, the shard snapshots and the kill
//! decision are all its own — so this module only answers the runner
//! contract (`shard::LaneRunner`) with processes, and serves the
//! worker side:
//!
//! * The runner self-execs the current binary with [`WORKER_ENV`] set;
//!   the child's entrypoint (a [`worker_main_hook`] call at the top of
//!   `main`) never returns and serves the lane over stdin/stdout pipes.
//! * Every message travels as a `vmos::wire` frame — length-prefixed,
//!   checksum-sealed, bounded before allocation — so a corrupt or truncated
//!   byte stream surfaces as a typed [`LaneFault::FrameCorrupt`], never a
//!   panic or a desync.
//! * `RunEpoch` carries the lane's carried state down; the barrier frame
//!   carries back the same `shard::LaneRun` a thread lane hands
//!   the session (post-epoch state, executor export included). That is
//!   what makes `Isolation::Process` **bit-identical** (modulo the
//!   supervision report) to `Isolation::InProcess`.
//! * A worker that dies — SIGKILL, abort, OOM-style exit, stall past the
//!   wall-clock read deadline, or garbage on the pipe — is just another
//!   [`LaneFault`]: the runner maps the exit status to a typed fault, and
//!   the session's recovery ladder has it respawn the lane from its
//!   barrier or retire it.
//!
//! # The wire protocol
//!
//! Parent → child: `Hello` (1) once, then one `RunEpoch` (2) per epoch
//! attempt, then `Shutdown` (3). Child → parent: `Ack` (16) answering
//! `Hello`, then per epoch one of `BarrierSnapshot` (17), `FaultReport`
//! (18), or `Fatal` (19). The child exits on `Shutdown` or pipe EOF; the
//! runner kills and reaps the child when its handle drops, so no campaign
//! outcome — including an error path — leaks a process.
//!
//! # Determinism under supervision
//!
//! A respawned child restores the executor state exported at the epoch
//! barrier (`Hello.exec_restore`) and re-runs the epoch from the lane's
//! carried state, exactly as a rebuilt thread lane does. The wall-clock
//! read deadline only decides *when* the runner acts; the re-run itself is
//! a pure function of the barrier state, so recovery erases any trace of
//! the fault from the campaign result. Checkpoint resume is the same
//! re-run: workers do no I/O of their own.

use std::borrow::Cow;
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
use crate::campaign::CampaignConfig;
use crate::checkpoint::SnapshotState;
use crate::shard::{
    run_lane_contained, Attempt, KillSwitch, Lane, LaneAttempt, LaneBarrier, LaneExecutors,
    LaneRunner,
};
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

/// The worker's answer to [`Hello`] is the runner contract's
/// [`LaneStart`]: identity plus the freshly built (and possibly restored)
/// executor's observable state, so the session can seed the epoch-0 shard
/// snapshot without an executor of its own.
pub(crate) use crate::shard::LaneStart as Ack;

/// One epoch attempt: the lane's barrier state (executor export stripped —
/// the live child process *is* the executor state) plus everything that
/// may have changed since the handshake. The parent sends the state
/// borrowed from its lane (the virgin map alone is 64 KiB); the worker
/// decodes it owned.
pub(crate) struct RunEpochMsg<'a> {
    pub(crate) epoch: u64,
    pub(crate) epochs: u64,
    pub(crate) attempt: u32,
    /// Current lane budget (degradation folds retired lanes' cycles into
    /// survivors mid-campaign, so this cannot live in `Hello`).
    pub(crate) budget_cycles: u64,
    pub(crate) state: Cow<'a, SnapshotState>,
    /// Simulated-SIGKILL hook: `(limit, base)` — stop once `base` plus the
    /// lane's own execs reaches `limit`.
    pub(crate) kill: Option<(u64, u64)>,
}

wire_struct!(RunEpochMsg<'_> {
    epoch,
    epochs,
    attempt,
    budget_cycles,
    state as Nested,
    kill,
});

/// The epoch's result is the runner contract's [`LaneRun`], sent whole:
/// the lane's barrier state **with** the executor export (the session's
/// recovery point, merge substrate and shard checkpoint payload) plus the
/// executor's lifetime resilience report.
pub(crate) use crate::shard::LaneRun as BarrierMsg;

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
            send_fatal(
                &mut stdout,
                &format!("expected hello, got frame kind {kind}"),
            );
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
    let revalidator = match factory.build_revalidator() {
        Ok(r) => r,
        Err(e) => {
            send_fatal(&mut stdout, &format!("revalidator build failed: {e}"));
            return 0;
        }
    };

    let mut ex = LaneExecutors {
        executor,
        revalidator,
    };
    if write_frame(&mut stdout, K_ACK, &ex.start().to_bytes()).is_err() {
        return 0;
    }

    let lane_idx = hello.lane;
    let mut lane = Lane {
        state: SnapshotState::initial(&hello.cfg),
        cfg: hello.cfg,
        seeds: hello.seeds,
    };

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
                lane.cfg.budget_cycles = msg.budget_cycles;
                lane.state = msg.state.into_owned();

                // Scheduled self-sabotage for this attempt. `Kill` belongs
                // to the parent; everything else the child performs on
                // itself, `trip_after` execs into the epoch (or
                // at the barrier for shorter epochs) via a private kill
                // switch — the real one is ignored for a doomed attempt,
                // since recovery re-runs the epoch wholesale either way.
                let start_execs = lane.state.scalars.execs;
                let site = (lane_idx, msg.epoch);
                let self_fault = match hello.proc_faults.decide(site, msg.attempt) {
                    Some(ProcFaultKind::Kill) | None => None,
                    Some(k) => Some(k),
                };
                let trip_after = hello.proc_faults.aux_bits(site, msg.attempt) % 16;
                let sabotage =
                    self_fault.map(|_| KillSwitch::new(start_execs + trip_after, start_execs));
                let real_kill = msg.kill.map(|(limit, base)| KillSwitch::new(limit, base));
                let kill_ref = sabotage.as_ref().or(real_kill.as_ref());

                let watch = LaneAttempt {
                    lane: lane_idx,
                    attempt: msg.attempt,
                    faults: &hello.faults,
                    hang_deadline: hello.hang_deadline_ticks,
                };
                let reply = match run_lane_contained(
                    &mut ex, &lane, msg.epoch, msg.epochs, kill_ref, &watch,
                ) {
                    Err(e) => {
                        send_fatal(&mut stdout, &format!("lane epoch failed: {e}"));
                        continue;
                    }
                    // A contained panic, hang or lost handoff: report it
                    // and wait — the supervisor kills and respawns us.
                    Ok(Err(fault)) => write_frame(&mut stdout, K_FAULT, &fault.to_bytes()),
                    Ok(Ok(run)) => {
                        if let Some(kind) = self_fault {
                            perform_self_fault(kind, &mut stdout);
                        }
                        write_frame(&mut stdout, K_BARRIER, &run.to_bytes())
                    }
                };
                if reply.is_err() {
                    return 0;
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

/// The handshake for lane `idx`'s worker: the lane's current config and
/// seed slice, the supervision plans, and the executor state to restore.
fn hello(
    spec: &[u8],
    sup_cfg: &SupervisorConfig,
    idx: usize,
    lane: &Lane,
    exec_restore: Option<&ExecutorState>,
) -> Hello {
    Hello {
        reference: vmos::reference_engine(),
        lane: idx as u64,
        spec: spec.to_vec(),
        cfg: lane.cfg.clone(),
        seeds: lane.seeds.clone(),
        faults: sup_cfg.faults.clone(),
        hang_deadline_ticks: sup_cfg.hang_deadline_ticks,
        proc_faults: sup_cfg.proc_faults.clone(),
        exec_restore: exec_restore.cloned(),
    }
}

fn deadline(sup_cfg: &SupervisorConfig) -> Duration {
    Duration::from_millis(sup_cfg.read_deadline_ms.max(1))
}

/// Spawn one worker lane and complete the handshake. Outer error: the
/// spawn itself failed (environmental, campaign-fatal). Inner error: the
/// worker died or misbehaved during the handshake (a lane fault — the
/// caller may retry).
fn spawn_lane(
    spec: &[u8],
    sup_cfg: &SupervisorConfig,
    idx: usize,
    lane: &Lane,
    exec_restore: Option<&ExecutorState>,
) -> Result<Result<(ChildProc, Ack), LaneFault>, CampaignError> {
    let mut child = ChildProc::spawn(&hello(spec, sup_cfg, idx, lane, exec_restore))?;
    match child.recv(deadline(sup_cfg)) {
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

/// Read one epoch reply from a worker. `Ok(Ok)` — the barrier snapshot;
/// `Ok(Err)` — a typed lane fault (in-child report or transport); `Err` —
/// a campaign-fatal condition.
fn read_epoch_reply(child: &mut ChildProc, deadline: Duration) -> Result<Attempt, CampaignError> {
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
fn dispatch_epoch(
    child: &mut ChildProc,
    idx: usize,
    lane: &Lane,
    (epoch, epochs): (u64, u64),
    attempt: u32,
    kill: Option<(u64, u64)>,
    sup_cfg: &SupervisorConfig,
) -> Result<(), LaneFault> {
    let msg = RunEpochMsg {
        epoch,
        epochs,
        attempt,
        budget_cycles: lane.cfg.budget_cycles,
        state: Cow::Borrowed(&lane.state),
        kill,
    };
    child.send(K_RUN_EPOCH, &msg.to_bytes())?;
    let site = (idx as u64, epoch);
    if sup_cfg.proc_faults.decide(site, attempt) == Some(ProcFaultKind::Kill) {
        // The fault is a SIGKILL during the epoch, so report it here. A
        // short epoch may already have written its barrier frame before
        // the signal landed; reading that frame would hide the fault.
        child.kill();
        return Err(child.reap_fault());
    }
    Ok(())
}

/// The session's lanes in worker processes ([`crate::Isolation::Process`]):
/// one supervised child per lane. Every lane already has a whole process,
/// so all live lanes run concurrently and the plan's worker count is
/// ignored. Kill delivery is per process: a child cannot share a counter,
/// so each counts its own executions from the epoch's `base`.
pub(crate) struct ProcRunner {
    /// The factory recipe ([`ExecutorFactory::worker_spec`]) each worker
    /// rebuilds its executors from.
    spec: Vec<u8>,
    children: Vec<Option<ChildProc>>,
}

impl ProcRunner {
    /// Spawn every lane's worker, restored to `barrier`'s exports on a
    /// resume. A failed handshake is retried up to the supervisor's retry
    /// budget and counted like any other lane fault.
    pub(crate) fn spawn(
        factory: &dyn ExecutorFactory,
        lanes: &[Lane],
        barrier: Option<&[LaneBarrier]>,
        sup: &mut Supervisor,
    ) -> Result<(Self, Vec<Ack>), CampaignError> {
        let Some(spec) = factory.worker_spec() else {
            return Err(CampaignError::Config(
                "process isolation needs ExecutorFactory::worker_spec so workers can rebuild the factory",
            ));
        };
        let mut children = Vec::with_capacity(lanes.len());
        let mut acks = Vec::with_capacity(lanes.len());
        for (idx, lane) in lanes.iter().enumerate() {
            let restore = barrier.and_then(|b| b[idx].exec_state.as_ref());
            let mut attempt = 0u32;
            let (child, ack) = loop {
                match spawn_lane(&spec, &sup.cfg, idx, lane, restore)? {
                    Ok(pair) => break pair,
                    Err(fault) => {
                        sup.counters.record(&fault);
                        attempt += 1;
                        if attempt > sup.cfg.max_lane_retries {
                            return Err(CampaignError::WorkerLost(
                                "a worker process failed its handshake past the retry budget",
                            ));
                        }
                        sup.counters.record_respawn(idx);
                    }
                }
            };
            children.push(Some(child));
            acks.push(ack);
        }
        Ok((ProcRunner { spec, children }, acks))
    }

    /// Replace lane `idx`'s worker with a fresh one restored to
    /// `barrier`'s export.
    fn respawn(
        &mut self,
        idx: usize,
        lane: &Lane,
        barrier: &LaneBarrier,
        sup: &mut Supervisor,
    ) -> Result<Result<(ChildProc, Ack), LaneFault>, CampaignError> {
        self.children[idx] = None;
        sup.counters.record_respawn(idx);
        spawn_lane(&self.spec, &sup.cfg, idx, lane, barrier.exec_state.as_ref())
    }
}

impl LaneRunner for ProcRunner {
    /// Dispatch the epoch to every live worker, then collect replies in
    /// lane order — the children run concurrently regardless of the
    /// collection order, and the merge is insensitive to it.
    fn run_epoch(
        &mut self,
        lanes: &[Lane],
        at: (u64, u64),
        kill: Option<(u64, u64)>,
        sup: &Supervisor,
    ) -> Result<Vec<Option<Attempt>>, CampaignError> {
        let sent: Vec<Option<Result<(), LaneFault>>> = self
            .children
            .iter_mut()
            .zip(lanes)
            .enumerate()
            .map(|(idx, (child, lane))| {
                (!sup.dead[idx]).then(|| match child {
                    Some(c) => dispatch_epoch(c, idx, lane, at, 0, kill, &sup.cfg),
                    None => Err(LaneFault::PipeEof),
                })
            })
            .collect();
        let deadline = deadline(&sup.cfg);
        sent.into_iter()
            .zip(&mut self.children)
            .map(|(sent, child)| {
                let Some(sent) = sent else { return Ok(None) };
                Ok(Some(match (sent, child) {
                    (Err(f), _) => Err(f),
                    (Ok(()), Some(c)) => read_epoch_reply(c, deadline)?,
                    (Ok(()), None) => Err(LaneFault::PipeEof),
                }))
            })
            .collect()
    }

    fn rerun(
        &mut self,
        _factory: &dyn ExecutorFactory,
        idx: usize,
        lane: &Lane,
        barrier: &LaneBarrier,
        at: (u64, u64),
        attempt: u32,
        sup: &mut Supervisor,
    ) -> Result<Attempt, CampaignError> {
        let (mut child, _) = match self.respawn(idx, lane, barrier, sup)? {
            Ok(pair) => pair,
            Err(fault) => return Ok(Err(fault)),
        };
        // The respawned child restored the barrier's export in its
        // handshake, so the lane's carried state is all it needs.
        let reply = match dispatch_epoch(&mut child, idx, lane, at, attempt, None, &sup.cfg) {
            Err(f) => Err(f),
            Ok(()) => read_epoch_reply(&mut child, deadline(&sup.cfg))?,
        };
        self.children[idx] = Some(child);
        Ok(reply)
    }

    /// One final respawn gives the report a sane restored instance to read
    /// from; then the worker is shut down for good. If even that respawn
    /// faults, the last report seen stands.
    fn retire(
        &mut self,
        _factory: &dyn ExecutorFactory,
        idx: usize,
        lane: &Lane,
        barrier: &LaneBarrier,
        sup: &mut Supervisor,
    ) -> Result<Option<ResilienceReport>, CampaignError> {
        match self.respawn(idx, lane, barrier, sup)? {
            Ok((mut child, ack)) => {
                let _ = child.send(K_SHUTDOWN, &[]);
                Ok(Some(ack.report))
            }
            Err(fault) => {
                sup.counters.record(&fault);
                Ok(None)
            }
        }
    }

    /// Graceful shutdown; the `Drop` kill is the backstop.
    fn shutdown(&mut self) {
        for child in &mut self.children {
            if let Some(c) = child.as_mut() {
                let _ = c.send(K_SHUTDOWN, &[]);
            }
            *child = None;
        }
    }
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
