//! Lane supervision: fault containment, hang deadlines, and deterministic
//! recovery for the sharded campaign.
//!
//! PR 1 taught a *single executor* to notice and survive state corruption;
//! the sharded orchestrator reintroduced an all-or-nothing failure mode one
//! level up — a panicking or wedged lane worker used to abort the whole
//! campaign. This module is the missing supervision layer:
//!
//! * **Containment** — every lane body runs under `catch_unwind`, so a
//!   panic is a typed [`LaneFault`], not a process abort. A lane that
//!   stops making *simulated-clock* progress for
//!   [`SupervisorConfig::hang_deadline_ticks`] consecutive steps is
//!   declared hung — the deadline is counted on the deterministic clock,
//!   not wall time, so detection replays identically.
//! * **Recovery** — the faulted lane's executor is rebuilt from the
//!   campaign's [`ExecutorFactory`](closurex::executor::ExecutorFactory),
//!   restored from the last epoch-barrier snapshot (the same
//!   `export_state`/`restore_state` machinery checkpoint resume uses), and
//!   the epoch is re-executed. Because a lane's schedule is a pure
//!   function of its barrier state, the recovered campaign's
//!   [`CampaignResult`](crate::CampaignResult) is bit-identical to an
//!   unfaulted run — modulo the [`SupervisionCounters`] that report the
//!   recovery itself.
//! * **Degradation** — a lane that keeps failing past
//!   [`SupervisorConfig::max_lane_retries`] rebuilds is retired: its
//!   remaining cycle budget is folded into its live siblings at the
//!   barrier and a typed [`LaneDegradation`] is reported. Never a silent
//!   drop — this mirrors the executor-level persistent→fork-per-exec
//!   ladder one level up.
//!
//! Fault injection for all three paths lives in
//! [`vmos::fault::OrchFaultPlan`]: seeded worker panics, lane hangs, and
//! barrier-timeout faults, keyed by `(lane, epoch, attempt)` position so
//! injection cannot depend on worker-thread scheduling.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use serde::{Deserialize, Serialize};
use vmos::{wire_struct, OrchFaultPlan, ProcFaultPlan};

/// Marker embedded in injected panic payloads (diagnostics only — the
/// supervisor treats injected and organic panics identically).
pub(crate) const INJECTED_PANIC_MARKER: &str = "[injected-lane-fault]";

/// How the supervisor watches and recovers lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Rebuild-and-retry attempts per `(lane, epoch)` after the initial
    /// failure before the lane is degraded out.
    pub max_lane_retries: u32,
    /// Consecutive zero-progress lane steps (simulated clock unchanged)
    /// before the lane is declared hung. Counted deterministically, so a
    /// hang is detected at the same point in every replay.
    pub hang_deadline_ticks: u64,
    /// Orchestration-layer fault injection plan (default: none).
    pub faults: OrchFaultPlan,
    /// Process-layer fault injection plan, honored only by
    /// `Isolation::Process` campaigns (default: none). In-process
    /// campaigns ignore it — there is no process to kill.
    pub proc_faults: ProcFaultPlan,
    /// Wall-clock milliseconds the supervisor waits for a worker frame
    /// before declaring the worker stalled, killing, and respawning it.
    /// Unlike [`SupervisorConfig::hang_deadline_ticks`] this is real time:
    /// a wedged *process* makes no simulated-clock progress the parent
    /// could observe. Recovery stays deterministic because the re-run is,
    /// whatever the wall-clock moment the deadline fired.
    pub read_deadline_ms: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_lane_retries: 2,
            hang_deadline_ticks: 2048,
            faults: OrchFaultPlan::none(),
            proc_faults: ProcFaultPlan::none(),
            read_deadline_ms: 10_000,
        }
    }
}

/// What went wrong with one lane-epoch attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneFault {
    /// The lane body panicked; the payload is carried for the report.
    Panic(String),
    /// The lane stopped making simulated-clock progress past the deadline.
    Hang,
    /// The lane finished its epoch but the barrier handoff was lost.
    BarrierTimeout,
    /// The lane's worker process died to a signal (SIGKILL, SIGABRT, …).
    Signal(i32),
    /// The lane's worker process exited with a nonzero status mid-epoch
    /// (e.g. the conventional OOM-kill status 137).
    Exit(i32),
    /// The worker's pipe closed without a status — the process vanished.
    PipeEof,
    /// The worker sent a frame that failed checksum/framing validation;
    /// its state is untrusted and the process is replaced.
    FrameCorrupt,
    /// The worker missed the supervisor's wall-clock read deadline and
    /// was killed.
    Deadline,
}

impl LaneFault {
    /// Stable short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LaneFault::Panic(_) => "panic",
            LaneFault::Hang => "hang",
            LaneFault::BarrierTimeout => "barrier_timeout",
            LaneFault::Signal(_) => "signal",
            LaneFault::Exit(_) => "exit",
            LaneFault::PipeEof => "pipe_eof",
            LaneFault::FrameCorrupt => "frame_corrupt",
            LaneFault::Deadline => "deadline",
        }
    }
}

impl std::fmt::Display for LaneFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneFault::Panic(msg) => write!(f, "panic: {msg}"),
            LaneFault::Hang => write!(f, "hang past the heartbeat deadline"),
            LaneFault::BarrierTimeout => write!(f, "barrier handoff timed out"),
            LaneFault::Signal(sig) => write!(f, "worker killed by signal {sig}"),
            LaneFault::Exit(code) => write!(f, "worker exited with status {code}"),
            LaneFault::PipeEof => write!(f, "worker pipe closed unexpectedly"),
            LaneFault::FrameCorrupt => write!(f, "worker sent a corrupt frame"),
            LaneFault::Deadline => write!(f, "worker missed the read deadline"),
        }
    }
}

/// A lane retired after exhausting its retry budget. Typed and reported —
/// the campaign result carries every degradation, never a silent drop.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneDegradation {
    /// Which lane was retired.
    pub lane: u64,
    /// The epoch whose repeated failures exhausted the retry budget.
    pub epoch: u64,
    /// Total failed attempts (initial + rebuilds) before retirement.
    pub attempts: u64,
    /// Unspent lane budget folded into the live siblings at the barrier.
    pub reclaimed_cycles: u64,
    /// Short name of the last fault observed (`panic`, `hang`,
    /// `barrier_timeout`).
    pub last_fault: String,
}

wire_struct!(LaneDegradation {
    lane,
    epoch,
    attempts,
    reclaimed_cycles,
    last_fault,
});

/// Supervision accounting surfaced through
/// [`ResilienceCounters`](crate::ResilienceCounters). These describe the
/// *recovery process*, not the campaign's fuzzing outcome: a recovered run
/// matches its unfaulted twin everywhere except this block.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionCounters {
    /// Lane-epoch attempts that ended in a contained panic.
    pub lane_panics: u64,
    /// Lane-epoch attempts caught by the hang deadline.
    pub lane_hangs: u64,
    /// Lane-epoch attempts whose barrier handoff was lost.
    pub barrier_timeouts: u64,
    /// Executors rebuilt from the factory during recovery.
    pub lane_rebuilds: u64,
    /// Lane-epochs successfully re-executed from their barrier snapshot.
    pub recovered: u64,
    /// Worker processes that died to a signal (process isolation only).
    pub worker_signals: u64,
    /// Worker processes that exited nonzero mid-epoch.
    pub worker_exits: u64,
    /// Worker pipes that closed without a status.
    pub pipe_eofs: u64,
    /// Corrupt frames received from workers.
    pub frame_corruptions: u64,
    /// Workers killed for missing the wall-clock read deadline.
    pub deadline_kills: u64,
    /// Per-lane worker respawn counts (`lane_respawns[i]` = times lane
    /// `i`'s process was replaced). Empty for in-process campaigns.
    pub lane_respawns: Vec<u64>,
    /// Lanes retired after exhausting their retry budget.
    pub degradations: Vec<LaneDegradation>,
}

wire_struct!(SupervisionCounters {
    lane_panics,
    lane_hangs,
    barrier_timeouts,
    lane_rebuilds,
    recovered,
    worker_signals,
    worker_exits,
    pipe_eofs,
    frame_corruptions,
    deadline_kills,
    lane_respawns,
    degradations,
});

impl SupervisionCounters {
    /// Tally one observed fault.
    pub(crate) fn record(&mut self, fault: &LaneFault) {
        match fault {
            LaneFault::Panic(_) => self.lane_panics += 1,
            LaneFault::Hang => self.lane_hangs += 1,
            LaneFault::BarrierTimeout => self.barrier_timeouts += 1,
            LaneFault::Signal(_) => self.worker_signals += 1,
            LaneFault::Exit(_) => self.worker_exits += 1,
            LaneFault::PipeEof => self.pipe_eofs += 1,
            LaneFault::FrameCorrupt => self.frame_corruptions += 1,
            LaneFault::Deadline => self.deadline_kills += 1,
        }
    }

    /// Tally one worker-process respawn for `lane`.
    pub(crate) fn record_respawn(&mut self, lane: usize) {
        if self.lane_respawns.len() <= lane {
            self.lane_respawns.resize(lane + 1, 0);
        }
        self.lane_respawns[lane] += 1;
    }

    /// Total faults contained (each was an abort before supervision).
    pub fn faults_contained(&self) -> u64 {
        self.lane_panics
            + self.lane_hangs
            + self.barrier_timeouts
            + self.worker_signals
            + self.worker_exits
            + self.pipe_eofs
            + self.frame_corruptions
            + self.deadline_kills
    }

    /// Did the supervisor do anything at all?
    pub fn is_quiet(&self) -> bool {
        self.faults_contained() == 0
            && self.lane_rebuilds == 0
            && self.lane_respawns.iter().all(|&n| n == 0)
            && self.degradations.is_empty()
    }

    /// Fold another campaign's (or lane set's) counters into this one.
    pub fn absorb(&mut self, other: &SupervisionCounters) {
        self.lane_panics += other.lane_panics;
        self.lane_hangs += other.lane_hangs;
        self.barrier_timeouts += other.barrier_timeouts;
        self.lane_rebuilds += other.lane_rebuilds;
        self.recovered += other.recovered;
        self.worker_signals += other.worker_signals;
        self.worker_exits += other.worker_exits;
        self.pipe_eofs += other.pipe_eofs;
        self.frame_corruptions += other.frame_corruptions;
        self.deadline_kills += other.deadline_kills;
        if self.lane_respawns.len() < other.lane_respawns.len() {
            self.lane_respawns.resize(other.lane_respawns.len(), 0);
        }
        for (mine, theirs) in self.lane_respawns.iter_mut().zip(&other.lane_respawns) {
            *mine += theirs;
        }
        self.degradations.extend(other.degradations.iter().cloned());
    }
}

/// The supervisor the sharded epoch loop threads through a campaign:
/// configuration, accumulated counters, and which lanes have been retired.
pub(crate) struct Supervisor {
    pub(crate) cfg: SupervisorConfig,
    pub(crate) counters: SupervisionCounters,
    /// `dead[i]` — lane `i` was degraded out and no longer runs epochs.
    pub(crate) dead: Vec<bool>,
}

impl Supervisor {
    pub(crate) fn new(cfg: SupervisorConfig, lanes: usize) -> Self {
        Supervisor {
            cfg,
            counters: SupervisionCounters::default(),
            dead: vec![false; lanes],
        }
    }

    /// Lanes still running epochs.
    pub(crate) fn live(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }
}

thread_local! {
    /// Set while this thread is inside a supervised lane body, so the
    /// panic hook stays quiet about panics the supervisor will contain.
    static IN_SUPERVISED_LANE: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// backtrace noise for panics raised inside supervised lane bodies — they
/// are caught, typed, and reported through [`SupervisionCounters`], so the
/// stderr dump would only be noise. Panics anywhere else chain to the
/// previously installed hook unchanged.
pub(crate) fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_SUPERVISED_LANE.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Run a lane body with panic containment: a panic becomes
/// `Err(payload-as-string)` instead of unwinding into the worker pool.
pub(crate) fn contain<T>(body: impl FnOnce() -> T) -> Result<T, String> {
    IN_SUPERVISED_LANE.with(|flag| flag.set(true));
    let out = catch_unwind(AssertUnwindSafe(body));
    IN_SUPERVISED_LANE.with(|flag| flag.set(false));
    out.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contain_returns_value_or_payload() {
        install_quiet_panic_hook();
        assert_eq!(contain(|| 41 + 1), Ok(42));
        let err = contain(|| -> u32 { panic!("{INJECTED_PANIC_MARKER} boom") }).unwrap_err();
        assert!(err.contains("boom"));
        // The thread-local flag is cleared again: a later panic would be
        // loud (we can only assert the flag here, not stderr).
        assert!(!IN_SUPERVISED_LANE.with(Cell::get));
    }

    #[test]
    fn counters_record_and_absorb() {
        let mut a = SupervisionCounters::default();
        assert!(a.is_quiet());
        a.record(&LaneFault::Panic("x".into()));
        a.record(&LaneFault::Hang);
        a.record(&LaneFault::BarrierTimeout);
        a.lane_rebuilds = 2;
        a.recovered = 1;
        let mut b = SupervisionCounters::default();
        b.degradations.push(LaneDegradation {
            lane: 3,
            epoch: 1,
            attempts: 4,
            reclaimed_cycles: 1000,
            last_fault: "hang".into(),
        });
        b.absorb(&a);
        assert_eq!(b.faults_contained(), 3);
        assert_eq!(b.lane_rebuilds, 2);
        assert_eq!(b.recovered, 1);
        assert_eq!(b.degradations.len(), 1);
        assert!(!b.is_quiet());
    }

    #[test]
    fn fault_names_are_stable() {
        assert_eq!(LaneFault::Panic(String::new()).name(), "panic");
        assert_eq!(LaneFault::Hang.name(), "hang");
        assert_eq!(LaneFault::BarrierTimeout.name(), "barrier_timeout");
        assert_eq!(LaneFault::Signal(9).name(), "signal");
        assert_eq!(LaneFault::Exit(137).name(), "exit");
        assert_eq!(LaneFault::PipeEof.name(), "pipe_eof");
        assert_eq!(LaneFault::FrameCorrupt.name(), "frame_corrupt");
        assert_eq!(LaneFault::Deadline.name(), "deadline");
        assert_eq!(
            format!("{}", LaneFault::Hang),
            "hang past the heartbeat deadline"
        );
        assert_eq!(
            format!("{}", LaneFault::Signal(9)),
            "worker killed by signal 9"
        );
    }

    #[test]
    fn process_faults_count_and_respawns_tally() {
        let mut c = SupervisionCounters::default();
        for f in [
            LaneFault::Signal(9),
            LaneFault::Exit(137),
            LaneFault::PipeEof,
            LaneFault::FrameCorrupt,
            LaneFault::Deadline,
        ] {
            c.record(&f);
        }
        assert_eq!(c.faults_contained(), 5);
        assert!(!c.is_quiet());
        c.record_respawn(2);
        c.record_respawn(2);
        c.record_respawn(0);
        assert_eq!(c.lane_respawns, vec![1, 0, 2]);
        let mut sum = SupervisionCounters::default();
        sum.absorb(&c);
        sum.absorb(&c);
        assert_eq!(sum.lane_respawns, vec![2, 0, 4]);
        assert_eq!(sum.deadline_kills, 2);
        let quiet = SupervisionCounters {
            lane_respawns: vec![0, 0],
            ..SupervisionCounters::default()
        };
        assert!(quiet.is_quiet(), "zero respawn entries stay quiet");
    }

    #[test]
    fn supervisor_tracks_live_lanes() {
        let mut s = Supervisor::new(SupervisorConfig::default(), 4);
        assert_eq!(s.live(), 4);
        s.dead[1] = true;
        s.dead[3] = true;
        assert_eq!(s.live(), 2);
    }
}
