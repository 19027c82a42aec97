//! Multi-worker campaign sharding with a deterministic merge protocol.
//!
//! A sharded campaign partitions the work of one logical campaign across
//! **lanes** — independent mini-campaigns, each with its own executor
//! instance (built from a [`closurex::executor::ExecutorFactory`]), its own
//! lane-seeded RNG streams, a round-robin slice of the seed corpus, and an
//! equal slice of the cycle budget. Lanes run concurrently on a pool of
//! **worker** threads and synchronize at a fixed number of **sync epochs**:
//! barriers where the coordinator merges every lane's discoveries into one
//! global campaign state and hands the merged state back to every lane.
//!
//! # Why lanes ≠ workers
//!
//! The unit of determinism is the *lane*, not the thread. A campaign's
//! behavior is a pure function of `(config, seeds, lanes, sync_epochs)`;
//! the worker count only decides how many lanes run at once. That is what
//! makes `shards=4` reproduce `shards=1` **bit-for-bit** — same coverage
//! hash, same queue inputs, same crash records — on the same budget split:
//! both execute the identical lane decomposition, and the merge below is
//! insensitive to lane completion order.
//!
//! # The merge protocol
//!
//! At each barrier, lanes are folded in canonical lane order:
//!
//! * **Coverage** — the global virgin map is the commutative OR-union of
//!   the lanes' maps ([`VirginMap::union_tracked`]); union order cannot
//!   change the result.
//! * **Queue** — each lane's entries discovered this epoch are collected,
//!   sorted favored-first (brand-new edge beats new-bucket) with ties
//!   broken by `(lane, discovery order)`, deduplicated by exact input
//!   bytes, and appended to the global queue. Existing entries' `det_done`
//!   flags are OR-ed across lanes.
//! * **Crashes** — deduplicated by site; the canonical first-discovery
//!   record is the earliest in `(epoch, lane)` order, and per-site hit
//!   counts are summed across lanes.
//! * **Cycle accounting** — execs, clock, hangs, and management/execution
//!   cycles are summed per lane at the end ([`CampaignResult`] assembly).
//!
//! After the merge every lane receives the merged queue/coverage/crash
//! state; a lane mid-`Det`/`Havoc` batch is bounced back to `Pick` (its
//! entry index is stale against the merged queue — deterministically so,
//! because barriers land at the same per-lane clock regardless of worker
//! count).
//!
//! # Sharded checkpointing
//!
//! With a [`CheckpointConfig`], barriers are the campaign's only
//! durability points. `shard-ckpt-{epoch:06}.bin` (six digits or more)
//! holds the merged queue, virgin map and crash records once, plus every
//! lane's scalars and exported executor state, sealed under the same
//! fingerprint-carrying header as single-driver snapshots with a format
//! version of its own (`SHARD_FORMAT_VERSION`). The files are the
//! sharded layout of the one snapshot store in [`crate::checkpoint`],
//! which also rotates, sweeps and scrubs them. Lanes write nothing
//! between barriers, and `CheckpointConfig::snapshot_every_execs` is
//! ignored: the epoch barrier is the snapshot cadence.
//!
//! Resume loads the newest valid shard snapshot, rebuilds every lane from
//! the factory, restores each lane's executor state and re-runs the
//! interrupted epoch. An execution is a pure function of its input and the
//! restored state, so the re-run recomputes the lost work bit-for-bit —
//! the same argument supervised recovery rests on. A kill costs at most
//! one epoch of recomputation.

use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use closurex::checkpoint::ExecutorState;
use closurex::executor::{Executor, ExecutorFactory};
use closurex::resilience::ResilienceReport;
use vmos::cov::VirginMap;
use vmos::wire::{fnv1a, Nested};
use vmos::{wire_struct, OrchFaultKind, OrchFaultPlan, Wire, WireError};

use crate::builder::{CampaignError, Isolation};
use crate::campaign::{CampaignConfig, Driver, Stage, StepOutcome};
use crate::checkpoint::{
    check_target, sealed_writer, storage_for, CampaignOutcome, CheckpointConfig, CheckpointError,
    ResumeReport, Scalars, SnapshotState, SHARDED,
};
use crate::proc::ProcRunner;
use crate::queue::QueueEntry;
use crate::stats::{CampaignResult, CrashRecord, ResilienceCounters};
use crate::storage::{OpOutcome, Storage};
use crate::supervise::{
    self, LaneDegradation, LaneFault, Supervisor, SupervisorConfig, INJECTED_PANIC_MARKER,
};

/// Default lane count: the campaign decomposes into this many independent
/// mini-campaigns unless [`crate::Campaign::lanes`] overrides it.
pub const DEFAULT_LANES: usize = 4;

/// Default number of merge barriers per campaign.
pub const DEFAULT_SYNC_EPOCHS: u64 = 8;

/// How a sharded campaign decomposes and runs.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    /// Logical lanes (determinism unit).
    pub(crate) lanes: usize,
    /// Worker threads (throughput knob; never affects results).
    pub(crate) workers: usize,
    /// Merge barriers across the budget.
    pub(crate) sync_epochs: u64,
    /// Where the lanes run (never affects results either).
    pub(crate) isolation: Isolation,
}

/// Mix a lane index into the campaign seed (splitmix64 finalizer), so each
/// lane draws an independent mutation schedule while staying a pure
/// function of `(seed, lane)`.
fn lane_seed(seed: u64, lane: usize) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A lane's campaign config: an equal slice of the budget (the first
/// `budget % lanes` lanes carry the remainder cycle each), a lane-mixed
/// seed, and early-stop disabled — `stop_after_crashes` is a *global*
/// predicate, checked against the merged crash list at barriers.
pub(crate) fn lane_config(cfg: &CampaignConfig, lane: usize, lanes: usize) -> CampaignConfig {
    let mut c = cfg.clone();
    let n = lanes as u64;
    c.budget_cycles = cfg.budget_cycles / n + u64::from((lane as u64) < cfg.budget_cycles % n);
    c.seed = lane_seed(cfg.seed, lane);
    c.stop_after_crashes = 0;
    c
}

/// Lane `lane`'s round-robin slice of the seed corpus.
pub(crate) fn lane_seeds(seeds: &[Vec<u8>], lane: usize, lanes: usize) -> Vec<Vec<u8>> {
    seeds
        .iter()
        .enumerate()
        .filter(|(j, _)| j % lanes == lane)
        .map(|(_, s)| s.clone())
        .collect()
}

/// The lane clock at which epoch `epoch` (of `epochs`) ends. The final
/// epoch runs to the exact lane budget.
fn epoch_limit(budget: u64, epoch: u64, epochs: u64) -> u64 {
    if epoch + 1 >= epochs {
        budget
    } else {
        ((u128::from(budget) * u128::from(epoch + 1)) / u128::from(epochs)) as u64
    }
}

/// One lane as the session keeps it, wherever it runs: its config (a
/// retired sibling's unspent cycles grow its budget), its seed slice, and
/// its state at the last barrier, merged collections included. The
/// executor export is not here: it is the lane's share of the barrier,
/// in [`LaneBarrier`].
pub(crate) struct Lane {
    pub(crate) cfg: CampaignConfig,
    pub(crate) seeds: Vec<Vec<u8>>,
    pub(crate) state: SnapshotState,
}

/// One lane's share of a barrier: its scalars and its executor state,
/// exported once. The merged collections are the same for every lane
/// after a merge, so they live once, in [`Global`]. A barrier is both
/// what the shard snapshot seals and the point a faulted lane of the
/// following epoch is recovered from.
#[derive(Debug)]
pub(crate) struct LaneBarrier {
    pub(crate) scalars: Scalars,
    pub(crate) exec_state: Option<ExecutorState>,
}

wire_struct!(LaneBarrier {
    scalars,
    exec_state
});

impl LaneBarrier {
    /// The lane's full barrier state, collections from `global`, executor
    /// export left out.
    pub(crate) fn state(&self, global: &Global) -> SnapshotState {
        SnapshotState {
            scalars: self.scalars.clone(),
            entries: global.entries.clone(),
            virgin: global.virgin.clone(),
            crashes: global.crashes.clone(),
            exec_state: None,
        }
    }
}

/// One lane's epoch as a runner hands it back: the lane's state at the
/// barrier, its executor export included, and the executor's lifetime
/// resilience report. A process worker sends it whole as its barrier
/// frame (`proc::BarrierMsg`).
pub(crate) struct LaneRun {
    /// The kill hook stopped the lane short of its epoch limit.
    pub(crate) killed: bool,
    pub(crate) state: SnapshotState,
    pub(crate) report: ResilienceReport,
}

wire_struct!(LaneRun {
    killed,
    state as Nested,
    report,
});

/// One lane-epoch attempt: the lane's barrier, or the fault that ended it.
pub(crate) type Attempt = Result<LaneRun, LaneFault>;

/// What a runner reports for each lane it builds: the executor's name,
/// target fingerprint (0 when it pins none) and resilience report, and
/// its exported state — a fresh lane's share of the first barrier. A
/// process worker sends it as its handshake answer (`proc::Ack`).
pub(crate) struct LaneStart {
    pub(crate) executor: String,
    pub(crate) fingerprint: u64,
    pub(crate) report: ResilienceReport,
    pub(crate) exec_state: Option<ExecutorState>,
}

wire_struct!(LaneStart {
    executor,
    fingerprint,
    report,
    exec_state,
});

/// The executor pair one lane runs on.
pub(crate) struct LaneExecutors {
    pub(crate) executor: Box<dyn Executor + Send>,
    pub(crate) revalidator: Option<Box<dyn Executor + Send>>,
}

impl LaneExecutors {
    /// A fresh pair from the factory, the executor restored to
    /// `exec_state` when given.
    fn build(
        factory: &dyn ExecutorFactory,
        exec_state: Option<&ExecutorState>,
    ) -> Result<Self, CampaignError> {
        let mut executor = factory.build().map_err(CampaignError::Build)?;
        if let Some(es) = exec_state {
            executor
                .restore_state(es)
                .map_err(|e| CampaignError::Checkpoint(CheckpointError::Executor(e)))?;
        }
        let revalidator = factory.build_revalidator().map_err(CampaignError::Build)?;
        Ok(LaneExecutors {
            executor,
            revalidator,
        })
    }

    pub(crate) fn start(&self) -> LaneStart {
        LaneStart {
            executor: self.executor.name().to_string(),
            fingerprint: self.executor.module_fingerprint().unwrap_or(0),
            report: self.executor.resilience(),
            exec_state: self.executor.export_state(),
        }
    }
}

/// The simulated-SIGKILL hook as lanes in one process share it: an exec
/// counter across those lanes, tripping a stop flag every lane polls.
pub(crate) struct KillSwitch {
    limit: u64,
    execs: AtomicU64,
    stop: AtomicBool,
}

impl KillSwitch {
    pub(crate) fn new(limit: u64, already_executed: u64) -> Self {
        KillSwitch {
            limit,
            execs: AtomicU64::new(already_executed),
            stop: AtomicBool::new(false),
        }
    }

    /// Count one execution; returns `true` once the campaign must stop
    /// (the kill may overshoot `limit` by in-flight lanes — resume is
    /// kill-point agnostic, so that is harmless).
    pub(crate) fn record_exec(&self) -> bool {
        if self.execs.fetch_add(1, Ordering::SeqCst) + 1 >= self.limit {
            self.stop.store(true, Ordering::SeqCst);
        }
        self.stopped()
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Supervision context for one lane-epoch attempt: which lane this is,
/// which retry attempt, and how the supervisor watches it.
pub(crate) struct LaneAttempt<'p> {
    pub(crate) lane: u64,
    pub(crate) attempt: u32,
    pub(crate) faults: &'p OrchFaultPlan,
    pub(crate) hang_deadline: u64,
}

impl<'p> LaneAttempt<'p> {
    fn new(sup: &'p SupervisorConfig, lane: usize, attempt: u32) -> Self {
        LaneAttempt {
            lane: lane as u64,
            attempt,
            faults: &sup.faults,
            hang_deadline: sup.hang_deadline_ticks,
        }
    }
}

/// Run one lane from its carried state to the epoch's clock limit.
///
/// Supervised: the orchestration fault plan may decide this attempt fails
/// (an injected panic unwinds out of here and is contained by the caller;
/// an injected wedge stops stepping so the real hang detector trips), and
/// the deterministic heartbeat declares a [`LaneFault::Hang`] after
/// `hang_deadline` consecutive steps without simulated-clock progress.
/// Detection charges **zero simulated cycles** — like checkpoint I/O, the
/// supervisor lives outside the simulated clock, which is what keeps a
/// recovered campaign bit-identical to an unfaulted one.
pub(crate) fn run_lane_epoch(
    ex: &mut LaneExecutors,
    lane: &Lane,
    epoch: u64,
    epochs: u64,
    kill: Option<&KillSwitch>,
    watch: &LaneAttempt<'_>,
) -> Result<Attempt, CheckpointError> {
    let limit = epoch_limit(lane.cfg.budget_cycles, epoch, epochs);
    let injected = watch.faults.decide((watch.lane, epoch), watch.attempt);
    // Where in the epoch an injected panic/wedge lands (deterministic in
    // the plan and the position; short epochs fire at the barrier below).
    let trip_after = watch.faults.aux_bits((watch.lane, epoch), watch.attempt) % 16;
    let revalidator = ex
        .revalidator
        .as_deref_mut()
        .map(|r| r as &mut dyn Executor);
    let mut d = Driver::new(ex.executor.as_mut(), revalidator, &lane.seeds, &lane.cfg);
    lane.state.clone().apply(&mut d)?;
    let mut steps: u64 = 0;
    let mut stalled: u64 = 0;
    let mut killed = false;
    while d.clock < limit {
        if kill.is_some_and(|k| k.stopped()) {
            killed = true;
            break;
        }
        if injected == Some(OrchFaultKind::WorkerPanic) && steps >= trip_after {
            panic!(
                "{INJECTED_PANIC_MARKER} injected worker panic (lane {}, epoch {epoch}, \
                 attempt {})",
                watch.lane, watch.attempt
            );
        }
        let wedged = injected == Some(OrchFaultKind::LaneHang) && steps >= trip_after;
        let progressed = if wedged {
            // The injected hang stops the lane's simulated clock; the
            // *real* deadline logic below is what declares the fault.
            false
        } else {
            let before = d.clock;
            if d.step() == StepOutcome::Finished {
                break;
            }
            steps += 1;
            if kill.is_some_and(|k| k.record_exec()) {
                killed = true;
                break;
            }
            d.clock > before
        };
        if progressed {
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= watch.hang_deadline {
                return Ok(Err(LaneFault::Hang));
            }
        }
    }
    // A killed lane reports where it stopped: the campaign is stopping
    // wholesale and the supervisor has nothing left to recover. An epoch
    // shorter than the in-loop trigger point still fails: the fault fires
    // at the barrier handoff instead.
    match injected.filter(|_| !killed) {
        Some(OrchFaultKind::WorkerPanic) => panic!(
            "{INJECTED_PANIC_MARKER} injected worker panic at the barrier (lane {}, \
             epoch {epoch}, attempt {})",
            watch.lane, watch.attempt
        ),
        Some(OrchFaultKind::LaneHang) => Ok(Err(LaneFault::Hang)),
        Some(OrchFaultKind::BarrierTimeout) => Ok(Err(LaneFault::BarrierTimeout)),
        None => {
            let state = SnapshotState::capture(&d);
            Ok(Ok(LaneRun {
                killed,
                state,
                report: ex.executor.resilience(),
            }))
        }
    }
}

/// [`run_lane_epoch`] contained: a panic, injected or organic, comes back
/// as [`LaneFault::Panic`].
pub(crate) fn run_lane_contained(
    ex: &mut LaneExecutors,
    lane: &Lane,
    epoch: u64,
    epochs: u64,
    kill: Option<&KillSwitch>,
    watch: &LaneAttempt<'_>,
) -> Result<Attempt, CheckpointError> {
    supervise::contain(|| run_lane_epoch(ex, lane, epoch, epochs, kill, watch))
        .unwrap_or_else(|payload| Ok(Err(LaneFault::Panic(payload))))
}

/// Where a session's lanes run, chosen by [`Isolation`]: on worker
/// threads in this process ([`ThreadRunner`]) or in worker processes
/// ([`ProcRunner`]). A runner answers four questions. The epoch order,
/// the recovery ladder, the merge, the snapshots and the kill decision
/// all belong to [`EpochSession`].
pub(crate) trait LaneRunner: Send {
    /// Run epoch `at.0` (of `at.1`) on every live lane from its carried
    /// state, the kill hook armed at `(limit, base)` when given. Returns
    /// one slot per lane: `None` for a retired lane, else its barrier or
    /// its fault.
    fn run_epoch(
        &mut self,
        lanes: &[Lane],
        at: (u64, u64),
        kill: Option<(u64, u64)>,
        sup: &Supervisor,
    ) -> Result<Vec<Option<Attempt>>, CampaignError>;

    /// Rebuild lane `idx` at `barrier` and re-run epoch `at` as retry
    /// `attempt`, with no kill hook: the session decided whether the
    /// epoch was killed after its first run.
    #[allow(clippy::too_many_arguments)]
    fn rerun(
        &mut self,
        factory: &dyn ExecutorFactory,
        idx: usize,
        lane: &Lane,
        barrier: &LaneBarrier,
        at: (u64, u64),
        attempt: u32,
        sup: &mut Supervisor,
    ) -> Result<Attempt, CampaignError>;

    /// A retired lane's final resilience report, read from an instance
    /// rebuilt at `barrier`; `None` keeps the last report seen.
    fn retire(
        &mut self,
        factory: &dyn ExecutorFactory,
        idx: usize,
        lane: &Lane,
        barrier: &LaneBarrier,
        sup: &mut Supervisor,
    ) -> Result<Option<ResilienceReport>, CampaignError>;

    /// Stop every lane.
    fn shutdown(&mut self);
}

/// Lanes on a pool of worker threads in this process
/// ([`Isolation::InProcess`]), each with its own executor pair.
struct ThreadRunner {
    executors: Vec<LaneExecutors>,
    /// Worker threads (throughput knob; never affects results).
    workers: usize,
}

impl ThreadRunner {
    /// Build `lanes` executor pairs, restored to `barrier`'s exports on a
    /// resume.
    fn build(
        factory: &dyn ExecutorFactory,
        lanes: usize,
        barrier: Option<&[LaneBarrier]>,
        workers: usize,
    ) -> Result<(Self, Vec<LaneStart>), CampaignError> {
        let executors = (0..lanes)
            .map(|i| {
                let restore = barrier.and_then(|b| b[i].exec_state.as_ref());
                LaneExecutors::build(factory, restore)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let starts = executors.iter().map(LaneExecutors::start).collect();
        Ok((ThreadRunner { executors, workers }, starts))
    }
}

impl LaneRunner for ThreadRunner {
    /// Lane-to-worker assignment is a throughput detail: every lane runs
    /// its own deterministic schedule and the session merges in lane
    /// order, so results cannot depend on it. The lanes share one kill
    /// counter.
    fn run_epoch(
        &mut self,
        lanes: &[Lane],
        (epoch, epochs): (u64, u64),
        kill: Option<(u64, u64)>,
        sup: &Supervisor,
    ) -> Result<Vec<Option<Attempt>>, CampaignError> {
        supervise::install_quiet_panic_hook();
        let reference = vmos::reference_engine();
        let workers = self.workers.clamp(1, lanes.len().max(1));
        let chunk = lanes.len().div_ceil(workers).max(1);
        let kill = kill.map(|(limit, base)| KillSwitch::new(limit, base));
        let kill = kill.as_ref();
        let mut collected = Vec::with_capacity(lanes.len());
        let mut worker_lost = false;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .executors
                .chunks_mut(chunk)
                .zip(lanes.chunks(chunk))
                .enumerate()
                .map(|(ci, (executors, lanes))| {
                    s.spawn(move || {
                        // Worker threads inherit the coordinator's engine
                        // choice.
                        vmos::set_reference_engine(reference);
                        let first = ci * chunk;
                        executors
                            .iter_mut()
                            .zip(lanes)
                            .enumerate()
                            .map(|(off, (ex, lane))| {
                                let idx = first + off;
                                if sup.dead[idx] {
                                    return Ok(None);
                                }
                                let watch = LaneAttempt::new(&sup.cfg, idx, 0);
                                run_lane_contained(ex, lane, epoch, epochs, kill, &watch).map(Some)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(rs) => collected.extend(rs),
                    Err(_) => worker_lost = true,
                }
            }
        });
        if worker_lost {
            // Containment failed in a way `catch_unwind` could not see (e.g.
            // a non-unwinding abort in the pool plumbing itself): typed, not
            // an `expect` abort.
            return Err(CampaignError::WorkerLost(
                "a lane worker thread died outside supervised execution",
            ));
        }
        collected
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(CampaignError::Checkpoint)
    }

    /// Re-runs happen on the coordinator thread: they are rare, and lane
    /// order keeps them deterministic. The rebuilt executor reuses the
    /// `export_state`/`restore_state` contract checkpoint resume is built
    /// on.
    fn rerun(
        &mut self,
        factory: &dyn ExecutorFactory,
        idx: usize,
        lane: &Lane,
        barrier: &LaneBarrier,
        (epoch, epochs): (u64, u64),
        attempt: u32,
        sup: &mut Supervisor,
    ) -> Result<Attempt, CampaignError> {
        let ex = &mut self.executors[idx];
        *ex = LaneExecutors::build(factory, barrier.exec_state.as_ref())?;
        let watch = LaneAttempt::new(&sup.cfg, idx, attempt);
        run_lane_contained(ex, lane, epoch, epochs, None, &watch).map_err(CampaignError::Checkpoint)
    }

    fn retire(
        &mut self,
        factory: &dyn ExecutorFactory,
        idx: usize,
        _lane: &Lane,
        barrier: &LaneBarrier,
        _sup: &mut Supervisor,
    ) -> Result<Option<ResilienceReport>, CampaignError> {
        let ex = LaneExecutors::build(factory, barrier.exec_state.as_ref())?;
        let report = ex.executor.resilience();
        self.executors[idx] = ex;
        Ok(Some(report))
    }

    fn shutdown(&mut self) {}
}

/// The merged campaign state the coordinator owns between barriers.
pub(crate) struct Global {
    pub(crate) entries: Vec<QueueEntry>,
    pub(crate) virgin: VirginMap,
    pub(crate) crashes: Vec<CrashRecord>,
    /// Exact-input dedup for the queue merge.
    input_index: HashMap<Vec<u8>, usize>,
    /// Site dedup for the crash merge. Lookup only — never iterated.
    site_index: HashMap<(vmos::CrashKind, String, u32), usize>,
}

impl Global {
    pub(crate) fn new() -> Self {
        Global {
            entries: Vec::new(),
            virgin: VirginMap::new(),
            crashes: Vec::new(),
            input_index: HashMap::new(),
            site_index: HashMap::new(),
        }
    }

    /// Rebuild the global state from a barrier's merged collections.
    fn from_parts(entries: Vec<QueueEntry>, virgin: VirginMap, crashes: Vec<CrashRecord>) -> Self {
        let mut g = Global {
            entries,
            virgin,
            crashes,
            input_index: HashMap::new(),
            site_index: HashMap::new(),
        };
        for (i, e) in g.entries.iter().enumerate() {
            g.input_index.entry(e.data.clone()).or_insert(i);
        }
        for (i, c) in g.crashes.iter().enumerate() {
            g.site_index.entry(c.crash.site_key()).or_insert(i);
        }
        g
    }

    /// Fold every lane's epoch discoveries into the global state, then
    /// hand the merged state back to each lane. See the module docs for
    /// the protocol; each step is either commutative or applied in
    /// canonical lane order, so the result is invariant under lane
    /// completion (and worker) scheduling.
    fn merge_epoch(&mut self, lanes: &mut [Lane]) {
        let mut states: Vec<&mut SnapshotState> = lanes.iter_mut().map(|l| &mut l.state).collect();
        let entry_prefix = self.entries.len();
        let crash_prefix = self.crashes.len();

        // Coverage: commutative OR-union.
        let mut scratch = Vec::new();
        for st in states.iter() {
            scratch.clear();
            self.virgin.union_tracked(&st.virgin, &mut scratch);
        }

        // det_done on the shared prefix: OR across lanes (a duplicate
        // deterministic pass adds nothing, so "done anywhere" is "done").
        for st in states.iter() {
            for (g, l) in self.entries[..entry_prefix].iter_mut().zip(&st.entries) {
                if l.det_done {
                    g.det_done = true;
                }
            }
        }

        // Queue: favored-first, ties in (lane, discovery) order, exact-
        // input dedup. The sort is stable, so equal keys keep lane order.
        let mut candidates: Vec<&QueueEntry> = Vec::new();
        for st in states.iter() {
            let from = entry_prefix.min(st.entries.len());
            candidates.extend(&st.entries[from..]);
        }
        candidates.sort_by_key(|e| !e.favored);
        for e in candidates {
            match self.input_index.get(&e.data) {
                Some(&j) => {
                    if e.det_done {
                        self.entries[j].det_done = true;
                    }
                }
                None => {
                    self.input_index.insert(e.data.clone(), self.entries.len());
                    self.entries.push(e.clone());
                }
            }
        }

        // Crashes: existing sites get the per-lane hit deltas summed (a
        // lane's record started the epoch at the global count); new sites
        // are appended at their earliest (lane-order) discovery, summing
        // hits from lanes that found the same site independently.
        let base: Vec<u64> = self.crashes[..crash_prefix]
            .iter()
            .map(|c| c.hits)
            .collect();
        let mut merged_hits = base.clone();
        for st in states.iter() {
            for (j, b) in base.iter().enumerate() {
                let lane_hits = st.crashes.get(j).map_or(*b, |c| c.hits);
                merged_hits[j] += lane_hits.saturating_sub(*b);
            }
            let from = crash_prefix.min(st.crashes.len());
            for c in &st.crashes[from..] {
                match self.site_index.get(&c.crash.site_key()) {
                    Some(&j) => self.crashes[j].hits += c.hits,
                    None => {
                        self.site_index
                            .insert(c.crash.site_key(), self.crashes.len());
                        self.crashes.push(c.clone());
                    }
                }
            }
        }
        for (j, h) in merged_hits.into_iter().enumerate() {
            self.crashes[j].hits = h;
        }

        // Hand the merged state back; bounce stale mid-batch stages to
        // Pick (their entry index predates the merge).
        for st in states.iter_mut() {
            st.entries = self.entries.clone();
            st.virgin = self.virgin.clone();
            st.crashes = self.crashes.clone();
            if matches!(st.scalars.stage, Stage::Det { .. } | Stage::Havoc { .. }) {
                st.scalars.stage = Stage::Pick;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded checkpoint files.
// ---------------------------------------------------------------------------

/// Seal and write the barrier snapshot for `epoch`: the merged
/// collections once, then each lane's scalars and exported executor
/// state, encoded into one buffer and sealed in place.
fn write_shard_snapshot(
    storage: &Storage,
    ck: &CheckpointConfig,
    epoch: u64,
    global: &Global,
    lanes: &[LaneBarrier],
    fingerprint: u64,
) -> OpOutcome {
    let queued: usize = global.entries.iter().map(|e| e.data.len() + 40).sum();
    let mut w = sealed_writer(queued + vmos::MAP_SIZE + 1024 * (lanes.len() + 1));
    epoch.encode(&mut w);
    global.entries.encode(&mut w);
    global.virgin.encode(&mut w);
    global.crashes.encode(&mut w);
    // A `Vec<LaneBarrier>` on the wire, written from the borrowed slice.
    w.put_count(lanes.len());
    for lane in lanes {
        lane.encode(&mut w);
    }
    SHARDED.write(storage, ck, epoch, w, fingerprint)
}

/// A loaded and validated shard snapshot.
struct ShardSnapshot {
    epoch: u64,
    global: Global,
    lanes: Vec<LaneBarrier>,
    /// Target fingerprint from the seal.
    fingerprint: u64,
}

/// Decode the payload of shard snapshot `epoch`; a payload that names
/// another epoch is corrupt.
fn decode_shard_snapshot(
    epoch: u64,
    fingerprint: u64,
    payload: &[u8],
) -> Result<ShardSnapshot, WireError> {
    let (sealed_epoch, (entries, virgin, crashes), lanes): (u64, _, _) = Wire::from_bytes(payload)?;
    if sealed_epoch != epoch {
        return Err(WireError::Malformed("shard snapshot epoch"));
    }
    Ok(ShardSnapshot {
        epoch,
        global: Global::from_parts(entries, virgin, crashes),
        lanes,
        fingerprint,
    })
}

// ---------------------------------------------------------------------------
// The epoch session.
// ---------------------------------------------------------------------------

/// How one [`EpochSession::step_epoch`] call left the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EpochStatus {
    /// The epoch ran and merged at its barrier; more epochs remain.
    Running,
    /// Simulated SIGKILL or storage crash boundary: the campaign is dead
    /// but resumable from its newest durable barrier.
    Killed {
        /// Executions completed before the kill (those since the last
        /// barrier are re-run by a resume).
        execs: u64,
    },
    /// No epochs remain (budget spent or early-stop fired): call
    /// [`EpochSession::finish`] for the result.
    Finished,
}

/// Coarse progress observables at the last barrier, for live status
/// reporting (the campaign service's per-tenant health stream).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SessionProgress {
    /// Barriers completed / total.
    pub(crate) epoch: u64,
    pub(crate) epochs: u64,
    /// Executions across all lanes.
    pub(crate) execs: u64,
    /// Simulated cycles consumed across all lanes.
    pub(crate) clock_cycles: u64,
    /// Edges found in the merged virgin map.
    pub(crate) edges_found: u64,
    /// Merged queue length.
    pub(crate) queue_len: usize,
    /// Merged unique crash sites.
    pub(crate) crashes: usize,
}

/// A sharded campaign in flight, drivable one epoch at a time — the only
/// epoch engine, whichever [`Isolation`] its lanes run under.
///
/// The owner calls [`EpochSession::step_epoch`] once per merge barrier
/// and decides between steps whether to keep going. The barrier is the
/// natural preemption point — lane state is merged and (when
/// checkpointing) durable on disk, so pausing a session between steps
/// costs nothing and changes nothing. A caller multiplexing many
/// campaigns (the `aflrs::service` fair-share scheduler) interleaves
/// sessions at exactly this granularity; [`SessionStart::run_to_completion`]
/// drives one to its end for the single-campaign API.
///
/// Each epoch runs under supervision: every lane's executor export at a
/// barrier is its share of the barrier, a [`LaneBarrier`] — the same
/// record a shard checkpoint seals. Lanes that come back faulted from the
/// next epoch are rebuilt and re-run from it before the merge, so the
/// barrier only ever sees lane states a clean run would have produced.
/// Barrier capture and recovery charge no simulated cycles. Where the
/// lanes run is the [`LaneRunner`]'s business; everything else is here.
pub(crate) struct EpochSession {
    runner: Box<dyn LaneRunner>,
    lanes: Vec<Lane>,
    /// Every lane's share of the last barrier.
    barrier: Vec<LaneBarrier>,
    /// Every lane's latest executor resilience report.
    reports: Vec<ResilienceReport>,
    global: Global,
    executor_name: String,
    /// Target fingerprint sealed into shard snapshots.
    fingerprint: u64,
    /// Next epoch to run.
    epoch: u64,
    epochs: u64,
    stop_after_crashes: usize,
    ck: Option<CheckpointConfig>,
    storage: Option<Storage>,
    /// The simulated-SIGKILL point, in campaign executions.
    kill_after: Option<u64>,
    sup: Supervisor,
}

/// What starting (or resuming) a session produced: a live session, or a
/// campaign already dead on disk because an injected storage crash
/// boundary fired while laying down the initial snapshot (or sweeping
/// before a resume).
pub(crate) enum SessionStart {
    Live(Box<EpochSession>),
    Dead {
        /// Executions completed before the crash boundary.
        execs: u64,
    },
}

impl SessionStart {
    /// Drive the session to its end — the single-campaign code path.
    pub(crate) fn run_to_completion(
        self,
        factory: &dyn ExecutorFactory,
    ) -> Result<CampaignOutcome, CampaignError> {
        let mut session = match self {
            SessionStart::Dead { execs } => return Ok(CampaignOutcome::Killed { execs }),
            SessionStart::Live(s) => s,
        };
        loop {
            match session.step_epoch(factory)? {
                EpochStatus::Running => {}
                EpochStatus::Killed { execs } => return Ok(CampaignOutcome::Killed { execs }),
                EpochStatus::Finished => return Ok(CampaignOutcome::Finished(session.finish())),
            }
        }
    }
}

impl EpochSession {
    /// Build the lanes and, when checkpointing, lay down the initial
    /// snapshot.
    pub(crate) fn start(
        factory: &dyn ExecutorFactory,
        seeds: &[Vec<u8>],
        cfg: &CampaignConfig,
        plan: &ShardPlan,
        ck: Option<&CheckpointConfig>,
        sup_cfg: &SupervisorConfig,
    ) -> Result<SessionStart, CampaignError> {
        let storage = ck.map(storage_for);
        let session = Self::open(factory, seeds, cfg, plan, ck, storage, sup_cfg, None)?;
        if let (Some(ck), Some(st)) = (ck, session.storage.as_ref()) {
            if st.op(false, |_| fs::create_dir_all(&ck.dir)).crashed()
                || SHARDED.sweep(st, &ck.dir).crashed()
                || session.write_snapshot(0).crashed()
            {
                return Ok(SessionStart::Dead { execs: 0 });
            }
        }
        Ok(SessionStart::Live(Box::new(session)))
    }

    /// Resume a killed sharded campaign: newest valid shard snapshot,
    /// lanes rebuilt from the factory (fingerprint-checked) and restored to
    /// their barrier executor states. The returned session re-runs the
    /// interrupted epoch.
    pub(crate) fn resume(
        factory: &dyn ExecutorFactory,
        seeds: &[Vec<u8>],
        cfg: &CampaignConfig,
        plan: &ShardPlan,
        ck: &CheckpointConfig,
        sup_cfg: &SupervisorConfig,
    ) -> Result<(SessionStart, ResumeReport), CampaignError> {
        let mut info = ResumeReport::default();
        let storage = storage_for(ck);
        if SHARDED.sweep(&storage, &ck.dir).crashed() {
            return Ok((SessionStart::Dead { execs: 0 }, info));
        }
        // A pre-v4 shard snapshot never validates, so a directory holding
        // only those resumes to a typed error.
        let (_, snap, _) = SHARDED.newest(&storage, &ck.dir, &mut info, decode_shard_snapshot)?;
        if snap.lanes.len() != plan.lanes.max(1) {
            return Err(CampaignError::Config(
                "shard snapshot lane count disagrees with the configured lanes",
            ));
        }
        info.snapshot_execs = snap.lanes.iter().map(|l| l.scalars.execs).sum();
        info.sweep_warnings = storage.counters().sweep_warnings;
        // Warm the process-wide decoded-image cache *before* any executor
        // is built — construction lowers eagerly on a cold cache, which
        // would hide whether the resume paid for it. A scratch executor
        // then checks the snapshot's target before any lane restores
        // state into its own, and warms the cache for factories without a
        // factory-level warm.
        let warm = factory.warm_decoded_image(None);
        let scratch = factory.build().map_err(CampaignError::Build)?;
        check_target(snap.fingerprint, &*scratch)?;
        info.note_decoded_image(warm.or_else(|| scratch.warm_decoded_image(None)));
        drop(scratch);
        let session = Self::open(
            factory,
            seeds,
            cfg,
            plan,
            Some(ck),
            Some(storage),
            sup_cfg,
            Some(snap),
        )?;
        Ok((SessionStart::Live(Box::new(session)), info))
    }

    /// Lay out the lanes — at `snap`'s barrier on a resume, fresh
    /// otherwise — and start the plan's runner on them. Supervision state
    /// is in-memory only: every session starts with every lane live and
    /// fresh counters (retirement and fault tallies are part of the
    /// recovery *report*, not the persisted campaign state).
    #[allow(clippy::too_many_arguments)]
    fn open(
        factory: &dyn ExecutorFactory,
        seeds: &[Vec<u8>],
        cfg: &CampaignConfig,
        plan: &ShardPlan,
        ck: Option<&CheckpointConfig>,
        storage: Option<Storage>,
        sup_cfg: &SupervisorConfig,
        snap: Option<ShardSnapshot>,
    ) -> Result<Self, CampaignError> {
        let lanes_n = plan.lanes.max(1);
        let (global, epoch, barrier) = match snap {
            Some(s) => (s.global, s.epoch, Some(s.lanes)),
            None => (Global::new(), 0, None),
        };
        let lanes: Vec<Lane> = (0..lanes_n)
            .map(|i| {
                let cfg = lane_config(cfg, i, lanes_n);
                let state = match &barrier {
                    Some(b) => b[i].state(&global),
                    None => SnapshotState::initial(&cfg),
                };
                Lane {
                    seeds: lane_seeds(seeds, i, lanes_n),
                    cfg,
                    state,
                }
            })
            .collect();
        let mut sup = Supervisor::new(sup_cfg.clone(), lanes_n);
        let (runner, starts): (Box<dyn LaneRunner>, Vec<LaneStart>) = match plan.isolation {
            Isolation::InProcess => {
                let (r, s) =
                    ThreadRunner::build(factory, lanes_n, barrier.as_deref(), plan.workers)?;
                (Box::new(r), s)
            }
            Isolation::Process => {
                let (r, s) = ProcRunner::spawn(factory, &lanes, barrier.as_deref(), &mut sup)?;
                (Box::new(r), s)
            }
        };
        let (executor_name, fingerprint) = (starts[0].executor.clone(), starts[0].fingerprint);
        let mut reports = Vec::with_capacity(lanes_n);
        let mut exports = Vec::with_capacity(lanes_n);
        for s in starts {
            reports.push(s.report);
            exports.push(s.exec_state);
        }
        // A fresh lane's share of the first barrier: its initial state and
        // its new executor's export.
        let barrier = barrier.unwrap_or_else(|| {
            lanes
                .iter()
                .zip(exports)
                .map(|(l, exec_state)| LaneBarrier {
                    scalars: l.state.scalars.clone(),
                    exec_state,
                })
                .collect()
        });
        Ok(EpochSession {
            runner,
            lanes,
            barrier,
            reports,
            global,
            executor_name,
            fingerprint,
            epoch,
            epochs: plan.sync_epochs.max(1),
            stop_after_crashes: cfg.stop_after_crashes,
            kill_after: ck.and_then(|c| c.kill_after_execs),
            ck: ck.cloned(),
            storage,
            sup,
        })
    }

    /// Seal the current barrier as the snapshot for `epoch`.
    fn write_snapshot(&self, epoch: u64) -> OpOutcome {
        let (Some(ck), Some(st)) = (self.ck.as_ref(), self.storage.as_ref()) else {
            return OpOutcome::Done;
        };
        write_shard_snapshot(st, ck, epoch, &self.global, &self.barrier, self.fingerprint)
    }

    /// Sum of the lanes' exec counters at their last barrier.
    fn lanes_execs(&self) -> u64 {
        self.lanes.iter().map(|l| l.state.scalars.execs).sum()
    }

    /// Run exactly one epoch to its merge barrier (including the barrier
    /// snapshot and rotation when checkpointing). Returns what to do next;
    /// a `Killed` session must not be stepped again.
    ///
    /// The kill rule (DESIGN §13): a planned kill at `limit` executions is
    /// the session's decision, counted in campaign executions. A barrier
    /// already at or past it kills the campaign before the epoch runs;
    /// otherwise the runner arms its hook at `(limit, base)` for the
    /// epoch's first run, and if the hook stopped any lane the epoch is
    /// killed. Re-runs carry no hook.
    pub(crate) fn step_epoch(
        &mut self,
        factory: &dyn ExecutorFactory,
    ) -> Result<EpochStatus, CampaignError> {
        if self.epoch >= self.epochs {
            return Ok(EpochStatus::Finished);
        }
        let at = (self.epoch, self.epochs);
        let base = self.lanes_execs();
        let kill = self.kill_after.map(|limit| (limit, base));
        if kill.is_some_and(|(limit, _)| base >= limit) {
            return Ok(EpochStatus::Killed { execs: base });
        }
        let runs = self.runner.run_epoch(&self.lanes, at, kill, &self.sup)?;
        if let Some((limit, _)) = kill {
            if runs
                .iter()
                .flatten()
                .any(|r| r.as_ref().is_ok_and(|run| run.killed))
            {
                // Simulated SIGKILL: stop right here — no recovery, no
                // merge, no snapshot. Resume re-runs this epoch from the
                // last barrier. Report the executions the lanes finished,
                // never less than the kill point: a shared counter also
                // counts the executions of an attempt that faulted.
                let ran: u64 = runs
                    .iter()
                    .zip(&self.lanes)
                    .filter_map(|(r, lane)| match r {
                        Some(Ok(run)) => Some(run.state.scalars.execs - lane.state.scalars.execs),
                        _ => None,
                    })
                    .sum();
                return Ok(EpochStatus::Killed {
                    execs: (base + ran).max(limit),
                });
            }
        }
        for (idx, run) in runs.into_iter().enumerate() {
            match run {
                Some(Ok(run)) => self.accept(idx, run),
                Some(Err(fault)) => self.recover_lane(factory, idx, fault)?,
                None => {}
            }
        }
        self.global.merge_epoch(&mut self.lanes);
        for (b, lane) in self.barrier.iter_mut().zip(&self.lanes) {
            b.scalars = lane.state.scalars.clone();
        }
        if let (Some(ck), Some(st)) = (self.ck.as_ref(), self.storage.as_ref()) {
            if self.write_snapshot(self.epoch + 1).crashed() || SHARDED.rotate(st, ck).crashed() {
                return Ok(EpochStatus::Killed {
                    execs: self.lanes_execs(),
                });
            }
        }
        self.epoch += 1;
        // The global early-stop predicate, evaluated on merged crashes.
        if self.stop_after_crashes > 0 && self.global.crashes.len() >= self.stop_after_crashes {
            self.epoch = self.epochs;
        }
        Ok(if self.epoch >= self.epochs {
            EpochStatus::Finished
        } else {
            EpochStatus::Running
        })
    }

    /// Take lane `idx`'s epoch: its state carries on, and its executor
    /// export becomes its share of the next barrier.
    fn accept(&mut self, idx: usize, mut run: LaneRun) {
        self.barrier[idx].exec_state = run.state.exec_state.take();
        self.lanes[idx].state = run.state;
        self.reports[idx] = run.report;
    }

    /// Rebuild a faulted lane from its barrier and re-run the epoch,
    /// retrying up to the supervisor's budget; past it, retire the lane
    /// (the degradation ladder — typed and reported, never a silent drop).
    ///
    /// `global` still holds the barrier's merged collections and the
    /// lane's carried state is still its barrier state: the merge of this
    /// epoch runs only after every faulted lane is recovered, so a
    /// recovered epoch replays the faulted one bit-for-bit.
    fn recover_lane(
        &mut self,
        factory: &dyn ExecutorFactory,
        idx: usize,
        first_fault: LaneFault,
    ) -> Result<(), CampaignError> {
        let at = (self.epoch, self.epochs);
        let mut fault = first_fault;
        let mut attempt: u32 = 1;
        loop {
            self.sup.counters.record(&fault);
            if attempt > self.sup.cfg.max_lane_retries {
                return self.retire(factory, idx, attempt, &fault);
            }
            self.sup.counters.lane_rebuilds += 1;
            let (lane, barrier) = (&self.lanes[idx], &self.barrier[idx]);
            let rerun =
                self.runner
                    .rerun(factory, idx, lane, barrier, at, attempt, &mut self.sup)?;
            match rerun {
                Ok(run) => {
                    self.accept(idx, run);
                    self.sup.counters.recovered += 1;
                    return Ok(());
                }
                Err(f) => {
                    fault = f;
                    attempt += 1;
                }
            }
        }
    }

    /// Retire lane `idx` at its barrier after `attempts` failed attempts,
    /// the last ending in `fault`, and hand its unspent budget to the live
    /// siblings (even split, remainder on the first). The runner rebuilds
    /// it one last time, so the final resilience report reads from a sane
    /// instance.
    fn retire(
        &mut self,
        factory: &dyn ExecutorFactory,
        idx: usize,
        attempts: u32,
        fault: &LaneFault,
    ) -> Result<(), CampaignError> {
        let (lane, barrier) = (&self.lanes[idx], &self.barrier[idx]);
        if let Some(report) = self
            .runner
            .retire(factory, idx, lane, barrier, &mut self.sup)?
        {
            self.reports[idx] = report;
        }
        let reclaimed = lane.cfg.budget_cycles.saturating_sub(barrier.scalars.clock);
        self.sup.dead[idx] = true;
        if self.sup.live() == 0 {
            return Err(CampaignError::AllLanesLost { epoch: self.epoch });
        }
        let heirs: Vec<usize> = (0..self.lanes.len())
            .filter(|&j| !self.sup.dead[j])
            .collect();
        let share = reclaimed / heirs.len() as u64;
        let rem = reclaimed % heirs.len() as u64;
        for (k, &j) in heirs.iter().enumerate() {
            self.lanes[j].cfg.budget_cycles += share + u64::from((k as u64) < rem);
        }
        self.sup.counters.degradations.push(LaneDegradation {
            lane: idx as u64,
            epoch: self.epoch,
            attempts: u64::from(attempts),
            reclaimed_cycles: reclaimed,
            last_fault: fault.name().to_string(),
        });
        Ok(())
    }

    /// Stop the lanes and assemble the final [`CampaignResult`] (call once
    /// `step_epoch` reports `Finished`): per-lane accounting summed,
    /// merged collections taken from the global state. Retired lanes
    /// still count — their barrier scalars record the work done before
    /// retirement.
    pub(crate) fn finish(&mut self) -> CampaignResult {
        self.runner.shutdown();
        let mut r = CampaignResult {
            executor: self.executor_name.clone(),
            execs: 0,
            clock_cycles: 0,
            edges_found: self.global.virgin.edges_found(),
            coverage_hash: fnv1a(self.global.virgin.as_bytes()),
            crashes: self.global.crashes.clone(),
            queue_len: self.global.entries.len(),
            hangs: 0,
            mgmt_cycles: 0,
            exec_cycles: 0,
            queue_inputs: self.global.entries.iter().map(|e| e.data.clone()).collect(),
            resilience: ResilienceCounters::default(),
            resume: None,
        };
        for (lane, report) in self.lanes.iter().zip(&self.reports) {
            let s = &lane.state.scalars;
            r.execs += s.execs;
            r.clock_cycles += s.clock;
            r.hangs += s.hangs;
            r.mgmt_cycles += s.mgmt_cycles;
            r.exec_cycles += s.exec_cycles;
            r.resilience.absorb(&ResilienceCounters {
                executor: report.clone(),
                harness_faults: s.harness_faults,
                retries: s.retries,
                dropped_inputs: s.dropped_inputs,
                watchdog_trips: s.watchdog_trips,
                supervision: Default::default(),
                storage: Default::default(),
            });
        }
        r.resilience.supervision = self.sup.counters.clone();
        r.resilience.storage = self
            .storage
            .as_ref()
            .map(Storage::counters)
            .unwrap_or_default();
        r
    }

    /// Progress observables at the last completed barrier.
    pub(crate) fn progress(&self) -> SessionProgress {
        SessionProgress {
            epoch: self.epoch,
            epochs: self.epochs,
            execs: self.lanes_execs(),
            clock_cycles: self.lanes.iter().map(|l| l.state.scalars.clock).sum(),
            edges_found: self.global.virgin.edges_found() as u64,
            queue_len: self.global.entries.len(),
            crashes: self.global.crashes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    #[test]
    fn lane_budgets_sum_to_total() {
        let cfg = CampaignConfig {
            budget_cycles: 1_000_003,
            ..CampaignConfig::default()
        };
        let total: u64 = (0..3).map(|i| lane_config(&cfg, i, 3).budget_cycles).sum();
        assert_eq!(total, 1_000_003);
        assert_eq!(lane_config(&cfg, 0, 3).budget_cycles, 333_335);
    }

    #[test]
    fn lane_seeds_distinct_and_stable() {
        let a = lane_seed(42, 0);
        let b = lane_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, lane_seed(42, 0), "pure function of (seed, lane)");
    }

    #[test]
    fn epoch_limits_are_monotone_and_exact() {
        let budget = 1_000_000;
        let mut prev = 0;
        for e in 0..8 {
            let lim = epoch_limit(budget, e, 8);
            assert!(lim >= prev);
            prev = lim;
        }
        assert_eq!(epoch_limit(budget, 7, 8), budget, "final epoch is exact");
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cx-shard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    /// A 2-lane, 3-epoch checkpointed campaign over the property-test
    /// target, optionally killed, optionally resumed.
    fn campaign(
        dir: &Path,
        kill: Option<u64>,
        resume: bool,
    ) -> Result<CampaignOutcome, CampaignError> {
        campaign_on(crate::proptests::RESUME_TARGET, dir, kill, resume)
    }

    fn campaign_on(
        src: &str,
        dir: &Path,
        kill: Option<u64>,
        resume: bool,
    ) -> Result<CampaignOutcome, CampaignError> {
        let module = minic::compile("t", src).expect("compiles");
        let factory = crate::proptests::CxFactory { module: &module };
        let cfg = CampaignConfig {
            budget_cycles: 1_500_000,
            seed: 3,
            ..CampaignConfig::default()
        };
        let seeds = vec![b"go".to_vec(), b"CX!".to_vec()];
        let mut ck = CheckpointConfig::new(dir);
        ck.kill_after_execs = kill;
        let c = crate::Campaign::new(&seeds, &cfg)
            .factory(&factory)
            .lanes(2)
            .sync_epochs(3)
            .shards(1)
            .checkpoint(ck);
        if resume {
            c.resume().map(|(out, _)| out)
        } else {
            c.run()
        }
    }

    #[test]
    fn a_pre_v4_shard_snapshot_resumes_to_a_typed_error() {
        let dir = temp_dir("v3");
        // The v3 layout: epoch, lane count, then one full snapshot per
        // lane, sealed under the single-driver format version.
        let mut w = sealed_writer(0);
        w.put_u64(1);
        w.put_usize(2);
        for _ in 0..2 {
            let st = SnapshotState {
                scalars: Scalars {
                    stage: Stage::Pick,
                    clock: 10,
                    execs: 3,
                    hangs: 0,
                    mgmt_cycles: 0,
                    exec_cycles: 0,
                    retries: 0,
                    dropped_inputs: 0,
                    harness_faults: 0,
                    consecutive_hangs: 0,
                    watchdog_trips: 0,
                    rng: [1, 2, 3, 4],
                    backoff_rng: [5, 6, 7, 8],
                    cursor: 0,
                },
                entries: Vec::new(),
                virgin: VirginMap::new(),
                crashes: Vec::new(),
                exec_state: None,
            };
            w.put_bytes(&st.to_bytes());
        }
        let v3 = crate::checkpoint::SINGLE.seal(w, 0);
        assert_eq!(&v3[4..8], &3u32.to_le_bytes(), "sealed as v3");
        assert!(SHARDED.open(&v3).is_err(), "a v3 file must not parse as v4");
        fs::write(SHARDED.path(&dir, 1), &v3).expect("write");
        match campaign(&dir, None, true) {
            Err(CampaignError::Checkpoint(CheckpointError::NoUsableSnapshot)) => {}
            other => panic!("expected NoUsableSnapshot, got {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn resume_against_another_target_is_refused() {
        let dir = temp_dir("mismatch");
        let killed = campaign(&dir, Some(40), false).expect("killed run");
        assert!(
            matches!(killed, CampaignOutcome::Killed { .. }),
            "{killed:?}"
        );
        let other = "fn main() { return 0; }";
        match campaign_on(other, &dir, None, true) {
            Err(CampaignError::Checkpoint(CheckpointError::TargetMismatch { .. })) => {}
            other => panic!("expected TargetMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }
}
