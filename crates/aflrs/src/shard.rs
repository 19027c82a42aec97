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
//! version of its own (`SHARD_FORMAT_VERSION`). Lanes write nothing
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
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use closurex::checkpoint::ExecutorState;
use closurex::executor::{Executor, ExecutorFactory};
use vmos::cov::VirginMap;
use vmos::wire::fnv1a;
use vmos::{OrchFaultKind, OrchFaultPlan, Reader, WireError};

use crate::builder::CampaignError;
use crate::campaign::{CampaignConfig, Driver, Stage, StepOutcome};
use crate::checkpoint::{
    check_target, decode_collections, decode_exec_state, encode_collections, encode_exec_state,
    open_sealed, seal_in_place, sealed_writer, storage_for, sweep_orphan_tmp, write_sealed,
    CampaignOutcome, CheckpointConfig, CheckpointError, FsyncPolicy, ResumeReport, Scalars,
    SnapshotState,
};
use crate::queue::QueueEntry;
use crate::storage::{fsync_dir, OpOutcome, Storage, StorageCounters};
use crate::supervise::{
    self, LaneDegradation, LaneFault, Supervisor, SupervisorConfig, INJECTED_PANIC_MARKER,
};
use crate::stats::{CampaignResult, CrashRecord, ResilienceCounters};

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

/// One lane: an owned executor pair plus the campaign state carried across
/// epochs. `state.exec_state` is always `None` here — the live executor
/// *is* the executor state between barriers; it is exported once per
/// barrier, into the lane's [`LaneBarrier`].
pub(crate) struct Lane {
    pub(crate) executor: Box<dyn Executor + Send>,
    pub(crate) revalidator: Option<Box<dyn Executor + Send>>,
    pub(crate) cfg: CampaignConfig,
    pub(crate) seeds: Vec<Vec<u8>>,
    pub(crate) state: SnapshotState,
}

/// One lane's share of a barrier: its scalars and its executor state,
/// exported once. The merged collections are the same for every lane
/// after a merge, so they live once, in [`Global`]. A barrier is both
/// what the shard snapshot seals and the point a faulted lane of the
/// following epoch is recovered from.
#[derive(Debug, Clone)]
pub(crate) struct LaneBarrier {
    pub(crate) scalars: Scalars,
    pub(crate) exec_state: Option<ExecutorState>,
}

impl LaneBarrier {
    /// Capture every lane's share of the barrier it stands at.
    fn capture(lanes: &[Lane]) -> Vec<LaneBarrier> {
        lanes
            .iter()
            .map(|l| LaneBarrier {
                scalars: l.state.scalars.clone(),
                exec_state: l.executor.export_state(),
            })
            .collect()
    }

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

/// Snapshot a driver for the inter-epoch handoff (no executor export).
pub(crate) fn barrier_state(d: &Driver<'_>) -> SnapshotState {
    SnapshotState {
        scalars: Scalars::capture(d),
        entries: d.queue.iter().cloned().collect(),
        virgin: d.virgin.clone(),
        crashes: d.crashes.clone(),
        exec_state: None,
    }
}

/// The shared kill switch for the simulated-SIGKILL torture hook: a global
/// exec counter across all lanes, tripping a stop flag every lane polls.
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

    pub(crate) fn execs(&self) -> u64 {
        self.execs.load(Ordering::SeqCst)
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
    lane: &mut Lane,
    epoch: u64,
    epochs: u64,
    kill: Option<&KillSwitch>,
    watch: &LaneAttempt<'_>,
) -> Result<Option<LaneFault>, CheckpointError> {
    let limit = epoch_limit(lane.cfg.budget_cycles, epoch, epochs);
    let injected = watch.faults.decide((watch.lane, epoch), watch.attempt);
    // Where in the epoch an injected panic/wedge lands (deterministic in
    // the plan and the position; short epochs fire at the barrier below).
    let trip_after = watch.faults.aux_bits((watch.lane, epoch), watch.attempt) % 16;
    let revalidator = lane
        .revalidator
        .as_deref_mut()
        .map(|r| r as &mut dyn Executor);
    let mut d = Driver::new(lane.executor.as_mut(), revalidator, &lane.seeds, &lane.cfg);
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
                return Ok(Some(LaneFault::Hang));
            }
        }
    }
    lane.state = barrier_state(&d);
    if killed {
        // Simulated SIGKILL: the campaign is stopping wholesale; the
        // supervisor has nothing left to recover this run.
        return Ok(None);
    }
    // An epoch shorter than the in-loop trigger point still fails: the
    // fault fires at the barrier handoff instead.
    match injected {
        Some(OrchFaultKind::WorkerPanic) => panic!(
            "{INJECTED_PANIC_MARKER} injected worker panic at the barrier (lane {}, \
             epoch {epoch}, attempt {})",
            watch.lane, watch.attempt
        ),
        Some(OrchFaultKind::LaneHang) => Ok(Some(LaneFault::Hang)),
        Some(OrchFaultKind::BarrierTimeout) => Ok(Some(LaneFault::BarrierTimeout)),
        None => Ok(None),
    }
}

/// Run one epoch across all lanes on the worker pool. Lane-to-worker
/// assignment is a throughput detail: every lane runs its own
/// deterministic schedule and the coordinator merges in lane order, so
/// results cannot depend on it.
///
/// Every lane body runs contained: a panic (injected or organic) comes
/// back as `Some(LaneFault::Panic)` in lane order, never as a worker-pool
/// abort. Retired (degraded) lanes are skipped and keep their barrier
/// state. Returns one fault slot per lane.
fn run_epoch_parallel(
    lanes: &mut [Lane],
    epoch: u64,
    epochs: u64,
    workers: usize,
    kill: Option<&KillSwitch>,
    sup: &Supervisor,
) -> Result<Vec<Option<LaneFault>>, CampaignError> {
    supervise::install_quiet_panic_hook();
    let reference = vmos::reference_engine();
    let workers = workers.clamp(1, lanes.len().max(1));
    let chunk = lanes.len().div_ceil(workers).max(1);
    let faults = &sup.cfg.faults;
    let hang_deadline = sup.cfg.hang_deadline_ticks;
    let dead = &sup.dead;
    let mut collected: Vec<Result<Option<LaneFault>, CheckpointError>> =
        Vec::with_capacity(lanes.len());
    let mut worker_lost = false;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for (ci, lane_chunk) in lanes.chunks_mut(chunk).enumerate() {
            let start = ci * chunk;
            handles.push(s.spawn(move || {
                // Worker threads inherit the coordinator's engine choice.
                vmos::set_reference_engine(reference);
                lane_chunk
                    .iter_mut()
                    .enumerate()
                    .map(|(off, l)| {
                        let idx = start + off;
                        if dead.get(idx).copied().unwrap_or(false) {
                            return Ok(None);
                        }
                        let watch = LaneAttempt {
                            lane: idx as u64,
                            attempt: 0,
                            faults,
                            hang_deadline,
                        };
                        match supervise::contain(|| {
                            run_lane_epoch(l, epoch, epochs, kill, &watch)
                        }) {
                            Ok(r) => r,
                            Err(payload) => Ok(Some(LaneFault::Panic(payload))),
                        }
                    })
                    .collect::<Vec<_>>()
            }));
        }
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
        .map(|r| r.map_err(CampaignError::Checkpoint))
        .collect()
}

/// Rebuild a faulted lane from its epoch barrier and re-run the epoch,
/// retrying up to the supervisor's budget; past it, retire the lane and
/// fold its unspent cycles into the live siblings (the degradation ladder
/// — typed and reported, never a silent drop).
///
/// Recovery runs on the coordinator thread: re-runs are rare, lane order
/// keeps them deterministic, and the rebuilt executor reuses the exact
/// `export_state`/`restore_state` contract checkpoint resume is built on —
/// so a recovered epoch replays the faulted one bit-for-bit. `global` still
/// holds the barrier's merged collections: the merge of this epoch runs
/// only after every faulted lane is recovered.
#[allow(clippy::too_many_arguments)]
fn recover_lane(
    lanes: &mut [Lane],
    idx: usize,
    epoch: u64,
    epochs: u64,
    barrier: &LaneBarrier,
    global: &Global,
    first_fault: LaneFault,
    factory: &dyn ExecutorFactory,
    kill: Option<&KillSwitch>,
    sup: &mut Supervisor,
) -> Result<(), CampaignError> {
    let mut fault = first_fault;
    let mut attempt: u32 = 1;
    loop {
        sup.counters.record(&fault);
        // Quarantine + rebuild: fresh executor pair from the factory,
        // restored to the barrier's exported state, lane state reset to
        // the barrier copy. A retired lane is rebuilt one last time too,
        // so the final resilience report reads from a sane instance.
        lanes[idx].executor = build_executor(factory, barrier.exec_state.as_ref())?;
        lanes[idx].revalidator = factory.build_revalidator().map_err(CampaignError::Build)?;
        lanes[idx].state = barrier.state(global);
        if attempt > sup.cfg.max_lane_retries {
            // Degradation: retire the lane at its barrier state and hand
            // the unspent budget to the live siblings (even split,
            // remainder on the first).
            let reclaimed = lanes[idx]
                .cfg
                .budget_cycles
                .saturating_sub(barrier.scalars.clock);
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
            sup.counters.degradations.push(LaneDegradation {
                lane: idx as u64,
                epoch,
                attempts: u64::from(attempt),
                reclaimed_cycles: reclaimed,
                last_fault: fault.name().to_string(),
            });
            return Ok(());
        }
        sup.counters.lane_rebuilds += 1;
        let outcome = {
            let watch = LaneAttempt {
                lane: idx as u64,
                attempt,
                faults: &sup.cfg.faults,
                hang_deadline: sup.cfg.hang_deadline_ticks,
            };
            let lane = &mut lanes[idx];
            supervise::contain(|| run_lane_epoch(lane, epoch, epochs, kill, &watch))
        };
        match outcome {
            Ok(Ok(None)) => {
                sup.counters.recovered += 1;
                return Ok(());
            }
            Ok(Ok(Some(f))) => {
                fault = f;
                attempt += 1;
            }
            Ok(Err(e)) => return Err(CampaignError::Checkpoint(e)),
            Err(payload) => {
                fault = LaneFault::Panic(payload);
                attempt += 1;
            }
        }
    }
}

/// A fresh executor from the factory, restored to `exec_state` when given.
fn build_executor(
    factory: &dyn ExecutorFactory,
    exec_state: Option<&ExecutorState>,
) -> Result<Box<dyn Executor + Send>, CampaignError> {
    let mut executor = factory.build().map_err(CampaignError::Build)?;
    restore_executor(executor.as_mut(), exec_state)?;
    Ok(executor)
}

fn restore_executor(
    executor: &mut dyn Executor,
    exec_state: Option<&ExecutorState>,
) -> Result<(), CampaignError> {
    match exec_state {
        Some(es) => executor
            .restore_state(es)
            .map_err(|e| CampaignError::Checkpoint(CheckpointError::Executor(e))),
        None => Ok(()),
    }
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
        let mut states: Vec<&mut SnapshotState> =
            lanes.iter_mut().map(|l| &mut l.state).collect();
        self.merge_epoch_states(&mut states);
    }

    /// The merge protocol itself, on bare barrier states — the substrate
    /// shared by in-process lanes (above) and lane-per-process campaigns,
    /// whose barrier states arrive over a pipe instead of a `Lane`.
    pub(crate) fn merge_epoch_states(&mut self, states: &mut [&mut SnapshotState]) {
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
        let base: Vec<u64> = self.crashes[..crash_prefix].iter().map(|c| c.hits).collect();
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
                        self.site_index.insert(c.crash.site_key(), self.crashes.len());
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

/// Assemble the final result: per-lane accounting summed, merged
/// collections taken from the global state. Retired lanes still count —
/// their barrier-state scalars record the work done before retirement.
fn assemble(
    lanes: &mut [Lane],
    global: &Global,
    sup: &Supervisor,
    storage: Option<&Storage>,
) -> CampaignResult {
    let states: Vec<&SnapshotState> = lanes.iter().map(|l| &l.state).collect();
    let reports: Vec<_> = lanes.iter().map(|l| l.executor.resilience()).collect();
    let name = lanes.first().map_or("sharded", |l| l.executor.name());
    let st = storage.map(Storage::counters).unwrap_or_default();
    assemble_parts(&states, &reports, name, global, sup, st)
}

/// [`assemble`] on bare parts: barrier states plus each lane's lifetime
/// resilience report. Lane-per-process campaigns collect both over the
/// wire, so the result assembly cannot require live executors.
pub(crate) fn assemble_parts(
    states: &[&SnapshotState],
    reports: &[closurex::resilience::ResilienceReport],
    executor_name: &str,
    global: &Global,
    sup: &Supervisor,
    storage: StorageCounters,
) -> CampaignResult {
    let mut execs = 0;
    let mut clock = 0;
    let mut hangs = 0;
    let mut mgmt_cycles = 0;
    let mut exec_cycles = 0;
    let mut resilience = ResilienceCounters::default();
    for (st, report) in states.iter().zip(reports) {
        let s = &st.scalars;
        execs += s.execs;
        clock += s.clock;
        hangs += s.hangs;
        mgmt_cycles += s.mgmt_cycles;
        exec_cycles += s.exec_cycles;
        resilience.absorb(&ResilienceCounters {
            executor: report.clone(),
            harness_faults: s.harness_faults,
            retries: s.retries,
            dropped_inputs: s.dropped_inputs,
            watchdog_trips: s.watchdog_trips,
            supervision: Default::default(),
            storage: Default::default(),
        });
    }
    resilience.supervision = sup.counters.clone();
    resilience.storage = storage;
    CampaignResult {
        executor: executor_name.to_string(),
        execs,
        clock_cycles: clock,
        edges_found: global.virgin.edges_found(),
        coverage_hash: fnv1a(global.virgin.as_bytes()),
        crashes: global.crashes.clone(),
        queue_len: global.entries.len(),
        hangs,
        mgmt_cycles,
        exec_cycles,
        queue_inputs: global.entries.iter().map(|e| e.data.clone()).collect(),
        resilience,
        resume: None,
    }
}

// ---------------------------------------------------------------------------
// Sharded checkpoint files.
// ---------------------------------------------------------------------------

/// Shard snapshot format version, separate from the single-driver
/// [`crate::checkpoint`] version. v4: the merged collections once, then
/// each lane's scalars and executor state (v3 and older held one full
/// lane snapshot per lane and are refused, never misparsed).
pub(crate) const SHARD_FORMAT_VERSION: u32 = 4;

pub(crate) fn shard_snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("shard-ckpt-{epoch:06}.bin"))
}

/// The epoch of a `shard-ckpt-N.bin` name. [`shard_snapshot_path`] pads to
/// six digits and writes more past epoch 999,999, so any run of six or
/// more digits is accepted.
fn parse_shard_snapshot(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("shard-ckpt-")?.strip_suffix(".bin")?;
    (rest.len() >= 6 && rest.bytes().all(|b| b.is_ascii_digit()))
        .then(|| rest.parse().ok())
        .flatten()
}

/// What one scan of a sharded checkpoint directory finds.
struct ShardDir {
    /// Shard snapshots, ascending by epoch.
    snapshots: Vec<(u64, PathBuf)>,
    /// Files the sharded engine never reads and may always delete:
    /// orphaned snapshot temp files, and per-lane `shard-journal-*` files
    /// an older build left behind.
    debris: Vec<PathBuf>,
}

fn scan_shard_dir(dir: &Path) -> std::io::Result<ShardDir> {
    let mut found = ShardDir {
        snapshots: Vec::new(),
        debris: Vec::new(),
    };
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let orphan_tmp = name.ends_with(".tmp")
            && (name.starts_with("ckpt-") || name.starts_with("shard-ckpt-"));
        if let Some(epoch) = parse_shard_snapshot(name) {
            found.snapshots.push((epoch, entry.path()));
        } else if orphan_tmp || name.starts_with("shard-journal-") {
            found.debris.push(entry.path());
        }
    }
    found.snapshots.sort_by_key(|(n, _)| *n);
    Ok(found)
}

/// One scan of `dir`: delete its debris and every shard snapshot but the
/// newest `keep`. Returns `(files removed, unlink failures)`.
fn prune_shard_dir(dir: &Path, keep: usize) -> std::io::Result<(u64, u64)> {
    let ShardDir { snapshots, debris } = scan_shard_dir(dir)?;
    let old = snapshots.len().saturating_sub(keep);
    let (mut removed, mut failed) = (0, 0);
    for path in debris.iter().chain(snapshots[..old].iter().map(|(_, p)| p)) {
        match fs::remove_file(path) {
            Ok(()) => removed += 1,
            Err(_) => failed += 1,
        }
    }
    Ok((removed, failed))
}

/// Seal and write the barrier snapshot for `epoch`: the merged
/// collections once, then each lane's scalars and exported executor
/// state, encoded into one buffer and sealed in place.
pub(crate) fn write_shard_snapshot<'a>(
    storage: &Storage,
    ck: &CheckpointConfig,
    epoch: u64,
    global: &Global,
    lanes: &[(&'a Scalars, &'a Option<ExecutorState>)],
    fingerprint: u64,
) -> OpOutcome {
    let queued: usize = global.entries.iter().map(|e| e.data.len() + 40).sum();
    let mut w = sealed_writer(queued + vmos::MAP_SIZE + 1024 * (lanes.len() + 1));
    w.put_u64(epoch);
    encode_collections(&global.entries, &global.virgin, &global.crashes, &mut w);
    w.put_usize(lanes.len());
    for (scalars, exec_state) in lanes {
        scalars.encode(&mut w);
        encode_exec_state(exec_state, &mut w);
    }
    let bytes = seal_in_place(w.into_bytes(), SHARD_FORMAT_VERSION, fingerprint);
    write_sealed(storage, &shard_snapshot_path(&ck.dir, epoch), &bytes, ck.fsync)
}

/// A loaded and validated shard snapshot.
pub(crate) struct ShardSnapshot {
    pub(crate) epoch: u64,
    pub(crate) global: Global,
    pub(crate) lanes: Vec<LaneBarrier>,
    /// Target fingerprint from the seal.
    pub(crate) fingerprint: u64,
}

pub(crate) fn load_shard_snapshot(path: &Path) -> Result<ShardSnapshot, WireError> {
    let bytes = fs::read(path).map_err(|_| WireError::Truncated)?;
    let (fingerprint, payload) = open_sealed(&bytes, SHARD_FORMAT_VERSION)?;
    let mut r = Reader::new(payload);
    let epoch = r.get_u64()?;
    let (entries, virgin, crashes) = decode_collections(&mut r)?;
    let n = r.get_count()?;
    if n > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut lanes = Vec::with_capacity(n);
    for _ in 0..n {
        lanes.push(LaneBarrier {
            scalars: Scalars::decode(&mut r)?,
            exec_state: decode_exec_state(&mut r)?,
        });
    }
    if !r.is_empty() {
        return Err(WireError::Malformed("trailing shard snapshot bytes"));
    }
    Ok(ShardSnapshot {
        epoch,
        global: Global::from_parts(entries, virgin, crashes),
        lanes,
        fingerprint,
    })
}

/// The snapshot a sharded resume starts from: the newest one that
/// validates, skipping (and counting) corrupt ones. A pre-v4 shard
/// snapshot never validates, so a directory holding only those resumes
/// to a typed error; lane journals an older build left are never read.
pub(crate) fn load_newest_shard_snapshot(
    storage: &Storage,
    ck: &CheckpointConfig,
    lanes: usize,
    info: &mut ResumeReport,
) -> Result<ShardSnapshot, CampaignError> {
    let snaps = scan_shard_dir(&ck.dir).map_err(CheckpointError::Io)?.snapshots;
    let mut chosen = None;
    for (epoch, path) in snaps.iter().rev() {
        match load_shard_snapshot(path) {
            Ok(snap) if snap.epoch == *epoch => {
                chosen = Some(snap);
                break;
            }
            _ => {
                info.corrupt_snapshots_skipped += 1;
                storage.note_corrupt_snapshot();
            }
        }
    }
    let snap = chosen.ok_or(CampaignError::Checkpoint(CheckpointError::NoUsableSnapshot))?;
    if snap.lanes.len() != lanes {
        return Err(CampaignError::Config(
            "shard snapshot lane count disagrees with the configured lanes",
        ));
    }
    info.snapshot_execs = snap.lanes.iter().map(|l| l.scalars.execs).sum();
    Ok(snap)
}

/// Archival rotation for a terminal tenant: keep only the single newest
/// shard snapshot (the sealed archive) — exactly what
/// [`EpochSession::resume`] needs to revive a killed campaign — and delete
/// every older generation and all debris, in one directory scan.
/// `spec.bin` and any other foreign file are untouched. Returns
/// `(files removed, warnings)`; failures are never fatal — callers surface
/// the warning count and the extra files simply linger.
pub(crate) fn archive_shard_dir(dir: &Path) -> (u64, u64) {
    match prune_shard_dir(dir, 1) {
        Ok((removed, failed)) => {
            let synced = removed == 0 || fsync_dir(dir).is_ok();
            (removed, failed + u64::from(!synced))
        }
        Err(_) => (0, 1),
    }
}

/// The barrier's directory upkeep, in one scan: keep the newest `keep`
/// shard snapshots and delete older ones and all debris. Unlink failures
/// are counted warnings; successful unlinks are made durable with a
/// directory fsync (mirroring the single-driver rotation).
pub(crate) fn rotate_shards(storage: &Storage, ck: &CheckpointConfig) -> OpOutcome {
    let dir = &ck.dir;
    let (mut removed, mut failed) = (0, 0);
    let o = storage.cleanup_op(|_| {
        (removed, failed) = prune_shard_dir(dir, ck.keep_snapshots.max(1))?;
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
        return storage.op(false, |_| fsync_dir(dir));
    }
    o
}

// ---------------------------------------------------------------------------
// The sharded campaign loop.
// ---------------------------------------------------------------------------

/// Build lane `i` of `lanes_n`: a fresh executor pair from the factory
/// with the lane's config and seed slice, at `state`, or at the start of
/// the campaign when `None`.
fn build_lane(
    factory: &dyn ExecutorFactory,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    (i, lanes_n): (usize, usize),
    state: Option<SnapshotState>,
) -> Result<Lane, CampaignError> {
    let mut executor = factory.build().map_err(CampaignError::Build)?;
    let revalidator = factory.build_revalidator().map_err(CampaignError::Build)?;
    let cfg = lane_config(cfg, i, lanes_n);
    let seeds = lane_seeds(seeds, i, lanes_n);
    let state = match state {
        Some(st) => st,
        None => barrier_state(&Driver::new(executor.as_mut(), None, &seeds, &cfg)),
    };
    Ok(Lane {
        executor,
        revalidator,
        cfg,
        seeds,
        state,
    })
}

/// The target fingerprint sealed into shard snapshots (0 when the
/// mechanism pins none).
fn fingerprint(lanes: &[Lane]) -> u64 {
    lanes
        .first()
        .and_then(|l| l.executor.module_fingerprint())
        .unwrap_or(0)
}

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

/// A sharded campaign in flight, drivable one epoch at a time.
///
/// This is the old closed `run_epochs` loop turned inside out: the owner
/// calls [`EpochSession::step_epoch`] once per merge barrier and decides
/// between steps whether to keep going. The barrier is the natural
/// preemption point — lane state is merged and (when checkpointing)
/// durable on disk, so pausing a session between steps costs nothing and
/// changes nothing. A caller multiplexing many campaigns (the
/// `aflrs::service` fair-share scheduler) interleaves sessions at exactly
/// this granularity; [`run_sharded`]/[`resume_sharded`] below are the
/// drive-to-completion wrappers the single-campaign API uses.
///
/// Each epoch runs under supervision: at every barrier the coordinator
/// exports each lane's executor state once, into a [`LaneBarrier`] — the
/// same record a shard checkpoint seals. Lanes that come back faulted from
/// the next epoch are rebuilt and re-run from it before the merge, so the
/// barrier only ever sees lane states a clean run would have produced.
/// Barrier capture and recovery charge no simulated cycles.
pub(crate) struct EpochSession {
    lanes: Vec<Lane>,
    global: Global,
    /// Every lane's share of the last barrier.
    barrier: Vec<LaneBarrier>,
    /// Target fingerprint sealed into shard snapshots.
    fingerprint: u64,
    /// Next epoch to run.
    epoch: u64,
    epochs: u64,
    cfg: CampaignConfig,
    plan: ShardPlan,
    ck: Option<CheckpointConfig>,
    storage: Option<Storage>,
    kill: Option<KillSwitch>,
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
        let lanes_n = plan.lanes.max(1);
        let lanes = (0..lanes_n)
            .map(|i| build_lane(factory, seeds, cfg, (i, lanes_n), None))
            .collect::<Result<Vec<_>, _>>()?;
        let session = EpochSession {
            barrier: LaneBarrier::capture(&lanes),
            fingerprint: fingerprint(&lanes),
            sup: Supervisor::new(sup_cfg.clone(), lanes_n),
            lanes,
            global: Global::new(),
            epoch: 0,
            epochs: plan.sync_epochs.max(1),
            cfg: cfg.clone(),
            plan: plan.clone(),
            ck: ck.cloned(),
            storage: ck.map(storage_for),
            kill: ck
                .and_then(|c| c.kill_after_execs)
                .map(|k| KillSwitch::new(k, 0)),
        };
        if let (Some(ck), Some(st)) = (ck, session.storage.as_ref()) {
            if st.op(false, |_| fs::create_dir_all(&ck.dir)).crashed()
                || sweep_orphan_tmp(st, &ck.dir).crashed()
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
        let lanes_n = plan.lanes.max(1);
        let mut info = ResumeReport::default();
        let storage = storage_for(ck);
        if sweep_orphan_tmp(&storage, &ck.dir).crashed() {
            return Ok((SessionStart::Dead { execs: 0 }, info));
        }
        let snap = load_newest_shard_snapshot(&storage, ck, lanes_n, &mut info)?;
        info.sweep_warnings = storage.counters().sweep_warnings;
        // Warm the process-wide decoded-image cache *before* any lane
        // executor is built — construction lowers eagerly on a cold cache,
        // which would hide whether the resume paid for it. Falls back to
        // warming through lane 0 for factories without a factory-level
        // warm.
        let mut warm = factory.warm_decoded_image(None);
        let mut lanes = Vec::with_capacity(lanes_n);
        for (i, lb) in snap.lanes.iter().enumerate() {
            let state = Some(lb.state(&snap.global));
            let mut lane = build_lane(factory, seeds, cfg, (i, lanes_n), state)?;
            if i == 0 {
                // All lanes share the module: checking one copy suffices,
                // before any state is restored into it.
                check_target(snap.fingerprint, &*lane.executor)
                    .map_err(CampaignError::Checkpoint)?;
                if warm.is_none() {
                    warm = lane.executor.warm_decoded_image(None);
                }
                info.note_decoded_image(warm);
            }
            restore_executor(lane.executor.as_mut(), lb.exec_state.as_ref())?;
            lanes.push(lane);
        }
        let session = EpochSession {
            fingerprint: fingerprint(&lanes),
            // Supervision state is in-memory only: a resume starts every
            // lane live with fresh counters (retirement and fault tallies
            // are part of the recovery *report*, not the persisted
            // campaign state).
            sup: Supervisor::new(sup_cfg.clone(), lanes_n),
            lanes,
            global: snap.global,
            barrier: snap.lanes,
            epoch: snap.epoch,
            epochs: plan.sync_epochs.max(1),
            cfg: cfg.clone(),
            plan: plan.clone(),
            ck: Some(ck.clone()),
            storage: Some(storage),
            kill: ck
                .kill_after_execs
                .map(|k| KillSwitch::new(k, info.snapshot_execs)),
        };
        Ok((SessionStart::Live(Box::new(session)), info))
    }

    /// Seal the current barrier as the snapshot for `epoch`.
    fn write_snapshot(&self, epoch: u64) -> OpOutcome {
        let (Some(ck), Some(st)) = (self.ck.as_ref(), self.storage.as_ref()) else {
            return OpOutcome::Done;
        };
        let lanes: Vec<_> = self.barrier.iter().map(|b| (&b.scalars, &b.exec_state)).collect();
        write_shard_snapshot(st, ck, epoch, &self.global, &lanes, self.fingerprint)
    }

    /// Sum of the lanes' exec counters — what the harness reports as
    /// "killed at N execs" when a storage crash boundary fires.
    fn lanes_execs(&self) -> u64 {
        self.lanes.iter().map(|l| l.state.scalars.execs).sum()
    }

    /// Run exactly one epoch to its merge barrier (including the barrier
    /// snapshot and rotation when checkpointing). Returns what to do next;
    /// a `Killed` session must not be stepped again.
    pub(crate) fn step_epoch(
        &mut self,
        factory: &dyn ExecutorFactory,
    ) -> Result<EpochStatus, CampaignError> {
        if self.epoch >= self.epochs {
            return Ok(EpochStatus::Finished);
        }
        let epoch = self.epoch;
        let faults = run_epoch_parallel(
            &mut self.lanes,
            epoch,
            self.epochs,
            self.plan.workers,
            self.kill.as_ref(),
            &self.sup,
        )?;
        if let Some(k) = &self.kill {
            if k.stopped() {
                // Simulated SIGKILL: stop right here — no barrier, no
                // snapshot, no recovery. Resume re-runs this epoch from
                // the last barrier.
                return Ok(EpochStatus::Killed { execs: k.execs() });
            }
        }
        for (idx, fault) in faults.into_iter().enumerate() {
            let Some(fault) = fault else { continue };
            recover_lane(
                &mut self.lanes,
                idx,
                epoch,
                self.epochs,
                &self.barrier[idx],
                &self.global,
                fault,
                factory,
                self.kill.as_ref(),
                &mut self.sup,
            )?;
        }
        self.global.merge_epoch(&mut self.lanes);
        self.barrier = LaneBarrier::capture(&self.lanes);
        if let (Some(ck), Some(st)) = (self.ck.as_ref(), self.storage.as_ref()) {
            if self.write_snapshot(epoch + 1).crashed() || rotate_shards(st, ck).crashed() {
                return Ok(EpochStatus::Killed { execs: self.lanes_execs() });
            }
        }
        self.epoch += 1;
        // The global early-stop predicate, evaluated on merged crashes.
        if self.cfg.stop_after_crashes > 0
            && self.global.crashes.len() >= self.cfg.stop_after_crashes
        {
            self.epoch = self.epochs;
        }
        Ok(if self.epoch >= self.epochs {
            EpochStatus::Finished
        } else {
            EpochStatus::Running
        })
    }

    /// Assemble the final [`CampaignResult`] (call once `step_epoch`
    /// reports `Finished`).
    pub(crate) fn finish(&mut self) -> CampaignResult {
        assemble(
            &mut self.lanes,
            &self.global,
            &self.sup,
            self.storage.as_ref(),
        )
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

    /// Drive the session to its end — the single-campaign code path.
    pub(crate) fn run_to_completion(
        &mut self,
        factory: &dyn ExecutorFactory,
    ) -> Result<CampaignOutcome, CampaignError> {
        loop {
            match self.step_epoch(factory)? {
                EpochStatus::Running => {}
                EpochStatus::Killed { execs } => {
                    return Ok(CampaignOutcome::Killed { execs })
                }
                EpochStatus::Finished => {
                    return Ok(CampaignOutcome::Finished(self.finish()))
                }
            }
        }
    }
}

/// Run a sharded campaign (see module docs). `ck` arms barrier
/// checkpointing and the simulated-kill hook; `sup_cfg` configures lane
/// supervision (always on — the defaults add no observable behavior to a
/// fault-free run).
pub(crate) fn run_sharded(
    factory: &dyn ExecutorFactory,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    plan: &ShardPlan,
    ck: Option<&CheckpointConfig>,
    sup_cfg: &SupervisorConfig,
) -> Result<CampaignOutcome, CampaignError> {
    match EpochSession::start(factory, seeds, cfg, plan, ck, sup_cfg)? {
        SessionStart::Dead { execs } => Ok(CampaignOutcome::Killed { execs }),
        SessionStart::Live(mut s) => s.run_to_completion(factory),
    }
}

/// Resume a killed sharded campaign to completion (see
/// [`EpochSession::resume`]).
pub(crate) fn resume_sharded(
    factory: &dyn ExecutorFactory,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    plan: &ShardPlan,
    ck: &CheckpointConfig,
    sup_cfg: &SupervisorConfig,
) -> Result<(CampaignOutcome, ResumeReport), CampaignError> {
    let (start, info) = EpochSession::resume(factory, seeds, cfg, plan, ck, sup_cfg)?;
    match start {
        SessionStart::Dead { execs } => Ok((CampaignOutcome::Killed { execs }, info)),
        SessionStart::Live(mut s) => Ok((s.run_to_completion(factory)?, info)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn names(dir: &Path) -> Vec<String> {
        let mut left: Vec<String> = fs::read_dir(dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        left
    }

    /// Per-lane journals an older build wrote next to its snapshots.
    fn stray_journal(dir: &Path, epoch: u64, lane: usize) -> PathBuf {
        let path = dir.join(format!("shard-journal-{epoch:06}-{lane:03}.bin"));
        fs::write(&path, b"CXJL stale journal bytes").expect("write");
        path
    }

    #[test]
    fn archive_keeps_newest_snapshot_and_deletes_stray_journals() {
        let dir = temp_dir("archive");
        for epoch in [1u64, 3, 7] {
            fs::write(shard_snapshot_path(&dir, epoch), b"snap").expect("write");
        }
        for epoch in 0..9u64 {
            stray_journal(&dir, epoch, 0);
        }
        fs::write(dir.join("shard-ckpt-000008.tmp"), b"torn").expect("write");
        fs::write(dir.join("spec.bin"), b"spec").expect("write");
        fs::write(dir.join("foreign.bin"), b"not ours").expect("write");

        let (removed, warnings) = archive_shard_dir(&dir);
        assert_eq!(warnings, 0);
        // 2 older snapshots, 9 journals, 1 orphaned temp file.
        assert_eq!(removed, 2 + 9 + 1);
        assert_eq!(
            names(&dir),
            ["foreign.bin", "shard-ckpt-000007.bin", "spec.bin"],
            "only the sealed snapshot and non-shard files survive"
        );
        // Idempotent: a second sweep finds nothing to remove.
        assert_eq!(archive_shard_dir(&dir), (0, 0));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn archive_without_snapshots_only_clears_debris() {
        let dir = temp_dir("archive-empty");
        let journal = stray_journal(&dir, 0, 0);
        fs::write(dir.join("spec.bin"), b"spec").expect("write");
        assert_eq!(archive_shard_dir(&dir), (1, 0));
        assert!(!journal.exists());
        assert_eq!(names(&dir), ["spec.bin"]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rotation_keeps_the_newest_snapshots_in_one_scan_and_deletes_stray_journals() {
        let dir = temp_dir("rotate");
        for epoch in 0..5u64 {
            fs::write(shard_snapshot_path(&dir, epoch), b"snap").expect("write");
            stray_journal(&dir, epoch, 1);
        }
        fs::write(dir.join("shard-ckpt-000005.tmp"), b"torn").expect("write");
        fs::write(dir.join("spec.bin"), b"spec").expect("write");
        let ck = CheckpointConfig {
            keep_snapshots: 2,
            ..CheckpointConfig::new(&dir)
        };
        let storage = Storage::quiet();
        assert_eq!(rotate_shards(&storage, &ck), OpOutcome::Done);
        assert_eq!(
            names(&dir),
            ["shard-ckpt-000003.bin", "shard-ckpt-000004.bin", "spec.bin"]
        );
        assert!(storage.counters().is_quiet(), "{:?}", storage.counters());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn shard_file_names_round_trip() {
        assert_eq!(parse_shard_snapshot("shard-ckpt-000007.bin"), Some(7));
        assert_eq!(parse_shard_snapshot("shard-ckpt-7.bin"), None);
        assert_eq!(parse_shard_snapshot("shard-ckpt-00007.bin"), None);
        assert_eq!(parse_shard_snapshot("shard-ckpt-00000x.bin"), None);
        assert_eq!(parse_shard_snapshot("ckpt-000000000001.bin"), None);
        assert_eq!(parse_shard_snapshot("shard-journal-000003-002.bin"), None);
        // Past epoch 999,999 the padded name grows a seventh digit, and it
        // must stay visible to resume and rotation.
        let dir = Path::new("/ckpt");
        for epoch in [0, 7, 999_999, 1_000_000, 12_345_678, u64::MAX] {
            let path = shard_snapshot_path(dir, epoch);
            let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name");
            assert_eq!(parse_shard_snapshot(name), Some(epoch), "{name}");
        }
        assert_eq!(parse_shard_snapshot("shard-ckpt-99999999999999999999999.bin"), None);
    }

    #[test]
    fn scan_orders_snapshots_numerically_past_six_digits() {
        let dir = temp_dir("scan");
        for epoch in [1_000_000u64, 999_999, 2] {
            fs::write(shard_snapshot_path(&dir, epoch), b"snap").expect("write");
        }
        let epochs: Vec<u64> = scan_shard_dir(&dir)
            .expect("scan")
            .snapshots
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(epochs, [2, 999_999, 1_000_000]);
        let _ = fs::remove_dir_all(dir);
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
        let mut w = vmos::Writer::new();
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
            w.put_bytes(&st.encode());
        }
        let v3 = crate::checkpoint::seal_snapshot(&w.into_bytes(), 0);
        assert_eq!(&v3[4..8], &3u32.to_le_bytes(), "sealed as v3");
        let path = shard_snapshot_path(&dir, 1);
        fs::write(&path, &v3).expect("write");
        assert!(load_shard_snapshot(&path).is_err(), "a v3 file must not parse as v4");
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
        assert!(matches!(killed, CampaignOutcome::Killed { .. }), "{killed:?}");
        let other = "fn main() { return 0; }";
        match campaign_on(other, &dir, None, true) {
            Err(CampaignError::Checkpoint(CheckpointError::TargetMismatch { .. })) => {}
            other => panic!("expected TargetMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn stray_lane_journals_are_ignored_by_resume() {
        let dir = temp_dir("stray");
        let want = campaign(&dir, None, false)
            .expect("run")
            .finished()
            .expect("no kill planned");
        fs::remove_dir_all(&dir).expect("clear");
        let killed = campaign(&dir, Some(want.execs / 2), false).expect("killed run");
        assert!(matches!(killed, CampaignOutcome::Killed { .. }), "{killed:?}");
        // Journals an older build would have left for the torn epoch, one
        // of them garbage.
        for lane in 0..2 {
            stray_journal(&dir, 1, lane);
        }
        fs::write(dir.join("shard-journal-000002-000.bin"), [0xFF; 64]).expect("write");
        let got = campaign(&dir, None, true)
            .expect("resume")
            .finished()
            .expect("no kill planned");
        assert_eq!(want.outcome_diff(&got), None);
        let _ = fs::remove_dir_all(dir);
    }
}
