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
//! With a [`CheckpointConfig`], barriers double as checkpoints:
//! `shard-ckpt-{epoch:06}.bin` holds every lane's post-merge snapshot
//! (including exported executor state) sealed under the same
//! fingerprint-carrying header as single-driver snapshots, and each lane
//! journals its epoch executions to `shard-journal-{epoch:06}-{lane:03}.bin`.
//! `CheckpointConfig::snapshot_every_execs` is ignored in sharded mode —
//! the epoch barrier is the snapshot cadence. Resume loads the newest
//! valid shard snapshot, rebuilds the lanes from the factory, replays each
//! lane's journal for the interrupted epoch (truncating torn tails), and
//! continues — reproducing the uninterrupted campaign exactly.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use closurex::executor::{Executor, ExecutorFactory};
use vmos::cov::VirginMap;
use vmos::wire::fnv1a;
use vmos::{OrchFaultKind, OrchFaultPlan, Reader, WireError, Writer};

use crate::builder::CampaignError;
use crate::campaign::{CampaignConfig, Driver, Stage, StepOutcome};
use crate::checkpoint::{
    check_target, open_sealed, read_journal, seal_snapshot, storage_for, sweep_orphan_tmp,
    write_sealed, CampaignOutcome, CheckpointConfig, CheckpointError, DeltaRecord, Journal,
    ResumeReport, Scalars, SnapshotState,
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
/// *is* the executor state between barriers; it is only exported when a
/// shard snapshot is written.
pub(crate) struct Lane {
    pub(crate) executor: Box<dyn Executor + Send>,
    pub(crate) revalidator: Option<Box<dyn Executor + Send>>,
    pub(crate) cfg: CampaignConfig,
    pub(crate) seeds: Vec<Vec<u8>>,
    pub(crate) state: SnapshotState,
    pub(crate) journal: Option<Journal>,
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

    /// Count one journaled execution; returns `true` once the campaign
    /// must stop (the kill may overshoot `limit` by in-flight lanes —
    /// resume is kill-point agnostic, so that is harmless).
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

/// Run one lane from its carried state to the epoch's clock limit,
/// journaling each execution when checkpointing is on.
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
    track: bool,
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
    let mut d = Driver::new(lane.executor.as_mut(), revalidator, &lane.seeds, &lane.cfg, track);
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
            if track {
                if let Some(j) = lane.journal.as_mut() {
                    if j.append(&DeltaRecord::take(&mut d)).crashed() {
                        // An injected crash boundary in this lane's journal
                        // stream: the machine is dead. Stop stepping; the
                        // coordinator sees the plane-wide crash flag after
                        // the epoch and kills the campaign.
                        killed = true;
                        break;
                    }
                }
            }
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
    track: bool,
    kill: Option<&KillSwitch>,
    sup: &Supervisor,
) -> Result<Vec<Option<LaneFault>>, CampaignError> {
    supervise::install_quiet_panic_hook();
    let reference = vmos::reference_engine();
    let decode_opt = vmos::decode_opt();
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
                vmos::set_decode_opt(decode_opt);
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
                            run_lane_epoch(l, epoch, epochs, track, kill, &watch)
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

/// A lane's epoch-barrier recovery snapshot, minus the executor export
/// (which the recovered executor was just restored from).
pub(crate) fn stripped(snap: &SnapshotState) -> SnapshotState {
    let mut st = snap.clone();
    st.exec_state = None;
    st
}

/// Rebuild a faulted lane from its epoch-barrier snapshot and re-run the
/// epoch, retrying up to the supervisor's budget; past it, retire the lane
/// and fold its unspent cycles into the live siblings (the degradation
/// ladder — typed and reported, never a silent drop).
///
/// Recovery runs on the coordinator thread: re-runs are rare, lane order
/// keeps them deterministic, and the rebuilt executor reuses the exact
/// `export_state`/`restore_state` contract checkpoint resume is built on —
/// so a recovered epoch replays the faulted one bit-for-bit.
#[allow(clippy::too_many_arguments)]
fn recover_lane(
    lanes: &mut [Lane],
    idx: usize,
    epoch: u64,
    epochs: u64,
    snap: &SnapshotState,
    first_fault: LaneFault,
    factory: &dyn ExecutorFactory,
    ck: Option<&CheckpointConfig>,
    storage: Option<&Storage>,
    kill: Option<&KillSwitch>,
    sup: &mut Supervisor,
) -> Result<(), CampaignError> {
    let track = ck.is_some();
    let restore_err =
        |e| CampaignError::Checkpoint(CheckpointError::Executor(e));
    let mut fault = first_fault;
    let mut attempt: u32 = 1;
    loop {
        sup.counters.record(&fault);
        if attempt > sup.cfg.max_lane_retries {
            // Degradation: retire the lane at its barrier state. Rebuild
            // its executor one last time so the final resilience report
            // reads from a sane instance, then hand the unspent budget to
            // the live siblings (even split, remainder on the first).
            let reclaimed = lanes[idx]
                .cfg
                .budget_cycles
                .saturating_sub(snap.scalars.clock);
            let mut executor = factory.build().map_err(CampaignError::Build)?;
            if let Some(es) = &snap.exec_state {
                executor.restore_state(es).map_err(restore_err)?;
            }
            lanes[idx].executor = executor;
            lanes[idx].revalidator =
                factory.build_revalidator().map_err(CampaignError::Build)?;
            lanes[idx].state = stripped(snap);
            lanes[idx].journal = None;
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
        // Quarantine + rebuild: fresh executor pair from the factory,
        // restored to the barrier's exported state, lane state reset to
        // the barrier copy, journal recreated (truncating the faulted
        // attempt's partial records).
        let mut executor = factory.build().map_err(CampaignError::Build)?;
        if let Some(es) = &snap.exec_state {
            executor.restore_state(es).map_err(restore_err)?;
        }
        lanes[idx].executor = executor;
        lanes[idx].revalidator = factory.build_revalidator().map_err(CampaignError::Build)?;
        lanes[idx].state = stripped(snap);
        if let (Some(ck), Some(st)) = (ck, storage) {
            let (j, o) = Journal::create_at(
                &st.stream(1 + idx as u64),
                &shard_journal_path(&ck.dir, epoch, idx),
                snap.scalars.execs,
                ck.fsync,
            );
            lanes[idx].journal = Some(j);
            if o.crashed() {
                // The recreate hit an injected crash boundary: the machine
                // is dead. Leave the lane at its barrier state; the epoch
                // loop sees the plane-wide flag and kills the campaign.
                return Ok(());
            }
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
            supervise::contain(|| run_lane_epoch(lane, epoch, epochs, track, kill, &watch))
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

    /// Rebuild the global state from a barrier snapshot (every lane's
    /// post-merge collections are identical; lane 0's copy is canonical).
    pub(crate) fn from_state(st: &SnapshotState) -> Self {
        let mut g = Global {
            entries: st.entries.clone(),
            virgin: st.virgin.clone(),
            crashes: st.crashes.clone(),
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

pub(crate) fn shard_snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("shard-ckpt-{epoch:06}.bin"))
}

pub(crate) fn shard_journal_path(dir: &Path, epoch: u64, lane: usize) -> PathBuf {
    dir.join(format!("shard-journal-{epoch:06}-{lane:03}.bin"))
}

fn parse_shard_snapshot(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("shard-ckpt-")?.strip_suffix(".bin")?;
    (rest.len() == 6 && rest.bytes().all(|b| b.is_ascii_digit()))
        .then(|| rest.parse().ok())
        .flatten()
}

fn parse_shard_journal(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("shard-journal-")?.strip_suffix(".bin")?;
    let (e, l) = rest.split_once('-')?;
    let digits = |s: &str, n| s.len() == n && s.bytes().all(|b| b.is_ascii_digit());
    (digits(e, 6) && digits(l, 3))
        .then(|| Some((e.parse().ok()?, l.parse().ok()?)))
        .flatten()
}

/// All `shard-ckpt-N.bin` files, sorted ascending by epoch.
pub(crate) fn list_shard_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(n) = entry.file_name().to_str().and_then(parse_shard_snapshot) {
            out.push((n, entry.path()));
        }
    }
    out.sort_by_key(|(n, _)| *n);
    Ok(out)
}

/// Write the barrier snapshot for `epoch`: every lane's state with its
/// executor exported, sealed under the target fingerprint.
fn write_shard_snapshot(
    storage: &Storage,
    ck: &CheckpointConfig,
    epoch: u64,
    lanes: &mut [Lane],
) -> OpOutcome {
    let states: Vec<SnapshotState> = lanes
        .iter_mut()
        .map(|lane| {
            let mut st = lane.state.clone();
            st.exec_state = lane.executor.export_state();
            st
        })
        .collect();
    let fp = lanes
        .first()
        .and_then(|l| l.executor.module_fingerprint())
        .unwrap_or(0);
    write_shard_snapshot_states(storage, ck, epoch, &states, fp)
}

/// [`write_shard_snapshot`] on pre-exported states — lane-per-process
/// campaigns receive each lane's state (executor export included) over the
/// wire and persist it from the supervisor side.
pub(crate) fn write_shard_snapshot_states(
    storage: &Storage,
    ck: &CheckpointConfig,
    epoch: u64,
    states: &[SnapshotState],
    fp: u64,
) -> OpOutcome {
    let mut w = Writer::new();
    w.put_u64(epoch);
    w.put_usize(states.len());
    for st in states {
        w.put_bytes(&st.encode());
    }
    let bytes = seal_snapshot(&w.into_bytes(), fp);
    write_sealed(storage, &shard_snapshot_path(&ck.dir, epoch), &bytes, ck.fsync)
}

/// Load and validate one shard snapshot: `(epoch, per-lane states, target
/// fingerprint)`.
#[allow(clippy::type_complexity)]
pub(crate) fn load_shard_snapshot(
    path: &Path,
) -> Result<(u64, Vec<SnapshotState>, u64), WireError> {
    let bytes = fs::read(path).map_err(|_| WireError::Truncated)?;
    let (fp, payload) = open_sealed(&bytes)?;
    let mut r = Reader::new(payload);
    let epoch = r.get_u64()?;
    let n = r.get_count()?;
    if n > r.remaining() {
        return Err(WireError::Truncated);
    }
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        let buf = r.get_bytes()?;
        states.push(SnapshotState::decode(&buf)?);
    }
    if !r.is_empty() {
        return Err(WireError::Malformed("trailing shard snapshot bytes"));
    }
    Ok((epoch, states, fp))
}

/// Archival rotation for a terminal tenant: keep only the single newest
/// shard snapshot (the sealed archive) plus the journals at or past its
/// epoch — exactly what [`EpochSession::resume`] needs to revive a killed
/// campaign — and delete every older generation. `spec.bin` and the
/// decoded-image sidecar are untouched (the sweep only looks at
/// `shard-ckpt-*` / `shard-journal-*` names). Returns `(files removed,
/// warnings)`; failures are never fatal — callers surface the warning
/// count and the extra files simply linger.
pub(crate) fn archive_shard_dir(dir: &Path) -> (u64, u64) {
    let mut removed = 0u64;
    let mut warnings = 0u64;
    let snaps = match list_shard_snapshots(dir) {
        Ok(s) => s,
        Err(_) => return (0, 1),
    };
    let Some(&(cutoff, _)) = snaps.last() else {
        return (0, 0); // never snapshotted — nothing to seal
    };
    for (_, path) in &snaps[..snaps.len() - 1] {
        match fs::remove_file(path) {
            Ok(()) => removed += 1,
            Err(_) => warnings += 1,
        }
    }
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return (removed, warnings + 1),
    };
    for entry in entries {
        let Ok(entry) = entry else {
            warnings += 1;
            continue;
        };
        if let Some((e, _)) = entry.file_name().to_str().and_then(parse_shard_journal) {
            if e < cutoff {
                match fs::remove_file(entry.path()) {
                    Ok(()) => removed += 1,
                    Err(_) => warnings += 1,
                }
            }
        }
    }
    (removed, warnings)
}

/// Keep the newest `keep` shard snapshots; drop older ones and the
/// journals of epochs nothing can resume from anymore. Unlink failures
/// are counted warnings; successful unlinks are made durable with a
/// directory fsync (mirroring the single-driver rotation).
pub(crate) fn rotate_shards(storage: &Storage, ck: &CheckpointConfig) -> OpOutcome {
    let dir = &ck.dir;
    let o = sweep_orphan_tmp(storage, dir);
    if o.crashed() {
        return o;
    }
    let mut failed = 0u64;
    let mut removed = false;
    let o = storage.cleanup_op(|_| {
        let snaps = list_shard_snapshots(dir)?;
        let keep = ck.keep_snapshots.max(1);
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
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some((e, _)) = entry.file_name().to_str().and_then(parse_shard_journal) {
                if e < cutoff {
                    match fs::remove_file(entry.path()) {
                        Ok(()) => removed = true,
                        Err(_) => failed += 1,
                    }
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
    if removed && ck.fsync != crate::checkpoint::FsyncPolicy::Never {
        // Op: unlinks are directory mutations too — make them durable.
        return storage.op(false, |_| fsync_dir(dir));
    }
    o
}

/// Open each lane's journal for `epoch`, based at the lane's current exec
/// count. Each lane gets its own storage stream (`1 + lane`), so one
/// lane's fault history or degradation never perturbs a sibling's.
/// Returns `true` when an injected crash boundary fired mid-create.
fn open_journals(
    storage: &Storage,
    ck: &CheckpointConfig,
    epoch: u64,
    lanes: &mut [Lane],
) -> bool {
    for (i, lane) in lanes.iter_mut().enumerate() {
        let (j, o) = Journal::create_at(
            &storage.stream(1 + i as u64),
            &shard_journal_path(&ck.dir, epoch, i),
            lane.state.scalars.execs,
            ck.fsync,
        );
        lane.journal = Some(j);
        if o.crashed() {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// The sharded campaign loop.
// ---------------------------------------------------------------------------

fn build_lanes(
    factory: &dyn ExecutorFactory,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    lanes_n: usize,
    track: bool,
) -> Result<Vec<Lane>, CampaignError> {
    let mut lanes = Vec::with_capacity(lanes_n);
    for i in 0..lanes_n {
        let mut executor = factory.build().map_err(CampaignError::Build)?;
        let revalidator = factory.build_revalidator().map_err(CampaignError::Build)?;
        let lane_cfg = lane_config(cfg, i, lanes_n);
        let lane_seeds: Vec<Vec<u8>> = seeds
            .iter()
            .enumerate()
            .filter(|(j, _)| j % lanes_n == i)
            .map(|(_, s)| s.clone())
            .collect();
        let state = barrier_state(&Driver::new(
            executor.as_mut(),
            None,
            &lane_seeds,
            &lane_cfg,
            track,
        ));
        lanes.push(Lane {
            executor,
            revalidator,
            cfg: lane_cfg,
            seeds: lane_seeds,
            state,
            journal: None,
        });
    }
    Ok(lanes)
}

/// How one [`EpochSession::step_epoch`] call left the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EpochStatus {
    /// The epoch ran and merged at its barrier; more epochs remain.
    Running,
    /// Simulated SIGKILL or storage crash boundary: the campaign is dead
    /// but resumable from what reached the disk.
    Killed {
        /// Executions completed (and journaled) before the kill.
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
/// Each epoch runs under supervision: before the lanes start, the
/// coordinator captures a per-lane recovery snapshot (barrier state +
/// exported executor state — the same pair a shard checkpoint persists);
/// lanes that come back faulted are rebuilt and re-run from it before the
/// merge, so the barrier only ever sees lane states a clean run would have
/// produced. Snapshot capture and recovery charge no simulated cycles.
pub(crate) struct EpochSession {
    lanes: Vec<Lane>,
    global: Global,
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
/// boundary fired while laying down the initial snapshot/journals (or
/// during resume replay).
pub(crate) enum SessionStart {
    Live(Box<EpochSession>),
    Dead {
        /// Executions journaled before the crash boundary.
        execs: u64,
    },
}

impl EpochSession {
    /// Build the lanes and, when checkpointing, lay down the initial
    /// snapshot, journals, and decoded-image sidecar.
    pub(crate) fn start(
        factory: &dyn ExecutorFactory,
        seeds: &[Vec<u8>],
        cfg: &CampaignConfig,
        plan: &ShardPlan,
        ck: Option<&CheckpointConfig>,
        sup_cfg: &SupervisorConfig,
    ) -> Result<SessionStart, CampaignError> {
        let lanes_n = plan.lanes.max(1);
        let epochs = plan.sync_epochs.max(1);
        let track = ck.is_some();
        let mut lanes = build_lanes(factory, seeds, cfg, lanes_n, track)?;
        let sup = Supervisor::new(sup_cfg.clone(), lanes_n);
        let kill = ck
            .and_then(|c| c.kill_after_execs)
            .map(|k| KillSwitch::new(k, 0));
        let storage = ck.map(storage_for);
        if let (Some(ck), Some(st)) = (ck, storage.as_ref()) {
            if st.op(false, |_| fs::create_dir_all(&ck.dir)).crashed()
                || sweep_orphan_tmp(st, &ck.dir).crashed()
                || write_shard_snapshot(st, ck, 0, &mut lanes).crashed()
                || open_journals(st, ck, 0, &mut lanes)
            {
                return Ok(SessionStart::Dead { execs: 0 });
            }
            // Best-effort decoded-image sidecar next to the snapshots, so
            // resume — possibly in another process — skips the re-lower.
            // Outside the storage fault plane: a cache, not campaign state.
            if let Some(lane) = lanes.first() {
                lane.executor.save_decoded_sidecar(&ck.dir);
            }
        }
        Ok(SessionStart::Live(Box::new(EpochSession {
            lanes,
            global: Global::new(),
            epoch: 0,
            epochs,
            cfg: cfg.clone(),
            plan: plan.clone(),
            ck: ck.cloned(),
            storage,
            kill,
            sup,
        })))
    }

    /// Resume a killed sharded campaign: newest valid shard snapshot,
    /// lanes rebuilt from the factory (fingerprint-checked), per-lane
    /// journal replay with torn tails truncated. The returned session
    /// continues from the interrupted epoch.
    pub(crate) fn resume(
        factory: &dyn ExecutorFactory,
        seeds: &[Vec<u8>],
        cfg: &CampaignConfig,
        plan: &ShardPlan,
        ck: &CheckpointConfig,
        sup_cfg: &SupervisorConfig,
    ) -> Result<(SessionStart, ResumeReport), CampaignError> {
        let lanes_n = plan.lanes.max(1);
        let epochs = plan.sync_epochs.max(1);
        let mut info = ResumeReport::default();
        let storage = storage_for(ck);
        if sweep_orphan_tmp(&storage, &ck.dir).crashed() {
            return Ok((SessionStart::Dead { execs: 0 }, info));
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

        let global = Global::from_state(&states[0]);
        // Warm the process-wide decoded-image cache through the sidecar
        // *before* any lane executor is built — construction lowers
        // eagerly on a cold cache, which would waste the sidecar. Falls
        // back to warming through lane 0 for factories without a
        // factory-level warm.
        let mut warm = factory.warm_decoded_image(Some(&ck.dir));
        let mut lanes = Vec::with_capacity(lanes_n);
        let mut total_execs = 0;
        for (i, st) in states.into_iter().enumerate() {
            let mut executor = factory.build().map_err(CampaignError::Build)?;
            if i == 0 {
                // All lanes share the module: checking one copy suffices.
                check_target(fp, &*executor).map_err(CampaignError::Checkpoint)?;
                if warm.is_none() {
                    warm = executor.warm_decoded_image(Some(&ck.dir));
                }
                info.note_decoded_image(warm);
            }
            let mut revalidator = factory.build_revalidator().map_err(CampaignError::Build)?;
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
            let rv = revalidator.as_deref_mut().map(|r| r as &mut dyn Executor);
            let mut d = Driver::new(executor.as_mut(), rv, &lane_seeds, &lane_cfg, true);
            st.apply(&mut d).map_err(CampaignError::Checkpoint)?;
            let journal = if epoch < epochs {
                let lane_storage = storage.stream(1 + i as u64);
                let (j, o) = match read_journal(&jpath, base) {
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
                        Journal::reopen(&lane_storage, &jpath, valid_len, ck.fsync)
                    }
                    // Killed before this lane's journal reached the disk:
                    // start it fresh from the snapshot base.
                    None => Journal::create_at(&lane_storage, &jpath, base, ck.fsync),
                };
                if o.crashed() {
                    let execs = total_execs + d.execs;
                    return Ok((SessionStart::Dead { execs }, info));
                }
                Some(j)
            } else {
                None
            };
            if let Some(es) = &last_exec_state {
                d.executor
                    .restore_state(es)
                    .map_err(|e| CampaignError::Checkpoint(CheckpointError::Executor(e)))?;
            }
            total_execs += d.execs;
            let state = barrier_state(&d);
            drop(d);
            lanes.push(Lane {
                executor,
                revalidator,
                cfg: lane_cfg,
                seeds: lane_seeds,
                state,
                journal,
            });
        }
        info.sweep_warnings = storage.counters().sweep_warnings;

        let kill = ck
            .kill_after_execs
            .map(|k| KillSwitch::new(k, total_execs));
        // Supervision state is in-memory only: a resume starts every lane
        // live with fresh counters (retirement and fault tallies are part
        // of the recovery *report*, not the persisted campaign state).
        let sup = Supervisor::new(sup_cfg.clone(), lanes_n);
        Ok((
            SessionStart::Live(Box::new(EpochSession {
                lanes,
                global,
                epoch,
                epochs,
                cfg: cfg.clone(),
                plan: plan.clone(),
                ck: Some(ck.clone()),
                storage: Some(storage),
                kill,
                sup,
            })),
            info,
        ))
    }

    /// Sum of the lanes' journaled exec counters — what the harness
    /// reports as "killed at N execs" when a storage crash boundary fires.
    fn lanes_execs(&self) -> u64 {
        self.lanes.iter().map(|l| l.state.scalars.execs).sum()
    }

    /// Run exactly one epoch to its merge barrier (including checkpoint
    /// rotation when armed). Returns what to do next; a `Killed` session
    /// must not be stepped again.
    pub(crate) fn step_epoch(
        &mut self,
        factory: &dyn ExecutorFactory,
    ) -> Result<EpochStatus, CampaignError> {
        if self.epoch >= self.epochs {
            return Ok(EpochStatus::Finished);
        }
        let epoch = self.epoch;
        let track = self.ck.is_some();
        // Recovery snapshots for this epoch: barrier state + executor
        // export, per live lane. Dead lanes have nothing to recover.
        let recovery: Vec<Option<SnapshotState>> = self
            .lanes
            .iter_mut()
            .enumerate()
            .map(|(i, l)| {
                (!self.sup.dead[i]).then(|| {
                    let mut st = l.state.clone();
                    st.exec_state = l.executor.export_state();
                    st
                })
            })
            .collect();
        let faults = run_epoch_parallel(
            &mut self.lanes,
            epoch,
            self.epochs,
            self.plan.workers,
            track,
            self.kill.as_ref(),
            &self.sup,
        )?;
        if let Some(k) = &self.kill {
            if k.stopped() {
                // Simulated SIGKILL: stop right here — no barrier, no
                // snapshot, no recovery (resume replays the journals
                // whatever state the faulted lane left them in).
                return Ok(EpochStatus::Killed { execs: k.execs() });
            }
        }
        if self.storage.as_ref().is_some_and(Storage::crashed) {
            // A lane's journal stream hit an injected crash boundary: the
            // machine died mid-epoch. No recovery, no barrier — resume
            // replays whatever prefix reached the disk.
            return Ok(EpochStatus::Killed { execs: self.lanes_execs() });
        }
        for (idx, fault) in faults.into_iter().enumerate() {
            let Some(fault) = fault else { continue };
            let Some(snap) = &recovery[idx] else { continue };
            recover_lane(
                &mut self.lanes,
                idx,
                epoch,
                self.epochs,
                snap,
                fault,
                factory,
                self.ck.as_ref(),
                self.storage.as_ref(),
                self.kill.as_ref(),
                &mut self.sup,
            )?;
            if self.storage.as_ref().is_some_and(Storage::crashed) {
                return Ok(EpochStatus::Killed { execs: self.lanes_execs() });
            }
        }
        self.global.merge_epoch(&mut self.lanes);
        if let (Some(ck), Some(st)) = (self.ck.as_ref(), self.storage.as_ref()) {
            for lane in self.lanes.iter_mut() {
                lane.journal = None; // close the finished epoch's journals
            }
            if write_shard_snapshot(st, ck, epoch + 1, &mut self.lanes).crashed()
                || rotate_shards(st, ck).crashed()
                || (epoch + 1 < self.epochs && open_journals(st, ck, epoch + 1, &mut self.lanes))
            {
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

    #[test]
    fn archive_keeps_newest_snapshot_and_its_journals() {
        let dir = std::env::temp_dir()
            .join(format!("cx-archive-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tempdir");
        for epoch in [1u64, 3, 7] {
            fs::write(shard_snapshot_path(&dir, epoch), b"snap").expect("write");
        }
        for epoch in 0..9u64 {
            fs::write(shard_journal_path(&dir, epoch, 0), b"jrnl").expect("write");
        }
        fs::write(dir.join("spec.bin"), b"spec").expect("write");
        fs::write(dir.join("decoded-image.bin"), b"sidecar").expect("write");

        let (removed, warnings) = archive_shard_dir(&dir);
        assert_eq!(warnings, 0);
        // 2 older snapshots + journals for epochs 0..=6.
        assert_eq!(removed, 2 + 7);
        let mut left: Vec<String> = fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(
            left,
            vec![
                "decoded-image.bin".to_string(),
                "shard-ckpt-000007.bin".to_string(),
                "shard-journal-000007-000.bin".to_string(),
                "shard-journal-000008-000.bin".to_string(),
                "spec.bin".to_string(),
            ],
            "only the sealed snapshot, its resume journals, and non-shard files survive"
        );
        // Idempotent: a second sweep finds nothing to remove.
        assert_eq!(archive_shard_dir(&dir), (0, 0));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn archive_without_snapshots_is_a_no_op() {
        let dir = std::env::temp_dir()
            .join(format!("cx-archive-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tempdir");
        fs::write(shard_journal_path(&dir, 0, 0), b"jrnl").expect("write");
        assert_eq!(
            archive_shard_dir(&dir),
            (0, 0),
            "no sealed snapshot yet: journals must survive untouched"
        );
        assert!(shard_journal_path(&dir, 0, 0).is_file());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn shard_file_names_round_trip() {
        assert_eq!(parse_shard_snapshot("shard-ckpt-000007.bin"), Some(7));
        assert_eq!(parse_shard_snapshot("shard-ckpt-7.bin"), None);
        assert_eq!(
            parse_shard_journal("shard-journal-000003-002.bin"),
            Some((3, 2))
        );
        assert_eq!(parse_shard_journal("shard-journal-3-2.bin"), None);
        assert_eq!(parse_shard_journal("ckpt-000000000001.bin"), None);
    }
}
