//! The campaign driver: one "trial" of the paper's evaluation.
//!
//! Runs a coverage-guided loop against any execution mechanism until a
//! simulated-cycle budget is exhausted, recording throughput, coverage
//! growth, and deduplicated crashes with discovery times.
//!
//! The loop is structured as an explicit **state machine**: every piece of
//! state that influences future behavior — the stage position (`Stage`),
//! the queue and its round-robin cursor, both RNG streams, the virgin map,
//! and every counter — lives in the `Driver` and is serializable. That is
//! what makes crash-safe checkpointing (see [`crate::checkpoint`]) exact: a
//! campaign killed at any execution boundary and resumed from disk takes
//! the same decisions, in the same order, as one that never died.

use std::collections::HashMap;

use closurex::executor::{ExecStatus, Executor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vmos::cov::VirginMap;
use vmos::CrashKind;

use crate::mutate;
use crate::queue::{Queue, QueueEntry};
use crate::stats::{CampaignResult, CrashRecord, ResilienceCounters};

/// Havoc iterations per scheduled queue entry (AFL's stage cycle).
pub(crate) const HAVOC_ITERS: u32 = 32;

/// Salt mixed into the campaign seed for the independent backoff-jitter
/// stream, so backoff draws never perturb the mutation schedule.
const BACKOFF_SEED_SALT: u64 = 0x6261_636b_6f66_6621; // "backoff!"

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Cycle budget (the "24 hours" analog).
    pub budget_cycles: u64,
    /// RNG seed (one per trial).
    pub seed: u64,
    /// Run AFL's deterministic stage on fresh queue entries.
    pub deterministic_stage: bool,
    /// Stop early after this many deduplicated crashes (0 = never).
    pub stop_after_crashes: usize,
    /// Re-execute an input up to this many times when the *harness* (not
    /// the target) faults — transient fork refusals usually clear.
    pub max_retries: u32,
    /// Consecutive-hang watchdog: after this many hangs in a row, abandon
    /// the current mutation batch (0 = watchdog off). A wedged substrate
    /// burns the whole budget on fuel exhaustion otherwise.
    pub max_consecutive_hangs: u64,
    /// Base backoff (simulated cycles) charged before each harness-fault
    /// retry; doubles per attempt, plus deterministic seeded jitter in
    /// `[0, base)`. Hammering a faulting substrate with immediate retries
    /// just re-triggers the same transient fault; the delay — charged to
    /// the campaign clock as management overhead — gives it room to clear.
    /// 0 disables backoff.
    pub retry_backoff_cycles: u64,
    /// Replay each first-discovery crash in the revalidation executor (a
    /// fresh process, see [`crate::Campaign::revalidator`]); records whose
    /// crash does not reproduce at the same site are tagged
    /// [`CrashRecord::flaky`] rather than dropped.
    pub revalidate_crashes: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            budget_cycles: 200_000_000,
            seed: 1,
            deterministic_stage: true,
            stop_after_crashes: 0,
            max_retries: 3,
            max_consecutive_hangs: 32,
            retry_backoff_cycles: 2_000,
            revalidate_crashes: false,
        }
    }
}

impl CampaignConfig {
    /// Encode for transfer to a worker process — a lane's behavior is a
    /// pure function of its config, so the child must receive every field.
    pub(crate) fn encode(&self, w: &mut vmos::Writer) {
        w.put_u64(self.budget_cycles);
        w.put_u64(self.seed);
        w.put_bool(self.deterministic_stage);
        w.put_usize(self.stop_after_crashes);
        w.put_u32(self.max_retries);
        w.put_u64(self.max_consecutive_hangs);
        w.put_u64(self.retry_backoff_cycles);
        w.put_bool(self.revalidate_crashes);
    }

    /// Decode a config written by [`CampaignConfig::encode`].
    pub(crate) fn decode(r: &mut vmos::Reader<'_>) -> Result<Self, vmos::WireError> {
        Ok(CampaignConfig {
            budget_cycles: r.get_u64()?,
            seed: r.get_u64()?,
            deterministic_stage: r.get_bool()?,
            stop_after_crashes: r.get_count()?,
            max_retries: r.get_u32()?,
            max_consecutive_hangs: r.get_u64()?,
            retry_backoff_cycles: r.get_u64()?,
            revalidate_crashes: r.get_bool()?,
        })
    }
}

/// Where in the campaign loop the driver stands. Every variant carries the
/// indices needed to resume mid-stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Running the initial seed corpus; the index is the next seed to run.
    Seeds(usize),
    /// Choosing the next queue entry (round-robin).
    Pick,
    /// Deterministic stage on `entry`; `mutant` is the next mutant index.
    Det {
        /// Queue entry being mutated.
        entry: usize,
        /// Next deterministic-mutant index to execute.
        mutant: usize,
    },
    /// Havoc stage on `entry`; `iter` is the next havoc iteration.
    Havoc {
        /// Queue entry being mutated.
        entry: usize,
        /// Next havoc iteration (0..[`HAVOC_ITERS`]).
        iter: u32,
    },
    /// Budget exhausted (or early-stop); no further executions.
    Done,
}

/// What one [`Driver::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Exactly one test case was executed.
    Ran,
    /// The campaign is finished; no execution happened.
    Finished,
}

/// Mutable campaign state, threaded through every execution. All
/// behavior-relevant fields are plain data (see module docs); the
/// checkpoint layer serializes them wholesale.
pub(crate) struct Driver<'e> {
    pub(crate) executor: &'e mut dyn Executor,
    /// Fresh-process executor crashes are replayed in when
    /// [`CampaignConfig::revalidate_crashes`] is set.
    pub(crate) revalidator: Option<&'e mut dyn Executor>,
    pub(crate) cfg: CampaignConfig,
    pub(crate) seeds: Vec<Vec<u8>>,
    pub(crate) stage: Stage,
    pub(crate) rng: SmallRng,
    pub(crate) backoff_rng: SmallRng,
    pub(crate) queue: Queue,
    pub(crate) virgin: VirginMap,
    pub(crate) clock: u64,
    pub(crate) execs: u64,
    pub(crate) hangs: u64,
    pub(crate) mgmt_cycles: u64,
    pub(crate) exec_cycles: u64,
    /// Lookup only — never iterated, so the map's order cannot influence
    /// campaign behavior, and it is rebuilt from `crashes` on resume.
    pub(crate) crash_sites: HashMap<(CrashKind, String, u32), usize>,
    pub(crate) crashes: Vec<CrashRecord>,
    pub(crate) retries: u64,
    pub(crate) dropped_inputs: u64,
    pub(crate) harness_faults: u64,
    pub(crate) consecutive_hangs: u64,
    pub(crate) watchdog_trips: u64,
    /// Deterministic mutants of the entry currently in [`Stage::Det`].
    /// Pure function of the entry's data — never serialized, rebuilt
    /// lazily after a resume.
    det_cache: Option<(usize, Vec<Vec<u8>>)>,
}

impl<'e> Driver<'e> {
    pub(crate) fn new(
        executor: &'e mut dyn Executor,
        revalidator: Option<&'e mut dyn Executor>,
        seeds: &[Vec<u8>],
        cfg: &CampaignConfig,
    ) -> Self {
        Driver {
            executor,
            revalidator,
            cfg: cfg.clone(),
            seeds: seeds.to_vec(),
            stage: Stage::Seeds(0),
            rng: SmallRng::seed_from_u64(cfg.seed),
            backoff_rng: SmallRng::seed_from_u64(cfg.seed ^ BACKOFF_SEED_SALT),
            queue: Queue::new(),
            virgin: VirginMap::new(),
            clock: 0,
            execs: 0,
            hangs: 0,
            mgmt_cycles: 0,
            exec_cycles: 0,
            crash_sites: HashMap::new(),
            crashes: Vec::new(),
            retries: 0,
            dropped_inputs: 0,
            harness_faults: 0,
            consecutive_hangs: 0,
            watchdog_trips: 0,
            det_cache: None,
        }
    }

    /// Rebuild the crash-site dedup index from the crash records (after a
    /// checkpoint load).
    pub(crate) fn rebuild_crash_sites(&mut self) {
        self.crash_sites = self
            .crashes
            .iter()
            .enumerate()
            .map(|(i, r)| (r.crash.site_key(), i))
            .collect();
    }

    /// Replay a first-discovery crash in the revalidation executor; returns
    /// `true` when it reproduced at the same site. The replay's cycles are
    /// campaign machinery overhead, charged to the clock as management.
    ///
    /// Sites are compared modulo the persistent-mode entry-point rename
    /// (`main` → `target_main`): the revalidator typically runs the
    /// *untransformed* module, where the same faulting block lives in the
    /// original function name.
    fn crash_reproduces(&mut self, input: &[u8], key: &(CrashKind, String, u32)) -> bool {
        fn canonical(key: &(CrashKind, String, u32)) -> (CrashKind, &str, u32) {
            (key.0, key.1.strip_prefix("target_").unwrap_or(&key.1), key.2)
        }
        let Some(rv) = self.revalidator.as_deref_mut() else {
            // No revalidator wired up: nothing to contradict the record.
            return true;
        };
        let out = rv.run(input);
        self.clock += out.total_cycles();
        self.mgmt_cycles += out.total_cycles();
        match out.status.crash() {
            Some(c) => canonical(&c.site_key()) == canonical(key),
            None => false,
        }
    }

    /// Execute one input, fold its results into the campaign state, and
    /// enqueue it if it produced new coverage. Harness faults are retried
    /// up to `max_retries` times — they mean the machinery hiccuped, not
    /// that the input is interesting — and dropped if they never clear.
    /// Each retry waits out an exponential backoff (in simulated cycles)
    /// with seeded jitter before re-executing.
    fn run_one(&mut self, input: &[u8]) {
        let mut attempts = 0;
        let out = loop {
            let out = self.executor.run(input);
            self.execs += 1;
            self.clock += out.total_cycles();
            self.mgmt_cycles += out.mgmt_cycles;
            self.exec_cycles += out.exec_cycles;
            if out.status.fault().is_none() {
                break out;
            }
            self.harness_faults += 1;
            if attempts >= self.cfg.max_retries {
                self.dropped_inputs += 1;
                return;
            }
            attempts += 1;
            self.retries += 1;
            if self.cfg.retry_backoff_cycles > 0 {
                let base = self.cfg.retry_backoff_cycles;
                let delay =
                    (base << u64::from(attempts - 1).min(10)) + self.backoff_rng.gen_range(0..base);
                self.clock += delay;
                self.mgmt_cycles += delay;
            }
        };
        match &out.status {
            ExecStatus::Crash(c) => {
                self.consecutive_hangs = 0;
                let key = c.site_key();
                if let Some(&idx) = self.crash_sites.get(&key) {
                    self.crashes[idx].hits += 1;
                } else {
                    let found_at_cycles = self.clock;
                    let flaky =
                        self.cfg.revalidate_crashes && !self.crash_reproduces(input, &key);
                    self.crash_sites.insert(key, self.crashes.len());
                    self.crashes.push(CrashRecord {
                        crash: c.clone(),
                        found_at_cycles,
                        input: input.to_vec(),
                        hits: 1,
                        flaky,
                    });
                }
            }
            ExecStatus::Hang => {
                self.hangs += 1;
                self.consecutive_hangs += 1;
            }
            ExecStatus::Exit(_) => self.consecutive_hangs = 0,
            ExecStatus::Fault(_) => unreachable!("faults handled by retry loop"),
        }
        // Crashes and hangs are saved in their own buckets (AFL's
        // crashes/ and hangs/ dirs); only clean coverage-increasing
        // inputs become queue seeds.
        let clean = matches!(out.status, ExecStatus::Exit(_));
        let edges_before = self.virgin.edges_found();
        let new_cov = self.virgin.merge(self.executor.coverage());
        if new_cov && clean {
            self.queue.push(QueueEntry {
                data: input.to_vec(),
                exec_cycles: out.total_cycles(),
                found_at: self.clock,
                det_done: false,
                // A brand-new edge (not just a new bucket) marks the entry
                // favored; round-robin scheduling ignores the bit, so
                // unsharded behavior is unchanged.
                favored: self.virgin.edges_found() > edges_before,
            });
        }
    }

    /// Has the consecutive-hang watchdog fired? If so, reset it and record
    /// the trip; the caller abandons its current mutation batch.
    fn watchdog_tripped(&mut self) -> bool {
        if self.cfg.max_consecutive_hangs > 0
            && self.consecutive_hangs >= self.cfg.max_consecutive_hangs
        {
            self.watchdog_trips += 1;
            self.consecutive_hangs = 0;
            return true;
        }
        false
    }

    fn exhausted(&self) -> bool {
        self.clock >= self.cfg.budget_cycles
            || (self.cfg.stop_after_crashes > 0 && self.crashes.len() >= self.cfg.stop_after_crashes)
    }

    /// Advance the campaign by **at most one execution**: internal stage
    /// transitions (picking the next entry, finishing a mutant batch) are
    /// folded in until either one test case has run or the campaign is
    /// done. Kills and snapshot cadence are counted in these steps.
    pub(crate) fn step(&mut self) -> StepOutcome {
        loop {
            match self.stage {
                Stage::Seeds(i) => {
                    if i < self.seeds.len() {
                        // The seed corpus always runs in full, budget or
                        // not — a campaign with no baseline coverage has
                        // nothing to mutate.
                        self.stage = Stage::Seeds(i + 1);
                        let s = self.seeds[i].clone();
                        self.run_one(&s);
                        return StepOutcome::Ran;
                    }
                    if self.queue.is_empty() {
                        // Guarantee a mutation base even if no seed added
                        // coverage.
                        self.queue.push(QueueEntry {
                            data: self.seeds.first().cloned().unwrap_or_else(|| vec![0]),
                            exec_cycles: 1,
                            found_at: 0,
                            det_done: true,
                            favored: false,
                        });
                    }
                    self.stage = Stage::Pick;
                }
                Stage::Pick => {
                    if self.exhausted() {
                        self.stage = Stage::Done;
                        continue;
                    }
                    // The queue is seeded above and only grows, but a
                    // campaign must never panic on machinery trouble —
                    // bail out instead.
                    let Some(idx) = self.queue.next_index() else {
                        self.stage = Stage::Done;
                        continue;
                    };
                    let det_pending = self.cfg.deterministic_stage
                        && !self.queue.get(idx).map(|e| e.det_done).unwrap_or(true);
                    if det_pending {
                        // Deterministic stage, once per entry.
                        if let Some(e) = self.queue.get_mut(idx) {
                            e.det_done = true;
                        }
                        self.stage = Stage::Det {
                            entry: idx,
                            mutant: 0,
                        };
                    } else {
                        self.stage = Stage::Havoc {
                            entry: idx,
                            iter: 0,
                        };
                    }
                }
                Stage::Det { entry, mutant } => {
                    if self.det_cache.as_ref().map(|(e, _)| *e) != Some(entry) {
                        let base = self
                            .queue
                            .get(entry)
                            .map(|e| e.data.clone())
                            .unwrap_or_default();
                        self.det_cache = Some((entry, mutate::deterministic(&base)));
                    }
                    let total = self.det_cache.as_ref().map_or(0, |(_, m)| m.len());
                    if mutant >= total {
                        self.stage = Stage::Pick;
                        continue;
                    }
                    if self.exhausted() || self.watchdog_tripped() {
                        self.stage = Stage::Pick;
                        continue;
                    }
                    // Bounce, don't abort, if the cache slot is somehow
                    // gone — the campaign control path must never panic.
                    let Some(m) = self
                        .det_cache
                        .as_ref()
                        .and_then(|(_, ms)| ms.get(mutant))
                        .cloned()
                    else {
                        self.stage = Stage::Pick;
                        continue;
                    };
                    self.stage = Stage::Det {
                        entry,
                        mutant: mutant + 1,
                    };
                    self.run_one(&m);
                    return StepOutcome::Ran;
                }
                Stage::Havoc { entry, iter } => {
                    if iter >= HAVOC_ITERS {
                        self.stage = Stage::Pick;
                        continue;
                    }
                    if self.exhausted() || self.watchdog_tripped() {
                        self.stage = Stage::Pick;
                        continue;
                    }
                    let Some(base) = self.queue.get(entry).map(|e| e.data.clone()) else {
                        self.stage = Stage::Pick;
                        continue;
                    };
                    let other = if self.queue.len() > 1 && self.rng.gen_bool(0.2) {
                        let j = self.rng.gen_range(0..self.queue.len());
                        self.queue.get(j).map(|e| e.data.clone())
                    } else {
                        None
                    };
                    let mutant = mutate::havoc(&base, other.as_deref(), &mut self.rng);
                    self.stage = Stage::Havoc {
                        entry,
                        iter: iter + 1,
                    };
                    self.run_one(&mutant);
                    return StepOutcome::Ran;
                }
                Stage::Done => return StepOutcome::Finished,
            }
        }
    }

    /// Assemble the final [`CampaignResult`]. The executor's own
    /// [`closurex::ResilienceReport`] is embedded verbatim — no
    /// field-by-field copying, one source of truth.
    pub(crate) fn finish(&mut self) -> CampaignResult {
        CampaignResult {
            executor: self.executor.name().to_string(),
            execs: self.execs,
            clock_cycles: self.clock,
            edges_found: self.virgin.edges_found(),
            coverage_hash: vmos::wire::fnv1a(self.virgin.as_bytes()),
            crashes: self.crashes.clone(),
            queue_len: self.queue.len(),
            hangs: self.hangs,
            mgmt_cycles: self.mgmt_cycles,
            exec_cycles: self.exec_cycles,
            queue_inputs: self.queue.inputs(),
            resilience: ResilienceCounters {
                executor: self.executor.resilience(),
                harness_faults: self.harness_faults,
                retries: self.retries,
                dropped_inputs: self.dropped_inputs,
                watchdog_trips: self.watchdog_trips,
                supervision: Default::default(),
                storage: Default::default(),
            },
            resume: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Campaign;
    use closurex::forkserver::ForkServerExecutor;
    use closurex::fresh::FreshProcessExecutor;
    use closurex::harness::{ClosureXConfig, ClosureXExecutor};
    use closurex::naive::NaivePersistentExecutor;

    fn run(ex: &mut dyn Executor, seeds: &[Vec<u8>], cfg: &CampaignConfig) -> CampaignResult {
        Campaign::new(seeds, cfg)
            .executor(ex)
            .run()
            .unwrap()
            .finished()
            .expect("no kill configured")
    }

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

    #[test]
    fn campaign_finds_planted_magic_crash() {
        let m = minic::compile("t", TARGET).unwrap();
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        let cfg = CampaignConfig {
            budget_cycles: 80_000_000,
            seed: 11,
            deterministic_stage: true,
            stop_after_crashes: 1,
            ..CampaignConfig::default()
        };
        let res = run(&mut ex, &[b"FAAA".to_vec()], &cfg);
        assert!(
            !res.crashes.is_empty(),
            "magic-byte crash should be found: edges={} execs={}",
            res.edges_found,
            res.execs
        );
        assert_eq!(res.crashes[0].crash.kind, vmos::CrashKind::NullPtrDeref);
        assert!(!res.crashes[0].flaky, "revalidation off: never tagged");
        assert!(res.queue_len >= 2, "coverage ladder must grow the queue");
    }

    #[test]
    fn closurex_outruns_forkserver_on_same_budget() {
        let m = minic::compile("t", TARGET).unwrap();
        let budget = 40_000_000;
        let cfg = |seed| CampaignConfig {
            budget_cycles: budget,
            seed,
            deterministic_stage: false,
            stop_after_crashes: 0,
            ..CampaignConfig::default()
        };
        let mut cx = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        let r_cx = run(&mut cx, &[b"AAAA".to_vec()], &cfg(5));
        let mut fk = ForkServerExecutor::new(&m).unwrap();
        let r_fk = run(&mut fk, &[b"AAAA".to_vec()], &cfg(5));
        assert!(
            r_cx.execs > r_fk.execs * 2,
            "closurex {} execs vs forkserver {} execs",
            r_cx.execs,
            r_fk.execs
        );
    }

    #[test]
    fn identical_seeds_give_identical_campaigns() {
        let m = minic::compile("t", TARGET).unwrap();
        let cfg = CampaignConfig {
            budget_cycles: 10_000_000,
            seed: 99,
            deterministic_stage: true,
            stop_after_crashes: 0,
            ..CampaignConfig::default()
        };
        let mut a = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        let ra = run(&mut a, &[b"seed".to_vec()], &cfg);
        let mut b = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        let rb = run(&mut b, &[b"seed".to_vec()], &cfg);
        assert_eq!(ra.execs, rb.execs);
        assert_eq!(ra.edges_found, rb.edges_found);
        assert_eq!(ra.coverage_hash, rb.coverage_hash);
    }

    #[test]
    fn retry_backoff_charges_deterministic_cycles() {
        // Under constant fork refusal every input faults through all
        // retries; with backoff the clock must advance strictly faster
        // than without, and identically across runs with the same seed.
        let m = minic::compile("t", "fn main() { return load64(0); }").unwrap();
        let run = |backoff| {
            let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
            ex.inject_faults(vmos::FaultPlan {
                seed: 5,
                fork_fail: 1.0,
                ..vmos::FaultPlan::none()
            });
            let cfg = CampaignConfig {
                budget_cycles: 2_000_000,
                seed: 7,
                retry_backoff_cycles: backoff,
                ..CampaignConfig::default()
            };
            run(&mut ex, &[b"X".to_vec()], &cfg)
        };
        let with = run(10_000);
        let with2 = run(10_000);
        let without = run(0);
        assert!(with.resilience.retries > 0, "faults must trigger retries");
        assert_eq!(
            with.clock_cycles, with2.clock_cycles,
            "jittered backoff must still be deterministic"
        );
        assert!(
            with.execs < without.execs,
            "backoff must slow the retry hammer: {} vs {}",
            with.execs,
            without.execs
        );
    }

    #[test]
    fn stateful_crash_tagged_flaky_by_revalidation() {
        // Naive persistent execution accumulates `count` across runs; the
        // crash only fires from stale state, so a fresh-process replay
        // cannot reproduce it — exactly what the flaky tag is for.
        let src = r#"
            global count;
            fn main() {
                count = count + 1;
                if (count > 1) { return load64(0); }
                return 0;
            }
        "#;
        let m = minic::compile("t", src).unwrap();
        let mut ex = NaivePersistentExecutor::new(&m).unwrap();
        let mut rv = FreshProcessExecutor::new(&m).unwrap();
        let cfg = CampaignConfig {
            budget_cycles: 1_000_000,
            seed: 3,
            stop_after_crashes: 1,
            revalidate_crashes: true,
            ..CampaignConfig::default()
        };
        let res = Campaign::new(&[b"a".to_vec()], &cfg)
            .executor(&mut ex)
            .revalidator(&mut rv)
            .run()
            .unwrap()
            .finished()
            .unwrap();
        assert!(!res.crashes.is_empty(), "stale-state crash must fire");
        assert!(
            res.crashes[0].flaky,
            "fresh replay can't reproduce a stale-state crash"
        );
    }

    #[test]
    fn genuine_crash_not_tagged_flaky() {
        let m = minic::compile("t", TARGET).unwrap();
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        let mut rv = FreshProcessExecutor::new(&m).unwrap();
        let cfg = CampaignConfig {
            budget_cycles: 80_000_000,
            seed: 11,
            stop_after_crashes: 1,
            revalidate_crashes: true,
            ..CampaignConfig::default()
        };
        let res = Campaign::new(&[b"FAAA".to_vec()], &cfg)
            .executor(&mut ex)
            .revalidator(&mut rv)
            .run()
            .unwrap()
            .finished()
            .unwrap();
        assert!(!res.crashes.is_empty());
        assert!(
            !res.crashes[0].flaky,
            "the planted crash reproduces in a fresh process"
        );
    }
}
