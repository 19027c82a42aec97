//! The ClosureX harness: a persistent loop with fine-grain state
//! restoration (paper §4, Listing 1).
//!
//! Per iteration the harness:
//!
//! 1. waits for the fuzzer's next test case (here: the input argument),
//! 2. arms the abnormal-exit restore point (the `setjmp` of Listing 1 —
//!    realized as the interpreter's `ExitHooked` unwind, installed by the
//!    `ExitPass`),
//! 3. calls `target_main`,
//! 4. restores state: the **stack** is already unwound (normal return or
//!    hook), then leaked **heap** chunks are swept via the chunk map
//!    (Fig. 5), the **global** section is restored from its snapshot
//!    (Fig. 4), and stray **file handles** are closed — with
//!    initialization-phase handles rewound instead of reopened.
//!
//! Construction applies the full ClosureX pass pipeline; no fuzzer or
//! target modification is needed, mirroring the paper's AFL++ integration.

use std::cell::RefCell;
use std::sync::Arc;

use fir::{Module, Section};
use passes::pipelines::closurex_pipeline;
use passes::{PassError, PassReport, TARGET_MAIN};
use vmos::fs::FUZZ_INPUT_PATH;
use vmos::mem::PageTable;
use vmos::{
    CallResult, CovMap, DecodedImage, FaultPlan, FaultPlane, ForkServer, HostCtx, Machine, Os,
    Process,
};

use crate::checkpoint::ExecutorState;
use crate::executor::{ExecOutcome, ExecStatus, Executor, DEFAULT_FUEL};
use crate::forkserver::{fork_exec, ChildCall};
use crate::resilience::{
    fnv1a, DegradationLevel, HarnessError, IntegrityPolicy, ResilienceReport, RestoreDivergence,
};

/// Most quarantined inputs retained for inspection; older entries are
/// dropped first (campaigns only need a sample, not an unbounded log).
const QUARANTINE_CAP: usize = 64;

/// Which global-restore implementation to use (ablation target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestoreStrategy {
    /// Copy the whole `closure_global_section` back (the paper's design).
    #[default]
    FullSection,
    /// Scan for dirty bytes and rewrite only those (cheaper restore for
    /// sparse writers, pays a scan).
    DirtyOnly,
}

/// Harness configuration, including the ablation toggles DESIGN.md lists.
#[derive(Debug, Clone)]
pub struct ClosureXConfig {
    /// Per-test-case instruction budget.
    pub fuel: u64,
    /// Run one warm-up iteration at boot and snapshot *after* it, hoisting
    /// input-independent initialization out of the loop (the paper's
    /// deferred-initialization future-work feature).
    pub deferred_init: bool,
    /// Input for the warm-up iteration.
    pub warmup_input: Vec<u8>,
    /// Global-restore strategy.
    pub restore_strategy: RestoreStrategy,
    /// Sweep leaked heap chunks (ablation toggle).
    pub heap_sweep: bool,
    /// Restore the global section (ablation toggle).
    pub global_restore: bool,
    /// Close stray file handles (ablation toggle).
    pub fd_sweep: bool,
    /// Rewind init-phase handles instead of closing them.
    pub init_fd_rewind: bool,
    /// Online restore-integrity verification policy.
    pub integrity: IntegrityPolicy,
}

impl Default for ClosureXConfig {
    fn default() -> Self {
        ClosureXConfig {
            fuel: DEFAULT_FUEL,
            deferred_init: false,
            warmup_input: Vec::new(),
            restore_strategy: RestoreStrategy::FullSection,
            heap_sweep: true,
            global_restore: true,
            fd_sweep: true,
            init_fd_rewind: true,
            integrity: IntegrityPolicy::default(),
        }
    }
}

/// Per-iteration restoration statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Bytes written back into the global section.
    pub global_bytes: u64,
    /// Leaked chunks freed by the sweep.
    pub leaked_chunks: u64,
    /// Stray handles closed.
    pub stray_fds: u64,
    /// Init-phase handles rewound.
    pub init_rewinds: u64,
    /// Total restore cycles charged.
    pub cycles: u64,
}

/// The ClosureX execution mechanism. See module docs.
#[derive(Debug)]
pub struct ClosureXExecutor {
    os: Os,
    module: Module,
    image: Arc<DecodedImage>,
    proc: Option<Process>,
    /// Ground-truth snapshot of `closure_global_section`.
    snapshot: Vec<u8>,
    /// `(addr, size)` of the section (the CLOSURE_GLOBAL_SECTION_* analog).
    section: Option<(u64, u64)>,
    cov: CovMap,
    cfg: ClosureXConfig,
    pass_reports: Vec<PassReport>,
    last_restore: RestoreStats,
    baseline_heap_bytes: u64,
    respawns: u64,
    /// Forkserver over the pristine post-boot process image. After a
    /// crash kills the persistent process, recovery is a `fork` of this
    /// template (the AFL++-forkserver integration the paper uses), not a
    /// full re-exec; the fork-per-exec rung runs every input in its
    /// recycled child.
    template: Option<ForkServer>,
    /// FNV-1a of the boot-time global snapshot (integrity ground truth).
    boot_hash: u64,
    /// Open descriptors right after boot (integrity ground truth).
    baseline_fd_open: usize,
    /// Restores performed (drives the sampled integrity check cadence).
    iters: u64,
    /// Integrity checks performed.
    integrity_checks: u64,
    /// Divergences the integrity check has detected.
    divergences: u64,
    /// Most recent divergence, for inspection and reports.
    last_divergence: Option<RestoreDivergence>,
    /// Inputs whose observed behavior is untrustworthy because the restore
    /// they ran on top of had diverged (bounded at [`QUARANTINE_CAP`]).
    quarantine: Vec<Vec<u8>>,
    /// Quarantined inputs evicted past [`QUARANTINE_CAP`] — reports use
    /// this to flag the ring as a sample rather than the full set.
    quarantine_dropped: u64,
    /// Harness faults surfaced as [`ExecStatus::Fault`].
    harness_faults: u64,
    /// Current position on the degradation ladder.
    degradation: DegradationLevel,
    /// Cached `Module::fingerprint` of the *transformed* module — the same
    /// module the decoded-image cache is keyed by, so checkpoints written
    /// against this executor validate against what actually runs.
    fingerprint: u64,
    /// Last `private_pages_vs(template)` result, keyed by the (process,
    /// template) ownership stamps it was computed for. The persistent
    /// process's private-page set almost never changes between execs, so
    /// per-exec checkpoint exports reuse it instead of walking the table.
    private_pages: RefCell<Option<PrivatePages>>,
}

/// A `private_pages_vs` result and the (process, template) ownership
/// stamps it was computed for.
type PrivatePages = ((u64, u64), Vec<u64>);

impl ClosureXExecutor {
    /// Apply the ClosureX pipeline to `module` and boot the harness
    /// process.
    ///
    /// # Errors
    /// Propagates pass failures (e.g. no `main` in the target).
    pub fn new(module: &Module, cfg: ClosureXConfig) -> Result<Self, PassError> {
        let mut m = module.clone();
        let pass_reports = closurex_pipeline().run(&mut m)?;
        let image = DecodedImage::cached(&m);
        let fingerprint = m.fingerprint();
        let mut ex = ClosureXExecutor {
            os: Os::new(),
            module: m,
            image,
            proc: None,
            snapshot: Vec::new(),
            section: None,
            cov: CovMap::new(),
            cfg,
            pass_reports,
            last_restore: RestoreStats::default(),
            baseline_heap_bytes: 0,
            respawns: 0,
            template: None,
            boot_hash: 0,
            baseline_fd_open: 0,
            iters: 0,
            integrity_checks: 0,
            divergences: 0,
            last_divergence: None,
            quarantine: Vec::new(),
            quarantine_dropped: 0,
            harness_faults: 0,
            degradation: DegradationLevel::Persistent,
            fingerprint,
            private_pages: RefCell::new(None),
        };
        // The fault plane is still disabled at construction, so boot cannot
        // be refused here; if it ever is, the first run surfaces the fault.
        let _ = ex.boot();
        Ok(ex)
    }

    /// Boot (or re-boot after a crash): spawn, optionally run deferred
    /// init, and take the ground-truth global snapshot.
    ///
    /// # Errors
    /// [`HarnessError::BootFailed`] when the OS refuses the spawn.
    fn boot(&mut self) -> Result<u64, HarnessError> {
        let (mut p, boot_cycles) = self
            .os
            .try_spawn(&self.module)
            .map_err(|e| HarnessError::BootFailed(e.to_string()))?;
        p.rt.enabled = true;
        if self.cfg.deferred_init {
            // Warm-up iteration: initialization-time allocations and file
            // handles are exempt from the per-iteration sweep.
            p.rt.in_init_phase = true;
            self.os
                .fs
                .overwrite_file(FUZZ_INPUT_PATH, &self.cfg.warmup_input);
            let machine = Machine::with_image(&self.module, &self.image);
            let mut warm_cov = CovMap::new();
            let mut ctx = HostCtx::new(&mut self.os, &mut warm_cov);
            let _ = machine.call(&mut p, &mut ctx, TARGET_MAIN, &[0, 0], self.cfg.fuel);
            p.rt.in_init_phase = false;
            p.rt.chunk_map.clear();
            p.rt.open_files.clear();
            // Leave init-phase handles the way every iteration will find
            // them: rewound to the start.
            let init_handles: Vec<u64> = p.rt.init_files.clone();
            for h in init_handles {
                if let Some(f) = p.fds.get_mut(h) {
                    f.pos = 0;
                }
            }
        }
        self.section = p.globals.section_range(Section::ClosureGlobal);
        self.snapshot = match self.section {
            Some((addr, size)) => p.read_bytes(addr, size as usize),
            None => Vec::new(),
        };
        self.boot_hash = fnv1a(&self.snapshot);
        self.baseline_heap_bytes = p.heap.live_bytes();
        self.baseline_fd_open = p.fds.open_count();
        self.template = Some(ForkServer::new(p.clone()));
        self.proc = Some(p);
        Ok(boot_cycles)
    }

    /// Recover after a crash/hang/divergence: fork the pristine template
    /// (the forkserver-style restart AFL++ performs for a dead persistent
    /// child). If the fork is refused — the fault plane's process-table
    /// pressure — fall back to a full re-boot before giving up. Returns the
    /// cycles charged.
    ///
    /// # Errors
    /// [`HarnessError`] when both the template fork and the fallback boot
    /// are refused.
    fn respawn_from_template(&mut self) -> Result<u64, HarnessError> {
        let Some(template) = self.template.as_ref() else {
            // No template to fork — recovery degrades to a full boot.
            let cycles = self.boot()?;
            self.respawns += 1;
            return Ok(cycles);
        };
        match self.os.try_fork(template.parent()) {
            Ok((child, cycles)) => {
                self.proc = Some(child);
                self.respawns += 1;
                Ok(cycles)
            }
            Err(_) => {
                // Fork refused; a fresh spawn allocates no page tables from
                // the parent and may still succeed.
                let cycles = self.boot()?;
                self.respawns += 1;
                Ok(cycles)
            }
        }
    }

    /// `proc_mem.private_pages_vs(template)`, walking the tables only when
    /// either one's page ownership changed since the last call.
    fn private_pages(&self, proc_mem: &PageTable, template: &PageTable) -> Vec<u64> {
        let key = (proc_mem.ownership_stamp(), template.ownership_stamp());
        let mut cache = self.private_pages.borrow_mut();
        if let Some((cached_key, pages)) = cache.as_ref() {
            if *cached_key == key {
                debug_assert_eq!(
                    pages,
                    &proc_mem.private_pages_vs(template),
                    "private-page cache went stale"
                );
                return pages.clone();
            }
        }
        let pages = proc_mem.private_pages_vs(template);
        *cache = Some((key, pages.clone()));
        pages
    }

    /// Pass reports from instrumentation (Table 3 evidence).
    pub fn pass_reports(&self) -> &[PassReport] {
        &self.pass_reports
    }

    /// Restore statistics of the most recent iteration.
    pub fn last_restore(&self) -> RestoreStats {
        self.last_restore
    }

    /// `(addr, size)` of `closure_global_section`.
    pub fn section(&self) -> Option<(u64, u64)> {
        self.section
    }

    /// The live harness process (inspection in tests).
    pub fn process(&self) -> Option<&Process> {
        self.proc.as_ref()
    }

    /// Times the process was re-booted after a crash or hang.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Divergences the sampled integrity check has detected.
    pub fn divergences(&self) -> u64 {
        self.divergences
    }

    /// Most recent restore divergence, if any.
    pub fn last_divergence(&self) -> Option<&RestoreDivergence> {
        self.last_divergence.as_ref()
    }

    /// Inputs quarantined after a detected divergence (bounded sample).
    pub fn quarantined(&self) -> &[Vec<u8>] {
        &self.quarantine
    }

    /// Current position on the degradation ladder.
    pub fn degradation(&self) -> DegradationLevel {
        self.degradation
    }

    /// FNV-1a of the boot-time global snapshot (the integrity ground truth).
    pub fn boot_hash(&self) -> u64 {
        self.boot_hash
    }

    /// Verify post-restore state against the boot ground truth: global
    /// section bytes, then heap census, then fd census. Returns the first
    /// divergence found.
    fn check_integrity(&mut self) -> Option<RestoreDivergence> {
        self.integrity_checks += 1;
        let p = self.proc.as_ref()?;
        // The scan is charged like a bulk read of the section.
        if let Some((addr, size)) = self.section {
            let cycles = self.os.cost.bulk(1, size);
            self.os.mgmt_cycles += cycles;
            // Compare against the snapshot `boot_hash` was taken of; hash
            // only to report a mismatch.
            let current = p.read_bytes(addr, size as usize);
            if current != self.snapshot {
                return Some(RestoreDivergence::GlobalSectionHash {
                    expected: self.boot_hash,
                    actual: fnv1a(&current),
                });
            }
        }
        let live = p.heap.live_bytes();
        if live != self.baseline_heap_bytes {
            return Some(RestoreDivergence::HeapCensus {
                expected_bytes: self.baseline_heap_bytes,
                actual_bytes: live,
            });
        }
        let open = p.fds.open_count();
        if open != self.baseline_fd_open {
            return Some(RestoreDivergence::FdCensus {
                expected_open: self.baseline_fd_open,
                actual_open: open,
            });
        }
        None
    }

    /// React to a detected divergence: quarantine the input that ran on the
    /// corrupt state, discard the tainted process, respawn from the
    /// pristine template, and — past the policy threshold — fall down the
    /// continuum to fork-per-exec. Returns the respawn cycles charged.
    fn handle_divergence(&mut self, divergence: RestoreDivergence, input: &[u8]) -> u64 {
        self.divergences += 1;
        self.last_divergence = Some(divergence);
        if self.quarantine.len() >= QUARANTINE_CAP {
            self.quarantine.remove(0);
            self.quarantine_dropped += 1;
        }
        self.quarantine.push(input.to_vec());
        let mut cycles = 0;
        if let Some(tainted) = self.proc.take() {
            cycles += self.os.teardown(tainted);
        }
        // A failed respawn leaves proc None; the next run retries it.
        if let Ok(c) = self.respawn_from_template() {
            cycles += c;
        }
        let threshold = self.cfg.integrity.max_divergences;
        if threshold > 0 && self.divergences >= threshold {
            self.degradation = DegradationLevel::ForkPerExec;
        }
        cycles
    }

    /// Fork-per-exec fallback: run `input` in a throwaway fork of the
    /// pristine template (forkserver semantics — correct on any substrate,
    /// paying the fork + teardown the persistent loop was built to avoid).
    fn run_fork_per_exec(
        &mut self,
        trace: Option<&mut Vec<u16>>,
        capture_globals: bool,
    ) -> (ExecOutcome, Option<Vec<u8>>) {
        let Some(template) = self.template.as_mut() else {
            self.harness_faults += 1;
            return (
                ExecOutcome {
                    status: ExecStatus::Fault(HarnessError::TemplateMissing),
                    exec_cycles: 0,
                    mgmt_cycles: 0,
                    insts: 0,
                },
                None,
            );
        };
        let machine = Machine::with_image(&self.module, &self.image);
        let call = ChildCall {
            entry: TARGET_MAIN,
            fuel: self.cfg.fuel,
            pipe_cycles: 0,
            trace,
            capture: self.section.filter(|_| capture_globals),
        };
        fork_exec(&mut self.os, template, &machine, &mut self.cov, call).unwrap_or_else(|fault| {
            self.harness_faults += 1;
            (fault, None)
        })
    }

    /// Run one test case, optionally capturing a path trace and the global
    /// section contents *after* execution but *before* restoration — the
    /// capture point the correctness evaluation (§6.1.4) compares against
    /// fresh-process ground truth.
    pub fn run_captured(
        &mut self,
        input: &[u8],
        trace: Option<&mut Vec<u16>>,
        capture_globals: bool,
    ) -> (ExecOutcome, Option<Vec<u8>>) {
        self.cov.clear();
        self.os.fs.overwrite_file(FUZZ_INPUT_PATH, input);
        if self.degradation == DegradationLevel::ForkPerExec {
            return self.run_fork_per_exec(trace, capture_globals);
        }
        let mut mgmt = self.os.cost.persistent_loop;
        if self.proc.is_none() {
            match self.respawn_from_template() {
                Ok(c) => mgmt += c,
                Err(e) => {
                    self.harness_faults += 1;
                    return (
                        ExecOutcome {
                            status: ExecStatus::Fault(e),
                            exec_cycles: 0,
                            mgmt_cycles: mgmt,
                            insts: 0,
                        },
                        None,
                    );
                }
            }
        }
        let Some(p) = self.proc.as_mut() else {
            self.harness_faults += 1;
            return (
                ExecOutcome {
                    status: ExecStatus::Fault(HarnessError::ProcessLost),
                    exec_cycles: 0,
                    mgmt_cycles: mgmt,
                    insts: 0,
                },
                None,
            );
        };
        p.cov_state.reset();
        let machine = Machine::with_image(&self.module, &self.image);
        let out = {
            let mut ctx = match trace {
                Some(t) => HostCtx::with_trace(&mut self.os, &mut self.cov, t),
                None => HostCtx::new(&mut self.os, &mut self.cov),
            };
            machine.call(p, &mut ctx, TARGET_MAIN, &[0, 0], self.cfg.fuel)
        };
        let captured = if capture_globals {
            match (self.section, self.proc.as_ref()) {
                (Some((addr, size)), Some(p)) => Some(p.read_bytes(addr, size as usize)),
                _ => None,
            }
        } else {
            None
        };
        let (mut status, kill) = match out.result {
            CallResult::Return(v) => (ExecStatus::Exit(v as i32), false),
            CallResult::ExitHooked(c) => (ExecStatus::Exit(c), false),
            // `exit` inside host-library code is deliberately not hooked
            // (paper §4.1): it still terminates the process.
            CallResult::Exited(c) => (ExecStatus::Exit(c), true),
            CallResult::Crashed(c) => (ExecStatus::Crash(c), true),
            CallResult::OutOfFuel => (ExecStatus::Hang, true),
        };
        if kill {
            if let Some(dead) = self.proc.take() {
                mgmt += self.os.teardown(dead);
            }
        } else {
            match self.restore() {
                Ok(c) => mgmt += c,
                Err(e) => {
                    // Restoration failed partway: the process state is no
                    // longer trustworthy. Discard it (the next run respawns
                    // from the template) and surface the fault — the
                    // campaign retries this input on a clean process.
                    self.harness_faults += 1;
                    if let Some(tainted) = self.proc.take() {
                        mgmt += self.os.teardown(tainted);
                    }
                    status = ExecStatus::Fault(e);
                }
            }
            if self.proc.is_some() {
                // Substrate corruption lands *after* restoration wrote
                // pristine state back — exactly what the sampled integrity
                // check exists to catch.
                self.inject_post_restore_corruption();
                let every = self.cfg.integrity.check_every;
                if every > 0 && self.iters.is_multiple_of(every) {
                    if let Some(d) = self.check_integrity() {
                        mgmt += self.handle_divergence(d, input);
                    }
                }
            }
        }
        (
            ExecOutcome {
                status,
                exec_cycles: out.cycles,
                mgmt_cycles: mgmt,
                insts: out.insts,
            },
            captured,
        )
    }

    /// Apply any due fault-plane bit-flip to the restored global section.
    fn inject_post_restore_corruption(&mut self) {
        let Some((addr, size)) = self.section else {
            return;
        };
        if let Some((off, mask)) = self.os.fault.bitflip_for(size) {
            if let Some(p) = self.proc.as_mut() {
                let byte = p.read_bytes(addr + off, 1)[0];
                p.write_bytes(addr + off, &[byte ^ mask]);
            }
        }
    }

    /// End-of-iteration fine-grain state restoration. Returns cycles
    /// charged.
    ///
    /// # Errors
    /// [`HarnessError`] when no process is live or the heap sweep meets a
    /// chunk the allocator no longer recognizes (corrupt chunk map).
    fn restore(&mut self) -> Result<u64, HarnessError> {
        self.iters += 1;
        let p = self.proc.as_mut().ok_or(HarnessError::ProcessLost)?;
        let cost = &self.os.cost;
        let mut stats = RestoreStats::default();

        // 1. Heap: free everything still in the chunk map (Fig. 5 step C).
        //    Sorted order keeps the allocator deterministic run-to-run.
        if self.cfg.heap_sweep {
            let mut leaked: Vec<u64> = p.rt.chunk_map.keys().copied().collect();
            leaked.sort_unstable();
            for ptr in leaked {
                // The chunk map should only hold live chunks; a failed free
                // means the map is corrupt, which taints the whole process.
                p.heap.free(ptr).map_err(|e| {
                    HarnessError::RestoreFailed(format!("heap sweep: free({ptr:#x}) failed: {e:?}"))
                })?;
                stats.leaked_chunks += 1;
            }
        }
        p.rt.chunk_map.clear();

        // 2. Globals: restore the snapshot (Fig. 4).
        if self.cfg.global_restore {
            if let Some((addr, size)) = self.section {
                match self.cfg.restore_strategy {
                    RestoreStrategy::FullSection => {
                        p.write_bytes(addr, &self.snapshot);
                        stats.global_bytes = size;
                    }
                    RestoreStrategy::DirtyOnly => {
                        let current = p.read_bytes(addr, size as usize);
                        let mut dirty = 0u64;
                        for (i, (cur, orig)) in current.iter().zip(self.snapshot.iter()).enumerate()
                        {
                            if cur != orig {
                                p.write_bytes(addr + i as u64, &[*orig]);
                                dirty += 1;
                            }
                        }
                        // Scan cost: treat 64 scanned bytes as 1 restored.
                        stats.global_bytes = dirty + size / 64;
                    }
                }
            }
        }

        // 3. Files: close strays, rewind init handles.
        if self.cfg.fd_sweep {
            let strays: Vec<u64> = p.rt.open_files.drain(..).collect();
            for h in strays {
                if p.fds.close(h).is_ok() {
                    stats.stray_fds += 1;
                }
            }
            if self.cfg.init_fd_rewind {
                let init_handles: Vec<u64> = p.rt.init_files.clone();
                for h in init_handles {
                    if let Some(f) = p.fds.get_mut(h) {
                        f.pos = 0;
                        stats.init_rewinds += 1;
                    }
                }
            }
        } else {
            p.rt.open_files.clear();
        }

        stats.cycles = cost.restore(
            stats.global_bytes,
            stats.leaked_chunks,
            stats.stray_fds,
            stats.init_rewinds,
        );
        self.os.mgmt_cycles += stats.cycles;
        self.last_restore = stats;
        Ok(stats.cycles)
    }
}

impl Executor for ClosureXExecutor {
    fn name(&self) -> &'static str {
        "closurex"
    }

    fn run(&mut self, input: &[u8]) -> ExecOutcome {
        self.run_captured(input, None, false).0
    }

    fn coverage(&self) -> &CovMap {
        &self.cov
    }

    fn fuel(&self) -> u64 {
        self.cfg.fuel
    }

    fn inject_faults(&mut self, plan: FaultPlan) {
        self.os.fault = FaultPlane::new(plan);
    }

    fn resilience(&self) -> ResilienceReport {
        ResilienceReport {
            respawns: self.respawns,
            divergences: self.divergences,
            integrity_checks: self.integrity_checks,
            quarantined: self.quarantine.len() as u64 + self.quarantine_dropped,
            quarantine_dropped: self.quarantine_dropped,
            harness_faults: self.harness_faults,
            degradation: self.degradation,
        }
    }

    fn export_state(&self) -> Option<ExecutorState> {
        let (fault_rolls, fault_injected) = self.os.fault.export_counters();
        // CoW lineage: teardown charges the process's accumulated faults,
        // and future faults depend on which pages are still shared with the
        // template — both must survive a kill/resume or the resumed run's
        // next teardown drifts.
        let (proc_cow_faults, proc_private_pages) = match (&self.proc, &self.template) {
            (Some(p), Some(t)) => (
                p.mem.cow_faults(),
                self.private_pages(&p.mem, &t.parent().mem),
            ),
            (Some(p), None) => (p.mem.cow_faults(), Vec::new()),
            _ => (0, Vec::new()),
        };
        Some(ExecutorState {
            respawns: self.respawns,
            divergences: self.divergences,
            integrity_checks: self.integrity_checks,
            harness_faults: self.harness_faults,
            iters: self.iters,
            degradation: self.degradation,
            proc_alive: self.proc.is_some(),
            quarantine: self.quarantine.clone(),
            quarantine_dropped: self.quarantine_dropped,
            fault_rolls,
            fault_injected,
            proc_cow_faults,
            proc_private_pages,
        })
    }

    fn restore_state(&mut self, state: &ExecutorState) -> Result<(), HarnessError> {
        // The executor was just rebuilt from the module: its boot process is
        // byte-identical to what a template fork would have produced, so
        // only the counters (and process liveness) need restoring. The
        // fault *plan* is configuration and must be re-armed by the caller
        // (via `inject_faults`) before this restores the stream position.
        self.respawns = state.respawns;
        self.divergences = state.divergences;
        self.integrity_checks = state.integrity_checks;
        self.harness_faults = state.harness_faults;
        self.iters = state.iters;
        self.degradation = state.degradation;
        self.quarantine = state.quarantine.clone();
        self.quarantine_dropped = state.quarantine_dropped;
        self.os
            .fault
            .restore_counters(state.fault_rolls, state.fault_injected);
        if !state.proc_alive {
            // The killed run's process was dead (crash/hang teardown); the
            // next run must pay the same template respawn it would have.
            self.proc = None;
        } else if let Some(p) = self.proc.as_mut() {
            // The rebuilt boot process shares every page with the template
            // (the template is a clone of it), but the checkpointed process
            // had already privatized some pages and accrued CoW faults that
            // its eventual teardown will charge. Graft that lineage back on,
            // or the resumed teardown under-charges by one fault per page
            // the killed run privatized but the resumed run never rewrites.
            for idx in &state.proc_private_pages {
                p.mem.privatize(*idx);
            }
            p.mem.set_cow_faults(state.proc_cow_faults);
        }
        Ok(())
    }

    fn module_fingerprint(&self) -> Option<u64> {
        Some(self.fingerprint)
    }

    fn warm_decoded_image(&self, _dir: Option<&std::path::Path>) -> Option<vmos::WarmSource> {
        Some(vmos::DecodedImage::warm(&self.module))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forkserver::ForkServerExecutor;
    use crate::naive::NaivePersistentExecutor;

    fn module(src: &str) -> Module {
        minic::compile("t", src).unwrap()
    }

    const STATEFUL: &str = r#"
        global count;
        fn main() {
            count = count + 1;
            return count;
        }
    "#;

    #[test]
    fn globals_restored_between_iterations() {
        let m = module(STATEFUL);
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        for _ in 0..5 {
            assert_eq!(ex.run(b"x").status, ExecStatus::Exit(1), "always fresh");
        }
        assert!(ex.last_restore().global_bytes > 0);
    }

    #[test]
    fn heap_leaks_swept() {
        let m = module(
            r#"
            fn main() {
                var a = malloc(100);
                var b = malloc(200);
                store8(a, 1);
                free(b);
                return 0;
            }
        "#,
        );
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        for _ in 0..10 {
            ex.run(b"x");
            assert_eq!(ex.last_restore().leaked_chunks, 1, "a leaks, b doesn't");
        }
        assert_eq!(
            ex.process().unwrap().heap.live_bytes(),
            0,
            "heap clean after sweep"
        );
    }

    #[test]
    fn exit_is_hooked_not_fatal() {
        let m = module("fn main() { exit(3); }");
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        for _ in 0..3 {
            assert_eq!(ex.run(b"x").status, ExecStatus::Exit(3));
        }
        assert_eq!(ex.respawns(), 0, "exit() must not kill the process");
    }

    #[test]
    fn fds_swept() {
        let m = module(
            r#"
            fn main() {
                var f = fopen("/fuzz/input", 0);
                var buf[4];
                fread(buf, 1, 4, f);
                return 0;
            }
        "#,
        );
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        for _ in 0..100 {
            let out = ex.run(b"data");
            assert_eq!(out.status, ExecStatus::Exit(0), "no fd exhaustion ever");
            assert_eq!(ex.last_restore().stray_fds, 1);
        }
        assert_eq!(ex.process().unwrap().fds.open_count(), 0);
    }

    #[test]
    fn crash_forces_reboot_and_recovery() {
        let m = module(
            r#"
            fn main() {
                var f = fopen("/fuzz/input", 0);
                if (f == 0) { exit(1); }
                var buf[4];
                fread(buf, 1, 4, f);
                fclose(f);
                if (load8(buf) == 'X') { return load64(0); }
                return 0;
            }
        "#,
        );
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        assert!(ex.run(b"X").status.crash().is_some());
        assert_eq!(ex.run(b"A").status, ExecStatus::Exit(0), "recovered");
        assert_eq!(ex.respawns(), 1, "recovery forked the template once");
    }

    #[test]
    fn restore_is_cheaper_than_fork() {
        let m = module(STATEFUL);
        let mut cx = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        let mut fk = ForkServerExecutor::new(&m).unwrap();
        let c = cx.run(b"x");
        let f = fk.run(b"x");
        assert!(
            c.mgmt_cycles < f.mgmt_cycles,
            "closurex restore {} must beat fork {}",
            c.mgmt_cycles,
            f.mgmt_cycles
        );
    }

    #[test]
    fn matches_naive_persistent_within_restore_cost() {
        let m = module(STATEFUL);
        let mut cx = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        let mut np = NaivePersistentExecutor::new(&m).unwrap();
        let c = cx.run(b"x");
        let n = np.run(b"x");
        // Near-persistent performance: ClosureX pays only the fine-grain
        // restore over the naive loop.
        assert!(c.mgmt_cycles < n.mgmt_cycles + c.mgmt_cycles / 2 + 2000);
    }

    #[test]
    fn deferred_init_hoists_initialization() {
        let m = module(
            r#"
            global init_done;
            global expensive;
            fn init() {
                var i = 0;
                while (i < 1000) { expensive = expensive + i; i = i + 1; }
            }
            fn main() {
                if (init_done == 0) { init(); init_done = 1; }
                return expensive > 0;
            }
        "#,
        );
        let mut plain = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        let mut deferred = ClosureXExecutor::new(
            &m,
            ClosureXConfig {
                deferred_init: true,
                ..ClosureXConfig::default()
            },
        )
        .unwrap();
        let p = plain.run(b"x");
        let d = deferred.run(b"x");
        assert_eq!(p.status, d.status, "same observable behavior");
        assert!(
            d.insts * 3 < p.insts,
            "init loop must be hoisted: deferred={} plain={}",
            d.insts,
            p.insts
        );
    }

    #[test]
    fn ablation_disabling_global_restore_leaks_state() {
        let m = module(STATEFUL);
        let cfg = ClosureXConfig {
            global_restore: false,
            ..ClosureXConfig::default()
        };
        let mut ex = ClosureXExecutor::new(&m, cfg).unwrap();
        assert_eq!(ex.run(b"x").status, ExecStatus::Exit(1));
        assert_eq!(
            ex.run(b"x").status,
            ExecStatus::Exit(2),
            "without GlobalPass restore, ClosureX degrades to naive persistent"
        );
    }

    #[test]
    fn post_restore_bitflip_detected_quarantined_and_respawned() {
        // The tentpole acceptance test: a bit flips in the global section
        // *after* restoration; the sampled integrity check catches it, the
        // input is quarantined, and the process is respawned from the
        // pristine template.
        let m = module(STATEFUL);
        let cfg = ClosureXConfig {
            integrity: IntegrityPolicy {
                check_every: 1,
                max_divergences: 0, // never degrade in this test
            },
            ..ClosureXConfig::default()
        };
        let mut ex = ClosureXExecutor::new(&m, cfg).unwrap();
        ex.inject_faults(vmos::FaultPlan {
            seed: 42,
            restore_bitflip: 1.0, // corrupt after every restore
            ..vmos::FaultPlan::none()
        });
        let out = ex.run(b"tainted-input");
        assert_eq!(out.status, ExecStatus::Exit(1), "target itself ran fine");
        assert_eq!(ex.divergences(), 1, "flip must be detected immediately");
        assert!(matches!(
            ex.last_divergence(),
            Some(RestoreDivergence::GlobalSectionHash { .. })
        ));
        assert_eq!(ex.quarantined(), &[b"tainted-input".to_vec()]);
        assert_eq!(ex.respawns(), 1, "tainted process replaced from template");
        // The respawned process is pristine: the next run behaves fresh
        // (even though its own restore gets corrupted again afterwards).
        assert_eq!(ex.run(b"x").status, ExecStatus::Exit(1));
    }

    #[test]
    fn quarantine_ring_evicts_past_cap_and_counts_drops() {
        let m = module(STATEFUL);
        let cfg = ClosureXConfig {
            integrity: IntegrityPolicy {
                check_every: 1,
                max_divergences: 0, // never degrade: every run diverges
            },
            ..ClosureXConfig::default()
        };
        let mut ex = ClosureXExecutor::new(&m, cfg).unwrap();
        ex.inject_faults(vmos::FaultPlan {
            seed: 9,
            restore_bitflip: 1.0,
            ..vmos::FaultPlan::none()
        });
        let total = QUARANTINE_CAP + 6;
        for i in 0..total {
            ex.run(format!("in-{i}").as_bytes());
        }
        assert_eq!(ex.quarantined().len(), QUARANTINE_CAP, "ring is bounded");
        assert_eq!(
            ex.quarantined().first().map(Vec::as_slice),
            Some(b"in-6".as_slice()),
            "oldest entries evicted first"
        );
        let rep = ex.resilience();
        assert_eq!(rep.quarantine_dropped, 6);
        assert_eq!(
            rep.quarantined, total as u64,
            "report counts every quarantined input, not just the retained ring"
        );
    }

    #[test]
    fn repeated_divergences_degrade_to_fork_per_exec() {
        let m = module(STATEFUL);
        let cfg = ClosureXConfig {
            integrity: IntegrityPolicy {
                check_every: 1,
                max_divergences: 3,
            },
            ..ClosureXConfig::default()
        };
        let mut ex = ClosureXExecutor::new(&m, cfg).unwrap();
        ex.inject_faults(vmos::FaultPlan {
            seed: 7,
            restore_bitflip: 1.0,
            ..vmos::FaultPlan::none()
        });
        for _ in 0..3 {
            assert_eq!(ex.degradation(), DegradationLevel::Persistent);
            ex.run(b"x");
        }
        assert_eq!(
            ex.degradation(),
            DegradationLevel::ForkPerExec,
            "threshold crossed: fall down the continuum"
        );
        // Fork-per-exec is immune to restore corruption: every run is a
        // fresh fork of the pristine template.
        let before = ex.divergences();
        for _ in 0..5 {
            assert_eq!(ex.run(b"x").status, ExecStatus::Exit(1));
        }
        assert_eq!(ex.divergences(), before, "no more divergences possible");
        assert_eq!(ex.resilience().degradation, DegradationLevel::ForkPerExec);
    }

    #[test]
    fn fd_leak_injection_caught_by_fd_census() {
        let m = module(
            r#"
            fn main() {
                var f = fopen("/fuzz/input", 0);
                if (f == 0) { exit(1); }
                fclose(f);
                return 0;
            }
        "#,
        );
        let cfg = ClosureXConfig {
            integrity: IntegrityPolicy {
                check_every: 1,
                max_divergences: 0,
            },
            ..ClosureXConfig::default()
        };
        let mut ex = ClosureXExecutor::new(&m, cfg).unwrap();
        ex.inject_faults(vmos::FaultPlan {
            seed: 3,
            fd_leak: 1.0, // every fclose leaks its slot
            ..vmos::FaultPlan::none()
        });
        ex.run(b"x");
        assert_eq!(ex.divergences(), 1);
        assert!(matches!(
            ex.last_divergence(),
            Some(RestoreDivergence::FdCensus { .. })
        ));
        assert_eq!(ex.respawns(), 1, "leaked slot reclaimed via respawn");
    }

    #[test]
    fn fork_failure_surfaces_fault_not_panic() {
        let m = module("fn main() { return load64(0); }"); // crashes every run
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        ex.inject_faults(vmos::FaultPlan {
            seed: 9,
            fork_fail: 1.0, // every fork AND every spawn refused
            ..vmos::FaultPlan::none()
        });
        ex.run(b"x"); // crash kills the process
        let out = ex.run(b"x"); // respawn is refused
        assert!(
            out.status.fault().is_some(),
            "must surface HarnessError, got {:?}",
            out.status
        );
        assert!(ex.resilience().harness_faults > 0);
    }

    #[test]
    fn integrity_sampling_respects_cadence() {
        let m = module(STATEFUL);
        let cfg = ClosureXConfig {
            integrity: IntegrityPolicy {
                check_every: 4,
                max_divergences: 0,
            },
            ..ClosureXConfig::default()
        };
        let mut ex = ClosureXExecutor::new(&m, cfg).unwrap();
        for _ in 0..16 {
            ex.run(b"x");
        }
        assert_eq!(
            ex.resilience().integrity_checks,
            4,
            "16 restores at cadence 4"
        );
    }

    #[test]
    fn init_fd_rewind_keeps_handle_usable() {
        // Deferred init opens the input once; each iteration reads it from
        // a rewound handle rather than reopening.
        let m = module(
            r#"
            global fh;
            fn main() {
                if (fh == 0) { fh = fopen("/fuzz/input", 0); }
                if (fh == 0) { exit(1); }
                var buf[4];
                var n = fread(buf, 1, 4, fh);
                return n;
            }
        "#,
        );
        let cfg = ClosureXConfig {
            deferred_init: true,
            warmup_input: b"warm".to_vec(),
            ..ClosureXConfig::default()
        };
        let mut ex = ClosureXExecutor::new(&m, cfg).unwrap();
        for _ in 0..5 {
            let out = ex.run(b"abcd");
            assert_eq!(out.status, ExecStatus::Exit(4), "rewound handle re-reads");
            assert_eq!(ex.last_restore().init_rewinds, 1);
            assert_eq!(ex.last_restore().stray_fds, 0);
        }
    }

    /// The private-page list `export_state` hands a checkpoint, checked
    /// against a fresh walk of both page tables — the oracle the
    /// executor's stamp-keyed cache stands in for.
    fn assert_private_pages_match_oracle(ex: &ClosureXExecutor, ctx: &str) -> Vec<u64> {
        let exported = ex.export_state().expect("closurex exports state").proc_private_pages;
        let oracle = match (&ex.proc, &ex.template) {
            (Some(p), Some(t)) => p.mem.private_pages_vs(&t.parent().mem),
            _ => Vec::new(),
        };
        assert_eq!(exported, oracle, "{ctx}: cached private pages went stale");
        exported
    }

    #[test]
    fn private_page_cache_matches_the_page_walk_oracle_on_every_target() {
        let mut respawns = 0;
        for t in targets::all() {
            let m = t.module();
            let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
            // Seeds, then bug witnesses: a crash kills the persistent
            // process, and the next run respawns it from the template.
            let mut inputs = (t.seeds)();
            inputs.extend((t.witnesses)().into_iter().map(|(_, input)| input));
            for round in 0..2 {
                for (k, input) in inputs.iter().enumerate() {
                    ex.run(input);
                    assert_private_pages_match_oracle(&ex, &format!("{} r{round} #{k}", t.name));
                }
            }
            respawns += ex.respawns();

            // A warmed-up persistent process re-running a benign seed
            // keeps its page ownership, so exports hit the cache.
            ex.run(&inputs[0]);
            let stamp = ex.proc.as_ref().map(|p| p.mem.ownership_stamp());
            ex.run(&inputs[0]);
            assert_private_pages_match_oracle(&ex, t.name);
            assert_eq!(
                ex.proc.as_ref().map(|p| p.mem.ownership_stamp()),
                stamp,
                "{}: a steady-state exec must not change page ownership",
                t.name
            );
        }
        assert!(respawns > 0, "witnesses must exercise crash respawns");
    }

    #[test]
    fn private_page_cache_sees_a_cow_copy_between_exports() {
        let m = module(STATEFUL);
        let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        // Right after boot the process shares every page with the
        // template; export once so the cache holds that empty list.
        assert!(assert_private_pages_match_oracle(&ex, "boot").is_empty());
        // A CoW copy with no page materialized — what an exec reaching a
        // page it never wrote before does — must invalidate the cache.
        let (addr, _) = ex.section().expect("closure global section");
        ex.proc.as_mut().unwrap().mem.write_uint(addr, 9, 8);
        assert_eq!(
            assert_private_pages_match_oracle(&ex, "after CoW"),
            vec![addr / vmos::mem::PAGE_SIZE]
        );
    }

    #[test]
    fn private_page_cache_survives_fork_per_exec_degradation() {
        let m = module(STATEFUL);
        let cfg = ClosureXConfig {
            integrity: IntegrityPolicy {
                check_every: 1,
                max_divergences: 2,
            },
            ..ClosureXConfig::default()
        };
        let mut ex = ClosureXExecutor::new(&m, cfg).unwrap();
        ex.inject_faults(vmos::FaultPlan {
            seed: 7,
            restore_bitflip: 1.0,
            ..vmos::FaultPlan::none()
        });
        for k in 0..6 {
            ex.run(b"x");
            assert_private_pages_match_oracle(&ex, &format!("exec {k}"));
        }
        assert_eq!(ex.degradation(), DegradationLevel::ForkPerExec);
    }

    #[test]
    fn private_page_cache_follows_restore_state_privatize() {
        let t = targets::by_name("gpmf-parser").expect("bundled target");
        let m = t.module();
        let mut inputs = (t.seeds)();
        inputs.extend((t.witnesses)().into_iter().map(|(_, input)| input));
        let mut killed = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        for input in &inputs {
            killed.run(input);
        }
        killed.run(&inputs[0]); // end on a live process
        let state = killed.export_state().unwrap();
        assert!(state.proc_alive && !state.proc_private_pages.is_empty());

        // A fresh executor that already exported (and cached) its boot
        // process's empty list, then re-privatizes the checkpointed pages.
        let mut resumed = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
        assert_private_pages_match_oracle(&resumed, "fresh boot");
        resumed.restore_state(&state).unwrap();
        assert_eq!(
            assert_private_pages_match_oracle(&resumed, "after restore"),
            state.proc_private_pages
        );
        for (k, input) in inputs.iter().enumerate() {
            killed.run(input);
            resumed.run(input);
            assert_eq!(
                assert_private_pages_match_oracle(&resumed, &format!("resumed #{k}")),
                assert_private_pages_match_oracle(&killed, &format!("killed #{k}")),
                "a resumed process must track the killed run's page lineage"
            );
        }
    }
}
