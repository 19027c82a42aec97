//! The execution-mechanism interface shared by all four mechanisms on the
//! paper's state-restoration continuum.

use std::path::Path;

use vmos::{CovMap, Crash, FaultPlan, WarmSource};

use crate::checkpoint::ExecutorState;
use crate::resilience::{HarnessError, ResilienceReport};

/// Default per-test-case instruction budget (hang detection).
pub const DEFAULT_FUEL: u64 = 3_000_000;

/// How a test-case execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecStatus {
    /// Clean completion with an exit code (normal return or `exit()`).
    Exit(i32),
    /// The target crashed.
    Crash(Crash),
    /// The target exceeded its fuel budget.
    Hang,
    /// The *harness* failed — not the target. The input was never (or not
    /// fully) executed; campaigns should retry it, never record it as a
    /// target crash.
    Fault(HarnessError),
}

impl ExecStatus {
    /// The crash, if any.
    pub fn crash(&self) -> Option<&Crash> {
        match self {
            ExecStatus::Crash(c) => Some(c),
            _ => None,
        }
    }

    /// The harness fault, if any.
    pub fn fault(&self) -> Option<&HarnessError> {
        match self {
            ExecStatus::Fault(e) => Some(e),
            _ => None,
        }
    }
}

/// Result + cost accounting for one test-case execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Final status.
    pub status: ExecStatus,
    /// Cycles spent executing target code.
    pub exec_cycles: u64,
    /// Cycles spent on process management or state restoration — the
    /// quantity the paper's mechanisms differ in.
    pub mgmt_cycles: u64,
    /// Instructions retired by the target.
    pub insts: u64,
}

impl ExecOutcome {
    /// Total cycles charged for this test case.
    pub fn total_cycles(&self) -> u64 {
        self.exec_cycles + self.mgmt_cycles
    }
}

/// A fuzzing execution mechanism: give it a test case, get an outcome and
/// per-run coverage.
pub trait Executor {
    /// Mechanism name (for reports).
    fn name(&self) -> &'static str;

    /// Execute one test case.
    fn run(&mut self, input: &[u8]) -> ExecOutcome;

    /// Coverage collected by the most recent [`Executor::run`].
    fn coverage(&self) -> &CovMap;

    /// The per-test-case fuel budget.
    fn fuel(&self) -> u64;

    /// Arm the simulated OS with a fault-injection plan. Default: the
    /// mechanism ignores faults (its OS keeps the disabled plane).
    fn inject_faults(&mut self, _plan: FaultPlan) {}

    /// Lifetime resilience counters. Default: all zero (mechanisms without
    /// recovery machinery have nothing to report).
    fn resilience(&self) -> ResilienceReport {
        ResilienceReport::default()
    }

    /// Export the mutable state a campaign checkpoint must carry to resume
    /// this executor deterministically. Default: `None` — the mechanism
    /// does not support checkpointed campaigns.
    fn export_state(&self) -> Option<ExecutorState> {
        None
    }

    /// Re-apply state exported by [`Executor::export_state`] onto a freshly
    /// constructed executor (same module, same configuration).
    ///
    /// # Errors
    /// [`HarnessError::Unsupported`] by default.
    fn restore_state(&mut self, _state: &ExecutorState) -> Result<(), HarnessError> {
        Err(HarnessError::Unsupported(
            "this execution mechanism cannot restore checkpointed state".into(),
        ))
    }

    /// Fingerprint of the (instrumented) module this executor runs, as
    /// produced by `Module::fingerprint`. Checkpoints embed it so resume
    /// can validate the on-disk state against the target actually loaded.
    /// Default: `None` — the mechanism does not pin a module identity.
    fn module_fingerprint(&self) -> Option<u64> {
        None
    }

    /// Ensure the process-wide decoded-image cache holds this executor's
    /// module, and report whether it was already cached or lowered by this
    /// call. Checkpoint resume calls this up front so the re-run never
    /// re-lowers lazily mid-campaign. The directory is ignored. Default:
    /// `None` — the mechanism does not use the decoded engine.
    fn warm_decoded_image(&self, _dir: Option<&Path>) -> Option<WarmSource> {
        None
    }

    /// Write this executor's decoded image next to a checkpoint. Decoded
    /// images are never persisted: the default, and every executor in the
    /// workspace, writes nothing and returns `false`.
    fn save_decoded_sidecar(&self, _dir: &Path) -> bool {
        false
    }
}

/// Builds fresh, identically configured executor instances on demand — the
/// contract a sharded campaign needs to give every worker lane its own
/// executor for the same target. `Sync` because lanes are built from worker
/// threads under `std::thread::scope`.
pub trait ExecutorFactory: Sync {
    /// Construct one executor instance.
    ///
    /// # Errors
    /// [`HarnessError`] when the harness cannot be booted (e.g. the module
    /// fails instrumentation).
    fn build(&self) -> Result<Box<dyn Executor + Send>, HarnessError>;

    /// Construct the crash revalidator paired with [`ExecutorFactory::build`]
    /// (a fresh-process executor used to flaky-tag crashes), or `None` when
    /// revalidation is not wanted. Default: `None`.
    ///
    /// # Errors
    /// [`HarnessError`] when the revalidator cannot be booted.
    fn build_revalidator(&self) -> Result<Option<Box<dyn Executor + Send>>, HarnessError> {
        Ok(None)
    }

    /// Warm the process-wide decoded-image cache for this factory's
    /// module — mirror of [`Executor::warm_decoded_image`], callable
    /// *before* any executor exists. Executor construction lowers eagerly
    /// on a cold cache, so only a warm-up ahead of construction can report
    /// whether a resume paid the lowering. Default: `None` — the factory
    /// cannot warm ahead of construction, and callers fall back to the
    /// first built executor.
    fn warm_decoded_image(&self, _dir: Option<&Path>) -> Option<WarmSource> {
        None
    }

    /// A self-contained byte recipe from which a *worker process* can
    /// reconstruct an equivalent factory (lane-per-process campaigns ship
    /// it to each child over the wire; the child's entrypoint parses it
    /// back into a factory). Default: `None` — the factory only works
    /// in-process, and `Isolation::Process` campaigns refuse it up front.
    fn worker_spec(&self) -> Option<Vec<u8>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_totals() {
        let o = ExecOutcome {
            status: ExecStatus::Exit(0),
            exec_cycles: 100,
            mgmt_cycles: 40,
            insts: 90,
        };
        assert_eq!(o.total_cycles(), 140);
        assert!(o.status.crash().is_none());
    }
}
