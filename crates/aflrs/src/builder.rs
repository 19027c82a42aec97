//! The unified campaign entry point.
//!
//! One builder is the whole single-campaign API (the historical
//! `run_campaign*` free functions are gone; multi-tenant servers use
//! [`crate::service`] on top of this):
//!
//! ```no_run
//! # use aflrs::{Campaign, CampaignConfig, CheckpointConfig};
//! # use closurex::harness::{ClosureXConfig, ClosureXExecutor};
//! # let m = minic::compile("t", "fn main() { return 0; }").unwrap();
//! # let seeds = vec![b"seed".to_vec()];
//! # let cfg = CampaignConfig::default();
//! let mut ex = ClosureXExecutor::new(&m, ClosureXConfig::default()).unwrap();
//! let result = Campaign::new(&seeds, &cfg)
//!     .executor(&mut ex)
//!     .checkpoint(CheckpointConfig::new("/tmp/ckpt"))
//!     .run()
//!     .unwrap();
//! ```
//!
//! Sharded campaigns hand the builder an
//! [`ExecutorFactory`] instead of a
//! borrowed executor — each lane needs its own instance:
//!
//! ```ignore
//! let result = Campaign::new(&seeds, &cfg).factory(&factory).shards(4).run()?;
//! ```

use closurex::executor::{Executor, ExecutorFactory};
use closurex::resilience::HarnessError;

use crate::campaign::{CampaignConfig, Driver, StepOutcome};
use crate::checkpoint::{
    resume_impl, run_checkpointed_impl, CampaignOutcome, CheckpointConfig, CheckpointError,
    ResumeReport,
};
use crate::shard::{
    resume_sharded, run_sharded, ShardPlan, DEFAULT_LANES, DEFAULT_SYNC_EPOCHS,
};
use crate::supervise::SupervisorConfig;

/// Where a sharded campaign's lanes execute.
///
/// A pure containment knob: both modes run the same lane schedule and
/// produce bit-identical [`crate::stats::CampaignResult`]s (modulo
/// supervision counters, which record *how* faults were contained, not
/// *what* the campaign found).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Isolation {
    /// Lanes run on worker threads inside this process (the default).
    #[default]
    InProcess,
    /// Each lane runs in a supervised child process speaking a
    /// checksum-framed pipe protocol — a crashed, killed, or wedged lane
    /// cannot take the campaign down with it. Requires a factory whose
    /// [`closurex::executor::ExecutorFactory::worker_spec`] is `Some` and
    /// a binary whose `main` calls [`crate::proc::worker_main_hook`].
    Process,
}

/// Why a campaign could not run.
#[derive(Debug)]
pub enum CampaignError {
    /// The builder was configured inconsistently.
    Config(&'static str),
    /// Checkpointing failed (I/O, corruption, target mismatch, …).
    Checkpoint(CheckpointError),
    /// The executor factory failed to build a lane executor.
    Build(HarnessError),
    /// A worker thread died outside supervised lane execution — the one
    /// failure the lane supervisor cannot contain or replay.
    WorkerLost(&'static str),
    /// Every lane exhausted its retry budget and was retired; there is no
    /// live lane left to fold the remaining cycle budget into.
    AllLanesLost {
        /// The epoch at which the last live lane was retired.
        epoch: u64,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Config(msg) => write!(f, "campaign misconfigured: {msg}"),
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::Build(e) => write!(f, "executor factory failed: {e}"),
            CampaignError::WorkerLost(msg) => write!(f, "worker pool failed: {msg}"),
            CampaignError::AllLanesLost { epoch } => write!(
                f,
                "every lane degraded out by epoch {epoch}: no live lane remains"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// Builder-style campaign runner. See the module docs.
///
/// Exactly one of [`Campaign::executor`] (single-driver campaign) or
/// [`Campaign::factory`] (sharded campaign) must be set. Everything else
/// is optional: [`Campaign::checkpoint`] arms crash-safe persistence,
/// [`Campaign::shards`]/[`Campaign::lanes`]/[`Campaign::sync_epochs`]
/// shape the sharded decomposition (and require a factory when
/// `shards > 1`).
pub struct Campaign<'a> {
    seeds: &'a [Vec<u8>],
    cfg: CampaignConfig,
    executor: Option<&'a mut dyn Executor>,
    revalidator: Option<&'a mut dyn Executor>,
    factory: Option<&'a dyn ExecutorFactory>,
    checkpoint: Option<CheckpointConfig>,
    shards: usize,
    lanes: usize,
    sync_epochs: u64,
    supervision: SupervisorConfig,
    supervision_set: bool,
    isolation: Isolation,
    disk_faults: Option<vmos::DiskFaultPlan>,
}

impl<'a> Campaign<'a> {
    /// Start describing a campaign over `seeds` with `cfg`.
    pub fn new(seeds: &'a [Vec<u8>], cfg: &CampaignConfig) -> Self {
        Campaign {
            seeds,
            cfg: cfg.clone(),
            executor: None,
            revalidator: None,
            factory: None,
            checkpoint: None,
            shards: 1,
            lanes: DEFAULT_LANES,
            sync_epochs: DEFAULT_SYNC_EPOCHS,
            supervision: SupervisorConfig::default(),
            supervision_set: false,
            isolation: Isolation::default(),
            disk_faults: None,
        }
    }

    /// Run on this (borrowed) executor — the single-driver mode.
    pub fn executor(mut self, ex: &'a mut dyn Executor) -> Self {
        self.executor = Some(ex);
        self
    }

    /// Replay first-discovery crashes in this executor when
    /// [`CampaignConfig::revalidate_crashes`] is set (single-driver mode;
    /// sharded lanes build their own via
    /// [`ExecutorFactory::build_revalidator`]).
    pub fn revalidator(mut self, rv: &'a mut dyn Executor) -> Self {
        self.revalidator = Some(rv);
        self
    }

    /// Build each lane's executor from this factory — the sharded mode.
    pub fn factory(mut self, f: &'a dyn ExecutorFactory) -> Self {
        self.factory = Some(f);
        self
    }

    /// Arm crash-safe checkpointing. In sharded mode, snapshots land at
    /// epoch barriers and [`CheckpointConfig::snapshot_every_execs`] is
    /// ignored.
    pub fn checkpoint(mut self, ck: CheckpointConfig) -> Self {
        self.checkpoint = Some(ck);
        self
    }

    /// Worker threads for the sharded mode (clamped to `[1, lanes]`). A
    /// pure throughput knob: any shard count produces bit-identical
    /// results on the same lane decomposition.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Logical lanes the campaign decomposes into (the determinism unit;
    /// default [`DEFAULT_LANES`]). Changing it changes the schedule.
    pub fn lanes(mut self, n: usize) -> Self {
        self.lanes = n.max(1);
        self
    }

    /// Merge barriers across the budget (default [`DEFAULT_SYNC_EPOCHS`]).
    pub fn sync_epochs(mut self, n: u64) -> Self {
        self.sync_epochs = n.max(1);
        self
    }

    /// Configure lane supervision (sharded mode only): retry budget, hang
    /// deadline, and the orchestration fault-injection plan. Supervision
    /// is always armed in sharded campaigns with benign defaults, so this
    /// only needs calling to tune it — or to inject faults.
    pub fn supervision(mut self, cfg: SupervisorConfig) -> Self {
        self.supervision = cfg;
        self.supervision_set = true;
        self
    }

    /// Inject deterministic storage faults into every checkpoint I/O
    /// operation (only meaningful with [`Campaign::checkpoint`] — the plan
    /// rides in [`CheckpointConfig::disk_faults`]; set here it wins over
    /// the config's own field regardless of call order). See
    /// [`vmos::DiskFaultPlan`] for the fault vocabulary and
    /// [`crate::StorageCounters`] for what the recovery ladder reports.
    pub fn storage_faults(mut self, plan: vmos::DiskFaultPlan) -> Self {
        self.disk_faults = Some(plan);
        self
    }

    /// The checkpoint config with the builder-level fault plan folded in.
    fn armed_checkpoint(
        checkpoint: Option<CheckpointConfig>,
        disk_faults: Option<vmos::DiskFaultPlan>,
    ) -> Option<CheckpointConfig> {
        checkpoint.map(|mut ck| {
            if let Some(plan) = disk_faults {
                ck.disk_faults = plan;
            }
            ck
        })
    }

    /// Choose where lanes execute (sharded mode only; default
    /// [`Isolation::InProcess`]). [`Isolation::Process`] runs each lane in
    /// a supervised child process — see [`crate::proc`].
    pub fn isolation(mut self, iso: Isolation) -> Self {
        self.isolation = iso;
        self
    }

    fn plan(&self) -> ShardPlan {
        ShardPlan {
            lanes: self.lanes,
            workers: self.shards.clamp(1, self.lanes),
            sync_epochs: self.sync_epochs,
        }
    }

    /// Run the campaign from scratch.
    pub fn run(self) -> Result<CampaignOutcome, CampaignError> {
        let plan = self.plan();
        let Campaign {
            seeds,
            cfg,
            executor,
            revalidator,
            factory,
            checkpoint,
            shards,
            supervision,
            supervision_set,
            isolation,
            disk_faults,
            ..
        } = self;
        let checkpoint = Self::armed_checkpoint(checkpoint, disk_faults);
        match (factory, executor) {
            (Some(_), Some(_)) => Err(CampaignError::Config(
                "provide an executor or a factory, not both",
            )),
            (Some(f), None) => match isolation {
                Isolation::InProcess => {
                    run_sharded(f, seeds, &cfg, &plan, checkpoint.as_ref(), &supervision)
                }
                Isolation::Process => {
                    crate::proc::run_proc(f, seeds, &cfg, &plan, checkpoint.as_ref(), &supervision)
                }
            },
            (None, Some(ex)) => {
                if isolation == Isolation::Process {
                    return Err(CampaignError::Config(
                        "process isolation spawns one child per lane: use Campaign::factory",
                    ));
                }
                if shards > 1 {
                    return Err(CampaignError::Config(
                        "sharded campaigns build one executor per lane: use Campaign::factory",
                    ));
                }
                if supervision_set {
                    return Err(CampaignError::Config(
                        "lane supervision applies to sharded campaigns: use Campaign::factory",
                    ));
                }
                match &checkpoint {
                    Some(ck) => Ok(run_checkpointed_impl(ex, revalidator, seeds, &cfg, ck)),
                    None => {
                        let mut d = Driver::new(ex, revalidator, seeds, &cfg);
                        while d.step() == StepOutcome::Ran {}
                        Ok(CampaignOutcome::Finished(d.finish()))
                    }
                }
            }
            (None, None) => Err(CampaignError::Config(
                "campaign needs an executor or a factory",
            )),
        }
    }

    /// Resume a killed campaign from its checkpoint directory (which
    /// [`Campaign::checkpoint`] must name). The executor (or factory) must
    /// produce fresh instances over the same target module as the
    /// original run.
    ///
    /// On a [`CampaignOutcome::Finished`] outcome the returned
    /// [`ResumeReport`] is also embedded as
    /// [`CampaignResult::resume`](crate::CampaignResult::resume) — compare
    /// resumed results against never-killed ones with
    /// [`outcome_diff`](crate::CampaignResult::outcome_diff).
    pub fn resume(self) -> Result<(CampaignOutcome, ResumeReport), CampaignError> {
        let (mut outcome, report) = self.resume_raw()?;
        if let CampaignOutcome::Finished(result) = &mut outcome {
            result.resume = Some(report.clone());
        }
        Ok((outcome, report))
    }

    fn resume_raw(self) -> Result<(CampaignOutcome, ResumeReport), CampaignError> {
        let plan = self.plan();
        let Campaign {
            seeds,
            cfg,
            executor,
            revalidator,
            factory,
            checkpoint,
            shards,
            supervision,
            supervision_set,
            isolation,
            disk_faults,
            ..
        } = self;
        let Some(ck) = Self::armed_checkpoint(checkpoint, disk_faults) else {
            return Err(CampaignError::Config(
                "resume needs a checkpoint directory: use Campaign::checkpoint",
            ));
        };
        match (factory, executor) {
            (Some(_), Some(_)) => Err(CampaignError::Config(
                "provide an executor or a factory, not both",
            )),
            (Some(f), None) => match isolation {
                Isolation::InProcess => resume_sharded(f, seeds, &cfg, &plan, &ck, &supervision),
                Isolation::Process => {
                    crate::proc::resume_proc(f, seeds, &cfg, &plan, &ck, &supervision)
                }
            },
            (None, Some(ex)) => {
                if isolation == Isolation::Process {
                    return Err(CampaignError::Config(
                        "process isolation spawns one child per lane: use Campaign::factory",
                    ));
                }
                if shards > 1 {
                    return Err(CampaignError::Config(
                        "sharded campaigns build one executor per lane: use Campaign::factory",
                    ));
                }
                if supervision_set {
                    return Err(CampaignError::Config(
                        "lane supervision applies to sharded campaigns: use Campaign::factory",
                    ));
                }
                resume_impl(ex, revalidator, seeds, &cfg, &ck).map_err(CampaignError::Checkpoint)
            }
            (None, None) => Err(CampaignError::Config(
                "campaign needs an executor or a factory",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misconfigured_builders_refuse_to_run() {
        let seeds = vec![b"s".to_vec()];
        let cfg = CampaignConfig::default();
        let err = Campaign::new(&seeds, &cfg).run().unwrap_err();
        assert!(matches!(err, CampaignError::Config(_)));
        let err = Campaign::new(&seeds, &cfg).resume().unwrap_err();
        assert!(matches!(err, CampaignError::Config(_)), "resume needs a dir");
    }
}
