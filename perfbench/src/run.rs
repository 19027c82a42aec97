//! Running units of campaigns through the stack, and checking them.
//!
//! Each workload's campaigns enter the program through its public API:
//! `Campaign::executor` (`persistent`), `RemoteService::submit` and
//! `RemoteHandle::status` (`service-rpc`), `Campaign::factory` with
//! `Isolation::Process` (`isolated-fork`). The oracle runs after the timed
//! window.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aflrs::{
    Campaign, CampaignError, CampaignOutcome, CampaignResult, CampaignSpec, CampaignState,
    CheckpointConfig, Isolation,
};
use closurex::executor::Executor;
use closurex::harness::{ClosureXConfig, ClosureXExecutor};

use crate::plan::{CampaignPlan, Workload};
use crate::scratch::{dir_bytes, RunDir};
use crate::setup::{Stack, FORK_LANES};
use crate::wrap::{
    now_ns, read_worker_logs, BenchFactory, FactorySpec, LaneLog, Modules, Sink, TracedExecutor,
};

/// Lanes of a `service-rpc` tenant (each tenant runs with shards = 1).
pub const SERVICE_LANES: usize = aflrs::DEFAULT_LANES;

/// How long the client polls a tenant before counting it as timed out.
const TENANT_TIMEOUT: Duration = Duration::from_secs(60);

/// Pause between `Status` polling rounds.
const POLL: Duration = Duration::from_millis(10);

/// Traced twins carry this bit in their campaign id.
const TRACED_BIT: u32 = 1 << 31;

/// One campaign as the caller saw it.
pub struct Record {
    pub plan: CampaignPlan,
    pub unit: u32,
    pub traced: bool,
    /// Submission to result as the caller observes it, in `now_ns` time.
    pub span: (u64, u64),
    pub result: Result<CampaignResult, String>,
    /// Bytes left in the campaign's checkpoint directory.
    pub ckpt_bytes: u64,
    /// `RemoteService::submit` call, in `now_ns` time.
    pub submit: Option<(u64, u64)>,
    /// `RemoteHandle::status` calls, in `now_ns` time.
    pub status_calls: Vec<(u64, u64)>,
}

impl Record {
    /// The campaign id the trace knows this record by.
    pub fn trace_id(&self) -> u32 {
        trace_id(&self.plan, self.traced)
    }

    pub fn wall_s(&self) -> f64 {
        (self.span.1 - self.span.0) as f64 / 1e9
    }
}

fn trace_id(plan: &CampaignPlan, traced: bool) -> u32 {
    if traced {
        plan.id | TRACED_BIT
    } else {
        plan.id
    }
}

/// Runs a workload's units.
pub struct Runner<'a> {
    pub workload: Workload,
    pub dir: &'a RunDir,
    pub modules: Arc<Modules>,
    /// Lane logs of traced executors (worker logs are moved here too).
    pub logs: Arc<Mutex<Vec<LaneLog>>>,
    /// Where traced worker processes write their lane logs.
    pub worker_trace_dir: PathBuf,
    pub stack: Option<Stack>,
}

impl Runner<'_> {
    fn sink(&self) -> Sink {
        Sink::Memory(Arc::clone(&self.logs))
    }

    fn spec(&self, plan: &CampaignPlan, traced: bool) -> FactorySpec {
        FactorySpec {
            campaign: trace_id(plan, traced),
            mechanism: self.workload.mechanism(),
            target: plan.target.to_string(),
            traced,
            trace_dir: self.worker_trace_dir.to_string_lossy().into_owned(),
        }
    }

    /// Run one unit's campaigns, closed loop.
    pub fn unit(&self, unit: u32, plans: &[CampaignPlan], traced: bool) -> Vec<Record> {
        match self.workload {
            Workload::Persistent => plans
                .iter()
                .map(|p| self.persistent(unit, p, traced))
                .collect(),
            Workload::IsolatedFork => plans
                .iter()
                .map(|p| self.isolated(unit, p, traced))
                .collect(),
            Workload::ServiceRpc => self.batch(unit, plans, traced),
        }
    }

    fn record(&self, unit: u32, plan: &CampaignPlan, traced: bool) -> Record {
        Record {
            plan: plan.clone(),
            unit,
            traced,
            span: (0, 0),
            result: Err("not run".into()),
            ckpt_bytes: 0,
            submit: None,
            status_calls: Vec::new(),
        }
    }

    fn persistent(&self, unit: u32, plan: &CampaignPlan, traced: bool) -> Record {
        let mut rec = self.record(unit, plan, traced);
        let (seeds, cfg) = (plan.seeds(), plan.config());
        let module = &self.modules[plan.target];
        let start = now_ns();
        rec.result = caught(|| {
            let ex = ClosureXExecutor::new(module, ClosureXConfig::default())
                .map_err(|e| e.to_string())?;
            let mut ex: Box<dyn Executor + Send> = Box::new(ex);
            if traced {
                ex = Box::new(TracedExecutor::new(ex, rec.trace_id(), self.sink()));
            }
            finished(Campaign::new(&seeds, &cfg).executor(ex.as_mut()).run())
        });
        rec.span = (start, now_ns());
        rec
    }

    fn isolated(&self, unit: u32, plan: &CampaignPlan, traced: bool) -> Record {
        let mut rec = self.record(unit, plan, traced);
        let (seeds, cfg) = (plan.seeds(), plan.config());
        let ck = self.dir.path().join(format!("ckpt-{}", rec.trace_id()));
        let factory = BenchFactory::new(
            self.spec(plan, traced),
            Arc::clone(&self.modules[plan.target]),
            None,
        );
        let start = now_ns();
        rec.result = caught(|| {
            finished(
                Campaign::new(&seeds, &cfg)
                    .factory(&factory)
                    .lanes(FORK_LANES)
                    .shards(FORK_LANES)
                    .isolation(Isolation::Process)
                    .checkpoint(CheckpointConfig::new(&ck))
                    .run(),
            )
        });
        rec.span = (start, now_ns());
        rec.ckpt_bytes = dir_bytes(&ck);
        let _ = std::fs::remove_dir_all(&ck);
        if traced {
            match read_worker_logs(&self.worker_trace_dir, rec.trace_id()) {
                Ok(logs) => self.logs.lock().expect("lane logs").extend(logs),
                Err(e) => rec.result = Err(format!("worker trace: {e}")),
            }
        }
        rec
    }

    /// Submit a batch over RPC, then poll `Status` until every tenant is
    /// terminal; then size what each tenant left in its directory.
    fn batch(&self, unit: u32, plans: &[CampaignPlan], traced: bool) -> Vec<Record> {
        let stack = self.stack.as_ref().expect("service-rpc runs on a stack");
        let mut recs: Vec<Record> = plans.iter().map(|p| self.record(unit, p, traced)).collect();
        let mut pending = Vec::new();
        for (i, rec) in recs.iter_mut().enumerate() {
            let plan = &rec.plan;
            let mut spec = CampaignSpec::new(
                format!("t{}", rec.trace_id()),
                self.spec(plan, traced).encode(),
                plan.seeds(),
                plan.config(),
            );
            spec.lanes = SERVICE_LANES;
            spec.shards = 1;
            let t0 = now_ns();
            let submitted = stack.client.submit(spec);
            let t1 = now_ns();
            rec.submit = Some((t0, t1));
            rec.span.0 = t0;
            match submitted {
                Ok(h) => pending.push((i, h)),
                Err(e) => {
                    rec.span.1 = t1;
                    rec.result = Err(format!("submit: {e}"));
                }
            }
        }
        while !pending.is_empty() {
            std::thread::sleep(POLL);
            pending.retain(|(i, h)| {
                let rec = &mut recs[*i];
                let t0 = now_ns();
                let state = h.status();
                let t1 = now_ns();
                rec.status_calls.push((t0, t1));
                let done = match state {
                    Ok(CampaignState::Finished) => {
                        rec.result = h.await_result().map_err(|e| format!("await: {e}"));
                        true
                    }
                    Ok(CampaignState::Failed | CampaignState::Killed { .. }) => {
                        rec.result = Err(format!("tenant ended {state:?}"));
                        true
                    }
                    Ok(_) if t1 - rec.span.0 > TENANT_TIMEOUT.as_nanos() as u64 => {
                        let _ = h.kill();
                        rec.result = Err("tenant timed out".into());
                        true
                    }
                    Ok(_) => false,
                    Err(e) => {
                        rec.result = Err(format!("status: {e}"));
                        true
                    }
                };
                if done {
                    rec.span.1 = t1;
                }
                !done
            });
        }
        for rec in &mut recs {
            rec.ckpt_bytes = dir_bytes(&stack.dir.join(format!("t{}", rec.trace_id())));
        }
        recs
    }
}

/// Run `f`, turning a panic into an error.
fn caught(f: impl FnOnce() -> Result<CampaignResult, String>) -> Result<CampaignResult, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn finished(r: Result<CampaignOutcome, CampaignError>) -> Result<CampaignResult, String> {
    r.map_err(|e| e.to_string())?
        .finished()
        .ok_or_else(|| "campaign was killed".to_string())
}

/// Everything that must match between a campaign and its oracle: the
/// result with the recovery reports (supervision, storage, resume)
/// removed.
pub fn outcome_key(r: &CampaignResult) -> String {
    format!("{:?}", r.sans_supervision().sans_storage().sans_resume())
}

/// The `persistent` oracle's key: execs, clock, coverage hash and crash
/// sites.
fn reference_key(r: &CampaignResult) -> String {
    let sites: Vec<_> = r.crashes.iter().map(|c| c.crash.site_key()).collect();
    format!(
        "{} {} {:016x} {sites:?}",
        r.execs, r.clock_cycles, r.coverage_hash
    )
}

/// The workload's key of a result: what must equal the oracle's.
fn key(w: Workload, r: &CampaignResult) -> String {
    match w {
        Workload::Persistent => reference_key(r),
        Workload::ServiceRpc | Workload::IsolatedFork => outcome_key(r),
    }
}

/// Run `plan` the oracle's way: on the reference interpreter
/// (`persistent`), or as a plain in-process `Campaign::factory` run of
/// the same spec (the other two). Returns the oracle's key.
fn oracle(w: Workload, modules: &Modules, plan: &CampaignPlan) -> Result<String, String> {
    let (seeds, cfg) = (plan.seeds(), plan.config());
    let module = &modules[plan.target];
    let r = match w {
        Workload::Persistent => {
            let _reference = vmos::ReferenceEngineGuard::new();
            let mut ex = ClosureXExecutor::new(module, ClosureXConfig::default())
                .map_err(|e| e.to_string())?;
            finished(Campaign::new(&seeds, &cfg).executor(&mut ex).run())?
        }
        Workload::ServiceRpc | Workload::IsolatedFork => {
            let (lanes, shards) = if w == Workload::ServiceRpc {
                (SERVICE_LANES, 1)
            } else {
                (FORK_LANES, FORK_LANES)
            };
            let spec = FactorySpec {
                campaign: plan.id,
                mechanism: w.mechanism(),
                target: plan.target.to_string(),
                traced: false,
                trace_dir: String::new(),
            };
            let factory = BenchFactory::new(spec, Arc::clone(module), None);
            finished(
                Campaign::new(&seeds, &cfg)
                    .factory(&factory)
                    .lanes(lanes)
                    .shards(shards)
                    .run(),
            )?
        }
    };
    Ok(key(w, &r))
}

/// Check every record: untraced campaigns against the workload's oracle,
/// run once per distinct campaign on two threads; traced twins against
/// their untraced twin. Returns one verdict per record, in order.
///
/// # Errors
/// When the oracle itself produced no result for some campaign — the
/// run has nothing to check against and must not report one.
pub fn check(
    w: Workload,
    modules: &Modules,
    recs: &[Record],
) -> Result<Vec<Result<(), String>>, String> {
    let oracle_key = |p: &CampaignPlan| (p.target, p.rng_seed, p.budget);
    let mut distinct: Vec<&CampaignPlan> = Vec::new();
    for r in recs.iter().filter(|r| !r.traced) {
        if !distinct
            .iter()
            .any(|p| oracle_key(p) == oracle_key(&r.plan))
        {
            distinct.push(&r.plan);
        }
    }
    let wants: Mutex<Vec<Option<Result<String, String>>>> = Mutex::new(vec![None; distinct.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(plan) = distinct.get(k) else { break };
                let want = catch_unwind(AssertUnwindSafe(|| oracle(w, modules, plan)))
                    .unwrap_or_else(|_| Err("oracle panicked".into()));
                wants.lock().expect("oracle results")[k] = Some(want);
            });
        }
    });
    let mut wants_ok = Vec::with_capacity(distinct.len());
    for (plan, want) in distinct
        .iter()
        .zip(wants.into_inner().expect("oracle results"))
    {
        match want {
            Some(Ok(k)) => wants_ok.push(k),
            Some(Err(e)) => return Err(format!("no oracle result for {}: {e}", plan.target)),
            None => return Err(format!("no oracle result for {}", plan.target)),
        }
    }
    Ok(recs
        .iter()
        .map(|rec| {
            let got = rec.result.as_ref().map_err(Clone::clone)?;
            let (want, mismatch) = if rec.traced {
                let twin = recs
                    .iter()
                    .find(|r| !r.traced && r.plan == rec.plan && r.unit == rec.unit)
                    .ok_or("traced campaign has no twin")?;
                let twin = twin.result.as_ref().map_err(Clone::clone)?;
                (outcome_key(twin), "its untraced twin")
            } else {
                let k = distinct
                    .iter()
                    .position(|p| oracle_key(p) == oracle_key(&rec.plan))
                    .ok_or("no oracle run")?;
                (wants_ok[k].clone(), "its oracle")
            };
            let got = if rec.traced {
                outcome_key(got)
            } else {
                key(w, got)
            };
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "campaign {} ({}, seed {:#x}) differs from {mismatch}",
                    rec.trace_id(),
                    rec.plan.target,
                    rec.plan.rng_seed
                ))
            }
        })
        .collect())
}
