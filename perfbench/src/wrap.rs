//! Benchmark-side wrappers of the public `Executor`, `ExecutorFactory` and
//! `SpecResolver` traits.
//!
//! Every layer is measured from outside: [`TracedExecutor`] times each
//! `run()` call and the gap before it, and counts what `ExecOutcome`
//! reports and how often the campaign exported the executor's state in
//! each gap. A checkpointed lane exports once per exec (its journal
//! record) and again at each epoch barrier, so gaps with more exports
//! than the lane's quietest gap span a barrier (see
//! [`LaneLog::classified_gaps`]). Untraced campaigns get the bare executor, so
//! the end-to-end path carries no wrapper at all.

use std::cell::Cell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use bench::Mechanism;
use closurex::executor::{ExecOutcome, ExecStatus, Executor, ExecutorFactory};
use closurex::resilience::{HarnessError, ResilienceReport};
use closurex::ExecutorState;
use vmos::{CovMap, FaultPlan, Reader, WarmSource, WireError, Writer};

/// Wall-clock nanoseconds since the Unix epoch: the one clock shared by
/// the benchmark and its worker processes.
pub fn now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Compiled target modules, by target name.
pub type Modules = HashMap<&'static str, Arc<fir::Module>>;

/// What one executor instance did, recorded around its `run()` calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneLog {
    /// Campaign id (see [`crate::plan::CampaignPlan::id`]).
    pub campaign: u32,
    /// Recorded in a lane worker process.
    pub worker: bool,
    /// `run()` spans, `[start, end)` in [`now_ns`] time.
    pub runs: Vec<(u64, u64)>,
    /// Gaps between consecutive `run()` calls: `(start, end, state
    /// exports during the gap)`.
    pub gaps: Vec<(u64, u64, u32)>,
    pub insts: u64,
    pub exec_cycles: u64,
    pub mgmt_cycles: u64,
    pub crashes: u64,
    pub hangs: u64,
    /// Decoded-image lowerings paid by the worker process.
    pub lowered: u64,
}

impl LaneLog {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.campaign);
        w.put_bool(self.worker);
        for v in [
            self.insts,
            self.exec_cycles,
            self.mgmt_cycles,
            self.crashes,
            self.hangs,
            self.lowered,
        ] {
            w.put_u64(v);
        }
        w.put_usize(self.runs.len());
        for &(s, e) in &self.runs {
            w.put_u64(s);
            w.put_u64(e);
        }
        w.put_usize(self.gaps.len());
        for &(s, e, x) in &self.gaps {
            w.put_u64(s);
            w.put_u64(e);
            w.put_u32(x);
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<LaneLog, WireError> {
        let mut r = Reader::new(bytes);
        let mut log = LaneLog {
            campaign: r.get_u32()?,
            worker: r.get_bool()?,
            insts: r.get_u64()?,
            exec_cycles: r.get_u64()?,
            mgmt_cycles: r.get_u64()?,
            crashes: r.get_u64()?,
            hangs: r.get_u64()?,
            lowered: r.get_u64()?,
            ..LaneLog::default()
        };
        let n = r.get_count()?.min(r.remaining() / 16);
        for _ in 0..n {
            log.runs.push((r.get_u64()?, r.get_u64()?));
        }
        let n = r.get_count()?.min(r.remaining() / 20);
        for _ in 0..n {
            log.gaps.push((r.get_u64()?, r.get_u64()?, r.get_u32()?));
        }
        if !r.is_empty() {
            return Err(WireError::Malformed("trailing lane-log bytes"));
        }
        Ok(log)
    }

    /// `run()` calls recorded.
    pub fn execs(&self) -> u64 {
        self.runs.len() as u64
    }

    /// The gaps as `(start, end, spans_barrier)`. Every gap of a lane
    /// sees the same per-exec exports (none, or one journal record); a
    /// barrier adds its snapshot exports on top.
    pub fn classified_gaps(&self) -> impl Iterator<Item = (u64, u64, bool)> + '_ {
        let quietest = self.gaps.iter().map(|g| g.2).min().unwrap_or(0);
        self.gaps.iter().map(move |&(s, e, x)| (s, e, x > quietest))
    }
}

/// Where a traced executor leaves its log.
#[derive(Clone)]
pub enum Sink {
    /// In this process: pushed when the executor drops.
    Memory(Arc<Mutex<Vec<LaneLog>>>),
    /// A worker process exits without dropping its executor, so it
    /// rewrites `lane-<pid>-<campaign>.bin` in this directory at each
    /// epoch barrier: the second state export since the last `run()`
    /// (after the epoch's final journal record).
    Dir(PathBuf),
}

/// Read every worker lane log of `campaign` left in `dir`.
pub fn read_worker_logs(dir: &Path, campaign: u32) -> Result<Vec<LaneLog>, String> {
    let suffix = format!("-{campaign}.bin");
    let mut logs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("trace dir: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("trace dir: {e}"))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("lane-") && name.ends_with(&suffix) {
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            logs.push(LaneLog::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    Ok(logs)
}

/// An executor wrapped to time and count every `run()`.
pub struct TracedExecutor {
    inner: Box<dyn Executor + Send>,
    log: LaneLog,
    last_end: Option<u64>,
    /// State exports since the last `run()` returned.
    exports: Cell<u32>,
    sink: Sink,
}

impl TracedExecutor {
    pub fn new(inner: Box<dyn Executor + Send>, campaign: u32, sink: Sink) -> Self {
        TracedExecutor {
            inner,
            log: LaneLog {
                campaign,
                worker: matches!(sink, Sink::Dir(_)),
                ..LaneLog::default()
            },
            last_end: None,
            exports: Cell::new(0),
            sink,
        }
    }
}

impl Executor for TracedExecutor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, input: &[u8]) -> ExecOutcome {
        let start = now_ns();
        let out = self.inner.run(input);
        let end = now_ns();
        if let Some(prev) = self.last_end {
            self.log.gaps.push((prev, start, self.exports.get()));
        }
        self.exports.set(0);
        self.last_end = Some(end);
        let log = &mut self.log;
        log.runs.push((start, end));
        log.insts += out.insts;
        log.exec_cycles += out.exec_cycles;
        log.mgmt_cycles += out.mgmt_cycles;
        match out.status {
            ExecStatus::Crash(_) => log.crashes += 1,
            ExecStatus::Hang => log.hangs += 1,
            ExecStatus::Exit(_) | ExecStatus::Fault(_) => {}
        }
        out
    }

    fn coverage(&self) -> &CovMap {
        self.inner.coverage()
    }

    fn fuel(&self) -> u64 {
        self.inner.fuel()
    }

    fn inject_faults(&mut self, plan: FaultPlan) {
        self.inner.inject_faults(plan);
    }

    fn resilience(&self) -> ResilienceReport {
        self.inner.resilience()
    }

    fn export_state(&self) -> Option<ExecutorState> {
        self.exports.set(self.exports.get() + 1);
        if let (Sink::Dir(dir), 2) = (&self.sink, self.exports.get()) {
            let mut log = self.log.clone();
            log.lowered = vmos::decode_counters().lowered;
            let path = dir.join(format!("lane-{}-{}.bin", std::process::id(), log.campaign));
            // Best effort: a lost log shows up as missing lane time.
            let _ = std::fs::write(path, log.encode());
        }
        self.inner.export_state()
    }

    fn restore_state(&mut self, state: &ExecutorState) -> Result<(), HarnessError> {
        self.inner.restore_state(state)
    }

    fn module_fingerprint(&self) -> Option<u64> {
        self.inner.module_fingerprint()
    }

    fn warm_decoded_image(&self, dir: Option<&Path>) -> Option<WarmSource> {
        self.inner.warm_decoded_image(dir)
    }

    fn save_decoded_sidecar(&self, dir: &Path) -> bool {
        self.inner.save_decoded_sidecar(dir)
    }
}

impl Drop for TracedExecutor {
    fn drop(&mut self) {
        if let Sink::Memory(logs) = &self.sink {
            if let Ok(mut logs) = logs.lock() {
                logs.push(std::mem::take(&mut self.log));
            }
        }
    }
}

/// The recipe a campaign's factory is rebuilt from: in a worker process
/// (`ExecutorFactory::worker_spec`) and by the service's resolver
/// (`CampaignSpec::factory_spec`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorySpec {
    pub campaign: u32,
    pub mechanism: Mechanism,
    pub target: String,
    pub traced: bool,
    /// Worker processes write their lane logs here (empty in process).
    pub trace_dir: String,
}

impl FactorySpec {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.campaign);
        w.put_u8(self.mechanism.wire_tag());
        w.put_str(&self.target);
        w.put_bool(self.traced);
        w.put_str(&self.trace_dir);
        w.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<FactorySpec, String> {
        let bad = |e: WireError| format!("bad factory spec: {e}");
        let mut r = Reader::new(bytes);
        let campaign = r.get_u32().map_err(bad)?;
        let tag = r.get_u8().map_err(bad)?;
        let target = r.get_str().map_err(bad)?;
        let traced = r.get_bool().map_err(bad)?;
        let trace_dir = r.get_str().map_err(bad)?;
        if !r.is_empty() {
            return Err("bad factory spec: trailing bytes".into());
        }
        let mechanism =
            Mechanism::from_wire_tag(tag).ok_or_else(|| format!("unknown mechanism tag {tag}"))?;
        Ok(FactorySpec {
            campaign,
            mechanism,
            target,
            traced,
            trace_dir,
        })
    }
}

/// An executor factory over an already-compiled target module.
pub struct BenchFactory {
    spec: FactorySpec,
    module: Arc<fir::Module>,
    sink: Option<Sink>,
}

impl BenchFactory {
    /// `sink` is where this process's traced executors log (`None`:
    /// build bare executors here; worker processes follow the spec).
    pub fn new(spec: FactorySpec, module: Arc<fir::Module>, sink: Option<Sink>) -> Self {
        BenchFactory { spec, module, sink }
    }
}

impl ExecutorFactory for BenchFactory {
    fn build(&self) -> Result<Box<dyn Executor + Send>, HarnessError> {
        let ex = self.spec.mechanism.build(&self.module)?;
        Ok(match &self.sink {
            Some(sink) => Box::new(TracedExecutor::new(ex, self.spec.campaign, sink.clone())),
            None => ex,
        })
    }

    /// Warm the image the executor will decode: the instrumented module.
    fn warm_decoded_image(&self, sidecar_dir: Option<&Path>) -> Option<WarmSource> {
        let mut m = (*self.module).clone();
        pipeline(self.spec.mechanism).run(&mut m).ok()?;
        Some(vmos::DecodedImage::warm_with_sidecar(&m, sidecar_dir))
    }

    fn worker_spec(&self) -> Option<Vec<u8>> {
        Some(self.spec.encode())
    }
}

/// The instrumentation pipeline a mechanism's executor runs.
pub fn pipeline(mechanism: Mechanism) -> passes::PassManager {
    match mechanism {
        Mechanism::ClosureX => passes::pipelines::closurex_pipeline(),
        _ => passes::pipelines::baseline_pipeline(),
    }
}

/// The lane-worker entry point: rebuild the factory a worker spec names.
/// Traced specs log to the spec's trace directory.
pub fn worker_factory(bytes: &[u8]) -> Result<Box<dyn ExecutorFactory>, String> {
    let spec = FactorySpec::decode(bytes)?;
    let target = targets::by_name(&spec.target)
        .ok_or_else(|| format!("unknown target {:?} in worker spec", spec.target))?;
    let module =
        Arc::new(minic::compile(target.name, target.source).map_err(|e| format!("compile: {e}"))?);
    let sink = spec
        .traced
        .then(|| Sink::Dir(PathBuf::from(&spec.trace_dir)));
    Ok(Box::new(BenchFactory::new(spec, module, sink)))
}

/// The service's resolver: specs name targets compiled during set-up, so
/// admission pays no compile; traced specs log to `sink`.
pub struct BenchResolver {
    pub modules: Arc<Modules>,
    pub sink: Sink,
}

impl aflrs::SpecResolver for BenchResolver {
    fn resolve(&self, bytes: &[u8]) -> Result<Box<dyn ExecutorFactory + Send + Sync>, String> {
        let spec = FactorySpec::decode(bytes)?;
        let module = self
            .modules
            .get(spec.target.as_str())
            .cloned()
            .ok_or_else(|| format!("target {:?} was not compiled", spec.target))?;
        let sink = spec.traced.then(|| self.sink.clone());
        Ok(Box::new(BenchFactory::new(spec, module, sink)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_spec_round_trips() {
        let s = FactorySpec {
            campaign: 7,
            mechanism: Mechanism::ForkServer,
            target: "md4c".into(),
            traced: true,
            trace_dir: "/x/y".into(),
        };
        assert_eq!(FactorySpec::decode(&s.encode()), Ok(s));
        assert!(FactorySpec::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn lane_log_round_trips() {
        let log = LaneLog {
            campaign: 3,
            worker: true,
            runs: vec![(1, 5), (7, 9)],
            gaps: vec![(5, 7, 2)],
            insts: 11,
            exec_cycles: 12,
            mgmt_cycles: 13,
            crashes: 1,
            hangs: 0,
            lowered: 2,
        };
        assert_eq!(LaneLog::decode(&log.encode()), Ok(log));
    }

    #[test]
    fn traced_executor_is_transparent_and_counts_exports_per_gap() {
        let t = targets::by_name("giftext").unwrap();
        let module = t.module();
        let seeds = (t.seeds)();
        let mut bare = Mechanism::ClosureX.build(&module).unwrap();
        let logs = Arc::new(Mutex::new(Vec::new()));
        let mut traced = TracedExecutor::new(
            Mechanism::ClosureX.build(&module).unwrap(),
            5,
            Sink::Memory(Arc::clone(&logs)),
        );
        for (i, s) in seeds.iter().enumerate() {
            // A journal record after every run; a barrier before run 2.
            if i == 2 {
                let _ = traced.export_state();
            }
            assert_eq!(bare.run(s), traced.run(s));
            assert_eq!(bare.coverage().as_slice(), traced.coverage().as_slice());
            let _ = traced.export_state();
        }
        drop(traced);
        let logs = logs.lock().unwrap();
        assert_eq!(logs.len(), 1);
        let log = &logs[0];
        assert_eq!((log.campaign, log.execs()), (5, seeds.len() as u64));
        assert_eq!(log.gaps.len(), seeds.len() - 1);
        let barriers: Vec<bool> = log.classified_gaps().map(|g| g.2).collect();
        assert!(barriers[1], "the extra export before run 2 marks gap 1");
        assert_eq!(barriers.iter().filter(|b| **b).count(), 1);
        assert!(log.insts > 0);
    }
}
