//! Campaign results: throughput, coverage, and deduplicated crash records.

use serde::{Deserialize, Serialize, Value};
use vmos::Crash;

use crate::storage::StorageCounters;
use crate::supervise::SupervisionCounters;
use crate::CYCLES_PER_SECOND;

/// First discovery of a deduplicated crash site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrashRecord {
    /// The crash (kind + site).
    pub crash: Crash,
    /// Campaign clock (cycles) at first discovery.
    pub found_at_cycles: u64,
    /// The triggering input.
    pub input: Vec<u8>,
    /// How many times this site was hit during the campaign.
    pub hits: u64,
    /// Set when crash revalidation replayed this input in a fresh process
    /// and the crash did **not** reproduce at the same site — the record is
    /// kept (it may be a real stateful bug) but flagged as untrustworthy.
    pub flaky: bool,
}

impl CrashRecord {
    /// Discovery time in simulated seconds (the paper's Table 7 unit).
    pub fn found_at_seconds(&self) -> u64 {
        self.found_at_cycles / CYCLES_PER_SECOND
    }
}

/// Resilience counters a campaign aggregates: the executor's own lifetime
/// report, embedded verbatim (one struct, one source of truth), plus the
/// campaign-level recovery counters layered on top of it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceCounters {
    /// The executor's lifetime [`ResilienceReport`](closurex::ResilienceReport)
    /// — respawns, divergences, integrity checks, quarantine accounting,
    /// executor-observed harness faults, and the typed
    /// [`DegradationLevel`](closurex::DegradationLevel).
    pub executor: closurex::ResilienceReport,
    /// Harness faults the *campaign* observed as `ExecStatus::Fault` (can
    /// exceed `executor.harness_faults` when retries fault repeatedly on a
    /// revalidator).
    pub harness_faults: u64,
    /// Inputs re-executed after a harness fault (bounded by
    /// `CampaignConfig::max_retries` each).
    pub retries: u64,
    /// Inputs abandoned because every retry faulted too.
    pub dropped_inputs: u64,
    /// Times the consecutive-hang watchdog tripped and abandoned a
    /// mutation batch.
    pub watchdog_trips: u64,
    /// Lane-supervision accounting (sharded campaigns): contained panics
    /// and hangs, executor rebuilds, recoveries, and lane degradations.
    /// Describes the *recovery process*, not the fuzzing outcome — a
    /// recovered campaign matches its unfaulted twin everywhere except
    /// this block (see [`CampaignResult::outcome_diff`]).
    pub supervision: SupervisionCounters,
    /// Storage-plane accounting: transient-error retries, crash boundaries
    /// hit, scrub-and-repair work, and typed degradations to in-memory
    /// checkpointing. Like `supervision`, this describes recovery, not the
    /// fuzzing outcome (see [`CampaignResult::outcome_diff`]).
    pub storage: StorageCounters,
}

impl ResilienceCounters {
    /// The executor's final degradation level, as a typed enum.
    pub fn degradation(&self) -> closurex::DegradationLevel {
        self.executor.degradation
    }

    /// Sum two lanes' counters (sharded campaigns aggregate per-lane
    /// reports). The merged degradation is the worst across lanes:
    /// `ForkPerExec` if any lane degraded.
    pub fn absorb(&mut self, other: &ResilienceCounters) {
        self.executor.respawns += other.executor.respawns;
        self.executor.divergences += other.executor.divergences;
        self.executor.integrity_checks += other.executor.integrity_checks;
        self.executor.quarantined += other.executor.quarantined;
        self.executor.quarantine_dropped += other.executor.quarantine_dropped;
        self.executor.harness_faults += other.executor.harness_faults;
        if other.executor.degradation == closurex::DegradationLevel::ForkPerExec {
            self.executor.degradation = closurex::DegradationLevel::ForkPerExec;
        }
        self.harness_faults += other.harness_faults;
        self.retries += other.retries;
        self.dropped_inputs += other.dropped_inputs;
        self.watchdog_trips += other.watchdog_trips;
        self.supervision.absorb(&other.supervision);
        self.storage.absorb(&other.storage);
    }
}

/// Everything a finished campaign reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Executor name ("closurex", "afl-forkserver", …).
    pub executor: String,
    /// Test cases executed.
    pub execs: u64,
    /// Final campaign clock in cycles.
    pub clock_cycles: u64,
    /// Distinct bucketed edges discovered.
    pub edges_found: usize,
    /// FNV-1a digest of the final accumulated (virgin) coverage map — a
    /// compact fingerprint two campaigns can be compared with byte-for-byte
    /// (the checkpoint/resume determinism check relies on it).
    pub coverage_hash: u64,
    /// Deduplicated crashes, in discovery order.
    pub crashes: Vec<CrashRecord>,
    /// Final queue size.
    pub queue_len: usize,
    /// Hangs observed.
    pub hangs: u64,
    /// Cycles spent in process management / restoration.
    pub mgmt_cycles: u64,
    /// Cycles spent executing target code.
    pub exec_cycles: u64,
    /// The final queue inputs (fed to the correctness evaluation).
    pub queue_inputs: Vec<Vec<u8>>,
    /// Recovery/fault accounting for this trial.
    pub resilience: ResilienceCounters,
    /// Resume accounting, present only on results produced by
    /// [`crate::Campaign::resume`] (or a service-managed resume): which
    /// snapshot the campaign restarted from, what corruption was skipped
    /// and repaired, and whether the decoded
    /// image was warm. `None` on a campaign that ran start-to-finish.
    /// Describes the *resume process*, not the fuzzing outcome — the
    /// bit-identity comparison key is [`CampaignResult::outcome_diff`].
    pub resume: Option<crate::checkpoint::ResumeReport>,
}

impl CampaignResult {
    /// Executions per simulated second.
    pub fn execs_per_second(&self) -> f64 {
        if self.clock_cycles == 0 {
            return 0.0;
        }
        self.execs as f64 * CYCLES_PER_SECOND as f64 / self.clock_cycles as f64
    }

    /// Fraction of the budget spent on management overhead.
    pub fn mgmt_fraction(&self) -> f64 {
        let total = self.mgmt_cycles + self.exec_cycles;
        if total == 0 {
            return 0.0;
        }
        self.mgmt_cycles as f64 / total as f64
    }

    /// The first difference between two results under the bit-identity
    /// key, or `None` when they agree. The key is every field except the
    /// three recovery reports — `resilience.supervision`,
    /// `resilience.storage` and `resume` — which describe how a run was
    /// recovered (faults contained, storage repaired, work re-run),
    /// not what it computed. A difference is reported as the path of the
    /// first differing field with both values, e.g.
    /// `crashes[1].hits: 3 vs 4`.
    pub fn outcome_diff(&self, other: &CampaignResult) -> Option<String> {
        first_diff(String::new(), &self.to_value(), &other.to_value())
    }

    /// This result with the supervision block zeroed. Kept for
    /// perfbench's `outcome_key`; compare through [`Self::outcome_diff`].
    pub fn sans_supervision(&self) -> CampaignResult {
        let mut r = self.clone();
        r.resilience.supervision = SupervisionCounters::default();
        r
    }

    /// This result with the storage block zeroed. Kept for perfbench's
    /// `outcome_key`; compare through [`Self::outcome_diff`].
    pub fn sans_storage(&self) -> CampaignResult {
        let mut r = self.clone();
        r.resilience.storage = StorageCounters::default();
        r
    }

    /// This result with the resume report stripped. Kept for perfbench's
    /// `outcome_key`; compare through [`Self::outcome_diff`].
    pub fn sans_resume(&self) -> CampaignResult {
        let mut r = self.clone();
        r.resume = None;
        r
    }

    /// Crashes that are resource-exhaustion false positives.
    pub fn false_crashes(&self) -> usize {
        self.crashes
            .iter()
            .filter(|c| c.crash.kind.is_resource_exhaustion())
            .count()
    }
}

/// Fields outside the bit-identity key (see
/// [`CampaignResult::outcome_diff`]).
const RECOVERY_REPORTS: [&str; 3] = ["resilience.supervision", "resilience.storage", "resume"];

/// Depth-first walk of two serialized results, in field order: the path
/// and both values of the first leaf that differs.
fn first_diff(path: String, a: &Value, b: &Value) -> Option<String> {
    if RECOVERY_REPORTS.contains(&path.as_str()) {
        return None;
    }
    match (a, b) {
        (Value::Object(x), Value::Object(y))
            if x.len() == y.len() && x.iter().zip(y).all(|((k, _), (l, _))| k == l) =>
        {
            x.iter().zip(y).find_map(|((k, va), (_, vb))| {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                first_diff(sub, va, vb)
            })
        }
        (Value::Array(x), Value::Array(y)) => x
            .iter()
            .zip(y)
            .enumerate()
            .find_map(|(i, (va, vb))| first_diff(format!("{path}[{i}]"), va, vb))
            .or_else(|| {
                (x.len() != y.len()).then(|| format!("{path}: {} vs {} items", x.len(), y.len()))
            }),
        _ if a == b => None,
        _ => Some(format!("{path}: {} vs {}", brief(a), brief(b))),
    }
}

/// A leaf value as it reads in a diff message; compound values are cut
/// short.
fn brief(v: &Value) -> String {
    let s = match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::I64(n) => n.to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(n) => n.to_string(),
        Value::Str(s) => format!("{s:?}"),
        compound => format!("{compound:?}"),
    };
    if s.len() > 80 {
        format!("{}…", &s[..s.floor_char_boundary(80)])
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmos::CrashKind;

    #[test]
    fn rates_and_fractions() {
        let r = CampaignResult {
            executor: "x".into(),
            execs: 1000,
            clock_cycles: CYCLES_PER_SECOND * 10,
            edges_found: 5,
            coverage_hash: 0,
            crashes: vec![],
            queue_len: 3,
            hangs: 0,
            mgmt_cycles: 25,
            exec_cycles: 75,
            queue_inputs: vec![],
            resilience: ResilienceCounters::default(),
            resume: None,
        };
        assert!((r.execs_per_second() - 100.0).abs() < 1e-9);
        assert!((r.mgmt_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn false_crash_counting() {
        let mk = |kind| CrashRecord {
            crash: Crash {
                kind,
                function: "f".into(),
                block: 0,
                detail: String::new(),
            },
            found_at_cycles: CYCLES_PER_SECOND * 3,
            input: vec![],
            hits: 1,
            flaky: false,
        };
        let r = CampaignResult {
            executor: "x".into(),
            execs: 0,
            clock_cycles: 0,
            edges_found: 0,
            coverage_hash: 0,
            crashes: vec![mk(CrashKind::NullPtrDeref), mk(CrashKind::FdExhaustion)],
            queue_len: 0,
            hangs: 0,
            mgmt_cycles: 0,
            exec_cycles: 0,
            queue_inputs: vec![],
            resilience: ResilienceCounters::default(),
            resume: None,
        };
        assert_eq!(r.false_crashes(), 1);
        assert_eq!(r.crashes[0].found_at_seconds(), 3);
    }

    #[test]
    fn outcome_diff_names_the_first_differing_field() {
        let crash = |hits| CrashRecord {
            crash: Crash {
                kind: CrashKind::NullPtrDeref,
                function: "f".into(),
                block: 0,
                detail: String::new(),
            },
            found_at_cycles: 7,
            input: vec![1, 2],
            hits,
            flaky: false,
        };
        let a = CampaignResult {
            executor: "x".into(),
            execs: 10,
            clock_cycles: 100,
            edges_found: 5,
            coverage_hash: 0xAB,
            crashes: vec![crash(1), crash(3)],
            queue_len: 2,
            hangs: 0,
            mgmt_cycles: 25,
            exec_cycles: 75,
            queue_inputs: vec![vec![0], vec![1, 2]],
            resilience: ResilienceCounters::default(),
            resume: None,
        };
        assert_eq!(a.outcome_diff(&a.clone()), None);

        let mut b = a.clone();
        b.crashes[1].hits = 4;
        assert_eq!(
            a.outcome_diff(&b).as_deref(),
            Some("crashes[1].hits: 3 vs 4")
        );

        // The recovery reports sit outside the key.
        let mut c = a.clone();
        c.resume = Some(crate::checkpoint::ResumeReport {
            snapshot_execs: 9,
            ..Default::default()
        });
        c.resilience.supervision.recovered = 1;
        c.resilience.storage.retries = 2;
        assert_eq!(a.outcome_diff(&c), None);

        let mut d = a.clone();
        d.resilience.retries = 1;
        assert_eq!(
            a.outcome_diff(&d).as_deref(),
            Some("resilience.retries: 0 vs 1")
        );
        d.queue_inputs.push(vec![9]);
        assert_eq!(
            d.outcome_diff(&a).as_deref(),
            Some("queue_inputs: 3 vs 2 items")
        );
    }
}
