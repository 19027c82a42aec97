//! Crash-consistency gauntlet for the storage fault plane (ALICE-style):
//! a deterministic disk fault is injected at every early I/O operation
//! boundary of a checkpointed campaign — on the coordinator stream and on
//! every per-lane journal stream — and each cell must end in one of the
//! sanctioned states:
//!
//! * the fault is retried (or degraded with a typed report) and the
//!   campaign finishes with the exact unfaulted result, or
//! * the machine "dies" at the boundary, and a fault-free restart resumes
//!   to the exact unfaulted result (falling back to a fresh start only
//!   when the crash predates the first durable commit).
//!
//! Never a panic, never a raw `io::Error`, never silent data loss.

use aflrs::{Campaign, CampaignConfig, CampaignOutcome, CampaignResult, CheckpointConfig};
use closurex::executor::{Executor, ExecutorFactory};
use closurex::harness::{ClosureXConfig, ClosureXExecutor};
use closurex::resilience::HarnessError;
use vmos::{DiskFaultKind, DiskFaultPlan, PlanKind};

const TARGET: &str = r#"
    fn main() {
        var f = fopen("/fuzz/input", 0);
        if (f == 0) { exit(1); }
        var buf[16];
        var n = fread(buf, 1, 16, f);
        fclose(f);
        if (n > 2) {
            if (load8(buf) == 'C') {
                if (load8(buf + 1) == 'X') {
                    return load64(0);
                }
                return 2;
            }
            return 1;
        }
        return 0;
    }
"#;

struct CxFactory<'m> {
    module: &'m fir::Module,
}

impl ExecutorFactory for CxFactory<'_> {
    fn build(&self) -> Result<Box<dyn Executor + Send>, HarnessError> {
        ClosureXExecutor::new(self.module, ClosureXConfig::default())
            .map(|ex| Box::new(ex) as Box<dyn Executor + Send>)
            .map_err(|e| HarnessError::BootFailed(e.to_string()))
    }
}

struct Lab {
    module: fir::Module,
    cfg: CampaignConfig,
    seeds: Vec<Vec<u8>>,
    sharded: bool,
}

impl Lab {
    fn new(sharded: bool) -> Self {
        Lab {
            module: minic::compile("t", TARGET).expect("target compiles"),
            cfg: CampaignConfig {
                budget_cycles: 2_000_000,
                seed: 7,
                ..CampaignConfig::default()
            },
            seeds: vec![b"go".to_vec(), b"CX!".to_vec()],
            sharded,
        }
    }

    fn leg(
        &self,
        plan: Option<DiskFaultPlan>,
        ck: Option<&CheckpointConfig>,
        resume: bool,
    ) -> Result<CampaignOutcome, aflrs::CampaignError> {
        let factory = CxFactory {
            module: &self.module,
        };
        let mut ex = None;
        let mut c = Campaign::new(&self.seeds, &self.cfg);
        if self.sharded {
            c = c.factory(&factory).shards(2).lanes(2).sync_epochs(2);
        } else {
            let slot = ex.insert(
                ClosureXExecutor::new(&self.module, ClosureXConfig::default()).expect("boots"),
            );
            c = c.executor(slot);
        }
        if let Some(p) = plan {
            c = c.storage_faults(p);
        }
        if let Some(k) = ck {
            c = c.checkpoint(k.clone());
        }
        if resume {
            c.resume().map(|(out, _)| out)
        } else {
            c.run()
        }
    }

    fn reference(&self) -> CampaignResult {
        self.leg(None, None, false)
            .expect("plain run")
            .finished()
            .expect("no kill configured")
    }

    fn dir(&self, tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "closurex-durability-{}-{}-{}",
            std::process::id(),
            u8::from(self.sharded),
            tag
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Run one grid cell: fault at `(stream, op)`, recover by the ALICE
    /// rules, and return the final result plus whether the faulted leg was
    /// killed at the boundary.
    fn cell(&self, ck: &CheckpointConfig, plan: DiskFaultPlan) -> (CampaignResult, bool) {
        let first = self
            .leg(Some(plan), Some(ck), false)
            .expect("a disk fault never surfaces as a raw error");
        match first {
            CampaignOutcome::Killed { .. } => {
                let out = match self.leg(None, Some(ck), true) {
                    Ok(out) => out,
                    // Crash before the first durable commit: a fresh
                    // start is the only recovery, and it must be exact.
                    Err(_) => self
                        .leg(None, Some(ck), false)
                        .expect("fresh restart over crash debris"),
                };
                (out.finished().expect("recovery leg finishes"), true)
            }
            finished => (finished.finished().expect("finished leg"), false),
        }
    }
}

fn fingerprint(r: &CampaignResult) -> String {
    serde_json::to_string(&r.sans_storage().sans_resume()).expect("result serializes")
}

/// Crash kinds at every early I/O boundary of every stream, in-process
/// sharded mode: each cell must recover to the exact unfaulted result.
#[test]
fn sharded_crash_at_every_boundary_resumes_exactly() {
    let lab = Lab::new(true);
    let want = fingerprint(&lab.reference());
    let mut kills = 0u32;
    for kind in [DiskFaultKind::CrashAtBoundary, DiskFaultKind::RenameLost] {
        for stream in 0..3u64 {
            for op in 0..6u64 {
                let ck = CheckpointConfig::new(lab.dir(&format!(
                    "crash-{}-{stream}-{op}",
                    kind.name()
                )));
                let (result, killed) = lab.cell(&ck, DiskFaultPlan::at((stream, op), kind));
                kills += u32::from(killed);
                assert_eq!(
                    fingerprint(&result),
                    want,
                    "{} at (stream {stream}, op {op}) diverged",
                    kind.name()
                );
                let _ = std::fs::remove_dir_all(&ck.dir);
            }
        }
    }
    assert!(kills > 0, "the grid must actually exercise crash recovery");
}

/// The same crash grid over the single-driver engine (everything on
/// stream 0: snapshots, rotation, and the journal interleave there).
#[test]
fn single_driver_crash_grid_resumes_exactly() {
    let lab = Lab::new(false);
    let want = fingerprint(&lab.reference());
    let mut kills = 0u32;
    for kind in [DiskFaultKind::CrashAtBoundary, DiskFaultKind::RenameLost] {
        for op in 0..10u64 {
            let mut ck =
                CheckpointConfig::new(lab.dir(&format!("sd-{}-{op}", kind.name())));
            ck.snapshot_every_execs = 30;
            let (result, killed) = lab.cell(&ck, DiskFaultPlan::at((0, op), kind));
            kills += u32::from(killed);
            assert_eq!(
                fingerprint(&result),
                want,
                "{} at op {op} diverged",
                kind.name()
            );
            let _ = std::fs::remove_dir_all(&ck.dir);
        }
    }
    assert!(kills > 0, "the grid must actually exercise crash recovery");
}

/// Transient kinds either retry to success (within the budget) or take
/// the typed degradation exit (past it) — the campaign always finishes
/// with the exact result, and a degraded stream is reported, not fatal.
#[test]
fn transient_faults_retry_or_degrade_typed() {
    let lab = Lab::new(true);
    let want = fingerprint(&lab.reference());
    let mut degraded_cells = 0u32;
    let mut retried_cells = 0u32;
    for kind in [
        DiskFaultKind::NoSpace,
        DiskFaultKind::Io,
        DiskFaultKind::ShortWrite,
    ] {
        for stream in 0..3u64 {
            for (op, fires) in [(0u64, 1u32), (2, 1), (1, 5), (3, 5)] {
                let ck = CheckpointConfig::new(lab.dir(&format!(
                    "tr-{}-{stream}-{op}-{fires}",
                    kind.name()
                )));
                let mut plan = DiskFaultPlan::at((stream, op), kind);
                plan.targeted[0].fires = fires;
                let (result, killed) = lab.cell(&ck, plan);
                assert!(!killed, "a transient fault must never kill the campaign");
                assert_eq!(
                    fingerprint(&result),
                    want,
                    "{} x{fires} at (stream {stream}, op {op}) diverged",
                    kind.name()
                );
                let st = &result.resilience.storage;
                if st.transient_faults > 0 {
                    if fires > 3 {
                        // Past the default retry budget: the stream must
                        // have dropped to in-memory checkpointing with a
                        // typed report, not errored out.
                        assert!(
                            !st.degradations.is_empty(),
                            "{} x{fires} at (stream {stream}, op {op}) exhausted \
                             retries without a typed degradation",
                            kind.name()
                        );
                        degraded_cells += 1;
                    } else {
                        assert!(st.retries > 0, "a single fire must be retried");
                        assert!(st.backoff_cycles > 0, "retries charge seeded backoff");
                        retried_cells += 1;
                    }
                }
                let _ = std::fs::remove_dir_all(&ck.dir);
            }
        }
    }
    assert!(retried_cells > 0, "the grid must exercise the retry path");
    assert!(degraded_cells > 0, "the grid must exercise the degradation ladder");
}

/// Bitrot lands silently; a kill and fault-free resume must scrub it out:
/// rotted snapshots are skipped and repaired, rotted journal bytes are
/// dropped and counted, and the resumed result is exact either way.
#[test]
fn bitrot_is_scrubbed_on_resume() {
    let lab = Lab::new(false);
    let reference = lab.reference();
    let want = fingerprint(&reference);
    // Kill just past the second snapshot: ops 0..52 then cover *every*
    // boundary the run reaches — both kept generations, the rotation, and
    // the live journal tail — so the sweep provably hits bytes the resume
    // actually reads.
    let kill_at = 40;
    assert!(reference.execs > kill_at, "target must outlive the kill switch");
    let mut observed = 0u64;
    for op in 0..52u64 {
        let mut ck = CheckpointConfig::new(lab.dir(&format!("rot-{op}")));
        ck.snapshot_every_execs = 30;
        ck.kill_after_execs = Some(kill_at);
        let first = lab
            .leg(Some(DiskFaultPlan::at((0, op), DiskFaultKind::Bitrot)), Some(&ck), false)
            .expect("bitrot never surfaces as a raw error");
        assert!(
            matches!(first, CampaignOutcome::Killed { .. }),
            "the kill switch fires regardless of the rot"
        );
        ck.kill_after_execs = None;
        let out = lab.leg(None, Some(&ck), true).expect("resume over rotted bytes");
        let result = out.finished().expect("no kill on the second leg");
        let st = &result.resilience.storage;
        observed += st.corrupt_snapshots + st.snapshots_repaired + st.torn_records_dropped;
        assert_eq!(fingerprint(&result), want, "bitrot at op {op} leaked into the result");
        let _ = std::fs::remove_dir_all(&ck.dir);
    }
    assert!(
        observed > 0,
        "the op sweep must hit committed bytes the scrub then catches"
    );
}

/// Faults on cleanup operations (orphan sweep, rotation unlinks) are
/// warnings, not fatal: the campaign finishes exactly, with the warning
/// counted.
#[test]
fn cleanup_failures_warn_and_continue() {
    let lab = Lab::new(true);
    let want = fingerprint(&lab.reference());
    let mut warned = 0u64;
    // Sweep the early coordinator ops: whichever of them are cleanup ops
    // take the warn path (single attempt, counted); the rest retry.
    for op in 0..8u64 {
        let ck = CheckpointConfig::new(lab.dir(&format!("warn-{op}")));
        let (result, killed) = lab.cell(&ck, DiskFaultPlan::at((0, op), DiskFaultKind::Io));
        assert!(!killed, "an EIO must never kill the campaign");
        assert_eq!(fingerprint(&result), want, "EIO at op {op} diverged");
        warned += result.resilience.storage.sweep_warnings;
        let _ = std::fs::remove_dir_all(&ck.dir);
    }
    assert!(warned > 0, "the op sweep must hit at least one cleanup operation");
}
