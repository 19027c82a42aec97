//! Storage plane: the ALICE-style crash-consistency gauntlet over
//! checkpoint storage. A deterministic disk fault — ENOSPC, EIO, a short
//! write, a machine death at the I/O boundary, a lost rename, silent
//! bitrot — is injected at a grid of I/O operation boundaries of the
//! campaign's one storage stream, the coordinator's: the single driver's
//! snapshots and rotation, or a sharded campaign's barrier
//! snapshots and rotation (lanes do no I/O between barriers). Every cell
//! must end in a sanctioned state:
//!
//! * transient kinds retry with seeded backoff, or degrade to in-memory
//!   checkpointing with a typed report, and the campaign finishes;
//! * crash kinds kill the machine (or just a worker, which its supervisor
//!   contains), and a fault-free resume reproduces the uninterrupted
//!   result, falling back to a fresh start only when the crash predates
//!   the first durable commit;
//! * bitrot cells run under a kill switch so the resume's scrub reads the
//!   rotted bytes back.
//!
//! Never a raw `io::Error`, never a panic, never silent data loss: each
//! cell's result matches the unfaulted run but for the storage report.
//!
//! Cost ratio: the wall clock of a clean checkpointed in-process campaign
//! over the same campaign with checkpointing off.

use aflrs::{
    Campaign, CampaignConfig, CampaignError, CampaignOutcome, CampaignResult, CheckpointConfig,
    Isolation,
};
use vmos::{DiskFaultKind, DiskFaultPlan, PlanKind};

use super::{
    budget, cfg, corpus, ensure, finished, in_scratch, killed, same, Block, Cell, Grid, Part, Role,
    Size,
};
use crate::{Mechanism, MechanismFactory};

/// The test-size target: a planted crash behind a two-byte magic, so
/// short campaigns reach every checkpoint path.
const PROBE: &str = r#"
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

/// How a lab's campaigns execute.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// One driver, one executor.
    Single,
    /// 2 workers over 2 lanes × 2 epochs: the coordinator writes the
    /// barrier snapshots; lanes write nothing.
    Sharded(Isolation),
}

/// How a faulted cell got back to a finished result.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Recovery {
    /// The fault never stopped the campaign.
    Finished,
    /// Killed at the boundary, then resumed fault-free.
    Resumed,
    /// Killed before the first durable commit, then started afresh.
    Restarted,
}

struct Lab {
    name: &'static str,
    factory: MechanismFactory,
    seeds: Vec<Vec<u8>>,
    cfg: CampaignConfig,
    mode: Mode,
}

impl Lab {
    /// The test-size lab over [`PROBE`].
    fn probe(mode: Mode) -> Self {
        Lab {
            name: "probe",
            factory: MechanismFactory {
                mechanism: Mechanism::ClosureX,
                target_name: "probe",
                module: minic::compile("probe", PROBE).expect("probe compiles"),
            },
            seeds: vec![b"go".to_vec(), b"CX!".to_vec()],
            cfg: CampaignConfig {
                budget_cycles: 2_000_000,
                seed: 7,
                ..CampaignConfig::default()
            },
            mode,
        }
    }

    /// The smoke- and full-size lab over giftext.
    fn giftext(size: Size, iso: Isolation) -> Self {
        let target = targets::by_name("giftext").expect("bundled target");
        Lab {
            name: "giftext",
            factory: MechanismFactory::new(Mechanism::ClosureX, target),
            seeds: corpus("giftext", false),
            cfg: cfg(0x5708A6E, budget(size, 3_000_000)),
            mode: Mode::Sharded(iso),
        }
    }

    fn keep(&self) -> &'static [Block] {
        // A dying worker process is contained by its supervisor, which
        // reports it; in-process runs have nothing to contain.
        if self.mode == Mode::Sharded(Isolation::Process) {
            &[]
        } else {
            &[Block::Supervision]
        }
    }

    fn leg(
        &self,
        plan: Option<DiskFaultPlan>,
        ck: Option<&CheckpointConfig>,
        resume: bool,
    ) -> Result<CampaignOutcome, CampaignError> {
        use closurex::executor::ExecutorFactory as _;
        let mut ex = None;
        let mut c = Campaign::new(&self.seeds, &self.cfg);
        c = match self.mode {
            Mode::Single => c.executor(
                ex.insert(self.factory.build().expect("executor boots"))
                    .as_mut(),
            ),
            Mode::Sharded(iso) => c
                .factory(&self.factory)
                .shards(2)
                .lanes(2)
                .sync_epochs(2)
                .isolation(iso),
        };
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

    /// Inject `kind` `fires` times at coordinator op `op` under an
    /// optional kill switch, and recover by the ALICE rules. A planned
    /// kill must fire.
    fn recover(
        &self,
        (kind, op, fires): (DiskFaultKind, u64, u32),
        kill: Option<u64>,
    ) -> Result<(CampaignResult, Recovery), String> {
        in_scratch("storage-cell", |dir| {
            let mut ck = CheckpointConfig::new(dir);
            // Sharded runs snapshot at epoch barriers; a short interval
            // gives the single driver several generations to fault.
            ck.snapshot_every_execs = 30;
            ck.kill_after_execs = kill;
            let mut plan = DiskFaultPlan::at((0, op), kind);
            plan.targeted[0].fires = fires;
            let first = self
                .leg(Some(plan), Some(&ck), false)
                .map_err(|e| format!("a disk fault surfaced as a raw error: {e}"))?;
            ck.kill_after_execs = None;
            match first {
                CampaignOutcome::Finished(r) if kill.is_none() => Ok((r, Recovery::Finished)),
                first => {
                    if let Some(k) = kill {
                        killed(Ok(first), k)?;
                    }
                    match self.leg(None, Some(&ck), true) {
                        Ok(out) => Ok((finished(Ok(out))?, Recovery::Resumed)),
                        // Crash before the first durable commit: a fresh
                        // start is the only recovery.
                        Err(_) => Ok((
                            finished(self.leg(None, Some(&ck), false))?,
                            Recovery::Restarted,
                        )),
                    }
                }
            }
        })
    }

    /// One fault cell judged against `want`; `verdict` adds the cell's own
    /// checks and returns what the grid tallies.
    fn cell<T>(
        &self,
        g: &mut Grid,
        want: &CampaignResult,
        fault: (DiskFaultKind, u64, u32),
        kill: Option<u64>,
        verdict: impl FnOnce(&CampaignResult, Recovery) -> Result<T, String>,
    ) -> Option<T> {
        let (kind, op, fires) = fault;
        let label = format!("{:?} {} x{fires} at op {op}", self.mode, kind.name());
        g.cell(self.name, label, || {
            let (r, how) = self.recover(fault, kill)?;
            same(&r, want, self.keep())?;
            verdict(&r, how)
        })
    }

    fn reference(&self, g: &mut Grid, role: Role) -> Option<CampaignResult> {
        let label = format!("{:?} unfaulted", self.mode);
        g.timed(
            self.name,
            label,
            role,
            || finished(self.leg(None, None, false)),
            |_| Ok(()),
        )
    }
}

/// The storage grid at `size`.
pub fn grid(size: Size) -> Vec<Cell> {
    let parts: &[Part] = match size {
        Size::Test => &[
            sharded_crash_at_every_boundary_resumes_exactly,
            single_driver_crash_grid_resumes_exactly,
            transient_faults_retry_or_degrade_typed,
            bitrot_is_scrubbed_on_resume,
            cleanup_failures_warn_and_continue,
        ],
        Size::Smoke | Size::Full => &[in_process_sweep, process_sweep],
    };
    super::run(size, parts)
}

/// The smoke and full sweep over giftext, in process.
fn in_process_sweep(g: &mut Grid) {
    sweep(g, &Lab::giftext(g.size(), Isolation::InProcess));
}

/// The smoke and full sweep over giftext, one process per lane.
fn process_sweep(g: &mut Grid) {
    sweep(g, &Lab::giftext(g.size(), Isolation::Process));
}

/// Every fault kind at every probed coordinator boundary, then the
/// degradation ladder, over one lab; the in-process lab also times the
/// clean storage path.
fn sweep(g: &mut Grid, lab: &Lab) {
    let (base, cost) = if lab.mode == Mode::Sharded(Isolation::InProcess) {
        (Role::Denominator, Role::Numerator)
    } else {
        (Role::Untimed, Role::Untimed)
    };
    g.cell(lab.name, "warm-up", || finished(lab.leg(None, None, false)));
    let Some(want) = lab.reference(g, base) else {
        return;
    };
    in_scratch("storage-clean", |dir| {
        let run = || finished(lab.leg(None, Some(&CheckpointConfig::new(dir)), false));
        g.timed(
            lab.name,
            format!("{:?} clean checkpointed", lab.mode),
            cost,
            run,
            |r| {
                same(r, &want, lab.keep())?;
                let st = &r.resilience.storage;
                ensure(st.is_quiet(), || {
                    format!("a fault-free run reported storage activity: {st:?}")
                })
            },
        );
    });
    // In process every coordinator boundary is probed, and one past the
    // end. Process-mode cells spawn workers per leg, so at smoke size
    // they probe the start-up boundaries and the first barrier
    // snapshot's temp write and fsync.
    let ops = if lab.mode == Mode::Sharded(Isolation::Process) && g.size() == Size::Smoke {
        6
    } else {
        SHARDED_OPS + 1
    };
    // Rot lands silently, so bitrot cells die young enough that the
    // resume reads the rotted generation back.
    let kill_at = (want.execs / 2).max(1);
    for &kind in DiskFaultKind::ALL {
        let kill = (kind == DiskFaultKind::Bitrot).then_some(kill_at);
        for op in 0..ops {
            lab.cell(g, &want, (kind, op, 1), kill, |_, _| Ok(()));
        }
    }
    // Permanently broken storage must take the typed in-memory exit.
    for kind in TRANSIENT {
        lab.cell(g, &want, (kind, 0, 10), None, |r, _| {
            let st = &r.resilience.storage;
            ensure(!st.degradations.is_empty() || st.sweep_warnings > 0, || {
                format!("broken storage did not take the typed exit: {st:?}")
            })
        });
    }
}

/// Coordinator storage ops of a 2-lane, 2-epoch sharded run: directory
/// creation, the start-up sweep, three barrier snapshots of four ops each
/// (temp write, fsync, rename, directory fsync), two rotations and the
/// directory fsync after the one that unlinks.
const SHARDED_OPS: u64 = 17;

const TRANSIENT: [DiskFaultKind; 3] = [
    DiskFaultKind::NoSpace,
    DiskFaultKind::Io,
    DiskFaultKind::ShortWrite,
];

/// A check cell over a tally the part's cells built up.
fn exercised(g: &mut Grid, what: &str, count: u64) {
    g.check(
        "probe",
        format!("the grid exercised {what}"),
        ensure(count > 0, || format!("no cell exercised {what}")),
    );
}

const CRASHES: [DiskFaultKind; 2] = [DiskFaultKind::CrashAtBoundary, DiskFaultKind::RenameLost];

/// Tally a cell whose fault killed the campaign.
fn died(_: &CampaignResult, how: Recovery) -> Result<u64, String> {
    Ok(u64::from(how != Recovery::Finished))
}

fn survived(how: Recovery) -> Result<(), String> {
    ensure(how == Recovery::Finished, || {
        format!("the fault killed the campaign ({how:?})")
    })
}

/// A crash at every coordinator boundary of the sharded run, and one
/// past the end, resumes exactly.
pub fn sharded_crash_at_every_boundary_resumes_exactly(g: &mut Grid) {
    let lab = Lab::probe(Mode::Sharded(Isolation::InProcess));
    let Some(want) = lab.reference(g, Role::Untimed) else {
        return;
    };
    let mut kills = 0;
    for kind in CRASHES {
        for op in 0..=SHARDED_OPS {
            kills += lab.cell(g, &want, (kind, op, 1), None, died).unwrap_or(0);
        }
    }
    exercised(g, "crash recovery", kills);
}

/// Coordinator storage ops of the single driver's first three snapshots
/// (every 30 execs): directory creation, the start-up sweep, three
/// snapshots of four ops each, two rotations of one op each, and the
/// directory fsync after the second rotation unlinks the oldest
/// generation.
const SINGLE_OPS: u64 = 17;

/// Snapshots and rotation interleave on the single driver's stream 0: a
/// crash at any boundary of its first three snapshots, and at the one
/// after them, resumes exactly.
pub fn single_driver_crash_grid_resumes_exactly(g: &mut Grid) {
    let lab = Lab::probe(Mode::Single);
    let Some(want) = lab.reference(g, Role::Untimed) else {
        return;
    };
    let mut kills = 0;
    for kind in CRASHES {
        for op in 0..=SINGLE_OPS {
            kills += lab.cell(g, &want, (kind, op, 1), None, died).unwrap_or(0);
        }
    }
    exercised(g, "crash recovery", kills);
}

/// A transient fault is retried with seeded backoff; past the retry
/// budget the stream degrades with a typed report.
pub fn transient_faults_retry_or_degrade_typed(g: &mut Grid) {
    let lab = Lab::probe(Mode::Sharded(Isolation::InProcess));
    let Some(want) = lab.reference(g, Role::Untimed) else {
        return;
    };
    let (mut retried, mut degraded) = (0, 0);
    for kind in TRANSIENT {
        for (op, fires) in [(0, 1), (2, 1), (1, 5), (3, 5)] {
            let tally = lab.cell(g, &want, (kind, op, fires), None, |r, how| {
                survived(how)?;
                let st = &r.resilience.storage;
                if st.transient_faults == 0 {
                    Ok((0, 0))
                } else if fires > 3 {
                    // Past the default retry budget: the stream drops to
                    // in-memory checkpointing with a typed report.
                    ensure(!st.degradations.is_empty(), || {
                        format!("retries exhausted without a typed degradation: {st:?}")
                    })?;
                    Ok((0, 1))
                } else {
                    ensure(st.retries > 0 && st.backoff_cycles > 0, || {
                        format!("a single fire must be retried with seeded backoff: {st:?}")
                    })?;
                    Ok((1, 0))
                }
            });
            let (r, d) = tally.unwrap_or_default();
            retried += r;
            degraded += d;
        }
    }
    exercised(g, "the retry path", retried);
    exercised(g, "the degradation ladder", degraded);
}

/// Bitrot anywhere the resume reads is scrubbed on resume.
pub fn bitrot_is_scrubbed_on_resume(g: &mut Grid) {
    let lab = Lab::probe(Mode::Single);
    let Some(want) = lab.reference(g, Role::Untimed) else {
        return;
    };
    // Kill just past the third snapshot: ops 0..=SINGLE_OPS then cover
    // every boundary the run reaches — all three generations and both
    // rotations — and one past them, so the sweep hits bytes the resume
    // reads.
    let kill_at = 70;
    let mut scrubbed = 0;
    for op in 0..=SINGLE_OPS {
        let fault = (DiskFaultKind::Bitrot, op, 1);
        scrubbed += lab
            .cell(g, &want, fault, Some(kill_at), |r, how| {
                ensure(how == Recovery::Resumed, || {
                    format!("expected a resume, got {how:?}")
                })?;
                let st = &r.resilience.storage;
                Ok(st.corrupt_snapshots + st.snapshots_repaired)
            })
            .unwrap_or(0);
    }
    exercised(g, "the scrub", scrubbed);
}

/// Whichever early coordinator ops are cleanup ops (orphan sweep,
/// rotation unlinks) take the warn path; the rest retry.
pub fn cleanup_failures_warn_and_continue(g: &mut Grid) {
    let lab = Lab::probe(Mode::Sharded(Isolation::InProcess));
    let Some(want) = lab.reference(g, Role::Untimed) else {
        return;
    };
    let mut warned = 0;
    for op in 0..8 {
        warned += lab
            .cell(g, &want, (DiskFaultKind::Io, op, 1), None, |r, how| {
                survived(how)?;
                Ok(r.resilience.storage.sweep_warnings)
            })
            .unwrap_or(0);
    }
    exercised(g, "a cleanup op", warned);
}
