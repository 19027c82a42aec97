//! # planes — one identity grid per fault plane
//!
//! The repo's second contract, next to the paper's fresh-process one, is
//! that every plane recovers bit-identically: a checkpointed campaign
//! killed and resumed, a sharded campaign at any worker count, a lane
//! that panicked or hung, a worker process that died, a disk that failed,
//! a service that was killed and restored, a wire that lost frames. Each
//! plane's grid of such cells lives here, once, as a list of [`Part`]s
//! per [`Size`] behind one `grid(Size)` function:
//!
//! * `cargo test` runs the test-size parts, one per `#[test]`, through
//!   [`check`];
//! * the `plane_eval` bin calls `grid` at [`Size::Smoke`] or [`Size::Full`]
//!   and computes the plane's cost ratio from the same cells' wall clocks.
//!
//! A grid never panics: every cell runs under `catch_unwind` and comes
//! back as a typed [`Cell`] that passed or failed with a reason. Every
//! cell compares results through [`CampaignResult::outcome_diff`], so a
//! divergence names the first field that differs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use aflrs::{
    Campaign, CampaignConfig, CampaignError, CampaignOutcome, CampaignResult, CampaignSpec,
    CheckpointConfig, Isolation, ResumeReport,
};
use serde::Serialize;
use vmos::ReferenceEngineGuard;

use crate::{Mechanism, MechanismFactory};

pub mod checkpoint;
pub mod process;
pub mod rpc;
pub mod service;
pub mod shard;
pub mod storage;
pub mod supervision;

/// How much of a grid to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// What `cargo test` runs.
    Test,
    /// What `plane_eval --smoke` (and so CI) runs.
    Smoke,
    /// What `plane_eval` runs by default, at [`crate::budget`] cycles.
    Full,
}

/// One piece of a plane's grid. At test size each `#[test]` runs one
/// part; a plane's `grid` runs its list of parts for a size.
pub type Part = fn(&mut Grid);

/// Where a cell's wall clock enters its plane's cost ratio (see
/// [`cost_ratio`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Role {
    /// Identity only.
    Untimed,
    /// Averaged into the ratio's numerator.
    Numerator,
    /// Averaged into the ratio's denominator.
    Denominator,
}

/// One grid cell and its verdict.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Target the cell's campaigns fuzz.
    pub target: String,
    /// What the cell does (fault, position, worker counts).
    pub label: String,
    /// Where the cell's wall clock enters the cost ratio.
    pub role: Role,
    /// Host wall clock the cell took.
    pub wall_secs: f64,
    /// `None` when the cell passed, otherwise why it failed.
    pub failure: Option<String>,
}

impl Cell {
    /// Did the cell pass?
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Mean numerator wall clock over mean denominator wall clock (see
/// [`Role`]); `None` when either side has no cells.
pub fn cost_ratio(cells: &[Cell]) -> Option<f64> {
    let mean = |role| {
        let secs: Vec<f64> = cells
            .iter()
            .filter(|c| c.role == role)
            .map(|c| c.wall_secs)
            .collect();
        (!secs.is_empty()).then(|| secs.iter().sum::<f64>() / secs.len() as f64)
    };
    Some(mean(Role::Numerator)? / mean(Role::Denominator)?.max(1e-9))
}

/// Panic unless `cells` is non-empty and every cell passed — the
/// assertion every plane test makes.
pub fn assert_passed(cells: &[Cell]) {
    assert!(!cells.is_empty(), "the grid selection ran no cells");
    let failed: Vec<String> = cells
        .iter()
        .filter(|c| !c.passed())
        .map(|c| {
            format!(
                "{} [{}]: {}",
                c.target,
                c.label,
                c.failure.as_deref().unwrap_or_default()
            )
        })
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {} cells failed:\n{}",
        failed.len(),
        cells.len(),
        failed.join("\n")
    );
}

/// Run one test-size part and panic unless every cell passed.
pub fn check(part: Part) {
    assert_passed(&run(Size::Test, &[part]));
}

/// The `main` of a plane test binary built with `harness = false`, whose
/// parts run lane-per-process campaigns: the supervisor spawns lane
/// workers by re-exec'ing the current executable, so this installs
/// [`aflrs::worker_main_hook`] first, then runs each named part through
/// [`check`], reporting in libtest's format, and exits nonzero if any
/// part failed.
pub fn test_main(parts: &[(&str, Part)]) {
    use std::io::Write as _;
    aflrs::worker_main_hook(crate::factory_from_spec);
    println!("\nrunning {} tests", parts.len());
    let mut failed = 0usize;
    for &(name, part) in parts {
        print!("test {name} ... ");
        let _ = std::io::stdout().flush();
        match std::panic::catch_unwind(|| check(part)) {
            Ok(()) => println!("ok"),
            Err(_) => {
                println!("FAILED");
                failed += 1;
            }
        }
    }
    println!(
        "\ntest result: {}. {} passed; {failed} failed\n",
        if failed == 0 { "ok" } else { "FAILED" },
        parts.len() - failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Name each part as the test harness would list it.
#[macro_export]
macro_rules! named_parts {
    ($plane:ident: $($part:ident),* $(,)?) => {
        [$((stringify!($part), $crate::planes::$plane::$part as $crate::planes::Part)),*]
    };
}

/// Run `parts` in order at `size`.
pub(crate) fn run(size: Size, parts: &[Part]) -> Vec<Cell> {
    let mut g = Grid {
        size,
        cells: Vec::new(),
    };
    for part in parts {
        part(&mut g);
    }
    g.cells
}

/// A grid under construction: its size and the cells so far.
pub struct Grid {
    size: Size,
    cells: Vec<Cell>,
}

impl Grid {
    pub(crate) fn size(&self) -> Size {
        self.size
    }

    /// Run one untimed cell. A panic inside `body` is caught and fails the
    /// cell; the body's value comes back only when the cell passed.
    pub(crate) fn cell<T>(
        &mut self,
        target: &str,
        label: impl Into<String>,
        body: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.timed(target, label, Role::Untimed, body, |_| Ok(()))
    }

    /// Run one cell whose wall clock covers `run` alone; `check` then
    /// judges its value off the clock.
    pub(crate) fn timed<T>(
        &mut self,
        target: &str,
        label: impl Into<String>,
        role: Role,
        run: impl FnOnce() -> Result<T, String>,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        let start = Instant::now();
        let out = catch(run);
        let wall_secs = start.elapsed().as_secs_f64();
        let out = out.and_then(|v| catch(|| check(&v)).map(|()| v));
        self.record(target, label.into(), role, wall_secs, out)
    }

    /// A cell that runs `body` `n` times and keeps the fastest of the wall
    /// clocks it reports, which is robust to host noise spikes. It fails
    /// on the first failed run.
    pub(crate) fn best_of(
        &mut self,
        n: usize,
        target: &str,
        label: impl Into<String>,
        role: Role,
        mut body: impl FnMut() -> Result<f64, String>,
    ) {
        let mut best = f64::INFINITY;
        let out = (0..n).try_for_each(|_| catch(&mut body).map(|secs| best = best.min(secs)));
        self.record(target, label.into(), role, best, out);
    }

    fn record<T>(
        &mut self,
        target: &str,
        label: String,
        role: Role,
        wall_secs: f64,
        out: Result<T, String>,
    ) -> Option<T> {
        let cell = Cell {
            target: target.to_string(),
            label,
            role,
            wall_secs,
            failure: out.as_ref().err().cloned(),
        };
        if let Some(why) = &cell.failure {
            eprintln!("FAIL {} [{}]: {why}", cell.target, cell.label);
        }
        self.cells.push(cell);
        out.ok()
    }

    /// A cell that checks something the cells before it established.
    pub(crate) fn check(
        &mut self,
        target: &str,
        label: impl Into<String>,
        verdict: Result<(), String>,
    ) {
        self.cell(target, label, || verdict);
    }
}

/// Run `body`, turning a panic into a failure that carries its message.
fn catch<T>(body: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// A library error as a cell failure, for `?` inside cell bodies.
pub(crate) trait Fail<T> {
    fn fail(self) -> Result<T, String>;
}

impl<T, E: std::fmt::Debug> Fail<T> for Result<T, E> {
    fn fail(self) -> Result<T, String> {
        self.map_err(|e| format!("{e:?}"))
    }
}

/// `Err(why())` unless `ok`.
pub(crate) fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// A recovery report a cell compares field for field on top of the
/// outcome key, because the cell's faults have no business touching it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Block {
    Supervision,
    Storage,
}

/// `got` against the reference `want`: equal under
/// [`CampaignResult::outcome_diff`] (messages read `path: want vs got`),
/// and equal in every recovery block listed in `kept`.
pub(crate) fn same(
    got: &CampaignResult,
    want: &CampaignResult,
    kept: &[Block],
) -> Result<(), String> {
    if let Some(d) = want.outcome_diff(got) {
        return Err(format!("outcome differs at {d}"));
    }
    for block in kept {
        let (g, w) = (&got.resilience, &want.resilience);
        match block {
            Block::Supervision => ensure(g.supervision == w.supervision, || {
                format!(
                    "supervision block differs: {:?} vs {:?}",
                    w.supervision, g.supervision
                )
            })?,
            Block::Storage => ensure(g.storage == w.storage, || {
                format!("storage block differs: {:?} vs {:?}", w.storage, g.storage)
            })?,
        }
    }
    Ok(())
}

/// The result of a leg that had no kill planned.
pub(crate) fn finished(
    out: Result<CampaignOutcome, CampaignError>,
) -> Result<CampaignResult, String> {
    match out.map_err(|e| e.to_string())? {
        CampaignOutcome::Finished(r) => Ok(r),
        CampaignOutcome::Killed { execs } => {
            Err(format!("killed at {execs} execs with no kill planned"))
        }
    }
}

/// A leg that had a kill planned at `kill_at` execs must have died there:
/// a leg that finished, or died short of the kill point, proves nothing
/// about resuming from it. Returns the executions the kill left behind.
pub(crate) fn killed(
    out: Result<CampaignOutcome, CampaignError>,
    kill_at: u64,
) -> Result<u64, String> {
    match out.map_err(|e| e.to_string())? {
        CampaignOutcome::Killed { execs } => {
            ensure(execs >= kill_at, || {
                format!("killed at {execs} execs, short of the planned kill at {kill_at}")
            })?;
            Ok(execs)
        }
        CampaignOutcome::Finished(r) => Err(format!(
            "the planned kill never fired: the campaign finished after {} execs",
            r.execs
        )),
    }
}

/// The resume report a resumed result carries.
pub(crate) fn resume_report(r: &CampaignResult) -> Result<&ResumeReport, String> {
    r.resume
        .as_ref()
        .ok_or_else(|| "resumed result carries no resume report".to_string())
}

/// A campaign killed at `killed_at` execs and resumed from `report`'s
/// snapshot re-ran work: the kill landed strictly past the snapshot, so
/// the resume recomputed (or, single-driver, replayed) the difference.
pub(crate) fn reran(killed_at: u64, report: &ResumeReport) -> Result<(), String> {
    ensure(killed_at > report.snapshot_execs, || {
        format!("the kill at {killed_at} execs left nothing past the resumed snapshot: {report:?}")
    })
}

/// The campaign settings every grid varies only in seed and budget.
pub(crate) fn cfg(seed: u64, budget: u64) -> CampaignConfig {
    CampaignConfig {
        budget_cycles: budget,
        seed,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

/// A bundled target's benign corpus, optionally spiked with its bug
/// witnesses so crash-dedup merges have real crash sites to work on.
pub(crate) fn corpus(target: &str, witnesses: bool) -> Vec<Vec<u8>> {
    let t = targets::by_name(target).expect("bundled target");
    let mut seeds = (t.seeds)();
    if witnesses {
        seeds.extend((t.witnesses)().into_iter().map(|(_, input)| input));
    }
    seeds
}

/// A service tenant over a bundled ClosureX target and its
/// witness-spiked corpus, in the `(mechanism, target)` spec
/// [`crate::MechanismResolver`] resolves.
pub(crate) fn tenant(name: &str, target: &str, shards: usize, cfg: CampaignConfig) -> CampaignSpec {
    let spec = crate::factory_spec(Mechanism::ClosureX, target);
    let mut s = CampaignSpec::new(name, spec, corpus(target, true), cfg);
    s.shards = shards;
    s
}

/// A fresh scratch directory, unique per call: tests run in parallel.
pub(crate) fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("closurex-planes-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `body` in a fresh scratch directory, removed afterwards.
pub(crate) fn in_scratch<T>(tag: &str, body: impl FnOnce(&Path) -> T) -> T {
    let dir = scratch(tag);
    let out = body(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// One sharded campaign shape over a bundled ClosureX target, which a
/// grid runs again and again with different knobs.
#[derive(Debug, Clone)]
pub(crate) struct Setup {
    pub target: &'static str,
    pub witnesses: bool,
    /// Run on the AST-walking reference engine.
    pub reference: bool,
    pub seed: u64,
    pub budget: u64,
    /// Lanes × sync epochs; `None` keeps the campaign defaults.
    pub lanes: Option<(usize, u64)>,
}

impl Setup {
    pub(crate) fn new(target: &'static str, seed: u64, budget: u64) -> Self {
        Setup {
            target,
            witnesses: false,
            reference: false,
            seed,
            budget,
            lanes: None,
        }
    }

    /// One leg (a fresh run, or a resume) at `shards` workers; `knobs` adds
    /// the plane's own settings.
    pub(crate) fn leg(
        &self,
        shards: usize,
        resume: bool,
        knobs: impl FnOnce(Campaign<'_>) -> Campaign<'_>,
    ) -> Result<CampaignOutcome, CampaignError> {
        let _engine = self.reference.then(ReferenceEngineGuard::new);
        let seeds = corpus(self.target, self.witnesses);
        let factory = MechanismFactory::new(
            Mechanism::ClosureX,
            targets::by_name(self.target).expect("bundled target"),
        );
        let mut c = Campaign::new(&seeds, &cfg(self.seed, self.budget))
            .factory(&factory)
            .shards(shards);
        if let Some((lanes, epochs)) = self.lanes {
            c = c.lanes(lanes).sync_epochs(epochs);
        }
        let c = knobs(c);
        if resume {
            c.resume().map(|(out, _)| out)
        } else {
            c.run()
        }
    }

    /// A fresh leg with no kill planned, run to its result.
    pub(crate) fn run(
        &self,
        shards: usize,
        knobs: impl FnOnce(Campaign<'_>) -> Campaign<'_>,
    ) -> Result<CampaignResult, String> {
        finished(self.leg(shards, false, knobs))
    }

    /// Kill a checkpointed run at `kill_at` execs, then resume it; each
    /// leg names its worker count and isolation mode. The kill must fire.
    pub(crate) fn kill_and_resume(
        &self,
        kill_at: u64,
        first: (usize, Isolation),
        second: (usize, Isolation),
    ) -> Result<CampaignResult, String> {
        let (r, _) = self.kill_then_resume(kill_at, first, second, |_| Ok(()))?;
        Ok(r)
    }

    /// [`Setup::kill_and_resume`] running `between` over the checkpoint
    /// directory before the resume; also returns the executions the kill
    /// left behind.
    pub(crate) fn kill_then_resume(
        &self,
        kill_at: u64,
        (shards, iso): (usize, Isolation),
        (resume_shards, resume_iso): (usize, Isolation),
        between: impl FnOnce(&Path) -> Result<(), String>,
    ) -> Result<(CampaignResult, u64), String> {
        in_scratch("resume", |dir| {
            let mut ck = CheckpointConfig::new(dir);
            ck.kill_after_execs = Some(kill_at);
            let first = self.leg(shards, false, |c| c.isolation(iso).checkpoint(ck.clone()));
            let killed_at = killed(first, kill_at)?;
            between(dir)?;
            ck.kill_after_execs = None;
            let r = finished(self.leg(resume_shards, true, |c| {
                c.isolation(resume_iso).checkpoint(ck)
            }))?;
            Ok((r, killed_at))
        })
    }
}

/// What every unfaulted baseline must show: the campaign ran, reported no
/// supervision activity, and — with bug witnesses in its corpus — found a
/// crash, so the crash merges it anchors are not vacuous.
pub(crate) fn sound_baseline(r: &CampaignResult, witnesses: bool) -> Result<(), String> {
    ensure(r.execs > 50, || {
        format!("only {} execs: the campaign must actually run", r.execs)
    })?;
    let sv = &r.resilience.supervision;
    ensure(sv.is_quiet(), || {
        format!("an unfaulted run reported supervision activity: {sv:?}")
    })?;
    ensure(!witnesses || !r.crashes.is_empty(), || {
        "planted bugs found no crash".to_string()
    })
}

/// A run with one injected lane or worker fault against its unfaulted
/// twin: same outcome and storage block, the fault contained and
/// recovered exactly once, no lane retired.
pub(crate) fn recovered_once(r: &CampaignResult, want: &CampaignResult) -> Result<(), String> {
    same(r, want, &[Block::Storage])?;
    let sv = &r.resilience.supervision;
    ensure(sv.faults_contained() >= 1, || {
        "the injected fault never fired".to_string()
    })?;
    ensure(sv.recovered == 1 && sv.degradations.is_empty(), || {
        format!("expected exactly one recovery and no retired lane: {sv:?}")
    })
}

/// Per-campaign budget: `fixed` at test and smoke size, and
/// [`crate::budget`] in full mode.
pub(crate) fn budget(size: Size, fixed: u64) -> u64 {
    if size == Size::Full {
        crate::budget()
    } else {
        fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_kill_past_the_end_fails() {
        let s = Setup::new("giftext", 0xC0FFEE, 300_000);
        let legs = (1, Isolation::InProcess);
        let why = s
            .kill_and_resume(1 << 40, legs, legs)
            .expect_err("an unfired kill must fail");
        assert!(why.contains("never fired"), "{why}");
    }

    #[test]
    fn a_kill_short_of_the_plan_fails() {
        let why = killed(Ok(CampaignOutcome::Killed { execs: 96 }), 97)
            .expect_err("an early kill must fail");
        assert!(why.contains("short of the planned kill at 97"), "{why}");
        assert_eq!(
            killed(Ok(CampaignOutcome::Killed { execs: 97 }), 97),
            Ok(97)
        );
    }
}
