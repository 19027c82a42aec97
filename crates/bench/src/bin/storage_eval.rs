//! **Storage fault-plane evaluation**: the ALICE-style crash-consistency
//! gauntlet over the checkpoint storage plane. A deterministic disk fault
//! — ENOSPC, EIO, a short write, a machine death at the I/O boundary, a
//! lost rename, or silent bitrot — is injected at a grid of I/O operation
//! boundaries on every storage stream (the coordinator plus each lane
//! journal), on **both isolation modes** (in-process sharded and
//! lane-per-process).
//!
//! Every cell must land in a sanctioned state:
//!
//! * transient kinds retry (seeded backoff) or degrade with a typed
//!   `StorageDegradation`, and the campaign finishes bit-identically;
//! * crash kinds kill the machine (or just the worker, whose supervisor
//!   contains it), and a fault-free resume reproduces the uninterrupted
//!   result exactly — falling back to a fresh start only when the crash
//!   predates the first durable commit;
//! * bitrot cells run under a kill switch so the resume's scrub actually
//!   reads the rotted bytes back.
//!
//! Zero raw `io::Error` aborts, zero panics, zero silent data loss.
//!
//! Also measures the clean-path cost of routing all checkpoint I/O
//! through the storage plane: a clean checkpointed campaign vs the same
//! campaign with checkpointing off.
//!
//! Writes `results/BENCH_storage.json` (`_smoke` under `--smoke`). Smoke
//! mode gates the grid pass rate and the clean-path overhead ratio
//! against the checked-in floor (`results/BENCH_storage_floor.json`).

use aflrs::{
    Campaign, CampaignConfig, CampaignError, CampaignOutcome, CampaignResult, CheckpointConfig,
    Isolation,
};
use bench::{floor, Mechanism, MechanismFactory};
use serde::Serialize;
use std::time::Instant;
use vmos::{DiskFaultKind, DiskFaultPlan, PlanKind};

const SMOKE_BUDGET: u64 = 3_000_000;
const LANES: usize = 2;
const EPOCHS: u64 = 2;

#[derive(Serialize)]
struct Cell {
    isolation: String,
    fault: String,
    stream: u64,
    op: u64,
    /// finished | killed+resumed | killed+restarted
    path: String,
    /// Did the injected fault observably fire in this cell?
    fired: bool,
    transient_faults: u64,
    degradations: usize,
    corrupt_snapshots: u64,
    snapshots_repaired: u64,
    torn_records: u64,
    sweep_warnings: u64,
    contained_worker_faults: u64,
    /// The gate: bit-identical to the unfaulted baseline outside the
    /// storage and supervision reports.
    identical: bool,
}

#[derive(Serialize)]
struct Aggregate {
    grid_cells: usize,
    fired_cells: usize,
    killed_cells: usize,
    degraded_cells: usize,
    grid_pass_rate: f64,
    plain_wall_secs: f64,
    checkpointed_wall_secs: f64,
    /// Clean checkpointed wall clock over clean unjournaled wall clock:
    /// what the storage plane costs when nothing goes wrong.
    clean_overhead_ratio: f64,
}

#[derive(Serialize)]
struct Report {
    mode: String,
    budget_cycles: u64,
    lanes: usize,
    sync_epochs: u64,
    cells: Vec<Cell>,
    aggregate: Aggregate,
}

fn fingerprint(r: &CampaignResult) -> String {
    serde_json::to_string(&r.sans_supervision().sans_storage().sans_resume()).expect("result serializes")
}

struct Lab {
    factory: MechanismFactory,
    seeds: Vec<Vec<u8>>,
    cfg: CampaignConfig,
    iso: Isolation,
    scratch: std::path::PathBuf,
}

impl Lab {
    fn leg(
        &self,
        plan: Option<DiskFaultPlan>,
        ck: Option<&CheckpointConfig>,
        resume: bool,
    ) -> Result<CampaignOutcome, CampaignError> {
        let mut c = Campaign::new(&self.seeds, &self.cfg)
            .factory(&self.factory)
            .lanes(LANES)
            .sync_epochs(EPOCHS)
            .shards(2)
            .isolation(self.iso);
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

    fn dir(&self, tag: &str) -> CheckpointConfig {
        let d = self.scratch.join(tag);
        let _ = std::fs::remove_dir_all(&d);
        CheckpointConfig::new(d)
    }

    /// One grid cell under the ALICE recovery rules, judged against the
    /// unfaulted baseline fingerprint.
    fn cell(
        &self,
        kind: DiskFaultKind,
        stream: u64,
        op: u64,
        fires: u32,
        kill_at: Option<u64>,
        want: &str,
    ) -> Cell {
        let mut ck = self.dir(&format!("{}-{}-{stream}-{op}", self.tag(), kind.name()));
        ck.kill_after_execs = kill_at;
        let mut plan = DiskFaultPlan::at((stream, op), kind);
        plan.targeted[0].fires = fires;
        let first = self
            .leg(Some(plan), Some(&ck), false)
            .expect("a disk fault never surfaces as a raw error");
        ck.kill_after_execs = None;
        let (result, path) = match first {
            CampaignOutcome::Killed { .. } => match self.leg(None, Some(&ck), true) {
                Ok(out) => (
                    out.finished().expect("resume leg finishes"),
                    "killed+resumed",
                ),
                // Crash before the first durable commit: nothing to
                // resume from; a fresh start is the correct recovery.
                Err(_) => (
                    self.leg(None, Some(&ck), false)
                        .expect("fresh restart over crash debris")
                        .finished()
                        .expect("restart leg finishes"),
                    "killed+restarted",
                ),
            },
            finished => (finished.finished().expect("finished leg"), "finished"),
        };
        let _ = std::fs::remove_dir_all(&ck.dir);
        let st = &result.resilience.storage;
        let contained = result.resilience.supervision.faults_contained();
        let killed = path != "finished";
        Cell {
            isolation: self.tag().to_string(),
            fault: kind.name().to_string(),
            stream,
            op,
            path: path.to_string(),
            fired: killed
                || contained > 0
                || st.transient_faults > 0
                || st.sweep_warnings > 0
                || st.bitrot_injected > 0
                || st.corrupt_snapshots > 0
                || st.torn_records_dropped > 0
                || !st.degradations.is_empty(),
            transient_faults: st.transient_faults,
            degradations: st.degradations.len(),
            corrupt_snapshots: st.corrupt_snapshots,
            snapshots_repaired: st.snapshots_repaired,
            torn_records: st.torn_records_dropped,
            sweep_warnings: st.sweep_warnings,
            contained_worker_faults: contained,
            identical: fingerprint(&result) == want,
        }
    }

    fn tag(&self) -> &'static str {
        match self.iso {
            Isolation::Process => "process",
            _ => "in-process",
        }
    }
}

fn main() {
    // Hidden worker entrypoint: when the supervisor re-execs this binary
    // with `AFLRS_PROC_WORKER` set, serve the lane protocol and exit.
    aflrs::worker_main_hook(bench::factory_from_spec);

    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { SMOKE_BUDGET } else { bench::budget() };
    let mode = if smoke { "smoke" } else { "full" };
    // Ops per stream to probe. Streams are 0 (coordinator) and 1 + lane
    // (per-lane journals); later boundaries on a stream repeat the same
    // operation shapes (journal appends), so a bounded prefix covers
    // every distinct boundary kind while full mode pushes deeper.
    let inproc_ops = if smoke { 4u64 } else { 12 };
    let proc_ops = if smoke { 2u64 } else { 6 };
    let target = targets::by_name("giftext").expect("bundled target");
    println!(
        "storage_eval ({mode}): budget = {budget} cycles/campaign, \
         {LANES} lanes x {EPOCHS} epochs, streams 0..{}, \
         ops/stream = {inproc_ops} (in-process) / {proc_ops} (process)\n",
        LANES + 1
    );

    let scratch = std::env::temp_dir().join(format!("closurex-storage-eval-{}", std::process::id()));
    let mut cells: Vec<Cell> = Vec::new();
    let mut all_identical = true;
    let mut plain_secs = 0.0f64;
    let mut ck_secs = 0.0f64;

    for iso in [Isolation::InProcess, Isolation::Process] {
        let lab = Lab {
            factory: MechanismFactory::new(Mechanism::ClosureX, target),
            seeds: (target.seeds)(),
            cfg: CampaignConfig {
                budget_cycles: budget,
                seed: 0x5708A6E,
                deterministic_stage: true,
                stop_after_crashes: 0,
                ..CampaignConfig::default()
            },
            iso,
            scratch: scratch.clone(),
        };

        // Baselines: the unfaulted, uncheckpointed run is ground truth;
        // the unfaulted checkpointed run times the clean storage path
        // (and must itself be invisible). Warm-up settles decode caches.
        let _ = lab.leg(None, None, false).expect("warm-up");
        let start = Instant::now();
        let plain = lab
            .leg(None, None, false)
            .expect("plain run")
            .finished()
            .expect("no kill configured");
        let p_secs = start.elapsed().as_secs_f64();
        let want = fingerprint(&plain);
        let ck = lab.dir(&format!("{}-clean", lab.tag()));
        let start = Instant::now();
        let clean_ck = lab
            .leg(None, Some(&ck), false)
            .expect("checkpointed run")
            .finished()
            .expect("no kill configured");
        let c_secs = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&ck.dir);
        if fingerprint(&clean_ck) != want {
            all_identical = false;
            eprintln!("OVERHEAD DIVERGENCE ({}): checkpointing was not invisible", lab.tag());
        }
        assert!(
            clean_ck.resilience.storage.is_quiet(),
            "a fault-free run must report zero storage activity"
        );
        if iso == Isolation::InProcess {
            plain_secs = p_secs;
            ck_secs = c_secs;
        }
        eprintln!(
            "  {} / baseline: {} execs, plain {p_secs:.2}s, checkpointed {c_secs:.2}s",
            lab.tag(),
            plain.execs
        );

        // The kill switch for bitrot cells: rot lands silently, so the
        // run must die young enough that the resume still reads the
        // rotted generation back.
        let kill_at = (plain.execs / 2).max(1);
        let ops = if iso == Isolation::Process { proc_ops } else { inproc_ops };
        for &kind in DiskFaultKind::ALL {
            for stream in 0..=(LANES as u64) {
                for op in 0..ops {
                    let kill = (kind == DiskFaultKind::Bitrot).then_some(kill_at);
                    let cell = lab.cell(kind, stream, op, 1, kill, &want);
                    if !cell.identical {
                        all_identical = false;
                        eprintln!(
                            "STORAGE DIVERGENCE: {} {} at (stream {stream}, op {op}) \
                             did not reproduce the unfaulted result",
                            lab.tag(),
                            kind.name()
                        );
                    }
                    cells.push(cell);
                }
            }
        }

        // The degradation ladder: permanently broken storage (fires far
        // past the retry budget) must take the typed in-memory exit on
        // every stream and still finish bit-identically.
        for kind in [
            DiskFaultKind::NoSpace,
            DiskFaultKind::Io,
            DiskFaultKind::ShortWrite,
        ] {
            for stream in 0..=(LANES as u64) {
                let cell = lab.cell(kind, stream, 0, 10, None, &want);
                if !cell.identical || cell.degradations + cell.sweep_warnings as usize == 0 {
                    all_identical = false;
                    eprintln!(
                        "DEGRADATION FAILURE: {} {} on stream {stream} did not take \
                         the typed exit (or diverged)",
                        lab.tag(),
                        kind.name()
                    );
                }
                cells.push(cell);
            }
        }
    }

    let _ = std::fs::remove_dir_all(&scratch);
    let fired = cells.iter().filter(|c| c.fired).count();
    let killed = cells.iter().filter(|c| c.path.starts_with("killed")).count();
    let degraded = cells.iter().filter(|c| c.degradations > 0).count();
    let passed = cells.iter().filter(|c| c.identical).count();
    let pass_rate = passed as f64 / cells.len().max(1) as f64;
    let overhead = ck_secs / plain_secs.max(1e-9);

    let table: Vec<Vec<String>> = cells
        .iter()
        .filter(|c| c.fired)
        .map(|c| {
            vec![
                c.isolation.clone(),
                c.fault.clone(),
                c.stream.to_string(),
                c.op.to_string(),
                c.path.clone(),
                c.degradations.to_string(),
                (c.corrupt_snapshots + c.torn_records).to_string(),
                if c.identical { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    print!(
        "{}",
        bench::markdown_table(
            &[
                "Isolation",
                "Fault",
                "Stream",
                "Op",
                "Recovery path",
                "Degradations",
                "Scrubbed",
                "Identical",
            ],
            &table
        )
    );
    println!(
        "\nAggregate: {} cells ({fired} fired, {killed} killed, {degraded} degraded), \
         pass rate {pass_rate:.3}, clean-path overhead {overhead:.2}x",
        cells.len()
    );

    let agg = Aggregate {
        grid_cells: cells.len(),
        fired_cells: fired,
        killed_cells: killed,
        degraded_cells: degraded,
        grid_pass_rate: pass_rate,
        plain_wall_secs: plain_secs,
        checkpointed_wall_secs: ck_secs,
        clean_overhead_ratio: overhead,
    };
    let report_name = if smoke { "BENCH_storage_smoke" } else { "BENCH_storage" };
    bench::write_report(
        report_name,
        &Report {
            mode: mode.to_string(),
            budget_cycles: budget,
            lanes: LANES,
            sync_epochs: EPOCHS,
            cells,
            aggregate: agg,
        },
    );

    if !all_identical || pass_rate < 1.0 {
        eprintln!("FAIL: a storage-fault cell diverged from the unfaulted baseline");
        std::process::exit(1);
    }
    if smoke {
        const FLOOR: &str = "results/BENCH_storage_floor.json";
        let f = floor(FLOOR, "grid_pass_rate");
        if pass_rate < f {
            eprintln!("FAIL: grid pass rate {pass_rate:.3} below the checked-in floor {f:.3}");
            std::process::exit(1);
        }
        println!("Floor check passed: pass rate {pass_rate:.3} >= {f:.3}.");
        // Wall clock is noisy and the numerator is one campaign: gate at
        // twice the recorded ratio.
        let f = floor(FLOOR, "smoke_clean_overhead_ratio");
        let max = f * 2.0;
        if overhead > max {
            eprintln!(
                "FAIL: clean-path overhead {overhead:.2}x exceeds twice the checked-in \
                 ceiling {f:.2}x (maximum {max:.2}x)"
            );
            std::process::exit(1);
        }
        println!("Floor check passed: overhead {overhead:.2}x <= 2x ceiling {f:.2}x.");
    }
}
