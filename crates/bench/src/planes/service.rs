//! Service plane: the multi-tenant campaign server is invisible to
//! campaign results and cheap to restart. A service hosting several
//! tenants, killed abruptly mid-epoch and restored over the same
//! directory, resumes every tenant to the result of the same campaign run
//! uninterrupted through the single-campaign builder — on both engines and
//! worker shapes, through stall rotation, archival and a restore before
//! the first grant. A 100-tenant same-target restore against a cold
//! decoded-image cache lowers the module once: every other tenant is a
//! cache hit.
//!
//! The decode-once cell reads the process-global [`vmos::decode_counters`],
//! so it must not share a process with other running cells: its test has
//! a binary of its own.
//!
//! Cost ratio: one campaign's wall clock through the service over the same
//! campaign through the builder, best of two each.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aflrs::{CampaignResult, CampaignSpec, Service, ServiceConfig, ServiceError};

use super::{
    budget, cfg, ensure, in_scratch, reran, resume_report, same, scratch, tenant, Block, Cell,
    Fail, Grid, Part, Role, Setup, Size,
};
use crate::MechanismResolver;

const BOTH: &[Block] = &[Block::Supervision, Block::Storage];

/// The campaign every tenant of a grid size runs: seed and budget.
struct Shape {
    seed: u64,
    budget: u64,
}

impl Shape {
    fn tenant(&self, name: &str, target: &str, shards: usize) -> CampaignSpec {
        tenant(name, target, shards, cfg(self.seed, self.budget))
    }

    /// The uninterrupted builder run of `target`: its tenants' reference.
    fn reference(
        &self,
        g: &mut Grid,
        target: &'static str,
        reference: bool,
    ) -> Option<CampaignResult> {
        let s = Setup {
            witnesses: true,
            reference,
            ..Setup::new(target, self.seed, self.budget)
        };
        let engine = if reference { "reference" } else { "decoded" };
        g.cell(target, format!("{engine} builder run"), || s.run(1, |c| c))
    }
}

fn start(svc: ServiceConfig) -> Result<Service, String> {
    Service::new(svc, Arc::new(MechanismResolver)).fail()
}

fn restore(svc: ServiceConfig) -> Result<Service, String> {
    Service::restore(svc, Arc::new(MechanismResolver)).fail()
}

/// A service over `svc` that runs `specs` side by side until each dies at
/// the armed kill switch; also returns each tenant's execs at its kill, in
/// spec order.
fn killed(
    svc: ServiceConfig,
    specs: impl IntoIterator<Item = CampaignSpec>,
) -> Result<(Service, Vec<u64>), String> {
    let kill = svc.kill_after_execs.ok_or("no kill switch armed")?;
    let service = start(svc)?;
    let handles = specs
        .into_iter()
        .map(|spec| service.submit(spec).fail())
        .collect::<Result<Vec<_>, _>>()?;
    let mut kills = Vec::with_capacity(handles.len());
    for h in handles {
        match h.await_result() {
            Err(ServiceError::Killed { execs }) if execs >= kill => kills.push(execs),
            other => {
                return Err(format!(
                    "{}: expected a kill at {kill} execs, got {other:?}",
                    h.name()
                ))
            }
        }
    }
    Ok((service, kills))
}

/// `ServiceConfig` over `dir` with the kill switch armed at `kill`.
fn killing(dir: &Path, kill: u64) -> ServiceConfig {
    let mut svc = ServiceConfig::new(dir);
    svc.kill_after_execs = Some(kill);
    svc
}

/// The service grid at `size`.
pub fn grid(size: Size) -> Vec<Cell> {
    let parts: &[Part] = match size {
        Size::Test => &[
            service_churn_restore_is_bit_identical,
            spec_survives_restore_before_first_grant,
            stall_rotation_cools_plateaued_tenants_without_changing_results,
            archival_seals_killed_tenants_and_keeps_them_resumable,
            restore_decodes_once,
        ],
        Size::Smoke | Size::Full => &[
            decoded_churn,
            reference_churn,
            overhead,
            restore_decodes_once,
        ],
    };
    super::run(size, parts)
}

/// The test-size tenant campaign.
const TEST: Shape = Shape {
    seed: 0xC0FFEE,
    budget: 1_500_000,
};

/// Two targets at mixed worker counts die together and restore; the same
/// target at two worker counts shows sharding stays a pure throughput
/// knob under service scheduling.
pub fn service_churn_restore_is_bit_identical(g: &mut Grid) {
    let gif = TEST.reference(g, "giftext", false);
    let gpmf = TEST.reference(g, "gpmf-parser", false);
    if let (Some(gif), Some(gpmf)) = (gif, gpmf) {
        let tenants = [
            ("gif-narrow", "giftext", 1, &gif),
            ("gpmf", "gpmf-parser", 2, &gpmf),
            ("gif-wide", "giftext", 4, &gif),
        ];
        churn(g, &TEST, false, 151, &tenants);
    }
}

/// A tenant paused before its first grant restores from its spec alone.
pub fn spec_survives_restore_before_first_grant(g: &mut Grid) {
    if let Some(want) = TEST.reference(g, "gpmf-parser", false) {
        early_restore(g, &TEST, &want);
    }
}

/// Stall rotation is scheduling only.
pub fn stall_rotation_cools_plateaued_tenants_without_changing_results(g: &mut Grid) {
    if let Some(want) = TEST.reference(g, "giftext", false) {
        stall_rotation(g, &TEST, &want);
    }
}

/// An archived tenant still restores to the reference result.
pub fn archival_seals_killed_tenants_and_keeps_them_resumable(g: &mut Grid) {
    if let Some(want) = TEST.reference(g, "giftext", false) {
        archival(g, &TEST, &want);
    }
}

/// The smoke and full tenant campaign.
fn eval_shape(size: Size) -> Shape {
    Shape {
        seed: 0x5EAF00D,
        budget: budget(size, 1_500_000),
    }
}

/// The smoke and full churn grid on the decoded engine.
fn decoded_churn(g: &mut Grid) {
    eval_churn(g, false);
}

/// The smoke and full churn grid on the reference engine.
fn reference_churn(g: &mut Grid) {
    eval_churn(g, true);
}

/// Both targets at 1 and then 4 workers, killed together off every epoch
/// barrier (so kills land mid-epoch with torn tails) and restored; full
/// size sweeps three kill points.
fn eval_churn(g: &mut Grid, reference: bool) {
    let shape = eval_shape(g.size());
    let kills: &[u64] = if g.size() == Size::Full {
        &[97, 151, 233]
    } else {
        &[97]
    };
    let gif = shape.reference(g, "giftext", reference);
    let gpmf = shape.reference(g, "gpmf-parser", reference);
    let (Some(gif), Some(gpmf)) = (gif, gpmf) else {
        return;
    };
    for shards in [1, 4] {
        for &kill in kills {
            let tenants = [
                ("giftext", "giftext", shards, &gif),
                ("gpmf-parser", "gpmf-parser", shards, &gpmf),
            ];
            churn(g, &shape, reference, kill, &tenants);
        }
    }
}

/// One churn round: the tenants (name, target, shards, reference) die
/// together at `kill` execs, then a restored service resumes each to its
/// reference from a warm decoded image, re-running the work past its
/// last barrier.
fn churn(
    g: &mut Grid,
    shape: &Shape,
    reference: bool,
    kill: u64,
    tenants: &[(&'static str, &'static str, usize, &CampaignResult)],
) {
    let _engine = reference.then(vmos::ReferenceEngineGuard::new);
    let engine = if reference { "reference" } else { "decoded" };
    let dir = scratch("service-churn");
    let restored = g.cell("service", format!("{engine} kill@{kill} + restore"), || {
        let specs = tenants
            .iter()
            .map(|&(name, target, shards, _)| shape.tenant(name, target, shards));
        let (_, kills) = killed(killing(&dir, kill), specs)?;
        Ok((restore(ServiceConfig::new(&dir))?, kills))
    });
    if let Some((service, kills)) = restored {
        for (&(name, target, shards, want), &killed_at) in tenants.iter().zip(&kills) {
            g.cell(
                target,
                format!("{engine} {name} shards={shards} kill@{kill}"),
                || {
                    let r = service
                        .handle(name)
                        .ok_or("tenant not restored")?
                        .await_result()
                        .fail()?;
                    same(&r, want, BOTH)?;
                    let report = resume_report(&r)?;
                    reran(killed_at, report)?;
                    ensure(report.decoded_image_ready, || {
                        format!("resume must start from a warm decoded image: {report:?}")
                    })
                },
            );
        }
        let stats = service.stats();
        let n = tenants.len();
        g.check(
            "service",
            format!("{engine} kill@{kill}: every tenant finished"),
            {
                ensure(stats.finished == n && stats.admitted == n as u64, || {
                    format!("{stats:?}")
                })
            },
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A tenant paused before its first grant and restored from its spec
/// alone is just a fresh campaign.
fn early_restore(g: &mut Grid, shape: &Shape, want: &CampaignResult) {
    g.cell("gpmf-parser", "restore before the first grant", || {
        in_scratch("service-spec", |dir| {
            start(ServiceConfig::new(dir))?
                .submit(shape.tenant("early", "gpmf-parser", 2))
                .fail()?
                .pause();
            let service = restore(ServiceConfig::new(dir))?;
            let h = service
                .handle("early")
                .ok_or("tenant not restored from spec.bin")?;
            same(&h.await_result().fail()?, want, BOTH)
        })
    });
}

/// Plateaued tenants are cooled out of the fair-share race, but rotation
/// is scheduling only: both tenants still finish on the reference result.
fn stall_rotation(g: &mut Grid, shape: &Shape, want: &CampaignResult) {
    g.cell("giftext", "stall rotation, 1 worker", || {
        in_scratch("service-stall", |dir| {
            let mut svc = ServiceConfig::new(dir);
            svc.workers = 1;
            svc.stall_threshold = Some(1);
            svc.stall_cooldown_grants = 3;
            let service = start(svc)?;
            let handles =
                ["stall-a", "stall-b"].map(|name| service.submit(shape.tenant(name, "giftext", 1)));
            for h in handles {
                same(&h.fail()?.await_result().fail()?, want, BOTH)?;
            }
            let stats = service.stats();
            ensure(stats.stall_rotations > 0, || {
                format!("rotation never fired: {stats:?}")
            })
        })
    });
}

/// A killed tenant past the zero-retention budget is rotated down to one
/// sealed snapshot, and still restores from it to the reference result.
fn archival(g: &mut Grid, shape: &Shape, want: &CampaignResult) {
    g.cell("giftext", "archive a killed tenant, restore it", || {
        in_scratch("service-archive", |dir| {
            let mut svc = killing(dir, 151);
            svc.retain_terminal = Some(0);
            let (service, kills) = killed(svc, [shape.tenant("sealed", "giftext", 2)])?;
            // The sweep runs on the worker thread after the tenant parks:
            // wait for the counter rather than race it.
            let deadline = Instant::now() + Duration::from_secs(10);
            while service.stats().archived_tenants != 1 {
                ensure(Instant::now() < deadline, || {
                    format!("archival never fired: {:?}", service.stats())
                })?;
                std::thread::sleep(Duration::from_millis(10));
            }
            let stats = service.stats();
            ensure(stats.archive_warnings == 0, || {
                format!("unclean sweep: {stats:?}")
            })?;
            drop(service);
            let snapshots = std::fs::read_dir(dir.join("sealed"))
                .fail()?
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("shard-ckpt-"))
                .count();
            ensure(snapshots == 1, || {
                format!("archival kept {snapshots} snapshots, not 1")
            })?;
            let mut svc = ServiceConfig::new(dir);
            svc.retain_terminal = Some(0);
            let service = restore(svc)?;
            let r = service
                .handle("sealed")
                .ok_or("tenant not restored")?
                .await_result()
                .fail()?;
            same(&r, want, BOTH)?;
            reran(kills[0], resume_report(&r)?)
        })
    });
}

/// 100 same-target tenants killed, then restored on one worker against a
/// cold decoded-image cache and zeroed counters: the whole restore pays
/// one lowering, and every tenant matches. Reads
/// process-global counters: run it in a process of its own, or after
/// every other cell.
pub fn restore_decodes_once(g: &mut Grid) {
    const TENANTS: usize = 100;
    let shape = Shape {
        seed: 0x5EAF00D,
        budget: 400_000,
    };
    let Some(want) = shape.reference(g, "giftext", false) else {
        return;
    };
    g.cell(
        "giftext",
        format!("{TENANTS} tenants restore on one decode"),
        || {
            in_scratch("service-fleet", |dir| {
                let mut svc = killing(dir, 97);
                svc.max_campaigns = TENANTS;
                let specs =
                    (0..TENANTS).map(|i| shape.tenant(&format!("gif-{i:03}"), "giftext", 1));
                drop(killed(svc, specs)?.0);
                // A server restart: cold decoded-image cache, zero counters.
                vmos::DecodedImage::cache_evict_all();
                vmos::reset_decode_counters();
                let mut svc = ServiceConfig::new(dir);
                svc.workers = 1;
                let service = restore(svc)?;
                for h in service.handles() {
                    let r = h.await_result().fail()?;
                    same(&r, &want, BOTH).map_err(|e| format!("{}: {e}", h.name()))?;
                }
                let decode = service.stats().decode;
                let n = service.handles().len();
                ensure(n == TENANTS && decode.lowered == 1, || {
                    format!("expected {TENANTS} tenants on 1 lowering, got {n}: {decode:?}")
                })
            })
        },
    );
}

/// One campaign through the service against the same one through the
/// builder, at four times the grid budget so the service's fixed costs
/// (thread spawn, resolver compile, spec I/O) do not dominate.
fn overhead(g: &mut Grid) {
    let shape = eval_shape(g.size());
    let shape = Shape {
        budget: shape.budget * 4,
        ..shape
    };
    let s = Setup {
        witnesses: true,
        ..Setup::new("giftext", shape.seed, shape.budget)
    };
    g.cell("giftext", "warm-up", || s.run(1, |c| c));
    g.best_of(2, "giftext", "builder run", Role::Denominator, || {
        let start = Instant::now();
        s.run(1, |c| c)?;
        Ok(start.elapsed().as_secs_f64())
    });
    g.best_of(2, "giftext", "service run", Role::Numerator, || {
        in_scratch("service-overhead", |dir| {
            let clock = Instant::now();
            let service = start(ServiceConfig::new(dir))?;
            service
                .submit(shape.tenant("solo", "giftext", 1))
                .fail()?
                .await_result()
                .fail()?;
            Ok(clock.elapsed().as_secs_f64())
        })
    });
}
