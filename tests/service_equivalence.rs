//! Service-layer correctness gate: the multi-tenant campaign server is
//! *invisible* to campaign results. A service hosting several campaigns,
//! killed abruptly mid-epoch (simulated SIGKILL with torn journal tails)
//! and restarted over the same directory, must resume every tenant to a
//! `CampaignResult` bit-identical to the same campaign run uninterrupted
//! through the single-campaign builder — fair-share interleaving,
//! preemption at epoch barriers, and checkpoint I/O all charge nothing
//! observable.

use aflrs::{
    AdmissionError, Campaign, CampaignConfig, CampaignResult, CampaignSpec, Service,
    ServiceConfig, ServiceError,
};
use bench::{Mechanism, MechanismFactory, MechanismResolver};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BUDGET: u64 = 1_500_000;

fn cfg() -> CampaignConfig {
    CampaignConfig {
        budget_cycles: BUDGET,
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

fn fingerprint(r: &CampaignResult) -> String {
    format!("{:?}", r.sans_resume())
}

/// The `(mechanism tag, target name)` recipe [`MechanismResolver`]
/// understands.
fn factory_spec(target: &str) -> Vec<u8> {
    let mut w = vmos::Writer::new();
    w.put_u8(Mechanism::ClosureX.wire_tag());
    w.put_str(target);
    w.into_bytes()
}

/// Benign corpus spiked with bug witnesses, as in the sharding gate.
fn corpus(target: &str) -> Vec<Vec<u8>> {
    let t = targets::by_name(target).expect("bundled target");
    let mut seeds = (t.seeds)();
    seeds.extend((t.witnesses)().into_iter().map(|(_, input)| input));
    seeds
}

fn spec(name: &str, target: &str, shards: usize) -> CampaignSpec {
    let mut s = CampaignSpec::new(name, factory_spec(target), corpus(target), cfg());
    s.shards = shards;
    s
}

/// Ground truth: the same campaign through the single-campaign builder,
/// uninterrupted and un-checkpointed.
fn builder_reference(target: &str) -> CampaignResult {
    let t = targets::by_name(target).expect("bundled target");
    let factory = MechanismFactory::new(Mechanism::ClosureX, t);
    Campaign::new(&corpus(target), &cfg())
        .factory(&factory)
        .run()
        .expect("reference campaign runs")
        .finished()
        .expect("no kill configured")
}

/// A fresh scratch directory, unique per call (tests run in parallel).
fn tmp(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cx-service-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole gate: three tenants (two targets, mixed worker counts)
/// under one service; the whole service dies abruptly off any epoch
/// boundary; a restarted service resumes every tenant to the exact
/// uninterrupted result.
#[test]
fn service_churn_restore_is_bit_identical() {
    let want_gif = fingerprint(&builder_reference("giftext"));
    let want_gpmf = fingerprint(&builder_reference("gpmf-parser"));
    let tenants = [
        ("gif-narrow", "giftext", 1, &want_gif),
        ("gpmf", "gpmf-parser", 2, &want_gpmf),
        // Same target at a different worker count: sharding is a pure
        // throughput knob even under service scheduling.
        ("gif-wide", "giftext", 4, &want_gif),
    ];

    let dir = tmp("churn");
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);

    // Leg 1: every tenant dies mid-epoch (151 is off every barrier).
    let mut churn_cfg = ServiceConfig::new(&dir);
    churn_cfg.kill_after_execs = Some(151);
    {
        let service = Service::new(churn_cfg, Arc::clone(&resolver)).expect("service starts");
        let handles: Vec<_> = tenants
            .iter()
            .map(|(name, target, shards, _)| {
                service
                    .submit(spec(name, target, *shards))
                    .expect("admission")
            })
            .collect();
        for h in &handles {
            match h.await_result() {
                Err(ServiceError::Killed { execs }) => {
                    assert!(execs >= 151, "{}: kill switch must have fired", h.name());
                }
                other => panic!("{}: expected a killed campaign, got {other:?}", h.name()),
            }
        }
        // Graceful drop; the abrupt damage (torn journal tails) is
        // already on disk from the mid-epoch kills.
    }

    // Leg 2: restart over the same directory with the kill disarmed.
    let service =
        Service::restore(ServiceConfig::new(&dir), resolver).expect("service restores");
    for (name, _, _, want) in &tenants {
        let h = service.handle(name).expect("restored tenant");
        let r = h.await_result().expect("restored campaign finishes");
        assert_eq!(
            &fingerprint(&r),
            *want,
            "{name}: service churn + restore must reproduce the uninterrupted result"
        );
        let report = r.resume.as_ref().expect("restored result carries its resume report");
        assert!(report.records_applied > 0, "{name}: resume must replay a journal tail");
        assert!(
            report.decoded_image_ready,
            "{name}: resume must start from a warm decoded image, got {report:?}"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.finished, tenants.len());
    assert_eq!(stats.admitted, tenants.len() as u64);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn admission_control_rejects_and_leaves_no_trace() {
    let dir = tmp("admission");
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let mut svc_cfg = ServiceConfig::new(&dir);
    svc_cfg.max_campaigns = 1;
    let service = Service::new(svc_cfg, resolver).expect("service starts");

    // Resolver rejection (checked after capacity, so probe it while the
    // service is still empty).
    match service.submit(CampaignSpec::new(
        "unresolvable",
        b"not a factory spec".to_vec(),
        corpus("giftext"),
        cfg(),
    )) {
        Err(AdmissionError::Resolver(_)) => {}
        other => panic!("unresolvable factory spec must be rejected, got {other:?}"),
    }

    let first = service.submit(spec("only", "giftext", 1)).expect("capacity 1 admits one");
    first.pause();

    match service.submit(spec("only", "giftext", 1)) {
        Err(AdmissionError::Duplicate(name)) => assert_eq!(name, "only"),
        other => panic!("duplicate name must be rejected, got {other:?}"),
    }
    match service.submit(spec("second", "giftext", 1)) {
        Err(AdmissionError::Full { capacity }) => assert_eq!(capacity, 1),
        other => panic!("over-capacity submit must be rejected, got {other:?}"),
    }
    match service.submit(spec("bad name!", "giftext", 1)) {
        Err(AdmissionError::InvalidSpec(_)) => {}
        other => panic!("bad tenant name must be rejected, got {other:?}"),
    }
    match service.submit(CampaignSpec::new("empty", factory_spec("giftext"), vec![], cfg())) {
        Err(AdmissionError::InvalidSpec(_)) => {}
        other => panic!("empty corpus must be rejected, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.rejected, 5);
    // Rejections leave no trace: only the admitted tenant's directory
    // exists, so a restore resurrects exactly one campaign.
    let dirs: Vec<_> = std::fs::read_dir(&dir)
        .expect("service dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(dirs, vec!["only".to_string()]);
    let _ = std::fs::remove_dir_all(dir);
}

/// Round-trip of the durable spec format through a live service: what
/// `restore` re-admits is exactly what `submit` persisted.
#[test]
fn spec_survives_restore_before_first_grant() {
    let dir = tmp("spec-roundtrip");
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let submitted = spec("early", "gpmf-parser", 2);
    {
        let service =
            Service::new(ServiceConfig::new(&dir), Arc::clone(&resolver)).expect("service");
        let h = service.submit(submitted.clone()).expect("admission");
        // Pause immediately: the tenant may or may not have run a grant,
        // either way its spec is already durable.
        h.pause();
    }
    let service = Service::restore(ServiceConfig::new(&dir), resolver).expect("restore");
    let h = service.handle("early").expect("tenant restored from spec.bin alone");
    let r = h.await_result().expect("restored-from-spec campaign finishes");
    assert_eq!(
        fingerprint(&r),
        fingerprint(&builder_reference("gpmf-parser")),
        "a campaign restored before its first grant is just a fresh campaign"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Health-driven rotation (satellite of the RPC PR): plateaued tenants
/// are cooled out of the fair-share race, but the rotation is pure
/// scheduling — every campaign still finishes bit-identical to its
/// uninterrupted single-campaign run, and the rotation counter proves the
/// mechanism actually fired.
#[test]
fn stall_rotation_cools_plateaued_tenants_without_changing_results() {
    let want = fingerprint(&builder_reference("giftext"));
    let dir = tmp("stall");
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let mut svc_cfg = ServiceConfig::new(&dir);
    svc_cfg.workers = 1; // serialize grants: rotation must still be work-conserving
    svc_cfg.stall_threshold = Some(1);
    svc_cfg.stall_cooldown_grants = 3;
    let service = Service::new(svc_cfg, resolver).expect("service starts");
    let a = service.submit(spec("stall-a", "giftext", 1)).expect("admission");
    let b = service.submit(spec("stall-b", "giftext", 1)).expect("admission");
    for h in [&a, &b] {
        let r = h.await_result().expect("campaign finishes under rotation");
        assert_eq!(
            fingerprint(&r),
            want,
            "{}: stall rotation is scheduling-only, results are untouched",
            h.name()
        );
    }
    let stats = service.stats();
    assert!(
        stats.stall_rotations > 0,
        "coverage plateaus under a tiny budget, so rotation must fire: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Terminal-retention archival (satellite of the RPC PR): a killed tenant
/// past the retention budget is rotated down to one sealed snapshot — and
/// must still restore to the bit-identical uninterrupted result from it.
#[test]
fn archival_seals_killed_tenants_and_keeps_them_resumable() {
    let want = fingerprint(&builder_reference("giftext"));
    let dir = tmp("archive");
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);

    // Leg 1: the tenant dies mid-epoch (151 is off every barrier) and,
    // being terminal past the zero-retention budget, is archived.
    let mut churn_cfg = ServiceConfig::new(&dir);
    churn_cfg.kill_after_execs = Some(151);
    churn_cfg.retain_terminal = Some(0);
    {
        let service = Service::new(churn_cfg, Arc::clone(&resolver)).expect("service starts");
        let h = service.submit(spec("sealed", "giftext", 2)).expect("admission");
        match h.await_result() {
            Err(ServiceError::Killed { execs }) => assert!(execs >= 151),
            other => panic!("expected a killed campaign, got {other:?}"),
        }
        // The sweep runs on the worker thread after the terminal park
        // parks; wait for the counter rather than racing it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = service.stats();
            if stats.archived_tenants == 1 {
                assert_eq!(stats.archive_warnings, 0, "clean sweep: {stats:?}");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "archival sweep must fire for a terminal tenant past the budget: {stats:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // Drop additionally joins the workers, so the file sweep is done.
    }
    let snapshots: Vec<String> = std::fs::read_dir(dir.join("sealed"))
        .expect("tenant dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("shard-ckpt-"))
        .collect();
    assert_eq!(
        snapshots.len(),
        1,
        "archival keeps exactly the one sealed snapshot, got {snapshots:?}"
    );

    // Leg 2: restore from the sealed snapshot with the kill disarmed.
    let mut restore_cfg = ServiceConfig::new(&dir);
    restore_cfg.retain_terminal = Some(0);
    let service = Service::restore(restore_cfg, resolver).expect("service restores");
    let h = service.handle("sealed").expect("restored tenant");
    let r = h.await_result().expect("archived campaign resumes and finishes");
    assert_eq!(
        fingerprint(&r),
        want,
        "restore from the sealed snapshot must reproduce the uninterrupted result"
    );
    assert!(
        r.resume.expect("resume report").records_applied > 0,
        "the sealed snapshot's journal tail must be replayed"
    );
    let _ = std::fs::remove_dir_all(dir);
}

mod fair_share {
    use aflrs::service::fair_pick;
    use proptest::prelude::*;

    proptest! {
        /// Fair-share invariant: granting epoch budgets to the
        /// least-served runnable tenant keeps the spread of granted
        /// cycles bounded by one grant — no tenant can starve, no matter
        /// how uneven per-grant costs are or when tenants finish.
        #[test]
        fn interleaving_bounds_the_service_gap(
            // Per-tenant (grant cost, grants to completion).
            tenants in prop::collection::vec((1u64..=5000, 1u64..=12), 2..8),
        ) {
            let max_cost = tenants.iter().map(|(c, _)| *c).max().unwrap();
            let mut granted = vec![0u64; tenants.len()];
            let mut grants_left: Vec<u64> = tenants.iter().map(|(_, g)| *g).collect();
            loop {
                let runnable: Vec<(usize, u64)> = grants_left
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| **g > 0)
                    .map(|(id, _)| (id, granted[id]))
                    .collect();
                let Some(id) = fair_pick(&runnable) else { break };
                prop_assert!(
                    grants_left[id] > 0,
                    "fair_pick must only pick runnable tenants"
                );
                // The scheduler never lets a runnable tenant fall more
                // than one grant behind any other runnable tenant.
                let min_runnable = runnable.iter().map(|(_, c)| *c).min().unwrap();
                prop_assert_eq!(granted[id], min_runnable);
                granted[id] += tenants[id].0;
                grants_left[id] -= 1;
                let lead = runnable
                    .iter()
                    .map(|&(i, _)| granted[i])
                    .max()
                    .unwrap();
                prop_assert!(
                    lead - min_runnable <= max_cost,
                    "granted-cycle spread {lead}-{min_runnable} exceeds one grant ({max_cost})"
                );
            }
            prop_assert!(grants_left.iter().all(|&g| g == 0), "every tenant must drain");
        }
    }
}
