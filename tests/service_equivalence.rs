//! Service plane identity at test size: a multi-tenant service killed
//! abruptly mid-epoch and restored resumes every tenant to the result of
//! the same campaign run uninterrupted through the builder, through stall
//! rotation, archival and a restore before the first grant, and every
//! grant parks its tenant on a sealed barrier. The parts live
//! in `bench::planes::service`; `plane_eval` runs the same grid at smoke
//! and full size. The decode-once cell has its own binary
//! (`service_decode_once`): it reads process-global counters.
//!
//! Admission control and the fair-share invariant are not identity cells
//! and stay here.

use aflrs::{AdmissionError, CampaignConfig, CampaignSpec, Service, ServiceConfig};
use bench::planes::{check, service};
use bench::{Mechanism, MechanismResolver};
use std::sync::Arc;

#[test]
fn service_churn_restore_is_bit_identical() {
    check(service::service_churn_restore_is_bit_identical);
}

#[test]
fn spec_survives_restore_before_first_grant() {
    check(service::spec_survives_restore_before_first_grant);
}

#[test]
fn stall_rotation_cools_plateaued_tenants_without_changing_results() {
    check(service::stall_rotation_cools_plateaued_tenants_without_changing_results);
}

#[test]
fn archival_seals_killed_tenants_and_keeps_them_resumable() {
    check(service::archival_seals_killed_tenants_and_keeps_them_resumable);
}

#[test]
fn every_grant_leaves_its_barrier_sealed() {
    check(service::every_grant_leaves_its_barrier_sealed);
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        budget_cycles: 1_500_000,
        seed: 0xC0FFEE,
        deterministic_stage: true,
        stop_after_crashes: 0,
        ..CampaignConfig::default()
    }
}

/// A `giftext` tenant in the `(mechanism tag, target name)` recipe
/// [`MechanismResolver`] understands.
fn spec(name: &str) -> CampaignSpec {
    let t = targets::by_name("giftext").expect("bundled target");
    let spec = bench::factory_spec(Mechanism::ClosureX, "giftext");
    CampaignSpec::new(name, spec, (t.seeds)(), cfg())
}

#[test]
fn admission_control_rejects_and_leaves_no_trace() {
    let dir = std::env::temp_dir().join(format!("cx-service-admission-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let mut svc_cfg = ServiceConfig::new(&dir);
    svc_cfg.max_campaigns = 1;
    let service = Service::new(svc_cfg, resolver).expect("service starts");

    // Resolver rejection (checked after capacity, so probe it while the
    // service is still empty).
    match service.submit(CampaignSpec {
        factory_spec: b"not a factory spec".to_vec(),
        ..spec("unresolvable")
    }) {
        Err(AdmissionError::Resolver(_)) => {}
        other => panic!("unresolvable factory spec must be rejected, got {other:?}"),
    }

    let first = service.submit(spec("only")).expect("capacity 1 admits one");
    first.pause();

    match service.submit(spec("only")) {
        Err(AdmissionError::Duplicate(name)) => assert_eq!(name, "only"),
        other => panic!("duplicate name must be rejected, got {other:?}"),
    }
    match service.submit(spec("second")) {
        Err(AdmissionError::Full { capacity }) => assert_eq!(capacity, 1),
        other => panic!("over-capacity submit must be rejected, got {other:?}"),
    }
    match service.submit(spec("bad name!")) {
        Err(AdmissionError::InvalidSpec(_)) => {}
        other => panic!("bad tenant name must be rejected, got {other:?}"),
    }
    match service.submit(CampaignSpec {
        seeds: vec![],
        ..spec("empty")
    }) {
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

/// A tenant directory holding its `spec.bin` and nothing but debris holds
/// no campaign state: neither the orphaned temp file a kill during the
/// first snapshot leaves, nor a lane journal an older build left. Restore
/// starts such a tenant fresh, and it finishes on the result of an
/// untouched submit.
#[test]
fn debris_alone_restores_to_a_fresh_start() {
    let root = std::env::temp_dir().join(format!("cx-service-debris-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let start = |dir| Service::new(ServiceConfig::new(dir), Arc::clone(&resolver));
    let want = start(root.join("untouched"))
        .expect("service starts")
        .submit(spec("t"))
        .expect("admitted")
        .await_result()
        .expect("finishes");
    for debris in ["shard-ckpt-000000.tmp", "shard-journal-000000-000.bin"] {
        let dir = root.join(debris);
        start(dir.clone())
            .expect("service starts")
            .submit(spec("t"))
            .expect("admitted")
            .pause();
        // Leave the tenant its spec and the debris only, whatever a grant
        // that beat the pause wrote.
        let tenant = dir.join("t");
        for entry in std::fs::read_dir(&tenant).expect("tenant dir") {
            let path = entry.expect("entry").path();
            if path.file_name().is_some_and(|n| n != "spec.bin") {
                std::fs::remove_file(path).expect("clear tenant dir");
            }
        }
        std::fs::write(tenant.join(debris), b"torn").expect("write debris");
        let service = Service::restore(ServiceConfig::new(&dir), Arc::clone(&resolver))
            .expect("service restores");
        let got = service
            .handle("t")
            .expect("tenant restored from spec.bin")
            .await_result()
            .unwrap_or_else(|e| panic!("{debris}: restored tenant did not finish: {e:?}"));
        assert_eq!(want.outcome_diff(&got), None, "{debris}");
    }
    let _ = std::fs::remove_dir_all(root);
}

/// A `spec.bin.tmp` is never campaign state: `write_spec` renames it away
/// or deletes it, so one left on disk is from an admission that died
/// between the create and the rename. Restore deletes it both next to a
/// committed `spec.bin`, where the tenant then finishes on the result of
/// an untouched submit, and alone in a directory, which held no tenant and
/// goes with it.
#[test]
fn a_stray_spec_temp_is_swept_on_restore() {
    let root = std::env::temp_dir().join(format!("cx-service-spec-tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let resolver: Arc<dyn aflrs::SpecResolver> = Arc::new(MechanismResolver);
    let start = |dir| Service::new(ServiceConfig::new(dir), Arc::clone(&resolver));
    let want = start(root.join("untouched"))
        .expect("service starts")
        .submit(spec("t"))
        .expect("admitted")
        .await_result()
        .expect("finishes");
    let dir = root.join("killed");
    start(dir.clone())
        .expect("service starts")
        .submit(spec("t"))
        .expect("admitted")
        .pause();
    let spec_bytes = std::fs::read(dir.join("t").join("spec.bin")).expect("spec.bin");
    let beside = dir.join("t").join("spec.bin.tmp");
    std::fs::write(&beside, &spec_bytes[..spec_bytes.len() / 2]).expect("write temp");
    let alone = dir.join("ghost");
    std::fs::create_dir_all(&alone).expect("mkdir");
    std::fs::write(alone.join("spec.bin.tmp"), &spec_bytes).expect("write temp");

    let service = Service::restore(ServiceConfig::new(&dir), Arc::clone(&resolver))
        .expect("service restores");
    assert!(!beside.exists(), "the temp beside spec.bin is swept");
    assert!(
        !alone.exists(),
        "a directory holding only the temp is swept"
    );
    assert!(service.handle("ghost").is_none(), "no spec.bin, no tenant");
    let got = service
        .handle("t")
        .expect("tenant restored from spec.bin")
        .await_result()
        .expect("restored tenant finishes");
    assert_eq!(want.outcome_diff(&got), None);
    let _ = std::fs::remove_dir_all(root);
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
