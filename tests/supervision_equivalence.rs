//! Supervision plane identity at test size: an injected worker panic,
//! lane hang or barrier timeout at any `(lane, epoch)` is contained and
//! recovered exactly, at every worker count and on both engines, and a
//! lane that fails past its retry budget is retired while the campaign
//! finishes. The parts live in `bench::planes::supervision`; `plane_eval`
//! runs the same grid at smoke and full size.

use bench::planes::{check, supervision};

#[test]
fn giftext_panic_recovery_is_exact_everywhere() {
    check(supervision::giftext_panic_recovery_is_exact_everywhere);
}

#[test]
fn giftext_hang_recovery_is_exact_everywhere() {
    check(supervision::giftext_hang_recovery_is_exact_everywhere);
}

#[test]
fn gpmf_panic_recovery_is_exact_with_crashes() {
    check(supervision::gpmf_panic_recovery_is_exact_with_crashes);
}

#[test]
fn recovery_is_exact_on_reference_engine() {
    check(supervision::recovery_is_exact_on_reference_engine);
}

#[test]
fn barrier_timeout_recovery_is_exact() {
    check(supervision::barrier_timeout_recovery_is_exact);
}

#[test]
fn repeated_failures_degrade_the_lane_not_the_campaign() {
    check(supervision::repeated_failures_degrade_the_lane_not_the_campaign);
}
