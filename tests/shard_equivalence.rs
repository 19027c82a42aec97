//! Shard plane identity at test size: the worker count of a sharded
//! campaign is a pure throughput knob, on both engines and across a
//! kill and resume. The parts live in `bench::planes::shard`; `plane_eval`
//! runs the same grid at smoke and full size.

use bench::planes::{check, shard};

#[test]
fn giftext_sharding_is_worker_count_invariant() {
    check(shard::giftext_sharding_is_worker_count_invariant);
}

#[test]
fn gpmf_sharding_with_crashes_is_worker_count_invariant() {
    check(shard::gpmf_sharding_with_crashes_is_worker_count_invariant);
}

#[test]
fn sharding_is_worker_count_invariant_on_reference_engine() {
    check(shard::sharding_is_worker_count_invariant_on_reference_engine);
}

#[test]
fn sharded_kill_and_resume_reproduces_uninterrupted_result() {
    check(shard::sharded_kill_and_resume_reproduces_uninterrupted_result);
}
