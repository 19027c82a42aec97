//! RPC plane identity at test size: everything a client reads over a
//! faulted wire matches the same campaign through the in-process service —
//! across the full deterministic fault grid, sustained random loss, a
//! server killed and replaced under a live session, duplicate submits and
//! the degraded local fallback. The parts live in `bench::planes::rpc`;
//! `plane_eval` runs the same grid at smoke and full size.

use bench::planes::{check, rpc};

#[test]
fn fault_grid_is_bit_identical() {
    check(rpc::fault_grid_is_bit_identical);
}

#[test]
fn lossy_wire_converges_to_the_clean_result() {
    check(rpc::lossy_wire_converges_to_the_clean_result);
}

#[test]
fn server_kill_and_restore_resumes_the_session() {
    check(rpc::server_kill_and_restore_resumes_the_session);
}

#[test]
fn duplicate_submits_dedupe_only_on_identical_specs() {
    check(rpc::duplicate_submits_dedupe_only_on_identical_specs);
}

#[test]
fn degraded_local_fallback_is_bit_identical() {
    check(rpc::degraded_local_fallback_is_bit_identical);
}
