//! Storage plane identity at test size: a disk fault at every early I/O
//! boundary of every storage stream, on the single-driver and sharded
//! engines, ends in a sanctioned state — retried, degraded with a typed
//! report, or killed and resumed — with the unfaulted result. The parts
//! live in `bench::planes::storage`; `plane_eval` runs the same grid at
//! smoke and full size, where it adds process isolation.

use bench::planes::{check, storage};

#[test]
fn sharded_crash_at_every_boundary_resumes_exactly() {
    check(storage::sharded_crash_at_every_boundary_resumes_exactly);
}

#[test]
fn single_driver_crash_grid_resumes_exactly() {
    check(storage::single_driver_crash_grid_resumes_exactly);
}

#[test]
fn transient_faults_retry_or_degrade_typed() {
    check(storage::transient_faults_retry_or_degrade_typed);
}

#[test]
fn bitrot_is_scrubbed_on_resume() {
    check(storage::bitrot_is_scrubbed_on_resume);
}

#[test]
fn cleanup_failures_warn_and_continue() {
    check(storage::cleanup_failures_warn_and_continue);
}
