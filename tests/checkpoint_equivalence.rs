//! Checkpoint plane identity at test size: a single-driver campaign
//! killed once, killed again and again, killed with its newest snapshot
//! corrupted, or killed at every offset around a snapshot, resumes to the
//! uninterrupted result. The parts live in `bench::planes::checkpoint`;
//! `plane_eval` runs them at smoke and full size.

use bench::planes::{check, checkpoint};

#[test]
fn kill_and_resume_is_invisible() {
    check(checkpoint::kill_and_resume_is_invisible);
}

#[test]
fn kill_at_every_snapshot_offset_resumes_exactly() {
    check(checkpoint::kill_at_every_snapshot_offset_resumes_exactly);
}
