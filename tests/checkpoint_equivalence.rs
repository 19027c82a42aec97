//! Checkpoint plane identity at test size: a single-driver campaign
//! killed once, killed again and again, or killed with its newest
//! snapshot corrupted, resumes to the uninterrupted result. The part lives
//! in `bench::planes::checkpoint`; `plane_eval` runs it at smoke and full
//! size.

use bench::planes::{check, checkpoint};

#[test]
fn kill_and_resume_is_invisible() {
    check(checkpoint::kill_and_resume_is_invisible);
}
