//! Process plane identity at test size: lane-per-process campaigns match
//! the in-process engine on both engines and at any worker count, every
//! worker death at any `(lane, epoch)` is recovered exactly, a worker that
//! keeps dying retires its lane, and a checkpoint written under one
//! isolation mode resumes under the other. The parts live in
//! `bench::planes::process`; `plane_eval` runs the same grid at smoke and
//! full size.
//!
//! This test is `harness = false`: the supervisor spawns lane workers by
//! re-exec'ing the current executable, so `main` is
//! [`bench::planes::test_main`], which installs the worker hook first.

fn main() {
    bench::planes::test_main(&bench::named_parts![process:
        process_matches_in_process_on_giftext,
        process_matches_in_process_on_gpmf_with_crashes,
        process_identity_holds_on_reference_engine,
        sigkill_recovery_is_exact_everywhere,
        every_worker_death_recovers_exactly,
        repeated_aborts_degrade_the_lane_not_the_campaign,
        kill_and_resume_crosses_isolation_modes,
    ]);
}
