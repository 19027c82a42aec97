//! Process plane identity at test size: lane-per-process campaigns match
//! the in-process engine on both engines and at any worker count, every
//! worker death at any `(lane, epoch)` is recovered exactly, a worker that
//! keeps dying retires its lane, a checkpoint written under one isolation
//! mode resumes under the other, a worker that refuses its factory spec
//! ends the campaign in a typed worker failure, both modes leave the same
//! shard snapshot bytes, and both retire a failing lane identically. The parts live in
//! `bench::planes::process`; `plane_eval` runs the same grid at smoke and
//! full size. One storage-plane part runs here too, because it crashes a
//! campaign in both isolation modes: a disk crash while the last barrier
//! is sealed leaves the pinned directory and resumes exactly.
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
        a_refused_worker_spec_is_a_typed_worker_failure,
        shard_snapshots_are_byte_identical_across_isolation_modes,
        a_retired_lane_is_retired_identically_in_both_modes;
        storage:
        a_crash_sealing_the_last_barrier_resumes_exactly,
    ]);
}
