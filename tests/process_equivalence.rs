//! Process plane identity at test size: lane-per-process campaigns match
//! the in-process engine on both engines and at any worker count, every
//! worker death at any `(lane, epoch)` is recovered exactly, a worker that
//! keeps dying retires its lane, and a checkpoint written under one
//! isolation mode resumes under the other. The parts live in
//! `bench::planes::process`; `plane_eval` runs the same grid at smoke and
//! full size.
//!
//! This test is `harness = false`: the supervisor spawns lane workers by
//! re-exec'ing the current executable, so `main` installs
//! [`aflrs::worker_main_hook`] before anything else.

use bench::planes::{check, process, Part};

/// Each part under its own name, as the test harness would list it.
macro_rules! parts {
    ($($part:ident),* $(,)?) => {
        [$((stringify!($part), process::$part as Part)),*]
    };
}

fn main() {
    aflrs::worker_main_hook(bench::factory_from_spec);

    let parts = parts![
        process_matches_in_process_on_giftext,
        process_matches_in_process_on_gpmf_with_crashes,
        process_identity_holds_on_reference_engine,
        sigkill_recovery_is_exact_everywhere,
        every_worker_death_recovers_exactly,
        repeated_aborts_degrade_the_lane_not_the_campaign,
        kill_and_resume_crosses_isolation_modes,
    ];
    println!("\nrunning {} tests", parts.len());
    let mut failed = 0usize;
    for (name, part) in parts {
        use std::io::Write as _;
        print!("test {name} ... ");
        let _ = std::io::stdout().flush();
        match std::panic::catch_unwind(|| check(part)) {
            Ok(()) => println!("ok"),
            Err(_) => {
                println!("FAILED");
                failed += 1;
            }
        }
    }
    println!(
        "\ntest result: {}. {} passed; {failed} failed\n",
        if failed == 0 { "ok" } else { "FAILED" },
        parts.len() - failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
