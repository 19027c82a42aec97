//! Naive persistent execution: one process, a loop, and **no** state
//! restoration — AFL++'s persistent mode without manual reset code.
//!
//! This is the paper's §3 motivation made executable:
//!
//! * modified globals leak into later test cases → missed and false
//!   crashes, non-reproducible bugs;
//! * heap allocations never freed accumulate → out-of-memory false crashes;
//! * file handles never closed accumulate → descriptor-exhaustion false
//!   crashes;
//! * any `exit()` call ends the process → expensive respawn, erasing the
//!   throughput advantage on exit-heavy targets.

use std::sync::Arc;

use fir::Module;
use passes::pipelines::baseline_pipeline;
use passes::PassError;
use vmos::fs::FUZZ_INPUT_PATH;
use vmos::{CallResult, CovMap, DecodedImage, FaultPlan, FaultPlane, HostCtx, Machine, Os, Process};

use crate::executor::{ExecOutcome, ExecStatus, Executor, DEFAULT_FUEL};
use crate::resilience::{HarnessError, ResilienceReport};

/// See module docs.
#[derive(Debug)]
pub struct NaivePersistentExecutor {
    os: Os,
    module: Module,
    image: Arc<DecodedImage>,
    proc: Option<Process>,
    /// Pristine post-spawn image; restarts after exit/crash fork this
    /// (AFL++ restarts dead persistent children through its forkserver).
    template: Option<Process>,
    cov: CovMap,
    fuel: u64,
    respawns: u64,
    harness_faults: u64,
    /// Cached `Module::fingerprint` of the instrumented module.
    fingerprint: u64,
}

impl NaivePersistentExecutor {
    /// Instrument with coverage only and start the persistent process.
    ///
    /// # Errors
    /// Propagates pass failures.
    pub fn new(module: &Module) -> Result<Self, PassError> {
        let mut m = module.clone();
        baseline_pipeline().run(&mut m)?;
        let image = DecodedImage::cached(&m);
        let fingerprint = m.fingerprint();
        Ok(NaivePersistentExecutor {
            os: Os::new(),
            module: m,
            image,
            proc: None,
            template: None,
            cov: CovMap::new(),
            fuel: DEFAULT_FUEL,
            respawns: 0,
            harness_faults: 0,
            fingerprint,
        })
    }

    /// Override the fuel budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Times the process had to be restarted (exit/crash/hang).
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// The live persistent process (tests inspect leaked state).
    pub fn process(&self) -> Option<&Process> {
        self.proc.as_ref()
    }
}

impl Executor for NaivePersistentExecutor {
    fn name(&self) -> &'static str {
        "naive-persistent"
    }

    fn run(&mut self, input: &[u8]) -> ExecOutcome {
        self.cov.clear();
        self.os.fs.overwrite_file(FUZZ_INPUT_PATH, input);
        let mut mgmt = self.os.cost.persistent_loop;
        if self.proc.is_none() {
            let attempt = match &self.template {
                Some(t) => self.os.try_fork(t),
                None => self.os.try_spawn(&self.module),
            };
            match attempt {
                Ok((p, c)) => {
                    if self.template.is_none() {
                        self.template = Some(p.clone());
                    }
                    self.proc = Some(p);
                    mgmt += c;
                }
                Err(e) => {
                    // Naive persistent mode has no recovery story: surface
                    // the fault and hope the next run's respawn succeeds.
                    self.harness_faults += 1;
                    return ExecOutcome {
                        status: ExecStatus::Fault(HarnessError::ForkFailed(e.to_string())),
                        exec_cycles: 0,
                        mgmt_cycles: mgmt,
                        insts: 0,
                    };
                }
            }
        }
        let Some(p) = self.proc.as_mut() else {
            self.harness_faults += 1;
            return ExecOutcome {
                status: ExecStatus::Fault(HarnessError::ProcessLost),
                exec_cycles: 0,
                mgmt_cycles: mgmt,
                insts: 0,
            };
        };
        p.cov_state.reset();
        let machine = Machine::with_image(&self.module, &self.image);
        let out = {
            let mut ctx = HostCtx::new(&mut self.os, &mut self.cov);
            machine.call(p, &mut ctx, "main", &[0, 0], self.fuel)
        };
        let (status, kill) = match out.result {
            CallResult::Return(v) => (ExecStatus::Exit(v as i32), false),
            // A real exit() terminates the persistent process; AFL++ has to
            // bring it back up for the next test case.
            CallResult::Exited(c) | CallResult::ExitHooked(c) => (ExecStatus::Exit(c), true),
            CallResult::Crashed(c) => (ExecStatus::Crash(c), true),
            CallResult::OutOfFuel => (ExecStatus::Hang, true),
        };
        if kill {
            if let Some(dead) = self.proc.take() {
                mgmt += self.os.teardown(dead);
            }
            self.respawns += 1;
        }
        ExecOutcome {
            status,
            exec_cycles: out.cycles,
            mgmt_cycles: mgmt,
            insts: out.insts,
        }
    }

    fn coverage(&self) -> &CovMap {
        &self.cov
    }

    fn fuel(&self) -> u64 {
        self.fuel
    }

    fn inject_faults(&mut self, plan: FaultPlan) {
        self.os.fault = FaultPlane::new(plan);
    }

    fn resilience(&self) -> ResilienceReport {
        ResilienceReport {
            respawns: self.respawns,
            harness_faults: self.harness_faults,
            ..ResilienceReport::default()
        }
    }

    fn module_fingerprint(&self) -> Option<u64> {
        Some(self.fingerprint)
    }

    fn warm_decoded_image(&self, _dir: Option<&std::path::Path>) -> Option<vmos::WarmSource> {
        Some(vmos::DecodedImage::warm(&self.module))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmos::CrashKind;

    fn module(src: &str) -> Module {
        minic::compile("t", src).unwrap()
    }

    #[test]
    fn state_leaks_across_test_cases() {
        // The semantic-inconsistency demo: identical inputs, different
        // results.
        let m = module(
            r#"
            global count;
            fn main() {
                count = count + 1;
                return count;
            }
        "#,
        );
        let mut ex = NaivePersistentExecutor::new(&m).unwrap();
        assert_eq!(ex.run(b"x").status, ExecStatus::Exit(1));
        assert_eq!(ex.run(b"x").status, ExecStatus::Exit(2), "stale state!");
        assert_eq!(ex.run(b"x").status, ExecStatus::Exit(3));
    }

    #[test]
    fn heap_leaks_accumulate() {
        let m = module(
            r#"
            fn main() {
                var p = malloc(1024);
                store8(p, 1);
                return 0;
            }
        "#,
        );
        let mut ex = NaivePersistentExecutor::new(&m).unwrap();
        ex.run(b"x");
        let after_one = ex.process().unwrap().heap.live_bytes();
        for _ in 0..9 {
            ex.run(b"x");
        }
        let after_ten = ex.process().unwrap().heap.live_bytes();
        assert_eq!(after_ten, after_one * 10, "leaks pile up unchecked");
    }

    #[test]
    fn fd_exhaustion_false_crash() {
        // Target leaks one handle per run: after RLIMIT_NOFILE runs fopen
        // hits the descriptor limit — a false crash caused by prior test
        // cases, not this input, and bucketed as exactly that.
        let m = module(
            r#"
            fn main() {
                var f = fopen("/fuzz/input", 0);
                var buf[4];
                fread(buf, 1, 4, f);
                return 0;
            }
        "#,
        );
        let mut ex = NaivePersistentExecutor::new(&m).unwrap();
        let mut crashed_at = None;
        for i in 0..100 {
            let out = ex.run(b"data");
            if let Some(c) = out.status.crash() {
                assert_eq!(c.kind, CrashKind::FdExhaustion);
                assert!(c.kind.is_resource_exhaustion());
                crashed_at = Some(i);
                break;
            }
        }
        let at = crashed_at.expect("must eventually exhaust descriptors");
        assert!(at >= 32, "first runs are fine; exhaustion is cumulative");
    }

    #[test]
    fn exit_forces_respawn() {
        let m = module("fn main() { exit(1); }");
        let mut ex = NaivePersistentExecutor::new(&m).unwrap();
        ex.run(b"x");
        ex.run(b"x");
        assert_eq!(ex.respawns(), 2, "every exit() kills the loop");
    }
}
