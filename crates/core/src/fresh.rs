//! Fresh-process execution: spawn + exec + teardown per test case.
//!
//! The left end of the paper's continuum (Windows-fuzzer style process
//! creation): trivially correct — every test case starts from a pristine
//! image — and by far the slowest, since the whole binary image is reloaded
//! every time.

use std::sync::Arc;

use fir::{FunctionId, Module};
use passes::pipelines::baseline_pipeline;
use passes::PassError;
use vmos::fs::FUZZ_INPUT_PATH;
use vmos::{CallResult, CovMap, DecodedImage, FaultPlan, FaultPlane, HostCtx, Machine, Os};

use crate::checkpoint::ExecutorState;
use crate::executor::{ExecOutcome, ExecStatus, Executor, DEFAULT_FUEL};
use crate::resilience::{HarnessError, ResilienceReport};

/// See module docs.
#[derive(Debug)]
pub struct FreshProcessExecutor {
    os: Os,
    module: Module,
    image: Arc<DecodedImage>,
    cov: CovMap,
    fuel: u64,
    harness_faults: u64,
    /// Cached `Module::fingerprint` of the instrumented module (the
    /// computation walks the whole module, so it is done once at boot).
    fingerprint: u64,
    /// The instrumented module's `main`, resolved once.
    entry: FunctionId,
}

impl FreshProcessExecutor {
    /// Instrument `module` with coverage only and build the executor.
    ///
    /// # Errors
    /// Propagates pass failures (e.g. no `main`).
    pub fn new(module: &Module) -> Result<Self, PassError> {
        let mut m = module.clone();
        baseline_pipeline().run(&mut m)?;
        let image = DecodedImage::cached(&m);
        let fingerprint = image.fingerprint;
        let entry = Machine::new(&m).entry("main");
        Ok(FreshProcessExecutor {
            os: Os::new(),
            module: m,
            image,
            cov: CovMap::new(),
            fuel: DEFAULT_FUEL,
            harness_faults: 0,
            fingerprint,
            entry,
        })
    }

    /// Override the fuel budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// The OS (for filesystem seeding in tests).
    pub fn os_mut(&mut self) -> &mut Os {
        &mut self.os
    }
}

impl Executor for FreshProcessExecutor {
    fn name(&self) -> &'static str {
        "fresh-process"
    }

    fn run(&mut self, input: &[u8]) -> ExecOutcome {
        self.cov.clear();
        self.os.fs.overwrite_file(FUZZ_INPUT_PATH, input);
        let (mut p, spawn_cycles) = match self.os.try_spawn(&self.module) {
            Ok(r) => r,
            Err(e) => {
                self.harness_faults += 1;
                return ExecOutcome {
                    status: ExecStatus::Fault(HarnessError::ForkFailed(e.to_string())),
                    exec_cycles: 0,
                    mgmt_cycles: self.os.cost.fork(0),
                    insts: 0,
                };
            }
        };
        let machine = Machine::with_image(&self.module, &self.image);
        let out = {
            let mut ctx = HostCtx::new(&mut self.os, &mut self.cov);
            machine.call_fn(&mut p, &mut ctx, self.entry, &[0, 0], self.fuel)
        };
        let teardown_cycles = self.os.teardown(p);
        let status = match out.result {
            CallResult::Return(v) => ExecStatus::Exit(v as i32),
            CallResult::Exited(c) | CallResult::ExitHooked(c) => ExecStatus::Exit(c),
            CallResult::Crashed(c) => ExecStatus::Crash(c),
            CallResult::OutOfFuel => ExecStatus::Hang,
        };
        ExecOutcome {
            status,
            exec_cycles: out.cycles,
            mgmt_cycles: spawn_cycles + teardown_cycles,
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
            harness_faults: self.harness_faults,
            ..ResilienceReport::default()
        }
    }

    fn export_state(&self) -> Option<ExecutorState> {
        // Fresh-process execution keeps no cross-run process state; only
        // the fault tally and the fault-plane stream position matter.
        let (fault_rolls, fault_injected) = self.os.fault.export_counters();
        Some(ExecutorState {
            harness_faults: self.harness_faults,
            proc_alive: true,
            fault_rolls,
            fault_injected,
            ..ExecutorState::default()
        })
    }

    fn restore_state(&mut self, state: &ExecutorState) -> Result<(), HarnessError> {
        self.harness_faults = state.harness_faults;
        self.os
            .fault
            .restore_counters(state.fault_rolls, state.fault_injected);
        Ok(())
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

    fn module(src: &str) -> Module {
        minic::compile("t", src).unwrap()
    }

    #[test]
    fn every_run_sees_fresh_state() {
        let m = module(
            r#"
            global count;
            fn main() {
                count = count + 1;
                return count;
            }
        "#,
        );
        let mut ex = FreshProcessExecutor::new(&m).unwrap();
        for _ in 0..3 {
            let out = ex.run(b"x");
            assert_eq!(out.status, ExecStatus::Exit(1), "state never accumulates");
        }
    }

    #[test]
    fn mgmt_cost_dominates_for_trivial_targets() {
        let m = module("fn main() { return 0; }");
        let mut ex = FreshProcessExecutor::new(&m).unwrap();
        let out = ex.run(b"");
        assert!(
            out.mgmt_cycles > out.exec_cycles * 10,
            "spawn/exec must dwarf a trivial main: mgmt={} exec={}",
            out.mgmt_cycles,
            out.exec_cycles
        );
    }

    #[test]
    fn coverage_reflects_input() {
        let m = module(
            r#"
            fn main() {
                var f = fopen("/fuzz/input", 0);
                if (f == 0) { exit(1); }
                var buf[4];
                fread(buf, 1, 4, f);
                fclose(f);
                if (load8(buf) == 'Z') { return 2; }
                return 1;
            }
        "#,
        );
        let mut ex = FreshProcessExecutor::new(&m).unwrap();
        ex.run(b"A");
        let edges_a = ex.coverage().count_nonzero();
        ex.run(b"Z");
        let edges_z = ex.coverage().count_nonzero();
        assert_ne!(edges_a, 0);
        assert_ne!(edges_z, 0);
    }
}
