//! Forkserver execution: the AFL++ baseline.
//!
//! The binary is loaded **once**; the forkserver parent pauses at `main`.
//! Each test case costs one `fork(2)` (page-table duplication +
//! copy-on-write), one control-pipe round trip, and one child teardown.
//! This is the fastest *correct* conventional mechanism and the baseline
//! ClosureX is compared against throughout the paper's evaluation.
//!
//! Those costs are charged on the simulated clock in full; on the host,
//! [`vmos::ForkServer`] recycles one child, so a fork costs time in the
//! pages the previous test case dirtied. `fork_exec` is the one
//! fork–call–reap body, shared with ClosureX's fork-per-exec rung.

use std::sync::Arc;

use fir::Module;
use passes::pipelines::baseline_pipeline;
use passes::PassError;
use vmos::fs::FUZZ_INPUT_PATH;
use vmos::{
    CallResult, CovMap, DecodedImage, FaultPlan, FaultPlane, ForkServer, HostCtx, Machine, Os,
};

use crate::executor::{ExecOutcome, ExecStatus, Executor, DEFAULT_FUEL};
use crate::resilience::{HarnessError, ResilienceReport};

/// See module docs.
#[derive(Debug)]
pub struct ForkServerExecutor {
    os: Os,
    module: Module,
    image: Arc<DecodedImage>,
    server: ForkServer,
    cov: CovMap,
    fuel: u64,
    /// One-time cost of bringing the forkserver up (binary load).
    setup_cycles: u64,
    harness_faults: u64,
    /// Cached `Module::fingerprint` of the instrumented module.
    fingerprint: u64,
}

impl ForkServerExecutor {
    /// Instrument with coverage only, load the forkserver parent.
    ///
    /// # Errors
    /// Propagates pass failures.
    pub fn new(module: &Module) -> Result<Self, PassError> {
        let mut m = module.clone();
        baseline_pipeline().run(&mut m)?;
        let mut os = Os::new();
        let (parent, setup_cycles) = os.spawn(&m);
        let image = DecodedImage::cached(&m);
        let fingerprint = m.fingerprint();
        Ok(ForkServerExecutor {
            os,
            module: m,
            image,
            server: ForkServer::new(parent),
            cov: CovMap::new(),
            fuel: DEFAULT_FUEL,
            setup_cycles,
            harness_faults: 0,
            fingerprint,
        })
    }

    /// Override the fuel budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// One-time forkserver bring-up cost.
    pub fn setup_cycles(&self) -> u64 {
        self.setup_cycles
    }
}

impl Executor for ForkServerExecutor {
    fn name(&self) -> &'static str {
        "afl-forkserver"
    }

    fn run(&mut self, input: &[u8]) -> ExecOutcome {
        self.cov.clear();
        self.os.fs.overwrite_file(FUZZ_INPUT_PATH, input);
        let machine = Machine::with_image(&self.module, &self.image);
        let call = ChildCall {
            entry: "main",
            fuel: self.fuel,
            pipe_cycles: self.os.cost.forkserver_pipe,
            trace: None,
            capture: None,
        };
        match fork_exec(
            &mut self.os,
            &mut self.server,
            &machine,
            &mut self.cov,
            call,
        ) {
            Ok((out, _)) => out,
            Err(fault) => {
                // The real AFL++ forkserver reports a failed fork over the
                // control pipe and the fuzzer retries; mirror that.
                self.harness_faults += 1;
                fault
            }
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

    fn module_fingerprint(&self) -> Option<u64> {
        Some(self.fingerprint)
    }

    fn warm_decoded_image(&self, _dir: Option<&std::path::Path>) -> Option<vmos::WarmSource> {
        Some(vmos::DecodedImage::warm(&self.module))
    }
}

/// What [`fork_exec`] runs in the forked child.
pub(crate) struct ChildCall<'a> {
    /// Function to call.
    pub entry: &'a str,
    /// Fuel for the call.
    pub fuel: u64,
    /// Control-pipe cycles charged per exec that forks.
    pub pipe_cycles: u64,
    /// Path trace to record, if any.
    pub trace: Option<&'a mut Vec<u16>>,
    /// `(addr, size)` to read from the child after the call, before it is
    /// reaped.
    pub capture: Option<(u64, u64)>,
}

/// One fork–call–reap exec: fork `server`'s child, run `call` in it and
/// reap it. Returns the outcome and the captured bytes.
///
/// # Errors
/// The [`ExecStatus::Fault`] outcome when the fork is refused; it charges
/// only the failed fork.
pub(crate) fn fork_exec(
    os: &mut Os,
    server: &mut ForkServer,
    machine: &Machine,
    cov: &mut CovMap,
    call: ChildCall,
) -> Result<(ExecOutcome, Option<Vec<u8>>), ExecOutcome> {
    let (child, fork_cycles) = server.fork(os).map_err(|e| ExecOutcome {
        status: ExecStatus::Fault(HarnessError::ForkFailed(e.to_string())),
        exec_cycles: 0,
        mgmt_cycles: os.cost.fork(0),
        insts: 0,
    })?;
    child.cov_state.reset();
    let out = {
        let mut ctx = match call.trace {
            Some(t) => HostCtx::with_trace(os, cov, t),
            None => HostCtx::new(os, cov),
        };
        machine.call(child, &mut ctx, call.entry, &[0, 0], call.fuel)
    };
    let captured = call
        .capture
        .map(|(addr, size)| child.read_bytes(addr, size as usize));
    os.mgmt_cycles += call.pipe_cycles;
    // Reaping also charges the CoW faults this child took while dirtying
    // shared pages.
    let teardown_cycles = server.reap(os);
    let status = match out.result {
        CallResult::Return(v) => ExecStatus::Exit(v as i32),
        CallResult::Exited(c) | CallResult::ExitHooked(c) => ExecStatus::Exit(c),
        CallResult::Crashed(c) => ExecStatus::Crash(c),
        CallResult::OutOfFuel => ExecStatus::Hang,
    };
    let outcome = ExecOutcome {
        status,
        exec_cycles: out.cycles,
        mgmt_cycles: fork_cycles + call.pipe_cycles + teardown_cycles,
        insts: out.insts,
    };
    Ok((outcome, captured))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fresh::FreshProcessExecutor;
    use vmos::Process;

    /// The forkserver before recycling: a full [`Os::try_fork`] and
    /// [`Os::teardown`] per exec. The oracle for [`ForkServerExecutor`].
    struct OsForkTwin {
        os: Os,
        module: Module,
        image: Arc<DecodedImage>,
        parent: Process,
        cov: CovMap,
    }

    impl OsForkTwin {
        fn new(module: &Module) -> Self {
            let mut m = module.clone();
            baseline_pipeline().run(&mut m).unwrap();
            let mut os = Os::new();
            let (parent, _) = os.spawn(&m);
            let image = DecodedImage::cached(&m);
            OsForkTwin {
                os,
                module: m,
                image,
                parent,
                cov: CovMap::new(),
            }
        }

        fn run(&mut self, input: &[u8]) -> ExecOutcome {
            self.cov.clear();
            self.os.fs.write_file(FUZZ_INPUT_PATH, input.to_vec());
            let (mut child, fork_cycles) = match self.os.try_fork(&self.parent) {
                Ok(r) => r,
                Err(e) => {
                    return ExecOutcome {
                        status: ExecStatus::Fault(HarnessError::ForkFailed(e.to_string())),
                        exec_cycles: 0,
                        mgmt_cycles: self.os.cost.fork(0),
                        insts: 0,
                    }
                }
            };
            child.cov_state.reset();
            let machine = Machine::with_image(&self.module, &self.image);
            let out = {
                let mut ctx = HostCtx::new(&mut self.os, &mut self.cov);
                machine.call(&mut child, &mut ctx, "main", &[0, 0], DEFAULT_FUEL)
            };
            let pipe_cycles = self.os.cost.forkserver_pipe;
            self.os.mgmt_cycles += pipe_cycles;
            let teardown_cycles = self.os.teardown(child);
            let status = match out.result {
                CallResult::Return(v) => ExecStatus::Exit(v as i32),
                CallResult::Exited(c) | CallResult::ExitHooked(c) => ExecStatus::Exit(c),
                CallResult::Crashed(c) => ExecStatus::Crash(c),
                CallResult::OutOfFuel => ExecStatus::Hang,
            };
            ExecOutcome {
                status,
                exec_cycles: out.cycles,
                mgmt_cycles: fork_cycles + pipe_cycles + teardown_cycles,
                insts: out.insts,
            }
        }
    }

    /// Run `inputs` through a [`ForkServerExecutor`] and its
    /// [`OsForkTwin`] and require the same outcome and coverage for each.
    /// Returns the outcomes.
    fn assert_matches_twin(m: &Module, plan: FaultPlan, inputs: &[Vec<u8>]) -> Vec<ExecOutcome> {
        let mut ex = ForkServerExecutor::new(m).unwrap();
        let mut twin = OsForkTwin::new(m);
        ex.inject_faults(plan.clone());
        twin.os.fault = FaultPlane::new(plan);
        let mut outcomes = Vec::new();
        for (k, input) in inputs.iter().enumerate() {
            let got = ex.run(input);
            let want = twin.run(input);
            assert_eq!(got, want, "{} input #{k}", m.name);
            assert_eq!(
                ex.coverage().classified_hash(),
                twin.cov.classified_hash(),
                "{} input #{k}: coverage",
                m.name
            );
            outcomes.push(got);
        }
        assert_eq!(ex.os.mgmt_cycles, twin.os.mgmt_cycles, "{}", m.name);
        outcomes
    }

    /// Seeds, witnesses, then `n` seeded mutants of them: byte flips,
    /// truncations and splices.
    fn inputs_with_mutants(t: &targets::TargetSpec, n: usize) -> Vec<Vec<u8>> {
        let mut inputs = (t.seeds)();
        inputs.extend((t.witnesses)().into_iter().map(|(_, w)| w));
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ t.name.len() as u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let base = inputs.len();
        for _ in 0..n {
            let mut v = inputs[next() % base].clone();
            match next() % 3 {
                0 if !v.is_empty() => {
                    let i = next() % v.len();
                    v[i] ^= 1 << (next() % 8);
                }
                1 => v.truncate(next() % (v.len() + 1)),
                _ => {
                    let other = &inputs[next() % base];
                    let at = next() % (v.len() + 1);
                    v.splice(at..at, other.iter().take(next() % 16).copied());
                }
            }
            inputs.push(v);
        }
        inputs
    }

    #[test]
    fn recycled_children_match_a_full_fork_per_exec_on_every_target() {
        let mut crashes = 0;
        for t in targets::all() {
            let inputs = inputs_with_mutants(t, 30);
            let outcomes = assert_matches_twin(&t.module(), FaultPlan::none(), &inputs);
            crashes += outcomes
                .iter()
                .filter(|o| o.status.crash().is_some())
                .count();
        }
        assert!(crashes > 0, "crashing children leave frames and heap dirty");
    }

    #[test]
    fn recycled_children_get_fresh_pids() {
        let m = module("fn main() { return getpid(); }");
        let outcomes = assert_matches_twin(&m, FaultPlan::none(), &vec![b"x".to_vec(); 5]);
        let pids: Vec<ExecStatus> = outcomes.into_iter().map(|o| o.status).collect();
        let want: Vec<ExecStatus> = (2..7).map(ExecStatus::Exit).collect();
        assert_eq!(pids, want, "the parent is pid 1; each fork takes the next");
    }

    #[test]
    fn failed_forks_land_where_the_full_fork_fails() {
        let t = targets::by_name("giftext").unwrap();
        let plan = FaultPlan {
            seed: 11,
            fork_fail: 0.3,
            ..FaultPlan::none()
        };
        let outcomes = assert_matches_twin(&t.module(), plan, &inputs_with_mutants(t, 60));
        let failed = outcomes
            .iter()
            .filter(|o| matches!(o.status, ExecStatus::Fault(HarnessError::ForkFailed(_))))
            .count();
        assert!(
            failed > 5 && failed < outcomes.len() - 5,
            "{failed} of {} forks failed",
            outcomes.len()
        );
    }

    fn module(src: &str) -> Module {
        minic::compile("t", src).unwrap()
    }

    const STATEFUL: &str = r#"
        global count;
        fn main() {
            count = count + 1;
            return count;
        }
    "#;

    #[test]
    fn children_are_isolated_from_each_other() {
        let m = module(STATEFUL);
        let mut ex = ForkServerExecutor::new(&m).unwrap();
        for _ in 0..4 {
            assert_eq!(ex.run(b"x").status, ExecStatus::Exit(1));
        }
    }

    #[test]
    fn parent_is_never_dirtied() {
        let m = module(STATEFUL);
        let mut ex = ForkServerExecutor::new(&m).unwrap();
        let g = ex.server.parent().globals.addr_of_name("count").unwrap();
        ex.run(b"x");
        assert_eq!(ex.server.parent().mem.read_uint(g, 8), 0);
    }

    #[test]
    fn cheaper_than_fresh_process() {
        let m = module(STATEFUL);
        let mut fresh = FreshProcessExecutor::new(&m).unwrap();
        let mut fork = ForkServerExecutor::new(&m).unwrap();
        let f = fresh.run(b"x");
        let k = fork.run(b"x");
        assert!(
            k.mgmt_cycles < f.mgmt_cycles,
            "fork {} must beat spawn {}",
            k.mgmt_cycles,
            f.mgmt_cycles
        );
        assert_eq!(f.exec_cycles, k.exec_cycles, "same target work");
    }

    #[test]
    fn crash_in_child_does_not_poison_parent() {
        let m = module(
            r#"
            fn main() {
                var f = fopen("/fuzz/input", 0);
                if (f == 0) { exit(1); }
                var buf[4];
                fread(buf, 1, 4, f);
                fclose(f);
                if (load8(buf) == 'X') { return load64(0); }
                return 0;
            }
        "#,
        );
        let mut ex = ForkServerExecutor::new(&m).unwrap();
        let crash = ex.run(b"X");
        assert!(crash.status.crash().is_some());
        let ok = ex.run(b"A");
        assert_eq!(ok.status, ExecStatus::Exit(0));
    }
}
