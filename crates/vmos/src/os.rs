//! The simulated kernel: owns the filesystem and the cost model, and
//! implements the process-management primitives whose overheads the paper's
//! execution-mechanism continuum compares.

use fir::Module;

use crate::cost::CostModel;
use crate::fault::{FaultKind, FaultPlane};
use crate::fs::SimFs;
use crate::process::Process;

/// Process-management failure surfaced by the fallible spawn/fork entry
/// points (today always fault-injected resource exhaustion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// `fork(2)` refused — simulated EAGAIN (process table full).
    ForkFailed,
    /// `fork`+`exec` refused at the fork step.
    SpawnFailed,
}

impl std::fmt::Display for OsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsError::ForkFailed => write!(f, "fork failed: resource temporarily unavailable"),
            OsError::SpawnFailed => write!(f, "spawn failed: resource temporarily unavailable"),
        }
    }
}

impl std::error::Error for OsError {}

/// Default heap limit per process (a scaled-down 3.5 GB Azure instance).
pub const DEFAULT_HEAP_LIMIT: u64 = 64 << 20;
/// Default `RLIMIT_NOFILE` analog.
pub const DEFAULT_FD_LIMIT: usize = 64;

/// The simulated OS.
#[derive(Debug, Clone)]
pub struct Os {
    /// Shared filesystem.
    pub fs: SimFs,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Per-process heap limit in bytes.
    pub heap_limit: u64,
    /// Per-process descriptor limit.
    pub fd_limit: usize,
    next_pid: u32,
    /// Total cycles spent on process management (fork/exec/teardown).
    pub mgmt_cycles: u64,
    /// Fault-injection plane (defaults to disabled: no behavior change).
    pub fault: FaultPlane,
}

impl Default for Os {
    fn default() -> Self {
        Self::new()
    }
}

impl Os {
    /// A fresh OS with default limits and cost model.
    pub fn new() -> Self {
        Os {
            fs: SimFs::new(),
            cost: CostModel::default(),
            heap_limit: DEFAULT_HEAP_LIMIT,
            fd_limit: DEFAULT_FD_LIMIT,
            next_pid: 1,
            mgmt_cycles: 0,
            fault: FaultPlane::disabled(),
        }
    }

    /// Advance the pid counter without creating processes. Used by the
    /// correctness checker to vary the ASLR/PRNG seeds of otherwise
    /// identical fresh runs (paper §6.1.4's repeated ground-truth runs).
    pub fn skip_pids(&mut self, n: u32) {
        self.next_pid = self.next_pid.wrapping_add(n);
    }

    /// `fork(2)` + `exec(2)`: create a process and load `module` into it.
    /// Returns the process and the cycles charged (exec cost scales with
    /// image size).
    pub fn spawn(&mut self, module: &Module) -> (Process, u64) {
        let pid = self.next_pid;
        self.next_pid += 1;
        let p = Process::load(module, self.heap_limit, self.fd_limit, pid);
        let cycles = self.cost.exec(fir::image::image_size(module)) + self.cost.fork(0);
        self.mgmt_cycles += cycles;
        (p, cycles)
    }

    /// `fork(2)`: duplicate a process copy-on-write. Returns the child and
    /// the cycles charged (scales with the parent's resident pages).
    pub fn fork(&mut self, parent: &Process) -> (Process, u64) {
        // Build the child around `mem.fork()` directly rather than cloning
        // the parent wholesale and overwriting `mem`.
        let mut child = Process {
            mem: parent.mem.fork(),
            heap: parent.heap.clone(),
            fds: parent.fds.clone(),
            globals: parent.globals.clone(),
            frames: parent.frames.clone(),
            regs: parent.regs.clone(),
            sp: parent.sp,
            cov_state: parent.cov_state,
            rt: parent.rt.clone(),
            jmpbufs: parent.jmpbufs.clone(),
            rng_state: parent.rng_state,
            stdout: parent.stdout.clone(),
            pid: parent.pid,
        };
        let cycles = self.charge_fork(&mut child, parent);
        (child, cycles)
    }

    /// The kernel half of a fork, shared by [`Os::fork`] and
    /// [`ForkServer::fork`]: give `child` the next pid and charge the
    /// page-table copy.
    fn charge_fork(&mut self, child: &mut Process, parent: &Process) -> u64 {
        child.pid = self.next_pid;
        self.next_pid += 1;
        let cycles = self.cost.fork(parent.mem.resident_pages());
        self.mgmt_cycles += cycles;
        cycles
    }

    /// Roll the fault plane's fork failure; a refused fork still charges
    /// the base fork cost (the kernel did the work of discovering it).
    fn fork_refused(&mut self) -> bool {
        if !self.fault.roll(FaultKind::ForkFail) {
            return false;
        }
        self.mgmt_cycles += self.cost.fork(0);
        true
    }

    /// [`Os::spawn`], but consults the fault plane first: under an active
    /// plan the fork step can refuse with [`OsError::SpawnFailed`]. A failed
    /// attempt still charges the fork cost (the kernel did the work of
    /// discovering the failure).
    ///
    /// # Errors
    /// [`OsError::SpawnFailed`] when the fault plane injects a fork failure.
    pub fn try_spawn(&mut self, module: &Module) -> Result<(Process, u64), OsError> {
        if self.fork_refused() {
            return Err(OsError::SpawnFailed);
        }
        Ok(self.spawn(module))
    }

    /// [`Os::fork`], but consults the fault plane first.
    ///
    /// # Errors
    /// [`OsError::ForkFailed`] when the fault plane injects a fork failure.
    pub fn try_fork(&mut self, parent: &Process) -> Result<(Process, u64), OsError> {
        if self.fork_refused() {
            return Err(OsError::ForkFailed);
        }
        Ok(self.fork(parent))
    }

    /// Tear a process down (`exit` + kernel reaping). Returns cycles charged,
    /// including the copy-on-write faults the child accumulated.
    pub fn teardown(&mut self, p: Process) -> u64 {
        self.charge_teardown(&p)
    }

    fn charge_teardown(&mut self, p: &Process) -> u64 {
        let cycles =
            self.cost.teardown(p.mem.resident_pages()) + p.mem.cow_faults() * self.cost.cow_fault;
        self.mgmt_cycles += cycles;
        cycles
    }
}

/// A forkserver: a parent process that stays paused, and one child that is
/// recycled from test case to test case.
///
/// [`ForkServer::fork`] and [`ForkServer::reap`] charge exactly what
/// [`Os::try_fork`] and [`Os::teardown`] charge, and hand out the same
/// pids. Only the host work differs: the first fork is a real
/// [`Os::fork`], and every later one turns the reaped child back into a
/// fresh fork of the parent in time proportional to the pages it dirtied
/// (`PageTable::refork`) instead of copying and dropping a page table of
/// every resident page.
///
/// The parent is reachable only through [`ForkServer::parent`]: the spare
/// child shares its pages, so writing to the parent would take CoW faults
/// a real paused forkserver never does. Re-templating means building a new
/// `ForkServer`. Pair each [`ForkServer::fork`] with a
/// [`ForkServer::reap`], as an exec pairs `fork` with `wait`.
#[derive(Debug)]
pub struct ForkServer {
    parent: Process,
    /// The live child between `fork` and `reap`, the spare one after.
    child: Option<Process>,
}

impl ForkServer {
    /// A forkserver pausing `parent`.
    pub fn new(parent: Process) -> Self {
        ForkServer {
            parent,
            child: None,
        }
    }

    /// The paused parent.
    pub fn parent(&self) -> &Process {
        &self.parent
    }

    /// `fork(2)` the parent: [`Os::try_fork`]'s fault roll, pid and
    /// charge, with the child recycled. Returns the child and the cycles
    /// charged.
    ///
    /// # Errors
    /// [`OsError::ForkFailed`] when the fault plane injects a fork failure.
    pub fn fork(&mut self, os: &mut Os) -> Result<(&mut Process, u64), OsError> {
        if os.fork_refused() {
            return Err(OsError::ForkFailed);
        }
        let parent = &self.parent;
        let cycles = match self.child.as_mut() {
            Some(child) => {
                refork(child, parent);
                os.charge_fork(child, parent)
            }
            None => {
                let (child, cycles) = os.fork(parent);
                self.child = Some(child);
                cycles
            }
        };
        Ok((self.child.as_mut().expect("forked above"), cycles))
    }

    /// Tear the child down the way [`Os::teardown`] does, CoW faults
    /// included, but keep it as the spare for the next
    /// [`ForkServer::fork`]. Returns the cycles charged; 0 if no child was
    /// ever forked.
    pub fn reap(&mut self, os: &mut Os) -> u64 {
        match &self.child {
            Some(child) => os.charge_teardown(child),
            None => 0,
        }
    }
}

/// Overwrite `child` with a fresh fork of `parent` (pid aside). Destructures
/// the parent so a new `Process` field cannot be forgotten here.
fn refork(child: &mut Process, parent: &Process) {
    let Process {
        mem,
        heap,
        fds,
        globals,
        frames,
        regs,
        sp,
        cov_state,
        rt,
        jmpbufs,
        rng_state,
        stdout,
        pid: _,
    } = parent;
    child.mem.refork(mem);
    child.heap.clone_from(heap);
    child.fds.clone_from(fds);
    child.globals.clone_from(globals);
    child.frames.clone_from(frames);
    child.regs.clone_from(regs);
    child.sp = *sp;
    child.cov_state = *cov_state;
    child.rt.clone_from(rt);
    child.jmpbufs.clone_from(jmpbufs);
    child.rng_state = *rng_state;
    child.stdout.clone_from(stdout);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::ModuleBuilder;
    use fir::Global;

    fn module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.global(Global::zeroed("g", 4096));
        let mut f = mb.function("main");
        f.ret(Some(fir::Operand::Imm(0)));
        f.finish();
        mb.finish()
    }

    #[test]
    fn spawn_assigns_unique_pids_and_charges_exec() {
        let mut os = Os::new();
        let m = module();
        let (p1, c1) = os.spawn(&m);
        let (p2, _) = os.spawn(&m);
        assert_ne!(p1.pid, p2.pid);
        assert!(c1 >= os.cost.exec_base);
        assert!(os.mgmt_cycles >= c1);
    }

    #[test]
    fn fork_is_cheaper_than_spawn_and_isolates_memory() {
        let mut os = Os::new();
        let m = module();
        let (mut parent, spawn_cost) = os.spawn(&m);
        let g = parent.globals.addr_of_name("g").unwrap();
        parent.mem.write_uint(g, 5, 8);
        let (mut child, fork_cost) = os.fork(&parent);
        assert!(fork_cost < spawn_cost);
        child.mem.write_uint(g, 77, 8);
        assert_eq!(parent.mem.read_uint(g, 8), 5, "parent unaffected");
        assert_eq!(child.mem.read_uint(g, 8), 77);
    }

    #[test]
    fn try_fork_and_spawn_fail_under_certain_fault_plan() {
        use crate::fault::{FaultPlan, FaultPlane};
        let mut os = Os::new();
        let m = module();
        let (parent, _) = os.spawn(&m);
        os.fault = FaultPlane::new(FaultPlan {
            fork_fail: 1.0,
            ..FaultPlan::none()
        });
        let before = os.mgmt_cycles;
        assert_eq!(os.try_fork(&parent).unwrap_err(), OsError::ForkFailed);
        assert_eq!(os.try_spawn(&m).unwrap_err(), OsError::SpawnFailed);
        assert!(os.mgmt_cycles > before, "failed attempts still cost cycles");
        os.fault = FaultPlane::disabled();
        assert!(os.try_fork(&parent).is_ok());
        assert!(os.try_spawn(&m).is_ok());
    }

    #[test]
    fn fork_server_refuses_and_recycles_like_try_fork() {
        use crate::fault::{FaultPlan, FaultPlane};
        let mut os = Os::new();
        let m = module();
        let (parent, _) = os.spawn(&m);
        let g = parent.globals.addr_of_name("g").unwrap();
        let mut server = ForkServer::new(parent);
        assert_eq!(server.reap(&mut os), 0, "nothing forked yet");
        os.fault = FaultPlane::new(FaultPlan {
            fork_fail: 1.0,
            ..FaultPlan::none()
        });
        let before = os.mgmt_cycles;
        assert_eq!(server.fork(&mut os).unwrap_err(), OsError::ForkFailed);
        assert_eq!(os.mgmt_cycles - before, os.cost.fork(0));
        os.fault = FaultPlane::disabled();
        let mut pids = Vec::new();
        for _ in 0..3 {
            let (child, _) = server.fork(&mut os).unwrap();
            assert_eq!(
                child.mem.read_uint(g, 8),
                0,
                "the last exec's write is gone"
            );
            child.mem.write_uint(g, 9, 8);
            pids.push(child.pid);
            server.reap(&mut os);
        }
        assert_eq!(pids, [2, 3, 4], "one pid per fork, as Os::fork hands out");
        assert_eq!(server.parent().mem.read_uint(g, 8), 0);
    }

    #[test]
    fn teardown_charges_cow_faults() {
        let mut os = Os::new();
        let m = module();
        let (mut parent, _) = os.spawn(&m);
        let g = parent.globals.addr_of_name("g").unwrap();
        parent.mem.write_uint(g, 5, 8);
        let (mut child, _) = os.fork(&parent);
        let plain = os.cost.teardown(child.mem.resident_pages());
        child.mem.write_uint(g, 1, 8); // one CoW fault
        let charged = os.teardown(child);
        assert_eq!(charged, plain + os.cost.cow_fault);
    }
}
