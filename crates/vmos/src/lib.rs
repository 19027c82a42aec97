//! # vmos — the simulated operating system and FIR interpreter
//!
//! The ClosureX paper evaluates process-management mechanisms on a real
//! Linux kernel. This crate is the reproduction's substitute substrate: a
//! deterministic, cycle-accounted virtual machine that executes [`fir`]
//! modules inside simulated [`process::Process`]es managed by a simulated
//! [`os::Os`].
//!
//! It provides everything the paper's execution-mechanism continuum needs:
//!
//! * **copy-on-write paged memory** ([`mem`]) so `fork()` has realistic
//!   page-table-copy + CoW-fault costs,
//! * a **heap allocator with error detection** ([`heap`]) — use-after-free,
//!   double-free, out-of-bounds and leak enumeration (the Valgrind stand-in),
//! * a **file-descriptor table** with an `RLIMIT_NOFILE` analog ([`fd`]),
//! * a **simulated libc** ([`hostcalls`]) including `malloc`-family,
//!   `fopen`-family, `exit`, `setjmp`/`longjmp`, and the ClosureX runtime
//!   hooks installed by the compiler passes,
//! * an **interpreter** ([`interp`]) with instruction-level cycle accounting
//!   and AFL-style edge-coverage collection ([`cov`]),
//! * a **cost model** ([`cost`]) for `fork`/`exec`/teardown/restore charges,
//! * a **fault-injection plane** ([`fault`]) — seeded, deterministic
//!   malloc-NULL / fopen-fail / fork-fail / fd-leak / restore-bit-flip
//!   injection for resilience evaluation (disabled by default),
//! * a **binary wire codec** ([`wire`]) — bounds-checked, checksummed
//!   encode/decode primitives used by the campaign checkpoint files
//!   (the `serde` shim is one-way, JSON-out only).

pub mod cost;
pub mod cov;
pub mod crash;
pub mod decoded;
pub mod engine;
pub mod fault;
pub mod fd;
pub mod fs;
pub mod heap;
pub mod hostcalls;
pub mod interp;
pub mod layout;
pub mod mem;
pub mod os;
pub mod process;
pub mod wire;

#[cfg(test)]
mod proptests;

pub use cost::CostModel;
pub use cov::{CovMap, MAP_SIZE};
pub use crash::{Crash, CrashKind};
pub use decoded::{
    decode_counters, reset_decode_counters, DecodeCounters, DecodedImage, OptStats, WarmSource,
};
pub use engine::{
    decode_opt, reference_engine, set_reference_engine, DecodeOptGuard, ReferenceEngineGuard,
};
pub use fault::{
    DiskFaultKind, DiskFaultPlan, FaultKind, FaultPlan, FaultPlane, FaultSite, NetFaultKind,
    NetFaultPlan, OrchFaultKind, OrchFaultPlan, PlanKind, PositionPlan, ProcFaultKind,
    ProcFaultPlan, TargetedFault,
};
pub use interp::{CallOutcome, CallResult, HostCtx, Machine};
pub use os::{ForkServer, Os, OsError};
pub use process::Process;
pub use wire::{
    read_frame, write_frame, FrameError, Reader, Wire, WireError, Writer, FRAME_HEADER_LEN,
    FRAME_MAGIC, FRAME_PREFIX_LEN, MAX_FRAME_LEN,
};
