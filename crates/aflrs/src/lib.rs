//! # aflrs — the coverage-guided fuzzer
//!
//! An AFL++-style fuzzer over the `closurex` execution mechanisms:
//!
//! * a seed [`queue`] grown by coverage feedback (`has_new_bits` over a
//!   bucketed virgin map, exactly AFL's algorithm),
//! * a [`mutate`] stage with deterministic bitflip/arith/interesting passes
//!   and stacked havoc + splice,
//! * a [`campaign`] driver that runs against any
//!   [`closurex::executor::Executor`] under a simulated-cycle budget —
//!   the evaluation's "24 hour trial" analog,
//! * [`stats`] with crash deduplication and time-to-bug records, and the
//!   [`mwu`] Mann-Whitney U test the paper reports ρ-values with.
//!
//! Both the ClosureX and AFL++-baseline campaigns share this exact code, so
//! measured differences come from the execution mechanism alone — the
//! paper's controlled-comparison setup (§5.3).

pub mod builder;
pub mod campaign;
pub mod checkpoint;
pub mod mutate;
pub mod mwu;
pub mod proc;
pub mod queue;
pub mod rpc;
pub mod service;
pub mod shard;
pub mod stats;
pub mod storage;
pub mod supervise;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod wire_golden;

pub use builder::{Campaign, CampaignError, Isolation};
pub use campaign::CampaignConfig;
pub use checkpoint::{
    CampaignOutcome, CheckpointConfig, CheckpointError, FsyncPolicy, ResumeReport,
};
pub use proc::{worker_main_hook, WORKER_ENV};
pub use rpc::{
    Degraded, MemNet, RemoteAdmissionError, RemoteError, RemoteHandle, RemoteOptions,
    RemoteService, RpcCounters, RpcError, RpcServer, ServedBy, ServerOptions,
};
pub use service::{
    AdmissionError, CampaignHandle, CampaignSpec, CampaignState, HealthReport, Service,
    ServiceConfig, ServiceError, ServiceStats, SpecResolver,
};
pub use shard::{DEFAULT_LANES, DEFAULT_SYNC_EPOCHS};
pub use stats::{CampaignResult, CrashRecord, ResilienceCounters};
pub use storage::{StorageCounters, StorageDegradation};
pub use supervise::{LaneDegradation, LaneFault, SupervisionCounters, SupervisorConfig};

/// Simulated cycles per simulated second (used to convert campaign clocks
/// into the paper's seconds / 24-hour framing).
pub const CYCLES_PER_SECOND: u64 = 20_000_000;

/// Cycles in a simulated 24-hour trial.
pub const CYCLES_PER_DAY: u64 = CYCLES_PER_SECOND * 86_400;
