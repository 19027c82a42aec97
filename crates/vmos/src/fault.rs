//! Deterministic fault-injection planes.
//!
//! Real persistent-fuzzing deployments meet a hostile substrate: `malloc`
//! returns NULL under memory pressure, `fork` fails when the process table
//! fills, descriptors leak, and bit-flips corrupt restored state. The
//! simulated OS reproduces that hostility on demand so the resilience of
//! each execution mechanism can be measured rather than assumed.
//!
//! Two kinds of plan live here:
//!
//! * A [`FaultPlan`] gives per-kind injection probabilities for the
//!   simulated OS plus a seed; the [`FaultPlane`] turns the plan into a
//!   deterministic roll sequence (SplitMix64 over `seed ⊕ roll-counter`),
//!   so a campaign replayed with the same seed injects the same faults at
//!   the same points. One executor owns one plane and rolls it from one
//!   thread, so a counter is deterministic there — and the counter's
//!   position is checkpointed, so changing it would change every recorded
//!   resilience result.
//! * A [`PositionPlan`] decides the faults of the layers above — lanes,
//!   worker processes, storage streams, RPC connections — by *position*
//!   instead, because those run concurrently. One generic plan serves
//!   every such plane; a [`PlanKind`] supplies each plane's vocabulary and
//!   a [`FaultSite`] its position tuple.
//!
//! All probabilities default to zero: an unconfigured system behaves
//! exactly as before the planes existed.

use std::fmt;

use crate::wire::{Reader, Wire, WireError, Writer};

/// The kinds of faults the plane can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `malloc`/`calloc`/`realloc` returns NULL (simulated ENOMEM).
    MallocNull,
    /// `fopen` returns NULL even though the path exists (simulated EIO).
    FopenFail,
    /// `fork`/`spawn` refuses (simulated EAGAIN: process table full).
    ForkFail,
    /// A bit in the restored global section flips after state restoration
    /// (simulated memory corruption — the fault restore-integrity
    /// verification exists to catch).
    RestoreBitFlip,
    /// `fclose` silently fails to release its descriptor-table slot, so
    /// descriptors leak toward the `RLIMIT_NOFILE` analog.
    FdLeak,
}

impl FaultKind {
    /// Every kind, in counter order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::MallocNull,
        FaultKind::FopenFail,
        FaultKind::ForkFail,
        FaultKind::RestoreBitFlip,
        FaultKind::FdLeak,
    ];

    /// Stable short name for logs and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::MallocNull => "malloc_null",
            FaultKind::FopenFail => "fopen_fail",
            FaultKind::ForkFail => "fork_fail",
            FaultKind::RestoreBitFlip => "restore_bitflip",
            FaultKind::FdLeak => "fd_leak",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::MallocNull => 0,
            FaultKind::FopenFail => 1,
            FaultKind::ForkFail => 2,
            FaultKind::RestoreBitFlip => 3,
            FaultKind::FdLeak => 4,
        }
    }
}

/// Per-kind injection probabilities plus the seed that makes the roll
/// sequence reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic roll stream.
    pub seed: u64,
    /// P(`malloc` family returns NULL) per allocation.
    pub malloc_null: f64,
    /// P(`fopen` fails) per open of an existing path.
    pub fopen_fail: f64,
    /// P(`fork`/`spawn` refused) per attempt.
    pub fork_fail: f64,
    /// P(one bit flips in the restored global section) per restore.
    pub restore_bitflip: f64,
    /// P(`fclose` leaks its slot) per close.
    pub fd_leak: f64,
}

impl FaultPlan {
    /// No faults at all (the default substrate).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            malloc_null: 0.0,
            fopen_fail: 0.0,
            fork_fail: 0.0,
            restore_bitflip: 0.0,
            fd_leak: 0.0,
        }
    }

    /// Every kind at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            malloc_null: rate,
            fopen_fail: rate,
            fork_fail: rate,
            restore_bitflip: rate,
            fd_leak: rate,
        }
    }

    /// Probability configured for `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::MallocNull => self.malloc_null,
            FaultKind::FopenFail => self.fopen_fail,
            FaultKind::ForkFail => self.fork_fail,
            FaultKind::RestoreBitFlip => self.restore_bitflip,
            FaultKind::FdLeak => self.fd_leak,
        }
    }

    /// Is every probability zero?
    pub fn is_none(&self) -> bool {
        FaultKind::ALL.iter().all(|&k| self.rate(k) <= 0.0)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 of `bits` as a uniform float in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Runtime half of the plane: the plan, a roll counter, and per-kind
/// injection tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlane {
    plan: FaultPlan,
    rolls: u64,
    injected: [u64; 5],
}

impl Default for FaultPlane {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultPlane {
    /// Plane executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultPlane {
            plan,
            rolls: 0,
            injected: [0; 5],
        }
    }

    /// Plane that never injects (zero overhead on the hot path beyond one
    /// float compare).
    pub fn disabled() -> Self {
        Self::new(FaultPlan::none())
    }

    /// The plan this plane executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draw 64 deterministic bits, advancing the roll counter.
    fn next_bits(&mut self) -> u64 {
        self.rolls = self.rolls.wrapping_add(1);
        splitmix64(self.plan.seed ^ self.rolls.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Should a fault of `kind` fire at this point? Deterministic in
    /// (seed, call sequence); tallies every injection.
    pub fn roll(&mut self, kind: FaultKind) -> bool {
        let p = self.plan.rate(kind);
        if p <= 0.0 {
            return false;
        }
        let fire = unit(self.next_bits()) < p;
        if fire {
            self.injected[kind.index()] += 1;
        }
        fire
    }

    /// If a restore bit-flip fires, pick the byte offset (mod caller's
    /// section length) and bit to corrupt. Returns `None` when no flip is
    /// due or the section is empty.
    pub fn bitflip_for(&mut self, section_len: u64) -> Option<(u64, u8)> {
        if section_len == 0 || !self.roll(FaultKind::RestoreBitFlip) {
            return None;
        }
        let bits = self.next_bits();
        Some((bits % section_len, 1u8 << ((bits >> 56) & 7)))
    }

    /// How many faults of `kind` have been injected so far.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Total injections across all kinds.
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Reset tallies and the roll counter (e.g. between campaign trials).
    pub fn reset(&mut self) {
        self.rolls = 0;
        self.injected = [0; 5];
    }

    /// Export the stream position + tallies (campaign checkpointing). The
    /// plan itself is configuration and travels separately — a resumed
    /// campaign re-arms the same plan, then restores this position so the
    /// roll stream continues exactly where the killed run left it.
    pub fn export_counters(&self) -> (u64, [u64; 5]) {
        (self.rolls, self.injected)
    }

    /// Restore a position exported by [`FaultPlane::export_counters`].
    pub fn restore_counters(&mut self, rolls: u64, injected: [u64; 5]) {
        self.rolls = rolls;
        self.injected = injected;
    }
}

// ---------------------------------------------------------------------------
// Position-keyed plans.
// ---------------------------------------------------------------------------

/// Where a targeted fault is aimed: a fault position minus its attempt
/// number. The site type fixes how a position maps onto the three hashed
/// coordinates; it travels as its tuple's [`Wire`] form.
pub trait FaultSite: Wire + Copy + Eq + fmt::Debug {
    /// The three coordinates that attempt `attempt` at this site hashes to.
    fn coords(self, attempt: u32) -> [u64; 3];
}

/// `(lane or stream, epoch or op)`. The attempt is the consumer's retry
/// count and a hashed coordinate: every retry rolls afresh.
impl FaultSite for (u64, u64) {
    fn coords(self, attempt: u32) -> [u64; 3] {
        [self.0, self.1, u64::from(attempt)]
    }
}

/// `(conn, direction, frame)`. The attempt is how often this position has
/// already fired and is not hashed: a re-sent frame rolls exactly as it
/// did the first time, and only a targeted fault's `fires` runs out.
impl FaultSite for (u64, u8, u64) {
    fn coords(self, _fired: u32) -> [u64; 3] {
        let (conn, direction, frame) = self;
        [conn, frame, u64::from(direction)]
    }
}

/// One plane's fault vocabulary. A kind's index in [`PlanKind::ALL`] is
/// its wire tag and offsets its decision salt.
pub trait PlanKind: Copy + Eq + fmt::Debug + 'static {
    /// The position tuple this plane's faults are aimed at.
    type Site: FaultSite;
    /// Every kind, in roll order.
    const ALL: &'static [Self];
    /// Decision-roll salt of the first kind in [`PlanKind::ALL`].
    const SALT_BASE: u64;
    /// Salt of the auxiliary draw ([`PositionPlan::aux_bits`]).
    const AUX_SALT: u64;

    /// Stable short name for logs and JSON reports.
    fn name(self) -> &'static str;

    /// Stable wire tag for plan transfer.
    fn wire_tag(self) -> u8 {
        index(self) as u8
    }

    /// Inverse of [`PlanKind::wire_tag`].
    ///
    /// # Errors
    /// [`WireError::Malformed`] on an unknown tag.
    fn from_wire_tag(tag: u8) -> Result<Self, WireError> {
        Self::ALL
            .get(usize::from(tag))
            .copied()
            .ok_or(WireError::Malformed("fault kind tag"))
    }
}

fn index<K: PlanKind>(kind: K) -> usize {
    K::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is listed in ALL")
}

/// Most kinds any plane has (sizes the rate table).
const MAX_KINDS: usize = 6;

/// One targeted fault: fire `kind` at `site` on the first `fires` attempts
/// (starting at 0). `fires` past a consumer's retry budget models a fault
/// that never clears — each recovery ladder's last rung is exercised by
/// exactly this knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetedFault<K: PlanKind> {
    /// Where the fault is aimed.
    pub site: K::Site,
    /// What goes wrong.
    pub kind: K,
    /// Attempts that fail before the site runs clean.
    pub fires: u32,
}

/// A deterministic plan of position-keyed faults: targeted hits plus
/// per-kind probabilities rolled position-wise.
///
/// Unlike [`FaultPlane`], decisions are keyed by *position* — a site plus
/// an attempt number — rather than by a shared roll counter: lanes,
/// storage streams and connection directions run on concurrent threads,
/// so a mutable sequence counter would make injection depend on thread
/// scheduling. A pure function of the position keeps the same plan
/// hitting the same places no matter how the work interleaves, and lets a
/// supervisor and its worker process evaluate one plan and agree on what
/// fires where.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionPlan<K: PlanKind> {
    /// Seed for the probabilistic rolls.
    pub seed: u64,
    /// Per-kind probability per attempt, indexed by wire tag.
    rates: [f64; MAX_KINDS],
    /// Targeted faults, checked before the probabilistic rolls (first
    /// match wins).
    pub targeted: Vec<TargetedFault<K>>,
}

/// Orchestration faults on `(lane, epoch)` sites; the attempt is the
/// supervisor's retry count.
pub type OrchFaultPlan = PositionPlan<OrchFaultKind>;
/// Process faults on `(lane, epoch)` sites; the supervisor and the
/// targeted worker both evaluate the plan.
pub type ProcFaultPlan = PositionPlan<ProcFaultKind>;
/// Storage faults on `(stream, op)` sites: a campaign's storage plane
/// numbers its operations on stream 0, its coordinator (lanes do no
/// I/O). The attempt is the retry count.
pub type DiskFaultPlan = PositionPlan<DiskFaultKind>;
/// Network faults on `(conn, direction, frame)` sites: each direction of
/// each connection numbers its own frames. The attempt is how often the
/// position has fired.
pub type NetFaultPlan = PositionPlan<NetFaultKind>;

impl<K: PlanKind> Default for PositionPlan<K> {
    fn default() -> Self {
        Self::none()
    }
}

impl<K: PlanKind> PositionPlan<K> {
    /// No faults (the default).
    pub fn none() -> Self {
        PositionPlan {
            seed: 0,
            rates: [0.0; MAX_KINDS],
            targeted: Vec::new(),
        }
    }

    /// A single targeted fault firing once at `site`.
    pub fn at(site: K::Site, kind: K) -> Self {
        PositionPlan {
            targeted: vec![TargetedFault {
                site,
                kind,
                fires: 1,
            }],
            ..Self::none()
        }
    }

    /// Every kind `keep` accepts at the same probabilistic `rate` (e.g.
    /// only the retryable disk kinds: a uniform rain of machine deaths is
    /// rarely what an evaluation wants; target those explicitly).
    pub fn uniform(seed: u64, rate: f64, keep: impl Fn(K) -> bool) -> Self {
        let mut plan = PositionPlan {
            seed,
            ..Self::none()
        };
        for &k in K::ALL {
            if keep(k) {
                plan.rates[index(k)] = rate;
            }
        }
        plan
    }

    /// This plan with `kind` rolled at probability `rate`.
    pub fn with_rate(mut self, kind: K, rate: f64) -> Self {
        self.rates[index(kind)] = rate;
        self
    }

    /// Probability configured for `kind`.
    pub fn rate(&self, kind: K) -> f64 {
        self.rates[index(kind)]
    }

    /// Does this plan never inject anything?
    pub fn is_none(&self) -> bool {
        self.targeted.is_empty() && self.rates.iter().all(|&p| p <= 0.0)
    }

    fn position_bits(&self, site: K::Site, attempt: u32, salt: u64) -> u64 {
        let [a, b, c] = site.coords(attempt);
        splitmix64(
            self.seed
                ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ b.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ c.wrapping_mul(0xE703_7ED1_A0B4_28DB)
                ^ salt.wrapping_mul(0x8EBC_6AF0_9C88_C6E3),
        )
    }

    /// Should a fault hit attempt `attempt` at `site`? Targeted faults win
    /// while `attempt < fires`; then kinds roll in [`PlanKind::ALL`] order.
    /// Pure in the plan and the position — re-deciding the same position
    /// always answers the same, no matter which thread asks or when.
    pub fn decide(&self, site: K::Site, attempt: u32) -> Option<K> {
        if let Some(t) = self
            .targeted
            .iter()
            .find(|t| t.site == site && attempt < t.fires)
        {
            return Some(t.kind);
        }
        K::ALL.iter().enumerate().find_map(|(i, &k)| {
            let p = self.rates[i];
            let salt = K::SALT_BASE + i as u64;
            (p > 0.0 && unit(self.position_bits(site, attempt, salt)) < p).then_some(k)
        })
    }

    /// Deterministic auxiliary bits for a decided fault — where in an
    /// epoch a worker dies, how many bytes of a short write or partial
    /// frame land, which bit rots or corrupts. Salted differently from the
    /// decision rolls so the two draws are independent.
    pub fn aux_bits(&self, site: K::Site, attempt: u32) -> u64 {
        self.position_bits(site, attempt, K::AUX_SALT)
    }
}

/// Hand-written: the kind travels as its [`PlanKind::wire_tag`].
impl<K: PlanKind> Wire for TargetedFault<K> {
    const MIN_LEN: usize = K::Site::MIN_LEN + 5;

    fn encode(&self, w: &mut Writer) {
        self.site.encode(w);
        w.put_u8(self.kind.wire_tag());
        w.put_u32(self.fires);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TargetedFault {
            site: K::Site::decode(r)?,
            kind: K::from_wire_tag(r.get_u8()?)?,
            fires: r.get_u32()?,
        })
    }
}

/// Hand-written: only the plane's own kinds' rates travel, not the whole
/// rate table (stable wire format; a worker process must inject exactly
/// the faults its in-process twin would).
impl<K: PlanKind> Wire for PositionPlan<K> {
    const MIN_LEN: usize = 16 + 8 * K::ALL.len();

    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.seed);
        for &p in &self.rates[..K::ALL.len()] {
            w.put_u64(p.to_bits());
        }
        self.targeted.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut plan = PositionPlan {
            seed: r.get_u64()?,
            ..Self::none()
        };
        for p in &mut plan.rates[..K::ALL.len()] {
            *p = f64::from_bits(r.get_u64()?);
        }
        plan.targeted = Vec::decode(r)?;
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// The position-keyed planes' vocabularies.
// ---------------------------------------------------------------------------

/// Faults injected one level above the simulated OS: at the campaign
/// orchestrator, where whole lane workers fail rather than individual
/// hostcalls. These exercise the supervision layer the same way
/// [`FaultPlan`] exercises executor-level resilience.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrchFaultKind {
    /// The lane worker panics mid-epoch (a wedged executor, a host bug).
    WorkerPanic,
    /// The lane stops making simulated-clock progress mid-epoch and must
    /// be caught by the supervisor's heartbeat deadline.
    LaneHang,
    /// The lane finishes its epoch but its barrier handoff is lost, as if
    /// the synchronization timed out; the epoch must be redone.
    BarrierTimeout,
}

impl PlanKind for OrchFaultKind {
    type Site = (u64, u64);
    const ALL: &'static [Self] = &[
        OrchFaultKind::WorkerPanic,
        OrchFaultKind::LaneHang,
        OrchFaultKind::BarrierTimeout,
    ];
    const SALT_BASE: u64 = 1;
    const AUX_SALT: u64 = 0x5C5C;

    fn name(self) -> &'static str {
        match self {
            OrchFaultKind::WorkerPanic => "worker_panic",
            OrchFaultKind::LaneHang => "lane_hang",
            OrchFaultKind::BarrierTimeout => "barrier_timeout",
        }
    }
}

/// Faults that kill or corrupt a whole worker *process* rather than a lane
/// thread — the hazards lane-per-process isolation exists to contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcFaultKind {
    /// The supervisor SIGKILLs the worker mid-epoch (models an external
    /// OOM-killer or operator kill: the child gets no chance to clean up).
    Kill,
    /// The worker aborts mid-epoch (`abort()` — a heap-corruption check,
    /// a failed assertion).
    Abort,
    /// The worker exits with the conventional OOM status (137) mid-epoch.
    Oom,
    /// The worker stops responding mid-epoch and must be caught by the
    /// supervisor's wall-clock read deadline.
    Stall,
    /// The worker completes its epoch but its barrier frame arrives
    /// corrupted (torn or bit-flipped on the pipe).
    GarbageFrame,
}

impl PlanKind for ProcFaultKind {
    type Site = (u64, u64);
    const ALL: &'static [Self] = &[
        ProcFaultKind::Kill,
        ProcFaultKind::Abort,
        ProcFaultKind::Oom,
        ProcFaultKind::Stall,
        ProcFaultKind::GarbageFrame,
    ];
    const SALT_BASE: u64 = 11;
    const AUX_SALT: u64 = 0x7A7A;

    fn name(self) -> &'static str {
        match self {
            ProcFaultKind::Kill => "kill",
            ProcFaultKind::Abort => "abort",
            ProcFaultKind::Oom => "oom",
            ProcFaultKind::Stall => "stall",
            ProcFaultKind::GarbageFrame => "garbage_frame",
        }
    }
}

/// Faults injected at checkpoint-storage I/O boundaries: the hazards a
/// long campaign's filesystem actually develops. Transient kinds
/// ([`NoSpace`](DiskFaultKind::NoSpace), [`Io`](DiskFaultKind::Io),
/// [`ShortWrite`](DiskFaultKind::ShortWrite)) fail the operation and are
/// retried; crash kinds ([`CrashAtBoundary`](DiskFaultKind::CrashAtBoundary),
/// [`RenameLost`](DiskFaultKind::RenameLost)) stop the campaign at that
/// exact boundary, leaving the partial on-disk state a power loss would;
/// [`Bitrot`](DiskFaultKind::Bitrot) corrupts a committed file silently,
/// to be caught (or missed) by the resume-time scrub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskFaultKind {
    /// The write fails with `ENOSPC` before any byte lands.
    NoSpace,
    /// The operation fails with `EIO` before any byte lands.
    Io,
    /// A prefix of the bytes lands, then the write fails (`EIO`).
    ShortWrite,
    /// The machine "dies" at this I/O boundary: a prefix of the bytes may
    /// have landed, and nothing after this operation runs.
    CrashAtBoundary,
    /// Power loss between `rename` and the directory fsync: the rename is
    /// lost (the file stays at its temp name) and the machine dies. On
    /// operations that are not renames this degenerates to
    /// [`DiskFaultKind::CrashAtBoundary`].
    RenameLost,
    /// The operation *succeeds*, then one committed bit flips on the
    /// platter. No error is returned — only a checksum scrub can see it.
    Bitrot,
}

impl DiskFaultKind {
    /// Does this kind fail the operation with a retryable error (as
    /// opposed to crashing the machine or corrupting silently)?
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            DiskFaultKind::NoSpace | DiskFaultKind::Io | DiskFaultKind::ShortWrite
        )
    }
}

impl PlanKind for DiskFaultKind {
    type Site = (u64, u64);
    const ALL: &'static [Self] = &[
        DiskFaultKind::NoSpace,
        DiskFaultKind::Io,
        DiskFaultKind::ShortWrite,
        DiskFaultKind::CrashAtBoundary,
        DiskFaultKind::RenameLost,
        DiskFaultKind::Bitrot,
    ];
    const SALT_BASE: u64 = 21;
    const AUX_SALT: u64 = 0x6D6D;

    fn name(self) -> &'static str {
        match self {
            DiskFaultKind::NoSpace => "no_space",
            DiskFaultKind::Io => "io_error",
            DiskFaultKind::ShortWrite => "short_write",
            DiskFaultKind::CrashAtBoundary => "crash_at_boundary",
            DiskFaultKind::RenameLost => "rename_lost",
            DiskFaultKind::Bitrot => "bitrot",
        }
    }
}

/// Faults injected at the RPC frame boundary: the hazards a client ⇄
/// service connection actually develops. All of them must be absorbed by
/// the retry/reconnect/resume ladder — a faulted transport may cost
/// retries and reconnects, never a diverged campaign result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFaultKind {
    /// The frame silently never reaches the peer (packet loss past the
    /// retransmit budget, a dead middlebox). The connection stays up.
    Drop,
    /// The frame arrives late: simulated latency is accounted against the
    /// transport counters (never the campaign clock), then it is
    /// delivered intact.
    Delay,
    /// The frame arrives twice back to back — the classic retransmit
    /// duplicate idempotency keys exist to absorb.
    Duplicate,
    /// One bit of the frame flips in flight. The checksum rejects it; the
    /// receiver must resynchronize by dropping the connection, never by
    /// trusting the bytes.
    Corrupt,
    /// The connection dies cleanly before the frame is sent (peer reset,
    /// NAT timeout). Nothing of the frame reaches the wire.
    Disconnect,
    /// The connection dies mid-frame: a strict prefix of the bytes lands
    /// and then the stream closes — the torn-write case the frame codec's
    /// `Truncated`/`Eof` split exists for.
    PartialFrame,
}

impl NetFaultKind {
    /// Does this kind end the connection (as opposed to mangling or
    /// delaying one frame while the stream stays usable)?
    pub fn kills_connection(self) -> bool {
        matches!(self, NetFaultKind::Disconnect | NetFaultKind::PartialFrame)
    }
}

impl PlanKind for NetFaultKind {
    type Site = (u64, u8, u64);
    const ALL: &'static [Self] = &[
        NetFaultKind::Drop,
        NetFaultKind::Delay,
        NetFaultKind::Duplicate,
        NetFaultKind::Corrupt,
        NetFaultKind::Disconnect,
        NetFaultKind::PartialFrame,
    ];
    const SALT_BASE: u64 = 41;
    const AUX_SALT: u64 = 0x4E4E;

    fn name(self) -> &'static str {
        match self {
            NetFaultKind::Drop => "drop",
            NetFaultKind::Delay => "delay",
            NetFaultKind::Duplicate => "duplicate",
            NetFaultKind::Corrupt => "corrupt",
            NetFaultKind::Disconnect => "disconnect",
            NetFaultKind::PartialFrame => "partial_frame",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_never_fires() {
        let mut f = FaultPlane::disabled();
        for _ in 0..10_000 {
            for &k in &FaultKind::ALL {
                assert!(!f.roll(k));
            }
        }
        assert_eq!(f.total(), 0);
    }

    #[test]
    fn rolls_are_deterministic_per_seed() {
        let run = |seed| {
            let mut f = FaultPlane::new(FaultPlan::uniform(seed, 0.1));
            (0..2000)
                .map(|_| f.roll(FaultKind::MallocNull))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn rates_are_respected_roughly() {
        let mut f = FaultPlane::new(FaultPlan::uniform(3, 0.2));
        let hits = (0..10_000).filter(|_| f.roll(FaultKind::FdLeak)).count();
        assert!((1500..2500).contains(&hits), "p=0.2 gave {hits}/10000");
        assert_eq!(f.count(FaultKind::FdLeak), hits as u64);
        assert_eq!(f.total(), hits as u64);
    }

    #[test]
    fn certain_plan_always_fires() {
        let mut f = FaultPlane::new(FaultPlan::uniform(1, 1.0));
        assert!(f.roll(FaultKind::ForkFail));
        let (off, mask) = f.bitflip_for(64).expect("p=1 must flip");
        assert!(off < 64);
        assert!(mask.is_power_of_two());
    }

    #[test]
    fn bitflip_never_fires_on_empty_section() {
        let mut f = FaultPlane::new(FaultPlan::uniform(1, 1.0));
        assert_eq!(f.bitflip_for(0), None);
    }

    #[test]
    fn counter_export_restore_resumes_roll_stream() {
        let mut a = FaultPlane::new(FaultPlan::uniform(9, 0.3));
        for _ in 0..100 {
            a.roll(FaultKind::MallocNull);
        }
        let (rolls, injected) = a.export_counters();
        let mut b = FaultPlane::new(FaultPlan::uniform(9, 0.3));
        b.restore_counters(rolls, injected);
        let va: Vec<bool> = (0..200).map(|_| a.roll(FaultKind::MallocNull)).collect();
        let vb: Vec<bool> = (0..200).map(|_| b.roll(FaultKind::MallocNull)).collect();
        assert_eq!(va, vb, "restored plane must continue the same stream");
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn reset_clears_counters_and_replays() {
        let mut f = FaultPlane::new(FaultPlan::uniform(5, 0.5));
        let first: Vec<bool> = (0..64).map(|_| f.roll(FaultKind::FopenFail)).collect();
        assert!(f.total() > 0);
        f.reset();
        assert_eq!(f.total(), 0);
        let second: Vec<bool> = (0..64).map(|_| f.roll(FaultKind::FopenFail)).collect();
        assert_eq!(first, second, "reset must replay the same stream");
    }

    /// The behaviour every position-keyed plane shares, checked once per
    /// kind type. `sites[0]` and `sites[1]` are distinct; `keep` is the
    /// plane's usual `uniform` filter.
    fn check_plane<K: PlanKind>(sites: &[K::Site], keep: fn(K) -> bool) {
        assert!(K::ALL.len() <= MAX_KINDS);
        let (site, other) = (sites[0], sites[1]);

        let none = PositionPlan::<K>::none();
        assert!(none.is_none());
        for &s in sites {
            for attempt in 0..4 {
                assert_eq!(none.decide(s, attempt), None);
            }
        }

        let kind = K::ALL[K::ALL.len() - 1];
        let mut p = PositionPlan::at(site, kind);
        p.targeted[0].fires = 2;
        assert!(!p.is_none());
        assert_eq!(p.decide(site, 0), Some(kind));
        assert_eq!(p.decide(site, 1), Some(kind));
        assert_eq!(p.decide(site, 2), None, "past `fires` runs clean");
        assert_eq!(p.decide(other, 0), None, "other sites untouched");

        let sweep = |p: &PositionPlan<K>| -> Vec<Option<K>> {
            sites
                .iter()
                .flat_map(|&s| (0..3).map(move |attempt| p.decide(s, attempt)))
                .collect()
        };
        let p = PositionPlan::uniform(0xFEED, 0.35, keep);
        let decisions = sweep(&p);
        assert_eq!(
            decisions,
            sweep(&p),
            "same plan, same positions, same answer"
        );
        assert!(decisions.iter().any(Option::is_some));
        assert!(
            decisions.iter().flatten().all(|&k| keep(k)),
            "uniform decides only the kinds it keeps"
        );
        let reseeded = PositionPlan::uniform(0xBEEF, 0.35, keep);
        assert_ne!(decisions, sweep(&reseeded), "the seed must matter");
        assert_ne!(p.aux_bits(site, 0), p.aux_bits(other, 0));
        assert_eq!(p.aux_bits(other, 1), p.aux_bits(other, 1));

        let mut p = PositionPlan::uniform(0xABCD, 0.125, keep).with_rate(kind, 0.01);
        assert_eq!(p.rate(kind), 0.01);
        p.targeted.push(TargetedFault {
            site: other,
            kind,
            fires: 4,
        });
        let bytes = p.to_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(PositionPlan::decode(&mut r).unwrap(), p);
        assert!(r.is_empty());
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(PositionPlan::<K>::decode(&mut r).is_err(), "cut at {cut}");
        }

        for &k in K::ALL {
            assert_eq!(K::from_wire_tag(k.wire_tag()), Ok(k));
        }
        assert!(K::from_wire_tag(99).is_err());
        let mut names: Vec<_> = K::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), K::ALL.len(), "names are distinct");
    }

    fn lane_sites() -> Vec<(u64, u64)> {
        (0..6).flat_map(|a| (0..6).map(move |b| (a, b))).collect()
    }

    fn net_sites() -> Vec<(u64, u8, u64)> {
        (0..4)
            .flat_map(|conn| (0..2).flat_map(move |dir| (0..8).map(move |f| (conn, dir, f))))
            .collect()
    }

    #[test]
    fn orch_plan_semantics() {
        check_plane::<OrchFaultKind>(&lane_sites(), |_| true);
    }

    #[test]
    fn proc_plan_semantics() {
        check_plane::<ProcFaultKind>(&lane_sites(), |_| true);
    }

    #[test]
    fn disk_plan_semantics() {
        check_plane::<DiskFaultKind>(&lane_sites(), DiskFaultKind::is_transient);
    }

    #[test]
    fn net_plan_semantics() {
        check_plane::<NetFaultKind>(&net_sites(), |k| !k.kills_connection());
    }

    // Golden decision digests: every plane's `decide` + `aux_bits`, folded
    // over a fixed sweep of plans and positions. The constants pin each
    // decision the plans make; changing how plans are represented must
    // leave them unchanged.

    const SEEDS: [u64; 3] = [1, 0xFEED, 0xDEAD_BEEF];
    const RATES: [f64; 3] = [0.05, 0.3, 0.9];
    const GOLDEN: [u64; 4] = [
        0x3de1_17d6_180a_290c,
        0xcba4_48cc_8951_2ca4,
        0x9b7a_0972_52da_4bda,
        0xbcd5_ef03_844a_ebc4,
    ];

    fn fold(acc: u64, decision: Option<u8>, aux: u64) -> u64 {
        splitmix64(acc ^ decision.map_or(0xFF, u64::from)) ^ aux
    }

    /// The digest's plans, in order: per (seed, rate) every kind at `rate`
    /// and then each kind alone; the plane's filtered `uniform`, if any;
    /// then a targeted fault of each kind at `site` with `fires` 1 and 3,
    /// over a uniform background and alone.
    fn golden_plans<K: PlanKind>(
        site: K::Site,
        keep: Option<fn(K) -> bool>,
    ) -> Vec<PositionPlan<K>> {
        let mut plans = Vec::new();
        for seed in SEEDS {
            for rate in RATES {
                plans.push(PositionPlan::uniform(seed, rate, |_| true));
                for &k in K::ALL {
                    plans.push(PositionPlan::uniform(seed, rate, |x| x == k));
                }
            }
        }
        if let Some(keep) = keep {
            for seed in SEEDS {
                for rate in RATES {
                    plans.push(PositionPlan::uniform(seed, rate, keep));
                }
            }
        }
        for fires in [1, 3] {
            for &kind in K::ALL {
                let mut p = PositionPlan::at(site, kind);
                p.targeted[0].fires = fires;
                plans.push(PositionPlan {
                    targeted: p.targeted.clone(),
                    ..PositionPlan::uniform(7, 0.2, |_| true)
                });
                plans.push(p);
            }
        }
        plans
    }

    /// Four sends of every site per plan. Lane planes retry at the next
    /// attempt; the net plane re-sends at its firing count.
    fn digest<K: PlanKind>(plans: &[PositionPlan<K>], sites: &[K::Site], count_fires: bool) -> u64 {
        let mut acc = 0;
        for p in plans {
            for &site in sites {
                let mut attempt = 0;
                for _ in 0..4 {
                    let d = p.decide(site, attempt);
                    acc = fold(acc, d.map(K::wire_tag), p.aux_bits(site, attempt));
                    if d.is_some() || !count_fires {
                        attempt += 1;
                    }
                }
            }
        }
        acc
    }

    #[test]
    fn golden_decision_digests() {
        let lanes: Vec<(u64, u64)> = (0..5).flat_map(|a| (0..5).map(move |b| (a, b))).collect();
        let net: Vec<(u64, u8, u64)> = (0..3)
            .flat_map(|c| (0..2).flat_map(move |d| (0..4).map(move |f| (c, d, f))))
            .collect();
        let digests = [
            digest(
                &golden_plans::<OrchFaultKind>((2, 3), Some(|_| true)),
                &lanes,
                false,
            ),
            digest(&golden_plans::<ProcFaultKind>((2, 3), None), &lanes, false),
            digest(
                &golden_plans::<DiskFaultKind>((2, 3), Some(DiskFaultKind::is_transient)),
                &lanes,
                false,
            ),
            digest(
                &golden_plans::<NetFaultKind>((1, 1, 2), Some(|k| !k.kills_connection())),
                &net,
                true,
            ),
        ];
        assert_eq!(digests, GOLDEN, "got {digests:#x?}");
    }
}
