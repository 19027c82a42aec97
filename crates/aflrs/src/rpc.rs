//! # rpc — the network service plane in front of [`Service`]
//!
//! The campaign service of §17 is an in-process object; a fleet wants it
//! behind a wire. This module puts a framed request/response protocol in
//! front of [`Service`] over the hardened §15 CXFR frame codec, and gives
//! the transport the same treatment the execution, process, and storage
//! planes got: deterministic fault injection
//! ([`vmos::NetFaultPlan`]), a typed error ladder ([`RpcError`] →
//! [`RemoteError`]), and recovery that is *idempotent by construction*.
//!
//! ## Transport
//!
//! The wire is an in-memory duplex byte pipe ([`MemNet`]) — a loopback
//! TCP stand-in with real streaming semantics (partial reads, blocking,
//! half-close, EOF) but none of the kernel's nondeterminism. Every frame
//! an endpoint *sends* passes through its [`vmos::NetFaultPlan`], keyed
//! on `(conn, direction, frame-seq)`:
//!
//! * `Drop` — the frame vanishes; the peer's read times out.
//! * `Delay` — delivered late; the latency is charged in simulated cycles.
//! * `Duplicate` — delivered twice; request ids dedupe it.
//! * `Corrupt` — a bit flips in the checksummed region; the receiver
//!   detects it deterministically and drops the connection.
//! * `Disconnect` — the connection closes before the frame (clean EOF).
//! * `PartialFrame` — a strict prefix is written, then close (torn frame).
//!
//! ## Idempotency and session resume
//!
//! Every connection starts with a `Hello{session}` handshake; every
//! request carries the session id implicitly (per-connection) and a
//! client-monotonic request id. The server keeps a bounded, *durable*
//! reply journal (`rpc-replies.bin` in the service directory): a request
//! executes at most once per (session, request-id) — retries after a
//! lost reply are answered from the journal, not re-executed. `Submit`
//! is additionally deduplicated against the durably-admitted spec
//! (`spec.bin` lands before the ack), so a duplicated or retried Submit
//! can never double-admit. The journal survives a server kill: a
//! restarted server resumes the session where it left off.
//!
//! ## Recovery ladder
//!
//! ```text
//! frame fault ──▶ typed RpcError ──▶ reconnect + resend (same req id)
//!                      │                    │ backoff: seeded exponential,
//!                      │                    ▼ charged in simulated cycles
//!                      │            reply journal replay (exactly-once)
//!                      ▼
//!           attempts exhausted ──▶ Degraded(Local) in-process fallback
//! ```
//!
//! The RPC identity grid (`bench::planes::rpc`, run by
//! `tests/rpc_equivalence.rs` and `plane_eval`) holds the remote path to
//! bit-identical results vs. the in-process service under the full fault
//! grid, and `plane_eval` bounds the clean-path overhead.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use vmos::wire::Nested;
use vmos::{read_frame, wire_enum, write_frame, FrameError, NetFaultKind, NetFaultPlan, Wire};

use crate::service::{
    AdmissionError, CampaignSpec, CampaignState, HealthReport, Service, ServiceError,
};
use crate::stats::CampaignResult;

/// Client→server frame kinds.
const RK_HELLO: u8 = 1;
const RK_REQ: u8 = 2;
/// Server→client frame kinds.
const RK_HELLO_OK: u8 = 16;
const RK_REPLY: u8 = 17;

/// Largest payload either endpoint will accept — far above any real
/// message, far below [`vmos::MAX_FRAME_LEN`], so a corrupted length
/// cannot commit us to a giant allocation.
pub const MAX_RPC_FRAME: usize = 8 << 20;

/// Raw (unframed) connection preamble: the client-assigned connection id,
/// `u64` LE. This is transport metadata — the fault plan applies to
/// frames, not to the preamble, just as a TCP SYN is below AFL's pipe.
const CONN_PREAMBLE_LEN: usize = 8;

/// Reply-journal frame kinds (`rpc-replies.bin`).
const JK_SESSION: u8 = 1;
const JK_REPLY: u8 = 2;

/// The on-disk reply journal, kept in the service root directory.
pub const RPC_JOURNAL_FILE: &str = "rpc-replies.bin";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Transport-level failure, one rung per observable wire behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// No server is listening (connection refused).
    Refused,
    /// The connection closed. `clean` distinguishes an EOF on a frame
    /// boundary (peer went away politely) from a torn frame (peer died
    /// mid-write) — the §15 `Eof`/`Truncated` split, surfaced.
    Disconnected {
        /// `true` for a frame-boundary EOF, `false` for a torn frame.
        clean: bool,
    },
    /// No reply within the read timeout (a dropped frame looks like this).
    Timeout,
    /// A frame failed validation (bad magic, checksum, oversized length).
    /// The receiver drops the connection; state is untouched.
    CorruptFrame,
    /// The peer spoke the frame codec but not the protocol.
    Protocol(&'static str),
    /// Transport I/O error other than the typed cases above.
    Io(std::io::ErrorKind),
    /// Every attempt failed; the operation was not (observably) performed.
    Unavailable {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Refused => write!(f, "connection refused: no server listening"),
            RpcError::Disconnected { clean: true } => write!(f, "peer disconnected (clean EOF)"),
            RpcError::Disconnected { clean: false } => {
                write!(f, "peer disconnected mid-frame (torn)")
            }
            RpcError::Timeout => write!(f, "timed out waiting for a reply"),
            RpcError::CorruptFrame => write!(f, "corrupt frame (connection dropped)"),
            RpcError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            RpcError::Io(kind) => write!(f, "transport i/o error: {kind:?}"),
            RpcError::Unavailable { attempts } => {
                write!(f, "service unavailable after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for RpcError {}

/// [`AdmissionError`] rebuilt on the client side of the wire. The
/// server-side enum carries `&'static str` and [`std::io::Error`]
/// payloads that cannot cross a byte stream, so the remote mirror
/// carries owned strings with identical meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteAdmissionError {
    /// The service is at its campaign capacity.
    Full {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// A tenant with this name already exists *with a different spec*
    /// (an identical spec is deduplicated into success instead).
    Duplicate(String),
    /// The spec is structurally unusable.
    InvalidSpec(String),
    /// The server's spec resolver could not build a factory.
    Resolver(String),
    /// The server could not persist `spec.bin`; nothing was admitted.
    Io(String),
}

wire_enum!(RemoteAdmissionError, "admission error tag" {
    0 => Full { capacity },
    1 => Duplicate(name),
    2 => InvalidSpec(msg),
    3 => Resolver(msg),
    4 => Io(msg),
});

impl std::fmt::Display for RemoteAdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteAdmissionError::Full { capacity } => {
                write!(f, "service is at capacity ({capacity} campaigns)")
            }
            RemoteAdmissionError::Duplicate(name) => {
                write!(
                    f,
                    "a campaign named {name:?} already exists with a different spec"
                )
            }
            RemoteAdmissionError::InvalidSpec(msg) => write!(f, "invalid campaign spec: {msg}"),
            RemoteAdmissionError::Resolver(msg) => write!(f, "spec resolver failed: {msg}"),
            RemoteAdmissionError::Io(msg) => write!(f, "could not persist campaign spec: {msg}"),
        }
    }
}

impl std::error::Error for RemoteAdmissionError {}

/// What a remote operation can fail with: a transport rung, or the same
/// service-level errors the in-process API returns.
#[derive(Debug)]
pub enum RemoteError {
    /// Transport failure (after retries and, if configured, fallback).
    Rpc(RpcError),
    /// Admission control refused the submit.
    Admission(RemoteAdmissionError),
    /// The campaign ended in a service-level error (killed/failed/…).
    Service(ServiceError),
    /// No tenant with this name exists on the server.
    UnknownTenant(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Rpc(e) => write!(f, "rpc: {e}"),
            RemoteError::Admission(e) => write!(f, "admission: {e}"),
            RemoteError::Service(e) => write!(f, "service: {e}"),
            RemoteError::UnknownTenant(name) => write!(f, "no campaign named {name:?}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<RpcError> for RemoteError {
    fn from(e: RpcError) -> Self {
        RemoteError::Rpc(e)
    }
}

/// How the last operation was served (the degradation ladder's state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Over the wire.
    Remote,
    /// Via a degraded path.
    Degraded(Degraded),
}

/// Degraded serving modes. One rung today; the enum keeps the ladder
/// extensible and the type distinct from a bare bool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degraded {
    /// The in-process fallback [`Service`] handled the call directly.
    Local,
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Observability for one endpoint (client or server). These live *beside*
/// the campaign results, never inside them — [`CampaignResult`] stays
/// bit-identical between the remote and in-process paths by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct RpcCounters {
    /// Requests issued (client) — counted once per logical call, not per retry.
    pub requests: u64,
    /// Replies accepted (client) / sent (server).
    pub replies: u64,
    /// Re-sends of a request after a transport failure.
    pub retries: u64,
    /// Connections established (client) / accepted (server).
    pub connects: u64,
    /// Reply-read timeouts observed.
    pub timeouts: u64,
    /// Simulated cycles charged to reconnect backoff.
    pub backoff_cycles: u64,
    /// Frames this endpoint's fault plan made vanish.
    pub frames_dropped: u64,
    /// Frames delivered late, and the simulated latency charged.
    pub frames_delayed: u64,
    /// Simulated cycles of injected delivery latency.
    pub delay_cycles: u64,
    /// Frames delivered twice.
    pub frames_duplicated: u64,
    /// Frames with an injected bit flip.
    pub frames_corrupted: u64,
    /// Connections severed before a frame.
    pub disconnects_injected: u64,
    /// Frames cut short (strict prefix, then close).
    pub partial_frames: u64,
    /// Clean frame-boundary EOFs observed on receive.
    pub clean_disconnects: u64,
    /// Torn frames observed on receive.
    pub torn_disconnects: u64,
    /// Frames that failed validation on receive.
    pub corrupt_frames_seen: u64,
    /// Frames that were valid CXFR but violated the RPC protocol.
    pub protocol_errors: u64,
    /// Requests answered from the reply journal instead of re-executing.
    pub journal_replays: u64,
    /// Journal persistence failures (degraded to memory-only; non-fatal).
    pub journal_warnings: u64,
    /// Fresh sessions opened (server).
    pub sessions_opened: u64,
    /// Sessions resumed across a reconnect or server restart.
    pub sessions_resumed: u64,
    /// Duplicated `Submit`s deduplicated against the durable spec.
    pub dup_submits_deduped: u64,
    /// Calls served by the `Degraded(Local)` fallback.
    pub degraded_calls: u64,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// In-memory transport: byte pipes and a loopback "network"
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Default)]
struct PipeInner {
    st: Mutex<PipeState>,
    cv: Condvar,
}

fn close_pipe(inner: &Arc<PipeInner>) {
    let mut st = inner.st.lock().expect("pipe poisoned");
    st.closed = true;
    inner.cv.notify_all();
}

/// Read half of a byte pipe. Blocking, with an optional per-read timeout
/// (the TCP `SO_RCVTIMEO` analog). EOF (`Ok(0)`) once the pipe is closed
/// and drained.
struct PipeReader {
    inner: Arc<PipeInner>,
    timeout: Option<Duration>,
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.inner.st.lock().expect("pipe poisoned");
        loop {
            if !st.buf.is_empty() {
                let n = buf.len().min(st.buf.len());
                for b in buf.iter_mut().take(n) {
                    *b = st.buf.pop_front().expect("len checked");
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0);
            }
            match self.timeout {
                None => st = self.inner.cv.wait(st).expect("pipe poisoned"),
                Some(t) => {
                    let (guard, res) = self.inner.cv.wait_timeout(st, t).expect("pipe poisoned");
                    st = guard;
                    if res.timed_out() && st.buf.is_empty() && !st.closed {
                        return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                    }
                }
            }
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        close_pipe(&self.inner);
    }
}

/// Write half of a byte pipe. Closing (or dropping) wakes the reader.
struct PipeWriter {
    inner: Arc<PipeInner>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut st = self.inner.st.lock().expect("pipe poisoned");
        if st.closed {
            return Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe));
        }
        st.buf.extend(buf.iter().copied());
        self.inner.cv.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        close_pipe(&self.inner);
    }
}

fn pipe() -> (PipeWriter, PipeReader) {
    let inner = Arc::new(PipeInner::default());
    (
        PipeWriter {
            inner: Arc::clone(&inner),
        },
        PipeReader {
            inner,
            timeout: None,
        },
    )
}

/// One end of an established duplex connection.
struct Conn {
    reader: PipeReader,
    writer: PipeWriter,
}

impl Conn {
    fn set_read_timeout(&mut self, t: Option<Duration>) {
        self.reader.timeout = t;
    }

    /// Sever both directions immediately (the injected-fault hammer).
    fn close(&self) {
        close_pipe(&self.reader.inner);
        close_pipe(&self.writer.inner);
    }

    fn closer(&self) -> ConnCloser {
        ConnCloser {
            a: Arc::clone(&self.reader.inner),
            b: Arc::clone(&self.writer.inner),
        }
    }
}

/// A detached handle that can sever a connection from another thread
/// (the server uses these to unblock handlers at shutdown).
#[derive(Clone)]
struct ConnCloser {
    a: Arc<PipeInner>,
    b: Arc<PipeInner>,
}

impl ConnCloser {
    fn close(&self) {
        close_pipe(&self.a);
        close_pipe(&self.b);
    }
}

#[derive(Default)]
struct NetState {
    queue: VecDeque<Conn>,
    listening: bool,
    generation: u64,
}

#[derive(Default)]
struct NetInner {
    st: Mutex<NetState>,
    cv: Condvar,
}

/// The loopback network: at most one listener; any number of clients.
/// Cloning shares the network (it is the "address" both sides dial).
#[derive(Clone, Default)]
pub struct MemNet {
    inner: Arc<NetInner>,
}

impl MemNet {
    /// A fresh, empty network with nobody listening.
    pub fn new() -> MemNet {
        MemNet::default()
    }

    /// Register as the listener, displacing (and closing the backlog of)
    /// any previous one — the restarted-server case.
    fn listen(&self) -> MemListener {
        let mut st = self.inner.st.lock().expect("net poisoned");
        for conn in st.queue.drain(..) {
            conn.close();
        }
        st.listening = true;
        st.generation += 1;
        let generation = st.generation;
        self.inner.cv.notify_all();
        MemListener {
            net: self.clone(),
            generation,
        }
    }

    /// Stop the listener of `generation`, if it is still the current one
    /// (a newer listener is left alone).
    fn unlisten(&self, generation: u64) {
        let mut st = self.inner.st.lock().expect("net poisoned");
        if st.generation != generation || !st.listening {
            return;
        }
        st.listening = false;
        for conn in st.queue.drain(..) {
            conn.close();
        }
        self.inner.cv.notify_all();
    }

    /// Dial the listener.
    ///
    /// # Errors
    /// [`RpcError::Refused`] when nobody is listening.
    fn connect(&self) -> Result<Conn, RpcError> {
        let mut st = self.inner.st.lock().expect("net poisoned");
        if !st.listening {
            return Err(RpcError::Refused);
        }
        let (c2s_w, c2s_r) = pipe();
        let (s2c_w, s2c_r) = pipe();
        st.queue.push_back(Conn {
            reader: c2s_r,
            writer: s2c_w,
        });
        self.inner.cv.notify_all();
        Ok(Conn {
            reader: s2c_r,
            writer: c2s_w,
        })
    }
}

struct MemListener {
    net: MemNet,
    generation: u64,
}

impl MemListener {
    /// Block for the next connection; `None` once the listener is closed
    /// or displaced by a newer one.
    fn accept(&self) -> Option<Conn> {
        let inner = &self.net.inner;
        let mut st = inner.st.lock().expect("net poisoned");
        loop {
            if st.generation != self.generation || !st.listening {
                return None;
            }
            if let Some(conn) = st.queue.pop_front() {
                return Some(conn);
            }
            st = inner.cv.wait(st).expect("net poisoned");
        }
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.net.unlisten(self.generation);
    }
}

// ---------------------------------------------------------------------------
// Fault-injecting framed endpoint
// ---------------------------------------------------------------------------

/// One endpoint's [`NetFaultPlan`], shared by all its connections, plus
/// how often each `(conn, direction, frame)` position has fired. That
/// count is the attempt the position is decided at, so a single-shot
/// fault fires once per endpoint even when several connections reuse a
/// connection id (two clients both open their conn 0 to one server).
struct NetFaults {
    plan: NetFaultPlan,
    fired: HashMap<(u64, u8, u64), u32>,
}

impl NetFaults {
    fn shared(plan: NetFaultPlan) -> Arc<Mutex<NetFaults>> {
        Arc::new(Mutex::new(NetFaults {
            plan,
            fired: HashMap::new(),
        }))
    }

    /// The fault (if any) and its aux bits for one send at `site`.
    fn on_send(&mut self, site: (u64, u8, u64)) -> (Option<NetFaultKind>, u64) {
        let fired = self.fired.get(&site).copied().unwrap_or(0);
        let fault = self.plan.decide(site, fired);
        // The net hash ignores the attempt, so only targeted sites need a
        // count; skipping the rest keeps a lossy server's map bounded.
        if fault.is_some() && self.plan.targeted.iter().any(|t| t.site == site) {
            self.fired.insert(site, fired + 1);
        }
        (fault, self.plan.aux_bits(site, fired))
    }
}

/// A connection end that speaks CXFR frames and runs every *send* through
/// its endpoint's [`NetFaults`]. Receive never injects — each endpoint
/// injects on its own direction, so one plan shared by both sides covers
/// the full `(conn, direction, frame)` grid.
struct FramedConn {
    conn: Conn,
    conn_id: u64,
    /// The direction this endpoint sends on: 0 = client→server,
    /// 1 = server→client.
    direction: u8,
    next_seq: u64,
    faults: Arc<Mutex<NetFaults>>,
    counters: Arc<Mutex<RpcCounters>>,
}

/// Render one frame to bytes (for corruption / partial-write injection).
/// Infallible: writing to a `Vec` cannot fail and `kind`/`payload` were
/// already validated by the caller.
fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut raw = Vec::with_capacity(vmos::FRAME_HEADER_LEN + payload.len());
    write_frame(&mut raw, kind, payload).expect("Vec write is infallible");
    raw
}

impl FramedConn {
    fn new(
        conn: Conn,
        conn_id: u64,
        direction: u8,
        faults: Arc<Mutex<NetFaults>>,
        counters: Arc<Mutex<RpcCounters>>,
    ) -> FramedConn {
        FramedConn {
            conn,
            conn_id,
            direction,
            next_seq: 0,
            faults,
            counters,
        }
    }

    fn write_plain(&mut self, kind: u8, payload: &[u8]) -> Result<(), RpcError> {
        write_frame(&mut self.conn.writer, kind, payload).map_err(io_to_rpc)
    }

    fn write_raw(&mut self, raw: &[u8]) -> Result<(), RpcError> {
        self.conn
            .writer
            .write_all(raw)
            .map_err(|e| io_to_rpc(FrameError::Io(e.kind())))
    }

    /// Send one frame, consulting the fault plan at this frame's
    /// position. Faults that sever the connection return the matching
    /// [`RpcError::Disconnected`] so the caller's retry ladder engages.
    fn send(&mut self, kind: u8, payload: &[u8]) -> Result<(), RpcError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (fault, aux) = self.faults.lock().expect("fault plan poisoned").on_send((
            self.conn_id,
            self.direction,
            seq,
        ));
        match fault {
            None => self.write_plain(kind, payload),
            Some(NetFaultKind::Drop) => {
                self.counters
                    .lock()
                    .expect("counters poisoned")
                    .frames_dropped += 1;
                // The frame vanishes; the stream stays healthy.
                Ok(())
            }
            Some(NetFaultKind::Delay) => {
                let cycles = 1_000 + aux % 9_000;
                {
                    let mut c = self.counters.lock().expect("counters poisoned");
                    c.frames_delayed += 1;
                    c.delay_cycles += cycles;
                }
                // Latency is simulated (charged in cycles), then the frame
                // arrives intact and in order.
                self.write_plain(kind, payload)
            }
            Some(NetFaultKind::Duplicate) => {
                self.counters
                    .lock()
                    .expect("counters poisoned")
                    .frames_duplicated += 1;
                self.write_plain(kind, payload)?;
                self.write_plain(kind, payload)
            }
            Some(NetFaultKind::Corrupt) => {
                self.counters
                    .lock()
                    .expect("counters poisoned")
                    .frames_corrupted += 1;
                // Flip one bit in the checksummed region (checksum field or
                // payload). The length prefix is left intact so the receiver
                // detects the damage deterministically instead of
                // desynchronizing the stream — prefix damage is modeled by
                // PartialFrame / Disconnect.
                let mut raw = frame_bytes(kind, payload);
                let span_bits = (raw.len() - vmos::FRAME_PREFIX_LEN) * 8;
                let bit = (aux as usize) % span_bits;
                raw[vmos::FRAME_PREFIX_LEN + bit / 8] ^= 1 << (bit % 8);
                self.write_raw(&raw)
            }
            Some(NetFaultKind::Disconnect) => {
                self.counters
                    .lock()
                    .expect("counters poisoned")
                    .disconnects_injected += 1;
                self.conn.close();
                Err(RpcError::Disconnected { clean: true })
            }
            Some(NetFaultKind::PartialFrame) => {
                self.counters
                    .lock()
                    .expect("counters poisoned")
                    .partial_frames += 1;
                let raw = frame_bytes(kind, payload);
                // A strict prefix that reaches past the length prefix, so
                // the receiver sees a *torn* frame, not a clean EOF.
                let min = vmos::FRAME_PREFIX_LEN + 1;
                let keep = min + (aux as usize) % (raw.len() - min);
                let res = self.write_raw(&raw[..keep]);
                self.conn.close();
                res.and(Err(RpcError::Disconnected { clean: false }))
            }
        }
    }

    /// Receive one frame, mapping §15 frame errors onto the RPC ladder.
    fn recv(&mut self) -> Result<(u8, Vec<u8>), RpcError> {
        match read_frame(&mut self.conn.reader, MAX_RPC_FRAME) {
            Ok(frame) => Ok(frame),
            Err(e) => {
                let mut c = self.counters.lock().expect("counters poisoned");
                Err(match e {
                    FrameError::Eof => {
                        c.clean_disconnects += 1;
                        RpcError::Disconnected { clean: true }
                    }
                    FrameError::Truncated => {
                        c.torn_disconnects += 1;
                        RpcError::Disconnected { clean: false }
                    }
                    FrameError::BadMagic
                    | FrameError::ChecksumMismatch
                    | FrameError::Oversized { .. } => {
                        c.corrupt_frames_seen += 1;
                        RpcError::CorruptFrame
                    }
                    FrameError::Io(std::io::ErrorKind::TimedOut) => {
                        c.timeouts += 1;
                        RpcError::Timeout
                    }
                    FrameError::Io(kind) => RpcError::Io(kind),
                })
            }
        }
    }
}

fn io_to_rpc(e: FrameError) -> RpcError {
    match e {
        FrameError::Io(std::io::ErrorKind::BrokenPipe) => RpcError::Disconnected { clean: true },
        FrameError::Io(kind) => RpcError::Io(kind),
        FrameError::Oversized { .. } => RpcError::Protocol("oversized payload"),
        _ => RpcError::Protocol("frame write failed"),
    }
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// One operation against the service, mirroring the in-process API
/// surface of [`Service`] + [`crate::service::CampaignHandle`].
#[derive(Debug, Clone, PartialEq)]
pub enum RpcOp {
    /// Admit a campaign (idempotent: a retry that finds the identical
    /// spec already admitted succeeds).
    Submit(CampaignSpec),
    /// [`crate::service::CampaignHandle::status`] by tenant name.
    Status(String),
    /// [`crate::service::CampaignHandle::health`] by tenant name.
    Health(String),
    /// [`crate::service::CampaignHandle::pause`] by tenant name.
    Pause(String),
    /// [`crate::service::CampaignHandle::resume`] by tenant name.
    Resume(String),
    /// [`crate::service::CampaignHandle::kill`] by tenant name.
    Kill(String),
    /// [`crate::service::CampaignHandle::await_result`] by tenant name
    /// (blocks server-side until the campaign is terminal).
    Await(String),
}

// A request frame is the `(u64, RpcOp)` pair: the request id, then the op.
wire_enum!(RpcOp, "request op tag" {
    0 => Submit(spec as Nested),
    1 => Status(name),
    2 => Health(name),
    3 => Pause(name),
    4 => Resume(name),
    5 => Kill(name),
    6 => Await(name),
});

/// One reply body. The server journals these bytes; the client decodes
/// them back into the in-process API's vocabulary. (No `PartialEq`:
/// [`CampaignResult`] is compared by fingerprint, not by derive.)
#[derive(Debug)]
pub enum RpcReply {
    /// The operation succeeded with no payload.
    Unit,
    /// A [`CampaignState`].
    Status(CampaignState),
    /// A health report (absent before the first grant).
    Health(Option<HealthReport>),
    /// A finished campaign's result.
    Result(Box<CampaignResult>),
    /// The campaign ended in a service-level error.
    Service(ServiceError),
    /// Admission control refused the submit.
    Admission(RemoteAdmissionError),
    /// No tenant with the requested name.
    UnknownTenant,
}

wire_enum!(RpcReply, "reply tag" {
    0 => Unit,
    1 => Status(state),
    2 => Health(report),
    3 => Result(result),
    4 => Service(error),
    5 => Admission(error),
    6 => UnknownTenant,
});

// ---------------------------------------------------------------------------
// Reply journal: bounded, durable, exactly-once
// ---------------------------------------------------------------------------

/// The server's idempotency store: per (session, request-id), the
/// canonical reply bytes. Bounded per session (a sliding window — clients
/// retry only their most recent request), persisted to
/// [`RPC_JOURNAL_FILE`] so a restarted server still answers retries of
/// requests it executed before dying. Persistence failures degrade to
/// memory-only with a warning counter — the §16 convention: never let the
/// robustness machinery become the thing that kills the service.
pub(crate) struct ReplyJournal {
    path: PathBuf,
    cap_per_session: usize,
    max_file_bytes: u64,
    sessions: HashMap<u64, VecDeque<(u64, Vec<u8>)>>,
    next_session: u64,
    file_bytes: u64,
    warnings: u64,
}

impl ReplyJournal {
    /// Load (or initialize) the journal under `path`. Never fails: a
    /// missing file is an empty journal, a torn tail is truncated at the
    /// last whole record (and counted as a warning).
    pub(crate) fn load(path: PathBuf, cap_per_session: usize, max_file_bytes: u64) -> ReplyJournal {
        let mut j = ReplyJournal {
            path,
            cap_per_session,
            max_file_bytes,
            sessions: HashMap::new(),
            next_session: 1,
            file_bytes: 0,
            warnings: 0,
        };
        let bytes = match std::fs::read(&j.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return j,
            Err(_) => {
                j.warnings += 1;
                return j;
            }
        };
        j.file_bytes = bytes.len() as u64;
        let mut cursor: &[u8] = &bytes;
        loop {
            match read_frame(&mut cursor, MAX_RPC_FRAME) {
                Ok((JK_SESSION, payload)) => match u64::from_bytes(&payload) {
                    Ok(id) => j.note_session(id),
                    Err(_) => {
                        j.warnings += 1;
                        break;
                    }
                },
                Ok((JK_REPLY, payload)) => match <(u64, u64, Vec<u8>)>::from_bytes(&payload) {
                    Ok((session, req, reply)) => {
                        j.insert(session, req, reply);
                    }
                    Err(_) => {
                        j.warnings += 1;
                        break;
                    }
                },
                Ok(_) => {
                    j.warnings += 1;
                    break;
                }
                Err(FrameError::Eof) => break,
                Err(_) => {
                    // Torn tail (the server died mid-append): everything
                    // before it is intact and trusted.
                    j.warnings += 1;
                    break;
                }
            }
        }
        j
    }

    fn note_session(&mut self, id: u64) {
        self.next_session = self.next_session.max(id + 1);
        self.sessions.entry(id).or_default();
    }

    /// In-memory insert-if-absent; returns the canonical bytes.
    fn insert(&mut self, session: u64, req: u64, reply: Vec<u8>) -> Vec<u8> {
        self.next_session = self.next_session.max(session + 1);
        let entry = self.sessions.entry(session).or_default();
        if let Some((_, existing)) = entry.iter().find(|(r, _)| *r == req) {
            return existing.clone();
        }
        entry.push_back((req, reply.clone()));
        while entry.len() > self.cap_per_session {
            entry.pop_front();
        }
        reply
    }

    fn lookup(&self, session: u64, req: u64) -> Option<Vec<u8>> {
        self.sessions
            .get(&session)?
            .iter()
            .find(|(r, _)| *r == req)
            .map(|(_, b)| b.clone())
    }

    /// Allocate a fresh session id, durably.
    pub(crate) fn open_session(&mut self) -> u64 {
        let id = self.next_session;
        self.note_session(id);
        self.append(JK_SESSION, &id.to_bytes());
        id
    }

    /// The exactly-once point: insert-if-absent under the server's
    /// journal lock, then persist. Concurrent handlers racing on the same
    /// (session, req) converge on the first writer's bytes.
    pub(crate) fn record(&mut self, session: u64, req: u64, reply: Vec<u8>) -> Vec<u8> {
        let rec = (session, req, self.insert(session, req, reply));
        self.append(JK_REPLY, &rec.to_bytes());
        if self.file_bytes > self.max_file_bytes {
            self.compact();
        }
        rec.2
    }

    /// Best-effort append. I/O failure → warning, memory-only operation.
    fn append(&mut self, kind: u8, payload: &[u8]) {
        let res = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| {
                write_frame(&mut f, kind, payload)
                    .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidData))
            });
        match res {
            Ok(()) => {
                self.file_bytes += (vmos::FRAME_HEADER_LEN + payload.len()) as u64;
            }
            Err(_) => self.warnings += 1,
        }
    }

    /// Rewrite the file from the bounded in-memory state (dropping
    /// evicted records), atomically via tmp + fsync + rename, then fsync
    /// the directory so the rename itself survives a power loss.
    fn compact(&mut self) {
        let tmp = self.path.with_extension("tmp");
        let mut ids: Vec<u64> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        let mut bytes_written = 0u64;
        let res = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            for id in &ids {
                let p = id.to_bytes();
                write_frame(&mut f, JK_SESSION, &p)
                    .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidData))?;
                bytes_written += (vmos::FRAME_HEADER_LEN + p.len()) as u64;
                for (req, reply) in &self.sessions[id] {
                    let p = (*id, *req, reply.clone()).to_bytes();
                    write_frame(&mut f, JK_REPLY, &p)
                        .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidData))?;
                    bytes_written += (vmos::FRAME_HEADER_LEN + p.len()) as u64;
                }
            }
            f.sync_all()?;
            std::fs::rename(&tmp, &self.path)?;
            self.path.parent().map_or(Ok(()), crate::storage::fsync_dir)
        })();
        match res {
            Ok(()) => self.file_bytes = bytes_written,
            Err(_) => {
                self.warnings += 1;
                // Reset the watermark so a persistently failing disk does
                // not retry compaction on every record.
                self.file_bytes = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Server-side knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Faults injected on the server's sends (direction 1). Share the
    /// plan (by value) with the client to drive a full grid.
    pub fault_plan: NetFaultPlan,
    /// Reply-journal window per session — how far back a client may
    /// retry. Clients retry only their newest request, so a small window
    /// is plenty.
    pub replies_per_session: usize,
    /// Journal compaction threshold in bytes.
    pub journal_max_bytes: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            fault_plan: NetFaultPlan::none(),
            replies_per_session: 64,
            journal_max_bytes: 1 << 20,
        }
    }
}

struct ServerShared {
    service: Arc<Service>,
    journal: Mutex<ReplyJournal>,
    faults: Arc<Mutex<NetFaults>>,
    counters: Arc<Mutex<RpcCounters>>,
    stop: AtomicBool,
    conns: Mutex<Vec<ConnCloser>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// The RPC front end: an accept loop plus one handler thread per
/// connection, all over a shared [`Service`]. Stop it gracefully with
/// [`RpcServer::stop`] (joins everything) or simulate a crash with
/// [`RpcServer::kill`] — the reply journal and `spec.bin` admissions are
/// durable, so a new server over the same directory resumes sessions.
pub struct RpcServer {
    shared: Arc<ServerShared>,
    net: MemNet,
    generation: u64,
    accept: Option<JoinHandle<()>>,
}

impl RpcServer {
    /// Start serving `service` on `net`, displacing any previous listener.
    pub fn start(service: Arc<Service>, net: &MemNet, opts: ServerOptions) -> RpcServer {
        let journal = ReplyJournal::load(
            service.dir().join(RPC_JOURNAL_FILE),
            opts.replies_per_session.max(1),
            opts.journal_max_bytes.max(4096),
        );
        let shared = Arc::new(ServerShared {
            service,
            journal: Mutex::new(journal),
            faults: NetFaults::shared(opts.fault_plan),
            counters: Arc::new(Mutex::new(RpcCounters::default())),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
        });
        {
            let mut c = shared.counters.lock().expect("counters poisoned");
            c.journal_warnings += shared.journal.lock().expect("journal poisoned").warnings;
        }
        let listener = net.listen();
        let generation = listener.generation;
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            while let Some(conn) = listener.accept() {
                if accept_shared.stop.load(Ordering::SeqCst) {
                    conn.close();
                    break;
                }
                let h_shared = Arc::clone(&accept_shared);
                accept_shared
                    .conns
                    .lock()
                    .expect("conn list poisoned")
                    .push(conn.closer());
                let handle = std::thread::spawn(move || handle_conn(&h_shared, conn));
                accept_shared
                    .handlers
                    .lock()
                    .expect("handler list poisoned")
                    .push(handle);
            }
        });
        RpcServer {
            shared,
            net: net.clone(),
            generation,
            accept: Some(accept),
        }
    }

    /// A snapshot of this server's transport counters.
    pub fn counters(&self) -> RpcCounters {
        let mut c = self
            .shared
            .counters
            .lock()
            .expect("counters poisoned")
            .clone();
        c.journal_warnings = self
            .shared
            .journal
            .lock()
            .expect("journal poisoned")
            .warnings;
        c
    }

    fn shut_transport(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.net.unlisten(self.generation);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for closer in self
            .shared
            .conns
            .lock()
            .expect("conn list poisoned")
            .drain(..)
        {
            closer.close();
        }
    }

    /// Graceful stop: close the listener and every connection, then join
    /// all handler threads. Handlers blocked in a server-side `Await`
    /// unblock once their campaign (or the service) terminates.
    pub fn stop(mut self) {
        self.shut_transport();
        let handlers: Vec<_> = self
            .shared
            .handlers
            .lock()
            .expect("handler list poisoned")
            .drain(..)
            .collect();
        for h in handlers {
            let _ = h.join();
        }
    }

    /// Simulated crash: sever the transport *without* joining handlers —
    /// in-flight requests die mid-frame from the client's point of view.
    /// Durable state (spec.bin, checkpoints, reply journal) is exactly
    /// what a restarted server finds.
    pub fn kill(mut self) {
        self.shut_transport();
        self.shared
            .handlers
            .lock()
            .expect("handler list poisoned")
            .clear();
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shut_transport();
            let handlers: Vec<_> = self
                .shared
                .handlers
                .lock()
                .expect("handler list poisoned")
                .drain(..)
                .collect();
            for h in handlers {
                let _ = h.join();
            }
        }
    }
}

/// Translate a server-side [`AdmissionError`] for the wire.
fn admission_to_remote(e: &AdmissionError) -> RemoteAdmissionError {
    match e {
        AdmissionError::Full { capacity } => RemoteAdmissionError::Full {
            capacity: *capacity,
        },
        AdmissionError::Duplicate(name) => RemoteAdmissionError::Duplicate(name.clone()),
        AdmissionError::InvalidSpec(msg) => RemoteAdmissionError::InvalidSpec((*msg).to_string()),
        AdmissionError::Resolver(msg) => RemoteAdmissionError::Resolver(msg.clone()),
        AdmissionError::Io(err) => RemoteAdmissionError::Io(err.to_string()),
    }
}

/// Execute one operation against the service. Used by the server handler
/// and, verbatim, by the client's `Degraded(Local)` fallback — the two
/// paths cannot diverge because they are the same function.
fn execute_op(service: &Service, op: &RpcOp, counters: &Mutex<RpcCounters>) -> RpcReply {
    let by_name = |name: &str| service.handle(name);
    match op {
        RpcOp::Submit(spec) => match service.submit(spec.clone()) {
            Ok(_) => RpcReply::Unit,
            Err(AdmissionError::Duplicate(name)) => {
                // Idempotent Submit: a duplicate of the *identical*,
                // durably-admitted spec is a retry, not a conflict.
                if service.spec(&name).map(|s| s.to_bytes()) == Some(spec.to_bytes()) {
                    counters
                        .lock()
                        .expect("counters poisoned")
                        .dup_submits_deduped += 1;
                    RpcReply::Unit
                } else {
                    RpcReply::Admission(RemoteAdmissionError::Duplicate(name))
                }
            }
            Err(e) => RpcReply::Admission(admission_to_remote(&e)),
        },
        RpcOp::Status(name) => match by_name(name) {
            None => RpcReply::UnknownTenant,
            Some(h) => RpcReply::Status(h.status()),
        },
        RpcOp::Health(name) => match by_name(name) {
            None => RpcReply::UnknownTenant,
            Some(h) => RpcReply::Health(h.health()),
        },
        RpcOp::Pause(name) => match by_name(name) {
            None => RpcReply::UnknownTenant,
            Some(h) => {
                h.pause();
                RpcReply::Unit
            }
        },
        RpcOp::Resume(name) => match by_name(name) {
            None => RpcReply::UnknownTenant,
            Some(h) => {
                h.resume();
                RpcReply::Unit
            }
        },
        RpcOp::Kill(name) => match by_name(name) {
            None => RpcReply::UnknownTenant,
            Some(h) => {
                h.kill();
                RpcReply::Unit
            }
        },
        RpcOp::Await(name) => match by_name(name) {
            None => RpcReply::UnknownTenant,
            Some(h) => match h.await_result() {
                Ok(res) => RpcReply::Result(Box::new(res)),
                Err(e) => RpcReply::Service(e),
            },
        },
    }
}

fn handle_conn(shared: &ServerShared, mut conn: Conn) {
    // The raw preamble: client-assigned connection id. Below the frame
    // layer, so below the fault plan.
    let mut preamble = [0u8; CONN_PREAMBLE_LEN];
    if conn.reader.read_exact(&mut preamble).is_err() {
        return;
    }
    let conn_id = u64::from_le_bytes(preamble);
    shared.counters.lock().expect("counters poisoned").connects += 1;
    let mut fc = FramedConn::new(
        conn,
        conn_id,
        1,
        Arc::clone(&shared.faults),
        Arc::clone(&shared.counters),
    );

    // Handshake: Hello{session} → HelloOk{session}.
    let session = match fc.recv() {
        Ok((RK_HELLO, payload)) => {
            let requested = match u64::from_bytes(&payload) {
                Ok(v) => v,
                _ => {
                    shared
                        .counters
                        .lock()
                        .expect("counters poisoned")
                        .protocol_errors += 1;
                    return;
                }
            };
            let mut journal = shared.journal.lock().expect("journal poisoned");
            let mut c = shared.counters.lock().expect("counters poisoned");
            if requested == 0 {
                c.sessions_opened += 1;
                journal.open_session()
            } else {
                c.sessions_resumed += 1;
                journal.note_session(requested);
                requested
            }
        }
        Ok(_) => {
            shared
                .counters
                .lock()
                .expect("counters poisoned")
                .protocol_errors += 1;
            return;
        }
        Err(_) => return,
    };
    let hello_ok = session.to_bytes();
    if fc.send(RK_HELLO_OK, &hello_ok).is_err() {
        return;
    }

    loop {
        match fc.recv() {
            Ok((RK_REQ, payload)) => {
                let (req_id, op) = match <(u64, RpcOp)>::from_bytes(&payload) {
                    Ok(x) => x,
                    Err(_) => {
                        shared
                            .counters
                            .lock()
                            .expect("counters poisoned")
                            .protocol_errors += 1;
                        return;
                    }
                };
                // Exactly-once: answer retries from the journal.
                let cached = shared
                    .journal
                    .lock()
                    .expect("journal poisoned")
                    .lookup(session, req_id);
                let body = match cached {
                    Some(bytes) => {
                        shared
                            .counters
                            .lock()
                            .expect("counters poisoned")
                            .journal_replays += 1;
                        bytes
                    }
                    None => {
                        // Execute outside the journal lock (`Await` blocks),
                        // then journal-or-converge under it.
                        let reply = execute_op(&shared.service, &op, &shared.counters);
                        let bytes = reply.to_bytes();
                        shared
                            .journal
                            .lock()
                            .expect("journal poisoned")
                            .record(session, req_id, bytes)
                    }
                };
                if fc.send(RK_REPLY, &(req_id, body).to_bytes()).is_err() {
                    // The reply is journaled: the client's retry replays it.
                    return;
                }
                shared.counters.lock().expect("counters poisoned").replies += 1;
            }
            // A duplicated Hello frame (fault-injected) — re-ack, idempotently.
            Ok((RK_HELLO, _)) => {
                if fc.send(RK_HELLO_OK, &hello_ok).is_err() {
                    return;
                }
            }
            Ok(_) => {
                shared
                    .counters
                    .lock()
                    .expect("counters poisoned")
                    .protocol_errors += 1;
                return;
            }
            // Disconnects (clean or torn), corrupt frames, timeouts: drop
            // the connection. Server state is untouched — a half-written
            // frame dies here, at the codec boundary.
            Err(_) => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Client-side knobs.
#[derive(Clone)]
pub struct RemoteOptions {
    /// Faults injected on the client's sends (direction 0).
    pub fault_plan: NetFaultPlan,
    /// Attempts per logical call before the ladder's last rung.
    pub max_attempts: u32,
    /// Seed for the backoff jitter (deterministic, like every plan here).
    pub backoff_seed: u64,
    /// Base backoff charge in simulated cycles; doubles per retry.
    pub backoff_base_cycles: u64,
    /// How long a read waits for a reply before the retry ladder engages
    /// (a dropped frame is indistinguishable from a slow peer).
    pub read_timeout: Duration,
    /// Same bound for server-side-blocking `Await` replies. Generous:
    /// an await legitimately takes as long as the campaign.
    pub await_timeout: Duration,
    /// The ladder's last rung: serve calls from this in-process service
    /// when the wire stays down. Sticky once entered.
    pub fallback: Option<Arc<Service>>,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            fault_plan: NetFaultPlan::none(),
            max_attempts: 8,
            backoff_seed: 0x5E55_10F0,
            backoff_base_cycles: 1_000,
            read_timeout: Duration::from_millis(250),
            await_timeout: Duration::from_secs(120),
            fallback: None,
        }
    }
}

struct ClientState {
    conn: Option<FramedConn>,
    session: u64,
    next_req: u64,
    next_conn: u64,
    degraded: bool,
}

struct ClientCore {
    net: MemNet,
    opts: RemoteOptions,
    faults: Arc<Mutex<NetFaults>>,
    counters: Arc<Mutex<RpcCounters>>,
    st: Mutex<ClientState>,
}

/// The remote face of [`Service`]: same verbs, plus a transport that
/// retries, resumes, and degrades instead of crashing. Calls are
/// serialized per client (one session, monotonic request ids); clone the
/// service (or its handles) to share the session across threads.
#[derive(Clone)]
pub struct RemoteService {
    core: Arc<ClientCore>,
}

/// The remote mirror of [`crate::service::CampaignHandle`].
#[derive(Clone)]
pub struct RemoteHandle {
    core: Arc<ClientCore>,
    name: String,
}

impl RemoteService {
    /// Connect and open (or later resume) a session.
    ///
    /// # Errors
    /// The connection/handshake [`RpcError`] — unless a fallback is
    /// configured, in which case the client starts degraded instead.
    pub fn connect(net: &MemNet, opts: RemoteOptions) -> Result<RemoteService, RpcError> {
        let core = Arc::new(ClientCore {
            net: net.clone(),
            faults: NetFaults::shared(opts.fault_plan.clone()),
            counters: Arc::new(Mutex::new(RpcCounters::default())),
            st: Mutex::new(ClientState {
                conn: None,
                session: 0,
                next_req: 1,
                next_conn: 0,
                degraded: false,
            }),
            opts,
        });
        let svc = RemoteService { core };
        {
            let mut st = svc.core.st.lock().expect("client state poisoned");
            let mut attempt = 0u32;
            loop {
                match svc.core.reconnect(&mut st) {
                    Ok(()) => break,
                    Err(e) => {
                        attempt += 1;
                        if attempt >= svc.core.opts.max_attempts {
                            if svc.core.opts.fallback.is_some() {
                                st.degraded = true;
                                break;
                            }
                            return Err(e);
                        }
                        svc.core.backoff(attempt);
                    }
                }
            }
        }
        Ok(svc)
    }

    /// Submit a campaign. Retries are idempotent end to end: the request
    /// id dedupes at the reply journal and the spec dedupes at admission.
    ///
    /// # Errors
    /// [`RemoteError`] — admission refusal or exhausted transport.
    pub fn submit(&self, spec: CampaignSpec) -> Result<RemoteHandle, RemoteError> {
        let name = spec.name.clone();
        match self.core.call(&RpcOp::Submit(spec))? {
            RpcReply::Unit => Ok(RemoteHandle {
                core: Arc::clone(&self.core),
                name,
            }),
            RpcReply::Admission(e) => Err(RemoteError::Admission(e)),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Look up a campaign by name; `Ok(None)` if the server has no such
    /// tenant.
    ///
    /// # Errors
    /// [`RemoteError`] on transport failure.
    pub fn handle(&self, name: &str) -> Result<Option<RemoteHandle>, RemoteError> {
        match self.core.call(&RpcOp::Status(name.to_string()))? {
            RpcReply::Status(_) => Ok(Some(RemoteHandle {
                core: Arc::clone(&self.core),
                name: name.to_string(),
            })),
            RpcReply::UnknownTenant => Ok(None),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// This client's transport counters.
    pub fn counters(&self) -> RpcCounters {
        self.core
            .counters
            .lock()
            .expect("counters poisoned")
            .clone()
    }

    /// Where calls are currently served: the wire, or the local fallback.
    pub fn served_by(&self) -> ServedBy {
        if self.core.st.lock().expect("client state poisoned").degraded {
            ServedBy::Degraded(Degraded::Local)
        } else {
            ServedBy::Remote
        }
    }

    /// The server-assigned session id (0 while degraded-from-birth).
    pub fn session(&self) -> u64 {
        self.core.st.lock().expect("client state poisoned").session
    }
}

fn unexpected_reply(reply: &RpcReply) -> RemoteError {
    match reply {
        RpcReply::Service(e) => RemoteError::Service(match e {
            ServiceError::Killed { execs } => ServiceError::Killed { execs: *execs },
            ServiceError::Failed(m) => ServiceError::Failed(m.clone()),
            ServiceError::ShutDown => ServiceError::ShutDown,
        }),
        _ => RemoteError::Rpc(RpcError::Protocol("unexpected reply variant")),
    }
}

impl std::fmt::Debug for RemoteHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteHandle")
            .field("name", &self.name)
            .finish()
    }
}

impl RemoteHandle {
    /// The tenant name this handle addresses.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn named_call(&self, op: RpcOp) -> Result<RpcReply, RemoteError> {
        match self.core.call(&op)? {
            RpcReply::UnknownTenant => Err(RemoteError::UnknownTenant(self.name.clone())),
            reply => Ok(reply),
        }
    }

    /// Remote [`crate::service::CampaignHandle::status`].
    ///
    /// # Errors
    /// [`RemoteError`] on transport failure or unknown tenant.
    pub fn status(&self) -> Result<CampaignState, RemoteError> {
        match self.named_call(RpcOp::Status(self.name.clone()))? {
            RpcReply::Status(s) => Ok(s),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Remote [`crate::service::CampaignHandle::health`].
    ///
    /// # Errors
    /// [`RemoteError`] on transport failure or unknown tenant.
    pub fn health(&self) -> Result<Option<HealthReport>, RemoteError> {
        match self.named_call(RpcOp::Health(self.name.clone()))? {
            RpcReply::Health(h) => Ok(h),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Remote [`crate::service::CampaignHandle::pause`].
    ///
    /// # Errors
    /// [`RemoteError`] on transport failure or unknown tenant.
    pub fn pause(&self) -> Result<(), RemoteError> {
        match self.named_call(RpcOp::Pause(self.name.clone()))? {
            RpcReply::Unit => Ok(()),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Remote [`crate::service::CampaignHandle::resume`].
    ///
    /// # Errors
    /// [`RemoteError`] on transport failure or unknown tenant.
    pub fn resume(&self) -> Result<(), RemoteError> {
        match self.named_call(RpcOp::Resume(self.name.clone()))? {
            RpcReply::Unit => Ok(()),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Remote [`crate::service::CampaignHandle::kill`].
    ///
    /// # Errors
    /// [`RemoteError`] on transport failure or unknown tenant.
    pub fn kill(&self) -> Result<(), RemoteError> {
        match self.named_call(RpcOp::Kill(self.name.clone()))? {
            RpcReply::Unit => Ok(()),
            other => Err(unexpected_reply(&other)),
        }
    }

    /// Remote [`crate::service::CampaignHandle::await_result`]: blocks
    /// until the campaign is terminal (the server blocks; the client
    /// waits with the `await_timeout` and the usual retry ladder — a
    /// retried await is answered from the reply journal, not re-run).
    ///
    /// # Errors
    /// [`RemoteError::Service`] for killed/failed campaigns,
    /// [`RemoteError::Rpc`] for exhausted transport.
    pub fn await_result(&self) -> Result<CampaignResult, RemoteError> {
        match self.named_call(RpcOp::Await(self.name.clone()))? {
            RpcReply::Result(res) => Ok(*res),
            RpcReply::Service(e) => Err(RemoteError::Service(e)),
            other => Err(unexpected_reply(&other)),
        }
    }
}

impl ClientCore {
    /// Dial, preamble, handshake. On success the connection is installed
    /// in `st` and the session id is confirmed (or freshly assigned).
    fn reconnect(&self, st: &mut ClientState) -> Result<(), RpcError> {
        st.conn = None;
        let mut conn = self.net.connect()?;
        let conn_id = st.next_conn;
        st.next_conn += 1;
        conn.writer
            .write_all(&conn_id.to_le_bytes())
            .map_err(|e| io_to_rpc(FrameError::Io(e.kind())))?;
        conn.set_read_timeout(Some(self.opts.read_timeout));
        let mut fc = FramedConn::new(
            conn,
            conn_id,
            0,
            Arc::clone(&self.faults),
            Arc::clone(&self.counters),
        );
        let resuming = st.session != 0;
        fc.send(RK_HELLO, &st.session.to_bytes())?;
        match fc.recv()? {
            (RK_HELLO_OK, payload) => {
                let session = match u64::from_bytes(&payload) {
                    Ok(v) if v != 0 => v,
                    _ => return Err(RpcError::Protocol("bad hello-ok")),
                };
                let mut c = self.counters.lock().expect("counters poisoned");
                c.connects += 1;
                if resuming && session == st.session {
                    c.sessions_resumed += 1;
                }
                st.session = session;
                st.conn = Some(fc);
                Ok(())
            }
            // Stale replies from a previous connection's duplicate cannot
            // appear on a fresh pipe; anything else is noise.
            _ => Err(RpcError::Protocol("expected hello-ok")),
        }
    }

    /// Seeded exponential backoff, charged in simulated cycles (the
    /// deterministic observable) with a token real sleep to keep retry
    /// storms polite.
    fn backoff(&self, attempt: u32) {
        let step = self.opts.backoff_base_cycles << attempt.min(10);
        let jitter = splitmix64(self.opts.backoff_seed ^ u64::from(attempt)) % (step / 2 + 1);
        let cycles = step + jitter;
        self.counters
            .lock()
            .expect("counters poisoned")
            .backoff_cycles += cycles;
        std::thread::sleep(Duration::from_micros((cycles / 100).min(2_000)));
    }

    /// The retry ladder. One request id for the whole call: every resend
    /// is the *same* request, so the server executes it at most once.
    fn call(&self, op: &RpcOp) -> Result<RpcReply, RpcError> {
        let mut st = self.st.lock().expect("client state poisoned");
        self.counters.lock().expect("counters poisoned").requests += 1;
        if st.degraded {
            return self.call_local(op);
        }
        let req_id = st.next_req;
        st.next_req += 1;
        let body = (req_id, op.clone()).to_bytes();
        let reply_timeout = if matches!(op, RpcOp::Await(_)) {
            self.opts.await_timeout
        } else {
            self.opts.read_timeout
        };
        let mut attempt = 0u32;
        loop {
            if attempt >= self.opts.max_attempts {
                if self.opts.fallback.is_some() {
                    st.degraded = true;
                    st.conn = None;
                    return self.call_local(op);
                }
                return Err(RpcError::Unavailable { attempts: attempt });
            }
            if attempt > 0 {
                self.counters.lock().expect("counters poisoned").retries += 1;
                self.backoff(attempt);
            }
            attempt += 1;
            if st.conn.is_none() && self.reconnect(&mut st).is_err() {
                continue;
            }
            let fc = st.conn.as_mut().expect("connection installed above");
            if fc.send(RK_REQ, &body).is_err() {
                st.conn = None;
                continue;
            }
            fc.conn.set_read_timeout(Some(reply_timeout));
            // Read until our reply arrives; skip duplicates and stale
            // replies (smaller request ids), which journal dedup makes
            // harmless.
            loop {
                match fc.recv() {
                    Ok((RK_REPLY, payload)) => {
                        match <(u64, Vec<u8>)>::from_bytes(&payload) {
                            Ok((rid, reply_body)) => {
                                if rid == req_id {
                                    fc.conn.set_read_timeout(Some(self.opts.read_timeout));
                                    match RpcReply::from_bytes(&reply_body) {
                                        Ok(reply) => {
                                            self.counters
                                                .lock()
                                                .expect("counters poisoned")
                                                .replies += 1;
                                            return Ok(reply);
                                        }
                                        Err(_) => {
                                            return Err(RpcError::Protocol("undecodable reply"))
                                        }
                                    }
                                }
                                // Stale or duplicated reply: skip.
                            }
                            _ => {
                                self.counters
                                    .lock()
                                    .expect("counters poisoned")
                                    .protocol_errors += 1;
                                st.conn = None;
                                break;
                            }
                        }
                    }
                    // A duplicated HelloOk is harmless handshake noise.
                    Ok((RK_HELLO_OK, _)) => {}
                    Ok(_) => {
                        self.counters
                            .lock()
                            .expect("counters poisoned")
                            .protocol_errors += 1;
                        st.conn = None;
                        break;
                    }
                    Err(_) => {
                        st.conn = None;
                        break;
                    }
                }
            }
        }
    }

    /// The ladder's last rung: the identical operation, executed against
    /// the in-process fallback service by the same `execute_op` the
    /// server uses.
    fn call_local(&self, op: &RpcOp) -> Result<RpcReply, RpcError> {
        let service = self
            .opts
            .fallback
            .as_ref()
            .expect("call_local only reachable with a fallback");
        let reply = execute_op(service, op, &self.counters);
        let mut c = self.counters.lock().expect("counters poisoned");
        c.replies += 1;
        c.degraded_calls += 1;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ResumeReport;

    fn framed_pair(
        plan: NetFaultPlan,
    ) -> (FramedConn, FramedConn, Arc<Mutex<RpcCounters>>, MemNet) {
        framed_pair_sharing(&NetFaults::shared(plan))
    }

    /// A connected pair on conn id 0 whose ends inject from `faults`.
    fn framed_pair_sharing(
        faults: &Arc<Mutex<NetFaults>>,
    ) -> (FramedConn, FramedConn, Arc<Mutex<RpcCounters>>, MemNet) {
        let net = MemNet::new();
        let listener = net.listen();
        let client = net.connect().expect("listener registered");
        let server = listener.accept().expect("one queued conn");
        let counters = Arc::new(Mutex::new(RpcCounters::default()));
        (
            FramedConn::new(client, 0, 0, Arc::clone(faults), Arc::clone(&counters)),
            FramedConn::new(server, 0, 1, Arc::clone(faults), Arc::clone(&counters)),
            counters,
            net,
        )
    }

    #[test]
    fn pipe_streams_blocks_and_eofs() {
        let (mut w, mut r) = pipe();
        w.write_all(b"abc").unwrap();
        let mut buf = [0u8; 2];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ab");
        drop(w);
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"c");
        // Closed + drained = EOF.
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn pipe_read_times_out() {
        let (_w, mut r) = pipe();
        r.timeout = Some(Duration::from_millis(10));
        let mut buf = [0u8; 1];
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }

    #[test]
    fn memnet_refuses_without_listener() {
        let net = MemNet::new();
        assert!(matches!(net.connect(), Err(RpcError::Refused)));
        let listener = net.listen();
        assert!(net.connect().is_ok());
        drop(listener);
        assert!(matches!(net.connect(), Err(RpcError::Refused)));
    }

    #[test]
    fn new_listener_displaces_the_old_one() {
        let net = MemNet::new();
        let old = net.listen();
        let new = net.listen();
        assert!(net.connect().is_ok());
        // The displaced listener sees end-of-accepts, not the new backlog.
        assert!(old.accept().is_none());
        assert!(new.accept().is_some());
    }

    #[test]
    fn reserved_warm_source_tag_is_malformed() {
        let rep = ResumeReport {
            decoded_image_source: Some(vmos::WarmSource::Lowered),
            ..ResumeReport::default()
        };
        let mut bytes = rep.to_bytes();
        assert_eq!(ResumeReport::from_bytes(&bytes), Ok(rep));
        // The warm-source tag is the last byte; tag 2 is reserved.
        *bytes.last_mut().expect("tag byte") = 2;
        assert_eq!(
            ResumeReport::from_bytes(&bytes),
            Err(vmos::WireError::Malformed("warm source tag"))
        );
    }

    #[test]
    fn journal_dedupes_bounds_and_persists() {
        let dir = tempdir("rpc-journal");
        let path = dir.join(RPC_JOURNAL_FILE);
        let mut j = ReplyJournal::load(path.clone(), 3, 1 << 20);
        let s = j.open_session();
        assert_eq!(s, 1);
        // Insert-if-absent: the first write wins, a racing retry converges.
        assert_eq!(j.record(s, 1, b"first".to_vec()), b"first".to_vec());
        assert_eq!(j.record(s, 1, b"second".to_vec()), b"first".to_vec());
        assert_eq!(j.lookup(s, 1), Some(b"first".to_vec()));
        // Bounded window: old replies age out.
        for req in 2..=5 {
            j.record(s, req, vec![req as u8]);
        }
        assert_eq!(j.lookup(s, 1), None);
        assert_eq!(j.lookup(s, 5), Some(vec![5]));
        // Reload: durable across a server restart; session ids advance.
        let mut j2 = ReplyJournal::load(path.clone(), 3, 1 << 20);
        assert_eq!(j2.lookup(s, 5), Some(vec![5]));
        assert_eq!(j2.lookup(s, 1), None);
        assert_eq!(j2.open_session(), 2);
        // A torn tail (killed mid-append) is tolerated, prefix trusted.
        // The tail must get past the 9-byte length prefix to count as a
        // *tear* rather than a clean EOF (the §15 split).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&vmos::FRAME_MAGIC);
        bytes.push(JK_REPLY);
        bytes.extend_from_slice(&20u32.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 3]); // 3 of 8 checksum bytes
        std::fs::write(&path, &bytes).unwrap();
        let j3 = ReplyJournal::load(path, 3, 1 << 20);
        assert_eq!(j3.lookup(s, 5), Some(vec![5]));
        assert_eq!(j3.warnings, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn journal_compaction_drops_evicted_records() {
        let dir = tempdir("rpc-compact");
        let path = dir.join(RPC_JOURNAL_FILE);
        // Tiny compaction threshold: every record triggers a rewrite.
        let mut j = ReplyJournal::load(path.clone(), 2, 4096);
        let s = j.open_session();
        for req in 0..64 {
            j.record(s, req, vec![0u8; 128]);
        }
        assert!(j.warnings == 0, "compaction should not warn");
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert!(
            on_disk < 4096,
            "compaction keeps the file near the bounded window, got {on_disk}"
        );
        let j2 = ReplyJournal::load(path, 2, 4096);
        assert_eq!(j2.lookup(s, 63), Some(vec![0u8; 128]));
        assert_eq!(j2.lookup(s, 0), None);
        std::fs::remove_dir_all(dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aflrs-{tag}-{}-{:x}",
            std::process::id(),
            std::ptr::addr_of!(tag) as usize
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir tempdir");
        dir
    }

    #[test]
    fn fault_drop_loses_the_frame() {
        let (mut client, mut server, counters, _net) =
            framed_pair(NetFaultPlan::at((0, 0, 0), NetFaultKind::Drop));
        client.send(RK_REQ, b"gone").expect("drop is silent");
        server
            .conn
            .set_read_timeout(Some(Duration::from_millis(20)));
        assert_eq!(server.recv().unwrap_err(), RpcError::Timeout);
        // The stream survives: the next frame arrives (fires consumed).
        client.send(RK_REQ, b"kept").unwrap();
        assert_eq!(server.recv().unwrap(), (RK_REQ, b"kept".to_vec()));
        let c = counters.lock().unwrap();
        assert_eq!(c.frames_dropped, 1);
        assert_eq!(c.timeouts, 1);
    }

    #[test]
    fn fault_duplicate_arrives_twice() {
        let (mut client, mut server, counters, _net) =
            framed_pair(NetFaultPlan::at((0, 0, 0), NetFaultKind::Duplicate));
        client.send(RK_REQ, b"twin").unwrap();
        assert_eq!(server.recv().unwrap(), (RK_REQ, b"twin".to_vec()));
        assert_eq!(server.recv().unwrap(), (RK_REQ, b"twin".to_vec()));
        assert_eq!(counters.lock().unwrap().frames_duplicated, 1);
    }

    #[test]
    fn fault_corrupt_is_detected_not_desynced() {
        let (mut client, mut server, counters, _net) =
            framed_pair(NetFaultPlan::at((0, 0, 0), NetFaultKind::Corrupt));
        client.send(RK_REQ, b"mangle me").unwrap();
        assert_eq!(server.recv().unwrap_err(), RpcError::CorruptFrame);
        let c = counters.lock().unwrap();
        assert_eq!(c.frames_corrupted, 1);
        assert_eq!(c.corrupt_frames_seen, 1);
    }

    #[test]
    fn fault_disconnect_is_a_clean_eof() {
        let (mut client, mut server, counters, _net) =
            framed_pair(NetFaultPlan::at((0, 0, 0), NetFaultKind::Disconnect));
        assert_eq!(
            client.send(RK_REQ, b"never sent").unwrap_err(),
            RpcError::Disconnected { clean: true }
        );
        assert_eq!(
            server.recv().unwrap_err(),
            RpcError::Disconnected { clean: true }
        );
        let c = counters.lock().unwrap();
        assert_eq!(c.disconnects_injected, 1);
        assert_eq!(c.clean_disconnects, 1);
    }

    #[test]
    fn fault_partial_frame_is_a_torn_disconnect() {
        let (mut client, mut server, counters, _net) =
            framed_pair(NetFaultPlan::at((0, 0, 0), NetFaultKind::PartialFrame));
        assert_eq!(
            client.send(RK_REQ, b"cut short").unwrap_err(),
            RpcError::Disconnected { clean: false }
        );
        assert_eq!(
            server.recv().unwrap_err(),
            RpcError::Disconnected { clean: false }
        );
        let c = counters.lock().unwrap();
        assert_eq!(c.partial_frames, 1);
        assert_eq!(c.torn_disconnects, 1);
    }

    #[test]
    fn fault_delay_charges_simulated_cycles() {
        let (mut client, mut server, counters, _net) =
            framed_pair(NetFaultPlan::at((0, 0, 0), NetFaultKind::Delay));
        client.send(RK_REQ, b"late").unwrap();
        assert_eq!(server.recv().unwrap(), (RK_REQ, b"late".to_vec()));
        let c = counters.lock().unwrap();
        assert_eq!(c.frames_delayed, 1);
        assert!(c.delay_cycles >= 1_000);
    }

    #[test]
    fn directions_are_independent_positions() {
        // A fault targeted at direction 1 leaves direction 0 untouched.
        let (mut client, mut server, _counters, _net) =
            framed_pair(NetFaultPlan::at((0, 1, 0), NetFaultKind::Drop));
        client.send(RK_REQ, b"c2s").unwrap();
        assert_eq!(server.recv().unwrap(), (RK_REQ, b"c2s".to_vec()));
        server.send(RK_REPLY, b"s2c dropped").unwrap();
        client
            .conn
            .set_read_timeout(Some(Duration::from_millis(20)));
        assert_eq!(client.recv().unwrap_err(), RpcError::Timeout);
    }

    #[test]
    fn single_shot_fault_fires_once_per_endpoint() {
        // Two clients both open their conn 0 to one server, so the
        // server's replies on both connections share positions: the
        // single-shot fault at (0, 1, 1) fires on the first connection
        // that sends there and never again.
        let server_faults = NetFaults::shared(NetFaultPlan::at((0, 1, 1), NetFaultKind::Drop));
        let (mut c1, mut s1, counters1, _n1) = framed_pair_sharing(&server_faults);
        let (mut c2, mut s2, counters2, _n2) = framed_pair_sharing(&server_faults);
        for (client, server) in [(&mut c1, &mut s1), (&mut c2, &mut s2)] {
            server.send(RK_REPLY, b"frame 0").unwrap();
            server.send(RK_REPLY, b"frame 1").unwrap();
            server.send(RK_REPLY, b"frame 2").unwrap();
            client
                .conn
                .set_read_timeout(Some(Duration::from_millis(20)));
            assert_eq!(client.recv().unwrap(), (RK_REPLY, b"frame 0".to_vec()));
        }
        assert_eq!(
            c1.recv().unwrap(),
            (RK_REPLY, b"frame 2".to_vec()),
            "frame 1 dropped"
        );
        assert_eq!(
            c2.recv().unwrap(),
            (RK_REPLY, b"frame 1".to_vec()),
            "spent fault"
        );
        assert_eq!(counters1.lock().unwrap().frames_dropped, 1);
        assert_eq!(counters2.lock().unwrap().frames_dropped, 0);
    }

    #[test]
    fn only_targeted_sites_count_their_firings() {
        let plan = NetFaultPlan::uniform(1, 1.0, |k| !k.kills_connection());
        let faults = NetFaults::shared(plan.clone());
        let mut faults = faults.lock().unwrap();
        for frame in 0..64 {
            let (fault, _) = faults.on_send((0, 0, frame));
            assert_eq!(fault, plan.decide((0, 0, frame), 0));
            assert!(fault.is_some());
        }
        assert!(
            faults.fired.is_empty(),
            "a lossy plan keeps no per-frame state"
        );
    }
}
