//! Engine selection: decoded fast path vs. reference interpreter.
//!
//! The decoded-bytecode engine (see [`crate::decoded`]) and the coverage
//! fast paths are *host-speed* optimizations: they must leave every
//! simulated observable — cycle counts, coverage hashes, crash sites,
//! checkpoint bytes — bit-for-bit identical to the original tree-walking
//! interpreter. To make that claim testable, two thread-scoped guards
//! select what the current thread runs:
//!
//! * [`ReferenceEngineGuard`] (or [`set_reference_engine`]) selects the
//!   original interpreter, the oracle. Campaigns carry this choice to
//!   their shard threads and worker processes, so the equivalence gates,
//!   the `exec_throughput` bench and perfbench can run both engines in
//!   one binary;
//! * [`DecodeOptGuard`] pins the decoded engine's plain 1:1 stream
//!   instead of the optimized one. It covers the current thread only;
//!   the three-way equivalence gate, `opt_bisect` and the `decode_opt`
//!   bench use it on single-driver campaigns.
//!
//! Both switches are thread-local so parallel trials can pin different
//! engines without racing each other.

use std::cell::Cell;

thread_local! {
    static FORCE_REFERENCE: Cell<bool> = const { Cell::new(false) };
    static DISABLE_DECODE_OPT: Cell<bool> = const { Cell::new(false) };
}

/// Force (or stop forcing) the reference interpreter and the pre-change
/// coverage scan on the **current thread**. No-op for other threads.
pub fn set_reference_engine(on: bool) {
    FORCE_REFERENCE.with(|c| c.set(on));
}

/// Is the current thread on the reference (pre-change) path? True when
/// [`set_reference_engine`] was called with `true` on this thread.
#[inline]
pub fn reference_engine() -> bool {
    FORCE_REFERENCE.with(Cell::get)
}

/// RAII guard: reference engine on while alive, restored on drop. Keeps
/// tests from leaking the thread-local into later tests on a pooled
/// thread.
#[derive(Debug)]
pub struct ReferenceEngineGuard {
    prev: bool,
}

impl ReferenceEngineGuard {
    /// Switch the current thread to the reference engine until drop.
    pub fn new() -> Self {
        let prev = FORCE_REFERENCE.with(Cell::get);
        set_reference_engine(true);
        ReferenceEngineGuard { prev }
    }
}

impl Default for ReferenceEngineGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ReferenceEngineGuard {
    fn drop(&mut self) {
        set_reference_engine(self.prev);
    }
}

/// Should the decoded engine use optimized streams on this thread? False
/// while a [`DecodeOptGuard`] is alive here.
#[inline]
pub fn decode_opt() -> bool {
    !DISABLE_DECODE_OPT.with(Cell::get)
}

/// RAII guard: decode-time optimization **off** on the current thread
/// while alive, previous state restored on drop. The decoded engine then
/// runs the plain 1:1 streams — still the fast engine, just unoptimized.
/// Threads and worker processes a campaign spawns do not inherit it.
#[derive(Debug)]
pub struct DecodeOptGuard {
    prev: bool,
}

impl DecodeOptGuard {
    /// Disable optimized streams on the current thread until drop.
    pub fn new() -> Self {
        let prev = DISABLE_DECODE_OPT.with(Cell::get);
        DISABLE_DECODE_OPT.with(|c| c.set(true));
        DecodeOptGuard { prev }
    }
}

impl Default for DecodeOptGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for DecodeOptGuard {
    fn drop(&mut self) {
        DISABLE_DECODE_OPT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_opt_guard_pins_plain_streams_and_restores() {
        assert!(decode_opt());
        {
            let _g = DecodeOptGuard::new();
            assert!(!decode_opt());
            {
                let _inner = DecodeOptGuard::new();
                assert!(!decode_opt());
            }
            assert!(!decode_opt(), "outer guard still active");
        }
        assert!(decode_opt());
    }

    #[test]
    fn decode_opt_switch_is_thread_local() {
        let _g = DecodeOptGuard::new();
        let other = std::thread::spawn(decode_opt).join().unwrap();
        assert!(other, "other threads keep optimization on");
    }

    #[test]
    fn guard_restores_previous_state() {
        assert!(!reference_engine());
        {
            let _g = ReferenceEngineGuard::new();
            assert!(reference_engine());
            {
                let _inner = ReferenceEngineGuard::new();
                assert!(reference_engine());
            }
            assert!(reference_engine(), "outer guard still active");
        }
        assert!(!reference_engine());
    }

    #[test]
    fn switch_is_thread_local() {
        let _g = ReferenceEngineGuard::new();
        let other = std::thread::spawn(reference_engine).join().unwrap();
        assert!(!other, "other threads keep the default engine");
    }
}
