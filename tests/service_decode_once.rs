//! Service restore decodes once: 100 same-target tenants, killed and
//! restored against a cold decoded-image cache, cost one module lowering.
//! The decode counters are process-global, so this
//! cell has a test binary, and a single `#[test]`, of its own.

use bench::planes::{check, service};

#[test]
fn restore_decodes_once() {
    check(service::restore_decodes_once);
}
