//! The traced run's spans, kept in memory and written out when it ends.
//!
//! Span kinds nest workload → set-up / campaign (tenant) → Submit and
//! Status calls, lane executor `run()`s and the gaps between them. Every
//! span of one campaign carries its campaign id.

use std::fmt::Write as _;
use std::path::Path;

use crate::run::Record;
use crate::wrap::LaneLog;

/// `run()` and gap spans written per lane: every span stays in memory
/// for the metrics, but the file keeps only each lane's first ones.
const EXEC_SPANS_PER_LANE: usize = 200;

/// Write the spans of a traced run as tab-separated lines:
/// `id parent campaign kind name start_ns end_ns`. Returns the number of
/// spans written.
pub fn write(
    path: &Path,
    workload: &str,
    window: (u64, u64),
    setup: &[(u64, u64)],
    recs: &[Record],
    logs: &[LaneLog],
) -> std::io::Result<usize> {
    let mut out = String::from("id\tparent\tcampaign\tkind\tname\tstart_ns\tend_ns\n");
    let mut next = 0u64;
    let mut span = |out: &mut String,
                    parent: u64,
                    campaign: Option<u32>,
                    kind: &str,
                    name: &str,
                    (s, e): (u64, u64)| {
        next += 1;
        let c = campaign.map_or_else(|| "-".to_string(), |c| c.to_string());
        let _ = writeln!(out, "{next}\t{parent}\t{c}\t{kind}\t{name}\t{s}\t{e}");
        next
    };
    let root = span(&mut out, 0, None, "workload", workload, window);
    for (i, &s) in setup.iter().enumerate() {
        span(&mut out, root, None, "setup", &format!("rep{i}"), s);
    }
    for rec in recs.iter().filter(|r| r.traced) {
        let id = rec.trace_id();
        let c = span(
            &mut out,
            root,
            Some(id),
            "campaign",
            rec.plan.target,
            rec.span,
        );
        if let Some(s) = rec.submit {
            span(&mut out, c, Some(id), "submit", "rpc", s);
        }
        for &s in &rec.status_calls {
            span(&mut out, c, Some(id), "status", "rpc", s);
        }
        for (lane, log) in logs.iter().filter(|g| g.campaign == id).enumerate() {
            let name = format!("lane{lane}{}", if log.worker { "-worker" } else { "" });
            for &r in log.runs.iter().take(EXEC_SPANS_PER_LANE) {
                span(&mut out, c, Some(id), "run", &name, r);
            }
            for (s, e, barrier) in log.classified_gaps().take(EXEC_SPANS_PER_LANE) {
                let kind = if barrier { "barrier_gap" } else { "driver_gap" };
                span(&mut out, c, Some(id), kind, &name, (s, e));
            }
        }
    }
    std::fs::write(path, out)?;
    Ok(next as usize)
}
