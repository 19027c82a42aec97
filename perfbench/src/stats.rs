//! Percentiles, medians and span self time.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_SUPPORT`] samples beyond it; a layer's self time is
//! its span minus the union of its children's intervals, so children that
//! overlap (two service workers, two process lanes) are not counted twice.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_SUPPORT: usize = 10;

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` in `n > 0` samples (the epsilon
/// keeps `99.9 × 10 000 / 100` from rounding up past an exact rank).
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending).
/// `None` on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_SUPPORT`] of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_SUPPORT)
}

/// Median (mean of the two middle values on an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A sample summarised the way every timing is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` of the supported tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `xs`; `None` on an empty sample.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let p50 = median(&v)?;
        let tail = tail_percentile(v.len()).and_then(|p| Some((p, percentile(&v, p)?)));
        Some(Summary {
            n: v.len(),
            p50,
            tail,
        })
    }

    /// The value at `p`, if the sample supports it (≥ [`TAIL_SUPPORT`]
    /// samples beyond); otherwise the highest supported tail.
    pub fn at_most(xs: &[f64], p: f64) -> Option<(f64, f64)> {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let p = if beyond(v.len(), p) >= TAIL_SUPPORT {
            p
        } else {
            tail_percentile(v.len())?
        };
        Some((p, percentile(&v, p)?))
    }
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of `span`: its length minus the part of it that the union
/// of `children` covers (children are clipped to the span).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (s, e) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(cs, ce)| (cs.max(s), ce.min(e)))
        .collect();
    e.saturating_sub(s) - union_len(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it; p99.9 leaves 1.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        // 999 samples: p99 leaves 9, so the tail falls back to p95.
        assert_eq!(tail_percentile(999), Some(95.0));
        // 10 000 samples support p99.9.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 20 samples: p50 leaves 10 beyond it; 19 cannot support a tail.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn at_most_falls_back_to_supported_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 of 200 samples has 2 beyond: fall back to p95 (10 beyond).
        assert_eq!(Summary::at_most(&v, 99.0), Some((95.0, 190.0)));
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (200, 100.5, Some((95.0, 190.0))));
    }

    #[test]
    fn self_time_without_children_is_the_span() {
        assert_eq!(self_time((10, 50), &[]), 40);
    }

    #[test]
    fn self_time_with_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 60)]), 60);
    }

    #[test]
    fn self_time_under_overlapping_children_of_two_workers() {
        // A tenant span with lane spans from two service workers that
        // overlap in time: covered = [10, 70) ∪ [80, 90) = 70.
        let worker_a = [(10, 40), (45, 70)];
        let worker_b = [(20, 50), (80, 90)];
        let children: Vec<_> = worker_a.iter().chain(&worker_b).copied().collect();
        assert_eq!(self_time((0, 100), &children), 30);
    }

    #[test]
    fn self_time_under_overlapping_lanes_clipped_to_the_span() {
        // Two process lanes whose runs overrun the campaign span on both
        // sides; only the in-span part counts, and never twice.
        let lanes = [(0, 30), (5, 25), (20, 60), (90, 200)];
        assert_eq!(self_time((10, 100), &lanes), 90 - 50 - 10);
        assert_eq!(union_len(&lanes), 60 + 110);
    }

    #[test]
    fn self_time_with_nested_and_empty_children() {
        assert_eq!(self_time((0, 10), &[(2, 8), (3, 4), (5, 5), (9, 7)]), 4);
    }
}
