//! The benchmark's own arithmetic: order statistics, tail-percentile
//! selection, span self time and the derived per-layer ratios. Pure
//! functions, unit-tested below.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The percentile ladder tails are reported on.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon absorbs decimal percentiles such as 99.9 not being exact).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64) / 100.0 - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()).min(sorted.len()) - 1]
}

/// The highest percentile on [`TAIL_LADDER`] with at least ten samples
/// strictly beyond its rank, and its value. `None` below 20 samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n >= rank(p, n) + 10)
        .map(|&p| (p, percentile(&sorted, p)))
}

/// One recorded span: `[start, end]` seconds since the tracer's origin,
/// with the id of the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (index into the trace).
    pub id: usize,
    /// Causing span, `None` for a root.
    pub parent: Option<usize>,
    /// Layer-qualified name (`test.T2`, `campaign.start`, …).
    pub name: String,
    /// Start, seconds since the trace origin.
    pub start: f64,
    /// End, seconds since the trace origin (== start for events).
    pub end: f64,
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children counted once).
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let span = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(span.start), s.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (a, b) in children {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (span.end - span.start) - covered
}

/// Worker time the campaign queue left unused: `workers × wall − Σ busy`.
pub fn idle_s(workers: usize, wall_s: f64, busy_s: f64) -> f64 {
    workers as f64 * wall_s - busy_s
}

/// Useful fuzz outcomes per attempt: corpus admissions over executions
/// (0 when nothing ran).
pub fn admit_rate(corpus_len: u64, execs: u64) -> f64 {
    if execs == 0 {
        0.0
    } else {
        corpus_len as f64 / execs as f64
    }
}

/// Process CPU seconds over the worker-seconds the wall time offered.
pub fn cpu_util(cpu_s: f64, wall_s: f64, workers: usize) -> f64 {
    if wall_s <= 0.0 || workers == 0 {
        0.0
    } else {
        cpu_s / (wall_s * workers as f64)
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a hash (fingerprints report bytes and the benchmark
/// binary).
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start,
            end,
        }
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sample = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
        // Too few samples for even the median to have ten beyond it.
        assert_eq!(tail(&sample(19)), None);
        assert_eq!(tail(&sample(20)), Some((50.0, 10.0)));
        // 99 samples: p90 has rank 90, nine beyond — only p50 qualifies.
        assert_eq!(tail(&sample(99)), Some((50.0, 50.0)));
        assert_eq!(tail(&sample(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&sample(999)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&sample(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&sample(10_000)).map(|t| t.0), Some(99.9));
        // Order of the input does not matter.
        let mut shuffled = sample(1000);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), Some((99.0, 990.0)));
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 3.0),
            // Overlaps child 1: the union [1, 4] counts once.
            span(2, Some(0), 2.0, 4.0),
            // A grandchild is covered by its parent, not subtracted again.
            span(3, Some(2), 2.5, 3.5),
            // Runs past the parent's end: clipped to [8, 10].
            span(4, Some(0), 8.0, 12.0),
            // An event (zero length) covers nothing.
            span(5, Some(0), 6.0, 6.0),
        ];
        // Children cover [1, 4] and [8, 10]: five of ten seconds.
        assert!((self_time(&spans, 0) - 5.0).abs() < 1e-12);
        assert!((self_time(&spans, 2) - 1.0).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 1.0).abs() < 1e-12);
        assert_eq!(self_time(&spans, 5), 0.0);
    }

    #[test]
    fn idle_time_is_offered_minus_busy_worker_seconds() {
        assert_eq!(idle_s(2, 50.0, 80.0), 20.0);
        assert_eq!(idle_s(1, 10.0, 10.0), 0.0);
        // Nested explorer threads can make busy exceed what the queue
        // offered; the difference goes negative rather than clamping.
        assert_eq!(idle_s(1, 10.0, 14.0), -4.0);
    }

    #[test]
    fn admit_rate_is_corpus_over_execs() {
        assert_eq!(admit_rate(0, 0), 0.0);
        assert_eq!(admit_rate(25, 100), 0.25);
        assert_eq!(admit_rate(100, 100), 1.0);
    }

    #[test]
    fn cpu_util_and_ratio_guard_zero_denominators() {
        assert_eq!(cpu_util(30.0, 10.0, 2), 1.5);
        assert_eq!(cpu_util(1.0, 0.0, 2), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
