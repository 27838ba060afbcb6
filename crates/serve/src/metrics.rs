//! Daemon observability: latency histograms and response counters.
//!
//! The histogram uses fixed log-spaced millisecond buckets so `/metrics` can
//! report p50/p99 without storing every sample. Quantiles are read from the
//! bucket upper bounds, capped at the largest sample — coarse, but monotone
//! and constant-memory, which is what a long-running daemon wants.

use std::collections::BTreeMap;

/// Upper bounds (milliseconds) of the histogram buckets, 1-2-5 steps from
/// 5 µs (a stored hit takes a few µs of server time) to 60 s; a final
/// implicit overflow bucket catches everything above the last bound.
const BUCKET_BOUNDS_MS: [f64; 22] = [
    0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0, 20000.0, 60000.0,
];

/// A fixed-bucket latency histogram over milliseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// One count per bound, plus the overflow bucket at the end.
    counts: [u64; BUCKET_BOUNDS_MS.len() + 1],
    total: u64,
    sum_ms: f64,
    max_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKET_BOUNDS_MS.len() + 1],
            total: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, ms: f64) {
        let ms = if ms.is_finite() && ms >= 0.0 { ms } else { 0.0 };
        let bucket = BUCKET_BOUNDS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    /// The number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The mean of the recorded samples (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ms / self.total as f64
        }
    }

    /// The largest recorded sample.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// The sum of every recorded sample, in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ms
    }

    /// The raw buckets as `(upper bound ms, count)` pairs, the overflow
    /// bucket last with an infinite bound. Both `/metrics` renderings (JSON
    /// quantiles and the Prometheus text histogram) read from here, so they
    /// cannot disagree on the underlying numbers.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(bucket, &count)| {
                let bound = BUCKET_BOUNDS_MS
                    .get(bucket)
                    .copied()
                    .unwrap_or(f64::INFINITY);
                (bound, count)
            })
            .collect()
    }

    /// The upper bound of the bucket holding quantile `q` in `[0, 1]`,
    /// capped at the largest sample — an upper estimate of the true quantile
    /// that never exceeds [`max_ms`](Self::max_ms). Returns 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let bound = BUCKET_BOUNDS_MS.get(bucket).copied();
                return bound.map_or(self.max_ms, |bound| bound.min(self.max_ms));
            }
        }
        self.max_ms
    }
}

/// Mutable counters shared by the acceptor and the handler workers
/// (guarded by one mutex in the server).
///
/// Both latency histograms share one bucket layout: 0.005, 0.01, 0.02,
/// 0.05, 0.1 and 0.2 ms, then 0.5 ms in 1-2-5 steps to 20 s, then 60 s and
/// an overflow bucket. A stored hit (a few µs of server time, ≈ 10 µs of
/// queue wait) lands in the first buckets, and every reported quantile is
/// capped at the histogram's `max_ms`.
#[derive(Debug, Default, Clone)]
pub struct ServerMetrics {
    /// Completed responses by HTTP status code (includes errors).
    pub responses_by_status: BTreeMap<u16, u64>,
    /// Connections shed by the acceptor because the queue was full (429).
    pub rejected_busy: u64,
    /// Requests answered 504 because their deadline expired, whether
    /// waiting in the queue or mid-transpile.
    pub deadline_expired: u64,
    /// Server-side transpile time of `/transpile` requests that produced a
    /// transpiled circuit: the whole session call, the same number the
    /// response carries as `X-Elapsed-Ms`. It covers parsing a body the
    /// session has not indexed, the admission checks, exporting a cold or
    /// replayed result and handing a stored hit its stored text. Reading
    /// the request, queueing and writing the response are not included.
    pub transpile_latency: LatencyHistogram,
    /// Time requests spent queued before a worker picked them up.
    pub queue_wait: LatencyHistogram,
}

impl ServerMetrics {
    /// Counts one completed response.
    pub fn count_response(&mut self, status: u16) {
        *self.responses_by_status.entry(status).or_insert(0) += 1;
    }

    /// Total responses written, across all statuses.
    pub fn total_responses(&self) -> u64 {
        self.responses_by_status.values().sum()
    }

    /// Total non-2xx responses written.
    pub fn error_responses(&self) -> u64 {
        self.responses_by_status
            .iter()
            .filter(|(status, _)| !(200..300).contains(&(**status as u32)))
            .map(|(_, count)| count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.quantile_ms(0.99), 0.0);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(3.0); // bucket bound 5.0
        }
        h.record(150.0); // bucket bound 200.0, capped at the max
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ms(0.5), 5.0);
        assert_eq!(h.quantile_ms(0.99), 5.0);
        assert_eq!(h.quantile_ms(1.0), 150.0);
        assert_eq!(h.max_ms(), 150.0);
    }

    /// A stored hit's few microseconds land in the first bucket, and no
    /// quantile reads above the largest sample.
    #[test]
    fn microsecond_samples_resolve_and_quantiles_stay_under_the_max() {
        let mut h = LatencyHistogram::new();
        h.record(0.004);
        assert!(h.quantile_ms(0.5) <= 0.005, "{}", h.quantile_ms(0.5));
        for sample in [0.012, 0.3, 7.0] {
            h.record(sample);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert!(
                    h.quantile_ms(q) <= h.max_ms(),
                    "q {q}: {}",
                    h.quantile_ms(q)
                );
            }
        }
        assert_eq!(h.quantile_ms(0.25), 0.005);
        assert_eq!(h.quantile_ms(0.5), 0.02);
        assert_eq!(h.quantile_ms(1.0), 7.0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let mut h = LatencyHistogram::new();
        h.record(120_000.0);
        assert_eq!(h.quantile_ms(0.99), 120_000.0);
    }

    #[test]
    fn negative_and_nan_samples_clamp_to_zero() {
        let mut h = LatencyHistogram::new();
        h.record(-4.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_ms(1.0), 0.0);
        assert_eq!(h.max_ms(), 0.0);
    }

    #[test]
    fn buckets_expose_the_same_counts_the_quantiles_use() {
        let mut h = LatencyHistogram::new();
        h.record(3.0);
        h.record(3.0);
        h.record(120_000.0); // overflow bucket
        let buckets = h.buckets();
        assert_eq!(buckets.len(), BUCKET_BOUNDS_MS.len() + 1);
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), h.count());
        assert_eq!(buckets[9], (5.0, 2));
        let (last_bound, last_count) = buckets[buckets.len() - 1];
        assert!(last_bound.is_infinite());
        assert_eq!(last_count, 1);
        assert_eq!(h.sum_ms(), 120_006.0);
    }

    #[test]
    fn metrics_count_statuses_and_errors() {
        let mut m = ServerMetrics::default();
        m.count_response(200);
        m.count_response(200);
        m.count_response(400);
        m.count_response(429);
        assert_eq!(m.total_responses(), 4);
        assert_eq!(m.error_responses(), 2);
        assert_eq!(m.responses_by_status[&200], 2);
    }
}
