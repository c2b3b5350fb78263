//! Serving-tier observability: lock-free counters and a latency
//! histogram, snapshotted into a wire-encodable [`MetricsSnapshot`] and
//! rendered `explain()`-style for humans.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::protocol::{put_u64, DecodeResult, Reader};

/// Number of power-of-two latency buckets: bucket `i` counts requests
/// with `latency_us` in `[2^i, 2^(i+1))` (bucket 0 also absorbs 0–1 µs).
pub const HIST_BUCKETS: usize = 32;

/// Lock-free serving-tier counters, updated by workers on every request.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    reads: AtomicU64,
    queries: AtomicU64,
    ingests: AtomicU64,
    refreshes: AtomicU64,
    stats: AtomicU64,
    errors: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_deadline: AtomicU64,
    malformed: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    threads: AtomicU64,
    latency_us: [AtomicU64; HIST_BUCKETS],
}

/// The request classes the per-class counters distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `ReadTable`.
    Read,
    /// `Query`.
    Query,
    /// `Ingest`.
    Ingest,
    /// `Refresh`.
    Refresh,
    /// `Stats`.
    Stats,
}

impl ServeMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Records one completed request of class `op` with its latency.
    pub fn record(&self, op: OpClass, latency_us: u64) {
        match op {
            OpClass::Read => &self.reads,
            OpClass::Query => &self.queries,
            OpClass::Ingest => &self.ingests,
            OpClass::Refresh => &self.refreshes,
            OpClass::Stats => &self.stats,
        }
        .fetch_add(1, Ordering::Relaxed);
        let bucket = (64 - latency_us.max(1).leading_zeros() as usize - 1).min(HIST_BUCKETS - 1);
        self.latency_us[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request answered with a typed error.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an admission rejection (`Overloaded`).
    pub fn record_overloaded(&self) {
        self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a deadline rejection.
    pub fn record_deadline(&self) {
        self.rejected_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a malformed frame.
    pub fn record_malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds received payload bytes.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds sent payload bytes.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one more live server thread.
    pub(crate) fn thread_started(&self) {
        self.threads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one server thread fewer.
    pub(crate) fn thread_exited(&self) {
        self.threads.fetch_sub(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut hist = [0u64; HIST_BUCKETS];
        for (dst, src) in hist.iter_mut().zip(&self.latency_us) {
            *dst = src.load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            ingests: self.ingests.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            stats: self.stats.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            threads: self.threads.load(Ordering::Relaxed),
            // Cache counters live in the server's `SnapshotCache`; the
            // server merges them in (`MetricsSnapshot::merge_cache`).
            cache_hits: 0,
            cache_misses: 0,
            cache_evicted: 0,
            cache_bytes: 0,
            latency_us: hist,
        }
    }
}

/// A latency quantile derived from the power-of-two histogram.
///
/// Every bucket except the last has a real upper edge, so a quantile
/// landing there is a trustworthy *upper bound*. The last bucket is
/// unbounded — a sample there could be 36 minutes or 36 hours — so a
/// quantile landing in it is reported as [`Quantile::Saturated`] with
/// the bucket's **lower** edge, never dressed up as a finite `<=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantile {
    /// The quantile is at most this many microseconds.
    AtMost(u64),
    /// The quantile fell in the unbounded overflow bucket: it is at
    /// *least* this many microseconds, with no upper bound known.
    Saturated(u64),
}

impl Quantile {
    /// A conservative numeric stand-in: the bound for
    /// [`Quantile::AtMost`], `u64::MAX` for [`Quantile::Saturated`]
    /// (whose true value is unbounded).
    pub fn as_micros_upper(self) -> u64 {
        match self {
            Quantile::AtMost(us) => us,
            Quantile::Saturated(_) => u64::MAX,
        }
    }

    fn render(self) -> String {
        match self {
            Quantile::AtMost(us) => format!("<= {us} us"),
            Quantile::Saturated(lo) => format!(">= {lo} us (overflow bucket)"),
        }
    }
}

/// A wire-encodable point-in-time copy of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Completed `ReadTable` requests.
    pub reads: u64,
    /// Completed `Query` requests.
    pub queries: u64,
    /// Completed `Ingest` requests.
    pub ingests: u64,
    /// Completed `Refresh` requests.
    pub refreshes: u64,
    /// Completed `Stats` requests.
    pub stats: u64,
    /// Requests answered with a typed error frame.
    pub errors: u64,
    /// Connections rejected by admission control.
    pub rejected_overloaded: u64,
    /// Requests rejected for exceeding their deadline.
    pub rejected_deadline: u64,
    /// Malformed frames answered with a typed error.
    pub malformed: u64,
    /// Request payload bytes received.
    pub bytes_in: u64,
    /// Response payload bytes sent.
    pub bytes_out: u64,
    /// Threads the server owns that are alive right now: the accept
    /// loop, the workers, each served connection's reader, and shed
    /// drainers.
    pub threads: u64,
    /// Read-class requests served from the shared-snapshot cache.
    pub cache_hits: u64,
    /// Read-class requests that took the full pinned read path.
    pub cache_misses: u64,
    /// Snapshot-cache entries evicted (epoch horizon + LRU).
    pub cache_evicted: u64,
    /// Bytes currently held by the snapshot cache.
    pub cache_bytes: u64,
    /// Power-of-two latency buckets (µs), successful requests only.
    pub latency_us: [u64; HIST_BUCKETS],
}

impl MetricsSnapshot {
    /// Total completed requests across classes.
    pub fn requests(&self) -> u64 {
        self.reads + self.queries + self.ingests + self.refreshes + self.stats
    }

    /// The bucketed quantile `q` in `[0,1]`, or `None` with an empty
    /// histogram. Every bucket but the last yields a trustworthy
    /// [`Quantile::AtMost`] upper edge; the last bucket is unbounded
    /// (`[2^31, ∞)` µs), so a quantile landing there is
    /// [`Quantile::Saturated`] — rendering it as a finite `<=` would
    /// turn the histogram's one honest "slower than I can measure"
    /// signal into a fabricated bound.
    pub fn quantile(&self, q: f64) -> Option<Quantile> {
        let total: u64 = self.latency_us.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.latency_us.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i == HIST_BUCKETS - 1 {
                    Quantile::Saturated(1u64 << (HIST_BUCKETS - 1))
                } else {
                    Quantile::AtMost(1u64 << (i + 1))
                });
            }
        }
        Some(Quantile::Saturated(1u64 << (HIST_BUCKETS - 1)))
    }

    /// Upper edge (µs) of the bucket containing quantile `q`, or
    /// `u64::MAX` when the quantile saturated the overflow bucket (see
    /// [`MetricsSnapshot::quantile`] — the overflow bucket has no upper
    /// edge to report). `None` with an empty histogram.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        self.quantile(q).map(Quantile::as_micros_upper)
    }

    /// Median latency bucket.
    pub fn p50(&self) -> Option<Quantile> {
        self.quantile(0.50)
    }

    /// 99th-percentile latency bucket.
    pub fn p99(&self) -> Option<Quantile> {
        self.quantile(0.99)
    }

    /// Median latency upper bound, µs (`u64::MAX` when saturated).
    pub fn p50_us(&self) -> Option<u64> {
        self.quantile_us(0.50)
    }

    /// 99th-percentile latency upper bound, µs (`u64::MAX` when
    /// saturated).
    pub fn p99_us(&self) -> Option<u64> {
        self.quantile_us(0.99)
    }

    /// Folds the shared-snapshot cache counters into this snapshot
    /// (the server calls this before encoding a `Stats` reply).
    pub fn merge_cache(&mut self, cache: &crate::cache::CacheStats) {
        self.cache_hits = cache.hits;
        self.cache_misses = cache.misses;
        self.cache_evicted = cache.evicted;
        self.cache_bytes = cache.bytes;
    }

    /// Renders the snapshot as an `explain()`-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve metrics: {} requests ({} errors), {} B in / {} B out\n",
            self.requests(),
            self.errors,
            self.bytes_in,
            self.bytes_out,
        ));
        out.push_str(&format!(
            "{:<12} {:>10}\n{:<12} {:>10}\n{:<12} {:>10}\n{:<12} {:>10}\n{:<12} {:>10}\n",
            "read",
            self.reads,
            "query",
            self.queries,
            "ingest",
            self.ingests,
            "refresh",
            self.refreshes,
            "stats",
            self.stats,
        ));
        out.push_str(&format!(
            "rejections: {} overloaded, {} deadline, {} malformed\n",
            self.rejected_overloaded, self.rejected_deadline, self.malformed,
        ));
        out.push_str(&format!("threads: {} live\n", self.threads));
        out.push_str(&format!(
            "snapshot cache: {} hits, {} misses, {} evicted, {} B cached\n",
            self.cache_hits, self.cache_misses, self.cache_evicted, self.cache_bytes,
        ));
        match (self.p50(), self.p99()) {
            (Some(p50), Some(p99)) => {
                out.push_str(&format!(
                    "latency: p50 {}, p99 {}\n",
                    p50.render(),
                    p99.render()
                ));
            }
            _ => out.push_str("latency: no samples\n"),
        }
        out
    }

    /// Appends the fixed-size wire encoding to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.reads,
            self.queries,
            self.ingests,
            self.refreshes,
            self.stats,
            self.errors,
            self.rejected_overloaded,
            self.rejected_deadline,
            self.malformed,
            self.bytes_in,
            self.bytes_out,
            self.threads,
            self.cache_hits,
            self.cache_misses,
            self.cache_evicted,
            self.cache_bytes,
        ] {
            put_u64(out, v);
        }
        for b in self.latency_us {
            put_u64(out, b);
        }
    }

    /// Decodes the fixed-size wire encoding.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> DecodeResult<MetricsSnapshot> {
        let mut s = MetricsSnapshot {
            reads: r.u64()?,
            queries: r.u64()?,
            ingests: r.u64()?,
            refreshes: r.u64()?,
            stats: r.u64()?,
            errors: r.u64()?,
            rejected_overloaded: r.u64()?,
            rejected_deadline: r.u64()?,
            malformed: r.u64()?,
            bytes_in: r.u64()?,
            bytes_out: r.u64()?,
            threads: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_evicted: r.u64()?,
            cache_bytes: r.u64()?,
            latency_us: [0; HIST_BUCKETS],
        };
        for b in s.latency_us.iter_mut() {
            *b = r.u64()?;
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let m = ServeMetrics::new();
        // 99 fast requests (≈8 µs) and one slow outlier (≈1 s).
        for _ in 0..99 {
            m.record(OpClass::Read, 8);
        }
        m.record(OpClass::Query, 1_000_000);
        let s = m.snapshot();
        assert_eq!(s.reads, 99);
        assert_eq!(s.queries, 1);
        assert_eq!(s.requests(), 100);
        let p50 = s.p50_us().unwrap();
        let p99 = s.p99_us().unwrap();
        assert!(p50 <= 16, "p50 bound {p50} for 8 us samples");
        assert!(p99 <= 16, "99/100 samples are fast: {p99}");
        assert!(s.quantile_us(1.0).unwrap() > 1_000_000);
        assert_eq!(s.quantile(1.0), Some(Quantile::AtMost(1 << 20)));
        assert!(s.render().contains("p50"));
    }

    #[test]
    fn overflow_bucket_reports_saturated_not_a_fake_bound() {
        let m = ServeMetrics::new();
        // A request slower than the histogram can bound: 2^33 µs (~2.5
        // hours) lands in the last, unbounded bucket.
        m.record(OpClass::Query, 1u64 << 33);
        let s = m.snapshot();
        assert_eq!(s.latency_us[HIST_BUCKETS - 1], 1);
        let lower = 1u64 << (HIST_BUCKETS - 1);
        assert_eq!(s.p99(), Some(Quantile::Saturated(lower)));
        assert_eq!(s.p99_us(), Some(u64::MAX), "no finite bound exists");
        let text = s.render();
        assert!(
            text.contains(&format!(">= {lower} us")),
            "render must show a saturated marker, got: {text}"
        );
        assert!(
            !text.contains(&format!("<= {}", 1u64 << 32)),
            "the old fake 2^32 upper edge must be gone: {text}"
        );

        // Mixed load: fast median, saturated tail.
        for _ in 0..99 {
            m.record(OpClass::Read, 8);
        }
        let s = m.snapshot();
        assert_eq!(s.p50(), Some(Quantile::AtMost(16)));
        assert_eq!(s.p99(), Some(Quantile::AtMost(16)));
        assert_eq!(s.quantile(1.0), Some(Quantile::Saturated(lower)));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.p50_us(), None);
        assert!(s.render().contains("no samples"));
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let m = ServeMetrics::new();
        m.record(OpClass::Ingest, 0);
        let s = m.snapshot();
        assert_eq!(s.latency_us[0], 1);
    }

    #[test]
    fn snapshot_encoding_roundtrip() {
        let m = ServeMetrics::new();
        m.record(OpClass::Read, 5);
        m.record_error();
        m.record_overloaded();
        m.record_deadline();
        m.record_malformed();
        m.add_bytes_in(10);
        m.add_bytes_out(20);
        m.thread_started();
        let s = m.snapshot();
        assert_eq!(s.threads, 1);
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let back = MetricsSnapshot::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
    }
}
