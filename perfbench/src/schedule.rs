//! Seeded inputs and the open-loop arrival schedules.
//!
//! An open loop sends each request at its scheduled instant whatever
//! happened to the one before; latency is timed from that *intended*
//! instant, so a stall that delays later sends is charged to every request
//! it delayed (no coordinated omission). How late each send actually went
//! out is reported separately as generator lateness.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny deterministic generator, so every input the
/// benchmark derives from `--seed` repeats exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A seed for stream `stream` (a churn round, a maintenance batch) of a
/// run seeded with `seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    r.next_u64()
}

/// What one scheduled slot does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `ReadTable` of the cached MV with this index into `READ_TABLES`.
    Read(usize),
    /// The uncached filter query.
    Query,
    /// Maintenance batch `k`: a wire ingest, then a wire refresh.
    Maint(usize),
}

/// Small MVs the reads alternate between; both fit the snapshot cache.
pub const READ_TABLES: [&str; 2] = ["rev_by_category", "top_items"];

/// Offsets of a fixed-rate stream within `window`: `i / rate` for every
/// `i` that falls inside it.
pub fn fixed_rate(window: Duration, rate: f64) -> Vec<Duration> {
    let n = (window.as_secs_f64() * rate).floor() as u64;
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// The read connection's schedule: reads at `rate`, each of a seeded
/// choice among `READ_TABLES`, merged with a maintenance batch every
/// `maint_every`, the first half an interval in.
pub fn read_maint_events(
    seed: u64,
    window: Duration,
    rate: f64,
    maint_every: Duration,
) -> Vec<(Duration, Op)> {
    let mut rng = Rng::new(seed);
    let mut events: Vec<(Duration, Op)> = fixed_rate(window, rate)
        .into_iter()
        .map(|at| {
            let table = (rng.next_u64() % READ_TABLES.len() as u64) as usize;
            (at, Op::Read(table))
        })
        .collect();
    let maint = (0u32..)
        .map(|k| (maint_every / 2 + maint_every * k, Op::Maint(k as usize)))
        .take_while(|(at, _)| *at < window);
    events.extend(maint);
    // Stable: a maintenance batch due with a read goes after it.
    events.sort_by_key(|(at, _)| *at);
    events
}

/// The query connection's schedule: queries at `rate`.
pub fn query_events(window: Duration, rate: f64) -> Vec<(Duration, Op)> {
    fixed_rate(window, rate)
        .into_iter()
        .map(|at| (at, Op::Query))
        .collect()
}

/// Sleeps until `due`, returning at once when it has already passed.
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_offsets_ignore_responses() {
        let at = fixed_rate(Duration::from_secs(3), 200.0);
        assert_eq!(at.len(), 600);
        assert_eq!(at[0], Duration::ZERO);
        assert_eq!(at[200], Duration::from_secs(1));
        assert_eq!(at[599], Duration::from_secs_f64(599.0 / 200.0));
    }

    #[test]
    fn read_events_are_seeded_and_cover_both_tables() {
        let (w, every) = (Duration::from_secs(10), Duration::from_secs(1));
        let a = read_maint_events(7, w, 180.0, every);
        assert_eq!(a, read_maint_events(7, w, 180.0, every));
        assert_ne!(a, read_maint_events(8, w, 180.0, every));
        let reads = |t| a.iter().filter(|(_, op)| *op == Op::Read(t)).count();
        assert_eq!(reads(0) + reads(1), 1800);
        assert!(
            (800..1000).contains(&reads(0)),
            "{} reads of table 0",
            reads(0)
        );
        assert_eq!(query_events(w, 20.0).len(), 200);
    }

    #[test]
    fn maintenance_merges_into_the_read_stream_in_due_order() {
        let ev = read_maint_events(1, Duration::from_secs(3), 20.0, Duration::from_secs(1));
        let maint: Vec<_> = ev
            .iter()
            .filter(|(_, op)| matches!(op, Op::Maint(_)))
            .collect();
        assert_eq!(maint.len(), 3);
        assert_eq!(*maint[0], (Duration::from_millis(500), Op::Maint(0)));
        assert!(ev.windows(2).all(|w| w[0].0 <= w[1].0));
        // A batch due with a read runs after it.
        let i = ev.iter().position(|e| e.1 == Op::Maint(0)).unwrap();
        assert_eq!(ev[i - 1].0, Duration::from_millis(500));
        assert!(matches!(ev[i - 1].1, Op::Read(_)));
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
    }
}
