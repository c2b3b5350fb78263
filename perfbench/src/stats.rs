//! Order statistics over latency samples.
//!
//! Failed or refused operations enter a sample set as `f64::INFINITY`, so
//! they miss every latency limit and sort above every real sample.

/// Nearest-rank percentile `p` (0–100] of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The median (nearest rank, so always an observed sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// How many samples lie strictly above the nearest-rank percentile `p`.
/// A percentile is reportable when at least ten samples lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank.min(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn unsorted_input_and_failures_rank_last() {
        let s = [5.0, f64::INFINITY, 1.0, 3.0];
        assert_eq!(median(&s), Some(3.0));
        assert_eq!(percentile(&s, 100.0), Some(f64::INFINITY));
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
    }
}
