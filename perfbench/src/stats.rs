//! Order statistics for latency samples.

/// Percentiles a pooled tail may fall back to, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
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

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile chosen by [`tail`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// The sample at that percentile's nearest rank.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest percentile, no higher than `cap`, that has at least
/// [`MIN_BEYOND_TAIL`] samples beyond its nearest rank.  `sorted` must
/// be ascending.  `None` when even the median has too few samples
/// beyond it.
pub fn tail(sorted: &[f64], cap: f64) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().filter(|&&p| p <= cap).find_map(|&p| {
        let r = rank(p, n.max(1));
        let beyond = n.saturating_sub(r);
        (n > 0 && beyond >= MIN_BEYOND_TAIL).then(|| Tail {
            pct: p,
            value: sorted[r - 1],
            beyond,
        })
    })
}

/// Indices of the calmest half (rounded up) of `rates`, ascending by
/// rate and, among equal rates, by index; returned in index order.
pub fn calmest_half(rates: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| rates[a].total_cmp(&rates[b]).then(a.cmp(&b)));
    order.truncate(rates.len().div_ceil(2));
    order.sort_unstable();
    order
}

/// Errors counted against attempts: failed or refused requests and
/// wrong answers all count once each.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErrorCount {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed on the wire or were refused by the server.
    pub failed: u64,
    /// Requests answered, but wrongly.
    pub wrong: u64,
}

impl ErrorCount {
    /// Adds another tally.
    pub fn add(&mut self, other: ErrorCount) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// `(failed + wrong) / attempted`; 0 when nothing was attempted.
    pub fn rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.failed + self.wrong) as f64 / self.attempted as f64
        }
    }

    /// True iff nothing failed and nothing was wrong.
    pub fn clean(&self) -> bool {
        self.failed == 0 && self.wrong == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_takes_p99_when_ten_samples_lie_beyond() {
        // 1000 samples: p99 is rank 990, 10 beyond; p99.9 has 1.
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
    }

    #[test]
    fn tail_steps_down_when_too_few_lie_beyond() {
        // 999 samples: p99 is rank 990, 9 beyond; p95 is rank 950.
        let t = tail(&ramp(999), 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 950.0, 49));
        // 100 samples: p90 is rank 90, 10 beyond.
        let t = tail(&ramp(100), 99.0).unwrap();
        assert_eq!((t.pct, t.beyond), (90.0, 10));
    }

    #[test]
    fn tail_never_exceeds_its_cap() {
        let t = tail(&ramp(100_000), 99.0).unwrap();
        assert_eq!(t.pct, 99.0);
        let t = tail(&ramp(100_000), 99.9).unwrap();
        assert_eq!(t.pct, 99.9);
    }

    #[test]
    fn tail_is_absent_for_tiny_samples() {
        assert_eq!(tail(&ramp(15), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
        // 20 samples: the median (rank 10) has 10 beyond.
        assert_eq!(tail(&ramp(20), 99.0).unwrap().pct, 50.0);
    }

    #[test]
    fn calmest_half_keeps_the_least_disturbed_rounds() {
        assert_eq!(calmest_half(&[9.0, 0.0, 4.0, 1.0, 30.0, 2.0]), [1, 3, 5]);
        // Odd counts round up; ties go to the earlier round.
        assert_eq!(calmest_half(&[5.0, 0.0, 0.0, 0.0, 7.0]), [1, 2, 3]);
        assert_eq!(calmest_half(&[0.0; 4]), [0, 1]);
        assert_eq!(calmest_half(&[3.0]), [0]);
        assert!(calmest_half(&[]).is_empty());
    }

    #[test]
    fn error_count_pools_failures_and_wrong_answers() {
        let mut e = ErrorCount {
            attempted: 90,
            failed: 1,
            wrong: 0,
        };
        e.add(ErrorCount {
            attempted: 10,
            failed: 0,
            wrong: 2,
        });
        assert_eq!(e.attempted, 100);
        assert!((e.rate() - 0.03).abs() < 1e-12);
        assert!(!e.clean());
        assert_eq!(ErrorCount::default().rate(), 0.0);
        assert!(ErrorCount::default().clean());
    }
}
