//! Pure arithmetic of the workloads: medians, tail percentiles with
//! refusals counted as misses, the max-rate search, and the Table I error.

/// Table I of the paper: geometric-mean FP32 SpMM speedup of Sputnik over
/// cuSPARSE on the deep-learning corpus.
pub const PAPER_SPMM_SPEEDUP: f64 = 3.58;

/// A tail percentile is reported only when at least this many samples lie
/// beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `NaN` when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile (`p` in `(0, 100]`) over `served`
/// latencies plus `refused` requests that count as infinitely late: a shed
/// or rejected request misses every latency limit. `kth(r)` returns the
/// `r`-th smallest served latency (1-based).
///
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond the rank, so
/// the sample cannot support the percentile. `Some(f64::INFINITY)` when the
/// rank falls among the refusals.
pub fn tail_percentile(
    served: usize,
    refused: u64,
    p: f64,
    kth: impl FnOnce(usize) -> f64,
) -> Option<f64> {
    let total = served + refused as usize;
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * total as f64).ceil().clamp(1.0, total as f64) as usize;
    if total - rank < MIN_BEYOND {
        return None;
    }
    Some(if rank > served {
        f64::INFINITY
    } else {
        kth(rank)
    })
}

/// The rate grid of [`max_rate`]: coarse steps find the first failing
/// rate, fine steps from the last passing coarse rate refine it.
#[derive(Debug, Clone, Copy)]
pub struct RateGrid {
    pub start: f64,
    pub coarse: f64,
    pub fine: f64,
    /// The scan stops here; a workload that meets the limit at every
    /// coarse rate up to `cap` reports the last coarse rate.
    pub cap: f64,
}

/// Deterministic search for the highest offered rate whose p99 meets
/// `limit`. `p99_at(rate)` measures one probe; a probe fails when its p99
/// exceeds `limit` (an infinite p99 always fails).
///
/// The scan walks upward and stops at the first failure, first on the
/// coarse grid and then on the fine grid anchored at the last passing
/// coarse rate, so a looser limit can never report a lower rate. Returns
/// `None` when `grid.start` already fails, plus the number of probes run.
pub fn max_rate(
    grid: RateGrid,
    limit: f64,
    mut p99_at: impl FnMut(f64) -> f64,
) -> (Option<f64>, usize) {
    let mut probes = 0usize;
    let mut passes = |rate: f64| {
        probes += 1;
        p99_at(rate) <= limit
    };
    if !passes(grid.start) {
        return (None, probes);
    }
    let mut best = grid.start;
    let first_fail = loop {
        let next = best * grid.coarse;
        if next > grid.cap {
            return (Some(best), probes);
        }
        if !passes(next) {
            break next;
        }
        best = next;
    };
    let mut rate = best * grid.fine;
    while rate < first_fail && passes(rate) {
        best = rate;
        rate *= grid.fine;
    }
    (Some(best), probes)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Error of a measured geometric-mean speedup set against Table I:
/// `|geomean(speedups) / 3.58 - 1| * 100`.
pub fn paper_err_pct(speedups: &[f64]) -> f64 {
    (geomean(speedups) / PAPER_SPMM_SPEEDUP - 1.0).abs() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`tail_percentile`] over an explicit sample.
    fn pct(latencies: &[f64], refused: u64, p: f64) -> Option<f64> {
        let mut sorted = latencies.to_vec();
        sorted.sort_by(f64::total_cmp);
        tail_percentile(sorted.len(), refused, p, |r| sorted[r - 1])
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let lat: Vec<f64> = (1..=2000).map(f64::from).collect();
        // rank = ceil(0.99 * 2000) = 1980, 20 samples beyond it.
        assert_eq!(pct(&lat, 0, 99.0), Some(1980.0));
        assert_eq!(pct(&lat, 0, 50.0), Some(1000.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let lat: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990, exactly 10 beyond — supported.
        assert_eq!(pct(&lat, 0, 99.0), Some(990.0));
        // 999 samples: rank 990, 9 beyond — not supported.
        assert_eq!(pct(&lat[..999], 0, 99.0), None);
        assert_eq!(pct(&[], 0, 50.0), None);
    }

    #[test]
    fn refusals_count_as_misses() {
        let lat: Vec<f64> = (1..=990).map(f64::from).collect();
        // 990 served + 10 refused: the refusals sort last, so p99 is the
        // slowest served request...
        assert_eq!(pct(&lat, 10, 99.0), Some(990.0));
        // ...and with 11 refusals the p99 rank lands on a refusal.
        assert_eq!(pct(&lat[..989], 11, 99.0), Some(f64::INFINITY));
        // Refusals also raise the median.
        let fast = vec![1.0; 600];
        assert_eq!(pct(&fast, 600, 50.0), Some(1.0));
        assert_eq!(pct(&fast, 601, 50.0), Some(f64::INFINITY));
    }

    const GRID: RateGrid = RateGrid {
        start: 10.0,
        coarse: 1.25,
        fine: 1.02,
        cap: 1e4,
    };

    /// A p99 curve that rises with rate but is not monotone: a dip after
    /// a knee, as queueing noise makes real curves.
    fn bumpy(rate: f64) -> f64 {
        rate + 15.0 * (rate / 7.0).sin()
    }

    #[test]
    fn max_rate_is_deterministic() {
        let a = max_rate(GRID, 80.0, bumpy);
        let b = max_rate(GRID, 80.0, bumpy);
        assert_eq!(a, b);
        let (rate, probes) = a;
        let rate = rate.unwrap();
        assert!(bumpy(rate) <= 80.0);
        assert!(probes > 2);
    }

    #[test]
    fn looser_limit_never_lowers_max_rate() {
        let mut last = 0.0;
        for limit in (20..400).map(|l| l as f64 * 0.5) {
            let rate = max_rate(GRID, limit, bumpy).0.unwrap_or(0.0);
            assert!(rate >= last, "limit {limit}: {rate} < {last}");
            last = rate;
        }
    }

    #[test]
    fn max_rate_edges() {
        assert_eq!(max_rate(GRID, 1.0, bumpy).0, None);
        let (rate, _) = max_rate(GRID, f64::INFINITY, |_| 0.0);
        let rate = rate.unwrap();
        assert!(rate <= GRID.cap && rate * GRID.coarse > GRID.cap);
        // An infinite p99 (refusals) always fails.
        assert_eq!(max_rate(GRID, 1e9, |_| f64::INFINITY).0, None);
    }

    #[test]
    fn paper_err_arithmetic() {
        assert!((paper_err_pct(&[3.58, 3.58]) - 0.0).abs() < 1e-9);
        // geomean(2, 8) = 4; |4 / 3.58 - 1| = 0.117318...
        let err = paper_err_pct(&[2.0, 8.0]);
        assert!((err - (4.0 / 3.58 - 1.0) * 100.0).abs() < 1e-9);
        // Under-prediction counts as error too.
        let low = paper_err_pct(&[1.79]);
        assert!((low - 50.0).abs() < 1e-9);
    }
}
