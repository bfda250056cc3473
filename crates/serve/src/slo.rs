//! Per-request SLO accounting: exact latency percentiles.
//!
//! Serving runs here are simulated and bounded (thousands of requests, not
//! billions), so the recorder keeps every sample and computes *exact*
//! nearest-rank percentiles instead of an approximating histogram — the
//! servewall CI gate compares p99 against a committed baseline, and an
//! approximation error would eat the gate's headroom for free.

/// Latency sample recorder with exact nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
}

impl LatencyRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, latency_us: f64) {
        self.samples.push(latency_us);
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Exact nearest-rank percentile (`p` in `(0, 100]`); `None` when no
    /// samples were recorded.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50.0).unwrap_or(0.0)
    }

    pub fn p99(&self) -> f64 {
        self.percentile(99.0).unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            r.record(v);
        }
        assert_eq!(r.percentile(50.0), Some(3.0));
        assert_eq!(r.percentile(100.0), Some(5.0));
        assert_eq!(r.percentile(1.0), Some(1.0));
        assert_eq!(r.p99(), 5.0);
    }

    #[test]
    fn empty_recorder_is_zero_not_panic() {
        let r = LatencyRecorder::new();
        assert_eq!(r.percentile(99.0), None);
        assert_eq!(r.p99(), 0.0);
        assert_eq!(r.mean(), 0.0);
    }
}
