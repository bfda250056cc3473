//! Model-quality lookup.
//!
//! Training ImageNet classifiers (100+ epochs on 32 accelerators) is outside
//! this environment, so the accuracy axis of Table IV / Figure 12 is carried
//! through from the paper's reported measurements via calibrated
//! interpolation. Every use of these numbers is labelled as reproduced-from-
//! paper in EXPERIMENTS.md; the *throughput* axis is measured from our
//! simulator.

/// A (width multiplier, top-1 accuracy %) measurement from Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyPoint {
    pub width: f64,
    pub top1: f64,
}

/// Dense MobileNetV1 accuracies reported in Table IV.
pub const DENSE_MOBILENET: [AccuracyPoint; 3] = [
    AccuracyPoint {
        width: 1.0,
        top1: 72.7,
    },
    AccuracyPoint {
        width: 1.2,
        top1: 73.8,
    },
    AccuracyPoint {
        width: 1.4,
        top1: 74.8,
    },
];

/// 90%-sparse MobileNetV1 accuracies reported in Table IV.
pub const SPARSE_MOBILENET: [AccuracyPoint; 6] = [
    AccuracyPoint {
        width: 1.3,
        top1: 72.9,
    },
    AccuracyPoint {
        width: 1.4,
        top1: 73.3,
    },
    AccuracyPoint {
        width: 1.5,
        top1: 73.8,
    },
    AccuracyPoint {
        width: 1.6,
        top1: 74.1,
    },
    AccuracyPoint {
        width: 1.7,
        top1: 74.4,
    },
    AccuracyPoint {
        width: 1.8,
        top1: 74.9,
    },
];

/// Piecewise-linear interpolation (with linear extrapolation at the ends)
/// over a table of accuracy points — used to draw the Figure 12 tradeoff
/// curves between the measured widths.
pub fn interpolate(points: &[AccuracyPoint], width: f64) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    // Find the bracketing segment (points are sorted by width).
    let mut i = 0;
    while i + 2 < points.len() && points[i + 1].width < width {
        i += 1;
    }
    let (a, b) = (points[i], points[i + 1]);
    let t = (width - a.width) / (b.width - a.width);
    a.top1 + t * (b.top1 - a.top1)
}

/// Dense MobileNetV1 top-1 at an arbitrary width.
pub fn dense_mobilenet_top1(width: f64) -> f64 {
    interpolate(&DENSE_MOBILENET, width)
}

/// 90%-sparse MobileNetV1 top-1 at an arbitrary width.
pub fn sparse_mobilenet_top1(width: f64) -> f64 {
    interpolate(&SPARSE_MOBILENET, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_points_are_reproduced() {
        assert_eq!(dense_mobilenet_top1(1.0), 72.7);
        assert_eq!(dense_mobilenet_top1(1.4), 74.8);
        assert_eq!(sparse_mobilenet_top1(1.3), 72.9);
        assert_eq!(sparse_mobilenet_top1(1.8), 74.9);
    }

    #[test]
    fn interpolation_is_monotone() {
        let mut prev = 0.0;
        for w in [1.0, 1.1, 1.2, 1.3, 1.4] {
            let a = dense_mobilenet_top1(w);
            assert!(a >= prev);
            prev = a;
        }
    }

    #[test]
    fn sparse_needs_more_width_for_same_accuracy() {
        // The Table IV story: sparse 1.5 matches dense 1.2 (73.8%).
        assert!((sparse_mobilenet_top1(1.5) - dense_mobilenet_top1(1.2)).abs() < 1e-9);
    }

    #[test]
    fn extrapolation_continues_the_last_segment() {
        let beyond = dense_mobilenet_top1(1.6);
        assert!(
            beyond > 74.8,
            "extrapolating past 1.4 should keep rising, got {beyond}"
        );
    }
}
