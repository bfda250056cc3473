//! Deterministic random sparse-matrix generators.
//!
//! These produce the workloads of every experiment: uniform random sparsity
//! (the RNN benchmarks of Figure 10 "generated sparse matrices with random
//! uniform sparsity"), controlled row-length CoV (the load-imbalance sweep
//! of Figure 7), the sparse-attention mask of Figure 11 (dense diagonal band
//! plus random off-diagonal connections with probability inversely
//! proportional to distance), and heavy-tailed scientific-like matrices for
//! the Figure 2 corpus comparison.

use crate::csr::CsrMatrix;
use crate::rng::SplitMix64;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Sample `k` distinct column indices from `0..cols`, sorted ascending.
///
/// Partial Fisher–Yates over a scratch buffer: O(k) swaps, O(k log k) sort.
fn sample_columns(cols: usize, k: usize, rng: &mut StdRng, scratch: &mut Vec<u32>) -> Vec<u32> {
    debug_assert!(k <= cols);
    if scratch.len() != cols {
        scratch.clear();
        scratch.extend(0..cols as u32);
    }
    for i in 0..k {
        let j = rng.random_range(i..cols);
        scratch.swap(i, j);
    }
    let mut out: Vec<u32> = scratch[..k].to_vec();
    out.sort_unstable();
    out
}

/// Approximate Binomial(n, p) sample via the normal approximation, clamped
/// to [0, n]. Exact sampling is unnecessary: only the row-length
/// *distribution* matters to the kernels.
fn binomial_approx(n: usize, p: f64, rng: &mut StdRng) -> usize {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    let std = (n as f64 * p * (1.0 - p)).sqrt();
    let z = standard_normal(rng);
    (mean + z * std).round().clamp(0.0, n as f64) as usize
}

/// Standard normal via Box–Muller.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fill a topology with deterministic pseudo-random values in [-1, 1).
fn random_values(nnz: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..nnz).map(|_| rng.random_range(-1.0f32..1.0)).collect()
}

fn from_row_lengths(rows: usize, cols: usize, lens: &[usize], rng: &mut StdRng) -> CsrMatrix<f32> {
    let mut row_offsets = Vec::with_capacity(rows + 1);
    let mut col_indices = Vec::new();
    row_offsets.push(0u32);
    let mut scratch = Vec::new();
    for &k in lens {
        let cols_for_row = sample_columns(cols, k.min(cols), rng, &mut scratch);
        col_indices.extend_from_slice(&cols_for_row);
        row_offsets.push(col_indices.len() as u32);
    }
    let values = random_values(col_indices.len(), rng);
    // Invariant: sampled columns are sorted, deduplicated, and in bounds.
    #[allow(clippy::expect_used)]
    let csr = CsrMatrix::from_parts(rows, cols, row_offsets, col_indices, values)
        .expect("generator produces valid CSR");
    csr
}

/// Uniform random sparsity: each entry is nonzero independently with
/// probability `1 - sparsity`. Row lengths are Binomial — the low-CoV regime
/// typical of pruned DNN weights.
pub fn uniform(rows: usize, cols: usize, sparsity: f64, seed: u64) -> CsrMatrix<f32> {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let p = 1.0 - sparsity;
    let lens: Vec<usize> = (0..rows)
        .map(|_| binomial_approx(cols, p, &mut rng))
        .collect();
    from_row_lengths(rows, cols, &lens, &mut rng)
}

/// Perfectly balanced sparsity: every row has exactly `nnz_per_row`
/// nonzeros. The CoV-0 reference point of Figure 7.
pub fn balanced(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix<f32> {
    assert!(nnz_per_row <= cols);
    let mut rng = StdRng::seed_from_u64(seed);
    let lens = vec![nnz_per_row; rows];
    from_row_lengths(rows, cols, &lens, &mut rng)
}

/// Controlled row-length CoV at a fixed total sparsity: row lengths are
/// drawn from a lognormal distribution whose CoV equals `target_cov`, then
/// rescaled so the matrix hits the requested sparsity. This is the
/// load-imbalance dial of Figure 7.
pub fn with_cov(
    rows: usize,
    cols: usize,
    sparsity: f64,
    target_cov: f64,
    seed: u64,
) -> CsrMatrix<f32> {
    assert!((0.0..=1.0).contains(&sparsity));
    assert!(target_cov >= 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let target_mean = cols as f64 * (1.0 - sparsity);

    // Row lengths live in [0, cols] with mean m, so CoV cannot exceed
    // sqrt((cols - m) / m); cap the target at 95% of that bound.
    let cov_cap = ((cols as f64 - target_mean).max(0.0) / target_mean.max(1.0)).sqrt() * 0.95;
    let target_cov = target_cov.min(cov_cap);

    let mut lens: Vec<usize> = if target_cov < 1e-9 {
        vec![target_mean.round() as usize; rows]
    } else {
        // Lognormal(mu, sigma) has CoV = sqrt(exp(sigma^2) - 1), but clamping
        // the heavy tail at `cols` shrinks the achieved CoV, so calibrate
        // sigma with a few fixed-point iterations against the sampled,
        // clamped lengths.
        let mut sigma = (1.0 + target_cov * target_cov).ln().sqrt();
        let mut sampled = Vec::new();
        for _ in 0..20 {
            let mu = target_mean.max(1.0).ln() - sigma * sigma / 2.0;
            sampled = (0..rows)
                .map(|_| {
                    let z = standard_normal(&mut rng);
                    (mu + sigma * z).exp().round().clamp(0.0, cols as f64)
                })
                .collect();
            let achieved = crate::stats::cov(&sampled);
            if achieved >= target_cov * 0.99 || achieved <= 0.0 {
                break;
            }
            sigma *= (target_cov / achieved).min(1.5);
        }
        sampled.iter().map(|&l| l as usize).collect()
    };

    // Rescale total nnz to the target (clamping distorts the mean slightly).
    let total: usize = lens.iter().sum();
    let want = (target_mean * rows as f64).round() as usize;
    if total > 0 && want > 0 {
        let scale = want as f64 / total as f64;
        for l in lens.iter_mut() {
            *l = ((*l as f64) * scale).round().clamp(0.0, cols as f64) as usize;
        }
    }
    from_row_lengths(rows, cols, &lens, &mut rng)
}

/// Heavy-tailed "scientific computing" matrix: row lengths follow a Pareto
/// distribution (shape `alpha`, smaller = heavier tail), producing the high
/// CoV and extreme sparsity of the SuiteSparse corpus in Figure 2.
pub fn power_law(
    rows: usize,
    cols: usize,
    avg_row_len: f64,
    alpha: f64,
    seed: u64,
) -> CsrMatrix<f32> {
    assert!(alpha > 1.0, "Pareto needs alpha > 1 for a finite mean");
    let mut rng = StdRng::seed_from_u64(seed);
    // Pareto(x_m, alpha) has mean alpha*x_m/(alpha-1).
    let x_m = avg_row_len * (alpha - 1.0) / alpha;
    let lens: Vec<usize> = (0..rows)
        .map(|_| {
            let u: f64 = rng.random_range(f64::EPSILON..1.0);
            let x = x_m / u.powf(1.0 / alpha);
            x.round().clamp(0.0, cols as f64) as usize
        })
        .collect();
    from_row_lengths(rows, cols, &lens, &mut rng)
}

/// The sparse-attention connectivity of the paper's Transformer experiment
/// (Figure 11): causal (lower-triangular) mask with a dense band of width
/// `band` along the diagonal, plus random off-diagonal connections sampled
/// with probability inversely proportional to the distance from the
/// diagonal, calibrated so the off-diagonal region has sparsity
/// `off_diag_sparsity` (0.95 in the paper).
pub fn attention_mask(
    seq: usize,
    band: usize,
    off_diag_sparsity: f64,
    seed: u64,
) -> CsrMatrix<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row_offsets = Vec::with_capacity(seq + 1);
    let mut col_indices: Vec<u32> = Vec::new();
    row_offsets.push(0u32);
    let keep = 1.0 - off_diag_sparsity;

    for i in 0..seq {
        // Off-diagonal candidates: j in [0, i - band), distance d = i - j > band.
        let n_off = i.saturating_sub(band);
        if n_off > 0 {
            // Normalizing constant: sum over d in (band, i] of 1/d.
            let h: f64 = (band + 1..=i).map(|d| 1.0 / d as f64).sum();
            let c = keep * n_off as f64 / h.max(1e-12);
            for j in 0..n_off {
                let d = (i - j) as f64;
                let p = (c / d).min(1.0);
                if rng.random_range(0.0..1.0) < p {
                    col_indices.push(j as u32);
                }
            }
        }
        // Dense causal band: j in [i - band + 1 .. i], clamped at 0, plus the
        // diagonal itself.
        let start = i.saturating_sub(band.saturating_sub(1));
        for j in start..=i {
            col_indices.push(j as u32);
        }
        row_offsets.push(col_indices.len() as u32);
    }
    let nnz = col_indices.len();
    let values = vec![1.0f32; nnz];
    // Invariant: the causal band emits sorted, in-bounds indices.
    #[allow(clippy::expect_used)]
    let csr = CsrMatrix::from_parts(seq, seq, row_offsets, col_indices, values)
        .expect("attention mask is valid CSR");
    csr
}

/// Fraction of element-level zeros that is spent on aligned dead 8-row
/// blocks (the skippable structure) vs unstructured ReLU noise. At target
/// zero fraction `z`, the fine 8×32 dead-tile fraction lands near
/// `BLOCK_ZERO_SHARE * z`.
pub const BLOCK_ZERO_SHARE: f64 = 0.9;

/// Dead→live exit probability of the per-column-group burst chain: mean
/// dead-run length is `1 / BURST_EXIT` k-groups (ReLU activations kill
/// *consecutive* feature blocks, not isolated ones).
const BURST_EXIT: f64 = 0.25;

/// ReLU-style dense activations at a target zero fraction, bit-reproducible.
///
/// Models the post-ReLU activation operand of a sparse inference GEMM
/// (`k` features × `n` batch columns), calibrated like the `dataset.rs`
/// generators — by a target density, swept by the benches:
///
/// - **Aligned dead feature blocks**: 8-row-aligned groups of features go
///   entirely dead per 32-column group, in bursts (a two-state Markov chain
///   over k-groups with stationary dead probability
///   `BLOCK_ZERO_SHARE * zero_frac` and mean run length 4). These are the
///   tiles the fine 8×32 pattern LUT discovers and the joint kernels skip.
/// - **Per-column ReLU noise**: live groups carry unstructured elementwise
///   zeros at a per-column-modulated rate (each column's rate drawn in
///   [0.25, 1.75)× the mean — batch examples differ in how hard ReLU
///   clips them), calibrated so the *total* zero fraction hits `zero_frac`.
///
/// All zeros are exactly `+0.0` (the only bit pattern [`crate::PatternLut`]
/// treats as dead); nonzeros are positive, ReLU-style. The stream is
/// [`crate::rng::SplitMix64`] with a fixed draw order, so equal
/// `(k, n, zero_frac, seed)` produce bit-identical matrices on every
/// platform and build: committed joint-sparsity baselines replay them.
pub fn activations(k: usize, n: usize, zero_frac: f64, seed: u64) -> crate::Matrix<f32> {
    assert!(
        (0.0..1.0).contains(&zero_frac),
        "zero_frac must be in [0, 1)"
    );
    let mut rng = SplitMix64::new(seed ^ 0xAC7_1FA7E);
    let g = (zero_frac * BLOCK_ZERO_SHARE).min(0.99);
    // Total zeros = g + (1-g)*e  =>  element rate e in live groups.
    let e = ((zero_frac - g) / (1.0 - g)).clamp(0.0, 1.0);

    // Per-column ReLU clip-rate modulation, mean 1.
    let col_rate: Vec<f64> = (0..n)
        .map(|_| (e * (0.25 + 1.5 * rng.next_f64())).min(1.0))
        .collect();

    // Bursty dead-block pattern over (k-group, column-group) cells: per
    // column group, a Markov chain down the k-groups. Entry probability is
    // solved from the stationary distribution: pi_dead = enter/(enter+exit).
    let kgroups = k.div_ceil(8).max(1);
    let ngroups = n.div_ceil(32).max(1);
    let enter = if g >= 1.0 - 1e-12 {
        1.0
    } else {
        (g * BURST_EXIT / (1.0 - g)).min(1.0)
    };
    let mut dead = vec![false; kgroups * ngroups];
    for ng in 0..ngroups {
        let mut state = rng.next_f64() < g;
        for kg in 0..kgroups {
            dead[kg * ngroups + ng] = state;
            let p = if state { 1.0 - BURST_EXIT } else { enter };
            state = rng.next_f64() < p;
        }
    }

    let mut m = crate::Matrix::<f32>::zeros(k, n);
    for r in 0..k {
        let kg = r / 8;
        for c in 0..n {
            if dead[kg * ngroups + c / 32] {
                continue; // stays exactly +0.0
            }
            if rng.next_f64() < col_rate[c] {
                continue; // ReLU-clipped element
            }
            // Positive post-ReLU magnitude, bounded away from zero.
            m.set(r, c, (0.02 + 1.98 * rng.next_f64()) as f32);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::matrix_stats;

    #[test]
    fn uniform_hits_target_sparsity() {
        let m = uniform(512, 512, 0.8, 7);
        let s = matrix_stats(&m);
        assert!((s.sparsity - 0.8).abs() < 0.02, "sparsity {}", s.sparsity);
        // Binomial rows at p=0.2, n=512: CoV ~ sqrt(npq)/np ~ 0.09.
        assert!(s.row_cov < 0.2, "cov {}", s.row_cov);
    }

    #[test]
    fn uniform_is_deterministic() {
        assert_eq!(uniform(64, 64, 0.7, 3), uniform(64, 64, 0.7, 3));
        assert_ne!(uniform(64, 64, 0.7, 3), uniform(64, 64, 0.7, 4));
    }

    #[test]
    fn balanced_rows_have_zero_cov() {
        let m = balanced(128, 256, 64, 1);
        let s = matrix_stats(&m);
        assert_eq!(s.row_cov, 0.0);
        assert_eq!(s.avg_row_length, 64.0);
        assert_eq!(m.nnz(), 128 * 64);
    }

    #[test]
    fn with_cov_hits_both_targets() {
        // Mean row length is 512 of 2048, so the CoV ceiling is sqrt(3)≈1.73.
        let mut prev = -1.0;
        for &cov in &[0.0, 0.3, 0.6, 1.0, 1.5] {
            let m = with_cov(2048, 2048, 0.75, cov, 11);
            let s = matrix_stats(&m);
            assert!(
                (s.sparsity - 0.75).abs() < 0.05,
                "cov={cov}: sparsity {}",
                s.sparsity
            );
            // Tight at moderate CoV; the clamped tail loosens the extreme end.
            let tol = if cov <= 1.0 { 0.2 } else { 0.35 };
            assert!(
                (s.row_cov - cov).abs() < tol,
                "target cov {cov}, got {}",
                s.row_cov
            );
            assert!(
                s.row_cov > prev,
                "achieved CoV must increase with the target"
            );
            prev = s.row_cov;
        }
    }

    #[test]
    fn with_cov_saturates_at_feasible_ceiling() {
        // Requesting an impossible CoV degrades gracefully to near the cap.
        let m = with_cov(2048, 512, 0.75, 5.0, 11);
        let s = matrix_stats(&m);
        let cap = ((512.0 - 128.0f64) / 128.0).sqrt();
        assert!(s.row_cov <= cap + 0.1, "cov {} above cap {cap}", s.row_cov);
        assert!(
            s.row_cov > cap * 0.6,
            "cov {} too far below cap {cap}",
            s.row_cov
        );
    }

    #[test]
    fn power_law_has_high_cov() {
        let m = power_law(4096, 4096, 8.0, 1.3, 5);
        let s = matrix_stats(&m);
        assert!(
            s.row_cov > 1.0,
            "scientific matrices should be imbalanced, cov {}",
            s.row_cov
        );
        assert!(s.sparsity > 0.99, "sparsity {}", s.sparsity);
    }

    #[test]
    fn attention_mask_structure() {
        let seq = 1024;
        let band = 64;
        let m = attention_mask(seq, band, 0.95, 9);
        // Causal: no entries above the diagonal.
        for (r, c, _) in m.iter() {
            assert!(c <= r, "found ({r},{c}) above diagonal");
        }
        // The band is fully dense.
        let (cols, _) = m.row(seq - 1);
        for j in (seq - band)..seq {
            assert!(cols.contains(&(j as u32)), "band column {j} missing");
        }
        // Off-diagonal sparsity near 95%.
        let band_nnz: usize = (0..seq).map(|i| i.min(band - 1) + 1).sum();
        let off_candidates: usize = (0..seq).map(|i| i.saturating_sub(band)).sum();
        let off_nnz = m.nnz() - band_nnz;
        let off_density = off_nnz as f64 / off_candidates as f64;
        assert!(
            (off_density - 0.05).abs() < 0.02,
            "off-diag density {off_density}"
        );
    }

    #[test]
    fn attention_mask_prefers_near_diagonal() {
        let m = attention_mask(2048, 32, 0.95, 2);
        // Count off-band entries in near vs far halves of the distance range.
        let mut near = 0usize;
        let mut far = 0usize;
        for (r, c, _) in m.iter() {
            let d = r - c;
            if d <= 32 {
                continue;
            }
            if d < 512 {
                near += 1;
            } else if d >= 1024 {
                far += 1;
            }
        }
        assert!(near > far, "near {near} should exceed far {far}");
    }

    #[test]
    fn activations_hit_target_zero_fraction() {
        // The burst chain is heavily autocorrelated, so single draws are
        // noisy: average the realized fraction over a few seeds.
        for &z in &[0.3, 0.5, 0.7, 0.9] {
            let frac: f64 = (17u64..20)
                .map(|seed| {
                    let m = activations(512, 512, z, seed);
                    let zeros = m.as_slice().iter().filter(|v| **v == 0.0).count();
                    zeros as f64 / (512.0 * 512.0)
                })
                .sum::<f64>()
                / 3.0;
            assert!((frac - z).abs() < 0.05, "target {z}, observed {frac}");
        }
    }

    #[test]
    fn activations_zeros_are_positive_zero() {
        let m = activations(128, 96, 0.7, 5);
        for v in m.as_slice() {
            if *v == 0.0 {
                assert_eq!(v.to_bits(), 0, "zeros must be +0.0 for LUT deadness");
            } else {
                assert!(*v > 0.0, "nonzeros are post-ReLU positive");
            }
        }
    }

    #[test]
    fn activations_block_structure_is_discoverable() {
        // The 8x32 LUT must find roughly BLOCK_ZERO_SHARE * z of its
        // tiles dead — that is the structure the joint kernels skip.
        let z = 0.7;
        let m = activations(512, 256, z, 23);
        let lut = crate::PatternLut::build(&m, crate::PatternGranularity::Fine);
        let want = BLOCK_ZERO_SHARE * z;
        assert!(
            (lut.dead_fraction() - want).abs() < 0.08,
            "dead fraction {} vs target {want}",
            lut.dead_fraction()
        );
    }

    #[test]
    fn activations_are_bit_reproducible() {
        let a = activations(96, 80, 0.6, 99);
        let b = activations(96, 80, 0.6, 99);
        let same = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "equal seeds must produce bit-identical activations");
        let c = activations(96, 80, 0.6, 100);
        assert_ne!(a.as_slice(), c.as_slice(), "different seed, different bits");
    }

    #[test]
    fn sample_columns_distinct_and_sorted() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = Vec::new();
        for _ in 0..50 {
            let cols = sample_columns(100, 30, &mut rng, &mut scratch);
            assert_eq!(cols.len(), 30);
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "must be strictly increasing");
            }
        }
    }
}
