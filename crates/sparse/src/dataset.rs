//! Synthetic corpora standing in for the paper's matrix datasets.
//!
//! The paper benchmarks on 3,012 weight matrices from pruned ResNet-50 and
//! Transformer checkpoints (the "State of Sparsity" study) and contrasts
//! their statistics with 2,833 SuiteSparse matrices. Neither collection is
//! available here, so we generate matrices with the same layer shapes and
//! calibrated row-length statistics (see `DESIGN.md`, substitution table).
//! The kernels only observe (shape, sparsity, row-length distribution), so
//! calibrated synthetic matrices preserve the benchmark's behaviour.
//!
//! One deliberate scaling substitution: the paper's ResNet-50 training batch
//! is 256; simulating N = 3136 x 256 functionally is beyond this host, so the
//! corpus uses a training batch of 32 for ResNet-50 (documented in
//! EXPERIMENTS.md). Transformer batches match the paper (1 and 8).

use crate::csr::CsrMatrix;
use crate::gen;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Model family a weight matrix came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    Transformer,
    ResNet50,
}

/// The four sparsification algorithms of the source study; each leaves a
/// characteristic amount of row-length variation in the pruned matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruningMethod {
    MagnitudePruning,
    VariationalDropout,
    L0Regularization,
    RandomPruning,
}

impl PruningMethod {
    pub const ALL: [PruningMethod; 4] = [
        PruningMethod::MagnitudePruning,
        PruningMethod::VariationalDropout,
        PruningMethod::L0Regularization,
        PruningMethod::RandomPruning,
    ];

    /// Row-length CoV this method typically leaves behind. Calibrated so the
    /// corpus mean CoV lands near the paper's Figure 2 (≈0.2 for DL
    /// matrices, 25x below SuiteSparse's ≈5).
    pub fn row_cov(self) -> f64 {
        match self {
            PruningMethod::MagnitudePruning => 0.17,
            PruningMethod::VariationalDropout => 0.35,
            PruningMethod::L0Regularization => 0.28,
            PruningMethod::RandomPruning => 0.06,
        }
    }
}

/// One benchmark problem: a sparse weight matrix plus the N dimension its
/// SpMM/SDDMM sees per batch element.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSpec {
    pub model: ModelFamily,
    /// Layer name, e.g. `"block3/conv1x1_expand"`.
    pub layer: &'static str,
    /// Output features (M, rows of the sparse weight matrix).
    pub rows: usize,
    /// Input features (K, columns of the sparse weight matrix).
    pub cols: usize,
    /// N per batch element: sequence length (Transformer) or spatial size
    /// H*W (convolutions).
    pub base_n: usize,
    pub sparsity: f64,
    pub method: PruningMethod,
    /// Checkpoint replica index (the study trained several seeds per
    /// configuration).
    pub replica: u32,
}

impl ProblemSpec {
    /// Deterministic seed derived from the spec's identity.
    pub fn seed(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(self.rows as u64);
        mix(self.cols as u64);
        mix(self.base_n as u64);
        mix((self.sparsity * 1e6) as u64);
        mix(self.method as u64);
        mix(self.replica as u64);
        mix(self.layer.len() as u64);
        h
    }

    /// Materialize the sparse weight matrix.
    pub fn generate(&self) -> CsrMatrix<f32> {
        gen::with_cov(
            self.rows,
            self.cols,
            self.sparsity,
            self.method.row_cov(),
            self.seed(),
        )
    }

    /// The SpMM N dimension at a given batch size. Inference problems pad N
    /// to a multiple of four, as the paper does "to enable vector memory
    /// instructions".
    pub fn n(&self, batch: usize) -> usize {
        let n = self.base_n * batch;
        n.div_ceil(4) * 4
    }

    /// The batch sizes the corpus benchmarks use (inference, training).
    pub fn batch_sizes(&self) -> (usize, usize) {
        match self.model {
            ModelFamily::Transformer => (1, 8),
            // Paper: (1, 256); scaled to 32 for simulation tractability.
            ModelFamily::ResNet50 => (1, 32),
        }
    }

    /// FLOPs of the sparse matmul at batch `batch` (2 * nnz * N).
    pub fn flops(&self, batch: usize) -> u64 {
        let nnz = (self.rows as f64 * self.cols as f64 * (1.0 - self.sparsity)) as u64;
        2 * nnz * self.n(batch) as u64
    }
}

/// Layer inventory: (name, M, K, base_n).
const TRANSFORMER_LAYERS: &[(&str, usize, usize, usize)] = &[
    ("encoder/self_attention/q_proj", 1024, 1024, 64),
    ("encoder/self_attention/k_proj", 1024, 1024, 64),
    ("encoder/self_attention/v_proj", 1024, 1024, 64),
    ("encoder/self_attention/o_proj", 1024, 1024, 64),
    ("encoder/ffn/intermediate", 4096, 1024, 64),
    ("encoder/ffn/output", 1024, 4096, 64),
];

const RESNET50_LAYERS: &[(&str, usize, usize, usize)] = &[
    // Stage 2 (56x56 = 3136 spatial positions).
    ("block2/conv1x1_reduce", 64, 256, 3136),
    ("block2/conv3x3", 64, 576, 3136),
    ("block2/conv1x1_expand", 256, 64, 3136),
    // Stage 3 (28x28 = 784).
    ("block3/conv1x1_reduce", 128, 512, 784),
    ("block3/conv3x3", 128, 1152, 784),
    ("block3/conv1x1_expand", 512, 128, 784),
    // Stage 4 (14x14 = 196).
    ("block4/conv1x1_reduce", 256, 1024, 196),
    ("block4/conv3x3", 256, 2304, 196),
    ("block4/conv1x1_expand", 1024, 256, 196),
    // Stage 5 (7x7 = 49).
    ("block5/conv1x1_reduce", 512, 2048, 49),
    ("block5/conv3x3", 512, 4608, 49),
    ("block5/conv1x1_expand", 2048, 512, 49),
    // Classifier.
    ("fc1000", 1024, 2048, 1),
];

/// Sparsity levels in the source study's sweeps.
const SPARSITIES: &[f64] = &[0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98];

/// The deep-learning corpus: every (layer x sparsity x method x replica)
/// combination, truncated to exactly the paper's 3,012 matrices.
pub fn dl_corpus() -> Vec<ProblemSpec> {
    let mut specs = Vec::new();
    for replica in 0..6u32 {
        for &method in &PruningMethod::ALL {
            for &sparsity in SPARSITIES {
                for &(layer, rows, cols, base_n) in TRANSFORMER_LAYERS {
                    specs.push(ProblemSpec {
                        model: ModelFamily::Transformer,
                        layer,
                        rows,
                        cols,
                        base_n,
                        sparsity,
                        method,
                        replica,
                    });
                }
                for &(layer, rows, cols, base_n) in RESNET50_LAYERS {
                    specs.push(ProblemSpec {
                        model: ModelFamily::ResNet50,
                        layer,
                        rows,
                        cols,
                        base_n,
                        sparsity,
                        method,
                        replica,
                    });
                }
            }
        }
    }
    specs.truncate(3012);
    specs
}

/// A deterministic sample of the corpus for tractable benchmark sweeps.
pub fn dl_corpus_sample(count: usize, seed: u64) -> Vec<ProblemSpec> {
    let mut specs = dl_corpus();
    let mut rng = StdRng::seed_from_u64(seed);
    // Partial Fisher-Yates shuffle, then truncate.
    let n = specs.len();
    for i in 0..count.min(n) {
        let j = rng.random_range(i..n);
        specs.swap(i, j);
    }
    specs.truncate(count.min(n));
    specs
}

/// Shape parameters of one synthetic "scientific computing" matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScientificSpec {
    pub rows: usize,
    pub cols: usize,
    pub avg_row_len: f64,
    /// Pareto tail index; smaller = heavier tail = higher CoV.
    pub alpha: f64,
    pub seed: u64,
}

impl ScientificSpec {
    pub fn generate(&self) -> CsrMatrix<f32> {
        gen::power_law(
            self.rows,
            self.cols,
            self.avg_row_len,
            self.alpha,
            self.seed,
        )
    }
}

/// The SuiteSparse stand-in corpus: heavy-tailed, 99%+ sparse matrices with
/// sizes drawn log-uniformly. Matches the Figure 2 histogram statistics
/// (13.4x sparser, 2.3x shorter rows, 25x higher CoV than the DL corpus).
/// Dimensions are capped at 16,384 for generation tractability — the paper's
/// comparison is of *statistics*, which are size-independent here.
pub fn scientific_corpus(count: usize, seed: u64) -> Vec<ScientificSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let log_size = rng.random_range(11.0f64..15.0); // 2^11 .. 2^15
            let n = (2.0f64.powf(log_size)) as usize;
            // SuiteSparse averages ~10^2 nonzeros per row with a long tail;
            // calibrated so the corpus means land on Figure 2's ratios
            // (2.3x shorter rows, 25x higher CoV than the DL corpus).
            let avg = rng.random_range(20.0f64..250.0).min(n as f64 / 8.0);
            let alpha = rng.random_range(1.06f64..1.45);
            ScientificSpec {
                rows: n,
                cols: n,
                avg_row_len: avg,
                alpha,
                seed: seed ^ (i as u64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{matrix_stats, mean};

    #[test]
    fn corpus_has_paper_size() {
        assert_eq!(dl_corpus().len(), 3012);
    }

    #[test]
    fn corpus_sample_is_deterministic_subset() {
        let a = dl_corpus_sample(50, 1);
        let b = dl_corpus_sample(50, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let full = dl_corpus();
        assert!(a.iter().all(|s| full.contains(s)));
    }

    #[test]
    fn specs_generate_matching_matrices() {
        let spec = &dl_corpus()[10];
        let m = spec.generate();
        assert_eq!(m.rows(), spec.rows);
        assert_eq!(m.cols(), spec.cols);
        let s = matrix_stats(&m);
        assert!((s.sparsity - spec.sparsity).abs() < 0.05);
        // Same spec regenerates identically.
        assert_eq!(spec.generate(), m);
    }

    #[test]
    fn inference_n_is_padded_to_four() {
        let spec = ProblemSpec {
            model: ModelFamily::ResNet50,
            layer: "t",
            rows: 64,
            cols: 64,
            base_n: 49,
            sparsity: 0.9,
            method: PruningMethod::MagnitudePruning,
            replica: 0,
        };
        assert_eq!(spec.n(1), 52);
        assert_eq!(spec.n(32), ((49 * 32 / 4) * 4));
    }

    #[test]
    fn corpus_statistics_separate_from_scientific() {
        // Small sample of each corpus; DL must be less sparse, longer-rowed,
        // and far more balanced than scientific — the Figure 2 result.
        let dl: Vec<_> = dl_corpus_sample(12, 3)
            .iter()
            .map(|s| matrix_stats(&s.generate()))
            .collect();
        let sci: Vec<_> = scientific_corpus(6, 3)
            .iter()
            .map(|s| matrix_stats(&s.generate()))
            .collect();
        let dl_sparsity = mean(&dl.iter().map(|s| s.sparsity).collect::<Vec<_>>());
        let sci_sparsity = mean(&sci.iter().map(|s| s.sparsity).collect::<Vec<_>>());
        let dl_cov = mean(&dl.iter().map(|s| s.row_cov).collect::<Vec<_>>());
        let sci_cov = mean(&sci.iter().map(|s| s.row_cov).collect::<Vec<_>>());
        assert!(
            dl_sparsity < sci_sparsity,
            "DL {dl_sparsity} vs sci {sci_sparsity}"
        );
        assert!(
            dl_cov * 3.0 < sci_cov,
            "DL cov {dl_cov} vs sci cov {sci_cov}"
        );
    }
}
