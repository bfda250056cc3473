//! Recurrent-network problem suite (Section VII-A2, Figure 10).
//!
//! "We benchmark each kernel on RNN, gated recurrent unit (GRU), and long
//! short-term memory network (LSTM) problems with sparse weights ... state
//! sizes 1k, 2k, 4k, and 8k, sparsities 70%, 80%, and 90% and batch sizes 32
//! and 128", with random uniform sparsity. The weight-sparse recurrent
//! matmul has M = gates x hidden (4x for LSTM, 3x for GRU, 1x for vanilla
//! RNN), K = hidden, N = batch.

use sparse::{gen, CsrMatrix};

/// Recurrent cell family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    Rnn,
    Gru,
    Lstm,
}

impl CellKind {
    /// Gate multiplier: rows of the recurrent weight matrix per hidden unit.
    pub fn gates(self) -> usize {
        match self {
            CellKind::Rnn => 1,
            CellKind::Gru => 3,
            CellKind::Lstm => 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CellKind::Rnn => "RNN",
            CellKind::Gru => "GRU",
            CellKind::Lstm => "LSTM",
        }
    }
}

/// One benchmark problem from the Figure 10 suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RnnProblem {
    pub cell: CellKind,
    pub hidden: usize,
    pub sparsity: f64,
    pub batch: usize,
}

impl RnnProblem {
    /// M dimension of the sparse weight matrix.
    pub fn m(&self) -> usize {
        self.cell.gates() * self.hidden
    }

    /// K dimension (the recurrent state size).
    pub fn k(&self) -> usize {
        self.hidden
    }

    /// N dimension (batch).
    pub fn n(&self) -> usize {
        self.batch
    }

    /// Figure 10's "M/K/N/sparsity" label.
    pub fn label(&self) -> String {
        format!(
            "{} {}/{}/{}/{:.0}",
            self.cell.name(),
            self.m(),
            self.k(),
            self.n(),
            self.sparsity * 100.0
        )
    }

    /// Generate the uniformly sparse recurrent weight matrix.
    pub fn weights(&self, seed: u64) -> CsrMatrix<f32> {
        gen::uniform(self.m(), self.k(), self.sparsity, seed)
    }

    pub fn flops(&self) -> u64 {
        let nnz = (self.m() as f64 * self.k() as f64 * (1.0 - self.sparsity)) as u64;
        2 * nnz * self.n() as u64
    }
}

/// The full Figure 10 sweep. `hidden_sizes` defaults to the paper's
/// {1k, 2k, 4k, 8k}; pass a subset for quicker runs.
pub fn problem_suite(hidden_sizes: &[usize]) -> Vec<RnnProblem> {
    let mut out = Vec::new();
    for &cell in &[CellKind::Rnn, CellKind::Gru, CellKind::Lstm] {
        for &hidden in hidden_sizes {
            for &sparsity in &[0.7, 0.8, 0.9] {
                for &batch in &[32usize, 128] {
                    out.push(RnnProblem {
                        cell,
                        hidden,
                        sparsity,
                        batch,
                    });
                }
            }
        }
    }
    out
}

/// Profile one problem's recurrent SpMM on the simulator, wrapped in a
/// trace span labelled with the Figure 10 problem name so profile reports
/// attribute the launch to its problem.
pub fn profile_problem(
    gpu: &gpu_sim::Gpu,
    problem: &RnnProblem,
    seed: u64,
) -> gpu_sim::LaunchStats {
    let w = problem.weights(seed);
    gpu_sim::trace::begin_span("layer", &gpu.device().name, || problem.label());
    let cfg = sputnik::SpmmConfig::heuristic::<f32>(problem.n());
    let stats = sputnik::spmm_profile::<f32>(gpu, &w, problem.k(), problem.n(), cfg);
    gpu_sim::trace::end_span(&gpu.device().name);
    stats
}

/// The paper's hidden-size list.
pub const PAPER_HIDDEN_SIZES: [usize; 4] = [1024, 2048, 4096, 8192];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_size_matches_paper() {
        // 3 cells x 4 sizes x 3 sparsities x 2 batches = 72 problems.
        assert_eq!(problem_suite(&PAPER_HIDDEN_SIZES).len(), 72);
    }

    #[test]
    fn gates_scale_m() {
        let lstm = RnnProblem {
            cell: CellKind::Lstm,
            hidden: 1024,
            sparsity: 0.8,
            batch: 32,
        };
        let gru = RnnProblem {
            cell: CellKind::Gru,
            ..lstm
        };
        let rnn = RnnProblem {
            cell: CellKind::Rnn,
            ..lstm
        };
        assert_eq!(lstm.m(), 4096);
        assert_eq!(gru.m(), 3072);
        assert_eq!(rnn.m(), 1024);
    }

    #[test]
    fn weights_match_spec() {
        let p = RnnProblem {
            cell: CellKind::Gru,
            hidden: 512,
            sparsity: 0.8,
            batch: 32,
        };
        let w = p.weights(7);
        assert_eq!(w.rows(), p.m());
        assert_eq!(w.cols(), p.k());
        assert!((w.sparsity() - 0.8).abs() < 0.03);
    }

    #[test]
    fn labels_are_figure10_format() {
        let p = RnnProblem {
            cell: CellKind::Lstm,
            hidden: 2048,
            sparsity: 0.9,
            batch: 128,
        };
        assert_eq!(p.label(), "LSTM 8192/2048/128/90");
    }
}
