//! A weight-sparse LSTM cell, end to end.
//!
//! The Figure 1 / Figure 10 benchmarks time the recurrent SpMM in
//! isolation; this module runs the *whole* cell functionally on the
//! simulator — input and recurrent sparse matmuls, then a fused elementwise
//! kernel for the gate nonlinearities and state update:
//!
//! ```text
//! [i f g o] = W_x x + W_h h + b          (two SpMMs, M = 4H)
//! c' = sigmoid(f) * c + sigmoid(i) * tanh(g)
//! h' = sigmoid(o) * tanh(c')
//! ```

use gpu_sim::{AccessPattern, BlockContext, BufferId, BufferSpec, Dim3, Gpu, Kernel, OutputSlice};
use sparse::{CsrMatrix, Matrix, RowSwizzle};
use sputnik::{SpmmConfig, SpmmKernel};

/// A sparse LSTM cell: both weight matrices pruned, biases dense.
pub struct SparseLstmCell {
    /// Input weights, `4H x I`.
    w_x: CsrMatrix<f32>,
    /// Recurrent weights, `4H x H` — the matrix the paper's benchmarks use.
    w_h: CsrMatrix<f32>,
    bias: Vec<f32>,
    swizzle_x: RowSwizzle,
    swizzle_h: RowSwizzle,
    hidden: usize,
}

/// One step's outputs plus the simulated time of its three kernels.
pub struct LstmStep {
    pub h: Matrix<f32>,
    pub c: Matrix<f32>,
    pub input_matmul_us: f64,
    pub recurrent_matmul_us: f64,
    pub elementwise_us: f64,
}

impl LstmStep {
    pub fn total_us(&self) -> f64 {
        self.input_matmul_us + self.recurrent_matmul_us + self.elementwise_us
    }
}

impl SparseLstmCell {
    pub fn new(w_x: CsrMatrix<f32>, w_h: CsrMatrix<f32>, bias: Vec<f32>) -> Self {
        assert_eq!(w_x.rows(), w_h.rows(), "gate counts must agree");
        assert_eq!(w_x.rows() % 4, 0, "LSTM needs 4 gates");
        let hidden = w_x.rows() / 4;
        assert_eq!(w_h.cols(), hidden, "recurrent weights are 4H x H");
        assert_eq!(bias.len(), 4 * hidden);
        let swizzle_x = RowSwizzle::by_length_desc(&w_x);
        let swizzle_h = RowSwizzle::by_length_desc(&w_h);
        Self {
            w_x,
            w_h,
            bias,
            swizzle_x,
            swizzle_h,
            hidden,
        }
    }

    /// Generate a random cell at the given sparsity (for benchmarks).
    pub fn random(input: usize, hidden: usize, sparsity: f64, seed: u64) -> Self {
        let w_x = sparse::gen::uniform(4 * hidden, input, sparsity, seed);
        let w_h = sparse::gen::uniform(4 * hidden, hidden, sparsity, seed ^ 0x15);
        let bias = vec![0.0f32; 4 * hidden];
        Self::new(w_x, w_h, bias)
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// One timestep: `x` is `I x batch`, `h`/`c` are `H x batch`.
    pub fn step(&self, gpu: &Gpu, x: &Matrix<f32>, h: &Matrix<f32>, c: &Matrix<f32>) -> LstmStep {
        let batch = x.cols();
        assert_eq!(h.cols(), batch);
        assert_eq!(c.cols(), batch);
        assert_eq!(h.rows(), self.hidden);

        // The whole step is one span on the device track: two SpMMs plus the
        // fused elementwise kernel.
        gpu_sim::trace::begin_span("layer", &gpu.device().name, || {
            format!("lstm_step h={} b={batch}", self.hidden)
        });

        // Gates from the input path.
        let cfg = SpmmConfig::heuristic::<f32>(batch);
        let mut gates = Matrix::<f32>::zeros(4 * self.hidden, batch);
        let s1 = {
            let kernel = SpmmKernel::new(&self.w_x, x, &mut gates, &self.swizzle_x, cfg);
            gpu.launch(&kernel)
        };
        // Recurrent path into a second buffer (real frameworks fuse the
        // accumulation; we add on the host and charge the elementwise kernel
        // for the extra read).
        let mut gates_h = Matrix::<f32>::zeros(4 * self.hidden, batch);
        let s2 = {
            let kernel = SpmmKernel::new(&self.w_h, h, &mut gates_h, &self.swizzle_h, cfg);
            gpu.launch(&kernel)
        };
        for (g, gh) in gates.as_mut_slice().iter_mut().zip(gates_h.as_slice()) {
            *g += gh;
        }

        // Fused gate nonlinearities + state update.
        let mut h_out = Matrix::<f32>::zeros(self.hidden, batch);
        let mut c_out = Matrix::<f32>::zeros(self.hidden, batch);
        let s3 = {
            let kernel = LstmElementwiseKernel::new(&gates, &self.bias, c, &mut h_out, &mut c_out);
            gpu.launch(&kernel)
        };

        gpu_sim::trace::end_span(&gpu.device().name);
        LstmStep {
            h: h_out,
            c: c_out,
            input_matmul_us: s1.time_us,
            recurrent_matmul_us: s2.time_us,
            elementwise_us: s3.time_us,
        }
    }
}

pub const BUF_GATES: BufferId = BufferId(0);
pub const BUF_BIAS: BufferId = BufferId(1);
pub const BUF_C_IN: BufferId = BufferId(2);
pub const BUF_H_OUT: BufferId = BufferId(3);
pub const BUF_C_OUT: BufferId = BufferId(4);

/// The fused LSTM pointwise kernel: reads the summed pre-activations
/// (4H x batch), the bias, and the previous cell state; writes h' and c'.
pub struct LstmElementwiseKernel<'a> {
    gates: &'a Matrix<f32>,
    bias: &'a [f32],
    c_in: &'a Matrix<f32>,
    h_out: OutputSlice<'a, f32>,
    c_out: OutputSlice<'a, f32>,
    hidden: usize,
    batch: usize,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl<'a> LstmElementwiseKernel<'a> {
    pub fn new(
        gates: &'a Matrix<f32>,
        bias: &'a [f32],
        c_in: &'a Matrix<f32>,
        h_out: &'a mut Matrix<f32>,
        c_out: &'a mut Matrix<f32>,
    ) -> Self {
        let hidden = c_in.rows();
        let batch = c_in.cols();
        assert_eq!(gates.rows(), 4 * hidden);
        assert_eq!(gates.cols(), batch);
        assert_eq!(bias.len(), 4 * hidden);
        assert_eq!((h_out.rows(), h_out.cols()), (hidden, batch));
        assert_eq!((c_out.rows(), c_out.cols()), (hidden, batch));
        Self {
            gates,
            bias,
            c_in,
            h_out: OutputSlice::new(h_out.as_mut_slice()),
            c_out: OutputSlice::new(c_out.as_mut_slice()),
            hidden,
            batch,
        }
    }
}

impl Kernel for LstmElementwiseKernel<'_> {
    fn name(&self) -> String {
        "lstm_elementwise".to_string()
    }

    fn grid(&self) -> Dim3 {
        Dim3::x(((self.hidden * self.batch) as u32).div_ceil(256))
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(256)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let hb = (self.hidden * self.batch * 4) as u64;
        vec![
            BufferSpec {
                id: BUF_GATES,
                name: "gates",
                footprint_bytes: 4 * hb,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_BIAS,
                name: "bias",
                footprint_bytes: (4 * self.hidden * 4) as u64,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_C_IN,
                name: "c_in",
                footprint_bytes: hb,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_H_OUT,
                name: "h_out",
                footprint_bytes: hb,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_C_OUT,
                name: "c_out",
                footprint_bytes: hb,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let start = block.x as usize * 256;
        let total = self.hidden * self.batch;
        let count = 256.min(total - start);
        if count == 0 {
            return;
        }
        let warps = (count as u64).div_ceil(32);
        // Four strided gate reads (one per gate region), bias, c_in.
        for gate in 0..4u64 {
            ctx.cost.ld_global_instrs += warps;
            ctx.cost.gmem[BUF_GATES.0 as usize].ld_sectors += gpu_sim::memory::sectors_contiguous(
                (gate * total as u64 + start as u64) * 4,
                count as u64 * 4,
            );
        }
        ctx.ld_global(BUF_BIAS, 0, warps as u32, 1, 4);
        ctx.cost.ld_global_instrs += warps;
        ctx.cost.gmem[BUF_C_IN.0 as usize].ld_sectors +=
            gpu_sim::memory::sectors_contiguous(start as u64 * 4, count as u64 * 4);
        // sigmoid x3 + tanh x2 + FMAs: ~24 flops/element through the MUFU.
        ctx.fp(24 * warps, 24 * count as u64);
        ctx.misc(8 * warps);
        ctx.cost.st_global_instrs += 2 * warps;
        ctx.cost.gmem[BUF_H_OUT.0 as usize].st_sectors +=
            gpu_sim::memory::sectors_contiguous(start as u64 * 4, count as u64 * 4);
        ctx.cost.gmem[BUF_C_OUT.0 as usize].st_sectors +=
            gpu_sim::memory::sectors_contiguous(start as u64 * 4, count as u64 * 4);
        ctx.cost.flops += 24 * count as u64;

        if ctx.functional() {
            let g = self.gates.as_slice();
            let c_in = self.c_in.as_slice();
            let b = self.batch;
            for (idx, &c_prev) in c_in.iter().enumerate().take(start + count).skip(start) {
                let (row, col) = (idx / b, idx % b);
                let gate = |k: usize| {
                    g[(k * self.hidden + row) * b + col] + self.bias[k * self.hidden + row]
                };
                let i = sigmoid(gate(0));
                let f = sigmoid(gate(1));
                let gg = gate(2).tanh();
                let o = sigmoid(gate(3));
                let c_new = f * c_prev + i * gg;
                self.c_out.write(idx, c_new);
                self.h_out.write(idx, o * c_new.tanh());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Host reference for one LSTM step.
    fn reference_step(
        cell_wx: &CsrMatrix<f32>,
        cell_wh: &CsrMatrix<f32>,
        bias: &[f32],
        x: &Matrix<f32>,
        h: &Matrix<f32>,
        c: &Matrix<f32>,
    ) -> (Matrix<f32>, Matrix<f32>) {
        let gx = sputnik::reference::spmm(cell_wx, x);
        let gh = sputnik::reference::spmm(cell_wh, h);
        let hidden = h.rows();
        let batch = h.cols();
        let mut h_out = Matrix::zeros(hidden, batch);
        let mut c_out = Matrix::zeros(hidden, batch);
        for r in 0..hidden {
            for col in 0..batch {
                let gate = |k: usize| {
                    gx.get(k * hidden + r, col) + gh.get(k * hidden + r, col) + bias[k * hidden + r]
                };
                let i = sigmoid(gate(0));
                let f = sigmoid(gate(1));
                let g = gate(2).tanh();
                let o = sigmoid(gate(3));
                let cn = f * c.get(r, col) + i * g;
                c_out.set(r, col, cn);
                h_out.set(r, col, o * cn.tanh());
            }
        }
        (h_out, c_out)
    }

    #[test]
    fn step_matches_reference() {
        let cell = SparseLstmCell::random(24, 16, 0.7, 601);
        let gpu = Gpu::v100();
        let x = Matrix::<f32>::random(24, 8, 602);
        let h = Matrix::<f32>::random(16, 8, 603);
        let c = Matrix::<f32>::random(16, 8, 604);
        let step = cell.step(&gpu, &x, &h, &c);
        let (h_ref, c_ref) = reference_step(&cell.w_x, &cell.w_h, &cell.bias, &x, &h, &c);
        assert!(step.h.max_abs_diff(&h_ref) < 1e-3);
        assert!(step.c.max_abs_diff(&c_ref) < 1e-3);
        assert!(step.total_us() > 0.0);
    }

    #[test]
    fn states_stay_bounded_over_many_steps() {
        // tanh/sigmoid keep |h| <= 1 regardless of weights — a stability
        // invariant any correct cell satisfies.
        let cell = SparseLstmCell::random(16, 16, 0.8, 605);
        let gpu = Gpu::v100();
        let x = Matrix::<f32>::random(16, 4, 606);
        let mut h = Matrix::<f32>::zeros(16, 4);
        let mut c = Matrix::<f32>::zeros(16, 4);
        for _ in 0..8 {
            let step = cell.step(&gpu, &x, &h, &c);
            h = step.h;
            c = step.c;
            assert!(h.as_slice().iter().all(|v| v.abs() <= 1.0 + 1e-6));
        }
    }

    #[test]
    fn recurrent_matmul_dominates_at_large_hidden() {
        // The Figure 1 premise: the recurrent SpMM is the cell's hot spot.
        let cell = SparseLstmCell::random(256, 512, 0.9, 607);
        let gpu = Gpu::v100();
        let x = Matrix::<f32>::random(256, 32, 608);
        let h = Matrix::<f32>::zeros(512, 32);
        let c = Matrix::<f32>::zeros(512, 32);
        let step = cell.step(&gpu, &x, &h, &c);
        assert!(
            step.recurrent_matmul_us > step.elementwise_us,
            "recurrent {} vs elementwise {}",
            step.recurrent_matmul_us,
            step.elementwise_us
        );
    }
}
