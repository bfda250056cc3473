//! Neural-network layer primitives on the simulated GPU.
//!
//! Everything the paper's application benchmarks need beyond the core
//! SpMM/SDDMM: dense/sparse linear layers (1x1 convolutions in CHW layout
//! are exactly matrix multiplications), depthwise convolutions with fused
//! bias + ReLU ("for depthwise convolution, we wrote kernels that support
//! fused bias and ReLU operations"), a standalone fused bias + ReLU kernel
//! for the dense baselines, and a dense row-softmax for dense attention.

use gpu_sim::{
    AccessPattern, BlockContext, BufferId, BufferSpec, Dim3, Gpu, Kernel, LaunchStats, OutputSlice,
};
use sparse::{CsrMatrix, Matrix, RowSwizzle};
use sputnik::{SpmmConfig, SpmmKernel};

/// A linear operator `y = W x`, or `y = relu(W x + b)` with the epilogue,
/// with dense or sparse weights. Activations are `K x N` (features x
/// positions), weights `M x K`, and the epilogue's bias has one entry per
/// output row. The dense variant launches a separate bias + ReLU kernel;
/// the sparse variant fuses it into the SpMM.
pub enum Linear {
    Dense {
        weights: Matrix<f32>,
        bias_relu: Option<Vec<f32>>,
    },
    Sparse {
        weights: CsrMatrix<f32>,
        swizzle: RowSwizzle,
        bias_relu: Option<Vec<f32>>,
    },
}

impl Linear {
    pub fn dense(weights: Matrix<f32>, bias_relu: Option<Vec<f32>>) -> Self {
        Linear::Dense { weights, bias_relu }
    }

    pub fn sparse(weights: CsrMatrix<f32>, bias_relu: Option<Vec<f32>>) -> Self {
        let swizzle = RowSwizzle::by_length_desc(&weights);
        Linear::Sparse {
            weights,
            swizzle,
            bias_relu,
        }
    }

    /// Weight memory in bytes (CSR for sparse, dense array otherwise).
    pub fn weight_bytes(&self) -> u64 {
        match self {
            Linear::Dense { weights, .. } => weights.bytes(),
            Linear::Sparse {
                weights, swizzle, ..
            } => weights.bytes(sparse::IndexWidth::U32) + swizzle.bytes(),
        }
    }

    /// Functional forward pass; returns activations and total simulated time
    /// across the launched kernels.
    pub fn forward(&self, gpu: &Gpu, x: &Matrix<f32>) -> (Matrix<f32>, f64) {
        match self {
            Linear::Dense {
                weights,
                bias_relu: epilogue,
            } => {
                let (y, s1) = baselines::gemm(gpu, weights, x);
                match epilogue {
                    Some(b) => {
                        let (y, s2) = bias_relu(gpu, &y, b, true);
                        (y, s1.time_us + s2.time_us)
                    }
                    None => (y, s1.time_us),
                }
            }
            Linear::Sparse {
                weights,
                swizzle,
                bias_relu,
            } => {
                let mut cfg = SpmmConfig::heuristic::<f32>(x.cols());
                cfg.fused_bias_relu = bias_relu.is_some();
                let mut out = Matrix::<f32>::zeros(weights.rows(), x.cols());
                let stats = {
                    let kernel = SpmmKernel::new(weights, x, &mut out, swizzle, cfg);
                    match bias_relu {
                        Some(b) => gpu.launch(&kernel.with_bias_relu(b)),
                        None => gpu.launch(&kernel),
                    }
                };
                (out, stats.time_us)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fused bias + ReLU kernel
// ---------------------------------------------------------------------------

pub const BUF_X: BufferId = BufferId(0);
pub const BUF_BIAS: BufferId = BufferId(1);
pub const BUF_Y: BufferId = BufferId(2);

/// Elementwise `y = max(0, x + bias[row])` over an M x N activation matrix —
/// the epilogue kernel the paper wrote for its dense MobileNet baseline.
pub struct BiasReluKernel<'a> {
    x: Option<&'a Matrix<f32>>,
    bias: Option<&'a [f32]>,
    out: Option<OutputSlice<'a, f32>>,
    relu: bool,
    m: usize,
    n: usize,
}

impl<'a> BiasReluKernel<'a> {
    pub fn new(x: &'a Matrix<f32>, bias: &'a [f32], out: &'a mut Matrix<f32>, relu: bool) -> Self {
        assert_eq!(bias.len(), x.rows());
        assert_eq!((out.rows(), out.cols()), (x.rows(), x.cols()));
        let (m, n) = (x.rows(), x.cols());
        Self {
            x: Some(x),
            bias: Some(bias),
            out: Some(OutputSlice::new(out.as_mut_slice())),
            relu,
            m,
            n,
        }
    }

    pub fn for_profile(m: usize, n: usize) -> Self {
        Self {
            x: None,
            bias: None,
            out: None,
            relu: true,
            m,
            n,
        }
    }
}

impl Kernel for BiasReluKernel<'_> {
    fn name(&self) -> String {
        "fused_bias_relu".to_string()
    }

    fn grid(&self) -> Dim3 {
        Dim3::xy((self.n as u32).div_ceil(256), self.m as u32)
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(256)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        vec![
            BufferSpec {
                id: BUF_X,
                name: "x",
                footprint_bytes: (self.m * self.n * 4) as u64,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_BIAS,
                name: "bias",
                footprint_bytes: self.m as u64 * 4,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_Y,
                name: "y",
                footprint_bytes: (self.m * self.n * 4) as u64,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let row = block.y as usize;
        let c0 = block.x as usize * 256;
        let w = 256.min(self.n - c0);
        let addr = (row * self.n + c0) as u64 * 4;
        let instrs = (w as u64).div_ceil(32 * 4);
        ctx.ld_global(BUF_BIAS, row as u64 * 4, 1, 1, 4);
        let sectors = ctx.sectors(BUF_X, addr, w as u64 * 4, 1, 1);
        ctx.ld_sectors(BUF_X, instrs, sectors);
        let sectors = ctx.sectors(BUF_Y, addr, w as u64 * 4, 1, 1);
        ctx.st_sectors(BUF_Y, instrs, sectors);
        ctx.fp(2 * (w as u64).div_ceil(32), 2 * w as u64);
        ctx.misc(6);

        if let (true, Some(x), Some(bias), Some(out)) =
            (ctx.functional(), self.x, self.bias, self.out.as_ref())
        {
            let x = x.as_slice();
            let b = bias[row];
            for c in c0..c0 + w {
                let mut v = x[row * self.n + c] + b;
                if self.relu {
                    v = v.max(0.0);
                }
                out.write(row * self.n + c, v);
            }
        }
    }
}

/// Functional fused bias (+ optional ReLU).
pub fn bias_relu(
    gpu: &Gpu,
    x: &Matrix<f32>,
    bias: &[f32],
    relu: bool,
) -> (Matrix<f32>, LaunchStats) {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    let stats = {
        let kernel = BiasReluKernel::new(x, bias, &mut out, relu);
        gpu.launch(&kernel)
    };
    (out, stats)
}

/// Profile the fused bias + ReLU at the given shape.
pub fn bias_relu_profile(gpu: &Gpu, m: usize, n: usize) -> LaunchStats {
    gpu.profile(&BiasReluKernel::for_profile(m, n))
}

// ---------------------------------------------------------------------------
// Depthwise 3x3 convolution (CHW layout)
// ---------------------------------------------------------------------------

/// A CHW image tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Chw {
    pub channels: usize,
    pub height: usize,
    pub width: usize,
    pub data: Vec<f32>,
}

impl Chw {
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
            data: vec![0.0; channels * height * width],
        }
    }

    pub fn random(channels: usize, height: usize, width: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..channels * height * width)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        Self {
            channels,
            height,
            width,
            data,
        }
    }

    #[inline]
    pub fn get(&self, c: usize, y: i64, x: i64) -> f32 {
        if y < 0 || x < 0 || y >= self.height as i64 || x >= self.width as i64 {
            return 0.0; // zero padding
        }
        self.data[c * self.height * self.width + y as usize * self.width + x as usize]
    }

    /// View the CHW tensor as a (channels x pixels) activation matrix — the
    /// layout under which 1x1 convolutions are plain matrix multiplications
    /// ("the 1x1 convolutions ... can be computed as matrix multiplication
    /// if the input data is stored in CHW format").
    pub fn as_matrix(&self) -> Matrix<f32> {
        Matrix::from_vec(self.channels, self.height * self.width, self.data.clone())
    }

    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }
}

/// Depthwise 3x3 convolution with fused bias + ReLU, stride 1 or 2,
/// zero padding 1.
pub struct DepthwiseConvKernel<'a> {
    input: Option<&'a Chw>,
    /// 3x3 filter per channel, flattened `[c][ky*3+kx]`.
    filters: Option<&'a [f32]>,
    bias: Option<&'a [f32]>,
    out: Option<OutputSlice<'a, f32>>,
    channels: usize,
    in_h: usize,
    in_w: usize,
    stride: usize,
}

pub const BUF_DW_IN: BufferId = BufferId(0);
pub const BUF_DW_W: BufferId = BufferId(1);
pub const BUF_DW_OUT: BufferId = BufferId(2);

impl<'a> DepthwiseConvKernel<'a> {
    pub fn new(
        input: &'a Chw,
        filters: &'a [f32],
        bias: &'a [f32],
        out: &'a mut Chw,
        stride: usize,
    ) -> Self {
        assert!(stride == 1 || stride == 2);
        assert_eq!(filters.len(), input.channels * 9);
        assert_eq!(bias.len(), input.channels);
        let (oh, ow) = Self::out_dims(input.height, input.width, stride);
        assert_eq!(
            (out.channels, out.height, out.width),
            (input.channels, oh, ow)
        );
        let (channels, in_h, in_w) = (input.channels, input.height, input.width);
        Self {
            input: Some(input),
            filters: Some(filters),
            bias: Some(bias),
            out: Some(OutputSlice::new(&mut out.data)),
            channels,
            in_h,
            in_w,
            stride,
        }
    }

    pub fn for_profile(channels: usize, in_h: usize, in_w: usize, stride: usize) -> Self {
        Self {
            input: None,
            filters: None,
            bias: None,
            out: None,
            channels,
            in_h,
            in_w,
            stride,
        }
    }

    pub fn out_dims(h: usize, w: usize, stride: usize) -> (usize, usize) {
        (h.div_ceil(stride), w.div_ceil(stride))
    }
}

impl Kernel for DepthwiseConvKernel<'_> {
    fn name(&self) -> String {
        format!("depthwise_conv3x3_s{}_bias_relu", self.stride)
    }

    fn grid(&self) -> Dim3 {
        let (oh, ow) = Self::out_dims(self.in_h, self.in_w, self.stride);
        Dim3::xy(((oh * ow) as u32).div_ceil(256), self.channels as u32)
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(256)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let (oh, ow) = Self::out_dims(self.in_h, self.in_w, self.stride);
        vec![
            BufferSpec {
                id: BUF_DW_IN,
                name: "input",
                footprint_bytes: (self.channels * self.in_h * self.in_w * 4) as u64,
                pattern: AccessPattern::SharedReuse, // 3x3 window overlap
            },
            BufferSpec {
                id: BUF_DW_W,
                name: "filters",
                footprint_bytes: (self.channels * 9 * 4) as u64,
                pattern: AccessPattern::SharedReuse,
            },
            BufferSpec {
                id: BUF_DW_OUT,
                name: "output",
                footprint_bytes: (self.channels * oh * ow * 4) as u64,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let c = block.y as usize;
        let (oh, ow) = Self::out_dims(self.in_h, self.in_w, self.stride);
        let p0 = block.x as usize * 256;
        let count = 256.min(oh * ow - p0);
        if count == 0 {
            return;
        }

        // Cost: each output pixel reads a 3x3 window (overlapping rows are
        // sector-shared across the warp: ~3 rows of stride-adjacent pixels),
        // 9 FMAs, fused bias + ReLU, one store.
        let warps = (count as u64).div_ceil(32);
        ctx.ld_global(BUF_DW_W, (c * 9) as u64 * 4, 9, 1, 4);
        ctx.ld_global(BUF_DW_W, c as u64 * 4, 1, 1, 4); // bias via same buffer
                                                        // 3 rows x 3 taps of (mostly) contiguous loads per warp.
        let row_bytes = (32 * self.stride) as u64 * 4 + 8;
        let in_sectors = warps * 3 * gpu_sim::memory::sectors_contiguous(4, row_bytes);
        ctx.ld_sectors(BUF_DW_IN, warps * 9, in_sectors);
        ctx.fma(warps * 9, 9 * count as u64);
        ctx.fp(warps * 2, 2 * count as u64);
        ctx.misc(warps * 12);
        let out_addr = ((c * oh * ow + p0) * 4) as u64;
        let sectors = ctx.sectors(BUF_DW_OUT, out_addr, count as u64 * 4, 1, 1);
        ctx.st_sectors(BUF_DW_OUT, warps, sectors);

        if let (true, Some(input), Some(filters), Some(bias), Some(out)) = (
            ctx.functional(),
            self.input,
            self.filters,
            self.bias,
            self.out.as_ref(),
        ) {
            let bias = bias[c];
            for p in p0..p0 + count {
                let oy = (p / ow) as i64;
                let ox = (p % ow) as i64;
                let mut acc = bias;
                for ky in 0..3i64 {
                    for kx in 0..3i64 {
                        let iy = oy * self.stride as i64 + ky - 1;
                        let ix = ox * self.stride as i64 + kx - 1;
                        acc += filters[c * 9 + (ky * 3 + kx) as usize] * input.get(c, iy, ix);
                    }
                }
                out.write(c * oh * ow + p, acc.max(0.0));
            }
        }
    }
}

/// Functional depthwise convolution (stride 1 or 2, pad 1, fused bias+ReLU).
pub fn depthwise_conv(
    gpu: &Gpu,
    input: &Chw,
    filters: &[f32],
    bias: &[f32],
    stride: usize,
) -> (Chw, LaunchStats) {
    let (oh, ow) = DepthwiseConvKernel::out_dims(input.height, input.width, stride);
    let mut out = Chw::zeros(input.channels, oh, ow);
    let stats = {
        let kernel = DepthwiseConvKernel::new(input, filters, bias, &mut out, stride);
        gpu.launch(&kernel)
    };
    (out, stats)
}

/// Profile a depthwise convolution.
pub fn depthwise_conv_profile(
    gpu: &Gpu,
    channels: usize,
    h: usize,
    w: usize,
    stride: usize,
) -> LaunchStats {
    gpu.profile(&DepthwiseConvKernel::for_profile(channels, h, w, stride))
}

// ---------------------------------------------------------------------------
// Dense row softmax (for the dense-attention baseline)
// ---------------------------------------------------------------------------

/// Row-wise softmax over a dense matrix: three bandwidth-bound passes, one
/// warp row-slice each. The memory traffic of this kernel on seq x seq score
/// matrices is a large part of why dense attention runs out of memory and
/// time at long sequence lengths.
pub struct DenseSoftmaxKernel<'a> {
    x: Option<&'a Matrix<f32>>,
    out: Option<OutputSlice<'a, f32>>,
    m: usize,
    n: usize,
    /// Logit scale applied on the fly while reading `x` (attention's
    /// `1/sqrt(d_k)`), so the host never mutates device data outside a
    /// launch. `None` is bit-identical to the historical unscaled kernel.
    scale: Option<f32>,
}

impl<'a> DenseSoftmaxKernel<'a> {
    pub fn new(x: &'a Matrix<f32>, out: &'a mut Matrix<f32>) -> Self {
        assert_eq!((out.rows(), out.cols()), (x.rows(), x.cols()));
        let (m, n) = (x.rows(), x.cols());
        Self {
            x: Some(x),
            out: Some(OutputSlice::new(out.as_mut_slice())),
            m,
            n,
            scale: None,
        }
    }

    pub fn for_profile(m: usize, n: usize) -> Self {
        Self {
            x: None,
            out: None,
            m,
            n,
            scale: None,
        }
    }

    /// Fold a logit scale into the softmax's read pass.
    pub fn with_scale(mut self, scale: f32) -> Self {
        self.scale = Some(scale);
        self
    }
}

impl Kernel for DenseSoftmaxKernel<'_> {
    fn name(&self) -> String {
        if self.scale.is_some() {
            "dense_softmax_scaled".to_string()
        } else {
            "dense_softmax".to_string()
        }
    }

    fn grid(&self) -> Dim3 {
        Dim3::x((self.m as u32).div_ceil(4))
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::xy(32, 4)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        vec![
            BufferSpec {
                id: BUF_X,
                name: "x",
                footprint_bytes: (self.m * self.n * 4) as u64,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_Y,
                name: "y",
                footprint_bytes: (self.m * self.n * 4) as u64,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        for w in 0..4usize {
            let row = block.x as usize * 4 + w;
            if row >= self.m {
                continue;
            }
            let n = self.n as u64;
            let load_instrs = n.div_ceil(32 * 4);
            let addr = (row * self.n * 4) as u64;
            let sectors = ctx.sectors(BUF_X, addr, n * 4, 1, 1);
            ctx.ld_sectors(BUF_X, 3 * load_instrs, 3 * sectors);
            if self.scale.is_some() {
                // One multiply per element across the three read passes.
                ctx.fp(3 * n.div_ceil(32), 3 * n);
            }
            ctx.fp(3 * n.div_ceil(32), 3 * n);
            ctx.shfl(10);
            ctx.fp(10, 10);
            let sectors = ctx.sectors(BUF_Y, addr, n * 4, 1, 1);
            ctx.st_sectors(BUF_Y, load_instrs, sectors);
            ctx.misc(8);

            if let (true, Some(x), Some(out)) = (ctx.functional(), self.x, self.out.as_ref()) {
                let mut row_p = ctx.scratch_f32(self.n);
                row_p.copy_from_slice(&x.as_slice()[row * self.n..(row + 1) * self.n]);
                if let Some(s) = self.scale {
                    for p in row_p.iter_mut() {
                        *p *= s;
                    }
                }
                gpu_sim::lanes::softmax_in_place(&mut row_p);
                for (i, &p) in row_p.iter().enumerate() {
                    out.write(row * self.n + i, p);
                }
            }
        }
    }
}

/// Functional dense softmax.
pub fn dense_softmax(gpu: &Gpu, x: &Matrix<f32>) -> (Matrix<f32>, LaunchStats) {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    let stats = {
        let kernel = DenseSoftmaxKernel::new(x, &mut out);
        gpu.launch(&kernel)
    };
    (out, stats)
}

/// Functional dense softmax with the logit scale folded into the kernel's
/// read pass (`softmax(x * scale)` in one launch, no host-side mutation).
pub fn dense_softmax_scaled(gpu: &Gpu, x: &Matrix<f32>, scale: f32) -> (Matrix<f32>, LaunchStats) {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    let stats = {
        let kernel = DenseSoftmaxKernel::new(x, &mut out).with_scale(scale);
        gpu.launch(&kernel)
    };
    (out, stats)
}

/// Profile a scaled dense softmax at the given shape.
pub fn dense_softmax_scaled_profile(gpu: &Gpu, m: usize, n: usize, scale: f32) -> LaunchStats {
    gpu.profile(&DenseSoftmaxKernel::for_profile(m, n).with_scale(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen;

    #[test]
    fn linear_dense_and_sparse_agree_on_dense_weights() {
        // A "sparse" layer holding fully dense weights must match the dense
        // layer's outputs exactly.
        let w = Matrix::<f32>::random(32, 48, 81);
        let x = Matrix::<f32>::random(48, 16, 82);
        let gpu = Gpu::v100();
        let dense = Linear::dense(w.clone(), None);
        let sp = Linear::sparse(CsrMatrix::from_dense(&w), None);
        let (yd, _) = dense.forward(&gpu, &x);
        let (ys, _) = sp.forward(&gpu, &x);
        assert!(yd.max_abs_diff(&ys) < 1e-3);
    }

    /// Both variants compute the same function over the same pruned
    /// weights, with and without the epilogue, and match the reference.
    #[test]
    fn linear_variants_agree_with_and_without_epilogue() {
        let w = gen::uniform(24, 32, 0.8, 83);
        let x = Matrix::<f32>::random(32, 20, 84);
        let bias: Vec<f32> = (0..24).map(|i| i as f32 * 0.1 - 1.0).collect();
        let gpu = Gpu::v100();
        let plain = sputnik::reference::spmm(&w, &x);
        for epilogue in [None, Some(bias.clone())] {
            let expect = match &epilogue {
                Some(b) => sputnik::reference::bias_relu(&plain, b),
                None => plain.clone(),
            };
            let dense = Linear::dense(w.to_dense(), epilogue.clone());
            let sparse = Linear::sparse(w.clone(), epilogue.clone());
            let (yd, _) = dense.forward(&gpu, &x);
            let (ys, _) = sparse.forward(&gpu, &x);
            let with = epilogue.is_some();
            assert!(yd.max_abs_diff(&expect) < 1e-3, "dense, epilogue {with}");
            assert!(ys.max_abs_diff(&expect) < 1e-3, "sparse, epilogue {with}");
            assert!(
                yd.max_abs_diff(&ys) < 1e-3,
                "dense vs sparse, epilogue {with}"
            );
        }
    }

    #[test]
    fn bias_relu_kernel_matches_reference() {
        let x = Matrix::<f32>::random(17, 33, 85);
        let bias: Vec<f32> = (0..17).map(|i| (i as f32 - 8.0) / 4.0).collect();
        let gpu = Gpu::v100();
        let (y, _) = bias_relu(&gpu, &x, &bias, true);
        let expect = sputnik::reference::bias_relu(&x, &bias);
        assert!(y.max_abs_diff(&expect) < 1e-6);
    }

    #[test]
    fn depthwise_conv_identity_filter() {
        // A filter with only the center tap = 1 reproduces the input (ReLU'd).
        let input = Chw::random(4, 8, 8, 86);
        let mut filters = vec![0.0f32; 4 * 9];
        for c in 0..4 {
            filters[c * 9 + 4] = 1.0;
        }
        let bias = vec![0.0f32; 4];
        let gpu = Gpu::v100();
        let (out, _) = depthwise_conv(&gpu, &input, &filters, &bias, 1);
        for c in 0..4 {
            for y in 0..8i64 {
                for x in 0..8i64 {
                    let want = input.get(c, y, x).max(0.0);
                    assert!((out.get(c, y, x) - want).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn depthwise_conv_stride2_dims() {
        let input = Chw::random(2, 9, 9, 87);
        let filters = vec![0.1f32; 18];
        let bias = vec![0.0f32; 2];
        let gpu = Gpu::v100();
        let (out, _) = depthwise_conv(&gpu, &input, &filters, &bias, 2);
        assert_eq!((out.height, out.width), (5, 5));
    }

    #[test]
    fn depthwise_conv_sum_matches_manual() {
        let mut input = Chw::zeros(1, 3, 3);
        input.data = (1..=9).map(|v| v as f32).collect();
        let filters = vec![1.0f32; 9];
        let bias = vec![0.5f32];
        let gpu = Gpu::v100();
        let (out, _) = depthwise_conv(&gpu, &input, &filters, &bias, 1);
        // Center output = sum of all 9 inputs + bias.
        assert!((out.get(0, 1, 1) - 45.5).abs() < 1e-6);
        // Corner sees only the 2x2 in-bounds region.
        assert!((out.get(0, 0, 0) - (1.0 + 2.0 + 4.0 + 5.0 + 0.5)).abs() < 1e-6);
    }

    #[test]
    fn dense_softmax_matches_host() {
        let x = Matrix::<f32>::random(16, 40, 88);
        let gpu = Gpu::v100();
        let (y, _) = dense_softmax(&gpu, &x);
        for r in 0..16 {
            let sum: f32 = (0..40).map(|c| y.get(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn dense_softmax_takes_the_sparse_limits_on_infinite_rows() {
        // Row 0 holds +inf logits (and a -inf one), row 1 only -inf, row 2
        // is finite. Over a mask that keeps every position, the sparse
        // softmax is the reference, bit for bit, and neither returns NaN.
        let (inf, n) = (f32::INFINITY, 5usize);
        let logits = [
            [1.0, inf, -inf, inf, 0.5],
            [-inf; 5],
            [0.25, -1.5, 3.0, 0.0, -0.75],
        ]
        .concat();
        let x = Matrix::from_vec(3, n, logits.clone());
        let gpu = Gpu::v100();
        let (y, _) = dense_softmax(&gpu, &x);
        let offsets = (0..=3).map(|r| (r * n) as u32).collect();
        let indices = (0..3).flat_map(|_| 0..n as u32).collect();
        let full = CsrMatrix::from_parts(3, n, offsets, indices, logits).unwrap();
        let (want, _) = sputnik::sparse_softmax(&gpu, &full);
        assert!(y.as_slice().iter().all(|p| !p.is_nan()), "{y:?}");
        let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(y.as_slice()), bits(want.values()));
        assert_eq!(&y.as_slice()[..n], &[0.0, 0.5, 0.0, 0.5, 0.0]);
        assert_eq!(&y.as_slice()[n..2 * n], &[0.2; 5]);
    }

    use sparse::CsrMatrix;
}
