//! Transposed SpMM: `A^T B => C` (Section IX of the paper).
//!
//! "Training DNNs requires the computation A^T B, where A^T is the transpose
//! of a sparse matrix. It's difficult to fuse the transpose into the SpMM
//! for CSR matrices. However, for DNN training it's possible to cache the
//! row offsets and column indices for A^T when the sparse matrix topology is
//! updated and perform the transpose as an argsort of the matrix values."
//!
//! [`CachedTranspose`] is that scheme: the transposed topology, the value
//! permutation, and the row swizzle are computed once per topology update
//! (amortized over many training steps); each step only needs a cheap
//! device-side gather of the values ([`PermuteKernel`]) before running the
//! ordinary SpMM on the transposed matrix.

use crate::config::SpmmConfig;
use crate::spmm::SpmmKernel;
use gpu_sim::{
    AccessBound, AccessPattern, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferId,
    BufferSpec, Dim3, Gpu, Kernel, LaunchStats, OutputSlice, StageBound, StaticFacts,
};
use sparse::{CsrMatrix, Matrix, RowSwizzle, Scalar};

/// Amortized transpose state for one sparse-matrix topology.
pub struct CachedTranspose<T: Scalar> {
    /// A^T with current values.
    at: CsrMatrix<T>,
    /// `at.values[t] = a.values[perm[t]]`.
    perm: Vec<u32>,
    /// Row swizzle of the transposed matrix (also amortized).
    swizzle: RowSwizzle,
}

impl<T: Scalar> CachedTranspose<T> {
    /// Build the cache: O(nnz) — runs once per topology update.
    pub fn new(a: &CsrMatrix<T>) -> Self {
        let at = a.transpose();
        let perm = a.transpose_permutation();
        let swizzle = RowSwizzle::by_length_desc(&at);
        Self { at, perm, swizzle }
    }

    /// The transposed matrix with current values.
    pub fn matrix(&self) -> &CsrMatrix<T> {
        &self.at
    }

    /// The cached value permutation.
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }

    /// Refresh A^T's values from A's (after a training step changed them but
    /// not the topology): the "argsort of the matrix values" — one gather.
    /// Returns the simulated cost of the device-side permute kernel.
    pub fn update_values(&mut self, gpu: &Gpu, a_values: &[T]) -> LaunchStats {
        assert_eq!(
            a_values.len(),
            self.at.nnz(),
            "topology changed; rebuild the cache"
        );
        let mut new_values = vec![T::zero(); a_values.len()];
        let stats = {
            let kernel = PermuteKernel::new(a_values, &self.perm, &mut new_values);
            gpu.launch(&kernel)
        };
        self.at = self.at.with_values(new_values);
        stats
    }

    /// Compute `A^T B` functionally using the cached topology.
    pub fn spmm(&self, gpu: &Gpu, b: &Matrix<T>, cfg: SpmmConfig) -> (Matrix<T>, LaunchStats) {
        let mut out = Matrix::<T>::zeros(self.at.rows(), b.cols());
        let stats = {
            let cfg = SpmmConfig {
                row_swizzle: true,
                ..cfg
            };
            let kernel = SpmmKernel::new(&self.at, b, &mut out, &self.swizzle, cfg);
            gpu.launch(&kernel)
        };
        (out, stats)
    }

    /// Cost-only `A^T B`.
    pub fn spmm_profile(&self, gpu: &Gpu, n: usize, cfg: SpmmConfig) -> LaunchStats {
        let cfg = SpmmConfig {
            row_swizzle: true,
            ..cfg
        };
        let kernel = SpmmKernel::<T>::for_profile(&self.at, n, &self.swizzle, cfg);
        gpu.profile(&kernel)
    }
}

pub const BUF_SRC: BufferId = BufferId(0);
pub const BUF_PERM: BufferId = BufferId(1);
pub const BUF_DST: BufferId = BufferId(2);

/// The per-step value gather: `dst[i] = src[perm[i]]`. Bandwidth-bound;
/// destination writes are coalesced, source reads scatter (the permutation
/// is a transpose order).
pub struct PermuteKernel<'a, T: Scalar> {
    src: &'a [T],
    perm: &'a [u32],
    dst: OutputSlice<'a, T>,
}

const PERMUTE_BLOCK: usize = 256;

impl<'a, T: Scalar> PermuteKernel<'a, T> {
    pub fn new(src: &'a [T], perm: &'a [u32], dst: &'a mut [T]) -> Self {
        assert_eq!(src.len(), perm.len());
        assert_eq!(src.len(), dst.len());
        Self {
            src,
            perm,
            dst: OutputSlice::new(dst),
        }
    }
}

impl<T: Scalar> Kernel for PermuteKernel<'_, T> {
    fn name(&self) -> String {
        format!("value_permute_{}", T::TAG)
    }

    fn grid(&self) -> Dim3 {
        Dim3::x((self.src.len().div_ceil(PERMUTE_BLOCK)).max(1) as u32)
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(PERMUTE_BLOCK as u32)
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        let eb = T::BYTES as u64;
        let n = self.src.len() as u64;
        vec![
            BufferSpec {
                id: BUF_SRC,
                name: "src_values",
                footprint_bytes: n * eb,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_PERM,
                name: "permutation",
                footprint_bytes: n * 4,
                pattern: AccessPattern::Streaming,
            },
            BufferSpec {
                id: BUF_DST,
                name: "dst_values",
                footprint_bytes: n * eb,
                pattern: AccessPattern::Streaming,
            },
        ]
    }

    /// Static safety facts for the launch auditor.
    ///
    /// Soundness: permutation reads and destination writes stream
    /// `[start, start + count)` with `start + count <= n`. The source gather
    /// dereferences `perm[i] * eb`, which is data-dependent — so the bound
    /// is established by scanning the permutation here, before launch: the
    /// worst access ends at `(max(perm) + 1) * eb`. For a true permutation
    /// that equals the footprint `n * eb` and bounds are proven; a corrupt
    /// permutation is refuted at dispatch instead of faulting mid-launch.
    /// No shared memory, no cross-warp communication.
    fn static_facts(&self) -> StaticFacts {
        let eb = T::BYTES as u64;
        let n = self.src.len() as u64;
        let src_end = self
            .perm
            .iter()
            .map(|&p| (u64::from(p) + 1) * eb)
            .max()
            .unwrap_or(0);
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_SRC.0,
                    bound: AccessBound::Extent(src_end),
                },
                BufferBound {
                    slot: BUF_PERM.0,
                    bound: AccessBound::Extent(n * 4),
                },
                BufferBound {
                    slot: BUF_DST.0,
                    bound: AccessBound::Extent(n * eb),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(0),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let start = block.x as usize * PERMUTE_BLOCK;
        let count = PERMUTE_BLOCK.min(self.src.len() - start);
        if count == 0 {
            return;
        }
        let eb = T::BYTES;
        let warps = (count as u64).div_ceil(32);
        // Cost-only work (including gather-address staging) is skipped on
        // cache-hit replays.
        if ctx.recording() {
            // Permutation indices and destination: coalesced.
            ctx.cost.ld_global_instrs += warps;
            ctx.ld_global_trace(BUF_PERM, (start * 4) as u64, count as u64 * 4);
            ctx.cost.st_global_instrs += warps;
            ctx.st_global_trace(
                BUF_DST,
                (start * eb as usize) as u64,
                count as u64 * eb as u64,
            );
            // Source values: a gather — count real sectors from the
            // permutation, staged on the stack (32 lanes per warp).
            let mut addrs = [0u64; 32];
            for chunk in self.perm[start..start + count].chunks(32) {
                for (a, &p) in addrs.iter_mut().zip(chunk) {
                    *a = p as u64 * eb as u64;
                }
                ctx.ld_global_gather(BUF_SRC, &addrs[..chunk.len()], eb);
            }
            ctx.misc(2 * warps);
        }

        if ctx.functional() {
            for i in start..start + count {
                self.dst.write(i, self.src[self.perm[i] as usize]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sparse::gen;

    #[test]
    fn transposed_spmm_matches_reference() {
        let a = gen::uniform(48, 64, 0.75, 301);
        let b = Matrix::<f32>::random(48, 24, 302); // note: A^T is 64x48
        let gpu = Gpu::v100();
        let cache = CachedTranspose::new(&a);
        let (c, stats) = cache.spmm(&gpu, &b, SpmmConfig::heuristic::<f32>(24));
        let expect = reference::spmm(&a.transpose(), &b);
        assert!(c.max_abs_diff(&expect) < 1e-3);
        assert!(stats.time_us > 0.0);
    }

    #[test]
    fn cached_update_equals_fresh_transpose() {
        let a = gen::uniform(32, 40, 0.7, 303);
        let gpu = Gpu::v100();
        let mut cache = CachedTranspose::new(&a);

        // Simulate a training step: same topology, new values.
        let new_values: Vec<f32> = a.values().iter().map(|v| v * 2.0 + 1.0).collect();
        let a2 = a.with_values(new_values.clone());
        let stats = cache.update_values(&gpu, &new_values);
        assert!(stats.time_us > 0.0);
        assert_eq!(
            cache.matrix(),
            &a2.transpose(),
            "cached update must equal a fresh transpose"
        );
    }

    #[test]
    fn update_is_cheap_relative_to_spmm() {
        // The point of the cache: the per-step value permute is cheaper than
        // the SpMM it enables (the scattered gather is bandwidth-bound, so
        // it cannot be free), and far cheaper than a topology rebuild, which
        // only happens when the sparsity pattern changes.
        let a = gen::uniform(2048, 2048, 0.8, 304);
        let gpu = Gpu::v100();
        let mut cache = CachedTranspose::new(&a);
        let update = cache.update_values(&gpu, a.values());
        let spmm = cache.spmm_profile(&gpu, 128, SpmmConfig::heuristic::<f32>(128));
        assert!(
            update.time_us < spmm.time_us,
            "permute {} us should be under the SpMM {} us",
            update.time_us,
            spmm.time_us
        );
        assert_eq!(update.bound_by, "dram", "the gather is bandwidth-bound");
    }

    #[test]
    fn permute_kernel_handles_ragged_sizes() {
        let gpu = Gpu::v100();
        for n in [1usize, 31, 257, 1000] {
            let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let perm: Vec<u32> = (0..n as u32).rev().collect();
            let mut dst = vec![0.0f32; n];
            let stats = {
                let kernel = PermuteKernel::new(&src, &perm, &mut dst);
                gpu.launch(&kernel)
            };
            assert!(stats.time_us > 0.0);
            for (i, &v) in dst.iter().enumerate() {
                assert_eq!(v, (n - 1 - i) as f32);
            }
        }
    }
}
