//! Kernel configurations and the kernel-selection heuristic.
//!
//! The paper templatizes its kernels over tile sizes and generates
//! "specialized kernel variants for different regions of the problem space";
//! the structs here are the runtime equivalent of those template
//! parameters, and [`SpmmConfig::heuristic`] is the selection rule from
//! Section VII: "we select the n-dimension tile size to be N, rounded up to
//! a power of 2, up to a maximum of 64 ... for both kernels we use the
//! widest vector memory operations possible."

use sparse::{IndexWidth, Scalar};

/// Configuration of the SpMM kernel (Figure 8's template parameters plus the
/// optimization toggles ablated in Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpmmConfig {
    /// `kBlockItemsY`: rows of the output processed per thread block, each
    /// by an independent subwarp (Section V-B1).
    pub block_items_y: u32,
    /// `kBlockItemsK`: nonzeros consumed per main-loop iteration.
    pub block_items_k: u32,
    /// `kBlockItemsX`: output columns per 1-D tile.
    pub block_items_x: u32,
    /// Elements per vector memory instruction (1 = scalar; Table II's
    /// "-Vector Inst." row sets this to 1).
    pub vector_width: u32,
    /// Row-swizzle load balancing (Section V-C; Table II "-Load Balancing").
    pub row_swizzle: bool,
    /// Reverse offset memory alignment (Section V-B2). Required for vector
    /// loads from the sparse matrix; ignored when `vector_width == 1`.
    pub roma: bool,
    /// Index pre-scaling (Section V-D1; Table II "-Index Pre-Scale").
    pub index_prescale: bool,
    /// Residue-handling loop splitting + 128-bit shared loads
    /// (Section V-D2; Table II "-Residue Unroll").
    pub residue_unroll: bool,
    /// Sparse-matrix column-index width (16-bit for mixed precision).
    pub index_width: IndexWidth,
    /// Fuse a bias + ReLU epilogue into the output store (used by the sparse
    /// MobileNet 1x1 convolutions).
    pub fused_bias_relu: bool,
    /// Promise that every row offset is already aligned to the vector width
    /// (the explicit-padding alternative to ROMA, Section V-B2 — see
    /// `CsrMatrix::padded_to_multiple`). Enables vector loads from the
    /// sparse matrix without ROMA's prelude/masking cost; the kernel
    /// verifies the promise in debug builds.
    pub assume_aligned: bool,
}

impl Default for SpmmConfig {
    fn default() -> Self {
        Self {
            block_items_y: 4,
            block_items_k: 32,
            block_items_x: 32,
            vector_width: 4,
            row_swizzle: true,
            roma: true,
            index_prescale: true,
            residue_unroll: true,
            index_width: IndexWidth::U32,
            fused_bias_relu: false,
            assume_aligned: false,
        }
    }
}

impl SpmmConfig {
    /// Threads along x per subwarp: each thread accumulates `vector_width`
    /// outputs, so a row tile of `block_items_x` columns needs
    /// `block_items_x / vector_width` threads.
    pub fn threads_x(&self) -> u32 {
        (self.block_items_x / self.vector_width).max(1)
    }

    /// Subwarps that share one 32-thread warp (1 when a subwarp spans a full
    /// warp or more).
    pub fn subwarps_per_warp(&self) -> u32 {
        (32 / self.threads_x()).max(1)
    }

    /// The paper's kernel-selection heuristic for a problem with `n` output
    /// columns: n-tile = next power of two, capped at 64; widest vector
    /// memory operations possible given alignment.
    pub fn heuristic<T: Scalar>(n: usize) -> Self {
        let tile_x = (n.next_power_of_two() as u32).clamp(8, 64);
        // Widest vector op: 16 bytes per lane (float4 / half8), narrowed
        // until the tile divides evenly.
        let max_vec = 16 / T::BYTES;
        let mut vector_width = max_vec;
        while vector_width > 1
            && (!n.is_multiple_of(vector_width as usize) || !tile_x.is_multiple_of(vector_width))
        {
            vector_width /= 2;
        }
        let index_width = if T::BYTES == 2 {
            IndexWidth::U16
        } else {
            IndexWidth::U32
        };
        Self {
            block_items_y: 4,
            block_items_k: 32,
            block_items_x: tile_x,
            vector_width,
            row_swizzle: true,
            roma: vector_width > 1,
            // Not profitable at 16-bit indices (paper, Section V-D3).
            index_prescale: index_width == IndexWidth::U32,
            residue_unroll: true,
            index_width,
            fused_bias_relu: false,
            assume_aligned: false,
        }
    }

    /// Validate the configuration for a given problem.
    pub fn validate(&self, cols: usize) -> Result<(), String> {
        if !self.vector_width.is_power_of_two() || self.vector_width > 8 {
            return Err(format!(
                "vector_width {} must be a power of two <= 8",
                self.vector_width
            ));
        }
        if !self.block_items_x.is_multiple_of(self.vector_width) {
            return Err("block_items_x must be divisible by vector_width".into());
        }
        if !self.block_items_y.is_power_of_two() || self.block_items_y > 32 {
            return Err("block_items_y must be a power of two <= 32".into());
        }
        if self.block_items_k == 0 || !self.block_items_k.is_multiple_of(4) {
            return Err("block_items_k must be a positive multiple of 4".into());
        }
        if !self.index_width.can_index(cols) {
            return Err(format!(
                "{} columns overflow {:?} indices",
                cols, self.index_width
            ));
        }
        Ok(())
    }

    /// Shared memory per block: one strip of values + indices per subwarp.
    pub fn smem_bytes<T: Scalar>(&self) -> u32 {
        self.block_items_y * self.block_items_k * (4 + self.index_width.bytes())
    }

    /// Register estimate per thread: accumulators (always f32) plus address
    /// arithmetic and loop state.
    pub fn regs_per_thread(&self) -> u32 {
        24 + 2 * self.vector_width
    }

    /// A descriptive suffix for kernel names: every field that changes the
    /// cost trace, with a suffix only for a non-default value. The name is
    /// the launch-cache key's only config component, so a field left out
    /// would alias two configs there.
    pub fn tag(&self) -> String {
        format!(
            "y{}k{}x{}v{}{}{}{}{}{}{}{}",
            self.block_items_y,
            self.block_items_k,
            self.block_items_x,
            self.vector_width,
            if self.row_swizzle { "" } else { "_noswz" },
            if self.roma { "" } else { "_noroma" },
            if self.index_prescale { "" } else { "_nopre" },
            if self.residue_unroll { "" } else { "_nores" },
            match self.index_width {
                IndexWidth::U32 => "",
                IndexWidth::U16 => "_i16",
            },
            if self.fused_bias_relu {
                "_bias_relu"
            } else {
                ""
            },
            if self.assume_aligned { "_aligned" } else { "" },
        )
    }
}

/// Configuration of the SDDMM kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SddmmConfig {
    /// Nonzero outputs per 1-D tile (the paper uses 32).
    pub block_items_x: u32,
    /// Elements per vector memory instruction on the dense operands.
    pub vector_width: u32,
    /// Subwarp tiling: lanes assigned per output (32 = full warp per
    /// nonzero strip slice; fewer spreads a warp across more outputs).
    pub threads_per_output_tile: u32,
    /// Process row tiles in swizzled (sorted) order. Less critical than for
    /// SpMM — "all dot-products to be computed are of equal length" — but
    /// supported for the ablation.
    pub row_swizzle: bool,
    /// Compute the general SDDMM `D = (A B^T) ⊙ C` (element-wise scaling by
    /// the mask's values) instead of the indicator form the paper
    /// specializes to. Per the paper's footnote, this "adds 1 load and 1
    /// multiply instruction prior to storing the output".
    pub scale_by_mask: bool,
}

impl Default for SddmmConfig {
    fn default() -> Self {
        Self {
            block_items_x: 32,
            vector_width: 4,
            threads_per_output_tile: 32,
            row_swizzle: false,
            scale_by_mask: false,
        }
    }
}

impl SddmmConfig {
    /// The paper's SDDMM setup: n-dimension tile 32, widest vectors possible
    /// given the dot-product length `k`.
    pub fn heuristic<T: Scalar>(k: usize) -> Self {
        let max_vec = 16 / T::BYTES;
        let mut vector_width = max_vec;
        while vector_width > 1 && !k.is_multiple_of(vector_width as usize) {
            vector_width /= 2;
        }
        Self {
            block_items_x: 32,
            vector_width,
            threads_per_output_tile: 32,
            row_swizzle: false,
            scale_by_mask: false,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if !self.vector_width.is_power_of_two() || self.vector_width > 8 {
            return Err("vector_width must be a power of two <= 8".into());
        }
        if !self.threads_per_output_tile.is_power_of_two() || self.threads_per_output_tile > 32 {
            return Err("threads_per_output_tile must be a power of two <= 32".into());
        }
        if self.block_items_x == 0 {
            return Err("block_items_x must be positive".into());
        }
        Ok(())
    }

    /// A descriptive suffix for kernel names, like [`SpmmConfig::tag`]:
    /// every field, with a suffix only for a non-default value.
    pub fn tag(&self) -> String {
        format!(
            "x{}v{}t{}{}{}",
            self.block_items_x,
            self.vector_width,
            self.threads_per_output_tile,
            if self.row_swizzle { "_swz" } else { "" },
            if self.scale_by_mask { "_scaled" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::Half;

    #[test]
    fn default_is_valid() {
        SpmmConfig::default().validate(4096).unwrap();
        SddmmConfig::default().validate().unwrap();
    }

    #[test]
    fn heuristic_tile_follows_n() {
        // "n-dimension tile size to be N, rounded up to a power of 2, up to
        // a maximum of 64."
        assert_eq!(SpmmConfig::heuristic::<f32>(8).block_items_x, 8);
        assert_eq!(SpmmConfig::heuristic::<f32>(20).block_items_x, 32);
        assert_eq!(SpmmConfig::heuristic::<f32>(64).block_items_x, 64);
        assert_eq!(SpmmConfig::heuristic::<f32>(512).block_items_x, 64);
    }

    #[test]
    fn heuristic_vector_width_respects_alignment() {
        // N divisible by 4: full float4.
        assert_eq!(SpmmConfig::heuristic::<f32>(128).vector_width, 4);
        // N = 2 mod 4: float2.
        assert_eq!(SpmmConfig::heuristic::<f32>(66).vector_width, 2);
        // Odd N: scalar only.
        assert_eq!(SpmmConfig::heuristic::<f32>(49).vector_width, 1);
    }

    #[test]
    fn heuristic_mixed_precision_uses_half8_and_u16() {
        let cfg = SpmmConfig::heuristic::<Half>(128);
        assert_eq!(cfg.vector_width, 8, "128-bit loads carry 8 halves");
        assert_eq!(cfg.index_width, IndexWidth::U16);
        assert!(!cfg.index_prescale, "prescale disabled at 16-bit indices");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let cfg = SpmmConfig {
            vector_width: 3,
            ..SpmmConfig::default()
        };
        assert!(cfg.validate(1024).is_err());
        let cfg = SpmmConfig {
            index_width: IndexWidth::U16,
            ..SpmmConfig::default()
        };
        assert!(
            cfg.validate(1 << 20).is_err(),
            "u16 cannot index 1M columns"
        );
    }

    /// Default names stay as recorded; each non-default field adds its own
    /// suffix, so no two of these configs share a launch-cache key.
    #[test]
    fn tags_name_every_non_default_field() {
        assert_eq!(SpmmConfig::default().tag(), "y4k32x32v4");
        assert_eq!(SddmmConfig::default().tag(), "x32v4t32");
        let spmm = SpmmConfig::default();
        let tags = [
            SpmmConfig {
                index_width: IndexWidth::U16,
                ..spmm
            },
            SpmmConfig {
                fused_bias_relu: true,
                ..spmm
            },
            SpmmConfig {
                assume_aligned: true,
                ..spmm
            },
        ]
        .map(|c| c.tag());
        assert_eq!(
            tags,
            [
                "y4k32x32v4_i16",
                "y4k32x32v4_bias_relu",
                "y4k32x32v4_aligned"
            ]
        );
        let sddmm = SddmmConfig::default();
        let swizzled = SddmmConfig {
            row_swizzle: true,
            ..sddmm
        };
        let scaled = SddmmConfig {
            scale_by_mask: true,
            ..sddmm
        };
        assert_eq!(swizzled.tag(), "x32v4t32_swz");
        assert_eq!(scaled.tag(), "x32v4t32_scaled");
    }

    #[test]
    fn thread_shapes() {
        let cfg = SpmmConfig::default();
        assert_eq!(cfg.threads_x(), 8); // 32 cols / vec4
        assert_eq!(cfg.subwarps_per_warp(), 4);
    }

    #[test]
    fn smem_scales_with_index_width() {
        let mut cfg = SpmmConfig::default();
        let wide = cfg.smem_bytes::<f32>();
        cfg.index_width = IndexWidth::U16;
        let narrow = cfg.smem_bytes::<Half>();
        assert!(narrow < wide);
    }
}
