//! Fault-tolerant dispatch: one degradation ladder serves SpMM and SDDMM.
//!
//! Production serving cannot crash because one kernel launch hit a transient
//! device fault. Each op validates its inputs once — violations are
//! *deterministic* and returned immediately, since no rung can fix them —
//! and then declares its GPU rungs and output check for the one private
//! ladder, `descend`. The ladder holds the only copies of the bounded
//! same-rung retries on transient errors (with simulated backoff), the
//! `dispatch_*` counters and trace instants, and the CPU reference bottom
//! rung, which cannot fail. Rungs, fastest first:
//!
//! - **SpMM** ([`spmm`]): [`Rung::Sputnik`] (the requested configuration) →
//!   [`Rung::Heuristic`] ([`SpmmConfig::heuristic`], when it differs) →
//!   [`Rung::Fallback`] (an internal row-per-block kernel whose name contains
//!   no `"sputnik"`, so name-matched fault plans spare it) →
//!   [`Rung::CpuReference`]. Checked by a NaN/Inf scan and an ABFT checksum
//!   (`sum(C) == sum_nz(a_val * rowsum(B)[a_col])`, accumulated in f64).
//! - **SDDMM** ([`sddmm`]): Sputnik → Heuristic ([`SddmmConfig::heuristic`],
//!   when it differs) → CPU. Checked by the NaN/Inf scan alone: recomputing
//!   the masked dot products *is* the kernel.
//!
//! Every rung must compute the same function, so configurations only the
//! Sputnik rung honours — SpMM's `fused_bias_relu`, SDDMM's
//! `scale_by_mask` — are rejected with [`SputnikError::IllegalConfig`].
//! The guards run on the host and never touch the simulated
//! [`LaunchStats`]: with an empty [`FaultPlan`](gpu_sim::FaultPlan),
//! dispatch returns statistics identical to a direct launch.

use crate::config::{SddmmConfig, SpmmConfig};
use crate::error::{is_transient, SputnikError};
use crate::reference;
use crate::sddmm::{mask_fingerprint, SddmmKernel};
use crate::spmm::{
    csr_spmm_buffers, first_non_finite, operand_fingerprint, require_finite, SpmmKernel,
    BUF_A_INDICES, BUF_A_OFFSETS, BUF_A_VALUES, BUF_B, BUF_C,
};
use gpu_sim::trace::{self, Entry};
use gpu_sim::{
    AccessBound, AlignmentFacts, BarrierFacts, BlockContext, BufferBound, BufferSpec, Dim3, Gpu,
    Kernel, LaunchCache, LaunchRequest, LaunchStats, OutputSlice, StageBound, StaticFacts,
};
use sparse::{CsrMatrix, IndexWidth, Matrix, RowSwizzle, Scalar};

/// One rung of the degradation ladder, from fastest to most conservative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// The requested Sputnik configuration.
    Sputnik,
    /// The paper's heuristic configuration for this problem shape.
    Heuristic,
    /// The internal row-per-block fallback kernel (cusparse-style; SpMM only).
    Fallback,
    /// Host execution of the golden reference.
    CpuReference,
}

impl Rung {
    /// The global-metrics counter bumped each time this rung serves a call.
    fn counter(self) -> &'static str {
        match self {
            Rung::Sputnik => "dispatch_rung_sputnik",
            Rung::Heuristic => "dispatch_rung_heuristic",
            Rung::Fallback => "dispatch_rung_fallback",
            Rung::CpuReference => "dispatch_rung_cpu_reference",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::Sputnik => write!(f, "sputnik"),
            Rung::Heuristic => write!(f, "heuristic"),
            Rung::Fallback => write!(f, "fallback"),
            Rung::CpuReference => write!(f, "cpu-reference"),
        }
    }
}

/// Tuning knob for the dispatcher.
#[derive(Debug, Clone)]
pub struct DispatchPolicy {
    /// Attempts per GPU rung (first try + retries). Retries are only spent
    /// on transient errors; deterministic failures skip straight to the
    /// next rung.
    pub attempts_per_rung: u32,
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        Self {
            attempts_per_rung: 2,
        }
    }
}

/// Simulated backoff before the r-th retry of a rung, in microseconds:
/// `BACKOFF_BASE_US << (r - 1)`, accumulated into the report (no host sleep).
const BACKOFF_BASE_US: f64 = 50.0;

/// Relative tolerance of the SpMM checksum guard. The guard compares an f64
/// shadow sum against kernel arithmetic, so this must absorb rounding
/// differences — it targets gross corruption, not ULPs.
const CHECKSUM_REL_TOL: f64 = 1e-3;

/// A failed attempt, kept for post-mortems.
#[derive(Debug, Clone)]
pub struct Attempt {
    pub rung: Rung,
    pub error: SputnikError,
}

/// What happened during one dispatched call.
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// The rung that produced the returned result.
    pub served_by: Rung,
    /// Launch statistics of the serving launch (`None` when the CPU served).
    pub stats: Option<LaunchStats>,
    /// Every failed attempt, in order.
    pub attempts: Vec<Attempt>,
    /// Total simulated retry backoff, microseconds.
    pub backoff_us: f64,
}

impl DispatchReport {
    /// True when the requested configuration served without degradation.
    pub fn clean(&self) -> bool {
        self.served_by == Rung::Sputnik && self.attempts.is_empty()
    }
}

/// The degradation ladder. Walks `rungs` in order, launching each up to
/// `policy.attempts_per_rung` times (retrying only transient errors, with
/// simulated backoff), and serves the first launch whose output passes
/// `check`. When every GPU rung fails, `cpu` serves: the bottom rung cannot
/// fail.
fn descend<Out>(
    op: &str,
    policy: &DispatchPolicy,
    rungs: &[Rung],
    mut launch: impl FnMut(Rung) -> Result<(Out, LaunchStats), SputnikError>,
    check: impl Fn(&Out, &str) -> Result<(), SputnikError>,
    cpu: impl FnOnce() -> Out,
) -> (Out, DispatchReport) {
    let mut attempts = Vec::new();
    let mut backoff_us = 0.0f64;
    for &rung in rungs {
        for attempt in 0..policy.attempts_per_rung {
            if attempt > 0 {
                backoff_us += BACKOFF_BASE_US * f64::from(1u32 << (attempt - 1));
            }
            let result = launch(rung).and_then(|(out, stats)| {
                check(&out, &stats.kernel)?;
                Ok((out, stats))
            });
            match result {
                Ok((out, stats)) => {
                    let report = served(op, rung, Some(stats), attempts, backoff_us);
                    return (out, report);
                }
                Err(err) => {
                    let failed = [("dispatch_failed_attempts", 1)];
                    trace::record("dispatch", "dispatch", Entry::Instant, &failed, || {
                        format!("{op} rung {rung} attempt {attempt} failed: {err}")
                    });
                    let transient = is_transient(&err);
                    attempts.push(Attempt { rung, error: err });
                    if !transient {
                        // Deterministic failure: retrying the same rung
                        // cannot help.
                        break;
                    }
                }
            }
        }
    }
    let report = served(op, Rung::CpuReference, None, attempts, backoff_us);
    (cpu(), report)
}

/// The ladder's single serve point: bumps the rung counter, plus the
/// degradation counter and trace instant when a lower rung serves.
fn served(
    op: &str,
    rung: Rung,
    stats: Option<LaunchStats>,
    attempts: Vec<Attempt>,
    backoff_us: f64,
) -> DispatchReport {
    if rung == Rung::Sputnik {
        gpu_sim::metrics::global().incr(rung.counter(), 1);
    } else {
        let degraded = [(rung.counter(), 1), ("dispatch_degraded", 1)];
        trace::record("dispatch", "dispatch", Entry::Instant, &degraded, || {
            let kernel = stats
                .as_ref()
                .map_or(String::new(), |s| format!(" ({})", s.kernel));
            format!("degraded: {op} served by {rung}{kernel}")
        });
    }
    DispatchReport {
        served_by: rung,
        stats,
        attempts,
        backoff_us,
    }
}

/// One GPU rung's functional launch through [`Gpu::run`], consulting the
/// cache under `key` when one is given. A statically refuted launch comes
/// back as [`SputnikError::StaticallyRefuted`] before a block runs — a
/// deterministic failure, so the ladder degrades at once.
fn run_rung(
    gpu: &Gpu,
    key: Option<(&LaunchCache, u64)>,
    kernel: &dyn Kernel,
) -> Result<LaunchStats, SputnikError> {
    Ok(gpu
        .run(&LaunchRequest::functional(kernel).cached(key))?
        .stats)
}

/// Fault-tolerant SpMM: `A (sparse) * B (dense)` through the degradation
/// ladder. Returns the output and a report of which rung served.
///
/// With a `cache`, every GPU rung consults it: a hit skips the cost
/// simulation and replays only the functional output (see [`Gpu::run`]), so
/// the guards still inspect a freshly computed `C`, and the statistics are
/// the memoized ones, bit-identical to a cold launch.
///
/// Errors are returned only for deterministic input violations (shape
/// mismatch, non-finite operands, a `fused_bias_relu` configuration):
/// anything transient degrades to a slower rung, and the CPU reference rung
/// cannot fail.
pub fn spmm<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    cfg: SpmmConfig,
    policy: &DispatchPolicy,
) -> Result<(Matrix<T>, DispatchReport), SputnikError> {
    spmm_swizzled(gpu, cache, &SwizzledRows::new(a), b, cfg, policy)
}

/// [`spmm`] over a sparse operand whose row swizzles are already built.
pub(crate) fn spmm_swizzled<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    rows: &SwizzledRows<'_, T>,
    b: &Matrix<T>,
    cfg: SpmmConfig,
    policy: &DispatchPolicy,
) -> Result<(Matrix<T>, DispatchReport), SputnikError> {
    let a = rows.matrix;
    if a.cols() != b.rows() {
        return Err(SputnikError::ShapeMismatch {
            expected: format!("B with {} rows", a.cols()),
            found: format!("{}x{}", b.rows(), b.cols()),
            context: "dispatch spmm inner dimension",
        });
    }
    if b.layout() != sparse::Layout::RowMajor {
        return Err(SputnikError::IllegalConfig {
            reason: "Sputnik uses row-major dense operands".into(),
        });
    }
    if cfg.fused_bias_relu {
        return Err(SputnikError::IllegalConfig {
            reason: "dispatch cannot serve fused_bias_relu: the lower rungs have no \
                     epilogue, so a degraded call would change its answer"
                .into(),
        });
    }
    require_finite("a", a.values())?;
    require_finite("b", b.as_slice())?;

    // Shared by every checksum evaluation: per-row sums of B, in f64.
    let b_rowsums = checksum_b_rowsums(b);
    let key = cache.map(|c| (c, operand_fingerprint(a, b.cols())));
    let heuristic = SpmmConfig::heuristic::<T>(b.cols());
    let rungs: &[Rung] = if heuristic == cfg {
        &[Rung::Sputnik, Rung::Fallback]
    } else {
        &[Rung::Sputnik, Rung::Heuristic, Rung::Fallback]
    };
    let launch = |rung: Rung| -> Result<(Matrix<T>, LaunchStats), SputnikError> {
        let mut out = Matrix::<T>::zeros(a.rows(), b.cols());
        let stats = if rung == Rung::Fallback {
            run_rung(gpu, key, &FallbackSpmmKernel::new(a, b, &mut out))?
        } else {
            let c = if rung == Rung::Sputnik {
                cfg
            } else {
                heuristic
            };
            let swizzle = rows.for_config(c.row_swizzle);
            let kernel = SpmmKernel::try_new(a, b, &mut out, swizzle, c)?;
            run_rung(gpu, key, &kernel)?
        };
        Ok((out, stats))
    };
    let check = |out: &Matrix<T>, kernel: &str| {
        check_finite(out.as_slice(), kernel)?;
        check_checksum(out, a, &b_rowsums, kernel)
    };
    // The CPU rung accumulates in the fallback kernel's order, so results
    // stay bit-stable across the lower rungs for f32.
    Ok(descend("spmm", policy, rungs, launch, check, || {
        reference_as_t(a, b)
    }))
}

/// A sparse operand (SpMM's `A`, SDDMM's mask) with both row orderings a
/// rung may ask for, built once so a batched window does not rebuild them
/// per item.
pub(crate) struct SwizzledRows<'a, T: Scalar> {
    matrix: &'a CsrMatrix<T>,
    by_length: RowSwizzle,
    identity: RowSwizzle,
}

impl<'a, T: Scalar> SwizzledRows<'a, T> {
    pub(crate) fn new(matrix: &'a CsrMatrix<T>) -> Self {
        Self {
            matrix,
            by_length: RowSwizzle::by_length_desc(matrix),
            identity: RowSwizzle::identity(matrix.rows()),
        }
    }

    /// The ordering [`RowSwizzle::for_config`] would build.
    fn for_config(&self, row_swizzle: bool) -> &RowSwizzle {
        if row_swizzle {
            &self.by_length
        } else {
            &self.identity
        }
    }
}

/// Fault-tolerant SDDMM: `(lhs * rhs^T) ⊙ mask` through the degradation
/// ladder (requested config → heuristic config → CPU reference; there is
/// no separate fallback SDDMM kernel). `cache` works as in [`spmm`].
///
/// Errors are returned only for deterministic input violations (shape
/// mismatch, a `scale_by_mask` configuration). Unlike [`spmm`], operands
/// are not scanned for NaN/Inf up front: on small serving masks the scan
/// of both dense operands is a measurable share of a cached launch's host
/// time, and a non-finite operand still fails every GPU rung's output
/// check, so the CPU rung serves it.
pub fn sddmm<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    lhs: &Matrix<T>,
    rhs: &Matrix<T>,
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
    policy: &DispatchPolicy,
) -> Result<(CsrMatrix<T>, DispatchReport), SputnikError> {
    sddmm_swizzled(gpu, cache, lhs, rhs, &SwizzledRows::new(mask), cfg, policy)
}

/// [`sddmm`] over a mask whose row swizzles are already built.
pub(crate) fn sddmm_swizzled<T: Scalar>(
    gpu: &Gpu,
    cache: Option<&LaunchCache>,
    lhs: &Matrix<T>,
    rhs: &Matrix<T>,
    mask: &SwizzledRows<'_, T>,
    cfg: SddmmConfig,
    policy: &DispatchPolicy,
) -> Result<(CsrMatrix<T>, DispatchReport), SputnikError> {
    let m = mask.matrix;
    // Checked here, not only in the kernel, because the CPU rung asserts it.
    if lhs.cols() != rhs.cols() || m.rows() != lhs.rows() || m.cols() != rhs.rows() {
        return Err(SputnikError::ShapeMismatch {
            expected: "lhs and rhs of one width, a lhs.rows x rhs.rows mask".into(),
            found: format!(
                "lhs {}x{}, rhs {}x{}, mask {}x{}",
                lhs.rows(),
                lhs.cols(),
                rhs.rows(),
                rhs.cols(),
                m.rows(),
                m.cols()
            ),
            context: "dispatch sddmm",
        });
    }
    if cfg.scale_by_mask {
        return Err(SputnikError::IllegalConfig {
            reason: "dispatch cannot serve scale_by_mask: the lower rungs do not scale, \
                     so a degraded call would change its answer"
                .into(),
        });
    }

    let key = cache.map(|c| (c, mask_fingerprint(m, lhs.cols())));
    let heuristic = SddmmConfig::heuristic::<T>(lhs.cols());
    let rungs: &[Rung] = if heuristic == cfg {
        &[Rung::Sputnik]
    } else {
        &[Rung::Sputnik, Rung::Heuristic]
    };
    let launch = |rung: Rung| -> Result<(CsrMatrix<T>, LaunchStats), SputnikError> {
        let c = if rung == Rung::Sputnik {
            cfg
        } else {
            heuristic
        };
        let mut values = vec![T::zero(); m.nnz()];
        let stats = {
            let kernel =
                SddmmKernel::try_new(lhs, rhs, m, &mut values, mask.for_config(c.row_swizzle), c)?;
            run_rung(gpu, key, &kernel)?
        };
        Ok((m.with_values(values), stats))
    };
    let check = |out: &CsrMatrix<T>, kernel: &str| check_finite(out.values(), kernel);
    Ok(descend("sddmm", policy, rungs, launch, check, || {
        let out32 = reference::sddmm(&lhs.to_f32(), &rhs.to_f32(), m);
        m.with_values(out32.values().iter().map(|&v| T::from_f32(v)).collect())
    }))
}

/// CPU rung: the golden reference, converted to the storage type.
fn reference_as_t<T: Scalar>(a: &CsrMatrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let c32 = reference::spmm(a, &b.to_f32());
    let mut out = Matrix::<T>::zeros(a.rows(), b.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(c32.as_slice()) {
        *o = T::from_f32(v);
    }
    out
}

/// Rows of B summed side by side in [`checksum_b_rowsums`]: independent
/// f64 add chains, enough to cover the add latency.
const ROWSUM_LANES: usize = 8;

/// Per-row sums of B in f64, the checksum's precomputed ingredient. Each
/// row is summed left to right; [`ROWSUM_LANES`] rows advance side by
/// side, which changes no row's order and so no bit of its sum.
fn checksum_b_rowsums<T: Scalar>(b: &Matrix<T>) -> Vec<f64> {
    let n = b.cols();
    if n == 0 {
        // The empty sum, as `Iterator::sum` gives it.
        return vec![-0.0; b.rows()];
    }
    let mut sums = Vec::with_capacity(b.rows());
    let mut groups = b.as_slice().chunks_exact(ROWSUM_LANES * n);
    for group in &mut groups {
        let rows: [&[T]; ROWSUM_LANES] = std::array::from_fn(|r| &group[r * n..][..n]);
        // -0.0 is where `Iterator::sum` starts: an all-zero row keeps its
        // sign bit too.
        let mut acc = [-0.0f64; ROWSUM_LANES];
        for j in 0..n {
            for (s, row) in acc.iter_mut().zip(&rows) {
                *s += f64::from(row[j].to_f32());
            }
        }
        sums.extend(acc);
    }
    sums.extend(groups.remainder().chunks_exact(n).map(sum_f64));
    sums
}

/// `sum(values)` in f64, left to right.
fn sum_f64<T: Scalar>(values: &[T]) -> f64 {
    values.iter().map(|v| f64::from(v.to_f32())).sum()
}

/// Partial sums in [`sum_f64_lanes`]: independent add chains over
/// interleaved elements.
const SUM_LANES: usize = 16;

/// `sum(values)` in f64, accumulated in [`SUM_LANES`] interleaved partial
/// sums. The order differs from a left-to-right sum, so only the last bits
/// of the total move; the checksum guard's tolerance absorbs them.
fn sum_f64_lanes<T: Scalar>(values: &[T]) -> f64 {
    let mut lanes = [-0.0f64; SUM_LANES];
    let mut chunks = values.chunks_exact(SUM_LANES);
    for chunk in &mut chunks {
        for (l, v) in lanes.iter_mut().zip(chunk) {
            *l += f64::from(v.to_f32());
        }
    }
    lanes.iter().sum::<f64>() + sum_f64(chunks.remainder())
}

/// Detection guard shared by every op: a NaN/Inf scan of the output.
fn check_finite<T: Scalar>(values: &[T], kernel: &str) -> Result<(), SputnikError> {
    if first_non_finite(values).is_none() {
        return Ok(());
    }
    Err(SputnikError::CorruptOutput {
        kernel: kernel.to_string(),
        reason: "non-finite value in output".into(),
    })
}

/// SpMM's ABFT row-sum checksum guard:
/// `sum(C) == sum over nonzeros of a_val * rowsum(B)[a_col]`.
fn check_checksum<T: Scalar>(
    out: &Matrix<T>,
    a: &CsrMatrix<T>,
    b_rowsums: &[f64],
    kernel: &str,
) -> Result<(), SputnikError> {
    // One walk over the nonzeros feeds the expected sum and the scale of
    // the tolerance: rounding grows with the mass being summed.
    let (expected, scale) = a.col_indices().iter().zip(a.values()).fold(
        (-0.0f64, -0.0f64),
        |(expected, scale), (&col, v)| {
            let term = f64::from(v.to_f32()) * b_rowsums[col as usize];
            (expected + term, scale + term.abs())
        },
    );
    let scale = scale.max(1.0);
    let actual = sum_f64_lanes(out.as_slice());
    // `within` is false for a NaN sum (NaN fails every comparison), so
    // corruption is flagged rather than slipping through.
    let within = (actual - expected).abs() <= CHECKSUM_REL_TOL * scale;
    if within {
        return Ok(());
    }
    Err(SputnikError::CorruptOutput {
        kernel: kernel.to_string(),
        reason: format!("checksum mismatch: expected {expected:.6e}, found {actual:.6e}"),
    })
}

/// The internal fallback kernel: one thread block per output row, 32 lanes
/// streaming the row's nonzeros in order — the simple cusparse-style
/// decomposition. No tuning parameters, no shared-memory staging, minimal
/// resource footprint: if this cannot launch, nothing can. Its name contains
/// no `"sputnik"`, so fault plans filtered to Sputnik kernels spare it, and
/// it does not implement `poison_output`, modeling a conservatively
/// ECC-checked path.
///
/// Accumulation is f32 in nonzero order per row — the same order as
/// [`reference::spmm`] — so f32 results are bit-identical to the CPU rung.
pub struct FallbackSpmmKernel<'a, T: Scalar> {
    a: &'a CsrMatrix<T>,
    b: &'a Matrix<T>,
    out: OutputSlice<'a, T>,
    n: usize,
}

impl<'a, T: Scalar> FallbackSpmmKernel<'a, T> {
    pub fn new(a: &'a CsrMatrix<T>, b: &'a Matrix<T>, out: &'a mut Matrix<T>) -> Self {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        assert_eq!(out.rows(), a.rows());
        assert_eq!(out.cols(), b.cols());
        let n = b.cols();
        Self {
            a,
            b,
            out: OutputSlice::new(out.as_mut_slice()),
            n,
        }
    }
}

impl<T: Scalar> Kernel for FallbackSpmmKernel<'_, T> {
    fn name(&self) -> String {
        format!("fallback_spmm_{}", T::TAG)
    }

    fn grid(&self) -> Dim3 {
        Dim3::x((self.a.rows() as u32).max(1))
    }

    fn block_dim(&self) -> Dim3 {
        Dim3::x(32)
    }

    fn regs_per_thread(&self) -> u32 {
        24
    }

    fn buffers(&self) -> Vec<BufferSpec> {
        csr_spmm_buffers(self.a, self.n, IndexWidth::U32)
    }

    /// Static facts (see [`gpu_sim::static_check`]): one row per block with
    /// purely scalar chunked loads, so every extent follows from the row
    /// walk — values/indices stay inside `[offset, offset + nnz)`, the
    /// offsets read touches `row * 4 .. row * 4 + 8`, B strips end at
    /// `(col + 1) * n <= cols * n` (validated CSR indices), and the output
    /// strip ends at `(row + 1) * n <= rows * n`. No shared-memory staging
    /// at all, and the block is a single warp.
    fn static_facts(&self) -> StaticFacts {
        let nnz = self.a.nnz() as u64;
        let rows = self.a.rows() as u64;
        let cols = self.a.cols() as u64;
        let n = self.n as u64;
        let eb = T::BYTES as u64;
        StaticFacts {
            bounds: Some(vec![
                BufferBound {
                    slot: BUF_A_VALUES.0,
                    bound: AccessBound::Extent(nnz * eb),
                },
                BufferBound {
                    slot: BUF_A_INDICES.0,
                    bound: AccessBound::Extent(nnz * 4),
                },
                BufferBound {
                    slot: BUF_A_OFFSETS.0,
                    bound: AccessBound::Extent((rows + 1) * 4),
                },
                BufferBound {
                    slot: BUF_B.0,
                    bound: AccessBound::Extent(cols * n * eb),
                },
                BufferBound {
                    slot: BUF_C.0,
                    bound: AccessBound::Extent(rows * n * eb),
                },
            ]),
            alignment: AlignmentFacts::ScalarOnly,
            barrier: BarrierFacts::WarpSynchronous,
            stage: StageBound::Bytes(0),
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockContext) {
        let row = block.x as usize;
        if row >= self.a.rows() {
            return;
        }
        let eb = T::BYTES;
        let n = self.n;
        let offset = self.a.row_offsets()[row] as usize;
        let nnz = self.a.row_len(row);

        // ---- Cost trace: scalar row walk, no staging, no vectorization.
        // Skipped wholesale on cache-hit replays (the cost is discarded).
        if ctx.recording() {
            ctx.misc(4);
            ctx.ld_global(BUF_A_OFFSETS, row as u64 * 4, 2, 1, 4);
            if nnz > 0 {
                let loads = (nnz as u64).div_ceil(32);
                for chunk in 0..loads {
                    let addr = (offset as u64 + chunk * 32) * eb as u64;
                    let lanes = 32.min(nnz as u32 - (chunk * 32) as u32);
                    ctx.ld_global(BUF_A_VALUES, addr, lanes, 1, eb);
                    ctx.ld_global(BUF_A_INDICES, (offset as u64 + chunk * 32) * 4, lanes, 1, 4);
                }
                // One full B-row sweep per nonzero, strip-mined over 32 lanes.
                let strips_per_row = (n as u64).div_ceil(32);
                for &col in &self.a.col_indices()[offset..offset + nnz] {
                    for s in 0..strips_per_row {
                        let addr = (col as u64 * n as u64 + s * 32) * eb as u64;
                        let lanes = 32.min(n as u32 - (s * 32) as u32);
                        ctx.ld_global(BUF_B, addr, lanes, 1, eb);
                    }
                    ctx.cost.fma_instrs += strips_per_row;
                    ctx.misc(2);
                }
                ctx.cost.flops += 2 * (nnz * n) as u64;
            }
            let strips_per_row = (n as u64).div_ceil(32);
            for s in 0..strips_per_row {
                let addr = (row as u64 * n as u64 + s * 32) * eb as u64;
                let lanes = 32.min(n as u32 - (s * 32) as u32);
                ctx.st_global(BUF_C, addr, lanes, 1, eb);
            }
        }

        // ---- Functional: in-order accumulation matching reference::spmm
        // (same lanes helper, so outputs stay bit-identical to it).
        if ctx.functional() {
            let values = self.a.values();
            let indices = self.a.col_indices();
            let bdata = self.b.as_slice();
            let mut acc = ctx.scratch_f32(n);
            gpu_sim::lanes::fma_accumulate(
                &mut acc,
                (offset..offset + nnz)
                    .map(|pos| (values[pos].to_f32(), &bdata[indices[pos] as usize * n..])),
                |bv| bv.to_f32(),
            );
            let tile = acc.iter().map(|&v| T::from_f32(v));
            self.out.write_run(row * n, tile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::{gen, Half};

    #[test]
    fn fallback_kernel_matches_reference_bitwise() {
        let a = gen::uniform(40, 64, 0.7, 21);
        let b = Matrix::<f32>::random(64, 48, 22);
        let gpu = Gpu::v100();
        let mut out = Matrix::<f32>::zeros(40, 48);
        let kernel = FallbackSpmmKernel::new(&a, &b, &mut out);
        let stats = gpu.launch(&kernel);
        assert!(stats.time_us > 0.0);
        assert!(
            !stats.kernel.contains("sputnik"),
            "name must not match sputnik filters"
        );
        let expect = reference::spmm(&a, &b);
        assert_eq!(
            out.as_slice(),
            expect.as_slice(),
            "bit-identical to the reference"
        );
    }

    #[test]
    fn clean_dispatch_serves_from_sputnik_rung() {
        let a = gen::uniform(32, 64, 0.8, 23);
        let b = Matrix::<f32>::random(64, 32, 24);
        let gpu = Gpu::v100();
        let (out, report) = spmm(
            &gpu,
            None,
            &a,
            &b,
            SpmmConfig::default(),
            &DispatchPolicy::default(),
        )
        .unwrap();
        assert!(report.clean());
        assert_eq!(report.served_by, Rung::Sputnik);
        assert!(report.stats.is_some());
        assert_eq!(report.backoff_us, 0.0);
        let expect = reference::spmm(&a, &b);
        assert!(out.max_abs_diff(&expect) < 1e-3);
    }

    #[test]
    fn shape_mismatch_is_not_recoverable() {
        let a = gen::uniform(8, 16, 0.5, 25);
        let b = Matrix::<f32>::random(24, 8, 26);
        let gpu = Gpu::v100();
        let err = spmm(
            &gpu,
            None,
            &a,
            &b,
            SpmmConfig::default(),
            &DispatchPolicy::default(),
        )
        .expect_err("shapes disagree");
        assert!(matches!(err, SputnikError::ShapeMismatch { .. }));
    }

    #[test]
    fn non_finite_operand_is_rejected_up_front() {
        let a = gen::uniform(8, 16, 0.5, 27);
        let mut b = Matrix::<f32>::random(16, 8, 28);
        b.set(3, 3, f32::NAN);
        let gpu = Gpu::v100();
        let err = spmm(
            &gpu,
            None,
            &a,
            &b,
            SpmmConfig::default(),
            &DispatchPolicy::default(),
        )
        .expect_err("NaN operand");
        assert!(matches!(
            err,
            SputnikError::NonFiniteOperand { operand: "b", .. }
        ));
    }

    #[test]
    fn illegal_config_degrades_to_heuristic() {
        let a = gen::uniform(16, 32, 0.6, 29);
        let b = Matrix::<f32>::random(32, 16, 30);
        let gpu = Gpu::v100();
        // vector_width 3 is illegal; dispatch must fall through to the
        // heuristic rung rather than erroring.
        let bad = SpmmConfig {
            vector_width: 3,
            ..SpmmConfig::default()
        };
        let (out, report) = spmm(&gpu, None, &a, &b, bad, &DispatchPolicy::default()).unwrap();
        assert_eq!(report.served_by, Rung::Heuristic);
        // Deterministic failure: exactly one attempt burned on the bad rung.
        assert_eq!(report.attempts.len(), 1);
        assert!(matches!(
            report.attempts[0].error,
            SputnikError::IllegalConfig { .. }
        ));
        let expect = reference::spmm(&a, &b);
        assert!(out.max_abs_diff(&expect) < 1e-3);
    }

    /// The ladder's serve point writes the per-rung counters, one per
    /// served call.
    #[test]
    fn degraded_dispatch_bumps_the_rung_counter() {
        use gpu_sim::{FaultKind, FaultPlan};
        let a = gen::uniform(16, 32, 0.6, 31);
        let b = Matrix::<f32>::random(32, 16, 32);
        let gpu = Gpu::v100()
            .with_fault_plan(FaultPlan::fail_all(FaultKind::EccError).matching("sputnik"));
        let metrics = gpu_sim::metrics::global();
        let before = metrics.get("dispatch_rung_fallback");
        let (_, report) = spmm(
            &gpu,
            None,
            &a,
            &b,
            SpmmConfig::default(),
            &DispatchPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.served_by, Rung::Fallback);
        assert_eq!(metrics.get("dispatch_rung_fallback"), before + 1);
    }

    /// The checksum guard catches corruption on its own, without the
    /// finite scan — including NaN propagation, which must not slip through
    /// the tolerance comparison.
    #[test]
    fn checksum_guard_catches_corruption_without_finite_scan() {
        let a = gen::uniform(48, 96, 0.7, 500);
        let b = Matrix::<f32>::random(96, 32, 501);
        let rowsums = checksum_b_rowsums(&b);
        let clean = reference::spmm(&a, &b);
        assert!(check_checksum(&clean, &a, &rowsums, "k").is_ok());
        for bad in [f32::NAN, 1e3] {
            let mut poisoned = clean.clone();
            poisoned.set(7, 5, bad);
            let err = check_checksum(&poisoned, &a, &rowsums, "k").expect_err("corrupt");
            assert!(matches!(err, SputnikError::CorruptOutput { .. }));
        }
    }

    #[test]
    fn cached_dispatch_replays_outputs_and_stats() {
        let a = gen::uniform(32, 64, 0.8, 61);
        let b = Matrix::<f32>::random(64, 32, 62);
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let policy = DispatchPolicy::default();
        let (cold_out, cold) =
            spmm(&gpu, Some(&cache), &a, &b, SpmmConfig::default(), &policy).unwrap();
        assert_eq!(cache.hits(), 0);
        let (warm_out, warm) =
            spmm(&gpu, Some(&cache), &a, &b, SpmmConfig::default(), &policy).unwrap();
        assert!(cache.hits() >= 1, "second dispatch must hit the cache");
        assert!(warm.clean());
        // The replayed launch recomputes real outputs and returns the
        // memoized stats bit-for-bit.
        assert_eq!(cold_out.as_slice(), warm_out.as_slice());
        assert_eq!(cold.stats, warm.stats);
        // The guards saw a real output: corrupt inputs would still fail.
        let (plain_out, plain) = spmm(&gpu, None, &a, &b, SpmmConfig::default(), &policy).unwrap();
        assert_eq!(plain_out.as_slice(), warm_out.as_slice());
        assert_eq!(plain.stats, warm.stats);
    }

    #[test]
    fn sanitize_passes_clean_spmm_and_still_computes() {
        let a = gen::uniform(48, 64, 0.7, 41);
        let b = Matrix::<f32>::random(64, 32, 42);
        let gpu = Gpu::v100();
        let cfg = SpmmConfig::heuristic::<f32>(32);
        let swizzle = RowSwizzle::for_config(&a, cfg.row_swizzle);
        let mut out = Matrix::<f32>::zeros(48, 32);
        let (stats, report) = {
            let kernel = SpmmKernel::try_new(&a, &b, &mut out, &swizzle, cfg).unwrap();
            gpu.sanitize(&kernel).unwrap()
        };
        assert_eq!(report.violation_count, 0, "{report}");
        assert!(stats.time_us > 0.0);
        let expect = reference::spmm(&a, &b);
        assert!(out.max_abs_diff(&expect) < 1e-3);
    }

    /// The guards' scalar definitions before they became single passes,
    /// kept as the reference the passes must agree with.
    mod scalar {
        use super::*;

        pub(super) fn first_non_finite<T: Scalar>(values: &[T]) -> Option<usize> {
            values.iter().position(|v| !v.to_f32().is_finite())
        }

        pub(super) fn b_rowsums<T: Scalar>(b: &Matrix<T>) -> Vec<f64> {
            let n = b.cols();
            let data = b.as_slice();
            (0..b.rows())
                .map(|r| {
                    data[r * n..(r + 1) * n]
                        .iter()
                        .map(|v| f64::from(v.to_f32()))
                        .sum()
                })
                .collect()
        }

        pub(super) fn checksum_ok<T: Scalar>(
            out: &Matrix<T>,
            a: &CsrMatrix<T>,
            b_rowsums: &[f64],
        ) -> bool {
            let terms = || {
                a.col_indices()
                    .iter()
                    .zip(a.values())
                    .map(|(&col, v)| f64::from(v.to_f32()) * b_rowsums[col as usize])
            };
            let expected: f64 = terms().sum();
            let actual: f64 = out.as_slice().iter().map(|v| f64::from(v.to_f32())).sum();
            let scale = terms().map(f64::abs).sum::<f64>().max(1.0);
            (actual - expected).abs() <= CHECKSUM_REL_TOL * scale
        }
    }

    fn halves(values: &[f32]) -> Vec<Half> {
        values.iter().map(|&v| Half::from_f32(v)).collect()
    }

    /// `require_finite` names the same first index as the scalar scan for
    /// NaN, +inf and -inf planted first, last and around a chunk boundary,
    /// alone or ahead of a second bad value, in `f32` and `Half`.
    #[test]
    fn require_finite_names_the_scalar_first_index() {
        for len in [1, 63, 64, 65, 130, 200] {
            let clean: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            assert!(require_finite("b", &clean).is_ok());
            assert!(require_finite("b", &halves(&clean)).is_ok());
            let spots = [0, len - 1, 63, 64, 127, 128];
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for &at in spots.iter().filter(|&&at| at < len) {
                    for second in [None, Some(len - 1)] {
                        let mut values = clean.clone();
                        values[at] = bad;
                        if let Some(j) = second {
                            values[j] = bad;
                        }
                        let want = scalar::first_non_finite(&values);
                        assert_eq!(want, Some(at));
                        let got = |r: Result<(), SputnikError>| match r {
                            Err(SputnikError::NonFiniteOperand {
                                operand: "b",
                                index,
                            }) => Some(index),
                            other => panic!("expected NonFiniteOperand, got {other:?}"),
                        };
                        assert_eq!(got(require_finite("b", &values)), want, "f32 {bad} at {at}");
                        let values = halves(&values);
                        assert_eq!(scalar::first_non_finite(&values), want);
                        assert_eq!(got(require_finite("b", &values)), want, "f16 {bad} at {at}");
                    }
                }
            }
        }
    }

    /// The B row sums are bit-identical to one left-to-right sum per row,
    /// for row counts on and off the side-by-side group, and for no columns.
    #[test]
    fn b_rowsums_match_the_scalar_sums_bit_for_bit() {
        for (rows, cols) in [(1, 5), (8, 16), (13, 33), (64, 7), (5, 0), (0, 4)] {
            let b = Matrix::<f32>::random(rows, cols, 90 + rows as u64);
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(checksum_b_rowsums(&b)), bits(scalar::b_rowsums(&b)));
            let h = Matrix::from_vec(rows, cols, halves(b.as_slice()));
            assert_eq!(bits(checksum_b_rowsums(&h)), bits(scalar::b_rowsums(&h)));
        }
    }

    /// The lane sum of `C` differs from a left-to-right sum only in
    /// rounding, for lengths on and off the lane count.
    #[test]
    fn lane_sum_matches_the_scalar_sum() {
        for len in [0, 1, 15, 16, 17, 40, 1000] {
            let values: Vec<f32> = (0..len).map(|i| (i as f32 * 0.61).cos() * 3.0).collect();
            let scalar: f64 = values.iter().map(|&v| f64::from(v)).sum();
            let mass: f64 = values.iter().map(|&v| f64::from(v).abs()).sum();
            let lanes = sum_f64_lanes(&values);
            assert!(
                (lanes - scalar).abs() <= 1e-12 * mass,
                "len {len}: {lanes} vs {scalar}"
            );
        }
    }

    /// Over every `Half` bit pattern, `require_finite` and `check_finite`
    /// agree with the scalar scan through `to_f32`: alone, and planted in an
    /// otherwise finite run across a chunk boundary.
    #[test]
    fn half_guards_match_to_f32_on_every_bit_pattern() {
        let mut values = vec![Half::ONE; 100];
        for bits in 0..=u16::MAX {
            let h = Half(bits);
            let want = scalar::first_non_finite(&[h]);
            assert_eq!(
                require_finite("b", &[h]).is_ok(),
                want.is_none(),
                "{bits:#06x}"
            );
            assert_eq!(
                check_finite(&[h], "k").is_ok(),
                want.is_none(),
                "{bits:#06x}"
            );
            values[70] = h;
            assert_eq!(first_non_finite(&values), scalar::first_non_finite(&values));
        }
    }

    /// `check_finite` and the checksum verdict agree with the scalar guards
    /// on clean outputs and on outputs with a planted NaN or inf, a 1e-2
    /// relative corruption of every element, and one element off by 1e-2 of
    /// the output's mass.
    #[test]
    fn output_guard_verdicts_match_the_scalar_guards() {
        for seed in 0..12u64 {
            let s = seed as usize;
            let (m, k, n) = (24 + s, 40 + 3 * s, 9 + 5 * s);
            let a = gen::uniform(m, k, 0.7, 700 + seed);
            let b = Matrix::<f32>::random(k, n, 800 + seed);
            let rowsums = checksum_b_rowsums(&b);
            let clean = reference::spmm(&a, &b);
            let mass: f32 = clean.as_slice().iter().map(|v| v.abs()).sum();
            let at = (s * 37) % (m * n);
            let corrupt = |f: &dyn Fn(&mut [f32])| {
                let mut out = clean.clone();
                f(out.as_mut_slice());
                out
            };
            // Each output with the verdict it must get, where one is known.
            let cases = [
                (clean.clone(), Some(true)),
                (corrupt(&|o| o[at] = f32::NAN), Some(false)),
                (corrupt(&|o| o[at] = f32::INFINITY), Some(false)),
                (corrupt(&|o| o[at] = f32::NEG_INFINITY), Some(false)),
                (
                    corrupt(&|o| o.iter_mut().for_each(|v| *v *= 1.0 + 1e-2)),
                    None,
                ),
                (corrupt(&|o| o[at] += 1e-2 * mass), Some(false)),
            ];
            for (case, (out, want)) in cases.iter().enumerate() {
                let finite = check_finite(out.as_slice(), "k").is_ok();
                assert_eq!(finite, scalar::first_non_finite(out.as_slice()).is_none());
                let ok = check_checksum(out, &a, &rowsums, "k").is_ok();
                let scalar_ok = scalar::checksum_ok(out, &a, &rowsums);
                assert_eq!(ok, scalar_ok, "seed {seed} case {case}");
                if let Some(want) = want {
                    assert_eq!(finite && ok, *want, "seed {seed} case {case}");
                }
            }
        }
    }
}
