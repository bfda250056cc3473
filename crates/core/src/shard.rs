//! Row-sharded (data-parallel) multi-device kernels over a simulated
//! [`Fleet`], proven **bit-identical** to the single-device reference.
//!
//! [`spmm_row_sharded`] / [`sddmm_row_sharded`]: each device owns a
//! contiguous, nnz-balanced block of output rows. Per-row folds are
//! untouched (a row's entire CSR segment stays on one device), so
//! concatenating the shard outputs reproduces the single-device result bit
//! for bit. Shards computed on devices other than 0 are gathered to device
//! 0 over the interconnect.
//!
//! Every shard launch goes through [`Gpu::run`] at the default audit
//! level: statically audited (a refuted shard fails the op before any block
//! runs), simulated on first sight, and replayed through the
//! [`LaunchCache`] (functional outputs only) on repeat launches.
//!
//! [`Gpu::run`]: gpu_sim::Gpu::run

use crate::config::{SddmmConfig, SpmmConfig};
use crate::error::SputnikError;
use crate::sddmm::{mask_fingerprint, SddmmKernel};
use crate::spmm::{operand_fingerprint, require_finite, SpmmKernel};
use gpu_sim::{Fleet, FleetSync, Gpu, LaunchCache, LaunchRequest, LaunchStats, Launched};
use sparse::{CsrMatrix, Matrix, RowSwizzle, Scalar};

/// The result of a sharded kernel run: the assembled output plus the
/// per-shard launch stats and the resolved fleet timeline.
#[derive(Debug, Clone)]
pub struct ShardedRun<Out> {
    /// The assembled output, bit-identical to the single-device kernel.
    pub output: Out,
    /// Per-shard launch stats, in device order (empty shards skipped).
    pub shard_stats: Vec<LaunchStats>,
    /// How many shard launches were served from the [`LaunchCache`]
    /// (functional replay, memoized stats).
    pub cache_hits: usize,
    /// The resolved fleet timeline: per-device busy clocks, makespan, and
    /// interconnect counters.
    pub sync: FleetSync,
}

impl<Out> ShardedRun<Out> {
    /// The sum of per-shard kernel times — what a single stream would pay
    /// for the same launches, ignoring transfers. The scaling-efficiency
    /// numerator in `fleetwall`.
    pub fn serial_kernel_us(&self) -> f64 {
        self.shard_stats.iter().map(|s| s.time_us).sum()
    }
}

/// Split `0..a.rows()` into `devices` contiguous ranges balanced by nnz
/// (falling back to an even row split for an all-zero matrix). Ranges may
/// be empty when there are more devices than rows (or the nnz mass is
/// concentrated); empty ranges launch nothing.
pub fn plan_row_shards<T: Scalar>(a: &CsrMatrix<T>, devices: usize) -> Vec<(usize, usize)> {
    assert!(devices > 0, "cannot shard across zero devices");
    let rows = a.rows();
    let total = a.nnz() as u64;
    let mut ranges = Vec::with_capacity(devices);
    let mut r0 = 0usize;
    for d in 0..devices - 1 {
        let r1 = if total == 0 {
            rows * (d + 1) / devices
        } else {
            // Largest prefix whose nnz stays within this device's share.
            let target = total * (d as u64 + 1) / devices as u64;
            let offsets = a.row_offsets();
            let mut r1 = r0;
            while r1 < rows && u64::from(offsets[r1 + 1]) <= target {
                r1 += 1;
            }
            r1
        };
        ranges.push((r0, r1));
        r0 = r1;
    }
    ranges.push((r0, rows));
    ranges
}

/// The contiguous row block `r0..r1` of `a` as a standalone CSR matrix
/// (offsets rebased; columns untouched).
pub fn row_slice<T: Scalar>(
    a: &CsrMatrix<T>,
    r0: usize,
    r1: usize,
) -> Result<CsrMatrix<T>, SputnikError> {
    assert!(r0 <= r1 && r1 <= a.rows(), "row slice out of range");
    let off = a.row_offsets();
    let base = off[r0];
    let (lo, hi) = (off[r0] as usize, off[r1] as usize);
    let offsets: Vec<u32> = off[r0..=r1].iter().map(|&o| o - base).collect();
    Ok(CsrMatrix::from_parts(
        r1 - r0,
        a.cols(),
        offsets,
        a.col_indices()[lo..hi].to_vec(),
        a.values()[lo..hi].to_vec(),
    )?)
}

/// The row-shard loop behind [`spmm_row_sharded`] and
/// [`sddmm_row_sharded`]. It plans nnz-balanced row blocks of `rows`, skips
/// empty shards, and for each other shard calls `launch(gpu, r0, r1)`,
/// which runs the shard on its device and returns the launch with the
/// shard's gather size in bytes (`None` when the op gathers nothing for
/// it). The loop submits each launch's time to its device. A shard off
/// device 0 with a gather size sends that many bytes to device 0 over the
/// interconnect, labelled `gather`. Device 0 waits for every gather before
/// the fleet syncs. Returns the launch stats in device order, the cache-hit
/// count and the fleet timeline.
fn run_row_shards<T: Scalar>(
    fleet: &mut Fleet,
    rows: &CsrMatrix<T>,
    gather: &str,
    mut launch: impl FnMut(&Gpu, usize, usize) -> Result<(Launched, Option<u64>), SputnikError>,
) -> Result<(Vec<LaunchStats>, usize, FleetSync), SputnikError> {
    let plan = plan_row_shards(rows, fleet.num_devices());
    let mut shard_stats = Vec::new();
    let mut cache_hits = 0usize;
    let mut gathers = Vec::new();
    for (dev, &(r0, r1)) in plan.iter().enumerate() {
        if r0 == r1 {
            continue;
        }
        let (launched, bytes) = launch(fleet.gpu(dev), r0, r1)?;
        cache_hits += usize::from(launched.hit);
        fleet.submit(dev, launched.stats.time_us);
        shard_stats.push(launched.stats);
        if let (true, Some(bytes)) = (dev != 0, bytes) {
            gathers.push(fleet.transfer(dev, 0, bytes, gather));
        }
    }
    for ev in gathers {
        fleet.wait_event(0, ev);
    }
    Ok((shard_stats, cache_hits, fleet.sync()?))
}

/// Row-sharded (data-parallel) SpMM across a fleet: `A (m x k) * B (k x n)`
/// with contiguous nnz-balanced row blocks, one per device. Each shard is
/// audited and launched through the [`LaunchCache`]; shards on
/// devices other than 0 gather their output block to device 0 over the
/// interconnect (`B` is assumed pre-replicated, the data-parallel norm).
/// The assembled output is bit-identical to [`crate::spmm`].
pub fn spmm_row_sharded<T: Scalar>(
    fleet: &mut Fleet,
    cache: &LaunchCache,
    a: &CsrMatrix<T>,
    b: &Matrix<T>,
    cfg: SpmmConfig,
) -> Result<ShardedRun<Matrix<T>>, SputnikError> {
    require_finite("a", a.values())?;
    require_finite("b", b.as_slice())?;
    let n = b.cols();
    let mut output = Matrix::<T>::zeros(a.rows(), n);
    let (shard_stats, cache_hits, sync) =
        run_row_shards(fleet, a, "gather C row-shard", |gpu, r0, r1| {
            let shard = row_slice(a, r0, r1)?;
            let swizzle = RowSwizzle::for_config(&shard, cfg.row_swizzle);
            let mut out_d = Matrix::<T>::zeros(shard.rows(), n);
            let launched = {
                let kernel = SpmmKernel::try_new(&shard, b, &mut out_d, &swizzle, cfg)?;
                let req = LaunchRequest::functional(&kernel)
                    .cached((cache, operand_fingerprint(&shard, n)));
                gpu.run(&req)?
            };
            output.as_mut_slice()[r0 * n..r1 * n].copy_from_slice(out_d.as_slice());
            let bytes = (out_d.rows() * n) as u64 * u64::from(T::BYTES);
            Ok((launched, Some(bytes)))
        })?;
    Ok(ShardedRun {
        output,
        shard_stats,
        cache_hits,
        sync,
    })
}

/// Row-sharded (data-parallel) SDDMM across a fleet: mask rows are split
/// into contiguous nnz-balanced blocks; each device computes the sampled
/// dot products for its block against its slice of `lhs` rows and the full
/// `rhs`. Per-shard value vectors concatenate in row order (CSR values are
/// laid out row-major), so the assembled output is bit-identical to
/// [`crate::sddmm`].
pub fn sddmm_row_sharded<T: Scalar>(
    fleet: &mut Fleet,
    cache: &LaunchCache,
    lhs: &Matrix<T>,
    rhs: &Matrix<T>,
    mask: &CsrMatrix<T>,
    cfg: SddmmConfig,
) -> Result<ShardedRun<CsrMatrix<T>>, SputnikError> {
    require_finite("lhs", lhs.as_slice())?;
    require_finite("rhs", rhs.as_slice())?;
    require_finite("mask", mask.values())?;
    let k = lhs.cols();
    let mut values = vec![T::zero(); mask.nnz()];
    let (shard_stats, cache_hits, sync) =
        run_row_shards(fleet, mask, "gather SDDMM value shard", |gpu, r0, r1| {
            let shard_mask = row_slice(mask, r0, r1)?;
            let lhs_shard = Matrix::from_vec(r1 - r0, k, lhs.as_slice()[r0 * k..r1 * k].to_vec());
            let swizzle = RowSwizzle::for_config(&shard_mask, cfg.row_swizzle);
            let mut vals_d = vec![T::zero(); shard_mask.nnz()];
            let launched = {
                let kernel =
                    SddmmKernel::try_new(&lhs_shard, rhs, &shard_mask, &mut vals_d, &swizzle, cfg)?;
                let req = LaunchRequest::functional(&kernel)
                    .cached((cache, mask_fingerprint(&shard_mask, k)));
                gpu.run(&req)?
            };
            let base = mask.row_offsets()[r0] as usize;
            values[base..base + vals_d.len()].copy_from_slice(&vals_d);
            let bytes = vals_d.len() as u64 * u64::from(T::BYTES);
            Ok((launched, (!vals_d.is_empty()).then_some(bytes)))
        })?;
    Ok(ShardedRun {
        output: mask.with_values(values),
        shard_stats,
        cache_hits,
        sync,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sddmm::sddmm;
    use crate::spmm::spmm;
    use gpu_sim::{Gpu, LinkProfile};
    use sparse::gen;

    fn fleet(n: usize) -> Fleet {
        Fleet::v100(n)
    }

    fn assert_bits_eq(got: &Matrix<f32>, want: &Matrix<f32>, what: &str) {
        assert_eq!(got.rows(), want.rows(), "{what}: row count");
        assert_eq!(got.cols(), want.cols(), "{what}: col count");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {i} differs ({g} vs {w})"
            );
        }
    }

    #[test]
    fn row_shard_plan_covers_rows_and_balances_nnz() {
        let a = gen::power_law(128, 96, 12.0, 1.5, 7);
        for devices in [1, 2, 4, 8] {
            let plan = plan_row_shards(&a, devices);
            assert_eq!(plan.len(), devices);
            assert_eq!(plan[0].0, 0);
            assert_eq!(plan[devices - 1].1, a.rows());
            for w in plan.windows(2) {
                assert_eq!(w[0].1, w[1].0, "shards must be contiguous");
            }
            // Each shard's nnz stays within one max-row-length of the ideal
            // share: the greedy cut can only overshoot by a row boundary.
            let ideal = a.nnz() as f64 / devices as f64;
            for &(r0, r1) in &plan {
                let nnz = (a.row_offsets()[r1] - a.row_offsets()[r0]) as f64;
                assert!(nnz <= ideal + a.max_row_len() as f64);
            }
        }
    }

    #[test]
    fn row_slices_partition_the_matrix() {
        let a = gen::uniform(60, 44, 0.8, 11);
        let plan = plan_row_shards(&a, 3);
        let total: usize = plan
            .iter()
            .map(|&(r0, r1)| row_slice(&a, r0, r1).unwrap().nnz())
            .sum();
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn spmm_row_sharded_is_bit_identical_to_single_device() {
        let gpu = Gpu::v100();
        for &(m, k, n, sp) in &[(64usize, 96usize, 32usize, 0.7f64), (128, 128, 64, 0.9)] {
            let a = gen::uniform(m, k, sp, 3);
            let b = Matrix::<f32>::random(k, n, 5);
            for swizzle in [false, true] {
                let cfg = SpmmConfig {
                    row_swizzle: swizzle,
                    ..SpmmConfig::default()
                };
                let (reference, _) = spmm(&gpu, &a, &b, cfg);
                for devices in [1, 2, 4] {
                    let cache = LaunchCache::new();
                    let mut f = fleet(devices);
                    let run = spmm_row_sharded(&mut f, &cache, &a, &b, cfg).unwrap();
                    assert_bits_eq(
                        &run.output,
                        &reference,
                        &format!("spmm {m}x{k}x{n} D={devices} swizzle={swizzle}"),
                    );
                    if devices > 1 {
                        assert!(run.sync.transfer_bytes > 0, "gathers must cross the link");
                    }
                }
            }
        }
    }

    #[test]
    fn sddmm_row_sharded_is_bit_identical_to_single_device() {
        let gpu = Gpu::v100();
        let mask = gen::uniform(96, 80, 0.85, 17);
        let lhs = Matrix::<f32>::random(96, 64, 19);
        let rhs = Matrix::<f32>::random(80, 64, 23);
        for swizzle in [false, true] {
            let cfg = SddmmConfig {
                row_swizzle: swizzle,
                ..SddmmConfig::default()
            };
            let (reference, _) = sddmm(&gpu, &lhs, &rhs, &mask, cfg);
            for devices in [1, 2, 4] {
                let cache = LaunchCache::new();
                let mut f = fleet(devices);
                let run = sddmm_row_sharded(&mut f, &cache, &lhs, &rhs, &mask, cfg).unwrap();
                assert!(run.output.same_pattern(&reference));
                for (i, (g, w)) in run
                    .output
                    .values()
                    .iter()
                    .zip(reference.values())
                    .enumerate()
                {
                    assert_eq!(g.to_bits(), w.to_bits(), "sddmm value {i} D={devices}");
                }
            }
        }
    }

    #[test]
    fn sharded_relaunch_replays_every_shard_from_the_cache() {
        let a = gen::power_law(96, 64, 10.0, 1.5, 41);
        let b = Matrix::<f32>::random(64, 48, 43);
        let cfg = SpmmConfig::default();
        let cache = LaunchCache::new();

        let mut f = fleet(4);
        let cold = spmm_row_sharded(&mut f, &cache, &a, &b, cfg).unwrap();
        assert_eq!(cold.cache_hits, 0);

        let mut f = fleet(4);
        let warm = spmm_row_sharded(&mut f, &cache, &a, &b, cfg).unwrap();
        assert_eq!(warm.cache_hits, warm.shard_stats.len());
        assert_bits_eq(&warm.output, &cold.output, "replayed run");
        assert!(warm.sync.transfer_bytes > 0);
    }

    #[test]
    fn heterogeneous_fleet_replays_do_not_cross_devices() {
        // Two fleets with identical device *names* but different silicon:
        // the arch fingerprint in the launch key must keep their cache
        // entries apart (the stats would disagree).
        let a = gen::uniform(64, 64, 0.8, 53);
        let b = Matrix::<f32>::random(64, 32, 59);
        let cfg = SpmmConfig::default();
        let cache = LaunchCache::new();

        let big = gpu_sim::DeviceConfig::v100();
        let mut small = gpu_sim::DeviceConfig::v100();
        small.num_sms = 20;

        let mut f1 = Fleet::homogeneous(&big, 2, LinkProfile::nvlink());
        let cold = spmm_row_sharded(&mut f1, &cache, &a, &b, cfg).unwrap();
        assert_eq!(cold.cache_hits, 0);

        let mut f2 = Fleet::homogeneous(&small, 2, LinkProfile::nvlink());
        let cross = spmm_row_sharded(&mut f2, &cache, &a, &b, cfg).unwrap();
        assert_eq!(
            cross.cache_hits, 0,
            "a different arch must never replay another device's stats"
        );
        assert_bits_eq(&cross.output, &cold.output, "hetero fleet output");
    }

    #[test]
    fn more_devices_than_rows_still_assembles_correctly() {
        let gpu = Gpu::v100();
        let a = gen::uniform(3, 40, 0.6, 61);
        let b = Matrix::<f32>::random(40, 16, 67);
        let cfg = SpmmConfig::default();
        let (reference, _) = spmm(&gpu, &a, &b, cfg);
        let cache = LaunchCache::new();
        let mut f = fleet(8);
        let run = spmm_row_sharded(&mut f, &cache, &a, &b, cfg).unwrap();
        assert_bits_eq(&run.output, &reference, "tiny matrix on 8 devices");
        assert!(run.shard_stats.len() <= 3);
    }
}
