//! Fleet-parallel scaling workloads: row-sharded SpMM on the
//! deep-learning problems the paper benchmarks, swept across device counts.
//!
//! Two problem families mirror the paper's application sections:
//!
//! * **Transformer attention** (Section VII-C): the attention-weighted
//!   value product `A_attn (seq x seq, banded + random causal) * V (seq x
//!   d_head)` — the big-compute workload where row sharding should scale.
//! * **MobileNet pointwise conv** (Section VII-D): a pruned 1x1 conv
//!   `W (c_out x c_in, magnitude-pruned) * X (c_in x hw)` — small output
//!   tiles, so launch overhead and gathers bite and scaling is honest about
//!   saturating early.
//!
//! [`scaling_sweep`] runs one problem through [`sputnik::spmm_row_sharded`]
//! at each device count, always anchoring on a freshly measured
//! single-device run, and reports per-point efficiency `T1 / (D * T_D)`
//! plus interconnect counters and a bit-identity verdict against the
//! single-GPU reference kernel.

use gpu_sim::{Fleet, Gpu, LaunchCache};
use sparse::{gen, CsrMatrix, Matrix};
use sputnik::shard::spmm_row_sharded;
use sputnik::{spmm, SpmmConfig, SputnikError};

/// A fleet-shardable SpMM problem: sparse operand, dense operand, config.
pub struct FleetProblem {
    pub name: &'static str,
    pub a: CsrMatrix<f32>,
    pub b: Matrix<f32>,
    pub cfg: SpmmConfig,
}

/// One point of a scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub devices: usize,
    /// Fleet makespan for the sharded run (kernels + transfers).
    pub makespan_us: f64,
    /// Sum of per-shard kernel times (the work actually distributed).
    pub kernel_us: f64,
    pub transfer_bytes: u64,
    pub transfers: u64,
    /// Scaling efficiency `T1 / (devices * makespan)`, 1.0 = linear.
    pub efficiency: f64,
    /// Sharded output equals the single-GPU kernel bit for bit.
    pub bit_identical: bool,
    /// Shard launches served by [`LaunchCache`] replay.
    pub cache_hits: usize,
}

/// The attention-weighted value product of a sparse-Transformer layer:
/// `seq x seq` causal banded mask (band plus random off-diagonal
/// connectivity at `off_sparsity`) against a `seq x d_head` value matrix.
pub fn transformer_attention_problem(
    seq: usize,
    d_head: usize,
    band: usize,
    off_sparsity: f64,
    seed: u64,
) -> FleetProblem {
    let mask = gen::attention_mask(seq, band, off_sparsity, seed);
    // The mask carries unit values; attention weights are dense in (0, 1),
    // so re-randomize to keep the numerics honest.
    let weights = Matrix::<f32>::random(1, mask.nnz(), seed ^ 0xA77E)
        .as_slice()
        .to_vec();
    let a = mask.with_values(weights);
    let b = Matrix::<f32>::random(seq, d_head, seed ^ 0x7A1);
    FleetProblem {
        name: "transformer_attention",
        a,
        b,
        cfg: SpmmConfig::heuristic::<f32>(d_head),
    }
}

/// A pruned MobileNet-style 1x1 convolution: `c_out x c_in` weights at the
/// given sparsity against a `c_in x hw` im2col activation panel.
pub fn mobilenet_pointwise_problem(
    c_out: usize,
    c_in: usize,
    hw: usize,
    sparsity: f64,
    seed: u64,
) -> FleetProblem {
    let a = gen::uniform(c_out, c_in, sparsity, seed);
    let b = Matrix::<f32>::random(c_in, hw, seed ^ 0x30B1);
    FleetProblem {
        name: "mobilenet_pointwise",
        a,
        b,
        cfg: SpmmConfig::heuristic::<f32>(hw),
    }
}

/// Sweep a problem across `device_counts`, returning one [`ScalingPoint`]
/// per count. The single-device anchor `T1` is measured through the same
/// sharded code path (a 1-device fleet runs the plain full-matrix kernel),
/// and every point's output is compared bitwise against the single-GPU
/// [`sputnik::spmm`] reference.
pub fn scaling_sweep(
    problem: &FleetProblem,
    device_counts: &[usize],
) -> Result<Vec<ScalingPoint>, SputnikError> {
    let reference = spmm(&Gpu::v100(), &problem.a, &problem.b, problem.cfg).0;
    let cache = LaunchCache::new();
    let t1 = run_once(problem, 1, &cache)?.sync.makespan_us;
    let mut points = Vec::with_capacity(device_counts.len());
    for &devices in device_counts {
        let run = run_once(problem, devices, &cache)?;
        let bit_identical = run
            .output
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .all(|(g, w)| g.to_bits() == w.to_bits());
        points.push(ScalingPoint {
            devices,
            makespan_us: run.sync.makespan_us,
            kernel_us: run.serial_kernel_us(),
            transfer_bytes: run.sync.transfer_bytes,
            transfers: run.sync.transfers,
            efficiency: t1 / (devices as f64 * run.sync.makespan_us),
            bit_identical,
            cache_hits: run.cache_hits,
        });
    }
    Ok(points)
}

fn run_once(
    problem: &FleetProblem,
    devices: usize,
    cache: &LaunchCache,
) -> Result<sputnik::ShardedRun<Matrix<f32>>, SputnikError> {
    let mut fleet = Fleet::v100(devices);
    spmm_row_sharded(&mut fleet, cache, &problem.a, &problem.b, problem.cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_scale_and_stay_identical() {
        let problem = transformer_attention_problem(256, 32, 16, 0.98, 11);
        let points = scaling_sweep(&problem, &[1, 2, 4]).unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.bit_identical, "D={} diverged", p.devices);
            assert!(p.efficiency > 0.0 && p.efficiency <= 1.01);
            if p.devices > 1 {
                assert!(p.transfers > 0, "sharding must cross the interconnect");
            }
        }
        // The 1-device point re-runs the anchor through the cache, so its
        // efficiency is exactly 1.
        assert!((points[0].efficiency - 1.0).abs() < 1e-9);
        assert!(points[0].cache_hits > 0);
    }

    #[test]
    fn mobilenet_problem_shards_cleanly() {
        let problem = mobilenet_pointwise_problem(128, 64, 56, 0.8, 13);
        let points = scaling_sweep(&problem, &[2]).unwrap();
        assert!(points[0].bit_identical);
        assert!(points[0].transfer_bytes > 0);
    }
}
