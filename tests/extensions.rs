//! Integration tests for the extension APIs (beyond the paper's evaluation):
//! cached transposes, autotuning, batched streams, the block-sparse and COO
//! formats — exercised together across crates.

use gpu_sim::{Gpu, LaunchCache};
use sparse::{block, gen, Matrix};
use sputnik::{AutoTuner, CachedTranspose, DispatchPolicy, SpmmConfig};

/// A full backward pass built from the extensions: gradients wrt inputs via
/// the cached transpose, using a tuned configuration, over a batch.
#[test]
fn tuned_batched_backward_pass() {
    let gpu = Gpu::v100();
    let w = gen::uniform(96, 64, 0.75, 2101);
    let mut tuner = AutoTuner::new();

    // Tune for the gradient problem's N.
    let tuned = tuner.tune(&gpu, None, &w.transpose(), 16);
    let cache = CachedTranspose::new(&w);

    // dX = W^T dY for a batch of output gradients.
    let dys: Vec<Matrix<f32>> = (0..3).map(|i| Matrix::random(96, 16, 2102 + i)).collect();
    for dy in &dys {
        let (dx, _) = cache.spmm(&gpu, dy, tuned.config);
        let expect = sputnik::reference::spmm(&w.transpose(), dy);
        assert!(dx.max_abs_diff(&expect) < 1e-3);
    }
}

/// Batched SpMM across heads with a shared topology, checked against the
/// unbatched wrapper.
#[test]
fn batched_equals_unbatched() {
    let gpu = Gpu::v100();
    let a = gen::attention_mask(64, 8, 0.9, 2103);
    let heads: Vec<Matrix<f32>> = (0..4).map(|i| Matrix::random(64, 16, 2104 + i)).collect();
    let refs: Vec<&Matrix<f32>> = heads.iter().collect();
    let cfg = SpmmConfig::heuristic::<f32>(16);
    let cache = LaunchCache::new();
    let policy = DispatchPolicy::default();
    let batched = sputnik::spmm_batched_dispatch(&gpu, &cache, &a, &refs, cfg, &policy)
        .expect("clean window");
    assert_eq!(batched.cache_hits, 3, "heads 2..4 replay head 1");
    for (out, b) in batched.outputs.iter().zip(&heads) {
        let (solo, _) = sputnik::spmm(&gpu, &a, b, cfg);
        assert!(
            out.max_abs_diff(&solo) < 1e-6,
            "batched must equal unbatched exactly"
        );
    }
    assert!(batched.stream_us <= batched.naive_us);
}

/// The CSR, BSR and COO formats represent the same matrix, and the CSR and
/// BSR kernels reach the same answer.
#[test]
fn format_zoo_agrees() {
    let gpu = Gpu::v100();
    let dense = {
        let mut d = Matrix::<f32>::random(64, 64, 2105);
        // Zero ~70% so every format has real sparsity to exploit.
        let mask = gen::uniform(64, 64, 0.7, 2106);
        let kept = mask.to_dense();
        for r in 0..64 {
            for c in 0..64 {
                if kept.get(r, c) == 0.0 {
                    d.set(r, c, 0.0);
                }
            }
        }
        d
    };
    let csr = sparse::CsrMatrix::from_dense(&dense);
    let bsr = block::BsrMatrix::from_dense(&dense, 8);
    let coo = sparse::CooMatrix::from(&csr);

    assert_eq!(bsr.to_dense(), dense);
    assert_eq!(coo.to_csr(sparse::DuplicatePolicy::Reject).unwrap(), csr);

    let b = Matrix::<f32>::random(64, 32, 2107);
    let expect = sputnik::reference::spmm(&csr, &b);
    let (c1, _) = sputnik::spmm(&gpu, &csr, &b, SpmmConfig::heuristic::<f32>(32));
    let (c2, _) = baselines::block_spmm(&gpu, &bsr, &b);
    assert!(c1.max_abs_diff(&expect) < 1e-3);
    assert!(c2.max_abs_diff(&expect) < 1e-3);
}

/// SMTX -> CSR -> MatrixMarket -> CSR survives the trip.
#[test]
fn io_format_interchange() {
    let m = gen::uniform(20, 24, 0.75, 2108);
    let mut smtx = Vec::new();
    sparse::io::write_smtx(&m, &mut smtx).unwrap();
    let from_smtx = sparse::io::read_smtx(std::io::BufReader::new(&smtx[..])).unwrap();
    assert!(m.same_pattern(&from_smtx));

    let mut mtx = Vec::new();
    sparse::mtx::write_mtx(&m, &mut mtx).unwrap();
    let from_mtx = sparse::mtx::read_mtx(std::io::BufReader::new(&mtx[..])).unwrap();
    assert!(m.same_pattern(&from_mtx));
    for (a, b) in m.values().iter().zip(from_mtx.values()) {
        assert!((a - b).abs() < 1e-5);
    }
}

/// The padded (assume_aligned) path is equivalent to ROMA functionally.
#[test]
fn padding_and_roma_agree() {
    let gpu = Gpu::v100();
    let a = gen::uniform(48, 96, 0.8, 2109);
    let b = Matrix::<f32>::random(96, 32, 2110);
    let cfg = SpmmConfig::heuristic::<f32>(32);

    let (roma_out, _) = sputnik::spmm(&gpu, &a, &b, cfg);
    let padded = a.padded_to_multiple(cfg.vector_width as usize).unwrap();
    let (pad_out, _) = sputnik::spmm(
        &gpu,
        &padded,
        &b,
        SpmmConfig {
            roma: false,
            assume_aligned: true,
            ..cfg
        },
    );
    assert!(roma_out.max_abs_diff(&pad_out) < 1e-4);
}
