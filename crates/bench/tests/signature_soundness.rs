//! Soundness of every `Kernel::block_signature` in the workspace: two
//! blocks with equal signatures must record **bit-identical** cost traces,
//! because profile-mode launches execute one representative per signature
//! and replay its cost for the rest. An unsound signature silently skews
//! every dataset-scale sweep.
//!
//! Coverage comes from two directions: the shared kernel registry (every
//! shipped kernel on the deterministic shape grid) and a randomized
//! Sputnik SpMM sweep (ragged topologies, empty rows, swizzled and
//! ROMA'd configs — the kernels whose signatures encode the most state).

use gpu_sim::{BlockContext, Kernel};
use sparse::{gen, Matrix, RowSwizzle};
use sputnik::{SpmmConfig, SpmmKernel};
use sputnik_bench::registry;
use std::collections::HashMap;

/// Execute every block of `kernel`, grouping cost traces by signature;
/// any signature collision with differing costs is a soundness bug.
fn assert_signature_sound(kernel: &dyn Kernel, context: &str) {
    let grid = kernel.grid();
    let mut by_sig: HashMap<u64, (gpu_sim::Dim3, gpu_sim::BlockCost)> = HashMap::new();
    let mut signed = 0u64;
    for lin in 0..grid.size() {
        let block = grid.delinearize(lin);
        let Some(sig) = kernel.block_signature(block) else {
            continue;
        };
        signed += 1;
        let mut ctx = BlockContext::new(true);
        kernel.execute_block(block, &mut ctx);
        match by_sig.get(&sig) {
            None => {
                by_sig.insert(sig, (block, ctx.cost));
            }
            Some((first, cost)) => {
                assert_eq!(
                    *cost,
                    ctx.cost,
                    "{context}: kernel {} blocks {first:?} and {block:?} share \
                     signature {sig:#x} but recorded different costs",
                    kernel.name()
                );
            }
        }
    }
    // The sweep only means something if signatures actually collide
    // somewhere; individual kernels may legitimately sign nothing.
    let _ = signed;
}

#[test]
fn registry_kernels_have_sound_signatures() {
    registry::for_each_kernel(&mut |kernel| {
        assert_signature_sound(kernel, "registry grid");
    });
}

#[test]
fn spmm_signatures_sound_on_random_topologies() {
    // Ragged shapes, extreme sparsities (empty rows on one end, nearly
    // dense on the other), swizzle on and off, vector widths 1 and 4.
    let shapes: &[(usize, usize, usize, f64, u64)] = &[
        (97, 64, 32, 0.95, 1),
        (33, 128, 64, 0.50, 2),
        (256, 96, 32, 0.99, 3),
        (64, 64, 96, 0.05, 4),
    ];
    for &(m, k, n, sparsity, seed) in shapes {
        let a = gen::uniform(m, k, sparsity, seed);
        let b = Matrix::<f32>::random(k, n, seed ^ 0xFF);
        for cfg in [
            SpmmConfig::default(),
            SpmmConfig::heuristic::<f32>(n),
            SpmmConfig {
                row_swizzle: true,
                ..SpmmConfig::heuristic::<f32>(n)
            },
        ] {
            let swizzle = RowSwizzle::for_config(&a, cfg.row_swizzle);
            let mut out = Matrix::<f32>::zeros(m, n);
            let kernel = SpmmKernel::try_new(&a, &b, &mut out, &swizzle, cfg)
                .unwrap_or_else(|e| panic!("spmm construction ({m}x{k}x{n}): {e}"));
            assert_signature_sound(&kernel, &format!("random {m}x{k}x{n} s={sparsity}"));
        }
    }
}

/// The replay contract holds end to end: a signature that collides across
/// blocks must exist somewhere in the sweep, otherwise the test above
/// never exercised the replay path it protects.
#[test]
fn signature_collisions_actually_occur() {
    // Wide N: the same row strip repeats across column tiles in the same
    // alignment class, which is exactly the repetition the replay collapses.
    let a = gen::uniform(128, 64, 0.5, 7);
    let b = Matrix::<f32>::random(64, 128, 8);
    let swizzle = RowSwizzle::identity(a.rows());
    let mut out = Matrix::<f32>::zeros(128, 128);
    let kernel = SpmmKernel::try_new(&a, &b, &mut out, &swizzle, SpmmConfig::default())
        .expect("spmm construction");
    let grid = kernel.grid();
    let mut seen = HashMap::new();
    let mut collisions = 0u64;
    for lin in 0..grid.size() {
        if let Some(sig) = kernel.block_signature(grid.delinearize(lin)) {
            collisions += u64::from(seen.insert(sig, ()).is_some());
        }
    }
    assert!(
        collisions > 0,
        "no two blocks ever shared a signature — the replay fast path is dead \
         and the soundness sweep is vacuous"
    );
}
