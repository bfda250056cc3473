//! Soundness of every cost key in the workspace (`gpu_sim::CostKey`): two
//! blocks with equal key hashes must record **bit-identical** cost traces,
//! because profile-mode launches execute one representative per hash and
//! replay its cost for the rest. An unsound key silently skews every
//! dataset-scale sweep. Each block's `execute_block` must also record
//! exactly what `charge(&cost_key(block))` records: the key is the whole
//! of the cost half, so nothing outside it can tell blocks apart.
//!
//! Coverage comes from two directions: the shared kernel registry (every
//! shipped kernel on the deterministic shape grid) and randomized Sputnik
//! SpMM and SDDMM sweeps (ragged topologies, empty rows, swizzled and
//! ROMA'd configs — the kernels whose keys hold the most state).

use gpu_sim::{BlockContext, Dim3, Kernel};
use sparse::rng::SplitMix64;
use sparse::{gen, CsrMatrix, Half, Matrix, RowSwizzle, Scalar};
use sputnik::{SddmmConfig, SddmmKernel, SpmmConfig, SpmmKernel};
use sputnik_bench::registry;
use std::collections::{HashMap, HashSet};

/// The hash profile dedup groups `block` by.
fn signature(kernel: &dyn Kernel, block: Dim3) -> u64 {
    let keyed = kernel
        .keyed()
        .unwrap_or_else(|| panic!("{} has no cost keys", kernel.name()));
    keyed.signature(block, &mut BlockContext::new(false))
}

/// Execute every block of a keyed `kernel`, checking its trace against
/// its key's charge and grouping traces by key hash; a hash collision with
/// differing costs is a soundness bug.
fn assert_signature_sound(kernel: &dyn Kernel, context: &str) {
    let Some(keyed) = kernel.keyed() else {
        return;
    };
    let grid = kernel.grid();
    let mut by_sig: HashMap<u64, (Dim3, gpu_sim::BlockCost)> = HashMap::new();
    for lin in 0..grid.size() {
        let block = grid.delinearize(lin);
        let sig = keyed.signature(block, &mut BlockContext::new(false));
        let mut ctx = BlockContext::new(true);
        kernel.execute_block(block, &mut ctx);
        let mut charged = BlockContext::new(false);
        keyed.charge_block(block, &mut charged);
        assert_eq!(
            ctx.cost,
            charged.cost,
            "{context}: kernel {} block {block:?} records more than its key charges",
            kernel.name()
        );
        match by_sig.get(&sig) {
            None => {
                by_sig.insert(sig, (block, ctx.cost));
            }
            Some((first, cost)) => {
                assert_eq!(
                    *cost,
                    ctx.cost,
                    "{context}: kernel {} blocks {first:?} and {block:?} share \
                     key hash {sig:#x} but recorded different costs",
                    kernel.name()
                );
            }
        }
    }
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

#[test]
fn spmm_signatures_sound_on_unaligned_tiles() {
    // Balanced rows repeat every subwarp's work sizes, so only the address
    // classes of the 16-byte C tiles tell blocks apart: the strip's
    // `row * n * eb % 32` (n = 98 at f32: 0, 8, 16 or 24) and the tile's
    // `n_off * eb % 32` (4-column tiles: 0 or 16). A tile straddles two
    // sectors when the two sum to 24. One row per block, so no other row's
    // tile evens out a block's sector count.
    let (m, k, n) = (64, 64, 98);
    let a = gen::balanced(m, k, 12, 11);
    let b = Matrix::<f32>::random(k, n, 12);
    let cfg = SpmmConfig {
        block_items_x: 4,
        block_items_y: 1,
        ..SpmmConfig::default()
    };
    let swizzle = RowSwizzle::for_config(&a, cfg.row_swizzle);
    let mut out = Matrix::<f32>::zeros(m, n);
    let kernel = SpmmKernel::try_new(&a, &b, &mut out, &swizzle, cfg)
        .unwrap_or_else(|e| panic!("spmm construction: {e}"));
    assert_signature_sound(&kernel, "4-column tiles");
}

/// A mask whose rows mix empty rows, rows shorter than one 32-wide SDDMM
/// strip and rows spanning several strips, with random sorted columns.
fn ragged_mask(rows: usize, cols: usize, seed: u64) -> CsrMatrix<f32> {
    let mut rng = SplitMix64::new(seed);
    let mut offsets = vec![0u32];
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for _ in 0..rows {
        let density = match rng.next_u64() % 4 {
            0 => 0.0,
            1 => 0.1 * rng.next_f64(),
            _ => rng.next_f64(),
        };
        for c in 0..cols as u32 {
            if rng.next_f64() < density {
                indices.push(c);
                values.push(1.0 + rng.next_f64() as f32);
            }
        }
        offsets.push(indices.len() as u32);
    }
    CsrMatrix::from_parts(rows, cols, offsets, indices, values)
        .unwrap_or_else(|e| panic!("invalid ragged mask: {e}"))
}

/// Every SDDMM config of the sweep: the default, the row swizzle, the
/// general (mask-scaled) form and a narrower strip.
fn sddmm_configs<T: Scalar>(k: usize) -> [SddmmConfig; 4] {
    let base = SddmmConfig::heuristic::<T>(k);
    [
        base,
        SddmmConfig {
            row_swizzle: true,
            ..base
        },
        SddmmConfig {
            scale_by_mask: true,
            ..base
        },
        SddmmConfig {
            block_items_x: 16,
            row_swizzle: true,
            scale_by_mask: true,
            ..base
        },
    ]
}

fn assert_sddmm_sound<T: Scalar>(mask: &CsrMatrix<T>, k: usize, context: &str) {
    for cfg in sddmm_configs::<T>(k) {
        let swizzle = RowSwizzle::for_config(mask, cfg.row_swizzle);
        let kernel = SddmmKernel::for_profile(mask, k, &swizzle, cfg);
        assert_signature_sound(&kernel, &format!("{context} {cfg:?}"));
    }
}

#[test]
fn sddmm_signatures_sound_on_ragged_masks() {
    // Row bytes `k * eb`: 148 and 48 are not whole sectors, so each RHS row
    // lands in its own alignment class; 256 and 128 are.
    for (i, &(rows, cols)) in [(61, 150), (40, 333), (128, 100)].iter().enumerate() {
        let mask = ragged_mask(rows, cols, 0x5DD + i as u64);
        assert!((0..rows).any(|r| mask.row_len(r) == 0), "no empty row");
        assert!(mask.max_row_len() > 64, "no row spans several strips");
        for k in [37, 64] {
            assert_sddmm_sound(&mask, k, &format!("f32 ragged {rows}x{cols} k={k}"));
        }
        let half = mask.convert::<Half>();
        for k in [24, 64] {
            assert_sddmm_sound(&half, k, &format!("f16 ragged {rows}x{cols} k={k}"));
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
        let sig = signature(&kernel, grid.delinearize(lin));
        collisions += u64::from(seen.insert(sig, ()).is_some());
    }
    assert!(
        collisions > 0,
        "no two blocks ever shared a signature — the replay fast path is dead \
         and the soundness sweep is vacuous"
    );
}

/// The same for SDDMM, on both sides of its early exit: the surplus blocks
/// of the over-provisioned grid share signatures, and so do working strips
/// of equal length in equal alignment classes.
#[test]
fn sddmm_signature_collisions_actually_occur() {
    let mask = ragged_mask(96, 200, 9);
    let cfg = SddmmConfig::heuristic::<f32>(37);
    let swizzle = RowSwizzle::for_config(&mask, cfg.row_swizzle);
    let kernel = SddmmKernel::for_profile(&mask, 37, &swizzle, cfg);
    let grid = kernel.grid();
    let mut seen = HashSet::new();
    let (mut exit_collisions, mut work_collisions) = (0u64, 0u64);
    for lin in 0..grid.size() {
        let block = grid.delinearize(lin);
        let sig = signature(&kernel, block);
        let mut ctx = BlockContext::new(false);
        kernel.execute_block(block, &mut ctx);
        // Only a working block stores outputs.
        let exits = ctx.cost.st_global_instrs == 0;
        let repeats = !seen.insert(sig);
        match (exits, repeats) {
            (true, true) => exit_collisions += 1,
            (false, true) => work_collisions += 1,
            _ => {}
        }
    }
    assert!(
        exit_collisions > 0,
        "no two early-exit blocks shared a signature"
    );
    assert!(
        work_collisions > 0,
        "no two working blocks shared a signature"
    );
}
