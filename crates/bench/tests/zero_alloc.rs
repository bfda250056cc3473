//! The zero-alloc warm path, pinned by a counting global allocator.
//!
//! A warm functional replay (`Gpu::replay_functional` — the execution mode
//! behind launch-cache hits) must not touch the heap at all: staging buffers
//! come from the thread-local scratch arenas, accumulators live on the
//! stack, and cost recording is skipped entirely. This test wraps the system
//! allocator with a counter and requires a run of consecutive replay
//! launches with zero `alloc`/`realloc` calls once the calling thread's
//! arenas have warmed up (a launch runs every block on its caller's
//! thread).

use gpu_sim::Gpu;
use sparse::{gen, Matrix, RowSwizzle};
use sputnik::{SddmmConfig, SpmmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Replay `launch` repeatedly until it stops allocating, then demand a
/// streak of allocation-free launches. The warm-up bound is generous: the
/// first launches grow the thread's arena pool to the largest block.
fn assert_becomes_alloc_free(label: &str, mut launch: impl FnMut()) {
    const STREAK: u32 = 16;
    let mut streak = 0;
    for _ in 0..256 {
        let before = allocs();
        launch();
        if allocs() == before {
            streak += 1;
            if streak >= STREAK {
                return;
            }
        } else {
            streak = 0;
        }
    }
    panic!("{label}: no run of {STREAK} allocation-free launches in 256 tries");
}

#[test]
fn warm_functional_replay_never_allocates() {
    let gpu = Gpu::v100();

    // Sputnik SpMM: subwarp tiling, ROMA alignment, arena-staged tiles.
    {
        let (m, k, n) = (256, 256, 64);
        let a = gen::uniform(m, k, 0.8, 0x2E40);
        let b = Matrix::<f32>::random(k, n, 0x2E41);
        let mut out = Matrix::<f32>::zeros(m, n);
        let swizzle = RowSwizzle::identity(m);
        let kernel = sputnik::SpmmKernel::try_new(
            &a,
            &b,
            &mut out,
            &swizzle,
            SpmmConfig::heuristic::<f32>(n),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert_becomes_alloc_free("spmm replay", || gpu.replay_functional(&kernel));
    }

    // Sputnik SDDMM on a uniform mask, a fresh kernel per launch: every
    // launch decides afresh whether its runs pay for a transposed RHS, and
    // a mask whose runs never pay must decide without allocating.
    {
        let (m, n, k) = (128, 128, 64);
        let mask = gen::uniform(m, n, 0.7, 0x2E44);
        let lhs = Matrix::<f32>::random(m, k, 0x2E45);
        let rhs = Matrix::<f32>::random(n, k, 0x2E46);
        let mut out = vec![0.0f32; mask.nnz()];
        let swizzle = RowSwizzle::identity(m);
        assert_becomes_alloc_free("sddmm replay", || {
            let kernel = sputnik::SddmmKernel::try_new(
                &lhs,
                &rhs,
                &mask,
                &mut out,
                &swizzle,
                SddmmConfig::heuristic::<f32>(k),
            )
            .unwrap_or_else(|e| panic!("{e}"));
            gpu.replay_functional(&kernel);
            assert!(!kernel.transposed_rhs());
        });
    }

    // Dense GEMM: the arena-checkout-per-block path.
    {
        let a = Matrix::<f32>::random(128, 64, 0x2E42);
        let b = Matrix::<f32>::random(64, 96, 0x2E43);
        let mut out = Matrix::<f32>::zeros(128, 96);
        let kernel = baselines::GemmKernel::new(&a, &b, &mut out);
        assert_becomes_alloc_free("gemm replay", || gpu.replay_functional(&kernel));
    }
}
