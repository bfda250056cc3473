//! Wall-clock benchmark of the simulator's *functional* execution engine.
//!
//! `simwall` times the launch fast path (profile-mode block dedup + cache)
//! on profile-only sweeps; this bin times the compute side — kernels actually producing
//! numerical outputs — which dominates cold launches, sanitize passes, and
//! every DNN forward pass. It runs a deterministic kernel grid covering the
//! Sputnik kernels (SpMM, SDDMM, softmax, transpose) and the baselines
//! (cuBLAS GEMM, cuSPARSE, ELL, merge, nnz-split, block-sparse) in three
//! instrumented passes:
//!
//! 1. `cold` — repeated functional launches, fresh every time: wall-clock
//!    GFLOP/s of the functional engine plus heap allocations per launch
//!    (measured by a counting global allocator).
//! 2. `replay` — a warmed [`LaunchCache`] serving the same problems: the
//!    zero-alloc hot path (outputs recomputed, statistics replayed).
//! 3. scratch-arena counters: checkouts served and pool misses, showing the
//!    staging buffers recycle instead of round-tripping the heap.
//!
//! Results land in `BENCH_funcwall.json` (repo root). `--check
//! <baseline.json>` gates CI on the machine-independent metrics: allocations
//! per cold launch (must not grow) and pool misses per checkout (the arena
//! must keep absorbing staging traffic).

// Wall-timing bin: reading the host clock is the whole point here, and is
// exactly what `clippy.toml` bans inside simulated-clock code.
#![allow(clippy::disallowed_methods)]

use gpu_sim::{Gpu, LaunchCache};
use sparse::{gen, BsrMatrix, EllMatrix, Matrix};
use sputnik::{SddmmConfig, SpmmConfig};
use sputnik_bench::gate::{BenchRecord, Gate};
use sputnik_bench::{grid_label, has_flag, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// Heap-allocation counter wrapped around the system allocator. Counts
/// every `alloc`/`realloc` call of the calling thread, which runs every
/// launch here; frees are not interesting.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.set(ALLOCS.get() + 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.get()
}

/// One deterministic problem: a sparse matrix plus the dense operands the
/// kernel grid needs. Shapes are multiples of 32 so every format baseline
/// (BSR block size, ASPT-style tiling) accepts them.
struct Problem {
    a: sparse::CsrMatrix<f32>,
    a_ell: EllMatrix<f32>,
    a_bsr: BsrMatrix<f32>,
    b: Matrix<f32>,
    b_col: Matrix<f32>,
    lhs: Matrix<f32>,
    rhs: Matrix<f32>,
}

fn build_problems() -> Vec<Problem> {
    let shapes: &[(usize, usize, usize, f64, u64)] = &[
        (512, 512, 64, 0.80, 11),
        (256, 1024, 128, 0.90, 12),
        (1024, 256, 64, 0.70, 13),
    ];
    shapes
        .iter()
        .map(|&(m, k, n, sparsity, seed)| {
            let a = gen::uniform(m, k, sparsity, seed);
            let a_ell = EllMatrix::from_csr(&a);
            let a_bsr = BsrMatrix::from_dense(&a.to_dense(), 32);
            let b = Matrix::<f32>::random(k, n, seed ^ 1);
            Problem {
                a_ell,
                a_bsr,
                b_col: b.to_layout(sparse::Layout::ColMajor),
                b,
                lhs: Matrix::<f32>::random(m, 32, seed ^ 2),
                rhs: Matrix::<f32>::random(k, 32, seed ^ 3),
                a,
            }
        })
        .collect()
}

/// One full functional sweep: every kernel in the grid launched cold,
/// producing real outputs. Returns (simulated scalar FLOPs, launches).
fn sweep(gpu: &Gpu, problems: &[Problem]) -> (u64, u64) {
    let mut flops = 0u64;
    let mut launches = 0u64;
    let mut add = |s: gpu_sim::LaunchStats| {
        flops += s.flops;
        launches += 1;
    };
    for p in problems {
        let n = p.b.cols();
        let cfg = SpmmConfig::heuristic::<f32>(n);
        add(sputnik::spmm(gpu, &p.a, &p.b, cfg).1);
        let sddmm_cfg = SddmmConfig::heuristic::<f32>(p.rhs.cols());
        add(sputnik::sddmm(gpu, &p.lhs, &p.rhs, &p.a, sddmm_cfg).1);
        add(sputnik::sparse_softmax(gpu, &p.a).1);
        add(baselines::cusparse_spmm(gpu, &p.a, &p.b_col).1);
        let merged = baselines::merge_spmm(gpu, &p.a, &p.b)
            .unwrap_or_else(|e| panic!("merge_spmm rejected a grid problem: {e}"));
        add(merged.1);
        add(baselines::nnz_split_spmm(gpu, &p.a, &p.b).1);
        add(baselines::ell_spmm(gpu, &p.a_ell, &p.b).1);
        add(baselines::block_spmm(gpu, &p.a_bsr, &p.b).1);
        add(baselines::gemm(gpu, &p.lhs, &p.rhs.transpose()).1);
        add(baselines::transpose(gpu, &p.b).1);
    }
    (flops, launches)
}

/// The warm replay pass: profiles served from a pre-filled launch cache,
/// which still executes every block functionally (`replay_functional`) but
/// skips cost recording. This is the path the zero-alloc test pins down.
fn replay_sweep(gpu: &Gpu, cache: &LaunchCache, problems: &[Problem]) -> u64 {
    let mut launches = 0u64;
    for p in problems {
        let n = p.b.cols();
        let cfg = SpmmConfig::heuristic::<f32>(n);
        sputnik::spmm_profile_cached::<f32>(gpu, cache, &p.a, p.a.cols(), n, cfg);
        let sddmm_cfg = SddmmConfig::heuristic::<f32>(p.rhs.cols());
        sputnik::sddmm_profile_cached::<f32>(gpu, cache, &p.a, p.rhs.cols(), sddmm_cfg);
        launches += 2;
    }
    launches
}

/// `--breakdown`: time each kernel family separately (diagnostic only;
/// not part of the JSON output or the CI gate).
fn breakdown(gpu: &Gpu, problems: &[Problem], reps: u32) {
    let time = |name: &str, f: &mut dyn FnMut(&Problem), prof: &mut dyn FnMut(&Problem)| {
        let t = Instant::now();
        for _ in 0..reps {
            for p in problems {
                f(p);
            }
        }
        let func_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        for _ in 0..reps {
            for p in problems {
                prof(p);
            }
        }
        let prof_ms = t.elapsed().as_secs_f64() * 1e3;
        println!("  {name:<22} functional {func_ms:8.1} ms   profile-only {prof_ms:8.1} ms");
    };
    time(
        "spmm",
        &mut |p| {
            let cfg = SpmmConfig::heuristic::<f32>(p.b.cols());
            sputnik::spmm(gpu, &p.a, &p.b, cfg);
        },
        &mut |p| {
            let n = p.b.cols();
            let cfg = SpmmConfig::heuristic::<f32>(n);
            sputnik::spmm_profile::<f32>(gpu, &p.a, p.a.cols(), n, cfg);
        },
    );
    time(
        "sddmm",
        &mut |p| {
            let cfg = SddmmConfig::heuristic::<f32>(p.rhs.cols());
            sputnik::sddmm(gpu, &p.lhs, &p.rhs, &p.a, cfg);
        },
        &mut |p| {
            let cfg = SddmmConfig::heuristic::<f32>(p.rhs.cols());
            sputnik::sddmm_profile::<f32>(gpu, &p.a, p.rhs.cols(), cfg);
        },
    );
    time(
        "softmax",
        &mut |p| {
            sputnik::sparse_softmax(gpu, &p.a);
        },
        &mut |p| {
            sputnik::sparse_softmax_profile::<f32>(gpu, &p.a);
        },
    );
    time(
        "cusparse",
        &mut |p| {
            baselines::cusparse_spmm(gpu, &p.a, &p.b_col);
        },
        &mut |p| {
            baselines::cusparse_spmm_profile::<f32>(gpu, &p.a, p.b.cols());
        },
    );
    time(
        "merge_spmm",
        &mut |p| {
            baselines::merge_spmm(gpu, &p.a, &p.b).unwrap_or_else(|e| panic!("merge: {e}"));
        },
        &mut |p| {
            baselines::merge_spmm_profile::<f32>(gpu, &p.a, p.b.cols())
                .unwrap_or_else(|e| panic!("merge: {e}"));
        },
    );
    time(
        "nnz_split",
        &mut |p| {
            baselines::nnz_split_spmm(gpu, &p.a, &p.b);
        },
        &mut |p| {
            baselines::nnz_split_spmm_profile::<f32>(gpu, &p.a, p.b.cols());
        },
    );
    time(
        "ell_spmm",
        &mut |p| {
            baselines::ell_spmm(gpu, &p.a_ell, &p.b);
        },
        &mut |p| {
            baselines::ell_spmm_profile(gpu, &p.a_ell, p.b.cols());
        },
    );
    time(
        "block_spmm",
        &mut |p| {
            baselines::block_spmm(gpu, &p.a_bsr, &p.b);
        },
        &mut |p| {
            baselines::block_spmm_profile(gpu, &p.a_bsr, p.b.cols());
        },
    );
    time(
        "gemm",
        &mut |p| {
            baselines::gemm(gpu, &p.lhs, &p.rhs.transpose());
        },
        &mut |p| {
            baselines::gemm_profile(gpu, p.lhs.rows(), p.lhs.cols(), p.rhs.rows());
        },
    );
    time(
        "transpose",
        &mut |p| {
            baselines::transpose(gpu, &p.b);
        },
        &mut |p| {
            baselines::transpose_profile(gpu, p.b.rows(), p.b.cols());
        },
    );
}

fn main() {
    let grid = grid_label();
    let reps: u32 = match grid {
        "full" => 8,
        "quick" => 2,
        _ => 4,
    };
    let problems = build_problems();
    let gpu = Gpu::v100();

    // Warm up once: this thread's scratch arenas, allocator high-water.
    sweep(&gpu, &problems);

    if has_flag("--breakdown") {
        println!("per-kernel breakdown ({reps} reps):");
        breakdown(&gpu, &problems, reps);
    }

    // Pass 1: cold functional launches.
    let a0 = allocs();
    let t = Instant::now();
    let mut flops = 0u64;
    let mut launches = 0u64;
    for _ in 0..reps {
        let (f, l) = sweep(&gpu, &problems);
        flops += f;
        launches += l;
    }
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let cold_allocs = allocs() - a0;
    let gflops = flops as f64 / 1e9 / (cold_ms / 1e3);
    let allocs_per_launch = cold_allocs as f64 / launches.max(1) as f64;

    // Pass 2: warm cache replay (functional re-execution, stats memoized).
    let cache = LaunchCache::new();
    replay_sweep(&gpu, &cache, &problems); // fill
    replay_sweep(&gpu, &cache, &problems); // settle arenas on every worker
    let a0 = allocs();
    let t = Instant::now();
    let mut replay_launches = 0u64;
    for _ in 0..reps {
        replay_launches += replay_sweep(&gpu, &cache, &problems);
    }
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    let replay_allocs = allocs() - a0;
    let replay_allocs_per_launch = replay_allocs as f64 / replay_launches.max(1) as f64;

    let checkouts = gpu_sim::arena::checkouts();
    let pool_misses = gpu_sim::arena::pool_misses();
    let miss_per_checkout = if checkouts == 0 {
        0.0
    } else {
        pool_misses as f64 / checkouts as f64
    };

    let mut t = Table::new(
        "funcwall — functional engine wall-clock (deterministic kernel grid)",
        &["pass", "wall ms", "launches", "allocs/launch", "GFLOP/s"],
    );
    t.row(&[
        "cold (functional launches)".into(),
        format!("{cold_ms:.1}"),
        format!("{launches}"),
        format!("{allocs_per_launch:.1}"),
        format!("{gflops:.2}"),
    ]);
    t.row(&[
        "replay (warm cache)".into(),
        format!("{replay_ms:.1}"),
        format!("{replay_launches}"),
        format!("{replay_allocs_per_launch:.3}"),
        "-".into(),
    ]);
    t.print();
    println!(
        "scratch arena: {checkouts} checkouts, {pool_misses} pool misses \
         ({miss_per_checkout:.6} misses/checkout)"
    );

    BenchRecord::new("funcwall")
        .text("grid", grid)
        .int("reps", u64::from(reps))
        .int("launches", launches)
        .float("cold_ms", cold_ms, 3)
        .float("functional_gflops", gflops, 3)
        .float("allocs_per_launch", allocs_per_launch, 3)
        .float("replay_ms", replay_ms, 3)
        .int("replay_launches", replay_launches)
        .float("replay_allocs_per_launch", replay_allocs_per_launch, 4)
        .int("arena_checkouts", checkouts)
        .int("arena_pool_misses", pool_misses)
        .float("arena_miss_per_checkout", miss_per_checkout, 6)
        // Cold-path allocations per launch: kernel construction and output
        // buffers are expected; a jump means staging buffers started
        // round-tripping the heap again. 25% headroom for allocator/runtime
        // noise.
        .gate("allocs_per_launch", Gate::AtMostBaseline(1.25, 0.0))
        // The warm replay path must not allocate more per launch than the
        // committed baseline; any headroom would let it creep.
        .gate("replay_allocs_per_launch", Gate::AtMostBaseline(1.0, 0.0))
        // The arena must keep serving checkouts from the pool.
        .gate(
            "arena_miss_per_checkout",
            Gate::AtMostBaseline(2.0, 0.000_05),
        )
        .finish();
}
