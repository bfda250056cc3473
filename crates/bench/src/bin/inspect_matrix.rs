//! Inspect a sparse matrix the way the paper's Section II does: statistics,
//! format suitability, and kernel configuration recommendations.
//!
//! ```bash
//! # From an SMTX or MatrixMarket (.mtx) file:
//! cargo run -p sputnik-bench --release --bin inspect_matrix -- path/to/matrix.smtx
//! cargo run -p sputnik-bench --release --bin inspect_matrix -- path/to/matrix.mtx
//! # Or a synthetic demo matrix:
//! cargo run -p sputnik-bench --release --bin inspect_matrix
//! ```

use gpu_sim::Gpu;
use sparse::{gen, io, mtx, stats, CsrMatrix};
use sputnik::{AutoTuner, SpmmConfig};
use std::fs::File;
use std::io::BufReader;

fn main() {
    let arg = std::env::args().nth(1);
    let (name, m): (String, CsrMatrix<f32>) = match arg {
        Some(path) if !path.starts_with("--") => {
            let file = File::open(&path).unwrap_or_else(|e| panic!("open {path}: {e}"));
            let reader = BufReader::new(file);
            let m = if path.ends_with(".mtx") {
                mtx::read_mtx(reader).unwrap_or_else(|e| panic!("parse {path}: {e}"))
            } else {
                io::read_smtx(reader).unwrap_or_else(|e| panic!("parse {path}: {e}"))
            };
            (path, m)
        }
        _ => (
            "demo (2048x2048 @ 85%, CoV 0.3)".into(),
            gen::with_cov(2048, 2048, 0.85, 0.3, 42),
        ),
    };

    println!("matrix: {name}");
    let s = stats::matrix_stats(&m);
    println!("  shape        : {} x {}", s.rows, s.cols);
    println!(
        "  nonzeros     : {} ({:.2}% dense)",
        s.nnz,
        (1.0 - s.sparsity) * 100.0
    );
    println!("  avg row len  : {:.1}", s.avg_row_length);
    println!("  max row len  : {}", m.max_row_len());
    println!("  row CoV      : {:.3}", s.row_cov);

    // Where does it sit relative to the paper's two corpora (Figure 2)?
    let domain = if s.sparsity > 0.985 || s.row_cov > 1.5 {
        "scientific-like (extreme sparsity / heavy tail): vendor kernels may suffice"
    } else {
        "deep-learning-like (moderate sparsity, balanced rows): Sputnik's target domain"
    };
    println!("  domain       : {domain}");

    // Format suitability.
    println!("\nformat analysis:");
    println!("  CSR bytes    : {}", m.bytes(sparse::IndexWidth::U32));
    let u16_ok = sparse::IndexWidth::U16.can_index(m.cols());
    println!(
        "  16-bit index : {}",
        if u16_ok {
            "supported (mixed precision saves index bandwidth)"
        } else {
            "needs 32-bit (too many columns)"
        }
    );

    // Kernel recommendations at a few batch sizes. Tuning decisions persist
    // across runs (results/autotune_cache.json) and the probe launches go
    // through a launch cache, the way production libraries keep autotuning
    // from re-paying its search cost.
    println!("\nSpMM configuration (heuristic vs tuned, simulated V100):");
    let gpu = Gpu::v100();
    let cache_path = std::path::Path::new("results").join("autotune_cache.json");
    let mut tuner = AutoTuner::load_from(&cache_path).unwrap_or_default();
    let launch_cache = gpu_sim::LaunchCache::new();
    println!(
        "  {:>6}  {:>22}  {:>10}  {:>22}  {:>10}  {:>6}",
        "N", "heuristic", "time", "tuned", "time", "gain"
    );
    for n in [8usize, 32, 128, 512] {
        let h = SpmmConfig::heuristic::<f32>(n);
        let th = sputnik::spmm_profile::<f32>(&gpu, &m, m.cols(), n, h).time_us;
        let tuned = tuner.tune(&gpu, Some(&launch_cache), &m, n);
        println!(
            "  {:>6}  {:>22}  {:>8.1}us  {:>22}  {:>8.1}us  {:>5.2}x",
            n,
            h.tag(),
            th,
            tuned.config.tag(),
            tuned.best_us,
            tuned.speedup_over_heuristic()
        );
    }
    match tuner.save_to(&cache_path) {
        Ok(()) => eprintln!(
            "[autotune cache saved to {} — launch cache: {} hits, {} misses]",
            cache_path.display(),
            launch_cache.hits(),
            launch_cache.misses()
        ),
        Err(e) => eprintln!("[autotune cache not saved: {e}]"),
    }

    // Load-balance outlook.
    let with =
        sputnik::spmm_profile::<f32>(&gpu, &m, m.cols(), 128, SpmmConfig::heuristic::<f32>(128));
    let without = sputnik::spmm_profile::<f32>(
        &gpu,
        &m,
        m.cols(),
        128,
        SpmmConfig {
            row_swizzle: false,
            ..SpmmConfig::heuristic::<f32>(128)
        },
    );
    println!(
        "\nrow swizzle at N=128: {:.1}% faster than the natural order (CoV {:.2})",
        100.0 * (without.time_us / with.time_us - 1.0),
        s.row_cov
    );
}
