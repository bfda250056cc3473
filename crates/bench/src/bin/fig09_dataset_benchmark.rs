//! Figure 9 + Table I: kernel benchmarks on the deep-learning matrix corpus.
//!
//! Runs Sputnik SpMM (FP32 and mixed precision) and SDDMM (FP32) against
//! cuSPARSE on corpus problems at both training and inference batch sizes,
//! reporting per-problem runtime/throughput series and the Table I summary
//! statistics.
//!
//! Paper anchors (Table I): geometric-mean speedups 3.58x (SpMM FP32),
//! 2.19x (SDDMM FP32), 5.97x (SpMM mixed); peak throughputs 4.29 / 4.11 /
//! 5.57 TFLOP/s; best-case 27.3% of FP32 peak; Sputnik wins on 99.75% /
//! 93.34% / 99.7% of problems.

use gpu_sim::{Gpu, LaunchCache};
use sparse::dataset;
use sparse::Half;
use sputnik::{SddmmConfig, SpmmConfig};
use sputnik_bench::{geo_mean, has_flag, Table};

struct ProblemResult {
    layer: String,
    m: usize,
    k: usize,
    n: usize,
    sparsity: f64,
    spmm_f32_us: f64,
    spmm_f32_cusparse_us: f64,
    spmm_f32_tflops: f64,
    sddmm_f32_us: f64,
    sddmm_f32_cusparse_us: f64,
    sddmm_f32_tflops: f64,
    spmm_f16_us: f64,
    spmm_f16_cusparse_us: f64,
    spmm_f16_tflops: f64,
}

fn percent_wins(ratios: &[f64]) -> f64 {
    100.0 * ratios.iter().filter(|&&r| r > 1.0).count() as f64 / ratios.len() as f64
}

fn main() {
    let gpu = Gpu::v100();
    let count = if has_flag("--full") {
        300
    } else if has_flag("--quick") {
        16
    } else {
        60
    };
    let specs = dataset::dl_corpus_sample(count, 9);

    // Corpus layers repeat shapes and replicas share topology fingerprints, so
    // the sweep consults a launch cache: repeated (kernel, matrix, device)
    // launches replay their profile instead of re-simulating.
    let cache = LaunchCache::new();
    let mut results: Vec<ProblemResult> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let a = spec.generate();
        let (inference, training) = spec.batch_sizes();
        for batch in [inference, training] {
            let n = spec.n(batch);
            // SpMM FP32.
            let (ours, _) = sputnik::spmm_profile_cached::<f32>(
                &gpu,
                &cache,
                &a,
                spec.cols,
                n,
                SpmmConfig::heuristic::<f32>(n),
            );
            let cusp = baselines::cusparse_spmm_profile::<f32>(&gpu, &a, n);
            // SDDMM FP32: the weight-gradient problem dY X^T ⊙ I[W] — mask is
            // the weight topology, dot length is the same N.
            let (sddmm_ours, _) = sputnik::sddmm_profile_cached::<f32>(
                &gpu,
                &cache,
                &a,
                n,
                SddmmConfig::heuristic::<f32>(n),
            );
            let sddmm_cusp = baselines::cusparse_sddmm_profile::<f32>(&gpu, &a, n);
            // SpMM mixed precision (half data, 16-bit indices).
            let a16 = a.convert::<Half>();
            let (ours16, _) = sputnik::spmm_profile_cached::<Half>(
                &gpu,
                &cache,
                &a16,
                spec.cols,
                n,
                SpmmConfig::heuristic::<Half>(n),
            );
            let cusp16 = baselines::cusparse_spmm_half_profile::<Half>(&gpu, &a16, n);

            results.push(ProblemResult {
                layer: format!("{}@r{}", spec.layer, spec.replica),
                m: spec.rows,
                k: spec.cols,
                n,
                sparsity: spec.sparsity,
                spmm_f32_us: ours.time_us,
                spmm_f32_cusparse_us: cusp.time_us,
                spmm_f32_tflops: ours.tflops,
                sddmm_f32_us: sddmm_ours.time_us,
                sddmm_f32_cusparse_us: sddmm_cusp.time_us,
                sddmm_f32_tflops: sddmm_ours.tflops,
                spmm_f16_us: ours16.time_us,
                spmm_f16_cusparse_us: cusp16.time_us,
                spmm_f16_tflops: ours16.tflops,
            });
        }
        if (i + 1) % 10 == 0 {
            eprintln!("[{}/{} problems]", i + 1, specs.len());
        }
    }

    // Per-problem series (Figure 9's scatter, condensed to a few rows here;
    // full data goes to JSON).
    let mut series = Table::new(
        "Figure 9 — sample of per-problem results (runtime us | ours vs cuSPARSE)",
        &[
            "problem",
            "MxKxN",
            "sparsity",
            "spmm f32",
            "sddmm f32",
            "spmm f16",
        ],
    );
    for r in results.iter().take(10) {
        series.row(&[
            r.layer.clone(),
            format!("{}x{}x{}", r.m, r.k, r.n),
            format!("{:.2}", r.sparsity),
            format!("{:.0}/{:.0}", r.spmm_f32_us, r.spmm_f32_cusparse_us),
            format!("{:.0}/{:.0}", r.sddmm_f32_us, r.sddmm_f32_cusparse_us),
            format!("{:.0}/{:.0}", r.spmm_f16_us, r.spmm_f16_cusparse_us),
        ]);
    }
    series.print();

    // Table I summary.
    let spmm_speedups: Vec<f64> = results
        .iter()
        .map(|r| r.spmm_f32_cusparse_us / r.spmm_f32_us)
        .collect();
    let sddmm_speedups: Vec<f64> = results
        .iter()
        .map(|r| r.sddmm_f32_cusparse_us / r.sddmm_f32_us)
        .collect();
    let f16_speedups: Vec<f64> = results
        .iter()
        .map(|r| r.spmm_f16_cusparse_us / r.spmm_f16_us)
        .collect();
    let max = |xs: &[f64]| xs.iter().cloned().fold(0.0f64, f64::max);

    let peak_spmm = max(&results
        .iter()
        .map(|r| r.spmm_f32_tflops)
        .collect::<Vec<_>>());
    let peak_sddmm = max(&results
        .iter()
        .map(|r| r.sddmm_f32_tflops)
        .collect::<Vec<_>>());
    let peak_f16 = max(&results
        .iter()
        .map(|r| r.spmm_f16_tflops)
        .collect::<Vec<_>>());

    let mut t1 = Table::new(
        "Table I — sparse matrix dataset benchmark results (vs cuSPARSE)",
        &["metric", "SpMM f32", "SDDMM f32", "SpMM mixed", "paper"],
    );
    t1.row(&[
        "geo. mean speedup".into(),
        format!("{:.2}x", geo_mean(&spmm_speedups)),
        format!("{:.2}x", geo_mean(&sddmm_speedups)),
        format!("{:.2}x", geo_mean(&f16_speedups)),
        "3.58x / 2.19x / 5.97x".into(),
    ]);
    t1.row(&[
        "peak speedup".into(),
        format!("{:.1}x", max(&spmm_speedups)),
        format!("{:.1}x", max(&sddmm_speedups)),
        format!("{:.1}x", max(&f16_speedups)),
        "14.2x / 6.58x / 297.5x".into(),
    ]);
    t1.row(&[
        "peak throughput".into(),
        format!("{peak_spmm:.2} TFLOP/s"),
        format!("{peak_sddmm:.2} TFLOP/s"),
        format!("{peak_f16:.2} TFLOP/s"),
        "4.29 / 4.11 / 5.57".into(),
    ]);
    t1.row(&[
        "% problems won".into(),
        format!("{:.1}%", percent_wins(&spmm_speedups)),
        format!("{:.1}%", percent_wins(&sddmm_speedups)),
        format!("{:.1}%", percent_wins(&f16_speedups)),
        "99.75% / 93.34% / 99.7%".into(),
    ]);
    t1.row(&[
        "best % of fp32 peak".into(),
        format!(
            "{:.1}%",
            100.0 * peak_spmm / gpu.device().fp32_peak_tflops()
        ),
        format!(
            "{:.1}%",
            100.0 * peak_sddmm / gpu.device().fp32_peak_tflops()
        ),
        "-".into(),
        "27.3% / 26.2% / -".into(),
    ]);
    t1.print();

    eprintln!(
        "[launch cache: {} hits, {} misses over {} Sputnik launches]",
        cache.hits(),
        cache.misses(),
        3 * results.len()
    );
}
