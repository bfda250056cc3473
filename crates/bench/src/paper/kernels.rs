//! The kernel experiments: Figures 1, 2, 7, 9 (+ Table I), 10 and 11, and
//! the Table II ablations.

use super::{matched, matched_count, vs_paper, within};
use crate::gate::{BenchRecord, Gate};
use crate::{geo_mean, grid_label, Table};
use dnn::rnn;
use gpu_sim::{Gpu, LaunchCache};
use sparse::dataset::{self, ModelFamily};
use sparse::stats::{matrix_stats, mean};
use sparse::{gen, Half, IndexWidth};
use sputnik::{SddmmConfig, SpmmConfig};

/// Figure 1: SpMM runtime vs sparsity for the weight-sparse LSTM problem
/// (input 8192, hidden 2048, batch 128, FP32, V100), showing the sparsity
/// level at which Sputnik's sparse computation overtakes dense cuBLAS and
/// the (far higher) level cuSPARSE needs.
///
/// Paper anchors: Sputnik beats dense at ~71% sparsity; cuSPARSE requires
/// ~14x fewer nonzeros for the same performance. Gates: the Sputnik
/// crossover falls in 0.65–0.75.
pub fn fig01_lstm_crossover(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let (m, k, n) = (8192usize, 2048usize, 128usize);

    let dense_us = baselines::gemm_profile(&gpu, m, k, n).time_us;

    let sparsities: Vec<f64> = if grid_label() == "quick" {
        vec![0.5, 0.7, 0.8, 0.9, 0.95, 0.98]
    } else {
        vec![
            0.5, 0.6, 0.65, 0.7, 0.71, 0.75, 0.8, 0.85, 0.9, 0.95, 0.98, 0.99,
        ]
    };

    let mut table = Table::new(
        "Figure 1 — SpMM runtime vs sparsity (LSTM 8192/2048/128, FP32, V100)",
        &[
            "sparsity",
            "sputnik_us",
            "cusparse_us",
            "dense_us",
            "sputnik_vs_dense",
        ],
    );
    let mut sputnik_crossover: Option<f64> = None;
    let mut cusparse_crossover: Option<f64> = None;

    for &s in &sparsities {
        let a = gen::uniform(m, k, s, 0xf16_001 + (s * 1000.0) as u64);
        let cfg = sputnik::SpmmConfig::heuristic::<f32>(n);
        let ours = sputnik::spmm_profile::<f32>(&gpu, &a, k, n, cfg).time_us;
        let cusp = baselines::cusparse_spmm_profile::<f32>(&gpu, &a, n).time_us;
        if ours < dense_us && sputnik_crossover.is_none() {
            sputnik_crossover = Some(s);
        }
        if cusp < dense_us && cusparse_crossover.is_none() {
            cusparse_crossover = Some(s);
        }
        table.row(&[
            format!("{:.2}", s),
            format!("{:.1}", ours),
            format!("{:.1}", cusp),
            format!("{:.1}", dense_us),
            format!("{:.2}x", dense_us / ours),
        ]);
    }

    table.print();
    println!(
        "Sputnik overtakes dense at sparsity {} (paper: ~0.71)",
        sputnik_crossover.map_or("never".into(), |s| format!("{s:.2}"))
    );
    println!(
        "cuSPARSE overtakes dense at sparsity {} (paper: needs ~14x fewer nonzeros)",
        cusparse_crossover.map_or(">0.99 (never in range)".into(), |s| format!("{s:.2}"))
    );

    // A kernel that never overtakes dense records a crossover of 1.0.
    matched(rec, "fig01.dense_us", dense_us, 1);
    let sputnik_at = sputnik_crossover.unwrap_or(1.0);
    vs_paper(rec, "fig01.sputnik_crossover", sputnik_at, 2, 0.71);
    within(rec, "fig01.sputnik_crossover", 0.65, 0.75);
    let cusparse_at = cusparse_crossover.unwrap_or(1.0);
    matched(rec, "fig01.cusparse_crossover", cusparse_at, 2);
    if cusparse_at < 1.0 {
        let nnz_ratio = (1.0 - sputnik_at) / (1.0 - cusparse_at);
        vs_paper(rec, "fig01.cusparse_nnz_ratio", nnz_ratio, 2, 14.0);
    } else {
        // Unrecorded: the gate fails, naming the key.
        rec.gate("fig01.cusparse_nnz_ratio", Gate::MatchBaseline);
    }
}

struct CorpusSummary {
    corpus: String,
    matrices: usize,
    mean_sparsity: f64,
    mean_nonzero_fraction: f64,
    mean_avg_row_length: f64,
    mean_row_cov: f64,
}

fn summarize(name: &str, stats: &[sparse::MatrixStats]) -> CorpusSummary {
    CorpusSummary {
        corpus: name.to_string(),
        matrices: stats.len(),
        mean_sparsity: mean(&stats.iter().map(|s| s.sparsity).collect::<Vec<_>>()),
        mean_nonzero_fraction: mean(&stats.iter().map(|s| 1.0 - s.sparsity).collect::<Vec<_>>()),
        mean_avg_row_length: mean(&stats.iter().map(|s| s.avg_row_length).collect::<Vec<_>>()),
        mean_row_cov: mean(&stats.iter().map(|s| s.row_cov).collect::<Vec<_>>()),
    }
}

/// Figure 2: properties of sparse matrices from deep learning vs scientific
/// computing — sparsity, average row length, and row-length coefficient of
/// variation, summarized over both corpora.
///
/// Paper anchors: "deep learning matrices are 13.4x less sparse, have 2.3x
/// longer rows, and have 25x less variation in row length within a matrix."
/// Gates: each of the three ratios stays above 1.
pub fn fig02_matrix_stats(rec: &mut BenchRecord) {
    // Full corpora are 3,012 + 2,833 matrices; the default run samples both
    // (statistics converge quickly), --full generates everything.
    let (dl_count, sci_count) = match grid_label() {
        "full" => (3012, 2833),
        "quick" => (50, 40),
        _ => (150, 120),
    };

    let dl_specs = dataset::dl_corpus_sample(dl_count, 2);
    let dl_stats: Vec<_> = dl_specs
        .iter()
        .map(|s| matrix_stats(&s.generate()))
        .collect();

    let sci_specs = dataset::scientific_corpus(sci_count, 3);
    let sci_stats: Vec<_> = sci_specs
        .iter()
        .map(|s| matrix_stats(&s.generate()))
        .collect();

    let dl = summarize("deep-learning", &dl_stats);
    let sci = summarize("scientific (SuiteSparse-like)", &sci_stats);

    let mut table = Table::new(
        "Figure 2 — corpus statistics",
        &[
            "corpus",
            "matrices",
            "mean sparsity",
            "mean avg row len",
            "mean row CoV",
        ],
    );
    for c in [&dl, &sci] {
        table.row(&[
            c.corpus.clone(),
            c.matrices.to_string(),
            format!("{:.4}", c.mean_sparsity),
            format!("{:.1}", c.mean_avg_row_length),
            format!("{:.2}", c.mean_row_cov),
        ]);
    }
    table.print();

    // The paper's three headline ratios.
    let sparsity_ratio = dl.mean_nonzero_fraction / sci.mean_nonzero_fraction;
    let row_len_ratio = dl.mean_avg_row_length / sci.mean_avg_row_length;
    let cov_ratio = sci.mean_row_cov / dl.mean_row_cov;
    println!("DL matrices are {sparsity_ratio:.1}x less sparse (paper: 13.4x)");
    println!("DL matrices have {row_len_ratio:.1}x longer rows (paper: 2.3x)");
    println!("DL matrices have {cov_ratio:.1}x less row-length variation (paper: 25x)");

    for (key, ratio, paper) in [
        ("fig02.less_sparse", sparsity_ratio, 13.4),
        ("fig02.longer_rows", row_len_ratio, 2.3),
        ("fig02.less_row_cov", cov_ratio, 25.0),
    ] {
        vs_paper(rec, key, ratio, 3, paper);
        rec.gate(key, Gate::AtLeast(1.0));
    }
}

/// Figure 7: SpMM throughput with varying levels of load imbalance
/// (M=8192, K=2048, N=128, 75% sparse, FP32, V100), with and without row
/// swizzle load balancing, as a percentage of the throughput achieved on a
/// perfectly balanced matrix.
///
/// Paper anchors: at the right edge of the CoV sweep, the standard row
/// ordering degrades to 47.5% of balanced throughput while row swizzling
/// retains 96.5%; the average CoV of DNN matrices (~0.3) is marked. Gates:
/// the swizzle keeps at least 95% at the maximum CoV.
pub fn fig07_load_balance(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let (m, k, n) = (8192usize, 2048usize, 128usize);
    let sparsity = 0.75;

    // The balanced reference: every row has exactly the same nonzero count.
    let nnz_per_row = (k as f64 * (1.0 - sparsity)) as usize;
    let balanced = gen::balanced(m, k, nnz_per_row, 0x7fb);
    let cfg = SpmmConfig::heuristic::<f32>(n);
    let base = sputnik::spmm_profile::<f32>(&gpu, &balanced, k, n, cfg);
    // Normalize per useful FLOP so that small nnz drift in the generator
    // does not masquerade as a throughput change.
    let base_eff = base.flops as f64 / base.time_us;

    let covs: Vec<f64> = if grid_label() == "quick" {
        vec![0.0, 0.3, 0.8, 1.5]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7]
    };

    let mut table = Table::new(
        "Figure 7 — throughput vs row-length CoV (8192/2048/128, 75% sparse)",
        &[
            "target CoV",
            "achieved CoV",
            "row swizzle",
            "standard order",
        ],
    );
    // (achieved CoV, swizzle %, standard %) at the last point.
    let mut last = (0.0, 0.0, 0.0);
    for &cov in &covs {
        let a = gen::with_cov(m, k, sparsity, cov, 0x7fb1 + (cov * 100.0) as u64);
        let achieved = matrix_stats(&a).row_cov;
        let with = sputnik::spmm_profile::<f32>(&gpu, &a, k, n, cfg);
        let without = sputnik::spmm_profile::<f32>(
            &gpu,
            &a,
            k,
            n,
            SpmmConfig {
                row_swizzle: false,
                ..cfg
            },
        );
        let swizzle_pct = 100.0 * (with.flops as f64 / with.time_us) / base_eff;
        let standard_pct = 100.0 * (without.flops as f64 / without.time_us) / base_eff;
        table.row(&[
            format!("{cov:.1}"),
            format!("{achieved:.2}"),
            format!("{swizzle_pct:.1}%"),
            format!("{standard_pct:.1}%"),
        ]);
        last = (achieved, swizzle_pct, standard_pct);
    }
    table.print();
    println!("(100% = throughput on a perfectly balanced matrix; DNN average CoV ~0.3)");
    let (max_cov, swizzle_pct, standard_pct) = last;
    println!(
        "At the highest imbalance: swizzle retains {swizzle_pct:.1}% (paper: 96.5%), standard {standard_pct:.1}% (paper: 47.5%)"
    );

    matched(rec, "fig07.max_cov", max_cov, 3);
    vs_paper(rec, "fig07.swizzle_pct_at_max_cov", swizzle_pct, 2, 96.5);
    rec.gate("fig07.swizzle_pct_at_max_cov", Gate::AtLeast(95.0));
    vs_paper(rec, "fig07.standard_pct_at_max_cov", standard_pct, 2, 47.5);
}

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

/// Figure 9 + Table I: kernel benchmarks on the deep-learning matrix
/// corpus.
///
/// Runs Sputnik SpMM (FP32 and mixed precision) and SDDMM (FP32) against
/// cuSPARSE on corpus problems at both training and inference batch sizes,
/// reporting per-problem runtime/throughput series and the Table I summary
/// statistics.
///
/// Paper anchors (Table I): geometric-mean speedups 3.58x (SpMM FP32),
/// 2.19x (SDDMM FP32), 5.97x (SpMM mixed); peak throughputs 4.29 / 4.11 /
/// 5.57 TFLOP/s; best-case 27.3% of FP32 peak; Sputnik wins on 99.75% /
/// 93.34% / 99.7% of problems. Gates: Sputnik beats cuSPARSE on all three
/// geo-means.
pub fn fig09_dataset_benchmark(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let count = match grid_label() {
        "full" => 300,
        "quick" => 16,
        _ => 60,
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

    // Per-problem series (Figure 9's scatter, condensed to a few rows).
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
    let fp32_peak = gpu.device().fp32_peak_tflops();

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
        format!("{:.1}%", 100.0 * peak_spmm / fp32_peak),
        format!("{:.1}%", 100.0 * peak_sddmm / fp32_peak),
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

    // (kernel, speedups, peak TFLOP/s, paper geo-mean / peak speedup / peak
    // TFLOP/s / % won).
    let kernels = [
        (
            "spmm_f32",
            &spmm_speedups,
            peak_spmm,
            [3.58, 14.2, 4.29, 99.75],
        ),
        (
            "sddmm_f32",
            &sddmm_speedups,
            peak_sddmm,
            [2.19, 6.58, 4.11, 93.34],
        ),
        (
            "spmm_mixed",
            &f16_speedups,
            peak_f16,
            [5.97, 297.5, 5.57, 99.7],
        ),
    ];
    for (kernel, speedups, peak, paper) in kernels {
        let key = |field: &str| format!("table1.{kernel}.{field}");
        vs_paper(rec, &key("geomean"), geo_mean(speedups), 3, paper[0]);
        rec.gate(key("geomean"), Gate::AtLeast(1.0));
        vs_paper(rec, &key("peak_speedup"), max(speedups), 2, paper[1]);
        vs_paper(rec, &key("peak_tflops"), peak, 3, paper[2]);
        vs_paper(rec, &key("pct_won"), percent_wins(speedups), 2, paper[3]);
    }
    vs_paper(
        rec,
        "table1.spmm_f32.pct_of_fp32_peak",
        100.0 * peak_spmm / fp32_peak,
        2,
        27.3,
    );
    vs_paper(
        rec,
        "table1.sddmm_f32.pct_of_fp32_peak",
        100.0 * peak_sddmm / fp32_peak,
        2,
        26.2,
    );
}

struct RnnResult {
    label: String,
    // SpMM times (us)
    sputnik_us: f64,
    merge_us: f64,
    aspt_us: f64,
    cusparse_us: f64,
    scalar_us: f64,
    // SDDMM times (us)
    sddmm_sputnik_us: f64,
    sddmm_aspt_us: f64,
    sddmm_cusparse_us: f64,
    aspt_memory_bytes: u64,
    sputnik_memory_bytes: u64,
}

/// Figure 10: benchmarks on sparse recurrent neural network problems,
/// comparing Sputnik against MergeSpmm, ASpT, and cuSPARSE (SpMM) and
/// against ASpT and cuSPARSE (SDDMM).
///
/// Paper anchors (SpMM): geo-mean speedups 1.56x over ASpT, 1.59x over
/// MergeSpmm, 3.47x over cuSPARSE. (SDDMM): 2.69x over cuSPARSE, ~92% of
/// ASpT's throughput (while using 3x less memory and no reordering).
/// Also Section VII-B's note: the vector kernels average 2.45x over the
/// scalar variants on this suite. Gates: ASpT's memory is 2.5–3.5x
/// Sputnik's.
pub fn fig10_rnn_comparison(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let hidden: &[usize] = match grid_label() {
        "quick" => &[1024, 2048],
        "full" => &rnn::PAPER_HIDDEN_SIZES,
        _ => &[1024, 2048, 4096],
    };
    let problems = rnn::problem_suite(hidden);

    let mut results = Vec::new();
    for (i, p) in problems.iter().enumerate() {
        let a = p.weights(0xf10 + i as u64);
        let (m, k, n) = (p.m(), p.k(), p.n());
        let cfg = SpmmConfig::heuristic::<f32>(n);

        let sputnik_us = sputnik::spmm_profile::<f32>(&gpu, &a, k, n, cfg).time_us;
        let merge_us = baselines::merge_spmm_profile::<f32>(&gpu, &a, n)
            .unwrap_or_else(|e| panic!("RNN batches are divisible by 32: {e}"))
            .time_us;
        let aspt_us = baselines::aspt_spmm_profile::<f32>(&gpu, &a, n)
            .unwrap_or_else(|e| panic!("RNN shapes satisfy ASpT's constraints: {e}"))
            .time_us;
        let cusparse_us = baselines::cusparse_spmm_profile::<f32>(&gpu, &a, n).time_us;
        let scalar_us = sputnik::spmm_profile::<f32>(
            &gpu,
            &a,
            k,
            n,
            SpmmConfig {
                vector_width: 1,
                roma: false,
                block_items_x: 32,
                ..cfg
            },
        )
        .time_us;

        // SDDMM: the weight-gradient problem (mask = weight topology, dot
        // length = batch).
        let sddmm_sputnik_us =
            sputnik::sddmm_profile::<f32>(&gpu, &a, n, SddmmConfig::heuristic::<f32>(n)).time_us;
        let sddmm_aspt_us = baselines::aspt_sddmm_profile::<f32>(&gpu, &a, n)
            .unwrap_or_else(|e| panic!("RNN shapes satisfy ASpT's constraints: {e}"))
            .time_us;
        let sddmm_cusparse_us = baselines::cusparse_sddmm_profile::<f32>(&gpu, &a, n).time_us;

        let plan = baselines::AsptPlan::build(&a, baselines::AsptDirection::Spmm);
        results.push(RnnResult {
            label: p.label(),
            sputnik_us,
            merge_us,
            aspt_us,
            cusparse_us,
            scalar_us,
            sddmm_sputnik_us,
            sddmm_aspt_us,
            sddmm_cusparse_us,
            aspt_memory_bytes: plan.memory_bytes(),
            sputnik_memory_bytes: a.bytes(IndexWidth::U32) + (m as u64) * 4,
        });
        if (i + 1) % 12 == 0 {
            eprintln!("[{}/{} problems]", i + 1, problems.len());
        }
    }

    let mut spmm_table = Table::new(
        "Figure 10 (top) — SpMM on RNN problems (us)",
        &["problem", "sputnik", "merge", "aspt", "cusparse"],
    );
    for r in results.iter().take(12) {
        spmm_table.row(&[
            r.label.clone(),
            format!("{:.0}", r.sputnik_us),
            format!("{:.0}", r.merge_us),
            format!("{:.0}", r.aspt_us),
            format!("{:.0}", r.cusparse_us),
        ]);
    }
    spmm_table.print();

    let mut sddmm_table = Table::new(
        "Figure 10 (bottom) — SDDMM on RNN problems (us)",
        &["problem", "sputnik", "aspt", "cusparse"],
    );
    for r in results.iter().take(12) {
        sddmm_table.row(&[
            r.label.clone(),
            format!("{:.0}", r.sddmm_sputnik_us),
            format!("{:.0}", r.sddmm_aspt_us),
            format!("{:.0}", r.sddmm_cusparse_us),
        ]);
    }
    sddmm_table.print();

    let gm = |f: fn(&RnnResult) -> f64| geo_mean(&results.iter().map(f).collect::<Vec<_>>());
    // (comparison, record key, geo-mean, paper).
    let comparisons = [
        (
            "SpMM vs MergeSpmm",
            "spmm_vs_merge",
            gm(|r| r.merge_us / r.sputnik_us),
            1.59,
        ),
        (
            "SpMM vs ASpT",
            "spmm_vs_aspt",
            gm(|r| r.aspt_us / r.sputnik_us),
            1.56,
        ),
        (
            "SpMM vs cuSPARSE",
            "spmm_vs_cusparse",
            gm(|r| r.cusparse_us / r.sputnik_us),
            3.47,
        ),
        (
            "SpMM vector vs scalar",
            "vector_vs_scalar",
            gm(|r| r.scalar_us / r.sputnik_us),
            2.45,
        ),
        (
            "SDDMM vs cuSPARSE",
            "sddmm_vs_cusparse",
            gm(|r| r.sddmm_cusparse_us / r.sddmm_sputnik_us),
            2.69,
        ),
        (
            "SDDMM throughput vs ASpT",
            "sddmm_throughput_vs_aspt",
            gm(|r| r.sddmm_aspt_us / r.sddmm_sputnik_us),
            0.92,
        ),
        (
            "ASpT memory vs Sputnik",
            "aspt_memory_ratio",
            gm(|r| r.aspt_memory_bytes as f64 / r.sputnik_memory_bytes as f64),
            3.0,
        ),
    ];
    let mut summary = Table::new(
        "Figure 10 — geometric-mean summary",
        &["comparison", "measured", "paper"],
    );
    for (name, key, measured, paper) in comparisons {
        let (measured_cell, paper_cell) = match key {
            "sddmm_throughput_vs_aspt" => (
                format!("{:.0}%", 100.0 * measured),
                format!("{:.0}%", 100.0 * paper),
            ),
            "aspt_memory_ratio" => (format!("{measured:.1}x"), format!("{paper}x")),
            _ => (format!("{measured:.2}x"), format!("{paper:.2}x")),
        };
        summary.row(&[name.into(), measured_cell, paper_cell]);
        vs_paper(rec, &format!("fig10.{key}"), measured, 3, paper);
    }
    summary.print();
    within(rec, "fig10.aspt_memory_ratio", 2.5, 3.5);
}

#[derive(Default, Clone)]
struct Cell {
    /// Ablated-time / full-time ratios (per problem); a mean > 1 would mean
    /// the ablation *helped*.
    ratios: Vec<f64>,
}

impl Cell {
    /// "Performance measured as a percent of the performance of our complete
    /// kernels": full_time / ablated_time.
    fn percent(&self) -> f64 {
        100.0 / geo_mean(&self.ratios)
    }
}

/// Table II: ablation study for the SpMM and SDDMM kernels.
///
/// Each proposed optimization is disabled in turn and performance is
/// reported as a percentage of the complete kernel's, averaged over corpus
/// problems split by model family and batch size — the same cells the paper
/// reports.
///
/// Paper anchors (SpMM): -LoadBalancing 78.5-96.1%, -VectorInst 64.8-100.1%,
/// -ResidueUnroll 87.8-94.1%, -IndexPreScale 98.2-100.6%. (SDDMM):
/// -LoadBalancing 96.8-101.1%, -VectorInst 98.3-170.6% (scalar *wins* on
/// occupancy-bound small problems).
pub fn table02_ablation(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let grid = grid_label();
    let count = if grid == "quick" { 20 } else { 80 };
    let specs = dataset::dl_corpus_sample(count, 17);

    // (label, record key, paper cells) per ablation.
    let spmm_ablations = [
        (
            "-Load Balancing",
            "no_load_balancing",
            [96.1, 88.9, 91.7, 78.5],
        ),
        ("-Vector Inst.", "no_vector", [100.1, 80.9, 87.9, 64.8]),
        (
            "-Residue Unroll",
            "no_residue_unroll",
            [92.0, 94.1, 87.8, 92.6],
        ),
        (
            "-Index Pre-Scale",
            "no_index_prescale",
            [100.6, 100.6, 98.2, 100.3],
        ),
    ];
    let sddmm_ablations = [
        (
            "-Load Balancing",
            "no_load_balancing",
            [101.1, 97.1, 100.9, 96.8],
        ),
        ("-Vector Inst.", "no_vector", [98.3, 132.0, 120.2, 170.6]),
    ];
    // Cells indexed by (family, batch-kind) -> ablation -> ratios.
    let col_keys = [
        (ModelFamily::Transformer, false, "transformer_bs1"),
        (ModelFamily::Transformer, true, "transformer_bs8"),
        (ModelFamily::ResNet50, false, "resnet50_bs1"),
        (ModelFamily::ResNet50, true, "resnet50_bs32"),
    ];
    let mut spmm_cells = vec![vec![Cell::default(); col_keys.len()]; spmm_ablations.len()];
    let mut sddmm_cells = vec![vec![Cell::default(); col_keys.len()]; sddmm_ablations.len()];

    for spec in &specs {
        let a = spec.generate();
        let (inference, training) = spec.batch_sizes();
        for (batch, is_training) in [(inference, false), (training, true)] {
            let col = col_keys
                .iter()
                .position(|&(fam, tr, _)| fam == spec.model && tr == is_training)
                .unwrap_or_else(|| panic!("no column for {:?}/training={is_training}", spec.model));
            let n = spec.n(batch);
            let full_cfg = SpmmConfig::heuristic::<f32>(n);
            let full = sputnik::spmm_profile::<f32>(&gpu, &a, spec.cols, n, full_cfg).time_us;

            let variants = [
                SpmmConfig {
                    row_swizzle: false,
                    ..full_cfg
                },
                // Scalar kernel: no vector loads, which also removes ROMA and
                // narrows the tile so a subwarp still fits a warp.
                SpmmConfig {
                    vector_width: 1,
                    roma: false,
                    block_items_x: full_cfg.block_items_x.min(32),
                    ..full_cfg
                },
                SpmmConfig {
                    residue_unroll: false,
                    ..full_cfg
                },
                SpmmConfig {
                    index_prescale: false,
                    ..full_cfg
                },
            ];
            for (i, cfg) in variants.iter().enumerate() {
                let t = sputnik::spmm_profile::<f32>(&gpu, &a, spec.cols, n, *cfg).time_us;
                spmm_cells[i][col].ratios.push(t / full);
            }

            let mut sddmm_full_cfg = SddmmConfig::heuristic::<f32>(n);
            sddmm_full_cfg.row_swizzle = true;
            let sddmm_full = sputnik::sddmm_profile::<f32>(&gpu, &a, n, sddmm_full_cfg).time_us;
            // "-Load Balancing" disables the swizzle relative to a swizzled
            // complete kernel; "-Vector Inst." is the scalar kernel, which
            // processes fewer outputs per thread (narrower tiles), giving it
            // *better* occupancy on the small weight matrices of these
            // models — the effect the paper highlights.
            let sddmm_variants = [
                SddmmConfig {
                    row_swizzle: false,
                    ..sddmm_full_cfg
                },
                SddmmConfig {
                    vector_width: 1,
                    block_items_x: 16,
                    ..sddmm_full_cfg
                },
            ];
            for (i, cfg) in sddmm_variants.iter().enumerate() {
                let t = sputnik::sddmm_profile::<f32>(&gpu, &a, n, *cfg).time_us;
                sddmm_cells[i][col].ratios.push(t / sddmm_full);
            }
        }
    }

    let headers = [
        "ablation",
        "Transformer bs=1",
        "Transformer bs=8",
        "ResNet-50 bs=1",
        "ResNet-50 bs=32",
    ];
    for (kernel, ablations, cells, paper_line) in [
        (
            "SpMM",
            &spmm_ablations[..],
            &spmm_cells,
            "paper: -LB 96.1/88.9/91.7/78.5  -Vec 100.1/80.9/87.9/64.8  -Res 92.0/94.1/87.8/92.6  -Pre 100.6/100.6/98.2/100.3\n",
        ),
        (
            "SDDMM",
            &sddmm_ablations[..],
            &sddmm_cells,
            "paper: -LB 101.1/97.1/100.9/96.8  -Vec 98.3/132.0/120.2/170.6\n",
        ),
    ] {
        let mut table = Table::new(
            &format!("Table II ({kernel}) — % of complete kernel's performance"),
            &headers,
        );
        for ((name, slug, paper), row_cells) in ablations.iter().zip(cells) {
            let mut row = vec![name.to_string()];
            for ((cell, paper), (_, _, col)) in row_cells.iter().zip(paper).zip(&col_keys) {
                row.push(format!("{:.1}%", cell.percent()));
                let key = format!("table2.{}.{slug}.{col}", kernel.to_lowercase());
                vs_paper(rec, &key, cell.percent(), 2, *paper);
            }
            table.row(&row);
        }
        table.print();
        println!("{paper_line}");
    }

    // The paper's scalar SDDMM beats the vector kernel on three of four
    // cells (performance above 100% of the complete kernel).
    let scalar_wins = sddmm_cells[1]
        .iter()
        .filter(|c| c.percent() > 100.0)
        .count();
    matched_count(rec, "table2.sddmm.scalar_wins", scalar_wins);
    rec.int("table2.sddmm.scalar_wins.paper", 3);
}

/// Figure 11: the sparse Transformer's attention connectivity — a dense
/// band along the diagonal plus random off-diagonal connections sampled with
/// probability inversely proportional to distance from the diagonal, under a
/// causal (lower-triangular) constraint. Rendered as a coarse ASCII density
/// map plus the mask's summary statistics.
pub fn fig11_attention_mask(rec: &mut BenchRecord) {
    let (seq, band) = match grid_label() {
        "full" => (12288, 256),
        "quick" => (1024, 32),
        _ => (2048, 64),
    };
    let off = 0.95;
    let mask = gen::attention_mask(seq, band, off, 0x5eed);

    // Coarse density map: 48x48 cells.
    let cells = 48usize;
    let cell = seq.div_ceil(cells);
    let mut density = vec![vec![0u32; cells]; cells];
    for (r, c, _) in mask.iter() {
        density[r / cell][c / cell] += 1;
    }
    println!(
        "== Figure 11 — sparse attention connectivity ({seq} tokens, band {band}, {:.0}% off-diagonal sparsity) ==",
        off * 100.0
    );
    let shades = [' ', '.', ':', '+', '#', '@'];
    for row in &density {
        let line: String = row
            .iter()
            .map(|&d| {
                let frac = d as f64 / (cell * cell) as f64;
                let idx = if frac == 0.0 {
                    0
                } else {
                    (1.0 + (frac * 40.0).min(4.0)) as usize
                };
                shades[idx.min(5)]
            })
            .collect();
        println!("|{line}|");
    }

    let stats = sparse::matrix_stats(&mask);
    let mut t = Table::new("mask statistics", &["metric", "value"]);
    t.row(&["tokens".into(), seq.to_string()]);
    t.row(&["nonzeros".into(), mask.nnz().to_string()]);
    t.row(&["overall sparsity".into(), format!("{:.4}", stats.sparsity)]);
    t.row(&[
        "avg row length".into(),
        format!("{:.1}", stats.avg_row_length),
    ]);
    t.row(&["max row length".into(), mask.max_row_len().to_string()]);
    t.print();

    matched_count(rec, "fig11.nnz", mask.nnz());
    matched(rec, "fig11.sparsity", stats.sparsity, 4);
    matched_count(rec, "fig11.max_row_len", mask.max_row_len());
}
