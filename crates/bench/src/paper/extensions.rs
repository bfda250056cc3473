//! Extension studies: each quantifies a claim the paper's text makes but no
//! table or figure measures. The paper gives no number for them, so their
//! fields carry no `.paper` companion.

use super::{matched, matched_count, within};
use crate::gate::{BenchRecord, Gate};
use crate::{geo_mean, grid_label, Table};
use gpu_sim::Gpu;
use sparse::{block, dataset, gen, stats, IndexWidth, Matrix};
use sputnik::{AutoTuner, CachedTranspose, SddmmConfig, SpmmConfig};

/// Structured (block) vs unstructured sparsity.
///
/// The paper's introduction motivates unstructured kernels: enforcing block
/// structure "is able to recover much of the performance achieved by dense
/// computation, \[but\] the constraint on the location of nonzeros can
/// significantly degrade model quality". This study quantifies both sides on
/// the simulator: kernel throughput (block-sparse SpMM in the style of the
/// OpenAI kernels vs Sputnik vs dense) and a training-free quality proxy
/// (the fraction of weight magnitude a block-pruned matrix retains relative
/// to unstructured pruning at the same parameter budget). Gates: at 90%
/// sparsity every block size retains less than unstructured pruning.
pub fn ext_block_sparse(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let (m, k, n) = if grid_label() == "quick" {
        (1024, 1024, 128)
    } else {
        (4096, 2048, 128)
    };
    let weights = Matrix::<f32>::random(m, k, 0xb10c);

    let sparsities: &[f64] = &[0.7, 0.8, 0.9];
    let block_sizes: &[usize] = &[4, 8, 16, 32];

    let dense_us = baselines::gemm_profile(&gpu, m, k, n).time_us;
    println!("dense GEMM reference: {dense_us:.1} us  (M={m}, K={k}, N={n})\n");

    let mut table = Table::new(
        "Extension — structured vs unstructured sparsity",
        &[
            "sparsity",
            "variant",
            "time (us)",
            "TFLOP/s",
            "retention",
            "quality-weighted TF/s",
        ],
    );
    // (block size, time us, retention) at 90% sparsity; block size 1 is
    // unstructured.
    let mut at90 = Vec::new();

    for &s in sparsities {
        // Unstructured: Sputnik on magnitude-pruned weights.
        let unstructured = dnn::magnitude_prune(&weights, s);
        let stats = sputnik::spmm_profile::<f32>(
            &gpu,
            &unstructured,
            k,
            n,
            SpmmConfig::heuristic::<f32>(n),
        );
        table.row(&[
            format!("{s:.1}"),
            "unstructured (Sputnik)".into(),
            format!("{:.1}", stats.time_us),
            format!("{:.2}", stats.tflops),
            "1.000".into(),
            format!("{:.2}", stats.tflops),
        ]);
        let is_90 = (s - 0.9).abs() < 1e-9;
        if is_90 {
            at90.push((1, stats.time_us, 1.0));
        }

        for &bs in block_sizes {
            let blocked = block::block_prune(&weights, bs, s);
            let bstats = baselines::block_spmm_profile(&gpu, &blocked, n);
            let retention = block::block_magnitude_retention(&weights, bs, s);
            let qw = bstats.tflops * retention;
            table.row(&[
                format!("{s:.1}"),
                format!("{bs}x{bs} blocks"),
                format!("{:.1}", bstats.time_us),
                format!("{:.2}", bstats.tflops),
                format!("{retention:.3}"),
                format!("{qw:.2}"),
            ]);
            if is_90 {
                at90.push((bs, bstats.time_us, retention));
            }
        }
    }
    table.print();

    // Headline: at 90% sparsity, where do block kernels overtake Sputnik on
    // raw speed, and what does it cost in retention?
    if let Some(&(_, unstructured_us, _)) = at90.first() {
        for &(bs, time_us, retention) in &at90[1..] {
            let speedup = unstructured_us / time_us;
            println!(
                "{bs}x{bs} blocks @90%: {speedup:.2}x the speed of unstructured, {:.1}% magnitude retention",
                retention * 100.0
            );
            let key = |field: &str| format!("ext_block_sparse.b{bs}_{field}_90");
            matched(rec, &key("speedup"), speedup, 3);
            matched(rec, &key("retention"), retention, 3);
            rec.gate(key("retention"), Gate::AtMost(0.999));
        }
    }
    println!("\nThe paper's tradeoff, quantified: structure buys speed and sells model quality.");
}

struct Entry {
    layer: String,
    m: usize,
    k: usize,
    n: usize,
    sparsity: f64,
    heuristic_us: f64,
    oracle_us: f64,
    /// heuristic time / oracle time (1.0 = heuristic found the best variant).
    gap: f64,
    oracle_tag: String,
}

/// How good is the paper's kernel-selection heuristic?
///
/// Section VII-B closes with "these results indicate that better kernel
/// selection heuristics could greatly improve performance", and the
/// MobileNet experiment needed an oracle for four layers. This study
/// quantifies the gap on the corpus: for each problem, the [`AutoTuner`]'s
/// exhaustive variant search (the oracle) runs against the heuristic's pick.
pub fn ext_heuristic_study(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let count = if grid_label() == "quick" { 12 } else { 40 };
    let specs = dataset::dl_corpus_sample(count, 23);

    let mut entries = Vec::new();
    for spec in &specs {
        let a = spec.generate();
        let (inference, training) = spec.batch_sizes();
        for batch in [inference, training] {
            let n = spec.n(batch);
            let tuned = AutoTuner::new().tune(&gpu, None, &a, n);
            entries.push(Entry {
                layer: spec.layer.to_string(),
                m: spec.rows,
                k: spec.cols,
                n,
                sparsity: spec.sparsity,
                heuristic_us: tuned.heuristic_us,
                oracle_us: tuned.best_us,
                gap: tuned.speedup_over_heuristic(),
                oracle_tag: tuned.config.tag(),
            });
        }
    }

    entries.sort_by(|a, b| b.gap.total_cmp(&a.gap));
    let mut table = Table::new(
        "Extension — heuristic vs oracle kernel selection (worst 10 problems)",
        &[
            "problem",
            "MxKxN",
            "sparsity",
            "heuristic",
            "oracle",
            "gap",
            "oracle variant",
        ],
    );
    for e in entries.iter().take(10) {
        table.row(&[
            e.layer.clone(),
            format!("{}x{}x{}", e.m, e.k, e.n),
            format!("{:.2}", e.sparsity),
            format!("{:.1}us", e.heuristic_us),
            format!("{:.1}us", e.oracle_us),
            format!("{:.2}x", e.gap),
            e.oracle_tag.clone(),
        ]);
    }
    table.print();

    let gaps: Vec<f64> = entries.iter().map(|e| e.gap).collect();
    let optimal = entries.iter().filter(|e| e.gap < 1.01).count();
    let worst = gaps.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "heuristic is optimal (within 1%) on {}/{} problems; geo-mean gap {:.3}x; worst {:.2}x",
        optimal,
        entries.len(),
        geo_mean(&gaps),
        worst
    );
    println!("(The paper used an oracle for four MobileNet layers for the same reason.)");

    matched_count(rec, "ext_heuristic_study.problems", entries.len());
    matched_count(rec, "ext_heuristic_study.optimal", optimal);
    matched(rec, "ext_heuristic_study.geomean_gap", geo_mean(&gaps), 3);
    matched(rec, "ext_heuristic_study.worst_gap", worst, 3);
}

struct RomaEntry {
    scalar_us: f64,
    roma_us: f64,
    padded_us: f64,
}

/// ROMA vs explicit padding vs scalar loads.
///
/// Section V-B2 presents ROMA as the alternative to "padding the rows of
/// the sparse matrix with zeros such that all rows are a multiple of four in
/// length", which "limits the generality of the kernel". This study measures
/// all three options on the same problems:
///
/// * **scalar** — no vector loads at all (the safe fallback),
/// * **ROMA** — vector loads on the original matrix, masked prefix,
/// * **padded** — vector loads on an explicitly padded copy
///   (`CsrMatrix::padded_to_multiple`), paying extra nonzeros and memory.
///
/// Gates: ROMA is within ±5% of padding and beats scalar.
pub fn ext_roma_study(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let shapes: &[(usize, usize, usize)] = if grid_label() == "quick" {
        &[(2048, 2048, 128)]
    } else {
        &[
            (2048, 2048, 128),
            (8192, 2048, 128),
            (1024, 4096, 256),
            (4096, 1024, 64),
        ]
    };

    let mut table = Table::new(
        "Extension — ROMA vs explicit padding (SpMM, us)",
        &[
            "problem",
            "sparsity",
            "scalar",
            "ROMA",
            "padded",
            "pad nnz overhead",
            "pad extra bytes",
        ],
    );
    let mut entries = Vec::new();

    for &(m, k, n) in shapes {
        for &s in &[0.7, 0.9, 0.98] {
            let a = gen::uniform(m, k, s, 0x40a + (s * 100.0) as u64);
            let cfg = SpmmConfig::heuristic::<f32>(n);

            let scalar = sputnik::spmm_profile::<f32>(
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
            );
            let roma = sputnik::spmm_profile::<f32>(&gpu, &a, k, n, cfg);

            let Some(padded) = a.padded_to_multiple(cfg.vector_width as usize) else {
                continue; // rows too dense to pad — skip this point
            };
            let pad_cfg = SpmmConfig {
                roma: false,
                assume_aligned: true,
                ..cfg
            };
            let padded_stats = sputnik::spmm_profile::<f32>(&gpu, &padded, k, n, pad_cfg);

            let overhead = 100.0 * (padded.nnz() as f64 / a.nnz() as f64 - 1.0);
            let extra = padded.bytes(IndexWidth::U32) as i64 - a.bytes(IndexWidth::U32) as i64;
            table.row(&[
                format!("{m}x{k}x{n}"),
                format!("{s:.2}"),
                format!("{:.1}", scalar.time_us),
                format!("{:.1}", roma.time_us),
                format!("{:.1}", padded_stats.time_us),
                format!("{overhead:.1}%"),
                format!("{extra}"),
            ]);
            entries.push(RomaEntry {
                scalar_us: scalar.time_us,
                roma_us: roma.time_us,
                padded_us: padded_stats.time_us,
            });
        }
    }
    table.print();

    let roma_vs_scalar: f64 = entries
        .iter()
        .map(|e| e.scalar_us / e.roma_us)
        .product::<f64>()
        .powf(1.0 / entries.len() as f64);
    let roma_vs_padded: f64 = entries
        .iter()
        .map(|e| e.padded_us / e.roma_us)
        .product::<f64>()
        .powf(1.0 / entries.len() as f64);
    println!("ROMA vs scalar: {roma_vs_scalar:.2}x geo-mean (the vector-load win)");
    println!(
        "ROMA vs padded: {roma_vs_padded:.2}x geo-mean — near 1.0, as the paper argues: \
         \"ROMA does not change the amount of work done by each thread block\""
    );
    println!("...but padding mutates the data structure, costs memory, and fails on dense rows.");

    matched(rec, "ext_roma_study.roma_vs_scalar", roma_vs_scalar, 3);
    rec.gate("ext_roma_study.roma_vs_scalar", Gate::AtLeast(1.0));
    matched(rec, "ext_roma_study.roma_vs_padded", roma_vs_padded, 3);
    within(rec, "ext_roma_study.roma_vs_padded", 0.95, 1.05);
}

/// Load-balancing approaches head to head.
///
/// Section V-C argues that existing load-balancing schemes "tightly couple
/// load balancing to the parallelization scheme ... they typically introduce
/// computational irregularity that can damage performance on more regular
/// problems", and proposes the row swizzle as a decoupled alternative. This
/// study races four approaches across the imbalance dial:
///
/// * **row-splitting, natural order** — no load balancing at all,
/// * **row-splitting + row swizzle** — the paper's approach,
/// * **nonzero-splitting** — perfect balance, coupled & irregular,
/// * **ASpT** — reordered tiling (where its shape constraints allow).
///
/// Gates: the swizzle beats natural order at the worst CoV.
pub fn ext_load_balancing(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let (m, k, n) = (8192usize, 2048usize, 128usize);
    let covs: Vec<f64> = if grid_label() == "quick" {
        vec![0.0, 0.8, 1.7]
    } else {
        vec![0.0, 0.2, 0.4, 0.8, 1.2, 1.7]
    };

    let mut table = Table::new(
        "Extension — load balancing approaches (SpMM 8192x2048x128, 75% sparse, us)",
        &[
            "CoV",
            "natural order",
            "row swizzle",
            "nnz splitting",
            "ASpT",
        ],
    );
    // (achieved CoV, natural, swizzle, nnz-splitting us) per point.
    let mut points = Vec::new();
    let cfg = SpmmConfig::heuristic::<f32>(n);
    for &cov in &covs {
        let a = gen::with_cov(m, k, 0.75, cov, 0x1b + (cov * 10.0) as u64);
        let achieved = stats::matrix_stats(&a).row_cov;
        let natural = sputnik::spmm_profile::<f32>(
            &gpu,
            &a,
            k,
            n,
            SpmmConfig {
                row_swizzle: false,
                ..cfg
            },
        );
        let swizzle = sputnik::spmm_profile::<f32>(&gpu, &a, k, n, cfg);
        let nnz_split = baselines::nnz_split_spmm_profile::<f32>(&gpu, &a, n);
        let aspt = baselines::aspt_spmm_profile::<f32>(&gpu, &a, n).ok();
        table.row(&[
            format!("{achieved:.2}"),
            format!("{:.1}", natural.time_us),
            format!("{:.1}", swizzle.time_us),
            format!("{:.1}", nnz_split.time_us),
            aspt.as_ref()
                .map_or("-".into(), |s| format!("{:.1}", s.time_us)),
        ]);
        points.push((
            achieved,
            natural.time_us,
            swizzle.time_us,
            nnz_split.time_us,
        ));
    }
    table.print();

    let (Some(&(_, _, swizzle0, nnz_split0)), Some(&(cov, natural, swizzle, nnz_split))) =
        (points.first(), points.last())
    else {
        return;
    };
    println!(
        "balanced matrices (CoV 0): swizzle {swizzle0:.1} us vs nnz-splitting {nnz_split0:.1} us — the \
         irregular scheme pays {:.0}% overhead where there is nothing to balance",
        100.0 * (nnz_split0 / swizzle0 - 1.0)
    );
    println!(
        "worst imbalance (CoV {cov:.1}): natural order {natural:.1} us, swizzle {swizzle:.1} us, nnz-splitting {nnz_split:.1} us"
    );
    println!("The swizzle gets balanced-case speed AND imbalance tolerance — Section V-C's pitch.");

    matched(
        rec,
        "ext_load_balancing.nnz_split_vs_swizzle_at_cov0",
        nnz_split0 / swizzle0,
        3,
    );
    let key = "ext_load_balancing.swizzle_vs_natural_at_max_cov";
    matched(rec, key, natural / swizzle, 3);
    rec.gate(key, Gate::AtLeast(1.0));
}

/// Training-step cost on the compressed representation.
///
/// The paper's introduction motivates its kernels by sparse *training*: "all
/// computation during training needs to operate directly on the compressed
/// sparse representation". This study times one full training step of a
/// weight-sparse layer — forward SpMM, SDDMM weight gradient, transposed
/// SpMM input gradient, value update, transpose-cache refresh — against the
/// dense equivalent (three GEMMs + elementwise update), across sparsities.
/// Gates: the sparse step beats dense at 90% sparsity.
pub fn ext_training(rec: &mut BenchRecord) {
    let gpu = Gpu::v100();
    let (m, k, n) = if grid_label() == "quick" {
        (2048, 1024, 128)
    } else {
        (4096, 2048, 256)
    };

    // Dense training step: Y = WX (fwd), dW = dY X^T, dX = W^T dY, update.
    let dense_total_us = baselines::gemm_profile(&gpu, m, k, n).time_us
        + baselines::gemm_profile(&gpu, m, n, k).time_us
        + baselines::gemm_profile(&gpu, k, m, n).time_us
        + dnn::layers::bias_relu_profile(&gpu, m, k).time_us; // elementwise update proxy

    let mut table = Table::new(
        "Extension — training step on the compressed representation (us)",
        &[
            "sparsity",
            "fwd SpMM",
            "dW SDDMM",
            "dX W^T-SpMM",
            "update",
            "sparse total",
            "dense total",
            "speedup",
        ],
    );
    let mut crossover = None;
    let mut speedup_90 = 0.0;
    for &s in &[0.5, 0.7, 0.8, 0.9, 0.95, 0.98] {
        let w = gen::uniform(m, k, s, 0x7a11 + (s * 100.0) as u64);
        let fwd =
            sputnik::spmm_profile::<f32>(&gpu, &w, k, n, SpmmConfig::heuristic::<f32>(n)).time_us;
        let dw =
            sputnik::sddmm_profile::<f32>(&gpu, &w, n, SddmmConfig::heuristic::<f32>(n)).time_us;
        let mut cache = CachedTranspose::new(&w);
        let dx = cache
            .spmm_profile(&gpu, n, SpmmConfig::heuristic::<f32>(n))
            .time_us;
        let update = cache.update_values(&gpu, w.values()).time_us;
        let sparse_total = fwd + dw + dx + update;
        let speedup = dense_total_us / sparse_total;
        table.row(&[
            format!("{s:.2}"),
            format!("{fwd:.0}"),
            format!("{dw:.0}"),
            format!("{dx:.0}"),
            format!("{update:.0}"),
            format!("{sparse_total:.0}"),
            format!("{dense_total_us:.0}"),
            format!("{speedup:.2}x"),
        ]);
        if speedup > 1.0 && crossover.is_none() {
            crossover = Some(s);
        }
        if s == 0.9 {
            speedup_90 = speedup;
        }
    }
    table.print();

    println!(
        "training crossover: sparse step beats dense at sparsity {}",
        crossover.map_or("beyond 0.98".into(), |s| format!("{s:.2}"))
    );
    println!("(Higher than the inference crossover of Figure 1 — the backward pass adds");
    println!(" an SDDMM and a transposed SpMM, both harder than the forward SpMM.)");

    // A step that never beats dense records a crossover of 1.0.
    matched(rec, "ext_training.crossover", crossover.unwrap_or(1.0), 2);
    matched(rec, "ext_training.speedup_90", speedup_90, 3);
    rec.gate("ext_training.speedup_90", Gate::AtLeast(1.0));
}
