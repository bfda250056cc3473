//! Extension study: how good is the paper's kernel-selection heuristic?
//!
//! Section VII-B closes with "these results indicate that better kernel
//! selection heuristics could greatly improve performance", and the
//! MobileNet experiment needed an oracle for four layers. This study
//! quantifies the gap on the corpus: for each problem, the [`AutoTuner`]'s
//! exhaustive variant search (the oracle) runs against the heuristic's pick.

use gpu_sim::Gpu;
use sparse::dataset;
use sputnik::AutoTuner;
use sputnik_bench::{geo_mean, has_flag, Table};

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

fn main() {
    let gpu = Gpu::v100();
    let count = if has_flag("--quick") { 12 } else { 40 };
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
    println!(
        "heuristic is optimal (within 1%) on {}/{} problems; geo-mean gap {:.3}x; worst {:.2}x",
        optimal,
        entries.len(),
        geo_mean(&gaps),
        gaps.iter().cloned().fold(0.0f64, f64::max)
    );
    println!("(The paper used an oracle for four MobileNet layers for the same reason.)");
}
