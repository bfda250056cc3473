//! Figure 2: properties of sparse matrices from deep learning vs scientific
//! computing — sparsity, average row length, and row-length coefficient of
//! variation, summarized over both corpora.
//!
//! Paper anchors: "deep learning matrices are 13.4x less sparse, have 2.3x
//! longer rows, and have 25x less variation in row length within a matrix."

use sparse::dataset;
use sparse::stats::{matrix_stats, mean};
use sputnik_bench::{has_flag, Table};

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

fn main() {
    // Full corpora are 3,012 + 2,833 matrices; the default run samples both
    // (statistics converge quickly), --full generates everything.
    let (dl_count, sci_count) = if has_flag("--full") {
        (3012, 2833)
    } else {
        (150, 120)
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
}
