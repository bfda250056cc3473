//! Figure 11: the sparse Transformer's attention connectivity — a dense
//! band along the diagonal plus random off-diagonal connections sampled with
//! probability inversely proportional to distance from the diagonal, under a
//! causal (lower-triangular) constraint. Rendered as a coarse ASCII density
//! map plus the mask's summary statistics.

use sparse::gen;
use sputnik_bench::{has_flag, Table};

struct MaskSummary {
    seq: usize,
    nnz: usize,
    overall_sparsity: f64,
    avg_row_len: f64,
    max_row_len: usize,
}

fn main() {
    let (seq, band) = if has_flag("--full") {
        (12288, 256)
    } else {
        (2048, 64)
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
    println!("== Figure 11 — sparse attention connectivity ({seq} tokens, band {band}, {off:.0}% off-diagonal sparsity) ==");
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
    let summary = MaskSummary {
        seq,
        nnz: mask.nnz(),
        overall_sparsity: stats.sparsity,
        avg_row_len: stats.avg_row_length,
        max_row_len: mask.max_row_len(),
    };
    let mut t = Table::new("mask statistics", &["metric", "value"]);
    t.row(&["tokens".into(), summary.seq.to_string()]);
    t.row(&["nonzeros".into(), summary.nnz.to_string()]);
    t.row(&[
        "overall sparsity".into(),
        format!("{:.4}", summary.overall_sparsity),
    ]);
    t.row(&[
        "avg row length".into(),
        format!("{:.1}", summary.avg_row_len),
    ]);
    t.row(&["max row length".into(), summary.max_row_len.to_string()]);
    t.print();
}
