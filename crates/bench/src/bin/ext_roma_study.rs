//! Extension study: ROMA vs explicit padding vs scalar loads.
//!
//! Section V-B2 presents ROMA as the alternative to "padding the rows of
//! the sparse matrix with zeros such that all rows are a multiple of four in
//! length", which "limits the generality of the kernel". This study measures
//! all three options on the same problems:
//!
//! * **scalar** — no vector loads at all (the safe fallback),
//! * **ROMA** — vector loads on the original matrix, masked prefix,
//! * **padded** — vector loads on an explicitly padded copy
//!   (`CsrMatrix::padded_to_multiple`), paying extra nonzeros and memory.

use gpu_sim::Gpu;
use sparse::{gen, IndexWidth};
use sputnik::SpmmConfig;
use sputnik_bench::{has_flag, Table};

struct Entry {
    scalar_us: f64,
    roma_us: f64,
    padded_us: f64,
}

fn main() {
    let gpu = Gpu::v100();
    let shapes: &[(usize, usize, usize)] = if has_flag("--quick") {
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
            entries.push(Entry {
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
}
