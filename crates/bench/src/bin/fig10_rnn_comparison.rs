//! Figure 10: benchmarks on sparse recurrent neural network problems,
//! comparing Sputnik against MergeSpmm, ASpT, and cuSPARSE (SpMM) and
//! against ASpT and cuSPARSE (SDDMM).
//!
//! Paper anchors (SpMM): geo-mean speedups 1.56x over ASpT, 1.59x over
//! MergeSpmm, 3.47x over cuSPARSE. (SDDMM): 2.69x over cuSPARSE, ~92% of
//! ASpT's throughput (while using 3x less memory and no reordering).
//! Also Section VII-B's note: the vector kernels average 2.45x over the
//! scalar variants on this suite.

use dnn::rnn;
use gpu_sim::Gpu;
use sparse::IndexWidth;
use sputnik::{SddmmConfig, SpmmConfig};
use sputnik_bench::{geo_mean, has_flag, Table};

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

fn main() {
    let gpu = Gpu::v100();
    let hidden: &[usize] = if has_flag("--quick") {
        &[1024, 2048]
    } else if has_flag("--full") {
        &rnn::PAPER_HIDDEN_SIZES
    } else {
        &[1024, 2048, 4096]
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
    let mut summary = Table::new(
        "Figure 10 — geometric-mean summary",
        &["comparison", "measured", "paper"],
    );
    summary.row(&[
        "SpMM vs MergeSpmm".into(),
        format!("{:.2}x", gm(|r| r.merge_us / r.sputnik_us)),
        "1.59x".into(),
    ]);
    summary.row(&[
        "SpMM vs ASpT".into(),
        format!("{:.2}x", gm(|r| r.aspt_us / r.sputnik_us)),
        "1.56x".into(),
    ]);
    summary.row(&[
        "SpMM vs cuSPARSE".into(),
        format!("{:.2}x", gm(|r| r.cusparse_us / r.sputnik_us)),
        "3.47x".into(),
    ]);
    summary.row(&[
        "SpMM vector vs scalar".into(),
        format!("{:.2}x", gm(|r| r.scalar_us / r.sputnik_us)),
        "2.45x".into(),
    ]);
    summary.row(&[
        "SDDMM vs cuSPARSE".into(),
        format!("{:.2}x", gm(|r| r.sddmm_cusparse_us / r.sddmm_sputnik_us)),
        "2.69x".into(),
    ]);
    summary.row(&[
        "SDDMM throughput vs ASpT".into(),
        format!(
            "{:.0}%",
            100.0 * gm(|r| r.sddmm_aspt_us / r.sddmm_sputnik_us)
        ),
        "92%".into(),
    ]);
    summary.row(&[
        "ASpT memory vs Sputnik".into(),
        format!(
            "{:.1}x",
            gm(|r| r.aspt_memory_bytes as f64 / r.sputnik_memory_bytes as f64)
        ),
        "3x".into(),
    ]);
    summary.print();
}
