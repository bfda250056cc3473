//! Extension: load-balancing approaches head to head.
//!
//! Section V-C argues that existing load-balancing schemes "tightly couple
//! load balancing to the parallelization scheme ... they typically introduce
//! computational irregularity that can damage performance on more regular
//! problems", and proposes the row swizzle as a decoupled alternative. This
//! study races four approaches across the imbalance dial:
//!
//! * **row-splitting, natural order** — no load balancing at all,
//! * **row-splitting + row swizzle** — the paper's approach,
//! * **nonzero-splitting** — perfect balance, coupled & irregular,
//! * **ASpT** — reordered tiling (where its shape constraints allow).

use gpu_sim::Gpu;
use sparse::{gen, stats};
use sputnik::SpmmConfig;
use sputnik_bench::{has_flag, Table};

struct Point {
    achieved_cov: f64,
    natural_us: f64,
    swizzle_us: f64,
    nnz_split_us: f64,
}

fn main() {
    let gpu = Gpu::v100();
    let (m, k, n) = (8192usize, 2048usize, 128usize);
    let covs: Vec<f64> = if has_flag("--quick") {
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
        points.push(Point {
            achieved_cov: achieved,
            natural_us: natural.time_us,
            swizzle_us: swizzle.time_us,
            nnz_split_us: nnz_split.time_us,
        });
    }
    table.print();

    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return;
    };
    println!(
        "balanced matrices (CoV 0): swizzle {:.1} us vs nnz-splitting {:.1} us — the \
         irregular scheme pays {:.0}% overhead where there is nothing to balance",
        first.swizzle_us,
        first.nnz_split_us,
        100.0 * (first.nnz_split_us / first.swizzle_us - 1.0)
    );
    println!(
        "worst imbalance (CoV {:.1}): natural order {:.1} us, swizzle {:.1} us, nnz-splitting {:.1} us",
        last.achieved_cov, last.natural_us, last.swizzle_us, last.nnz_split_us
    );
    println!("The swizzle gets balanced-case speed AND imbalance tolerance — Section V-C's pitch.");
}
