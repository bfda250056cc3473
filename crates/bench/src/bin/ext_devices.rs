//! Extension: how the paper's headline results transport across devices.
//!
//! Section IX closes by pointing at newer hardware (the A100 whitepaper is
//! reference \[55\]). The simulator makes the question cheap: rerun the
//! Figure 1 problem and a corpus sample on the GTX 1080 (less bandwidth,
//! smaller L2), the V100 (the paper's platform), and the A100 (more of
//! everything) and watch the crossover and the cuSPARSE gap move.

use gpu_sim::Gpu;
use sparse::{dataset, gen};
use sputnik::SpmmConfig;
use sputnik_bench::{geo_mean, has_flag, Table};

fn main() {
    let (m, k, n) = (8192usize, 2048usize, 128usize);
    let corpus = dataset::dl_corpus_sample(if has_flag("--quick") { 8 } else { 24 }, 29);

    let mut table = Table::new(
        "Extension — device transport (Figure 1 problem + corpus geo-mean)",
        &[
            "device",
            "dense (us)",
            "sparse@90% (us)",
            "crossover",
            "geo speedup vs cuSPARSE",
        ],
    );

    for gpu in [Gpu::gtx1080(), Gpu::v100(), Gpu::a100()] {
        let dense_us = baselines::gemm_profile(&gpu, m, k, n).time_us;
        let mut crossover = None;
        let mut spmm_90 = 0.0;
        for s in [0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9] {
            let a = gen::uniform(m, k, s, 0xde5 + (s * 100.0) as u64);
            let t = sputnik::spmm_profile::<f32>(&gpu, &a, k, n, SpmmConfig::heuristic::<f32>(n))
                .time_us;
            if t < dense_us && crossover.is_none() {
                crossover = Some(s);
            }
            if (s - 0.9).abs() < 1e-9 {
                spmm_90 = t;
            }
        }
        let speedups: Vec<f64> = corpus
            .iter()
            .map(|spec| {
                let a = spec.generate();
                let nn = spec.n(spec.batch_sizes().1);
                let ours = sputnik::spmm_profile::<f32>(
                    &gpu,
                    &a,
                    spec.cols,
                    nn,
                    SpmmConfig::heuristic::<f32>(nn),
                );
                let cusp = baselines::cusparse_spmm_profile::<f32>(&gpu, &a, nn);
                cusp.time_us / ours.time_us
            })
            .collect();
        let geo = geo_mean(&speedups);
        table.row(&[
            gpu.device().name.clone(),
            format!("{dense_us:.0}"),
            format!("{spmm_90:.0}"),
            crossover.map_or("-".into(), |s| format!("{s:.2}")),
            format!("{geo:.2}x"),
        ]);
    }
    table.print();
    println!("The crossover and the vendor-library gap are properties of the balance");
    println!("between math, bandwidth, and cache capacity — they move with the device,");
    println!("which is why the paper reports them for a specific part (the V100).");
}
