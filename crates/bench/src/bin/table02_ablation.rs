//! Table II: ablation study for the SpMM and SDDMM kernels.
//!
//! Each proposed optimization is disabled in turn and performance is
//! reported as a percentage of the complete kernel's, averaged over corpus
//! problems split by model family and batch size — the same cells the paper
//! reports. With `--rnn`, also reports the scalar-vs-vector geo-mean on the
//! RNN suite (Section VII-B: 2.45x).
//!
//! Paper anchors (SpMM): -LoadBalancing 78.5-96.1%, -VectorInst 64.8-100.1%,
//! -ResidueUnroll 87.8-94.1%, -IndexPreScale 98.2-100.6%. (SDDMM):
//! -LoadBalancing 96.8-101.1%, -VectorInst 98.3-170.6% (scalar *wins* on
//! occupancy-bound small problems).

use gpu_sim::Gpu;
use sparse::dataset::{self, ModelFamily};
use sputnik::{SddmmConfig, SpmmConfig};
use sputnik_bench::{geo_mean, has_flag, Table};

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

fn main() {
    let gpu = Gpu::v100();
    let count = if has_flag("--quick") { 20 } else { 80 };
    let specs = dataset::dl_corpus_sample(count, 17);

    // Cells indexed by (family, batch-kind) -> ablation -> ratios.
    let spmm_ablations = [
        "-Load Balancing",
        "-Vector Inst.",
        "-Residue Unroll",
        "-Index Pre-Scale",
    ];
    let sddmm_ablations = ["-Load Balancing", "-Vector Inst."];
    let col_keys = [
        (ModelFamily::Transformer, false),
        (ModelFamily::Transformer, true),
        (ModelFamily::ResNet50, false),
        (ModelFamily::ResNet50, true),
    ];
    let mut spmm_cells = vec![vec![Cell::default(); col_keys.len()]; spmm_ablations.len()];
    let mut sddmm_cells = vec![vec![Cell::default(); col_keys.len()]; sddmm_ablations.len()];

    for spec in &specs {
        let a = spec.generate();
        let (inference, training) = spec.batch_sizes();
        for (batch, is_training) in [(inference, false), (training, true)] {
            let col = col_keys
                .iter()
                .position(|&(fam, tr)| fam == spec.model && tr == is_training)
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
    let mut t_spmm = Table::new(
        "Table II (SpMM) — % of complete kernel's performance",
        &headers,
    );
    for (i, name) in spmm_ablations.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for cell in spmm_cells[i].iter().take(col_keys.len()) {
            row.push(format!("{:.1}%", cell.percent()));
        }
        t_spmm.row(&row);
    }
    t_spmm.print();
    println!("paper: -LB 96.1/88.9/91.7/78.5  -Vec 100.1/80.9/87.9/64.8  -Res 92.0/94.1/87.8/92.6  -Pre 100.6/100.6/98.2/100.3\n");

    let mut t_sddmm = Table::new(
        "Table II (SDDMM) — % of complete kernel's performance",
        &headers,
    );
    for (i, name) in sddmm_ablations.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for cell in sddmm_cells[i].iter().take(col_keys.len()) {
            row.push(format!("{:.1}%", cell.percent()));
        }
        t_sddmm.row(&row);
    }
    t_sddmm.print();
    println!("paper: -LB 101.1/97.1/100.9/96.8  -Vec 98.3/132.0/120.2/170.6\n");

    if has_flag("--rnn") || !has_flag("--quick") {
        let problems = dnn::rnn::problem_suite(&[1024, 2048, 4096]);
        let ratios: Vec<f64> = problems
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let a = p.weights(0xab1a + i as u64);
                let cfg = SpmmConfig::heuristic::<f32>(p.n());
                let full = sputnik::spmm_profile::<f32>(&gpu, &a, p.k(), p.n(), cfg).time_us;
                let scalar = sputnik::spmm_profile::<f32>(
                    &gpu,
                    &a,
                    p.k(),
                    p.n(),
                    SpmmConfig {
                        vector_width: 1,
                        roma: false,
                        block_items_x: 32,
                        ..cfg
                    },
                )
                .time_us;
                scalar / full
            })
            .collect();
        println!(
            "RNN suite: vector kernels {:.2}x geo-mean over scalar (paper: 2.45x)",
            geo_mean(&ratios)
        );
    }
}
