//! A tour of the GPU simulator itself: device self-validation against
//! datasheet numbers, per-pipeline breakdowns of a real kernel, and the block
//! scheduler's response to load imbalance.
//!
//! ```bash
//! cargo run --release --example simulator_tour
//! ```

use gpu_sim::{microbench, simulate_schedule, Gpu};
use sparse::gen;
use sputnik::SpmmConfig;

fn main() {
    // --- 1. Self-validation: does the model hit its own datasheet? ---------
    println!("== device self-validation ==");
    for gpu in [Gpu::gtx1080(), Gpu::v100(), Gpu::a100()] {
        let v = microbench::validate(&gpu);
        println!(
            "{:<16} copy {:>6.0} GB/s ({:>4.1}% of spec)   FMA {:>5.2} TF/s ({:>5.1}% of peak)   lone-warp latency {:>4.1}x",
            gpu.device().name,
            v.copy_gbps,
            v.copy_frac_of_bw * 100.0,
            v.fma_tflops,
            v.fma_frac_of_peak * 100.0,
            v.latency_bound_slowdown
        );
    }

    // --- 2. Where does a real kernel's time go? ----------------------------
    println!("\n== pipeline breakdown: Sputnik SpMM, 2048x2048 @ 80%, N=128 ==");
    let gpu = Gpu::v100();
    let a = gen::uniform(2048, 2048, 0.8, 42);
    let stats =
        sputnik::spmm_profile::<f32>(&gpu, &a, 2048, 128, SpmmConfig::heuristic::<f32>(128));
    println!("{stats}");
    let total = stats.makespan_cycles.max(1.0);
    for (name, util) in stats.pipelines.utilizations(total) {
        let bar: String = std::iter::repeat_n('#', (util * 40.0).min(40.0) as usize).collect();
        println!("  {name:>8} |{bar:<40}| {:5.1}%", util * 100.0);
    }

    // --- 3. The Volta scheduler under imbalance ----------------------------
    println!("\n== block scheduler: 800 uniform blocks vs one 10x outlier ==");
    let dev = gpu.device();
    let uniform = vec![1_000.0f64; 800];
    let mut skewed = uniform.clone();
    skewed[799] = 10_000.0; // heavy block issued LAST: a pure tail
    let r1 = simulate_schedule(dev, 8, &uniform);
    let r2 = simulate_schedule(dev, 8, &skewed);
    println!(
        "  uniform: makespan {:>7.0} cycles, balance {:.2}",
        r1.makespan_cycles, r1.balance
    );
    println!(
        "  skewed : makespan {:>7.0} cycles, balance {:.2}  <- the tail the row swizzle exists to cut",
        r2.makespan_cycles, r2.balance
    );
    let mut front_loaded = skewed.clone();
    front_loaded.swap(0, 799);
    let r3 = simulate_schedule(dev, 8, &front_loaded);
    println!(
        "  heavy-first (swizzled order): makespan {:>7.0} cycles, balance {:.2}",
        r3.makespan_cycles, r3.balance
    );
}
