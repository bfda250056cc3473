//! Fleet-scaling benchmark: sharded SpMM swept across simulated device
//! counts, plus fleet serving and a validated multi-device Chrome trace.
//!
//! Two row-sharded (data-parallel) sweeps over 1/2/4/8 V100s connected by
//! NVLink:
//!
//! - **Transformer attention**: the paper's big-compute workload. This is
//!   the headline scaling curve and the one CI gates at >= 70% efficiency
//!   on 4 devices.
//! - **MobileNet 1x1 conv**: small output tiles, so gather latency bites
//!   early. The sweep documents saturation rather than pretending
//!   linearity.
//!
//! Every sweep point is verified bit-identical to the single-GPU reference
//! kernel, and every shard goes through the static auditor + sanitizer +
//! LaunchCache (replays are functional, so identity holds warm too).
//!
//! On top of the sweeps: a fixed-load serving comparison (the continuous-
//! batching front door on a 1-device vs 2-device fleet — added devices must
//! buy tail latency), and a traced 4-device run validated as well-formed
//! Chrome `trace_event` JSON with per-device tracks and interconnect
//! counter samples.
//!
//! Everything is *simulated* time: deterministic, machine-independent, and
//! therefore tightly gateable in CI.
//!
//! `--check <baseline.json>` gates:
//!
//! - `tf_row_eff_d4` >= 0.70 (absolute floor from the scaling target) and
//!   >= 0.95x the committed baseline.
//! - `identical_all` == 1: every point of every sweep matched the
//!   single-GPU kernel bit for bit.
//! - nonzero `transfers` on every multi-device point: sharding must cross
//!   the interconnect, not silently collapse to one device.
//! - `serve_p99_ratio` <= 1.0: two devices may never serve a worse p99
//!   than one at fixed load.
//! - `trace_ok` == 1 plus nonzero trace counters/tracks: the exported
//!   fleet trace stays structurally valid with per-device timelines.

use dnn::{
    mobilenet_pointwise_problem, scaling_sweep, transformer_attention_problem, FleetProblem,
    ScalingPoint,
};
use gpu_sim::{chrome_trace_json, trace, validate_chrome_trace, Fleet, LaunchCache};
use serve::{
    attention_topologies, generate, run_fleet, ArrivalProcess, Request, ServePolicy, TrafficConfig,
};
use sputnik::spmm_row_sharded;
use sputnik_bench::gate::{BenchRecord, Gate};
use sputnik_bench::{has_flag, Table};

const DEVICES: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 0xF1EE7;

fn sweep(problem: &FleetProblem) -> Vec<ScalingPoint> {
    scaling_sweep(problem, &DEVICES)
        .unwrap_or_else(|e| panic!("{} sweep failed: {e}", problem.name))
}

fn tabulate(table: &mut Table, problem: &str, points: &[ScalingPoint]) {
    for p in points {
        table.row(&[
            problem.to_string(),
            format!("{}", p.devices),
            format!("{:.1}", p.makespan_us),
            format!("{:.1}", p.kernel_us),
            format!("{:.3}", p.efficiency),
            format!("{:.2}", p.transfer_bytes as f64 / 1e6),
            format!("{}", p.transfers),
            format!("{}", u64::from(p.bit_identical)),
            format!("{}", p.cache_hits),
        ]);
    }
}

fn burst_traffic(n: usize) -> Vec<Request> {
    generate(&TrafficConfig {
        seed: SEED,
        // Near-simultaneous arrivals: a pure drain race, so the p99 gap
        // between fleet widths is queueing delay and nothing else.
        process: ArrivalProcess::Poisson { rate_per_s: 1e9 },
        requests: n,
        deadline_us: 1e9,
        sddmm_fraction: 0.3,
        topologies: 2,
    })
}

fn main() {
    // Full mode doubles the sequence length; the gated numbers come from
    // the default size so CI and local runs agree.
    let seq: usize = if has_flag("--full") { 8192 } else { 4096 };
    let d_head: usize = 128;
    let band: usize = 640;
    let tf = transformer_attention_problem(seq, d_head, band, 0.995, SEED);
    let mb = mobilenet_pointwise_problem(1024, 512, 196, 0.85, SEED ^ 0xB0B);

    let mut table = Table::new(
        "fleetwall — row-sharded SpMM scaling vs device count (simulated, deterministic)",
        &[
            "problem",
            "devs",
            "makespan us",
            "kernel us",
            "eff",
            "moved MB",
            "transfers",
            "identical",
            "cache hits",
        ],
    );

    let tf_row = sweep(&tf);
    let mb_row = sweep(&mb);
    tabulate(&mut table, "transformer", &tf_row);
    tabulate(&mut table, "mobilenet", &mb_row);
    table.print();

    let identical_all = u64::from(tf_row.iter().chain(&mb_row).all(|p| p.bit_identical));

    // Serving on the fleet: same saturating burst against 1 and 2 devices.
    let topologies = attention_topologies(256, 64, SEED);
    let policy = ServePolicy {
        queue_capacity: 512,
        max_batch: 8,
        batch_window_us: 25.0,
        p99_budget_us: 1e9,
        ..ServePolicy::default()
    };
    let requests = burst_traffic(480);
    let one = run_fleet(&Fleet::v100(1), &topologies, &policy, &requests)
        .unwrap_or_else(|e| panic!("1-device serve failed: {e}"));
    let two = run_fleet(&Fleet::v100(2), &topologies, &policy, &requests)
        .unwrap_or_else(|e| panic!("2-device serve failed: {e}"));
    let serve_ratio = two.latency.p99() / one.latency.p99();
    println!(
        "serve burst x{}: 1-dev p99 {:.0} us, 2-dev p99 {:.0} us (ratio {:.3}), per-device batches {:?}",
        requests.len(),
        one.latency.p99(),
        two.latency.p99(),
        serve_ratio,
        two.per_device_batches,
    );

    // Traced 4-device run: per-device timeline tracks plus interconnect
    // byte counters, validated as structurally well-formed Chrome JSON.
    trace::enable();
    let cache = LaunchCache::new();
    spmm_row_sharded(&Fleet::v100(4), &cache, &tf.a, &tf.b, tf.cfg)
        .unwrap_or_else(|e| panic!("traced 4-device run failed: {e}"));
    let events = trace::disable();
    let trace_json = chrome_trace_json(&events);
    let check = validate_chrome_trace(&trace_json)
        .unwrap_or_else(|e| panic!("fleet trace failed validation: {e}"));
    let trace_ok = u64::from(check.tracks >= 4 && check.counters > 0);
    println!(
        "trace: {} events across {} tracks ({} launches, {} counter samples) — ok={trace_ok}",
        check.events, check.tracks, check.launches, check.counters
    );

    let mut rec = BenchRecord::new("fleetwall");
    rec.int("seq", seq as u64)
        .int("d_head", d_head as u64)
        .int("band", band as u64)
        .int("tf_nnz", tf.a.nnz() as u64)
        .int("mb_nnz", mb.a.nnz() as u64);
    for (prefix, points) in [("tf_row", &tf_row), ("mb_row", &mb_row)] {
        for p in points {
            let d = p.devices;
            rec.float(format!("{prefix}_eff_d{d}"), p.efficiency, 6)
                .float(format!("{prefix}_makespan_us_d{d}"), p.makespan_us, 3)
                .int(format!("{prefix}_transfer_bytes_d{d}"), p.transfer_bytes)
                .int(format!("{prefix}_transfers_d{d}"), p.transfers)
                .int(
                    format!("{prefix}_identical_d{d}"),
                    u64::from(p.bit_identical),
                );
            // Multi-device runs must actually cross the interconnect.
            if d > 1 {
                rec.gate(format!("{prefix}_transfers_d{d}"), Gate::Nonzero)
                    .gate(format!("{prefix}_transfer_bytes_d{d}"), Gate::Nonzero);
            }
        }
    }
    rec.int("identical_all", identical_all)
        .float("serve_p99_us_1dev", one.latency.p99(), 3)
        .float("serve_p99_us_2dev", two.latency.p99(), 3)
        .float("serve_p99_ratio", serve_ratio, 6)
        .int("trace_events", check.events as u64)
        .int("trace_tracks", check.tracks as u64)
        .int("trace_counters", check.counters as u64)
        .int("trace_ok", trace_ok)
        // The headline target: row sharding the big transformer workload
        // must stay >= 70% efficient on 4 devices — an absolute floor, then
        // a 5%-slack comparison against the committed curve to catch slow
        // drift below it.
        .gate("tf_row_eff_d4", Gate::AtLeast(0.70))
        .gate("tf_row_eff_d4", Gate::AtLeastBaseline(0.95))
        // Bit identity is binary: every point of every sweep, warm and
        // cold, matches the single-GPU kernel exactly.
        .gate("identical_all", Gate::Exact(1))
        // Two devices never serve a worse tail than one at fixed load.
        .gate("serve_p99_ratio", Gate::AtMost(1.0))
        // The exported fleet trace stays valid and populated.
        .gate("trace_ok", Gate::Exact(1))
        .gate("trace_events", Gate::Nonzero)
        .finish();
}
