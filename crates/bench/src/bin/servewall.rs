//! Serving-tail benchmark: offered-load sweep over the transformer
//! attention workload through the `serve` front door.
//!
//! Three Poisson load points (under-, near-, and over-saturation) plus one
//! bursty trace run against the default serving policy; every run reports
//! goodput, typed overflow outcomes (shed/rejected), cache hits, and exact
//! latency percentiles. Everything here is *simulated* time, so the numbers
//! are deterministic — same seed, same binary, same JSON — and machine
//! independent, which is what lets CI gate tightly.
//!
//! `--check <baseline.json>` gates:
//!
//! - `p99_us` at the fixed (middle) load point: ≤ 1.05× the committed
//!   baseline. Scheduling or cost-model regressions show up here first.
//! - `lost` == 0: the conservation invariant `served + shed + rejected ==
//!   offered`, pinned from the outside rather than trusted.
//! - `cache_hits` nonzero: windows keyed by topology must actually hit the
//!   LaunchCache — warm serving is the point of the batching scheduler.
//! - chaos variant (1% injected fault rate, same load): `chaos_lost` == 0
//!   and `chaos_degraded` nonzero — faults must surface as degradation-rung
//!   attributions, never as dropped requests. The chaos run sets
//!   `attempts_per_rung = 1` so every injected fault is visible as a rung
//!   transition instead of being absorbed by a same-rung retry.

use gpu_sim::{FaultKind, FaultPlan, Gpu};
use serve::{
    attention_topologies, generate, run, ArrivalProcess, Request, ServePolicy, ServeReport,
    TrafficConfig,
};
use sputnik_bench::gate::{BenchRecord, Gate};
use sputnik_bench::{has_flag, Table};

const SEQ: usize = 256;
const HEAD_DIM: usize = 64;
const SEED: u64 = 42;

fn trace(process: ArrivalProcess, requests: usize) -> Vec<Request> {
    generate(&TrafficConfig {
        seed: SEED,
        process,
        requests,
        deadline_us: 5_000.0,
        sddmm_fraction: 0.4,
        topologies: 2,
    })
}

fn serve_point(
    topologies: &[serve::Topology],
    policy: &ServePolicy,
    process: ArrivalProcess,
    requests: usize,
    fault_rate: f64,
) -> ServeReport {
    let gpu = if fault_rate > 0.0 {
        Gpu::v100().with_fault_plan(FaultPlan::with_rate(SEED, fault_rate, FaultKind::EccError))
    } else {
        Gpu::v100()
    };
    let reqs = trace(process, requests);
    run(&gpu, topologies, policy, &reqs)
        .unwrap_or_else(|e| panic!("serving run errored (it must degrade instead): {e}"))
}

fn main() {
    let requests: usize = if has_flag("--full") { 1200 } else { 600 };
    let topologies = attention_topologies(SEQ, HEAD_DIM, SEED);
    let policy = ServePolicy::default();

    // Load sweep: the middle point is the gated "fixed offered load".
    let rates = [20_000.0f64, 60_000.0, 1_000_000.0];
    let mut table = Table::new(
        "servewall — serving tail latency vs offered load (simulated, deterministic)",
        &[
            "trace",
            "offered",
            "served",
            "shed",
            "rej",
            "late",
            "p50 us",
            "p99 us",
            "batches",
            "cache hits",
        ],
    );
    let mut reports = Vec::new();
    for &rate in &rates {
        let r = serve_point(
            &topologies,
            &policy,
            ArrivalProcess::Poisson { rate_per_s: rate },
            requests,
            0.0,
        );
        table.row(&[
            format!("poisson {}k/s", rate / 1e3),
            format!("{}", r.offered),
            format!("{}", r.served),
            format!("{}", r.shed),
            format!("{}", r.rejected),
            format!("{}", r.late),
            format!("{:.0}", r.latency.p50()),
            format!("{:.0}", r.latency.p99()),
            format!("{}", r.batches),
            format!("{}", r.cache_hits),
        ]);
        reports.push(r);
    }
    // One bursty trace (informational): mean rate near the fixed point but
    // instantaneous rate far over saturation.
    let bursty = serve_point(
        &topologies,
        &policy,
        ArrivalProcess::Bursty {
            rate_per_s: 400_000.0,
            on_us: 300.0,
            off_us: 1_700.0,
        },
        requests,
        0.0,
    );
    table.row(&[
        "bursty 400k/s (15% duty)".into(),
        format!("{}", bursty.offered),
        format!("{}", bursty.served),
        format!("{}", bursty.shed),
        format!("{}", bursty.rejected),
        format!("{}", bursty.late),
        format!("{:.0}", bursty.latency.p50()),
        format!("{:.0}", bursty.latency.p99()),
        format!("{}", bursty.batches),
        format!("{}", bursty.cache_hits),
    ]);

    // Tight-SLO point: a large queue (so the bound never masks policy) with
    // a small p99 budget — overload must surface as *backpressure shedding*
    // at the door, the queue-depth path having been covered above.
    let tight = ServePolicy {
        queue_capacity: 256,
        p99_budget_us: 300.0,
        ..policy.clone()
    };
    let slo = serve_point(
        &topologies,
        &tight,
        ArrivalProcess::Poisson {
            rate_per_s: rates[2],
        },
        requests,
        0.0,
    );
    table.row(&[
        "tight SLO 1000k/s (300us budget)".into(),
        format!("{}", slo.offered),
        format!("{}", slo.served),
        format!("{}", slo.shed),
        format!("{}", slo.rejected),
        format!("{}", slo.late),
        format!("{:.0}", slo.latency.p50()),
        format!("{:.0}", slo.latency.p99()),
        format!("{}", slo.batches),
        format!("{}", slo.cache_hits),
    ]);

    // Chaos variant at the fixed load: 1% fault rate, single attempt per
    // rung so every fault lands visibly on a lower rung.
    let chaos_policy = ServePolicy {
        dispatch: sputnik::DispatchPolicy {
            attempts_per_rung: 1,
        },
        ..policy.clone()
    };
    let chaos = serve_point(
        &topologies,
        &chaos_policy,
        ArrivalProcess::Poisson {
            rate_per_s: rates[1],
        },
        requests,
        0.01,
    );
    table.row(&[
        "chaos 60k/s + 1% faults".into(),
        format!("{}", chaos.offered),
        format!("{}", chaos.served),
        format!("{}", chaos.shed),
        format!("{}", chaos.rejected),
        format!("{}", chaos.late),
        format!("{:.0}", chaos.latency.p50()),
        format!("{:.0}", chaos.latency.p99()),
        format!("{}", chaos.batches),
        format!("{}", chaos.cache_hits),
    ]);
    table.print();
    println!(
        "chaos: {} faults injected, {} requests degraded, rungs {:?}",
        chaos.faults_injected, chaos.degraded, chaos.rung_counts
    );

    let mut rec = BenchRecord::new("servewall");
    rec.int("seq", SEQ as u64)
        .int("head_dim", HEAD_DIM as u64)
        .int("requests", requests as u64);
    for (i, r) in reports.iter().enumerate() {
        rec.float(format!("rate_l{i}"), rates[i], 0)
            .int(format!("served_l{i}"), r.served)
            .int(format!("shed_l{i}"), r.shed)
            .int(format!("rejected_l{i}"), r.rejected)
            .float(format!("p50_us_l{i}"), r.latency.p50(), 3)
            .float(format!("p99_us_l{i}"), r.latency.p99(), 3)
            .int(format!("goodput_l{i}"), r.goodput());
    }
    let fixed = &reports[1];
    rec.int("bursty_served", bursty.served)
        .int("bursty_shed", bursty.shed)
        .int("bursty_rejected", bursty.rejected)
        .float("bursty_p99_us", bursty.latency.p99(), 3)
        .int("slo_served", slo.served)
        .int("slo_shed", slo.shed)
        .float("slo_p99_us", slo.latency.p99(), 3)
        .int("offered", fixed.offered)
        .int("served", fixed.served)
        .int("lost", fixed.lost().unsigned_abs())
        .float("p99_us", fixed.latency.p99(), 3)
        .int("cache_hits", fixed.cache_hits)
        .int("max_queue_depth", fixed.max_queue_depth as u64)
        .int("chaos_offered", chaos.offered)
        .int("chaos_served", chaos.served)
        .int("chaos_lost", chaos.lost().unsigned_abs())
        .int("chaos_faults", chaos.faults_injected)
        .int("chaos_degraded", chaos.degraded)
        .float("chaos_p99_us", chaos.latency.p99(), 3)
        // Tail latency at the fixed load point. Simulated and deterministic,
        // so 5% headroom is generous — it absorbs intentional cost-model
        // tweaks, not noise.
        .gate("p99_us", Gate::AtMostBaseline(1.05, 0.0))
        // Conservation, pinned from outside the server.
        .gate("lost", Gate::Exact(0))
        // Topology-keyed windows must keep hitting the launch cache.
        .gate("cache_hits", Gate::Nonzero)
        // The tight-SLO point must keep shedding at the door: a zero here
        // means backpressure stopped firing.
        .gate("slo_shed", Gate::Nonzero)
        // Chaos: faults degrade requests; they never drop them.
        .gate("chaos_lost", Gate::Exact(0))
        .gate("chaos_faults", Gate::Nonzero)
        .gate("chaos_degraded", Gate::Nonzero)
        .finish();
}
