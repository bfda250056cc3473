//! `serve`: open-loop traffic from independent users through the serving
//! front door.
//!
//! Seeded Poisson traffic at three fixed rates runs through `serve::run`
//! with the default `ServePolicy` on the seq-256 attention topologies. Two
//! topologies mean almost every window is a `LaunchCache` hit that is
//! replayed functionally, so the work lands on the scheduler, the batched
//! dispatch ladder and per-window fingerprinting: a few keys, read-mostly.
//!
//! The cold pass is the three `serve::run` calls, each of which builds its
//! own cache. The warm pass dispatches the mid-rate trace's requests, in
//! full windows per (op, topology), against one cache that stays warm for
//! the whole process: the per-window device work of serving without the
//! scheduler and without a single miss.

use crate::harness::{bits_eq, repeat, seed_for, swizzle, timed, Args, Checks, HostTimes, Outcome};
use crate::spans::Recorder;
use crate::stats::{max_rate, median, tail_percentile, RateGrid};
use gpu_sim::{metrics, Gpu, LaunchCache};
use serve::{
    attention_topologies, generate, ArrivalProcess, OpKind, Request, ServePolicy, ServeReport,
    Topology, TrafficConfig,
};
use sparse::{CsrMatrix, Matrix};
use sputnik::{DispatchPolicy, Rung, SddmmKernel, SpmmKernel};

const SEQ: usize = 256;
const HEAD_DIM: usize = 64;
/// Requests per rate point: enough that p99 has at least 10 samples
/// beyond it even when no request is refused.
const REQUESTS: usize = 2000;
const DEADLINE_US: f64 = 5_000.0;
const SDDMM_FRACTION: f64 = 0.4;
/// Light, mid (servewall's gated point) and heavy offered load, req/s.
const RATES: [(&str, f64); 3] = [("light", 20_000.0), ("mid", 60_000.0), ("heavy", 120_000.0)];
/// The p99 limit of the max-rate search: servewall's tight-SLO budget.
const P99_LIMIT_US: f64 = 300.0;
/// The max-rate search grid (see the README for the measured p99 curve).
const GRID: RateGrid = RateGrid {
    start: 10_000.0,
    coarse: 1.25,
    fine: 1.04,
    cap: 2_000_000.0,
};
/// Set-up is well under a millisecond, so it repeats many times.
const SETUP_REPS: usize = 41;
const MIN_PASSES: usize = 8;
const MAX_PASSES: usize = 400;
const UNTRACED_PASSES: usize = 3;

const RUN_SPANS: [&str; 3] = ["serve.run.light", "serve.run.mid", "serve.run.heavy"];
const GEN_SPANS: [&str; 3] = [
    "serve.generate.light",
    "serve.generate.mid",
    "serve.generate.heavy",
];

fn traffic(seed: u64, rate_idx: usize, rate: f64) -> Vec<Request> {
    generate(&TrafficConfig {
        seed: seed_for(seed, 0x5E + rate_idx as u64),
        process: ArrivalProcess::Poisson { rate_per_s: rate },
        requests: REQUESTS,
        deadline_us: DEADLINE_US,
        sddmm_fraction: SDDMM_FRACTION,
        topologies: 2,
    })
}

struct Inputs {
    gpu: Gpu,
    topologies: Vec<Topology>,
    traces: Vec<Vec<Request>>,
}

fn setup(seed: u64, rec: &mut Recorder) -> Inputs {
    let topologies = rec.span("sparse.generate", || {
        attention_topologies(SEQ, HEAD_DIM, seed_for(seed, 0x70))
    });
    let traces = RATES
        .iter()
        .enumerate()
        .map(|(i, &(_, rate))| rec.span(GEN_SPANS[i], || traffic(seed, i, rate)))
        .collect();
    Inputs {
        gpu: Gpu::v100(),
        topologies,
        traces,
    }
}

fn serve_all(inputs: &Inputs, policy: &ServePolicy, rec: &mut Recorder) -> Vec<ServeReport> {
    inputs
        .traces
        .iter()
        .enumerate()
        .map(|(i, reqs)| {
            rec.span(RUN_SPANS[i], || {
                serve::run(&inputs.gpu, &inputs.topologies, policy, reqs)
                    .unwrap_or_else(|e| panic!("serve: run failed: {e}"))
            })
        })
        .collect()
}

/// Nearest-rank percentile of a report with refusals counted as misses.
fn percentile(r: &ServeReport, p: f64) -> Option<f64> {
    let served = r.latency.count();
    tail_percentile(served, r.shed + r.rejected, p, |rank| {
        // The recorder's own nearest rank of `(rank - 0.5) / served`
        // is exactly `rank`.
        let q = (rank as f64 - 0.5) / served as f64 * 100.0;
        r.latency.percentile(q).unwrap_or(f64::NAN)
    })
}

fn same_report(a: &ServeReport, b: &ServeReport) -> bool {
    (
        a.offered,
        a.served,
        a.shed,
        a.rejected,
        a.batches,
        a.max_queue_depth,
    ) == (
        b.offered,
        b.served,
        b.shed,
        b.rejected,
        b.batches,
        b.max_queue_depth,
    ) && a.sim_end_us.to_bits() == b.sim_end_us.to_bits()
        && a.latency.p99().to_bits() == b.latency.p99().to_bits()
        && a.latency.p50().to_bits() == b.latency.p50().to_bits()
}

/// Single-launch outputs the dispatched windows must equal bit for bit.
struct Reference {
    spmm: Vec<Matrix<f32>>,
    sddmm: Vec<CsrMatrix<f32>>,
}

/// One warm window per (op, topology) key, `max_batch` items each, in the
/// order the mid-rate trace first asks for them; then as many more windows
/// as the trace's request count per key fills.
fn warm_windows(trace: &[Request], max_batch: usize) -> Vec<(OpKind, usize, usize)> {
    let mut counts = [[0usize; 2]; 2];
    for r in trace {
        counts[usize::from(r.op == OpKind::Sddmm)][r.topology] += 1;
    }
    let mut windows = Vec::new();
    for (op_idx, per_topo) in counts.iter().enumerate() {
        let op = if op_idx == 0 {
            OpKind::Spmm
        } else {
            OpKind::Sddmm
        };
        for (topo, &count) in per_topo.iter().enumerate() {
            let mut left = count;
            while left > 0 {
                let items = left.min(max_batch);
                windows.push((op, topo, items));
                left -= items;
            }
        }
    }
    windows
}

/// Dispatch the warm windows; returns how many items failed their check.
fn warm_pass(
    inputs: &Inputs,
    cache: &LaunchCache,
    windows: &[(OpKind, usize, usize)],
    reference: &Reference,
    dispatch: &DispatchPolicy,
    rec: &mut Recorder,
) -> u64 {
    let mut bad = 0u64;
    for &(op, t, items) in windows {
        let topo = &inputs.topologies[t];
        match op {
            OpKind::Spmm => {
                let bs: Vec<&Matrix<f32>> = (0..items).map(|_| &topo.dense).collect();
                let d = rec.span("core.dispatch_window", || {
                    sputnik::spmm_batched_dispatch(
                        &inputs.gpu,
                        cache,
                        &topo.mask,
                        &bs,
                        topo.spmm_cfg,
                        dispatch,
                    )
                });
                match d {
                    Ok(d) => {
                        bad += d
                            .outputs
                            .iter()
                            .zip(&d.reports)
                            .filter(|(o, r)| {
                                r.served_by != Rung::Sputnik
                                    || !bits_eq(o.as_slice(), reference.spmm[t].as_slice())
                            })
                            .count() as u64;
                        bad += items as u64 - d.cache_hits.min(items as u64);
                    }
                    Err(_) => bad += items as u64,
                }
            }
            OpKind::Sddmm => {
                let pairs: Vec<(&Matrix<f32>, &Matrix<f32>)> =
                    (0..items).map(|_| (&topo.lhs, &topo.rhs)).collect();
                let d = rec.span("core.dispatch_window", || {
                    sputnik::sddmm_batched_dispatch(
                        &inputs.gpu,
                        cache,
                        &pairs,
                        &topo.mask,
                        topo.sddmm_cfg,
                        dispatch,
                    )
                });
                match d {
                    Ok(d) => {
                        bad += d
                            .outputs
                            .iter()
                            .zip(&d.reports)
                            .filter(|(o, r)| {
                                r.served_by != Rung::Sputnik
                                    || !bits_eq(o.values(), reference.sddmm[t].values())
                            })
                            .count() as u64;
                        bad += items as u64 - d.cache_hits.min(items as u64);
                    }
                    Err(_) => bad += items as u64,
                }
            }
        }
    }
    bad
}

/// The traced run's stage calls on the serve pass's four distinct kernels
/// (two topologies, two ops): static audit, profile, functional launch and
/// functional replay. The dispatch ladder does not sanitize, so neither do
/// these.
fn stages(inputs: &Inputs, reference: &Reference, rec: &mut Recorder, checks: &mut Checks) {
    let gpu = &inputs.gpu;
    for (t, topo) in inputs.topologies.iter().enumerate() {
        let sw = swizzle(&topo.mask, topo.spmm_cfg.row_swizzle);
        let mut out = Matrix::<f32>::zeros(topo.mask.rows(), topo.dense.cols());
        {
            let kernel = SpmmKernel::new(&topo.mask, &topo.dense, &mut out, &sw, topo.spmm_cfg);
            rec.span("gpu-sim.audit", || gpu.audit(&kernel));
            rec.span("gpu-sim.profile", || gpu.profile(&kernel));
            rec.span("gpu-sim.launch", || gpu.launch(&kernel));
            rec.span("gpu-sim.replay", || gpu.replay_functional(&kernel));
        }
        checks.check(
            bits_eq(out.as_slice(), reference.spmm[t].as_slice()),
            || format!("serve: staged SpMM launch on {} differs", topo.name),
        );

        let sw = swizzle(&topo.mask, topo.sddmm_cfg.row_swizzle);
        let mut vals = vec![0.0f32; topo.mask.nnz()];
        {
            let kernel = SddmmKernel::new(
                &topo.lhs,
                &topo.rhs,
                &topo.mask,
                &mut vals,
                &sw,
                topo.sddmm_cfg,
            );
            rec.span("gpu-sim.audit", || gpu.audit(&kernel));
            rec.span("gpu-sim.profile", || gpu.profile(&kernel));
            rec.span("gpu-sim.launch", || gpu.launch(&kernel));
            rec.span("gpu-sim.replay", || gpu.replay_functional(&kernel));
        }
        checks.check(bits_eq(&vals, reference.sddmm[t].values()), || {
            format!("serve: staged SDDMM launch on {} differs", topo.name)
        });
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut host = HostTimes::default();
    // A traced run records the set-up spans too.
    let mut rec = Recorder::new(args.trace);
    // Each repetition is dropped before the next, and the last is kept.
    for _ in 1..SETUP_REPS {
        host.setup.push(timed(|| setup(args.seed, &mut rec)).1);
    }
    let (inputs, t) = timed(|| setup(args.seed, &mut rec));
    host.setup.push(t);
    rec.set_enabled(false);
    let policy = ServePolicy::default();
    let mut checks = Checks::default();

    // Untimed warm-up, which is also the reference every pass must repeat.
    let reference_runs = serve_all(&inputs, &policy, &mut rec);
    let reference = Reference {
        spmm: inputs
            .topologies
            .iter()
            .map(|t| sputnik::spmm(&inputs.gpu, &t.mask, &t.dense, t.spmm_cfg).0)
            .collect(),
        sddmm: inputs
            .topologies
            .iter()
            .map(|t| sputnik::sddmm(&inputs.gpu, &t.lhs, &t.rhs, &t.mask, t.sddmm_cfg).0)
            .collect(),
    };
    let windows = warm_windows(&inputs.traces[1], policy.max_batch);
    let warm_cache = LaunchCache::new();
    let warm_bad = warm_pass(
        &inputs,
        &warm_cache,
        &windows,
        &reference,
        &policy.dispatch,
        &mut rec,
    );
    // The very first window of each key misses the fresh cache.
    checks.check(warm_bad <= 4, || {
        format!("serve: warm-up dispatch had {warm_bad} bad items")
    });
    for (r, &(name, _)) in reference_runs.iter().zip(&RATES) {
        checks.check(r.lost() == 0, || {
            format!("serve {name}: served + shed + rejected != offered")
        });
    }

    let traced_from = if args.trace {
        UNTRACED_PASSES
    } else {
        usize::MAX
    };
    let min_passes = MIN_PASSES + if args.trace { UNTRACED_PASSES } else { 0 };
    let mut untraced_cold = Vec::new();
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut traced = 0usize;
    repeat(args.seconds, min_passes, MAX_PASSES, |i| {
        rec.set_enabled(i >= traced_from);
        let m = metrics::global();
        let (h0, m0) = (m.get("cache_hits"), m.get("cache_misses"));
        rec.begin("pass.cold");
        let (runs, t_cold) = timed(|| serve_all(&inputs, &policy, &mut rec));
        rec.end("pass.cold");
        let (h1, m1) = (m.get("cache_hits"), m.get("cache_misses"));
        rec.begin("pass.warm");
        let (bad, t_warm) = timed(|| {
            warm_pass(
                &inputs,
                &warm_cache,
                &windows,
                &reference,
                &policy.dispatch,
                &mut rec,
            )
        });
        rec.end("pass.warm");

        for ((r, reference), &(name, _)) in runs.iter().zip(&reference_runs).zip(&RATES) {
            checks.check(r.lost() == 0, || {
                format!("serve {name} pass {i}: served + shed + rejected != offered")
            });
            checks.check(same_report(r, reference), || {
                format!("serve {name} pass {i}: report differs from the reference run")
            });
        }
        checks.check(bad == 0, || {
            format!("serve: warm pass {i} had {bad} bad items")
        });

        host.cold.push(t_cold);
        if i < traced_from {
            host.warm.push(t_warm);
            untraced_cold.push(t_cold);
        } else {
            traced += 1;
            hits += h1 - h0;
            lookups += (h1 - h0) + (m1 - m0);
            rec.begin("stages");
            stages(&inputs, &reference, &mut rec, &mut checks);
            rec.end("stages");
        }
    });

    let mid = &reference_runs[1];
    let p99_mid = percentile(mid, 99.0);
    checks.check(p99_mid.is_some_and(f64::is_finite), || {
        format!("serve: mid-rate p99 is not measurable ({p99_mid:?})")
    });
    let mut outcome = Outcome::new(&checks, p99_mid.unwrap_or(f64::NAN), &host);
    if args.trace {
        checks.check(rec.mismatches() == 0, || "serve: unbalanced spans".into());
        // The max-rate search: sim-clock only, so it runs once, untraced.
        let (max_rps, probes) = max_rate(GRID, P99_LIMIT_US, |rate| {
            let reqs = traffic(args.seed, 9, rate);
            let r = serve::run(&inputs.gpu, &inputs.topologies, &policy, &reqs)
                .unwrap_or_else(|e| panic!("serve: max-rate probe failed: {e}"));
            percentile(&r, 99.0).unwrap_or(f64::INFINITY)
        });
        eprintln!("[serve: max-rate search ran {probes} probes]");
        let selfs = rec.self_time_by_name();
        let per_pass = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / traced.max(1) as f64;
        let setup_total = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / SETUP_REPS as f64;
        let traced_cold = &host.cold[untraced_cold.len()..];
        let windows_run = rec
            .spans()
            .iter()
            .filter(|s| s.name == "core.dispatch_window")
            .count();
        outcome.set("sparse.generate_s", setup_total("sparse.generate"));
        outcome.set("gpu-sim.audit_s", per_pass("gpu-sim.audit"));
        outcome.set("gpu-sim.profile_s", per_pass("gpu-sim.profile"));
        outcome.set("gpu-sim.launch_s", per_pass("gpu-sim.launch"));
        outcome.set("gpu-sim.replay_s", per_pass("gpu-sim.replay"));
        outcome.set(
            "gpu-sim.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
        );
        outcome.set("gpu-sim.cache_entries", warm_cache.len() as f64);
        outcome.set(
            "core.dispatch_window_s",
            selfs.get("core.dispatch_window").copied().unwrap_or(0.0) / windows_run.max(1) as f64,
        );
        outcome.set(
            "serve.p50_us.mid",
            percentile(mid, 50.0).unwrap_or(f64::NAN),
        );
        for (i, (r, &(name, _))) in reference_runs.iter().zip(&RATES).enumerate() {
            let key = |metric: &str| format!("serve.{metric}.{name}");
            outcome.set(key("p99_us"), percentile(r, 99.0).unwrap_or(f64::NAN));
            outcome.set(key("offered"), r.offered as f64);
            outcome.set(key("served"), r.served as f64);
            outcome.set(key("shed"), r.shed as f64);
            outcome.set(key("rejected"), r.rejected as f64);
            outcome.set(key("batches"), r.batches as f64);
            outcome.set(key("mean_batch"), r.served as f64 / r.batches.max(1) as f64);
            outcome.set(key("max_queue_depth"), r.max_queue_depth as f64);
            outcome.set(key("generate_s"), setup_total(GEN_SPANS[i]));
            outcome.set(key("run_s"), per_pass(RUN_SPANS[i]));
            // Arrivals follow the simulated clock, so the generator is
            // never late.
            outcome.set(key("generator_late_us"), 0.0);
        }
        outcome.set("serve.max_rate_rps", max_rps.unwrap_or(0.0));
        outcome.set(
            "trace.overhead_frac",
            median(traced_cold) / median(&untraced_cold) - 1.0,
        );
        outcome.set(
            "trace.coverage",
            (rec.coverage("pass.cold") + rec.coverage("pass.warm")) / 2.0,
        );
        outcome.spans_path = crate::harness::write_spans(&args.workload, args.seed, &rec);
    }
    outcome.attempted = checks.attempted;
    outcome.failed = checks.failed;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_windows_cover_every_request_once() {
        let trace = traffic(3, 1, 60_000.0);
        let windows = warm_windows(&trace, 8);
        let items: usize = windows.iter().map(|w| w.2).sum();
        assert_eq!(items, trace.len());
        assert!(windows.iter().all(|w| (1..=8).contains(&w.2)));
    }
}
