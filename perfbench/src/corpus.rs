//! `corpus`: the paper's own workload, in profile mode.
//!
//! A fixed 48-problem sample of the deep-learning corpus at both batch
//! sizes. Every (problem, batch) runs Sputnik SpMM and SDDMM through the
//! cached profile entry points with heuristic configs. The cold pass uses a
//! fresh `LaunchCache`; the warm pass reuses it, so every warm launch is a
//! fingerprint plus a lookup. cuSPARSE runs once per process, untimed, as
//! the Table I anchor.
//!
//! The sample's shapes are fixed so that every seed does the same amount of
//! work; `--seed` draws the matrices' contents.

use crate::harness::{repeat, seed_for, swizzle, timed, Args, Checks, HostTimes, Outcome};
use crate::spans::Recorder;
use crate::stats::{geomean, median, paper_err_pct};
use gpu_sim::{metrics, Fingerprint, Gpu, LaunchCache, LaunchStats};
use sparse::{dataset, gen, CsrMatrix};
use sputnik::{SddmmConfig, SddmmKernel, SpmmConfig, SpmmKernel};

const COUNT: usize = 48;
const SAMPLE_SEED: u64 = 17;
const SETUP_REPS: usize = 5;
/// Timed passes per run: at least this many, and no more than the cap.
const MIN_PASSES: usize = 8;
const MAX_PASSES: usize = 400;
/// Untraced passes a traced run times first, to measure its own overhead.
const UNTRACED_PASSES: usize = 3;

struct Problem {
    a: CsrMatrix<f32>,
    cols: usize,
    /// N at the inference and the training batch size.
    ns: [usize; 2],
}

fn setup(seed: u64) -> (Gpu, Vec<Problem>) {
    let problems = dataset::dl_corpus_sample(COUNT, SAMPLE_SEED)
        .iter()
        .map(|spec| {
            let (inference, training) = spec.batch_sizes();
            let a = gen::with_cov(
                spec.rows,
                spec.cols,
                spec.sparsity,
                spec.method.row_cov(),
                spec.seed() ^ seed_for(seed, 0xC0),
            );
            Problem {
                a,
                cols: spec.cols,
                ns: [spec.n(inference), spec.n(training)],
            }
        })
        .collect();
    (Gpu::v100(), problems)
}

#[derive(PartialEq)]
struct PassOut {
    spmm: Vec<LaunchStats>,
    sddmm: Vec<LaunchStats>,
    hits: usize,
}

fn pass(gpu: &Gpu, cache: &LaunchCache, problems: &[Problem], rec: &mut Recorder) -> PassOut {
    let mut out = PassOut {
        spmm: Vec::with_capacity(2 * problems.len()),
        sddmm: Vec::with_capacity(2 * problems.len()),
        hits: 0,
    };
    for p in problems {
        for &n in &p.ns {
            let (s, hit) = rec.span("core.spmm", || {
                sputnik::spmm_profile_cached::<f32>(
                    gpu,
                    cache,
                    &p.a,
                    p.cols,
                    n,
                    SpmmConfig::heuristic::<f32>(n),
                )
            });
            out.hits += usize::from(hit);
            out.spmm.push(s);
            let (s, hit) = rec.span("core.sddmm", || {
                sputnik::sddmm_profile_cached::<f32>(
                    gpu,
                    cache,
                    &p.a,
                    n,
                    SddmmConfig::heuristic::<f32>(n),
                )
            });
            out.hits += usize::from(hit);
            out.sddmm.push(s);
        }
    }
    out
}

/// The traced run's stage calls on the pass's distinct kernels: operand
/// fingerprints, cache key plus lookup on the warm cache, static audit and
/// a fresh profile. Each lookup must hit and each profile must reproduce
/// the cold pass's statistics.
fn stages(
    gpu: &Gpu,
    cache: &LaunchCache,
    problems: &[Problem],
    cold: &PassOut,
    rec: &mut Recorder,
    checks: &mut Checks,
) {
    let mut i = 0;
    for p in problems {
        for &n in &p.ns {
            let fp = rec.span("sparse.fingerprint", || p.a.fingerprint());
            let key_fp = Fingerprint::new()
                .write_u64(fp)
                .write_u64(n as u64)
                .finish();

            let cfg = SpmmConfig::heuristic::<f32>(n);
            let sw = swizzle(&p.a, cfg.row_swizzle);
            let kernel = SpmmKernel::<f32>::for_profile(&p.a, n, &sw, cfg);
            let hit = rec.span("gpu-sim.cache_lookup", || {
                cache.lookup(&gpu.cache_key(&kernel, key_fp))
            });
            checks.check(hit.as_ref() == Some(&cold.spmm[i]), || {
                format!("corpus: SpMM lookup #{i} missed the warm cache")
            });
            rec.span("gpu-sim.audit", || gpu.audit(&kernel));
            let s = rec.span("gpu-sim.profile", || gpu.profile(&kernel));
            checks.check(s == cold.spmm[i], || {
                format!("corpus: SpMM re-profile #{i} differs")
            });

            let cfg = SddmmConfig::heuristic::<f32>(n);
            let sw = swizzle(&p.a, cfg.row_swizzle);
            let kernel = SddmmKernel::<f32>::for_profile(&p.a, n, &sw, cfg);
            let hit = rec.span("gpu-sim.cache_lookup", || {
                cache.lookup(&gpu.cache_key(&kernel, key_fp))
            });
            checks.check(hit.as_ref() == Some(&cold.sddmm[i]), || {
                format!("corpus: SDDMM lookup #{i} missed the warm cache")
            });
            rec.span("gpu-sim.audit", || gpu.audit(&kernel));
            let s = rec.span("gpu-sim.profile", || gpu.profile(&kernel));
            checks.check(s == cold.sddmm[i], || {
                format!("corpus: SDDMM re-profile #{i} differs")
            });
            i += 1;
        }
    }
}

fn sim_us(out: &PassOut) -> (f64, f64) {
    (
        out.spmm.iter().map(|s| s.time_us).sum(),
        out.sddmm.iter().map(|s| s.time_us).sum(),
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut host = HostTimes::default();
    // Each repetition is dropped before the next, and the last is kept.
    for _ in 1..SETUP_REPS {
        host.setup.push(timed(|| setup(args.seed)).1);
    }
    let ((gpu, problems), t) = timed(|| setup(args.seed));
    host.setup.push(t);
    let launches = 2 * problems.len();
    let mut checks = Checks::default();
    let mut rec = Recorder::new(false);

    // Untimed warm-up, which is also the reference every pass must repeat.
    let reference = pass(&gpu, &LaunchCache::new(), &problems, &mut rec);

    // The Table I anchor, once per process and untimed.
    let cusparse: Vec<f64> = problems
        .iter()
        .flat_map(|p| p.ns.iter().map(move |&n| (p, n)))
        .map(|(p, n)| baselines::cusparse_spmm_profile::<f32>(&gpu, &p.a, n).time_us)
        .collect();
    let speedups: Vec<f64> = cusparse
        .iter()
        .zip(&reference.spmm)
        .map(|(c, s)| c / s.time_us)
        .collect();

    let traced_from = if args.trace {
        UNTRACED_PASSES
    } else {
        usize::MAX
    };
    let min_passes = MIN_PASSES + if args.trace { UNTRACED_PASSES } else { 0 };
    let mut untraced_cold = Vec::new();
    let (mut dedup_total, mut dedup_run, mut entries) = (0u64, 0u64, 0usize);
    let (mut warm_hits, mut warm_lookups) = (0u64, 0u64);
    let mut traced = 0usize;
    repeat(args.seconds, min_passes, MAX_PASSES, |i| {
        rec.set_enabled(i >= traced_from);
        let m = metrics::global();
        let cache = LaunchCache::new();
        let (dt0, dr0) = (m.get("dedup_blocks_total"), m.get("dedup_blocks_executed"));
        rec.begin("pass.cold");
        let (cold, t_cold) = timed(|| pass(&gpu, &cache, &problems, &mut rec));
        rec.end("pass.cold");
        let (dt1, dr1) = (m.get("dedup_blocks_total"), m.get("dedup_blocks_executed"));
        let (h0, m0) = (m.get("cache_hits"), m.get("cache_misses"));
        rec.begin("pass.warm");
        let (warm, t_warm) = timed(|| pass(&gpu, &cache, &problems, &mut rec));
        rec.end("pass.warm");
        let (h1, m1) = (m.get("cache_hits"), m.get("cache_misses"));

        checks.check(cold == reference && cold.hits == 0, || {
            format!("corpus: cold pass {i} differs from the reference pass")
        });
        checks.check(warm.spmm == cold.spmm && warm.sddmm == cold.sddmm, || {
            format!("corpus: warm pass {i} stats differ from the cold pass")
        });
        checks.check(warm.hits == 2 * launches, || {
            format!(
                "corpus: warm pass {i} hit {} of {}",
                warm.hits,
                2 * launches
            )
        });

        if i < traced_from {
            host.cold.push(t_cold);
            host.warm.push(t_warm);
            untraced_cold.push(t_cold);
        } else {
            traced += 1;
            dedup_total += dt1 - dt0;
            dedup_run += dr1 - dr0;
            warm_hits += h1 - h0;
            warm_lookups += (h1 - h0) + (m1 - m0);
            entries = cache.len();
            host.cold.push(t_cold);
            rec.begin("stages");
            stages(&gpu, &cache, &problems, &cold, &mut rec, &mut checks);
            rec.end("stages");
        }
    });
    let (spmm_us, sddmm_us) = sim_us(&reference);
    let mut outcome = Outcome::new(&checks, spmm_us + sddmm_us, &host);
    if args.trace {
        checks.check(rec.mismatches() == 0, || "corpus: unbalanced spans".into());
        let per_pass = |name: &str| {
            rec.self_time_by_name().get(name).copied().unwrap_or(0.0) / traced.max(1) as f64
        };
        let traced_cold = &host.cold[untraced_cold.len()..];
        outcome.set("sparse.generate_s", median(&host.setup));
        outcome.set("sparse.fingerprint_s", per_pass("sparse.fingerprint"));
        outcome.set("gpu-sim.profile_s", per_pass("gpu-sim.profile"));
        outcome.set("gpu-sim.audit_s", per_pass("gpu-sim.audit"));
        outcome.set("gpu-sim.cache_lookup_s", per_pass("gpu-sim.cache_lookup"));
        outcome.set(
            "gpu-sim.dedup_ratio",
            dedup_run as f64 / dedup_total.max(1) as f64,
        );
        outcome.set(
            "gpu-sim.blocks_simulated",
            dedup_run as f64 / traced.max(1) as f64,
        );
        outcome.set(
            "gpu-sim.cache_hit_ratio",
            warm_hits as f64 / warm_lookups.max(1) as f64,
        );
        outcome.set("gpu-sim.cache_entries", entries as f64);
        outcome.set("core.spmm_sim_us", spmm_us);
        outcome.set("core.sddmm_sim_us", sddmm_us);
        outcome.set("core.speedup_vs_cusparse", geomean(&speedups));
        outcome.set("core.paper_err_pct", paper_err_pct(&speedups));
        outcome.set("baselines.cusparse_sim_us", cusparse.iter().sum());
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
