//! `attention`: one sparse-Transformer block at seq 4096, functional.
//!
//! Three parts, each through its public entry point:
//!
//! - `sparse_attention_fused` with a `LaunchCache` (band-128 mask);
//! - fleetwall's transformer problem, its SpMM and SDDMM row-sharded over
//!   an 8-device NVLink `Fleet`;
//! - an FFN `joint_spmm` over ReLU activations at zero fraction 0.8, with
//!   its `PatternLut::build` inside the pass.
//!
//! The cold pass uses a fresh cache, so every new key goes through the
//! static audit and the dynamic sanitizer; the warm pass reuses it. The
//! joint launch is uncached, so it costs the same in both passes; its
//! problem is sized so that it does not swamp the other layers.

use crate::harness::{bits_eq, repeat, seed_for, swizzle, timed, Args, Checks, HostTimes, Outcome};
use crate::spans::Recorder;
use crate::stats::median;
use gpu_sim::{metrics, Fingerprint, Fleet, Gpu, LaunchCache, LaunchStats, SddmmSoftmaxSpmmKernel};
use sparse::{gen, CsrMatrix, Matrix, PatternGranularity, PatternLut};
use sputnik::{
    joint_heuristic, plan_row_shards, row_slice, sddmm_row_sharded, sparse_attention_fused,
    sparse_attention_unfused, spmm_row_sharded, JointSpmmKernel, SddmmConfig, SddmmKernel,
    SpmmConfig, SpmmKernel,
};

const SEQ: usize = 4096;
/// The fused part: fusewall's band-attention shape at seq 4096.
const FUSED_BAND: usize = 128;
const FUSED_OFF_DIAG: f64 = 0.95;
const FUSED_D: usize = 64;
/// The sharded part: fleetwall's transformer problem.
const FLEET_D: usize = 128;
const FLEET_BAND: usize = 640;
const FLEET_OFF_DIAG: f64 = 0.995;
const DEVICES: usize = 8;
/// The joint part: jointwall's gate point at a quarter of its size.
const JOINT_M: usize = 512;
const JOINT_K: usize = 2048;
const JOINT_N: usize = 1024;
const JOINT_WEIGHT_SPARSITY: f64 = 0.95;
const JOINT_ZERO_FRAC: f64 = 0.8;

const SETUP_REPS: usize = 5;
const MIN_PASSES: usize = 5;
const MAX_PASSES: usize = 200;
const UNTRACED_PASSES: usize = 2;

struct Inputs {
    gpu: Gpu,
    mask: CsrMatrix<f32>,
    q: Matrix<f32>,
    k: Matrix<f32>,
    v: Matrix<f32>,
    scale: f32,
    /// The sharded problem: `a` is the attention-weight matrix, `b` the
    /// values; the SDDMM samples `lhs · rhsᵀ` on `a`'s topology.
    a: CsrMatrix<f32>,
    b: Matrix<f32>,
    lhs: Matrix<f32>,
    rhs: Matrix<f32>,
    spmm_cfg: SpmmConfig,
    sddmm_cfg: SddmmConfig,
    weights: CsrMatrix<f32>,
    acts: Matrix<f32>,
    joint_cfg: SpmmConfig,
}

fn setup(seed: u64) -> Inputs {
    let mask = gen::attention_mask(SEQ, FUSED_BAND, FUSED_OFF_DIAG, seed_for(seed, 1));
    let problem = dnn::transformer_attention_problem(
        SEQ,
        FLEET_D,
        FLEET_BAND,
        FLEET_OFF_DIAG,
        seed_for(seed, 2),
    );
    Inputs {
        gpu: Gpu::v100(),
        q: Matrix::<f32>::random(SEQ, FUSED_D, seed_for(seed, 3)),
        k: Matrix::<f32>::random(SEQ, FUSED_D, seed_for(seed, 4)),
        v: Matrix::<f32>::random(SEQ, FUSED_D, seed_for(seed, 5)),
        scale: 1.0 / (FUSED_D as f32).sqrt(),
        mask,
        lhs: Matrix::<f32>::random(SEQ, FLEET_D, seed_for(seed, 6)),
        rhs: Matrix::<f32>::random(SEQ, FLEET_D, seed_for(seed, 7)),
        a: problem.a,
        b: problem.b,
        spmm_cfg: problem.cfg,
        sddmm_cfg: SddmmConfig::heuristic::<f32>(FLEET_D),
        weights: gen::uniform(JOINT_M, JOINT_K, JOINT_WEIGHT_SPARSITY, seed_for(seed, 8)),
        acts: gen::activations(JOINT_K, JOINT_N, JOINT_ZERO_FRAC, seed_for(seed, 9)),
        joint_cfg: joint_heuristic::<f32>(JOINT_N),
    }
}

struct PassOut {
    context: Matrix<f32>,
    fused: bool,
    fused_us: f64,
    plan_tag: String,
    configs: sputnik::AttentionConfigs,
    spmm: sputnik::ShardedRun<Matrix<f32>>,
    sddmm: sputnik::ShardedRun<CsrMatrix<f32>>,
    joint: Matrix<f32>,
    joint_stats: LaunchStats,
    lut_dead: f64,
}

impl PassOut {
    fn sim_us(&self) -> f64 {
        self.fused_us
            + self.spmm.sync.makespan_us
            + self.sddmm.sync.makespan_us
            + self.joint_stats.time_us
    }
}

fn pass(inp: &Inputs, cache: &LaunchCache, rec: &mut Recorder) -> PassOut {
    let f = rec.span("core.fused", || {
        sparse_attention_fused(
            &inp.gpu,
            &inp.q,
            &inp.k,
            &inp.v,
            &inp.mask,
            inp.scale,
            Some(cache),
            None,
        )
    });
    let spmm = rec.span("core.shard_spmm", || {
        spmm_row_sharded(
            &mut Fleet::v100(DEVICES),
            cache,
            &inp.a,
            &inp.b,
            inp.spmm_cfg,
        )
        .unwrap_or_else(|e| panic!("attention: sharded SpMM failed: {e}"))
    });
    let sddmm = rec.span("core.shard_sddmm", || {
        sddmm_row_sharded(
            &mut Fleet::v100(DEVICES),
            cache,
            &inp.lhs,
            &inp.rhs,
            &inp.a,
            inp.sddmm_cfg,
        )
        .unwrap_or_else(|e| panic!("attention: sharded SDDMM failed: {e}"))
    });
    let lut = rec.span("sparse.lut_build", || {
        PatternLut::build(&inp.acts, PatternGranularity::Fine)
    });
    let (joint, joint_stats) = rec.span("core.joint", || {
        sputnik::joint_spmm(&inp.gpu, &inp.weights, &inp.acts, &lut, inp.joint_cfg)
    });
    PassOut {
        context: f.context,
        fused: f.decision.fused,
        fused_us: f.time.total_us(),
        plan_tag: f.decision.plan_tag,
        configs: f.configs,
        spmm,
        sddmm,
        joint,
        joint_stats,
        lut_dead: lut.dead_fraction(),
    }
}

/// Single-device references the pass outputs must equal bit for bit.
struct Reference {
    context: Matrix<f32>,
    spmm: Matrix<f32>,
    spmm_us: f64,
    sddmm: CsrMatrix<f32>,
    sddmm_us: f64,
    weight_only: Matrix<f32>,
}

fn reference(inp: &Inputs, first: &PassOut) -> Reference {
    let (context, _) = sparse_attention_unfused(
        &inp.gpu,
        &inp.q,
        &inp.k,
        &inp.v,
        &inp.mask,
        inp.scale,
        &first.configs,
    )
    .unwrap_or_else(|e| panic!("attention: unfused reference failed: {e}"));
    let (spmm, s1) = sputnik::spmm(&inp.gpu, &inp.a, &inp.b, inp.spmm_cfg);
    let (sddmm, s2) = sputnik::sddmm(&inp.gpu, &inp.lhs, &inp.rhs, &inp.a, inp.sddmm_cfg);
    let (weight_only, _) = sputnik::spmm(&inp.gpu, &inp.weights, &inp.acts, inp.joint_cfg);
    Reference {
        context,
        spmm,
        spmm_us: s1.time_us,
        sddmm,
        sddmm_us: s2.time_us,
        weight_only,
    }
}

fn check_pass(out: &PassOut, first: &PassOut, r: &Reference, label: &str, checks: &mut Checks) {
    checks.check(out.fused, || {
        format!("attention {label}: planner did not fuse")
    });
    checks.check(
        bits_eq(out.context.as_slice(), r.context.as_slice()),
        || format!("attention {label}: fused context differs from the unfused pipeline"),
    );
    checks.check(
        bits_eq(out.spmm.output.as_slice(), r.spmm.as_slice()),
        || format!("attention {label}: sharded SpMM differs from single-device SpMM"),
    );
    checks.check(
        bits_eq(out.sddmm.output.values(), r.sddmm.values())
            && out.sddmm.output.same_pattern(&r.sddmm),
        || format!("attention {label}: sharded SDDMM differs from single-device SDDMM"),
    );
    checks.check(
        bits_eq(out.joint.as_slice(), r.weight_only.as_slice()),
        || format!("attention {label}: joint SpMM differs from weight-only SpMM"),
    );
    checks.check(out.sim_us().to_bits() == first.sim_us().to_bits(), || {
        format!(
            "attention {label}: simulated time {} != {}",
            out.sim_us(),
            first.sim_us()
        )
    });
}

/// Run every gpu-sim stage on one functional kernel: static audit,
/// sanitizer, profile, launch and functional replay, plus the cache key
/// and lookup on the warm cache.
fn stage_kernel(
    gpu: &Gpu,
    cache: &LaunchCache,
    fp: u64,
    kernel: &dyn gpu_sim::Kernel,
    rec: &mut Recorder,
    checks: &mut Checks,
) {
    rec.span("gpu-sim.cache_lookup", || {
        cache.lookup(&gpu.cache_key(kernel, fp))
    });
    rec.span("gpu-sim.audit", || gpu.audit(kernel));
    let sanitized = rec.span("gpu-sim.sanitize", || gpu.sanitize(kernel));
    checks.check(sanitized.as_ref().is_ok_and(|(_, r)| r.clean()), || {
        format!("attention: sanitizer flagged {}", kernel.name())
    });
    rec.span("gpu-sim.profile", || gpu.profile(kernel));
    rec.span("gpu-sim.launch", || gpu.launch(kernel));
    rec.span("gpu-sim.replay", || gpu.replay_functional(kernel));
}

/// The traced run's stage calls on the pass's distinct kernels: the eight
/// SpMM and eight SDDMM shards, the fused kernel and the joint kernel.
fn stages(
    inp: &Inputs,
    cache: &LaunchCache,
    out: &PassOut,
    rec: &mut Recorder,
    checks: &mut Checks,
) {
    let gpu = &inp.gpu;
    let n = inp.b.cols();
    for (r0, r1) in plan_row_shards(&inp.a, DEVICES) {
        if r0 == r1 {
            continue;
        }
        let shard = row_slice(&inp.a, r0, r1)
            .unwrap_or_else(|e| panic!("attention: row slice failed: {e}"));
        let fp = rec.span("sparse.fingerprint", || shard.fingerprint());

        let sw = swizzle(&shard, inp.spmm_cfg.row_swizzle);
        let mut c = Matrix::<f32>::zeros(shard.rows(), n);
        let kernel = SpmmKernel::new(&shard, &inp.b, &mut c, &sw, inp.spmm_cfg);
        let key = Fingerprint::new()
            .write_u64(fp)
            .write_u64(n as u64)
            .finish();
        stage_kernel(gpu, cache, key, &kernel, rec, checks);

        let k = inp.lhs.cols();
        let lhs = Matrix::from_vec(r1 - r0, k, inp.lhs.as_slice()[r0 * k..r1 * k].to_vec());
        let sw = swizzle(&shard, inp.sddmm_cfg.row_swizzle);
        let mut vals = vec![0.0f32; shard.nnz()];
        let kernel = SddmmKernel::new(&lhs, &inp.rhs, &shard, &mut vals, &sw, inp.sddmm_cfg);
        let key = Fingerprint::new()
            .write_u64(fp)
            .write_u64(k as u64)
            .finish();
        stage_kernel(gpu, cache, key, &kernel, rec, checks);
    }

    let fp = rec.span("sparse.fingerprint", || inp.mask.fingerprint());
    let mut context = vec![0.0f32; inp.mask.rows() * FUSED_D];
    let kernel = SddmmSoftmaxSpmmKernel::new(
        &inp.q,
        &inp.k,
        &inp.v,
        &inp.mask,
        &mut context,
        inp.scale,
        out.configs.sddmm.block_items_x as usize,
        out.configs.spmm.block_items_x as usize,
        out.plan_tag.clone(),
    );
    stage_kernel(gpu, cache, fp, &kernel, rec, checks);

    let lut = PatternLut::build(&inp.acts, PatternGranularity::Fine);
    let sw = swizzle(&inp.weights, inp.joint_cfg.row_swizzle);
    let mut c = Matrix::<f32>::zeros(JOINT_M, JOINT_N);
    let kernel =
        JointSpmmKernel::try_new(&inp.weights, &inp.acts, &mut c, &sw, &lut, inp.joint_cfg)
            .unwrap_or_else(|e| panic!("attention: joint kernel: {e}"));
    let fp = rec.span("sparse.fingerprint", || inp.weights.fingerprint());
    stage_kernel(gpu, cache, fp, &kernel, rec, checks);
}

pub fn run(args: &Args) -> Outcome {
    let mut host = HostTimes::default();
    // Each repetition is dropped before the next, and the last is kept.
    for _ in 1..SETUP_REPS {
        host.setup.push(timed(|| setup(args.seed)).1);
    }
    let (inp, t) = timed(|| setup(args.seed));
    host.setup.push(t);
    let mut checks = Checks::default();
    let mut rec = Recorder::new(false);

    // Untimed warm-up, which is also the pass every later pass repeats.
    let first = pass(&inp, &LaunchCache::new(), &mut rec);
    let refs = reference(&inp, &first);
    check_pass(&first, &first, &refs, "warm-up", &mut checks);

    let traced_from = if args.trace {
        UNTRACED_PASSES
    } else {
        usize::MAX
    };
    let min_passes = MIN_PASSES + if args.trace { UNTRACED_PASSES } else { 0 };
    let mut untraced_cold = Vec::new();
    let (mut hits, mut lookups, mut entries) = (0u64, 0u64, 0usize);
    let (mut tiles_total, mut tiles_skipped) = (0u64, 0u64);
    let (mut dedup_total, mut dedup_run) = (0u64, 0u64);
    let mut traced = 0usize;
    repeat(args.seconds, min_passes, MAX_PASSES, |i| {
        rec.set_enabled(i >= traced_from);
        let m = metrics::global();
        let cache = LaunchCache::new();
        let before = |names: [&str; 4]| names.map(|n| m.get(n));
        let names = [
            "joint_tiles_total",
            "joint_tiles_skipped",
            "dedup_blocks_total",
            "dedup_blocks_executed",
        ];
        let c0 = before(names);
        rec.begin("pass.cold");
        let (cold, t_cold) = timed(|| pass(&inp, &cache, &mut rec));
        rec.end("pass.cold");
        let c1 = before(names);
        let (h0, m0) = (m.get("cache_hits"), m.get("cache_misses"));
        rec.begin("pass.warm");
        let (warm, t_warm) = timed(|| pass(&inp, &cache, &mut rec));
        rec.end("pass.warm");
        let (h1, m1) = (m.get("cache_hits"), m.get("cache_misses"));

        check_pass(&cold, &first, &refs, &format!("cold pass {i}"), &mut checks);
        check_pass(&warm, &first, &refs, &format!("warm pass {i}"), &mut checks);

        host.cold.push(t_cold);
        if i < traced_from {
            host.warm.push(t_warm);
            untraced_cold.push(t_cold);
        } else {
            traced += 1;
            hits += h1 - h0;
            lookups += (h1 - h0) + (m1 - m0);
            entries = cache.len();
            tiles_total += c1[0] - c0[0];
            tiles_skipped += c1[1] - c0[1];
            dedup_total += c1[2] - c0[2];
            dedup_run += c1[3] - c0[3];
            rec.begin("stages");
            stages(&inp, &cache, &cold, &mut rec, &mut checks);
            rec.end("stages");
        }
    });

    let mut outcome = Outcome::new(&checks, first.sim_us(), &host);
    if args.trace {
        checks.check(rec.mismatches() == 0, || {
            "attention: unbalanced spans".into()
        });
        let selfs = rec.self_time_by_name();
        let per_pass = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / traced.max(1) as f64;
        let traced_cold = &host.cold[untraced_cold.len()..];
        let makespan = first.spmm.sync.makespan_us + first.sddmm.sync.makespan_us;
        let busy: f64 = first
            .spmm
            .sync
            .device_busy_us
            .iter()
            .chain(&first.sddmm.sync.device_busy_us)
            .sum();
        outcome.set("sparse.generate_s", median(&host.setup));
        outcome.set("sparse.fingerprint_s", per_pass("sparse.fingerprint"));
        outcome.set("sparse.lut_build_s", per_pass("sparse.lut_build"));
        outcome.set("sparse.lut_dead_frac", first.lut_dead);
        outcome.set("gpu-sim.profile_s", per_pass("gpu-sim.profile"));
        outcome.set(
            "gpu-sim.dedup_ratio",
            dedup_run as f64 / dedup_total.max(1) as f64,
        );
        outcome.set(
            "gpu-sim.blocks_simulated",
            dedup_run as f64 / traced.max(1) as f64,
        );
        outcome.set("gpu-sim.cache_lookup_s", per_pass("gpu-sim.cache_lookup"));
        outcome.set(
            "gpu-sim.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
        );
        outcome.set("gpu-sim.cache_entries", entries as f64);
        outcome.set("gpu-sim.audit_s", per_pass("gpu-sim.audit"));
        outcome.set("gpu-sim.sanitize_s", per_pass("gpu-sim.sanitize"));
        outcome.set("gpu-sim.launch_s", per_pass("gpu-sim.launch"));
        outcome.set("gpu-sim.replay_s", per_pass("gpu-sim.replay"));
        outcome.set("gpu-sim.fleet.makespan_us", makespan);
        outcome.set("gpu-sim.fleet.busy_us", busy);
        outcome.set("gpu-sim.fleet.idle_us", DEVICES as f64 * makespan - busy);
        outcome.set(
            "gpu-sim.fleet.transfer_us",
            first.spmm.sync.transfer_us + first.sddmm.sync.transfer_us,
        );
        outcome.set(
            "gpu-sim.fleet.eff",
            (refs.spmm_us + refs.sddmm_us) / (DEVICES as f64 * makespan),
        );
        outcome.set("core.fused", f64::from(u8::from(first.fused)));
        outcome.set("core.fused_sim_us", first.fused_us);
        outcome.set("core.fused_s", per_pass("core.fused"));
        outcome.set("core.shard_spmm_s", per_pass("core.shard_spmm"));
        outcome.set("core.shard_sddmm_s", per_pass("core.shard_sddmm"));
        outcome.set("core.joint_s", per_pass("core.joint"));
        outcome.set("core.joint_sim_us", first.joint_stats.time_us);
        outcome.set(
            "core.joint_skip_frac",
            tiles_skipped as f64 / tiles_total.max(1) as f64,
        );
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
