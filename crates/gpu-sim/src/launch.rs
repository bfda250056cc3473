//! The launcher: executes a kernel's blocks, aggregates cost traces, applies
//! the cache / scheduling / timing models, and reports simulated statistics.

use crate::cache;
use crate::cost::{BlockContext, BlockCost, BlockCostLite, Traffic, MAX_BUFFERS};
use crate::device::DeviceConfig;
use crate::fault::{DeviceFault, FaultKind, FaultPlan};
use crate::kernel::Kernel;
use crate::launch_cache::{KeyRef, LaunchCache, LaunchKey};
use crate::metrics;
use crate::occupancy::{self, Occupancy};
use crate::sanitizer::{self, CheckClass, SanitizerReport, Session};
use crate::scheduler;
use crate::static_check::{self, StaticAudit};
use crate::timing;
use crate::trace::{self, Entry};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Why a launch could not run (or did not complete).
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// The kernel requests more shared memory per block than the device
    /// allows for any single block.
    SmemOverBudget {
        kernel: String,
        requested: u32,
        budget: u32,
    },
    /// No block of this kernel can be resident on an SM (shared memory or
    /// register pressure exceed per-SM capacity): the launch cannot execute.
    OccupancyZero { kernel: String },
    /// An injected device fault aborted the launch.
    DeviceFault(DeviceFault),
    /// The static auditor ([`crate::static_check`]) refuted a safety
    /// property of the launch descriptor: the launch was rejected before a
    /// single block ran.
    StaticallyRefuted {
        kernel: String,
        class: CheckClass,
        detail: String,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::SmemOverBudget {
                kernel,
                requested,
                budget,
            } => write!(
                f,
                "kernel {kernel} requests {requested} B shared memory; device max is {budget}"
            ),
            LaunchError::OccupancyZero { kernel } => {
                write!(
                    f,
                    "kernel {kernel} achieves zero occupancy: no block fits on an SM"
                )
            }
            LaunchError::DeviceFault(fault) => write!(f, "device fault: {fault}"),
            LaunchError::StaticallyRefuted {
                kernel,
                class,
                detail,
            } => write!(
                f,
                "kernel {kernel} statically refuted [{}]: {detail}",
                class.name()
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<DeviceFault> for LaunchError {
    fn from(fault: DeviceFault) -> Self {
        LaunchError::DeviceFault(fault)
    }
}

/// Whether a launch computes outputs or only its cost trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Blocks compute real outputs *and* the launch is timed.
    Functional,
    /// Cost traces only, no outputs: the large benchmark sweeps.
    Profile,
}

/// How much checking a launch gets before (and while) it runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckLevel {
    /// The static audit ([`crate::static_check`]): a `Refuted` verdict
    /// rejects the launch with [`LaunchError::StaticallyRefuted`] before a
    /// single block runs.
    #[default]
    Audit,
    /// The audit plus the dynamic sanitizer with every check armed (see
    /// [`crate::sanitizer`]), the simulator's analogue of
    /// `compute-sanitizer`. The fault plan is not consulted — the sanitizer
    /// checks the kernel, not the device. Each sanitized launch owns its
    /// racecheck shadow map, so sanitized launches on different threads run
    /// side by side. A cache hit replays the memoized report instead of
    /// re-sanitizing.
    Sanitize,
}

/// Builds a kernel and hands it to the continuation (see
/// [`LaunchRequest::profile_lazy`]).
pub type KernelBuilder<'r> = dyn Fn(&mut dyn FnMut(&dyn Kernel)) + 'r;

/// The kernel a request launches: built by the caller, or built by the
/// funnel only when the launch really simulates.
enum Source<'r> {
    Built(&'r dyn Kernel),
    /// A profile launch named up front, so a cache hit never constructs the
    /// kernel (nor anything it borrows, such as a row swizzle). `build`
    /// hands the kernel to its continuation.
    Lazy {
        name: String,
        build: &'r KernelBuilder<'r>,
    },
}

/// One launch through [`Gpu::run`]: the kernel plus the [`Mode`], an
/// optional [`LaunchCache`] with the operand fingerprint, and the
/// [`CheckLevel`].
pub struct LaunchRequest<'r> {
    source: Source<'r>,
    mode: Mode,
    cache: Option<(&'r LaunchCache, u64)>,
    check: CheckLevel,
}

impl<'r> LaunchRequest<'r> {
    /// An uncached launch of `kernel` at [`CheckLevel::Audit`].
    pub fn new(mode: Mode, kernel: &'r dyn Kernel) -> Self {
        Self {
            source: Source::Built(kernel),
            mode,
            cache: None,
            check: CheckLevel::Audit,
        }
    }

    /// [`LaunchRequest::new`] in [`Mode::Functional`].
    pub fn functional(kernel: &'r dyn Kernel) -> Self {
        Self::new(Mode::Functional, kernel)
    }

    /// [`LaunchRequest::new`] in [`Mode::Profile`].
    pub fn profile(kernel: &'r dyn Kernel) -> Self {
        Self::new(Mode::Profile, kernel)
    }

    /// A profile launch whose kernel is built only on a cache miss. `name`
    /// must equal the built kernel's [`Kernel::name`]; `build` constructs
    /// the kernel and passes it to the continuation once.
    pub fn profile_lazy(name: String, build: &'r KernelBuilder<'r>) -> Self {
        Self {
            source: Source::Lazy { name, build },
            mode: Mode::Profile,
            cache: None,
            check: CheckLevel::Audit,
        }
    }

    /// Memoize through a cache under an operand fingerprint (see
    /// [`crate::launch_cache`] for what it must cover); `None` leaves the
    /// request uncached.
    pub fn cached(mut self, cache: impl Into<Option<(&'r LaunchCache, u64)>>) -> Self {
        self.cache = cache.into();
        self
    }

    /// Set the check level.
    pub fn check(mut self, level: CheckLevel) -> Self {
        self.check = level;
        self
    }

    fn name(&self) -> Cow<'_, str> {
        match &self.source {
            Source::Built(kernel) => Cow::Owned(kernel.name()),
            Source::Lazy { name, .. } => Cow::Borrowed(name),
        }
    }

    fn with_kernel<R>(&self, f: impl FnOnce(&dyn Kernel) -> R) -> R {
        match &self.source {
            Source::Built(kernel) => f(*kernel),
            Source::Lazy { name, build } => {
                let mut f = Some(f);
                let mut out = None;
                build(&mut |kernel| out = f.take().map(|f| f(kernel)));
                out.unwrap_or_else(|| panic!("launch builder for {name} built no kernel"))
            }
        }
    }
}

/// What [`Gpu::run`] returns.
#[derive(Debug, Clone)]
pub struct Launched {
    pub stats: LaunchStats,
    /// The sanitizer report: `Some` exactly at [`CheckLevel::Sanitize`].
    pub report: Option<SanitizerReport>,
    /// Whether the stats (and report) were served from the cache.
    pub hit: bool,
}

/// Device-wide roofline times (cycles) per pipeline — the denominator view
/// of where a kernel's time goes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineBreakdown {
    pub fma_cycles: f64,
    pub issue_cycles: f64,
    pub lsu_cycles: f64,
    pub smem_cycles: f64,
    pub dram_cycles: f64,
    pub schedule_cycles: f64,
}

impl PipelineBreakdown {
    /// Each pipeline's share of the binding time, for reports.
    pub fn utilizations(&self, total_cycles: f64) -> [(&'static str, f64); 6] {
        let f = |c: f64| {
            if total_cycles > 0.0 {
                c / total_cycles
            } else {
                0.0
            }
        };
        [
            ("fma", f(self.fma_cycles)),
            ("issue", f(self.issue_cycles)),
            ("lsu", f(self.lsu_cycles)),
            ("smem", f(self.smem_cycles)),
            ("dram", f(self.dram_cycles)),
            ("schedule", f(self.schedule_cycles)),
        ]
    }
}

/// Simulated statistics for one kernel launch.
///
/// `PartialEq` compares every field (f64s bitwise-as-values): the fast-path
/// equivalence suite relies on exact equality between the streaming/dedup
/// launch engine and the brute-force reference path.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchStats {
    /// Kernel name.
    pub kernel: String,
    /// Simulated wall time in microseconds (including launch overhead).
    pub time_us: f64,
    /// Makespan of the block schedule in cycles.
    pub makespan_cycles: f64,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Waves of blocks (grid size / device residency).
    pub waves: f64,
    /// Schedule balance (mean SM busy / makespan); 1.0 = perfectly balanced.
    pub balance: f64,
    /// Theoretical occupancy of the kernel.
    pub occupancy: Occupancy,
    /// Total warp instructions issued.
    pub instructions: u64,
    /// Useful scalar FLOPs performed.
    pub flops: u64,
    /// DRAM bytes moved (after cache filtering).
    pub dram_bytes: u64,
    /// Achieved arithmetic throughput in TFLOP/s.
    pub tflops: f64,
    /// Fraction of the device's FP32 peak achieved.
    pub frac_peak: f64,
    /// Achieved DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Which pipeline bound the runtime ("fma", "lsu", "smem", "dram",
    /// "issue", "schedule", or "overhead").
    pub bound_by: String,
    /// Device-wide per-pipeline roofline times.
    pub pipelines: PipelineBreakdown,
}

impl std::fmt::Display for LaunchStats {
    /// One-line human summary, e.g. for examples and logs:
    /// `sputnik_spmm_f32: 37.0 us, 3.15 TFLOP/s (20.1% peak), 35 MB DRAM, bound by dram`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.1} us, {:.2} TFLOP/s ({:.1}% peak), {:.1} MB DRAM, {} blocks ({:.1} waves), bound by {}",
            self.kernel,
            self.time_us,
            self.tflops,
            self.frac_peak * 100.0,
            self.dram_bytes as f64 / 1e6,
            self.blocks,
            self.waves,
            self.bound_by
        )
    }
}

/// Hasher for keys that already are well-mixed 64-bit hashes (block
/// signatures are FNV outputs): the key is its own hash, so the dedup group
/// map pays no SipHash rounds per block.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is reached for `u64` keys; fold anything else in
        // so the hasher stays total.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }
}

/// A simulated GPU: a device configuration plus launch machinery.
pub struct Gpu {
    dev: DeviceConfig,
    /// Optional injected-fault schedule consulted on every launch.
    fault: Option<FaultPlan>,
    /// Structural block dedup in profile mode (see
    /// [`Kernel::block_signature`]); on by default, disabled only to
    /// brute-force a reference for equivalence testing.
    dedup: bool,
}

impl Gpu {
    pub fn new(dev: DeviceConfig) -> Self {
        Self {
            dev,
            fault: None,
            dedup: true,
        }
    }

    pub fn v100() -> Self {
        Self::new(DeviceConfig::v100())
    }

    pub fn gtx1080() -> Self {
        Self::new(DeviceConfig::gtx1080())
    }

    pub fn a100() -> Self {
        Self::new(DeviceConfig::a100())
    }

    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// Attach a fault-injection schedule; every subsequent launch consults it.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Enable or disable structural block dedup for profile launches.
    /// Dedup is on by default and bit-identical to brute force (that is the
    /// [`Kernel::block_signature`] contract); turning it off forces every
    /// block to execute, which the equivalence suite uses as the reference.
    pub fn with_block_dedup(mut self, enabled: bool) -> Self {
        self.dedup = enabled;
        self
    }

    /// Launch a kernel functionally: blocks compute real outputs *and* the
    /// launch is timed. Panics on refuted or invalid launches and injected
    /// faults; [`Gpu::run`] returns them as errors instead.
    pub fn launch(&self, kernel: &dyn Kernel) -> LaunchStats {
        self.run_or_panic(&LaunchRequest::functional(kernel))
    }

    /// Profile a kernel: cost traces only, no functional output. Panics
    /// like [`Gpu::launch`].
    pub fn profile(&self, kernel: &dyn Kernel) -> LaunchStats {
        self.run_or_panic(&LaunchRequest::profile(kernel))
    }

    /// Run a kernel functionally at [`CheckLevel::Sanitize`]: the stats plus
    /// the sanitizer's racecheck / memcheck / aligncheck / lint findings.
    pub fn sanitize(
        &self,
        kernel: &dyn Kernel,
    ) -> Result<(LaunchStats, SanitizerReport), LaunchError> {
        let req = LaunchRequest::functional(kernel).check(CheckLevel::Sanitize);
        self.run(&req)
            .map(|l| (l.stats, l.report.unwrap_or_default()))
    }

    /// Statically audit a kernel's launch descriptor against this device's
    /// model ([`crate::static_check::audit`]): per-check `Proven` /
    /// `Refuted` / `NeedsDynamic` verdicts, without executing a block.
    pub fn audit(&self, kernel: &dyn Kernel) -> StaticAudit {
        static_check::audit(&self.dev, kernel)
    }

    /// The [`LaunchCache`] key this launch would use. See
    /// [`crate::launch_cache`] for what `fingerprint` must cover (operand
    /// structure plus any problem dimension the kernel name does not encode).
    pub fn cache_key(&self, kernel: &dyn Kernel, fingerprint: u64) -> LaunchKey {
        self.key(kernel.name(), fingerprint)
    }

    fn key(&self, kernel: String, fingerprint: u64) -> LaunchKey {
        LaunchKey::new(
            kernel,
            fingerprint,
            self.dev.name.clone(),
            self.dev.arch_fingerprint(),
        )
    }

    /// The one launch path. Every launch, whatever its entry point:
    ///
    /// 1. consults the request's cache, unless this GPU carries a fault
    ///    plan (schedules consume per-launch indices, so fault-plan launches
    ///    neither look up nor insert). An entry is inserted only after its
    ///    launch passed the audit, so a hit skips the audit; a profile hit
    ///    never builds the kernel, and a functional hit replays the blocks
    ///    for their outputs with the stats (and report) from the cache;
    /// 2. otherwise audits the launch: a `Refuted` verdict returns
    ///    [`LaunchError::StaticallyRefuted`] before a single block runs;
    /// 3. validates resources, consults the fault plan (below
    ///    [`CheckLevel::Sanitize`]) and simulates.
    pub fn run(&self, req: &LaunchRequest<'_>) -> Result<Launched, LaunchError> {
        let sanitize = req.check == CheckLevel::Sanitize;
        let cached = req
            .cache
            .filter(|_| self.fault.is_none())
            .map(|(cache, fp)| (cache, fp, req.name()));
        if let Some((cache, fp, name)) = &cached {
            let key = KeyRef::new(name, *fp, &self.dev.name, self.dev.arch_fingerprint());
            if let Some((stats, report)) = cache.find(key, sanitize) {
                if req.mode == Mode::Functional {
                    req.with_kernel(|kernel| self.replay_functional(kernel));
                }
                self.note_cache_hit(&stats, sanitize);
                return Ok(Launched {
                    stats,
                    report,
                    hit: true,
                });
            }
        }
        let launched = req.with_kernel(|kernel| self.simulate(kernel, req.mode, sanitize))?;
        if let Some((cache, fp, name)) = cached {
            let key = self.key(name.into_owned(), fp);
            cache.insert(key, launched.stats.clone(), launched.report.clone());
        }
        Ok(launched)
    }

    fn run_or_panic(&self, req: &LaunchRequest<'_>) -> LaunchStats {
        self.run(req).unwrap_or_else(|e| panic!("{e}")).stats
    }

    /// Record a launch served from a [`LaunchCache`] (the simulated paths
    /// record themselves in [`Gpu::finish`]); a sanitized hit also counts
    /// the sanitize run it skipped.
    fn note_cache_hit(&self, stats: &LaunchStats, sanitized: bool) {
        let skips: &[(&'static str, u64)] = if sanitized {
            &[("sanitizer_skips", 1)]
        } else {
            &[]
        };
        let hit = Entry::Launch {
            stats,
            cached: Some(true),
        };
        trace::record("launch", &self.dev.name, hit, skips, || {
            stats.kernel.clone()
        });
    }

    /// Execute every block functionally with cost recording disabled: the
    /// output-producing half of a cached functional launch (see
    /// [`Gpu::run`]). This is the warm hot path: kernel bodies stage through
    /// the scratch arena ([`crate::arena`]) and skip cost-only work, so once
    /// the calling thread's pools are warm a replay performs **zero heap
    /// allocations** (enforced by the `zero_alloc` integration test).
    pub fn replay_functional(&self, kernel: &dyn Kernel) {
        let grid = kernel.grid();
        for lin in 0..grid.size() {
            let mut ctx = BlockContext::replay();
            kernel.execute_block(grid.delinearize(lin), &mut ctx);
        }
    }

    /// The rejection gate: audit the launch and turn the first `Refuted`
    /// finding into [`LaunchError::StaticallyRefuted`].
    fn gate(&self, kernel: &dyn Kernel) -> Result<(), LaunchError> {
        let (proven, refuted) = static_check::gate(&self.dev, kernel);
        metrics::global().incr_many(&[("static_audits", 1), ("static_checks_proven", proven)]);
        let Some(finding) = refuted else {
            return Ok(());
        };
        let kernel = kernel.name();
        let refuted = [("dispatch_static_refuted", 1)];
        trace::record("dispatch", "dispatch", Entry::Instant, &refuted, || {
            format!("statically refuted: {kernel} ({})", finding.detail)
        });
        Err(LaunchError::StaticallyRefuted {
            kernel,
            class: finding.class,
            detail: finding.detail,
        })
    }

    /// A cache miss: audit, validate, then simulate (sanitized or through
    /// the fault plan).
    fn simulate(
        &self,
        kernel: &dyn Kernel,
        mode: Mode,
        sanitize: bool,
    ) -> Result<Launched, LaunchError> {
        self.gate(kernel)?;
        let occ = self.validate(kernel)?;
        let functional = mode == Mode::Functional;
        if sanitize {
            let session = Rc::new(Session::new(kernel, self.dev.warp_size));
            let stats = self.execute(kernel, functional, occ, Some(&session));
            let report = session.finish();
            let runs = [
                ("sanitizer_runs", 1),
                ("sanitizer_violations", report.violation_count),
            ];
            trace::record("sanitizer", &self.dev.name, Entry::Instant, &runs, || {
                format!(
                    "sanitize: {} ({} violations, {} warnings)",
                    report.kernel, report.violation_count, report.warning_count
                )
            });
            return Ok(Launched {
                stats,
                report: Some(report),
                hit: false,
            });
        }

        // The fault decision comes *after* the audit and resource
        // validation: an invalid launch never reaches the device, so it
        // must not consume an index in the fault schedule.
        let poison = match self.fault.as_ref() {
            Some(plan) => match plan.decide(&kernel.name()) {
                Some(fault) if fault.kind == FaultKind::PoisonOutput => {
                    Some(plan.poison_seed(&fault))
                }
                Some(fault) => return Err(LaunchError::DeviceFault(fault)),
                None => None,
            },
            None => None,
        };

        let stats = self.execute(kernel, functional, occ, None);

        // A poison fault corrupts the output *after* a successful-looking
        // launch: callers only notice by inspecting the results.
        if functional {
            if let Some(seed) = poison {
                kernel.poison_output(seed);
            }
        }
        Ok(Launched {
            stats,
            report: None,
            hit: false,
        })
    }

    /// Resource validation shared by every launch path.
    fn validate(&self, kernel: &dyn Kernel) -> Result<Occupancy, LaunchError> {
        let dev = &self.dev;
        let req = kernel.block_requirements();
        let occ = occupancy::occupancy(dev, &req);
        if req.smem_bytes > dev.smem_per_block_max {
            return Err(LaunchError::SmemOverBudget {
                kernel: kernel.name(),
                requested: req.smem_bytes,
                budget: dev.smem_per_block_max,
            });
        }
        if occ.blocks_per_sm == 0 {
            return Err(LaunchError::OccupancyZero {
                kernel: kernel.name(),
            });
        }
        Ok(occ)
    }

    /// Execute every block, sanitized when a `session` is given.
    fn execute(
        &self,
        kernel: &dyn Kernel,
        functional: bool,
        occ: Occupancy,
        session: Option<&Rc<Session>>,
    ) -> LaunchStats {
        let grid = kernel.grid();
        let n_blocks = grid.size();

        // Profile-mode dedup: cost-record one representative per structural
        // block signature and replay its cost for the rest. Functional
        // launches execute every block for its outputs and never consult a
        // signature (measured: the second pass cost more than it saved), and
        // sanitized launches never dedup: the session's racecheck must observe
        // every block's real accesses.
        if self.dedup && !functional && session.is_none() {
            if let Some(stats) = self.run_profile_dedup(kernel, occ) {
                return stats;
            }
        }

        // 1. Execute all blocks, streaming each cost trace into the running
        // total and a compact per-block record — no `Vec<BlockCost>` of full
        // `MAX_BUFFERS`-wide traces is ever materialized.
        let mut total = BlockCost::default();
        let mut lites = Vec::new();
        for lin in 0..n_blocks {
            let idx = grid.delinearize(lin);
            let ctx = match session {
                None => {
                    let mut ctx = BlockContext::new(functional);
                    kernel.execute_block(idx, &mut ctx);
                    ctx
                }
                Some(session) => {
                    let mut ctx = BlockContext::sanitized(functional, session.block_san());
                    sanitizer::in_block(session, lin, || {
                        kernel.execute_block(idx, &mut ctx);
                    });
                    if let Some(san) = ctx.take_sanitizer() {
                        session.absorb_block(san);
                    }
                    ctx
                }
            };
            total.merge(&ctx.cost);
            lites.push(BlockCostLite::from(&ctx.cost));
        }

        self.finish(kernel, occ, total, lites, None)
    }

    /// Profile-mode structural dedup: group blocks by
    /// [`Kernel::block_signature`], execute one representative per group, and
    /// replay its cost for the other members. Returns `None` when the kernel
    /// offers no signatures or no two blocks share one (the plain streaming
    /// path is then cheaper). Everything after execution is paid per group:
    /// the total weights each representative's cost by its member count
    /// (exact `u64` arithmetic, so equal to merging it once per member), one
    /// [`BlockCostLite`] is kept per representative, and only the 4-byte
    /// `member` index is per block. [`Self::finish`] maps the per-group
    /// cycles back to every block's original linear index, so the scheduler
    /// sees the same order as brute force.
    fn run_profile_dedup(&self, kernel: &dyn Kernel, occ: Occupancy) -> Option<LaunchStats> {
        let grid = kernel.grid();
        let n_blocks = grid.size();
        let (unique, member) = self.dedup_plan(kernel)?;

        metrics::global().incr_many(&[
            ("dedup_blocks_total", n_blocks),
            ("dedup_blocks_executed", unique.len() as u64),
        ]);

        let costs: Vec<BlockCost> = unique
            .iter()
            .map(|&lin| {
                let mut ctx = BlockContext::new(false);
                kernel.execute_block(grid.delinearize(lin), &mut ctx);
                ctx.cost
            })
            .collect();

        let mut count = vec![0u64; costs.len()];
        for &slot in &member {
            count[slot as usize] += 1;
        }
        let mut total = BlockCost::default();
        for (c, &k) in costs.iter().zip(&count) {
            total.merge_times(c, k);
        }
        let lites = costs.iter().map(BlockCostLite::from).collect();
        Some(self.finish(kernel, occ, total, lites, Some(&member)))
    }

    /// Group blocks by structural signature in one serial pass. Returns
    /// `(unique, member)`: `unique` lists the blocks that really execute
    /// (signature-less blocks and first occurrences); `member[i]` is the slot
    /// in `unique` whose cost block `i` replays. No per-block signature is
    /// kept: each is looked up as soon as it is computed. Signatures are
    /// already FNV hashes, so the group map uses them as their own hash.
    /// Returns `None` when no two blocks share a signature (the plain
    /// streaming path is cheaper) or when the grid could overflow a `u32`
    /// slot index.
    fn dedup_plan(&self, kernel: &dyn Kernel) -> Option<(Vec<u64>, Vec<u32>)> {
        let grid = kernel.grid();
        let n_blocks = grid.size();
        if n_blocks == 0 || n_blocks > u64::from(u32::MAX) {
            return None;
        }
        let mut slot_of: HashMap<u64, u32, BuildHasherDefault<PassThrough>> = HashMap::default();
        let mut unique: Vec<u64> = Vec::new();
        let mut member: Vec<u32> = Vec::with_capacity(n_blocks as usize);
        for lin in 0..n_blocks {
            // `unique` never outgrows the grid, which fits in `u32`.
            let next = unique.len() as u32;
            let slot = match kernel.block_signature(grid.delinearize(lin)) {
                Some(sig) => *slot_of.entry(sig).or_insert(next),
                None => next,
            };
            if slot == next {
                unique.push(lin);
            }
            member.push(slot);
        }
        if unique.len() as u64 == n_blocks {
            return None;
        }
        Some((unique, member))
    }

    /// The pre-fast-path launch engine: collect one full [`BlockCost`] per
    /// block, then run the cache/timing models from the full traces. Kept as
    /// the ground truth the streaming and dedup paths must match bit-for-bit
    /// (the equivalence suite exercises it); never deduplicates.
    #[doc(hidden)]
    pub fn profile_reference(&self, kernel: &dyn Kernel) -> Result<LaunchStats, LaunchError> {
        let occ = self.validate(kernel)?;
        let dev = &self.dev;
        let grid = kernel.grid();
        let n_blocks = grid.size();
        let req = kernel.block_requirements();

        let costs: Vec<BlockCost> = (0..n_blocks)
            .map(|lin| {
                let idx = grid.delinearize(lin);
                let mut ctx = BlockContext::new(false);
                kernel.execute_block(idx, &mut ctx);
                ctx.cost
            })
            .collect();

        let mut total = BlockCost::default();
        for c in &costs {
            total.merge(c);
        }
        let buffers = kernel.buffers();
        let dram = cache::dram_traffic(dev, &buffers, &total.gmem);
        let warps_per_block = req.threads.div_ceil(dev.warp_size);
        let eff_warps = occupancy::effective_warps_per_sm(dev, &occ, n_blocks, warps_per_block);
        let active_sms = (n_blocks.min(dev.num_sms as u64)).max(1) as f64;
        let bw_per_sm = dev.dram_bytes_per_cycle() / active_sms;
        let concurrency = n_blocks
            .div_ceil(dev.num_sms as u64)
            .min(occ.blocks_per_sm as u64)
            .max(1) as f64;
        let block_cycles: Vec<f64> = costs
            .iter()
            .map(|c| {
                let mut bytes = 0.0f64;
                for (slot, t) in c.gmem.iter().enumerate() {
                    bytes += t.ld_bytes() as f64 * dram.ld_miss_rate[slot] + t.st_bytes() as f64;
                }
                timing::block_cycles(dev, c, eff_warps, bytes, bw_per_sm, concurrency).total_cycles
            })
            .collect();

        Ok(self.assemble(kernel, occ, &total, dram.total_bytes(), &block_cycles))
    }

    /// Turn the aggregated trace plus compact records into launch statistics
    /// (cache model, per-block timing, scheduling, rooflines). Without a
    /// `member` map, `lites` holds one record per block (the streaming path);
    /// with one, `lites` holds one record per dedup group and block `i`
    /// takes the cycles of group `member[i]`.
    fn finish(
        &self,
        kernel: &dyn Kernel,
        occ: Occupancy,
        total: BlockCost,
        lites: Vec<BlockCostLite>,
        member: Option<&[u32]>,
    ) -> LaunchStats {
        let dev = &self.dev;
        let n_blocks = member.map_or(lites.len(), <[u32]>::len) as u64;
        let req = kernel.block_requirements();

        // 2. Apply the cache model to the aggregate traffic.
        let buffers = kernel.buffers();
        let dram = cache::dram_traffic(dev, &buffers, &total.gmem);
        let dram_bytes = dram.total_bytes();

        // 3. Per-block cycles. Each block's DRAM share uses the per-buffer
        // miss rates from the aggregate cache model.
        let warps_per_block = req.threads.div_ceil(dev.warp_size);
        let eff_warps = occupancy::effective_warps_per_sm(dev, &occ, n_blocks, warps_per_block);
        // Bandwidth share per SM: when fewer blocks than SMs are active, the
        // active SMs share the full device bandwidth.
        let active_sms = (n_blocks.min(dev.num_sms as u64)).max(1) as f64;
        let bw_per_sm = dev.dram_bytes_per_cycle() / active_sms;
        let concurrency = n_blocks
            .div_ceil(dev.num_sms as u64)
            .min(occ.blocks_per_sm as u64)
            .max(1) as f64;

        let record_cycles: Vec<f64> = lites
            .iter()
            .map(|c| {
                let mut bytes = 0.0f64;
                for (slot, t) in c.gmem.iter().enumerate() {
                    bytes += t.ld_bytes() as f64 * dram.ld_miss_rate[slot] + t.st_bytes() as f64;
                }
                timing::block_cycles_lite(dev, c, eff_warps, bytes, bw_per_sm, concurrency)
                    .total_cycles
            })
            .collect();
        let block_cycles = match member {
            None => record_cycles,
            Some(member) => member
                .iter()
                .map(|&slot| record_cycles[slot as usize])
                .collect(),
        };

        let stats = self.assemble(kernel, occ, &total, dram_bytes, &block_cycles);
        // Every simulated launch path funnels through here (the reference
        // engine calls `assemble` directly and stays unrecorded).
        let launch = Entry::Launch {
            stats: &stats,
            cached: None,
        };
        trace::record("launch", &self.dev.name, launch, &[], || {
            stats.kernel.clone()
        });
        stats
    }

    /// Shared tail of every launch path: schedule the per-block cycles onto
    /// SMs, compute device-wide rooflines, and package the statistics.
    fn assemble(
        &self,
        kernel: &dyn Kernel,
        occ: Occupancy,
        total: &BlockCost,
        dram_bytes: u64,
        block_cycles: &[f64],
    ) -> LaunchStats {
        let dev = &self.dev;
        let n_blocks = block_cycles.len() as u64;

        // 4. Schedule blocks onto SMs.
        let sched = scheduler::simulate_schedule(dev, occ.blocks_per_sm, block_cycles);

        // 5. Device-wide rooflines (lower bounds the makespan cannot beat).
        let fma_tp = dev.fp32_lanes_per_sm as f64 / dev.warp_size as f64;
        let t_fma = (total.fma_instrs + total.fp_instrs) as f64 / (fma_tp * dev.num_sms as f64);
        let t_issue =
            total.total_instrs() as f64 / (dev.issue_slots_per_sm as f64 * dev.num_sms as f64);
        let lsu_tp = (dev.lsu_lanes_per_sm as f64 / dev.warp_size as f64).max(0.125);
        let t_lsu = ((total.ld_global_instrs + total.st_global_instrs) as f64 / lsu_tp
            + (total.ld_shared_instrs + total.st_shared_instrs) as f64)
            / dev.num_sms as f64;
        let t_smem = (total.shared_bytes as f64 / dev.smem_bytes_per_cycle as f64
            + total.bank_conflict_passes as f64)
            / dev.num_sms as f64;
        let t_dram = dram_bytes as f64 / dev.dram_bytes_per_cycle();

        let cycles = sched
            .makespan_cycles
            .max(t_fma)
            .max(t_issue)
            .max(t_lsu)
            .max(t_smem)
            .max(t_dram);

        // The makespan subsumes every per-block effect, so it is almost
        // always the numeric max; report "schedule" only when it clearly
        // exceeds the binding device-wide roofline (load imbalance or
        // launch-overhead dominated), otherwise name that roofline.
        let bound_by = {
            let rooflines = [
                ("fma", t_fma),
                ("issue", t_issue),
                ("lsu", t_lsu),
                ("smem", t_smem),
                ("dram", t_dram),
            ];
            let (name, top) = rooflines
                .iter()
                .copied()
                .reduce(|a, b| if b.1 >= a.1 { b } else { a })
                .unwrap_or(("fma", t_fma));
            if sched.makespan_cycles > 1.3 * top {
                "schedule".to_string()
            } else {
                name.to_string()
            }
        };

        let pipelines = PipelineBreakdown {
            fma_cycles: t_fma,
            issue_cycles: t_issue,
            lsu_cycles: t_lsu,
            smem_cycles: t_smem,
            dram_cycles: t_dram,
            schedule_cycles: sched.makespan_cycles,
        };
        let time_us = dev.cycles_to_us(cycles) + dev.launch_overhead_us;
        let time_s = time_us * 1e-6;
        let tflops = total.flops as f64 / time_s / 1e12;
        let frac_peak = tflops / dev.fp32_peak_tflops();
        let dram_gbps = dram_bytes as f64 / time_s / 1e9;

        LaunchStats {
            kernel: kernel.name(),
            time_us,
            makespan_cycles: sched.makespan_cycles,
            blocks: n_blocks,
            waves: sched.waves,
            balance: sched.balance,
            occupancy: occ,
            instructions: total.total_instrs(),
            flops: total.flops,
            dram_bytes,
            tflops,
            frac_peak,
            dram_gbps,
            bound_by,
            pipelines,
        }
    }
}

/// Simulated time of back-to-back launches on one stream (a CUDA stream:
/// consecutive launches overlap the host-side launch overhead with the
/// previous kernel's execution), given each launch's standalone time:
/// per-kernel execution plus ONE launch overhead
/// (subsequent launches are pipelined behind execution, except when a
/// kernel is shorter than the overhead itself). Zero for no launches.
///
/// Invariant: never exceeds the naive sum of the individual launch
/// times — pipelining can only *hide* overhead. The gap penalty for a
/// too-short kernel applies only to launches with a successor (it models
/// the next launch's exposed setup); the final launch has none.
pub fn pipelined_us(overhead_us: f64, times_us: impl IntoIterator<Item = f64>) -> f64 {
    let mut times = times_us.into_iter().peekable();
    if times.peek().is_none() {
        return 0.0;
    }
    let mut total = overhead_us;
    while let Some(t) = times.next() {
        let exec = t - overhead_us;
        if times.peek().is_some() {
            // A kernel shorter than the launch overhead leaves a gap
            // the next launch cannot fully hide.
            total += exec.max(overhead_us * 0.3);
        } else {
            total += exec;
        }
    }
    total
}

/// Aggregate of several launches (e.g. the layers of a network forward pass).
#[derive(Debug, Clone, Default)]
pub struct LaunchSummary {
    pub launches: u64,
    pub time_us: f64,
    pub flops: u64,
    pub dram_bytes: u64,
    /// Sanitizer violations across sanitized launches (0 unless
    /// [`LaunchSummary::add_sanitized`] was used).
    pub violations: u64,
    /// Sanitizer lint warnings across sanitized launches.
    pub warnings: u64,
    /// Launches served from a [`LaunchCache`] (0 unless
    /// [`LaunchSummary::add_cached`] was used).
    pub cache_hits: u64,
    /// Launches that missed the cache and simulated in full.
    pub cache_misses: u64,
}

impl LaunchSummary {
    pub fn add(&mut self, stats: &LaunchStats) {
        self.launches += 1;
        self.time_us += stats.time_us;
        self.flops += stats.flops;
        self.dram_bytes += stats.dram_bytes;
    }

    /// Accumulate a memoized launch (see [`Gpu::run`]), recording whether
    /// the cache served it.
    pub fn add_cached(&mut self, stats: &LaunchStats, hit: bool) {
        self.add(stats);
        if hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
    }

    /// Accumulate a sanitized launch: the stats plus its sanitizer findings.
    pub fn add_sanitized(&mut self, stats: &LaunchStats, report: &SanitizerReport) {
        self.add(stats);
        self.violations += report.violation_count;
        self.warnings += report.warning_count;
    }

    pub fn tflops(&self) -> f64 {
        if self.time_us <= 0.0 {
            return 0.0;
        }
        self.flops as f64 / (self.time_us * 1e-6) / 1e12
    }
}

#[allow(unused)]
fn assert_traffic_slots(_: [Traffic; MAX_BUFFERS]) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessPattern, BufferSpec};
    use crate::cost::BufferId;
    use crate::dim::Dim3;

    /// A trivial kernel for launcher-level tests.
    struct Noop {
        blocks: u32,
        cycles_of_fma: u64,
    }

    impl Kernel for Noop {
        fn name(&self) -> String {
            "noop".into()
        }
        fn grid(&self) -> Dim3 {
            Dim3::x(self.blocks)
        }
        fn block_dim(&self) -> Dim3 {
            Dim3::x(128)
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            vec![BufferSpec {
                id: BufferId(0),
                name: "x",
                footprint_bytes: 1024,
                pattern: AccessPattern::Streaming,
            }]
        }
        fn execute_block(&self, _block: Dim3, ctx: &mut BlockContext) {
            ctx.fma(self.cycles_of_fma, 32 * self.cycles_of_fma);
            ctx.ld_global(BufferId(0), 0, 32, 1, 4);
        }
    }

    #[test]
    fn breakdown_is_populated_and_consistent() {
        let gpu = Gpu::v100();
        let stats = gpu.profile(&Noop {
            blocks: 800,
            cycles_of_fma: 10_000,
        });
        let p = stats.pipelines;
        assert!(p.fma_cycles > 0.0);
        assert!(
            p.schedule_cycles >= p.fma_cycles * 0.99,
            "makespan bounds the rooflines"
        );
        let binding = p
            .utilizations(stats.makespan_cycles.max(1.0))
            .iter()
            .map(|&(_, u)| u)
            .fold(0.0f64, f64::max);
        assert!(
            binding > 0.9,
            "some pipeline must be near-binding, got {binding}"
        );
    }

    #[test]
    fn pipelining_overlaps_launch_overhead() {
        let gpu = Gpu::v100();
        let overhead = gpu.device().launch_overhead_us;
        let solo = gpu
            .profile(&Noop {
                blocks: 800,
                cycles_of_fma: 50_000,
            })
            .time_us;
        let total = pipelined_us(overhead, [solo; 4]);
        assert!(
            total < 4.0 * solo,
            "stream {total} must beat 4x solo {}",
            4.0 * solo
        );
        assert!(total > 4.0 * (solo - overhead));
    }

    #[test]
    fn empty_stream_costs_nothing() {
        assert_eq!(
            pipelined_us(Gpu::v100().device().launch_overhead_us, []),
            0.0
        );
    }

    /// Regression: the short-kernel gap penalty used to apply to the *last*
    /// launch too, making a single-launch stream "slower" than the same
    /// launch alone — which is how a batch's saved overhead went negative.
    /// A stream of one is exactly the solo launch.
    #[test]
    fn single_launch_stream_equals_solo_launch() {
        let gpu = Gpu::v100();
        // Tiny kernel: execution far below the launch overhead, the case
        // that used to trip the gap penalty.
        let k = Noop {
            blocks: 1,
            cycles_of_fma: 1,
        };
        let solo = gpu.profile(&k).time_us;
        let one = pipelined_us(gpu.device().launch_overhead_us, [solo]);
        assert!(
            (one - solo).abs() < 1e-12,
            "stream of one ({one}) must equal solo launch ({solo})"
        );
    }

    /// Pipelining can only hide overhead: a stream is never slower than
    /// launching its kernels back to back, for any kernel size.
    #[test]
    fn stream_never_exceeds_naive_sum() {
        let gpu = Gpu::v100();
        let overhead = gpu.device().launch_overhead_us;
        for cycles in [1, 2_000, 50_000] {
            let solo = gpu
                .profile(&Noop {
                    blocks: 4,
                    cycles_of_fma: cycles,
                })
                .time_us;
            for n in 1..5 {
                let stream = pipelined_us(overhead, std::iter::repeat_n(solo, n));
                let naive = solo * n as f64;
                assert!(
                    stream <= naive + 1e-9,
                    "stream {stream} > naive {naive} for {n} x {cycles}-cycle kernels"
                );
            }
        }
    }

    #[test]
    fn cache_replays_identical_launches() {
        let gpu = Gpu::v100();
        let cache = LaunchCache::new();
        let k = Noop {
            blocks: 8,
            cycles_of_fma: 100,
        };
        let req = LaunchRequest::functional(&k).cached((&cache, 42));
        let a = gpu.run(&req).unwrap();
        let b = gpu.run(&req).unwrap();
        assert_eq!(a.stats, b.stats, "replayed stats are bit-identical");
        assert!(!a.hit && b.hit);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn cache_bypassed_under_fault_plan() {
        let gpu = Gpu::v100().with_fault_plan(FaultPlan::none());
        let cache = LaunchCache::new();
        let k = Noop {
            blocks: 8,
            cycles_of_fma: 100,
        };
        let req = LaunchRequest::functional(&k).cached((&cache, 42));
        for _ in 0..2 {
            assert!(
                !gpu.run(&req).unwrap().hit,
                "fault-plan GPUs simulate in full"
            );
        }
        assert!(cache.is_empty(), "no inserts while a fault plan is armed");
    }
}
