//! Static launch auditor: prove (or refute) sanitizer properties from the
//! launch descriptor alone, before a single block executes.
//!
//! The dynamic sanitizer ([`crate::sanitizer`]) certifies a launch by
//! executing every block with instrumented recording — sound, but linear in
//! the grid and by far the slowest CI gate. The paper's kernels, however,
//! are safe *by construction*: 1-D tiling makes output ownership disjoint,
//! ROMA makes vector loads aligned, and the tile arithmetic bounds every
//! traced address (Gale et al., SC 2020, §V). Those properties are functions
//! of the launch descriptor — grid/block dims, declared footprints, tile
//! shapes, address classes mod 32 — so they can be decided without running
//! the kernel.
//!
//! [`audit`] evaluates five check classes ([`CheckClass`]) and returns a
//! three-valued [`Verdict`] for each:
//!
//! * `Proven` — holds for every block; the matching dynamic check can never
//!   fire.
//! * `Refuted` — the descriptor contains a counterexample; [`Gpu::run`]
//!   rejects the launch with `LaunchError::StaticallyRefuted` before the
//!   simulator executes a single block, whatever the entry point.
//! * `NeedsDynamic` — depends on runtime data (gathered indices, barrier
//!   interleavings); the dynamic sanitizer remains the authority.
//!
//! The kernel's side of the bargain is [`StaticFacts`], a declarative
//! summary returned by [`Kernel::static_facts`]: sound access-extent bounds
//! per buffer, worst-case vector-address residues (the same mod-32
//! address-class machinery `block_signature` hashes), the shared-memory
//! staging discipline, and a per-epoch staging bound. The default is fully
//! conservative (`NeedsDynamic` everywhere a declaration is required), so a
//! kernel that declares nothing loses no checking — it only keeps paying
//! the dynamic price. Soundness of a declaration is the implementor's
//! burden, exactly like [`Kernel::block_signature`]; the cross-check is that
//! `sanitize_all` runs the all-armed dynamic sanitizer over every registered
//! kernel that `static_audit` proves, so an unsound `Proven` surfaces as a
//! sanitizer violation and fails CI.
//!
//! The cross-block racecheck has no static counterpart here (disjointness
//! of output tiles is data-independent for these kernels but lives behind
//! `OutputSlice`, whose shadow map the sanitizer keeps).
//!
//! [`Gpu::run`]: crate::launch::Gpu::run
//! [`Kernel::static_facts`]: crate::kernel::Kernel::static_facts
//! [`Kernel::block_signature`]: crate::kernel::Kernel::block_signature

use crate::device::DeviceConfig;
use crate::kernel::Kernel;
use crate::occupancy;
use crate::sanitizer::{CheckClass, Verdict};

/// CUDA architectural limit on threads per block (not a [`DeviceConfig`]
/// field because it has been 1024 on every generation the simulator models).
pub const MAX_THREADS_PER_BLOCK: u32 = 1024;
/// CUDA architectural limits on block dims (x, y, z).
pub const MAX_BLOCK_DIM: (u32, u32, u32) = (1024, 1024, 64);
/// CUDA architectural limits on grid dims (x, y, z).
pub const MAX_GRID_DIM: (u32, u32, u32) = (0x7FFF_FFFF, 65_535, 65_535);

/// A sound bound on the byte extent a launch accesses within one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessBound {
    /// No access reaches byte `max_end` or beyond: every traced access
    /// `[addr, addr + bytes)` satisfies `addr + bytes <= max_end`. Derived
    /// from the kernel's own tile arithmetic, independently of the
    /// footprint it declares — the audit cross-checks the two.
    Extent(u64),
    /// Addresses depend on runtime data (gather indices, permutations) with
    /// no cheap sound bound.
    DataDependent,
}

/// One buffer's declared access bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferBound {
    /// Buffer slot ([`crate::cost::BufferId`] index).
    pub slot: u8,
    pub bound: AccessBound,
}

/// The worst-case address class of one vector-access site: the maximum of
/// `addr % (vec_width * elem_bytes)` over every address the site can issue.
/// Zero means every access is naturally aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorClass {
    pub slot: u8,
    pub vec_width: u32,
    pub elem_bytes: u32,
    /// `max(addr % (vec_width * elem_bytes))` over the site's addresses.
    pub worst_residue: u64,
}

/// What the kernel can say about its vector-access alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignmentFacts {
    /// The kernel issues no vector accesses (`vec_width > 1`): nothing to
    /// misalign.
    ScalarOnly,
    /// Every vector-access site with its worst-case residue class, computed
    /// with the same mod-`align` arithmetic `block_signature` hashes.
    Residues(Vec<VectorClass>),
    /// Vector addresses depend on runtime data; only the dynamic aligncheck
    /// can rule.
    DataDependent,
}

/// What the kernel can say about its shared-memory barrier discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierFacts {
    /// All staging is warp-synchronous ([`crate::SmemScope::Warp`], or no
    /// shared staging at all): producer and consumer are the same warp, no
    /// barrier needed, hazard impossible.
    WarpSynchronous,
    /// Block-scope staging exists and the kernel claims every store phase is
    /// separated from its load phase by `bar_sync`. The *interleaving* is
    /// not decidable from the descriptor, so this falls back to the dynamic
    /// barrier-epoch analysis.
    BarrierSeparated,
    /// Block-scope staging with no barrier at all — a certain hazard in any
    /// multi-warp block.
    NoBarrier,
    /// Discipline unknown (the conservative default).
    Unknown,
}

/// A sound per-barrier-epoch bound on block-scope staged bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageBound {
    /// No epoch stages more than this many block-scope bytes.
    Bytes(u64),
    /// No cheap bound (the conservative default).
    Unknown,
}

/// Declarative facts a kernel asserts about its own launch, consumed by
/// [`audit`]. Every field defaults to "unknown", which audits to
/// `NeedsDynamic` — conservative, never wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticFacts {
    /// Per-buffer access-extent bounds; `None` means undeclared.
    pub bounds: Option<Vec<BufferBound>>,
    pub alignment: AlignmentFacts,
    pub barrier: BarrierFacts,
    /// Per-epoch block-scope staging bound.
    pub stage: StageBound,
}

impl StaticFacts {
    /// The conservative default: everything audits to `NeedsDynamic`.
    pub fn conservative() -> Self {
        Self {
            bounds: None,
            alignment: AlignmentFacts::DataDependent,
            barrier: BarrierFacts::Unknown,
            stage: StageBound::Unknown,
        }
    }
}

impl Default for StaticFacts {
    fn default() -> Self {
        Self::conservative()
    }
}

/// One check class's audited outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticFinding {
    pub class: CheckClass,
    pub verdict: Verdict,
    /// What was proven / refuted / left to the dynamic sanitizer.
    pub detail: String,
}

/// The full static audit of one launch: one finding per [`CheckClass`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticAudit {
    pub kernel: String,
    pub findings: Vec<StaticFinding>,
}

impl StaticAudit {
    pub fn verdict(&self, class: CheckClass) -> Verdict {
        self.findings
            .iter()
            .find(|f| f.class == class)
            .map_or(Verdict::NeedsDynamic, |f| f.verdict)
    }

    /// The first refuted finding, if any.
    pub fn refutation(&self) -> Option<&StaticFinding> {
        self.findings.iter().find(|f| f.verdict == Verdict::Refuted)
    }

    pub fn proven(&self) -> u64 {
        self.count(Verdict::Proven)
    }

    pub fn count(&self, v: Verdict) -> u64 {
        self.findings.iter().filter(|f| f.verdict == v).count() as u64
    }
}

impl std::fmt::Display for StaticAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:", self.kernel)?;
        for finding in &self.findings {
            write!(
                f,
                "\n  {:17} {:13} {}",
                finding.class.name(),
                finding.verdict.name(),
                finding.detail
            )?;
        }
        Ok(())
    }
}

/// Audit one kernel's launch descriptor against a device model. Pure
/// metadata analysis: no block executes, no output buffer is touched.
pub fn audit(dev: &DeviceConfig, kernel: &dyn Kernel) -> StaticAudit {
    StaticAudit {
        kernel: kernel.name(),
        findings: findings(dev, kernel, Details::All).into(),
    }
}

/// The launch funnel's rejection gate: the number of proven classes and the
/// first refuted finding, if any. Same verdicts as [`audit`], but only a
/// refutation's detail is formatted, so auditing a clean launch allocates
/// nothing beyond the kernel's own declarations.
pub(crate) fn gate(dev: &DeviceConfig, kernel: &dyn Kernel) -> (u64, Option<StaticFinding>) {
    let findings = findings(dev, kernel, Details::Refuted);
    let proven = findings
        .iter()
        .filter(|f| f.verdict == Verdict::Proven)
        .count() as u64;
    let refuted = findings.into_iter().find(|f| f.verdict == Verdict::Refuted);
    (proven, refuted)
}

fn findings(dev: &DeviceConfig, kernel: &dyn Kernel, d: Details) -> [StaticFinding; 5] {
    let facts = kernel.static_facts();
    let buffers = kernel.buffers();
    let req = kernel.block_requirements();
    let multi_warp = req.threads > dev.warp_size;
    [
        check_bounds(d, &facts, &buffers),
        check_alignment(d, &facts),
        check_shared_capacity(d, dev, &facts, req.smem_bytes, multi_warp),
        check_grid_occupancy(d, dev, kernel),
        check_barrier(d, &facts, multi_warp),
    ]
}

/// Which verdicts get a formatted detail: every one for [`audit`], only a
/// refutation for [`gate`].
#[derive(Clone, Copy)]
enum Details {
    All,
    Refuted,
}

fn finding(
    d: Details,
    class: CheckClass,
    verdict: Verdict,
    detail: impl FnOnce() -> String,
) -> StaticFinding {
    let detail = match (d, verdict) {
        (Details::All, _) | (_, Verdict::Refuted) => detail(),
        (Details::Refuted, _) => String::new(),
    };
    StaticFinding {
        class,
        verdict,
        detail,
    }
}

/// Bounds: every declared buffer needs a sound extent bound at or under its
/// footprint. The extent comes from the kernel's tile arithmetic, the
/// footprint from its operand shapes — agreement of two independently
/// derived numbers is the proof.
fn check_bounds(
    d: Details,
    facts: &StaticFacts,
    buffers: &[crate::cache::BufferSpec],
) -> StaticFinding {
    let class = CheckClass::Bounds;
    let Some(declared) = facts.bounds.as_ref() else {
        return finding(d, class, Verdict::NeedsDynamic, || {
            "no declared access bounds".into()
        });
    };
    let mut proven = 0usize;
    let mut dynamic: Option<(&str, &str)> = None;
    for spec in buffers {
        let bound = declared.iter().find(|b| b.slot == spec.id.0);
        match bound.map(|b| b.bound) {
            Some(AccessBound::Extent(end)) => {
                if end > spec.footprint_bytes {
                    return finding(d, class, Verdict::Refuted, || {
                        format!(
                            "`{}`: access extent {end} B exceeds declared footprint {} B",
                            spec.name, spec.footprint_bytes
                        )
                    });
                }
                proven += 1;
            }
            Some(AccessBound::DataDependent) => {
                dynamic.get_or_insert((spec.name, "gathers data-dependent addresses"));
            }
            None => {
                dynamic.get_or_insert((spec.name, "has no declared bound"));
            }
        }
    }
    match dynamic {
        Some((name, why)) => finding(d, class, Verdict::NeedsDynamic, || {
            format!("`{name}` {why}")
        }),
        None => finding(d, class, Verdict::Proven, || {
            format!("{proven} buffer extents within declared footprints")
        }),
    }
}

fn check_alignment(d: Details, facts: &StaticFacts) -> StaticFinding {
    let class = CheckClass::Alignment;
    match &facts.alignment {
        AlignmentFacts::ScalarOnly => finding(d, class, Verdict::Proven, || {
            "no vector accesses issued".into()
        }),
        AlignmentFacts::Residues(sites) => {
            for site in sites {
                let align = site.vec_width as u64 * site.elem_bytes as u64;
                if site.vec_width > 1 && site.worst_residue != 0 {
                    return finding(d, class, Verdict::Refuted, || {
                        format!(
                            "slot {} vec{} access class {} mod {align} is misaligned",
                            site.slot, site.vec_width, site.worst_residue
                        )
                    });
                }
            }
            finding(d, class, Verdict::Proven, || {
                format!("{} vector-access sites in residue class 0", sites.len())
            })
        }
        AlignmentFacts::DataDependent => finding(d, class, Verdict::NeedsDynamic, || {
            "vector addresses depend on runtime data".into()
        }),
    }
}

fn check_shared_capacity(
    d: Details,
    dev: &DeviceConfig,
    facts: &StaticFacts,
    smem_bytes: u32,
    multi_warp: bool,
) -> StaticFinding {
    let class = CheckClass::SharedCapacity;
    if smem_bytes > dev.smem_per_block_max {
        return finding(d, class, Verdict::Refuted, || {
            format!(
                "{smem_bytes} B per block exceeds device cap {} B",
                dev.smem_per_block_max
            )
        });
    }
    if !multi_warp {
        return finding(d, class, Verdict::Proven, || {
            "single-warp block: staging is warp-synchronous".into()
        });
    }
    match facts.stage {
        StageBound::Bytes(staged) => {
            if staged == 0 {
                finding(d, class, Verdict::Proven, || {
                    "no block-scope staging".into()
                })
            } else if smem_bytes == 0 {
                finding(d, class, Verdict::Refuted, || {
                    format!("{staged} B staged per epoch with no declared shared memory")
                })
            } else if staged > smem_bytes as u64 {
                finding(d, class, Verdict::Refuted, || {
                    format!("{staged} B staged per epoch exceeds declared {smem_bytes} B")
                })
            } else {
                finding(d, class, Verdict::Proven, || {
                    format!("<= {staged} B staged per epoch within declared {smem_bytes} B")
                })
            }
        }
        StageBound::Unknown => finding(d, class, Verdict::NeedsDynamic, || {
            "per-epoch staging bound undeclared".into()
        }),
    }
}

/// Grid/occupancy needs no kernel declaration: it is fully decided by the
/// launch descriptor and the device model.
fn check_grid_occupancy(d: Details, dev: &DeviceConfig, kernel: &dyn Kernel) -> StaticFinding {
    let class = CheckClass::GridOccupancy;
    let grid = kernel.grid();
    let block = kernel.block_dim();
    let req = kernel.block_requirements();
    if req.threads == 0 {
        return finding(d, class, Verdict::Refuted, || {
            "zero threads per block".into()
        });
    }
    if req.threads > MAX_THREADS_PER_BLOCK {
        return finding(d, class, Verdict::Refuted, || {
            format!(
                "{} threads per block exceeds the {MAX_THREADS_PER_BLOCK}-thread limit",
                req.threads
            )
        });
    }
    if block.x > MAX_BLOCK_DIM.0 || block.y > MAX_BLOCK_DIM.1 || block.z > MAX_BLOCK_DIM.2 {
        return finding(d, class, Verdict::Refuted, || {
            format!(
                "block dim ({}, {}, {}) exceeds hardware limits",
                block.x, block.y, block.z
            )
        });
    }
    if grid.x > MAX_GRID_DIM.0 || grid.y > MAX_GRID_DIM.1 || grid.z > MAX_GRID_DIM.2 {
        return finding(d, class, Verdict::Refuted, || {
            format!(
                "grid dim ({}, {}, {}) exceeds hardware limits",
                grid.x, grid.y, grid.z
            )
        });
    }
    let occ = occupancy::occupancy(dev, &req);
    if occ.blocks_per_sm == 0 {
        return finding(d, class, Verdict::Refuted, || {
            format!(
                "zero occupancy: no block fits on an SM (limited by {:?})",
                occ.limited_by
            )
        });
    }
    finding(d, class, Verdict::Proven, || {
        format!(
            "{} blocks/SM ({} warps), dims within limits",
            occ.blocks_per_sm, occ.warps_per_sm
        )
    })
}

fn check_barrier(d: Details, facts: &StaticFacts, multi_warp: bool) -> StaticFinding {
    let class = CheckClass::BarrierStructure;
    if !multi_warp {
        return finding(d, class, Verdict::Proven, || {
            "single-warp block: no cross-warp hazards".into()
        });
    }
    match facts.barrier {
        BarrierFacts::WarpSynchronous => finding(d, class, Verdict::Proven, || {
            "all staging is warp-synchronous".into()
        }),
        BarrierFacts::BarrierSeparated => finding(d, class, Verdict::NeedsDynamic, || {
            "barrier-separated phases: interleaving checked dynamically".into()
        }),
        BarrierFacts::NoBarrier => finding(d, class, Verdict::Refuted, || {
            "block-scope staging with no bar_sync in a multi-warp block".into()
        }),
        BarrierFacts::Unknown => finding(d, class, Verdict::NeedsDynamic, || {
            "barrier discipline undeclared".into()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessPattern, BufferSpec};
    use crate::cost::{BlockContext, BufferId};
    use crate::dim::Dim3;

    /// A configurable test kernel: each field seeds (or avoids) exactly one
    /// class of static violation.
    struct Probe {
        grid: Dim3,
        block: Dim3,
        smem: u32,
        footprint: u64,
        facts: StaticFacts,
    }

    impl Probe {
        fn clean() -> Self {
            Probe {
                grid: Dim3::x(4),
                block: Dim3::x(64),
                smem: 1024,
                footprint: 4096,
                facts: StaticFacts {
                    bounds: Some(vec![BufferBound {
                        slot: 0,
                        bound: AccessBound::Extent(4096),
                    }]),
                    alignment: AlignmentFacts::ScalarOnly,
                    barrier: BarrierFacts::WarpSynchronous,
                    stage: StageBound::Bytes(0),
                },
            }
        }
    }

    impl Kernel for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn grid(&self) -> Dim3 {
            self.grid
        }
        fn block_dim(&self) -> Dim3 {
            self.block
        }
        fn shared_mem_bytes(&self) -> u32 {
            self.smem
        }
        fn buffers(&self) -> Vec<BufferSpec> {
            vec![BufferSpec {
                id: BufferId(0),
                name: "buf",
                footprint_bytes: self.footprint,
                pattern: AccessPattern::Streaming,
            }]
        }
        fn execute_block(&self, _block: Dim3, _ctx: &mut BlockContext) {}
        fn static_facts(&self) -> StaticFacts {
            self.facts.clone()
        }
    }

    fn dev() -> DeviceConfig {
        DeviceConfig::v100()
    }

    #[test]
    fn clean_kernel_proves_all_five_classes() {
        let audit = audit(&dev(), &Probe::clean());
        assert_eq!(audit.proven(), 5, "{audit}");
        assert!(audit.refutation().is_none());
    }

    #[test]
    fn conservative_facts_need_dynamic_everywhere_but_grid() {
        let mut probe = Probe::clean();
        probe.facts = StaticFacts::conservative();
        let audit = audit(&dev(), &probe);
        assert_eq!(audit.verdict(CheckClass::GridOccupancy), Verdict::Proven);
        for class in [
            CheckClass::Bounds,
            CheckClass::Alignment,
            CheckClass::SharedCapacity,
            CheckClass::BarrierStructure,
        ] {
            assert_eq!(audit.verdict(class), Verdict::NeedsDynamic, "{class:?}");
        }
    }

    #[test]
    fn bounds_overrun_is_refuted() {
        let mut probe = Probe::clean();
        probe.facts.bounds = Some(vec![BufferBound {
            slot: 0,
            bound: AccessBound::Extent(probe.footprint + 4),
        }]);
        let audit = audit(&dev(), &probe);
        assert_eq!(audit.verdict(CheckClass::Bounds), Verdict::Refuted);
    }

    #[test]
    fn misaligned_residue_class_is_refuted() {
        let mut probe = Probe::clean();
        probe.facts.alignment = AlignmentFacts::Residues(vec![VectorClass {
            slot: 0,
            vec_width: 4,
            elem_bytes: 4,
            worst_residue: 8,
        }]);
        let audit = audit(&dev(), &probe);
        assert_eq!(audit.verdict(CheckClass::Alignment), Verdict::Refuted);

        probe.facts.alignment = AlignmentFacts::Residues(vec![VectorClass {
            slot: 0,
            vec_width: 4,
            elem_bytes: 4,
            worst_residue: 0,
        }]);
        let audit = super::audit(&dev(), &probe);
        assert_eq!(audit.verdict(CheckClass::Alignment), Verdict::Proven);
    }

    #[test]
    fn stage_overflow_is_refuted() {
        let mut probe = Probe::clean();
        probe.facts.stage = StageBound::Bytes(probe.smem as u64 + 1);
        probe.facts.barrier = BarrierFacts::BarrierSeparated;
        let audit = audit(&dev(), &probe);
        assert_eq!(audit.verdict(CheckClass::SharedCapacity), Verdict::Refuted);
        assert_eq!(
            audit.verdict(CheckClass::BarrierStructure),
            Verdict::NeedsDynamic
        );
    }

    #[test]
    fn device_smem_cap_is_refuted_per_device() {
        let mut probe = Probe::clean();
        probe.smem = 60 * 1024; // within V100's 96 KiB, over GTX 1080's 48 KiB
        probe.facts.stage = StageBound::Bytes(0);
        assert_eq!(
            audit(&dev(), &probe).verdict(CheckClass::SharedCapacity),
            Verdict::Proven
        );
        assert_eq!(
            audit(&DeviceConfig::gtx1080(), &probe).verdict(CheckClass::SharedCapacity),
            Verdict::Refuted
        );
    }

    #[test]
    fn grid_limits_and_occupancy_are_refuted() {
        let mut probe = Probe::clean();
        probe.block = Dim3::xy(64, 32); // 2048 threads > 1024
        assert_eq!(
            audit(&dev(), &probe).verdict(CheckClass::GridOccupancy),
            Verdict::Refuted
        );

        let mut probe = Probe::clean();
        probe.grid = Dim3::xy(8, 70_000); // grid.y over the 65535 limit
        assert_eq!(
            audit(&dev(), &probe).verdict(CheckClass::GridOccupancy),
            Verdict::Refuted
        );
    }

    #[test]
    fn missing_barrier_is_refuted_only_multi_warp() {
        let mut probe = Probe::clean();
        probe.facts.barrier = BarrierFacts::NoBarrier;
        assert_eq!(
            audit(&dev(), &probe).verdict(CheckClass::BarrierStructure),
            Verdict::Refuted
        );
        // A single-warp block cannot have cross-warp hazards at all.
        probe.block = Dim3::x(32);
        assert_eq!(
            audit(&dev(), &probe).verdict(CheckClass::BarrierStructure),
            Verdict::Proven
        );
    }

    #[test]
    fn display_names_every_class() {
        let text = format!("{}", audit(&dev(), &Probe::clean()));
        for class in CheckClass::ALL {
            assert!(text.contains(class.name()), "{text}");
        }
    }
}
