//! The profile-dedup memory bound, pinned by a peak-tracking global
//! allocator.
//!
//! A deduplicated profile launch keeps one cost record per signature group
//! and only a group index plus a cycle count per block (4 B + 8 B). This
//! test wraps the system allocator with live- and peak-byte counters and
//! requires a launch of over 100 k blocks to peak under 48 B per block above
//! the bytes live when it started; a full cost record per block (about
//! 200 B) fails it.

use gpu_sim::{Gpu, Kernel};
use sparse::{gen, RowSwizzle};
use sputnik::SpmmConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // Count the grown size before releasing the old one: a moving
            // realloc holds both blocks for a moment.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Bytes allocated at the peak of `f`, above those live when it started.
fn peak_above_start(f: impl FnOnce()) -> usize {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(start)
}

#[test]
fn deduped_profile_launch_peaks_under_48_bytes_per_block() {
    const BYTES_PER_BLOCK: usize = 48;
    // Every row has the same length, so the row strips fall into a handful
    // of signature groups and nearly every block replays a representative.
    let (m, k, n) = (256, 64, 131_072);
    let a = gen::balanced(m, k, 16, 0xDED0);
    let cfg = SpmmConfig::heuristic::<f32>(n);
    let swizzle = RowSwizzle::for_config(&a, cfg.row_swizzle);
    let kernel = sputnik::SpmmKernel::<f32>::for_profile(&a, n, &swizzle, cfg);
    let blocks = kernel.grid().size() as usize;
    assert!(blocks >= 100_000, "grid of {blocks} blocks is too small");

    let gpu = Gpu::v100();
    // The first launch warms the rayon pool and the metrics registry.
    let warm = gpu.profile(&kernel);
    let mut stats = None;
    let peak = peak_above_start(|| stats = Some(gpu.profile(&kernel)));
    assert_eq!(stats.as_ref(), Some(&warm), "repeat launch diverged");
    assert!(
        peak < BYTES_PER_BLOCK * blocks,
        "peak {peak} B over {blocks} blocks is {:.1} B per block (bound {BYTES_PER_BLOCK})",
        peak as f64 / blocks as f64
    );
}
