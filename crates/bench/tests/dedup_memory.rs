//! The profile-dedup memory bound, pinned by a peak-tracking global
//! allocator.
//!
//! A deduplicated profile launch keeps one cost record per signature group
//! and only a group index plus a cycle count per block (4 B + 8 B). This
//! test wraps the system allocator with live- and peak-byte counters and
//! requires an SpMM launch of over 100 k blocks and an SDDMM launch of
//! 40,000 to peak under 48 B per block above the bytes live when they
//! started; a full cost record per block (about 200 B) fails it. A launch
//! runs its blocks one at a time on the calling thread, so the peak is that
//! of one block's execution plus the launch's own records.

use gpu_sim::{Gpu, Kernel};
use sparse::rng::SplitMix64;
use sparse::{gen, CsrMatrix, RowSwizzle};
use sputnik::{SddmmConfig, SpmmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

const BYTES_PER_BLOCK: usize = 48;

/// The counters are process-wide, so each test holds this for its whole
/// body: another test's allocations would count toward its peak.
static SERIAL: Mutex<()> = Mutex::new(());

/// Profile `kernel` twice and require the second launch to peak under
/// [`BYTES_PER_BLOCK`] per block; the first warms the thread's scratch
/// arena and the metrics registry.
fn assert_profile_peak_bounded(kernel: &dyn Kernel, min_blocks: usize) {
    let blocks = kernel.grid().size() as usize;
    assert!(blocks >= min_blocks, "grid of {blocks} blocks is too small");
    let gpu = Gpu::v100();
    let warm = gpu.profile(kernel);
    let mut stats = None;
    let peak = peak_above_start(|| stats = Some(gpu.profile(kernel)));
    assert_eq!(stats.as_ref(), Some(&warm), "repeat launch diverged");
    assert!(
        peak < BYTES_PER_BLOCK * blocks,
        "{}: peak {peak} B over {blocks} blocks is {:.1} B per block (bound {BYTES_PER_BLOCK})",
        kernel.name(),
        peak as f64 / blocks as f64
    );
}

#[test]
fn deduped_profile_launch_peaks_under_48_bytes_per_block() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Every row has the same length, so the row strips fall into a handful
    // of signature groups and nearly every block replays a representative.
    let (m, k, n) = (256, 64, 131_072);
    let a = gen::balanced(m, k, 16, 0xDED0);
    let cfg = SpmmConfig::heuristic::<f32>(n);
    let swizzle = RowSwizzle::for_config(&a, cfg.row_swizzle);
    let kernel = sputnik::SpmmKernel::<f32>::for_profile(&a, n, &swizzle, cfg);
    assert_profile_peak_bounded(&kernel, 100_000);
}

#[test]
fn deduped_sddmm_profile_launch_peaks_under_48_bytes_per_block() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One 1,024-nonzero row among 1,249 rows of at most 40: the grid is 32
    // strips x 1250 rows, and most blocks exit early (paper §VI-A).
    let (rows, cols) = (1250, 2048);
    let mut rng = SplitMix64::new(0xDED1);
    let mut offsets = vec![0u32];
    let mut indices = Vec::new();
    for r in 0..rows {
        let len = if r == 0 {
            1024
        } else {
            (rng.next_u64() % 41) as usize
        };
        let stride = cols / len.max(1);
        indices.extend((0..len).map(|i| (i * stride + rng.next_u64() as usize % stride) as u32));
        offsets.push(indices.len() as u32);
    }
    let values = vec![1.0f32; indices.len()];
    let mask = CsrMatrix::from_parts(rows, cols, offsets, indices, values)
        .unwrap_or_else(|e| panic!("invalid mask: {e}"));
    let cfg = SddmmConfig::heuristic::<f32>(64);
    let swizzle = RowSwizzle::for_config(&mask, cfg.row_swizzle);
    let kernel = sputnik::SddmmKernel::<f32>::for_profile(&mask, 64, &swizzle, cfg);
    assert_profile_peak_bounded(&kernel, 40_000);
}
