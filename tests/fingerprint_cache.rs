//! The launch cache keys on the operand's topology fingerprint, which
//! `CsrMatrix` memoizes. New values on the same topology must replay the
//! cold launch; a different topology of the same shape must miss.

use gpu_sim::{Gpu, LaunchCache};
use sparse::gen;
use sputnik::{SddmmConfig, SpmmConfig};

const N: usize = 64;

#[test]
fn spmm_cache_hits_on_new_values_and_misses_on_transpose() {
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();
    let a = gen::uniform(128, 128, 0.8, 4242);
    let cfg = SpmmConfig::heuristic::<f32>(N);

    let (cold, hit) = sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &a, a.cols(), N, cfg);
    assert!(!hit, "first launch must miss");

    let revalued = a.with_values(vec![0.5; a.nnz()]);
    let (warm, hit) =
        sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &revalued, a.cols(), N, cfg);
    assert!(hit, "new values on the same topology must hit");
    assert_eq!(warm, cold);

    // Transposed after the cold launch filled `a`'s fingerprint memo, so a
    // memo leaking into the new topology would turn this into a false hit.
    let t = a.transpose();
    assert!(!t.same_pattern(&a), "pattern must not be symmetric");
    let (_, hit) = sputnik::spmm_profile_cached::<f32>(&gpu, &cache, &t, t.cols(), N, cfg);
    assert!(!hit, "the transposed topology must miss");
}

#[test]
fn sddmm_cache_hits_on_new_values_and_misses_on_transpose() {
    let gpu = Gpu::v100();
    let cache = LaunchCache::new();
    let mask = gen::uniform(128, 128, 0.8, 4243);
    let cfg = SddmmConfig::heuristic::<f32>(N);

    let (cold, hit) = sputnik::sddmm_profile_cached::<f32>(&gpu, &cache, &mask, N, cfg);
    assert!(!hit, "first launch must miss");

    let revalued = mask.with_values(vec![0.5; mask.nnz()]);
    let (warm, hit) = sputnik::sddmm_profile_cached::<f32>(&gpu, &cache, &revalued, N, cfg);
    assert!(hit, "new values on the same topology must hit");
    assert_eq!(warm, cold);

    let t = mask.transpose();
    assert!(!t.same_pattern(&mask), "pattern must not be symmetric");
    let (_, hit) = sputnik::sddmm_profile_cached::<f32>(&gpu, &cache, &t, N, cfg);
    assert!(!hit, "the transposed topology must miss");
}
