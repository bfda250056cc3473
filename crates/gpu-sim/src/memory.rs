//! Memory-coalescing arithmetic.
//!
//! GPUs service global-memory warp accesses in 32-byte *sectors*. A warp
//! instruction touching N distinct sectors costs N transactions regardless of
//! how many lanes participate; perfectly coalesced accesses therefore cost
//! `ceil(bytes / 32)` transactions while strided or scattered accesses can
//! cost one transaction per lane. This module computes sector counts from
//! access descriptions so that kernels' cost traces reflect their real
//! address patterns — in particular the paper's central point that rows of a
//! CSR matrix start at arbitrarily aligned addresses (motivating ROMA).

/// Size of a DRAM/L2 sector in bytes.
pub const SECTOR_BYTES: u64 = 32;

/// Sectors touched by a contiguous byte range `[addr, addr + bytes)`.
///
/// A misaligned range straddles one more sector than an aligned one of the
/// same size, which is exactly the penalty ROMA removes by backing row
/// pointers up to an aligned address.
pub fn sectors_contiguous(addr: u64, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let first = addr / SECTOR_BYTES;
    let last = (addr + bytes - 1) / SECTOR_BYTES;
    last - first + 1
}

/// Sectors touched by a strided warp access: `lanes` active lanes, lane `i`
/// reading `elem_bytes` at `base + i * stride_bytes`.
///
/// With `stride_bytes == elem_bytes` this degrades to the contiguous case;
/// with large strides (e.g. column-major dense matrix walks, which is how
/// cuSPARSE lays out its dense operands) every lane hits its own sector.
pub fn sectors_strided(base: u64, lanes: u32, stride_bytes: u64, elem_bytes: u64) -> u64 {
    if lanes == 0 || elem_bytes == 0 {
        return 0;
    }
    if stride_bytes == elem_bytes {
        return sectors_contiguous(base, lanes as u64 * elem_bytes);
    }
    if stride_bytes >= SECTOR_BYTES {
        // Each lane touches its own sector(s); no overlap possible.
        let per_lane = sectors_contiguous(base, elem_bytes).max(1);
        return lanes as u64 * per_lane;
    }
    // Small stride: lanes partially share sectors. The span covered is
    // (lanes-1)*stride + elem_bytes.
    let span = (lanes as u64 - 1) * stride_bytes + elem_bytes;
    sectors_contiguous(base, span)
}

/// Sectors touched by a gather: arbitrary per-lane byte addresses, each lane
/// reading `elem_bytes`. Duplicate sectors within the warp are merged, as the
/// hardware's coalescer does.
pub fn sectors_gather(addrs: &[u64], elem_bytes: u64) -> u64 {
    debug_assert!(addrs.len() <= 32, "a warp has at most 32 lanes");
    if addrs.is_empty() {
        return 0;
    }
    // At most 64 sectors for 32 lanes of <=32B each; a tiny sort dedupes.
    let mut sectors = [0u64; 64];
    let mut n = 0;
    for &a in addrs {
        let first = a / SECTOR_BYTES;
        let last = if elem_bytes == 0 {
            first
        } else {
            (a + elem_bytes - 1) / SECTOR_BYTES
        };
        let mut s = first;
        while s <= last && n < sectors.len() {
            sectors[n] = s;
            n += 1;
            s += 1;
        }
    }
    let sectors = &mut sectors[..n];
    sectors.sort_unstable();
    let mut count = 0u64;
    let mut prev = u64::MAX;
    for &s in sectors.iter() {
        if s != prev {
            count += 1;
            prev = s;
        }
    }
    count
}

/// Number of warp-level load/store *instructions* needed for `total_elems`
/// elements spread over `lanes` lanes with `vec_width`-element vector
/// accesses. This is the instruction-count savings the paper's vector memory
/// operations (Section V-B) provide: a 4-wide load quarters the instructions.
pub fn vector_instr_count(total_elems: u64, lanes: u32, vec_width: u32) -> u64 {
    let per_instr = lanes as u64 * vec_width as u64;
    total_elems.div_ceil(per_instr.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_aligned() {
        assert_eq!(sectors_contiguous(0, 128), 4);
        assert_eq!(sectors_contiguous(32, 32), 1);
        assert_eq!(sectors_contiguous(0, 0), 0);
    }

    #[test]
    fn contiguous_misaligned_costs_extra_sector() {
        // 128 bytes starting 4 bytes into a sector straddles 5 sectors.
        assert_eq!(sectors_contiguous(4, 128), 5);
        // This is the ROMA motivation: aligned start avoids the 5th sector.
        assert_eq!(sectors_contiguous(0, 128), 4);
    }

    #[test]
    fn strided_large_stride_one_sector_per_lane() {
        // Column-major walk with 8 KiB stride: 32 separate sectors.
        assert_eq!(sectors_strided(0, 32, 8192, 4), 32);
    }

    #[test]
    fn strided_unit_stride_is_contiguous() {
        assert_eq!(sectors_strided(0, 32, 4, 4), 4);
    }

    #[test]
    fn gather_merges_duplicate_sectors() {
        let addrs = [0u64, 4, 8, 12, 64, 68];
        assert_eq!(sectors_gather(&addrs, 4), 2);
    }

    #[test]
    fn gather_scattered() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        assert_eq!(sectors_gather(&addrs, 4), 32);
    }

    #[test]
    fn vector_instrs() {
        // 128 floats over 32 lanes: 4 scalar instructions, 1 vec4 instruction.
        assert_eq!(vector_instr_count(128, 32, 1), 4);
        assert_eq!(vector_instr_count(128, 32, 4), 1);
        // 8 lanes (subwarp), vec4: 128/(8*4) = 4 instructions.
        assert_eq!(vector_instr_count(128, 8, 4), 4);
    }
}
