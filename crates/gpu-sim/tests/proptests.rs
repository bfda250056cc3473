//! Property-based tests for the simulator's arithmetic invariants.

use gpu_sim::{memory, occupancy, simulate_schedule, BlockRequirements, DeviceConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A contiguous range's sector count is within 1 of bytes/32 and never
    /// less than the aligned minimum.
    #[test]
    fn sectors_contiguous_bounds(addr in 0u64..1_000_000, bytes in 1u64..4096) {
        let s = memory::sectors_contiguous(addr, bytes);
        prop_assert!(s >= bytes.div_ceil(32));
        prop_assert!(s <= bytes.div_ceil(32) + 1);
    }

    /// Misalignment can only add sectors relative to the aligned access.
    #[test]
    fn alignment_never_hurts(addr in 0u64..10_000, bytes in 1u64..2048) {
        let aligned = memory::sectors_contiguous(0, bytes);
        let misaligned = memory::sectors_contiguous(addr, bytes);
        prop_assert!(misaligned >= aligned);
    }

    /// Gather never exceeds per-lane worst case nor undercuts the bytes.
    #[test]
    fn gather_bounds(addrs in proptest::collection::vec(0u64..100_000, 1..32)) {
        let s = memory::sectors_gather(&addrs, 4);
        prop_assert!(s >= 1);
        prop_assert!(s <= addrs.len() as u64 * 2);
    }

    /// Wider vectors never increase the instruction count.
    #[test]
    fn vector_width_monotone(elems in 1u64..100_000, lanes in 1u32..33) {
        let mut prev = u64::MAX;
        for vw in [1u32, 2, 4, 8] {
            let n = memory::vector_instr_count(elems, lanes, vw);
            prop_assert!(n <= prev);
            prop_assert!(n * (lanes as u64) * (vw as u64) >= elems, "must cover all elements");
            prev = n;
        }
    }

    /// Occupancy: at least one block fits when within device limits (<= 64
    /// regs/thread keeps even a 1024-thread block under the register file),
    /// and more shared memory can only reduce residency.
    #[test]
    fn occupancy_monotone_in_smem(threads in 32u32..1024, smem in 0u32..48*1024, regs in 16u32..=64) {
        let dev = DeviceConfig::v100();
        let base = occupancy::occupancy(&dev, &BlockRequirements { threads, smem_bytes: smem, regs_per_thread: regs });
        prop_assert!(base.blocks_per_sm >= 1);
        let more = occupancy::occupancy(&dev, &BlockRequirements { threads, smem_bytes: smem + 8192, regs_per_thread: regs });
        prop_assert!(more.blocks_per_sm <= base.blocks_per_sm);
        prop_assert!(base.fraction <= 1.0);
    }

    /// Schedule invariants: makespan at least the critical path and the
    /// mean load; per-SM busy sums to total work; balance in (0, 1].
    #[test]
    fn schedule_invariants(blocks in proptest::collection::vec(1.0f64..1000.0, 1..400),
                           bps in 1u32..8) {
        let dev = DeviceConfig::v100();
        let res = simulate_schedule(&dev, bps, &blocks);
        let total: f64 = blocks.iter().sum();
        let longest = blocks.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(res.makespan_cycles >= longest - 1e-9);
        prop_assert!(res.makespan_cycles >= total / dev.num_sms as f64 - 1e-6);
        prop_assert!(res.makespan_cycles <= total + 1e-6, "cannot exceed fully serial");
        let busy: f64 = res.per_sm_busy.iter().sum();
        prop_assert!((busy - total).abs() < 1e-6 * total.max(1.0));
        prop_assert!(res.balance > 0.0 && res.balance <= 1.0 + 1e-9);
    }

    /// The heap scheduler makes the same choices as a linear scan for the
    /// earliest-free SM, ties broken by the lower SM index: makespan and
    /// per-SM busy time agree bit for bit. Grids fall below, at and above
    /// the first wave; durations are all equal (every choice is a tie), drawn
    /// from a few values (frequent ties), or all distinct.
    #[test]
    fn schedule_matches_linear_scan(bps in 1u32..=8,
                                    region in 0u32..3,
                                    frac in 0.0f64..1.0,
                                    edge in -1i64..=1,
                                    durations in 0u32..3,
                                    values in proptest::collection::vec(1.0f64..1000.0, 1..6)) {
        let dev = DeviceConfig::v100();
        let first_wave = (dev.num_sms * bps) as i64;
        let n = match region {
            0 => (frac * first_wave as f64) as i64,
            1 => first_wave + edge,
            _ => first_wave + 1 + (frac * 6.0 * first_wave as f64) as i64,
        } as usize;
        let blocks: Vec<f64> = (0..n)
            .map(|i| match durations {
                0 => values[0],
                1 => values[i % values.len()],
                _ => values[i % values.len()] + i as f64 / 7.0,
            })
            .collect();
        let res = simulate_schedule(&dev, bps, &blocks);
        let (makespan, busy) = linear_scan_schedule(&dev, bps, &blocks);
        prop_assert_eq!(res.makespan_cycles.to_bits(), makespan.to_bits());
        let res_bits: Vec<u64> = res.per_sm_busy.iter().map(|b| b.to_bits()).collect();
        let ref_bits: Vec<u64> = busy.iter().map(|b| b.to_bits()).collect();
        prop_assert_eq!(res_bits, ref_bits);
    }

    /// The Volta first-wave mapping covers SMs without gaps over any full
    /// cycle of indices.
    #[test]
    fn volta_mapping_is_onto(offset in 0u64..10_000) {
        let dev = DeviceConfig::v100();
        let mut seen = vec![false; dev.num_sms as usize];
        for b in offset..offset + dev.num_sms as u64 {
            // Offsets within one period map each block to a distinct SM.
            seen[gpu_sim::volta_first_wave_sm(&dev, b % dev.num_sms as u64) as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

/// Reference list schedule: the first wave placed by the Volta mapping, then
/// each block on the SM that frees first, found by a linear scan for the
/// least `(finish bits, SM)`. Returns the makespan and per-SM busy cycles.
fn linear_scan_schedule(dev: &DeviceConfig, bps: u32, blocks: &[f64]) -> (f64, Vec<f64>) {
    let sms = dev.num_sms as usize;
    let first_wave = sms * bps.max(1) as usize;
    let mut finish = vec![0.0f64; sms];
    let mut busy = vec![0.0f64; sms];
    for (b, &cycles) in blocks.iter().enumerate() {
        let sm = if b < first_wave {
            gpu_sim::volta_first_wave_sm(dev, b as u64) as usize
        } else {
            (0..sms)
                .min_by_key(|&sm| (finish[sm].to_bits(), sm))
                .unwrap_or(0)
        };
        finish[sm] += cycles;
        busy[sm] += cycles;
    }
    (finish.iter().copied().fold(0.0, f64::max), busy)
}
