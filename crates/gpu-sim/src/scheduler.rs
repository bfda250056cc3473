//! Thread-block scheduling onto SMs.
//!
//! The paper reverse-engineers the Volta thread block scheduler (Section
//! V-C1): blocks in the first wave are assigned to SMs round-robin by
//!
//! ```text
//! sm_idx = 2 * (block_idx mod 40) + (block_idx / 40) mod 2      (80 SMs)
//! ```
//!
//! and after the first wave, blocks are issued *in order of `block_idx`* as
//! resources free up (an online greedy list schedule — the property the row
//! swizzle's "heaviest bundles first" heuristic relies on, like guided
//! self-scheduling).
//!
//! We generalize the formula to `num_sms` SMs by treating it as "even SMs
//! first, then odd SMs": `sm = 2*(b mod H) + (b / H) mod 2` with
//! `H = num_sms / 2`, repeating for subsequent residency slots.

use crate::device::DeviceConfig;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// SM index a given block lands on in the first wave, per the paper's
/// reverse-engineered Volta mapping.
pub fn volta_first_wave_sm(dev: &DeviceConfig, block_idx: u64) -> u32 {
    let sms = dev.num_sms as u64;
    if sms == 1 {
        return 0;
    }
    if sms.is_multiple_of(2) {
        let half = sms / 2;
        let b = block_idx % sms;
        (2 * (b % half) + (b / half) % 2) as u32
    } else {
        (block_idx % sms) as u32
    }
}

/// Result of simulating the block schedule.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Time (in cycles) at which the last block finishes.
    pub makespan_cycles: f64,
    /// Busy cycles accumulated by each SM.
    pub per_sm_busy: Vec<f64>,
    /// Number of full waves the grid occupies
    /// (`ceil(blocks / (num_sms * blocks_per_sm))`).
    pub waves: f64,
    /// Ratio of mean SM busy time to the makespan — 1.0 is a perfectly
    /// balanced schedule; low values indicate tail latency from imbalance.
    pub balance: f64,
}

/// Simulate the execution schedule of `block_cycles[i]` (duration of block
/// with linear index `i`) onto the device's SMs.
///
/// Each SM executes its resident blocks serially at full SM rate (intra-SM
/// concurrency is folded into the latency-hiding efficiency in
/// [`crate::timing`]); `blocks_per_sm` governs how many blocks the first wave
/// places per SM before the online in-order issue takes over. This
/// reproduces both sources of load imbalance the paper identifies: imbalance
/// *between* SMs (some SMs get heavier blocks) and the tail created when a
/// heavy block starts late.
pub fn simulate_schedule(
    dev: &DeviceConfig,
    blocks_per_sm: u32,
    block_cycles: &[f64],
) -> ScheduleResult {
    let num_sms = dev.num_sms as usize;
    let n = block_cycles.len();
    let mut per_sm_busy = vec![0.0f64; num_sms];
    if n == 0 {
        return ScheduleResult {
            makespan_cycles: 0.0,
            per_sm_busy,
            waves: 0.0,
            balance: 1.0,
        };
    }
    let slots_per_sm = blocks_per_sm.max(1) as usize;
    let first_wave = (num_sms * slots_per_sm).min(n);

    // Each SM is a single serial worker: co-resident blocks share the SM's
    // pipelines, so their aggregate service time is the sum of their
    // individual costs (the concurrency benefit — latency hiding — is
    // modeled separately in `timing`). The first wave is pre-placed by the
    // hardware's round-robin mapping *before* durations are known, which is
    // what lets heavy blocks pile onto one SM; afterwards blocks issue in
    // index order to whichever SM frees up first.
    let mut sm_finish = vec![0.0f64; num_sms];

    // First wave: hardware round-robin placement, blind to block weight.
    for (b, &cycles) in block_cycles.iter().enumerate().take(first_wave) {
        let sm = volta_first_wave_sm(dev, b as u64) as usize;
        sm_finish[sm] += cycles;
        per_sm_busy[sm] += cycles;
    }

    // Remaining blocks issue in block_idx order as SMs free up. Heap entry:
    // (finish_time_bits, sm) — f64 ordered via to_bits, monotone for
    // non-negative floats; the SM index makes every key unique, so the
    // minimum (and with it the schedule) is fully determined.
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = sm_finish
        .iter()
        .enumerate()
        .map(|(sm, &t)| Reverse((t.to_bits(), sm as u32)))
        .collect();
    for &cycles in block_cycles.iter().skip(first_wave) {
        // The earliest-free SM takes the block, and its entry is replaced
        // in place (one sift-down). The heap always holds `num_sms`
        // entries, so this never breaks; the guard only satisfies
        // panic-freedom.
        let Some(mut top) = heap.peek_mut() else {
            break;
        };
        let Reverse((free_bits, sm)) = *top;
        let end = f64::from_bits(free_bits) + cycles;
        per_sm_busy[sm as usize] += cycles;
        sm_finish[sm as usize] = end;
        *top = Reverse((end.to_bits(), sm));
    }

    let makespan = sm_finish.iter().cloned().fold(0.0f64, f64::max);
    let busy_sum: f64 = per_sm_busy.iter().sum();
    let mean_busy = busy_sum / num_sms as f64;
    let balance = if makespan > 0.0 {
        mean_busy / makespan
    } else {
        1.0
    };
    let waves = n as f64 / (num_sms as f64 * slots_per_sm as f64);

    ScheduleResult {
        makespan_cycles: makespan,
        per_sm_busy,
        waves,
        balance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> DeviceConfig {
        DeviceConfig::v100()
    }

    #[test]
    fn volta_mapping_matches_paper_formula() {
        let dev = v100();
        // Paper: sm = 2*(b mod 40) + (b/40) mod 2, for 80 SMs.
        for b in 0..160u64 {
            let expect = (2 * (b % 40) + (b / 40) % 2) % 80;
            assert_eq!(volta_first_wave_sm(&dev, b), expect as u32, "block {b}");
        }
    }

    #[test]
    fn first_wave_covers_all_sms() {
        let dev = v100();
        let mut seen = [false; 80];
        for b in 0..80u64 {
            seen[volta_first_wave_sm(&dev, b) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "first 80 blocks must hit all 80 SMs"
        );
    }

    #[test]
    fn uniform_blocks_are_balanced() {
        let dev = v100();
        let blocks = vec![100.0; 800]; // 10 per SM
        let res = simulate_schedule(&dev, 4, &blocks);
        assert!((res.makespan_cycles - 1000.0).abs() < 1e-6);
        assert!(res.balance > 0.999);
    }

    #[test]
    fn one_heavy_block_creates_tail() {
        let dev = v100();
        let mut blocks = vec![10.0; 800];
        blocks[799] = 10_000.0; // heavy block issued LAST: pure tail
        let res = simulate_schedule(&dev, 4, &blocks);
        // Tail-dominated: makespan ~ start-of-last + 10_000.
        assert!(res.makespan_cycles >= 10_000.0);
        assert!(
            res.balance < 0.2,
            "balance should collapse, got {}",
            res.balance
        );
    }

    #[test]
    fn heavy_block_first_is_hidden() {
        let dev = v100();
        let mut blocks = vec![10.0; 800];
        blocks[0] = 10_000.0; // heavy block issued FIRST: overlapped
        let res = simulate_schedule(&dev, 4, &blocks);
        // The other 799 blocks (7990 cycles of work over 79 SMs ≈ 101) finish
        // long before the heavy one: makespan ≈ heavy block.
        assert!(res.makespan_cycles < 10_200.0);
    }

    #[test]
    fn swizzle_ordering_improves_makespan() {
        // Descending order (heaviest first — what the row swizzle produces)
        // must not be worse than an adversarial ascending order.
        let dev = v100();
        let mut asc: Vec<f64> = (0..1600).map(|i| 1.0 + i as f64).collect();
        let desc: Vec<f64> = asc.iter().rev().cloned().collect();
        let r_desc = simulate_schedule(&dev, 2, &desc);
        asc.rotate_left(0);
        let r_asc = simulate_schedule(&dev, 2, &asc);
        assert!(r_desc.makespan_cycles <= r_asc.makespan_cycles);
    }

    #[test]
    fn empty_grid() {
        let dev = v100();
        let res = simulate_schedule(&dev, 1, &[]);
        assert_eq!(res.makespan_cycles, 0.0);
    }
}
