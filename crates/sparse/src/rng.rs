//! The workspace's frozen random stream: splitmix64.
//!
//! Everything whose exact bit pattern is part of a committed result draws
//! from this one generator rather than from a general-purpose RNG crate, so
//! a dependency change can never silently move a number:
//!
//! - [`crate::gen::activations`], whose matrices the joint-sparsity
//!   baselines replay bit for bit;
//! - `serve`'s request-arrival traces;
//! - `gpu_sim`'s per-launch fault hash, which feeds [`mix64`] directly.
//!
//! The output is pure integer arithmetic plus one exact int→float
//! conversion, so it is identical on every platform and build. It is not a
//! cryptographic generator.

/// The splitmix64 increment: 2^64 / φ, rounded to odd.
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a bijective avalanche mix of one word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from the top 53 bits of `bits`.
#[inline]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seedable splitmix64 stream.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }

    /// Uniform in `[0, 1)` with 53 bits of mantissa.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream is frozen: these are splitmix64's reference outputs from
    /// seed 0, and every committed result drawn from it depends on them.
    #[test]
    fn first_outputs_from_seed_zero_are_pinned() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = SplitMix64::new(7);
        assert!((0..1000)
            .map(|_| rng.next_f64())
            .all(|u| (0.0..1.0).contains(&u)));
        assert_eq!(unit_f64(0), 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
    }
}
