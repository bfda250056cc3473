//! Software IEEE 754 binary16 ("half precision").
//!
//! The paper's mixed-precision kernels store data as FP16 and compute in
//! FP32 ("we convert FP16 data to FP32 and issue FP32 fused multiply-add
//! instructions, as is standard"). No `half` crate is used; conversions are
//! implemented bit-exactly here, with round-to-nearest-even, so the numerics
//! of the mixed-precision path are faithful.

use std::fmt;

/// An IEEE 754 binary16 value. 1 sign bit, 5 exponent bits, 10 mantissa bits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(transparent)]
pub struct Half(pub u16);

impl Half {
    pub const ZERO: Half = Half(0);
    pub const ONE: Half = Half(0x3C00);
    pub const INFINITY: Half = Half(0x7C00);
    pub const NEG_INFINITY: Half = Half(0xFC00);
    /// Largest finite value, 65504.
    pub const MAX: Half = Half(0x7BFF);

    /// Convert from f32 with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Half {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN. Preserve NaN-ness with a quiet mantissa bit.
            return if mant == 0 {
                Half(sign | 0x7C00)
            } else {
                Half(sign | 0x7E00)
            };
        }

        // Unbiased exponent, rebiasing from 127 to 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflows half range: round to infinity.
            return Half(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal half. 13 mantissa bits are dropped with RNE.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let half_mant = (mant >> 13) as u16;
            let rest = mant & 0x1FFF;
            let mut h = sign | half_exp | half_mant;
            // Round to nearest even.
            if rest > 0x1000 || (rest == 0x1000 && (half_mant & 1) == 1) {
                h = h.wrapping_add(1); // may carry into the exponent: correct behavior
            }
            return Half(h);
        }
        if unbiased >= -24 {
            // Subnormal half: the result is round(|v| / 2^-24) =
            // round(full_mant * 2^(unbiased + 1 - 23 + 23)) = full_mant >> shift
            // with shift = -unbiased - 1 in 14..=23.
            let shift = (-unbiased - 1) as u32;
            let full_mant = mant | 0x0080_0000; // implicit leading 1
            let shifted = full_mant >> shift;
            let rest = full_mant & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut h = sign | (shifted as u16);
            if rest > halfway || (rest == halfway && (shifted & 1) == 1) {
                h = h.wrapping_add(1);
            }
            return Half(h);
        }
        // Underflows to signed zero.
        Half(sign)
    }

    /// Convert to f32 (exact: every half value is representable in f32).
    pub fn to_f32(self) -> f32 {
        let bits = self.0 as u32;
        let sign = (bits & 0x8000) << 16;
        let exp = (bits >> 10) & 0x1F;
        let mant = bits & 0x03FF;

        let out = if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal half: value = mant * 2^-24. Normalize by shifting
                // until bit 10 is set (s shifts): value = m_norm * 2^(-14-s-10),
                // so the f32 biased exponent is 113 - s.
                let mut s = 0u32;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    s += 1;
                }
                m &= 0x03FF;
                let f32_exp = (113 - s) << 23;
                sign | f32_exp | (m << 13)
            }
        } else if exp == 0x1F {
            // Inf / NaN.
            sign | 0x7F80_0000 | (mant << 13)
        } else {
            let f32_exp = (exp + 127 - 15) << 23;
            sign | f32_exp | (mant << 13)
        };
        f32::from_bits(out)
    }

    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for Half {
    fn from(v: f32) -> Self {
        Half::from_f32(v)
    }
}

impl From<Half> for f32 {
    fn from(h: Half) -> Self {
        h.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048i32 {
            let f = i as f32;
            assert_eq!(Half::from_f32(f).to_f32(), f, "integer {i}");
        }
    }

    #[test]
    fn one_is_one() {
        assert_eq!(Half::from_f32(1.0), Half::ONE);
        assert_eq!(Half::ONE.to_f32(), 1.0);
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(Half::from_f32(1e6), Half::INFINITY);
        assert_eq!(Half::from_f32(-1e6), Half::NEG_INFINITY);
        assert_eq!(Half::from_f32(65504.0), Half::MAX, "max finite half");
        assert_eq!(
            Half::from_f32(65520.0),
            Half::INFINITY,
            "just past max rounds to inf"
        );
    }

    #[test]
    fn nan_propagates() {
        assert!(Half::from_f32(f32::NAN).is_nan());
        assert!(Half::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal half = 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(Half::from_f32(tiny).0, 1);
        assert_eq!(Half(1).to_f32(), tiny);
        // Largest subnormal: (1023/1024) * 2^-14.
        let lsub = (1023.0 / 1024.0) * 2.0f32.powi(-14);
        assert_eq!(Half::from_f32(lsub).to_f32(), lsub);
        // Below half of the smallest subnormal: flush to zero.
        assert_eq!(Half::from_f32(2.0f32.powi(-26)), Half::ZERO);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10: rounds to even (1.0).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(Half::from_f32(halfway).to_f32(), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds to even (1+2^-9).
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(Half::from_f32(halfway_up).to_f32(), 1.0 + 2.0f32.powi(-9));
        // Just above halfway rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(Half::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn rounding_carry_into_exponent() {
        // The largest value below 2.0 rounds up across the binade boundary.
        let v = 2.0 - 2.0f32.powi(-12);
        assert_eq!(Half::from_f32(v).to_f32(), 2.0);
    }

    #[test]
    fn signed_zero() {
        assert_eq!(Half::from_f32(-0.0).0, 0x8000);
        assert_eq!(Half::from_f32(-0.0).to_f32(), -0.0);
        assert!(Half::from_f32(-0.0).to_f32().is_sign_negative());
    }

    #[test]
    fn roundtrip_preserves_half_values() {
        // Every finite half value must survive to_f32 -> from_f32 unchanged.
        for bits in 0..=0xFFFFu16 {
            let h = Half(bits);
            if h.is_nan() {
                continue;
            }
            let back = Half::from_f32(h.to_f32());
            assert_eq!(back.0, h.0, "bits {bits:#06x}");
        }
    }
}
