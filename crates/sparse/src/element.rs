//! Scalar element abstraction shared by all kernels.
//!
//! Kernels are generic over the stored element type: `f32` for the paper's
//! single-precision kernels and [`Half`] for the mixed-precision kernels
//! (16-bit storage, 32-bit accumulation).

use crate::f16::Half;
use std::fmt::Debug;

/// A scalar that can be stored in matrices and processed by kernels.
///
/// Arithmetic is always performed in f32 — exactly the paper's
/// mixed-precision scheme — so the trait only needs conversions.
pub trait Scalar: Copy + Clone + Debug + Default + Send + Sync + PartialEq + 'static {
    /// Bytes occupied by one element in device memory.
    const BYTES: u32;
    /// Human-readable precision tag for kernel names ("f32", "f16").
    const TAG: &'static str;

    fn to_f32(self) -> f32;
    fn from_f32(v: f32) -> Self;

    /// Neither infinite nor NaN: `to_f32().is_finite()`, read from the
    /// stored bits where that needs no conversion.
    fn is_finite(self) -> bool;

    fn zero() -> Self {
        Self::from_f32(0.0)
    }
}

impl Scalar for f32 {
    const BYTES: u32 = 4;
    const TAG: &'static str = "f32";

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline]
    fn from_f32(v: f32) -> Self {
        v
    }

    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Scalar for Half {
    const BYTES: u32 = 2;
    const TAG: &'static str = "f16";

    #[inline]
    fn to_f32(self) -> f32 {
        Half::to_f32(self)
    }

    #[inline]
    fn from_f32(v: f32) -> Self {
        Half::from_f32(v)
    }

    /// The exponent field is all ones exactly for the infinities and NaNs.
    /// One mask and compare, where `to_f32` branches on the exponent.
    #[inline]
    fn is_finite(self) -> bool {
        self.0 & 0x7C00 != 0x7C00
    }
}

/// Sparse-matrix metadata (column index) width.
///
/// The paper's mixed-precision kernels use 16-bit indices ("due to the
/// reduced representational capacity of 16-bit integers, we do not perform
/// our index pre-scaling optimization for mixed-precision kernels"), while
/// cuSPARSE only supports 32-bit indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexWidth {
    U16,
    U32,
}

impl IndexWidth {
    pub const fn bytes(self) -> u32 {
        match self {
            IndexWidth::U16 => 2,
            IndexWidth::U32 => 4,
        }
    }

    /// Whether a matrix with `cols` columns can be indexed at this width.
    pub const fn can_index(self, cols: usize) -> bool {
        match self {
            IndexWidth::U16 => cols <= u16::MAX as usize + 1,
            IndexWidth::U32 => cols <= u32::MAX as usize + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_is_identity() {
        assert_eq!(<f32 as Scalar>::from_f32(1.25), 1.25);
        assert_eq!(1.25f32.to_f32(), 1.25);
        assert_eq!(<f32 as Scalar>::BYTES, 4);
    }

    #[test]
    fn half_roundtrips_through_trait() {
        let h = <Half as Scalar>::from_f32(0.5);
        assert_eq!(Scalar::to_f32(h), 0.5);
        assert_eq!(<Half as Scalar>::BYTES, 2);
    }

    #[test]
    fn half_finiteness_reads_the_exponent_field_for_every_bit_pattern() {
        for bits in 0..=u16::MAX {
            let h = Half(bits);
            assert_eq!(
                Scalar::is_finite(h),
                h.to_f32().is_finite(),
                "bits {bits:#06x}"
            );
        }
    }

    #[test]
    fn index_widths() {
        assert!(IndexWidth::U16.can_index(65536));
        assert!(!IndexWidth::U16.can_index(65537));
        assert!(IndexWidth::U32.can_index(1 << 20));
        assert_eq!(IndexWidth::U16.bytes(), 2);
    }
}
