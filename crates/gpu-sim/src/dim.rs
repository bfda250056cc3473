//! CUDA-style 3-dimensional index types for grids and thread blocks.

/// A 3-dimensional extent or index, mirroring CUDA's `dim3`.
///
/// Used both for grid dimensions (number of thread blocks along each axis)
/// and block dimensions (number of threads along each axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// A 1-dimensional extent `(x, 1, 1)`.
    pub const fn x(x: u32) -> Self {
        Self { x, y: 1, z: 1 }
    }

    /// A 2-dimensional extent `(x, y, 1)`.
    pub const fn xy(x: u32, y: u32) -> Self {
        Self { x, y, z: 1 }
    }

    /// A full 3-dimensional extent.
    pub const fn xyz(x: u32, y: u32, z: u32) -> Self {
        Self { x, y, z }
    }

    /// Total number of elements covered by this extent.
    pub const fn size(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Linearize an index within this extent, x fastest (CUDA convention:
    /// `blockIdx.x + blockIdx.y * gridDim.x + blockIdx.z * gridDim.x * gridDim.y`).
    ///
    /// This matches the `block_idx` computation the paper uses when
    /// reverse-engineering the Volta thread block scheduler (Section V-C1).
    pub const fn linear(&self, idx: Dim3) -> u64 {
        idx.x as u64 + idx.y as u64 * self.x as u64 + idx.z as u64 * (self.x as u64 * self.y as u64)
    }

    /// Invert [`Self::linear`]: recover the 3-d index from a linear index.
    pub const fn delinearize(&self, linear: u64) -> Dim3 {
        let x = (linear % self.x as u64) as u32;
        let y = ((linear / self.x as u64) % self.y as u64) as u32;
        let z = (linear / (self.x as u64 * self.y as u64)) as u32;
        Dim3 { x, y, z }
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::xy(x, y)
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Dim3::xyz(x, y, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_product() {
        assert_eq!(Dim3::xyz(2, 3, 4).size(), 24);
        assert_eq!(Dim3::x(7).size(), 7);
    }

    #[test]
    fn linear_roundtrip() {
        let g = Dim3::xyz(5, 4, 3);
        for z in 0..3 {
            for y in 0..4 {
                for x in 0..5 {
                    let idx = Dim3::xyz(x, y, z);
                    let lin = g.linear(idx);
                    assert_eq!(g.delinearize(lin), idx);
                }
            }
        }
    }

    #[test]
    fn linear_is_x_fastest() {
        let g = Dim3::xy(10, 10);
        assert_eq!(g.linear(Dim3::xyz(3, 0, 0)), 3);
        assert_eq!(g.linear(Dim3::xyz(0, 1, 0)), 10);
        assert_eq!(g.linear(Dim3::xyz(3, 2, 0)), 23);
    }
}
