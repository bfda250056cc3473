//! Zero-block pattern LUTs over a dense operand (the ESMM preprocessing
//! pass).
//!
//! Joint activation×weight sparsity needs a *warp-uniform* way to skip work:
//! per-element zero checks on the dense operand diverge within a warp and
//! cost more than they save. Instead, the dense operand `B` (`k x n`,
//! row-major — the activations of an inference GEMM) is tiled into
//! `tile_k x 32` blocks and each block collapses to one bit: **live** (some
//! element is nonzero) or **dead** (every element is exactly `+0.0`). A
//! subwarp processing one sparse nonzero `(row, col, val)` against a 32-wide
//! output strip probes one bit — the tile covering B-rows
//! `[col/tile_k * tile_k ..)` at its output column tile — and either issues
//! the whole strip load + FMA or skips both. Every lane of the subwarp reads
//! the same bit, so the branch is uniform: zero divergence, one probe
//! amortized over `tile_k` B-rows × 32 columns of skipped work.
//!
//! Two granularities, after ESMM's K28/K24 kernels:
//!
//! * [`PatternGranularity::Fine`] — 8×32 tiles. Finds the most dead blocks
//!   (any 8 aligned dead B-rows kill a tile) at 8× the LUT size and probe
//!   rate of coarse.
//! * [`PatternGranularity::Coarse`] — 64×32 tiles. One probe covers eight
//!   fine tiles; only long runs of dead rows die at this granularity, so it
//!   skips less but costs near zero overhead in the main loop.
//!
//! ## Why skipping a dead tile is bit-invisible
//!
//! The weight-only kernel folds every nonzero into its accumulator tile with
//! `acc[i] = val.mul_add(b[i], acc[i])`. A dead tile contributes terms
//! `val.mul_add(+0.0, acc[i])`. The product `val * +0.0` is `±0.0`, and
//! IEEE-754 addition gives `±0.0 + x == x` bitwise for every `x` except
//! `x == ±0.0` of the *opposite* sign, where the sum is `+0.0`. So the only
//! way a skipped term could change the accumulator is if the accumulator
//! were exactly `-0.0`. It never is: accumulators start at `+0.0` (zeroed
//! scratch), and an fma chain starting from `+0.0` cannot *reach* `-0.0` —
//! producing `-0.0` from `p + acc` requires `p == -0.0` **and**
//! `acc == -0.0`, so the first `-0.0` accumulator would need a `-0.0`
//! accumulator before it. By induction, `acc` is never `-0.0`, so
//! `val.mul_add(+0.0, acc) == acc` bitwise and dead-tile skipping replays
//! the reference chain exactly. (This is why [`PatternLut::build`] treats a
//! tile as dead only when every element's bit pattern is `+0.0` — a `-0.0`
//! element marks its tile live, keeping the argument airtight.)

use crate::dense::{Layout, Matrix};
use crate::element::Scalar;

/// Zero-block tile shape, after ESMM's kernel progression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternGranularity {
    /// 8×32 tiles (ESMM K28): maximal skip discovery.
    Fine,
    /// 64×32 tiles (ESMM K24): minimal probe overhead.
    Coarse,
}

impl PatternGranularity {
    /// Dense-operand rows per tile (the `k` direction of `B`).
    pub fn tile_k(self) -> usize {
        match self {
            PatternGranularity::Fine => 8,
            PatternGranularity::Coarse => 64,
        }
    }

    /// Output columns per tile (the warp-uniform strip width).
    pub fn tile_n(self) -> usize {
        32
    }

    /// Short name for kernel tags (`g8` / `g64`).
    pub fn tag(self) -> &'static str {
        match self {
            PatternGranularity::Fine => "g8",
            PatternGranularity::Coarse => "g64",
        }
    }
}

/// A per-tile liveness bitmap over a dense `k x n` operand.
///
/// Bit `kt * ntiles + nt` is 1 when tile `(kt, nt)` contains any element
/// whose bit pattern is not `+0.0`. Trailing ragged tiles (when `k % tile_k`
/// or `n % 32` is nonzero) cover only the in-bounds remainder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternLut {
    rows: usize,
    cols: usize,
    granularity: PatternGranularity,
    ktiles: usize,
    ntiles: usize,
    words: Vec<u64>,
    live_tiles: u64,
}

impl PatternLut {
    /// Scan the dense operand and build the liveness bitmap.
    ///
    /// `b` must be row-major (the layout every Sputnik kernel consumes).
    /// Cost is one pass over the operand; the LUT itself is
    /// `ceil(ktiles * ntiles / 64)` words — 4096×4096 at fine granularity is
    /// 8 KiB.
    pub fn build<T: Scalar>(b: &Matrix<T>, granularity: PatternGranularity) -> Self {
        assert_eq!(
            b.layout(),
            Layout::RowMajor,
            "pattern LUTs tile row-major operands"
        );
        let rows = b.rows();
        let cols = b.cols();
        let tile_k = granularity.tile_k();
        let tile_n = granularity.tile_n();
        let ktiles = rows.div_ceil(tile_k).max(usize::from(rows == 0));
        let ntiles = cols.div_ceil(tile_n).max(usize::from(cols == 0));
        let bits = ktiles * ntiles;
        let mut words = vec![0u64; bits.div_ceil(64).max(1)];
        let data = b.as_slice();
        for r in 0..rows {
            let kt = r / tile_k;
            let row = &data[r * cols..(r + 1) * cols];
            for (nt, chunk) in row.chunks(tile_n).enumerate() {
                // Dead means every element is exactly +0.0; -0.0 (or any
                // nonzero bit pattern) marks the tile live — see the module
                // docs for why the bit-identity argument needs this.
                if chunk.iter().any(|v| v.to_f32().to_bits() != 0) {
                    let bit = kt * ntiles + nt;
                    words[bit / 64] |= 1u64 << (bit % 64);
                }
            }
        }
        let live_tiles = words.iter().map(|w| w.count_ones() as u64).sum();
        Self {
            rows,
            cols,
            granularity,
            ktiles,
            ntiles,
            words,
            live_tiles,
        }
    }

    /// Dense-operand shape this LUT was built over.
    pub fn rows(&self) -> usize {
        self.rows
    }
    pub fn cols(&self) -> usize {
        self.cols
    }
    pub fn granularity(&self) -> PatternGranularity {
        self.granularity
    }
    /// Tiles along the `k` (dense-operand row) direction.
    pub fn ktiles(&self) -> usize {
        self.ktiles
    }
    /// Tiles along the `n` (output column) direction.
    pub fn ntiles(&self) -> usize {
        self.ntiles
    }
    /// Total tiles in the bitmap.
    pub fn tiles_total(&self) -> u64 {
        (self.ktiles * self.ntiles) as u64
    }
    /// Tiles containing at least one nonzero.
    pub fn tiles_live(&self) -> u64 {
        self.live_tiles
    }
    /// Tiles that are entirely `+0.0` — the skippable fraction's numerator.
    pub fn tiles_dead(&self) -> u64 {
        self.tiles_total() - self.live_tiles
    }
    /// Fraction of tiles that are dead (0.0 for a fully dense operand).
    pub fn dead_fraction(&self) -> f64 {
        if self.tiles_total() == 0 {
            return 0.0;
        }
        self.tiles_dead() as f64 / self.tiles_total() as f64
    }

    /// The bitmap words (for buffer-footprint declarations).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Is tile `(kt, nt)` live?
    #[inline]
    pub fn is_live(&self, kt: usize, nt: usize) -> bool {
        debug_assert!(kt < self.ktiles && nt < self.ntiles);
        let bit = kt * self.ntiles + nt;
        self.words[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// The tile row covering dense-operand row `col` (a sparse nonzero's
    /// column index).
    #[inline]
    pub fn ktile_of(&self, col: usize) -> usize {
        col / self.granularity.tile_k()
    }

    /// The tile column covering output column `n_off`.
    #[inline]
    pub fn ntile_of(&self, n_off: usize) -> usize {
        n_off / self.granularity.tile_n()
    }

    /// Probe liveness for a sparse nonzero with column `col` against the
    /// output tile containing column `n_off`.
    #[inline]
    pub fn live_for(&self, col: usize, n_off: usize) -> bool {
        self.is_live(self.ktile_of(col), self.ntile_of(n_off))
    }

    /// Byte address of the bitmap word holding tile `(kt, nt)` — the address
    /// a kernel's LUT probe actually loads.
    #[inline]
    pub fn word_addr(&self, kt: usize, nt: usize) -> u64 {
        ((kt * self.ntiles + nt) / 64) as u64 * 8
    }

    /// Count the warp-uniform probes a joint kernel would issue for sparse
    /// topology `a` against every output tile, and how many hit dead tiles:
    /// `(probes_total, probes_dead)`. One probe covers one
    /// `(row, distinct k-tile, n-tile)` triple — the amortization unit of
    /// the skip model. These are the `joint_tiles_total` /
    /// `joint_tiles_skipped` metrics.
    pub fn probe_stats<T: Scalar>(&self, a: &crate::csr::CsrMatrix<T>) -> (u64, u64) {
        assert_eq!(a.cols(), self.rows, "LUT must tile the SpMM dense operand");
        let mut total = 0u64;
        let mut dead = 0u64;
        let mut kts: Vec<usize> = Vec::new();
        for r in 0..a.rows() {
            let (cols, _) = a.row(r);
            kts.clear();
            for &c in cols {
                let kt = self.ktile_of(c as usize);
                // Column indices are sorted, so distinct k-tiles appear as
                // boundary crossings.
                if kts.last() != Some(&kt) {
                    kts.push(kt);
                }
            }
            for &kt in &kts {
                for nt in 0..self.ntiles {
                    total += 1;
                    dead += u64::from(!self.is_live(kt, nt));
                }
            }
        }
        (total, dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn lut_of(m: &Matrix<f32>, g: PatternGranularity) -> PatternLut {
        PatternLut::build(m, g)
    }

    #[test]
    fn all_zero_operand_is_fully_dead() {
        let b = Matrix::<f32>::zeros(64, 64);
        for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
            let lut = lut_of(&b, g);
            assert_eq!(lut.tiles_live(), 0);
            assert_eq!(lut.dead_fraction(), 1.0);
            assert_eq!(lut.tiles_total(), (64 / g.tile_k() * 2) as u64);
        }
    }

    #[test]
    fn fully_dense_operand_has_no_dead_tiles() {
        let b = Matrix::<f32>::from_fn(64, 64, |r, c| (r + c + 1) as f32);
        for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
            let lut = lut_of(&b, g);
            assert_eq!(lut.tiles_dead(), 0);
            assert_eq!(lut.dead_fraction(), 0.0);
        }
    }

    #[test]
    fn single_nonzero_marks_exactly_one_tile_per_granularity() {
        let mut b = Matrix::<f32>::zeros(128, 64);
        b.set(70, 40, 3.0);
        let fine = lut_of(&b, PatternGranularity::Fine);
        assert_eq!(fine.tiles_live(), 1);
        assert!(fine.is_live(70 / 8, 40 / 32));
        assert!(!fine.is_live(0, 0));
        let coarse = lut_of(&b, PatternGranularity::Coarse);
        assert_eq!(coarse.tiles_live(), 1);
        assert!(coarse.is_live(70 / 64, 40 / 32));
    }

    #[test]
    fn ragged_trailing_tiles_cover_the_remainder() {
        // 13 rows x 37 cols: ragged in both directions at fine granularity.
        let mut b = Matrix::<f32>::zeros(13, 37);
        b.set(12, 36, 1.0); // lives in the ragged corner tile
        let lut = lut_of(&b, PatternGranularity::Fine);
        assert_eq!(lut.ktiles(), 2);
        assert_eq!(lut.ntiles(), 2);
        assert!(lut.is_live(1, 1));
        assert_eq!(lut.tiles_live(), 1);
        // The ragged tile's liveness came only from in-bounds elements.
        assert!(!lut.is_live(0, 0));
        assert!(!lut.is_live(1, 0));
    }

    #[test]
    fn one_row_matrix_tiles_correctly() {
        let mut b = Matrix::<f32>::zeros(1, 100);
        b.set(0, 99, 2.0);
        for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
            let lut = lut_of(&b, g);
            assert_eq!(lut.ktiles(), 1);
            assert_eq!(lut.ntiles(), 4);
            assert!(lut.is_live(0, 3));
            assert_eq!(lut.tiles_live(), 1);
            assert!(lut.live_for(0, 99));
            assert!(!lut.live_for(0, 0));
        }
    }

    #[test]
    fn negative_zero_keeps_a_tile_live() {
        // -0.0 must not count as dead: skipping fma(v, -0.0, acc) could flip
        // an accumulator's zero sign (see module docs).
        let mut b = Matrix::<f32>::zeros(8, 32);
        b.set(3, 7, -0.0);
        let lut = lut_of(&b, PatternGranularity::Fine);
        assert_eq!(lut.tiles_live(), 1);
    }

    #[test]
    fn lut_dense_round_trip_equivalence() {
        // Both directions of the soundness contract, on a random operand:
        // every nonzero element's covering tile is live, and every live tile
        // contains at least one nonzero element.
        let b = {
            let mut m = Matrix::<f32>::random(96, 96, 42);
            // Punch dead 8x32 blocks and dead element runs.
            for r in 0..96 {
                for c in 0..96 {
                    if (r / 8 + c / 32) % 3 == 0 || (r * 96 + c) % 7 == 0 {
                        m.set(r, c, 0.0);
                    }
                }
            }
            m
        };
        for g in [PatternGranularity::Fine, PatternGranularity::Coarse] {
            let lut = lut_of(&b, g);
            // nonzero element => live tile.
            for r in 0..96 {
                for c in 0..96 {
                    if b.get(r, c) != 0.0 {
                        assert!(lut.is_live(r / g.tile_k(), c / g.tile_n()));
                    }
                }
            }
            // live tile => some nonzero element within its extent.
            for kt in 0..lut.ktiles() {
                for nt in 0..lut.ntiles() {
                    if !lut.is_live(kt, nt) {
                        continue;
                    }
                    let mut found = false;
                    for r in kt * g.tile_k()..((kt + 1) * g.tile_k()).min(96) {
                        for c in nt * g.tile_n()..((nt + 1) * g.tile_n()).min(96) {
                            found |= b.get(r, c) != 0.0;
                        }
                    }
                    assert!(found, "tile ({kt},{nt}) live without a nonzero");
                }
            }
        }
    }

    #[test]
    fn coarse_is_an_upper_bound_on_fine() {
        // A live fine tile forces its covering coarse tile live.
        let b = gen::activations(256, 128, 0.7, 11);
        let fine = lut_of(&b, PatternGranularity::Fine);
        let coarse = lut_of(&b, PatternGranularity::Coarse);
        for kt in 0..fine.ktiles() {
            for nt in 0..fine.ntiles() {
                if fine.is_live(kt, nt) {
                    assert!(coarse.is_live(kt / 8, nt));
                }
            }
        }
        // Fine finds at least as many dead tiles proportionally.
        assert!(fine.dead_fraction() >= coarse.dead_fraction());
    }

    #[test]
    fn probe_stats_count_dead_probes() {
        // Dense operand with the top half dead: probes into dead k-tiles
        // from matching sparse columns must be counted.
        let mut b = Matrix::<f32>::from_fn(64, 64, |r, c| (r + c) as f32 + 1.0);
        for r in 0..32 {
            for c in 0..64 {
                b.set(r, c, 0.0);
            }
        }
        let lut = lut_of(&b, PatternGranularity::Fine);
        let a = gen::uniform(16, 64, 0.5, 3);
        let (total, dead) = lut.probe_stats(&a);
        assert!(total > 0);
        assert!(dead > 0, "columns under 32 must probe dead tiles");
        assert!(dead < total, "columns over 32 must probe live tiles");
    }
}
