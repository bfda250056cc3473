//! Lane-vectorized accumulation helpers for functional kernel bodies.
//!
//! The paper's kernels win on hardware by keeping every lane of a vector
//! unit busy on independent output columns (Section V-A: subwarp tiling,
//! vector memory ops). The simulator's functional bodies reproduce the same
//! structure on the CPU: the helpers here process independent output columns
//! in fixed-width chunks of [`LANES`] with `f32::mul_add`, which the
//! compiler lowers to packed FMA (`.cargo/config.toml` targets the host CPU
//! so `mul_add` is a hardware instruction, not a libm call).
//!
//! ## The accumulation-order invariant
//!
//! Every helper performs, for each output element `i`, exactly the sequence
//! `acc[i] = a.mul_add(b[i], acc[i])` in the same per-element order as a
//! plain scalar loop. Vectorization only regroups *independent* elements
//! across lanes; it never reassociates the per-element reduction, and FMA
//! rounds once regardless of vector width. The scalar fallback (selected by
//! [`set_vectorized`]) is therefore **bit-identical** to the vectorized
//! path — the `lanes_equivalence` integration suite asserts exact output
//! equality for every kernel on both paths.

use std::sync::atomic::{AtomicBool, Ordering};

/// Lanes per chunk. Eight f32s = one AVX2 register; the compiler unrolls
/// the fixed-size inner loop into packed FMAs.
pub const LANES: usize = 8;

/// Process-wide path selector: vectorized unless [`set_vectorized`] turned
/// it off.
static VECTORIZED: AtomicBool = AtomicBool::new(true);

/// Whether the vectorized path is active (the default).
#[inline]
pub fn vectorized() -> bool {
    VECTORIZED.load(Ordering::Relaxed)
}

/// Force the scalar or vectorized path. Used by the equivalence suite;
/// affects the whole process.
pub fn set_vectorized(on: bool) {
    VECTORIZED.store(on, Ordering::Relaxed);
}

/// `acc[i] = a.mul_add(to(b[i]), acc[i])` for every `i` — one sparse
/// nonzero scaled into a row tile of independent output columns. `to`
/// converts the stored element type (e.g. half) to f32; for `f32` inputs it
/// is the identity and the loop compiles to packed FMA.
///
/// Panics if the slices differ in length (a tile-shape bug, not a runtime
/// condition).
#[inline]
pub fn fma_axpy<T: Copy>(acc: &mut [f32], a: f32, b: &[T], to: impl Fn(T) -> f32) {
    assert_eq!(acc.len(), b.len(), "tile widths must agree");
    if vectorized() {
        let head = acc.len() - acc.len() % LANES;
        let (acc_head, acc_tail) = acc.split_at_mut(head);
        let (b_head, b_tail) = b.split_at(head);
        for (ac, bc) in acc_head
            .chunks_exact_mut(LANES)
            .zip(b_head.chunks_exact(LANES))
        {
            for i in 0..LANES {
                ac[i] = a.mul_add(to(bc[i]), ac[i]);
            }
        }
        for (av, &bv) in acc_tail.iter_mut().zip(b_tail) {
            *av = a.mul_add(to(bv), *av);
        }
    } else {
        for (av, &bv) in acc.iter_mut().zip(b) {
            *av = a.mul_add(to(bv), *av);
        }
    }
}

/// Full tile reduction with register-resident accumulators:
/// `acc[i] = term_k.0.mul_add(to(term_k.1[i]), acc[i])` for every term, in
/// term order. Equivalent to calling [`fma_axpy`] once per term, but the
/// vectorized path walks the terms once per [`LANES`]-wide chunk so the
/// chunk's accumulator lives in a vector register across the whole
/// reduction instead of round-tripping the stack on every term — the same
/// trick the paper's kernels use to keep partial sums in registers across
/// the K loop.
///
/// Each element still accumulates its terms in exactly the given order, so
/// the result is bit-identical to the scalar path (and to a per-term
/// [`fma_axpy`] loop). Every term's slice must be at least `acc.len()`
/// long; extra elements are ignored.
#[inline]
pub fn fma_accumulate<'a, T: Copy + 'a>(
    acc: &mut [f32],
    terms: impl Iterator<Item = (f32, &'a [T])> + Clone,
    to: impl Fn(T) -> f32 + Copy,
) {
    let n = acc.len();
    if vectorized() {
        let head = n - n % LANES;
        let mut c0 = 0;
        while c0 < head {
            let mut v = [0.0f32; LANES];
            v.copy_from_slice(&acc[c0..c0 + LANES]);
            for (a, row) in terms.clone() {
                let chunk = &row[c0..c0 + LANES];
                for (vi, &bv) in v.iter_mut().zip(chunk) {
                    *vi = a.mul_add(to(bv), *vi);
                }
            }
            acc[c0..c0 + LANES].copy_from_slice(&v);
            c0 += LANES;
        }
        if head < n {
            for (a, row) in terms {
                for (av, &bv) in acc[head..].iter_mut().zip(&row[head..n]) {
                    *av = a.mul_add(to(bv), *av);
                }
            }
        }
    } else {
        for (a, row) in terms {
            for (av, &bv) in acc.iter_mut().zip(&row[..n]) {
                *av = a.mul_add(to(bv), *av);
            }
        }
    }
}

/// Two-row variant of [`fma_accumulate`]: both accumulator rows reduce the
/// same sequence of operand rows, with per-term coefficients `a0` and `a1`.
/// Each operand chunk is loaded once and feeds two register-resident
/// accumulators (double the arithmetic intensity of two separate passes).
/// Per-element accumulation order in each row is unchanged, so results are
/// bit-identical to two [`fma_accumulate`] calls.
#[inline]
pub fn fma_accumulate_pair<'a, T: Copy + 'a>(
    acc0: &mut [f32],
    acc1: &mut [f32],
    terms: impl Iterator<Item = (f32, f32, &'a [T])> + Clone,
    to: impl Fn(T) -> f32 + Copy,
) {
    let n = acc0.len();
    assert_eq!(acc1.len(), n, "accumulator rows must agree");
    if vectorized() {
        let head = n - n % LANES;
        let mut c0 = 0;
        while c0 < head {
            let mut v0 = [0.0f32; LANES];
            let mut v1 = [0.0f32; LANES];
            v0.copy_from_slice(&acc0[c0..c0 + LANES]);
            v1.copy_from_slice(&acc1[c0..c0 + LANES]);
            for (a0, a1, row) in terms.clone() {
                let chunk = &row[c0..c0 + LANES];
                for i in 0..LANES {
                    let bv = to(chunk[i]);
                    v0[i] = a0.mul_add(bv, v0[i]);
                    v1[i] = a1.mul_add(bv, v1[i]);
                }
            }
            acc0[c0..c0 + LANES].copy_from_slice(&v0);
            acc1[c0..c0 + LANES].copy_from_slice(&v1);
            c0 += LANES;
        }
        if head < n {
            for (a0, a1, row) in terms {
                for (i, &bv) in row[head..n].iter().enumerate() {
                    let bv = to(bv);
                    acc0[head + i] = a0.mul_add(bv, acc0[head + i]);
                    acc1[head + i] = a1.mul_add(bv, acc1[head + i]);
                }
            }
        }
    } else {
        for (a0, a1, row) in terms {
            for (i, &bv) in row[..n].iter().enumerate() {
                let bv = to(bv);
                acc0[i] = a0.mul_add(bv, acc0[i]);
                acc1[i] = a1.mul_add(bv, acc1[i]);
            }
        }
    }
}

/// Sequential dot product with per-step FMA: `sum_i to(a[i]) * to(b[i])`,
/// accumulated left to right exactly like the scalar reference. Horizontal
/// reductions are *not* lane-split (that would reassociate the sum and
/// break bit-identity); the win is the fused multiply-add per step.
#[inline]
pub fn fma_dot<T: Copy>(a: &[T], b: &[T], to: impl Fn(T) -> f32) -> f32 {
    let mut acc = 0.0f32;
    for (&av, &bv) in a.iter().zip(b) {
        acc = to(av).mul_add(to(bv), acc);
    }
    acc
}

/// Four independent dot products against a shared left operand, with the
/// chains interleaved step-by-step. Each chain accumulates left to right
/// exactly like [`fma_dot`] — interleaving only overlaps the *independent*
/// chains' FMA latencies (instruction-level parallelism), it never
/// reassociates a sum, so every result is bit-identical to four separate
/// [`fma_dot`] calls.
#[inline]
pub fn fma_dot4<T: Copy>(a: &[T], b: [&[T]; 4], to: impl Fn(T) -> f32 + Copy) -> [f32; 4] {
    let mut acc = [0.0f32; 4];
    for (i, &av) in a.iter().enumerate() {
        let av = to(av);
        acc[0] = av.mul_add(to(b[0][i]), acc[0]);
        acc[1] = av.mul_add(to(b[1][i]), acc[1]);
        acc[2] = av.mul_add(to(b[2][i]), acc[2]);
        acc[3] = av.mul_add(to(b[3][i]), acc[3]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_paths_are_bit_identical() {
        let b: Vec<f32> = (0..37).map(|i| (i as f32) * 0.37 - 3.0).collect();
        let mut vec_acc = vec![0.1f32; 37];
        let mut sc_acc = vec![0.1f32; 37];
        set_vectorized(true);
        fma_axpy(&mut vec_acc, 1.7, &b, |v| v);
        fma_axpy(&mut vec_acc, -0.3, &b, |v| v);
        set_vectorized(false);
        fma_axpy(&mut sc_acc, 1.7, &b, |v| v);
        fma_axpy(&mut sc_acc, -0.3, &b, |v| v);
        set_vectorized(true);
        for (v, s) in vec_acc.iter().zip(&sc_acc) {
            assert_eq!(v.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn axpy_matches_explicit_mul_add() {
        let b: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let mut acc = vec![0.0f32; 19];
        set_vectorized(true);
        fma_axpy(&mut acc, 2.0, &b, |v| v);
        for (i, v) in acc.iter().enumerate() {
            assert_eq!(*v, 2.0f32.mul_add(i as f32, 0.0));
        }
    }

    #[test]
    fn accumulate_matches_per_term_axpy_bitwise() {
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|t| (0..37).map(|i| (t * 37 + i) as f32 * 0.13 - 2.0).collect())
            .collect();
        let coef = [1.5f32, -0.25, 3.0, 0.0, -1.125];
        let mut want = vec![0.5f32; 37];
        set_vectorized(true);
        for (c, row) in coef.iter().zip(&rows) {
            fma_axpy(&mut want, *c, row, |v| v);
        }
        for on in [true, false] {
            set_vectorized(on);
            let mut got = vec![0.5f32; 37];
            fma_accumulate(
                &mut got,
                coef.iter().zip(&rows).map(|(&c, r)| (c, r.as_slice())),
                |v| v,
            );
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "path vectorized={on}");
            }
        }
        set_vectorized(true);
    }

    #[test]
    fn accumulate_ignores_slack_past_tile_width() {
        let row = [1.0f32; 16];
        let mut acc = [0.0f32; 9];
        set_vectorized(true);
        fma_accumulate(&mut acc, std::iter::once((2.0f32, &row[..])), |v| v);
        assert_eq!(acc, [2.0f32; 9]);
    }

    #[test]
    fn dot_accumulates_left_to_right() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        let mut want = 0.0f32;
        for i in 0..3 {
            want = a[i].mul_add(b[i], want);
        }
        assert_eq!(fma_dot(&a, &b, |v| v), want);
    }
}
