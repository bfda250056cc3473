//! Lane-vectorized accumulation helpers for functional kernel bodies.
//!
//! The paper's kernels win on hardware by keeping every lane of a vector
//! unit busy on independent output columns (Section V-A: subwarp tiling,
//! vector memory ops). The simulator's functional bodies reproduce the same
//! structure on the CPU: [`fma_accumulate`] keeps a register group of 32
//! independent output columns resident across a whole reduction, and
//! [`fma_dot8`] runs eight independent dot-product chains side by side, so
//! the host's FMA units always have independent work. Both use
//! `f32::mul_add`, which the compiler lowers to FMA (`.cargo/config.toml`
//! targets the host CPU so `mul_add` is a hardware instruction, not a libm
//! call).
//!
//! Two helpers hold a decision that several kernels must make identically:
//! [`fma_dot_strip`] is the SDDMM's per-strip dot loop, and
//! [`softmax_in_place`] is the softmax row with its ±inf limits. Every
//! kernel that makes one of these decisions calls the helper, so the fused
//! attention kernel agrees bit for bit with the three kernels it fuses by
//! construction. They and the two dot helpers are `#[inline(always)]`.
//! With plain `#[inline]`, or with `#[inline(always)]` on the strip helper
//! alone, perfbench `serve` `host_cold_s` read 6% slower than with the dot
//! loop written out in `SddmmKernel` (6 of 6 alternating pairs on a 2-core
//! x86-64 host); with all four forced inline it reads the same.
//!
//! ## The transposed run path
//!
//! An SDDMM dot reads one right row per output, so [`fma_dot8`]'s eight
//! chains take their right elements from eight unrelated rows: eight scalar
//! FMAs per step. Band masks (attention) hold long runs of consecutive
//! columns, and for a run `c0 .. c0 + w` the dots `sum_t a[t] *
//! rhs[c0 + l][t]` are one [`fma_accumulate`] over the terms `(a[t],
//! rhsᵀ[t][c0 ..])`: packed FMAs over a [`Transposed`] copy of the right
//! operand. [`fma_dot_strip`] sends each run of at least `GROUP` columns
//! that way, one `GROUP` at a time, and leaves every other column (a
//! run's last `w % GROUP` too) on the chains. A launch builds the copy
//! once, and only when its runs pay for it ([`Transposed::for_sddmm`]).
//!
//! ## The accumulation-order invariant
//!
//! Every helper performs, for each output element `i`, exactly the sequence
//! `acc[i] = a.mul_add(b[i], acc[i])` in the same per-element order as a
//! plain scalar loop. Vectorization only regroups *independent* elements
//! across lanes; it never reassociates the per-element reduction, and FMA
//! rounds once regardless of vector width. The scalar fallback (selected for
//! the calling thread's launches by [`set_vectorized`]) is therefore
//! **bit-identical** to the vectorized path — the `lanes_equivalence`
//! integration suite asserts exact output equality for every kernel on both
//! paths. The run path keeps the same
//! invariant across the two layouts: each run output starts at zero and
//! takes `a[t] * rhs[c0 + l][t]` for `t` in order, which is [`fma_dot`]'s
//! chain, and the copy holds `to(rhs)` exactly. So a dot's bits do not
//! depend on whether its column sat in a run (pinned by the unit tests
//! below and by `sddmm_runs` under release codegen).

use sparse::{CsrMatrix, Matrix, Scalar};
use std::cell::Cell;

/// Lanes per chunk. Eight f32s = one AVX2 register; the compiler unrolls
/// the fixed-size inner loop into packed FMAs. A chunk's accumulators form
/// one dependent chain across the terms, so a chunk alone issues one packed
/// FMA per FMA latency.
pub const LANES: usize = 8;

/// Columns per register group in [`fma_accumulate`]: four chunks, i.e. four
/// independent FMA chains in four vector registers, enough to hide the FMA
/// latency (a 64-column group measured slower; see EXPERIMENTS.md). Also
/// the shortest run of consecutive SDDMM columns [`fma_dot_strip`] sends
/// through `fma_dot_run`: below it the run path is no faster.
const GROUP: usize = 4 * LANES;

thread_local! {
    /// The calling thread's path selector: vectorized unless
    /// [`set_vectorized`] turned it off.
    static VECTORIZED: Cell<bool> = const { Cell::new(true) };
}

/// Whether the vectorized path is active on this thread (the default).
#[inline]
pub fn vectorized() -> bool {
    VECTORIZED.get()
}

/// Force the scalar or vectorized path for the launches this thread runs.
/// Used by the equivalence suite.
pub fn set_vectorized(on: bool) {
    VECTORIZED.set(on);
}

/// Full tile reduction with register-resident accumulators:
/// `acc[i] = term_k.0.mul_add(to(term_k.1[i]), acc[i])` for every term, in
/// term order. `to` converts the stored element type (e.g. half) to f32; for
/// `f32` inputs it is the identity and the loops compile to packed FMA.
///
/// The vectorized path walks the terms once per register group of 32
/// columns, then once per leftover [`LANES`]-wide chunk, then once for the
/// scalar tail. A group's accumulators live in vector registers across the
/// whole reduction instead of round-tripping memory on every term — the
/// trick the paper's kernels use to keep partial sums in registers across
/// the K loop — and its four chunks are independent FMA chains, enough to
/// cover the FMA latency that a single chunk's chain exposes on every term.
///
/// Each element still accumulates its terms in exactly the given order, so
/// the result is bit-identical to the scalar path. Every term's slice must
/// be at least `acc.len()` long; extra elements are ignored.
#[inline]
pub fn fma_accumulate<'a, T: Copy + 'a>(
    acc: &mut [f32],
    terms: impl Iterator<Item = (f32, &'a [T])> + Clone,
    to: impl Fn(T) -> f32 + Copy,
) {
    let n = acc.len();
    if vectorized() {
        let grouped = n - n % GROUP;
        let head = n - n % LANES;
        for c0 in (0..grouped).step_by(GROUP) {
            accumulate_cols::<T, GROUP>(acc, c0, terms.clone(), to);
        }
        for c0 in (grouped..head).step_by(LANES) {
            accumulate_cols::<T, LANES>(acc, c0, terms.clone(), to);
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

/// One `W`-column block of [`fma_accumulate`]: load the block's
/// accumulators, fold every term into them, store them back once.
#[inline(always)]
fn accumulate_cols<'a, T: Copy + 'a, const W: usize>(
    acc: &mut [f32],
    c0: usize,
    terms: impl Iterator<Item = (f32, &'a [T])>,
    to: impl Fn(T) -> f32,
) {
    let mut v = [0.0f32; W];
    v.copy_from_slice(&acc[c0..c0 + W]);
    for (a, row) in terms {
        for (vi, &bv) in v.iter_mut().zip(&row[c0..c0 + W]) {
            *vi = a.mul_add(to(bv), *vi);
        }
    }
    acc[c0..c0 + W].copy_from_slice(&v);
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
#[inline(always)]
pub fn fma_dot<T: Copy>(a: &[T], b: &[T], to: impl Fn(T) -> f32) -> f32 {
    let mut acc = 0.0f32;
    for (&av, &bv) in a.iter().zip(b) {
        acc = to(av).mul_add(to(bv), acc);
    }
    acc
}

/// Eight independent dot products against a shared left operand, with the
/// chains interleaved step by step. Each chain accumulates left to right
/// exactly like [`fma_dot`], so every result is bit-identical to eight
/// separate [`fma_dot`] calls. The right elements of one step sit in eight
/// unrelated rows, so the compiler issues eight scalar FMAs per step (each
/// with its right element as a memory operand), not one 8-wide FMA; what
/// the interleaving buys is eight independent chains in flight.
///
/// The right operands are destructured into eight named slices, each cut
/// to `a.len()` before the loop (each must be at least that long), so the
/// loop carries no bounds check. Kept as an array of slices, the cut did
/// not survive inlining into `SddmmKernel::execute_block`: the loop there
/// kept a bounds check per step.
#[inline(always)]
pub fn fma_dot8<T: Copy>(a: &[T], b: [&[T]; 8], to: impl Fn(T) -> f32 + Copy) -> [f32; 8] {
    let n = a.len();
    let [b0, b1, b2, b3, b4, b5, b6, b7] = b;
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    let (b4, b5, b6, b7) = (&b4[..n], &b5[..n], &b6[..n], &b7[..n]);
    let mut acc = [0.0f32; 8];
    for (i, &av) in a.iter().enumerate() {
        let av = to(av);
        acc[0] = av.mul_add(to(b0[i]), acc[0]);
        acc[1] = av.mul_add(to(b1[i]), acc[1]);
        acc[2] = av.mul_add(to(b2[i]), acc[2]);
        acc[3] = av.mul_add(to(b3[i]), acc[3]);
        acc[4] = av.mul_add(to(b4[i]), acc[4]);
        acc[5] = av.mul_add(to(b5[i]), acc[5]);
        acc[6] = av.mul_add(to(b6[i]), acc[6]);
        acc[7] = av.mul_add(to(b7[i]), acc[7]);
    }
    acc
}

/// Dots per staged piece of [`fma_dot_strip`]: two register groups, so a
/// 32-wide SDDMM strip is one piece.
const STAGE: usize = 2 * GROUP;

/// The dot products of `a` against `row(j)` for every `j` in `cols`, in
/// order. They are staged on the stack in pieces of at most `STAGE`
/// columns, and `store(first, dots)` receives each piece with the position
/// of its first dot. This is one strip of the SDDMM: the SDDMM kernel and
/// the fused attention kernel's score stage both call it, so their
/// batching, and with it every score bit, is one decision.
///
/// With a transposed copy `rt` of the right operand, each run of at least
/// `GROUP` consecutive columns in a piece goes through `fma_dot_run`,
/// one group of `GROUP` columns at a time. Every other column goes
/// through [`fma_dot8`] in groups of eight and [`fma_dot`] for the
/// remainder. `cols` must be strictly increasing, as a CSR row is.
#[inline(always)]
pub fn fma_dot_strip<'a, T: Copy + 'a>(
    a: &[T],
    cols: &[u32],
    row: impl Fn(u32) -> &'a [T] + Copy,
    rt: Option<&Transposed>,
    to: impl Fn(T) -> f32 + Copy,
    mut store: impl FnMut(usize, &mut [f32]),
) {
    for (p, piece) in cols.chunks(STAGE).enumerate() {
        // A stack array, not a pooled scratch row: the pool's checkout
        // cost short strips more than the staged store saves.
        let mut stage = [0.0f32; STAGE];
        let stage = &mut stage[..piece.len()];
        let mut done = 0;
        if let Some(rt) = rt {
            for (start, len) in LongRuns::new(piece) {
                fma_dot_cols(a, &piece[done..start], row, to, &mut stage[done..start]);
                done = start + len - len % GROUP;
                for g0 in (start..done).step_by(GROUP) {
                    let c0 = piece[g0] as usize;
                    fma_dot_run(a, rt, c0, to, &mut stage[g0..g0 + GROUP]);
                }
            }
        }
        fma_dot_cols(a, &piece[done..], row, to, &mut stage[done..]);
        store(p * STAGE, stage);
    }
}

/// [`fma_dot8`] over each group of eight columns, then [`fma_dot`] for the
/// remainder, one dot per element of `out`.
#[inline(always)]
fn fma_dot_cols<'a, T: Copy + 'a>(
    a: &[T],
    cols: &[u32],
    row: impl Fn(u32) -> &'a [T],
    to: impl Fn(T) -> f32 + Copy,
    out: &mut [f32],
) {
    let mut octets = cols.chunks_exact(8);
    let mut t = 0;
    for octet in &mut octets {
        for dot in fma_dot8(a, std::array::from_fn(|c| row(octet[c])), to) {
            out[t] = dot;
            t += 1;
        }
    }
    for &j in octets.remainder() {
        out[t] = fma_dot(a, row(j), to);
        t += 1;
    }
}

/// The dots of `a` against the consecutive right rows `c0 .. c0 +
/// out.len()`, read from their transposed copy `rt`: one
/// [`fma_accumulate`] whose `t`-th term is `(a[t], rt column t from c0)`.
/// Each output still accumulates `a[t] * rhs[c0 + l][t]` for `t` in order
/// from zero, the [`fma_dot`] sequence, so every bit is [`fma_dot`]'s; but a
/// 32-wide run issues four packed FMA chains instead of 32 scalar ones.
#[inline(always)]
fn fma_dot_run<T: Copy>(
    a: &[T],
    rt: &Transposed,
    c0: usize,
    to: impl Fn(T) -> f32 + Copy,
    out: &mut [f32],
) {
    debug_assert_eq!(
        a.len() * rt.stride,
        rt.data.len(),
        "one term per transposed row"
    );
    let w = out.len();
    out.fill(0.0);
    let terms = a
        .iter()
        .zip(rt.data.chunks_exact(rt.stride))
        .map(|(&av, col)| (to(av), &col[c0..c0 + w]));
    fma_accumulate(out, terms, |v| v);
}

/// The maximal runs of at least `GROUP` consecutive values in a strictly
/// increasing column list, as `(start, len)` positions in the list.
struct LongRuns<'c> {
    cols: &'c [u32],
    next: usize,
}

impl<'c> LongRuns<'c> {
    fn new(cols: &'c [u32]) -> Self {
        Self { cols, next: 0 }
    }
}

impl Iterator for LongRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let cols = self.cols;
        let mut i = self.next;
        while i + GROUP <= cols.len() {
            // Strictly increasing values are consecutive over a window
            // exactly when its ends differ by its width less one, so one
            // test decides a whole window.
            if cols[i + GROUP - 1] - cols[i] == (GROUP - 1) as u32 {
                let mut end = i + GROUP;
                while end < cols.len() && cols[end] == cols[end - 1] + 1 {
                    end += 1;
                }
                self.next = end;
                return Some((i, end - i));
            }
            if i + GROUP == cols.len() {
                break;
            }
            // No run of GROUP starts before the window's last step larger
            // than one, since it would have to contain that step.
            i = (i + 1..i + GROUP)
                .rev()
                .find(|&g| cols[g] != cols[g - 1] + 1)
                .unwrap_or(i + 1);
        }
        self.next = cols.len();
        None
    }
}

/// Run dots per transposed row at which a launch builds its [`Transposed`]
/// copy. Building costs one strided pass over the right operand; each run
/// dot then saves most of a scalar chain. Below this share the copy does
/// not pay: perfbench `serve`'s seq-256 band masks have 0 and about 5 run
/// dots per row, attention's row shards about 70 and its fused mask 96.
const RUN_DOTS_PER_ROW: usize = 16;

/// A right operand transposed to f32, for `fma_dot_run`: element `t` of
/// right row `j` sits at `data[t * stride + j]`. The stride is the row
/// count padded to an odd number of 64-byte lines, so a walk down one
/// column spreads over every cache set instead of aliasing into one (a
/// power-of-two stride would map every term of a run to the same set).
pub struct Transposed {
    data: Vec<f32>,
    stride: usize,
}

/// f32 lanes per 64-byte cache line.
const LINE: usize = 16;

impl Transposed {
    /// The transposed copy of the row-major `rows x k` operand `src`,
    /// converted through `to`.
    fn new<T: Copy>(src: &[T], rows: usize, k: usize, to: impl Fn(T) -> f32) -> Self {
        let stride = LINE * (rows.div_ceil(LINE) | 1);
        let mut data = vec![0.0f32; k * stride];
        // A block of LINE source rows fills one line of each output row.
        for (b, block) in src[..rows * k].chunks((LINE * k).max(1)).enumerate() {
            let j0 = b * LINE;
            for (t, line) in data.chunks_exact_mut(stride).enumerate() {
                for (jj, out) in line[j0..j0 + block.len() / k].iter_mut().enumerate() {
                    *out = to(block[jj * k + t]);
                }
            }
        }
        Self { data, stride }
    }

    /// The copy of an SDDMM's right operand `rhs` for the strips of
    /// `strip` nonzeros that `mask` is cut into, if their long runs pay
    /// for it; `None` otherwise. Runs are counted in the pieces
    /// [`fma_dot_strip`] computes. Counting stops as soon as they pay, and
    /// a piece shorter than `GROUP` costs one comparison, so a launch
    /// that never pays (short strips, or few long runs) spends O(strips)
    /// here.
    /// The copy stops at the highest right row the mask reads: a causal
    /// shard reads only the rows up to its own.
    pub fn for_sddmm<T: Scalar>(
        mask: &CsrMatrix<T>,
        strip: usize,
        rhs: &Matrix<T>,
    ) -> Option<Self> {
        let k = rhs.cols();
        if k == 0 {
            return None;
        }
        let need = (RUN_DOTS_PER_ROW * rhs.rows()).max(1);
        let rows = || (0..mask.rows()).map(|i| mask.row(i).0);
        let mut dots = 0;
        let pieces = rows().flat_map(|cols| cols.chunks(strip).flat_map(|s| s.chunks(STAGE)));
        for cols in pieces {
            dots += LongRuns::new(cols).map(|(_, len)| len).sum::<usize>();
            if dots >= need {
                let used = rows()
                    .filter_map(|cols| cols.last())
                    .max()
                    .map_or(0, |&j| j as usize + 1);
                return Some(Self::new(rhs.as_slice(), used, k, |v| v.to_f32()));
            }
        }
        None
    }
}

/// Softmax over one row of logits, in place: the max pass, the
/// exponentials, their sum and the normalization. Two kinds of row have no
/// finite anchor, and `exp(inf - inf)` would be NaN (which the dispatch NaN
/// guard would misread as a kernel fault), so they get the softmax's limits
/// instead:
/// - a row holding `+inf` logits splits the mass evenly over those
///   entries and gives every other entry zero;
/// - a row of only `-inf` (or NaN, which `f32::max` skips) logits gets the
///   uniform distribution, the limit of equally unlikely logits.
///
/// The largest logit contributes `exp(0) = 1`, so a finite row's sum is at
/// least one; the clamp keeps the division NaN-free even at the denormal
/// edge. The sparse softmax, the dense softmax and the fused attention
/// kernel all normalize through this one body.
#[inline(always)]
pub fn softmax_in_place(x: &mut [f32]) {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::INFINITY {
        let top = x.iter().filter(|&&v| v == f32::INFINITY).count() as f32;
        for v in x.iter_mut() {
            *v = if *v == f32::INFINITY { 1.0 / top } else { 0.0 };
        }
    } else if max == f32::NEG_INFINITY {
        x.fill(1.0 / x.len() as f32);
    } else {
        for v in x.iter_mut() {
            *v = (*v - max).exp();
        }
        let sum = x.iter().sum::<f32>().max(f32::MIN_POSITIVE);
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-term scalar definition `fma_accumulate` must reproduce.
    fn accumulate_by_term(acc: &mut [f32], terms: &[(f32, Vec<i32>)], to: impl Fn(i32) -> f32) {
        for (a, row) in terms {
            for (av, &bv) in acc.iter_mut().zip(row) {
                *av = a.mul_add(to(bv), *av);
            }
        }
    }

    #[test]
    fn accumulate_matches_per_term_mul_add_on_both_paths() {
        // Widths 1..=80 reach the group walk, the chunk walk and the scalar
        // tail in every combination; `to` is not the identity.
        let to = |x: i32| x as f32 * 0.37 - 1.25;
        let coef = [1.5f32, -0.25, 3.0, 0.0, -1.125, 0.7];
        for n in 1..=80usize {
            let terms: Vec<(f32, Vec<i32>)> = coef
                .iter()
                .enumerate()
                .map(|(t, &c)| {
                    (
                        c,
                        (0..n as i32 + 3)
                            .map(|i| (i * 7 + t as i32 * 13) % 29 - 11)
                            .collect(),
                    )
                })
                .collect();
            let seed: Vec<f32> = (0..n).map(|i| i as f32 * 0.11 - 2.0).collect();
            let mut want = seed.clone();
            accumulate_by_term(&mut want, &terms, to);
            for on in [true, false] {
                set_vectorized(on);
                let mut got = seed.clone();
                fma_accumulate(&mut got, terms.iter().map(|(c, r)| (*c, r.as_slice())), to);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "width {n}, vectorized={on}");
                }
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

    #[test]
    fn dot8_matches_eight_dots() {
        let to = |x: f32| x * 0.5 + 0.125;
        for len in 0..=40usize {
            let a: Vec<f32> = (0..len).map(|i| i as f32 * 0.31 - 4.0).collect();
            let rows: Vec<Vec<f32>> = (0..8)
                .map(|c| {
                    (0..len + c)
                        .map(|i| ((i * 5 + c * 3) % 17) as f32 * 0.23 - 1.9)
                        .collect()
                })
                .collect();
            let b: [&[f32]; 8] = std::array::from_fn(|c| rows[c].as_slice());
            let got = fma_dot8(&a, b, to);
            for (c, g) in got.iter().enumerate() {
                let want = fma_dot(&a, &rows[c][..len], to);
                assert_eq!(g.to_bits(), want.to_bits(), "length {len}, chain {c}");
            }
        }
    }

    /// A `rows x k` operand of small integers, each row distinct.
    fn int_rows(rows: usize, k: usize) -> Vec<i32> {
        (0..rows * k)
            .map(|i| (i as i32 * 7 + i as i32 / k as i32 * 3) % 23 - 9)
            .collect()
    }

    #[test]
    fn run_matches_per_column_dots_on_both_paths() {
        // 90 rows pad to a stride of 112; c0 = 5 is off every lane boundary.
        let to = |x: i32| x as f32 * 0.37 - 1.25;
        let (rows, k, c0) = (90usize, 13usize, 5usize);
        let src = int_rows(rows, k);
        let a: Vec<i32> = (0..k as i32).map(|t| (t * 5) % 11 - 4).collect();
        let rt = Transposed::new(&src, rows, k, to);
        assert_eq!(rt.stride, 112);
        for w in 1..=80usize {
            for on in [true, false] {
                set_vectorized(on);
                let mut got = vec![f32::NAN; w];
                fma_dot_run(&a, &rt, c0, to, &mut got);
                for (l, g) in got.iter().enumerate() {
                    let j = c0 + l;
                    let want = fma_dot(&a, &src[j * k..(j + 1) * k], to);
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "width {w}, column {j}, vectorized={on}"
                    );
                }
            }
        }
        set_vectorized(true);
    }

    #[test]
    fn long_runs_are_the_maximal_runs_of_at_least_a_group() {
        let runs = |cols: &[u32]| LongRuns::new(cols).collect::<Vec<_>>();
        let span = |lo: u32, n: u32| (lo..lo + n).collect::<Vec<u32>>();
        assert_eq!(runs(&span(3, 31)), vec![]);
        assert_eq!(runs(&span(3, 32)), vec![(0, 32)]);
        assert_eq!(runs(&span(0, 80)), vec![(0, 80)]);
        // An off-diagonal prefix, then a band: the run starts after the gap.
        let mut cols = vec![0, 4, 9];
        cols.extend(span(20, 40));
        assert_eq!(runs(&cols), vec![(3, 40)]);
        // Two runs split by one skipped column; a 31-run after a 33-run.
        let mut cols = span(0, 33);
        cols.extend(span(34, 31));
        assert_eq!(runs(&cols), vec![(0, 33)]);
        let mut cols = span(0, 32);
        cols.extend(span(33, 32));
        cols.push(100);
        assert_eq!(runs(&cols), vec![(0, 32), (32, 32)]);
        // Gaps every 20 columns leave no run.
        let cols: Vec<u32> = (0..100).map(|i| i + i / 20).collect();
        assert_eq!(runs(&cols), vec![]);
    }

    #[test]
    fn strip_with_a_transposed_operand_matches_the_scalar_chains() {
        let to = |x: i32| x as f32 * 0.5 - 0.75;
        let (rows, k) = (130usize, 9usize);
        let src = int_rows(rows, k);
        let a: Vec<i32> = (0..k as i32).map(|t| 3 - t).collect();
        let rt = Transposed::new(&src, rows, k, to);
        let row = |j: u32| &src[j as usize * k..(j as usize + 1) * k];
        // Every prefix below is a strip of its own, so the last run ends a
        // strip on every tail length from 0 to 13.
        let mut cols: Vec<u32> = vec![1, 2, 7];
        cols.extend(10..42); // a run of exactly 32
        cols.extend(43..74); // 31: stays on the chains
        cols.extend(80..125); // 45, in the second staged piece
        for on in [true, false] {
            set_vectorized(on);
            for len in 0..=cols.len() {
                let strip = &cols[..len];
                let collect = |rt| {
                    let mut dots = vec![f32::NAN; len];
                    fma_dot_strip(&a, strip, row, rt, to, |first, piece| {
                        dots[first..first + piece.len()].copy_from_slice(piece)
                    });
                    dots
                };
                let (got, want) = (collect(Some(&rt)), collect(None));
                for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "len {len}, dot {t}, vectorized={on}"
                    );
                    assert_eq!(w.to_bits(), fma_dot(&a, row(strip[t]), to).to_bits());
                }
            }
        }
        set_vectorized(true);
    }

    #[test]
    fn transposes_only_when_long_runs_pay() {
        // A 64-row right operand needs 16 * 64 run dots.
        let rhs = Matrix::<f32>::zeros(64, 4);
        let mask = |rows: usize, row_len: u32| {
            let cols: Vec<u32> = (0..rows).flat_map(|_| 0..row_len).collect();
            let offsets = (0..=rows as u32).map(|r| r * row_len).collect();
            let values = vec![1.0f32; cols.len()];
            CsrMatrix::from_parts(rows, 64, offsets, cols, values).unwrap_or_else(|e| panic!("{e}"))
        };
        let pays = |m: &CsrMatrix<f32>, strip| Transposed::for_sddmm(m, strip, &rhs);
        let copy = pays(&mask(32, 32), 32).unwrap_or_else(|| panic!("32 runs of 32 pay"));
        // Only the 32 right rows the mask reads are copied.
        assert_eq!(copy.stride, 48);
        assert!(pays(&mask(31, 32), 32).is_none());
        assert!(pays(&mask(64, 31), 32).is_none());
        // 64 rows of 64 in strips of 16 hold no run of 32.
        assert!(pays(&mask(64, 64), 16).is_none());
        assert!(pays(&mask(0, 0), 32).is_none());
    }
}
