//! Blocked, rayon-parallel GEMM kernels.
//!
//! Three orientations cover every dense product in a GCN layer:
//!
//! * [`gemm`]    — `C = A·B`   (the linear layer `H·W`)
//! * [`gemm_tn`] — `C = Aᵀ·B`  (weight gradients `Hᵀ·(A G)`)
//! * [`gemm_nt`] — `C = A·Bᵀ`  (gradient propagation `G·Wᵀ`)
//!
//! All kernels parallelize over disjoint row panels of `C` with rayon, so
//! they are race-free by construction. Each variant has two
//! implementations, selected per thread via [`crate::kernels`]:
//!
//! * The **scalar** path keeps the `i-k-j` loop order with the inner loop
//!   a contiguous axpy over rows of `B` (or a sequential dot product for
//!   `gemm_nt`). It is the reference every golden in the repo was
//!   recorded with and is never changed.
//! * The **fast** path — the default — is one register-tile body under
//!   all three orientations: an `MR×2W` block of `C` is held in
//!   accumulators, swept over one block of `k` rows, and stored, so `C`
//!   traffic drops from `O(m·k·n)` to `O(m·n·k/KC)` and the compiler maps
//!   the fixed-width accumulator arrays onto vector registers. A fresh
//!   output ([`gemm`], [`gemm_tn`], [`gemm_nt`]) is written once: the first
//!   `k` block starts its accumulators at `0.0` and stores into an
//!   uninitialised pool buffer, and only later blocks load what the ones
//!   before them stored (`0.0 + x` is `x`, so this is the bits of adding
//!   onto a zeroed `C`). `gemm_tn` reads `A` by columns instead of rows;
//!   sweeping `k` in blocks keeps the `A`/`B` blocks and the `C` panel in
//!   L2 across the panel's tiles even when `k` is the vertex count.
//!   `gemm_nt` transposes its small `B` once and is `gemm` from there.
//!   Each call runs at the width [`kernels::call_mode`] picks for its `n`
//!   (16 lanes from `n ≥ 16` under a 16-lane mode, 8 below), and the body
//!   is compiled per [`kernels::Isa`] level — AVX-512 for the 16-lane
//!   tiles, AVX2 for the others, the crate's baseline where neither runs —
//!   all from the *same* inlined code (plain mul-then-add, never
//!   contracted to FMA), so the host CPU affects speed only, never bits.
//!
//! Per output element both paths compute `c + a₀b₀ + a₁b₁ + …` with `k`
//! ascending, so at every width the fast path is **bitwise** the scalar
//! one on finite inputs; [`crate::kernels`] states the contract and its
//! one exception (the scalar `a == 0` skip).

use crate::kernels::{self, Isa, Kernel, Mode, Width};
use crate::mat::{Mat, MatRef};
use rayon::prelude::*;
use std::mem::MaybeUninit;

/// Rows of `C` per parallel task. Large enough to amortize task overhead,
/// small enough to load-balance skewed shapes.
const ROW_PANEL: usize = 64;

/// Row-tile height of the fast kernels: `MR` independent accumulator
/// vectors per column block, enough to hide FMA latency.
const MR: usize = 4;

/// Rows of `k` per block of the fast kernels' sweep: with feature
/// dimensions up to a few hundred, one block of `A`, one of `B` and the
/// task's panel of `C` stay in L2 while every tile of the panel visits
/// them.
const KC: usize = 128;

/// `C = A · B`, allocating the output. `A` is read in place: an owned
/// [`Mat`] or a borrowed [`MatRef`].
///
/// # Panics
/// If `A.cols() != B.rows()`.
pub fn gemm<'a>(a: impl Into<MatRef<'a>>, b: &Mat) -> Mat {
    let a = a.into();
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: A is {m}x{k} but B is {kb}x{n}");
    match fast_width(m, k, n) {
        Some(w) => fresh::<false>(w, m, k, n, a.as_slice(), b.as_slice()),
        None => {
            let mut c = Mat::zeros(m, n);
            gemm_acc(a, b, &mut c);
            c
        }
    }
}

/// `C += A · B` into an existing output.
pub fn gemm_acc<'a>(a: impl Into<MatRef<'a>>, b: &Mat, c: &mut Mat) {
    let a = a.into();
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: A is {m}x{k} but B is {kb}x{n}");
    assert_eq!(c.shape(), (m, n), "gemm: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    match fast_width(m, k, n) {
        // SAFETY: the fast tiles store only finished accumulators.
        Some(w) => fast::<false>(w, k, n, a_data, b_data, unsafe { as_uninit(c) }, false),
        None => scalar_gemm_acc(k, n, a_data, b_data, c),
    }
}

/// The fast path's lane width for one `m×n` product over `k`: `None` when
/// the call runs the scalar kernels, or has nothing to compute. The kernel
/// mode is read on the calling thread here; pool workers never consult
/// their own thread-local.
fn fast_width(m: usize, k: usize, n: usize) -> Option<Width> {
    if m == 0 || n == 0 || k == 0 {
        return None;
    }
    match kernels::call_mode(Kernel::Gemm, n) {
        Mode::Scalar | Mode::Fast(Width::W1) => None,
        Mode::Fast(w) => Some(w),
    }
}

/// `op(A) · B` (`m×n`, `k > 0`) into a new matrix on the fast path, each
/// element stored once.
fn fresh<const TA: bool>(w: Width, m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Mat {
    // SAFETY: the tiles of `fast_acc` cover all `m · n` elements, and with
    // `fresh` the first of its `k ≥ 1` blocks stores every one of them.
    unsafe { Mat::write_once(m, n, |c| fast::<TA>(w, k, n, a, b, c, true)) }
}

/// An initialised `C` as the slice the fast tiles store into.
///
/// # Safety
/// Only initialised values are stored through the returned slice.
unsafe fn as_uninit(c: &mut Mat) -> &mut [MaybeUninit<f32>] {
    let c = c.as_mut_slice();
    // SAFETY: `MaybeUninit<f32>` has the layout of `f32`.
    unsafe { &mut *(c as *mut [f32] as *mut [MaybeUninit<f32>]) }
}

/// [`fast_acc`] at width `w` (never `W1`, which runs the scalar kernels).
fn fast<const TA: bool>(
    w: Width,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [MaybeUninit<f32>],
    fresh: bool,
) {
    match w {
        Width::W4 => fast_acc::<4, 8, TA>(k, n, a, b, c, fresh),
        Width::W8 => fast_acc::<8, 16, TA>(k, n, a, b, c, fresh),
        Width::W16 => fast_acc::<16, 32, TA>(k, n, a, b, c, fresh),
        Width::W1 => unreachable!("one lane runs the scalar kernels"),
    }
}

fn scalar_gemm_acc(k: usize, n: usize, a_data: &[f32], b_data: &[f32], c: &mut Mat) {
    c.as_mut_slice()
        .par_chunks_mut(ROW_PANEL * n)
        .enumerate()
        .for_each(|(panel, c_panel)| {
            let i0 = panel * ROW_PANEL;
            let rows_here = c_panel.len() / n;
            for ii in 0..rows_here {
                let i = i0 + ii;
                let a_row = &a_data[i * k..(i + 1) * k];
                let c_row = &mut c_panel[ii * n..(ii + 1) * n];
                for (kk, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = &b_data[kk * n..(kk + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aik * bv;
                    }
                }
            }
        });
}

/// `C (+)= op(A) · B` on the fast path, for both `A` orientations: `TA`
/// reads `A` as stored `k×m` (the `gemm_tn` operand), otherwise `m×k`.
/// `W2` is always `2 * W` (stable Rust cannot spell that in a const
/// generic position). `c` holds the `m×n` output: a fresh one when
/// `fresh`, else the `C` to accumulate onto.
///
/// `C` is cut into row panels, one task each, and every task sweeps `k`
/// in blocks of [`KC`] rows with the register tiles **loaded from `C` and
/// stored back** around each block — except that a fresh output's first
/// block starts them at `0.0` and stores every element. `k` is never split
/// across tasks and the blocks run in ascending order, so each output
/// element is `c + a₀b₀ + a₁b₁ + …` in exactly the scalar kernel's order
/// whatever the panel height, block size or pool size.
fn fast_acc<const W: usize, const W2: usize, const TA: bool>(
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [MaybeUninit<f32>],
    fresh: bool,
) {
    let m = c.len() / n;
    let lda = if TA { m } else { k };
    let panel = if TA { tn_panel_rows(m) } else { ROW_PANEL };
    let isa = kernels::isa().for_lanes(W);
    c.par_chunks_mut(panel * n)
        .enumerate()
        .for_each(|(p, c_panel)| {
            let i0 = p * panel;
            let rows_here = c_panel.len() / n;
            for k0 in (0..k).step_by(KC) {
                let b_blk = &b[k0 * n..(k0 + KC).min(k) * n];
                let first = fresh && k0 == 0;
                for ii in (0..rows_here).step_by(MR) {
                    let mr = MR.min(rows_here - ii);
                    let c_rows = &mut c_panel[ii * n..(ii + mr) * n];
                    tile::<W, W2, TA>(isa, first, a, lda, i0 + ii, k0, b_blk, n, c_rows);
                }
            }
        });
}

/// Rows of `C` per `gemm_tn` task. `C` is a weight gradient there — a few
/// dozen rows — so the panel shrinks until every thread has a couple of
/// tasks, but not below 16 rows: a task reads its 16 columns of `A` as one
/// whole cache line per row.
fn tn_panel_rows(m: usize) -> usize {
    m.div_ceil(2 * rayon::current_num_threads())
        .next_multiple_of(16)
        .min(ROW_PANEL)
}

/// Route one tile to the compilation for `isa`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile<const W: usize, const W2: usize, const TA: bool>(
    isa: Isa,
    first: bool,
    a: &[f32],
    lda: usize,
    i: usize,
    k0: usize,
    b_blk: &[f32],
    n: usize,
    c_rows: &mut [MaybeUninit<f32>],
) {
    #[cfg(target_arch = "x86_64")]
    match isa {
        // SAFETY: `isa` is at most the running CPU's level (`kernels::isa`).
        Isa::Avx512 => {
            return unsafe { tile_avx512::<W, W2, TA>(first, a, lda, i, k0, b_blk, n, c_rows) }
        }
        // SAFETY: as above.
        Isa::Avx2 => {
            return unsafe { tile_avx2::<W, W2, TA>(first, a, lda, i, k0, b_blk, n, c_rows) }
        }
        Isa::Baseline => {}
    }
    let _ = isa;
    tile_body::<W, W2, TA>(first, a, lda, i, k0, b_blk, n, c_rows)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn tile_avx2<const W: usize, const W2: usize, const TA: bool>(
    first: bool,
    a: &[f32],
    lda: usize,
    i: usize,
    k0: usize,
    b_blk: &[f32],
    n: usize,
    c_rows: &mut [MaybeUninit<f32>],
) {
    tile_body::<W, W2, TA>(first, a, lda, i, k0, b_blk, n, c_rows)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn tile_avx512<const W: usize, const W2: usize, const TA: bool>(
    first: bool,
    a: &[f32],
    lda: usize,
    i: usize,
    k0: usize,
    b_blk: &[f32],
    n: usize,
    c_rows: &mut [MaybeUninit<f32>],
) {
    tile_body::<W, W2, TA>(first, a, lda, i, k0, b_blk, n, c_rows)
}

/// The `mr = c_rows.len() / n ≤ MR` rows of `C` starting at row `i`, plus
/// one `k` block: `C[i.., :] += op(A)[i.., k0..] · b_blk`, where `b_blk`
/// holds rows `k0..` of `B` — or, when `first`, `C[i.., :] = …`, the block
/// that starts a fresh output. A short tile (`mr < MR`) reads its last
/// real row of `op(A)` again for the missing ones and stores only the real
/// rows, so the hot loop has no row count in it.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_body<const W: usize, const W2: usize, const TA: bool>(
    first: bool,
    a: &[f32],
    lda: usize,
    i: usize,
    k0: usize,
    b_blk: &[f32],
    n: usize,
    c_rows: &mut [MaybeUninit<f32>],
) {
    let (mr, kb) = (c_rows.len() / n, b_blk.len() / n);
    let rows: [usize; MR] = std::array::from_fn(|r| i + r.min(mr - 1));
    if TA {
        let xs = a[k0 * lda..(k0 + kb) * lda]
            .chunks_exact(lda)
            .map(|a_row| rows.map(|r| a_row[r]));
        col_blocks::<W, W2>(first, xs, b_blk, n, c_rows)
    } else {
        let [a0, a1, a2, a3] = rows.map(|r| &a[r * lda + k0..][..kb]);
        let xs =
            (a0.iter().zip(a1).zip(a2).zip(a3)).map(|(((&x0, &x1), &x2), &x3)| [x0, x1, x2, x3]);
        col_blocks::<W, W2>(first, xs, b_blk, n, c_rows)
    }
}

/// Sweep the tile's columns in register blocks of `2W`, then `W`, then (at
/// 16 lanes) 8, then single lanes; `xs` yields the tile's `MR` values of
/// `op(A)` per `k` row.
#[inline(always)]
fn col_blocks<const W: usize, const W2: usize>(
    first: bool,
    xs: impl Iterator<Item = [f32; MR]> + Clone,
    b_blk: &[f32],
    n: usize,
    c_rows: &mut [MaybeUninit<f32>],
) {
    if first {
        col_blocks_from::<W, W2, true>(xs, b_blk, n, c_rows)
    } else {
        col_blocks_from::<W, W2, false>(xs, b_blk, n, c_rows)
    }
}

/// [`col_blocks`] with the accumulators starting at `0.0` (`FIRST`) or at
/// what `C` holds.
#[inline(always)]
fn col_blocks_from<const W: usize, const W2: usize, const FIRST: bool>(
    xs: impl Iterator<Item = [f32; MR]> + Clone,
    b_blk: &[f32],
    n: usize,
    c_rows: &mut [MaybeUninit<f32>],
) {
    let mut j = 0;
    while j + W2 <= n {
        col_block::<W2, FIRST>(xs.clone(), b_blk, n, j, c_rows);
        j += W2;
    }
    if j + W <= n {
        col_block::<W, FIRST>(xs.clone(), b_blk, n, j, c_rows);
        j += W;
    }
    // A 16-lane tile's 8 to 15 last columns: one 8-lane block rather than
    // 8 passes of one lane, each re-reading the tile's rows of `A`.
    if W > 8 && j + 8 <= n {
        col_block::<8, FIRST>(xs.clone(), b_blk, n, j, c_rows);
        j += 8;
    }
    while j < n {
        col_block::<1, FIRST>(xs.clone(), b_blk, n, j, c_rows);
        j += 1;
    }
}

/// One `MR×NB` register block: accumulators at `0.0` (`FIRST`) or loaded
/// from `C`, one mul-then-add per `k` row in ascending order, stored.
#[inline(always)]
fn col_block<const NB: usize, const FIRST: bool>(
    xs: impl Iterator<Item = [f32; MR]>,
    b_blk: &[f32],
    n: usize,
    j: usize,
    c_rows: &mut [MaybeUninit<f32>],
) {
    let mut acc = [[0.0f32; NB]; MR];
    if !FIRST {
        for (acc_r, c_row) in acc.iter_mut().zip(c_rows.chunks_exact(n)) {
            // SAFETY: outside a fresh output's first block, `C` is either
            // the caller's initialised matrix or one whose first block
            // stored every element.
            *acc_r = unsafe { assume_init::<NB>(&c_row[j..j + NB]) };
        }
    }
    for (x, b_row) in xs.zip(b_blk.chunks_exact(n)) {
        let b_lanes = &b_row[j..j + NB];
        for (acc_r, x_r) in acc.iter_mut().zip(x) {
            for l in 0..NB {
                acc_r[l] += x_r * b_lanes[l];
            }
        }
    }
    for (acc_r, c_row) in acc.iter().zip(c_rows.chunks_exact_mut(n)) {
        c_row[j..j + NB].write_copy_of_slice(acc_r);
    }
}

/// The first `N` elements of `c` as values.
///
/// # Safety
/// They are initialised.
#[inline(always)]
unsafe fn assume_init<const N: usize>(c: &[MaybeUninit<f32>]) -> [f32; N] {
    let c: &[MaybeUninit<f32>; N] = c[..N].try_into().unwrap();
    // SAFETY: the caller guarantees the elements are initialised.
    c.map(|x| unsafe { x.assume_init() })
}

/// `C = Aᵀ · B`, allocating the output (`A: k×m`, `B: k×n`, `C: m×n`).
/// `A` is read in place, as in [`gemm`].
pub fn gemm_tn<'a>(a: impl Into<MatRef<'a>>, b: &Mat) -> Mat {
    let a = a.into();
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm_tn: A is {k}x{m} but B is {kb}x{n}");
    match fast_width(m, k, n) {
        Some(w) => fresh::<true>(w, m, k, n, a.as_slice(), b.as_slice()),
        None => {
            let mut c = Mat::zeros(m, n);
            gemm_tn_acc(a, b, &mut c);
            c
        }
    }
}

/// `C += Aᵀ · B`.
///
/// Parallelized over row panels of `C` (i.e. column panels of `A`): each
/// task scans all `k` rows of `A`/`B` but only touches its own columns of
/// `A`, keeping writes disjoint.
pub fn gemm_tn_acc<'a>(a: impl Into<MatRef<'a>>, b: &Mat, c: &mut Mat) {
    let a = a.into();
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm_tn: A is {k}x{m} but B is {kb}x{n}");
    assert_eq!(c.shape(), (m, n), "gemm_tn: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    match fast_width(m, k, n) {
        // SAFETY: the fast tiles store only finished accumulators.
        Some(w) => fast::<true>(w, k, n, a_data, b_data, unsafe { as_uninit(c) }, false),
        None => scalar_gemm_tn_acc(k, m, n, a_data, b_data, c),
    }
}

fn scalar_gemm_tn_acc(k: usize, m: usize, n: usize, a_data: &[f32], b_data: &[f32], c: &mut Mat) {
    // Weight-gradient shapes have small m, n (feature dims) and large k
    // (vertices): panels of C rows correspond to strided columns of A.
    c.as_mut_slice()
        .par_chunks_mut(ROW_PANEL * n)
        .enumerate()
        .for_each(|(panel, c_panel)| {
            let i0 = panel * ROW_PANEL;
            let rows_here = c_panel.len() / n;
            for kk in 0..k {
                let b_row = &b_data[kk * n..(kk + 1) * n];
                let a_row = &a_data[kk * m..(kk + 1) * m];
                for ii in 0..rows_here {
                    let aik = a_row[i0 + ii];
                    if aik == 0.0 {
                        continue;
                    }
                    let c_row = &mut c_panel[ii * n..(ii + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv += aik * bv;
                    }
                }
            }
        });
}

/// `C = A · Bᵀ`, allocating the output (`A: m×k`, `B: n×k`, `C: m×n`).
///
/// The scalar inner loop is a dot product of two contiguous length-`k`
/// rows, summed in `k` order. The fast path transposes `B` — a weight
/// matrix wherever a GCN layer calls this — once into pool-backed scratch
/// and runs the [`gemm`] tiles on it: the same `k`-ascending sum, so the
/// same bits. `A` is read in place, as in [`gemm`].
pub fn gemm_nt<'a>(a: impl Into<MatRef<'a>>, b: &Mat) -> Mat {
    let a = a.into();
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "gemm_nt: A is {m}x{k} but B is {n}x{kb}");
    match fast_width(m, k, n) {
        // The output is taken from the pool before the transposed `B`:
        // the order of a warm-up epoch's fresh allocations moves peak
        // memory (by 1.5 MB on `train-kernels` the other way round).
        // SAFETY: as in `fresh`.
        Some(w) => unsafe {
            Mat::write_once(m, n, |c| {
                let bt = b.transpose();
                fast::<false>(w, k, n, a.as_slice(), bt.as_slice(), c, true)
            })
        },
        None => {
            let mut c = Mat::zeros(m, n);
            if m > 0 && n > 0 && k > 0 {
                scalar_gemm_nt(k, n, a.as_slice(), b.as_slice(), &mut c);
            }
            c
        }
    }
}

fn scalar_gemm_nt(k: usize, n: usize, a_data: &[f32], b_data: &[f32], c: &mut Mat) {
    c.as_mut_slice()
        .par_chunks_mut(ROW_PANEL * n)
        .enumerate()
        .for_each(|(panel, c_panel)| {
            let i0 = panel * ROW_PANEL;
            let rows_here = c_panel.len() / n;
            for ii in 0..rows_here {
                let a_row = &a_data[(i0 + ii) * k..(i0 + ii + 1) * k];
                let c_row = &mut c_panel[ii * n..(ii + 1) * n];
                for (j, cv) in c_row.iter_mut().enumerate() {
                    let b_row = &b_data[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&av, &bv) in a_row.iter().zip(b_row) {
                        acc += av * bv;
                    }
                    *cv += acc;
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{with_mode, Mode, Width};
    use crate::ops::allclose;

    fn gemm_ref(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn gemm_small_known() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = gemm(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_matches_reference_odd_shapes() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (65, 33, 17), (130, 4, 129)] {
            let a = Mat::random(m, k, 1.0, (m * k) as u64);
            let b = Mat::random(k, n, 1.0, (k * n + 1) as u64);
            assert!(allclose(&gemm(&a, &b), &gemm_ref(&a, &b), 1e-4));
        }
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = Mat::random(20, 20, 1.0, 9);
        assert!(allclose(&gemm(&a, &Mat::eye(20)), &a, 1e-6));
        assert!(allclose(&gemm(&Mat::eye(20), &a), &a, 1e-6));
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = Mat::random(8, 8, 1.0, 1);
        let b = Mat::random(8, 8, 1.0, 2);
        let mut c = gemm(&a, &b);
        gemm_acc(&a, &b, &mut c);
        let mut twice = gemm(&a, &b);
        for v in twice.as_mut_slice() {
            *v *= 2.0;
        }
        assert!(allclose(&c, &twice, 1e-4));
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = Mat::random(50, 13, 1.0, 3);
        let b = Mat::random(50, 9, 1.0, 4);
        let expect = gemm_ref(&a.transpose(), &b);
        assert!(allclose(&gemm_tn(&a, &b), &expect, 1e-4));
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let a = Mat::random(41, 13, 1.0, 5);
        let b = Mat::random(23, 13, 1.0, 6);
        let expect = gemm_ref(&a, &b.transpose());
        assert!(allclose(&gemm_nt(&a, &b), &expect, 1e-4));
    }

    #[test]
    fn gemm_empty_dims() {
        let a = Mat::zeros(0, 4);
        let b = Mat::zeros(4, 3);
        assert_eq!(gemm(&a, &b).shape(), (0, 3));
        let a = Mat::zeros(3, 0);
        let b = Mat::zeros(0, 2);
        let c = gemm(&a, &b);
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn gemm_shape_mismatch_panics() {
        let _ = gemm(&Mat::zeros(2, 3), &Mat::zeros(4, 2));
    }

    #[test]
    fn all_variants_handle_zero_dimensions() {
        // m == 0, n == 0, k == 0 for every orientation, including the
        // accumulating forms (which must leave C untouched).
        for (m, k, n) in [(0, 4, 3), (3, 0, 2), (3, 4, 0), (0, 0, 0)] {
            assert_eq!(gemm(&Mat::zeros(m, k), &Mat::zeros(k, n)).shape(), (m, n));
            assert_eq!(
                gemm_tn(&Mat::zeros(k, m), &Mat::zeros(k, n)).shape(),
                (m, n)
            );
            assert_eq!(
                gemm_nt(&Mat::zeros(m, k), &Mat::zeros(n, k)).shape(),
                (m, n)
            );
            let mut c = Mat::from_fn(m, n, |i, j| (i + 2 * j) as f32 + 1.0);
            let keep = c.clone();
            gemm_acc(&Mat::zeros(m, k), &Mat::zeros(k, n), &mut c);
            assert_eq!(c, keep);
            let mut c = keep.clone();
            gemm_tn_acc(&Mat::zeros(k, m), &Mat::zeros(k, n), &mut c);
            assert_eq!(c, keep);
        }
    }

    #[test]
    fn fast_variants_handle_zero_dimensions_at_every_width() {
        // Regression for the lane-tail and k == 0 edge cases: the fast
        // dispatch must hit the same early-outs as scalar for all widths.
        for width in Width::all() {
            with_mode(Mode::Fast(width), || {
                for (m, k, n) in [(0, 4, 3), (3, 0, 2), (3, 4, 0), (0, 0, 0)] {
                    assert_eq!(gemm(&Mat::zeros(m, k), &Mat::zeros(k, n)).shape(), (m, n));
                    assert_eq!(
                        gemm_tn(&Mat::zeros(k, m), &Mat::zeros(k, n)).shape(),
                        (m, n)
                    );
                    assert_eq!(
                        gemm_nt(&Mat::zeros(m, k), &Mat::zeros(n, k)).shape(),
                        (m, n)
                    );
                    let mut c = Mat::from_fn(m, n, |i, j| (i + 2 * j) as f32 + 1.0);
                    let keep = c.clone();
                    gemm_acc(&Mat::zeros(m, k), &Mat::zeros(k, n), &mut c);
                    assert_eq!(c, keep);
                    let mut c = keep.clone();
                    gemm_tn_acc(&Mat::zeros(k, m), &Mat::zeros(k, n), &mut c);
                    assert_eq!(c, keep);
                }
            });
        }
    }

    #[test]
    fn fast_cols_narrower_than_width_use_the_lane_tail() {
        // n < W exercises the pure-remainder column loop; m < MR and
        // m % MR != 0 exercise the short tile that re-reads its last row.
        for width in Width::all() {
            with_mode(Mode::Fast(width), || {
                for (m, k, n) in [(5, 7, 1), (9, 2, 3), (MR + 1, 1, 2), (2, 3, 5)] {
                    let a = Mat::random(m, k, 1.0, (10 * m + k) as u64);
                    let b = Mat::random(k, n, 1.0, (10 * k + n) as u64);
                    assert!(allclose(&gemm(&a, &b), &gemm_ref(&a, &b), 1e-4));
                    let bt = Mat::random(n, k, 1.0, (3 * k + n) as u64);
                    assert!(allclose(
                        &gemm_nt(&a, &bt),
                        &gemm_ref(&a, &bt.transpose()),
                        1e-4
                    ));
                    let at = Mat::random(k, m, 1.0, (7 * m + k) as u64);
                    assert!(allclose(
                        &gemm_tn(&at, &b),
                        &gemm_ref(&at.transpose(), &b),
                        1e-4
                    ));
                }
            });
        }
    }

    #[test]
    fn zero_skip_is_the_only_fast_vs_scalar_divergence() {
        // The documented gap in the bitwise contract, pinned from both
        // sides so it can neither widen nor silently close: the scalar
        // `gemm` / `gemm_tn` skip terms with `a == 0`, the fast tiles add
        // `0·b`. That shows only when `b` is non-finite, or when the `C`
        // of an accumulating form holds `-0.0` and every term is skipped.
        let a = Mat::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Mat::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        let at = a.transpose();
        let neg_zero = Mat::from_vec(1, 1, vec![-0.0]);
        let zero_a = Mat::zeros(1, 2);
        let ones = Mat::from_vec(2, 1, vec![1.0, 1.0]);
        let run = || {
            let mut acc = neg_zero.clone();
            gemm_acc(&zero_a, &ones, &mut acc);
            [gemm(&a, &b), gemm_tn(&at, &b), acc].map(|c| c.get(0, 0))
        };
        let [s_nn, s_tn, s_acc] = with_mode(Mode::Scalar, run);
        assert_eq!([s_nn, s_tn], [2.0, 2.0], "scalar skips 0·∞");
        assert_eq!(s_acc.to_bits(), (-0.0f32).to_bits(), "scalar leaves -0");
        // gemm_nt skips nothing in either path: bitwise even here.
        let (g, w) = (a.clone(), b.transpose());
        let scalar_nt = with_mode(Mode::Scalar, || gemm_nt(&g, &w)).get(0, 0);
        assert!(scalar_nt.is_nan(), "scalar gemm_nt adds 0·∞");
        for width in [Width::W4, Width::W8, Width::W16] {
            let [f_nn, f_tn, f_acc] = with_mode(Mode::Fast(width), run);
            assert!(f_nn.is_nan() && f_tn.is_nan(), "{width:?} adds 0·∞");
            assert_eq!(f_acc.to_bits(), 0.0f32.to_bits(), "{width:?}: -0 + 0·1");
            let fast_nt = with_mode(Mode::Fast(width), || gemm_nt(&g, &w)).get(0, 0);
            assert_eq!(fast_nt.to_bits(), scalar_nt.to_bits(), "{width:?} gemm_nt");
        }
    }
}
