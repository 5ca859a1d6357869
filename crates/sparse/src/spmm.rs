//! Sparse × dense matrix multiplication.
//!
//! Every product — plain or edge-masked — runs through one function
//! (`drive`): one task per cached nnz-balanced row panel, each panel one
//! call of a panel body. The output is written **once**: every element
//! starts from `0.0` in a register, accumulates its terms there and is
//! stored into an uninitialised pool buffer, so no SpMM zero-fills its
//! output (empty rows are stored as zeros). Like the dense GEMM kernels,
//! the panel body has two implementations selected via
//! [`rdm_dense::kernels`]: the scalar reference (one output element at a
//! time, nonzeros ascending) and the default register-blocked fast path
//! that walks each row in `SB`-by-`W` column strips, holding the strips'
//! accumulators in registers across all of the row's nonzeros (the `SB`
//! blocks per pass amortize each nonzero's column decode over `SB` vector
//! FMAs).
//!
//! Where `B` is larger than L2 and `A` dense enough to reuse it, the fast
//! path sweeps `A`'s columns in blocks whose rows of `B` fit in L2
//! (`TILE`): block 0 stores every row of the panel, and each later block
//! loads the partial sums of the rows it touches, continues them over its
//! segment of the row's nonzeros (cached per matrix by
//! [`Csr::col_segments`]) and stores them again. An unblocked product is
//! the one-block case of the same body. Per output element the
//! accumulation order is nonzeros ascending from `0.0` in every case, so
//! at every width, blocked or not, both entry points are **bitwise** the
//! scalar ones (the scalar body skips nothing, so this holds for
//! non-finite inputs too). Each call runs at the width
//! [`kernels::call_mode`] picks for its `n` (16 lanes only from
//! `n ≥ SB·16 = 64`), and the fast panel body is compiled per
//! [`kernels::Isa`] level — AVX-512 for the 16-lane body, AVX2 for the
//! others, the baseline where neither runs — from one inlined body, one
//! dispatch per panel, so the host changes speed, never bits. The edge
//! mask is a const generic of the body, so the unmasked instantiation
//! carries no per-nonzero test.

use crate::csr::Csr;
use rdm_dense::kernels::{self, Isa, Kernel, Mode, Width, SPMM_STRIPS as SB};
use rdm_dense::{Mat, MatRef};
use std::mem::MaybeUninit;
use std::ops::Range;

/// `C = A · B` for CSR `A` (m×k) and dense `B` (k×n), allocating `C` (m×n).
///
/// Parallelized over row panels of `C`; each output row accumulates scaled
/// rows of `B` in registers. This is the aggregation kernel of a GCN
/// layer. `B` is read in place: an owned [`Mat`] or a borrowed [`MatRef`].
///
/// # Panics
/// On shape mismatch.
pub fn spmm<'b>(a: &Csr, b: impl Into<MatRef<'b>>) -> Mat {
    drive::<false>("spmm", a, b.into(), &[])
}

/// Masked SpMM (§III-F): like [`spmm`] but only the entries of `A` whose
/// flag in `mask` is true participate. `mask` is indexed by nonzero
/// position (same order as `A`'s value array) — the "sampled neighbor"
/// pattern of sampling-based GNNs that do not build explicit subgraphs.
///
/// # Panics
/// If `mask.len() != a.nnz()` or shapes mismatch.
pub fn spmm_masked<'b>(a: &Csr, b: impl Into<MatRef<'b>>, mask: &[bool]) -> Mat {
    assert_eq!(mask.len(), a.nnz(), "mask length must equal nnz");
    drive::<true>("spmm_masked", a, b.into(), mask)
}

/// What every panel body reads: `A`'s arrays, the nonzero mask (ignored
/// unless `MASKED`), `B` with its width `n`, and the `nb` column blocks
/// `A` is swept in with their per-row boundaries `seg`
/// ([`Csr::col_segments`]; empty when `nb = 1`).
#[derive(Clone, Copy)]
struct Operands<'a> {
    indptr: &'a [usize],
    indices: &'a [u32],
    vals: &'a [f32],
    mask: &'a [bool],
    b: &'a [f32],
    n: usize,
    nb: usize,
    seg: &'a [u32],
}

impl Operands<'_> {
    /// Positions of row `r`'s nonzeros in column block `q`.
    #[inline(always)]
    fn segment(&self, r: usize, q: usize) -> Range<usize> {
        let nz = self.indptr[r]..self.indptr[r + 1];
        if self.nb == 1 {
            return nz;
        }
        let s = &self.seg[r * (self.nb - 1)..][..self.nb - 1];
        let lo = if q == 0 { 0 } else { s[q - 1] as usize };
        let hi = if q + 1 == self.nb {
            nz.len()
        } else {
            s[q] as usize
        };
        nz.start + lo..nz.start + hi
    }
}

/// Bytes of `B` one column block keeps resident: half of the 2 MiB per-core
/// L2 of the Sapphire Rapids host the blocking was measured on, leaving the
/// other half to `A`'s arrays and the output rows streaming past. On the
/// `train-kernels` adjacency (20 000 rows, ~1.5 M nonzeros) at `n = 64`,
/// single-threaded, blocks of 256 KiB took 18.7 ms, 512 KiB 12.7 ms,
/// 1 MiB 10.3–12.1 ms and 1.5 MiB 11.4–13.9 ms, against 15.3–21.2 ms
/// unblocked.
const TILE: usize = 1 << 20;

/// How many column blocks the fast SpMM sweeps a `rows × cols` matrix with
/// `nnz` nonzeros in against an `n`-column `B`, and their width in rows of
/// `B`: blocks of [`TILE`] bytes of `B`, used only when there are at least
/// 4 nonzeros per row per block on average. Below that, each block's pass
/// over the panel's rows costs more than the cache misses it saves: the
/// thin ledger graph (5 nonzeros a row) went 5.0 → 12.1 ms at `n = 32` in
/// 10 blocks and 1.8 → 3.2 ms at `n = 8` in 3, while `train-kernels`
/// (~73 a row) went 15.3–21.2 → 10.3–12.1 ms in 5 and a 50 000-vertex,
/// 1.0 M-edge graph (~2 M nonzeros) at `n = 32` 11.1 → 8.5 ms in 7. `(1, cols)` is the
/// unblocked sweep.
fn col_blocks(rows: usize, cols: usize, nnz: usize, n: usize) -> (usize, usize) {
    let block = (TILE / (4 * n)).max(1);
    let nb = cols.div_ceil(block);
    if nb > 1 && nnz >= 4 * nb * rows {
        (nb, block)
    } else {
        (1, cols)
    }
}

/// The SpMM behind both entry points: `C = A·B`, using — when `MASKED` —
/// only the nonzeros flagged in `mask` (indexed by nonzero position;
/// ignored otherwise). `what` names the public entry point in the shape
/// panics.
fn drive<const MASKED: bool>(what: &str, a: &Csr, b: MatRef<'_>, mask: &[bool]) -> Mat {
    let (m, n) = (a.rows(), b.cols());
    assert_eq!(
        a.cols(),
        b.rows(),
        "{what}: A is {}x{} but B is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        n
    );
    if m == 0 || n == 0 || a.nnz() == 0 {
        return Mat::zeros(m, n);
    }
    // Kernel mode is read on the calling thread and captured by value;
    // pool workers never consult their own thread-local.
    let mode = kernels::call_mode(Kernel::Spmm, n);
    // The scalar oracle sweeps every row in one block.
    let (nb, block) = match mode {
        Mode::Scalar | Mode::Fast(Width::W1) => (1, a.cols()),
        Mode::Fast(_) => col_blocks(m, a.cols(), a.nnz(), n),
    };
    let ops = Operands {
        indptr: a.indptr(),
        indices: a.indices(),
        vals: a.vals(),
        mask,
        b: b.as_slice(),
        n,
        nb,
        seg: if nb > 1 { a.col_segments(block) } else { &[] },
    };
    // One task per nnz-balanced row panel: boundaries are precomputed from
    // `indptr` (and cached on `A`, which is reused every epoch) so each task
    // owns ~equal nonzeros and skewed (power-law) rows still balance. Panels
    // are whole rows, so per-row accumulation order — and hence every output
    // bit — is identical to a sequential sweep. Masks only thin work; the
    // cached partition is still the right upper bound.
    let bounds = a.nnz_partition(task_count(m));
    let isa = kernels::isa();
    let fill = |c: &mut [MaybeUninit<f32>]| {
        rayon::par_partition_mut(c, bounds, n, |t, panel| {
            let rows = bounds[t]..bounds[t + 1];
            match mode {
                Mode::Scalar | Mode::Fast(Width::W1) => panel_body::<1, MASKED>(&ops, rows, panel),
                Mode::Fast(Width::W4) => fast_panel::<4, MASKED>(isa, &ops, rows, panel),
                Mode::Fast(Width::W8) => fast_panel::<8, MASKED>(isa, &ops, rows, panel),
                Mode::Fast(Width::W16) => fast_panel::<16, MASKED>(isa, &ops, rows, panel),
            }
        })
    };
    // SAFETY: the panels tile the `m × n` output (`par_partition_mut`
    // checks that `bounds` covers it), and `panel_body`'s block 0 stores
    // every element of every row of its panel.
    unsafe { Mat::write_once(m, n, fill) }
}

/// One row panel of the fast kernel, compiled for the level `isa` allows a
/// `W`-lane body.
#[inline]
fn fast_panel<const W: usize, const MASKED: bool>(
    isa: Isa,
    ops: &Operands<'_>,
    rows: Range<usize>,
    c: &mut [MaybeUninit<f32>],
) {
    #[cfg(target_arch = "x86_64")]
    match isa.for_lanes(W) {
        // SAFETY: `isa` is the running CPU's level (`kernels::isa`).
        Isa::Avx512 => return unsafe { fast_panel_avx512::<W, MASKED>(ops, rows, c) },
        // SAFETY: as above.
        Isa::Avx2 => return unsafe { fast_panel_avx2::<W, MASKED>(ops, rows, c) },
        Isa::Baseline => {}
    }
    let _ = isa;
    panel_body::<W, MASKED>(ops, rows, c)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fast_panel_avx2<const W: usize, const MASKED: bool>(
    ops: &Operands<'_>,
    rows: Range<usize>,
    c: &mut [MaybeUninit<f32>],
) {
    panel_body::<W, MASKED>(ops, rows, c)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fast_panel_avx512<const W: usize, const MASKED: bool>(
    ops: &Operands<'_>,
    rows: Range<usize>,
    c: &mut [MaybeUninit<f32>],
) {
    panel_body::<W, MASKED>(ops, rows, c)
}

/// Rows `rows` of `C = A·B` into `c` (their `rows.len() · n` elements),
/// one column block of `A` at a time. Block 0 starts every element at
/// `0.0` and stores every row, also rows with no nonzero in it, so the
/// whole panel is written after it; each later block skips rows with no
/// nonzero in it and otherwise continues the row's stored sums over its
/// segment. Blocks cut each row's ascending nonzeros into consecutive
/// runs, so every element still sums its terms nonzeros ascending from
/// `0.0`.
#[inline(always)]
fn panel_body<const W: usize, const MASKED: bool>(
    ops: &Operands<'_>,
    rows: Range<usize>,
    c: &mut [MaybeUninit<f32>],
) {
    let n = ops.n;
    for (r, c_row) in rows.clone().zip(c.chunks_exact_mut(n)) {
        row_segment::<W, MASKED, true>(ops, ops.segment(r, 0), c_row);
    }
    for q in 1..ops.nb {
        for (r, c_row) in rows.clone().zip(c.chunks_exact_mut(n)) {
            let nz = ops.segment(r, q);
            if !nz.is_empty() {
                row_segment::<W, MASKED, false>(ops, nz, c_row);
            }
        }
    }
}

/// One row's nonzeros at positions `nz` into its output row `c_row`,
/// starting from `0.0` (`FIRST`) or from the sums `c_row` holds. The row
/// is walked in `SB·W`-wide column strips (strips outer, nonzeros inner),
/// then `W`-wide strips, then (at 16 lanes) one 8-wide strip, then one
/// column at a time for the rest; `W = 1` is the scalar reference, which
/// is that last loop alone. Only strip traversal, not arithmetic order,
/// differs between widths.
#[inline(always)]
fn row_segment<const W: usize, const MASKED: bool, const FIRST: bool>(
    ops: &Operands<'_>,
    nz: Range<usize>,
    c_row: &mut [MaybeUninit<f32>],
) {
    let n = ops.n;
    let mut j = 0;
    if W > 1 {
        while j + SB * W <= n {
            strips::<W, SB, MASKED, FIRST>(ops, nz.clone(), j, c_row);
            j += SB * W;
        }
        while j + W <= n {
            strips::<W, 1, MASKED, FIRST>(ops, nz.clone(), j, c_row);
            j += W;
        }
        // A 16-lane row's 8 to 15 last columns: one 8-lane strip rather
        // than 8 passes of one lane.
        if W > 8 && j + 8 <= n {
            strips::<8, 1, MASKED, FIRST>(ops, nz.clone(), j, c_row);
            j += 8;
        }
    }
    while j < n {
        strips::<1, 1, MASKED, FIRST>(ops, nz.clone(), j, c_row);
        j += 1;
    }
}

/// Columns `j..j + S·L` of one output row over the nonzeros at positions
/// `nz`: `S` strips of `L` lanes held in registers together across the
/// nonzeros, ascending, each stored once. When `MASKED`, the mask thins
/// nonzeros without changing their order.
#[inline(always)]
fn strips<const L: usize, const S: usize, const MASKED: bool, const FIRST: bool>(
    ops: &Operands<'_>,
    nz: Range<usize>,
    j: usize,
    c_row: &mut [MaybeUninit<f32>],
) {
    let (n, b) = (ops.n, ops.b);
    let keep = if MASKED {
        &ops.mask[nz.clone()]
    } else {
        ops.mask
    };
    let (cols, vals) = (&ops.indices[nz.clone()], &ops.vals[nz]);
    // SAFETY: outside block 0 (`!FIRST`), block 0 has stored every
    // element of this row.
    let mut acc: [[f32; L]; S] =
        std::array::from_fn(|s| unsafe { start::<L, FIRST>(&c_row[j + s * L..]) });
    for (i, (&k, &v)) in cols.iter().zip(vals).enumerate() {
        if MASKED && !keep[i] {
            continue;
        }
        let base = k as usize * n + j;
        let b_blk = &b[base..base + S * L];
        for (s, acc_s) in acc.iter_mut().enumerate() {
            for l in 0..L {
                acc_s[l] += v * b_blk[s * L + l];
            }
        }
    }
    c_row[j..j + S * L].write_copy_of_slice(acc.as_flattened());
}

/// The accumulators a segment starts `c[..N]` from: `0.0` in block 0
/// (`FIRST`), else the partial sums the blocks before it stored.
///
/// # Safety
/// Unless `FIRST`, the first `N` elements of `c` are initialised.
#[inline(always)]
unsafe fn start<const N: usize, const FIRST: bool>(c: &[MaybeUninit<f32>]) -> [f32; N] {
    if FIRST {
        [0.0; N]
    } else {
        let c: &[MaybeUninit<f32>; N] = c[..N].try_into().unwrap();
        // SAFETY: the caller guarantees the elements are initialised.
        c.map(|x| unsafe { x.assume_init() })
    }
}

/// How many nnz-balanced panels to cut a `rows`-row matrix into: enough to
/// keep every worker fed with slack for imbalance, never more than rows.
fn task_count(rows: usize) -> usize {
    (rayon::current_num_threads() * 8).clamp(1, rows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Coo;
    use rdm_dense::{allclose, gemm};

    fn random_csr(rows: usize, cols: usize, density: f64, seed: u64) -> Csr {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    coo.push(r as u32, c as u32, rng.gen_range(-1.0..1.0));
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        for (m, k, n, d) in [(10, 10, 4, 0.3), (37, 53, 9, 0.1), (64, 64, 16, 0.05)] {
            let a = random_csr(m, k, d, (m + n) as u64);
            let b = Mat::random(k, n, 1.0, 99);
            let c = spmm(&a, &b);
            let c_ref = gemm(&a.to_dense(), &b);
            assert!(allclose(&c, &c_ref, 1e-4));
        }
    }

    #[test]
    fn spmm_identity_is_noop() {
        let b = Mat::random(20, 5, 1.0, 3);
        let c = spmm(&Csr::identity(20), &b);
        assert!(allclose(&c, &b, 1e-6));
    }

    #[test]
    fn spmm_empty_matrix_gives_zeros() {
        let a = Csr::empty(4, 6);
        let b = Mat::random(6, 3, 1.0, 5);
        let c = spmm(&a, &b);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic]
    fn spmm_shape_mismatch_panics() {
        let a = Csr::empty(4, 6);
        let b = Mat::zeros(5, 3);
        let _ = spmm(&a, &b);
    }

    #[test]
    fn zero_dimension_inputs_are_handled() {
        // m == 0, n == 0, k == 0 and nnz == 0 for both kernels.
        let b = Mat::random(6, 3, 1.0, 5);
        assert_eq!(spmm(&Csr::empty(0, 6), &b).shape(), (0, 3));
        assert_eq!(spmm(&Csr::empty(4, 6), &Mat::zeros(6, 0)).shape(), (4, 0));
        assert_eq!(spmm(&Csr::empty(0, 0), &Mat::zeros(0, 2)).shape(), (0, 2));
        let masked = spmm_masked(&Csr::empty(4, 6), &b, &[]);
        assert_eq!(masked.shape(), (4, 3));
        assert!(masked.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(spmm_masked(&Csr::empty(0, 6), &b, &[]).shape(), (0, 3));
        assert_eq!(
            spmm_masked(&Csr::empty(4, 6), &Mat::zeros(6, 0), &[]).shape(),
            (4, 0)
        );
    }

    #[test]
    fn fast_widths_handle_zero_dims_and_narrow_outputs() {
        // Regression for the lane-tail edge cases: n < W must fall through
        // to the width-1 strip loop, and the zero-dim early-outs must fire
        // before any fast dispatch.
        use rdm_dense::kernels::{with_mode, Mode, Width};
        for width in Width::all() {
            with_mode(Mode::Fast(width), || {
                let b = Mat::random(6, 3, 1.0, 5);
                assert_eq!(spmm(&Csr::empty(0, 6), &b).shape(), (0, 3));
                assert_eq!(spmm(&Csr::empty(4, 6), &Mat::zeros(6, 0)).shape(), (4, 0));
                assert_eq!(spmm_masked(&Csr::empty(4, 6), &b, &[]).shape(), (4, 3));
                for n in [1usize, 2, 3, 5, 7] {
                    let a = random_csr(12, 12, 0.4, n as u64);
                    let bn = Mat::random(12, n, 1.0, (n + 40) as u64);
                    let c_ref = gemm(&a.to_dense(), &bn);
                    assert!(allclose(&spmm(&a, &bn), &c_ref, 1e-4), "n={n}");
                    let mask = vec![true; a.nnz()];
                    assert!(allclose(&spmm_masked(&a, &bn, &mask), &c_ref, 1e-4));
                }
            });
        }
    }

    /// A borrowed `B` — rows of a taller matrix — is read exactly as an
    /// owned copy of those rows, masked or not, at every width.
    #[test]
    fn a_borrowed_b_is_bitwise_an_owned_one() {
        use rdm_dense::kernels::{with_mode, Mode, Width};
        let modes = std::iter::once(Mode::Scalar).chain(Width::all().map(Mode::Fast));
        for mode in modes {
            for n in [3usize, 16, 70] {
                let a = random_csr(30, 24, 0.3, n as u64);
                let tall = Mat::random(29, n, 1.0, (n + 7) as u64);
                let (view, owned) = (tall.row_view(2, 26), tall.row_block(2, 26));
                let mask: Vec<bool> = (0..a.nnz()).map(|i| i % 3 != 0).collect();
                with_mode(mode, || {
                    assert_eq!(spmm(&a, view), spmm(&a, &owned), "{mode:?} n={n}");
                    let (masked, masked_owned) =
                        (spmm_masked(&a, view, &mask), spmm_masked(&a, &owned, &mask));
                    assert_eq!(masked, masked_owned, "{mode:?} n={n} masked");
                });
            }
        }
    }

    #[test]
    fn skewed_rows_partition_to_bounded_tasks() {
        // Regression for the old uniform-row chunking: on a power-law-like
        // matrix the partition actually used by spmm must keep the max/mean
        // per-task nnz ratio bounded.
        let mut coo = Coo::new(400, 400);
        for c in 0..399u32 {
            coo.push(0, c, 0.5); // one hub row with ~all the mass
        }
        for r in 1..400u32 {
            coo.push(r, r - 1, 1.0);
        }
        let a = coo.to_csr();
        let b = Mat::random(400, 4, 1.0, 17);
        let c = spmm(&a, &b); // forces the cached partition into existence
        assert_eq!(c.shape(), (400, 4));
        let bounds = a.nnz_partition(task_count(a.rows())); // the one spmm used
        let tasks = bounds.len() - 1;
        assert!(tasks >= 2, "expected a multi-task partition");
        let per_task: Vec<usize> = bounds
            .windows(2)
            .map(|w| a.indptr()[w[1]] - a.indptr()[w[0]])
            .collect();
        let max = *per_task.iter().max().unwrap() as f64;
        let mean = a.nnz() as f64 / tasks as f64;
        // The hub row is indivisible, so one task necessarily owns it; the
        // bound below fails for uniform row chunking (ratio ~tasks/2) and
        // holds for the nnz-balanced partition.
        assert!(
            max / mean <= (399.0 / mean).max(1.5),
            "per-task nnz skew unbounded: max {max}, mean {mean}"
        );
    }

    #[test]
    fn partition_cache_serves_each_share_its_own_task_count() {
        // One matrix read by callers on different core shares — ranks
        // sharing a replicated adjacency, or a P = 1 run after a P = 2 one
        // — must partition for each caller's task count, not the first's.
        let a = random_csr(96, 96, 0.2, 21);
        let b = Mat::random(96, 5, 1.0, 22);
        let narrow = rayon::with_share(1, || {
            let c = spmm(&a, &b);
            assert_eq!(task_count(a.rows()), 8);
            (c, a.nnz_partition(8).as_ptr())
        });
        let wide = rayon::with_share(2, || {
            assert_eq!(task_count(a.rows()), 16);
            assert_eq!(
                a.nnz_partition(16),
                &crate::balanced_panels(a.indptr(), 16)[..]
            );
            spmm(&a, &b)
        });
        assert_eq!(narrow.0.as_slice(), wide.as_slice());
        // The first partition is still the cached one.
        assert_eq!(a.nnz_partition(8).as_ptr(), narrow.1);
        assert_eq!(
            a.nnz_partition(8),
            &crate::balanced_panels(a.indptr(), 8)[..]
        );
    }

    #[test]
    fn blocking_rule_on_the_ledger_shapes() {
        // `(rows, cols, nnz, n)` of the ledger workloads' SpMMs at P = 2,
        // with `nnz` their adjacency's estimate (symmetrized edges plus
        // self-loops, before duplicates merge).
        let blocks = |rows, cols, nnz, n| col_blocks(rows, cols, nnz, n).0;
        // train-kernels: 20 000 vertices, 800 000 edges; features and
        // hidden 128 (n = 64 per rank), 16 classes (n = 8).
        assert_eq!(col_blocks(20_000, 20_000, 1_620_000, 64), (5, 4096));
        assert_eq!(blocks(20_000, 20_000, 1_620_000, 8), 1);
        // train-thin: 80 000 vertices, 160 000 edges; n = 32 and n = 8.
        assert_eq!(blocks(80_000, 80_000, 400_000, 32), 1);
        assert_eq!(blocks(80_000, 80_000, 400_000, 8), 1);
        // serve-induced: at most 4096 vertices a batch, n = 32 — one
        // block however dense the batch.
        assert_eq!(blocks(4096, 4096, 4096 * 4096, 32), 1);
        // Too narrow a `B` for even one block's worth of rows.
        assert_eq!(col_blocks(10, 7, 70, 1), (1, 7));
    }

    #[test]
    fn masked_all_true_equals_unmasked() {
        let a = random_csr(16, 16, 0.3, 7);
        let b = Mat::random(16, 6, 1.0, 8);
        let mask = vec![true; a.nnz()];
        assert!(allclose(&spmm_masked(&a, &b, &mask), &spmm(&a, &b), 1e-6));
    }

    #[test]
    fn masked_all_false_gives_zero() {
        let a = random_csr(16, 16, 0.3, 7);
        let b = Mat::random(16, 6, 1.0, 8);
        let mask = vec![false; a.nnz()];
        let c = spmm_masked(&a, &b, &mask);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn masked_subset_matches_filtered_matrix() {
        use rand::{Rng, SeedableRng};
        let a = random_csr(20, 20, 0.3, 9);
        let b = Mat::random(20, 4, 1.0, 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mask: Vec<bool> = (0..a.nnz()).map(|_| rng.gen_bool(0.5)).collect();
        // Build the explicitly filtered matrix.
        let mut coo = Coo::new(20, 20);
        let mut pos = 0;
        for r in 0..20 {
            let (cs, vs) = a.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                if mask[pos] {
                    coo.push(r as u32, c, v);
                }
                pos += 1;
            }
        }
        let filtered = coo.to_csr();
        assert!(allclose(
            &spmm_masked(&a, &b, &mask),
            &spmm(&filtered, &b),
            1e-5
        ));
    }
}
