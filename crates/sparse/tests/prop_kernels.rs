//! Differential property suite for the register-blocked SpMM fast path:
//! every forced lane width vs the scalar reference, over random CSRs,
//! hub-heavy RMAT-skewed CSRs (the adjacency shape the nnz-balanced panels
//! exist for), the masked variant, and degenerate shapes. The fast SpMM
//! keeps the per-element accumulation order of the scalar sweep, so the
//! contract is **bitwise** at every width for both entry points. Both are
//! one driver, so at any one width masking nothing must also be bitwise
//! the dense kernel (`assert_seams`). Every width also
//! runs under pool shares 1, 2 and 3, each on a fresh matrix whose
//! nnz-balanced panels are cut for that share, and inside a forced pooled
//! job: neither the panel count nor the runner count shows in the bits.
//! Matrices wide and dense enough to be swept in L2-sized column blocks
//! are bitwise the unblocked reference too, whichever blocks a row's
//! nonzeros fall in.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rayon::internals::run_pooled;
use rdm_dense::kernels::{with_mode, Mode, Width};
use rdm_dense::{with_share, Mat};
use rdm_sparse::{gcn_normalize_induced, spmm, spmm_masked, Coo, Csr, InduceScratch};
use std::sync::Mutex;

fn assert_bitwise(fast: &Mat, scalar: &Mat, label: &str) {
    assert_eq!(fast.shape(), scalar.shape(), "{label}: shape");
    for (i, (&f, &s)) in fast
        .as_slice()
        .iter()
        .zip(scalar.as_slice().iter())
        .enumerate()
    {
        assert_eq!(f.to_bits(), s.to_bits(), "{label}: element {i}: {f} vs {s}");
    }
}

/// RMAT-style power-law generator (a/b/c/d = .57/.19/.19/.05): the skew
/// concentrates nonzeros on hub rows, the regime the nnz-balanced panel
/// partition — and now the register-blocked traversal under it — must
/// survive.
fn rmat_csr(scale: u32, edges: usize, seed: u64) -> Csr {
    let n = 1usize << scale;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    for _ in 0..edges {
        let (mut r, mut c) = (0usize, 0usize);
        for _ in 0..scale {
            let p: f64 = rng.gen();
            let (dr, dc) = if p < 0.57 {
                (0, 0)
            } else if p < 0.76 {
                (0, 1)
            } else if p < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            r = (r << 1) | dr;
            c = (c << 1) | dc;
        }
        coo.push(r as u32, c as u32, rng.gen_range(-1.0..1.0));
    }
    coo.to_csr()
}

fn mask_for(a: &Csr, seed: u64) -> Vec<bool> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..a.nnz()).map(|_| rng.gen_bool(0.6)).collect()
}

/// The driver's seam at the active kernel width: masking no nonzero is
/// bitwise the dense kernel.
fn assert_seams(a: &Csr, b: &Mat, label: &str) {
    let all = spmm_masked(a, b, &vec![true; a.nnz()]);
    assert_bitwise(&all, &spmm(a, b), &format!("{label}: mask nothing"));
}

fn coo_strategy() -> impl Strategy<Value = Coo> {
    (1usize..24, 1usize..24).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows as u32, 0..cols as u32, -2.0f32..2.0f32);
        proptest::collection::vec(entry, 0..96).prop_map(move |entries| {
            let mut coo = Coo::new(rows, cols);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            coo
        })
    })
}

/// `(spmm, spmm_masked)` under the current thread's mode.
fn all_entry_points(a: &Csr, b: &Mat, mask: &[bool]) -> [Mat; 2] {
    [spmm(a, b), spmm_masked(a, b, mask)]
}

/// `f` at pool shares 1, 2 and 3 (3 is above a 2-core host's cores: tasks
/// are cut for three runners while only the pool's workers join), then
/// three copies at once inside one forced pooled job, on the caller and
/// two pool workers.
fn on_every_share<T: Send>(f: impl Fn() -> T + Sync) -> Vec<(String, T)> {
    let mut out: Vec<(String, T)> = [1, 2, 3]
        .map(|s| (format!("share {s}"), with_share(s, &f)))
        .into();
    let pooled = Mutex::new(Vec::new());
    run_pooled(3, 2, |i| {
        let got = f();
        pooled
            .lock()
            .unwrap()
            .push((format!("pooled copy {i}"), got));
    });
    out.extend(pooled.into_inner().unwrap());
    out
}

/// `a` without its cached panel partition, so the next SpMM cuts panels
/// for the calling thread's share.
fn uncut(a: &Csr) -> Csr {
    let (indptr, indices, vals) = (a.indptr().to_vec(), a.indices().to_vec(), a.vals().to_vec());
    Csr::from_parts(a.rows(), a.cols(), indptr, indices, vals)
}

/// Every width, at every share, against the scalar reference, both entry
/// points.
fn assert_all_widths_bitwise(a: &Csr, b: &Mat, seed: u64, label: &str) {
    let mask = mask_for(a, seed);
    let scalar = with_mode(Mode::Scalar, || all_entry_points(a, b, &mask));
    for width in Width::all() {
        with_mode(Mode::Fast(width), || {
            assert_seams(a, b, &format!("{width:?} {label}"))
        });
        let runs = on_every_share(|| {
            with_mode(Mode::Fast(width), || all_entry_points(&uncut(a), b, &mask))
        });
        for (share, fast) in &runs {
            for (name, (f, s)) in ["spmm", "masked"].iter().zip(fast.iter().zip(&scalar)) {
                assert_bitwise(f, s, &format!("{width:?} {share} {name} {label}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random CSRs, ragged feature widths: every fast width is bitwise the
    /// scalar reference — plain and masked.
    #[test]
    fn every_width_is_bitwise_scalar(coo in coo_strategy(), n in 1usize..40, seed in 0u64..1000) {
        let a = coo.to_csr();
        let b = Mat::random(a.cols(), n, 1.0, seed);
        with_mode(Mode::Scalar, || assert_seams(&a, &b, &format!("scalar n={n}")));
        assert_all_widths_bitwise(&a, &b, seed, &format!("n={n}"));
    }
}

#[test]
fn hub_heavy_rmat_every_width() {
    // Power-law skew at several feature widths, including n < W and
    // n % W != 0 (88 = 64 + 16 + 8 walks every strip width of the
    // 16-lane body): the register-blocked traversal must agree with scalar
    // under the exact panel partition spmm uses for skewed matrices.
    for (scale, edges, seed) in [(7u32, 1600usize, 3u64), (8, 4000, 4)] {
        let a = rmat_csr(scale, edges, seed);
        for n in [1usize, 3, 8, 17, 40, 88] {
            let b = Mat::random(a.cols(), n, 1.0, seed + n as u64);
            assert_all_widths_bitwise(&a, &b, seed + 7, &format!("rmat2^{scale} n={n}"));
        }
    }
}

/// Rows of `B` per column block of the fast SpMM at feature width `n`:
/// 1 MiB of `B` (`TILE` in `spmm.rs`).
fn block_rows(n: usize) -> usize {
    (1 << 20) / (4 * n)
}

/// A `rows × ⌈(nb − ½)·block⌉` matrix that the fast SpMM sweeps in `nb`
/// column blocks at feature width `n` (the last one ragged), with every
/// kind of row: empty (`r % 5 == 0`), nonzeros in the first block only
/// (`1`), in the last block only (`2`), and spread over all blocks —
/// 40 nonzeros a row, so the density guard (4 a row per block) passes.
fn blocked_csr(rows: usize, n: usize, nb: usize, seed: u64) -> Csr {
    let block = block_rows(n);
    let cols = nb * block - block / 2;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, cols);
    for r in 0..rows {
        let span = match r % 5 {
            0 => continue,
            1 => 0..block,
            2 => (nb - 1) * block..cols,
            _ => 0..cols,
        };
        for _ in 0..40 {
            coo.push(
                r as u32,
                rng.gen_range(span.clone()) as u32,
                rng.gen_range(-1.0..1.0),
            );
        }
    }
    coo.to_csr()
}

#[test]
fn blocked_spmm_is_bitwise_the_reference() {
    // Two and three column blocks at feature widths below, at and above
    // the 16-lane SpMM's 64, with lane tails; masked and unmasked, shares
    // 1, 2 and 3 and pooled, every width — and the same shapes with no
    // nonzero at all.
    for n in [8usize, 19, 64, 67] {
        for nb in [2usize, 3] {
            let a = blocked_csr(30, n, nb, (n * nb) as u64);
            assert!(a.nnz() >= 4 * nb * a.rows(), "n={n}: too sparse to block");
            let b = Mat::random(a.cols(), n, 1.0, n as u64);
            assert_all_widths_bitwise(&a, &b, 5, &format!("blocked nb={nb} n={n}"));
            let empty = Csr::empty(a.rows(), a.cols());
            assert_all_widths_bitwise(&empty, &b, 5, &format!("nnz=0 nb={nb} n={n}"));
        }
    }
}

#[test]
fn arena_reuse_never_serves_a_stale_segment_table() {
    // Three subgraphs of one 7 000-vertex graph — 5 000, 6 000, then a
    // different 5 000 vertices — induced into one reused matrix. Each is
    // swept in two column blocks at n = 64, so each SpMM needs its own
    // segment table: one left from the previous subgraph is too short, or
    // cuts rows at the previous rows' boundaries.
    let (v, n) = (7_000usize, 64);
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let mut coo = Coo::new(v, v);
    for r in 0..v as u32 {
        for _ in 0..40 {
            coo.push(r, rng.gen_range(0..v as u32), rng.gen_range(0.0..1.0));
        }
    }
    let g = coo.to_csr();
    let b = Mat::random(6_000, n, 1.0, 42);
    let keeps: Vec<Vec<u32>> = [(5_000, 0), (6_000, 1), (5_000, 2)]
        .iter()
        .map(|&(len, skip)| (0..v as u32).filter(|x| x % 7 != skip).take(len).collect())
        .collect();
    let (mut scratch, mut arena) = (InduceScratch::default(), Csr::empty(0, 0));
    for width in Width::all().into_iter().skip(1) {
        for keep in &keeps {
            gcn_normalize_induced(&g, keep, &mut scratch, &mut arena);
            let mut fresh = Csr::empty(0, 0);
            gcn_normalize_induced(&g, keep, &mut InduceScratch::default(), &mut fresh);
            let bk = b.row_block(0, keep.len());
            let label = format!("{width:?} {} vertices", keep.len());
            let [reused, want] =
                [&arena, &fresh].map(|a| with_mode(Mode::Fast(width), || spmm(a, &bk)));
            assert_bitwise(&reused, &want, &label);
        }
    }
}

#[test]
fn degenerate_shapes_every_width() {
    for width in Width::all() {
        with_mode(Mode::Fast(width), || {
            // Empty matrix, empty rows, single row, zero feature width.
            let b = Mat::random(5, 3, 1.0, 11);
            assert_eq!(spmm(&Csr::empty(0, 5), &b).shape(), (0, 3));
            assert_eq!(spmm(&Csr::empty(7, 5), &b).shape(), (7, 3));
            assert_eq!(spmm(&Csr::empty(7, 5), &Mat::zeros(5, 0)).shape(), (7, 0));
            assert_eq!(spmm_masked(&Csr::empty(0, 5), &b, &[]).shape(), (0, 3));
            assert_seams(&Csr::empty(7, 5), &b, &format!("{width:?} empty rows"));
            let zero_width = &Mat::zeros(5, 0);
            assert_seams(
                &Csr::empty(7, 5),
                zero_width,
                &format!("{width:?} zero width"),
            );
            let mut coo = Coo::new(1, 5);
            coo.push(0, 2, 1.5);
            coo.push(0, 4, -0.5);
            let single = coo.to_csr();
            let got = spmm(&single, &b);
            assert_eq!(got.shape(), (1, 3));
            let scalar = with_mode(Mode::Scalar, || spmm(&single, &b));
            assert_bitwise(&got, &scalar, &format!("{width:?} single row"));
            assert_seams(&single, &b, &format!("{width:?} single row"));
        });
    }
}

/// The literal scalar SpMM, kept here so no kernel rewrite touches it:
/// `C` starts at `+0.0` and every row adds its kept nonzeros' scaled `B`
/// rows in ascending order.
fn literal_spmm(a: &Csr, b: &Mat, mask: Option<&[bool]>) -> Vec<f32> {
    let n = b.cols();
    let mut c = vec![0.0f32; a.rows() * n];
    for r in 0..a.rows() {
        for p in a.indptr()[r]..a.indptr()[r + 1] {
            if mask.is_some_and(|m| !m[p]) {
                continue;
            }
            let (k, v) = (a.indices()[p] as usize, a.vals()[p]);
            for j in 0..n {
                c[r * n + j] += v * b.get(k, j);
            }
        }
    }
    c
}

/// Park NaN-filled buffers of the size class a `len`-element output is
/// served from on the calling thread's shelf, so a kernel that read its
/// fresh output before writing it would surface NaN.
fn poison_shelf(len: usize) {
    let bufs: Vec<Vec<f32>> = (0..4)
        .map(|_| {
            let mut v = rdm_dense::pool::take_empty(len);
            v.resize(v.capacity(), f32::NAN);
            v
        })
        .collect();
    bufs.into_iter().for_each(rdm_dense::pool::give);
}

#[test]
fn fresh_spmm_never_reads_stale_pool_memory() {
    // Every third row empty, plus `nnz = 0`; feature widths with `n % W`
    // tails. At the widest `n` the
    // output is large enough for share 2 to split it across pool workers.
    let mut coo = Coo::new(150, 20);
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    for r in (0..150u32).filter(|r| r % 3 != 1) {
        for c in 0..20u32 {
            if rng.gen_bool(0.3) {
                coo.push(r, c, rng.gen_range(-1.0..1.0));
            }
        }
    }
    // Plus matrices swept in two and three column blocks (a later block
    // loads what block 0 stored, so block 0 must store every row).
    let shapes = [
        (coo.to_csr(), vec![1usize, 3, 5, 8, 13, 33, 40]),
        (Csr::empty(150, 20), vec![1, 3, 5, 8, 13, 33, 40]),
        (blocked_csr(30, 64, 2, 33), vec![64]),
        (blocked_csr(30, 19, 3, 34), vec![19]),
    ];
    let modes = std::iter::once(Mode::Scalar).chain(Width::all().map(Mode::Fast));
    for mode in modes {
        for (ai, (a, widths)) in shapes.iter().enumerate() {
            let mask = mask_for(a, 32);
            for &n in widths {
                let b = Mat::random(a.cols(), n, 1.0, n as u64);
                let len = a.rows() * n;
                for share in [1, 2] {
                    let label = format!("{mode:?} matrix {ai} n={n} share {share}");
                    let run = |f: &dyn Fn() -> Mat| {
                        poison_shelf(len);
                        with_share(share, || with_mode(mode, f))
                    };
                    let check = |got: Mat, want: Vec<f32>, what: &str| {
                        assert_bitwise(
                            &got,
                            &Mat::from_vec(a.rows(), n, want),
                            &format!("{label} {what}"),
                        );
                    };
                    check(
                        run(&|| spmm(&uncut(a), &b)),
                        literal_spmm(a, &b, None),
                        "spmm",
                    );
                    check(
                        run(&|| spmm_masked(&uncut(a), &b, &mask)),
                        literal_spmm(a, &b, Some(&mask)),
                        "masked",
                    );
                }
            }
        }
    }
}
