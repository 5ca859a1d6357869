//! Kernel-path selection: lane-unrolled fast kernels vs the scalar oracle.
//!
//! Every GEMM variant in [`mod@crate::gemm`] (and the SpMM kernels in
//! `rdm-sparse`) exists in two implementations:
//!
//! * **Fast** — portable, lane-unrolled register-tile kernels with a fixed
//!   width `W ∈ {1, 4, 8}`; [`default_mode`] picks the widest width this
//!   host profits from, and that is what every thread runs unless told
//!   otherwise.
//! * **Scalar** — the canonical loops every equivalence golden in the repo
//!   was recorded with, kept as the oracle the differential suites force
//!   with [`with_mode`] (and `--reference-kernels` selects).
//!
//! The two are **bitwise identical on finite inputs at every width**: the
//! fast kernels reorder which output elements are computed together, never
//! the order in which one element's terms are added (always `k`, or
//! nonzero, ascending, starting from the value already in `C`), and never
//! contract mul-then-add to FMA. Bits therefore depend on neither the
//! width, nor the host, nor the pool size. The one divergence is the
//! scalar `gemm` / `gemm_tn` loops' `a == 0` skip: the fast tiles add the
//! `0·b` term the reference drops, which shows only where that term is not
//! absorbed — `b` non-finite (`0·∞ = NaN`), or a `−0.0` already in the
//! `C` of an accumulating form that receives nothing but skipped terms
//! (`−0 + 0 = +0`). Neither arises in training or serving; one unit test
//! in `gemm.rs` pins both so the gap cannot widen silently.
//!
//! The selection is a *thread-local* [`Mode`]. Engine entry points
//! (`train_gcn`, `serve`) set the mode at the top of each rank closure;
//! kernel entry points read the mode **on the calling thread** and capture
//! it by value before any parallel dispatch, so worker-pool threads never
//! consult their own thread-local.

use std::cell::Cell;

/// Lane width of the fast kernels' accumulator blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// One lane: the fast dispatcher delegates to the scalar kernel.
    W1,
    /// Four lanes (128-bit vectors: SSE2 / NEON).
    W4,
    /// Eight lanes (256-bit vectors: AVX/AVX2).
    W8,
}

impl Width {
    /// Number of `f32` lanes.
    pub fn lanes(self) -> usize {
        match self {
            Width::W1 => 1,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }

    /// All widths, for exhaustive differential sweeps.
    pub fn all() -> [Width; 3] {
        [Width::W1, Width::W4, Width::W8]
    }
}

/// Which kernel implementation the current thread dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Canonical scalar kernels — the reference the suites diff against.
    Scalar,
    /// Lane-unrolled fast kernels at a fixed width — bitwise the reference
    /// on finite inputs (see the module docs).
    Fast(Width),
}

impl Mode {
    /// Effective lane width: 1 for the scalar path.
    pub fn width(self) -> usize {
        match self {
            Mode::Scalar => 1,
            Mode::Fast(w) => w.lanes(),
        }
    }
}

thread_local! {
    static MODE: Cell<Mode> = Cell::new(default_mode());
}

/// The mode every thread starts in and both engine configs default to:
/// the fast kernels at this host's widest profitable width.
pub fn default_mode() -> Mode {
    Mode::Fast(detect_width())
}

/// Pick the widest profitable lane width for this host. Portable
/// heuristic: 256-bit vectors where AVX is available, 128-bit otherwise.
pub fn detect_width() -> Width {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") || is_x86_feature_detected!("avx") {
            return Width::W8;
        }
        Width::W4
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Width::W4
    }
}

/// Whether the running CPU can execute the AVX2-specialized compilation
/// of the fast kernel bodies. The specialization changes instruction
/// selection only — both compilations inline the *same* body (plain
/// mul-then-add, never contracted to FMA), so which one runs is invisible
/// in the output bits.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Set the calling thread's kernel mode. Engine rank closures call this
/// once at spawn; prefer [`with_mode`] in tests so the previous mode is
/// restored on exit.
pub fn set_mode(mode: Mode) {
    MODE.with(|m| m.set(mode));
}

/// The calling thread's kernel mode.
pub fn mode() -> Mode {
    MODE.with(|m| m.get())
}

/// Lane width the calling thread's kernels run at (1 for scalar).
pub fn active_width() -> usize {
    mode().width()
}

/// Run `f` with the kernel mode forced to `mode`, restoring the previous
/// mode afterwards (also on panic). This is the hook the differential
/// suites use to run the scalar oracle, or every lane width, on any host.
pub fn with_mode<R>(mode: Mode, f: impl FnOnce() -> R) -> R {
    struct Restore(Mode);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_mode(self.0);
        }
    }
    let _restore = Restore(self::mode());
    set_mode(mode);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_threads_start_in_the_fast_default() {
        std::thread::spawn(|| {
            assert_eq!(mode(), Mode::Fast(detect_width()));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn with_mode_scopes_and_restores() {
        let before = mode();
        with_mode(Mode::Fast(Width::W8), || {
            assert_eq!(mode(), Mode::Fast(Width::W8));
            assert_eq!(active_width(), 8);
            with_mode(Mode::Fast(Width::W4), || {
                assert_eq!(active_width(), 4);
            });
            assert_eq!(active_width(), 8);
        });
        assert_eq!(mode(), before);
    }

    #[test]
    fn with_mode_restores_on_panic() {
        let res = std::panic::catch_unwind(|| {
            with_mode(Mode::Scalar, || panic!("boom"));
        });
        assert!(res.is_err());
        assert_eq!(mode(), default_mode());
    }

    #[test]
    fn widths_enumerate_lanes() {
        assert_eq!(
            Width::all().map(Width::lanes),
            [1, 4, 8],
            "forced-width sweep must cover every kernel instantiation"
        );
        assert_eq!(Mode::Scalar.width(), 1);
        assert!(Mode::Fast(detect_width()).width() >= 4);
    }
}
