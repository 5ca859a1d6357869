//! Kernel-path selection: lane-unrolled fast kernels vs the scalar oracle.
//!
//! Every GEMM variant in [`mod@crate::gemm`] (and the SpMM kernels in
//! `rdm-sparse`) exists in two implementations:
//!
//! * **Fast** — portable, lane-unrolled register-tile kernels with a fixed
//!   width `W ∈ {1, 4, 8, 16}`; [`default_mode`] picks the widest width this
//!   host profits from, and that is what every thread runs unless told
//!   otherwise. The mode's width is a *ceiling*: each call runs at the
//!   width [`call_mode`] picks for its output width `n`, so a 16-lane mode
//!   drops to 8 lanes where `n` cannot fill a 16-lane register block.
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
//! Each fast body is compiled more than once from the same inlined code
//! and picked at runtime by the host's [`Isa`] level (see
//! [`Isa::for_lanes`]): 16-lane bodies for AVX-512 where the host has it,
//! every other body for AVX2. The compilations differ in instruction
//! selection only — plain mul-then-add is never contracted to FMA — so
//! the host changes speed, never bits.
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
    /// Sixteen lanes (512-bit vectors: AVX-512).
    W16,
}

impl Width {
    /// Number of `f32` lanes.
    pub fn lanes(self) -> usize {
        match self {
            Width::W1 => 1,
            Width::W4 => 4,
            Width::W8 => 8,
            Width::W16 => 16,
        }
    }

    /// All widths, for exhaustive differential sweeps.
    pub fn all() -> [Width; 4] {
        [Width::W1, Width::W4, Width::W8, Width::W16]
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

/// Pick the widest profitable lane width for this host: 512-bit vectors
/// where AVX-512 is available, 256-bit where AVX is, 128-bit otherwise.
pub fn detect_width() -> Width {
    #[cfg(target_arch = "x86_64")]
    {
        if isa() == Isa::Avx512 {
            return Width::W16;
        }
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

/// The instruction-set level the fast kernel bodies can be compiled for on
/// the running CPU. Every level runs the *same* inlined body (plain
/// mul-then-add, never contracted to FMA), so which compilation runs is
/// invisible in the output bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The crate's baseline target.
    Baseline,
    /// `#[target_feature(enable = "avx2")]`.
    Avx2,
    /// `#[target_feature(enable = "avx512f")]` (the CPU also has AVX2).
    Avx512,
}

impl Isa {
    /// The compilation a `lanes`-wide body runs on a CPU at this level:
    /// AVX-512 for 16-lane bodies only, AVX2 for every other. An 8-lane
    /// SpMM body compiled for AVX-512 measured slower than its AVX2
    /// compile (2.44 → 2.75 ms at `n = 8`, Sapphire Rapids), so narrower
    /// bodies never take the AVX-512 compile.
    #[inline]
    pub fn for_lanes(self, lanes: usize) -> Isa {
        if lanes >= 16 {
            self
        } else {
            self.min(Isa::Avx2)
        }
    }
}

/// The running CPU's [`Isa`] level.
#[inline]
pub fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if !is_x86_feature_detected!("avx2") {
            Isa::Baseline
        } else if is_x86_feature_detected!("avx512f") {
            Isa::Avx512
        } else {
            Isa::Avx2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Isa::Baseline
    }
}

/// `W`-wide column strips an SpMM pass holds in registers together (the
/// SpMM body's `SB`): each nonzero's column decode is amortized over them.
pub const SPMM_STRIPS: usize = 4;

/// The kernel families, by how wide an output a 16-lane body needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// GEMM tiles: 16 lanes from `n ≥ 16`, one full register block.
    Gemm,
    /// SpMM strips: 16 lanes from `n ≥ SPMM_STRIPS · 16 = 64`, one full
    /// pass. Below that a 16-lane body runs `n / 16` passes of one
    /// register each where the 8-lane body runs one pass of `n / 8`
    /// independent accumulators; that raised `serve-induced` (`n = 32`)
    /// from 34.3 to 40.5 ms per step when every call ran the mode's W16.
    Spmm,
}

impl Kernel {
    /// The narrowest output a 16-lane body of this kernel runs on.
    fn w16_min_cols(self) -> usize {
        match self {
            Kernel::Gemm => 16,
            Kernel::Spmm => SPMM_STRIPS * 16,
        }
    }
}

/// The mode one `kernel` call with an `n`-column output runs: the calling
/// thread's mode, except that a 16-lane mode runs at 8 lanes where `n` is
/// too narrow for the 16-lane body (see [`Kernel`]). The kernels dispatch
/// on it and their trace spans report its width, so a span names the width
/// that ran. Bits never depend on it.
pub fn call_mode(kernel: Kernel, n: usize) -> Mode {
    match mode() {
        Mode::Fast(Width::W16) if n < kernel.w16_min_cols() => Mode::Fast(Width::W8),
        m => m,
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
            with_mode(Mode::Fast(Width::W4), || {
                assert_eq!(mode(), Mode::Fast(Width::W4));
            });
            assert_eq!(mode(), Mode::Fast(Width::W8));
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
            [1, 4, 8, 16],
            "forced-width sweep must cover every kernel instantiation"
        );
        assert_eq!(Mode::Scalar.width(), 1);
        assert!(Mode::Fast(detect_width()).width() >= 4);
    }

    #[test]
    fn each_call_runs_the_widest_width_its_n_fills() {
        let at = |mode, kernel, n| with_mode(mode, || call_mode(kernel, n));
        let w16 = Mode::Fast(Width::W16);
        for (kernel, min) in [(Kernel::Gemm, 16), (Kernel::Spmm, 64)] {
            assert_eq!(at(w16, kernel, min), w16);
            assert_eq!(at(w16, kernel, min - 1), Mode::Fast(Width::W8));
            assert_eq!(at(w16, kernel, 1), Mode::Fast(Width::W8));
            // Narrower modes and the oracle are never changed.
            for mode in [Mode::Scalar, Mode::Fast(Width::W1), Mode::Fast(Width::W4)] {
                assert_eq!(at(mode, kernel, 1), mode);
                assert_eq!(at(mode, kernel, 256), mode);
            }
            assert_eq!(
                at(Mode::Fast(Width::W8), kernel, 256),
                Mode::Fast(Width::W8)
            );
        }
    }

    #[test]
    fn only_sixteen_lane_bodies_take_the_avx512_compile() {
        assert_eq!(Isa::Avx512.for_lanes(16), Isa::Avx512);
        for lanes in [1, 4, 8] {
            assert_eq!(Isa::Avx512.for_lanes(lanes), Isa::Avx2);
            assert_eq!(Isa::Avx2.for_lanes(lanes), Isa::Avx2);
            assert_eq!(Isa::Baseline.for_lanes(lanes), Isa::Baseline);
        }
        assert_eq!(Isa::Avx2.for_lanes(16), Isa::Avx2);
        assert_eq!(Isa::Baseline.for_lanes(16), Isa::Baseline);
        assert_eq!(detect_width() == Width::W16, isa() == Isa::Avx512);
    }
}
