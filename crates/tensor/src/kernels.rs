//! Explicit SIMD kernels with runtime dispatch for the hot loops.
//!
//! Everything above this module (fused encode, tape backward, serving)
//! funnels its FLOPs through `matmul`, `matvec`, `segment_sum`'s row
//! accumulation and the two gate activations, `sigmoid` and `tanh`.
//! This module provides three interchangeable backends for those loops
//! and resolves which one runs **once**, at first use:
//!
//! * [`KernelBackend::Scalar`] — the blocked, IEEE-strict reference
//!   kernels (plain `mul` + `add`, k-ascending accumulation). Portable
//!   to every target; this is the semantics the test suite pins
//!   bit-for-bit against naive triple loops.
//! * [`KernelBackend::Avx2`] — x86_64 AVX2+FMA kernels built on
//!   `std::arch` intrinsics, selected only when
//!   `is_x86_feature_detected!` confirms both features at runtime.
//! * [`KernelBackend::Avx512`] — the AVX2 backend with its matmul tile
//!   replaced by a 512-bit one (6-row × 64-column blocks, `__mmask16`
//!   column tail), selected when the host also has AVX-512F. `matvec`
//!   and `seg_accum` are the AVX2 backend's functions.
//!
//! Each backend has **one** matmul body, generic over `A`'s two strides:
//! `matmul` (`A·B`) reads `A` `[m, k]` at `(k, 1)`, `matmul_tn` (`Aᵀ·B`)
//! reads `A` stored `[k, m]` at `(1, m)`, so the training backward's
//! weight gradients `Gᵀ·A` never materialise `Gᵀ`.
//!
//! No nightly features, no new dependencies.
//!
//! # Numerical contract
//!
//! The repo pins two bitwise invariants that SIMD must not break:
//! `matvec ≡ matmul` on the same data, and fused batched encode ≡
//! sequential per-node encode. Both hold because **within a backend**
//! every output element is the same k-ascending accumulation chain:
//!
//! * scalar: `acc ← acc + a·b` (two roundings per term) — unchanged
//!   from the pre-dispatch kernel, still the portable reference;
//! * avx2, avx512: `acc ← fma(a, b, acc)` (one rounding per term),
//!   whether the element was computed in a lane of a full or masked
//!   matmul tile of either width, by `matmul` or `matmul_tn`, or in
//!   matvec's scalar chain —
//!   `f32::mul_add` guarantees fused semantics, so vector lanes and
//!   scalar chains agree bit-for-bit, and **`avx512 ≡ avx2` bit for
//!   bit** on every shape.
//!
//! Between scalar and the FMA backends matmul results differ in final
//! ulps (FMA rounds once), so those comparisons get the same ≤1e-5
//! tolerance the fused encode parity tests already use. No backend
//! zero-skips: `0 · NaN` and `0 · ∞` produce NaN on every path
//! (IEEE-754), which the PR 4 regression suite checks against each
//! backend here.
//!
//! `sigmoid` and `tanh` are **bit-identical on all three backends**:
//! one body each over one polynomial [`exp`], written in plain
//! `mul`/`add`/`sub`/`div` (no FMA, nothing libm) and compiled three
//! times — at the baseline, under `avx2` and under `avx512f` — so the
//! backends differ only in how many lanes the compiler puts side by
//! side. Both stay within 2e-7 of the exact value.
//!
//! # Dispatch
//!
//! [`active`] resolves the backend once into a `&'static` [`Kernels`]
//! (a struct of function pointers) behind a [`OnceLock`]:
//!
//! | `CCSA_KERNEL`    | resolved backend                                       |
//! |------------------|--------------------------------------------------------|
//! | unset or empty   | `avx512` if the CPU has AVX-512F (and AVX2+FMA), else `avx2` if it has AVX2+FMA, else `scalar` |
//! | `scalar`         | `scalar` (forced; bit-exactness debugging, CI)         |
//! | `avx2`           | `avx2`, or an error if the CPU lacks AVX2+FMA          |
//! | `avx512`         | `avx512`, or an error if the CPU lacks AVX-512F        |
//! | anything else    | an error naming the value and the detected features    |
//!
//! The override is strict: [`active`] panics with that error, and the
//! `serve`, `gateway` and `fleet` binaries call it before they bind a
//! socket, so a bad value never yields a half-started process. Tests
//! that need *several* backends in one process bypass the environment
//! and ask [`kernels_for`] directly.

use std::fmt;
use std::sync::OnceLock;

/// Which kernel implementation a [`Kernels`] table contains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelBackend {
    /// Blocked scalar loops: portable, IEEE-strict `mul`+`add` reference.
    Scalar,
    /// x86_64 AVX2+FMA intrinsics (single-rounding fused accumulate).
    Avx2,
    /// [`KernelBackend::Avx2`] with 512-bit matmul tiles (AVX-512F);
    /// bit-identical to it.
    Avx512,
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        })
    }
}

/// `out[i*n+j] = Σ_k a[i*k+kk]·b[kk*n+j]` (`matmul`), or
/// `Σ_k a[kk*m+i]·b[kk*n+j]` for `a` stored `[k, m]` (`matmul_tn`);
/// every element of `out`'s `m·n` is overwritten, so it need not arrive
/// zeroed.
pub type MatmulFn = fn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);
/// `out[i] = Σ_k a[i*k+kk]·x[kk]`; `out` arrives zeroed.
pub type MatvecFn = fn(a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize);
/// `dst[j] += src[j]` elementwise (`segment_sum` row accumulation).
pub type SegAccumFn = fn(dst: &mut [f32], src: &[f32]);
/// `dst[j] = f(src[j])` elementwise; the slices have one length.
pub type ActivationFn = fn(src: &[f32], dst: &mut [f32]);

/// A resolved table of kernel function pointers.
///
/// Obtained from [`active`] (the process-wide dispatched table) or
/// [`kernels_for`] (a specific backend, for tests).
pub struct Kernels {
    /// The backend these pointers implement.
    pub backend: KernelBackend,
    /// Matrix–matrix product kernel, `A·B`.
    pub matmul: MatmulFn,
    /// Transposed-left product kernel, `Aᵀ·B` for `a` stored `[k, m]`:
    /// per element the k-ascending chain of `matmul` on a materialised
    /// `Aᵀ`, so the two agree bit for bit.
    pub matmul_tn: MatmulFn,
    /// Matrix–vector product kernel.
    pub matvec: MatvecFn,
    /// Row-accumulation kernel (`dst += src`).
    pub seg_accum: SegAccumFn,
    /// Logistic sigmoid, `1 / (1 + e^{-x})`.
    pub sigmoid: ActivationFn,
    /// Hyperbolic tangent.
    pub tanh: ActivationFn,
}

static SCALAR: Kernels = Kernels {
    backend: KernelBackend::Scalar,
    matmul: scalar_matmul,
    matmul_tn: scalar_matmul_tn,
    matvec: scalar_matvec,
    seg_accum: scalar_seg_accum,
    sigmoid: sigmoid_body,
    tanh: tanh_body,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    backend: KernelBackend::Avx2,
    matmul: avx2::matmul,
    matmul_tn: avx2::matmul_tn,
    matvec: avx2::matvec,
    seg_accum: avx2::seg_accum,
    sigmoid: avx2::sigmoid,
    tanh: avx2::tanh,
};

#[cfg(target_arch = "x86_64")]
static AVX512: Kernels = Kernels {
    backend: KernelBackend::Avx512,
    matmul: avx512::matmul,
    matmul_tn: avx512::matmul_tn,
    matvec: avx2::matvec,
    seg_accum: avx2::seg_accum,
    sigmoid: avx512::sigmoid,
    tanh: avx512::tanh,
};

/// `true` when the running CPU supports the AVX2+FMA backend.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` when the running CPU supports the AVX-512 backend: AVX-512F
/// for the tiles, AVX2+FMA for the kernels it shares with `avx2`.
fn avx512_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_supported() && is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel table for a specific backend, if the host supports it.
///
/// Returns `None` for [`KernelBackend::Avx2`] on hosts without
/// AVX2+FMA and for [`KernelBackend::Avx512`] on hosts without
/// AVX-512F (including non-x86_64 targets). Used by tests to exercise
/// every backend in one process regardless of the `CCSA_KERNEL`
/// override.
pub fn kernels_for(backend: KernelBackend) -> Option<&'static Kernels> {
    match backend {
        KernelBackend::Scalar => Some(&SCALAR),
        KernelBackend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_supported() {
                return Some(&AVX2);
            }
            None
        }
        KernelBackend::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            if avx512_supported() {
                return Some(&AVX512);
            }
            None
        }
    }
}

/// The table for `CCSA_KERNEL`'s value: the widest backend the host
/// has when unset or empty, exactly the named one otherwise. An unknown
/// name, or a backend the host lacks, is an error that names the value
/// and what was detected — never a silent fall-back.
fn resolve(requested: Option<&str>) -> Result<&'static Kernels, String> {
    let detected = || {
        format!(
            "this host has avx2+fma: {}, avx512f: {}",
            avx2_supported(),
            avx512_supported()
        )
    };
    let backend = match requested.map(str::trim) {
        None | Some("") => {
            return Ok([KernelBackend::Avx512, KernelBackend::Avx2]
                .into_iter()
                .find_map(kernels_for)
                .unwrap_or(&SCALAR));
        }
        Some("scalar") => KernelBackend::Scalar,
        Some("avx2") => KernelBackend::Avx2,
        Some("avx512") => KernelBackend::Avx512,
        Some(other) => {
            return Err(format!(
                "CCSA_KERNEL='{other}' is not one of scalar|avx2|avx512 ({})",
                detected()
            ));
        }
    };
    kernels_for(backend).ok_or_else(|| {
        format!(
            "CCSA_KERNEL={backend} but the CPU lacks that backend ({})",
            detected()
        )
    })
}

/// The process-wide kernel table, resolved once at first use.
///
/// Honors the `CCSA_KERNEL=scalar|avx2|avx512` environment override
/// (read exactly once — changing the variable after the first kernel
/// call has no effect; use [`kernels_for`] for in-process A/B).
///
/// # Panics
///
/// Panics, naming the value and the detected CPU features, if
/// `CCSA_KERNEL` is set to anything else or to a backend this host
/// lacks. Binaries call this before they bind a socket.
pub fn active() -> &'static Kernels {
    static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let requested = std::env::var_os("CCSA_KERNEL").map(|v| v.to_string_lossy().into_owned());
        resolve(requested.as_deref()).unwrap_or_else(|e| panic!("[ccsa-tensor] {e}"))
    })
}

// ---------------------------------------------------------------------------
// Scalar backend: the blocked, IEEE-strict reference kernels.
// ---------------------------------------------------------------------------

/// `A·B`: [`scalar_strided`] reading `a` `[m, k]` along its rows.
fn scalar_matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    scalar_strided(a, (k, 1), b, out, m, k, n);
}

/// `Aᵀ·B`: [`scalar_strided`] reading `a` stored `[k, m]` down its
/// columns.
fn scalar_matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    scalar_strided(a, (1, m), b, out, m, k, n);
}

/// Blocked i-k-j kernel over `A`'s element `(i, kk)` at `i·rs + kk·ks`
/// (`sa = (rs, ks)`): output rows are processed in chunks of four so
/// every streamed `b` row is reused by four accumulator rows while it
/// is hot, and the j loop is 4-unrolled to keep independent multiply
/// chains in flight. Accumulation over k stays ascending per output
/// element, so results are bit-identical to [`scalar_matvec`]'s dot
/// products whatever the strides — and there is deliberately no
/// zero-skip: `0 · NaN` and `0 · ∞` must produce NaN (IEEE-754), not
/// silently vanish.
fn scalar_strided(
    a: &[f32],
    (rs, ks): (usize, usize),
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // The chains below accumulate into `out`, which may hold anything.
    out[..m * n].fill(0.0);
    let mut i = 0;
    while i + 4 <= m {
        let (r01, r23) = out[i * n..(i + 4) * n].split_at_mut(2 * n);
        let (r0, r1) = r01.split_at_mut(n);
        let (r2, r3) = r23.split_at_mut(n);
        for kk in 0..k {
            let a0 = a[i * rs + kk * ks];
            let a1 = a[(i + 1) * rs + kk * ks];
            let a2 = a[(i + 2) * rs + kk * ks];
            let a3 = a[(i + 3) * rs + kk * ks];
            let brow = &b[kk * n..(kk + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let (b0, b1, b2, b3) = (brow[j], brow[j + 1], brow[j + 2], brow[j + 3]);
                r0[j] += a0 * b0;
                r0[j + 1] += a0 * b1;
                r0[j + 2] += a0 * b2;
                r0[j + 3] += a0 * b3;
                r1[j] += a1 * b0;
                r1[j + 1] += a1 * b1;
                r1[j + 2] += a1 * b2;
                r1[j + 3] += a1 * b3;
                r2[j] += a2 * b0;
                r2[j + 1] += a2 * b1;
                r2[j + 2] += a2 * b2;
                r2[j + 3] += a2 * b3;
                r3[j] += a3 * b0;
                r3[j + 1] += a3 * b1;
                r3[j + 2] += a3 * b2;
                r3[j + 3] += a3 * b3;
                j += 4;
            }
            while j < n {
                let bv = brow[j];
                r0[j] += a0 * bv;
                r1[j] += a1 * bv;
                r2[j] += a2 * bv;
                r3[j] += a3 * bv;
                j += 1;
            }
        }
        i += 4;
    }
    // Remainder rows (m not a multiple of 4): single-row unrolled axpy.
    while i < m {
        let orow = &mut out[i * n..(i + 1) * n];
        for kk in 0..k {
            axpy_unrolled(orow, a[i * rs + kk * ks], &b[kk * n..(kk + 1) * n]);
        }
        i += 1;
    }
}

/// `dst[j] += a * src[j]`, 4-unrolled over column chunks (remainder
/// handled elementwise). The k-ascending call order in [`scalar_strided`]
/// keeps per-element accumulation identical to [`scalar_matvec`].
#[inline(always)]
fn axpy_unrolled(dst: &mut [f32], a: f32, src: &[f32]) {
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dd, ss) in d.by_ref().zip(s.by_ref()) {
        dd[0] += a * ss[0];
        dd[1] += a * ss[1];
        dd[2] += a * ss[2];
        dd[3] += a * ss[3];
    }
    for (dd, &sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dd += a * sv;
    }
}

/// Per-row k-ascending dot products — the same accumulation order and
/// rounding (`mul` then `add`) as [`scalar_strided`], hence bit-equal.
fn scalar_matvec(a: &[f32], x: &[f32], out: &mut [f32], _m: usize, k: usize) {
    if k == 0 {
        return;
    }
    for (o, row) in out.iter_mut().zip(a.chunks_exact(k)) {
        *o = row.iter().zip(x.iter()).map(|(&av, &xv)| av * xv).sum();
    }
}

/// `dst += src`, elementwise, in index order.
fn scalar_seg_accum(dst: &mut [f32], src: &[f32]) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o += v;
    }
}

// ---------------------------------------------------------------------------
// Activations: one polynomial `exp` under sigmoid and tanh, one body each.
// ---------------------------------------------------------------------------

/// `e^x` after Cephes `expf`, within 2 ulp on `[-87, 88]`; arguments
/// outside are clamped to the ends (both callers saturate long before),
/// NaN stays NaN.
///
/// Every step is one IEEE `mul`/`add`/`sub` or integer op that exists
/// lane-wise at every vector width — no `mul_add` (a libm call outside
/// an FMA function, a different rounding inside one), no `floor`, no
/// saturating `as i32` — so a loop over this vectorises under any
/// target feature and gives the same bits as the scalar loop.
#[inline(always)]
fn exp(x: f32) -> f32 {
    // `1.5·2²³`: adding it leaves `round(v)` in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    // `ln 2` in two pieces; `n·LN2_HI` is exact for |n| < 2¹⁵.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Clamp by comparison, not `clamp`/`min`/`max`: those drop a NaN.
    let x = if x > 88.0 { 88.0 } else { x };
    let x = if x < -87.0 { -87.0 } else { x };
    let shifted = x * std::f32::consts::LOG2_E + ROUND;
    let n = shifted - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = ((((1.987_569_1e-4 * r + 1.398_2e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 1.666_666_5e-1)
        * r
        + 5.0e-1;
    let y = p * (r * r) + r + 1.0;
    // 2ⁿ built in the exponent field: `ROUND`'s own low nine bits are
    // zero, so after the shift only n + 127 ∈ [1, 254] is left.
    y * f32::from_bits(shifted.to_bits().wrapping_add(127) << 23)
}

/// `dst = 1 / (1 + e^{-src})`, within 2e-7 of exact; `σ(+∞) = 1`,
/// `σ(−∞)` ≈ 6e-39, NaN stays NaN. The scalar backend's table entry,
/// and the one body the vector backends compile under their features.
#[inline(always)]
fn sigmoid_body(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "activation slices differ in length");
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = 1.0 / (1.0 + exp(-x));
    }
}

/// `dst = tanh(src)` at a third of the cost of libm's `tanhf` (a
/// tree-LSTM cell takes two per hidden unit per node). The Cephes
/// `tanhf` split — an odd polynomial below 0.625, `1 − 2/(e^{2|x|} + 1)`
/// above — evaluated on `|x|` with the sign copied back, so it is odd
/// to the bit and keeps `−0`. Both sides are computed and one selected,
/// which keeps the loop branch-free for the vectoriser. Within 2e-7 of
/// exact everywhere; NaN stays NaN, and the formula saturates to ±1
/// (from |x| ≈ 9) by itself. Table entry and shared body as
/// [`sigmoid_body`].
#[inline(always)]
fn tanh_body(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "activation slices differ in length");
    for (d, &x) in dst.iter_mut().zip(src) {
        let a = x.abs();
        let z = a * a;
        let p = ((((-5.704_988_7e-3 * z + 2.063_908_8e-2) * z - 5.373_971_5e-2) * z
            + 1.333_144_2e-1)
            * z
            - 3.333_328e-1)
            * z;
        let small = a + a * p;
        let large = 1.0 - 2.0 / (exp(a + a) + 1.0);
        let y = if a < 0.625 { small } else { large };
        *d = y.copysign(x);
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA backend.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    // Safe shims: the `Kernels` table for this module is only handed out
    // after `is_x86_feature_detected!("avx2")` && `("fma")`, so the
    // target-feature contract of the inner functions is always met.

    pub(super) fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        strided(a, (k, 1), b, out, m, k, n);
    }

    pub(super) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        strided(a, (1, m), b, out, m, k, n);
    }

    /// Both matmul entries: `a`'s element `(i, kk)` at `i·rs + kk·ks`.
    fn strided(
        a: &[f32],
        sa: (usize, usize),
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(super::avx2_supported());
        // The tiles below index through raw pointers; `MatmulFn` is a
        // safe signature, so the extents are checked here, once per call.
        assert!(
            a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
            "matmul slices shorter than [{m},{k}]·[{k},{n}]"
        );
        // SAFETY: this table entry is only installed after runtime
        // avx2+fma detection; the slices cover m×k, k×n and m×n, and
        // both callers' strides keep every (i, kk) inside a's m·k.
        unsafe { matmul_fma(a, sa, b, out, m, k, n) }
    }

    pub(super) fn matvec(a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize) {
        debug_assert!(super::avx2_supported());
        // SAFETY: as above — table installed only after avx2+fma
        // detection.
        unsafe { matvec_fma(a, x, out, m, k) }
    }

    pub(super) fn seg_accum(dst: &mut [f32], src: &[f32]) {
        debug_assert!(super::avx2_supported());
        // SAFETY: as above — table installed only after avx2+fma
        // detection.
        unsafe { seg_accum_avx2(dst, src) }
    }

    pub(super) fn sigmoid(src: &[f32], dst: &mut [f32]) {
        debug_assert!(super::avx2_supported());
        // SAFETY: as above — table installed only after avx2+fma
        // detection.
        unsafe { eight_wide(super::sigmoid_body, src, dst) }
    }

    pub(super) fn tanh(src: &[f32], dst: &mut [f32]) {
        debug_assert!(super::avx2_supported());
        // SAFETY: as above — table installed only after avx2+fma
        // detection.
        unsafe { eight_wide(super::tanh_body, src, dst) }
    }

    /// An activation body (`#[inline(always)]`, so it is compiled into
    /// this function once per body) vectorised eight lanes wide.
    ///
    /// SAFETY contract: caller verified avx2 at runtime (the safe shims
    /// above are the only callers); the body is safe code.
    #[target_feature(enable = "avx2")]
    unsafe fn eight_wide(body: impl Fn(&[f32], &mut [f32]), src: &[f32], dst: &mut [f32]) {
        body(src, dst)
    }

    /// Register-tiled FMA kernel. Full 4-row blocks run 4×16 tiles; the
    /// last `m % 4` rows run together as one block whose tiles widen as
    /// the rows thin out (3×16, 2×32, 1×64), so a one-row level still
    /// keeps eight independent accumulator chains in flight instead of
    /// waiting out the FMA latency on one. `A` is read at the strides
    /// `sa = (rs, ks)`, so `A·B` and `Aᵀ·B` run the same tiles. Every
    /// output element — full tile or masked column tail — is a
    /// k-ascending single-rounding FMA chain from zero, so the whole
    /// matrix agrees bit-for-bit with [`matvec_fma`] and with a naive
    /// `f32::mul_add` triple loop, whatever `m`, `n` and the strides are.
    ///
    /// SAFETY contract: caller verified avx2+fma at runtime, sized
    /// `b: k×n` and `out: m×n`, and chose strides that keep every
    /// `i·rs + kk·ks` (i < m, kk < k) inside `a` (the safe shim above is
    /// the only caller).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_fma(
        a: &[f32],
        sa: (usize, usize),
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + 4 <= m {
            // SAFETY: rows i..i+4 lie inside a's and out's m rows.
            unsafe { row_block::<4, 2>(ap.add(i * sa.0), sa, bp, op.add(i * n), k, n) };
            i += 4;
        }
        // SAFETY: rows i..m are the last m - i rows of a and out, and the
        // arm taken has exactly that many rows.
        unsafe {
            let (ar, or) = (ap.add(i * sa.0), op.add(i * n));
            match m - i {
                3 => row_block::<3, 2>(ar, sa, bp, or, k, n),
                2 => row_block::<2, 4>(ar, sa, bp, or, k, n),
                1 => row_block::<1, 8>(ar, sa, bp, or, k, n),
                _ => {}
            }
        }
    }

    /// `R` output rows: `8·V`-column tiles, then the `n % 8V` columns
    /// left as one tile `⌈rem/8⌉` vectors wide whose last vector is
    /// masked — as many accumulator chains in flight as the row block's
    /// full tiles keep, where 8-column tiles kept `R`.
    ///
    /// Kept out of line: one call per row block costs nothing beside the
    /// block's k·n FMAs, and the four instantiations inlined into
    /// [`matmul_fma`] made one 6 KB function whose placement alone moved
    /// `warm_http` — which never calls it — by 8 %.
    ///
    /// SAFETY contract: avx2+fma verified; `ap` points at `R` rows of
    /// `A` at strides `sa` over `k`, `bp` at `k` rows of `n`, `op` at `R`
    /// rows of `n`.
    #[inline(never)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_block<const R: usize, const V: usize>(
        ap: *const f32,
        sa: (usize, usize),
        bp: *const f32,
        op: *mut f32,
        k: usize,
        n: usize,
    ) {
        let mut j = 0;
        while j + 8 * V <= n {
            // SAFETY: columns j..j+8V lie inside the n columns.
            unsafe { tile::<R, V, false>(ap, sa, bp.add(j), op.add(j), k, n, 8) };
            j += 8 * V;
        }
        let rem = n - j;
        // The last vector's lanes, 1..=8 (unused when rem = 0).
        let last = (rem + 7) % 8 + 1;
        // SAFETY: the tail tile touches columns j..n only: its vectors
        // before the last are whole, the last has `last` lanes, and
        // 8·(vectors − 1) + last = rem. An arm wider than `V` vectors is
        // never taken (rem < 8V), and its guard removes it at compile time.
        unsafe {
            let (bt, ot) = (bp.add(j), op.add(j));
            match rem.div_ceil(8) {
                0 => {}
                1 => tile::<R, 1, true>(ap, sa, bt, ot, k, n, last),
                2 if V >= 2 => tile::<R, 2, true>(ap, sa, bt, ot, k, n, last),
                3 if V >= 3 => tile::<R, 3, true>(ap, sa, bt, ot, k, n, last),
                4 if V >= 4 => tile::<R, 4, true>(ap, sa, bt, ot, k, n, last),
                5 if V >= 5 => tile::<R, 5, true>(ap, sa, bt, ot, k, n, last),
                6 if V >= 6 => tile::<R, 6, true>(ap, sa, bt, ot, k, n, last),
                7 if V >= 7 => tile::<R, 7, true>(ap, sa, bt, ot, k, n, last),
                8 if V >= 8 => tile::<R, 8, true>(ap, sa, bt, ot, k, n, last),
                _ => unreachable!("a column tail of {rem} behind {}-wide tiles", 8 * V),
            }
        }
    }

    /// Eight enabled lanes then eight disabled ones: the eight entries
    /// from index `8 − w` are the mask that enables lanes `0..w`.
    const LANE_MASK_WINDOW: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// One `R × 8V` register tile: `R·V` ymm accumulators live across
    /// the whole k loop, `V` loads of `b` and one broadcast of `a` per
    /// (k, row), `a`'s element `(r, kk)` at `r·rs + kk·ks`. A `TAIL`
    /// tile's last vector covers only its first `last` (≤ 8) lanes;
    /// masked-off lanes are neither read nor written, which is how the
    /// `n % 8` column tail stays a vector FMA chain. Other tiles ignore
    /// `last`.
    ///
    /// SAFETY contract: avx2+fma verified; `ap` points at `R` rows of
    /// `A` at strides `sa` over `k`; `bp` (`op`) at `k` (`R`) rows of
    /// stride `n` whose first `8·V` floats — `8·(V−1) + last` for a
    /// `TAIL` tile — are readable (writable).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile<const R: usize, const V: usize, const TAIL: bool>(
        ap: *const f32,
        (rs, ks): (usize, usize),
        bp: *const f32,
        op: *mut f32,
        k: usize,
        n: usize,
        last: usize,
    ) {
        let window = &LANE_MASK_WINDOW[8 - last.min(8)..][..8];
        // SAFETY: `window` is 8 i32s; the load is unaligned.
        let mask = unsafe { _mm256_loadu_si256(window.as_ptr().cast()) };
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for kk in 0..k {
            let mut bv = [_mm256_setzero_ps(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                // SAFETY: row kk < k of b; every vector is whole except
                // a TAIL tile's last, which reads its `last` enabled lanes.
                *bvv = unsafe {
                    if TAIL && v + 1 == V {
                        _mm256_maskload_ps(bp.add(kk * n + 8 * v), mask)
                    } else {
                        _mm256_loadu_ps(bp.add(kk * n + 8 * v))
                    }
                };
            }
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY: r < R rows and kk < k lie inside `A`.
                let av = unsafe { _mm256_set1_ps(*ap.add(r * rs + kk * ks)) };
                for (accv, bvv) in accr.iter_mut().zip(&bv) {
                    *accv = _mm256_fmadd_ps(av, *bvv, *accv);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (v, accv) in accr.iter().enumerate() {
                // SAFETY: row r < R of out; same column extents as the
                // loads above.
                unsafe {
                    if TAIL && v + 1 == V {
                        _mm256_maskstore_ps(op.add(r * n + 8 * v), mask, *accv);
                    } else {
                        _mm256_storeu_ps(op.add(r * n + 8 * v), *accv);
                    }
                }
            }
        }
    }

    /// 4-row-unrolled k-ascending FMA chains: four independent
    /// accumulators in flight, one chain per output element — the same
    /// per-element semantics as [`matmul_fma`], so `matvec ≡ matmul`
    /// stays bitwise under this backend too.
    ///
    /// SAFETY contract: caller verified avx2+fma at runtime (the safe
    /// shim above is the only caller); all indexing below is checked
    /// slice access.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matvec_fma(a: &[f32], x: &[f32], out: &mut [f32], m: usize, k: usize) {
        let mut i = 0;
        while i + 4 <= m {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (kk, &xv) in x.iter().enumerate().take(k) {
                s0 = a[i * k + kk].mul_add(xv, s0);
                s1 = a[(i + 1) * k + kk].mul_add(xv, s1);
                s2 = a[(i + 2) * k + kk].mul_add(xv, s2);
                s3 = a[(i + 3) * k + kk].mul_add(xv, s3);
            }
            out[i] = s0;
            out[i + 1] = s1;
            out[i + 2] = s2;
            out[i + 3] = s3;
            i += 4;
        }
        while i < m {
            let mut s = 0.0f32;
            for (kk, &xv) in x.iter().enumerate().take(k) {
                s = a[i * k + kk].mul_add(xv, s);
            }
            out[i] = s;
            i += 1;
        }
    }

    /// `dst += src` with 8-wide `vaddps`. Per-element add order is
    /// unchanged, so this is bit-identical to the scalar backend.
    ///
    /// SAFETY contract: caller verified avx2 at runtime (the safe shim
    /// above is the only caller); loads/stores are bounded by
    /// `len = min(dst.len(), src.len())`.
    #[target_feature(enable = "avx2")]
    unsafe fn seg_accum_avx2(dst: &mut [f32], src: &[f32]) {
        let len = dst.len().min(src.len());
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let mut j = 0;
        while j + 8 <= len {
            // SAFETY: j+8 <= len <= dst.len() and src.len(), so the
            // 8-lane load/store window stays inside both slices.
            unsafe {
                let d = _mm256_loadu_ps(dp.add(j));
                let s = _mm256_loadu_ps(sp.add(j));
                _mm256_storeu_ps(dp.add(j), _mm256_add_ps(d, s));
            }
            j += 8;
        }
        while j < len {
            dst[j] += src[j];
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512 backend: the AVX2 backend with 512-bit matmul tiles.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    // Safe shims: the `Kernels` table for this module is only handed out
    // after `is_x86_feature_detected!("avx512f")`, so the target-feature
    // contract of the inner functions is always met.

    pub(super) fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        strided(a, (k, 1), b, out, m, k, n);
    }

    pub(super) fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        strided(a, (1, m), b, out, m, k, n);
    }

    /// Both matmul entries: `a`'s element `(i, kk)` at `i·rs + kk·ks`.
    fn strided(
        a: &[f32],
        sa: (usize, usize),
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert!(super::avx512_supported());
        // The tiles below index through raw pointers; `MatmulFn` is a
        // safe signature, so the extents are checked here, once per call.
        assert!(
            a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
            "matmul slices shorter than [{m},{k}]·[{k},{n}]"
        );
        // SAFETY: this table entry is only installed after runtime
        // avx512f detection; the slices cover m×k, k×n and m×n, and
        // both callers' strides keep every (i, kk) inside a's m·k.
        unsafe { matmul_512(a, sa, b, out, m, k, n) }
    }

    pub(super) fn sigmoid(src: &[f32], dst: &mut [f32]) {
        debug_assert!(super::avx512_supported());
        // SAFETY: as above — table installed only after avx512f
        // detection.
        unsafe { sixteen_wide(super::sigmoid_body, src, dst) }
    }

    pub(super) fn tanh(src: &[f32], dst: &mut [f32]) {
        debug_assert!(super::avx512_supported());
        // SAFETY: as above — table installed only after avx512f
        // detection.
        unsafe { sixteen_wide(super::tanh_body, src, dst) }
    }

    /// An activation body (`#[inline(always)]`, so it is compiled into
    /// this function once per body) vectorised sixteen lanes wide.
    ///
    /// SAFETY contract: caller verified avx512f at runtime (the safe
    /// shims above are the only callers); the body is safe code.
    #[target_feature(enable = "avx512f")]
    unsafe fn sixteen_wide(body: impl Fn(&[f32], &mut [f32]), src: &[f32], dst: &mut [f32]) {
        body(src, dst)
    }

    /// The AVX2 backend's register tiling at twice the width and, with
    /// 32 registers to hold accumulators in, half again the height: full
    /// 6-row blocks run 6×64 tiles; the last `m % 6` rows run together
    /// as one block whose tiles widen as the rows thin out (5×64, 4×96,
    /// 3×96, 2×128, 1×128 — the widest that measured faster on
    /// `[m,120]·[120,400]`; 3×128 and 2×192 spill). `A` is read at the
    /// strides `sa = (rs, ks)`, so `A·B` and `Aᵀ·B` run the same tiles.
    /// Every output element — full tile or masked column tail — is a
    /// k-ascending single-rounding FMA chain from zero, exactly the
    /// chain the AVX2 tiles and `matvec_fma` compute, so this backend
    /// agrees with `avx2` bit for bit whatever `m`, `n` and the strides
    /// are.
    ///
    /// SAFETY contract: caller verified avx512f at runtime, sized
    /// `b: k×n` and `out: m×n`, and chose strides that keep every
    /// `i·rs + kk·ks` (i < m, kk < k) inside `a` (the safe shim above is
    /// the only caller).
    #[target_feature(enable = "avx512f")]
    unsafe fn matmul_512(
        a: &[f32],
        sa: (usize, usize),
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i + 6 <= m {
            // SAFETY: rows i..i+6 lie inside a's and out's m rows.
            unsafe { row_block::<6, 4>(ap.add(i * sa.0), sa, bp, op.add(i * n), k, n) };
            i += 6;
        }
        // SAFETY: rows i..m are the last m - i rows of a and out, and the
        // arm taken has exactly that many rows.
        unsafe {
            let (ar, or) = (ap.add(i * sa.0), op.add(i * n));
            match m - i {
                5 => row_block::<5, 4>(ar, sa, bp, or, k, n),
                4 => row_block::<4, 6>(ar, sa, bp, or, k, n),
                3 => row_block::<3, 6>(ar, sa, bp, or, k, n),
                2 => row_block::<2, 8>(ar, sa, bp, or, k, n),
                1 => row_block::<1, 8>(ar, sa, bp, or, k, n),
                _ => {}
            }
        }
    }

    /// `R` output rows: `16·V`-column tiles, then the `n % 16V` columns
    /// left as one tile `⌈rem/16⌉` vectors wide whose last vector is
    /// masked. As 16-column tiles, such a tail kept only `R` accumulator
    /// chains in flight, below the FMA latency, and the paper-width
    /// tails (`n` = 100, 120, 300) ran at two thirds of the wide tiles'
    /// speed.
    ///
    /// Kept out of line for the reason the AVX2 `row_block` is: inlined,
    /// the six instantiations make one function whose placement alone
    /// moves `warm_http`, which never calls it.
    ///
    /// SAFETY contract: avx512f verified; `ap` points at `R` rows of
    /// `A` at strides `sa` over `k`, `bp` at `k` rows of `n`, `op` at `R`
    /// rows of `n`.
    #[inline(never)]
    #[target_feature(enable = "avx512f")]
    unsafe fn row_block<const R: usize, const V: usize>(
        ap: *const f32,
        sa: (usize, usize),
        bp: *const f32,
        op: *mut f32,
        k: usize,
        n: usize,
    ) {
        let mut j = 0;
        while j + 16 * V <= n {
            // SAFETY: columns j..j+16V lie inside the n columns.
            unsafe { tile::<R, V, false>(ap, sa, bp.add(j), op.add(j), k, n, 16) };
            j += 16 * V;
        }
        let rem = n - j;
        // The last vector's lanes, 1..=16 (unused when rem = 0).
        let last = (rem + 15) % 16 + 1;
        // SAFETY: the tail tile touches columns j..n only: its vectors
        // before the last are whole, the last has `last` lanes, and
        // 16·(vectors − 1) + last = rem. An arm wider than `V` vectors is
        // never taken (rem < 16V), and its guard removes it at compile
        // time.
        unsafe {
            let (bt, ot) = (bp.add(j), op.add(j));
            match rem.div_ceil(16) {
                0 => {}
                1 => tile::<R, 1, true>(ap, sa, bt, ot, k, n, last),
                2 if V >= 2 => tile::<R, 2, true>(ap, sa, bt, ot, k, n, last),
                3 if V >= 3 => tile::<R, 3, true>(ap, sa, bt, ot, k, n, last),
                4 if V >= 4 => tile::<R, 4, true>(ap, sa, bt, ot, k, n, last),
                5 if V >= 5 => tile::<R, 5, true>(ap, sa, bt, ot, k, n, last),
                6 if V >= 6 => tile::<R, 6, true>(ap, sa, bt, ot, k, n, last),
                7 if V >= 7 => tile::<R, 7, true>(ap, sa, bt, ot, k, n, last),
                8 if V >= 8 => tile::<R, 8, true>(ap, sa, bt, ot, k, n, last),
                _ => unreachable!("a column tail of {rem} behind {}-wide tiles", 16 * V),
            }
        }
    }

    /// One `R × 16V` register tile: `R·V` zmm accumulators live across
    /// the whole k loop, `V` loads of `b` and one broadcast of `a` per
    /// (k, row), `a`'s element `(r, kk)` at `r·rs + kk·ks`. A `TAIL`
    /// tile's last vector covers only its first `last` (≤ 16) lanes;
    /// masked-off lanes are neither read nor written. Other tiles ignore
    /// `last`.
    ///
    /// SAFETY contract: avx512f verified; `ap` points at `R` rows of
    /// `A` at strides `sa` over `k`; `bp` (`op`) at `k` (`R`) rows of
    /// stride `n` whose first `16·V` floats — `16·(V−1) + last` for a
    /// `TAIL` tile — are readable (writable).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile<const R: usize, const V: usize, const TAIL: bool>(
        ap: *const f32,
        (rs, ks): (usize, usize),
        bp: *const f32,
        op: *mut f32,
        k: usize,
        n: usize,
        last: usize,
    ) {
        let mask: __mmask16 = (1u32 << last.min(16)).wrapping_sub(1) as __mmask16;
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        for kk in 0..k {
            let mut bv = [_mm512_setzero_ps(); V];
            for (v, bvv) in bv.iter_mut().enumerate() {
                // SAFETY: row kk < k of b; every vector is whole except
                // a TAIL tile's last, which reads its `last` enabled lanes.
                *bvv = unsafe {
                    if TAIL && v + 1 == V {
                        _mm512_maskz_loadu_ps(mask, bp.add(kk * n + 16 * v))
                    } else {
                        _mm512_loadu_ps(bp.add(kk * n + 16 * v))
                    }
                };
            }
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY: r < R rows and kk < k lie inside `A`.
                let av = unsafe { _mm512_set1_ps(*ap.add(r * rs + kk * ks)) };
                for (accv, bvv) in accr.iter_mut().zip(&bv) {
                    *accv = _mm512_fmadd_ps(av, *bvv, *accv);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (v, accv) in accr.iter().enumerate() {
                // SAFETY: row r < R of out; same column extents as the
                // loads above.
                unsafe {
                    if TAIL && v + 1 == V {
                        _mm512_mask_storeu_ps(op.add(r * n + 16 * v), mask, *accv);
                    } else {
                        _mm512_storeu_ps(op.add(r * n + 16 * v), *accv);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, mul: usize, modulus: usize, off: f32, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|x| ((x * mul % modulus) as f32 - off) * scale)
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Shapes covering every kernel path: 4-row blocks and 1/2/3
    /// remainder rows, wide tiles and masked column tails. The second
    /// group is the encoder's own products at paper width (input, i/o/u
    /// and forget projections; full, 3-row and 1-row levels) and the
    /// training backward's `dA = G·B` for the input and i/o/u weights,
    /// whose tails (`n % 64` = 56 and 36) span several vectors; the third
    /// has one shape per tail width `n % 8 = 1..=7` behind at least one
    /// full tile, on 4-row blocks and on each remainder-row count.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (4, 4, 4),
        (5, 3, 7),
        (3, 5, 2),
        (8, 6, 9),
        (9, 2, 5),
        (6, 7, 4),
        (4, 9, 16),
        (7, 5, 19),
        (8, 16, 33),
        (5, 32, 40),
        (27, 120, 400),
        (27, 100, 300),
        (26, 100, 100),
        (3, 100, 300),
        (1, 100, 100),
        (27, 400, 120),
        (27, 300, 100),
        (5, 9, 17),
        (6, 9, 18),
        (7, 9, 35),
        (4, 9, 20),
        (5, 9, 69),
        (6, 9, 22),
        (7, 9, 23),
    ];

    /// Announces a check this host cannot run, numbered so a log shows
    /// how many were skipped — a skip must never read as a pass.
    fn skip(what: &str, lacking: &str) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SKIPS: AtomicUsize = AtomicUsize::new(0);
        // Relaxed: a counter for the log line, publishes nothing.
        let nth = SKIPS.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("[kernels test] SKIPPED #{nth}: {what} (host lacks {lacking})");
    }

    /// Every backend this host can run, scalar first.
    fn backends() -> Vec<&'static Kernels> {
        let mut v = vec![kernels_for(KernelBackend::Scalar).expect("scalar always present")];
        for (backend, lacking) in [
            (KernelBackend::Avx2, "AVX2+FMA"),
            (KernelBackend::Avx512, "AVX-512F"),
        ] {
            match kernels_for(backend) {
                Some(k) => v.push(k),
                None => skip(&format!("the {backend} backend"), lacking),
            }
        }
        v
    }

    /// Naive i-k-j triple loop with the backend's per-term rounding:
    /// mul+add for scalar, single-rounding `mul_add` for avx2 and
    /// avx512. Each backend must match its reference bit-for-bit.
    fn reference_matmul(
        backend: KernelBackend,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                for j in 0..n {
                    let cur = out[i * n + j];
                    out[i * n + j] = match backend {
                        KernelBackend::Scalar => cur + aik * b[kk * n + j],
                        KernelBackend::Avx2 | KernelBackend::Avx512 => {
                            aik.mul_add(b[kk * n + j], cur)
                        }
                    };
                }
            }
        }
        out
    }

    #[test]
    fn matmul_matches_per_backend_reference_bitwise() {
        for kern in backends() {
            for &(m, k, n) in SHAPES {
                let a = fill(m * k, 37, 17, 8.0, 0.37);
                let b = fill(k * n, 23, 13, 6.0, 0.59);
                let mut out = vec![0.0f32; m * n];
                (kern.matmul)(&a, &b, &mut out, m, k, n);
                let expect = reference_matmul(kern.backend, &a, &b, m, k, n);
                assert_eq!(out, expect, "{} ({m},{k},{n})", kern.backend);
            }
        }
    }

    /// `a` stored `[k, m]` (`m` rows after transposing) as `[m, k]`.
    fn transposed(a: &[f32], k: usize, m: usize) -> Vec<f32> {
        (0..m * k).map(|x| a[(x % k) * m + x / k]).collect()
    }

    /// `kern.matmul_tn` against `oracle.matmul` on the transposed `a`,
    /// to the bit, for `(m, k, n)` with `a` stored `[k, m]`.
    fn assert_tn_is_transpose_then_matmul(
        kern: &Kernels,
        oracle: &Kernels,
        (m, k, n): (usize, usize, usize),
    ) {
        let a = fill(k * m, 37, 17, 8.0, 0.37);
        let b = fill(k * n, 23, 13, 6.0, 0.59);
        let mut tn = vec![0.0f32; m * n];
        let mut nn = vec![0.0f32; m * n];
        (kern.matmul_tn)(&a, &b, &mut tn, m, k, n);
        (oracle.matmul)(&transposed(&a, k, m), &b, &mut nn, m, k, n);
        let what = format!("{} tn vs {} ({m},{k},{n})", kern.backend, oracle.backend);
        assert_eq!(bits(&tn), bits(&nn), "{what}");
    }

    #[test]
    fn matmul_tn_matches_transpose_then_matmul_bitwise() {
        // The training backward's weight gradients `Gᵀ·A` (input, i/o/u
        // and forget weights at paper width), then `k` = 0 and 1.
        let backward = [(400, 27, 120), (300, 27, 100), (100, 40, 100)];
        let thin = [(3, 0, 5), (7, 0, 1), (5, 1, 17), (13, 1, 100)];
        for kern in backends() {
            for &shape in SHAPES.iter().chain(&backward).chain(&thin) {
                assert_tn_is_transpose_then_matmul(kern, kern, shape);
            }
        }
    }

    #[test]
    fn matmul_overwrites_whatever_out_held() {
        // Outputs come from the pool with a previous tensor's floats
        // still in them; NaN there must not reach the product.
        for kern in backends() {
            for &(m, k, n) in SHAPES.iter().chain(&[(3, 0, 5)]) {
                let a = fill(m * k, 7, 11, 5.0, 0.25);
                let b = fill(k * n, 5, 13, 6.0, 0.5);
                for f in [kern.matmul, kern.matmul_tn] {
                    let mut zeroed = vec![0.0; m * n];
                    let mut stale = vec![f32::NAN; m * n];
                    f(&a, &b, &mut zeroed, m, k, n);
                    f(&a, &b, &mut stale, m, k, n);
                    assert_eq!(
                        bits(&stale),
                        bits(&zeroed),
                        "{} ({m},{k},{n})",
                        kern.backend
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_rows_do_not_depend_on_the_batch() {
        // The tree-LSTM projects each node kind once and each downward
        // parent once, and hands the row to every node that needs it: a
        // row of a product may not depend on which rows share the call.
        // Shapes: the per-kind input table, one parent's i/o/u product,
        // 37 parents' forget product. The batch cycles the `m` rows to
        // `2m + 1`, so rows land at every offset of a row block.
        for kern in backends() {
            for &(m, k, n) in &[(67, 120, 400), (1, 100, 300), (37, 100, 100)] {
                let a = fill(m * k, 37, 17, 8.0, 0.37);
                let b = fill(k * n, 23, 13, 6.0, 0.59);
                // The product over A's rows `rows`: `A·B`, which is also
                // the tape's `A·Bᵀ` (it multiplies by a transposed copy
                // of B), and `Aᵀ·B` with `Aᵀ` stored, as the backward
                // reads its operands.
                let products = |rows: &[usize]| -> [Vec<f32>; 2] {
                    let sub: Vec<f32> = rows
                        .iter()
                        .flat_map(|&r| a[r * k..(r + 1) * k].iter().copied())
                        .collect();
                    let sub_t = transposed(&sub, rows.len(), k);
                    let mut out = [(); 2].map(|_| vec![0.0f32; rows.len() * n]);
                    (kern.matmul)(&sub, &b, &mut out[0], rows.len(), k, n);
                    (kern.matmul_tn)(&sub_t, &b, &mut out[1], rows.len(), k, n);
                    out
                };
                let alone: Vec<Vec<f32>> = (0..m).map(|r| products(&[r])[0].clone()).collect();
                let batch: Vec<usize> = (0..2 * m + 1).map(|r| r % m).collect();
                for chunk in [1, 128, batch.len()] {
                    for rows in batch.chunks(chunk) {
                        for (form, got) in ["A·B", "Aᵀ·B"].iter().zip(products(rows)) {
                            for (i, &r) in rows.iter().enumerate() {
                                assert_eq!(
                                    bits(&got[i * n..(i + 1) * n]),
                                    bits(&alone[r]),
                                    "{} {form} ({m},{k},{n}): row {r} in {} rows",
                                    kern.backend,
                                    rows.len()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matvec_matches_matmul_bitwise_per_backend() {
        for kern in backends() {
            for &(m, k, _) in SHAPES {
                let a = fill(m * k, 31, 19, 9.0, 0.21);
                let x = fill(k, 29, 11, 5.0, 0.43);
                let mut mv = vec![0.0f32; m];
                let mut mm = vec![0.0f32; m];
                (kern.matvec)(&a, &x, &mut mv, m, k);
                (kern.matmul)(&a, &x, &mut mm, m, k, 1);
                assert_eq!(bits(&mv), bits(&mm), "{} m={m} k={k}", kern.backend);
            }
        }
    }

    #[test]
    fn cross_backend_parity_within_tolerance() {
        // FMA rounds once per term, so the FMA backends differ from
        // scalar in last ulps but must stay inside the fused-encode
        // parity budget.
        for kern in &backends()[1..] {
            for &(m, k, n) in SHAPES {
                let a = fill(m * k, 41, 23, 11.0, 0.17);
                let b = fill(k * n, 43, 29, 14.0, 0.13);
                let mut s = vec![0.0f32; m * n];
                let mut v = vec![0.0f32; m * n];
                scalar_matmul(&a, &b, &mut s, m, k, n);
                (kern.matmul)(&a, &b, &mut v, m, k, n);
                for (x, y) in s.iter().zip(&v) {
                    assert!(
                        (x - y).abs() <= 1e-5,
                        "{} ({m},{k},{n}): {x} vs {y}",
                        kern.backend
                    );
                }
            }
        }
    }

    #[test]
    fn avx512_matmul_equals_avx2_bitwise() {
        let (Some(avx2), Some(avx512)) = (
            kernels_for(KernelBackend::Avx2),
            kernels_for(KernelBackend::Avx512),
        ) else {
            skip("avx512 ≡ avx2 matmul", "AVX-512F");
            return;
        };
        // Every remainder-row count `m % 6 = 0..=5` (alone and behind
        // full blocks) against every column-tail width `n % 16 = 0..=15`
        // alone, behind 16-wide tiles and behind a 64- and a 128-wide one.
        let grid = (1..=13usize).flat_map(|m| (1..=150usize).map(move |n| (m, 9usize, n)));
        for (m, k, n) in SHAPES.iter().copied().chain(grid) {
            let a = fill(m * k, 37, 17, 8.0, 0.37);
            let b = fill(k * n, 23, 13, 6.0, 0.59);
            let mut narrow = vec![0.0f32; m * n];
            let mut wide = vec![0.0f32; m * n];
            (avx2.matmul)(&a, &b, &mut narrow, m, k, n);
            (avx512.matmul)(&a, &b, &mut wide, m, k, n);
            assert_eq!(bits(&wide), bits(&narrow), "({m},{k},{n})");
        }
    }

    #[test]
    fn avx512_matmul_tn_equals_avx2_transpose_then_matmul_bitwise() {
        let (Some(avx2), Some(avx512)) = (
            kernels_for(KernelBackend::Avx2),
            kernels_for(KernelBackend::Avx512),
        ) else {
            skip("avx512 tn ≡ avx2 transpose-then-matmul", "AVX-512F");
            return;
        };
        // The grid of `avx512_matmul_equals_avx2_bitwise`.
        let grid = (1..=13usize).flat_map(|m| (1..=150usize).map(move |n| (m, 9usize, n)));
        for shape in SHAPES.iter().copied().chain(grid) {
            assert_tn_is_transpose_then_matmul(avx512, avx2, shape);
        }
    }

    #[test]
    fn nan_and_inf_propagate_on_every_backend() {
        // PR 4 regression suite, run against each kernel table: no
        // zero-skip means 0·NaN and 0·∞ must reach the output.
        for kern in backends() {
            let a = [0.0, 1.0, 2.0, 3.0];
            let b = [f32::NAN, 4.0, 5.0, 6.0];
            let mut c = vec![0.0f32; 4];
            (kern.matmul)(&a, &b, &mut c, 2, 2, 2);
            assert!(c[0].is_nan(), "{}: 0·NaN must propagate", kern.backend);
            assert!(c[2].is_nan(), "{}", kern.backend);
            assert!(c[1].is_finite(), "{}", kern.backend);

            let mut c = vec![0.0f32; 1];
            (kern.matmul)(&[0.0], &[f32::INFINITY], &mut c, 1, 1, 1);
            assert!(c[0].is_nan(), "{}: 0·∞ must be NaN", kern.backend);

            // `Aᵀ·B` with `a` stored `[2, 2]`: column 0 of `a` is (0, 2).
            let mut c = vec![0.0f32; 4];
            (kern.matmul_tn)(&a, &b, &mut c, 2, 2, 2);
            assert!(c[0].is_nan() && c[2].is_nan(), "{}: tn 0·NaN", kern.backend);
            assert!(c[1].is_finite() && c[3].is_finite(), "{}", kern.backend);
            let mut c = vec![0.0f32; 2];
            (kern.matmul_tn)(&[0.0, 1.0], &[f32::INFINITY], &mut c, 2, 1, 1);
            assert!(c[0].is_nan(), "{}: tn 0·∞ must be NaN", kern.backend);
            assert_eq!(c[1], f32::INFINITY, "{}", kern.backend);
            let mut c = vec![0.0f32; 1];
            (kern.matvec)(&[f32::INFINITY], &[0.0], &mut c, 1, 1);
            assert!(c[0].is_nan(), "{}: matvec 0·∞ must be NaN", kern.backend);

            let mut dst = [0.0f32, 1.0];
            (kern.seg_accum)(&mut dst, &[f32::NAN, 1.0]);
            assert!(dst[0].is_nan() && dst[1] == 2.0, "{}", kern.backend);
        }
    }

    #[test]
    fn seg_accum_bitwise_identical_across_backends() {
        for len in [0usize, 1, 3, 7, 8, 9, 16, 31, 64, 129] {
            let src = fill(len, 53, 31, 15.0, 0.29);
            let base = fill(len, 59, 37, 18.0, 0.31);
            let mut per_backend: Vec<Vec<u32>> = Vec::new();
            for kern in backends() {
                let mut dst = base.clone();
                (kern.seg_accum)(&mut dst, &src);
                per_backend.push(bits(&dst));
            }
            for w in per_backend.windows(2) {
                assert_eq!(w[0], w[1], "len {len}");
            }
        }
    }

    #[test]
    fn env_override_resolution() {
        // `resolve` is pure in its argument, so this avoids mutating the
        // process environment (racy under the parallel test harness).
        let backend = |req| resolve(req).map(|k| k.backend);
        // For the job log (`-- --nocapture`): what this process runs on.
        eprintln!("[kernels test] active backend: {}", active().backend);
        assert_eq!(backend(Some("scalar")), Ok(KernelBackend::Scalar));
        assert_eq!(backend(Some(" scalar\n")), Ok(KernelBackend::Scalar));
        let widest = backends().last().expect("scalar at least").backend;
        assert_eq!(backend(None), Ok(widest));
        assert_eq!(backend(Some("")), Ok(widest));
        // Strict: an unknown name is an error that repeats it and says
        // what the host has; nothing falls back.
        for bad in ["turbo", "AVX2", "avx2,scalar"] {
            let err = backend(Some(bad)).expect_err(bad);
            assert!(
                err.contains(bad) && err.contains("scalar|avx2|avx512"),
                "{err}"
            );
            assert!(
                err.contains("avx2+fma: ") && err.contains("avx512f: "),
                "{err}"
            );
        }
        // A known name resolves to exactly that backend or is an error.
        for (name, want) in [
            ("avx2", KernelBackend::Avx2),
            ("avx512", KernelBackend::Avx512),
        ] {
            match kernels_for(want) {
                Some(_) => assert_eq!(backend(Some(name)), Ok(want)),
                None => {
                    let err = backend(Some(name)).expect_err(name);
                    assert!(err.contains(name) && err.contains("lacks"), "{err}");
                }
            }
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        for kern in backends() {
            let mut out = vec![0.0f32; 0];
            (kern.matmul)(&[], &[], &mut out, 0, 0, 0);
            let mut out = vec![0.0f32; 3];
            (kern.matmul)(&[], &[], &mut out, 3, 0, 1);
            assert_eq!(out, [0.0; 3], "{}: k=0 must leave zeros", kern.backend);
            (kern.matmul_tn)(&[], &[], &mut out, 3, 0, 1);
            assert_eq!(out, [0.0; 3], "{}: tn k=0 must leave zeros", kern.backend);
            let mut out = vec![0.0f32; 2];
            (kern.matvec)(&[], &[], &mut out, 2, 0);
            assert_eq!(out, [0.0; 2], "{}", kern.backend);
            (kern.seg_accum)(&mut [], &[]);
        }
    }

    /// Activation inputs: every `stride`-th float of either sign up to
    /// 90 (past both clamps of `exp`), then the values where something
    /// changes and their neighbours — zero, the clamps, the tanh split,
    /// a tiny normal and a subnormal — then ±∞ and NaN.
    fn activation_inputs(stride: usize) -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=90.0f32.to_bits())
            .step_by(stride)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect();
        for x in [0.0f32, 87.0, 88.0, 90.0, 0.625, 1e-30, 1e-40] {
            let (below, above) = (x.to_bits().saturating_sub(1), x.to_bits() + 1);
            for near in [x, f32::from_bits(below), f32::from_bits(above)] {
                xs.extend([near, -near]);
            }
        }
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        xs
    }

    /// Miri runs these at ~1/1000 of native speed.
    const ACTIVATION_STRIDE: usize = if cfg!(miri) { 2_000_003 } else { 1009 };

    fn apply(f: ActivationFn, xs: &[f32]) -> Vec<f32> {
        let mut ys = vec![0.0f32; xs.len()];
        f(xs, &mut ys);
        ys
    }

    #[test]
    fn activations_are_bitwise_identical_across_backends() {
        let xs = activation_inputs(ACTIVATION_STRIDE);
        let all = backends();
        for kern in &all[1..] {
            for (name, f, reference) in [
                ("sigmoid", kern.sigmoid, all[0].sigmoid),
                ("tanh", kern.tanh, all[0].tanh),
            ] {
                let (got, want) = (apply(f, &xs), apply(reference, &xs));
                for ((x, g), w) in xs.iter().zip(&got).zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{} {name}({x:e})", kern.backend);
                }
            }
        }
        // A slice shorter than a vector, and one with a ragged end, take
        // the loop's scalar epilogue: same bits there too.
        for kern in &all[1..] {
            for len in [0usize, 1, 7, 17, 33] {
                let xs: Vec<f32> = (0..len).map(|i| i as f32 * 0.37 - 3.0).collect();
                assert_eq!(bits(&apply(kern.tanh, &xs)), bits(&apply(all[0].tanh, &xs)));
                assert_eq!(
                    bits(&apply(kern.sigmoid, &xs)),
                    bits(&apply(all[0].sigmoid, &xs))
                );
            }
        }
    }

    #[test]
    fn activations_on_row_chunks_match_the_whole_slice() {
        // The child-sum cell activates gate blocks and single rows where
        // a tensor op activates the whole buffer: an element's bits may
        // not depend on where its chunk starts or how long it is.
        let xs: Vec<f32> = (0..701).map(|i| i as f32 * 0.093 - 32.0).collect();
        for kern in backends() {
            for (name, f) in [("sigmoid", kern.sigmoid), ("tanh", kern.tanh)] {
                let whole = apply(f, &xs);
                for chunk in [1usize, 3, 16, 19, 38, 100, 200, 300] {
                    let mut chunked = vec![0.0f32; xs.len()];
                    for (src, dst) in xs.chunks(chunk).zip(chunked.chunks_mut(chunk)) {
                        f(src, dst);
                    }
                    assert_eq!(
                        bits(&chunked),
                        bits(&whole),
                        "{} {name} in chunks of {chunk}",
                        kern.backend
                    );
                }
            }
        }
    }

    #[test]
    fn activations_stay_within_2e7_of_f64() {
        // Scalar table only: the other backends are its bits (above).
        let mut xs = activation_inputs(ACTIVATION_STRIDE);
        xs.retain(|x| !x.is_nan()); // no error to measure
        let dense = if cfg!(miri) { 50 } else { 20_000 };
        // Dense around the origin and tanh's polynomial/exponential split.
        xs.extend((0..=dense).map(|i| 0.625 + (i - dense / 2) as f32 * 1e-7));
        xs.extend((0..=dense).flat_map(|i| [i as f32 * 1e-4, i as f32 * -1e-4]));
        type Exact = fn(f64) -> f64;
        let exact: [(&str, ActivationFn, Exact); 2] = [
            ("sigmoid", SCALAR.sigmoid, |x| 1.0 / (1.0 + (-x).exp())),
            ("tanh", SCALAR.tanh, f64::tanh),
        ];
        for (name, f, exact) in exact {
            let worst = xs
                .iter()
                .zip(apply(f, &xs))
                .map(|(&x, y)| ((y as f64 - exact(x as f64)).abs(), x))
                .fold((0.0f64, 0.0f32), |a, b| if b.0 > a.0 { b } else { a });
            assert!(
                worst.0 <= 2e-7,
                "{name} off by {:e} at {}",
                worst.0,
                worst.1
            );
        }
    }

    #[test]
    fn activation_specials_saturate_and_propagate() {
        for kern in backends() {
            let at = |f: ActivationFn, x: f32| apply(f, &[x])[0];
            let b = kern.backend;
            assert!(at(kern.sigmoid, f32::NAN).is_nan(), "{b}");
            assert!(at(kern.tanh, f32::NAN).is_nan(), "{b}");
            assert_eq!(at(kern.sigmoid, 0.0), 0.5, "{b}");
            assert_eq!(at(kern.sigmoid, f32::INFINITY), 1.0, "{b}");
            assert_eq!(at(kern.sigmoid, 88.0), 1.0, "{b}");
            let floor = at(kern.sigmoid, f32::NEG_INFINITY);
            assert!((0.0..1e-37).contains(&floor), "{b}: σ(−∞) = {floor:e}");
            assert_eq!(at(kern.tanh, f32::INFINITY), 1.0, "{b}");
            assert_eq!(at(kern.tanh, f32::NEG_INFINITY), -1.0, "{b}");
            assert_eq!(at(kern.tanh, 0.0).to_bits(), 0.0f32.to_bits(), "{b}");
            assert_eq!(at(kern.tanh, -0.0).to_bits(), (-0.0f32).to_bits(), "{b}");
            // 1 / (1 + positive) cannot leave [0, 1], whatever `exp` rounds to.
            let xs: Vec<f32> = (-2000..=2000).map(|i| i as f32 * 0.05).collect();
            let ys = apply(kern.sigmoid, &xs);
            assert!(ys.iter().all(|y| (0.0..=1.0).contains(y)), "{b}");
        }
    }
}
