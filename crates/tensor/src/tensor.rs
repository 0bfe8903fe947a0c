//! The dense `f32` tensor type.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Weak};

use crate::kernels;
use crate::{pool, Shape};

/// The pooled backing store behind every [`Tensor`]: a plain `Vec<f32>`
/// whose storage returns to the [`crate::pool`] free lists when the
/// last `Arc` handle drops. Copy-on-write clones (via
/// [`Arc::make_mut`]) also draw their new buffer from the pool, so in
/// steady state tensor traffic never touches the global allocator.
pub(crate) struct PoolBuf(Vec<f32>);

impl PoolBuf {
    #[inline]
    fn new(data: Vec<f32>) -> PoolBuf {
        PoolBuf(data)
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }
}

impl Deref for PoolBuf {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        &self.0
    }
}

impl std::ops::DerefMut for PoolBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.0
    }
}

impl Clone for PoolBuf {
    fn clone(&self) -> PoolBuf {
        PoolBuf(pool::take_copy(&self.0))
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        pool::put(std::mem::take(&mut self.0));
    }
}

impl PartialEq for PoolBuf {
    fn eq(&self, other: &PoolBuf) -> bool {
        self.0 == other.0
    }
}

/// A dense, row-major, immutable-by-default `f32` tensor of rank ≤ 2.
///
/// `Tensor` is backed by an [`Arc`], so cloning is O(1); mutation goes
/// through [`Tensor::make_mut`] which copies only when the buffer is shared
/// (copy-on-write). This makes it cheap to inject shared model parameters
/// into many per-example computation graphs, which is the dominant pattern
/// in tree-structured model training.
///
/// # Example
///
/// ```
/// use ccsa_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.as_slice(), a.as_slice());
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<PoolBuf>,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied
    /// by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "tensor data length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            shape,
            data: Arc::new(PoolBuf::new(data)),
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Tensor {
        Tensor {
            shape: Shape::SCALAR,
            data: Arc::new(PoolBuf::new(vec![value])),
        }
    }

    /// Creates a tensor of zeros (buffer drawn from the pool).
    pub fn zeros(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        Tensor {
            shape,
            data: Arc::new(PoolBuf::new(pool::take_zeroed(shape.len()))),
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value` (buffer drawn from the pool).
    pub fn full(shape: impl Into<Shape>, value: f32) -> Tensor {
        let shape = shape.into();
        Tensor {
            shape,
            data: Arc::new(PoolBuf::new(pool::take_filled(shape.len(), value))),
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Tensor {
        let mut data = pool::take_zeroed(n * n);
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_vec(data, [n, n])
    }

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// `true` if the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// The underlying elements in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A handle naming this tensor's buffer without keeping its elements
    /// alive. While the handle lives the buffer's allocation cannot be
    /// reused, so [`Tensor::owns_buffer`] never confuses a new buffer with
    /// a dead one at the same address; and an in-place write through
    /// [`Tensor::make_mut`] moves the elements to a new buffer, so the
    /// handle never names changed contents either.
    pub(crate) fn buffer_handle(&self) -> Weak<PoolBuf> {
        Arc::downgrade(&self.data)
    }

    /// Whether `handle` was taken from this tensor's buffer.
    pub(crate) fn owns_buffer(&self, handle: &Weak<PoolBuf>) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.data), handle.as_ptr())
    }

    /// Mutable access to the elements, copying the buffer first if it is
    /// shared (copy-on-write).
    pub fn make_mut(&mut self) -> &mut [f32] {
        // `Arc::make_mut` clones through `PoolBuf::clone` when shared,
        // so even the CoW copy is a pooled buffer.
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// The single value of a rank-0 or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() on tensor of shape {}", self.shape);
        self.data[0]
    }

    /// Element at `(row, col)` of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or indices are out of bounds.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert_eq!(
            self.shape.rank(),
            2,
            "at() on tensor of shape {}",
            self.shape
        );
        let cols = self.shape.cols();
        assert!(
            row < self.shape.rows() && col < cols,
            "index ({row},{col}) out of bounds for {}",
            self.shape
        );
        self.data[row * cols + col]
    }

    /// A copy of row `r` of a matrix as a vector tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> Tensor {
        assert_eq!(
            self.shape.rank(),
            2,
            "row() on tensor of shape {}",
            self.shape
        );
        let cols = self.shape.cols();
        assert!(
            r < self.shape.rows(),
            "row {r} out of bounds for {}",
            self.shape
        );
        Tensor::from_vec(
            pool::take_copy(&self.data[r * cols..(r + 1) * cols]),
            [cols],
        )
    }

    /// Reshapes without copying element data.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different number of elements.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.len(),
            "cannot reshape {} into {shape}",
            self.shape
        );
        Tensor {
            shape,
            data: Arc::clone(&self.data),
        }
    }

    /// Applies `f` elementwise, producing a new tensor (pooled buffer).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = pool::take_cap(self.len());
        out.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            shape: self.shape,
            data: Arc::new(PoolBuf::new(out)),
        }
    }

    /// Applies a slice kernel from the [`kernels`] table elementwise,
    /// producing a new tensor (pooled buffer).
    pub(crate) fn map_kernel(&self, f: kernels::ActivationFn) -> Tensor {
        let mut out = pool::take_zeroed(self.len());
        f(&self.data, &mut out);
        Tensor {
            shape: self.shape,
            data: Arc::new(PoolBuf::new(out)),
        }
    }

    /// Elementwise binary combination of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = pool::take_cap(self.len());
        out.extend(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Tensor {
            shape: self.shape,
            data: Arc::new(PoolBuf::new(out)),
        }
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * other` (copy-on-write if shared).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let dst = Arc::make_mut(&mut self.data);
        for (d, &s) in dst.iter_mut().zip(other.data.iter()) {
            *d += alpha * s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Dot product of two equally sized tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot length mismatch: {} vs {}",
            self.shape,
            other.shape
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Matrix transpose (copies).
    ///
    /// Vectors are interpreted as column vectors, so their transpose is a
    /// `1 × n` matrix.
    pub fn t(&self) -> Tensor {
        match self.shape.rank() {
            0 => self.clone(),
            1 => self.reshape([1, self.len()]),
            _ => {
                let (r, c) = (self.shape.rows(), self.shape.cols());
                let src: &[f32] = &self.data;
                let mut out = pool::take_cap(r * c);
                let dst = &mut out.spare_capacity_mut()[..r * c];
                // 8×8 tiles: one side of a transpose is always strided,
                // and a tile keeps that side to eight cache lines that
                // stay resident until each has been used in full. The
                // fixed trip counts let the tile body unroll.
                let (rf, cf) = (r - r % 8, c - c % 8);
                for i0 in (0..rf).step_by(8) {
                    for j0 in (0..cf).step_by(8) {
                        for j in j0..j0 + 8 {
                            let run = &mut dst[j * r + i0..][..8];
                            for (i, slot) in run.iter_mut().enumerate() {
                                slot.write(src[(i0 + i) * c + j]);
                            }
                        }
                    }
                }
                // Edges: the last c % 8 columns of the tiled rows, and the
                // last r % 8 rows in full.
                for i in 0..r {
                    for j in (if i < rf { cf } else { 0 })..c {
                        dst[j * r + i].write(src[i * c + j]);
                    }
                }
                // SAFETY: capacity is ≥ r·c, and tiles plus edges cover
                // every (i, j) in r × c, so each of the first r·c floats
                // has been written; no fill is needed first.
                unsafe { out.set_len(r * c) };
                Tensor::from_vec(out, [c, r])
            }
        }
    }

    /// Matrix–matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[m, k]` and `other` is `[k, n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.shape.rank(),
            2,
            "matmul lhs must be rank 2, got {}",
            self.shape
        );
        assert_eq!(
            other.shape.rank(),
            2,
            "matmul rhs must be rank 2, got {}",
            other.shape
        );
        let (m, k) = (self.shape.rows(), self.shape.cols());
        let (k2, n) = (other.shape.rows(), other.shape.cols());
        assert_eq!(
            k, k2,
            "matmul inner dimension mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = pool::take_for_overwrite(m * n);
        // Dispatched kernel (see [`crate::kernels`]): blocked IEEE-strict
        // scalar loops or AVX2+FMA, resolved once at first use. Both
        // backends accumulate k-ascending per output element, so results
        // are bit-identical to `matvec`'s dot products under the same
        // backend — and neither zero-skips: `0 · NaN` and `0 · ∞` must
        // produce NaN (IEEE-754), not silently vanish.
        (kernels::active().matmul)(&self.data, &other.data, &mut out, m, k, n);
        Tensor::from_vec(out, [m, n])
    }

    /// Transposed-left product `selfᵀ · other`, without materialising
    /// `selfᵀ`: the bits of `self.t().matmul(other)`, since each output
    /// element is the same k-ascending chain.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[k, m]` and `other` is `[k, n]`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert!(
            self.shape.rank() == 2 && other.shape.rank() == 2,
            "matmul_tn operands must be rank 2, got {} and {}",
            self.shape,
            other.shape
        );
        let (k, m) = (self.shape.rows(), self.shape.cols());
        let (k2, n) = (other.shape.rows(), other.shape.cols());
        assert_eq!(
            k, k2,
            "matmul_tn row count mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = pool::take_for_overwrite(m * n);
        (kernels::active().matmul_tn)(&self.data, &other.data, &mut out, m, k, n);
        Tensor::from_vec(out, [m, n])
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[m, k]` and `x` is a vector of length `k`.
    pub fn matvec(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            self.shape.rank(),
            2,
            "matvec lhs must be rank 2, got {}",
            self.shape
        );
        assert_eq!(
            x.shape.rank(),
            1,
            "matvec rhs must be rank 1, got {}",
            x.shape
        );
        let (m, k) = (self.shape.rows(), self.shape.cols());
        assert_eq!(
            k,
            x.len(),
            "matvec dimension mismatch: {} vs {}",
            self.shape,
            x.shape
        );
        let mut out = pool::take_zeroed(m);
        (kernels::active().matvec)(&self.data, &x.data, &mut out, m, k);
        Tensor::from_vec(out, [m])
    }

    /// Outer product of two vectors: `[m] ⊗ [n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank 1.
    pub fn outer(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.shape.rank(),
            1,
            "outer lhs must be rank 1, got {}",
            self.shape
        );
        assert_eq!(
            other.shape.rank(),
            1,
            "outer rhs must be rank 1, got {}",
            other.shape
        );
        let (m, n) = (self.len(), other.len());
        let mut out = pool::take_zeroed(m * n);
        // No zero-skip: 0 · NaN / 0 · ∞ must stay NaN (IEEE-754).
        for i in 0..m {
            let a = self.data[i];
            for j in 0..n {
                out[i * n + j] = a * other.data[j];
            }
        }
        Tensor::from_vec(out, [m, n])
    }

    /// Maximum absolute difference to another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Default for Tensor {
    /// A rank-0 zero tensor.
    fn default() -> Tensor {
        Tensor::scalar(0.0)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "{:?}", self.as_slice())
        } else {
            write!(
                f,
                "[{}, … ; {} elems]",
                self.data[..4]
                    .iter()
                    .map(|x| format!("{x:.4}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                self.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.at(0, 0), 1.0);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.row(1).as_slice(), &[4.0, 5.0, 6.0]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_construction_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], [3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], [2]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!(a.dot(&b), 13.0);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [3, 4]);
        assert_eq!(a.matmul(&Tensor::eye(4)).as_slice(), a.as_slice());
        assert_eq!(Tensor::eye(3).matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_matches_reference_kernel_all_block_shapes() {
        // The dispatched kernel must agree bit-for-bit with a naive i-k-j
        // triple loop in the active backend's per-term rounding (mul+add
        // for scalar, single-rounding `mul_add` for avx2 and avx512), across row
        // counts that hit the blocked/vector paths, the remainder rows,
        // and column counts that hit the unrolled and remainder j paths.
        let backend = kernels::active().backend;
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 4, 4),
            (5, 3, 7),
            (3, 5, 2),
            (8, 6, 9),
            (9, 2, 5),
            (6, 7, 4),
            (4, 9, 16),
            (7, 5, 19),
            (8, 16, 33),
        ] {
            let a = Tensor::from_vec(
                (0..m * k)
                    .map(|x| ((x * 37 % 17) as f32 - 8.0) * 0.37)
                    .collect(),
                [m, k],
            );
            let b = Tensor::from_vec(
                (0..k * n)
                    .map(|x| ((x * 23 % 13) as f32 - 6.0) * 0.59)
                    .collect(),
                [k, n],
            );
            let c = a.matmul(&b);
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let aik = a.as_slice()[i * k + kk];
                    for j in 0..n {
                        let term = b.as_slice()[kk * n + j];
                        let cur = expect[i * n + j];
                        expect[i * n + j] = match backend {
                            kernels::KernelBackend::Scalar => cur + aik * term,
                            kernels::KernelBackend::Avx2 | kernels::KernelBackend::Avx512 => {
                                aik.mul_add(term, cur)
                            }
                        };
                    }
                }
            }
            assert_eq!(c.as_slice(), &expect[..], "({m},{k},{n}) [{backend}]");
        }
    }

    #[test]
    fn matmul_propagates_nan_and_inf() {
        // Regression: the old kernel skipped k-terms where a[i][k] == 0,
        // silently converting 0·NaN and 0·∞ into 0 — so a NaN escaping
        // one gate was masked instead of reaching the loss. Either
        // operand's non-finite values must reach the output.
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], [2, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, 4.0, 5.0, 6.0], [2, 2]);
        let c = a.matmul(&b);
        assert!(c.at(0, 0).is_nan(), "0·NaN must propagate, got {c:?}");
        assert!(c.at(1, 0).is_nan());
        assert!(c.at(0, 1).is_finite());

        let a_nan = Tensor::from_vec(vec![f32::NAN, 0.0], [1, 2]);
        let fin = Tensor::from_vec(vec![0.0, 2.0, 3.0, 4.0], [2, 2]);
        let c = a_nan.matmul(&fin);
        assert!(c.at(0, 0).is_nan() && c.at(0, 1).is_nan());

        let zero = Tensor::from_vec(vec![0.0], [1, 1]);
        let inf = Tensor::from_vec(vec![f32::INFINITY], [1, 1]);
        assert!(zero.matmul(&inf).item().is_nan(), "0·∞ must be NaN");
        assert!(inf.matmul(&zero).item().is_nan());

        // And matmul must agree with matvec on the same poisoned data.
        let w = Tensor::from_vec(vec![0.0, 1.0, 2.0, 0.0], [2, 2]);
        let x = Tensor::from_vec(vec![f32::NAN, 1.0], [2]);
        let mv = w.matvec(&x);
        let mm = w.matmul(&x.reshape([2, 1]));
        for (a, b) in mv.as_slice().iter().zip(mm.as_slice()) {
            assert_eq!(a.is_nan(), b.is_nan(), "matmul/matvec IEEE divergence");
        }
        assert!(mv.as_slice()[0].is_nan(), "0·NaN row must be NaN");
    }

    #[test]
    fn outer_propagates_nan_through_zero() {
        let a = Tensor::from_vec(vec![0.0, 1.0], [2]);
        let b = Tensor::from_vec(vec![f32::NAN, 2.0], [2]);
        let o = a.outer(&b);
        assert!(o.at(0, 0).is_nan());
        assert!(o.at(1, 1) == 2.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0, 0.0, 1.0], [2, 3]);
        let x = Tensor::from_vec(vec![2.0, 1.0, -1.0], [3]);
        let mv = a.matvec(&x);
        let mm = a.matmul(&x.reshape([3, 1]));
        assert_eq!(mv.as_slice(), mm.as_slice());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [2, 3]);
        let att = a.t().t();
        assert_eq!(att.shape(), a.shape());
        assert_eq!(att.as_slice(), a.as_slice());
    }

    #[test]
    fn transpose_places_every_element_across_tile_edges() {
        // Whole 8×8 tiles, ragged right and bottom edges, and shapes too
        // small for any tile; recycled buffers must be fully overwritten.
        for &(r, c) in &[
            (1, 1),
            (3, 5),
            (8, 8),
            (9, 17),
            (27, 400),
            (400, 120),
            (16, 7),
        ] {
            let a = Tensor::from_vec((0..r * c).map(|x| x as f32 + 1.0).collect(), [r, c]);
            let at = a.t();
            assert_eq!(at.shape().dims(), &[c, r]);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(at.at(j, i), a.at(i, j), "[{r},{c}] at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn outer_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0], [3]);
        let o = a.outer(&b);
        assert_eq!(o.shape().dims(), &[2, 3]);
        assert_eq!(o.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn copy_on_write_isolation() {
        let a = Tensor::zeros([3]);
        let mut b = a.clone();
        b.make_mut()[0] = 9.0;
        assert_eq!(a.as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(b.as_slice(), &[9.0, 0.0, 0.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones([2]);
        let b = Tensor::from_vec(vec![2.0, 3.0], [2]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert!((t.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn debug_never_empty() {
        assert!(!format!("{:?}", Tensor::zeros([0])).is_empty());
        assert!(!format!("{:?}", Tensor::zeros([100])).is_empty());
    }
}
