//! Dense `f32` tensors and tape-based reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate of the CCSA workspace. The paper's
//! models (child-sum tree-LSTMs, GCNs, linear classifiers) were originally
//! built on PyTorch; here we provide the minimal but complete set of
//! differentiable operations those architectures need, implemented from
//! scratch:
//!
//! * [`Tensor`] — an immutable, cheaply cloneable (`Arc`-backed), row-major
//!   `f32` tensor of rank 0, 1 or 2.
//! * [`Tape`] / [`Var`] — a dynamic computation graph ("tape") recording
//!   every operation, with [`Tape::backward`] producing gradients for every
//!   recorded variable. Dynamic graphs are essential here because every AST
//!   has a different shape, so the tree-LSTM circuit differs per example.
//! * [`grad_check`] — central-finite-difference gradient verification used
//!   throughout the test suite.
//! * [`kernels`] — the explicit SIMD layer underneath it all: blocked
//!   scalar reference kernels plus AVX2+FMA and AVX-512 implementations
//!   of matmul / matvec / segment-sum row accumulation, and the
//!   sigmoid / tanh slice kernels (one polynomial `exp`, the same bits
//!   on every backend), resolved once at first use via runtime feature
//!   detection (`CCSA_KERNEL=scalar|avx2|avx512` overrides, strictly:
//!   a value the host cannot honor is an error, not a fall-back).
//!
//! # Example
//!
//! ```
//! use ccsa_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let w = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
//! let x = tape.leaf(Tensor::from_vec(vec![0.5, -1.0], [2]));
//! let y = w.matvec(x).tanh().sum();
//! let grads = tape.backward(y);
//! assert_eq!(grads.get(w).shape().dims(), &[2, 2]);
//! ```

mod grad_check;
pub mod kernels;
pub mod par;
pub mod pool;
mod shape;
mod tape;
mod tensor;

pub use grad_check::{grad_check, GradCheckReport, TapeScalar};
pub use kernels::{KernelBackend, Kernels};
pub use pool::PoolStats;
pub use shape::Shape;
pub use tape::{Adjacency, Gradients, PassInput, PassSchedule, Tape, Var};
pub use tensor::Tensor;
