//! Basic learnable layers: embeddings and linear maps.

use rand::rngs::StdRng;

use ccsa_tensor::Var;

use crate::init;
use crate::param::{Ctx, Params};

/// A learnable embedding table: node-kind ID → λ-dimensional vector.
///
/// This is the paper's §IV-B "embedding lookup structure": randomly
/// initialised, tuned by backpropagation through the scatter-add of
/// [`ccsa_tensor::Tape::gather`].
#[derive(Debug, Clone)]
pub struct Embedding {
    name: String,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a `[vocab, dim]` table under `name`.
    pub fn new(
        name: impl Into<String>,
        vocab: usize,
        dim: usize,
        params: &mut Params,
        rng: &mut StdRng,
    ) -> Embedding {
        let name = name.into();
        params.insert(&name, init::uniform([vocab, dim].into(), 0.25, rng));
        Embedding { name, vocab, dim }
    }

    /// Embedding dimensionality λ.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The `[vocab, dim]` table itself, bound on `ctx`.
    pub(crate) fn table<'t>(&self, ctx: &Ctx<'t, '_>) -> Var<'t> {
        ctx.param(&self.name)
    }

    /// Looks up rows for `ids`, producing a `[len(ids), dim]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of vocabulary range.
    pub fn lookup<'t>(&self, ctx: &Ctx<'t, '_>, ids: &[u16]) -> Var<'t> {
        let indices: Vec<usize> = ids.iter().map(|&k| k as usize).collect();
        ctx.tape.gather(self.table(ctx), indices)
    }
}

/// A dense affine layer `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: String,
    b: String,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers `[out, in]` weights and `[out]` bias under `name.w` /
    /// `name.b`.
    pub fn new(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        params: &mut Params,
        rng: &mut StdRng,
    ) -> Linear {
        let w = format!("{name}.w");
        let b = format!("{name}.b");
        params.insert(&w, init::xavier(out_dim, in_dim, rng));
        params.insert(&b, ccsa_tensor::Tensor::zeros([out_dim]));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The `[out, in]` weight matrix as stored in `params`.
    pub fn weight<'p>(&self, params: &'p Params) -> &'p ccsa_tensor::Tensor {
        params.get(&self.w)
    }

    /// Applies to a single vector: `[in] → [out]`.
    pub fn forward<'t>(&self, ctx: &Ctx<'t, '_>, x: Var<'t>) -> Var<'t> {
        ctx.param(&self.w).affine(x, ctx.param(&self.b))
    }

    /// Applies to a batch of row vectors: `[n, in] → [n, out]`, computed as
    /// `X·Wᵀ + b` with weights stored `[out, in]`.
    pub fn forward_rows<'t>(&self, ctx: &Ctx<'t, '_>, x: Var<'t>) -> Var<'t> {
        x.matmul_nt(ctx.param(&self.w))
            .add_row_broadcast(ctx.param(&self.b))
    }

    /// Tape-free inference: writes `W·x + b` into `out` through the
    /// dispatched kernels — the same matvec-then-bias-add chain
    /// [`Linear::forward`] records, so the result is bit-identical to
    /// the tape path. No tape, no gradients, and (given a warmed buffer
    /// pool upstream) no allocations: this is the warm-serving
    /// classifier head.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == in_dim` and `out.len() == out_dim`.
    pub fn forward_into(&self, params: &Params, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim, "forward_into input width");
        assert_eq!(out.len(), self.out_dim, "forward_into output width");
        let w = params.get(&self.w);
        let b = params.get(&self.b);
        out.fill(0.0);
        (ccsa_tensor::kernels::active().matvec)(w.as_slice(), x, out, self.out_dim, self.in_dim);
        for (o, &bv) in out.iter_mut().zip(b.as_slice()) {
            *o += bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsa_tensor::{Tape, Tensor};
    use rand::SeedableRng;

    #[test]
    fn embedding_lookup_shapes_and_grads() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        let emb = Embedding::new("emb", 10, 4, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let rows = emb.lookup(&ctx, &[1, 7, 1]);
        assert_eq!(rows.value().shape().dims(), &[3, 4]);
        let grads = tape.backward(rows.sum());
        let store = ctx.grads(&grads);
        let g = store.get("emb").unwrap();
        // Row 1 used twice → gradient 2, row 7 once → 1, others 0.
        assert_eq!(g.at(1, 0), 2.0);
        assert_eq!(g.at(7, 0), 1.0);
        assert_eq!(g.at(0, 0), 0.0);
    }

    #[test]
    fn linear_vector_and_batch_agree() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(4);
        let lin = Linear::new("l", 3, 2, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let x = tape.leaf(Tensor::from_vec(vec![0.5, -1.0, 2.0], [3]));
        let single = lin.forward(&ctx, x);
        let batch_in = tape.leaf(Tensor::from_vec(vec![0.5, -1.0, 2.0], [1, 3]));
        let batch = lin.forward_rows(&ctx, batch_in);
        let a = single.value();
        let b = batch.value();
        assert_eq!(a.len(), 2);
        for j in 0..2 {
            assert!((a.as_slice()[j] - b.at(0, j)).abs() < 1e-5);
        }
    }

    #[test]
    fn batched_linear_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = crate::init::xavier(3, 4, &mut rng);
        let b = crate::init::uniform([3].into(), 0.1, &mut rng);
        let x = crate::init::uniform([2, 4].into(), 1.0, &mut rng);
        let report = ccsa_tensor::grad_check(&[w, b, x], 1e-2, |_tape, vars| {
            ccsa_tensor::TapeScalar(
                vars[2]
                    .matmul_nt(vars[0])
                    .add_row_broadcast(vars[1])
                    .tanh()
                    .sum(),
            )
        });
        assert!(report.passes(2e-2), "{report:?}");
    }
}
