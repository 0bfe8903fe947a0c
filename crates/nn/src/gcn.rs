//! Graph Convolutional Network baseline (§V-B of the paper).
//!
//! A stack of Kipf–Welling graph convolutions over the *undirected* AST
//! edge set with self-loops: `H^{l+1} = ReLU(Â · H^l · W_lᵀ + b_l)`, where
//! `Â = D^{-1/2}(A+I)D^{-1/2}`. The code vector is the mean of the final
//! node states ("the GCN applies semi-supervised node classification …
//! to help decide the type for the whole AST" — a mean readout over node
//! states, passed to the same classifier as the tree-LSTM).
//!
//! The key contrast the paper draws: GCN layers mix information over
//! *neighbourhoods* symmetrically, discarding the parent/child asymmetry
//! the tree-LSTM exploits — which is why its accuracy tops out lower
//! (68.5 % vs 73 % on the combined dataset).

use std::sync::Arc;

use rand::rngs::StdRng;

use ccsa_cppast::AstGraph;
use ccsa_tensor::{Adjacency, Var};

use crate::layers::{Embedding, Linear};
use crate::param::{Ctx, Params};

/// Per-layer nonlinearity of the GCN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit (Kipf & Welling's choice; the default).
    Relu,
    /// Hyperbolic tangent — smooth, used by gradient-checking tests and a
    /// common alternative in shallow GCNs.
    Tanh,
}

/// Hyper-parameters of the GCN baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcnConfig {
    /// Node-embedding dimensionality.
    pub embed_dim: usize,
    /// Hidden width of every convolution layer.
    pub hidden: usize,
    /// Number of stacked graph convolutions (paper sweeps 1–16; Optuna
    /// picked 6).
    pub layers: usize,
    /// Per-layer nonlinearity.
    pub activation: Activation,
}

impl GcnConfig {
    /// The paper's tuned configuration: 6 layers, hidden size 117.
    pub fn paper() -> GcnConfig {
        GcnConfig {
            embed_dim: 120,
            hidden: 117,
            layers: 6,
            activation: Activation::Relu,
        }
    }

    /// A small configuration for tests.
    pub fn small(hidden: usize) -> GcnConfig {
        GcnConfig {
            embed_dim: hidden,
            hidden,
            layers: 2,
            activation: Activation::Relu,
        }
    }
}

/// The GCN encoder: AST → code vector.
#[derive(Debug, Clone)]
pub struct GcnEncoder {
    config: GcnConfig,
    embedding: Embedding,
    convs: Vec<Linear>,
}

impl GcnEncoder {
    /// Registers parameters for the configured stack.
    ///
    /// # Panics
    ///
    /// Panics if `config.layers == 0`.
    pub fn new(config: &GcnConfig, params: &mut Params, rng: &mut StdRng) -> GcnEncoder {
        assert!(config.layers > 0, "encoder needs at least one layer");
        let embedding = Embedding::new(
            "gcn.emb",
            ccsa_cppast::VOCAB_SIZE,
            config.embed_dim,
            params,
            rng,
        );
        let mut convs = Vec::with_capacity(config.layers);
        let mut in_dim = config.embed_dim;
        for l in 0..config.layers {
            convs.push(Linear::new(
                &format!("gcn.l{l}"),
                in_dim,
                config.hidden,
                params,
                rng,
            ));
            in_dim = config.hidden;
        }
        GcnEncoder {
            config: config.clone(),
            embedding,
            convs,
        }
    }

    /// The dimensionality of the produced code vector.
    pub fn output_dim(&self) -> usize {
        self.config.hidden
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// Builds the normalised adjacency for an AST (cacheable per tree).
    pub fn adjacency(graph: &AstGraph) -> Arc<Adjacency> {
        Arc::new(Adjacency::normalized_from_edges(
            graph.node_count(),
            &graph.edges(),
        ))
    }

    /// Encodes an AST into its code vector.
    pub fn encode<'t>(&self, ctx: &Ctx<'t, '_>, graph: &AstGraph) -> Var<'t> {
        self.encode_with_adjacency(ctx, graph, GcnEncoder::adjacency(graph))
    }

    /// Batched forward entry point: the whole mini-batch is encoded as
    /// one block-diagonal disjoint-union graph — a single embedding
    /// gather, one fused spmm + linear per layer over every node of
    /// every tree, and a per-graph segment-mean readout. Normalised
    /// adjacency is component-local, so the union is exactly the
    /// block-diagonal of the per-graph operators and the fused result
    /// matches [`GcnEncoder::encode`] row for row.
    pub fn encode_batch<'t>(&self, ctx: &Ctx<'t, '_>, graphs: &[&AstGraph]) -> Vec<Var<'t>> {
        self.encode_batch_with_stats(ctx, graphs).0
    }

    /// [`GcnEncoder::encode_batch`] plus fused-width telemetry.
    pub fn encode_batch_with_stats<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        graphs: &[&AstGraph],
    ) -> (Vec<Var<'t>>, crate::FusedStats) {
        self.encode_batch_with_stats_in(ctx, graphs, &mut crate::SchedBufs::default())
    }

    /// [`GcnEncoder::encode_batch_with_stats`] drawing reusable buffers
    /// from a caller-owned [`crate::SchedBufs`] (the steady-state
    /// serving entry; see [`crate::EncodeScratch`]). The adjacency
    /// matrix is still built per batch — it is structural, not a flat
    /// buffer, and the GCN path is not the serving default.
    pub fn encode_batch_with_stats_in<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        graphs: &[&AstGraph],
        sched: &mut crate::SchedBufs,
    ) -> (Vec<Var<'t>>, crate::FusedStats) {
        let mut stats = crate::FusedStats::default();
        if graphs.is_empty() {
            return (Vec::new(), stats);
        }
        sched.clear();
        let mut offsets = Vec::with_capacity(graphs.len() + 1);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut total = 0usize;
        for g in graphs {
            offsets.push(total);
            sched
                .pass
                .kinds
                .extend((0..g.node_count() as u32).map(|ix| g.kind_id(ix)));
            edges.extend(
                g.edges()
                    .iter()
                    .map(|&(a, b)| (a + total as u32, b + total as u32)),
            );
            total += g.node_count();
        }
        offsets.push(total);
        let adj = Arc::new(Adjacency::normalized_from_edges(total, &edges));

        let mut h = self.embedding.lookup(ctx, &sched.pass.kinds);
        for conv in &self.convs {
            let mixed = ctx.tape.spmm(Arc::clone(&adj), h);
            let pre = conv.forward_rows(ctx, mixed);
            h = match self.config.activation {
                Activation::Relu => pre.relu(),
                Activation::Tanh => pre.tanh(),
            };
            stats.levels += 1;
            stats.rows += total as u64;
        }

        // Per-graph mean readout: segment sums scaled by 1/n_g (a
        // constant leaf — no gradient flows to it).
        let sums = ctx.tape.segment_sum(h, offsets.clone());
        let mut inv = Vec::with_capacity(graphs.len() * self.config.hidden);
        for g in graphs {
            let scale = 1.0 / g.node_count().max(1) as f32;
            inv.extend(std::iter::repeat_n(scale, self.config.hidden));
        }
        let inv = ctx.tape.leaf(ccsa_tensor::Tensor::from_vec(
            inv,
            [graphs.len(), self.config.hidden],
        ));
        let means = sums.mul(inv);
        ((0..graphs.len()).map(|g| means.row(g)).collect(), stats)
    }

    /// Like [`GcnEncoder::encode`] with a precomputed adjacency (avoids
    /// rebuilding Â every epoch for the same tree).
    pub fn encode_with_adjacency<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        graph: &AstGraph,
        adj: Arc<Adjacency>,
    ) -> Var<'t> {
        let ids: Vec<u16> = (0..graph.node_count() as u32)
            .map(|ix| graph.kind_id(ix))
            .collect();
        let mut h = self.embedding.lookup(ctx, &ids);
        for conv in &self.convs {
            let mixed = ctx.tape.spmm(Arc::clone(&adj), h);
            let pre = conv.forward_rows(ctx, mixed);
            h = match self.config.activation {
                Activation::Relu => pre.relu(),
                Activation::Tanh => pre.tanh(),
            };
        }
        h.mean_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsa_cppast::parse_program;
    use ccsa_tensor::Tape;
    use rand::SeedableRng;

    fn graph(src: &str) -> AstGraph {
        AstGraph::from_program(&parse_program(src).unwrap())
    }

    fn encode(config: &GcnConfig, src: &str, seed: u64) -> Vec<f32> {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = GcnEncoder::new(config, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        enc.encode(&ctx, &graph(src)).value().as_slice().to_vec()
    }

    #[test]
    fn output_is_finite_and_sized() {
        for layers in [1, 2, 6] {
            let config = GcnConfig {
                embed_dim: 7,
                hidden: 5,
                layers,
                activation: Activation::Relu,
            };
            let v = encode(&config, "int main() { return 1 + 2; }", 3);
            assert_eq!(v.len(), 5);
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn distinguishes_structures() {
        let config = GcnConfig::small(6);
        let a = encode(&config, "int main() { return 0; }", 1);
        let b = encode(
            &config,
            "int main() { while (true) { break; } return 0; }",
            1,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn gradients_reach_embedding_and_all_layers() {
        let config = GcnConfig {
            embed_dim: 4,
            hidden: 4,
            layers: 3,
            activation: Activation::Relu,
        };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(5);
        let enc = GcnEncoder::new(&config, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let g = graph("int main() { int x = 2; return x * x; }");
        let loss = enc.encode(&ctx, &g).sum();
        let grads = tape.backward(loss);
        let store = ctx.grads(&grads);
        // ReLU can zero a row, but with 3 layers every parameter should
        // appear in the graph (gradient present, possibly small).
        for name in params.names() {
            assert!(store.get(name).is_some(), "no gradient for {name}");
        }
    }

    #[test]
    fn gradcheck_whole_gcn() {
        // Checked with the smooth tanh activation: ReLU's kink makes
        // central differences unreliable at f32 precision for the many
        // near-zero pre-activations a freshly initialised net produces.
        let g = graph("int main() { return 1; }");
        let config = GcnConfig {
            embed_dim: 3,
            hidden: 3,
            layers: 2,
            activation: Activation::Tanh,
        };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(8);
        let enc = GcnEncoder::new(&config, &mut params, &mut rng);
        let tensors: Vec<ccsa_tensor::Tensor> = params.iter().map(|(_, t)| t.clone()).collect();
        let report = ccsa_tensor::grad_check(&tensors, 1e-2, |tape, vars| {
            let ctx = Ctx::with_bound(tape, &params, vars);
            ccsa_tensor::TapeScalar(enc.encode(&ctx, &g).tanh().sum())
        });
        assert!(report.passes(3e-2), "GCN gradient check failed: {report:?}");
    }

    #[test]
    fn fused_batch_matches_sequential() {
        let sources = [
            "int main() { return 1 + 2; }",
            "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; return s; }",
            "int main() { return 0; }",
        ];
        let graphs: Vec<AstGraph> = sources.iter().map(|s| graph(s)).collect();
        let refs: Vec<&AstGraph> = graphs.iter().collect();
        for activation in [Activation::Relu, Activation::Tanh] {
            let config = GcnConfig {
                embed_dim: 5,
                hidden: 4,
                layers: 3,
                activation,
            };
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(6);
            let enc = GcnEncoder::new(&config, &mut params, &mut rng);
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, &params);
            let (fused, stats) = enc.encode_batch_with_stats(&ctx, &refs);
            let sequential: Vec<_> = refs.iter().map(|g| enc.encode(&ctx, g)).collect();
            assert_eq!(stats.levels, 3);
            for (g, (f, s)) in fused.iter().zip(&sequential).enumerate() {
                let diff = f.value().max_abs_diff(&s.value());
                assert!(diff < 1e-6, "graph {g}: fused GCN diverged by {diff}");
            }
        }
    }

    #[test]
    fn fused_batch_gradients_reach_all_parameters() {
        let config = GcnConfig::small(4);
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(7);
        let enc = GcnEncoder::new(&config, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let g1 = graph("int main() { int x = 2; return x * x; }");
        let g2 = graph("int main() { return 1; }");
        let codes = enc.encode_batch(&ctx, &[&g1, &g2]);
        let loss = tape.stack(&codes).sum();
        let grads = tape.backward(loss);
        let store = ctx.grads(&grads);
        for name in params.names() {
            assert!(store.get(name).is_some(), "no fused gradient for {name}");
        }
    }

    #[test]
    fn adjacency_reuse_matches_fresh() {
        let config = GcnConfig::small(4);
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(2);
        let enc = GcnEncoder::new(&config, &mut params, &mut rng);
        let g = graph("int main() { return 3; }");
        let adj = GcnEncoder::adjacency(&g);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let fresh = enc.encode(&ctx, &g).value();
        let reused = enc.encode_with_adjacency(&ctx, &g, adj).value();
        assert_eq!(fresh.as_slice(), reused.as_slice());
    }
}
