//! The comparative model: shared encoder F + concatenation + classifier C
//! (§III-A of the paper).
//!
//! Both programs of a pair run through the *same* deep feature extractor
//! `F : P → Z`; their latent codes are concatenated (`z̄ᵢⱼ = [zᵢ, zⱼ]`,
//! dimension 2d) and a single fully connected layer with sigmoid produces
//! the probability that the first program is the slower one.

use rand::rngs::StdRng;

use ccsa_cppast::AstGraph;
use ccsa_nn::gcn::{GcnConfig, GcnEncoder};
use ccsa_nn::layers::Linear;
use ccsa_nn::param::{Ctx, Params};
use ccsa_nn::treelstm::{TreeLstmConfig, TreeLstmEncoder};
use ccsa_tensor::{Tape, Tensor, Var};

/// Which representation learner backs the comparator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncoderConfig {
    /// Child-sum tree-LSTM (the paper's proposal).
    TreeLstm(TreeLstmConfig),
    /// Graph-convolution baseline.
    Gcn(GcnConfig),
}

impl EncoderConfig {
    /// A human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            EncoderConfig::TreeLstm(_) => "tree-LSTM",
            EncoderConfig::Gcn(_) => "GCN",
        }
    }
}

/// The instantiated encoder.
#[derive(Debug, Clone)]
enum Encoder {
    /// Tree-LSTM instance.
    TreeLstm(TreeLstmEncoder),
    /// GCN instance.
    Gcn(GcnEncoder),
}

impl Encoder {
    /// Encodes one AST into its latent code vector, node by node: the
    /// oracle the fused [`Encoder::encode_batch`] is checked against.
    #[cfg(test)]
    fn encode<'t>(&self, ctx: &Ctx<'t, '_>, graph: &AstGraph) -> Var<'t> {
        match self {
            Encoder::TreeLstm(e) => e.encode(ctx, graph),
            Encoder::Gcn(e) => e.encode(ctx, graph),
        }
    }

    /// Batched forward entry point: level-fused across every graph in
    /// the batch — one matmul per level per gate instead of per-node
    /// matvecs, parameters bound once.
    fn encode_batch<'t>(&self, ctx: &Ctx<'t, '_>, graphs: &[&AstGraph]) -> Vec<Var<'t>> {
        match self {
            Encoder::TreeLstm(e) => e.encode_batch(ctx, graphs),
            Encoder::Gcn(e) => e.encode_batch(ctx, graphs),
        }
    }

    /// [`Encoder::encode_batch`] plus fused-width telemetry.
    fn encode_batch_with_stats<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        graphs: &[&AstGraph],
    ) -> (Vec<Var<'t>>, ccsa_nn::FusedStats) {
        match self {
            Encoder::TreeLstm(e) => e.encode_batch_with_stats(ctx, graphs),
            Encoder::Gcn(e) => e.encode_batch_with_stats(ctx, graphs),
        }
    }

    /// [`Encoder::encode_batch_with_stats`] drawing scheduling buffers
    /// from a caller-owned [`ccsa_nn::SchedBufs`] — the steady-state
    /// serving entry (see [`ccsa_nn::EncodeScratch`]).
    fn encode_batch_with_stats_in<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        graphs: &[&AstGraph],
        sched: &mut ccsa_nn::SchedBufs,
    ) -> (Vec<Var<'t>>, ccsa_nn::FusedStats) {
        match self {
            Encoder::TreeLstm(e) => e.encode_batch_with_stats_in(ctx, graphs, sched),
            Encoder::Gcn(e) => e.encode_batch_with_stats_in(ctx, graphs, sched),
        }
    }

    /// Latent dimensionality d.
    fn output_dim(&self) -> usize {
        match self {
            Encoder::TreeLstm(e) => e.output_dim(),
            Encoder::Gcn(e) => e.output_dim(),
        }
    }
}

/// Encoder + pairwise classifier.
#[derive(Debug, Clone)]
pub struct Comparator {
    /// The shared feature extractor.
    encoder: Encoder,
    classifier: Linear,
    config: EncoderConfig,
}

impl Comparator {
    /// Builds the model and registers all parameters.
    pub fn new(config: &EncoderConfig, params: &mut Params, rng: &mut StdRng) -> Comparator {
        let encoder = match config {
            EncoderConfig::TreeLstm(c) => Encoder::TreeLstm(TreeLstmEncoder::new(c, params, rng)),
            EncoderConfig::Gcn(c) => Encoder::Gcn(GcnEncoder::new(c, params, rng)),
        };
        let d = encoder.output_dim();
        // "This classifier's number of parameters is 2·d": a single
        // fully connected sigmoid unit over the concatenated codes.
        let classifier = Linear::new("cls", 2 * d, 1, params, rng);
        Comparator {
            encoder,
            classifier,
            config: config.clone(),
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The raw logit that program `a` is slower than program `b`, through
    /// the per-node encoder on a recording tape: the oracle for
    /// [`Comparator::logit_batch`] and [`Comparator::predict_from_codes`].
    #[cfg(test)]
    pub fn logit<'t>(&self, ctx: &Ctx<'t, '_>, a: &AstGraph, b: &AstGraph) -> Var<'t> {
        let za = self.encoder.encode(ctx, a);
        let zb = self.encoder.encode(ctx, b);
        let zab = ctx.tape.concat(&[za, zb]);
        self.classifier.forward(ctx, zab)
    }

    /// Batched training forward: one logit per pair, with *all* graphs
    /// of the batch — both sides of every pair — encoded in a single
    /// level-fused encoder call on the shared tape, so same-level nodes
    /// across the whole pair batch coalesce into the same per-level
    /// matmuls. The classifier then runs once as a
    /// `[pairs, 2d]` batched linear.
    ///
    /// Each returned logit is a one-element tensor that agrees with the
    /// per-pair, per-node forward bit-for-bit (the fused encoder
    /// reproduces the sequential accumulation order), which the trainer
    /// parity tests pin down.
    pub fn logit_batch<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        pairs: &[(&AstGraph, &AstGraph)],
    ) -> Vec<Var<'t>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut graphs: Vec<&AstGraph> = Vec::with_capacity(pairs.len() * 2);
        for &(a, b) in pairs {
            graphs.push(a);
            graphs.push(b);
        }
        let codes = self.encoder.encode_batch(ctx, &graphs);
        let zabs: Vec<Var<'t>> = codes
            .chunks_exact(2)
            .map(|pair| ctx.tape.concat(&[pair[0], pair[1]]))
            .collect();
        let stacked = ctx.tape.stack(&zabs);
        let logits = self.classifier.forward_rows(ctx, stacked);
        (0..pairs.len()).map(|p| logits.row(p)).collect()
    }

    /// Scalar BCE training loss for one labelled pair.
    #[cfg(test)]
    pub fn loss<'t>(&self, ctx: &Ctx<'t, '_>, a: &AstGraph, b: &AstGraph, label: f32) -> Var<'t> {
        self.logit(ctx, a, b).sum().bce_with_logits(label)
    }

    /// Probability that `a` is the slower program, re-encoding both.
    #[cfg(test)]
    pub fn predict(&self, params: &Params, a: &AstGraph, b: &AstGraph) -> f32 {
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, params);
        let z = self.logit(&ctx, a, b).value().item();
        sigmoid(z)
    }

    /// Encodes a batch of graphs into concrete latent-code tensors on one
    /// shared tape (inference only — no gradients). The serving engine
    /// caches these codes by canonical AST hash and feeds them back
    /// through [`Comparator::predict_from_codes`], skipping the encoder
    /// entirely on cache hits.
    pub fn encode_codes(&self, params: &Params, graphs: &[&AstGraph]) -> Vec<Tensor> {
        self.encode_codes_with_stats(params, graphs).0
    }

    /// [`Comparator::encode_codes`] plus level-fusion telemetry: how many
    /// fused level matmuls the pass ran and how many node rows they
    /// covered. The serving pool aggregates this into its `stats` output
    /// so the fused width is observable under live traffic.
    pub fn encode_codes_with_stats(
        &self,
        params: &Params,
        graphs: &[&AstGraph],
    ) -> (Vec<Tensor>, ccsa_nn::FusedStats) {
        let tape = Tape::inference();
        let ctx = Ctx::new(&tape, params);
        let (codes, stats) = self.encoder.encode_batch_with_stats(&ctx, graphs);
        (codes.into_iter().map(|v| v.value()).collect(), stats)
    }

    /// [`Comparator::encode_codes_with_stats`] running on a worker-owned
    /// [`ccsa_nn::EncodeScratch`]: the tape, its weight transposes and
    /// the scheduling buffers are recycled batch to batch, and a warmed
    /// worker draws every tensor buffer from the
    /// [pool](ccsa_tensor::pool). Results are identical to the fresh-
    /// tape path — the scratch only changes where memory comes from.
    pub fn encode_codes_with_scratch(
        &self,
        params: &Params,
        graphs: &[&AstGraph],
        scratch: &mut ccsa_nn::EncodeScratch,
    ) -> (Vec<Tensor>, ccsa_nn::FusedStats) {
        scratch.reset();
        let (tape, sched) = scratch.parts();
        let ctx = Ctx::new(tape, params);
        let (codes, stats) = self.encoder.encode_batch_with_stats_in(&ctx, graphs, sched);
        (codes.into_iter().map(|v| v.value()).collect(), stats)
    }

    /// Inference from precomputed latent codes: runs only the classifier
    /// head (2·d weights — orders of magnitude cheaper than the encoder).
    ///
    /// # Panics
    ///
    /// Panics if a code's length differs from the encoder's output
    /// dimensionality.
    pub fn predict_from_codes(&self, params: &Params, za: &Tensor, zb: &Tensor) -> f32 {
        let d = self.encoder.output_dim();
        assert_eq!(za.len(), d, "first latent code has wrong dimensionality");
        assert_eq!(zb.len(), d, "second latent code has wrong dimensionality");
        // Tape-free: concatenate into a pooled scratch buffer and run
        // the classifier head through `Linear::forward_into`. The
        // arithmetic chain (concat → matvec → bias add → sigmoid) is
        // exactly what the old tape path recorded, so probabilities are
        // bit-identical — and the warm serving path performs zero heap
        // allocations once the pool is primed.
        let mut zab = ccsa_tensor::pool::take_cap(2 * d);
        zab.extend_from_slice(za.as_slice());
        zab.extend_from_slice(zb.as_slice());
        let mut logit = [0.0f32];
        self.classifier.forward_into(params, &zab, &mut logit);
        ccsa_tensor::pool::put(zab);
        sigmoid(logit[0])
    }

    /// The ranking score `s(z) = (w₁ − w₂)·z` of one latent code, where
    /// `w₁` and `w₂` are the halves of the `[1, 2d]` classifier weight
    /// that read the first and the second code. The head is
    /// `logit(a, b) = w₁·z_a + w₂·z_b + c` and σ is monotone, so the
    /// symmetrised probability that `a` is slower exceeds ½ exactly when
    /// `s(z_a) > s(z_b)`: ascending score is fastest first, and the order
    /// is transitive by construction.
    ///
    /// The sum runs over `k` ascending in plain `f64` arithmetic, so every
    /// kernel backend gives the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the code's length differs from the encoder's output
    /// dimensionality.
    pub fn rank_score(&self, params: &Params, z: &Tensor) -> f64 {
        let d = self.encoder.output_dim();
        assert_eq!(z.len(), d, "latent code has wrong dimensionality");
        let (w1, w2) = self.classifier.weight(params).as_slice().split_at(d);
        w1.iter()
            .zip(w2)
            .zip(z.as_slice())
            .fold(0.0, |s, ((&a, &b), &x)| {
                s + (a as f64 - b as f64) * x as f64
            })
    }
}

fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsa_cppast::parse_program;
    use ccsa_nn::treelstm::Direction;
    use rand::SeedableRng;

    fn graph(src: &str) -> AstGraph {
        AstGraph::from_program(&parse_program(src).unwrap())
    }

    fn tiny_tree_config() -> EncoderConfig {
        EncoderConfig::TreeLstm(TreeLstmConfig {
            embed_dim: 6,
            hidden: 6,
            layers: 1,
            direction: Direction::Uni,
            sigmoid_candidate: false,
        })
    }

    #[test]
    fn prediction_is_probability() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Comparator::new(&tiny_tree_config(), &mut params, &mut rng);
        let a = graph("int main() { return 0; }");
        let b = graph("int main() { for (int i = 0; i < 5; i++) { } return 0; }");
        let p = model.predict(&params, &a, &b);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn loss_decreases_under_gradient_steps() {
        // One pair, repeated Adam steps: the BCE loss must fall — the whole
        // model is differentiable end to end.
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(2);
        let model = Comparator::new(&tiny_tree_config(), &mut params, &mut rng);
        let a = graph("int main() { return 0; }");
        let b = graph("int main() { while (true) { break; } return 0; }");
        let mut opt = ccsa_nn::optim::Adam::new(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..25 {
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, &params);
            let loss = model.loss(&ctx, &a, &b, 1.0);
            last = loss.value().item() as f64;
            first.get_or_insert(last);
            let grads = tape.backward(loss);
            let store = ctx.grads(&grads);
            opt.step(&mut params, &store);
        }
        let first = first.unwrap();
        assert!(last < first * 0.5, "loss did not fall: {first} → {last}");
    }

    #[test]
    fn gcn_variant_works_end_to_end() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(3);
        let config = EncoderConfig::Gcn(GcnConfig::small(5));
        let model = Comparator::new(&config, &mut params, &mut rng);
        let a = graph("int main() { return 1; }");
        let b = graph("int main() { return 2 * 3; }");
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let loss = model.loss(&ctx, &a, &b, 0.0);
        assert!(loss.value().item().is_finite());
        let grads = tape.backward(loss);
        assert!(!ctx.grads(&grads).is_empty());
    }

    #[test]
    fn predict_from_cached_codes_matches_direct_prediction() {
        // The serving cache depends on this identity: encode once, reuse
        // the codes, and the classifier head must produce the exact same
        // probability as a full forward pass.
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(9);
        let model = Comparator::new(&tiny_tree_config(), &mut params, &mut rng);
        let a = graph("int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; return s; }");
        let b = graph("int main() { return 42; }");
        let direct_ab = model.predict(&params, &a, &b);
        let direct_ba = model.predict(&params, &b, &a);
        let codes = model.encode_codes(&params, &[&a, &b]);
        assert_eq!(codes.len(), 2);
        let cached_ab = model.predict_from_codes(&params, &codes[0], &codes[1]);
        let cached_ba = model.predict_from_codes(&params, &codes[1], &codes[0]);
        assert_eq!(direct_ab.to_bits(), cached_ab.to_bits());
        assert_eq!(direct_ba.to_bits(), cached_ba.to_bits());
    }

    #[test]
    fn rank_score_order_is_the_symmetrised_head_order() {
        // Over every pair of a small set, with both encoders: the score
        // difference is the logit difference, and whichever program the
        // symmetrised head calls slower has the larger score.
        let sources = [
            "int main() { return 0; }",
            "int main() { for (int i = 0; i < 7; i++) { } return 1; }",
            "int f(int x) { return x * x; } int main() { return f(4); }",
            "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; return s; }",
        ];
        let graphs: Vec<AstGraph> = sources.iter().map(|s| graph(s)).collect();
        let refs: Vec<&AstGraph> = graphs.iter().collect();
        for config in [tiny_tree_config(), EncoderConfig::Gcn(GcnConfig::small(5))] {
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(31);
            let model = Comparator::new(&config, &mut params, &mut rng);
            let codes = model.encode_codes(&params, &refs);
            let scores: Vec<f64> = codes.iter().map(|z| model.rank_score(&params, z)).collect();
            let logit = |p: f32| (p as f64 / (1.0 - p as f64)).ln();
            for a in 0..codes.len() {
                for b in (a + 1)..codes.len() {
                    let p_ab = model.predict_from_codes(&params, &codes[a], &codes[b]);
                    let p_ba = model.predict_from_codes(&params, &codes[b], &codes[a]);
                    let gap = scores[a] - scores[b];
                    assert!(
                        (logit(p_ab) - logit(p_ba) - gap).abs() < 1e-4,
                        "{} pair ({a}, {b})",
                        config.name()
                    );
                    let sym = 0.5 * (p_ab as f64 + 1.0 - p_ba as f64);
                    if (sym - 0.5).abs() > 1e-6 {
                        assert_eq!(sym > 0.5, gap > 0.0, "{} pair ({a}, {b})", config.name());
                    }
                }
            }
        }
    }

    #[test]
    fn logit_batch_matches_per_pair_logit() {
        // The fused training forward must sit on the same loss surface:
        // per-pair logits computed by one batched encode + one batched
        // classifier matmul agree with the sequential per-pair path.
        for config in [
            tiny_tree_config(),
            EncoderConfig::TreeLstm(TreeLstmConfig {
                embed_dim: 5,
                hidden: 4,
                layers: 3,
                direction: Direction::Alternating,
                sigmoid_candidate: false,
            }),
            EncoderConfig::Gcn(GcnConfig::small(5)),
        ] {
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(17);
            let model = Comparator::new(&config, &mut params, &mut rng);
            let graphs = [
                graph("int main() { return 0; }"),
                graph("int main() { for (int i = 0; i < 7; i++) { } return 1; }"),
                graph("int f(int x) { return x * x; } int main() { return f(4); }"),
            ];
            let pairs: Vec<(&AstGraph, &AstGraph)> = vec![
                (&graphs[0], &graphs[1]),
                (&graphs[2], &graphs[0]),
                (&graphs[1], &graphs[1]),
            ];
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, &params);
            let batched = model.logit_batch(&ctx, &pairs);
            assert_eq!(batched.len(), pairs.len());
            for (p, (a, b)) in pairs.iter().enumerate() {
                let single = model.logit(&ctx, a, b).value().item();
                let fused = batched[p].value().item();
                assert!(
                    (single - fused).abs() <= 1e-6,
                    "{} pair {p}: {single} vs {fused}",
                    config.name()
                );
            }
        }
    }

    #[test]
    fn logit_batch_empty_is_empty() {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(1);
        let model = Comparator::new(&tiny_tree_config(), &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        assert!(model.logit_batch(&ctx, &[]).is_empty());
    }

    #[test]
    fn classifier_dimension_matches_paper() {
        // d = 6 → classifier weight [1, 12] = 2·d parameters (+1 bias).
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(4);
        let _model = Comparator::new(&tiny_tree_config(), &mut params, &mut rng);
        assert_eq!(params.get("cls.w").shape().dims(), &[1, 12]);
        assert_eq!(params.get("cls.b").shape().dims(), &[1]);
    }
}
