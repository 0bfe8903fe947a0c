//! Mini-batch training and evaluation of comparators.
//!
//! Forward/backward runs on the **level-fused batched encoder**: each
//! worker shard builds one tape for its whole slice of the mini-batch
//! and encodes every graph of those pairs in a single
//! [`Comparator::logit_batch`] call, so same-level nodes across all
//! trees coalesce into one matmul per level per projection.
//!
//! Gradients are accumulated data-parallel across CPU threads (see
//! [`ccsa_nn::parallel`]) and applied with Adam + global-norm clipping.
//! Results are deterministic for a fixed seed and thread count: shard
//! gradients are summed before the optimizer step, but each shard's
//! backward sums its own rows, so the bits depend on how many shards
//! there are. A one-tape-per-pair forward lives in this module's tests
//! as the oracle: loss and every gradient agree with it to ≤ 1e-5.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ccsa_corpus::Submission;
use ccsa_cppast::AstGraph;
use ccsa_nn::optim::{Adam, GradClip};
use ccsa_nn::parallel::{parallel_batch, BatchResult};
use ccsa_nn::param::{Ctx, Params};
use ccsa_tensor::{Tape, Var};

use crate::comparator::Comparator;
use crate::metrics::EvalResult;
use crate::pair::Pair;

/// Training-loop hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the pair set.
    pub epochs: usize,
    /// Pairs per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global-norm gradient clip.
    pub clip: f32,
    /// Worker threads (`0` → auto).
    pub threads: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            epochs: 6,
            batch_size: 32,
            lr: 0.01,
            clip: 5.0,
            threads: 0,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// A minimal configuration for tests and doc examples.
    pub fn tiny(seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.02,
            clip: 5.0,
            threads: 0,
            seed,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_loss: Vec<f64>,
    /// Training accuracy per epoch.
    pub epoch_accuracy: Vec<f64>,
}

/// Trains `model` on labelled `pairs` over `subs`, updating `params` in
/// place.
pub fn train(
    model: &Comparator,
    params: &mut Params,
    subs: &[Submission],
    pairs: &[Pair],
    config: &TrainConfig,
) -> TrainReport {
    let threads = if config.threads == 0 {
        ccsa_nn::parallel::default_threads()
    } else {
        config.threads
    };
    let mut optimizer = Adam::new(config.lr);
    let clip = GradClip {
        max_norm: config.clip,
    };
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7ea1);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let mut report = TrainReport {
        epoch_loss: Vec::new(),
        epoch_accuracy: Vec::new(),
    };

    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut epoch_correct = 0usize;
        let mut epoch_count = 0usize;
        for batch_ixs in order.chunks(config.batch_size.max(1)) {
            let batch: Vec<Pair> = batch_ixs.iter().map(|&i| pairs[i]).collect();
            let shared: &Params = params;
            // Shard the batch across workers; each shard runs one fused
            // tape over all of its pairs' graphs.
            let shards: Vec<&[Pair]> = batch.chunks(batch.len().div_ceil(threads.max(1))).collect();
            let mut result = parallel_batch(&shards, threads, |shard| {
                batch_forward_backward(model, shared, subs, shard)
            });
            epoch_loss += result.loss;
            epoch_correct += result.correct;
            epoch_count += result.count;
            result.grads.scale(1.0 / batch.len().max(1) as f32);
            clip.apply(&mut result.grads);
            optimizer.step(params, &result.grads);
        }
        report
            .epoch_loss
            .push(epoch_loss / epoch_count.max(1) as f64);
        report
            .epoch_accuracy
            .push(epoch_correct as f64 / epoch_count.max(1) as f64);
    }
    report
}

/// One tape over `shard`: fused `logit_batch` forward, then
/// [`loss_backward`].
fn batch_forward_backward(
    model: &Comparator,
    params: &Params,
    subs: &[Submission],
    shard: &[Pair],
) -> BatchResult {
    let tape = Tape::new();
    let ctx = Ctx::new(&tape, params);
    let graphs: Vec<(&AstGraph, &AstGraph)> = shard
        .iter()
        .map(|pair| (&subs[pair.a].graph, &subs[pair.b].graph))
        .collect();
    let logits = model.logit_batch(&ctx, &graphs);
    loss_backward(&ctx, logits, shard)
}

/// Summed BCE loss of `logits` against `shard`'s labels and one
/// backward. The gradients are *sums* over the shard's pairs — the
/// caller divides by the full batch size.
fn loss_backward<'t>(ctx: &Ctx<'t, '_>, logits: Vec<Var<'t>>, shard: &[Pair]) -> BatchResult {
    let mut loss_sum = 0.0f64;
    let mut correct = 0usize;
    let mut losses = Vec::with_capacity(shard.len());
    for (logit, pair) in logits.into_iter().zip(shard) {
        let logit = logit.sum();
        let loss = logit.bce_with_logits(pair.label);
        loss_sum += loss.value().item() as f64;
        let predicted_slower = logit.value().item() >= 0.0;
        correct += (predicted_slower == (pair.label >= 0.5)) as usize;
        losses.push(loss);
    }
    let total = ctx.tape.add_n(&losses);
    let grads = ctx.tape.backward(total);
    BatchResult {
        grads: ctx.grads(&grads),
        loss: loss_sum,
        correct,
        count: shard.len(),
    }
}

/// Scores `pairs` with a trained model (no parameter updates).
///
/// `subs` must be the submission list the pair indices refer to — which
/// may belong to a *different problem* than the training set (cross-problem
/// generalisation, Figure 3 / Table II).
///
/// Each submission the pairs reference is encoded once, in fused batches
/// on an inference tape ([`Comparator::encode_codes`]); every pair is then
/// scored by the classifier head alone ([`Comparator::predict_from_codes`]).
pub fn evaluate(
    model: &Comparator,
    params: &Params,
    subs: &[Submission],
    pairs: &[Pair],
) -> EvalResult {
    // `slot[i]` is submission `i`'s row in `codes`, in first-reference order.
    let mut slot = vec![usize::MAX; subs.len()];
    let mut graphs: Vec<&AstGraph> = Vec::new();
    for pair in pairs {
        for ix in [pair.a, pair.b] {
            if slot[ix] == usize::MAX {
                slot[ix] = graphs.len();
                graphs.push(&subs[ix].graph);
            }
        }
    }
    let codes: Vec<_> = graphs
        .chunks(EVAL_BATCH)
        .flat_map(|batch| model.encode_codes(params, batch))
        .collect();
    let scored = pairs
        .iter()
        .map(|pair| {
            let (za, zb) = (&codes[slot[pair.a]], &codes[slot[pair.b]]);
            (model.predict_from_codes(params, za, zb), pair.label)
        })
        .collect();
    EvalResult::from_scored(scored)
}

/// Trees per fused encode in [`evaluate`]: bounds the inference tape's
/// live set, while each level's matmul still spans many trees.
const EVAL_BATCH: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::EncoderConfig;
    use crate::pair::{sample_pairs, split_indices, PairConfig};
    use ccsa_corpus::{CorpusConfig, ProblemDataset, ProblemSpec, ProblemTag};
    use ccsa_nn::gcn::GcnConfig;
    use ccsa_nn::treelstm::{Direction, TreeLstmConfig};

    fn tiny_encoder() -> EncoderConfig {
        EncoderConfig::TreeLstm(TreeLstmConfig {
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            direction: Direction::Uni,
            sigmoid_candidate: false,
        })
    }

    #[test]
    fn training_learns_above_chance_and_is_deterministic() {
        let ds =
            ProblemDataset::generate(ProblemSpec::curated(ProblemTag::E), &CorpusConfig::tiny(21))
                .unwrap();
        let subs = &ds.submissions;
        let (train_ix, test_ix) = split_indices(subs.len(), 0.3, 1);
        let pair_cfg = PairConfig {
            max_pairs: 280,
            symmetric: true,
            exclude_self: true,
        };
        let train_pairs = sample_pairs(subs, &train_ix, &pair_cfg, 2);
        let test_pairs = sample_pairs(subs, &test_ix, &pair_cfg, 3);

        let run = |seed: u64| {
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let model = Comparator::new(&tiny_encoder(), &mut params, &mut rng);
            let cfg = TrainConfig {
                epochs: 8,
                batch_size: 16,
                lr: 0.02,
                clip: 5.0,
                threads: 2,
                seed,
            };
            let report = train(&model, &mut params, subs, &train_pairs, &cfg);
            let eval = evaluate(&model, &params, subs, &test_pairs);
            (report, eval)
        };

        // Not seed 7: that initialisation sits on a plateau (loss ≥ 0.68)
        // until the last epoch, so which side of 0.55 it lands on is
        // decided by last-ulp differences between kernel backends. Seed
        // 9 is below loss 0.4 from the third epoch on every backend.
        let (report, eval) = run(9);
        assert!(
            report.epoch_loss.last().unwrap() < report.epoch_loss.first().unwrap(),
            "loss should fall: {:?}",
            report.epoch_loss
        );
        assert!(
            eval.accuracy > 0.55,
            "tiny model should beat chance on E (got {})",
            eval.accuracy
        );

        // To the bit, clipped steps included: this seed's gradients exceed
        // the clip norm, whose sum must not depend on a hash order.
        let (report2, eval2) = run(9);
        assert_eq!(
            report.epoch_loss, report2.epoch_loss,
            "same seed must reproduce"
        );
        assert_eq!(eval.accuracy, eval2.accuracy, "same seed must reproduce");
    }

    /// The parity oracle: one tape per pair, node-by-node cell.
    fn per_pair_forward_backward(
        model: &Comparator,
        params: &Params,
        subs: &[Submission],
        pair: &Pair,
    ) -> BatchResult {
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, params);
        let logit = model.logit(&ctx, &subs[pair.a].graph, &subs[pair.b].graph);
        loss_backward(&ctx, vec![logit], std::slice::from_ref(pair))
    }

    #[test]
    fn fused_batch_matches_per_pair_baseline_loss_and_grads() {
        // The ISSUE-4 parity gate: one mini-batch, forward + backward on
        // the fused per-batch tape vs one tape per pair — loss and every
        // parameter gradient agree to ≤ 1e-5.
        let ds =
            ProblemDataset::generate(ProblemSpec::curated(ProblemTag::E), &CorpusConfig::tiny(11))
                .unwrap();
        let subs = &ds.submissions;
        let pair_cfg = PairConfig {
            max_pairs: 16,
            symmetric: true,
            exclude_self: true,
        };
        let pairs = sample_pairs(subs, &(0..subs.len()).collect::<Vec<_>>(), &pair_cfg, 5);
        assert!(pairs.len() >= 8, "need a real batch, got {}", pairs.len());

        // 3-layer stacks of every direction, so every fused code path
        // is active: up and down passes, passes that read the per-kind
        // input table (the first layer, both passes of a `Bi` one), the
        // per-parent downward projections and the incremental gather.
        for direction in [Direction::Uni, Direction::Bi, Direction::Alternating] {
            for sigmoid_candidate in [false, true] {
                let what = format!("{direction}, σ candidate {sigmoid_candidate}");
                let encoder = EncoderConfig::TreeLstm(TreeLstmConfig {
                    embed_dim: 6,
                    hidden: 6,
                    layers: 3,
                    direction,
                    sigmoid_candidate,
                });
                let mut params = Params::new();
                let mut rng = StdRng::seed_from_u64(23);
                let model = Comparator::new(&encoder, &mut params, &mut rng);

                let fused = batch_forward_backward(&model, &params, subs, &pairs);
                let mut per_pair = BatchResult::default();
                for pair in &pairs {
                    per_pair.merge(per_pair_forward_backward(&model, &params, subs, pair));
                }

                assert_eq!(fused.count, per_pair.count, "{what}");
                assert_eq!(fused.correct, per_pair.correct, "{what}");
                assert!(
                    (fused.loss - per_pair.loss).abs() <= 1e-5,
                    "{what}: loss diverged: {} vs {}",
                    fused.loss,
                    per_pair.loss
                );
                for name in params.names() {
                    let f = fused.grads.get(name).unwrap_or_else(|| {
                        panic!("{what}: fused path produced no gradient for {name}");
                    });
                    let s = per_pair.grads.get(name).unwrap_or_else(|| {
                        panic!("{what}: per-pair path produced no gradient for {name}");
                    });
                    // ≤ 1e-5 relative to the gradient's own scale: the two
                    // paths sum identical per-pair contributions in
                    // different orders, so the budget is f32
                    // reassociation noise, not a fixed absolute (a
                    // summed-over-16-pairs gradient of magnitude ~10
                    // carries ~1e-5 of legitimate rounding).
                    let scale = s.as_slice().iter().fold(1.0f32, |m, &x| m.max(x.abs()));
                    let diff = f.max_abs_diff(s) / scale;
                    assert!(
                        diff <= 1e-5,
                        "{what}: gradient for {name} diverged by {diff} (relative)"
                    );
                }
            }
        }
    }

    #[test]
    fn evaluate_matches_the_per_pair_oracle_bitwise() {
        // Codes encoded once per submission and scored by the head must
        // give the bits of re-encoding both programs of every pair, in
        // pair order — with pairs that reference only some submissions
        // and pairs that repeat.
        let ds =
            ProblemDataset::generate(ProblemSpec::curated(ProblemTag::H), &CorpusConfig::tiny(5))
                .unwrap();
        let subs = &ds.submissions;
        let half: Vec<usize> = (0..subs.len() / 2).collect();
        let mut pairs = sample_pairs(subs, &half, &PairConfig::default(), 1);
        pairs.truncate(10);
        pairs.extend_from_within(2..5);
        pairs.push(pairs[0]);
        for config in [tiny_encoder(), EncoderConfig::Gcn(GcnConfig::small(8))] {
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(1);
            let model = Comparator::new(&config, &mut params, &mut rng);
            let eval = evaluate(&model, &params, subs, &pairs);
            assert_eq!(eval.scored.len(), pairs.len());
            for ((p, label), pair) in eval.scored.iter().zip(&pairs) {
                let want = model.predict(&params, &subs[pair.a].graph, &subs[pair.b].graph);
                assert_eq!(p.to_bits(), want.to_bits(), "{}", config.name());
                assert_eq!(*label, pair.label);
            }
        }
    }
}
