//! End-to-end pipeline: corpus → pairs → training → evaluation.
//!
//! [`Pipeline`] wires the full system of Figure 1 together behind a small
//! API: generate (or accept) a labelled corpus, sample training pairs from
//! a disjoint submission split, train a [`Comparator`], and evaluate on
//! held-out submissions of the same or a different problem.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ccsa_corpus::{CorpusConfig, InterpError, ProblemDataset, ProblemSpec, ProblemTag};
use ccsa_cppast::{parse_program, AstGraph, ParseError};
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};

use crate::comparator::{Comparator, EncoderConfig};
use crate::metrics::EvalResult;
use crate::pair::{sample_pairs, split_indices, PairConfig};
use crate::trainer::{evaluate, train, TrainConfig, TrainReport};

/// Everything needed to reproduce one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Corpus generation settings.
    pub corpus: CorpusConfig,
    /// Which encoder to train.
    pub encoder: EncoderConfig,
    /// Pair sampling settings.
    pub pairs: PairConfig,
    /// Optimizer / epoch settings.
    pub train: TrainConfig,
    /// Fraction of submissions held out for testing.
    pub test_fraction: f64,
    /// Master seed (model init, splits, pair sampling).
    pub seed: u64,
}

impl PipelineConfig {
    /// A minutes-scale default: reduced corpus and a mid-sized alternating
    /// tree-LSTM. The experiment binaries start from this and scale up.
    pub fn default_experiment(seed: u64) -> PipelineConfig {
        PipelineConfig {
            corpus: CorpusConfig {
                seed,
                ..CorpusConfig::default()
            },
            encoder: EncoderConfig::TreeLstm(TreeLstmConfig {
                embed_dim: 24,
                hidden: 24,
                layers: 3,
                direction: Direction::Alternating,
                sigmoid_candidate: false,
            }),
            pairs: PairConfig {
                max_pairs: 1200,
                symmetric: true,
                exclude_self: true,
            },
            train: TrainConfig {
                epochs: 6,
                batch_size: 32,
                lr: 0.01,
                clip: 5.0,
                threads: 0,
                seed,
            },
            test_fraction: 0.3,
            seed,
        }
    }

    /// A seconds-scale configuration for tests and doc examples.
    pub fn tiny(seed: u64) -> PipelineConfig {
        PipelineConfig {
            corpus: CorpusConfig::tiny(seed),
            encoder: EncoderConfig::TreeLstm(TreeLstmConfig {
                embed_dim: 8,
                hidden: 8,
                layers: 1,
                direction: Direction::Uni,
                sigmoid_candidate: false,
            }),
            pairs: PairConfig {
                max_pairs: 120,
                symmetric: true,
                exclude_self: true,
            },
            train: TrainConfig::tiny(seed),
            test_fraction: 0.3,
            seed,
        }
    }
}

/// A trained comparator with its learned parameters.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The model architecture.
    pub comparator: Comparator,
    /// The learned weights.
    pub params: Params,
}

/// The verdict of comparing two programs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Model probability that the *first* program is slower.
    pub prob_first_slower: f32,
}

impl Comparison {
    /// `true` when the model believes the first program is the slower one.
    pub fn first_is_slower(&self) -> bool {
        self.prob_first_slower >= 0.5
    }
}

impl TrainedModel {
    /// Compares two mini-C++ sources: does the first run slower?
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if either source fails to parse.
    pub fn compare_sources(&self, first: &str, second: &str) -> Result<Comparison, ParseError> {
        let a = AstGraph::from_program(&parse_program(first)?);
        let b = AstGraph::from_program(&parse_program(second)?);
        Ok(self.compare_graphs(&a, &b))
    }

    /// Compares two already-parsed ASTs: both are encoded in one fused
    /// pass, then scored by the classifier head.
    pub fn compare_graphs(&self, first: &AstGraph, second: &AstGraph) -> Comparison {
        let codes = self.comparator.encode_codes(&self.params, &[first, second]);
        Comparison {
            prob_first_slower: self.comparator.predict_from_codes(
                &self.params,
                &codes[0],
                &codes[1],
            ),
        }
    }
}

/// Outcome of a single-problem run.
#[derive(Debug, Clone)]
pub struct SingleOutcome {
    /// Accuracy on held-out same-problem pairs (the paper's line plot in
    /// Figure 3).
    pub test_accuracy: f64,
    /// Full held-out evaluation (scores for ROC etc.).
    pub eval: EvalResult,
    /// Training telemetry.
    pub report: TrainReport,
    /// The trained model, ready for cross-problem evaluation.
    pub model: TrainedModel,
    /// The generated dataset (reusable for sensitivity analysis).
    pub dataset: ProblemDataset,
}

/// The end-to-end driver.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline from a configuration.
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Generates the corpus for one curated problem, trains on a disjoint
    /// split, and evaluates on the held-out split.
    ///
    /// # Errors
    ///
    /// Propagates corpus-generation failures.
    pub fn run_single(&self, tag: ProblemTag) -> Result<SingleOutcome, InterpError> {
        let dataset = ProblemDataset::generate(ProblemSpec::curated(tag), &self.config.corpus)?;
        Ok(self.run_on_dataset(dataset))
    }

    /// Trains and evaluates on an already-generated dataset.
    pub fn run_on_dataset(&self, dataset: ProblemDataset) -> SingleOutcome {
        let subs = &dataset.submissions;
        let (train_ix, test_ix) =
            split_indices(subs.len(), self.config.test_fraction, self.config.seed);
        let train_pairs = sample_pairs(
            subs,
            &train_ix,
            &self.config.pairs,
            self.config.seed ^ 0xaaaa,
        );
        let test_pairs = sample_pairs(
            subs,
            &test_ix,
            &self.config.pairs,
            self.config.seed ^ 0xbbbb,
        );

        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x0de1);
        let comparator = Comparator::new(&self.config.encoder, &mut params, &mut rng);
        let report = train(
            &comparator,
            &mut params,
            subs,
            &train_pairs,
            &self.config.train,
        );
        let eval = evaluate(&comparator, &params, subs, &test_pairs);

        SingleOutcome {
            test_accuracy: eval.accuracy,
            eval,
            report,
            model: TrainedModel { comparator, params },
            dataset,
        }
    }

    /// Trains a model on a *pool* of datasets (the paper's MP setting:
    /// pairs are sampled within each problem, never across problems, since
    /// cross-problem runtimes are not comparable).
    ///
    /// Returns the model and the per-dataset held-out test pair sets.
    pub fn train_on_pool(
        &self,
        datasets: &[ProblemDataset],
    ) -> (TrainedModel, Vec<Vec<crate::pair::Pair>>, TrainReport) {
        // Concatenate submissions, remapping indices.
        let mut all_subs = Vec::new();
        let mut train_pairs = Vec::new();
        let mut test_pairs_per_ds = Vec::new();
        for (k, ds) in datasets.iter().enumerate() {
            let base = all_subs.len();
            let subs = &ds.submissions;
            let (train_ix, test_ix) = split_indices(
                subs.len(),
                self.config.test_fraction,
                self.config.seed ^ k as u64,
            );
            // Budget pairs per problem so the pool total matches config.
            let per_problem = PairConfig {
                max_pairs: (self.config.pairs.max_pairs / datasets.len().max(1)).max(2),
                ..self.config.pairs.clone()
            };
            let tp = sample_pairs(
                subs,
                &train_ix,
                &per_problem,
                self.config.seed ^ (k as u64) << 8,
            );
            let ep = sample_pairs(
                subs,
                &test_ix,
                &per_problem,
                self.config.seed ^ (k as u64) << 9,
            );
            train_pairs.extend(tp.into_iter().map(|p| crate::pair::Pair {
                a: p.a + base,
                b: p.b + base,
                label: p.label,
            }));
            test_pairs_per_ds.push(
                ep.into_iter()
                    .map(|p| crate::pair::Pair {
                        a: p.a + base,
                        b: p.b + base,
                        label: p.label,
                    })
                    .collect::<Vec<_>>(),
            );
            all_subs.extend(subs.iter().cloned());
        }

        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x0de1);
        let comparator = Comparator::new(&self.config.encoder, &mut params, &mut rng);
        let report = train(
            &comparator,
            &mut params,
            &all_subs,
            &train_pairs,
            &self.config.train,
        );
        (
            TrainedModel { comparator, params },
            test_pairs_per_ds,
            report,
        )
    }

    /// Evaluates a trained model on a different problem's dataset —
    /// cross-problem generalisation (Figure 3 box plots, Table II).
    pub fn evaluate_cross(&self, model: &TrainedModel, dataset: &ProblemDataset) -> EvalResult {
        let subs = &dataset.submissions;
        let indices: Vec<usize> = (0..subs.len()).collect();
        let pairs = sample_pairs(subs, &indices, &self.config.pairs, self.config.seed ^ 0xcc);
        evaluate(&model.comparator, &model.params, subs, &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_single_problem_run_beats_chance() {
        let outcome = Pipeline::new(PipelineConfig::tiny(3))
            .run_single(ProblemTag::E)
            .unwrap();
        assert!(
            outcome.test_accuracy > 0.5,
            "tiny run should beat chance, got {}",
            outcome.test_accuracy
        );
        assert!(!outcome.report.epoch_loss.is_empty());
    }

    #[test]
    fn trained_model_compares_sources() {
        let outcome = Pipeline::new(PipelineConfig::tiny(4))
            .run_single(ProblemTag::H)
            .unwrap();
        let fast = "int main() { int n; cin >> n; cout << n * (n + 1) / 2; return 0; }";
        let slow = "int main() { int n; cin >> n; long long s = 0; \
                    for (int i = 0; i <= n; i++) for (int j = 0; j < i; j++) s++; \
                    cout << s; return 0; }";
        let cmp = outcome.model.compare_sources(slow, fast).unwrap();
        assert!((0.0..=1.0).contains(&cmp.prob_first_slower));
        let bad = outcome.model.compare_sources("int main() {", fast);
        assert!(bad.is_err(), "parse errors must surface");
    }

    #[test]
    fn cross_problem_evaluation_runs() {
        let pipeline = Pipeline::new(PipelineConfig::tiny(5));
        let outcome = pipeline.run_single(ProblemTag::E).unwrap();
        let other = ProblemDataset::generate(
            ProblemSpec::curated(ProblemTag::G),
            &pipeline.config().corpus,
        )
        .unwrap();
        let eval = pipeline.evaluate_cross(&outcome.model, &other);
        assert!((0.0..=1.0).contains(&eval.accuracy));
        assert!(!eval.scored.is_empty());
    }

    #[test]
    fn pool_training_runs() {
        let pipeline = Pipeline::new(PipelineConfig::tiny(6));
        let datasets: Vec<ProblemDataset> = [ProblemTag::E, ProblemTag::H]
            .iter()
            .map(|&t| {
                ProblemDataset::generate(ProblemSpec::curated(t), &pipeline.config().corpus)
                    .unwrap()
            })
            .collect();
        let (model, test_pairs, _report) = pipeline.train_on_pool(&datasets);
        assert_eq!(test_pairs.len(), 2);
        // Evaluate pooled model on each problem's held-out pairs.
        let mut all_subs = Vec::new();
        for ds in &datasets {
            all_subs.extend(ds.submissions.iter().cloned());
        }
        for pairs in &test_pairs {
            let eval = evaluate(&model.comparator, &model.params, &all_subs, pairs);
            assert!((0.0..=1.0).contains(&eval.accuracy));
        }
    }
}
