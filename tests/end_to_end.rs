//! Integration tests spanning every crate: source text → parser → AST →
//! corpus → training → evaluation → persistence.

use ccsa::corpus::dataset::{CorpusConfig, ProblemDataset};
use ccsa::corpus::spec::{ProblemSpec, ProblemTag};
use ccsa::model::persist::{load_params, save_params};
use ccsa::model::pipeline::{Pipeline, PipelineConfig, TrainedModel};

#[test]
fn pipeline_beats_chance_on_every_curated_problem_family_smoke() {
    // A single tiny-scale run per problem is noisy; assert the *average*
    // over three easy problems beats chance clearly, and each individual
    // run is no worse than slightly-below chance.
    let mut accs = Vec::new();
    for (seed, tag) in [
        (1u64, ProblemTag::E),
        (2, ProblemTag::H),
        (3, ProblemTag::G),
    ] {
        let outcome = Pipeline::new(PipelineConfig::tiny(seed))
            .run_single(tag)
            .unwrap();
        accs.push(outcome.test_accuracy);
    }
    let mean = accs.iter().sum::<f64>() / accs.len() as f64;
    assert!(
        mean > 0.55,
        "mean accuracy {mean} too close to chance: {accs:?}"
    );
    for (i, acc) in accs.iter().enumerate() {
        assert!(*acc >= 0.45, "run {i} collapsed below chance: {acc}");
    }
}

#[test]
fn cross_problem_transfer_is_above_chance_between_related_problems() {
    // Train on F (subtree queries), test on G (BFS check) — same algorithm
    // group, the paper's generalisation claim in miniature.
    let pipeline = Pipeline::new(PipelineConfig::tiny(5));
    let outcome = pipeline.run_single(ProblemTag::F).unwrap();
    let other = ProblemDataset::generate(
        ProblemSpec::curated(ProblemTag::G),
        &pipeline.config().corpus,
    )
    .unwrap();
    let eval = pipeline.evaluate_cross(&outcome.model, &other);
    assert!(
        eval.accuracy > 0.45,
        "cross-problem transfer collapsed: {}",
        eval.accuracy
    );
}

#[test]
fn model_roundtrips_through_persistence() {
    let outcome = Pipeline::new(PipelineConfig::tiny(8))
        .run_single(ProblemTag::H)
        .unwrap();
    let mut buf = Vec::new();
    save_params(&outcome.model.params, &mut buf).unwrap();
    let reloaded = TrainedModel {
        comparator: outcome.model.comparator.clone(),
        params: load_params(buf.as_slice()).unwrap(),
    };

    // Same prediction from the reloaded parameters.
    let a = &outcome.dataset.submissions[0].graph;
    let b = &outcome.dataset.submissions[1].graph;
    let before = outcome.model.compare_graphs(a, b).prob_first_slower;
    let after = reloaded.compare_graphs(a, b).prob_first_slower;
    assert!(
        (before - after).abs() < 1e-6,
        "prediction changed after reload"
    );
}

#[test]
fn corpus_sources_flow_through_the_public_frontend() {
    // Every generated submission must parse with the public API and
    // produce the same AST graph recorded in the dataset.
    let ds = ProblemDataset::generate(ProblemSpec::curated(ProblemTag::C), &CorpusConfig::tiny(13))
        .unwrap();
    for sub in &ds.submissions {
        let program = ccsa::cppast::parse_program(&sub.source).expect("dataset source parses");
        let graph = ccsa::cppast::AstGraph::from_program(&program);
        assert_eq!(graph, sub.graph, "recorded graph must match re-parse");
    }
}

#[test]
fn runtime_labels_follow_strategy_cost_ranks_in_aggregate() {
    let ds = ProblemDataset::generate(ProblemSpec::curated(ProblemTag::F), &CorpusConfig::tiny(17))
        .unwrap();
    let mean_ms = |rank: u8| -> f64 {
        let xs: Vec<f64> = ds
            .submissions
            .iter()
            .filter(|s| ds.spec.strategies[s.strategy].cost_rank == rank)
            .map(|s| s.runtime_ms)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    assert!(
        mean_ms(0) < mean_ms(2),
        "rank-0 strategies must be faster than rank-2 on average"
    );
}

#[test]
fn facade_reexports_are_usable_together() {
    // Types from different sub-crates compose through the facade.
    let tape = ccsa::tensor::Tape::new();
    let program = ccsa::cppast::parse_program("int main() { return 1 + 1; }").unwrap();
    let graph = ccsa::cppast::AstGraph::from_program(&program);
    let mut params = ccsa::nn::Params::new();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let enc =
        ccsa::nn::TreeLstmEncoder::new(&ccsa::nn::TreeLstmConfig::small(4), &mut params, &mut rng);
    let ctx = ccsa::nn::Ctx::new(&tape, &params);
    let z = enc.encode(&ctx, &graph);
    assert_eq!(z.value().len(), 4);
}
