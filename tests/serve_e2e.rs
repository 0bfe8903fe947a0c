//! End-to-end serving tests: train → persist (versioned) → registry →
//! engine, asserting the serving stack is *score-preserving* — every
//! layer (disk round-trip, embedding cache, micro-batching) must produce
//! bit-identical probabilities to direct in-process inference.

use std::sync::Arc;

use ccsa::corpus::gen::Style;
use ccsa::corpus::problems;
use ccsa::corpus::spec::{ProblemSpec, ProblemTag};
use ccsa::cppast::{parse_program, print_program, AstGraph};
use ccsa::model::persist;
use ccsa::model::pipeline::{Pipeline, PipelineConfig, TrainedModel};
use ccsa::serve::{BatchConfig, ModelRegistry, ModelSelector, ServeConfig, ServeEngine};

fn train_tiny(tag: ProblemTag, seed: u64) -> TrainedModel {
    Pipeline::new(PipelineConfig::tiny(seed))
        .run_single(tag)
        .expect("corpus generation")
        .model
}

fn temp_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsa-e2e-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const FAST: &str = "int main() { int n; cin >> n; cout << n * (n + 1) / 2; return 0; }";
const SLOW: &str = "int main() { int n; cin >> n; long long s = 0; \
                    for (int i = 0; i <= n; i++) for (int j = 0; j < i; j++) s++; \
                    cout << s; return 0; }";

fn graph(src: &str) -> AstGraph {
    AstGraph::from_program(&parse_program(src).unwrap())
}

#[test]
fn trained_model_survives_versioned_persistence_with_identical_predictions() {
    let model = train_tiny(ProblemTag::H, 11);
    let (a, b) = (graph(SLOW), graph(FAST));
    let reference_ab = model.compare_graphs(&a, &b).prob_first_slower;
    let reference_ba = model.compare_graphs(&b, &a).prob_first_slower;

    let dir = temp_dir("persist");
    let version = persist::save_version(&dir, &model).unwrap();
    assert_eq!(version, 1);
    let (resolved, loaded) = persist::load_version(&dir, None).unwrap();
    assert_eq!(resolved, 1);
    assert_eq!(
        loaded.compare_graphs(&a, &b).prob_first_slower,
        reference_ab
    );
    assert_eq!(
        loaded.compare_graphs(&b, &a).prob_first_slower,
        reference_ba
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serving_stack_is_score_preserving_end_to_end() {
    // Train, persist to a versioned directory, load through the registry,
    // serve through the batched+cached engine: probabilities must match
    // direct model inference exactly, with the cache cold AND warm.
    let model = train_tiny(ProblemTag::E, 5);
    let (a, b) = (graph(SLOW), graph(FAST));
    let reference = model.compare_graphs(&a, &b).prob_first_slower;

    let dir = temp_dir("stack");
    persist::save_version(&dir, &model).unwrap();
    let mut registry = ModelRegistry::new();
    assert_eq!(registry.load_dir("default", &dir).unwrap(), 1);
    let engine = ServeEngine::new(
        registry,
        &ServeConfig {
            cache_capacity: 32,
            cache_stripes: 0,
            batch: BatchConfig {
                workers: 2,
                max_batch: 4,
                ..BatchConfig::default()
            },
        },
    );

    let sel = ModelSelector::default();
    let cold = engine.compare(&sel, SLOW, FAST).unwrap();
    assert_eq!(
        cold.prob_first_slower, reference,
        "cold-cache serving must match direct"
    );
    assert_eq!(cold.cache_hits, 0);
    let warm = engine.compare(&sel, SLOW, FAST).unwrap();
    assert_eq!(
        warm.prob_first_slower, reference,
        "warm-cache serving must match direct"
    );
    assert_eq!(warm.cache_hits, 2);

    let stats = engine.stats();
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.cache.misses, 2);
    assert_eq!(stats.compares, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_ranks_generated_candidates_and_respects_round_robin() {
    // Rank real generated solutions (fresh styles the model never saw)
    // and check the ranking is a permutation that every decided pairwise
    // compare agrees with: whichever program the symmetrised compare
    // calls faster is ranked first.
    let model = train_tiny(ProblemTag::B, 3);
    let engine = ServeEngine::with_model(
        model,
        &ServeConfig {
            cache_capacity: 64,
            cache_stripes: 0,
            batch: BatchConfig {
                workers: 2,
                max_batch: 8,
                ..BatchConfig::default()
            },
        },
    );

    let spec = ProblemSpec::curated(ProblemTag::B);
    let candidates: Vec<String> = (0..spec.strategies.len())
        .map(|s| {
            print_program(&problems::build(
                ProblemTag::B,
                s,
                &Style::plain(),
                &spec.input,
            ))
        })
        .collect();
    let refs: Vec<&str> = candidates.iter().map(String::as_str).collect();

    let outcome = engine.rank(&ModelSelector::default(), &refs).unwrap();
    assert_eq!(outcome.ranking.len(), refs.len());
    let mut indices: Vec<usize> = outcome.ranking.iter().map(|r| r.index).collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..refs.len()).collect::<Vec<_>>());
    let rank_of = |ix: usize| outcome.ranking.iter().find(|r| r.index == ix).unwrap().rank;
    let selector = ModelSelector::default();
    for a in 0..refs.len() {
        for b in (a + 1)..refs.len() {
            let p_ab = engine.compare(&selector, refs[a], refs[b]).unwrap();
            let p_ba = engine.compare(&selector, refs[b], refs[a]).unwrap();
            let sym = 0.5 * (p_ab.prob_first_slower as f64 + 1.0 - p_ba.prob_first_slower as f64);
            if (sym - 0.5).abs() > 1e-6 {
                assert_eq!(
                    sym > 0.5,
                    rank_of(a) > rank_of(b),
                    "candidates {a} and {b}: p(a slower) = {sym}"
                );
            }
        }
    }

    // Ranking twice is deterministic and the second pass is all cache hits.
    let again = engine.rank(&ModelSelector::default(), &refs).unwrap();
    let order_a: Vec<usize> = outcome.ranking.iter().map(|r| r.index).collect();
    let order_b: Vec<usize> = again.ranking.iter().map(|r| r.index).collect();
    assert_eq!(order_a, order_b);
    assert_eq!(again.encoded, 0);
}

#[test]
fn protocol_layer_serves_compare_and_rank_lines() {
    let model = train_tiny(ProblemTag::H, 9);
    let engine = ServeEngine::with_model(model, &ServeConfig::default());

    let compare_line = format!(
        r#"{{"op":"compare","first":{},"second":{}}}"#,
        ccsa::serve::json::Json::str(SLOW),
        ccsa::serve::json::Json::str(FAST),
    );
    let response = ccsa::serve::proto::handle_line(&engine, &compare_line);
    let v = ccsa::serve::json::parse(&response).unwrap();
    assert_eq!(v.get("ok"), Some(&ccsa::serve::json::Json::Bool(true)));
    let p = v.get("prob_first_slower").unwrap().as_f64().unwrap();
    let direct = engine
        .compare(&ModelSelector::default(), SLOW, FAST)
        .unwrap()
        .prob_first_slower;
    assert!((p - direct as f64).abs() < 1e-6);

    let rank_line = format!(
        r#"{{"op":"rank","candidates":[{},{},{}]}}"#,
        ccsa::serve::json::Json::str(FAST),
        ccsa::serve::json::Json::str(SLOW),
        ccsa::serve::json::Json::str("int main() { return 3; }"),
    );
    let v =
        ccsa::serve::json::parse(&ccsa::serve::proto::handle_line(&engine, &rank_line)).unwrap();
    assert_eq!(v.get("ok"), Some(&ccsa::serve::json::Json::Bool(true)));
    assert_eq!(v.get("ranking").unwrap().as_arr().unwrap().len(), 3);
}

#[test]
fn concurrent_clients_get_consistent_scores() {
    // Many threads hammering the same engine must all observe the exact
    // same probability for the same pair — the cache/batcher interplay
    // cannot leak codes across models or corrupt slots.
    let model = train_tiny(ProblemTag::E, 13);
    let (a, b) = (graph(SLOW), graph(FAST));
    let reference = model.compare_graphs(&a, &b).prob_first_slower;
    let engine = Arc::new(ServeEngine::with_model(
        model,
        &ServeConfig {
            cache_capacity: 16,
            cache_stripes: 0,
            batch: BatchConfig {
                workers: 3,
                max_batch: 4,
                ..BatchConfig::default()
            },
        },
    ));

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    (0..5)
                        .map(|_| {
                            engine
                                .compare(&ModelSelector::default(), SLOW, FAST)
                                .unwrap()
                                .prob_first_slower
                        })
                        .collect::<Vec<f32>>()
                })
            })
            .collect();
        for handle in handles {
            for p in handle.join().unwrap() {
                assert_eq!(p, reference);
            }
        }
    });
}
