//! The source memo is a cache of a pure function, so it must be
//! invisible in every answer: `compare`/`rank` through it — first
//! submission, resubmission, and after eviction — equal `compare_graphs`
//! on graphs parsed directly with `parse_program`, which never touches
//! the memo (there is no switch that turns the memo off to compare
//! against). What it may change is only which counter a source lands in.

use std::sync::Arc;

use ccsa_corpus::{generate_program, ProblemSpec, ProblemTag};
use ccsa_cppast::{parse_program, print_program, AstGraph};
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pipeline::TrainedModel;
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
use ccsa_serve::{BatchConfig, ModelSelector, ServeConfig, ServeEngine, ServeError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_model() -> TrainedModel {
    let config = EncoderConfig::TreeLstm(TreeLstmConfig {
        embed_dim: 6,
        hidden: 6,
        layers: 1,
        direction: Direction::Uni,
        sigmoid_candidate: false,
    });
    let mut params = Params::new();
    let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(3));
    TrainedModel { comparator, params }
}

fn engine(cache_capacity: usize) -> ServeEngine {
    ServeEngine::with_model(
        tiny_model(),
        &ServeConfig {
            cache_capacity,
            batch: BatchConfig {
                workers: 1,
                max_batch: 8,
                ..BatchConfig::default()
            },
            ..ServeConfig::default()
        },
    )
}

/// `count` generated submissions, printed to source text.
fn programs(seed: u64, count: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let spec = ProblemSpec::curated(ProblemTag::ALL[i % ProblemTag::ALL.len()]);
            let strategy = spec.sample_strategy(&mut rng);
            print_program(&generate_program(&spec, strategy, &mut rng))
        })
        .collect()
}

/// The memo-free parse.
fn graph_of(source: &str) -> Arc<AstGraph> {
    Arc::new(AstGraph::from_program(
        &parse_program(source).expect("generated programs parse"),
    ))
}

/// The same program as different text: a comment, and every space
/// doubled (the lexer skips both).
fn respelled(source: &str) -> String {
    format!("// resubmitted\n{}\n", source.replace(' ', "  "))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn answers_through_the_memo_equal_directly_parsed_graphs(seed in 0u64..1 << 48) {
        let selector = ModelSelector::default();
        let sources = programs(seed, 6);
        let graphs: Vec<Arc<AstGraph>> = sources.iter().map(|s| graph_of(s)).collect();
        // The oracle engine only ever sees pre-parsed graphs.
        let oracle = engine(64);
        // Four slots against six programs: later submissions evict
        // earlier ones, so the third pass re-parses what the first
        // memoized.
        let subject = engine(4);
        for pass in 0..3 {
            for a in 0..sources.len() {
                let b = (a + 1 + pass) % sources.len();
                let want = oracle
                    .compare_graphs(&selector, &graphs[a], &graphs[b])
                    .unwrap()
                    .prob_first_slower;
                let got = subject.compare(&selector, &sources[a], &sources[b]).unwrap();
                prop_assert_eq!(got.prob_first_slower.to_bits(), want.to_bits());
            }
        }
        let stats = subject.stats();
        prop_assert!(stats.parse_memo_hits > 0, "resubmissions must hit");
        prop_assert!(stats.parses > sources.len() as u64, "evicted sources must re-parse");
        prop_assert_eq!(stats.parses + stats.parse_memo_hits, 3 * 2 * sources.len() as u64);

        // Rank: the order and scores of a memoized resubmission are the
        // first submission's.
        let candidates: Vec<&str> = sources.iter().map(String::as_str).collect();
        let roomy = engine(64);
        let first = roomy.rank(&selector, &candidates).unwrap();
        let again = roomy.rank(&selector, &candidates).unwrap();
        prop_assert_eq!(roomy.stats().parse_memo_hits, sources.len() as u64);
        let key = |o: &ccsa_serve::RankOutcome| -> Vec<(usize, u64)> {
            o.ranking.iter().map(|r| (r.index, r.score.to_bits())).collect()
        };
        prop_assert_eq!(key(&first), key(&again));
        let p01 = roomy.compare(&selector, &sources[0], &sources[1]).unwrap();
        let want = oracle.compare_graphs(&selector, &graphs[0], &graphs[1]).unwrap();
        prop_assert_eq!(p01.prob_first_slower.to_bits(), want.prob_first_slower.to_bits());
    }

    #[test]
    fn respelled_source_misses_the_memo_but_shares_the_embedding_slot(seed in 0u64..1 << 48) {
        let selector = ModelSelector::default();
        let sources = programs(seed, 2);
        let subject = engine(64);
        let plain = subject.compare(&selector, &sources[0], &sources[1]).unwrap();
        prop_assert_eq!(plain.cache_hits, 0);
        let variant = subject
            .compare(&selector, &respelled(&sources[0]), &respelled(&sources[1]))
            .unwrap();
        let stats = subject.stats();
        // Different bytes: both parsed again, nothing from the memo...
        prop_assert_eq!((stats.parses, stats.parse_memo_hits), (4, 0));
        // ...same canonical hash: both codes came from the cache, which
        // still holds one slot per program.
        prop_assert_eq!(variant.cache_hits, 2);
        prop_assert_eq!(stats.cache_len, 2);
        prop_assert_eq!(variant.prob_first_slower.to_bits(), plain.prob_first_slower.to_bits());
    }
}

#[test]
fn a_parse_error_is_the_same_on_every_submission_and_never_memoized() {
    let selector = ModelSelector::default();
    let subject = engine(64);
    let good = &programs(1, 1)[0];
    let bad = "int main() { return 0;";
    let submit = || match subject.compare(&selector, good, bad) {
        Err(ServeError::Parse(ix, e)) => (ix, e.to_string()),
        other => panic!("expected a parse error, got {other:?}"),
    };
    let first = submit();
    let second = submit();
    assert_eq!(first.0, 1);
    assert_eq!(first, second);
    let stats = subject.stats();
    assert_eq!(stats.parse_failures, 2);
    // The good operand was memoized by the first attempt; the bad one
    // ran the parser both times.
    assert_eq!((stats.parses, stats.parse_memo_hits), (3, 1));
}

#[test]
fn clear_cache_forces_a_reparse_and_capacity_zero_never_memoizes() {
    let selector = ModelSelector::default();
    let sources = programs(2, 2);
    let subject = engine(64);
    subject
        .compare(&selector, &sources[0], &sources[1])
        .unwrap();
    subject
        .compare(&selector, &sources[0], &sources[1])
        .unwrap();
    assert_eq!(subject.stats().parse_memo_hits, 2);
    subject.clear_cache();
    let cold = subject
        .compare(&selector, &sources[0], &sources[1])
        .unwrap();
    assert_eq!(cold.cache_hits, 0);
    let stats = subject.stats();
    assert_eq!((stats.parses, stats.parse_memo_hits), (4, 2));

    // A hot swap leaves the memo alone: it holds no model's output.
    subject.register(ccsa_serve::DEFAULT_MODEL, 1, tiny_model());
    subject
        .compare(&selector, &sources[0], &sources[1])
        .unwrap();
    assert_eq!(subject.stats().parse_memo_hits, 4);

    let uncached = engine(0);
    for _ in 0..3 {
        uncached
            .compare(&selector, &sources[0], &sources[1])
            .unwrap();
    }
    let stats = uncached.stats();
    assert_eq!((stats.parses, stats.parse_memo_hits), (6, 0));
}
