//! Serving demo: rank K = 8 candidate solutions to one curated problem
//! end-to-end through the `ccsa-serve` engine.
//!
//! The flow mirrors production: train a comparator, persist it as a
//! versioned artefact, load it back through the model registry, then ask
//! the engine to order eight *fresh* generated implementations of problem
//! B (T-Prime) from fastest to slowest — without running any of them.
//!
//! ```sh
//! cargo run --release --example serve_rank
//! ```

use ccsa::corpus::gen::generate_program;
use ccsa::corpus::spec::{ProblemSpec, ProblemTag};
use ccsa::cppast::print_program;
use ccsa::model::persist;
use ccsa::model::pipeline::{Pipeline, PipelineConfig};
use ccsa::serve::{BatchConfig, ModelRegistry, ModelSelector, ServeConfig, ServeEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Train.
    println!("training a comparator on problem B (T-Prime) …");
    let mut config = PipelineConfig::default_experiment(11);
    config.corpus.submissions_per_problem = 60; // keep the example snappy
    let outcome = Pipeline::new(config)
        .run_single(ProblemTag::B)
        .expect("corpus generation");
    println!("held-out pair accuracy: {:.3}", outcome.test_accuracy);

    // 2. Persist as a versioned artefact and load it back via the
    //    registry — the same path a serving fleet would take.
    let dir = std::env::temp_dir().join(format!("ccsa-serve-rank-{}", std::process::id()));
    let version = persist::save_version(&dir, &outcome.model).expect("persist model");
    let mut registry = ModelRegistry::new();
    registry.load_dir("default", &dir).expect("load model dir");
    println!("serving model-v{version}.ccsm from {}\n", dir.display());

    let engine = ServeEngine::new(
        registry,
        &ServeConfig {
            cache_capacity: 256,
            cache_stripes: 0,
            batch: BatchConfig {
                workers: 2,
                max_batch: 8,
                ..BatchConfig::default()
            },
        },
    );

    // 3. Generate K = 8 fresh candidate solutions: every strategy the
    //    family has, in varied authoring styles the model never saw.
    let spec = ProblemSpec::curated(ProblemTag::B);
    let k = 8;
    let mut rng = StdRng::seed_from_u64(2024);
    let candidates: Vec<(String, String)> = (0..k)
        .map(|i| {
            let strategy = i % spec.strategies.len();
            let program = generate_program(&spec, strategy, &mut rng);
            let label = format!("candidate {i} ({})", spec.strategies[strategy].name);
            (label, print_program(&program))
        })
        .collect();

    // 4. Rank them through the engine.
    let sources: Vec<&str> = candidates.iter().map(|(_, src)| src.as_str()).collect();
    let ranked = engine
        .rank(&ModelSelector::default(), &sources)
        .expect("ranking");

    println!(
        "predicted order, fastest first (round-robin, {} pairwise comparisons):",
        k * (k - 1) / 2
    );
    for entry in &ranked.ranking {
        let (label, _) = &candidates[entry.index];
        println!(
            "  #{:<2} {label:<34} wins {:>2}/{}  expected {:.2}{}",
            entry.rank,
            entry.wins,
            k - 1,
            entry.expected_wins,
            if entry.in_cycle { "  [cycle]" } else { "" }
        );
    }

    // 5. Show what serving bought us: the second identical request is
    //    answered entirely from the embedding cache.
    let again = engine
        .rank(&ModelSelector::default(), &sources)
        .expect("ranking");
    let stats = engine.stats();
    println!(
        "\nfirst pass encoded {} trees; repeat pass encoded {} (cache hits {}/{})",
        ranked.encoded, again.encoded, again.cache_hits, k
    );
    println!(
        "engine totals: {} comparisons, cache hit-rate {:.0}%, mean encode batch {:.1}",
        stats.compares,
        100.0 * stats.cache.hit_rate(),
        stats.batch.mean_batch_size()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
