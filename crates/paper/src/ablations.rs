//! Ablations the paper does not run (λ) or reports only in passing
//! (pair ordering, §VI-D).

use ccsa_corpus::ProblemTag;
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pair::{sample_pairs, split_indices, PairConfig};
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{fmt_acc, header, rule, train_and_score, Cli, DatasetCache};

/// Ablation: embedding dimensionality λ.
///
/// The paper fixes λ = 120 without a sweep; this ablation asks how much
/// the node-embedding width actually matters on a fixed problem, holding
/// the rest of the architecture constant. Expectation: accuracy saturates
/// at small λ — the vocabulary has only 67 kinds, so the embedding is
/// over-parameterised long before 120.
pub fn ablation_embed(cli: &Cli, cache: &mut DatasetCache) {
    header(
        "Ablation — embedding dimensionality λ (problem E, alternating 3-layer)",
        cli,
    );
    let corpus = cli.corpus_config();
    let ds = cache.curated(ProblemTag::E, &corpus);

    println!("{:>6} {:>10} {:>12}", "λ", "accuracy", "#params");
    rule(32);
    for embed in [2usize, 4, 8, 16, 32, 64, 120] {
        let config = EncoderConfig::TreeLstm(TreeLstmConfig {
            embed_dim: embed,
            hidden: cli.scale.hidden(),
            layers: 3,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        });
        let outcome = cli.pipeline(config.clone()).run_on_dataset(ds.clone());
        // Count parameters for the table.
        let mut params = Params::new();
        Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(0));
        println!(
            "{embed:>6} {:>10} {:>12}",
            fmt_acc(outcome.test_accuracy),
            params.scalar_count()
        );
    }
    rule(32);
    println!("expectation: saturation well below the paper's λ = 120 (vocabulary is 67 kinds).");
}

/// §VI-D pair-ordering ablation: one-way vs symmetric training pairs.
///
/// Trains two models on the same total pair budget — one with only a
/// single ordering of each pair, one with both orderings — and compares
/// held-out accuracy. Paper finding: symmetric pairs help "marginally, up
/// to 2 %".
pub fn ablation_ordering(cli: &Cli, cache: &mut DatasetCache) {
    header(
        "§VI-D — one-way vs symmetric pair ordering (equal pair budgets)",
        cli,
    );
    let corpus = cli.corpus_config();

    println!(
        "{:<8} {:>10} {:>10} {:>8}",
        "problem", "one-way", "symmetric", "Δ"
    );
    rule(42);
    let mut deltas = Vec::new();
    for tag in [ProblemTag::A, ProblemTag::C, ProblemTag::E] {
        let subs = &cache.curated(tag, &corpus).submissions;
        let (train_ix, test_ix) = split_indices(subs.len(), 0.3, cli.seed);
        let test_pairs = sample_pairs(
            subs,
            &test_ix,
            &PairConfig {
                max_pairs: 600,
                symmetric: false,
                exclude_self: true,
            },
            cli.seed ^ 0xab1,
        );

        let accuracy_for = |symmetric: bool| -> f64 {
            let pairs = sample_pairs(
                subs,
                &train_ix,
                &PairConfig {
                    max_pairs: cli.scale.pairs(),
                    symmetric,
                    exclude_self: true,
                },
                cli.seed ^ 0xab2,
            );
            train_and_score(cli, subs, &pairs, &test_pairs)
        };

        let one_way = accuracy_for(false);
        let symmetric = accuracy_for(true);
        deltas.push(symmetric - one_way);
        println!(
            "{:<8} {:>10} {:>10} {:>+8.3}",
            tag.to_string(),
            fmt_acc(one_way),
            fmt_acc(symmetric),
            symmetric - one_way
        );
    }
    rule(42);
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    println!("mean Δ = {mean:+.3}   (paper: symmetric pairs help marginally, up to +0.02)");
}
