//! §VI-D pair-ordering ablation: one-way vs symmetric training pairs.
//!
//! Trains two models on the same total pair budget — one with only a
//! single ordering of each pair, one with both orderings — and compares
//! held-out accuracy. Paper finding: symmetric pairs help "marginally, up
//! to 2 %".

use ccsa_bench::{fmt_acc, header, rule, Cli, DatasetCache};
use ccsa_corpus::ProblemTag;
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pair::{sample_pairs, split_indices, PairConfig};
use ccsa_model::trainer::{evaluate, train};
use ccsa_nn::param::Params;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse();
    header(
        "§VI-D — one-way vs symmetric pair ordering (equal pair budgets)",
        &cli,
    );
    let corpus = cli.corpus_config();
    let mut cache = DatasetCache::new();

    println!(
        "{:<8} {:>10} {:>10} {:>8}",
        "problem", "one-way", "symmetric", "Δ"
    );
    rule(42);
    let mut deltas = Vec::new();
    for tag in [ProblemTag::A, ProblemTag::C, ProblemTag::E] {
        let ds = cache.curated(tag, &corpus).clone();
        let subs = &ds.submissions;
        let (train_ix, test_ix) = split_indices(subs.len(), 0.3, cli.seed);
        let budget = cli.scale.pairs();
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
                    max_pairs: budget,
                    symmetric,
                    exclude_self: true,
                },
                cli.seed ^ 0xab2,
            );
            let encoder = EncoderConfig::TreeLstm(cli.treelstm_config());
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(cli.seed);
            let model = Comparator::new(&encoder, &mut params, &mut rng);
            let pipeline = cli.pipeline(encoder);
            train(&model, &mut params, subs, &pairs, &pipeline.config().train);
            evaluate(&model, &params, subs, &test_pairs).accuracy
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
