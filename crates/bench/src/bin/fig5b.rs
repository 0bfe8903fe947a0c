//! Figure 5(b) — accuracy vs percentage of pairs used for training
//! (problem A, fixed submission count).
//!
//! Paper shape: accuracy improves rapidly with the first ~20 % of pairs
//! (≈ +10 points), then dips slightly as ever more redundant pairs
//! encourage overfitting.

use ccsa_bench::{fmt_acc, header, rule, Cli, Scale};
use ccsa_corpus::{CorpusConfig, ProblemDataset, ProblemSpec, ProblemTag};
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pair::{sample_pairs, PairConfig};
use ccsa_model::trainer::{evaluate, train};
use ccsa_nn::param::Params;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse();
    header(
        "Figure 5(b) — accuracy vs % of training pairs (problem A)",
        &cli,
    );

    let train_subs = match cli.scale {
        Scale::Tiny => 32usize,
        Scale::Quick => 64,
        Scale::Default => 128,
        Scale::Full => 2048, // the paper's setting
    };
    let test_subs = 40usize;
    let corpus = CorpusConfig {
        submissions_per_problem: train_subs + test_subs,
        ..cli.corpus_config()
    };
    eprintln!(
        "[corpus] generating {} submissions for A …",
        corpus.submissions_per_problem
    );
    let ds = ProblemDataset::generate(ProblemSpec::curated(ProblemTag::A), &corpus)
        .expect("corpus generation");
    let subs = &ds.submissions;
    let train_ix: Vec<usize> = (0..train_subs).collect();
    let test_ix: Vec<usize> = (train_subs..subs.len()).collect();
    let test_pairs = sample_pairs(
        subs,
        &test_ix,
        &PairConfig {
            max_pairs: 600,
            symmetric: false,
            exclude_self: true,
        },
        cli.seed ^ 0xf2,
    );
    let all_pairs = train_subs * (train_subs - 1) / 2;

    println!("{:>6} {:>10} {:>10}", "%pairs", "pairs", "accuracy");
    rule(30);
    for pct in [5usize, 10, 20, 40, 60, 80, 100] {
        let budget = (all_pairs * pct / 100).clamp(8, 8000);
        let pairs = sample_pairs(
            subs,
            &train_ix,
            &PairConfig {
                max_pairs: budget,
                symmetric: true,
                exclude_self: true,
            },
            cli.seed ^ pct as u64,
        );
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(cli.seed);
        let encoder = EncoderConfig::TreeLstm(cli.treelstm_config());
        let model = Comparator::new(&encoder, &mut params, &mut rng);
        let pipeline = cli.pipeline(encoder);
        train(&model, &mut params, subs, &pairs, &pipeline.config().train);
        let eval = evaluate(&model, &params, subs, &test_pairs);
        println!(
            "{pct:>5}% {:>10} {:>10}",
            pairs.len(),
            fmt_acc(eval.accuracy)
        );
    }
    rule(30);
    println!(
        "paper shape: rapid rise over the first ~20 % of pairs (≈ +10 points),\n\
         then a slight dip from overfitting as redundant pairs accumulate."
    );
}
