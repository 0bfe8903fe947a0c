//! Figure 5(a) — accuracy vs number of training submissions (problem A).
//!
//! Doubles the training-submission count from 32 upward at a fixed 75 %
//! pair ratio and a fixed held-out test set. Paper shape: steady
//! improvement that saturates beyond ~1000 submissions (diminishing
//! returns). The sweep's upper end follows `--scale` (paper: 4096).

use ccsa_bench::{fmt_acc, header, rule, Cli, Scale};
use ccsa_corpus::{CorpusConfig, ProblemDataset, ProblemSpec, ProblemTag};
use ccsa_model::comparator::EncoderConfig;
use ccsa_model::pair::{sample_pairs, PairConfig};
use ccsa_model::trainer::{evaluate, train};
use ccsa_nn::param::Params;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse();
    header(
        "Figure 5(a) — accuracy vs training submissions (problem A)",
        &cli,
    );

    let max_subs = match cli.scale {
        Scale::Tiny => 64usize,
        Scale::Quick => 128,
        Scale::Default => 256,
        Scale::Full => 4096,
    };
    let test_subs = 40usize;
    // One corpus holding the largest training set + a disjoint test set.
    let corpus = CorpusConfig {
        submissions_per_problem: max_subs + test_subs,
        ..cli.corpus_config()
    };
    eprintln!(
        "[corpus] generating {} submissions for A …",
        corpus.submissions_per_problem
    );
    let ds = ProblemDataset::generate(ProblemSpec::curated(ProblemTag::A), &corpus)
        .expect("corpus generation");
    let subs = &ds.submissions;
    let test_ix: Vec<usize> = (max_subs..subs.len()).collect();
    let test_pairs = sample_pairs(
        subs,
        &test_ix,
        &PairConfig {
            max_pairs: 600,
            symmetric: false,
            exclude_self: true,
        },
        cli.seed ^ 0xf1,
    );

    println!("{:>6} {:>10} {:>10}", "subs", "pairs", "accuracy");
    rule(30);
    let mut n = 32usize;
    while n <= max_subs {
        let train_ix: Vec<usize> = (0..n).collect();
        // 75 % of all unordered pairs, capped to keep full-scale tractable.
        let budget = ((n * (n - 1) / 2) as f64 * 0.75) as usize;
        let budget = budget.clamp(8, 6000);
        let pairs = sample_pairs(
            subs,
            &train_ix,
            &PairConfig {
                max_pairs: budget,
                symmetric: true,
                exclude_self: true,
            },
            cli.seed ^ n as u64,
        );
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(cli.seed);
        let encoder = EncoderConfig::TreeLstm(cli.treelstm_config());
        let model = ccsa_model::comparator::Comparator::new(&encoder, &mut params, &mut rng);
        let pipeline = cli.pipeline(encoder);
        train(&model, &mut params, subs, &pairs, &pipeline.config().train);
        let eval = evaluate(&model, &params, subs, &test_pairs);
        println!("{n:>6} {:>10} {:>10}", pairs.len(), fmt_acc(eval.accuracy));
        n *= 2;
    }
    rule(30);
    println!(
        "paper shape: accuracy climbs from ≈0.64 at 32 subs toward ≈0.77,\n\
         with diminishing returns past ~1000 submissions."
    );
}
