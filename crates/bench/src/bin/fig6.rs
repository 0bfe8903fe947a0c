//! Figure 6 — prediction sensitivity to the runtime gap (problems A, B, C).
//!
//! Evaluation pairs are filtered to those whose true runtime difference is
//! at least a threshold; accuracy is recomputed as the threshold sweeps
//! upward. Paper shape: accuracy rises monotonically toward ~1.0 as only
//! far-apart pairs remain — large gaps come from structurally obvious
//! differences.

use ccsa_bench::{fmt_acc, header, rule, Cli, DatasetCache};
use ccsa_corpus::ProblemTag;
use ccsa_model::comparator::EncoderConfig;
use ccsa_model::pair::{sample_pairs, split_indices};
use ccsa_model::sensitivity::sensitivity_curve;
use ccsa_model::trainer::evaluate;

fn main() {
    let cli = Cli::parse();
    header(
        "Figure 6 — accuracy vs minimum runtime difference (A, B, C)",
        &cli,
    );
    let corpus = cli.corpus_config();
    let mut cache = DatasetCache::new();

    for tag in [ProblemTag::A, ProblemTag::B, ProblemTag::C] {
        let ds = cache.curated(tag, &corpus).clone();
        let pipeline = cli.pipeline(EncoderConfig::TreeLstm(cli.treelstm_config()));
        let outcome = pipeline.run_on_dataset(ds);
        let subs = &outcome.dataset.submissions;

        // A fresh, larger held-out pair set for a smooth curve.
        let (_, test_ix) = split_indices(subs.len(), pipeline.config().test_fraction, cli.seed);
        let pairs = sample_pairs(
            subs,
            &test_ix,
            &ccsa_model::pair::PairConfig {
                max_pairs: 800,
                symmetric: false,
                exclude_self: true,
            },
            cli.seed ^ 0x6f16,
        );
        let eval = evaluate(
            &outcome.model.comparator,
            &outcome.model.params,
            subs,
            &pairs,
        );
        let curve = sensitivity_curve(subs, &pairs, &eval.scored, 8);

        println!("\nproblem {tag}:");
        println!("{:>12} {:>8} {:>10}", "minΔt (ms)", "pairs", "accuracy");
        rule(34);
        for point in &curve {
            println!(
                "{:>12.1} {:>8} {:>10}",
                point.min_diff_ms,
                point.pairs,
                fmt_acc(point.accuracy)
            );
        }
    }
    rule(34);
    println!(
        "\npaper shape: accuracy increases monotonically with the minimum gap,\n\
         approaching ~1.0 when only second-scale differences remain."
    );
}
