//! Figure 3 — model evaluation and generalisation, tree-LSTM vs GCN.
//!
//! For every training dataset (problems A–I plus the mixed MP pool) and
//! both encoders, reports:
//!
//! * the *line value*: accuracy on disjoint submissions of the training
//!   problem itself;
//! * the *box plot*: the five-number summary of accuracies over every
//!   other problem (cross-problem generalisation).
//!
//! Paper reference points: single-problem accuracy up to 84 %, MP model
//! 73 % on its own disjoint split; tree-LSTM above GCN everywhere.

use ccsa_bench::{fmt_acc, header, rule, Cli, DatasetCache};
use ccsa_corpus::{ProblemDataset, ProblemTag};
use ccsa_model::comparator::EncoderConfig;
use ccsa_model::metrics::BoxStats;

fn main() {
    let cli = Cli::parse();
    header(
        "Figure 3 — generalisation of tree-LSTM vs GCN (lines + box plots)",
        &cli,
    );
    let corpus = cli.corpus_config();
    let mut cache = DatasetCache::new();

    // Materialise every curated dataset once.
    let datasets: Vec<ProblemDataset> = ProblemTag::ALL
        .iter()
        .map(|&t| cache.curated(t, &corpus).clone())
        .collect();
    // MP pool: scaled-down version of the paper's 100×100.
    let (mp_problems, mp_per) = match cli.scale {
        ccsa_bench::Scale::Tiny => (4u16, 12usize),
        ccsa_bench::Scale::Quick => (6, 16),
        ccsa_bench::Scale::Default => (12, 24),
        ccsa_bench::Scale::Full => (100, 100),
    };
    let mp_datasets = cache.mp_pool(mp_problems, mp_per, &corpus);

    for encoder in [
        EncoderConfig::TreeLstm(cli.treelstm_config()),
        EncoderConfig::Gcn(cli.gcn_config()),
    ] {
        println!("\n== encoder: {} ==", encoder.name());
        println!(
            "{:<6} {:>7}   {:>7} {:>7} {:>7} {:>7} {:>7}   (cross-problem box plot)",
            "train", "line", "min", "q1", "med", "q3", "max"
        );
        rule(78);
        let pipeline = cli.pipeline(encoder.clone());

        for (k, ds) in datasets.iter().enumerate() {
            let tag = ProblemTag::ALL[k];
            let outcome = pipeline.run_on_dataset(ds.clone());
            let mut cross = Vec::new();
            for (j, other) in datasets.iter().enumerate() {
                if j == k {
                    continue;
                }
                cross.push(pipeline.evaluate_cross(&outcome.model, other).accuracy);
            }
            let b = BoxStats::of(&cross);
            println!(
                "{:<6} {:>7}   {:>7} {:>7} {:>7} {:>7} {:>7}",
                tag.to_string(),
                fmt_acc(outcome.test_accuracy),
                fmt_acc(b.min),
                fmt_acc(b.q1),
                fmt_acc(b.median),
                fmt_acc(b.q3),
                fmt_acc(b.max),
            );
        }

        // MP: train on the pool, line = pooled disjoint submissions,
        // box = accuracies on the nine curated problems.
        let (model, test_pairs, _report) = pipeline.train_on_pool(&mp_datasets);
        let mut all_subs = Vec::new();
        for ds in &mp_datasets {
            all_subs.extend(ds.submissions.iter().cloned());
        }
        let flat: Vec<ccsa_model::pair::Pair> = test_pairs.into_iter().flatten().collect();
        let line =
            ccsa_model::trainer::evaluate(&model.comparator, &model.params, &all_subs, &flat)
                .accuracy;
        let cross: Vec<f64> = datasets
            .iter()
            .map(|ds| pipeline.evaluate_cross(&model, ds).accuracy)
            .collect();
        let b = BoxStats::of(&cross);
        println!(
            "{:<6} {:>7}   {:>7} {:>7} {:>7} {:>7} {:>7}",
            "MP",
            fmt_acc(line),
            fmt_acc(b.min),
            fmt_acc(b.q1),
            fmt_acc(b.median),
            fmt_acc(b.q3),
            fmt_acc(b.max),
        );
    }
    rule(78);
    println!(
        "paper: tree-LSTM single-problem lines ≈ 0.73–0.84 (best E), MP line ≈ 0.73;\n\
         cross-problem boxes up to 0.80–0.84; GCN best ≈ 0.685 — tree-LSTM wins throughout."
    );
}
