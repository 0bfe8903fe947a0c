//! Figures 3–7.

use ccsa_corpus::{CorpusConfig, ProblemDataset, ProblemTag, Submission};
use ccsa_cppast::NodeKind;
use ccsa_model::comparator::EncoderConfig;
use ccsa_model::pair::{sample_pairs, split_indices, Pair, PairConfig};
use ccsa_model::trainer::evaluate;

use crate::sensitivity::sensitivity_curve;
use crate::tsne::{tsne, TsneConfig};
use crate::{fmt_acc, header, rule, train_and_score, Cli, DatasetCache, Scale};

/// Figure 3 — model evaluation and generalisation, tree-LSTM vs GCN.
///
/// For every training dataset (problems A–I plus the mixed MP pool) and
/// both encoders, reports:
///
/// * the *line value*: accuracy on disjoint submissions of the training
///   problem itself;
/// * the *box plot*: the five-number summary of accuracies over every
///   other problem (cross-problem generalisation).
///
/// Paper reference points: single-problem accuracy up to 84 %, MP model
/// 73 % on its own disjoint split; tree-LSTM above GCN everywhere.
pub fn fig3(cli: &Cli, cache: &mut DatasetCache) {
    header(
        "Figure 3 — generalisation of tree-LSTM vs GCN (lines + box plots)",
        cli,
    );
    let corpus = cli.corpus_config();

    // Materialise every curated dataset once.
    let datasets: Vec<ProblemDataset> = ProblemTag::ALL
        .iter()
        .map(|&t| cache.curated(t, &corpus).clone())
        .collect();
    // MP pool: scaled-down version of the paper's 100×100.
    let (mp_problems, mp_per) = match cli.scale {
        Scale::Tiny => (4u16, 12usize),
        Scale::Default => (12, 24),
        Scale::Full => (100, 100),
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
            let cross: Vec<f64> = datasets
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != k)
                .map(|(_, other)| pipeline.evaluate_cross(&outcome.model, other).accuracy)
                .collect();
            print_line_and_box(&tag.to_string(), outcome.test_accuracy, &cross);
        }

        // MP: train on the pool, line = pooled disjoint submissions,
        // box = accuracies on the nine curated problems.
        let (model, test_pairs, _report) = pipeline.train_on_pool(&mp_datasets);
        let all_subs: Vec<Submission> = mp_datasets
            .iter()
            .flat_map(|ds| ds.submissions.iter().cloned())
            .collect();
        let flat: Vec<Pair> = test_pairs.into_iter().flatten().collect();
        let line = evaluate(&model.comparator, &model.params, &all_subs, &flat).accuracy;
        let cross: Vec<f64> = datasets
            .iter()
            .map(|ds| pipeline.evaluate_cross(&model, ds).accuracy)
            .collect();
        print_line_and_box("MP", line, &cross);
    }
    rule(78);
    println!(
        "paper: tree-LSTM single-problem lines ≈ 0.73–0.84 (best E), MP line ≈ 0.73;\n\
         cross-problem boxes up to 0.80–0.84; GCN best ≈ 0.685 — tree-LSTM wins throughout."
    );
}

/// One Figure 3 row: the line value, then the box over `cross`.
fn print_line_and_box(train: &str, line: f64, cross: &[f64]) {
    let b = BoxStats::of(cross);
    println!(
        "{:<6} {:>7}   {:>7} {:>7} {:>7} {:>7} {:>7}",
        train,
        fmt_acc(line),
        fmt_acc(b.min),
        fmt_acc(b.q1),
        fmt_acc(b.median),
        fmt_acc(b.q3),
        fmt_acc(b.max),
    );
}

/// Five-number summary used for the paper's Figure 3 box plots.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BoxStats {
    min: f64,
    q1: f64,
    median: f64,
    q3: f64,
    max: f64,
}

impl BoxStats {
    /// Computes the five-number summary.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    fn of(values: &[f64]) -> BoxStats {
        assert!(!values.is_empty(), "box stats of empty slice");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
        let q = |p: f64| -> f64 {
            let pos = p * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            v[lo] * (1.0 - frac) + v[hi] * frac
        };
        BoxStats {
            min: v[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: *v.last().expect("nonempty"),
        }
    }
}

/// Figure 4 — ROC curve of the multi-layer alternating tree-LSTM on
/// problem A.
///
/// Prints the (FPR, TPR) staircase at 5 % FPR steps plus the exact AUC.
/// Paper reference: AUC ≈ 0.85.
pub fn fig4(cli: &Cli, cache: &mut DatasetCache) {
    header(
        "Figure 4 — ROC on problem A (3-layer alternating tree-LSTM)",
        cli,
    );
    let corpus = cli.corpus_config();
    let ds = cache.curated(ProblemTag::A, &corpus).clone();

    let pipeline = cli.pipeline(EncoderConfig::TreeLstm(cli.treelstm_config()));
    let outcome = pipeline.run_on_dataset(ds);
    let curve = outcome.eval.roc();

    println!("{:>6} {:>6}", "FPR", "TPR");
    rule(16);
    // Down-sample the staircase to ~21 readable points.
    let mut next_fpr = 0.0;
    for &(fpr, tpr) in &curve.points {
        if fpr + 1e-12 >= next_fpr {
            println!("{fpr:>6.2} {tpr:>6.2}");
            next_fpr += 0.05;
        }
    }
    rule(16);
    println!("accuracy @0.5 = {:.3}", outcome.test_accuracy);
    println!("AUC           = {:.3}   (paper: 0.85)", curve.auc);
}

/// Figure 5's data: problem A with `train` submissions followed by 40
/// held-out ones, and 600 one-way pairs among the held-out ones sampled
/// with `cli.seed ^ salt`.
fn problem_a_with_held_out<'c>(
    cli: &Cli,
    cache: &'c mut DatasetCache,
    train: usize,
    salt: u64,
) -> (&'c [Submission], Vec<Pair>) {
    let corpus = CorpusConfig {
        submissions_per_problem: train + 40,
        ..cli.corpus_config()
    };
    let subs = &cache.curated(ProblemTag::A, &corpus).submissions;
    let test_ix: Vec<usize> = (train..subs.len()).collect();
    let test_pairs = sample_pairs(
        subs,
        &test_ix,
        &PairConfig {
            max_pairs: 600,
            symmetric: false,
            exclude_self: true,
        },
        cli.seed ^ salt,
    );
    (subs, test_pairs)
}

/// Symmetric training pairs among the first `n` submissions.
fn first_n_pairs(subs: &[Submission], n: usize, max_pairs: usize, seed: u64) -> Vec<Pair> {
    let train_ix: Vec<usize> = (0..n).collect();
    sample_pairs(
        subs,
        &train_ix,
        &PairConfig {
            max_pairs,
            symmetric: true,
            exclude_self: true,
        },
        seed,
    )
}

/// Figure 5(a) — accuracy vs number of training submissions (problem A).
///
/// Doubles the training-submission count from 32 upward at a fixed 75 %
/// pair ratio and a fixed held-out test set. Paper shape: steady
/// improvement that saturates beyond ~1000 submissions (diminishing
/// returns). The sweep's upper end follows `--scale` (paper: 4096).
pub fn fig5a(cli: &Cli, cache: &mut DatasetCache) {
    header(
        "Figure 5(a) — accuracy vs training submissions (problem A)",
        cli,
    );

    let max_subs = match cli.scale {
        Scale::Tiny => 64usize,
        Scale::Default => 256,
        Scale::Full => 4096,
    };
    // One corpus holding the largest training set + a disjoint test set.
    let (subs, test_pairs) = problem_a_with_held_out(cli, cache, max_subs, 0xf1);

    println!("{:>6} {:>10} {:>10}", "subs", "pairs", "accuracy");
    rule(30);
    let mut n = 32usize;
    while n <= max_subs {
        // 75 % of all unordered pairs, capped to keep full-scale tractable.
        let budget = ((n * (n - 1) / 2) as f64 * 0.75) as usize;
        let pairs = first_n_pairs(subs, n, budget.clamp(8, 6000), cli.seed ^ n as u64);
        let accuracy = train_and_score(cli, subs, &pairs, &test_pairs);
        println!("{n:>6} {:>10} {:>10}", pairs.len(), fmt_acc(accuracy));
        n *= 2;
    }
    rule(30);
    println!(
        "paper shape: accuracy climbs from ≈0.64 at 32 subs toward ≈0.77,\n\
         with diminishing returns past ~1000 submissions."
    );
}

/// Figure 5(b) — accuracy vs percentage of pairs used for training
/// (problem A, fixed submission count).
///
/// Paper shape: accuracy improves rapidly with the first ~20 % of pairs
/// (≈ +10 points), then dips slightly as ever more redundant pairs
/// encourage overfitting.
pub fn fig5b(cli: &Cli, cache: &mut DatasetCache) {
    header(
        "Figure 5(b) — accuracy vs % of training pairs (problem A)",
        cli,
    );

    let train_subs = match cli.scale {
        Scale::Tiny => 32usize,
        Scale::Default => 128,
        Scale::Full => 2048, // the paper's setting
    };
    let (subs, test_pairs) = problem_a_with_held_out(cli, cache, train_subs, 0xf2);
    let all_pairs = train_subs * (train_subs - 1) / 2;

    println!("{:>6} {:>10} {:>10}", "%pairs", "pairs", "accuracy");
    rule(30);
    for pct in [5usize, 10, 20, 40, 60, 80, 100] {
        let budget = (all_pairs * pct / 100).clamp(8, 8000);
        let pairs = first_n_pairs(subs, train_subs, budget, cli.seed ^ pct as u64);
        let accuracy = train_and_score(cli, subs, &pairs, &test_pairs);
        println!("{pct:>5}% {:>10} {:>10}", pairs.len(), fmt_acc(accuracy));
    }
    rule(30);
    println!(
        "paper shape: rapid rise over the first ~20 % of pairs (≈ +10 points),\n\
         then a slight dip from overfitting as redundant pairs accumulate."
    );
}

/// Figure 6 — prediction sensitivity to the runtime gap (problems A, B, C).
///
/// Evaluation pairs are filtered to those whose true runtime difference is
/// at least a threshold; accuracy is recomputed as the threshold sweeps
/// upward. Paper shape: accuracy rises monotonically toward ~1.0 as only
/// far-apart pairs remain — large gaps come from structurally obvious
/// differences.
pub fn fig6(cli: &Cli, cache: &mut DatasetCache) {
    header(
        "Figure 6 — accuracy vs minimum runtime difference (A, B, C)",
        cli,
    );
    let corpus = cli.corpus_config();

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
            &PairConfig {
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

/// Figure 7 — t-SNE of learned node embeddings and code embeddings.
///
/// (a) projects the trained λ-dimensional node-kind embeddings to 2-D,
/// tagged with the paper's colour categories (operations, expressions,
/// statements, literals, support);
/// (b) projects code vectors of submissions from three different problems.
///
/// Prints both point sets as TSV (x, y, label) and reports the quantitative
/// analogue of the paper's visual claim: code embeddings of the same
/// problem sit closer together than across problems.
pub fn fig7(cli: &Cli, cache: &mut DatasetCache) {
    header("Figure 7 — t-SNE of node and code embeddings", cli);
    let corpus = cli.corpus_config();
    let ds = cache.curated(ProblemTag::E, &corpus).clone();

    // Train a model so embeddings are learned, not random.
    let pipeline = cli.pipeline(EncoderConfig::TreeLstm(cli.treelstm_config()));
    let outcome = pipeline.run_on_dataset(ds);
    let model = &outcome.model;

    // (a) Node embeddings: rows of the learned table.
    let table = model.params.get("tree.emb");
    let rows: Vec<Vec<f32>> = (0..ccsa_cppast::VOCAB_SIZE)
        .map(|k| table.row(k).as_slice().to_vec())
        .collect();
    let layout = tsne(
        &rows,
        &TsneConfig {
            perplexity: 8.0,
            iterations: 300,
            seed: cli.seed,
            ..TsneConfig::default()
        },
    );
    println!("\n(a) node embeddings — x<TAB>y<TAB>kind<TAB>category");
    rule(60);
    for (k, point) in layout.iter().enumerate() {
        let kind = NodeKind::from_id(k as u16);
        println!(
            "{:.3}\t{:.3}\t{kind}\t{}",
            point[0],
            point[1],
            kind.category()
        );
    }

    // (b) Code embeddings for three problems, 30 submissions each.
    let tags = [ProblemTag::A, ProblemTag::F, ProblemTag::H];
    let mut codes = Vec::new();
    let mut labels = Vec::new();
    for &tag in &tags {
        let ds = cache.curated(tag, &corpus);
        let graphs: Vec<_> = ds.submissions.iter().take(30).map(|s| &s.graph).collect();
        for z in model.comparator.encode_codes(&model.params, &graphs) {
            codes.push(z.as_slice().to_vec());
            labels.push(tag);
        }
    }
    let layout = tsne(
        &codes,
        &TsneConfig {
            perplexity: 12.0,
            iterations: 300,
            seed: cli.seed,
            ..TsneConfig::default()
        },
    );
    println!("\n(b) code embeddings — x<TAB>y<TAB>problem");
    rule(60);
    for (point, tag) in layout.iter().zip(&labels) {
        println!("{:.3}\t{:.3}\t{tag}", point[0], point[1]);
    }

    // Quantitative cluster check (the paper argues problems separate).
    let centroid = |tag: ProblemTag| -> [f64; 2] {
        let pts: Vec<&[f64; 2]> = layout
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == tag)
            .map(|(p, _)| p)
            .collect();
        let n = pts.len() as f64;
        [
            pts.iter().map(|p| p[0]).sum::<f64>() / n,
            pts.iter().map(|p| p[1]).sum::<f64>() / n,
        ]
    };
    let dist = |a: [f64; 2], b: [f64; 2]| ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt();
    let mut intra = 0.0;
    for (&tag, point) in labels.iter().zip(&layout) {
        intra += dist(*point, centroid(tag)) / layout.len() as f64;
    }
    let c: Vec<[f64; 2]> = tags.iter().map(|&t| centroid(t)).collect();
    let inter = (dist(c[0], c[1]) + dist(c[1], c[2]) + dist(c[0], c[2])) / 3.0;
    rule(60);
    println!(
        "cluster check: mean intra-problem distance {intra:.2}, mean inter-centroid {inter:.2}\n\
         (paper claim: problems form distinctly separated clusters — expect inter > intra)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_stats_quartiles() {
        let stats = BoxStats::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.median, 3.0);
        assert_eq!(stats.q1, 2.0);
        assert_eq!(stats.q3, 4.0);
        assert_eq!(stats.max, 5.0);
    }
}
