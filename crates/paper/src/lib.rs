//! The paper's tables and figures, regenerated by one `paper` binary.
//!
//! `paper <experiment>… [--scale tiny|default|full] [--seed N] [--threads N]`
//! runs the named experiments in order, sharing one [`Cli`] and one
//! [`DatasetCache`], so each problem's corpus is judged once per process:
//!
//! * `table1` — Table I, problem statistics;
//! * `table2` — Table II, the DFS-group transfer matrix;
//! * `table3` — Table III, the tree-LSTM architecture sweep;
//! * `fig3` — Figure 3, tree-LSTM vs GCN lines and cross-problem boxes;
//! * `fig4` — Figure 4, ROC on problem A;
//! * `fig5a` / `fig5b` — Figure 5, accuracy vs training submissions and
//!   vs share of training pairs;
//! * `fig6` — Figure 6, accuracy vs minimum runtime gap;
//! * `fig7` — Figure 7, t-SNE of node and code embeddings;
//! * `hyperopt_table` — the §V-C random search over the GCN space;
//! * `ablation_embed` / `ablation_ordering` — embedding width λ, and
//!   one-way vs symmetric pairs (§VI-D).
//!
//! Options:
//!
//! * `--scale tiny|default|full` — experiment size (defaults to
//!   `default`; `tiny` is for tests, `full` approaches paper scale and
//!   can take hours);
//! * `--seed N` — master seed (default 42);
//! * `--threads N` — training worker threads (default: all cores, capped at 8).
//!
//! Output is aligned text with a `paper=` reference column wherever the
//! paper reports a number, so shape comparisons are immediate. The
//! analyses only the paper uses (t-SNE, the runtime-gap sweep and the
//! §V-C random search) live here rather than in the serving-linked
//! `ccsa-model`.

use std::collections::HashMap;

use ccsa_corpus::{CorpusConfig, JudgeConfig, ProblemDataset, ProblemSpec, ProblemTag, Submission};
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pair::{Pair, PairConfig};
use ccsa_model::pipeline::{Pipeline, PipelineConfig};
use ccsa_model::trainer::{evaluate, train, TrainConfig};
use ccsa_nn::gcn::{Activation, GcnConfig};
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod ablations;
mod figures;
mod hyperopt;
mod sensitivity;
mod tables;
mod tsne;

/// One experiment: prints its table or figure to stdout.
pub type Experiment = fn(&Cli, &mut DatasetCache);

/// Every experiment, by the subcommand name that runs it.
pub const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5a", figures::fig5a),
    ("fig5b", figures::fig5b),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("hyperopt_table", tables::hyperopt_table),
    ("ablation_embed", ablations::ablation_embed),
    ("ablation_ordering", ablations::ablation_ordering),
];

/// The usage line, naming every experiment.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    format!(
        "usage: paper <{}>... [--scale tiny|default|full] [--seed N] [--threads N]",
        names.join("|")
    )
}

/// Experiment size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-test scale (seconds end to end, even in debug builds) — used
    /// by the pipeline smoke test that pins the sweep path.
    Tiny,
    /// The documented default (minutes).
    Default,
    /// Paper-approaching scale (tens of minutes to hours).
    Full,
}

impl Scale {
    /// Submissions generated per problem.
    fn submissions(self) -> usize {
        match self {
            Scale::Tiny => 32,
            Scale::Default => 110,
            Scale::Full => 300,
        }
    }

    /// Training pairs sampled per model.
    fn pairs(self) -> usize {
        match self {
            Scale::Tiny => 200,
            Scale::Default => 900,
            Scale::Full => 3000,
        }
    }

    /// Training epochs.
    fn epochs(self) -> usize {
        match self {
            Scale::Tiny => 4,
            Scale::Default => 6,
            Scale::Full => 10,
        }
    }

    /// Tree-LSTM/GCN hidden width.
    fn hidden(self) -> usize {
        match self {
            Scale::Tiny => 8,
            Scale::Default => 16,
            Scale::Full => 100,
        }
    }

    /// Embedding dimensionality λ.
    fn embed(self) -> usize {
        match self {
            Scale::Tiny => 8,
            Scale::Default => 16,
            Scale::Full => 120,
        }
    }

    /// Judge test cases per submission.
    fn test_cases(self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Default => 3,
            Scale::Full => 5,
        }
    }
}

/// Parsed command-line options shared by every experiment.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Training worker threads (0 = auto).
    pub threads: usize,
}

impl Cli {
    /// Parses the arguments after the program name into the options and
    /// the named experiments, in command-line order. `Err` carries the
    /// message to print above [`usage`] (empty for `--help`).
    pub fn parse(args: &[String]) -> Result<(Cli, Vec<Experiment>), String> {
        let mut cli = Cli {
            scale: Scale::Default,
            seed: 42,
            threads: 0,
        };
        let mut experiments = Vec::new();
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            match arg {
                "--scale" => {
                    cli.scale = match args.next() {
                        Some("tiny") => Scale::Tiny,
                        Some("default") => Scale::Default,
                        Some("full") => Scale::Full,
                        other => return Err(format!("bad --scale {other:?}")),
                    };
                }
                "--seed" => {
                    cli.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("bad --seed")?;
                }
                "--threads" => {
                    cli.threads = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("bad --threads")?;
                }
                "--help" | "-h" => return Err(String::new()),
                name => match EXPERIMENTS.iter().find(|&&(known, _)| known == name) {
                    Some(&(_, run)) => experiments.push(run),
                    None => return Err(format!("unknown experiment or argument '{name}'")),
                },
            }
        }
        if experiments.is_empty() {
            return Err("no experiment named".to_string());
        }
        Ok((cli, experiments))
    }

    /// Corpus settings for this scale/seed.
    fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            submissions_per_problem: self.scale.submissions(),
            judge: JudgeConfig {
                test_cases: self.scale.test_cases(),
                ..JudgeConfig::default()
            },
            calibration_sample: 12,
            seed: self.seed,
        }
    }

    /// The standard tree-LSTM encoder at this scale (3-layer alternating —
    /// the paper's best architecture).
    pub fn treelstm_config(&self) -> TreeLstmConfig {
        TreeLstmConfig {
            embed_dim: self.scale.embed(),
            hidden: self.scale.hidden(),
            layers: 3,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        }
    }

    /// The GCN baseline at this scale (6 layers as tuned in §V-C).
    pub fn gcn_config(&self) -> GcnConfig {
        GcnConfig {
            embed_dim: self.scale.embed(),
            hidden: self.scale.hidden(),
            layers: 6,
            activation: Activation::Relu,
        }
    }

    /// Training settings at this scale.
    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.scale.epochs(),
            batch_size: 32,
            lr: 0.01,
            clip: 5.0,
            threads: self.threads,
            seed: self.seed,
        }
    }

    /// The standard pipeline around a given encoder.
    pub fn pipeline(&self, encoder: EncoderConfig) -> Pipeline {
        Pipeline::new(PipelineConfig {
            corpus: self.corpus_config(),
            encoder,
            pairs: PairConfig {
                max_pairs: self.scale.pairs(),
                symmetric: true,
                exclude_self: true,
            },
            train: self.train_config(),
            test_fraction: 0.3,
            seed: self.seed,
        })
    }
}

/// Trains a fresh standard tree-LSTM comparator on `pairs` and returns
/// its accuracy on `test_pairs` — for the sweeps that pick their own
/// pairs instead of the pipeline's.
fn train_and_score(cli: &Cli, subs: &[Submission], pairs: &[Pair], test_pairs: &[Pair]) -> f64 {
    let encoder = EncoderConfig::TreeLstm(cli.treelstm_config());
    let mut params = Params::new();
    let mut rng = StdRng::seed_from_u64(cli.seed);
    let model = Comparator::new(&encoder, &mut params, &mut rng);
    train(&model, &mut params, subs, pairs, &cli.train_config());
    evaluate(&model, &params, subs, test_pairs).accuracy
}

/// A per-process cache of generated datasets so multi-model experiments
/// judge each problem corpus once.
#[derive(Default)]
pub struct DatasetCache {
    map: HashMap<String, ProblemDataset>,
}

impl DatasetCache {
    /// An empty cache.
    pub fn new() -> DatasetCache {
        DatasetCache::default()
    }

    /// Generates (or returns the cached) dataset for a curated problem.
    fn curated(&mut self, tag: ProblemTag, config: &CorpusConfig) -> &ProblemDataset {
        let key = format!("{tag}-{}-{}", config.submissions_per_problem, config.seed);
        self.map.entry(key).or_insert_with(|| {
            eprintln!(
                "[corpus] generating problem {tag} ({} submissions)",
                config.submissions_per_problem
            );
            ProblemDataset::generate(ProblemSpec::curated(tag), config)
                .unwrap_or_else(|e| panic!("corpus generation failed for {tag}: {e}"))
        })
    }

    /// Generates (or returns the cached) MP pool dataset.
    fn mp_pool(
        &mut self,
        problems: u16,
        per_problem: usize,
        config: &CorpusConfig,
    ) -> Vec<ProblemDataset> {
        (0..problems)
            .map(|i| {
                let key = format!("mp{i}-{per_problem}-{}", config.seed);
                self.map
                    .entry(key)
                    .or_insert_with(|| {
                        let spec = ProblemSpec::mp(i, config.seed);
                        let cfg = CorpusConfig {
                            submissions_per_problem: per_problem,
                            ..config.clone()
                        };
                        ProblemDataset::generate(spec, &cfg)
                            .unwrap_or_else(|e| panic!("corpus generation failed for MP{i}: {e}"))
                    })
                    .clone()
            })
            .collect()
    }
}

/// Prints a horizontal rule sized to `width`.
fn rule(width: usize) {
    println!("{}", "─".repeat(width));
}

/// Formats an accuracy as `0.xxx`.
fn fmt_acc(a: f64) -> String {
    format!("{a:.3}")
}

/// Prints the standard experiment header.
fn header(title: &str, cli: &Cli) {
    rule(78);
    println!("{title}");
    println!(
        "scale={:?}  seed={}  threads={}",
        cli.scale,
        cli.seed,
        if cli.threads == 0 {
            "auto".to_string()
        } else {
            cli.threads.to_string()
        }
    );
    rule(78);
}
