//! Shared infrastructure for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see DESIGN.md §4 for the index). All binaries accept:
//!
//! * `--scale quick|default|full` — experiment size (defaults to
//!   `default`; `full` approaches paper-scale and can take a long time);
//! * `--seed N` — master seed (default 42);
//! * `--threads N` — training worker threads (default: all cores, capped at 8).
//!
//! Output is aligned text with a `paper=` reference column wherever the
//! paper reports a number, so shape comparisons are immediate.

use std::collections::HashMap;

use ccsa_corpus::{CorpusConfig, JudgeConfig, ProblemDataset, ProblemSpec, ProblemTag};
use ccsa_model::comparator::EncoderConfig;
use ccsa_model::pair::PairConfig;
use ccsa_model::pipeline::{Pipeline, PipelineConfig};
use ccsa_model::trainer::TrainConfig;
use ccsa_nn::gcn::{Activation, GcnConfig};
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};

/// Experiment size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-test scale (seconds end to end, even in debug builds) — used
    /// by the pipeline smoke test that pins the sweep path.
    Tiny,
    /// Smoke-test scale (tens of seconds end to end).
    Quick,
    /// The documented default (minutes).
    Default,
    /// Paper-approaching scale (tens of minutes to hours).
    Full,
}

impl Scale {
    /// Submissions generated per problem.
    pub fn submissions(self) -> usize {
        match self {
            Scale::Tiny => 32,
            Scale::Quick => 48,
            Scale::Default => 110,
            Scale::Full => 300,
        }
    }

    /// Training pairs sampled per model.
    pub fn pairs(self) -> usize {
        match self {
            Scale::Tiny => 200,
            Scale::Quick => 500,
            Scale::Default => 900,
            Scale::Full => 3000,
        }
    }

    /// Training epochs.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Tiny => 4,
            Scale::Quick => 6,
            Scale::Default => 6,
            Scale::Full => 10,
        }
    }

    /// Tree-LSTM/GCN hidden width.
    pub fn hidden(self) -> usize {
        match self {
            Scale::Tiny => 8,
            Scale::Quick => 12,
            Scale::Default => 16,
            Scale::Full => 100,
        }
    }

    /// Embedding dimensionality λ.
    pub fn embed(self) -> usize {
        match self {
            Scale::Tiny => 8,
            Scale::Quick => 12,
            Scale::Default => 16,
            Scale::Full => 120,
        }
    }

    /// Judge test cases per submission.
    pub fn test_cases(self) -> usize {
        match self {
            Scale::Tiny => 2,
            Scale::Quick => 2,
            Scale::Default => 3,
            Scale::Full => 5,
        }
    }
}

/// Parsed command-line options shared by all binaries.
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
    /// Parses `std::env::args`. Unknown flags abort with usage help.
    pub fn parse() -> Cli {
        let mut cli = Cli {
            scale: Scale::Default,
            seed: 42,
            threads: 0,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    cli.scale = match args.get(i).map(String::as_str) {
                        Some("tiny") => Scale::Tiny,
                        Some("quick") => Scale::Quick,
                        Some("default") => Scale::Default,
                        Some("full") => Scale::Full,
                        other => usage_abort(&format!("bad --scale {other:?}")),
                    };
                }
                "--seed" => {
                    i += 1;
                    cli.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage_abort("bad --seed"));
                }
                "--threads" => {
                    i += 1;
                    cli.threads = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage_abort("bad --threads"));
                }
                "--help" | "-h" => usage_abort(""),
                other => usage_abort(&format!("unknown argument '{other}'")),
            }
            i += 1;
        }
        cli
    }

    /// Corpus settings for this scale/seed.
    pub fn corpus_config(&self) -> CorpusConfig {
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
            train: TrainConfig {
                epochs: self.scale.epochs(),
                batch_size: 32,
                lr: 0.01,
                clip: 5.0,
                threads: self.threads,
                seed: self.seed,
            },
            test_fraction: 0.3,
            seed: self.seed,
        })
    }
}

fn usage_abort(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <bin> [--scale tiny|quick|default|full] [--seed N] [--threads N]");
    std::process::exit(2);
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
    pub fn curated(&mut self, tag: ProblemTag, config: &CorpusConfig) -> &ProblemDataset {
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
    pub fn mp_pool(
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
pub fn rule(width: usize) {
    println!("{}", "─".repeat(width));
}

/// Formats an accuracy as `0.xxx`.
pub fn fmt_acc(a: f64) -> String {
    format!("{a:.3}")
}

/// Prints the standard experiment header.
pub fn header(title: &str, cli: &Cli) {
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
