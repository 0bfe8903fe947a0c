//! The process skeleton of the `serve`, `gateway` and `fleet` binaries:
//! one flag reader, one usage-and-exit, and one model bootstrap.
//!
//! Exit codes are the same in every binary: 2 for a usage error (the
//! message, then the binary's usage text), 1 for a runtime failure, 0
//! after a clean end of input or a drain.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use ccsa_corpus::ProblemTag;
use ccsa_model::pipeline::{Pipeline, PipelineConfig};

use crate::{ModelRegistry, ServeConfig, DEFAULT_MODEL};

/// Prints `error: {message}` and exits 1: the runtime-failure exit.
pub fn fail(message: impl Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// The command line, read one flag at a time. Every value is the next
/// argument verbatim, so a value may start with `-` (`--canary-max-
/// error-delta -1`).
pub struct Flags {
    args: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Flags {
    /// The process's arguments; `usage` is what a usage error prints.
    pub fn from_env(usage: &'static str) -> Flags {
        Flags {
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
            usage,
        }
    }

    /// The next flag, or `None` when the command line is used up.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The current flag's value.
    pub fn value(&mut self) -> String {
        self.args
            .next()
            .unwrap_or_else(|| self.abort("missing argument value"))
    }

    /// The current flag's value as a path.
    pub fn path(&mut self) -> PathBuf {
        PathBuf::from(self.value())
    }

    /// The current flag's value parsed as a `T`; `bad {flag}` otherwise.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        self.value()
            .parse()
            .unwrap_or_else(|_| self.abort(&format!("bad {flag}")))
    }

    /// A usage error: prints `error: {message}` (unless empty) and the
    /// usage text, then exits 2.
    pub fn abort(&self, message: &str) -> ! {
        if !message.is_empty() {
            eprintln!("error: {message}");
        }
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }

    /// The end of every binary's flag match: `--help`/`-h` print the
    /// usage text, anything else is an unknown argument.
    pub fn reject(&self, flag: &str) -> ! {
        match flag {
            "--help" | "-h" => self.abort(""),
            other => self.abort(&format!("unknown argument '{other}'")),
        }
    }
}

/// The model flags `serve` and `gateway` share, and the bootstrap they
/// drive: `--model-dir DIR`, `--train A..I`, `--seed N`, `--cache N`,
/// `--cache-stripes N`, `--workers N` (0 = one per core) and
/// `--max-batch N`.
pub struct ModelFlags {
    model_dir: Option<PathBuf>,
    train: Option<ProblemTag>,
    seed: u64,
    serve: ServeConfig,
}

impl Default for ModelFlags {
    fn default() -> ModelFlags {
        ModelFlags {
            model_dir: None,
            train: None,
            seed: 42,
            serve: ServeConfig::default(),
        }
    }
}

impl ModelFlags {
    /// Reads `flag`'s value when it is a model flag; `false` otherwise.
    pub fn take(&mut self, flag: &str, flags: &mut Flags) -> bool {
        match flag {
            "--model-dir" => self.model_dir = Some(flags.path()),
            "--train" => {
                let tag = flags.value();
                self.train = Some(
                    ProblemTag::ALL
                        .iter()
                        .copied()
                        .find(|t| t.to_string().eq_ignore_ascii_case(&tag))
                        .unwrap_or_else(|| flags.abort(&format!("unknown problem '{tag}'"))),
                );
            }
            "--seed" => self.seed = flags.parse(flag),
            "--cache" => self.serve.cache_capacity = flags.parse(flag),
            "--cache-stripes" => self.serve.cache_stripes = flags.parse(flag),
            "--workers" => {
                self.serve.batch.workers = match flags.parse(flag) {
                    0 => ccsa_nn::parallel::default_threads(),
                    n => n,
                }
            }
            "--max-batch" => self.serve.batch.max_batch = flags.parse(flag),
            _ => return false,
        }
        true
    }

    /// Builds the registry the flags describe and the engine settings
    /// to serve it with. `--train` first trains a tiny comparator and
    /// saves it into `--model-dir`, or registers it as `default` v1 when
    /// there is no directory; every version in `--model-dir` is then
    /// loaded as `default`. Progress goes to stderr as `[{tier}] …`.
    /// Giving neither flag is a usage error; a failed training, save or
    /// load, or an empty directory, exits 1.
    pub fn bootstrap(self, tier: &str, flags: &Flags) -> (ModelRegistry, ServeConfig) {
        if self.model_dir.is_none() && self.train.is_none() {
            flags.abort("need --model-dir and/or --train");
        }
        let mut registry = ModelRegistry::new();
        if let Some(tag) = self.train {
            eprintln!("[{tier}] training a small comparator on problem {tag} …");
            let outcome = Pipeline::new(PipelineConfig::tiny(self.seed))
                .run_single(tag)
                .unwrap_or_else(|e| fail(format!("training failed: {e}")));
            eprintln!("[{tier}] held-out accuracy: {:.3}", outcome.test_accuracy);
            match &self.model_dir {
                Some(dir) => {
                    let v = ccsa_model::persist::save_version(dir, &outcome.model)
                        .unwrap_or_else(|e| fail(format!("saving model failed: {e}")));
                    eprintln!(
                        "[{tier}] saved {}",
                        dir.join(format!("model-v{v}.ccsm")).display()
                    );
                }
                None => {
                    registry.register(DEFAULT_MODEL, 1, outcome.model);
                }
            }
        }
        if let Some(dir) = &self.model_dir {
            match registry.load_dir(DEFAULT_MODEL, dir) {
                Ok(0) => fail(format!(
                    "no model artefacts in {} (hint: --train H writes one)",
                    dir.display()
                )),
                Ok(n) => eprintln!(
                    "[{tier}] loaded {n} model version(s) from {}",
                    dir.display()
                ),
                Err(e) => fail(format!("loading models failed: {e}")),
            }
        }
        (registry, self.serve)
    }
}
