//! The `serve` binary: JSON-lines over stdin/stdout.
//!
//! ```sh
//! # Serve every version in a model directory (written by
//! # ccsa_model::persist::save_version):
//! serve --model-dir ./models
//!
//! # Or bootstrap by training a small model on a curated problem first:
//! serve --train H --model-dir ./models
//!
//! # Then speak the protocol:
//! echo '{"op":"compare","first":"int main() { return 0; }",
//!        "second":"int main() { for (int i = 0; i < 9; i++) { } return 0; }"}' | serve …
//! ```
//!
//! One request per line in, one response per line out (see
//! [`ccsa_serve::proto`]). Malformed lines produce `ok:false` responses;
//! the process only exits on EOF.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use ccsa_corpus::ProblemTag;
use ccsa_model::pipeline::{Pipeline, PipelineConfig};
use ccsa_serve::{proto, BatchConfig, ModelRegistry, ServeConfig, ServeEngine, DEFAULT_MODEL};

struct Options {
    model_dir: Option<PathBuf>,
    train: Option<ProblemTag>,
    train_seed: u64,
    cache: usize,
    cache_stripes: usize,
    workers: usize,
    max_batch: usize,
}

fn usage_abort(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: serve [--model-dir DIR] [--train A..I] [--seed N]\n\
         \x20            [--cache N] [--cache-stripes N] [--workers N]\n\
         \x20            [--max-batch N]\n\
         \n\
         Loads every model version in DIR (name 'default'); --train first\n\
         trains a small comparator on the given curated problem and saves\n\
         it into DIR (or serves it directly when no DIR is given).\n\
         Protocol: one JSON request per stdin line, one JSON response per\n\
         stdout line; ops: compare, rank, stats, ping, shutdown.\n\
         (TCP transport + A/B routing: see the `gateway` binary.)"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opts = Options {
        model_dir: None,
        train: None,
        train_seed: 42,
        cache: 4096,
        cache_stripes: 0,
        workers: 0,
        max_batch: 16,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .cloned()
                .unwrap_or_else(|| usage_abort("missing argument value"))
        };
        match args[i].as_str() {
            "--model-dir" => opts.model_dir = Some(PathBuf::from(value(&mut i))),
            "--train" => {
                let tag = value(&mut i);
                opts.train = Some(
                    ProblemTag::ALL
                        .iter()
                        .copied()
                        .find(|t| t.to_string().eq_ignore_ascii_case(&tag))
                        .unwrap_or_else(|| usage_abort(&format!("unknown problem '{tag}'"))),
                );
            }
            "--seed" => {
                opts.train_seed = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --seed"))
            }
            "--cache" => {
                opts.cache = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --cache"))
            }
            "--cache-stripes" => {
                opts.cache_stripes = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --cache-stripes"))
            }
            "--workers" => {
                opts.workers = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --workers"))
            }
            "--max-batch" => {
                opts.max_batch = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --max-batch"))
            }
            "--help" | "-h" => usage_abort(""),
            other => usage_abort(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    opts
}

fn main() {
    let opts = parse_options();
    // Resolves `CCSA_KERNEL` now: a bad value stops the process here,
    // not at the first encode of a server that already looks ready.
    let kernel_backend = ccsa_serve::kernel_backend();
    let mut registry = ModelRegistry::new();

    if let Some(tag) = opts.train {
        eprintln!("[serve] training a small comparator on problem {tag} …");
        let outcome = Pipeline::new(PipelineConfig::tiny(opts.train_seed))
            .run_single(tag)
            .unwrap_or_else(|e| {
                eprintln!("error: training failed: {e}");
                std::process::exit(1);
            });
        eprintln!("[serve] held-out accuracy: {:.3}", outcome.test_accuracy);
        match &opts.model_dir {
            Some(dir) => {
                let v =
                    ccsa_model::persist::save_version(dir, &outcome.model).unwrap_or_else(|e| {
                        eprintln!("error: saving model failed: {e}");
                        std::process::exit(1);
                    });
                eprintln!(
                    "[serve] saved {}",
                    dir.join(format!("model-v{v}.ccsm")).display()
                );
            }
            None => {
                registry.register(DEFAULT_MODEL, 1, outcome.model);
            }
        }
    }

    if let Some(dir) = &opts.model_dir {
        match registry.load_dir(DEFAULT_MODEL, dir) {
            Ok(0) => {
                eprintln!(
                    "error: no model artefacts in {} (hint: --train H writes one)",
                    dir.display()
                );
                std::process::exit(1);
            }
            Ok(n) => eprintln!("[serve] loaded {n} model version(s) from {}", dir.display()),
            Err(e) => {
                eprintln!("error: loading models failed: {e}");
                std::process::exit(1);
            }
        }
    } else if opts.train.is_none() {
        usage_abort("need --model-dir and/or --train");
    }

    let workers = if opts.workers == 0 {
        ccsa_nn::parallel::default_threads()
    } else {
        opts.workers
    };
    let engine = ServeEngine::new(
        registry,
        &ServeConfig {
            cache_capacity: opts.cache,
            cache_stripes: opts.cache_stripes,
            batch: BatchConfig {
                workers,
                max_batch: opts.max_batch,
                ..BatchConfig::default()
            },
        },
    );
    eprintln!(
        "[serve] ready: cache={} workers={} max_batch={} kernels={kernel_backend} — reading JSON lines from stdin",
        opts.cache, workers, opts.max_batch
    );

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: stdin read failed: {e}");
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = proto::parse_request(&line);
        let is_shutdown = matches!(request, Ok(proto::Request::Shutdown));
        let response = match request {
            Ok(request) => proto::dispatch(&engine, request),
            Err(message) => proto::error_response(&message),
        };
        if writeln!(out, "{response}")
            .and_then(|()| out.flush())
            .is_err()
        {
            break; // downstream closed
        }
        if is_shutdown {
            eprintln!("[serve] shutdown requested — exiting");
            break;
        }
    }
}
