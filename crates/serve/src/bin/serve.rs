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

use ccsa_serve::process::{Flags, ModelFlags};
use ccsa_serve::{proto, ServeEngine};

const USAGE: &str = "usage: serve [--model-dir DIR] [--train A..I] [--seed N]\n\
    \x20            [--cache N] [--cache-stripes N] [--workers N]\n\
    \x20            [--max-batch N]\n\
    \n\
    Loads every model version in DIR (name 'default'); --train first\n\
    trains a small comparator on the given curated problem and saves\n\
    it into DIR (or serves it directly when no DIR is given).\n\
    Protocol: one JSON request per stdin line, one JSON response per\n\
    stdout line; ops: compare, rank, stats, ping, shutdown.\n\
    (TCP transport + A/B routing: see the `gateway` binary.)";

fn main() {
    let mut flags = Flags::from_env(USAGE);
    let mut model = ModelFlags::default();
    while let Some(flag) = flags.next_flag() {
        if !model.take(&flag, &mut flags) {
            flags.reject(&flag);
        }
    }
    // Resolves `CCSA_KERNEL` now: a bad value stops the process here,
    // not at the first encode of a server that already looks ready.
    let kernel_backend = ccsa_serve::kernel_backend();
    let (registry, config) = model.bootstrap("serve", &flags);
    let engine = ServeEngine::new(registry, &config);
    eprintln!(
        "[serve] ready: cache={} workers={} max_batch={} kernels={kernel_backend} — reading JSON lines from stdin",
        config.cache_capacity, config.batch.workers, config.batch.max_batch
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
