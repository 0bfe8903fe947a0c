#!/usr/bin/env bash
# The benchmark's command (`BENCHMARK.json`): builds the harness when it is
# missing or older than a source file, then runs the binary itself.
#
# Not `cargo run` per call: `crates/serve/build.rs` re-runs whenever
# `.git/HEAD` is missing, so in a checkout that is not a git repository cargo
# rebuilt serve, gateway, fleet and this package before every single run,
# 12 s each on 2 cores, a third of a run's wall time.
#
# Run from the repository root, with the harness's own arguments:
#     bash e2e/run.sh --workload warm_http --seed 42 --seconds 20 --trace 0
set -euo pipefail

bin="${CARGO_TARGET_DIR:-e2e/target}/release/e2e"
sources=(crates e2e/src e2e/Cargo.toml e2e/Cargo.lock)
if [[ ! -x "$bin" || -n "$(find "${sources[@]}" -newer "$bin" -print -quit)" ]]; then
    cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml
fi
exec "$bin" "$@"
