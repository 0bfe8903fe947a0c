//! Whole-suite commands. Every run is a fresh child process of this same
//! executable, so CPU time, peak memory and the `tensor::pool` / `par`
//! globals belong to one workload.

use std::process::{Command, Stdio};

use ccsa_serve::json::{self, Json};

use crate::corpus::{Stream, Workload};
use crate::load::median;
use crate::Plan;

const BENCHMARK_FILE: &str = "BENCHMARK.json";
/// What `aa` runs, as the driver does: this many runs per set, each on its
/// own seed, counted up from the first.
const RUNS_PER_SET: u64 = 10;
const FIRST_SEED: u64 = 1;

/// One child run; `None` (with the reason on stderr) when it failed to
/// print a result.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawning a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().and_then(|l| json::parse(l).ok());
    if parsed.is_none() || !output.status.success() {
        eprintln!(
            "e2e: {} seed {seed} failed: {}",
            workload.name(),
            output.status
        );
        return None;
    }
    parsed
}

/// One further set-up of `workload` from process start; its seconds.
pub fn setup_child(workload: Workload, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["setup", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawning a set-up child");
    assert!(output.status.success(), "set-up child: {}", output.status);
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .expect("the set-up child prints its seconds")
}

/// The value after flag `name`, if it is there and parses.
pub fn option<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1)?.parse().ok()
}

fn benchmark_file() -> Json {
    let text = std::fs::read_to_string(BENCHMARK_FILE)
        .unwrap_or_else(|e| panic!("{BENCHMARK_FILE} (run from the repository root): {e}"));
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// The window length every run of the suite commands measures for.
fn run_seconds(benchmark: &Json) -> f64 {
    benchmark
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What two result files must share before their numbers are compared.
fn fingerprint(seed: u64, seconds: f64) -> Json {
    let plan = Plan::full(seconds);
    let capacity = |w| Json::num(crate::shape(w).cache_capacity as f64);
    Json::obj(vec![
        ("seed", Json::num(seed as f64)),
        ("window_seconds", Json::num(seconds)),
        (
            "host",
            Json::obj(vec![
                (
                    "nproc",
                    Json::num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
                ),
                (
                    "kernel_backend",
                    Json::str(ccsa_tensor::kernels::active().backend.to_string()),
                ),
                ("rustc", Json::str(command_line("rustc", &["--version"]))),
                (
                    "commit",
                    Json::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        (
            "pinned",
            Json::obj(vec![
                ("load_model", Json::str("closed loop")),
                ("clients", Json::num(crate::CLIENTS as f64)),
                ("encode_workers", Json::num(crate::ENCODE_WORKERS as f64)),
                ("max_batch", Json::num(crate::MAX_BATCH as f64)),
                ("par_threads", Json::num(crate::PAR_THREADS as f64)),
                ("op_timeout_s", Json::num(crate::OP_TIMEOUT.as_secs_f64())),
                (
                    "encoder",
                    Json::str("TreeLstmConfig::paper(), seeded, untrained"),
                ),
                ("pool_programs", Json::num(plan.pool as f64)),
                ("warm_set", Json::num(plan.warm_set as f64)),
                ("cache_capacity_warm_http", capacity(Workload::WarmHttp)),
                ("cache_capacity_cold_http", capacity(Workload::ColdHttp)),
                (
                    "cache_capacity_mixed_fleet_per_replica",
                    capacity(Workload::MixedFleet),
                ),
                (
                    "fleet_replicas",
                    Json::num(crate::shape(Workload::MixedFleet).replicas as f64),
                ),
                ("window_parts", Json::num(crate::WINDOW_PARTS as f64)),
                ("zipf_s", Json::num(crate::ZIPF_S)),
                ("virtual_clients", Json::num(crate::VIRTUAL_CLIENTS as f64)),
                ("rank_share", Json::num(crate::RANK_SHARE)),
                ("rank_k", Json::num(crate::RANK_K as f64)),
                ("train_pairs_per_step", Json::num(crate::TRAIN_PAIRS as f64)),
                (
                    "checked_one_reply_in",
                    Json::num(crate::SAMPLE_EVERY as f64),
                ),
                ("setup_repeats", Json::num(plan.setup_repeats as f64)),
                ("ladder_requests", Json::num(plan.ladder_requests as f64)),
                (
                    "ladder_requests_hits",
                    Json::num(plan.ladder_requests_hits as f64),
                ),
            ]),
        ),
    ])
}

/// `e2e run`: every workload measured and traced; one JSON document.
pub fn run(args: &[String]) -> i32 {
    let seed = option(args, "--seed").unwrap_or(42);
    let seconds = run_seconds(&benchmark_file());
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut entry = vec![(
            "stream_hash",
            Json::str(format!(
                "{:016x}",
                Stream::new(workload, seed, &Plan::full(seconds)).hash()
            )),
        )];
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let Some(result) = child(workload, seed, seconds, trace) else {
                return 1;
            };
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            entry.push((key, result));
        }
        workloads.push((workload.name(), Json::obj(entry)));
    }
    println!(
        "{}",
        Json::obj(vec![
            ("bench", Json::str("e2e")),
            ("claim", Json::Null),
            ("settings", fingerprint(seed, seconds)),
            ("workloads", Json::obj(workloads)),
        ])
    );
    if all_correct {
        0
    } else {
        1
    }
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method), which
/// is what the driver applies to the same ten values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let (n, m) = (x.len() as i64, x.len() as i64 + 1);
    assert!(n >= 2, "quartiles need two values");
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = i * m - j * 4;
        (x[j as usize - 1] * (4 - delta) as f64 + x[j as usize] * delta as f64) / 4.0
    })
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// `e2e aa`: the driver's acceptance test run here. Two sets of ten runs
/// per workload on this one build, a different seed per run, the sets
/// alternating; each metric's spread within a set and the shift of its
/// median between the sets, beside the bound `BENCHMARK.json` gives it.
/// Writes both sets and one traced run per workload to `baseline.json`
/// beside this package.
pub fn aa() -> i32 {
    let benchmark = benchmark_file();
    let seconds = run_seconds(&benchmark);
    let metrics: Vec<(String, bool, f64)> = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("better").and_then(Json::as_str) == Some("higher"),
                m.get("bound").and_then(Json::as_f64).expect("bound"),
            )
        })
        .collect();

    // values[set][workload][metric] = one value per run. The sets take
    // turns run by run, the one that goes first changing each time: this
    // host slows by a quarter for ten minutes at a time, and two sets run as
    // blocks an hour apart measure that, not the benchmark.
    let mut values = vec![vec![vec![Vec::<f64>::new(); metrics.len()]; Workload::ALL.len()]; 2];
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for k in 0..RUNS_PER_SET {
            let first = (k % 2) as usize;
            for set in [first, 1 - first] {
                let Some(result) = child(workload, FIRST_SEED + k, seconds, false) else {
                    return 1;
                };
                if result.get("correct").and_then(Json::as_bool) != Some(true) {
                    eprintln!(
                        "e2e: {} seed {} answered wrongly",
                        workload.name(),
                        FIRST_SEED + k
                    );
                    return 1;
                }
                for (m, (name, _, _)) in metrics.iter().enumerate() {
                    let value = result
                        .get("metrics")
                        .and_then(|ms| ms.get(name))
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("run printed no {name}"));
                    values[set][w][m].push(value);
                }
            }
        }
    }

    let mut within = true;
    let mut rows = Vec::new();
    eprintln!(
        "{:<12} {:<16} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "shift", "bound"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, (name, higher_better, bound)) in metrics.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let (median_a, median_b) = (median(a), median(b));
            let worse = if *higher_better {
                (median_a - median_b) / median_a
            } else {
                (median_b - median_a) / median_a
            };
            let (spread_a, spread_b) = (spread(a), spread(b));
            // Set-up time's spread is reported but, as in the driver, only
            // its shift is held to the bound.
            let ok = worse <= *bound
                && (name == "setup_s" || (spread_a <= *bound && spread_b <= *bound));
            within &= ok;
            eprintln!(
                "{:<12} {:<16} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>+7.1}% {:>6.0}%{}",
                workload.name(),
                name,
                median_a,
                median_b,
                spread_a * 100.0,
                spread_b * 100.0,
                worse * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
            rows.push(Json::obj(vec![
                ("workload", Json::str(workload.name())),
                ("metric", Json::str(name.as_str())),
                ("bound", Json::num(*bound)),
                (
                    "set_a",
                    Json::Arr(a.iter().map(|v| Json::num(*v)).collect()),
                ),
                (
                    "set_b",
                    Json::Arr(b.iter().map(|v| Json::num(*v)).collect()),
                ),
                ("median_a", Json::num(median_a)),
                ("median_b", Json::num(median_b)),
                ("spread_a", Json::num(spread_a)),
                ("spread_b", Json::num(spread_b)),
                ("worsening_b_vs_a", Json::num(worse)),
                ("within_bound", Json::Bool(ok)),
            ]));
        }
    }

    let mut per_layer = Vec::new();
    for workload in Workload::ALL {
        let Some(result) = child(workload, FIRST_SEED, seconds, true) else {
            return 1;
        };
        per_layer.push((workload.name(), result));
    }

    let doc = Json::obj(vec![
        ("bench", Json::str("e2e aa")),
        ("claim", Json::Null),
        ("runs_per_set", Json::num(RUNS_PER_SET as f64)),
        ("first_seed", Json::num(FIRST_SEED as f64)),
        ("settings", fingerprint(FIRST_SEED, seconds)),
        ("all_within_bounds", Json::Bool(within)),
        ("end_to_end", Json::Arr(rows)),
        ("per_layer", Json::obj(per_layer)),
    ]);
    let dir = benchmark
        .get("paths")
        .and_then(Json::as_arr)
        .and_then(|p| p.first())
        .and_then(Json::as_str)
        .expect("paths[0]");
    let path = std::path::Path::new(dir).join("baseline.json");
    std::fs::write(&path, format!("{doc}\n")).expect("writing baseline.json");
    eprintln!(
        "e2e: wrote {}; every metric within its bound: {within}",
        path.display()
    );
    if within {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }
}
