//! The `paper` binary's command line: usage errors exit 2 and name every
//! experiment, and one experiment runs end to end at tiny scale.

use std::process::{Command, Output};

use ccsa_paper::EXPERIMENTS;

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("spawn paper")
}

fn assert_usage_error(args: &[&str]) {
    let out = paper(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (name, _) in EXPERIMENTS {
        assert!(
            stderr.contains(name),
            "usage for {args:?} omits {name}: {stderr}"
        );
    }
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn usage_errors_exit_2_and_list_every_experiment() {
    assert_eq!(EXPERIMENTS.len(), 12);
    assert_usage_error(&[]);
    assert_usage_error(&["--scale", "tiny"]);
    assert_usage_error(&["fig8"]);
    assert_usage_error(&["fig4", "--scale", "quick"]);
}

#[test]
fn fig4_runs_at_tiny_scale() {
    let out = paper(&["fig4", "--scale", "tiny", "--threads", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("AUC")),
        "no AUC line in:\n{stdout}"
    );
}
