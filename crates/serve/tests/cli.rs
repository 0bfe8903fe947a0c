//! The `serve` binary's command line: usage errors exit 2 with nothing
//! on stdout, and a saved model answers a compare line on stdin and
//! exits 0 at end of input.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use ccsa_corpus::ProblemTag;
use ccsa_model::pipeline::{Pipeline, PipelineConfig};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn serve")
}

fn assert_usage_error(args: &[&str]) {
    let out = serve(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(stderr.contains("usage: serve"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

/// A directory holding one tiny model, trained on problem H and saved.
fn model_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsa-serve-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = Pipeline::new(PipelineConfig::tiny(3))
        .run_single(ProblemTag::H)
        .expect("train a tiny model");
    ccsa_model::persist::save_version(&dir, &outcome.model).expect("save model");
    dir
}

#[test]
fn usage_errors_exit_2_with_the_usage_line() {
    assert_usage_error(&["--help"]);
    assert_usage_error(&["-h"]);
    assert_usage_error(&["--bogus"]);
    assert_usage_error(&["--model-dir"]);
    assert_usage_error(&["--cache", "x"]);
    assert_usage_error(&["--workers", "-1"]);
    assert_usage_error(&["--train", "Z"]);
    assert_usage_error(&["--cache", "8"]);
}

#[test]
fn a_saved_model_answers_stdin_and_exits_0_at_eof() {
    let dir = model_dir("stdin");
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--model-dir")
        .arg(&dir)
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"{\"op\":\"compare\",\"first\":\"int main() { return 0; }\",\
              \"second\":\"int main() { for (int i = 0; i < 9; i++) { } return 0; }\"}\n",
        )
        .expect("write request");
    let out = child.wait_with_output().expect("wait for serve");
    assert_eq!(out.status.code(), Some(0), "serve must exit 0 at EOF");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "one reply per request: {stdout}");
    assert!(lines[0].contains(r#""ok":true"#), "compare: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
