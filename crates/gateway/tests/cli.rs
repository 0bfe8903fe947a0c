//! The `gateway` binary's command line: usage errors and refused
//! limits exit 2 with nothing on stdout, and a saved model serves over
//! TCP and HTTP from start-up to a drain that exits 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use ccsa_corpus::ProblemTag;
use ccsa_model::pipeline::{Pipeline, PipelineConfig};

fn gateway(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gateway"))
        .args(args)
        .output()
        .expect("spawn gateway")
}

/// Exit 2, nothing on stdout, and stderr names the problem with
/// `needle` (the usage line, or the refusal's message).
fn assert_refused(args: &[&str], needle: &str) {
    let out = gateway(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: no {needle:?} in {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

fn assert_usage_error(args: &[&str]) {
    assert_refused(args, "usage: gateway");
}

/// A directory holding one tiny model, trained on problem H and saved.
fn model_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsa-gw-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = Pipeline::new(PipelineConfig::tiny(3))
        .run_single(ProblemTag::H)
        .expect("train a tiny model");
    ccsa_model::persist::save_version(&dir, &outcome.model).expect("save model");
    dir
}

/// The port a live child wrote to `path`, once the line is complete.
fn wait_for_port(path: &Path, child: &mut Child) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Some(port) = text.strip_suffix('\n') {
                return port.parse().expect("port file holds a port");
            }
        }
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("gateway exited before writing {}: {status}", path.display());
        }
        assert!(Instant::now() < deadline, "no {} in time", path.display());
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn exchange(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("write request");
    stream.write_all(b"\n").expect("write newline");
    let mut reply = String::new();
    BufReader::new(stream.try_clone().expect("clone stream"))
        .read_line(&mut reply)
        .expect("read reply");
    reply
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: cli\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    reply
}

#[test]
fn usage_errors_exit_2_with_the_usage_line() {
    assert_usage_error(&["--help"]);
    assert_usage_error(&["-h"]);
    assert_usage_error(&["--bogus"]);
    assert_usage_error(&["--model-dir"]);
    assert_usage_error(&["--port", "x"]);
    assert_usage_error(&["--cache", "x"]);
    assert_usage_error(&["--port", "0"]);
    assert_usage_error(&["--trace-sample", "101"]);
}

#[test]
fn refused_rate_limits_exit_2() {
    let dir = model_dir("limits");
    let dir = dir.to_str().expect("utf-8 temp dir");
    assert_refused(
        &[
            "--model-dir",
            dir,
            "--route",
            "default@v1=1",
            "--rate-limit",
            "default@v2=5",
        ],
        "matches no configured route",
    );
    assert_refused(
        &[
            "--model-dir",
            dir,
            "--rate-limit",
            "default=5",
            "--rate-limit",
            "default=6",
        ],
        "duplicate",
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_saved_model_serves_both_doors_and_drains_to_exit_0() {
    let dir = model_dir("drain");
    let port_file = dir.join("tcp.port");
    let http_port_file = dir.join("http.port");
    let mut child = Command::new(env!("CARGO_BIN_EXE_gateway"))
        .arg("--model-dir")
        .arg(&dir)
        .args(["--port", "0", "--http-port", "0", "--workers", "1"])
        .arg("--port-file")
        .arg(&port_file)
        .arg("--http-port-file")
        .arg(&http_port_file)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gateway");
    let port = wait_for_port(&port_file, &mut child);
    let http_port = wait_for_port(&http_port_file, &mut child);

    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect tcp");
    let pong = exchange(&mut stream, r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""ok":true"#), "ping: {pong}");
    let ready = http_get(SocketAddr::from(([127, 0, 0, 1], http_port)), "/readyz");
    assert!(ready.starts_with("HTTP/1.1 200"), "readyz: {ready}");
    let drain = exchange(&mut stream, r#"{"op":"shutdown"}"#);
    assert!(drain.contains(r#""ok":true"#), "shutdown: {drain}");

    let out = child.wait_with_output().expect("wait for gateway");
    assert_eq!(
        out.status.code(),
        Some(0),
        "gateway must exit 0 after a drain"
    );
    assert!(out.stdout.is_empty(), "gateway printed to stdout");
    let _ = std::fs::remove_dir_all(&dir);
}
