//! The `fleet` binary's command line: usage errors exit 2 with nothing
//! on stdout, and a fleet in front of an in-process gateway serves over
//! TCP and HTTP from start-up to a drain that exits 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccsa_gateway::{Gateway, GatewayConfig, Router};
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pipeline::TrainedModel;
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
use ccsa_serve::{ServeConfig, ServeEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fleet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(args)
        .output()
        .expect("spawn fleet")
}

fn assert_usage_error(args: &[&str]) {
    let out = fleet(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(stderr.contains("usage: fleet"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccsa-fleet-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
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
            panic!("fleet exited before writing {}: {status}", path.display());
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
    let replica = "127.0.0.1:7171,127.0.0.1:7180";
    assert_usage_error(&["--help"]);
    assert_usage_error(&["-h"]);
    assert_usage_error(&["--replica", replica, "--bogus"]);
    assert_usage_error(&["--replica", replica, "--port"]);
    assert_usage_error(&["--replica", replica, "--port", "x"]);
    assert_usage_error(&["--replica", replica, "--hedge-ms", "x"]);
    assert_usage_error(&["--port", "0"]);
    assert_usage_error(&["--replica", "127.0.0.1:7171"]);
    assert_usage_error(&["--replica", "127.0.0.1:7171,nowhere"]);
    assert_usage_error(&["--replica", replica, "--canary"]);
    assert_usage_error(&["--replica", replica, "--canary-max-error-delta", "x"]);
}

#[test]
fn a_fleet_over_a_gateway_serves_both_doors_and_drains_to_exit_0() {
    let config = EncoderConfig::TreeLstm(TreeLstmConfig {
        embed_dim: 6,
        hidden: 6,
        layers: 1,
        direction: Direction::Uni,
        sigmoid_candidate: false,
    });
    let mut params = Params::new();
    let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(3));
    let engine = Arc::new(ServeEngine::with_model(
        TrainedModel { comparator, params },
        &ServeConfig::default(),
    ));
    let replica = Gateway::spawn(
        engine,
        Router::single_default(),
        GatewayConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            ..GatewayConfig::default()
        },
    )
    .expect("spawn replica");
    let replica_spec = format!(
        "{},{},gw-0",
        replica.addr(),
        replica.http_addr().expect("replica http")
    );

    let dir = scratch_dir("drain");
    let port_file = dir.join("tcp.port");
    let http_port_file = dir.join("http.port");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args([
            "--replica",
            &replica_spec,
            "--port",
            "0",
            "--http-port",
            "0",
        ])
        .args(["--canary-max-error-delta", "-1", "--probe-interval-ms", "0"])
        .arg("--port-file")
        .arg(&port_file)
        .arg("--http-port-file")
        .arg(&http_port_file)
        .arg("--routes-file")
        .arg(dir.join("routes.json"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fleet");
    let port = wait_for_port(&port_file, &mut child);
    let http_port = wait_for_port(&http_port_file, &mut child);

    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect tcp");
    let pong = exchange(&mut stream, r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""ok":true"#), "ping: {pong}");
    let ready = http_get(SocketAddr::from(([127, 0, 0, 1], http_port)), "/readyz");
    assert!(ready.starts_with("HTTP/1.1 200"), "readyz: {ready}");
    let drain = exchange(&mut stream, r#"{"op":"shutdown"}"#);
    assert!(drain.contains(r#""ok":true"#), "shutdown: {drain}");

    let out = child.wait_with_output().expect("wait for fleet");
    assert_eq!(
        out.status.code(),
        Some(0),
        "fleet must exit 0 after a drain"
    );
    assert!(out.stdout.is_empty(), "fleet printed to stdout");
    replica.shutdown_and_join().expect("replica drains");
    let _ = std::fs::remove_dir_all(&dir);
}
