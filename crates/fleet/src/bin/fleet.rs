//! The `fleet` binary: front tier + control plane for N gateways.
//!
//! ```sh
//! # Two replicas, hedging at 25 ms, canary controller on a table file:
//! fleet --port 0 --port-file /tmp/fleet.port \
//!       --replica 127.0.0.1:7171,127.0.0.1:7180,gw-0 \
//!       --replica 127.0.0.1:7172,127.0.0.1:7181,gw-1 \
//!       --hedge-ms 25 --routes-file ./routes.json --canary
//!
//! # Clients speak the same JSON-lines protocol as to a gateway, plus
//! # the fleet-local 'fleet' stats verb:
//! printf '{"op":"fleet"}\n' | nc 127.0.0.1 $(cat /tmp/fleet.port)
//! ```

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use ccsa_fleet::{CanaryConfig, Fleet, FleetConfig, ReplicaConfig};
use ccsa_gateway::signal;

struct Options {
    addr: String,
    port: u16,
    port_file: Option<PathBuf>,
    http_port: Option<u16>,
    http_port_file: Option<PathBuf>,
    replicas: Vec<ReplicaConfig>,
    config: FleetConfig,
    canary_on: bool,
}

fn usage_abort(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: fleet --replica TCP_ADDR,HTTP_ADDR[,ID] [--replica ...]...\n\
         \x20            [--addr HOST] [--port N] [--port-file PATH]\n\
         \x20            [--http-port N] [--http-port-file PATH]\n\
         \x20            [--hedge-ms N] [--forward-timeout SECS]\n\
         \x20            [--probe-interval-ms N] [--probe-rise N] [--probe-fall N]\n\
         \x20            [--probe-timeout-ms N]\n\
         \x20            [--routes-file PATH] [--table-poll-ms N]\n\
         \x20            [--canary] [--canary-interval-ms N] [--canary-bake N]\n\
         \x20            [--canary-rollback-after N] [--canary-max-p99-delta MS]\n\
         \x20            [--canary-max-error-delta F]\n\
         \x20            [--max-conns N] [--allow-remote-shutdown]\n\
         \n\
         Front tier for a set of gateway replicas: one address, sticky\n\
         consistent-hash routing on the 'client' key, transparent\n\
         failover, tail hedging (--hedge-ms, typically the replica p99),\n\
         /readyz health ejection with rise/fall hysteresis, and a\n\
         hot-reloadable routing table (--routes-file) pushed to every\n\
         replica via 'reload_routes'. --canary watches each replica's\n\
         shadow-vs-primary deltas and ramps the shadow candidate\n\
         1%->10%->50%->100% (or rolls it back to weight 0) by rewriting\n\
         the table — no process restarts. --probe-interval-ms 0 turns\n\
         the prober off. The HTTP front serves GET /healthz, /readyz,\n\
         /metrics, /v1/fleet and POST /v1/compare + /v1/rank."
    );
    std::process::exit(2);
}

fn parse_socket(spec: &str, what: &str) -> SocketAddr {
    spec.parse()
        .unwrap_or_else(|_| usage_abort(&format!("bad {what} address '{spec}'")))
}

fn parse_options() -> Options {
    let mut opts = Options {
        addr: "127.0.0.1".to_string(),
        port: 7272,
        port_file: None,
        http_port: None,
        http_port_file: None,
        replicas: Vec::new(),
        config: FleetConfig::default(),
        canary_on: false,
    };
    let mut canary = CanaryConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .cloned()
                .unwrap_or_else(|| usage_abort("missing argument value"))
        };
        let millis = |i: &mut usize, what: &str| -> u64 {
            value(i)
                .parse()
                .unwrap_or_else(|_| usage_abort(&format!("bad {what}")))
        };
        match args[i].as_str() {
            "--addr" => opts.addr = value(&mut i),
            "--port" => {
                opts.port = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --port"))
            }
            "--port-file" => opts.port_file = Some(PathBuf::from(value(&mut i))),
            "--http-port" => {
                opts.http_port = Some(
                    value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage_abort("bad --http-port")),
                )
            }
            "--http-port-file" => opts.http_port_file = Some(PathBuf::from(value(&mut i))),
            "--replica" => {
                let spec = value(&mut i);
                let parts: Vec<&str> = spec.split(',').collect();
                let (tcp, http, id) = match parts.as_slice() {
                    [tcp, http] => (*tcp, *http, format!("replica-{}", opts.replicas.len())),
                    [tcp, http, id] if !id.is_empty() => (*tcp, *http, (*id).to_string()),
                    _ => usage_abort(&format!(
                        "--replica '{spec}' needs the form TCP_ADDR,HTTP_ADDR[,ID]"
                    )),
                };
                opts.replicas.push(ReplicaConfig {
                    id,
                    addr: parse_socket(tcp, "--replica TCP"),
                    http_addr: parse_socket(http, "--replica HTTP"),
                });
            }
            "--hedge-ms" => {
                opts.config.hedge_after = Some(Duration::from_millis(millis(&mut i, "--hedge-ms")))
            }
            "--forward-timeout" => {
                opts.config.forward_timeout =
                    Duration::from_secs(millis(&mut i, "--forward-timeout"))
            }
            "--probe-interval-ms" => {
                let ms = millis(&mut i, "--probe-interval-ms");
                opts.config.probe_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--probe-rise" => {
                opts.config.probe_rise = millis(&mut i, "--probe-rise") as u32;
            }
            "--probe-fall" => {
                opts.config.probe_fall = millis(&mut i, "--probe-fall") as u32;
            }
            "--probe-timeout-ms" => {
                opts.config.probe_timeout =
                    Duration::from_millis(millis(&mut i, "--probe-timeout-ms"))
            }
            "--routes-file" => {
                opts.config.routes_file = Some(PathBuf::from(value(&mut i)));
            }
            "--table-poll-ms" => {
                opts.config.table_poll = Duration::from_millis(millis(&mut i, "--table-poll-ms"))
            }
            "--canary" => opts.canary_on = true,
            "--canary-interval-ms" => {
                canary.interval = Duration::from_millis(millis(&mut i, "--canary-interval-ms"));
                opts.canary_on = true;
            }
            "--canary-bake" => {
                canary.bake_ticks = millis(&mut i, "--canary-bake") as u32;
                opts.canary_on = true;
            }
            "--canary-rollback-after" => {
                canary.rollback_after = millis(&mut i, "--canary-rollback-after") as u32;
                opts.canary_on = true;
            }
            "--canary-max-p99-delta" => {
                canary.max_delta_p99_ms = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --canary-max-p99-delta"));
                opts.canary_on = true;
            }
            "--canary-max-error-delta" => {
                canary.max_delta_error_rate = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --canary-max-error-delta"));
                opts.canary_on = true;
            }
            "--max-conns" => {
                opts.config.max_connections = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --max-conns"))
            }
            "--allow-remote-shutdown" => opts.config.allow_remote_shutdown = true,
            "--help" | "-h" => usage_abort(""),
            other => usage_abort(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if opts.replicas.is_empty() {
        usage_abort("need at least one --replica TCP_ADDR,HTTP_ADDR[,ID]");
    }
    if opts.canary_on {
        if opts.config.routes_file.is_none() {
            usage_abort("--canary needs --routes-file (the table the controller rewrites)");
        }
        opts.config.canary = Some(canary);
    }
    opts
}

fn main() {
    let mut opts = parse_options();
    opts.config.addr = format!("{}:{}", opts.addr, opts.port);
    opts.config.http_addr = opts.http_port.map(|port| format!("{}:{}", opts.addr, port));
    // Resolves `CCSA_KERNEL` now, as the replicas do: a bad value stops
    // the process here, before anything is bound or a port file written.
    let kernel_backend = ccsa_serve::kernel_backend();

    let fleet = match Fleet::bind(opts.replicas.clone(), opts.config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = fleet.local_addr();
    let handle = fleet.handle();
    for replica in &opts.replicas {
        eprintln!(
            "[fleet] replica {} at {} (http {})",
            replica.id, replica.addr, replica.http_addr
        );
    }
    if let Some(http_addr) = fleet.http_addr() {
        eprintln!("[fleet] http front door on {http_addr} (healthz/readyz/metrics/v1)");
    }
    eprintln!(
        "[fleet] listening on {addr} ({} replicas, kernels={kernel_backend})",
        opts.replicas.len()
    );

    // SIGTERM drains the fleet exactly like the 'shutdown' verb; the
    // poller is detached for the same reason the port-file writer is.
    if signal::install_sigterm_handler() {
        let sig_handle = handle.clone();
        let _detached = std::thread::spawn(move || loop {
            if signal::sigterm_received() {
                sig_handle.shutdown();
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        });
    } else {
        eprintln!("[fleet] warning: SIGTERM handler not installed; use the 'shutdown' op");
    }

    // Port files wait for the accept loops, as on the gateway: the file
    // appearing is the supervisor's "come probe me" signal.
    {
        let ready_handle = handle.clone();
        let port_file = opts.port_file.clone();
        let http_port_file = opts.http_port_file.clone();
        let http_port = fleet.http_addr().map(|a| a.port());
        let _detached = std::thread::spawn(move || {
            while !ready_handle.accepting() {
                std::thread::sleep(Duration::from_millis(2));
            }
            if let Some(path) = &port_file {
                if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
                    eprintln!("error: writing --port-file failed: {e}");
                    std::process::exit(1);
                }
            }
            if let (Some(path), Some(port)) = (&http_port_file, http_port) {
                if let Err(e) = std::fs::write(path, format!("{port}\n")) {
                    eprintln!("error: writing --http-port-file failed: {e}");
                    std::process::exit(1);
                }
            }
        });
    }

    if let Err(e) = fleet.run() {
        eprintln!("error: fleet failed: {e}");
        std::process::exit(1);
    }
    eprintln!("[fleet] drained cleanly");
}
