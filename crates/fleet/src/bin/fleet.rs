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
use std::time::Duration;

use ccsa_fleet::{CanaryConfig, Fleet, FleetConfig, ReplicaConfig};
use ccsa_gateway::signal;
use ccsa_gateway::transport::DoorFlags;
use ccsa_serve::process::{fail, Flags};

const USAGE: &str = "usage: fleet --replica TCP_ADDR,HTTP_ADDR[,ID] [--replica ...]...\n\
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
    /metrics, /v1/fleet and POST /v1/compare + /v1/rank.";

/// Parses `TCP_ADDR,HTTP_ADDR[,ID]`; `ordinal` names an unnamed replica.
fn parse_replica(spec: &str, ordinal: usize, flags: &Flags) -> ReplicaConfig {
    let socket = |addr: &str, what: &str| -> SocketAddr {
        addr.parse()
            .unwrap_or_else(|_| flags.abort(&format!("bad {what} address '{addr}'")))
    };
    let parts: Vec<&str> = spec.split(',').collect();
    let (tcp, http, id) = match parts.as_slice() {
        [tcp, http] => (*tcp, *http, format!("replica-{ordinal}")),
        [tcp, http, id] if !id.is_empty() => (*tcp, *http, (*id).to_string()),
        _ => flags.abort(&format!(
            "--replica '{spec}' needs the form TCP_ADDR,HTTP_ADDR[,ID]"
        )),
    };
    ReplicaConfig {
        id,
        addr: socket(tcp, "--replica TCP"),
        http_addr: socket(http, "--replica HTTP"),
    }
}

fn main() {
    let mut flags = Flags::from_env(USAGE);
    let mut doors = DoorFlags::new(7272);
    let mut replicas: Vec<ReplicaConfig> = Vec::new();
    let mut config = FleetConfig::default();
    let mut canary = CanaryConfig::default();
    let mut canary_on = false;
    while let Some(flag) = flags.next_flag() {
        // Every `--canary*` flag turns the controller on.
        canary_on |= flag.starts_with("--canary");
        let ms = Duration::from_millis;
        match flag.as_str() {
            "--replica" => {
                let spec = flags.value();
                replicas.push(parse_replica(&spec, replicas.len(), &flags));
            }
            "--hedge-ms" => config.hedge_after = Some(ms(flags.parse(&flag))),
            "--forward-timeout" => config.forward_timeout = Duration::from_secs(flags.parse(&flag)),
            "--probe-interval-ms" => {
                let every: u64 = flags.parse(&flag);
                config.probe_interval = (every > 0).then(|| ms(every));
            }
            "--probe-rise" => config.probe_rise = flags.parse(&flag),
            "--probe-fall" => config.probe_fall = flags.parse(&flag),
            "--probe-timeout-ms" => config.probe_timeout = ms(flags.parse(&flag)),
            "--routes-file" => config.routes_file = Some(flags.path()),
            "--table-poll-ms" => config.table_poll = ms(flags.parse(&flag)),
            "--canary" => {}
            "--canary-interval-ms" => canary.interval = ms(flags.parse(&flag)),
            "--canary-bake" => canary.bake_ticks = flags.parse(&flag),
            "--canary-rollback-after" => canary.rollback_after = flags.parse(&flag),
            "--canary-max-p99-delta" => canary.max_delta_p99_ms = flags.parse(&flag),
            "--canary-max-error-delta" => canary.max_delta_error_rate = flags.parse(&flag),
            "--max-conns" => config.max_connections = flags.parse(&flag),
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            _ if doors.take(&flag, &mut flags) => {}
            _ => flags.reject(&flag),
        }
    }
    if replicas.is_empty() {
        flags.abort("need at least one --replica TCP_ADDR,HTTP_ADDR[,ID]");
    }
    if canary_on {
        if config.routes_file.is_none() {
            flags.abort("--canary needs --routes-file (the table the controller rewrites)");
        }
        config.canary = Some(canary);
    }
    config.addr = doors.addr();
    config.http_addr = doors.http_addr();
    // Resolves `CCSA_KERNEL` now, as the replicas do: a bad value stops
    // the process here, before anything is bound or a port file written.
    let kernel_backend = ccsa_serve::kernel_backend();

    let fleet =
        Fleet::bind(replicas.clone(), config).unwrap_or_else(|e| fail(format!("bind failed: {e}")));
    let handle = fleet.handle();
    for replica in &replicas {
        eprintln!(
            "[fleet] replica {} at {} (http {})",
            replica.id, replica.addr, replica.http_addr
        );
    }
    if let Some(http_addr) = handle.http_addr() {
        eprintln!("[fleet] http front door on {http_addr} (healthz/readyz/metrics/v1)");
    }
    eprintln!(
        "[fleet] listening on {} ({} replicas, kernels={kernel_backend})",
        handle.addr(),
        replicas.len()
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
    doors.write_port_files(handle);

    if let Err(e) = fleet.run() {
        fail(format!("fleet failed: {e}"));
    }
    eprintln!("[fleet] drained cleanly");
}
