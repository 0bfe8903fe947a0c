//! The `gateway` binary: the CCSA serving gateway over TCP.
//!
//! ```sh
//! # Serve a model directory on an ephemeral port, 90/10 across two
//! # versions, shadowing v3 on 20% of traffic:
//! gateway --model-dir ./models --port 0 --port-file /tmp/gw.port \
//!         --route default@v1=0.9 --route default@v2=0.1 \
//!         --shadow default@v3=0.2
//!
//! # Then speak JSON lines over TCP (ops: compare, rank, stats, routes,
//! # ping, shutdown — see ccsa_serve::proto):
//! printf '{"op":"routes"}\n' | nc 127.0.0.1 $(cat /tmp/gw.port)
//! ```
//!
//! The process drains gracefully on SIGTERM or a `shutdown` request:
//! in-flight requests finish, sessions close, and — when
//! `--cache-snapshot` is set — the embedding cache is spilled so the
//! next boot starts warm.

use std::fmt::Display;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ccsa_gateway::server::route_label;
use ccsa_gateway::transport::DoorFlags;
use ccsa_gateway::{
    check_limits, signal, Gateway, GatewayConfig, RateLimit, Route, Router, ShadowRoute,
};
use ccsa_serve::process::{fail, Flags, ModelFlags};
use ccsa_serve::{ModelSelector, ServeEngine, DEFAULT_MODEL};

const USAGE: &str = "usage: gateway [--addr HOST] [--port N] [--port-file PATH]\n\
    \x20              [--http-port N] [--http-port-file PATH]\n\
    \x20              [--drain-grace SECS]\n\
    \x20              [--trace-log PATH] [--trace-sample PCT]\n\
    \x20              [--model-dir DIR] [--train A..I] [--seed N]\n\
    \x20              [--cache N] [--cache-stripes N] [--workers N]\n\
    \x20              [--max-batch N]\n\
    \x20              [--max-conns N] [--idle-timeout SECS]\n\
    \x20              [--route NAME[@vN]=WEIGHT]... [--shadow NAME[@vN]=FRACTION]\n\
    \x20              [--rate-limit NAME[@vN]=RPS]...\n\
    \x20              [--cache-snapshot PATH] [--allow-remote-shutdown]\n\
    \n\
    TCP serving gateway: JSON-lines protocol over keep-alive\n\
    sessions, weighted sticky A/B routing across registry\n\
    versions, shadow traffic, per-route stats ('routes' op), and\n\
    graceful drain on SIGTERM or a 'shutdown' request.\n\
    --port 0 binds an ephemeral port (written to --port-file).\n\
    --http-port additionally serves an HTTP/1.1 front door on the\n\
    same host: GET /healthz, /readyz (503 while draining),\n\
    /metrics (Prometheus text), /v1/stats, /v1/routes, and\n\
    POST /v1/compare + /v1/rank (responses bit-identical to the\n\
    TCP transport's; rank streams chunked). --drain-grace keeps\n\
    the HTTP probes answering that long after a drain begins, so\n\
    load balancers observe the 503 before the socket goes away.\n\
    --trace-log appends one JSON line per sampled request\n\
    (--trace-sample percent, deterministic on the request ID) with\n\
    its route, status, latency, and per-stage timing split.\n\
    --rate-limit caps a route's sustained requests/second with a\n\
    token bucket; over-limit requests get a polite ok:false and a\n\
    'rate_limited' counter in the 'routes' stats.\n\
    --cache-snapshot warms the embedding cache at boot and spills\n\
    it at shutdown, one file per route/shadow selector\n\
    (<PATH>.<model>.<version>); a snapshot from different weights\n\
    or in another format is refused, never silently served.";

/// A refused routing table or limit: `error: {message}`, exit 2.
fn refuse(message: impl Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Parses `name[@vN]=X` into a selector plus its number. `name` may be
/// empty (registry default); the version may be `vN`, `N`, or `latest`.
fn parse_target(flags: &mut Flags, what: &str) -> (ModelSelector, f64) {
    let spec = flags.value();
    let Some((target, number)) = spec.rsplit_once('=') else {
        flags.abort(&format!("{what} '{spec}' needs the form name[@vN]=NUMBER"));
    };
    let number: f64 = number
        .parse()
        .unwrap_or_else(|_| flags.abort(&format!("bad number in {what} '{spec}'")));
    let (name, version) = match target.split_once('@') {
        None => (target, None),
        Some((name, "latest")) => (name, None),
        Some((name, v)) => {
            let v = v.strip_prefix('v').unwrap_or(v);
            match v.parse::<u32>() {
                Ok(v) => (name, Some(v)),
                Err(_) => flags.abort(&format!("bad version in {what} '{spec}'")),
            }
        }
    };
    let selector = ModelSelector {
        name: (!name.is_empty()).then(|| name.to_string()),
        version,
    };
    (selector, number)
}

fn main() {
    let mut flags = Flags::from_env(USAGE);
    let mut doors = DoorFlags::new(7171);
    let mut model = ModelFlags::default();
    let mut config = GatewayConfig {
        honor_sigterm: true,
        ..GatewayConfig::default()
    };
    let mut routes = Vec::new();
    let mut shadow = None;
    let mut cache_snapshot: Option<PathBuf> = None;
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--drain-grace" => config.drain_grace = Duration::from_secs(flags.parse(&flag)),
            "--trace-log" => config.trace_log = Some(flags.path()),
            "--trace-sample" => {
                let pct: f64 = flags.parse(&flag);
                if !pct.is_finite() || !(0.0..=100.0).contains(&pct) {
                    flags.abort("--trace-sample must be a percentage in [0, 100]");
                }
                config.trace_sample_percent = pct;
            }
            "--max-conns" => config.max_connections = flags.parse(&flag),
            "--idle-timeout" => {
                let secs: u64 = flags.parse(&flag);
                config.idle_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--route" => {
                let (selector, weight) = parse_target(&mut flags, "--route");
                routes.push(Route { selector, weight });
            }
            "--shadow" => {
                let (selector, fraction) = parse_target(&mut flags, "--shadow");
                shadow = Some(ShadowRoute { selector, fraction });
            }
            "--rate-limit" => {
                let (selector, rps) = parse_target(&mut flags, "--rate-limit");
                config.rate_limits.push(RateLimit { selector, rps });
            }
            "--cache-snapshot" => cache_snapshot = Some(flags.path()),
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            _ if doors.take(&flag, &mut flags) || model.take(&flag, &mut flags) => {}
            _ => flags.reject(&flag),
        }
    }
    config.addr = doors.addr();
    config.http_addr = doors.http_addr();
    if routes.is_empty() {
        // No explicit table: everything to the registry default — but a
        // given --shadow still applies (shadow-only ramps are a normal
        // first step).
        routes.push(Route {
            selector: ModelSelector::default(),
            weight: 1.0,
        });
    }
    // The table and its limits are checked before any model work: a
    // limit naming an absent route would silently never fire.
    let router =
        Router::new(routes, shadow).unwrap_or_else(|e| refuse(format!("bad routing table: {e}")));
    check_limits(&config.rate_limits, &router).unwrap_or_else(|e| refuse(e));
    // Resolves `CCSA_KERNEL` now: a bad value stops the process here,
    // before anything is bound or a port file written.
    let kernel_backend = ccsa_serve::kernel_backend();
    let (registry, serve_config) = model.bootstrap("gateway", &flags);

    // Fail fast on selector typos: the registry is immutable once the
    // engine owns it, so a route pointing at a version that is not
    // loaded would otherwise fail its whole traffic share at runtime.
    for selector in snapshot_targets(&router) {
        if let Err(e) = registry.resolve(&selector) {
            refuse(format!(
                "route/shadow target {} does not resolve: {e}",
                route_label(&selector)
            ));
        }
    }
    let engine = Arc::new(ServeEngine::new(registry, &serve_config));

    for (route, share) in router.routes().iter().zip(router.shares()) {
        eprintln!(
            "[gateway] route {} share {:.1}%",
            route_label(&route.selector),
            share * 100.0
        );
    }
    if let Some(shadow) = router.shadow() {
        eprintln!(
            "[gateway] shadow {} fraction {:.1}%",
            route_label(&shadow.selector),
            shadow.fraction * 100.0
        );
    }
    for limit in &config.rate_limits {
        eprintln!(
            "[gateway] rate limit {} at {} req/s",
            route_label(&limit.selector),
            limit.rps
        );
    }

    // Warm start: one snapshot file per route/shadow selector (each
    // registration has its own cache space and weights digest).
    let warm_targets = snapshot_targets(&router);
    if let Some(base) = &cache_snapshot {
        for selector in &warm_targets {
            let path = snapshot_path(base, selector);
            if !path.exists() {
                continue;
            }
            match engine.warm_cache(selector, &path) {
                Ok(n) => eprintln!(
                    "[gateway] warm start: {n} cached embeddings for {} from {}",
                    route_label(selector),
                    path.display()
                ),
                Err(e) => eprintln!(
                    "[gateway] warm start skipped for {}: {e}",
                    route_label(selector)
                ),
            }
        }
    }

    if !signal::install_sigterm_handler() {
        eprintln!("[gateway] warning: SIGTERM handler not installed; use the 'shutdown' op");
    }

    let max_conns = config.max_connections;
    let gateway = Gateway::bind(Arc::clone(&engine), router, config)
        .unwrap_or_else(|e| fail(format!("bind failed: {e}")));
    let handle = gateway.handle();
    if let Some(http_addr) = handle.http_addr() {
        eprintln!("[gateway] http front door on {http_addr} (healthz/readyz/metrics/v1)");
    }
    eprintln!(
        "[gateway] listening on {} (cache={} workers={} max_batch={} max_conns={max_conns} kernels={kernel_backend})",
        handle.addr(),
        serve_config.cache_capacity,
        serve_config.batch.workers,
        serve_config.batch.max_batch
    );
    doors.write_port_files(handle);

    if let Err(e) = gateway.run() {
        fail(format!("gateway failed: {e}"));
    }

    if let Some(base) = &cache_snapshot {
        for selector in &warm_targets {
            let path = snapshot_path(base, selector);
            match engine.snapshot_cache(selector, &path) {
                Ok(n) => eprintln!(
                    "[gateway] spilled {n} cached embeddings for {} to {}",
                    route_label(selector),
                    path.display()
                ),
                Err(e) => eprintln!(
                    "[gateway] cache spill failed for {}: {e}",
                    route_label(selector)
                ),
            }
        }
    }
    eprintln!("[gateway] drained cleanly");
}

/// The distinct selectors whose caches are worth spilling/warming: every
/// route plus the shadow target.
fn snapshot_targets(router: &Router) -> Vec<ModelSelector> {
    let mut targets: Vec<ModelSelector> = Vec::new();
    for route in router.routes() {
        if !targets.contains(&route.selector) {
            targets.push(route.selector.clone());
        }
    }
    if let Some(shadow) = router.shadow() {
        if !targets.contains(&shadow.selector) {
            targets.push(shadow.selector.clone());
        }
    }
    targets
}

/// Per-selector snapshot file: `<base>.<name>.<version>` (the digest
/// check inside the snapshot guards against a `latest` that resolves to
/// different weights across boots).
fn snapshot_path(base: &std::path::Path, selector: &ModelSelector) -> PathBuf {
    let name: String = selector
        .name
        .as_deref()
        .unwrap_or(DEFAULT_MODEL)
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let version = selector
        .version
        .map(|v| format!("v{v}"))
        .unwrap_or_else(|| "latest".to_string());
    let mut file = base
        .file_name()
        .map(|f| f.to_os_string())
        .unwrap_or_default();
    file.push(format!(".{name}.{version}"));
    base.with_file_name(file)
}
