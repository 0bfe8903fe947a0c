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

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ccsa_corpus::ProblemTag;
use ccsa_gateway::{signal, Gateway, GatewayConfig, RateLimit, Route, Router, ShadowRoute};
use ccsa_model::pipeline::{Pipeline, PipelineConfig};
use ccsa_serve::{
    BatchConfig, CachePrecision, ModelRegistry, ModelSelector, ServeConfig, ServeEngine,
    DEFAULT_MODEL,
};

struct Options {
    addr: String,
    port: u16,
    port_file: Option<PathBuf>,
    http_port: Option<u16>,
    http_port_file: Option<PathBuf>,
    drain_grace_secs: u64,
    trace_log: Option<PathBuf>,
    trace_sample: f64,
    model_dir: Option<PathBuf>,
    train: Option<ProblemTag>,
    train_seed: u64,
    cache: usize,
    cache_stripes: usize,
    cache_precision: CachePrecision,
    workers: usize,
    max_batch: usize,
    max_conns: usize,
    idle_timeout_secs: u64,
    routes: Vec<Route>,
    shadow: Option<ShadowRoute>,
    rate_limits: Vec<RateLimit>,
    cache_snapshot: Option<PathBuf>,
    allow_remote_shutdown: bool,
}

fn usage_abort(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: gateway [--addr HOST] [--port N] [--port-file PATH]\n\
         \x20              [--http-port N] [--http-port-file PATH]\n\
         \x20              [--drain-grace SECS]\n\
         \x20              [--trace-log PATH] [--trace-sample PCT]\n\
         \x20              [--model-dir DIR] [--train A..I] [--seed N]\n\
         \x20              [--cache N] [--cache-stripes N]\n\
         \x20              [--cache-precision f32|f16|int8] [--workers N]\n\
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
         is refused, never silently served.\n\
         --cache-precision stores cached embeddings at f32 (lossless,\n\
         default), f16, or int8 (per-code affine quantization, 4x\n\
         denser); snapshots record their precision and a file written\n\
         at a different precision is refused, never transcoded\n\
         implicitly."
    );
    std::process::exit(2);
}

/// Parses `name[@vN]=X` into a selector plus its number. `name` may be
/// empty (registry default); the version may be `vN`, `N`, or `latest`.
fn parse_target(spec: &str, what: &str) -> (ModelSelector, f64) {
    let Some((target, number)) = spec.rsplit_once('=') else {
        usage_abort(&format!("{what} '{spec}' needs the form name[@vN]=NUMBER"));
    };
    let number: f64 = number
        .parse()
        .unwrap_or_else(|_| usage_abort(&format!("bad number in {what} '{spec}'")));
    let (name, version) = match target.split_once('@') {
        None => (target, None),
        Some((name, "latest")) => (name, None),
        Some((name, v)) => {
            let v = v.strip_prefix('v').unwrap_or(v);
            match v.parse::<u32>() {
                Ok(v) => (name, Some(v)),
                Err(_) => usage_abort(&format!("bad version in {what} '{spec}'")),
            }
        }
    };
    let selector = ModelSelector {
        name: (!name.is_empty()).then(|| name.to_string()),
        version,
    };
    (selector, number)
}

fn parse_options() -> Options {
    let mut opts = Options {
        addr: "127.0.0.1".to_string(),
        port: 7171,
        port_file: None,
        http_port: None,
        http_port_file: None,
        drain_grace_secs: 0,
        trace_log: None,
        trace_sample: 100.0,
        model_dir: None,
        train: None,
        train_seed: 42,
        cache: 4096,
        cache_stripes: 0,
        cache_precision: CachePrecision::F32,
        workers: 0,
        max_batch: 16,
        max_conns: 64,
        idle_timeout_secs: 0,
        routes: Vec::new(),
        shadow: None,
        rate_limits: Vec::new(),
        cache_snapshot: None,
        allow_remote_shutdown: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .cloned()
                .unwrap_or_else(|| usage_abort("missing argument value"))
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
            "--drain-grace" => {
                opts.drain_grace_secs = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --drain-grace"))
            }
            "--trace-log" => opts.trace_log = Some(PathBuf::from(value(&mut i))),
            "--trace-sample" => {
                let pct: f64 = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --trace-sample"));
                if !pct.is_finite() || !(0.0..=100.0).contains(&pct) {
                    usage_abort("--trace-sample must be a percentage in [0, 100]");
                }
                opts.trace_sample = pct;
            }
            "--model-dir" => opts.model_dir = Some(PathBuf::from(value(&mut i))),
            "--train" => {
                let tag = value(&mut i);
                opts.train = Some(
                    ProblemTag::ALL
                        .iter()
                        .copied()
                        .find(|t| t.to_string().eq_ignore_ascii_case(&tag))
                        .unwrap_or_else(|| usage_abort(&format!("unknown problem '{tag}'"))),
                );
            }
            "--seed" => {
                opts.train_seed = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --seed"))
            }
            "--cache" => {
                opts.cache = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --cache"))
            }
            "--cache-stripes" => {
                opts.cache_stripes = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --cache-stripes"))
            }
            "--cache-precision" => {
                opts.cache_precision = value(&mut i)
                    .parse()
                    .unwrap_or_else(|e: String| usage_abort(&e))
            }
            "--workers" => {
                opts.workers = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --workers"))
            }
            "--max-batch" => {
                opts.max_batch = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --max-batch"))
            }
            "--max-conns" => {
                opts.max_conns = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --max-conns"))
            }
            "--idle-timeout" => {
                opts.idle_timeout_secs = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage_abort("bad --idle-timeout"))
            }
            "--route" => {
                let spec = value(&mut i);
                let (selector, weight) = parse_target(&spec, "--route");
                opts.routes.push(Route { selector, weight });
            }
            "--shadow" => {
                let spec = value(&mut i);
                let (selector, fraction) = parse_target(&spec, "--shadow");
                opts.shadow = Some(ShadowRoute { selector, fraction });
            }
            "--rate-limit" => {
                let spec = value(&mut i);
                let (selector, rps) = parse_target(&spec, "--rate-limit");
                if !rps.is_finite() || rps <= 0.0 {
                    usage_abort(&format!(
                        "--rate-limit '{spec}' needs a positive requests/second"
                    ));
                }
                opts.rate_limits.push(RateLimit { selector, rps });
            }
            "--cache-snapshot" => opts.cache_snapshot = Some(PathBuf::from(value(&mut i))),
            "--allow-remote-shutdown" => opts.allow_remote_shutdown = true,
            "--help" | "-h" => usage_abort(""),
            other => usage_abort(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    opts
}

fn main() {
    let opts = parse_options();
    // Resolves `CCSA_KERNEL` now: a bad value stops the process here,
    // before anything is bound or a port file written.
    let kernel_backend = ccsa_serve::kernel_backend();
    let mut registry = ModelRegistry::new();

    if let Some(tag) = opts.train {
        eprintln!("[gateway] training a small comparator on problem {tag} …");
        let outcome = Pipeline::new(PipelineConfig::tiny(opts.train_seed))
            .run_single(tag)
            .unwrap_or_else(|e| {
                eprintln!("error: training failed: {e}");
                std::process::exit(1);
            });
        eprintln!("[gateway] held-out accuracy: {:.3}", outcome.test_accuracy);
        match &opts.model_dir {
            Some(dir) => {
                let v =
                    ccsa_model::persist::save_version(dir, &outcome.model).unwrap_or_else(|e| {
                        eprintln!("error: saving model failed: {e}");
                        std::process::exit(1);
                    });
                eprintln!(
                    "[gateway] saved {}",
                    dir.join(format!("model-v{v}.ccsm")).display()
                );
            }
            None => {
                registry.register(DEFAULT_MODEL, 1, outcome.model);
            }
        }
    }

    if let Some(dir) = &opts.model_dir {
        match registry.load_dir(DEFAULT_MODEL, dir) {
            Ok(0) => {
                eprintln!(
                    "error: no model artefacts in {} (hint: --train H writes one)",
                    dir.display()
                );
                std::process::exit(1);
            }
            Ok(n) => eprintln!(
                "[gateway] loaded {n} model version(s) from {}",
                dir.display()
            ),
            Err(e) => {
                eprintln!("error: loading models failed: {e}");
                std::process::exit(1);
            }
        }
    } else if opts.train.is_none() {
        usage_abort("need --model-dir and/or --train");
    }

    let mut routes = opts.routes.clone();
    if routes.is_empty() {
        // No explicit table: everything to the registry default — but a
        // given --shadow still applies (shadow-only ramps are a normal
        // first step).
        routes.push(Route {
            selector: ModelSelector::default(),
            weight: 1.0,
        });
    }
    let router = Router::new(routes, opts.shadow.clone()).unwrap_or_else(|e| {
        eprintln!("error: bad routing table: {e}");
        std::process::exit(2);
    });
    // Fail fast on selector typos: the registry is immutable once the
    // engine owns it, so a route pointing at a version that is not
    // loaded would otherwise fail its whole traffic share at runtime.
    for selector in snapshot_targets(&router) {
        if let Err(e) = registry.resolve(&selector) {
            eprintln!(
                "error: route/shadow target {} does not resolve: {e}",
                selector_label(&selector)
            );
            std::process::exit(2);
        }
    }
    // Same fail-fast for rate limits: a limit naming an absent route
    // would silently never fire, and a duplicated limit would only be
    // rejected by Gateway::bind after the engine is already built.
    for (i, limit) in opts.rate_limits.iter().enumerate() {
        if !router
            .routes()
            .iter()
            .any(|r| ccsa_gateway::selectors_match(&r.selector, &limit.selector))
        {
            eprintln!(
                "error: --rate-limit target {} matches no configured route",
                selector_label(&limit.selector)
            );
            std::process::exit(2);
        }
        if opts.rate_limits[..i]
            .iter()
            .any(|prev| ccsa_gateway::selectors_match(&prev.selector, &limit.selector))
        {
            eprintln!(
                "error: duplicate --rate-limit for route {}",
                selector_label(&limit.selector)
            );
            std::process::exit(2);
        }
    }

    let workers = if opts.workers == 0 {
        ccsa_nn::parallel::default_threads()
    } else {
        opts.workers
    };
    let engine = Arc::new(ServeEngine::new(
        registry,
        &ServeConfig {
            cache_capacity: opts.cache,
            cache_stripes: opts.cache_stripes,
            cache_precision: opts.cache_precision,
            batch: BatchConfig {
                workers,
                max_batch: opts.max_batch,
                ..BatchConfig::default()
            },
        },
    ));

    for (route, share) in router.routes().iter().zip(router.shares()) {
        eprintln!(
            "[gateway] route {} share {:.1}%",
            selector_label(&route.selector),
            share * 100.0
        );
    }
    if let Some(shadow) = router.shadow() {
        eprintln!(
            "[gateway] shadow {} fraction {:.1}%",
            selector_label(&shadow.selector),
            shadow.fraction * 100.0
        );
    }
    for limit in &opts.rate_limits {
        eprintln!(
            "[gateway] rate limit {} at {} req/s",
            selector_label(&limit.selector),
            limit.rps
        );
    }

    // Warm start: one snapshot file per route/shadow selector (each
    // registration has its own cache space and weights digest).
    let warm_targets = snapshot_targets(&router);
    if let Some(base) = &opts.cache_snapshot {
        for selector in &warm_targets {
            let path = snapshot_path(base, selector);
            if !path.exists() {
                continue;
            }
            match engine.warm_cache(selector, &path) {
                Ok(n) => eprintln!(
                    "[gateway] warm start: {n} cached embeddings for {} from {}",
                    selector_label(selector),
                    path.display()
                ),
                Err(e) => eprintln!(
                    "[gateway] warm start skipped for {}: {e}",
                    selector_label(selector)
                ),
            }
        }
    }

    if !signal::install_sigterm_handler() {
        eprintln!("[gateway] warning: SIGTERM handler not installed; use the 'shutdown' op");
    }

    let config = GatewayConfig {
        addr: format!("{}:{}", opts.addr, opts.port),
        max_connections: opts.max_conns,
        idle_timeout: (opts.idle_timeout_secs > 0)
            .then(|| Duration::from_secs(opts.idle_timeout_secs)),
        honor_sigterm: true,
        allow_remote_shutdown: opts.allow_remote_shutdown,
        rate_limits: opts.rate_limits.clone(),
        http_addr: opts.http_port.map(|port| format!("{}:{}", opts.addr, port)),
        drain_grace: Duration::from_secs(opts.drain_grace_secs),
        trace_log: opts.trace_log.clone(),
        trace_sample_percent: opts.trace_sample,
    };
    let gateway = match Gateway::bind(Arc::clone(&engine), router, config) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = gateway.local_addr();
    if let Some(http_addr) = gateway.http_addr() {
        eprintln!("[gateway] http front door on {http_addr} (healthz/readyz/metrics/v1)");
    }
    eprintln!(
        "[gateway] listening on {addr} (cache={} workers={} max_batch={} max_conns={} kernels={kernel_backend})",
        opts.cache, workers, opts.max_batch, opts.max_conns
    );

    // Port files are the "come probe me" signal for supervisors, so they
    // must not be written at bind time: a probe racing the accept loops
    // could connect to a bound-but-not-accepting listener and hang. A
    // helper thread waits for every accept loop to go live first (the
    // same condition `readyz` reports as `starting`). Detached: if an
    // accept loop never comes up the gateway is exiting anyway, and a
    // drain must not block on this thread.
    {
        let handle = gateway.handle();
        let port_file = opts.port_file.clone();
        let http_port_file = opts.http_port_file.clone();
        let http_port = gateway.http_addr().map(|a| a.port());
        let _detached = std::thread::spawn(move || {
            while !handle.accepting() {
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

    if let Err(e) = gateway.run() {
        eprintln!("error: gateway failed: {e}");
        std::process::exit(1);
    }

    if let Some(base) = &opts.cache_snapshot {
        for selector in &warm_targets {
            let path = snapshot_path(base, selector);
            match engine.snapshot_cache(selector, &path) {
                Ok(n) => eprintln!(
                    "[gateway] spilled {n} cached embeddings for {} to {}",
                    selector_label(selector),
                    path.display()
                ),
                Err(e) => eprintln!(
                    "[gateway] cache spill failed for {}: {e}",
                    selector_label(selector)
                ),
            }
        }
    }
    eprintln!("[gateway] drained cleanly");
}

/// `name@vN` / `name@latest` for logs.
fn selector_label(selector: &ModelSelector) -> String {
    format!(
        "{}@{}",
        selector.name.as_deref().unwrap_or(DEFAULT_MODEL),
        selector
            .version
            .map(|v| format!("v{v}"))
            .unwrap_or_else(|| "latest".to_string())
    )
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
