//! The gateway proper: the routed scored path, the admin verbs, and
//! graceful shutdown. How a listener and a connection live and how a
//! request is framed is [`crate::transport`]'s business — this module
//! hands it two doors' worth of handlers.
//!
//! Admission control is two-layered:
//!
//! * **connection cap** — beyond [`GatewayConfig::max_connections`]
//!   (one budget across the JSON-lines and HTTP doors), new connections
//!   get one refusal and are closed immediately, so a connection flood
//!   cannot exhaust threads;
//! * **encode queue** — admitted requests enqueue their misses on the
//!   `EncodePool`; its depth is the load signal (`stats.queue_depth`).
//!
//! Shutdown is cooperative: a SIGTERM (see [`crate::signal`]) or a
//! `shutdown` request trips a flag; the accept loop stops admitting, and
//! every session finishes its in-flight request before exiting (sessions
//! poll the flag between reads, never mid-request).

use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock, Weak};

use ccsa_serve::lockdep::{DMutex, DRwLock};
use std::time::{Duration, Instant};

use ccsa_serve::json::Json;
use ccsa_serve::proto::{self, Request};
use ccsa_serve::{
    Counter, MetricKind, MetricsRegistry, ModelSelector, Sample, SampleFamily, ServeEngine,
    ServeError, StageTimings, DEFAULT_MODEL,
};

use crate::limit::{RateLimit, TokenBucket};
use crate::router::{selectors_match, Route, Router, ShadowRoute};
use crate::signal;
use crate::stats::{RouteStats, RouteStatsSnapshot};
use crate::trace::{generate_request_id, TraceRecord, TraceSink};
use crate::transport::{self, refuse_remote_admin, After, Doors, Lifecycle, Spawned};

/// Mirror requests waiting for the shadow worker. Shadow traffic is a
/// statistical sample, so when the candidate cannot keep up the right
/// behaviour is to *drop* mirrors (counted in `routes` as `dropped`),
/// never to slow primary traffic down.
const SHADOW_QUEUE_CAP: usize = 256;

/// Transport construction settings.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Concurrent session cap; connections beyond it are refused with an
    /// `ok:false` line.
    pub max_connections: usize,
    /// Close a session after this much request-free silence (`None` =
    /// keep alive forever).
    pub idle_timeout: Option<Duration>,
    /// Whether a process-level SIGTERM drains this gateway. The binary
    /// sets this; tests leave it off so a stray signal flag from another
    /// test cannot tear their gateway down.
    pub honor_sigterm: bool,
    /// Whether the `shutdown` verb is honoured from non-loopback peers.
    /// Off by default: on a gateway bound beyond localhost, any client
    /// that can open a connection must not be able to kill every other
    /// client's service with one line.
    pub allow_remote_shutdown: bool,
    /// Per-route token-bucket limits (empty = unlimited). Each entry's
    /// selector must match a route in the table handed to
    /// [`Gateway::bind`], which fails fast otherwise.
    pub rate_limits: Vec<RateLimit>,
    /// Bind address for the HTTP/1.1 front door (`None` = TCP
    /// JSON-lines only). Serves `POST /v1/compare`, `POST /v1/rank`,
    /// `GET /healthz`, `GET /readyz`, and `GET /metrics`.
    pub http_addr: Option<String>,
    /// How long the HTTP front door keeps answering probes *after* a
    /// drain begins, so load balancers can observe `/readyz` flip to
    /// 503 before the process exits. Zero = stop with the TCP loop.
    pub drain_grace: Duration,
    /// JSON-lines trace sink path (`None` = tracing off).
    pub trace_log: Option<PathBuf>,
    /// Percent of requests traced end-to-end (deterministic on the
    /// request ID; clamped to [0, 100]). Only meaningful with
    /// `trace_log`.
    pub trace_sample_percent: f64,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            idle_timeout: None,
            honor_sigterm: false,
            allow_remote_shutdown: false,
            rate_limits: Vec::new(),
            http_addr: None,
            drain_grace: Duration::ZERO,
            trace_log: None,
            trace_sample_percent: 100.0,
        }
    }
}

/// One immutable routing generation: the table plus every per-route
/// accumulator indexed alongside it. Swapped atomically as a unit by the
/// `reload_routes` verb, so a request always sees stats/limits that
/// match the router it was assigned by.
pub(crate) struct RoutingState {
    pub(crate) router: Router,
    /// Sticky-routed requests, indexed like `router.routes()`. `Arc` so
    /// a reload can carry a surviving route's rolling window across
    /// generations instead of resetting it.
    pub(crate) route_stats: Vec<Arc<RouteStats>>,
    /// Per-route token buckets, indexed like `router.routes()` (`None` =
    /// unlimited). The mutex is held for a handful of float ops per
    /// admission — never across serving work.
    pub(crate) route_limits: Vec<Option<DMutex<TokenBucket>>>,
    /// The configured RPS per route, for the `routes` report.
    pub(crate) route_limit_rps: Vec<Option<f64>>,
    /// The shadow target's slot.
    pub(crate) shadow_stats: Option<Arc<RouteStats>>,
}

impl RoutingState {
    /// Builds the per-route accumulators for `router`, carrying stats
    /// over from `previous` wherever a route's metric label survives the
    /// swap (the registry would hand back the same counter cells anyway;
    /// carrying the instance also preserves the rolling latency window).
    /// Rate limits that match no route in the new table are skipped —
    /// `Gateway::bind` validates them strictly up front, and a reload
    /// must not fail because a limited route left the table.
    fn build(
        metrics: &MetricsRegistry,
        router: Router,
        rate_limits: &[RateLimit],
        previous: Option<&RoutingState>,
    ) -> RoutingState {
        let carried = |label: &str| -> Option<Arc<RouteStats>> {
            let prev = previous?;
            prev.router
                .routes()
                .iter()
                .position(|r| route_label(&r.selector) == label)
                .map(|ix| Arc::clone(&prev.route_stats[ix]))
        };
        let route_stats: Vec<Arc<RouteStats>> = router
            .routes()
            .iter()
            .map(|r| {
                let label = route_label(&r.selector);
                carried(&label).unwrap_or_else(|| Arc::new(RouteStats::new(metrics, &label)))
            })
            .collect();
        let mut route_limit_rps: Vec<Option<f64>> = vec![None; router.routes().len()];
        for limit in rate_limits {
            if let Some(ix) = router
                .routes()
                .iter()
                .position(|r| selectors_match(&r.selector, &limit.selector))
            {
                route_limit_rps[ix] = Some(limit.rps);
            }
        }
        let route_limits = route_limit_rps
            .iter()
            .map(|rps| rps.map(|rps| DMutex::new("gateway.route_limit", TokenBucket::new(rps))))
            .collect();
        // The shadow slot gets a `shadow:`-prefixed label so its series
        // can never collide with a same-named primary route.
        let shadow_stats = router.shadow().map(|s| {
            let label = shadow_metric_label(&s.selector);
            previous
                .and_then(|prev| {
                    let stats = prev.shadow_stats.as_ref()?;
                    let prev_shadow = prev.router.shadow()?;
                    (shadow_metric_label(&prev_shadow.selector) == label).then(|| Arc::clone(stats))
                })
                .unwrap_or_else(|| Arc::new(RouteStats::new(metrics, &label)))
        });
        RoutingState {
            router,
            route_stats,
            route_limits,
            route_limit_rps,
            shadow_stats,
        }
    }
}

/// State shared between the accept loops (TCP and HTTP), session
/// threads, and handles.
pub(crate) struct Shared {
    pub(crate) engine: Arc<ServeEngine>,
    /// The current routing generation. Readers clone the `Arc` once per
    /// request; `reload_routes` swaps the whole bundle under the write
    /// lock.
    pub(crate) routing: DRwLock<Arc<RoutingState>>,
    /// Routing-table swaps applied since boot (the `reload_generation`
    /// field of the `routes` verb — controllers watch it to confirm a
    /// reload landed).
    pub(crate) reloads: AtomicU64,
    pub(crate) config: GatewayConfig,
    /// Addresses, connection budget, metrics registry, drain flag and
    /// readiness: what the handle derefs to.
    pub(crate) life: Lifecycle,
    /// Hands mirror jobs to the shadow worker thread (set by `run`;
    /// always present so a reload can introduce a shadow at runtime).
    pub(crate) shadow_tx: OnceLock<mpsc::SyncSender<ShadowJob>>,
    /// Mirrors dropped because the shadow queue was full.
    pub(crate) shadow_dropped: AtomicU64,
    /// Requests that pinned a model/version explicitly and bypassed the
    /// router.
    pub(crate) pinned: AtomicU64,
    /// Pre-created `ccsa_gateway_requests_total{verb,status}` handles
    /// for the scored hot path.
    pub(crate) request_counters: RequestCounters,
    /// Sampled JSON-lines trace sink (`--trace-log`).
    pub(crate) trace: Option<TraceSink>,
    /// When the current drain began — stamped by the first `draining()`
    /// observation, read by the HTTP loop to honour `drain_grace`.
    pub(crate) drain_since: DMutex<Option<Instant>>,
    /// Tells the HTTP accept loop to exit (set after `drain_grace` has
    /// elapsed, so probes can observe the 503 first).
    pub(crate) http_stop: AtomicBool,
}

/// Pre-created request-total counter handles, one per (verb, status):
/// the hot path records by array index, never through the registry's
/// family lock.
pub(crate) struct RequestCounters {
    compare: [Counter; 4],
    rank: [Counter; 4],
}

/// How a scored request ended, as a metric/trace label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ReqStatus {
    /// Served successfully.
    Ok,
    /// Failed (parse error, unknown model, encoder panic).
    Error,
    /// Shed by the encode queue's capacity bound.
    Shed,
    /// Refused by the route's token bucket.
    RateLimited,
}

impl ReqStatus {
    pub(crate) fn label(self) -> &'static str {
        match self {
            ReqStatus::Ok => "ok",
            ReqStatus::Error => "error",
            ReqStatus::Shed => "shed",
            ReqStatus::RateLimited => "rate_limited",
        }
    }

    fn ix(self) -> usize {
        match self {
            ReqStatus::Ok => 0,
            ReqStatus::Error => 1,
            ReqStatus::Shed => 2,
            ReqStatus::RateLimited => 3,
        }
    }
}

impl RequestCounters {
    fn new(registry: &MetricsRegistry) -> RequestCounters {
        let counter = |verb: &str, status: ReqStatus| {
            registry.counter(
                "ccsa_gateway_requests_total",
                "Scored requests handled by the gateway, by verb and status \
                 (TCP and HTTP transports combined).",
                &[("verb", verb), ("status", status.label())],
            )
        };
        let all = |verb: &str| {
            [
                counter(verb, ReqStatus::Ok),
                counter(verb, ReqStatus::Error),
                counter(verb, ReqStatus::Shed),
                counter(verb, ReqStatus::RateLimited),
            ]
        };
        RequestCounters {
            compare: all("compare"),
            rank: all("rank"),
        }
    }

    pub(crate) fn record(&self, verb: &'static str, status: ReqStatus) {
        let set = match verb {
            "compare" => &self.compare,
            _ => &self.rank,
        };
        set[status.ix()].inc();
    }
}

/// Work for the shadow worker thread.
pub(crate) enum ShadowJob {
    /// Replay one request against the shadow selector.
    Mirror(ModelSelector, Request),
    /// Drain and exit (sent once by `run` after every session joined).
    Stop,
}

impl Shared {
    /// The current routing generation (one `Arc` clone per call).
    pub(crate) fn routing(&self) -> Arc<RoutingState> {
        Arc::clone(&self.routing.read().expect("routing state poisoned"))
    }

    pub(crate) fn draining(&self) -> bool {
        let draining = self.life.shutdown_requested()
            || (self.config.honor_sigterm && signal::sigterm_received());
        if draining {
            // Stamp the drain start once: the HTTP loop's grace period
            // is measured from the first observation, wherever it came
            // from (shutdown verb, handle, SIGTERM).
            let mut since = self.drain_since.lock().expect("drain stamp poisoned");
            if since.is_none() {
                *since = Some(Instant::now());
            }
        }
        draining
    }

    /// Threads a trace record through the sampling gate.
    pub(crate) fn trace_request(&self, record: &TraceRecord<'_>) {
        if let Some(sink) = &self.trace {
            if sink.should_sample(record.request_id) {
                sink.record(record);
            }
        }
    }
}

/// A cloneable control handle onto a running gateway. It derefs to the
/// gateway's [`Lifecycle`]: `addr`, `http_addr`, `metrics`, `shutdown`,
/// `accepting` and `active_connections`.
#[derive(Clone)]
pub struct GatewayHandle {
    shared: Arc<Shared>,
}

impl Deref for GatewayHandle {
    type Target = Lifecycle;

    fn deref(&self) -> &Lifecycle {
        &self.shared.life
    }
}

impl GatewayHandle {
    /// Routing-table swaps applied via `reload_routes` since boot.
    pub fn reload_generation(&self) -> u64 {
        // SeqCst: generation reads must not reorder around the table
        // swap they version (see apply_reload).
        self.shared.reloads.load(Ordering::SeqCst)
    }
}

/// Checks a gateway's limits against its routing table: every rate is
/// finite and positive, every selector matches a route, and no route is
/// limited twice. [`Gateway::bind`] refuses a
/// table that fails, and the binary checks before it builds an engine.
///
/// # Errors
///
/// The first violation, as a message naming the route.
pub fn check_limits(limits: &[RateLimit], router: &Router) -> Result<(), String> {
    for (ix, limit) in limits.iter().enumerate() {
        let label = route_label(&limit.selector);
        if !limit.rps.is_finite() || limit.rps <= 0.0 {
            return Err(format!(
                "rate limit for {label} must be finite and positive, got {}",
                limit.rps
            ));
        }
        let matches = |selector: &ModelSelector| selectors_match(selector, &limit.selector);
        if !router.routes().iter().any(|r| matches(&r.selector)) {
            return Err(format!(
                "rate limit for {label} matches no configured route"
            ));
        }
        if limits[..ix].iter().any(|prev| matches(&prev.selector)) {
            return Err(format!("duplicate rate limit for route {label}"));
        }
    }
    Ok(())
}

/// A bound-but-not-yet-running gateway.
pub struct Gateway {
    doors: Doors,
    shared: Arc<Shared>,
}

/// A gateway running on a background thread (tests, benches, and
/// in-process embedding).
pub type SpawnedGateway = Spawned<GatewayHandle>;

impl Gateway {
    /// Binds the listeners (resolving ephemeral ports immediately) but
    /// does not accept yet.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects the rate limits
    /// [`check_limits`] refuses (`InvalidInput`).
    pub fn bind(
        engine: Arc<ServeEngine>,
        router: Router,
        config: GatewayConfig,
    ) -> std::io::Result<Gateway> {
        check_limits(&config.rate_limits, &router)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let (doors, life) = Lifecycle::bind(
            "gateway",
            &config.addr,
            config.http_addr.as_deref(),
            config.max_connections,
        )?;

        // The unified registry: every per-route counter below is a
        // handle into it, the engine attaches its stage histograms and
        // stats collector, and a gateway collector exports the
        // transport gauges — so `/metrics`, `stats`, and `routes` all
        // read the same atomics.
        let metrics = life.metrics();
        engine.attach_metrics(&metrics);
        let request_counters = RequestCounters::new(&metrics);
        let routing = RoutingState::build(&metrics, router, &config.rate_limits, None);
        let trace = match &config.trace_log {
            Some(path) => Some(TraceSink::open(path, config.trace_sample_percent)?),
            None => None,
        };

        let shared = Arc::new(Shared {
            engine,
            routing: DRwLock::new("gateway.routing", Arc::new(routing)),
            reloads: AtomicU64::new(0),
            config,
            life,
            shadow_tx: OnceLock::new(),
            shadow_dropped: AtomicU64::new(0),
            pinned: AtomicU64::new(0),
            request_counters,
            trace,
            drain_since: DMutex::new("gateway.drain_since", None),
            http_stop: AtomicBool::new(false),
        });
        // Weak: the registry lives inside Shared, so a strong capture
        // would be a reference cycle. A handle outliving the gateway
        // scrapes the built-ins only.
        let collector_shared = Arc::downgrade(&shared);
        metrics.register_collector(move || gateway_metric_families(&collector_shared));
        Ok(Gateway { doors, shared })
    }

    /// A control handle (cloneable; usable from other threads).
    pub fn handle(&self) -> GatewayHandle {
        GatewayHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop on the calling thread until drained, then
    /// joins every session.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures (transient accept errors are
    /// retried).
    pub fn run(self) -> std::io::Result<()> {
        let Gateway { doors, shared } = self;
        // The HTTP front door runs its own accept loop so health
        // probes and scrapes never queue behind JSON-lines sessions —
        // and stops on its own flag, so it can outlive the TCP loop by
        // `drain_grace`.
        let http_worker = doors
            .http
            .map(|l| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("ccsa-gw-http".to_string())
                    .spawn(move || {
                        shared.life.accept_http(
                            &l,
                            "ccsa-http-",
                            // SeqCst: lifecycle flag, pairs with the store
                            // at the end of `run`.
                            || shared.http_stop.load(Ordering::SeqCst),
                            |stream, peer| crate::http::serve_connection(&shared, stream, peer),
                        )
                    })
            })
            .transpose()?;
        // The shadow worker: mirrors run here, off the session threads,
        // so shadow cost never delays any client's next request. One
        // worker is deliberate — shadow encodes funnel into the shared
        // EncodePool anyway, and a single consumer keeps the mirror
        // volume naturally bounded. Spawned unconditionally: a
        // `reload_routes` swap may introduce a shadow target at runtime.
        let shadow_worker = {
            let (tx, rx) = mpsc::sync_channel::<ShadowJob>(SHADOW_QUEUE_CAP);
            shared
                .shadow_tx
                .set(tx)
                .unwrap_or_else(|_| unreachable!("run consumes the gateway"));
            let worker_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ccsa-gw-shadow".to_string())
                .spawn(move || {
                    while let Ok(ShadowJob::Mirror(selector, request)) = rx.recv() {
                        run_shadow(&worker_shared, &selector, &request);
                    }
                })?
        };
        shared.life.accept_lines(
            &doors.lines,
            "ccsa-gw-",
            || shared.draining(),
            |stream, peer| serve_connection(&shared, stream, peer),
        )?;
        // Sessions are gone, so no new mirrors can arrive; Stop lets
        // the worker finish the queued backlog and exit.
        if let Some(tx) = shared.shadow_tx.get() {
            let _ = tx.send(ShadowJob::Stop);
        }
        let _ = shadow_worker.join();
        if let Some(worker) = http_worker {
            // Keep the front door answering probes until `drain_grace`
            // has elapsed since the drain began: a load balancer must
            // be able to observe `/readyz` = 503 before the socket
            // disappears.
            let since = shared
                .drain_since
                .lock()
                .expect("drain stamp poisoned")
                .unwrap_or_else(Instant::now);
            let grace = shared.config.drain_grace;
            let elapsed = since.elapsed();
            if elapsed < grace {
                std::thread::sleep(grace - elapsed);
            }
            // SeqCst: lifecycle flag, same ordering as its readers.
            shared.http_stop.store(true, Ordering::SeqCst);
            let _ = worker.join();
        }
        Ok(())
    }

    /// Binds and runs on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(
        engine: Arc<ServeEngine>,
        router: Router,
        config: GatewayConfig,
    ) -> std::io::Result<SpawnedGateway> {
        let gateway = Gateway::bind(engine, router, config)?;
        Spawned::start("ccsa-gw-accept", gateway.handle(), move || gateway.run())
    }
}

/// One JSON-lines connection: the transport core frames, `handle_line`
/// answers.
fn serve_connection(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    // The fallback sticky key when requests carry no "client" field: the
    // peer host, so one machine's traffic stays on one route.
    let fallback_key = peer.ip().to_string();
    let peer_is_loopback = peer.ip().is_loopback();
    let mut seq: u64 = 0;
    transport::serve_lines(
        stream,
        &|| shared.draining(),
        shared.config.idle_timeout,
        |line| {
            let answer = handle_line(shared, line, &fallback_key, seq, peer_is_loopback);
            seq += 1;
            answer
        },
    );
}

/// Decodes and serves one request line, returning the response and any
/// post-response action.
fn handle_line<'a>(
    shared: &'a Shared,
    line: &str,
    fallback_key: &str,
    seq: u64,
    peer_is_loopback: bool,
) -> (Json, After<'a>) {
    let value = match ccsa_serve::json::parse(line) {
        Ok(v) => v,
        Err(e) => return (proto::error_response(&e.to_string()), After::KeepGoing),
    };
    // The sticky-routing key: explicit per-request "client" beats the
    // connection's peer host.
    let client_key = value
        .get("client")
        .and_then(Json::as_str)
        .unwrap_or(fallback_key)
        .to_string();
    // The trace key: clients may send their own (as HTTP clients do via
    // X-Request-Id); anonymous requests get a generated one.
    let request_id = value
        .get("request_id")
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_else(generate_request_id);
    let request = match proto::parse_request_value(value) {
        Ok(r) => r,
        Err(message) => return (proto::error_response(&message), After::KeepGoing),
    };
    let allow = shared.config.allow_remote_shutdown;
    let refusal = |verb| refuse_remote_admin(verb, peer_is_loopback, allow, "gateway");
    match request {
        Request::Shutdown => {
            if let Some(refusal) = refusal("shutdown") {
                return (refusal, After::KeepGoing);
            }
            // Trips the drain flag every accept loop polls. This session
            // still writes the reply below before it closes.
            shared.life.shutdown();
            (
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("shutdown")),
                    ("draining", Json::Bool(true)),
                ]),
                After::Close,
            )
        }
        Request::Routes => (routes_response(shared), After::KeepGoing),
        Request::ReloadRoutes { routes, shadow } => {
            // Gated exactly like shutdown: on a gateway bound beyond
            // localhost, any client that can open a connection must not
            // be able to repoint every other client's traffic.
            if let Some(refusal) = refusal("reload_routes") {
                return (refusal, After::KeepGoing);
            }
            (apply_reload(shared, routes, shadow), After::KeepGoing)
        }
        Request::Stats => (gateway_stats_response(shared), After::KeepGoing),
        Request::Ping => (
            proto::dispatch(&shared.engine, Request::Ping),
            After::KeepGoing,
        ),
        Request::Compare { .. } | Request::Rank { .. } => {
            serve_scored(shared, request, &client_key, seq, &request_id, "tcp")
        }
    }
}

/// Validates and applies a new routing table, swapping the whole
/// [`RoutingState`] generation atomically. Rejected tables leave the
/// current generation untouched: the router constructor checks weights
/// and shadow fraction, and every selector must resolve against the
/// registry *now* — a reload must never install a route that can only
/// fail.
pub(crate) fn apply_reload(
    shared: &Shared,
    routes: Vec<(ModelSelector, f64)>,
    shadow: Option<(ModelSelector, f64)>,
) -> Json {
    let routes: Vec<Route> = routes
        .into_iter()
        .map(|(selector, weight)| Route { selector, weight })
        .collect();
    for selector in routes
        .iter()
        .map(|r| &r.selector)
        .chain(shadow.iter().map(|(s, _)| s))
    {
        if let Err(e) = shared.engine.resolve_coordinates(selector) {
            return proto::error_response(&format!("reload_routes rejected: {e}"));
        }
    }
    let shadow = shadow.map(|(selector, fraction)| ShadowRoute { selector, fraction });
    let router = match Router::new(routes, shadow) {
        Ok(router) => router,
        Err(e) => return proto::error_response(&format!("reload_routes rejected: {e}")),
    };
    let route_count = router.routes().len();
    let generation = {
        let mut slot = shared.routing.write().expect("routing state poisoned");
        let next = RoutingState::build(
            shared.life.registry(),
            router,
            &shared.config.rate_limits,
            Some(&**slot),
        );
        *slot = Arc::new(next);
        // Bumped under the write lock (SeqCst), so generation N always
        // refers to the N-th table a reader can actually observe.
        shared.reloads.fetch_add(1, Ordering::SeqCst) + 1
    };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("reload_routes")),
        ("reload_generation", Json::num(generation as f64)),
        ("routes", Json::num(route_count as f64)),
    ])
}

/// Serves a compare/rank request through the router, recording per-route
/// stats, verb/status totals, sampled traces, and deciding shadow
/// mirroring. Shared verbatim by the TCP and HTTP transports, which is
/// what makes their responses bit-identical.
pub(crate) fn serve_scored<'a>(
    shared: &'a Shared,
    request: Request,
    client_key: &str,
    seq: u64,
    request_id: &str,
    transport: &'static str,
) -> (Json, After<'a>) {
    let selector = match &request {
        Request::Compare { selector, .. } | Request::Rank { selector, .. } => selector.clone(),
        _ => unreachable!("serve_scored only sees compare/rank"),
    };
    let verb: &'static str = match &request {
        Request::Compare { .. } => "compare",
        _ => "rank",
    };
    // One routing generation per request: assignment, admission, and
    // stats attribution all read the same snapshot even if a reload
    // swaps the table mid-request.
    let routing = shared.routing();
    // An explicitly pinned model/version bypasses A/B routing: the
    // client asked for *that* model, and experiments must not second-
    // guess debugging.
    let pinned = selector.name.is_some() || selector.version.is_some();
    let (route_ix, effective) = if pinned {
        shared.pinned.fetch_add(1, Ordering::Relaxed); // Relaxed: stats
        (None, selector)
    } else {
        let ix = routing.router.route_index(client_key);
        (Some(ix), routing.router.routes()[ix].selector.clone())
    };
    let route_lbl = route_label(&effective);

    // Token-bucket admission: an over-limit request is shed here with a
    // polite refusal — before it can occupy the shared encode queue.
    if let Some(ix) = route_ix {
        if let Some(bucket) = &routing.route_limits[ix] {
            let admitted = bucket.lock().expect("token bucket poisoned").try_acquire();
            if !admitted {
                routing.route_stats[ix].record_rate_limited();
                shared.request_counters.record(verb, ReqStatus::RateLimited);
                shared.trace_request(&TraceRecord {
                    request_id,
                    transport,
                    verb,
                    route: &route_lbl,
                    status: ReqStatus::RateLimited.label(),
                    latency_ms: 0.0,
                    stages: None,
                });
                let response = Json::obj(vec![
                    ("ok", Json::Bool(false)),
                    (
                        "error",
                        Json::str(format!(
                            "rate limit exceeded for route {} — retry later",
                            route_label(&routing.router.routes()[ix].selector)
                        )),
                    ),
                    ("rate_limited", Json::Bool(true)),
                ]);
                return (response, After::KeepGoing);
            }
        }
    }

    let start = Instant::now();
    let (response, hits, lookups, outcome, stages) = execute(&shared.engine, &effective, &request);
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;

    let status = match outcome {
        Outcome::Served => ReqStatus::Ok,
        Outcome::Failed => ReqStatus::Error,
        Outcome::Shed => ReqStatus::Shed,
    };
    shared.request_counters.record(verb, status);
    shared.trace_request(&TraceRecord {
        request_id,
        transport,
        verb,
        route: &route_lbl,
        status: status.label(),
        latency_ms,
        stages,
    });

    let after = match route_ix {
        None => After::KeepGoing,
        Some(ix) => {
            match outcome {
                Outcome::Served => {
                    routing.route_stats[ix].record_success(latency_ms, hits, lookups);
                }
                Outcome::Failed => routing.route_stats[ix].record_error(),
                Outcome::Shed => routing.route_stats[ix].record_queue_shed(),
            }
            match routing.router.shadow_for(client_key, seq) {
                // Mirror only after the client has its answer: shadow
                // cost must never sit in front of the response.
                Some(shadow_selector) => {
                    let selector = shadow_selector.clone();
                    After::Then(Box::new(move || enqueue_shadow(shared, selector, request)))
                }
                None => After::KeepGoing,
            }
        }
    };
    (response, after)
}

/// How one executed request ended, for stats attribution.
enum Outcome {
    /// Served successfully.
    Served,
    /// Failed (parse error, unknown model, encoder panic).
    Failed,
    /// Shed by the model's encode-shard capacity bound — intentional
    /// backpressure, not a serving error.
    Shed,
}

/// Builds the error response for a failed/shed request; sheds carry a
/// machine-readable `shed:true` so clients can back off instead of
/// treating the refusal as a hard failure (mirroring `rate_limited`).
fn failure_response(e: &ServeError) -> (Json, Outcome) {
    let shed = matches!(e, ServeError::Encode(enc) if enc.is_shed());
    let mut response = proto::error_response(&e.to_string());
    if shed {
        if let Json::Obj(members) = &mut response {
            members.push(("shed".to_string(), Json::Bool(true)));
        }
        (response, Outcome::Shed)
    } else {
        (response, Outcome::Failed)
    }
}

/// Runs one request against a selector, returning the response plus
/// cache attribution and the engine's stage split: (response, cache
/// hits, cache lookups, outcome, stages). Stages are `None` for
/// requests that failed before reaching the stage pipeline.
fn execute(
    engine: &ServeEngine,
    selector: &ModelSelector,
    request: &Request,
) -> (Json, u64, u64, Outcome, Option<StageTimings>) {
    match request {
        Request::Compare { first, second, .. } => {
            match engine.compare_batch_traced(selector, &[(first, second)]) {
                Ok((outcomes, stages)) => {
                    let outcome = outcomes.into_iter().next().expect("one pair in, one out");
                    let hits = outcome.cache_hits as u64;
                    (
                        proto::compare_response(&outcome),
                        hits,
                        2,
                        Outcome::Served,
                        Some(stages),
                    )
                }
                Err(e) => {
                    let (response, outcome) = failure_response(&e);
                    (response, 0, 0, outcome, None)
                }
            }
        }
        Request::Rank { candidates, .. } => {
            let refs: Vec<&str> = candidates.iter().map(String::as_str).collect();
            match engine.rank_traced(selector, &refs) {
                Ok((outcome, stages)) => {
                    let hits = outcome.cache_hits as u64;
                    let lookups = candidates.len() as u64;
                    (
                        proto::rank_response(&outcome),
                        hits,
                        lookups,
                        Outcome::Served,
                        Some(stages),
                    )
                }
                Err(e) => {
                    let (response, outcome) = failure_response(&e);
                    (response, 0, 0, outcome, None)
                }
            }
        }
        _ => unreachable!("execute only sees compare/rank"),
    }
}

/// Hands a mirror job to the shadow worker; a full queue drops the
/// mirror (counted) rather than slowing the session down.
pub(crate) fn enqueue_shadow(shared: &Shared, selector: ModelSelector, request: Request) {
    match shared.shadow_tx.get() {
        Some(tx) => {
            if tx.try_send(ShadowJob::Mirror(selector, request)).is_err() {
                // Relaxed: stats counter.
                shared.shadow_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        // No worker can only mean the router has no shadow — and then
        // shadow_for never returns a selector — but losing a mirror is
        // always safe, so degrade to counting rather than panicking.
        None => {
            // Relaxed: stats counter.
            shared.shadow_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Mirrors a request to the shadow selector: outcome recorded, response
/// discarded. Runs on the dedicated shadow worker thread, so shadow
/// latency never reaches any client — not in its response, and not in
/// the same connection's next request.
fn run_shadow(shared: &Shared, selector: &ModelSelector, request: &Request) {
    let start = Instant::now();
    let (_, hits, lookups, outcome, _stages) = execute(&shared.engine, selector, request);
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    let routing = shared.routing();
    let Some(stats) = &routing.shadow_stats else {
        return; // mirrors only exist when a shadow is configured
    };
    match outcome {
        Outcome::Served => stats.record_success(latency_ms, hits, lookups),
        Outcome::Failed => stats.record_error(),
        Outcome::Shed => stats.record_queue_shed(),
    }
}

/// `name@vN` / `name@latest`: the stable per-route metric label, and
/// the route's name in error messages and the binary's logs.
pub fn route_label(selector: &ModelSelector) -> String {
    format!(
        "{}@{}",
        selector.name.as_deref().unwrap_or(DEFAULT_MODEL),
        selector
            .version
            .map(|v| format!("v{v}"))
            .unwrap_or_else(|| "latest".to_string())
    )
}

/// The shadow slot's metric label: `shadow:<selector>`, so its
/// Prometheus series never collide with a same-named primary route.
pub(crate) fn shadow_metric_label(selector: &ModelSelector) -> String {
    format!("shadow:{}", route_label(selector))
}

/// Renders one selector as (model, version) JSON fields.
fn selector_fields(selector: &ModelSelector) -> Vec<(&'static str, Json)> {
    vec![
        (
            "model",
            Json::str(
                selector
                    .name
                    .clone()
                    .unwrap_or_else(|| DEFAULT_MODEL.to_string()),
            ),
        ),
        (
            "version",
            match selector.version {
                Some(v) => Json::num(v as f64),
                None => Json::str("latest"),
            },
        ),
    ]
}

/// The `routes` verb: the table, its live traffic shares, and per-route
/// rolling stats — including each route's encode-shard queue depth, so
/// a starving or flooded A/B arm is visible per route, not just in the
/// engine-wide aggregate.
pub(crate) fn routes_response(shared: &Shared) -> Json {
    let routing = shared.routing();
    let engine_stats = shared.engine.stats();
    let shard_depth = |selector: &ModelSelector| -> Json {
        // A route names a (name, version) coordinate; its shard (if it
        // has encoded anything yet) is labelled `name@vN`.
        match shared.engine.resolve_coordinates(selector) {
            Ok((name, version)) => {
                let label = format!("{name}@v{version}");
                let depth = engine_stats
                    .queue_depths
                    .iter()
                    .find(|(l, _)| *l == label)
                    .map_or(0, |(_, d)| *d);
                Json::num(depth as f64)
            }
            Err(_) => Json::Null,
        }
    };
    let shares = routing.router.shares();
    let routes: Vec<Json> = routing
        .router
        .routes()
        .iter()
        .zip(&shares)
        .zip(routing.route_stats.iter().zip(&routing.route_limit_rps))
        .map(|((route, &share), (stats, limit))| {
            let snap = stats.snapshot();
            let mut fields = selector_fields(&route.selector);
            fields.extend([
                // The Prometheus label this route's series carry
                // (`ccsa_route_*_total{route="<metric_label>"}`).
                ("metric_label", Json::str(route_label(&route.selector))),
                ("weight", Json::num(route.weight)),
                ("share", Json::num(share)),
                ("queue_depth", shard_depth(&route.selector)),
                ("requests", Json::num(snap.requests as f64)),
                ("errors", Json::num(snap.errors as f64)),
                (
                    "rate_limit_rps",
                    match limit {
                        Some(rps) => Json::num(*rps),
                        None => Json::Null,
                    },
                ),
                ("rate_limited", Json::num(snap.rate_limited as f64)),
                ("queue_shed", Json::num(snap.queue_shed as f64)),
                ("cache_hit_rate", Json::num(snap.cache_hit_rate)),
                ("p50_ms", Json::num(snap.p50_ms)),
                ("p99_ms", Json::num(snap.p99_ms)),
                ("latency_window", Json::num(snap.window_len as f64)),
            ]);
            Json::obj(fields)
        })
        .collect();
    let shadow = match (routing.router.shadow(), &routing.shadow_stats) {
        (Some(shadow), Some(stats)) => {
            let snap = stats.snapshot();
            let delta = shadow_delta(&routing);
            let delta_field = |pick: fn(&(f64, f64, f64)) -> f64| -> Json {
                delta.as_ref().map_or(Json::Null, |d| Json::num(pick(d)))
            };
            let mut fields = selector_fields(&shadow.selector);
            fields.extend([
                // An explicit marker plus the collision-proof metric
                // label: a shadow entry can share (model, version) with
                // a primary route, and both consumers of this verb and
                // Prometheus need to tell the two apart.
                ("shadow", Json::Bool(true)),
                (
                    "metric_label",
                    Json::str(shadow_metric_label(&shadow.selector)),
                ),
                ("fraction", Json::num(shadow.fraction)),
                ("queue_depth", shard_depth(&shadow.selector)),
                ("requests", Json::num(snap.requests as f64)),
                ("errors", Json::num(snap.errors as f64)),
                (
                    "dropped",
                    // Relaxed: stats counter.
                    Json::num(shared.shadow_dropped.load(Ordering::Relaxed) as f64),
                ),
                ("queue_shed", Json::num(snap.queue_shed as f64)),
                ("cache_hit_rate", Json::num(snap.cache_hit_rate)),
                ("p50_ms", Json::num(snap.p50_ms)),
                ("p99_ms", Json::num(snap.p99_ms)),
                // Shadow-minus-primary deltas over the rolling windows —
                // the canary controller's promote/rollback signal. Null
                // until both arms have observed traffic.
                ("delta_p50_ms", delta_field(|d| d.0)),
                ("delta_p99_ms", delta_field(|d| d.1)),
                ("delta_error_rate", delta_field(|d| d.2)),
            ]);
            Json::obj(fields)
        }
        _ => Json::Null,
    };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("routes")),
        ("routes", Json::Arr(routes)),
        ("shadow", shadow),
        (
            "reload_generation",
            // SeqCst: versioned with the table swap; Relaxed below is
            // a stats counter.
            Json::num(shared.reloads.load(Ordering::SeqCst) as f64),
        ),
        (
            "pinned_requests",
            // Relaxed: stats counter.
            Json::num(shared.pinned.load(Ordering::Relaxed) as f64),
        ),
    ])
}

/// Shadow-vs-primary rolling deltas: `(delta_p50_ms, delta_p99_ms,
/// delta_error_rate)`, shadow minus primary. The primary reference is
/// the requests-weighted mean of the per-route window percentiles plus
/// the pooled error rate across routes. `None` until both arms have
/// observed at least one request — a delta against nothing is noise,
/// and the canary controller must hold rather than act on it.
pub(crate) fn shadow_delta(routing: &RoutingState) -> Option<(f64, f64, f64)> {
    let shadow = routing.shadow_stats.as_ref()?.snapshot();
    if shadow.requests == 0 {
        return None;
    }
    let snaps: Vec<RouteStatsSnapshot> = routing.route_stats.iter().map(|s| s.snapshot()).collect();
    let total: u64 = snaps.iter().map(|s| s.requests).sum();
    if total == 0 {
        return None;
    }
    let weighted = |pick: fn(&RouteStatsSnapshot) -> f64| -> f64 {
        snaps
            .iter()
            .map(|s| pick(s) * s.requests as f64)
            .sum::<f64>()
            / total as f64
    };
    let primary_errors: u64 = snaps.iter().map(|s| s.errors).sum();
    let primary_error_rate = primary_errors as f64 / total as f64;
    let shadow_error_rate = shadow.errors as f64 / shadow.requests as f64;
    Some((
        shadow.p50_ms - weighted(|s| s.p50_ms),
        shadow.p99_ms - weighted(|s| s.p99_ms),
        shadow_error_rate - primary_error_rate,
    ))
}

/// Scrape-time families for the transport-level gauges and counters —
/// the same atomics `gateway_stats_response` reports. Holds a weak
/// `Shared` reference: the registry lives inside `Shared`, so a strong
/// capture would leak the gateway.
fn gateway_metric_families(shared: &Weak<Shared>) -> Vec<SampleFamily> {
    use MetricKind::{Counter, Gauge};
    let Some(shared) = shared.upgrade() else {
        return Vec::new();
    };
    let scalar = |name: &str, help: &str, kind: MetricKind, v: f64| {
        SampleFamily::new(name, help, kind, vec![Sample::value(v)])
    };
    // Read the raw flags, not `draining()`: a scrape must never stamp
    // the drain clock.
    let draining = shared.life.shutdown_requested()
        || (shared.config.honor_sigterm && signal::sigterm_received());
    let mut families = vec![
        scalar(
            "ccsa_gateway_active_connections",
            "TCP sessions currently open.",
            Gauge,
            shared.life.budget().active() as f64,
        ),
        scalar(
            "ccsa_gateway_max_connections",
            "Configured concurrent-session cap.",
            Gauge,
            shared.config.max_connections as f64,
        ),
        SampleFamily::new(
            "ccsa_gateway_connections_total",
            "Connection attempts, by admission result.",
            Counter,
            vec![
                Sample::new(
                    &[("result", "accepted")],
                    shared.life.budget().accepted() as f64,
                ),
                Sample::new(
                    &[("result", "rejected")],
                    shared.life.budget().rejected() as f64,
                ),
            ],
        ),
        scalar(
            "ccsa_gateway_shadow_dropped_total",
            "Shadow mirrors dropped because the mirror queue was full.",
            Counter,
            // Relaxed: stats counter.
            shared.shadow_dropped.load(Ordering::Relaxed) as f64,
        ),
        scalar(
            "ccsa_gateway_pinned_requests_total",
            "Requests that pinned a model/version and bypassed A/B routing.",
            Counter,
            // Relaxed: stats counter.
            shared.pinned.load(Ordering::Relaxed) as f64,
        ),
        scalar(
            "ccsa_gateway_draining",
            "1 while the gateway is draining (readyz returns 503), else 0.",
            Gauge,
            f64::from(draining),
        ),
        scalar(
            "ccsa_gateway_reloads_total",
            "Routing-table swaps applied via the reload_routes verb.",
            Counter,
            // SeqCst: versioned with the table swap it counts.
            shared.reloads.load(Ordering::SeqCst) as f64,
        ),
    ];
    // Shadow-vs-primary deltas, exported only once both arms have
    // traffic (absent series beat misleading zeros on a fresh gateway).
    let routing = shared.routing();
    if let (Some(shadow), Some((d50, d99, derr))) =
        (routing.router.shadow(), shadow_delta(&routing))
    {
        let label = shadow_metric_label(&shadow.selector);
        let labelled = |v: f64| vec![Sample::new(&[("route", label.as_str())], v)];
        families.extend([
            SampleFamily::new(
                "ccsa_route_shadow_delta_p50_ms",
                "Shadow-minus-primary rolling p50 latency delta (ms).",
                Gauge,
                labelled(d50),
            ),
            SampleFamily::new(
                "ccsa_route_shadow_delta_p99_ms",
                "Shadow-minus-primary rolling p99 latency delta (ms).",
                Gauge,
                labelled(d99),
            ),
            SampleFamily::new(
                "ccsa_route_shadow_delta_error_rate",
                "Shadow-minus-primary pooled error-rate delta.",
                Gauge,
                labelled(derr),
            ),
        ]);
    }
    families
}

/// The `stats` verb: engine stats plus transport-level gauges.
pub(crate) fn gateway_stats_response(shared: &Shared) -> Json {
    let mut response = proto::stats_response(&shared.engine.stats());
    if let Json::Obj(members) = &mut response {
        members.extend([
            (
                "active_connections".to_string(),
                Json::num(shared.life.budget().active() as f64),
            ),
            (
                "max_connections".to_string(),
                Json::num(shared.config.max_connections as f64),
            ),
            (
                "accepted_connections".to_string(),
                Json::num(shared.life.budget().accepted() as f64),
            ),
            (
                "rejected_at_capacity".to_string(),
                Json::num(shared.life.budget().rejected() as f64),
            ),
        ]);
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_list_matches_protocol_mutating_verbs() {
        // ccsa-audit's `verbs` rule checks this lexically; this end
        // checks it at link level so a unit-test run catches drift too.
        assert_eq!(transport::LOOPBACK_GATED_VERBS, proto::MUTATING_VERBS);
    }
}
