//! The fleet front tier: TCP/HTTP data plane, health prober, routing
//! table watcher, and the canary driver — everything that runs. Both
//! doors are [`ccsa_gateway::transport`]'s accept loop and sessions;
//! this module supplies the handlers.
//!
//! The data plane is deliberately *transparent*: a request line is
//! forwarded to its replica as raw bytes and the response line returned
//! verbatim, so a compare/rank through the fleet is byte-identical to
//! one against the replica directly. The fleet only ever parses a
//! request to decide *where* it goes (the sticky `client` key) and
//! whether it is one of the verbs answered locally: `fleet` stats,
//! `shutdown`, and `reload_routes` — the last applied through the
//! control plane (validate, persist, push to *every* replica) rather
//! than forwarded, because a raw forward would repoint one sticky
//! replica and silently desync it from the fleet's table.
//!
//! Reliability is layered:
//!
//! * **failover** — an attempt that fails at the socket level is
//!   retried transparently on the next healthy replica; scoring is
//!   idempotent, so the client sees one answer and zero errors while a
//!   replica dies;
//! * **hedging** — a scored request still unanswered at the hedge
//!   deadline gets a second attempt on the next distinct replica;
//!   whichever answers first wins. Only `compare`/`rank` are hedged —
//!   duplicating a mutating verb like `reload_routes` would apply it
//!   somewhere arbitrary;
//! * **health** — a background prober walks each replica's `/readyz`
//!   with rise/fall hysteresis and rebuilds the consistent-hash ring on
//!   every flip, so draining or dead replicas stop receiving new keys.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use ccsa_gateway::transport::{
    self, refuse_remote_admin, After, Doors, HttpRequest, HttpResponse, Lifecycle, Spawned,
};
use ccsa_serve::json::{self, Json};
use ccsa_serve::proto;
use ccsa_serve::{Counter, MetricKind, Sample, SampleFamily};

use crate::canary::{Canary, CanaryConfig, CanaryPhase, Decision, DeltaSample};
use crate::replica::{Replica, ReplicaConfig};
use crate::ring::Ring;
use crate::table::{self, TableSpec};

/// Fleet construction settings.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Bind address for the JSON-lines front (port 0 = ephemeral).
    pub addr: String,
    /// Bind address for the HTTP front (`None` = TCP only).
    pub http_addr: Option<String>,
    /// Concurrent session cap across both fronts.
    pub max_connections: usize,
    /// Hedge deadline for scored requests (`None` = hedging off).
    /// Operationally this is derived from the replica p99 — a hedge
    /// should fire only for requests already slower than almost all.
    pub hedge_after: Option<Duration>,
    /// Per-attempt connect/read timeout on forwarded requests.
    pub forward_timeout: Duration,
    /// Probe cadence (`None` = prober off; replicas stay as they
    /// start, healthy).
    pub probe_interval: Option<Duration>,
    /// Consecutive probe successes before an ejected replica rejoins.
    pub probe_rise: u32,
    /// Consecutive probe failures before a replica is ejected.
    pub probe_fall: u32,
    /// Per-probe timeout.
    pub probe_timeout: Duration,
    /// The hot-reloadable routing-table file (`None` = control plane
    /// off).
    pub routes_file: Option<PathBuf>,
    /// How often the table file is polled for changes.
    pub table_poll: Duration,
    /// Canary controller tuning (`None` = controller off; it also
    /// stays idle until the table has a shadow entry).
    pub canary: Option<CanaryConfig>,
    /// Whether `shutdown` is honoured from non-loopback peers.
    pub allow_remote_shutdown: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            addr: "127.0.0.1:0".to_string(),
            http_addr: None,
            max_connections: 128,
            hedge_after: None,
            forward_timeout: Duration::from_secs(5),
            probe_interval: Some(Duration::from_millis(500)),
            probe_rise: 2,
            probe_fall: 2,
            probe_timeout: Duration::from_secs(1),
            routes_file: None,
            table_poll: Duration::from_millis(200),
            canary: None,
            allow_remote_shutdown: false,
        }
    }
}

/// State shared between the accept loops, session threads, background
/// workers, and handles.
pub(crate) struct FleetState {
    pub(crate) replicas: Vec<Arc<Replica>>,
    /// The consistent-hash ring over currently-healthy replicas.
    /// Rebuilt and swapped whole on every health flip.
    ring: RwLock<Arc<Ring>>,
    pub(crate) config: FleetConfig,
    /// Addresses, connection budget, metrics registry, drain flag and
    /// readiness: what the handle derefs to.
    life: Lifecycle,
    /// Per-replica forwarded-request counters
    /// (`ccsa_fleet_requests_total{replica=<id>}`), indexed like
    /// `replicas`.
    request_counters: Vec<Counter>,
    hedges: Counter,
    hedge_wins: Counter,
    failovers: Counter,
    ejections: Counter,
    restores: Counter,
    canary_promotes: Counter,
    canary_holds: Counter,
    canary_rollbacks: Counter,
    /// Routing tables successfully pushed to replicas since boot.
    table_generation: AtomicU64,
    /// The last table validation/push error, for the stats verb.
    table_error: Mutex<Option<String>>,
    /// Set while the last table push left at least one healthy replica
    /// behind; the table watcher keeps retrying until it clears.
    push_incomplete: AtomicBool,
    /// The current table (as last pushed), for rewrites and stats.
    current_table: Mutex<Option<TableSpec>>,
    pub(crate) canary: Option<Canary>,
}

impl FleetState {
    fn ring(&self) -> Arc<Ring> {
        Arc::clone(&self.ring.read().expect("ring poisoned"))
    }

    /// Rebuilds the ring from the currently-healthy replica subset.
    fn rebuild_ring(&self) {
        let next = Ring::new(
            self.replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_healthy())
                .map(|(ix, r)| (ix, r.config.id.as_str())),
        );
        *self.ring.write().expect("ring poisoned") = Arc::new(next);
    }

    fn draining(&self) -> bool {
        self.life.shutdown_requested()
    }

    fn record_request(&self, ix: usize) {
        // Relaxed: per-replica stats counter, read at snapshot time.
        self.replicas[ix].requests.fetch_add(1, Ordering::Relaxed);
        self.request_counters[ix].inc();
    }

    /// Pushes a table to one replica via `reload_routes`; best-effort.
    fn push_table_to(&self, spec: &TableSpec, ix: usize) -> Result<(), String> {
        let line = spec.reload_request().to_string();
        match self.replicas[ix].exchange(&line, self.config.forward_timeout) {
            Ok(response) => {
                let v = json::parse(&response).map_err(|e| e.to_string())?;
                match v.get("ok").and_then(Json::as_bool) {
                    Some(true) => Ok(()),
                    _ => Err(v
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("reload_routes refused")
                        .to_string()),
                }
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Persists (when a table file is configured) and pushes a table to
    /// every healthy replica. Partial push failures are recorded but do
    /// not roll the table back — the table watcher keeps retrying until
    /// every healthy replica has it, and the prober re-pushes when a
    /// replica recovers. `table_generation` counts only fully-delivered
    /// pushes.
    pub(crate) fn apply_table(&self, spec: &TableSpec, persist: bool) -> Result<(), String> {
        if persist {
            if let Some(path) = &self.config.routes_file {
                table::write_atomic(path, spec).map_err(|e| e.to_string())?;
            }
        }
        // Installed before the pushes so the watcher, seeing this
        // fleet's own persisted rewrite appear in the file, recognises
        // it as already applied instead of pushing it a second time.
        *self.current_table.lock().expect("table poisoned") = Some(spec.clone());
        let mut errors = Vec::new();
        for (ix, replica) in self.replicas.iter().enumerate() {
            if !replica.is_healthy() {
                continue;
            }
            if let Err(e) = self.push_table_to(spec, ix) {
                errors.push(format!("{}: {e}", replica.config.id));
            }
        }
        let error = (!errors.is_empty()).then(|| errors.join("; "));
        // SeqCst: the incomplete flag and generation bump must be seen
        // in a consistent order by status readers.
        self.push_incomplete
            .store(error.is_some(), Ordering::SeqCst);
        if error.is_none() {
            self.table_generation.fetch_add(1, Ordering::SeqCst);
        }
        *self.table_error.lock().expect("table error poisoned") = error.clone();
        match error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// A cloneable control handle onto a running fleet. It derefs to the
/// fleet's [`Lifecycle`]: `addr`, `http_addr`, `metrics` (`ccsa_fleet_*`),
/// `shutdown`, `accepting` and `active_connections`.
#[derive(Clone)]
pub struct FleetHandle {
    state: Arc<FleetState>,
}

impl Deref for FleetHandle {
    type Target = Lifecycle;

    fn deref(&self) -> &Lifecycle {
        &self.state.life
    }
}

impl FleetHandle {
    /// Routing tables pushed since boot.
    pub fn table_generation(&self) -> u64 {
        // SeqCst: pairs with the push path's generation bump.
        self.state.table_generation.load(Ordering::SeqCst)
    }

    /// The canary's current phase label, when a controller is running.
    pub fn canary_phase(&self) -> Option<CanaryPhase> {
        self.state.canary.as_ref().map(Canary::phase)
    }
}

/// A bound-but-not-yet-running fleet.
pub struct Fleet {
    doors: Doors,
    state: Arc<FleetState>,
}

/// A fleet running on a background thread (tests and embedding).
pub type SpawnedFleet = Spawned<FleetHandle>;

impl Fleet {
    /// Binds the listeners; does not accept yet.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects an empty replica set or
    /// duplicate replica ids (`InvalidInput`).
    pub fn bind(replicas: Vec<ReplicaConfig>, config: FleetConfig) -> std::io::Result<Fleet> {
        let invalid =
            |message: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, message);
        if replicas.is_empty() {
            return Err(invalid("fleet needs at least one replica".to_string()));
        }
        for (ix, replica) in replicas.iter().enumerate() {
            if replicas[..ix].iter().any(|r| r.id == replica.id) {
                return Err(invalid(format!("duplicate replica id {:?}", replica.id)));
            }
        }
        let (doors, life) = Lifecycle::bind(
            "fleet",
            &config.addr,
            config.http_addr.as_deref(),
            config.max_connections,
        )?;
        let metrics = life.metrics();
        let request_counters = replicas
            .iter()
            .map(|r| {
                metrics.counter(
                    "ccsa_fleet_requests_total",
                    "Requests forwarded through the fleet, by replica.",
                    &[("replica", r.id.as_str())],
                )
            })
            .collect();
        let scalar = |name: &str, help: &str| metrics.counter(name, help, &[]);
        let decision = |kind: &str| {
            metrics.counter(
                "ccsa_fleet_canary_decisions_total",
                "Canary controller decisions, by kind.",
                &[("decision", kind)],
            )
        };
        let replicas: Vec<Arc<Replica>> = replicas
            .into_iter()
            .map(|c| Arc::new(Replica::new(c)))
            .collect();
        let ring = Ring::new(
            replicas
                .iter()
                .enumerate()
                .map(|(ix, r)| (ix, r.config.id.as_str())),
        );
        let state = Arc::new(FleetState {
            replicas,
            ring: RwLock::new(Arc::new(ring)),
            life,
            request_counters,
            hedges: scalar(
                "ccsa_fleet_hedges_total",
                "Second attempts fired because the first passed the hedge deadline.",
            ),
            hedge_wins: scalar(
                "ccsa_fleet_hedge_wins_total",
                "Hedged requests where the second attempt answered first.",
            ),
            failovers: scalar(
                "ccsa_fleet_failovers_total",
                "Requests transparently retried on another replica after a failure.",
            ),
            ejections: scalar(
                "ccsa_fleet_ejections_total",
                "Replicas ejected from the ring by the health prober.",
            ),
            restores: scalar(
                "ccsa_fleet_restores_total",
                "Ejected replicas restored to the ring on recovery.",
            ),
            canary_promotes: decision("promote"),
            canary_holds: decision("hold"),
            canary_rollbacks: decision("rollback"),
            table_generation: AtomicU64::new(0),
            table_error: Mutex::new(None),
            push_incomplete: AtomicBool::new(false),
            current_table: Mutex::new(None),
            canary: config.canary.clone().map(Canary::new),
            config,
        });
        let collector_state = Arc::downgrade(&state);
        metrics.register_collector(move || fleet_metric_families(&collector_state));
        Ok(Fleet { doors, state })
    }

    /// A control handle.
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the accept loop on the calling thread until drained.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures.
    pub fn run(self) -> std::io::Result<()> {
        let Fleet { doors, state } = self;
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        if let Some(l) = doors.http {
            let door = move |state: &Arc<FleetState>| {
                let _ = state.life.accept_http(
                    &l,
                    "ccsa-fleet-http-",
                    || state.draining(),
                    |stream, peer| serve_http_connection(state, stream, peer),
                );
            };
            workers.push(spawn_worker(&state, "ccsa-fleet-http", door)?);
        }
        if state.config.probe_interval.is_some() {
            workers.push(spawn_worker(&state, "ccsa-fleet-probe", run_prober)?);
        }
        if state.config.routes_file.is_some() {
            workers.push(spawn_worker(&state, "ccsa-fleet-table", run_table_watcher)?);
        }
        if state.canary.is_some() {
            workers.push(spawn_worker(&state, "ccsa-fleet-canary", run_canary)?);
        }
        state.life.accept_lines(
            &doors.lines,
            "ccsa-fleet-",
            || state.draining(),
            |stream, peer| serve_connection(&state, stream, peer),
        )?;
        for worker in workers {
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
        replicas: Vec<ReplicaConfig>,
        config: FleetConfig,
    ) -> std::io::Result<SpawnedFleet> {
        let fleet = Fleet::bind(replicas, config)?;
        Spawned::start("ccsa-fleet-accept", fleet.handle(), move || fleet.run())
    }
}

/// Starts one named background worker over the shared state.
fn spawn_worker(
    state: &Arc<FleetState>,
    name: &str,
    work: impl FnOnce(&Arc<FleetState>) + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    let state = Arc::clone(state);
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || work(&state))
}

// ---------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------

/// One JSON-lines connection: the transport core frames, `handle_line`
/// answers. No idle timeout — a fleet session lives until its client or
/// a drain ends it.
fn serve_connection(state: &Arc<FleetState>, stream: TcpStream, peer: SocketAddr) {
    let fallback_key = peer.ip().to_string();
    let peer_is_loopback = peer.ip().is_loopback();
    transport::serve_lines(stream, &|| state.draining(), None, |line| {
        // Forwarded raw, so without the line terminator.
        let line = line.trim_end_matches(['\n', '\r']);
        handle_line(state, line, &fallback_key, peer_is_loopback)
    });
}

/// Routes one request line: local verbs answered here, everything else
/// forwarded raw.
fn handle_line(
    state: &Arc<FleetState>,
    line: &str,
    fallback_key: &str,
    peer_is_loopback: bool,
) -> (String, After<'static>) {
    let allow = state.config.allow_remote_shutdown;
    let refusal = |verb: &str| {
        refuse_remote_admin(verb, peer_is_loopback, allow, "fleet").map(|r| r.to_string())
    };
    // Peek at op/client; an unparseable line is still forwarded — the
    // replica's protocol error is the canonical one, and answering
    // locally would break transparency.
    let parsed = json::parse(line).ok();
    let op = parsed
        .as_ref()
        .and_then(|v| v.get("op"))
        .and_then(Json::as_str)
        .unwrap_or("");
    match op {
        "fleet" => (fleet_stats_response(state).to_string(), After::KeepGoing),
        "shutdown" => {
            if let Some(refusal) = refusal("shutdown") {
                return (refusal, After::KeepGoing);
            }
            // This session still writes the reply below before it
            // closes.
            state.life.shutdown();
            (
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("shutdown")),
                    ("draining", Json::Bool(true)),
                ])
                .to_string(),
                After::Close,
            )
        }
        "reload_routes" => {
            // Gated exactly like shutdown — and applied through the
            // control plane rather than forwarded: a raw forward would
            // repoint one sticky replica (which would see the fleet's
            // own address as the peer, waving the verb past its
            // loopback gate) and silently desync it from the fleet's
            // current table.
            if let Some(refusal) = refusal("reload_routes") {
                return (refusal, After::KeepGoing);
            }
            let request = parsed.as_ref().expect("op was read from this value");
            let response = match table::from_json(request) {
                Err(e) => proto::error_response(&format!("reload_routes rejected: {e}")),
                Ok(spec) => match state.apply_table(&spec, true) {
                    Ok(()) => Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("op", Json::str("reload_routes")),
                        (
                            "table_generation",
                            // SeqCst: pairs with apply_table's bump.
                            Json::num(state.table_generation.load(Ordering::SeqCst) as f64),
                        ),
                    ]),
                    Err(e) => proto::error_response(&format!("reload_routes push incomplete: {e}")),
                },
            };
            (response.to_string(), After::KeepGoing)
        }
        _ => {
            let client_key = parsed
                .as_ref()
                .and_then(|v| v.get("client"))
                .and_then(Json::as_str)
                .unwrap_or(fallback_key)
                .to_string();
            let hedgeable = matches!(op, "compare" | "rank");
            (
                forward(state, &client_key, line, hedgeable),
                After::KeepGoing,
            )
        }
    }
}

/// Forwards one raw request line to its sticky replica, hedging scored
/// requests and failing over on socket errors. Always returns a
/// response line (an `ok:false` one when every replica is gone).
pub(crate) fn forward(
    state: &Arc<FleetState>,
    client_key: &str,
    line: &str,
    hedgeable: bool,
) -> String {
    let ring = state.ring();
    let Some(primary) = ring.replica_for(client_key) else {
        return proto::error_response("no healthy replicas — retry later").to_string();
    };
    let hedge = state
        .config
        .hedge_after
        .filter(|_| hedgeable)
        .and_then(|deadline| {
            ring.next_replica(client_key, primary)
                .map(|second| (deadline, second))
        });
    let answered = match hedge {
        None => forward_sequential(
            state,
            attempt_order(&state.replicas, primary, &[]),
            line,
            false,
        ),
        Some((deadline, second)) => forward_hedged(state, primary, second, line, deadline),
    };
    answered.unwrap_or_else(|| {
        proto::error_response("no replica answered — all attempts failed").to_string()
    })
}

/// The replica indices to try: the primary first — unless it is in
/// `exclude` because an attempt on it already failed, in which case
/// retrying it would only add a known-dead round trip ahead of the
/// survivors — then every other healthy replica not in `exclude`.
fn attempt_order(replicas: &[Arc<Replica>], primary: usize, exclude: &[usize]) -> Vec<usize> {
    let mut order = Vec::new();
    if !exclude.contains(&primary) {
        order.push(primary);
    }
    for (ix, replica) in replicas.iter().enumerate() {
        if ix != primary && !exclude.contains(&ix) && replica.is_healthy() {
            order.push(ix);
        }
    }
    order
}

/// Tries replicas in order until one answers; successes after the first
/// failure count as failovers. Returns `None` when nobody answered.
fn forward_sequential(
    state: &Arc<FleetState>,
    order: Vec<usize>,
    line: &str,
    already_failed: bool,
) -> Option<String> {
    let mut failed = already_failed;
    for ix in order {
        match state.replicas[ix].exchange(line, state.config.forward_timeout) {
            Ok(response) => {
                state.record_request(ix);
                if failed {
                    state.failovers.inc();
                }
                return Some(response);
            }
            Err(_) => failed = true,
        }
    }
    None
}

/// The hedged path: first attempt on `primary`; if it has not answered
/// by `deadline`, a second attempt on `second` races it; the first
/// answer wins. Socket failures fall back to sequential failover over
/// the remaining healthy replicas.
fn forward_hedged(
    state: &Arc<FleetState>,
    primary: usize,
    second: usize,
    line: &str,
    deadline: Duration,
) -> Option<String> {
    let (tx, rx) = mpsc::channel::<(usize, std::io::Result<String>)>();
    spawn_attempt(state, primary, line, &tx);
    match rx.recv_timeout(deadline) {
        Ok((ix, Ok(response))) => {
            state.record_request(ix);
            Some(response)
        }
        Ok((_, Err(_))) => {
            // The primary failed outright before the hedge deadline:
            // plain failover, no hedge fired.
            forward_sequential(
                state,
                attempt_order(&state.replicas, primary, &[primary]),
                line,
                true,
            )
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            state.hedges.inc();
            spawn_attempt(state, second, line, &tx);
            let mut pending = 2;
            while pending > 0 {
                // Generous bound: each attempt's socket already times
                // out at `forward_timeout`.
                match rx.recv_timeout(state.config.forward_timeout + deadline) {
                    Ok((ix, Ok(response))) => {
                        if ix == second {
                            state.hedge_wins.inc();
                        }
                        state.record_request(ix);
                        return Some(response);
                    }
                    Ok((_, Err(_))) => pending -= 1,
                    Err(_) => break,
                }
            }
            forward_sequential(
                state,
                attempt_order(&state.replicas, primary, &[primary, second]),
                line,
                true,
            )
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => None,
    }
}

/// Runs one forwarding attempt on its own thread, reporting into the
/// hedge channel. Detached: a slow loser finishes its exchange (and
/// returns its pooled connection) in the background.
fn spawn_attempt(
    state: &Arc<FleetState>,
    ix: usize,
    line: &str,
    tx: &mpsc::Sender<(usize, std::io::Result<String>)>,
) {
    let state = Arc::clone(state);
    let line = line.to_string();
    let tx = tx.clone();
    let _ = std::thread::Builder::new()
        .name("ccsa-fleet-hedge".to_string())
        .spawn(move || {
            let result = state.replicas[ix].exchange(&line, state.config.forward_timeout);
            let _ = tx.send((ix, result));
        });
}

// ---------------------------------------------------------------------
// Background workers
// ---------------------------------------------------------------------

/// The health prober: walks every replica's `/readyz` with rise/fall
/// hysteresis, rebuilding the ring on flips and re-pushing the current
/// routing table to replicas that recover.
fn run_prober(state: &Arc<FleetState>) {
    let Some(interval) = state.config.probe_interval else {
        return;
    };
    while !state.draining() {
        for (ix, replica) in state.replicas.iter().enumerate() {
            let ok = probe_readyz(replica.config.http_addr, state.config.probe_timeout);
            let flipped = if ok {
                let rose = replica.probe_success(state.config.probe_rise);
                if rose {
                    state.restores.inc();
                    // A recovered replica may have missed table pushes.
                    let table = state.current_table.lock().expect("table poisoned").clone();
                    if let Some(spec) = table {
                        let _ = state.push_table_to(&spec, ix);
                    }
                }
                rose
            } else {
                let fell = replica.probe_failure(state.config.probe_fall);
                if fell {
                    state.ejections.inc();
                }
                fell
            };
            if flipped {
                state.rebuild_ring();
            }
        }
        std::thread::sleep(interval);
    }
}

/// One `/readyz` probe: connect, GET, expect 200.
fn probe_readyz(addr: SocketAddr, timeout: Duration) -> bool {
    let Ok(stream) = TcpStream::connect_timeout(&addr, timeout) else {
        return false;
    };
    if stream.set_read_timeout(Some(timeout)).is_err() || stream.set_nodelay(true).is_err() {
        return false;
    }
    let mut stream = stream;
    if stream
        .write_all(b"GET /readyz HTTP/1.1\r\nHost: fleet-probe\r\nConnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    // "HTTP/1.1 200" is all a probe needs of the reply.
    let mut status = [0u8; 12];
    stream.read_exact(&mut status).is_ok()
        && status.starts_with(b"HTTP/1.")
        && &status[8..] == b" 200"
}

/// Poll ticks between re-push attempts while the last table push left
/// a healthy replica behind.
const TABLE_RETRY_TICKS: u32 = 5;

/// The table watcher: polls the routing-table file and, when its
/// content changes, validates and pushes it. Invalid tables are
/// recorded and skipped — the last good table keeps serving. A file
/// change whose parsed spec matches the already-pushed table (the
/// canary persists its own rewrites through [`FleetState::apply_table`])
/// is not pushed again; a push that left a healthy replica behind is
/// retried every few ticks rather than waiting for the next file edit.
fn run_table_watcher(state: &Arc<FleetState>) {
    let Some(path) = state.config.routes_file.clone() else {
        return;
    };
    let mut last_hash: Option<u64> = None;
    let mut ticks_until_retry = TABLE_RETRY_TICKS;
    while !state.draining() {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let hash = ccsa_serve::hash::fnv1a(text.as_bytes());
                if last_hash != Some(hash) {
                    last_hash = Some(hash);
                    match table::parse(&text) {
                        Ok(spec) => {
                            // SeqCst: pairs with apply_table's store of
                            // the incomplete flag.
                            let already_applied = !state.push_incomplete.load(Ordering::SeqCst)
                                && state.current_table.lock().expect("table poisoned").as_ref()
                                    == Some(&spec);
                            if !already_applied {
                                let _ = state.apply_table(&spec, false);
                            }
                        }
                        Err(e) => {
                            *state.table_error.lock().expect("table error poisoned") =
                                Some(format!("{}: {e}", path.display()));
                        }
                    }
                // SeqCst: same flag, same pairing as above.
                } else if state.push_incomplete.load(Ordering::SeqCst) {
                    ticks_until_retry -= 1;
                    if ticks_until_retry == 0 {
                        let current = state.current_table.lock().expect("table poisoned").clone();
                        if let Some(spec) = current {
                            let _ = state.apply_table(&spec, false);
                        }
                    }
                }
                // SeqCst: same flag, same pairing as above.
                if ticks_until_retry == 0 || !state.push_incomplete.load(Ordering::SeqCst) {
                    ticks_until_retry = TABLE_RETRY_TICKS;
                }
            }
            Err(e) => {
                *state.table_error.lock().expect("table error poisoned") =
                    Some(format!("reading {}: {e}", path.display()));
            }
        }
        std::thread::sleep(state.config.table_poll);
    }
}

/// The canary driver: scrapes every healthy replica's `routes` verb,
/// aggregates the worst shadow deltas, feeds the controller, and
/// applies its promote/rollback decisions as table rewrites.
fn run_canary(state: &Arc<FleetState>) {
    let Some(canary) = &state.canary else {
        return;
    };
    while !state.draining() && canary.active() {
        std::thread::sleep(canary.interval());
        if state.draining() {
            return;
        }
        let Some(current) = state.current_table.lock().expect("table poisoned").clone() else {
            continue; // no table yet — nothing to ramp
        };
        let Some((candidate, _fraction)) = current.shadow.clone() else {
            continue; // no shadow arm — nothing to watch
        };
        let sample = scrape_worst_delta(state);
        let decision = canary.tick(sample);
        match &decision {
            Decision::Promote(_) => state.canary_promotes.inc(),
            Decision::Hold => state.canary_holds.inc(),
            Decision::Rollback(_) => state.canary_rollbacks.inc(),
        }
        match decision {
            Decision::Hold => {}
            Decision::Promote(weight) => {
                let next = promote_table(&current, &candidate, weight);
                let _ = state.apply_table(&next, true);
            }
            Decision::Rollback(_reason) => {
                let next = rollback_table(&current, &candidate);
                let _ = state.apply_table(&next, true);
            }
        }
    }
}

/// Scrapes every healthy replica's `routes` verb and returns the worst
/// (largest) shadow deltas seen, or `None` when any replica's deltas
/// were unavailable — the controller treats that as "not enough
/// evidence" and holds.
fn scrape_worst_delta(state: &Arc<FleetState>) -> Option<DeltaSample> {
    let mut worst: Option<DeltaSample> = None;
    for replica in state.replicas.iter().filter(|r| r.is_healthy()) {
        let response = replica
            .exchange(r#"{"op":"routes"}"#, state.config.forward_timeout)
            .ok()?;
        let v = json::parse(&response).ok()?;
        let shadow = v.get("shadow")?;
        let delta = |name: &str| shadow.get(name).and_then(Json::as_f64);
        let sample = DeltaSample {
            delta_p50_ms: delta("delta_p50_ms")?,
            delta_p99_ms: delta("delta_p99_ms")?,
            delta_error_rate: delta("delta_error_rate")?,
        };
        worst = Some(match worst {
            None => sample,
            Some(w) => DeltaSample {
                delta_p50_ms: w.delta_p50_ms.max(sample.delta_p50_ms),
                delta_p99_ms: w.delta_p99_ms.max(sample.delta_p99_ms),
                delta_error_rate: w.delta_error_rate.max(sample.delta_error_rate),
            },
        });
    }
    worst
}

/// The table after one promotion step: primaries scaled to `1 - weight`
/// of traffic, the candidate at `weight`. At full weight the candidate
/// becomes the sole route and the shadow entry is dropped.
fn promote_table(
    current: &TableSpec,
    candidate: &ccsa_serve::ModelSelector,
    weight: f64,
) -> TableSpec {
    if weight >= 1.0 {
        return TableSpec {
            routes: vec![(candidate.clone(), 1.0)],
            shadow: None,
        };
    }
    let base: Vec<(ccsa_serve::ModelSelector, f64)> = current
        .routes
        .iter()
        .filter(|(selector, w)| *w > 0.0 && !same_selector(selector, candidate))
        .cloned()
        .collect();
    if base.is_empty() {
        // Route weights are relative: with no other positive route to
        // hold the remaining (1 - weight) share, a lone fractional
        // candidate would silently mean 100% of traffic — make the full
        // promotion explicit instead of implying it.
        return TableSpec {
            routes: vec![(candidate.clone(), 1.0)],
            shadow: None,
        };
    }
    let total: f64 = base.iter().map(|(_, w)| w).sum();
    let mut routes: Vec<(ccsa_serve::ModelSelector, f64)> = base
        .iter()
        .map(|(selector, w)| (selector.clone(), w / total * (1.0 - weight)))
        .collect();
    routes.push((candidate.clone(), weight));
    TableSpec {
        routes,
        shadow: current.shadow.clone(),
    }
}

/// The table after a rollback: primaries restored to their full
/// weights, the candidate kept at weight 0 as the visible record, the
/// shadow entry dropped so mirroring stops.
fn rollback_table(current: &TableSpec, candidate: &ccsa_serve::ModelSelector) -> TableSpec {
    let mut routes: Vec<(ccsa_serve::ModelSelector, f64)> = current
        .routes
        .iter()
        .filter(|(selector, w)| *w > 0.0 && !same_selector(selector, candidate))
        .cloned()
        .collect();
    routes.push((candidate.clone(), 0.0));
    TableSpec {
        routes,
        shadow: None,
    }
}

fn same_selector(a: &ccsa_serve::ModelSelector, b: &ccsa_serve::ModelSelector) -> bool {
    a.name.as_deref().unwrap_or(ccsa_serve::DEFAULT_MODEL)
        == b.name.as_deref().unwrap_or(ccsa_serve::DEFAULT_MODEL)
        && a.version == b.version
}

// ---------------------------------------------------------------------
// Stats + metrics
// ---------------------------------------------------------------------

/// The `fleet` verb: replica/ring/hedge/canary state as one document.
pub(crate) fn fleet_stats_response(state: &FleetState) -> Json {
    let replicas: Vec<Json> = state
        .replicas
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("id", Json::str(r.config.id.clone())),
                ("addr", Json::str(r.config.addr.to_string())),
                ("http_addr", Json::str(r.config.http_addr.to_string())),
                ("healthy", Json::Bool(r.is_healthy())),
                (
                    "requests",
                    // Relaxed: stats counter read at snapshot time.
                    Json::num(r.requests.load(Ordering::Relaxed) as f64),
                ),
                ("pooled_connections", Json::num(r.pooled() as f64)),
            ])
        })
        .collect();
    let counter = |c: &Counter| Json::num(c.get() as f64);
    let canary = match &state.canary {
        None => Json::Null,
        Some(canary) => {
            let phase = canary.phase();
            let (step, reason) = match &phase {
                CanaryPhase::Ramping(step) => (Json::num(*step as f64), Json::Null),
                CanaryPhase::RolledBack(reason) => (Json::Null, Json::str(reason.clone())),
                _ => (Json::Null, Json::Null),
            };
            Json::obj(vec![
                ("phase", Json::str(phase.label())),
                ("step", step),
                ("reason", reason),
            ])
        }
    };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("fleet")),
        ("replicas", Json::Arr(replicas)),
        ("ring_members", Json::num(state.ring().members() as f64)),
        ("hedges", counter(&state.hedges)),
        ("hedge_wins", counter(&state.hedge_wins)),
        ("failovers", counter(&state.failovers)),
        ("ejections", counter(&state.ejections)),
        ("restores", counter(&state.restores)),
        (
            "table_generation",
            // SeqCst: pairs with apply_table's bump.
            Json::num(state.table_generation.load(Ordering::SeqCst) as f64),
        ),
        (
            "table_error",
            match &*state.table_error.lock().expect("table error poisoned") {
                Some(e) => Json::str(e.clone()),
                None => Json::Null,
            },
        ),
        ("canary", canary),
    ])
}

/// Scrape-time gauges for ring/table state.
fn fleet_metric_families(state: &std::sync::Weak<FleetState>) -> Vec<SampleFamily> {
    use MetricKind::Gauge;
    let Some(state) = state.upgrade() else {
        return Vec::new();
    };
    let scalar = |name: &str, help: &str, v: f64| {
        SampleFamily::new(name, help, Gauge, vec![Sample::value(v)])
    };
    vec![
        scalar(
            "ccsa_fleet_ring_members",
            "Replicas currently on the consistent-hash ring.",
            state.ring().members() as f64,
        ),
        scalar(
            "ccsa_fleet_replicas",
            "Configured replicas, healthy or not.",
            state.replicas.len() as f64,
        ),
        scalar(
            "ccsa_fleet_table_generation",
            "Routing tables pushed to replicas since boot.",
            // SeqCst: pairs with apply_table's bump.
            state.table_generation.load(Ordering::SeqCst) as f64,
        ),
        scalar(
            "ccsa_fleet_active_connections",
            "Fleet sessions currently open.",
            state.life.active_connections() as f64,
        ),
    ]
}

// ---------------------------------------------------------------------
// HTTP front
// ---------------------------------------------------------------------

/// One HTTP connection of the fleet's front: the transport core frames
/// (the same reader and writer as a gateway's door), `route_http`
/// answers.
fn serve_http_connection(state: &Arc<FleetState>, stream: TcpStream, peer: SocketAddr) {
    let fallback_key = peer.ip().to_string();
    transport::serve_http(stream, &|| state.draining(), None, |request| {
        (route_http(state, request, &fallback_key), After::KeepGoing)
    });
}

/// Routes one HTTP request: probes, metrics, the fleet stats document,
/// and the scored verbs forwarded through the same data plane as TCP.
fn route_http(state: &Arc<FleetState>, request: &HttpRequest, fallback_key: &str) -> HttpResponse {
    let path = request.path.split('?').next().unwrap_or("");
    if let Some(probe) = state.life.probe(&request.method, path, || state.draining()) {
        return probe;
    }
    match (request.method.as_str(), path) {
        ("GET", "/v1/fleet") => HttpResponse::json(200, "OK", &fleet_stats_response(state)),
        ("POST", "/v1/compare") => forward_http(state, "compare", &request.body, fallback_key),
        ("POST", "/v1/rank") => forward_http(state, "rank", &request.body, fallback_key),
        _ => HttpResponse::json_error(404, "Not Found", &format!("no such endpoint {path}")),
    }
}

/// Forwards one HTTP scored request through the TCP data plane: the
/// body gains its `op` (the path is the op, as on the gateway) and the
/// replica's response line is the HTTP body — byte-identical to the
/// replica's own HTTP body for the same request.
fn forward_http(
    state: &Arc<FleetState>,
    op: &str,
    body: &[u8],
    fallback_key: &str,
) -> HttpResponse {
    let bad_request = |message: &str| HttpResponse::json_error(400, "Bad Request", message);
    let Some((body, parsed)) = std::str::from_utf8(body)
        .ok()
        .and_then(|body| Some((body, json::parse(body).ok()?)))
    else {
        return bad_request("request body is not valid JSON");
    };
    let client_key = parsed
        .get("client")
        .and_then(Json::as_str)
        .unwrap_or(fallback_key)
        .to_string();
    // The path *is* the op, as on the gateway. A body naming a
    // different op must not ride a scored endpoint into the data plane:
    // it would reach a replica from the fleet's own address (waving a
    // mutating verb like `shutdown` or `reload_routes` past the
    // replica's loopback gate) and be hedged — duplicated — on top.
    let line = match parsed.get("op") {
        Some(body_op) if body_op.as_str() == Some(op) => body.trim().to_string(),
        Some(body_op) => {
            return bad_request(&format!(
                "body op {body_op} does not match endpoint op \"{op}\""
            ))
        }
        None => match &parsed {
            Json::Obj(members) => {
                let mut fields = vec![("op".to_string(), Json::str(op))];
                fields.extend(members.clone());
                Json::Obj(fields).to_string()
            }
            _ => body.trim().to_string(),
        },
    };
    let response = forward(state, &client_key, &line, true);
    let ok = json::parse(&response)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        .unwrap_or(false);
    // The replica's line plus the protocol newline: the same bytes the
    // replica's own HTTP door sends as its body.
    if ok {
        HttpResponse::json(200, "OK", &response)
    } else {
        HttpResponse::json(502, "Bad Gateway", &response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica_set(n: usize) -> Vec<Arc<Replica>> {
        (0..n)
            .map(|i| {
                Arc::new(Replica::new(ReplicaConfig {
                    id: format!("gw-{i}"),
                    addr: "127.0.0.1:1".parse().unwrap(),
                    http_addr: "127.0.0.1:1".parse().unwrap(),
                }))
            })
            .collect()
    }

    #[test]
    fn attempt_order_puts_the_primary_first() {
        let replicas = replica_set(3);
        assert_eq!(attempt_order(&replicas, 1, &[]), vec![1, 0, 2]);
    }

    #[test]
    fn attempt_order_never_retries_an_excluded_primary() {
        // The failover paths exclude the attempt that just failed; the
        // primary must not sneak back in ahead of the survivors.
        let replicas = replica_set(3);
        assert_eq!(attempt_order(&replicas, 1, &[1]), vec![0, 2]);
        assert_eq!(attempt_order(&replicas, 1, &[1, 2]), vec![0]);
    }

    #[test]
    fn attempt_order_skips_unhealthy_followers() {
        let replicas = replica_set(3);
        replicas[2].probe_failure(1);
        assert_eq!(attempt_order(&replicas, 0, &[0]), vec![1]);
    }

    fn versioned(version: u32) -> ccsa_serve::ModelSelector {
        ccsa_serve::ModelSelector {
            name: None,
            version: Some(version),
        }
    }

    #[test]
    fn promote_table_scales_base_routes_to_the_remaining_share() {
        let current = TableSpec {
            routes: vec![(versioned(1), 1.0), (versioned(2), 0.0)],
            shadow: Some((versioned(2), 1.0)),
        };
        let next = promote_table(&current, &versioned(2), 0.1);
        assert_eq!(next.routes.len(), 2);
        let weight_of = |v: u32| {
            next.routes
                .iter()
                .find(|(s, _)| s.version == Some(v))
                .map(|(_, w)| *w)
                .unwrap()
        };
        assert!((weight_of(1) - 0.9).abs() < 1e-12);
        assert!((weight_of(2) - 0.1).abs() < 1e-12);
        assert!(next.shadow.is_some());
    }

    #[test]
    fn promote_table_with_no_base_routes_is_an_explicit_full_promotion() {
        // The only positive-weight route already IS the candidate.
        // Weights are relative, so a lone candidate at 0.1 would mean
        // 100% of traffic anyway — the rewrite must say so rather than
        // imply it with a fractional weight.
        let current = TableSpec {
            routes: vec![(versioned(2), 1.0)],
            shadow: Some((versioned(2), 1.0)),
        };
        let next = promote_table(&current, &versioned(2), 0.1);
        assert_eq!(next.routes, vec![(versioned(2), 1.0)]);
        assert!(next.shadow.is_none());
    }
}
