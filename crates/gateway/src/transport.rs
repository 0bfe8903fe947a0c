//! The transport core: how a connection lives and how a request is
//! framed — the one copy, shared by every door of the gateway and of
//! `ccsa-fleet`.
//!
//! The core owns:
//!
//! * **the accept loop** ([`accept_loop`]) — a non-blocking listener
//!   polled every [`POLL_INTERVAL`], blocking `TCP_NODELAY` streams, one
//!   named session thread per admitted connection, one connection
//!   [`Budget`] shared by all of a tier's doors (a slot is released by a
//!   drop guard, so a panicking handler cannot wedge the cap shut),
//!   finished sessions reaped on every tick and all of them joined
//!   before the loop returns;
//! * **the JSON-lines session** ([`serve_lines`]) — [`MAX_LINE_BYTES`]
//!   per request line, blank lines skipped, UTF-8 checked, one
//!   `write(2)` per reply;
//! * **the HTTP/1.1 session** ([`serve_http`]) — the only request-head
//!   parser and the only response serializer in the workspace: 16 KiB
//!   heads, [`MAX_LINE_BYTES`] bodies, `Expect: 100-continue`,
//!   400/408/413/431/501 answered before closing, keep-alive unless
//!   `Connection: close`, chunked replies, one `write(2)` per reply;
//! * **the idle clock** — both sessions read through one `ReadClock`:
//!   reads wake every [`POLL_INTERVAL`] to poll the tier's stop
//!   predicate (between requests, never mid-handler), and a connection
//!   that makes no *progress* — a finished request or new bytes — for
//!   the idle timeout is closed, so a stalled half-sent request
//!   (slowloris) times out exactly like a silent connection;
//! * **the loopback gate** ([`LOOPBACK_GATED_VERBS`],
//!   [`refuse_remote_admin`]) for the mutating verbs;
//! * **the listener lifecycle** ([`Lifecycle`]) — binding both doors,
//!   the drain flag, readiness once every accept loop is live, the
//!   handle methods both tiers share, running on a background thread
//!   ([`Spawned`]), and the binaries' door flags and port files
//!   ([`DoorFlags`]), which appear only once the tier is accepting.
//!
//! A tier supplies a *stop predicate* (its drain flag), a *refusal
//! writer* for connections over the cap ([`refuse_line`] or
//! [`refuse_http`] under its own name, which [`Lifecycle::accept_lines`]
//! and [`Lifecycle::accept_http`] pick), and a *handler* per request —
//! `FnMut(&str) -> (reply, After)` for a line, `FnMut(&HttpRequest) ->
//! (HttpResponse, After)` for HTTP. Threads-per-connection is
//! deliberate: the expensive work per request is encoder forward passes,
//! which already funnel into the shared
//! [`EncodePool`](ccsa_serve::EncodePool) queue — the pool is the real
//! concurrency limiter, so session threads spend their lives blocked on
//! I/O or on the pool.

use std::fmt::Display;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ScopedJoinHandle};
use std::time::{Duration, Instant};

use ccsa_serve::json::Json;
use ccsa_serve::process::{fail, Flags};
use ccsa_serve::{proto, MetricsRegistry};

/// The longest request line (or HTTP body) a session will buffer before
/// failing the connection — one hostile client must not be able to
/// balloon resident memory by streaming an endless line.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// How often a blocked accept or read wakes to poll the stop predicate.
/// Bounds shutdown latency; does not bound request latency.
pub const POLL_INTERVAL: Duration = Duration::from_millis(15);

/// Request-head budget (request line + headers). Heads are small by
/// construction; 16 KiB leaves room for generous tracing headers while
/// keeping a hostile header stream from ballooning memory.
const MAX_HEAD_BYTES: usize = 16 << 10;

/// Response chunk size for chunked transfer-encoding (rank responses).
const CHUNK_BYTES: usize = 8 << 10;

/// The most capacity a session's read buffer keeps between requests:
/// typical requests reuse one allocation for the connection's life, and
/// one 8 MiB request does not pin 8 MiB until the client hangs up.
const KEEP_BUFFER_BYTES: usize = 64 << 10;

// ---------------------------------------------------------------------
// Loopback gate
// ---------------------------------------------------------------------

/// The wire verbs every door refuses off-loopback unless the tier was
/// started with remote administration enabled. Deliberately a literal
/// copy of `ccsa_serve::proto::MUTATING_VERBS` rather than a re-export:
/// `ccsa-audit`'s `verbs` rule diffs the two lists, so a new mutating
/// verb that lands in the protocol without a gate entry here fails CI
/// instead of being served by the gateway or forwarded by the fleet.
pub const LOOPBACK_GATED_VERBS: &[&str] = &["shutdown", "reload_routes"];

/// The refusal response for a gated verb arriving from a non-loopback
/// peer, or `None` when the request may proceed. `tier` names the
/// refusing process (`gateway` / `fleet`) in the message.
pub fn refuse_remote_admin(
    verb: &str,
    peer_is_loopback: bool,
    allow_remote: bool,
    tier: &str,
) -> Option<Json> {
    debug_assert!(LOOPBACK_GATED_VERBS.contains(&verb));
    (LOOPBACK_GATED_VERBS.contains(&verb) && !peer_is_loopback && !allow_remote).then(|| {
        proto::error_response(&format!(
            "{verb} is only accepted from loopback \
             (start the {tier} with remote shutdown enabled to change this)"
        ))
    })
}

// ---------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------

/// One connection budget, drawn on by every door of a tier so the doors
/// cannot over-subscribe the process together.
pub struct Budget {
    max: usize,
    active: AtomicUsize,
    accepted: AtomicU64,
    rejected: AtomicU64,
}

impl Budget {
    /// A budget of `max` concurrent sessions.
    pub fn new(max: usize) -> Budget {
        Budget {
            max,
            active: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Sessions currently open.
    pub fn active(&self) -> usize {
        // SeqCst: the admission gauge, read with its own ordering.
        self.active.load(Ordering::SeqCst)
    }

    /// Connections whose session started. Together with
    /// [`Budget::rejected`] this partitions connection attempts.
    pub fn accepted(&self) -> u64 {
        // Relaxed: stats counter, read at snapshot time.
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections turned away: over the cap, or no thread to serve them.
    pub fn rejected(&self) -> u64 {
        // Relaxed: stats counter, read at snapshot time.
        self.rejected.load(Ordering::Relaxed)
    }

    /// Takes a slot, or counts a rejection when all `max` are out.
    fn take(&self) -> Option<Slot<'_>> {
        let admit = |n: usize| (n < self.max).then_some(n + 1);
        // Check-and-take in one atomic step, so two doors racing for the
        // last slot cannot both win. SeqCst: the admission gauge.
        let taken = self
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, admit);
        if taken.is_err() {
            self.rejected.fetch_add(1, Ordering::Relaxed); // Relaxed: stats
            return None;
        }
        Some(Slot(self))
    }
}

/// Drop guard for one admitted connection: the slot is released even if
/// the session panics, so a bug in one handler can never wedge the
/// connection cap shut.
struct Slot<'a>(&'a Budget);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // SeqCst: releases the admission slot `Budget::take` took.
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accepts connections until `stop()`, serving each admitted one with
/// `session` on a thread named `{thread_prefix}{peer}`, then joins every
/// session. `accepting` is set once the loop owns the socket — port
/// files and readiness wait on it, so a probe can never race a
/// bound-but-not-accepting listener. A connection over `budget` gets
/// `refuse(stream, cap)` — one complete reply — and is closed.
///
/// # Errors
///
/// Fails only if the listener cannot be made non-blocking; accept errors
/// are retried.
pub fn accept_loop(
    listener: &TcpListener,
    thread_prefix: &str,
    budget: &Budget,
    accepting: &AtomicBool,
    stop: impl Fn() -> bool,
    refuse: impl Fn(&mut TcpStream, usize),
    session: impl Fn(TcpStream, SocketAddr) + Sync,
) -> std::io::Result<()> {
    // Non-blocking + poll rather than a blocking accept: the loop must
    // keep observing `stop` even when nobody ever connects again, and
    // must not depend on signals interrupting syscalls (glibc `signal`
    // restarts them).
    listener.set_nonblocking(true)?;
    // SeqCst: lifecycle flag, same ordering as its readers.
    accepting.store(true, Ordering::SeqCst);
    let session = &session;
    std::thread::scope(|scope| {
        let mut sessions: Vec<ScopedJoinHandle<'_, ()>> = Vec::new();
        while !stop() {
            match listener.accept() {
                Ok((mut stream, peer)) => {
                    // Undo inherited non-blocking mode before handing the
                    // stream to a session (inheritance is OS-dependent).
                    let _ = stream.set_nonblocking(false);
                    // Request/response exchanges, not bulk transfer:
                    // without NODELAY, Nagle + delayed ACK turns every
                    // round trip into a ~40 ms stall.
                    let _ = stream.set_nodelay(true);
                    let Some(slot) = budget.take() else {
                        refuse(&mut stream, budget.max);
                        continue;
                    };
                    let spawned = std::thread::Builder::new()
                        .name(format!("{thread_prefix}{peer}"))
                        .spawn_scoped(scope, move || {
                            let _slot = slot;
                            session(stream, peer);
                        });
                    match spawned {
                        Ok(handle) => {
                            // Relaxed: stats counter.
                            budget.accepted.fetch_add(1, Ordering::Relaxed);
                            sessions.push(handle);
                        }
                        // Thread exhaustion: shed the connection like the
                        // cap does (the unspawned closure dropped stream
                        // and slot). Relaxed: stats counter.
                        Err(_) => {
                            budget.rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    reap(&mut sessions);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                    reap(&mut sessions);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Transient resource pressure (EMFILE and friends): back
                // off rather than killing the tier.
                Err(_) => std::thread::sleep(POLL_INTERVAL),
            }
        }
        // Sessions poll the same predicate on every read tick, so they
        // end within one `POLL_INTERVAL` of their in-flight request.
        for session in sessions {
            let _ = session.join();
        }
    });
    Ok(())
}

/// Joins the sessions that have ended. Joined rather than dropped: the
/// scope re-raises a session's panic unless somebody collected it.
fn reap(sessions: &mut Vec<ScopedJoinHandle<'_, ()>>) {
    let mut ix = 0;
    while ix < sessions.len() {
        if sessions[ix].is_finished() {
            let _ = sessions.swap_remove(ix).join();
        } else {
            ix += 1;
        }
    }
}

/// The over-capacity refusal of a JSON-lines door: one `ok:false` line.
pub fn refuse_line(stream: &mut TcpStream, tier: &str, cap: usize) {
    let response = proto::error_response(&capacity_message(tier, cap));
    let _ = proto::write_line(stream, &mut String::new(), &response);
}

/// The over-capacity refusal of an HTTP door: one complete 503.
pub fn refuse_http(stream: &mut TcpStream, tier: &str, cap: usize) {
    let response =
        HttpResponse::json_error(503, "Service Unavailable", &capacity_message(tier, cap));
    let _ = write_response(stream, &response, false);
}

fn capacity_message(tier: &str, cap: usize) -> String {
    format!("{tier} at capacity ({cap} connections) — retry later")
}

// ---------------------------------------------------------------------
// Listener lifecycle
// ---------------------------------------------------------------------

/// A tier's listeners, bound but not yet accepting. The tier's `run`
/// takes them, so the ports close when its accept loops return.
pub struct Doors {
    /// The JSON-lines listener.
    pub lines: TcpListener,
    /// The HTTP/1.1 listener, when the tier has an HTTP door.
    pub http: Option<TcpListener>,
}

/// What a tier's handles, doors and port files share: the bound
/// addresses, the connection budget, the metrics registry, the drain
/// flag, and whether each accept loop is live. A tier keeps one in its
/// shared state and its handle derefs to it.
pub struct Lifecycle {
    tier: &'static str,
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    budget: Budget,
    metrics: Arc<MetricsRegistry>,
    shutdown: AtomicBool,
    lines_accepting: AtomicBool,
    http_accepting: AtomicBool,
}

impl Lifecycle {
    /// Binds the JSON-lines listener on `addr` and, when `http_addr` is
    /// given, the HTTP one, resolving ephemeral ports now. `tier` names
    /// the process in over-capacity refusals (`gateway`, `fleet`).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(
        tier: &'static str,
        addr: &str,
        http_addr: Option<&str>,
        max_connections: usize,
    ) -> std::io::Result<(Doors, Lifecycle)> {
        let lines = TcpListener::bind(addr)?;
        let http = http_addr.map(TcpListener::bind).transpose()?;
        let lifecycle = Lifecycle {
            tier,
            addr: lines.local_addr()?,
            http_addr: http.as_ref().map(TcpListener::local_addr).transpose()?,
            budget: Budget::new(max_connections),
            metrics: Arc::new(MetricsRegistry::new()),
            shutdown: AtomicBool::new(false),
            lines_accepting: AtomicBool::new(false),
            http_accepting: AtomicBool::new(false),
        };
        Ok((Doors { lines, http }, lifecycle))
    }

    /// The bound JSON-lines address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP address, when the tier has an HTTP door.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The tier's metrics registry: what `GET /metrics` renders, also
    /// renderable in-process (tests, embedding).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// The registry, borrowed: for the request path, which records into
    /// it without touching the `Arc`.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Starts a graceful drain: stop admitting, finish in-flight
    /// requests, exit the accept loops.
    pub fn shutdown(&self) {
        // SeqCst: pairs with the accept loops' drain checks.
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether [`Lifecycle::shutdown`] has been called.
    pub fn shutdown_requested(&self) -> bool {
        // SeqCst: the drain flag gates admission on every door; all
        // observers must agree on the flip order.
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Whether every door's accept loop is live. Until then the tier is
    /// *starting*: bound, but a connection could still sit unaccepted,
    /// so `/readyz` and the port files wait.
    pub fn accepting(&self) -> bool {
        // SeqCst: lifecycle flags, same ordering as the accept loops'
        // stores.
        self.lines_accepting.load(Ordering::SeqCst)
            && (self.http_addr.is_none() || self.http_accepting.load(Ordering::SeqCst))
    }

    /// Sessions currently open, across both doors.
    pub fn active_connections(&self) -> usize {
        self.budget.active()
    }

    /// The connection budget both doors draw on.
    pub(crate) fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Answers the probes and the scrape every HTTP door serves: `GET
    /// /healthz`; `GET /readyz`, a 503 `draining` once `draining()`
    /// holds and a 503 `starting` until every accept loop is live; and
    /// `GET /metrics` in Prometheus text. `None` for any other request.
    pub fn probe(
        &self,
        method: &str,
        path: &str,
        draining: impl Fn() -> bool,
    ) -> Option<HttpResponse> {
        let unavailable = |body| HttpResponse::text(503, "Service Unavailable", body);
        Some(match (method, path) {
            ("GET", "/healthz") => HttpResponse::text(200, "OK", "ok\n"),
            ("GET", "/readyz") if draining() => unavailable("draining\n"),
            ("GET", "/readyz") if !self.accepting() => unavailable("starting\n"),
            ("GET", "/readyz") => HttpResponse::text(200, "OK", "ready\n"),
            ("GET", "/metrics") => {
                let mut response = HttpResponse::text(200, "OK", &self.metrics.render());
                response.content_type = "text/plain; version=0.0.4; charset=utf-8";
                response
            }
            _ => return None,
        })
    }

    /// Runs the JSON-lines door's [`accept_loop`] until `stop()`. A
    /// connection over the budget gets one `ok:false` line.
    ///
    /// # Errors
    ///
    /// As [`accept_loop`].
    pub fn accept_lines(
        &self,
        listener: &TcpListener,
        thread_prefix: &str,
        stop: impl Fn() -> bool,
        session: impl Fn(TcpStream, SocketAddr) + Sync,
    ) -> std::io::Result<()> {
        let refuse = |stream: &mut TcpStream, cap| refuse_line(stream, self.tier, cap);
        let accepting = &self.lines_accepting;
        accept_loop(
            listener,
            thread_prefix,
            &self.budget,
            accepting,
            stop,
            refuse,
            session,
        )
    }

    /// Runs the HTTP door's [`accept_loop`] until `stop()`. A
    /// connection over the budget gets one complete 503.
    ///
    /// # Errors
    ///
    /// As [`accept_loop`].
    pub fn accept_http(
        &self,
        listener: &TcpListener,
        thread_prefix: &str,
        stop: impl Fn() -> bool,
        session: impl Fn(TcpStream, SocketAddr) + Sync,
    ) -> std::io::Result<()> {
        let refuse = |stream: &mut TcpStream, cap| refuse_http(stream, self.tier, cap);
        let accepting = &self.http_accepting;
        accept_loop(
            listener,
            thread_prefix,
            &self.budget,
            accepting,
            stop,
            refuse,
            session,
        )
    }
}

/// A tier running on a background thread (tests, benches, in-process
/// embedding); `H` is the tier's handle.
pub struct Spawned<H> {
    handle: H,
    join: JoinHandle<std::io::Result<()>>,
}

impl<H: Deref<Target = Lifecycle> + Clone> Spawned<H> {
    /// Runs `run`, the tier's accept loops, on a thread named `thread`.
    ///
    /// # Errors
    ///
    /// Fails if the thread cannot be spawned.
    pub fn start(
        thread: &str,
        handle: H,
        run: impl FnOnce() -> std::io::Result<()> + Send + 'static,
    ) -> std::io::Result<Spawned<H>> {
        let join = std::thread::Builder::new()
            .name(thread.to_string())
            .spawn(run)?;
        Ok(Spawned { handle, join })
    }

    /// The bound JSON-lines address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The bound HTTP address, when the tier has an HTTP door.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.handle.http_addr()
    }

    /// A control handle.
    pub fn handle(&self) -> H {
        self.handle.clone()
    }

    /// Drains the tier and waits for its accept loops, sessions and
    /// workers to finish.
    ///
    /// # Errors
    ///
    /// Propagates an accept-loop I/O failure.
    ///
    /// # Panics
    ///
    /// Panics if the accept-loop thread itself panicked.
    pub fn shutdown_and_join(self) -> std::io::Result<()> {
        self.handle.shutdown();
        let tier = self.handle.tier;
        self.join
            .join()
            .unwrap_or_else(|_| panic!("{tier} accept loop panicked"))
    }
}

/// The door flags the `gateway` and `fleet` binaries share: `--addr
/// HOST`, `--port N`, `--port-file PATH`, `--http-port N` and
/// `--http-port-file PATH`.
pub struct DoorFlags {
    host: String,
    port: u16,
    port_file: Option<PathBuf>,
    http_port: Option<u16>,
    http_port_file: Option<PathBuf>,
}

impl DoorFlags {
    /// No flags yet: host `127.0.0.1`, JSON-lines `port`, no HTTP door.
    pub fn new(port: u16) -> DoorFlags {
        DoorFlags {
            host: "127.0.0.1".to_string(),
            port,
            port_file: None,
            http_port: None,
            http_port_file: None,
        }
    }

    /// Reads `flag`'s value when it is a door flag; `false` otherwise.
    pub fn take(&mut self, flag: &str, flags: &mut Flags) -> bool {
        match flag {
            "--addr" => self.host = flags.value(),
            "--port" => self.port = flags.parse(flag),
            "--port-file" => self.port_file = Some(flags.path()),
            "--http-port" => self.http_port = Some(flags.parse(flag)),
            "--http-port-file" => self.http_port_file = Some(flags.path()),
            _ => return false,
        }
        true
    }

    /// The JSON-lines bind address.
    pub fn addr(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }

    /// The HTTP bind address, when `--http-port` was given.
    pub fn http_addr(&self) -> Option<String> {
        self.http_port.map(|port| format!("{}:{port}", self.host))
    }

    /// Writes each bound port to its file once every accept loop of the
    /// tier is live. A port file is a supervisor's "come probe me"
    /// signal, so it must not appear at bind time: a probe racing the
    /// accept loops could connect to a bound-but-not-accepting listener
    /// and hang. The writer is detached: if an accept loop never comes
    /// up the process is exiting anyway, and a drain must not wait on
    /// it. A failed write exits 1.
    pub fn write_port_files(&self, handle: impl Deref<Target = Lifecycle> + Send + 'static) {
        let files = [
            (self.port_file.clone(), Some(handle.addr()), "--port-file"),
            (
                self.http_port_file.clone(),
                handle.http_addr(),
                "--http-port-file",
            ),
        ];
        let _detached = std::thread::spawn(move || {
            while !handle.accepting() {
                std::thread::sleep(Duration::from_millis(2));
            }
            for (path, addr, flag) in files {
                if let (Some(path), Some(addr)) = (path, addr) {
                    if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
                        fail(format!("writing {flag} failed: {e}"));
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------

/// What a session does once a handler's reply has left the socket.
pub enum After<'a> {
    /// Read the next request.
    KeepGoing,
    /// Run this, then read the next request. For work that must never
    /// sit in front of the reply (the gateway's shadow mirroring).
    Then(Box<dyn FnOnce() + 'a>),
    /// Close the connection.
    Close,
}

/// Why a [`ReadClock`] read did not complete.
enum Ended {
    /// Nothing more will be served: the peer closed the connection, the
    /// tier's stop predicate fired, or the socket died.
    Closed,
    /// The buffer passed its byte cap before the line ended.
    TooLong,
    /// No progress for the idle timeout.
    Idle,
}

/// The clock and stop predicate every session read runs against. The
/// stream's read timeout is [`POLL_INTERVAL`], so each read below wakes
/// that often to look at both.
struct ReadClock<'a> {
    stop: &'a dyn Fn() -> bool,
    idle_timeout: Option<Duration>,
    last_progress: Instant,
}

impl ReadClock<'_> {
    /// Restarts the idle clock: a request finished, or bytes arrived.
    fn progress(&mut self) {
        self.last_progress = Instant::now();
    }

    /// Decides what a failed read means; `grew` says whether bytes
    /// trickled into the buffer before it failed.
    fn after_error(&mut self, error: &std::io::Error, grew: bool) -> Result<(), Ended> {
        match error.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                if grew {
                    self.progress();
                }
                match self.idle_timeout {
                    Some(idle) if self.last_progress.elapsed() > idle => Err(Ended::Idle),
                    _ => Ok(()),
                }
            }
            ErrorKind::Interrupted => Ok(()),
            _ => Err(Ended::Closed), // reset, broken pipe, …
        }
    }

    /// Appends to `buf` up to and including the next `\n`. `buf` never
    /// grows past `cap + 1` bytes: a client streaming an endless
    /// newline-free line hits the cap, not the heap.
    fn read_line(
        &mut self,
        reader: &mut impl BufRead,
        buf: &mut Vec<u8>,
        cap: usize,
    ) -> Result<(), Ended> {
        loop {
            if (self.stop)() {
                return Err(Ended::Closed);
            }
            let before = buf.len();
            let budget = (cap + 1).saturating_sub(before) as u64;
            match reader.by_ref().take(budget).read_until(b'\n', buf) {
                Ok(0) if buf.len() > cap => return Err(Ended::TooLong),
                Ok(0) => return Err(Ended::Closed),
                Ok(_) if buf.last() == Some(&b'\n') => {
                    self.progress();
                    return Ok(());
                }
                // Budget spent or EOF mid-line; the next pass says which.
                Ok(_) => {}
                Err(e) => self.after_error(&e, buf.len() > before)?,
            }
        }
    }

    /// Fills `buf` completely.
    fn read_exact(&mut self, reader: &mut impl BufRead, buf: &mut [u8]) -> Result<(), Ended> {
        let mut filled = 0;
        while filled < buf.len() {
            if (self.stop)() {
                return Err(Ended::Closed);
            }
            match reader.read(&mut buf[filled..]) {
                Ok(0) => return Err(Ended::Closed),
                Ok(n) => {
                    filled += n;
                    self.progress();
                }
                Err(e) => self.after_error(&e, false)?,
            }
        }
        Ok(())
    }
}

/// Serves one keep-alive JSON-lines connection: each request line
/// (handed over with its newline) goes to `handler`, whose reply leaves
/// in one write, until the client closes, `idle_timeout` passes without
/// progress, `stop()` fires between requests, or the handler says
/// [`After::Close`].
pub fn serve_lines<'a, R: Display>(
    stream: TcpStream,
    stop: &dyn Fn() -> bool,
    idle_timeout: Option<Duration>,
    mut handler: impl FnMut(&str) -> (R, After<'a>),
) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    let mut clock = ReadClock {
        stop,
        idle_timeout,
        last_progress: Instant::now(),
    };
    let mut line_buf: Vec<u8> = Vec::new();
    // Every reply is formatted here first, then leaves in one write.
    let mut reply = String::new();
    loop {
        match clock.read_line(&mut reader, &mut line_buf, MAX_LINE_BYTES) {
            Ok(()) => {}
            Err(Ended::TooLong) => {
                let response = proto::error_response("request line exceeds 8 MiB");
                let _ = proto::write_line(&mut writer, &mut reply, &response);
                return;
            }
            // Closed (an abandoned partial request is dropped, not
            // served) or idle.
            Err(_) => return,
        }
        if line_buf.iter().all(u8::is_ascii_whitespace) {
            line_buf.clear();
            continue;
        }
        let (sent, after) = match std::str::from_utf8(&line_buf) {
            Ok(line) => {
                let (response, after) = handler(line);
                (proto::write_line(&mut writer, &mut reply, &response), after)
            }
            Err(_) => {
                let response = proto::error_response("request line is not valid UTF-8");
                let sent = proto::write_line(&mut writer, &mut reply, &response);
                (sent, After::KeepGoing)
            }
        };
        if sent.is_err() {
            return; // client went away while we were answering
        }
        line_buf.clear();
        line_buf.shrink_to(KEEP_BUFFER_BYTES);
        clock.progress();
        match after {
            After::KeepGoing => {}
            After::Then(job) => job(),
            After::Close => return,
        }
    }
}

/// One parsed HTTP request.
pub struct HttpRequest {
    /// The request method, as sent.
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// Headers in arrival order: lower-cased name, trimmed value.
    pub headers: Vec<(String, String)>,
    /// The body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A header value by lower-cased name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close after this response.
    fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.to_ascii_lowercase().contains("close"))
    }
}

/// One HTTP response, ready to serialize.
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Echoed as `X-Request-Id` (scored endpoints only).
    pub request_id: Option<String>,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Stream the body with chunked transfer-encoding instead of
    /// `Content-Length` (rank responses, unbounded in K).
    pub chunked: bool,
}

impl HttpResponse {
    fn new(
        status: u16,
        reason: &'static str,
        content_type: &'static str,
        body: Vec<u8>,
    ) -> HttpResponse {
        HttpResponse {
            status,
            reason,
            content_type,
            request_id: None,
            body,
            chunked: false,
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, reason: &'static str, body: &str) -> HttpResponse {
        let content_type = "text/plain; charset=utf-8";
        HttpResponse::new(status, reason, content_type, body.as_bytes().to_vec())
    }

    /// A JSON error body in the wire protocol's `ok:false` shape.
    pub fn json_error(status: u16, reason: &'static str, message: &str) -> HttpResponse {
        HttpResponse::json(status, reason, &proto::error_response(message))
    }

    /// An `application/json` response whose body is `value` and the
    /// protocol line's newline — the same bytes the JSON-lines door
    /// writes for it.
    pub fn json(status: u16, reason: &'static str, value: &impl Display) -> HttpResponse {
        let mut body = value.to_string().into_bytes();
        body.push(b'\n');
        HttpResponse::new(status, reason, "application/json", body)
    }
}

/// Serves one keep-alive HTTP/1.1 connection: each request goes to
/// `handler`, whose response leaves in one write, until the client
/// closes or asks to (`Connection: close`), `idle_timeout` passes
/// without progress, `stop()` fires, or the handler says
/// [`After::Close`]. A request that breaks the framing rules is answered
/// by the core itself and ends the connection; its status is returned so
/// the tier can count it.
pub fn serve_http<'a>(
    stream: TcpStream,
    stop: &dyn Fn() -> bool,
    idle_timeout: Option<Duration>,
    mut handler: impl FnMut(&HttpRequest) -> (HttpResponse, After<'a>),
) -> Option<u16> {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return None;
    }
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    let mut clock = ReadClock {
        stop,
        idle_timeout,
        last_progress: Instant::now(),
    };
    // Owned by the connection, not the request: a keep-alive client's
    // head and body land in the same two allocations every time.
    let mut head: Vec<u8> = Vec::new();
    let mut body: Vec<u8> = Vec::new();
    loop {
        let taken = std::mem::take(&mut body);
        let request = match read_request(&mut reader, &mut writer, &mut clock, &mut head, taken) {
            Ok(request) => request,
            Err(None) => return None,
            Err(Some(failure)) => {
                // Framing is unrecoverable after a malformed head; answer
                // once and close.
                let _ = write_response(&mut writer, &failure, false);
                return Some(failure.status);
            }
        };
        // A stop seen here closes after the reply.
        let close = stop() || request.wants_close();
        let (response, after) = handler(&request);
        let close = close || matches!(after, After::Close);
        if write_response(&mut writer, &response, !close).is_err() {
            return None;
        }
        if let After::Then(job) = after {
            job();
        }
        if close {
            return None;
        }
        body = request.body;
        body.shrink_to(KEEP_BUFFER_BYTES);
    }
}

/// Reads one full request (head into `head`, body into `body`, which the
/// request takes over). `Err(None)` closes quietly — EOF, stop, idle at
/// a request boundary, dead socket; `Err(Some(response))` is a protocol
/// violation to answer before closing. `writer` is only used for
/// `Expect: 100-continue`.
fn read_request(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    clock: &mut ReadClock<'_>,
    head: &mut Vec<u8>,
    mut body: Vec<u8>,
) -> Result<HttpRequest, Option<HttpResponse>> {
    let fail =
        |status, reason, message: &str| Some(HttpResponse::json_error(status, reason, message));
    head.clear();
    body.clear();
    clock.progress();
    // Head: accumulate lines until the blank terminator line.
    while !(head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n")) {
        match clock.read_line(reader, head, MAX_HEAD_BYTES) {
            Ok(()) => {}
            Err(Ended::TooLong) => {
                return Err(fail(
                    431,
                    "Request Header Fields Too Large",
                    &format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                ))
            }
            // Idle between requests closes quietly; a stalled half-sent
            // head (slowloris) gets a 408.
            Err(Ended::Idle) if !head.is_empty() => {
                return Err(fail(408, "Request Timeout", "timed out mid-request"))
            }
            Err(_) => return Err(None),
        }
    }

    let (method, path, headers) =
        parse_head(head).map_err(|message| fail(400, "Bad Request", &message))?;
    let mut request = HttpRequest {
        method,
        path,
        headers,
        body,
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(fail(
            501,
            "Not Implemented",
            "chunked request bodies are not supported — send Content-Length",
        ));
    }
    let content_length = match request.header("content-length") {
        None => 0usize,
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|_| fail(400, "Bad Request", &format!("invalid Content-Length {v:?}")))?,
    };
    if content_length > MAX_LINE_BYTES {
        return Err(fail(
            413,
            "Content Too Large",
            &format!("request body exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    if content_length == 0 {
        return Ok(request);
    }
    // curl sends Expect: 100-continue for large bodies and waits for the
    // go-ahead before transmitting them.
    if request
        .header("expect")
        .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
        && writer
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| writer.flush())
            .is_err()
    {
        return Err(None);
    }

    request.body.resize(content_length, 0);
    clock.progress();
    match clock.read_exact(reader, &mut request.body) {
        Ok(()) => Ok(request),
        Err(Ended::Idle) => Err(fail(408, "Request Timeout", "timed out mid-body")),
        Err(_) => Err(None), // truncated body, stop, dead socket
    }
}

/// (method, path, headers) from a parsed request head.
type ParsedHead = (String, String, Vec<(String, String)>);

/// Parses the request line and headers. Header names are lower-cased;
/// values are trimmed.
fn parse_head(head: &[u8]) -> Result<ParsedHead, String> {
    let text = std::str::from_utf8(head).map_err(|_| "request head is not valid UTF-8")?;
    let mut lines = text
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        // Tolerate stray blank lines before the request line (RFC 9112
        // §2.2); the terminator's blank line lands here too.
        .filter(|l| !l.is_empty());
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(format!("malformed request line {request_line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol version {version:?}"));
    }
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method.to_string(), path.to_string(), headers))
}

/// Serializes one response — head, body and, for a chunked one, the
/// chunk framing — into one buffer and sends it in a single `write_all`
/// (one segment per reply under `TCP_NODELAY`, not one per part);
/// `keep_alive` decides the `Connection` header.
fn write_response<W: Write>(
    w: &mut W,
    resp: &HttpResponse,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out: Vec<u8> = Vec::with_capacity(256 + resp.body.len());
    write!(out, "HTTP/1.1 {} {}\r\n", resp.status, resp.reason)?;
    write!(out, "Content-Type: {}\r\n", resp.content_type)?;
    if let Some(id) = &resp.request_id {
        write!(out, "X-Request-Id: {id}\r\n")?;
    }
    let connection: &[u8] = if keep_alive {
        b"Connection: keep-alive\r\n"
    } else {
        b"Connection: close\r\n"
    };
    out.extend_from_slice(connection);
    if resp.chunked {
        out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
        for chunk in resp.body.chunks(CHUNK_BYTES) {
            write!(out, "{:x}\r\n", chunk.len())?;
            out.extend_from_slice(chunk);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"0\r\n\r\n");
    } else {
        write!(out, "Content-Length: {}\r\n\r\n", resp.body.len())?;
        out.extend_from_slice(&resp.body);
    }
    w.write_all(&out)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_head_splits_request_line_and_headers() {
        let head = b"POST /v1/compare HTTP/1.1\r\nHost: x\r\nX-Request-Id: abc\r\n\r\n";
        let (method, path, headers) = parse_head(head).unwrap();
        assert_eq!(method, "POST");
        assert_eq!(path, "/v1/compare");
        assert_eq!(
            headers,
            vec![
                ("host".to_string(), "x".to_string()),
                ("x-request-id".to_string(), "abc".to_string()),
            ]
        );
    }

    #[test]
    fn parse_head_tolerates_bare_lf_and_leading_blank_lines() {
        let (method, path, headers) =
            parse_head(b"\r\nGET /metrics HTTP/1.0\nAccept: */*\n\n").unwrap();
        assert_eq!(method, "GET");
        assert_eq!(path, "/metrics");
        assert_eq!(headers, vec![("accept".to_string(), "*/*".to_string())]);
    }

    #[test]
    fn parse_head_rejects_garbage() {
        assert!(parse_head(b"NOT-HTTP\r\n\r\n").is_err());
        assert!(parse_head(b"GET /x SPDY/3\r\n\r\n").is_err());
        assert!(parse_head(b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n").is_err());
    }

    /// Counts `write` calls: each is a `write(2)` on a socket, and a
    /// segment of its own under `TCP_NODELAY`.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn plain_and_chunked_responses_leave_in_one_write() {
        let mut resp = HttpResponse::json(200, "OK", &Json::obj(vec![("ok", Json::Bool(true))]));
        resp.request_id = Some("req-7".to_string());
        let mut socket = CountingWriter::default();
        write_response(&mut socket, &resp, true).unwrap();
        assert_eq!(socket.writes, 1);
        assert_eq!(
            String::from_utf8(socket.bytes).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Request-Id: req-7\r\n\
             Connection: keep-alive\r\nContent-Length: 12\r\n\r\n{\"ok\":true}\n"
        );

        // A rank-sized body spanning three chunks, framing included.
        resp.body = vec![b'x'; 2 * CHUNK_BYTES + 5];
        resp.chunked = true;
        let mut socket = CountingWriter::default();
        write_response(&mut socket, &resp, false).unwrap();
        assert_eq!(socket.writes, 1);
        let text = String::from_utf8(socket.bytes).unwrap();
        let (head, framed) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.ends_with("Connection: close\r\nTransfer-Encoding: chunked"));
        assert!(!head.contains("Content-Length"));
        let full = format!("2000\r\n{}\r\n", "x".repeat(CHUNK_BYTES));
        assert_eq!(framed, format!("{full}{full}5\r\nxxxxx\r\n0\r\n\r\n"));
    }
}
