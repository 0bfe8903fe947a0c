//! The HTTP/1.1 front door: health probes, Prometheus scrapes, and the
//! scored verbs over plain HTTP — hand-rolled on `std::net`, no
//! dependencies.
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness: 200 whenever the process can answer;
//! * `GET /readyz` — readiness: 200 while admitting, **503 `starting`
//!   until every configured accept loop is live**, **503 once a drain
//!   begins** (and for [`GatewayConfig::drain_grace`](crate::GatewayConfig)
//!   after the TCP loop exits, so load balancers observe the flip before
//!   the socket disappears);
//! * `GET /metrics` — the unified registry in Prometheus text
//!   exposition format 0.0.4;
//! * `POST /v1/compare`, `POST /v1/rank` — the scored verbs. The JSON
//!   body is the same object the JSON-lines protocol takes (the `op`
//!   field is implied by the path), and the response body is the same
//!   object the TCP transport writes — both transports funnel through
//!   [`serve_scored`], which is what makes them bit-identical. Rank
//!   responses (unbounded in K) stream with chunked transfer-encoding;
//! * `GET /v1/stats`, `GET /v1/routes` — the `stats`/`routes` verbs for
//!   humans with `curl` but no JSON-lines client.
//!
//! Per-request tracing: a client-provided `X-Request-Id` (or, failing
//! that, a `"request_id"` body field, or a generated ID) is threaded
//! through [`serve_scored`] into the trace sink and echoed back as a
//! response header — never in the body, which must stay bit-identical
//! across transports and across clients that did not send an ID.
//!
//! Connections are keep-alive by default (`Connection: close` honoured);
//! request heads are capped at 16 KiB and bodies at
//! [`MAX_LINE_BYTES`], the same budget as a JSON-lines request line. The
//! accept loop runs on its own thread so probes and scrapes never queue
//! behind JSON-lines sessions, and it shares the TCP transport's
//! connection cap, so the two front doors cannot over-subscribe the
//! process together.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ccsa_serve::json::Json;
use ccsa_serve::proto::{self, Request};
use ccsa_serve::ModelSelector;

use crate::server::{
    enqueue_shadow, gateway_stats_response, routes_response, serve_scored, AfterResponse, Shared,
    MAX_LINE_BYTES,
};
use crate::trace::generate_request_id;

/// Request-head budget (request line + headers). Heads are small by
/// construction; 16 KiB leaves room for generous tracing headers while
/// keeping a hostile header stream from ballooning memory.
const MAX_HEAD_BYTES: usize = 16 << 10;

/// Response chunk size for chunked transfer-encoding (rank responses).
const CHUNK_BYTES: usize = 8 << 10;

const HTTP_REQUESTS_HELP: &str = "HTTP front-door requests, by path and status code.";

/// One parsed request.
struct HttpRequest {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpRequest {
    /// A header value by lower-cased name.
    fn header(&self, name: &str) -> Option<&str> {
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

/// One response, ready to serialize.
struct HttpResponse {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    /// Echoed as `X-Request-Id` (scored endpoints only).
    request_id: Option<String>,
    body: Vec<u8>,
    /// Stream the body with chunked transfer-encoding instead of
    /// `Content-Length` (rank responses, unbounded in K).
    chunked: bool,
}

impl HttpResponse {
    fn text(status: u16, reason: &'static str, body: &str) -> HttpResponse {
        HttpResponse {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            request_id: None,
            body: body.as_bytes().to_vec(),
            chunked: false,
        }
    }

    /// A JSON error body in the wire protocol's `ok:false` shape.
    fn json_error(status: u16, reason: &'static str, message: &str) -> HttpResponse {
        HttpResponse::json(status, reason, &proto::error_response(message))
    }

    fn json(status: u16, reason: &'static str, value: &Json) -> HttpResponse {
        let mut body = value.to_string().into_bytes();
        body.push(b'\n');
        HttpResponse {
            status,
            reason,
            content_type: "application/json",
            request_id: None,
            body,
            chunked: false,
        }
    }
}

/// The HTTP accept loop. Runs until [`Shared::http_stop`] — which the
/// TCP side sets only after `drain_grace` has elapsed, so `/readyz` can
/// be observed returning 503 before this socket goes away.
pub(crate) fn run_http_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    // The loop below now owns the socket and will accept: open the
    // readiness/port-file gate (see `Shared::accepting`). SeqCst, like
    // every lifecycle flag on this server.
    shared.http_accepting.store(true, Ordering::SeqCst);
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    // SeqCst: lifecycle flag, pairs with the shutdown path's store.
    while !shared.http_stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                // One cap across both front doors: HTTP connections and
                // TCP sessions draw from the same budget. SeqCst: the
                // admission gauge; Relaxed: the shed stats counter.
                if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    refuse_http(stream, shared.config.max_connections);
                    continue;
                }
                shared.active.fetch_add(1, Ordering::SeqCst); // SeqCst: take the slot
                let conn_shared = Arc::clone(shared);
                let worker = std::thread::Builder::new()
                    .name(format!("ccsa-http-{peer}"))
                    .spawn(move || {
                        struct Slot<'a>(&'a std::sync::atomic::AtomicUsize);
                        impl Drop for Slot<'_> {
                            fn drop(&mut self) {
                                // SeqCst: release the admission slot.
                                self.0.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                        let _slot = Slot(&conn_shared.active);
                        serve_http_connection(&conn_shared, stream, peer);
                    });
                match worker {
                    Ok(handle) => {
                        // Relaxed: stats counter.
                        shared.accepted.fetch_add(1, Ordering::Relaxed);
                        workers.push(handle);
                    }
                    Err(_) => {
                        // SeqCst: spawn failed — give the slot back;
                        // Relaxed: the shed stats counter.
                        shared.active.fetch_sub(1, Ordering::SeqCst);
                        shared.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
                workers.retain(|w| !w.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.poll_interval);
                workers.retain(|w| !w.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(shared.config.poll_interval),
        }
    }
    // Connection threads poll the same flag between requests (and on
    // every read timeout), so they exit promptly.
    for worker in workers {
        let _ = worker.join();
    }
}

/// Refuses an over-cap connection with one complete 503 response.
fn refuse_http(mut stream: TcpStream, cap: usize) {
    let resp = HttpResponse::json_error(
        503,
        "Service Unavailable",
        &format!("gateway at capacity ({cap} connections) — retry later"),
    );
    let _ = write_response(&mut stream, &resp, false);
}

fn serve_http_connection(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    if stream
        .set_read_timeout(Some(shared.config.poll_interval))
        .is_err()
    {
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = stream;
    // The sticky-routing fallback, as on TCP: the peer host.
    let fallback_key = peer.ip().to_string();
    let mut seq: u64 = 0;
    loop {
        // SeqCst: lifecycle flag, checked between requests.
        if shared.http_stop.load(Ordering::SeqCst) {
            return; // between requests, never mid-request
        }
        let request = match read_request(shared, &mut reader, &mut writer) {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => return,
            ReadOutcome::Fail(status, reason, message) => {
                // Framing is unrecoverable after a malformed head; answer
                // once and close.
                record_http(shared, "other", status);
                let resp = HttpResponse::json_error(status, reason, &message);
                let _ = write_response(&mut writer, &resp, false);
                return;
            }
        };
        // SeqCst: lifecycle flag — a stop seen here closes after reply.
        let close = shared.http_stop.load(Ordering::SeqCst) || request.wants_close();
        let (response, shadow) = handle_request(shared, &request, &fallback_key, seq);
        seq += 1;
        record_http(shared, path_label(&request.path), response.status);
        if write_response(&mut writer, &response, !close).is_err() {
            return;
        }
        // Mirror only after the client has its answer: shadow cost must
        // never sit in front of the response.
        if let Some((selector, scored)) = shadow {
            enqueue_shadow(shared, selector, scored);
        }
        if close {
            return;
        }
    }
}

/// How reading one request ended.
enum ReadOutcome {
    Request(HttpRequest),
    /// EOF, idle timeout at a request boundary, or stop flag.
    Closed,
    /// Protocol violation: (status, reason, message). Connection closes
    /// after the error response.
    Fail(u16, &'static str, String),
}

/// Reads one full request (head + body), polling the stop flag on every
/// read timeout. `writer` is only used for `Expect: 100-continue`.
fn read_request(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) -> ReadOutcome {
    let mut head: Vec<u8> = Vec::new();
    let mut last_progress = Instant::now();
    // Head: accumulate lines until the blank terminator line.
    loop {
        // SeqCst: lifecycle flag.
        if shared.http_stop.load(Ordering::SeqCst) {
            return ReadOutcome::Closed;
        }
        let budget = (MAX_HEAD_BYTES + 1).saturating_sub(head.len()) as u64;
        let before = head.len();
        match reader.by_ref().take(budget).read_until(b'\n', &mut head) {
            Ok(0) if head.len() > MAX_HEAD_BYTES => {
                return ReadOutcome::Fail(
                    431,
                    "Request Header Fields Too Large",
                    format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                );
            }
            Ok(0) => return ReadOutcome::Closed, // EOF (maybe mid-head)
            Ok(_) => {
                last_progress = Instant::now();
                if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if head.len() > before {
                    last_progress = Instant::now();
                }
                if let Some(idle) = shared.config.idle_timeout {
                    if last_progress.elapsed() > idle {
                        // Idle between requests closes quietly; a stalled
                        // half-sent head (slowloris) gets a 408.
                        return if head.is_empty() {
                            ReadOutcome::Closed
                        } else {
                            ReadOutcome::Fail(
                                408,
                                "Request Timeout",
                                "timed out mid-request".to_string(),
                            )
                        };
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }

    let (method, path, headers) = match parse_head(&head) {
        Ok(parts) => parts,
        Err(message) => return ReadOutcome::Fail(400, "Bad Request", message),
    };
    let request = HttpRequest {
        method,
        path,
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return ReadOutcome::Fail(
            501,
            "Not Implemented",
            "chunked request bodies are not supported — send Content-Length".to_string(),
        );
    }
    let content_length = match request.header("content-length") {
        None => 0usize,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return ReadOutcome::Fail(
                    400,
                    "Bad Request",
                    format!("invalid Content-Length {v:?}"),
                )
            }
        },
    };
    if content_length > MAX_LINE_BYTES {
        return ReadOutcome::Fail(
            413,
            "Content Too Large",
            format!("request body exceeds {MAX_LINE_BYTES} bytes"),
        );
    }
    if content_length == 0 {
        return ReadOutcome::Request(request);
    }
    // curl sends Expect: 100-continue for large bodies and waits for the
    // go-ahead before transmitting them.
    if request
        .header("expect")
        .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
        && write_all_flushed(writer, b"HTTP/1.1 100 Continue\r\n\r\n").is_err()
    {
        return ReadOutcome::Closed;
    }

    let mut request = request;
    request.body = vec![0u8; content_length];
    let mut filled = 0usize;
    let mut last_progress = Instant::now();
    while filled < content_length {
        // SeqCst: lifecycle flag.
        if shared.http_stop.load(Ordering::SeqCst) {
            return ReadOutcome::Closed;
        }
        match reader.read(&mut request.body[filled..]) {
            Ok(0) => return ReadOutcome::Closed, // truncated body
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if let Some(idle) = shared.config.idle_timeout {
                    if last_progress.elapsed() > idle {
                        return ReadOutcome::Fail(
                            408,
                            "Request Timeout",
                            "timed out mid-body".to_string(),
                        );
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
    ReadOutcome::Request(request)
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

/// Routes one request, returning the response plus any shadow mirror to
/// enqueue after it is written.
fn handle_request(
    shared: &Shared,
    request: &HttpRequest,
    fallback_key: &str,
    seq: u64,
) -> (HttpResponse, Option<(ModelSelector, Request)>) {
    // Probes and scrapes routinely carry query strings (`?verbose=1`);
    // routing ignores them.
    let path = request.path.split('?').next().unwrap_or("");
    let plain = |resp: HttpResponse| (resp, None);
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => plain(HttpResponse::text(200, "OK", "ok\n")),
        ("GET", "/readyz") => {
            if shared.draining() {
                plain(HttpResponse::text(503, "Service Unavailable", "draining\n"))
            } else if !shared.accepting() {
                // Bound but an accept loop is not live yet: a connection
                // could still sit unaccepted, so readiness waits.
                plain(HttpResponse::text(503, "Service Unavailable", "starting\n"))
            } else {
                plain(HttpResponse::text(200, "OK", "ready\n"))
            }
        }
        ("GET", "/metrics") => {
            let mut resp = HttpResponse::text(200, "OK", &shared.metrics.render());
            resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
            plain(resp)
        }
        ("GET", "/v1/stats") => plain(HttpResponse::json(
            200,
            "OK",
            &gateway_stats_response(shared),
        )),
        ("GET", "/v1/routes") => plain(HttpResponse::json(200, "OK", &routes_response(shared))),
        ("POST", "/v1/compare") => serve_http_scored(shared, request, "compare", fallback_key, seq),
        ("POST", "/v1/rank") => serve_http_scored(shared, request, "rank", fallback_key, seq),
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/stats" | "/v1/routes" | "/v1/compare"
            | "/v1/rank",
        ) => plain(HttpResponse::json_error(
            405,
            "Method Not Allowed",
            &format!("{} is not supported on {path}", request.method),
        )),
        _ => plain(HttpResponse::json_error(
            404,
            "Not Found",
            &format!("no such endpoint {path:?}"),
        )),
    }
}

/// Serves `POST /v1/compare` / `POST /v1/rank` through the same
/// [`serve_scored`] path as the TCP transport.
fn serve_http_scored(
    shared: &Shared,
    request: &HttpRequest,
    verb: &'static str,
    fallback_key: &str,
    seq: u64,
) -> (HttpResponse, Option<(ModelSelector, Request)>) {
    // Scored traffic is refused the moment a drain begins — only the
    // probes and /metrics stay up through the grace window, precisely so
    // balancers can watch readiness flip while no new work is admitted.
    if shared.draining() {
        let mut response = proto::error_response("gateway is draining — retry elsewhere");
        if let Json::Obj(members) = &mut response {
            members.push(("draining".to_string(), Json::Bool(true)));
        }
        return (
            HttpResponse::json(503, "Service Unavailable", &response),
            None,
        );
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            return (
                HttpResponse::json_error(400, "Bad Request", "request body is not valid UTF-8"),
                None,
            )
        }
    };
    let mut value = match ccsa_serve::json::parse(body) {
        Ok(v) => v,
        Err(e) => {
            return (
                HttpResponse::json_error(400, "Bad Request", &e.to_string()),
                None,
            )
        }
    };
    // The path *is* the op; a body may repeat it (so one payload can be
    // replayed over either transport verbatim) but must not contradict
    // it.
    match value.get("op").and_then(Json::as_str) {
        None if value.get("op").is_none() => {
            if let Json::Obj(members) = &mut value {
                members.push(("op".to_string(), Json::str(verb)));
            }
        }
        Some(op) if op == verb => {}
        other => {
            return (
                HttpResponse::json_error(
                    400,
                    "Bad Request",
                    &format!("body op {other:?} does not match endpoint /v1/{verb}"),
                ),
                None,
            )
        }
    }
    let client_key = value
        .get("client")
        .and_then(Json::as_str)
        .unwrap_or(fallback_key)
        .to_string();
    // Trace identity: header beats body beats generated. The ID is
    // echoed as a header, never placed in the body — response bodies
    // must stay bit-identical to the TCP transport's.
    let request_id = request
        .header("x-request-id")
        .map(str::to_string)
        .or_else(|| {
            value
                .get("request_id")
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(generate_request_id);
    let scored = match proto::parse_request_value(value) {
        Ok(r) => r,
        Err(message) => {
            let mut resp = HttpResponse::json_error(400, "Bad Request", &message);
            resp.request_id = Some(request_id);
            return (resp, None);
        }
    };
    let (response, after) = serve_scored(shared, scored, &client_key, seq, &request_id, "http");
    let (status, reason) = scored_status(&response);
    let mut resp = HttpResponse::json(status, reason, &response);
    resp.request_id = Some(request_id);
    // Rank responses grow with K; stream them so the transport never
    // needs the length up front.
    resp.chunked = verb == "rank";
    let shadow = match after {
        AfterResponse::Shadow(selector, scored) => Some((selector, scored)),
        _ => None,
    };
    (resp, shadow)
}

/// Maps a scored-verb JSON response onto an HTTP status, so plain HTTP
/// clients can branch without parsing the body.
fn scored_status(response: &Json) -> (u16, &'static str) {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        (200, "OK")
    } else if response.get("rate_limited").and_then(Json::as_bool) == Some(true) {
        (429, "Too Many Requests")
    } else if response.get("shed").and_then(Json::as_bool) == Some(true) {
        (503, "Service Unavailable")
    } else {
        (400, "Bad Request")
    }
}

/// The bounded-cardinality `path` label for `ccsa_http_requests_total`:
/// known endpoints keep their path, everything else is `other`.
fn path_label(path: &str) -> &'static str {
    match path.split('?').next().unwrap_or("") {
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/metrics" => "/metrics",
        "/v1/compare" => "/v1/compare",
        "/v1/rank" => "/v1/rank",
        "/v1/stats" => "/v1/stats",
        "/v1/routes" => "/v1/routes",
        _ => "other",
    }
}

/// Bumps `ccsa_http_requests_total{path,code}`. Looked up per response,
/// and `/v1/compare` makes that the hot path: after first creation it is
/// a read-lock, a borrowed label comparison and a `fetch_add`, with no
/// allocation (the code is rendered into a stack buffer).
fn record_http(shared: &Shared, path: &'static str, status: u16) {
    let digits = [
        b'0' + (status / 100 % 10) as u8,
        b'0' + (status / 10 % 10) as u8,
        b'0' + (status % 10) as u8,
    ];
    // Three ASCII digits; every status this server sends has three.
    let code = std::str::from_utf8(&digits).unwrap_or("000");
    shared
        .metrics
        .counter(
            "ccsa_http_requests_total",
            HTTP_REQUESTS_HELP,
            &[("path", path), ("code", code)],
        )
        .inc();
}

fn write_all_flushed(w: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    w.write_all(bytes)?;
    w.flush()
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

    #[test]
    fn scored_status_maps_outcomes() {
        let ok = Json::obj(vec![("ok", Json::Bool(true))]);
        assert_eq!(scored_status(&ok).0, 200);
        let limited = Json::obj(vec![
            ("ok", Json::Bool(false)),
            ("rate_limited", Json::Bool(true)),
        ]);
        assert_eq!(scored_status(&limited).0, 429);
        let shed = Json::obj(vec![("ok", Json::Bool(false)), ("shed", Json::Bool(true))]);
        assert_eq!(scored_status(&shed).0, 503);
        let failed = Json::obj(vec![("ok", Json::Bool(false))]);
        assert_eq!(scored_status(&failed).0, 400);
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

    #[test]
    fn path_labels_are_bounded() {
        assert_eq!(path_label("/metrics"), "/metrics");
        assert_eq!(path_label("/metrics?debug=1"), "/metrics");
        assert_eq!(path_label("/v1/compare"), "/v1/compare");
        assert_eq!(path_label("/admin/../secret"), "other");
        assert_eq!(path_label(""), "other");
    }
}
