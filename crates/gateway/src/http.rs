//! The HTTP/1.1 front door's routes: health probes, Prometheus scrapes,
//! and the scored verbs over plain HTTP.
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
//! This module is routing only. Framing — keep-alive, the head and body
//! caps, `Expect: 100-continue`, the 4xx answers to malformed requests,
//! response serialization, and the three probes
//! ([`Lifecycle::probe`](crate::transport::Lifecycle::probe), shared with
//! the fleet) — lives in [`crate::transport`], which calls
//! `handle_request` once per request; the accept loop runs on its own
//! thread so probes and scrapes never queue behind JSON-lines sessions,
//! and draws on the same connection budget as the JSON-lines door.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;

use ccsa_serve::json::Json;
use ccsa_serve::proto;

use crate::server::{gateway_stats_response, routes_response, serve_scored, Shared};
use crate::trace::generate_request_id;
use crate::transport::{self, After, HttpRequest, HttpResponse};

const HTTP_REQUESTS_HELP: &str = "HTTP front-door requests, by path and status code.";

/// One keep-alive HTTP connection: the transport core frames,
/// [`handle_request`] answers, and every response is counted.
pub(crate) fn serve_connection(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    // The sticky-routing fallback, as on TCP: the peer host.
    let fallback_key = peer.ip().to_string();
    let mut seq: u64 = 0;
    let failed = transport::serve_http(
        stream,
        // SeqCst: lifecycle flag, pairs with the store in `Gateway::run`.
        &|| shared.http_stop.load(Ordering::SeqCst),
        shared.config.idle_timeout,
        |request| {
            let answer = handle_request(shared, request, &fallback_key, seq);
            seq += 1;
            record_http(shared, path_label(&request.path), answer.0.status);
            answer
        },
    );
    if let Some(status) = failed {
        record_http(shared, "other", status);
    }
}

/// Routes one request, returning the response plus what to do once it
/// is written (the shadow mirror, for a scored verb).
fn handle_request<'a>(
    shared: &'a Shared,
    request: &HttpRequest,
    fallback_key: &str,
    seq: u64,
) -> (HttpResponse, After<'a>) {
    // Probes and scrapes routinely carry query strings (`?verbose=1`);
    // routing ignores them.
    let path = request.path.split('?').next().unwrap_or("");
    let plain = |resp: HttpResponse| (resp, After::KeepGoing);
    if let Some(probe) = shared
        .life
        .probe(&request.method, path, || shared.draining())
    {
        return plain(probe);
    }
    match (request.method.as_str(), path) {
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
fn serve_http_scored<'a>(
    shared: &'a Shared,
    request: &HttpRequest,
    verb: &'static str,
    fallback_key: &str,
    seq: u64,
) -> (HttpResponse, After<'a>) {
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
            After::KeepGoing,
        );
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            return (
                HttpResponse::json_error(400, "Bad Request", "request body is not valid UTF-8"),
                After::KeepGoing,
            )
        }
    };
    let mut value = match ccsa_serve::json::parse(body) {
        Ok(v) => v,
        Err(e) => {
            return (
                HttpResponse::json_error(400, "Bad Request", &e.to_string()),
                After::KeepGoing,
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
                After::KeepGoing,
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
            return (resp, After::KeepGoing);
        }
    };
    let (response, after) = serve_scored(shared, scored, &client_key, seq, &request_id, "http");
    let (status, reason) = scored_status(&response);
    let mut resp = HttpResponse::json(status, reason, &response);
    resp.request_id = Some(request_id);
    // Rank responses grow with K; stream them so the transport never
    // needs the length up front.
    resp.chunked = verb == "rank";
    (resp, after)
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
        .life
        .registry()
        .counter(
            "ccsa_http_requests_total",
            HTTP_REQUESTS_HELP,
            &[("path", path), ("code", code)],
        )
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn path_labels_are_bounded() {
        assert_eq!(path_label("/metrics"), "/metrics");
        assert_eq!(path_label("/metrics?debug=1"), "/metrics");
        assert_eq!(path_label("/v1/compare"), "/v1/compare");
        assert_eq!(path_label("/admin/../secret"), "other");
        assert_eq!(path_label(""), "other");
    }
}
