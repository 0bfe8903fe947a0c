//! End-to-end gateway tests: real sockets, concurrent clients, routing,
//! shadow traffic, disconnects, admission control, and graceful drain.
//!
//! The load-bearing invariant throughout: the TCP/routing layer is
//! **score-preserving** — every probability a client reads over the wire
//! is bit-identical to what the in-process [`ServeEngine`] produces for
//! the same (model, version) selector.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ccsa_gateway::{
    signal, Gateway, GatewayClient, GatewayConfig, HttpGatewayClient, Route, Router, ShadowRoute,
};
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pipeline::TrainedModel;
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
use ccsa_serve::json::Json;
use ccsa_serve::{BatchConfig, ModelRegistry, ModelSelector, ServeConfig, ServeEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FAST: &str = "int main() { int n; cin >> n; cout << n * (n + 1) / 2; return 0; }";
const SLOW: &str = "int main() { int n; cin >> n; long long s = 0; \
                    for (int i = 0; i <= n; i++) for (int j = 0; j < i; j++) s++; \
                    cout << s; return 0; }";
const MID: &str = "int main() { int n; cin >> n; long long s = 0; \
                   for (int i = 0; i < n; i++) s += i; cout << s; return 0; }";
const PAIRS: [(&str, &str); 3] = [(SLOW, FAST), (FAST, MID), (MID, SLOW)];

fn tiny_model(seed: u64) -> TrainedModel {
    let config = EncoderConfig::TreeLstm(TreeLstmConfig {
        embed_dim: 6,
        hidden: 6,
        layers: 1,
        direction: Direction::Uni,
        sigmoid_candidate: false,
    });
    let mut params = Params::new();
    let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(seed));
    TrainedModel { comparator, params }
}

/// An engine serving `default` v1 and v2 with *different* weights, so a
/// misrouted request is detectable by its score.
fn two_version_engine() -> Arc<ServeEngine> {
    let mut registry = ModelRegistry::new();
    registry.register("default", 1, tiny_model(1));
    registry.register("default", 2, tiny_model(2));
    Arc::new(ServeEngine::new(
        registry,
        &ServeConfig {
            cache_capacity: 512,
            cache_stripes: 0,
            batch: BatchConfig {
                workers: 2,
                max_batch: 8,
                ..BatchConfig::default()
            },
        },
    ))
}

fn versioned(version: u32) -> ModelSelector {
    ModelSelector {
        name: Some("default".to_string()),
        version: Some(version),
    }
}

fn split_router(w1: f64, w2: f64) -> Router {
    Router::new(
        vec![
            Route {
                selector: versioned(1),
                weight: w1,
            },
            Route {
                selector: versioned(2),
                weight: w2,
            },
        ],
        None,
    )
    .unwrap()
}

fn connect(addr: SocketAddr) -> GatewayClient {
    let mut client = GatewayClient::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client
}

#[test]
fn concurrent_clients_get_bit_identical_scores() {
    // ≥4 concurrent keep-alive clients against a 50/50 two-route table:
    // every reply must match the in-process engine bit for bit under the
    // (model, version) the reply itself claims, and each client must be
    // sticky to one version.
    let engine = two_version_engine();
    // In-process references, computed on the same engine the gateway
    // serves from.
    let expected: Vec<Vec<f32>> = (1..=2u32)
        .map(|v| {
            PAIRS
                .iter()
                .map(|(a, b)| {
                    engine
                        .compare(&versioned(v), a, b)
                        .unwrap()
                        .prob_first_slower
                })
                .collect()
        })
        .collect();

    let gateway = Gateway::spawn(
        Arc::clone(&engine),
        split_router(0.5, 0.5),
        GatewayConfig::default(),
    )
    .unwrap();
    let addr = gateway.addr();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = connect(addr);
                    let key = format!("client-{t}");
                    let mut seen_version = None;
                    for round in 0..8 {
                        let (a, b) = PAIRS[round % PAIRS.len()];
                        let reply = client.compare(a, b, Some(&key)).unwrap();
                        assert_eq!(reply.model, "default");
                        let v = reply.version;
                        assert!(v == 1 || v == 2, "unknown version {v}");
                        // Sticky: one client key never changes route.
                        assert_eq!(*seen_version.get_or_insert(v), v, "client {key} flapped");
                        assert_eq!(
                            reply.prob_first_slower as f32,
                            expected[(v - 1) as usize][round % PAIRS.len()],
                            "wire score diverged from in-process engine"
                        );
                    }
                    seen_version.unwrap()
                })
            })
            .collect();
        let versions: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(versions.len(), 6);
    });

    // Ranking over the wire agrees with in-process ranking too.
    let mut client = connect(addr);
    let reply_order = client
        .rank(&[FAST, SLOW, MID], Some("rank-client"))
        .unwrap();
    let route_version = split_router(0.5, 0.5)
        .route_for("rank-client")
        .selector
        .clone();
    let direct = engine.rank(&route_version, &[FAST, SLOW, MID]).unwrap();
    let direct_order: Vec<usize> = direct.ranking.iter().map(|r| r.index).collect();
    assert_eq!(reply_order, direct_order);

    gateway.shutdown_and_join().unwrap();
}

#[test]
fn mid_request_disconnects_leave_the_gateway_healthy() {
    let engine = two_version_engine();
    let gateway = Gateway::spawn(
        Arc::clone(&engine),
        Router::single_default(),
        GatewayConfig::default(),
    )
    .unwrap();
    let addr = gateway.addr();
    let handle = gateway.handle();

    let mut healthy = connect(addr);
    let before = healthy.compare(SLOW, FAST, Some("healthy")).unwrap();

    // A client that dies mid-line: partial request, no newline, gone.
    {
        use std::io::Write as _;
        let mut dead = TcpStream::connect(addr).unwrap();
        dead.write_all(br#"{"op":"compare","first":"int main"#)
            .unwrap();
        dead.shutdown(std::net::Shutdown::Both).unwrap();
    }
    // A client that sends a full request but vanishes before reading the
    // response: the server's write fails, nobody else cares.
    {
        use std::io::Write as _;
        let mut rude = TcpStream::connect(addr).unwrap();
        writeln!(
            rude,
            r#"{{"op":"compare","first":{},"second":{}}}"#,
            Json::str(SLOW),
            Json::str(FAST)
        )
        .unwrap();
        drop(rude);
    }

    // The surviving session keeps working and scores stay identical.
    let after = healthy.compare(SLOW, FAST, Some("healthy")).unwrap();
    assert_eq!(after.prob_first_slower, before.prob_first_slower);
    assert!(healthy.ping().unwrap());

    // The dead sessions get reaped (bounded wait; reaping needs the
    // session threads to notice EOF).
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active_connections() > 1 {
        assert!(
            Instant::now() < deadline,
            "dead connections were never reaped: {} active",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    gateway.shutdown_and_join().unwrap();
}

#[test]
fn stalled_partial_requests_hit_the_idle_timeout() {
    // Slowloris: a client that sends half a request and then stalls must
    // be reaped by the idle timeout just like a silent one — otherwise
    // max_connections such clients pin the gateway at capacity forever.
    let engine = two_version_engine();
    let gateway = Gateway::spawn(
        Arc::clone(&engine),
        Router::single_default(),
        GatewayConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let handle = gateway.handle();

    use std::io::Write as _;
    let mut stalled = TcpStream::connect(gateway.addr()).unwrap();
    stalled.write_all(br#"{"op":"compare","first":"#).unwrap();
    let mut silent = TcpStream::connect(gateway.addr()).unwrap();
    silent.write_all(b" ").unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "stalled connections never timed out: {} active",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Both sockets were closed server-side.
    drop(stalled);
    drop(silent);
    gateway.shutdown_and_join().unwrap();
}

#[test]
fn connection_cap_refuses_politely() {
    let engine = two_version_engine();
    let gateway = Gateway::spawn(
        Arc::clone(&engine),
        Router::single_default(),
        GatewayConfig {
            max_connections: 2,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let addr = gateway.addr();

    let mut first = connect(addr);
    let mut second = connect(addr);
    assert!(first.ping().unwrap());
    assert!(second.ping().unwrap());

    // The third connection gets one unsolicited ok:false line, then EOF
    // (read it without writing: the refusal arrives regardless).
    {
        use std::io::BufRead as _;
        let refused = TcpStream::connect(addr).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = std::io::BufReader::new(refused);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = ccsa_serve::json::parse(line.trim_end()).unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert!(response
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("capacity"));
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "then EOF");
    }

    // Freeing a slot re-admits new clients.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = connect(addr);
        if retry.ping().unwrap_or(false) {
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }

    gateway.shutdown_and_join().unwrap();
}

#[test]
fn shutdown_verb_drains_every_session() {
    let engine = two_version_engine();
    let gateway = Gateway::spawn(
        Arc::clone(&engine),
        Router::single_default(),
        GatewayConfig::default(),
    )
    .unwrap();
    let addr = gateway.addr();

    let mut bystander = connect(addr);
    assert!(bystander.ping().unwrap());

    let mut terminator = connect(addr);
    terminator.shutdown().unwrap();

    // The accept loop exits and all sessions close; join must complete.
    gateway.shutdown_and_join().unwrap();

    // The bystander's session was closed between requests…
    assert!(bystander.ping().is_err(), "drained session must be closed");
    // …and the port no longer accepts.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

#[test]
fn rate_limited_route_sheds_politely_and_counts() {
    use ccsa_gateway::RateLimit;

    let engine = two_version_engine();
    let router = Router::new(
        vec![Route {
            selector: versioned(1),
            weight: 1.0,
        }],
        None,
    )
    .unwrap();
    let gateway = Gateway::spawn(
        Arc::clone(&engine),
        router,
        GatewayConfig {
            rate_limits: vec![RateLimit {
                selector: versioned(1),
                rps: 0.5, // burst floor of 1 token, ~2 s per refill
            }],
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let mut client = connect(gateway.addr());

    let line =
        format!(r#"{{"op":"compare","client":"limited","first":"{SLOW}","second":"{FAST}"}}"#);
    let mut admitted = 0u64;
    let mut limited = 0u64;
    for _ in 0..10 {
        let v = client.request_line(&line).unwrap();
        if v.get("ok") == Some(&Json::Bool(true)) {
            admitted += 1;
            assert!(v.get("rate_limited").is_none());
        } else {
            assert_eq!(
                v.get("rate_limited"),
                Some(&Json::Bool(true)),
                "refusal must be marked rate_limited: {v}"
            );
            let error = v.get("error").unwrap().as_str().unwrap();
            assert!(error.contains("rate limit"), "polite error, got {error}");
            limited += 1;
        }
    }
    assert!(admitted >= 1, "the burst token must admit something");
    assert!(limited >= 1, "10 rapid requests at 0.5 RPS must shed");
    assert_eq!(admitted + limited, 10);

    // The connection survives shedding, and pinned requests bypass the
    // route bucket (they are not routed traffic).
    assert!(client.ping().unwrap());
    let pinned = format!(
        r#"{{"op":"compare","model":"default","version":2,"first":"{SLOW}","second":"{FAST}"}}"#
    );
    for _ in 0..3 {
        let v = client.request_line(&pinned).unwrap();
        assert_eq!(
            v.get("ok"),
            Some(&Json::Bool(true)),
            "pinned traffic must never be route-limited: {v}"
        );
    }

    // The `routes` verb reports the configured limit and the shed count,
    // plus the route's encode-shard queue depth (idle here).
    let routes = client.routes().unwrap();
    let route = &routes.get("routes").unwrap().as_arr().unwrap()[0];
    assert_eq!(route.get("rate_limit_rps").unwrap().as_f64(), Some(0.5));
    assert_eq!(route.get("rate_limited").unwrap().as_u64(), Some(limited));
    assert_eq!(route.get("requests").unwrap().as_u64(), Some(admitted));
    assert_eq!(route.get("queue_depth").unwrap().as_u64(), Some(0));
    gateway.shutdown_and_join().unwrap();
}

#[test]
fn rate_limit_for_unknown_route_fails_bind() {
    use ccsa_gateway::RateLimit;

    let engine = two_version_engine();
    let result = Gateway::bind(
        engine,
        Router::single_default(),
        GatewayConfig {
            rate_limits: vec![RateLimit {
                selector: versioned(2), // not in the single-default table
                rps: 10.0,
            }],
            ..GatewayConfig::default()
        },
    );
    match result {
        Ok(_) => panic!("a limit naming no route must fail fast"),
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
    }
}

#[test]
fn sigterm_flag_drains_a_watching_gateway() {
    let engine = two_version_engine();
    let gateway = Gateway::spawn(
        Arc::clone(&engine),
        Router::single_default(),
        GatewayConfig {
            honor_sigterm: true,
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let mut client = connect(gateway.addr());
    assert!(client.ping().unwrap());

    signal::simulate_sigterm();
    // No handle.shutdown() — the signal flag alone must drain it.
    gateway.shutdown_and_join().unwrap();
}

#[test]
fn cache_snapshot_warms_a_restarted_gateway() {
    let dir = std::env::temp_dir().join(format!("ccsa-gw-warm-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let snapshot = dir.join("cache.ccsc");
    let sel = ModelSelector::default();

    // First life: serve traffic, spill the cache at shutdown.
    let engine1 = Arc::new(ServeEngine::with_model(
        tiny_model(5),
        &ServeConfig::default(),
    ));
    let gw1 = Gateway::spawn(
        Arc::clone(&engine1),
        Router::single_default(),
        GatewayConfig::default(),
    )
    .unwrap();
    let mut client = connect(gw1.addr());
    let cold = client.compare(SLOW, FAST, None).unwrap();
    assert_eq!(cold.cache_hits, 0);
    gw1.shutdown_and_join().unwrap();
    assert_eq!(engine1.snapshot_cache(&sel, &snapshot).unwrap(), 2);

    // Second life: same weights, fresh process state, warm start.
    let engine2 = Arc::new(ServeEngine::with_model(
        tiny_model(5),
        &ServeConfig::default(),
    ));
    assert_eq!(engine2.warm_cache(&sel, &snapshot).unwrap(), 2);
    let gw2 = Gateway::spawn(
        Arc::clone(&engine2),
        Router::single_default(),
        GatewayConfig::default(),
    )
    .unwrap();
    let mut client = connect(gw2.addr());
    let warm = client.compare(SLOW, FAST, None).unwrap();
    assert_eq!(warm.cache_hits, 2, "restart must start warm");
    assert_eq!(warm.prob_first_slower, cold.prob_first_slower);
    assert_eq!(
        engine2.stats().batch.jobs,
        0,
        "no re-encoding after warm start"
    );
    gw2.shutdown_and_join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadow_traffic_reaches_the_candidate_and_is_reported() {
    let engine = two_version_engine();
    let router = Router::new(
        vec![Route {
            selector: versioned(1),
            weight: 1.0,
        }],
        Some(ShadowRoute {
            selector: versioned(2),
            fraction: 1.0, // mirror everything: the strongest case
        }),
    )
    .unwrap();
    let gateway = Gateway::spawn(Arc::clone(&engine), router, GatewayConfig::default()).unwrap();
    let mut client = connect(gateway.addr());

    let expected_v1 = engine
        .compare(&versioned(1), SLOW, FAST)
        .unwrap()
        .prob_first_slower;
    for i in 0..6 {
        let reply = client.compare(SLOW, FAST, Some(&format!("s{i}"))).unwrap();
        // Every response comes from the primary, never the shadow.
        assert_eq!(reply.version, 1);
        assert_eq!(reply.prob_first_slower as f32, expected_v1);
    }

    // Mirrors run asynchronously on the shadow worker; wait for all six
    // to land (bounded), then assert the full accounting.
    let deadline = Instant::now() + Duration::from_secs(10);
    let routes = loop {
        let routes = client.routes().unwrap();
        let mirrored = routes
            .get("shadow")
            .and_then(|s| s.get("requests"))
            .and_then(Json::as_u64)
            .unwrap();
        if mirrored == 6 {
            break routes;
        }
        assert!(
            Instant::now() < deadline,
            "only {mirrored}/6 mirrors arrived (fraction 1.0 must mirror every routed request)"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let primary = &routes.get("routes").unwrap().as_arr().unwrap()[0];
    assert_eq!(primary.get("requests").unwrap().as_u64(), Some(6));
    assert_eq!(primary.get("errors").unwrap().as_u64(), Some(0));
    let shadow = routes.get("shadow").unwrap();
    assert_eq!(shadow.get("version").unwrap().as_u64(), Some(2));
    assert_eq!(shadow.get("errors").unwrap().as_u64(), Some(0));
    assert_eq!(shadow.get("dropped").unwrap().as_u64(), Some(0));

    // The candidate really ran: its registration shows cache lookups.
    let v2_lookups: u64 = engine
        .stats()
        .model_cache
        .iter()
        .filter(|m| m.version == 2)
        .map(|m| m.hits + m.misses)
        .sum();
    assert!(v2_lookups > 0, "shadow model never saw traffic");

    gateway.shutdown_and_join().unwrap();
}

/// A gateway config with the HTTP front door on an ephemeral port.
fn http_config() -> GatewayConfig {
    GatewayConfig {
        http_addr: Some("127.0.0.1:0".to_string()),
        ..GatewayConfig::default()
    }
}

fn http_connect(addr: SocketAddr) -> HttpGatewayClient {
    let mut client = HttpGatewayClient::connect(addr).expect("http connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client
}

/// The value of one series in a Prometheus text exposition, located by
/// its exact `name{labels}` prefix.
fn metric_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find(|l| {
            l.strip_prefix(series)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("series {series:?} not found in scrape"))
}

#[test]
fn http_and_tcp_scored_responses_are_bit_identical() {
    // The acceptance invariant for the front door: the same request body
    // over HTTP and over JSON-lines produces byte-identical response
    // JSON — same scores, same fields, same serialization.
    let engine = two_version_engine();
    let gateway = Gateway::spawn(engine, split_router(0.5, 0.5), http_config()).unwrap();
    let mut tcp = connect(gateway.addr());
    let mut http = http_connect(gateway.http_addr().unwrap());

    // Warm the embedding cache for every tree the comparisons below
    // use: `cache_hits` is engine state, and both transports must see
    // the *same* state to produce the same bytes.
    tcp.compare(SLOW, FAST, Some("twin")).unwrap();
    tcp.rank(&[FAST, SLOW, MID, FAST], Some("twin")).unwrap();

    // Same sticky key on both transports → same route, same model.
    let compare_body = Json::obj(vec![
        ("first", Json::str(SLOW)),
        ("second", Json::str(FAST)),
        ("client", Json::str("twin")),
    ])
    .to_string();
    let tcp_reply = tcp
        .request_line(&format!(
            r#"{{"op":"compare","first":{first},"second":{second},"client":"twin"}}"#,
            first = Json::str(SLOW),
            second = Json::str(FAST),
        ))
        .unwrap();
    let http_reply = http
        .post("/v1/compare", &compare_body, Some("req-compare-1"))
        .unwrap();
    assert_eq!(http_reply.status, 200);
    assert_eq!(http_reply.request_id.as_deref(), Some("req-compare-1"));
    assert_eq!(
        http_reply.body.trim_end(),
        tcp_reply.to_string(),
        "HTTP and TCP compare responses diverged"
    );

    // Rank streams chunked; the reassembled body must still match.
    let candidates = Json::Arr(
        [FAST, SLOW, MID, FAST]
            .iter()
            .map(|&c| Json::str(c))
            .collect(),
    );
    let rank_body = Json::obj(vec![
        ("candidates", candidates.clone()),
        ("client", Json::str("twin")),
    ])
    .to_string();
    let tcp_rank = tcp
        .request(&Json::obj(vec![
            ("op", Json::str("rank")),
            ("candidates", candidates),
            ("client", Json::str("twin")),
        ]))
        .unwrap();
    let http_rank = http.post("/v1/rank", &rank_body, None).unwrap();
    assert_eq!(http_rank.status, 200);
    // Anonymous requests still get a (generated) ID echoed back.
    assert!(http_rank.request_id.is_some());
    assert_eq!(
        http_rank.body.trim_end(),
        tcp_rank.to_string(),
        "HTTP and TCP rank responses diverged"
    );

    // Spot-check the front door's error contract on the same session.
    assert_eq!(http.get("/nope").unwrap().status, 404);
    assert_eq!(http.get("/v1/compare").unwrap().status, 405);
    let mismatched = http
        .post("/v1/compare", r#"{"op":"rank","candidates":[]}"#, None)
        .unwrap();
    assert_eq!(mismatched.status, 400);

    gateway.shutdown_and_join().unwrap();
}

#[test]
fn readyz_flips_to_503_through_the_drain_grace_window() {
    let engine = two_version_engine();
    let config = GatewayConfig {
        drain_grace: Duration::from_millis(1500),
        ..http_config()
    };
    let gateway = Gateway::spawn(engine, Router::single_default(), config).unwrap();
    let handle = gateway.handle();
    let http_addr = gateway.http_addr().unwrap();

    let mut http = http_connect(http_addr);
    assert_eq!(http.get("/healthz").unwrap().status, 200);
    let ready = http.get("/readyz").unwrap();
    assert_eq!(ready.status, 200);
    assert_eq!(ready.body, "ready\n");

    handle.shutdown();
    // The TCP loop exits immediately, but the front door must keep
    // answering — with readiness flipped — for the whole grace window.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let reply = http.get("/readyz").unwrap();
        if reply.status == 503 {
            assert_eq!(reply.body, "draining\n");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "readyz never flipped to 503 after shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Liveness stays green while draining; scored traffic is refused
    // with an explicit marker.
    assert_eq!(http.get("/healthz").unwrap().status, 200);
    let refused = http
        .post(
            "/v1/compare",
            &Json::obj(vec![
                ("first", Json::str(FAST)),
                ("second", Json::str(SLOW)),
            ])
            .to_string(),
            None,
        )
        .unwrap();
    assert_eq!(refused.status, 503);
    let refused_json = ccsa_serve::json::parse(refused.body.trim_end()).unwrap();
    assert_eq!(
        refused_json.get("draining").and_then(Json::as_bool),
        Some(true)
    );
    // The scrape keeps working during the grace window and reports the
    // drain.
    let scrape = http.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    assert_eq!(metric_value(&scrape.body, "ccsa_gateway_draining"), 1.0);

    gateway.shutdown_and_join().unwrap();
}

#[test]
fn metrics_scrape_is_rich_and_agrees_with_the_verbs() {
    let engine = two_version_engine();
    let gateway = Gateway::spawn(engine, split_router(0.5, 0.5), http_config()).unwrap();
    let mut tcp = connect(gateway.addr());
    let mut http = http_connect(gateway.http_addr().unwrap());

    // Traffic over both transports.
    for _ in 0..3 {
        tcp.compare(SLOW, FAST, Some("scraped")).unwrap();
    }
    let body = Json::obj(vec![
        ("first", Json::str(FAST)),
        ("second", Json::str(MID)),
        ("client", Json::str("scraped")),
    ])
    .to_string();
    assert_eq!(http.post("/v1/compare", &body, None).unwrap().status, 200);

    let stats = tcp.stats().unwrap();
    let routes = tcp.routes().unwrap();
    let scrape = http.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    let text = &scrape.body;

    // ≥ 12 metric families, every one typed.
    let families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_ascii_whitespace().next())
        .collect();
    assert!(
        families.len() >= 12,
        "scrape exposes only {} families: {families:?}",
        families.len()
    );
    for must in [
        "ccsa_uptime_seconds",
        "ccsa_build_info",
        "ccsa_compares_total",
        "ccsa_stage_duration_seconds",
        "ccsa_route_requests_total",
        "ccsa_route_latency_seconds",
        "ccsa_gateway_requests_total",
        "ccsa_gateway_active_connections",
        "ccsa_http_requests_total",
    ] {
        assert!(families.contains(&must), "scrape is missing {must}");
    }

    // The verbs and the scrape read the same atomics: the numbers the
    // JSON-lines protocol reports are the numbers Prometheus collects.
    let compares = stats.get("compares").and_then(Json::as_f64).unwrap();
    assert_eq!(metric_value(text, "ccsa_compares_total"), compares);
    assert_eq!(compares, 4.0, "3 TCP + 1 HTTP compares");
    let route_entries = routes.get("routes").and_then(Json::as_arr).unwrap();
    for entry in route_entries {
        let label = entry.get("metric_label").and_then(Json::as_str).unwrap();
        let requests = entry.get("requests").and_then(Json::as_f64).unwrap();
        assert_eq!(
            metric_value(
                text,
                &format!("ccsa_route_requests_total{{route=\"{label}\"}}")
            ),
            requests,
            "routes verb and scrape disagree for {label}"
        );
    }
    // All four requests used one sticky key, so one route carries 4.
    let per_route: Vec<f64> = route_entries
        .iter()
        .map(|e| e.get("requests").and_then(Json::as_f64).unwrap())
        .collect();
    assert_eq!(per_route.iter().sum::<f64>(), 4.0);
    // The HTTP request log covers both the scored call and this scrape.
    assert_eq!(
        metric_value(
            text,
            "ccsa_http_requests_total{path=\"/v1/compare\",code=\"200\"}"
        ),
        1.0
    );
    assert!(metric_value(text, "ccsa_uptime_seconds") >= 0.0);

    gateway.shutdown_and_join().unwrap();
}

#[test]
fn routes_verb_marks_shadow_entries_and_their_metric_labels() {
    let engine = two_version_engine();
    let router = Router::new(
        vec![Route {
            selector: versioned(1),
            weight: 1.0,
        }],
        Some(ShadowRoute {
            selector: versioned(2),
            fraction: 1.0,
        }),
    )
    .unwrap();
    let gateway = Gateway::spawn(engine, router, http_config()).unwrap();
    let mut tcp = connect(gateway.addr());
    let mut http = http_connect(gateway.http_addr().unwrap());

    tcp.compare(SLOW, FAST, Some("shadow-label")).unwrap();
    // The mirror runs on the shadow worker; wait until it lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    let shadow = loop {
        let routes = tcp.routes().unwrap();
        let shadow = routes.get("shadow").unwrap().clone();
        if shadow.get("requests").and_then(Json::as_f64) == Some(1.0) {
            break shadow;
        }
        assert!(Instant::now() < deadline, "shadow mirror never landed");
        std::thread::sleep(Duration::from_millis(20));
    };

    // The explicit marker and the collision-proof label (satellite a).
    assert_eq!(shadow.get("shadow").and_then(Json::as_bool), Some(true));
    assert_eq!(
        shadow.get("metric_label").and_then(Json::as_str),
        Some("shadow:default@v2")
    );
    // Primary entries carry their own label and no shadow marker.
    let routes = tcp.routes().unwrap();
    let primary = &routes.get("routes").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(
        primary.get("metric_label").and_then(Json::as_str),
        Some("default@v1")
    );
    assert!(primary.get("shadow").is_none());
    // And the scrape carries the shadow's series under that label.
    let text = http.get("/metrics").unwrap().body;
    assert_eq!(
        metric_value(
            &text,
            "ccsa_route_requests_total{route=\"shadow:default@v2\"}"
        ),
        1.0
    );

    gateway.shutdown_and_join().unwrap();
}

#[test]
fn stats_verb_reports_uptime_and_build_info() {
    let engine = two_version_engine();
    let gateway = Gateway::spawn(engine, Router::single_default(), http_config()).unwrap();
    let mut tcp = connect(gateway.addr());

    let stats = tcp.stats().unwrap();
    assert!(stats.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
    let build = stats.get("build").unwrap();
    let version = build.get("version").and_then(Json::as_str).unwrap();
    assert!(!version.is_empty());
    assert!(build.get("revision").and_then(Json::as_str).is_some());

    // The same identity appears on the scrape as a build-info gauge.
    let mut http = http_connect(gateway.http_addr().unwrap());
    let text = http.get("/metrics").unwrap().body;
    let info_line = text
        .lines()
        .find(|l| l.starts_with("ccsa_build_info{"))
        .expect("scrape carries ccsa_build_info");
    assert!(info_line.contains(&format!("version=\"{version}\"")));
    assert!(info_line.ends_with(" 1"));

    gateway.shutdown_and_join().unwrap();
}

#[test]
fn trace_log_captures_both_transports_with_stage_splits() {
    let trace_path = std::env::temp_dir().join(format!(
        "ccsa-e2e-trace-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&trace_path);
    let engine = two_version_engine();
    let config = GatewayConfig {
        trace_log: Some(trace_path.clone()),
        trace_sample_percent: 100.0,
        ..http_config()
    };
    let gateway = Gateway::spawn(engine, Router::single_default(), config).unwrap();
    let mut tcp = connect(gateway.addr());
    let mut http = http_connect(gateway.http_addr().unwrap());

    // A TCP request carrying its own ID, and an HTTP request tagged via
    // the header.
    tcp.request(&Json::obj(vec![
        ("op", Json::str("compare")),
        ("first", Json::str(SLOW)),
        ("second", Json::str(FAST)),
        ("request_id", Json::str("trace-tcp-1")),
    ]))
    .unwrap();
    let body = Json::obj(vec![("first", Json::str(FAST)), ("second", Json::str(MID))]).to_string();
    let reply = http
        .post("/v1/compare", &body, Some("trace-http-1"))
        .unwrap();
    assert_eq!(reply.status, 200);
    gateway.shutdown_and_join().unwrap();

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let records: Vec<Json> = text
        .lines()
        .map(|l| ccsa_serve::json::parse(l).unwrap())
        .collect();
    let find = |id: &str| {
        records
            .iter()
            .find(|r| r.get("request_id").and_then(Json::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no trace record for {id}"))
    };
    let tcp_rec = find("trace-tcp-1");
    assert_eq!(tcp_rec.get("transport").and_then(Json::as_str), Some("tcp"));
    assert_eq!(tcp_rec.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        tcp_rec.get("route").and_then(Json::as_str),
        Some("default@latest")
    );
    let http_rec = find("trace-http-1");
    assert_eq!(
        http_rec.get("transport").and_then(Json::as_str),
        Some("http")
    );
    for rec in [tcp_rec, http_rec] {
        assert!(rec.get("latency_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        let stages = rec.get("stages_ms").expect("served requests carry stages");
        for stage in ["parse", "cache", "encode", "classify"] {
            assert!(stages.get(stage).and_then(Json::as_f64).unwrap() >= 0.0);
        }
    }
    let _ = std::fs::remove_file(&trace_path);
}

/// Two persistent gateways over one engine: `plain` routes everything to
/// v1 with no shadow; `shadowed` routes identically but mirrors 100% of
/// traffic to v2. Shared across property-test cases (the gateways are
/// leaked; the process exit reaps them).
fn shadow_rig() -> (SocketAddr, SocketAddr) {
    static RIG: OnceLock<(SocketAddr, SocketAddr)> = OnceLock::new();
    *RIG.get_or_init(|| {
        let engine = two_version_engine();
        let plain = Gateway::spawn(
            Arc::clone(&engine),
            Router::new(
                vec![Route {
                    selector: versioned(1),
                    weight: 1.0,
                }],
                None,
            )
            .unwrap(),
            GatewayConfig::default(),
        )
        .unwrap();
        let shadowed = Gateway::spawn(
            engine,
            Router::new(
                vec![Route {
                    selector: versioned(1),
                    weight: 1.0,
                }],
                Some(ShadowRoute {
                    selector: versioned(2),
                    fraction: 1.0,
                }),
            )
            .unwrap(),
            GatewayConfig::default(),
        )
        .unwrap();
        let addrs = (plain.addr(), shadowed.addr());
        std::mem::forget(plain);
        std::mem::forget(shadowed);
        addrs
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Observed route assignment over a deterministic client population
    /// converges to any valid weight configuration (satellite: "observed
    /// route distribution converges to configured weights").
    #[test]
    fn route_distribution_converges_to_weights(
        raw_weights in prop::collection::vec(0.05f64..1.0, 2..5),
        key_space in 0u64..1000,
    ) {
        let routes: Vec<Route> = raw_weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Route {
                selector: versioned(i as u32 + 1),
                weight: w,
            })
            .collect();
        let router = Router::new(routes, None).unwrap();
        let n = 4000usize;
        let mut counts = vec![0usize; raw_weights.len()];
        for i in 0..n {
            counts[router.route_index(&format!("pop{key_space}-{i}"))] += 1;
        }
        let total: f64 = raw_weights.iter().sum();
        for (ix, &w) in raw_weights.iter().enumerate() {
            let observed = counts[ix] as f64 / n as f64;
            let configured = w / total;
            prop_assert!(
                (observed - configured).abs() < 0.05,
                "route {}: observed {:.3} vs configured {:.3}",
                ix, observed, configured
            );
        }
    }

    /// Shadow traffic never alters the primary response: for any request
    /// and client key, a gateway mirroring 100% of traffic answers byte-
    /// for-byte like one with no shadow at all.
    #[test]
    fn shadow_never_alters_primary_responses(
        pair_ix in 0usize..3,
        key in 0u64..10_000,
        do_rank in proptest::bool::ANY,
    ) {
        let (plain_addr, shadowed_addr) = shadow_rig();
        let mut plain = connect(plain_addr);
        let mut shadowed = connect(shadowed_addr);
        let client_key = format!("prop-{key}");
        if do_rank {
            let a = plain.rank(&[FAST, SLOW, MID], Some(&client_key)).unwrap();
            let b = shadowed.rank(&[FAST, SLOW, MID], Some(&client_key)).unwrap();
            prop_assert_eq!(a, b);
        } else {
            let (x, y) = PAIRS[pair_ix];
            let a = plain.compare(x, y, Some(&client_key)).unwrap();
            let b = shadowed.compare(x, y, Some(&client_key)).unwrap();
            prop_assert_eq!(a.prob_first_slower, b.prob_first_slower);
            prop_assert_eq!(a.version, b.version);
            prop_assert_eq!(a.model, b.model);
        }
    }
}

#[test]
fn reload_routes_swaps_the_table_live_and_carries_surviving_stats() {
    // A 50/50 v1/v2 gateway hot-swapped to v2-only over an open client
    // session: no reconnect, no restart, and the surviving route keeps
    // its rolling request window across the swap.
    let engine = two_version_engine();
    let gateway = Gateway::spawn(
        Arc::clone(&engine),
        split_router(1.0, 1.0),
        GatewayConfig::default(),
    )
    .unwrap();
    let mut client = connect(gateway.addr());

    // Deterministically pick keys per route with the same construction
    // the gateway uses, so the pre-swap v2 traffic count is exact.
    let reference = split_router(1.0, 1.0);
    let keys_for = |route_ix: usize, n: usize| -> Vec<String> {
        (0..)
            .map(|i| format!("swap-{i}"))
            .filter(|k| reference.route_index(k) == route_ix)
            .take(n)
            .collect::<Vec<_>>()
    };
    for key in keys_for(0, 3).iter().chain(keys_for(1, 3).iter()) {
        client.compare(SLOW, FAST, Some(key)).unwrap();
    }
    let before = client.routes().unwrap();
    assert_eq!(
        before.get("reload_generation").and_then(Json::as_u64),
        Some(0)
    );

    // A bad table is rejected whole: unknown version, nothing swapped.
    let rejected = client
        .request_line(
            r#"{"op":"reload_routes","routes":[{"model":"default","version":9,"weight":1.0}]}"#,
        )
        .unwrap();
    assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        client
            .routes()
            .unwrap()
            .get("reload_generation")
            .and_then(Json::as_u64),
        Some(0)
    );

    let reply = client
        .request_line(
            r#"{"op":"reload_routes","routes":[{"model":"default","version":2,"weight":1.0}],"shadow":null}"#,
        )
        .unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "reply: {reply}");
    assert_eq!(
        reply.get("reload_generation").and_then(Json::as_u64),
        Some(1)
    );

    // Same session, new table: every request now scores under v2.
    let expected_v2 = engine
        .compare(&versioned(2), SLOW, FAST)
        .unwrap()
        .prob_first_slower;
    for key in keys_for(0, 2).iter().chain(keys_for(1, 2).iter()) {
        let reply = client.compare(SLOW, FAST, Some(key)).unwrap();
        assert_eq!(reply.version, 2);
        assert_eq!(reply.prob_first_slower as f32, expected_v2);
    }

    let after = client.routes().unwrap();
    assert_eq!(
        after.get("reload_generation").and_then(Json::as_u64),
        Some(1)
    );
    let table = after.get("routes").and_then(Json::as_arr).unwrap();
    assert_eq!(table.len(), 1, "routes: {after}");
    assert_eq!(table[0].get("version").and_then(Json::as_u64), Some(2));
    // 3 pre-swap requests on v2 + 4 post-swap: the window survived the
    // reload because the route's metric label did.
    assert_eq!(table[0].get("requests").and_then(Json::as_u64), Some(7));

    gateway.shutdown_and_join().unwrap();
}

#[test]
fn shadow_delta_block_compares_shadow_against_primary() {
    // With a shadow mirroring all traffic, the `routes` verb grows a
    // delta block (shadow minus primary) and the scrape grows matching
    // gauges under the shadow's metric label.
    let engine = two_version_engine();
    let router = Router::new(
        vec![Route {
            selector: versioned(1),
            weight: 1.0,
        }],
        Some(ShadowRoute {
            selector: versioned(2),
            fraction: 1.0,
        }),
    )
    .unwrap();
    let gateway = Gateway::spawn(engine, router, http_config()).unwrap();
    let mut tcp = connect(gateway.addr());
    let mut http = http_connect(gateway.http_addr().unwrap());

    // Before any traffic the deltas are null — a delta of nothing vs
    // nothing must not read as "candidate is healthy".
    let empty = tcp.routes().unwrap();
    assert_eq!(
        empty.get("shadow").unwrap().get("delta_p99_ms"),
        Some(&Json::Null)
    );

    for i in 0..6 {
        tcp.compare(SLOW, FAST, Some(&format!("delta-{i}")))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let shadow = loop {
        let routes = tcp.routes().unwrap();
        let shadow = routes.get("shadow").unwrap().clone();
        if shadow.get("requests").and_then(Json::as_f64) == Some(6.0) {
            break shadow;
        }
        assert!(Instant::now() < deadline, "shadow mirrors never landed");
        std::thread::sleep(Duration::from_millis(20));
    };

    for field in ["delta_p50_ms", "delta_p99_ms", "delta_error_rate"] {
        assert!(
            shadow.get(field).and_then(Json::as_f64).is_some(),
            "{field} should be numeric once both arms have traffic"
        );
    }
    // Both arms served the same requests without errors.
    assert_eq!(
        shadow.get("delta_error_rate").and_then(Json::as_f64),
        Some(0.0)
    );

    let text = http.get("/metrics").unwrap().body;
    for gauge in [
        "ccsa_route_shadow_delta_p50_ms{route=\"shadow:default@v2\"}",
        "ccsa_route_shadow_delta_p99_ms{route=\"shadow:default@v2\"}",
        "ccsa_route_shadow_delta_error_rate{route=\"shadow:default@v2\"}",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(gauge)),
            "scrape missing {gauge}"
        );
    }

    gateway.shutdown_and_join().unwrap();
}
