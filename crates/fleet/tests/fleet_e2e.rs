//! End-to-end fleet tests: real sockets, real gateways behind it.
//!
//! The load-bearing invariants: (1) the fleet is *transparent* — a
//! scored response through the fleet is byte-identical to one from the
//! replica directly; (2) it is *reliable* — killing one of N replicas
//! under load produces zero client-visible errors; (3) the control
//! plane rewrites the routing table (promotion ramp and rollback)
//! without restarting any gateway process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccsa_fleet::{
    parse_table, CanaryConfig, Fleet, FleetConfig, ReplicaConfig, Ring, SpawnedFleet, TableSpec,
};
use ccsa_gateway::transport::POLL_INTERVAL;
use ccsa_gateway::{Gateway, GatewayConfig, HttpGatewayClient, Route, Router, ShadowRoute};
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pipeline::TrainedModel;
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
use ccsa_serve::json::{self, Json};
use ccsa_serve::{BatchConfig, ModelRegistry, ModelSelector, ServeConfig, ServeEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FAST: &str = "int main() { int n; cin >> n; cout << n * (n + 1) / 2; return 0; }";
const SLOW: &str = "int main() { int n; cin >> n; long long s = 0; \
                    for (int i = 0; i <= n; i++) for (int j = 0; j < i; j++) s++; \
                    cout << s; return 0; }";

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

/// A model whose encoder will fail at serve time: real architecture,
/// empty parameter store. Registered as a canary candidate it makes the
/// shadow arm's error rate spike — the rollback trigger.
fn corrupt_model() -> TrainedModel {
    let config = EncoderConfig::TreeLstm(TreeLstmConfig {
        embed_dim: 6,
        hidden: 6,
        layers: 1,
        direction: Direction::Uni,
        sigmoid_candidate: false,
    });
    let mut params = Params::new();
    let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(7));
    TrainedModel {
        comparator,
        params: Params::new(),
    }
}

fn engine_with(versions: Vec<(u32, TrainedModel)>) -> Arc<ServeEngine> {
    let mut registry = ModelRegistry::new();
    for (version, model) in versions {
        registry.register("default", version, model);
    }
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

fn single_route_router(version: u32, shadow: Option<(u32, f64)>) -> Router {
    Router::new(
        vec![Route {
            selector: versioned(version),
            weight: 1.0,
        }],
        shadow.map(|(v, fraction)| ShadowRoute {
            selector: versioned(v),
            fraction,
        }),
    )
    .unwrap()
}

/// Spawns a gateway (TCP + HTTP fronts) and returns it with its
/// replica-config entry for the fleet.
fn spawn_gateway(
    engine: Arc<ServeEngine>,
    router: Router,
    id: &str,
) -> (ccsa_gateway::SpawnedGateway, ReplicaConfig) {
    let gateway = Gateway::spawn(
        engine,
        router,
        GatewayConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            ..GatewayConfig::default()
        },
    )
    .expect("spawn gateway");
    let replica = ReplicaConfig {
        id: id.to_string(),
        addr: gateway.addr(),
        http_addr: gateway.http_addr().expect("gateway http addr"),
    };
    (gateway, replica)
}

/// One raw request/response exchange on a fresh socket — no client
/// library in the path, so the returned line is exactly what the server
/// wrote (minus the newline).
fn raw_exchange(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    writeln!(stream, "{line}").expect("write");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read");
    response.trim_end_matches(['\n', '\r']).to_string()
}

fn fleet_stats(addr: SocketAddr) -> Json {
    json::parse(&raw_exchange(addr, r#"{"op":"fleet"}"#)).expect("fleet stats json")
}

fn compare_line(client: &str) -> String {
    Json::obj(vec![
        ("op", Json::str("compare")),
        ("client", Json::str(client)),
        ("first", Json::str(SLOW)),
        ("second", Json::str(FAST)),
    ])
    .to_string()
}

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

fn default_fleet_config() -> FleetConfig {
    FleetConfig {
        probe_interval: None, // each test opts in explicitly
        ..FleetConfig::default()
    }
}

// ---------------------------------------------------------------------
// Ring invariants (property tests)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Consistent hashing's reason to exist: removing one of `n`
    /// replicas remaps only the vanished replica's own keys — expected
    /// `1/n` of them, bounded here by `2/n` of 10k sticky keys — and
    /// every key the victim did not own keeps its exact owner.
    #[test]
    fn removing_one_replica_remaps_at_most_two_over_n(
        n in 3usize..8,
        victim_seed in 0u64..1_000_000,
    ) {
        let ids: Vec<String> = (0..n).map(|i| format!("gw-{i}")).collect();
        let victim = (victim_seed % n as u64) as usize;
        let full = Ring::new(ids.iter().enumerate().map(|(ix, id)| (ix, id.as_str())));
        let reduced = Ring::new(
            ids.iter()
                .enumerate()
                .filter(|(ix, _)| *ix != victim)
                .map(|(ix, id)| (ix, id.as_str())),
        );
        let keys = 10_000usize;
        let mut remapped = 0usize;
        for i in 0..keys {
            let key = format!("client-{i}");
            let before = full.replica_for(&key).unwrap();
            let after = reduced.replica_for(&key).unwrap();
            if before == victim {
                prop_assert_ne!(after, victim);
                remapped += 1;
            } else {
                // A surviving replica's arcs never moved, so neither
                // did its keys.
                prop_assert_eq!(after, before);
            }
        }
        let bound = 2.0 / n as f64;
        let fraction = remapped as f64 / keys as f64;
        prop_assert!(
            fraction <= bound,
            "removing 1 of {} replicas remapped {:.4} of keys (bound {:.4})",
            n, fraction, bound
        );
    }

    /// Determinism across processes: two rings built independently from
    /// the same replica ids — even in reverse insertion order — route
    /// all 10k keys identically. The points derive from the id strings
    /// through the same FNV/splitmix primitives the gateway router
    /// uses, never from addresses or insertion order.
    #[test]
    fn independently_built_rings_agree_on_every_key(n in 2usize..8) {
        let ids: Vec<String> = (0..n).map(|i| format!("gw-{i}")).collect();
        let forward = Ring::new(ids.iter().enumerate().map(|(ix, id)| (ix, id.as_str())));
        let reverse = Ring::new(
            ids.iter().enumerate().rev().map(|(ix, id)| (ix, id.as_str())),
        );
        for i in 0..10_000 {
            let key = format!("client-{i}");
            prop_assert_eq!(forward.replica_for(&key), reverse.replica_for(&key));
        }
    }
}

// ---------------------------------------------------------------------
// Transparency
// ---------------------------------------------------------------------

#[test]
fn fleet_responses_are_byte_identical_to_direct_replica_responses() {
    let engine = engine_with(vec![(1, tiny_model(1))]);
    let (gateway, replica) = spawn_gateway(engine, single_route_router(1, None), "gw-0");
    let direct_addr = replica.addr;
    let fleet = Fleet::spawn(vec![replica], default_fleet_config()).expect("spawn fleet");

    // Saturate the replica's embedding cache first: `cache_hits` in the
    // response depends on cache state, so byte-identity is asserted
    // between *steady-state* responses.
    let compare = compare_line("client-bits");
    let rank = Json::obj(vec![
        ("op", Json::str("rank")),
        ("client", Json::str("client-bits")),
        (
            "candidates",
            Json::Arr(vec![Json::str(SLOW), Json::str(FAST)]),
        ),
    ])
    .to_string();
    let _ = raw_exchange(direct_addr, &compare);
    let _ = raw_exchange(direct_addr, &rank);

    for line in [&compare, &rank] {
        let direct = raw_exchange(direct_addr, line);
        let through_fleet = raw_exchange(fleet.addr(), line);
        assert_eq!(
            direct, through_fleet,
            "fleet response differs from direct replica response"
        );
        assert!(direct.contains(r#""ok":true"#), "response: {direct}");
    }

    fleet.shutdown_and_join().expect("fleet drain");
    gateway.shutdown_and_join().expect("gateway drain");
}

#[test]
fn http_front_serves_probes_metrics_and_scored_verbs() {
    let engine = engine_with(vec![(1, tiny_model(1))]);
    let (gateway, replica) = spawn_gateway(engine, single_route_router(1, None), "gw-0");
    let replica_http = replica.http_addr;
    let fleet = Fleet::spawn(
        vec![replica],
        FleetConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            ..default_fleet_config()
        },
    )
    .expect("spawn fleet");
    let http_addr = fleet.http_addr().expect("fleet http addr");
    wait_until("fleet accepting", Duration::from_secs(5), || {
        fleet.handle().accepting()
    });

    let mut http = HttpGatewayClient::connect(http_addr).expect("connect http");
    http.set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    assert_eq!(http.get("/healthz").expect("healthz").status, 200);
    let ready = http.get("/readyz").expect("readyz");
    assert_eq!(ready.status, 200);
    assert_eq!(ready.body, "ready\n");
    let metrics = http.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("ccsa_fleet_ring_members 1"));
    assert!(metrics.body.contains("ccsa_fleet_requests_total"));

    // The scored verbs go through the same data plane as TCP, so the
    // HTTP body is the replica's response line — byte-identical to the
    // replica's own HTTP body for the same request.
    let body = Json::obj(vec![
        ("client", Json::str("client-http")),
        ("first", Json::str(SLOW)),
        ("second", Json::str(FAST)),
    ])
    .to_string();
    let mut replica_client = HttpGatewayClient::connect(replica_http).expect("connect replica");
    replica_client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let _ = replica_client
        .post("/v1/compare", &body, None)
        .expect("warm");
    let direct = replica_client
        .post("/v1/compare", &body, None)
        .expect("direct");
    let through_fleet = http
        .post("/v1/compare", &body, None)
        .expect("fleet compare");
    assert_eq!(through_fleet.status, 200);
    assert_eq!(direct.body, through_fleet.body);

    // A body naming a different op must not ride the scored endpoint
    // into the data plane: it would reach a replica from the fleet's
    // own (loopback) address, waving a mutating verb past the
    // replica's loopback gate — and hedged on top.
    let smuggled = http
        .post("/v1/compare", r#"{"op":"shutdown"}"#, None)
        .expect("smuggled op");
    assert_eq!(smuggled.status, 400, "body: {}", smuggled.body);
    // A body that names the endpoint's own op is still fine, and
    // neither the replica nor the fleet drained.
    let explicit_op = format!(
        r#"{{"op":"compare",{}"#,
        body.strip_prefix('{').expect("object body")
    );
    let explicit = http
        .post("/v1/compare", &explicit_op, None)
        .expect("explicit op");
    assert_eq!(explicit.status, 200, "body: {}", explicit.body);
    assert_eq!(explicit.body, direct.body);

    let stats = http.get("/v1/fleet").expect("fleet stats");
    assert_eq!(stats.status, 200);
    let stats = json::parse(&stats.body).expect("stats json");
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));

    fleet.shutdown_and_join().expect("fleet drain");
    gateway.shutdown_and_join().expect("gateway drain");
}

// ---------------------------------------------------------------------
// Reliability
// ---------------------------------------------------------------------

#[test]
fn killing_one_replica_under_load_is_invisible_to_clients() {
    // Two replicas with the *same* model, so any replica's answer is
    // correct; the prober is off, so every request for a dead replica's
    // keys must succeed purely via transparent failover.
    let (gw_a, replica_a) = spawn_gateway(
        engine_with(vec![(1, tiny_model(1))]),
        single_route_router(1, None),
        "gw-a",
    );
    let (gw_b, replica_b) = spawn_gateway(
        engine_with(vec![(1, tiny_model(1))]),
        single_route_router(1, None),
        "gw-b",
    );
    let fleet =
        Fleet::spawn(vec![replica_a, replica_b], default_fleet_config()).expect("spawn fleet");

    let send = |i: usize| {
        let response = raw_exchange(fleet.addr(), &compare_line(&format!("client-{i}")));
        assert!(
            response.contains(r#""ok":true"#),
            "client-visible error at request {i}: {response}"
        );
    };
    for i in 0..40 {
        send(i);
    }
    gw_a.shutdown_and_join().expect("gateway a drain");
    for i in 40..140 {
        send(i);
    }

    let stats = fleet_stats(fleet.addr());
    let failovers = stats.get("failovers").and_then(Json::as_f64).unwrap();
    assert!(
        failovers >= 1.0,
        "expected at least one transparent failover, stats: {stats}"
    );

    fleet.shutdown_and_join().expect("fleet drain");
    gw_b.shutdown_and_join().expect("gateway b drain");
}

#[test]
fn prober_ejects_dead_replicas_and_restores_recovered_ones() {
    let (gw_a, replica_a) = spawn_gateway(
        engine_with(vec![(1, tiny_model(1))]),
        single_route_router(1, None),
        "gw-a",
    );
    let (gw_b, replica_b) = spawn_gateway(
        engine_with(vec![(1, tiny_model(1))]),
        single_route_router(1, None),
        "gw-b",
    );
    let a_tcp = replica_a.addr;
    let a_http = replica_a.http_addr;
    let fleet = Fleet::spawn(
        vec![replica_a, replica_b],
        FleetConfig {
            probe_interval: Some(Duration::from_millis(30)),
            probe_rise: 2,
            probe_fall: 2,
            probe_timeout: Duration::from_millis(500),
            ..FleetConfig::default()
        },
    )
    .expect("spawn fleet");

    let ring_members = || {
        fleet_stats(fleet.addr())
            .get("ring_members")
            .and_then(Json::as_f64)
            .unwrap() as usize
    };
    wait_until("both replicas on the ring", Duration::from_secs(10), || {
        ring_members() == 2
    });

    gw_a.shutdown_and_join().expect("gateway a drain");
    wait_until("dead replica ejected", Duration::from_secs(10), || {
        ring_members() == 1
    });

    // Resurrect a gateway on the same addresses: the prober must
    // restore it after `rise` consecutive healthy probes.
    let resurrected = Gateway::spawn(
        engine_with(vec![(1, tiny_model(1))]),
        single_route_router(1, None),
        GatewayConfig {
            addr: a_tcp.to_string(),
            http_addr: Some(a_http.to_string()),
            ..GatewayConfig::default()
        },
    )
    .expect("respawn gateway");
    wait_until(
        "recovered replica restored",
        Duration::from_secs(10),
        || ring_members() == 2,
    );

    let stats = fleet_stats(fleet.addr());
    assert!(stats.get("ejections").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(stats.get("restores").and_then(Json::as_f64).unwrap() >= 1.0);

    fleet.shutdown_and_join().expect("fleet drain");
    resurrected.shutdown_and_join().expect("resurrected drain");
    gw_b.shutdown_and_join().expect("gateway b drain");
}

#[test]
fn hedge_fires_at_the_deadline_and_the_fast_replica_wins() {
    // One "replica" accepts connections but never answers; the other is
    // a real gateway. A key owned by the black hole must still get its
    // answer — from the hedge attempt on the healthy replica.
    let black_hole = TcpListener::bind("127.0.0.1:0").expect("bind black hole");
    let black_hole_addr = black_hole.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in black_hole.incoming() {
            match stream {
                Ok(s) => held.push(s), // accept and go silent
                Err(_) => return,
            }
        }
    });

    let (gateway, replica_fast) = spawn_gateway(
        engine_with(vec![(1, tiny_model(1))]),
        single_route_router(1, None),
        "gw-fast",
    );
    let replica_slow = ReplicaConfig {
        id: "gw-slow".to_string(),
        addr: black_hole_addr,
        http_addr: black_hole_addr,
    };

    // Find a client key the ring assigns to the black hole, using the
    // same deterministic construction the fleet uses.
    let ring = Ring::new([(0, "gw-slow"), (1, "gw-fast")]);
    let stuck_key = (0..10_000)
        .map(|i| format!("client-{i}"))
        .find(|k| ring.replica_for(k) == Some(0))
        .expect("some key maps to the slow replica");

    let fleet = Fleet::spawn(
        vec![replica_slow, replica_fast],
        FleetConfig {
            hedge_after: Some(Duration::from_millis(50)),
            forward_timeout: Duration::from_secs(2),
            ..default_fleet_config()
        },
    )
    .expect("spawn fleet");

    let response = raw_exchange(fleet.addr(), &compare_line(&stuck_key));
    assert!(
        response.contains(r#""ok":true"#),
        "hedged request failed: {response}"
    );
    let stats = fleet_stats(fleet.addr());
    assert!(stats.get("hedges").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(stats.get("hedge_wins").and_then(Json::as_f64).unwrap() >= 1.0);

    fleet.shutdown_and_join().expect("fleet drain");
    gateway.shutdown_and_join().expect("gateway drain");
}

// ---------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------

#[test]
fn reload_routes_at_the_fleet_reaches_every_replica_not_one() {
    // The fleet answers reload_routes itself, through the control
    // plane: validate once, push to ALL replicas. Forwarded raw it
    // would repoint only the sender's sticky replica, desyncing the
    // set.
    let mut gateways = Vec::new();
    let mut replicas = Vec::new();
    for i in 0..2 {
        let engine = engine_with(vec![(1, tiny_model(1)), (2, tiny_model(2))]);
        let (gateway, replica) =
            spawn_gateway(engine, single_route_router(1, None), &format!("gw-{i}"));
        gateways.push(gateway);
        replicas.push(replica);
    }
    let replica_addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr).collect();
    let fleet = Fleet::spawn(replicas, default_fleet_config()).expect("spawn fleet");

    let response = raw_exchange(
        fleet.addr(),
        r#"{"op":"reload_routes","routes":[{"model":"default","version":2,"weight":1.0}],"shadow":null}"#,
    );
    let v = json::parse(&response).expect("reload json");
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "response: {response}");
    assert_eq!(
        v.get("table_generation").and_then(Json::as_f64),
        Some(1.0),
        "response: {response}"
    );

    for addr in replica_addrs {
        let routes = json::parse(&raw_exchange(addr, r#"{"op":"routes"}"#)).expect("routes json");
        let table = routes.get("routes").and_then(Json::as_arr).unwrap();
        assert_eq!(table.len(), 1, "routes: {routes}");
        assert_eq!(
            table[0].get("version").and_then(Json::as_f64),
            Some(2.0),
            "routes: {routes}"
        );
    }

    // An invalid table is rejected by the fleet's own validation before
    // any replica sees it.
    let rejected = raw_exchange(fleet.addr(), r#"{"op":"reload_routes","routes":[]}"#);
    assert!(
        rejected.contains("reload_routes rejected"),
        "response: {rejected}"
    );

    fleet.shutdown_and_join().expect("fleet drain");
    for gateway in gateways {
        gateway.shutdown_and_join().expect("gateway drain");
    }
}

struct CanaryRig {
    fleet: SpawnedFleet,
    gateways: Vec<ccsa_gateway::SpawnedGateway>,
    table_path: std::path::PathBuf,
    dir: std::path::PathBuf,
}

/// Two replicas serving v1 with v2 mirrored on every request, a table
/// file seeded to match, and a fast-ticking canary controller.
fn canary_rig(name: &str, candidate_model: TrainedModel) -> CanaryRig {
    let dir = std::env::temp_dir().join(format!("ccsa-fleet-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let table_path = dir.join("routes.json");
    std::fs::write(
        &table_path,
        r#"{"routes":[{"model":"default","version":1,"weight":1.0}],"shadow":{"model":"default","version":2,"fraction":1.0}}"#,
    )
    .expect("seed table");

    let mut gateways = Vec::new();
    let mut replicas = Vec::new();
    for i in 0..2 {
        let engine = engine_with(vec![(1, tiny_model(1)), (2, candidate_model.clone())]);
        let (gateway, replica) = spawn_gateway(
            engine,
            single_route_router(1, Some((2, 1.0))),
            &format!("gw-{i}"),
        );
        gateways.push(gateway);
        replicas.push(replica);
    }
    let fleet = Fleet::spawn(
        replicas,
        FleetConfig {
            routes_file: Some(table_path.clone()),
            table_poll: Duration::from_millis(25),
            canary: Some(CanaryConfig {
                interval: Duration::from_millis(40),
                bake_ticks: 2,
                rollback_after: 2,
                max_delta_p99_ms: 10_000.0,
                max_delta_error_rate: 0.02,
            }),
            ..default_fleet_config()
        },
    )
    .expect("spawn fleet");
    CanaryRig {
        fleet,
        gateways,
        table_path,
        dir,
    }
}

impl CanaryRig {
    fn table(&self) -> TableSpec {
        parse_table(&std::fs::read_to_string(&self.table_path).expect("read table"))
            .expect("valid table")
    }

    fn canary_phase(&self) -> String {
        fleet_stats(self.fleet.addr())
            .get("canary")
            .and_then(|c| c.get("phase"))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string()
    }

    fn drive_traffic(&self, round: usize) {
        for i in 0..8 {
            let _ = raw_exchange(
                self.fleet.addr(),
                &compare_line(&format!("client-{round}-{i}")),
            );
        }
    }

    fn teardown(self) {
        self.fleet.shutdown_and_join().expect("fleet drain");
        for gateway in self.gateways {
            gateway.shutdown_and_join().expect("gateway drain");
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn canary_promotes_through_the_full_ramp_without_restarting_gateways() {
    let rig = canary_rig("promote", tiny_model(2));
    let replica_addr = rig.gateways[0].addr();

    // Keep traffic (and therefore shadow deltas) flowing while the
    // controller bakes and ramps. The same two gateway processes serve
    // throughout — promotion happens purely via reload_routes pushes.
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed() < Duration::from_secs(60) {
        rig.drive_traffic(round);
        round += 1;
        if rig.canary_phase() == "promoted" {
            break;
        }
    }
    assert_eq!(rig.canary_phase(), "promoted", "canary never promoted");

    // The table file now names the candidate as the sole route.
    wait_until("promoted table on disk", Duration::from_secs(5), || {
        let table = rig.table();
        table.shadow.is_none()
            && table.routes.len() == 1
            && table.routes[0].0.version == Some(2)
            && (table.routes[0].1 - 1.0).abs() < 1e-9
    });

    // The replicas (same processes) observed the whole ramp as reloads.
    let routes = json::parse(&raw_exchange(replica_addr, r#"{"op":"routes"}"#)).unwrap();
    let generation = routes
        .get("reload_generation")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        generation >= 4.0,
        "expected one reload per ramp step, routes: {routes}"
    );
    let table = routes.get("routes").and_then(Json::as_arr).unwrap();
    assert_eq!(table.len(), 1, "routes: {routes}");
    assert_eq!(
        table[0].get("version").and_then(Json::as_f64),
        Some(2.0),
        "routes: {routes}"
    );

    rig.teardown();
}

#[test]
fn canary_rolls_back_a_bad_candidate_and_records_why() {
    // The candidate's encoder fails at serve time, so the shadow arm's
    // error-rate delta spikes; the controller must zero the candidate
    // in the table (keeping it as the record) and stop the mirror.
    let rig = canary_rig("rollback", corrupt_model());

    let start = Instant::now();
    let mut round = 0;
    while start.elapsed() < Duration::from_secs(60) {
        rig.drive_traffic(round);
        round += 1;
        if rig.canary_phase() == "rolled_back" {
            break;
        }
    }
    assert_eq!(
        rig.canary_phase(),
        "rolled_back",
        "canary never rolled back"
    );

    let reason = fleet_stats(rig.fleet.addr())
        .get("canary")
        .and_then(|c| c.get("reason"))
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    assert!(
        reason.contains("delta_error_rate"),
        "rollback reason should name the tripped threshold: {reason:?}"
    );

    wait_until("rolled-back table on disk", Duration::from_secs(5), || {
        let table = rig.table();
        let zeroed = table
            .routes
            .iter()
            .any(|(s, w)| s.version == Some(2) && *w == 0.0);
        let primary_intact = table
            .routes
            .iter()
            .any(|(s, w)| s.version == Some(1) && *w > 0.0);
        table.shadow.is_none() && zeroed && primary_intact
    });

    // Replicas received only the positive-weight route.
    let routes = json::parse(&raw_exchange(rig.gateways[0].addr(), r#"{"op":"routes"}"#)).unwrap();
    let table = routes.get("routes").and_then(Json::as_arr).unwrap();
    assert_eq!(table.len(), 1, "routes: {routes}");
    assert_eq!(table[0].get("version").and_then(Json::as_f64), Some(1.0));

    rig.teardown();
}

// ---------------------------------------------------------------------
// One HTTP door: the same hostile / awkward clients at both tiers
// ---------------------------------------------------------------------

/// A raw HTTP client: no client library in the path, so the test owns
/// every write boundary and sees every byte of the reply.
struct RawHttp(BufReader<TcpStream>);

impl RawHttp {
    fn connect(addr: SocketAddr) -> RawHttp {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream.set_nodelay(true).expect("nodelay");
        RawHttp(BufReader::new(stream))
    }

    fn send(&mut self, bytes: &str) {
        // A door that has already answered and closed may reset a late
        // write; the row's verdict is the reply, read next.
        let _ = self.0.get_mut().write_all(bytes.as_bytes());
    }

    /// Reads one `Content-Length`-framed response: `(head, body)`.
    fn response(&mut self) -> Result<(String, String), String> {
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            match self.0.read_line(&mut head) {
                Ok(0) => return Err(format!("connection closed after head {head:?}")),
                Ok(_) => {}
                Err(e) => return Err(format!("no reply ({e}) after head {head:?}")),
            }
        }
        let length = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .map_or(Ok(0), |(_, v)| v.trim().parse::<usize>())
            .map_err(|e| format!("bad Content-Length in {head:?}: {e}"))?;
        let mut body = vec![0u8; length];
        self.0
            .read_exact(&mut body)
            .map_err(|e| format!("body cut short ({e}) after head {head:?}"))?;
        Ok((head, String::from_utf8_lossy(&body).into_owned()))
    }

    /// The next response must carry `status`.
    fn expect(&mut self, status: u16) -> Result<String, String> {
        let (head, body) = self.response()?;
        if head.starts_with(&format!("HTTP/1.1 {status} ")) {
            Ok(head)
        } else {
            Err(format!("wanted {status}, got {head:?} {body:?}"))
        }
    }

    /// The door must have closed the connection.
    fn expect_eof(&mut self) -> Result<(), String> {
        let mut rest = Vec::new();
        match self.0.read_to_end(&mut rest) {
            Ok(0) => Ok(()),
            // Closing with unread request bytes resets instead of FIN.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => Ok(()),
            other => Err(format!("wanted EOF, got {other:?} {rest:?}")),
        }
    }
}

/// Runs the hostile / awkward-client table against one HTTP door whose
/// tier was started with `max_connections = cap`, and panics with every
/// row that failed.
fn http_door_table(door: &str, addr: SocketAddr, cap: usize) {
    let pause = 3 * POLL_INTERVAL;
    let body = Json::obj(vec![
        ("client", Json::str("door-table")),
        ("first", Json::str(SLOW)),
        ("second", Json::str(FAST)),
    ])
    .to_string();
    let post = |extra: &str| {
        format!(
            "POST /v1/compare HTTP/1.1\r\nHost: t\r\n{extra}Content-Length: {}\r\n\r\n",
            body.len()
        )
    };

    type Row<'a> = (&'a str, Box<dyn Fn() -> Result<(), String> + 'a>);
    let rows: Vec<Row<'_>> = vec![
        (
            "a request head split across two writes is one request",
            Box::new(|| {
                let mut client = RawHttp::connect(addr);
                client.send("GET /rea");
                std::thread::sleep(pause);
                client.send("dyz HTTP/1.1\r\nHost: t\r\n\r\n");
                client.expect(200).map(drop)
            }),
        ),
        (
            "a body that arrives after its head is waited for",
            Box::new(|| {
                let mut client = RawHttp::connect(addr);
                client.send(&post(""));
                std::thread::sleep(pause);
                client.send(&body);
                client.expect(200).map(drop)
            }),
        ),
        (
            "Expect: 100-continue gets the go-ahead, then the answer",
            Box::new(|| {
                let mut client = RawHttp::connect(addr);
                client.send(&post("Expect: 100-continue\r\n"));
                client.expect(100)?;
                client.send(&body);
                client.expect(200).map(drop)
            }),
        ),
        (
            "a 17 KiB header line is refused with 431 and the connection closed",
            Box::new(|| {
                let mut client = RawHttp::connect(addr);
                let big = "a".repeat(17 << 10);
                client.send(&format!("GET /healthz HTTP/1.1\r\nX-Big: {big}\r\n\r\n"));
                client.expect(431)?;
                client.expect_eof()
            }),
        ),
        (
            "a 9 MB Content-Length is refused with 413",
            Box::new(|| {
                let mut client = RawHttp::connect(addr);
                client.send("POST /v1/compare HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n");
                client.expect(413).map(drop)
            }),
        ),
        (
            "a garbage request line is answered with 400",
            Box::new(|| {
                let mut client = RawHttp::connect(addr);
                client.send("NOT-HTTP\r\n\r\n");
                client.expect(400).map(drop)
            }),
        ),
        (
            "Connection: close is echoed and honoured",
            Box::new(|| {
                let mut client = RawHttp::connect(addr);
                client.send("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
                let head = client.expect(200)?;
                if !head.to_ascii_lowercase().contains("connection: close") {
                    return Err(format!("reply does not say it closes: {head:?}"));
                }
                client.expect_eof()
            }),
        ),
        (
            "the connection past max_connections gets a complete 503",
            Box::new(|| {
                // Fill the budget with idle keep-alive connections, each
                // proven admitted by a round trip (earlier rows' sessions
                // may still be letting go of their slots).
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut held = Vec::new();
                while held.len() < cap {
                    let mut client = RawHttp::connect(addr);
                    client.send("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
                    match client.expect(200) {
                        Ok(_) => held.push(client),
                        Err(e) if Instant::now() > deadline => {
                            return Err(format!("could not fill the budget: {e}"))
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
                // The refusal arrives unsolicited, whole, and then EOF.
                let mut refused = RawHttp::connect(addr);
                let (head, body) = refused.response()?;
                if !head.starts_with("HTTP/1.1 503 ") || !body.contains("capacity") {
                    return Err(format!("wanted a 503 at capacity, got {head:?} {body:?}"));
                }
                refused.expect_eof()
            }),
        ),
    ];

    let failures: Vec<String> = rows
        .iter()
        .filter_map(|(name, row)| row().err().map(|e| format!("  {door}: {name}: {e}")))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} rows failed at the {door}'s HTTP door:\n{}",
        failures.len(),
        rows.len(),
        failures.join("\n")
    );
}

#[test]
fn gateway_http_door_passes_the_hostile_client_table() {
    const CAP: usize = 4;
    let gateway = Gateway::spawn(
        engine_with(vec![(1, tiny_model(1))]),
        single_route_router(1, None),
        GatewayConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            max_connections: CAP,
            ..GatewayConfig::default()
        },
    )
    .expect("spawn gateway");
    wait_until("gateway accepting", Duration::from_secs(5), || {
        gateway.handle().accepting()
    });
    http_door_table("gateway", gateway.http_addr().expect("http addr"), CAP);
    gateway.shutdown_and_join().expect("gateway drain");
}

#[test]
fn fleet_http_door_passes_the_hostile_client_table() {
    const CAP: usize = 4;
    let engine = engine_with(vec![(1, tiny_model(1))]);
    let (gateway, replica) = spawn_gateway(engine, single_route_router(1, None), "gw-0");
    let fleet = Fleet::spawn(
        vec![replica],
        FleetConfig {
            http_addr: Some("127.0.0.1:0".to_string()),
            max_connections: CAP,
            ..default_fleet_config()
        },
    )
    .expect("spawn fleet");
    wait_until("fleet accepting", Duration::from_secs(5), || {
        fleet.handle().accepting()
    });
    http_door_table("fleet", fleet.http_addr().expect("http addr"), CAP);
    fleet.shutdown_and_join().expect("fleet drain");
    gateway.shutdown_and_join().expect("gateway drain");
}
