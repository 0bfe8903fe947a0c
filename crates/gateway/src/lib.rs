//! ccsa-gateway — the network front door for CCSA serving.
//!
//! [`ccsa_serve`](ccsa_serve) made trained comparators servable
//! in-process and over stdio: one client, one model route. This crate
//! lifts the same JSON-lines protocol onto TCP and adds the traffic
//! layer a multi-user deployment needs: many keep-alive sessions,
//! admission control, weighted A/B routing across the versioned model
//! registry, shadow traffic for candidate models, per-route rolling
//! stats, and graceful drain. One process is one replica; `ccsa-fleet`
//! stacks N of them behind a single front tier (consistent-hash ring,
//! failover + hedging, `/readyz` ejection) and drives the
//! `reload_routes` table swaps from its canary controller.
//!
//! # Architecture
//!
//! ```text
//!          ┌────────────────────────────────────────────────┐
//!          │ ccsa-fleet front tier (optional): ring · hedge │
//!          │ · /readyz prober · reload_routes table pushes  │
//!          └──────┬───────────────────────────┬─────────────┘
//!    direct │     │ raw lines     direct │    │ POSTs
//!  JSON-lines clients (keep-alive     HTTP clients (curl, LBs,
//!  TCP, "client" sticky key)          Prometheus)
//!    │ │ │                              │ │ │
//!  ┌─▼─▼─▼──────────────────────────────▼─▼─▼──────────────────────┐
//!  │ transport   one accept loop · thread per conn · one conn cap  │
//!  │   across both doors · idle/slowloris clock · drain on stop    │
//!  │   JSON-lines session: 8 MiB line cap · HTTP/1.1 session: head │
//!  │   + body caps, keep-alive, chunked rank, 4xx on bad framing   │
//!  ├────────────────────────────┐    ┌─────────────────────────────┤
//!  │ server   verbs · drain on  │    │ http   /healthz /readyz     │
//!  │   SIGTERM / `shutdown` ·   │    │   /metrics  POST /v1/… ·    │
//!  │   reload_routes            │    │   503 on drain, outlives    │
//!  │                            │    │   TCP by grace              │
//!  └──────────┬─────────────────┘    └─────┬────────────────┬──────┘
//!             │  serve_scored(request_id)  │                │scrape
//!  ┌──────────▼────────────────────────────▼─────────┐ ┌────▼──────┐
//!  │ router   sticky hash(client) → weighted route;  │ │ metrics   │
//!  │          shadow mirroring                       │ │ registry  │
//!  ├─────────────────────────────────────────────────┤ │ (in ccsa- │
//!  │ limit    per-route token buckets: shed before   │ │  serve)   │
//!  │          the encode queue                       │ │ counters· │
//!  ├─────────────────────────────────────────────────┤ │ gauges·   │
//!  │ stats    per-route + shadow: requests, errors,  ◄─► histo-    │
//!  │          cache hit rate, rolling p50/p99,       │ │ grams·    │
//!  │          queue depth → `routes` verb — counters │ │ collect-  │
//!  │          ARE registry series (one atomics set)  │ │ ors       │
//!  ├─────────────────────────────────────────────────┤ │           │
//!  │ trace    request IDs · sampled JSON-lines sink  │ │           │
//!  │          with per-stage latency split           │ │           │
//!  ├─────────────────────────────────────────────────┤ │           │
//!  │ ccsa-serve ServeEngine   RwLock registry →      ◄─►(stage     │
//!  │          striped LRU cache → per-model encode   │ │ histograms│
//!  │          shards with work stealing              │ │ + stats   │
//!  └─────────────────────────────────────────────────┘ │ collector)│
//!                                                      └───────────┘
//! ```
//!
//! * [`router`] — the weighted table, sticky hashing, shadow sampling;
//! * [`limit`] — per-route token-bucket rate limiting;
//! * [`transport`] — what both doors (and `ccsa-fleet`'s two) run on:
//!   the accept loop, the connection budget, the JSON-lines and HTTP/1.1
//!   sessions, the loopback gate, and the listener lifecycle (bind,
//!   probes, drain flag, background spawn, the binaries' port files);
//! * [`server`] — the JSON-lines verbs, drain, and the transport-shared
//!   scored path ([`server::Gateway`]);
//! * [`http`] — the HTTP/1.1 front door's routes: the scored verbs, with
//!   responses bit-identical to TCP's, and the stats documents;
//! * [`stats`] — per-route rolling counters and latency percentiles,
//!   backed by registry series;
//! * [`trace`] — request IDs and the sampled JSON-lines trace sink;
//! * [`client`] — small blocking [`GatewayClient`] /
//!   [`HttpGatewayClient`] for tests, benches and examples;
//! * [`signal`] — SIGTERM observation (two-line FFI, no `libc` crate).
//!
//! Protocol additions over plain `serve`: requests may carry a
//! `"client"` key (the sticky-routing identity), the `routes` verb
//! reports the table with live per-route stats, and `shutdown` drains
//! the whole gateway instead of one stdio loop.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ccsa_gateway::{Gateway, GatewayClient, GatewayConfig, Router};
//! use ccsa_serve::{ServeConfig, ServeEngine};
//! use ccsa_model::comparator::{Comparator, EncoderConfig};
//! use ccsa_model::pipeline::TrainedModel;
//! use ccsa_nn::param::Params;
//! use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // An engine serving one (untrained) comparator…
//! let config = EncoderConfig::TreeLstm(TreeLstmConfig {
//!     embed_dim: 6, hidden: 6, layers: 1,
//!     direction: Direction::Uni, sigmoid_candidate: false,
//! });
//! let mut params = Params::new();
//! let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(0));
//! let engine = Arc::new(ServeEngine::with_model(
//!     TrainedModel { comparator, params },
//!     &ServeConfig::default(),
//! ));
//!
//! // …behind a TCP gateway on an ephemeral port.
//! let gateway = Gateway::spawn(engine, Router::single_default(), GatewayConfig::default())?;
//! let mut client = GatewayClient::connect(gateway.addr())?;
//! let verdict = client.compare(
//!     "int main() { for (int i = 0; i < 9; i++) { } return 0; }",
//!     "int main() { return 0; }",
//!     Some("doc-example"),
//! )?;
//! assert!((0.0..=1.0).contains(&verdict.prob_first_slower));
//! gateway.shutdown_and_join()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod http;
pub mod limit;
pub mod router;
pub mod server;
pub mod signal;
pub mod stats;
pub mod trace;
pub mod transport;

pub use client::{ClientError, CompareReply, GatewayClient, HttpGatewayClient};
pub use limit::{RateLimit, TokenBucket};
pub use router::{selectors_match, Route, Router, RouterConfigError, ShadowRoute};
pub use server::{check_limits, Gateway, GatewayConfig, GatewayHandle, SpawnedGateway};
pub use stats::{RouteStats, RouteStatsSnapshot};
pub use trace::{generate_request_id, TraceRecord, TraceSink};
pub use transport::MAX_LINE_BYTES;
