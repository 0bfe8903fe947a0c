//! ccsa-serve — batched, cache-backed inference serving for CCSA models.
//!
//! Training and evaluation answer "can the model predict?"; this crate
//! answers "can it *serve*?": given trained comparators persisted by
//! [`ccsa_model::persist`], it exposes an in-process engine (and a
//! JSON-lines binary) that scores compare and ranking requests at
//! throughput, not one forward pass at a time.
//!
//! # Architecture
//!
//! ```text
//!                              ccsa-fleet front tier: N gateway
//!                              replicas (consistent-hash ring ·
//!                              hedging · canary table control)
//!                                        │
//!      stdio `serve` bin       TCP `gateway` bin (ccsa-gateway)
//!      (one client)            JSON-lines │ HTTP/1.1 front door:
//!                 │            sessions · │ /v1/compare · /v1/rank
//!                 │            A/B routes │ /healthz · /readyz
//!                 │            · shadow   │ /metrics (Prometheus)
//!                 │                 │     │
//!            requests (compare / rank / stats / routes / shutdown)
//!                          │
//!                    ┌─────▼──────┐      ┌─────────────────┐
//!                    │ ServeEngine│◄─────┤ MetricsRegistry │
//!                    └─┬───────┬──┘scrape│ counters·gauges │
//!                      │       │  -time  │ ·histograms     │
//!                      │       │  collect│ (lock-free; one │
//!                      │       │         │  source for     │
//!                      │       │         │  stats/routes/  │
//!                      │       │         │  /metrics)      │
//!                      │       │         └─────────────────┘
//!        cache hit ┌───▼─────┐ ┌▼─────────────┐ cache miss
//!                  │ striped │ │  EncodePool  │  per-model shard queues
//!                  │  LRU    │ │ ┌──┐┌──┐┌──┐ │  (bounded sub-queue per
//!                  │ ░│░│░│░ │ │ │m1││m2││m3│ │   name@vN registration)
//!                  │ (N locks│ │ └┬─┘└┬─┘└┬─┘ │
//!                  │ 1/stripe│ │  ▼   ▼   ▼   │  workers prefer their
//!                  └─┬─▲─┬───┘ │ workers+steal│  shards, steal when idle
//!     snapshot_to/   │ │ │fill └─▲────┬───────┘
//!     load_from ◄────┘ │ └───────┘    │ latent codes
//!     (warm restarts,  │ ┌────────────▼───┐
//!      stripe-count    │ │ classifier head│  2·d weights — cheap
//!      agnostic)       │ └──────┬─────────┘
//!                      │        │ probabilities · ranking scores
//! ```
//!
//! * [`registry`] — named, versioned models ([`ModelRegistry`]), loaded
//!   from `model-v<N>.ccsm` directories or registered in-process; each
//!   registration carries its own cache hit/miss counters so A/B routes
//!   are observable separately;
//! * [`cache`] — an O(1) LRU from canonical AST hash to latent code,
//!   served striped ([`ShardedCache`]: N per-stripe LRUs, one lock per
//!   stripe, capacity split evenly) so concurrent lookups never convoy
//!   on a global mutex: structurally identical resubmissions skip the
//!   encoder and pay only the classifier head; snapshot/load spills it
//!   to disk so restarts begin warm, byte-compatible across stripe
//!   counts;
//! * the source memo (`memo`, crate-private) — a bounded, striped LRU
//!   from source text to its parsed graph ahead of the parser, so a
//!   byte-identical resubmission costs a hash and a comparison instead
//!   of a lex, a parse and a flatten;
//! * [`batch`] — the sharded micro-batching queues and persistent
//!   worker pool ([`EncodePool`]): each registered model gets its own
//!   bounded sub-queue with preferred workers, idle workers steal from
//!   other shards (so a hot A/B arm cannot starve a cold one), and
//!   pending trees fuse into *level-fused* encoder forward passes
//!   (same-level nodes of every tree in a batch run as one matmul per
//!   gate — see `ccsa_nn::FusedStats`), the achieved fused width is
//!   surfaced via [`BatchStats::mean_fused_width`], and the per-shard
//!   queue depths are the transport's admission backpressure signal;
//! * [`engine`] — the [`ServeEngine`] front door tying the above
//!   together; a ranking is one classifier-head score per candidate,
//!   sorted, which every pairwise compare of the candidates agrees with;
//! * [`metrics`] — the unified [`MetricsRegistry`]: lock-free atomic
//!   counters/gauges/histograms plus scrape-time collectors, rendered as
//!   Prometheus text 0.0.4 by [`MetricsRegistry::render`]; the gateway's
//!   per-route counters and the engine's cache/queue/batch numbers live
//!   here, so the `stats`/`routes` verbs and a `/metrics` scrape always
//!   agree ([`engine_metric_families`] wires an engine in);
//! * [`proto`] + [`json`] — the JSON-lines wire protocol shared by the
//!   `serve` binary and the `ccsa-gateway` TCP transport;
//! * [`process`] — the skeleton of the `serve`, `gateway` and `fleet`
//!   binaries: one flag reader, one usage-and-exit, one model bootstrap.
//!
//! # Example
//!
//! ```
//! use ccsa_serve::{ModelSelector, ServeConfig, ServeEngine};
//! use ccsa_model::comparator::{Comparator, EncoderConfig};
//! use ccsa_model::pipeline::TrainedModel;
//! use ccsa_nn::param::Params;
//! use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Serve a (here: untrained) comparator as `default` v1.
//! let config = EncoderConfig::TreeLstm(TreeLstmConfig {
//!     embed_dim: 6, hidden: 6, layers: 1,
//!     direction: Direction::Uni, sigmoid_candidate: false,
//! });
//! let mut params = Params::new();
//! let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(0));
//! let engine = ServeEngine::with_model(
//!     TrainedModel { comparator, params },
//!     &ServeConfig::default(),
//! );
//!
//! let outcome = engine.compare(
//!     &ModelSelector::default(),
//!     "int main() { for (int i = 0; i < 9; i++) { } return 0; }",
//!     "int main() { return 0; }",
//! )?;
//! assert!((0.0..=1.0).contains(&outcome.prob_first_slower));
//! # Ok::<(), ccsa_serve::ServeError>(())
//! ```

pub mod batch;
pub mod cache;
pub mod engine;
pub mod hash;
pub mod json;
pub mod lockdep;
mod lru;
mod memo;
pub mod metrics;
pub mod process;
pub mod proto;
pub mod registry;

pub use batch::{BatchConfig, BatchStats, EncodeError, EncodePool};
pub use cache::{CacheStats, ShardedCache, SnapshotError, DEFAULT_CACHE_STRIPES};
pub use engine::{
    engine_metric_families, CompareOutcome, CompareScore, EngineStats, ModelCacheStats,
    RankOutcome, RankedCandidate, ServeConfig, ServeEngine, ServeError, StageTimings,
    MAX_RANK_CANDIDATES,
};
pub use metrics::{
    kernel_backend, Counter, Gauge, Histogram, MetricKind, MetricsRegistry, Sample, SampleFamily,
    LATENCY_BUCKETS_S,
};
pub use registry::{ModelRegistry, ModelSelector, RegistryError, ServeModel, DEFAULT_MODEL};
