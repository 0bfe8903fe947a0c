//! The serving engine: parse → cache → micro-batch encode → classify.
//!
//! [`ServeEngine`] is the in-process front door. One request travels:
//!
//! 1. **Parse** each mini-C++ source through [`ccsa_cppast`] and flatten
//!    to an [`AstGraph`] — or, for byte-identical resubmitted text, take
//!    the graph it parsed to last time from the source memo
//!    ([`crate::memo`]); structurally identical sources (by
//!    [`AstGraph::canonical_hash`]) collapse into one unit of work.
//! 2. **Cache** lookup in the LRU embedding cache, keyed by
//!    `(model, canonical hash)`. Hits skip the encoder entirely.
//! 3. **Encode** the misses through the shared [`EncodePool`] — pending
//!    trees from all in-flight requests coalesce into batched forward
//!    passes.
//! 4. **Classify** on the caller's thread: the 2·d classifier head over
//!    cached/fresh latent codes produces the slower-probability for every
//!    requested pair, or the full round-robin matrix for a ranking.
//!
//! Concurrency: no global lock sits on the hot path. The embedding
//! cache is an N-way striped LRU ([`ShardedCache`]) — a lookup locks
//! only its key's stripe, and only around the lookup itself, never
//! across encoding. The encode queue is sharded per model with work
//! stealing (see [`crate::batch`]), and the read-mostly registry sits
//! behind an `RwLock` (writes only on register/hot-swap). Two racing
//! requests may both encode the same fresh tree — duplicated work,
//! never wrong results (encoders are pure).

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::lockdep::DRwLock;
use std::time::Instant;

use ccsa_cppast::{parse_program, AstGraph, ParseError};
use ccsa_tensor::Tensor;

use crate::batch::{BatchConfig, BatchStats, EncodeError, EncodePool};
use crate::cache::{CacheStats, ShardedCache, SnapshotError};
use crate::memo::SourceMemo;
use crate::metrics::{
    Histogram, MetricKind, MetricsRegistry, Sample, SampleFamily, LATENCY_BUCKETS_S,
};
use crate::rank::{rank_from_matrix, RankedCandidate};
use crate::registry::{ModelRegistry, ModelSelector, RegistryError, ServeModel, DEFAULT_MODEL};

/// Engine construction settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// LRU capacity in latent codes (0 disables caching). The source
    /// memo ahead of the parser holds at most as many entries.
    pub cache_capacity: usize,
    /// Cache stripe count (0 = [`crate::cache::DEFAULT_CACHE_STRIPES`]).
    /// Capacity is split evenly across stripes; 1 reproduces the old
    /// single-lock cache.
    pub cache_stripes: usize,
    /// Worker-pool shape.
    pub batch: BatchConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache_capacity: 4096,
            cache_stripes: 0,
            batch: BatchConfig::default(),
        }
    }
}

/// The most candidates one ranking request may carry. Ranking is
/// O(K²) in classifier passes and matrix memory, and the request line
/// arrives from untrusted input — the cap keeps one request bounded the
/// same way the JSON/parser nesting caps do. 256 candidates is ~32k head
/// passes, far beyond any realistic "which of my solutions is fastest"
/// call.
pub const MAX_RANK_CANDIDATES: usize = 256;

/// Serving failures.
#[derive(Debug)]
pub enum ServeError {
    /// A submitted source failed to parse; the index identifies which
    /// input (0-based; for compare, 0 = first, 1 = second).
    Parse(usize, ParseError),
    /// Model resolution failed.
    Registry(RegistryError),
    /// A ranking request needs at least two candidates.
    TooFewCandidates(usize),
    /// A ranking request exceeded [`MAX_RANK_CANDIDATES`].
    TooManyCandidates(usize),
    /// The encoder failed (panicked) in the worker pool — typically a
    /// corrupt model artefact.
    Encode(EncodeError),
    /// Writing or loading an embedding-cache snapshot failed.
    Cache(SnapshotError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Parse(ix, e) => write!(f, "candidate {ix} failed to parse: {e}"),
            ServeError::Registry(e) => write!(f, "{e}"),
            ServeError::TooFewCandidates(n) => {
                write!(f, "ranking needs at least 2 candidates, got {n}")
            }
            ServeError::TooManyCandidates(n) => {
                write!(
                    f,
                    "ranking accepts at most {MAX_RANK_CANDIDATES} candidates, got {n}"
                )
            }
            ServeError::Encode(e) => write!(f, "{e}"),
            ServeError::Cache(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> ServeError {
        ServeError::Registry(e)
    }
}

impl From<EncodeError> for ServeError {
    fn from(e: EncodeError) -> ServeError {
        ServeError::Encode(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> ServeError {
        ServeError::Cache(e)
    }
}

/// Wall-clock seconds one request spent in each engine stage.
/// Returned by the `_traced` request variants so transports can record
/// per-stage latency histograms and per-request trace entries; the
/// engine also observes them into `ccsa_stage_duration_seconds{stage}`
/// when a registry is attached ([`ServeEngine::attach_metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Parsing and AST flattening.
    pub parse_s: f64,
    /// Cache lookups plus post-encode cache fill.
    pub cache_s: f64,
    /// Blocking wait on the encode pool (queueing + forward passes).
    pub encode_s: f64,
    /// Classifier-head passes on the caller's thread.
    pub classify_s: f64,
}

impl StageTimings {
    /// Total engine-side seconds (excludes transport parse/serialise).
    pub fn total_s(&self) -> f64 {
        self.parse_s + self.cache_s + self.encode_s + self.classify_s
    }
}

/// The verdict for one compared pair.
#[derive(Debug, Clone)]
pub struct CompareOutcome {
    /// Model probability that the *first* program is the slower one.
    pub prob_first_slower: f32,
    /// Resolved model name.
    pub model: String,
    /// Resolved model version.
    pub version: u32,
    /// How many of the pair's trees came from the embedding cache (0–2).
    pub cache_hits: usize,
}

impl CompareOutcome {
    /// `true` when the model believes the first program is the slower one.
    pub fn first_is_slower(&self) -> bool {
        self.prob_first_slower >= 0.5
    }
}

/// The outcome of [`ServeEngine::compare_graphs`] — like
/// [`CompareOutcome`] minus the owned model name, so producing one
/// performs no heap allocation (the zero-alloc steady-state contract;
/// use [`ServeEngine::resolve_coordinates`] when the name is needed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareScore {
    /// Model probability that the *first* program is the slower one.
    pub prob_first_slower: f32,
    /// Resolved model version.
    pub version: u32,
    /// How many of the pair's trees came from the embedding cache (0–2).
    pub cache_hits: usize,
}

impl CompareScore {
    /// `true` when the model believes the first program is the slower one.
    pub fn first_is_slower(&self) -> bool {
        self.prob_first_slower >= 0.5
    }
}

/// The result of ranking K candidates.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// Candidates ordered fastest-first.
    pub ranking: Vec<RankedCandidate>,
    /// Resolved model name.
    pub model: String,
    /// Resolved model version.
    pub version: u32,
    /// Candidates served from the embedding cache.
    pub cache_hits: usize,
    /// Distinct trees encoded fresh for this request (duplicated
    /// candidates collapse into one encode).
    pub encoded: usize,
}

/// One registration's share of the embedding cache (see
/// [`EngineStats::model_cache`]).
#[derive(Debug, Clone)]
pub struct ModelCacheStats {
    /// Registry name.
    pub model: String,
    /// Version within the name.
    pub version: u32,
    /// Lookups under this registration that hit.
    pub hits: u64,
    /// Lookups under this registration that missed.
    pub misses: u64,
}

impl ModelCacheStats {
    /// Hit fraction over this registration's lookups (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Engine-level counters plus component snapshots.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Compare pairs scored (each pair counts once).
    pub compares: u64,
    /// Ranking requests served.
    pub rankings: u64,
    /// Parser runs: sources the memo did not already hold.
    pub parses: u64,
    /// Sources answered by the source memo without running the parser.
    pub parse_memo_hits: u64,
    /// Sources rejected by the parser.
    pub parse_failures: u64,
    /// Embedding-cache counters, aggregated over stripes (always the
    /// exact sum of [`EngineStats::stripe_cache`] — one snapshot feeds
    /// both, so the scalar never drifts from its own breakdown).
    pub cache: CacheStats,
    /// Cached codes currently held.
    pub cache_len: usize,
    /// Payload bytes held across all stripes (always the exact sum of
    /// the per-stripe byte counts in [`EngineStats::stripe_cache`]).
    pub cache_bytes: usize,
    /// Per-stripe cache counters plus entry counts and payload bytes,
    /// in stripe order — the skew diagnostic behind
    /// `ccsa_cache_hits_total{stripe}`.
    pub stripe_cache: Vec<(CacheStats, usize, usize)>,
    /// Worker-pool counters.
    pub batch: BatchStats,
    /// Trees waiting across all encode shards right now (the aggregate
    /// admission backpressure signal).
    pub queue_depth: usize,
    /// Pending trees per encode shard, keyed `name@vN` (`all` when the
    /// pool runs unsharded), sorted by label.
    pub queue_depths: Vec<(String, usize)>,
    /// Encode shards currently materialised.
    pub shard_count: usize,
    /// Embedding-cache stripes.
    pub cache_stripes: usize,
    /// Registered models: `(name, versions)`.
    pub models: Vec<(String, Vec<u32>)>,
    /// Per-registration embedding-cache counters, ordered by
    /// (name, version).
    pub model_cache: Vec<ModelCacheStats>,
    /// Tensor buffer-pool counters (process-wide): how often encode
    /// buffers were recycled vs freshly allocated, and what is parked
    /// in each tier right now.
    pub pool: ccsa_tensor::PoolStats,
    /// Seconds since the engine was constructed.
    pub uptime_seconds: f64,
}

/// The in-process serving engine.
pub struct ServeEngine {
    /// Read-mostly: every request takes a read lock to resolve its
    /// selector; only register/hot-swap takes the write lock.
    registry: DRwLock<ModelRegistry>,
    cache: ShardedCache,
    /// Source text → parsed graph, ahead of the parser.
    memo: SourceMemo,
    pool: EncodePool,
    compares: AtomicU64,
    rankings: AtomicU64,
    parses: AtomicU64,
    parse_memo_hits: AtomicU64,
    parse_failures: AtomicU64,
    started: Instant,
    /// Stage histograms, present once a registry is attached. Handles
    /// are cloned atomics into the registry — observing them is
    /// lock-free and the registry renders them at scrape time.
    stage_hists: OnceLock<StageHistograms>,
}

/// Per-stage latency histogram handles (see
/// [`ServeEngine::attach_metrics`]).
struct StageHistograms {
    parse: Histogram,
    cache: Histogram,
    encode: Histogram,
    classify: Histogram,
}

/// Latent codes resolved for one request, with the cache/encode time
/// split ([`ServeEngine::codes_for`]).
struct ResolvedCodes {
    /// One code per input graph, input order.
    codes: Vec<Tensor>,
    /// Per-input cache-hit flag.
    hit: Vec<bool>,
    /// Distinct trees encoded fresh.
    encoded: usize,
    /// Seconds in cache lookups and fills.
    cache_s: f64,
    /// Seconds blocked on the encode pool.
    encode_s: f64,
}

impl ServeEngine {
    /// Builds an engine around an existing registry.
    pub fn new(registry: ModelRegistry, config: &ServeConfig) -> ServeEngine {
        ServeEngine {
            registry: DRwLock::new("serve.engine.registry", registry),
            cache: ShardedCache::new(config.cache_capacity, config.cache_stripes),
            memo: SourceMemo::new(config.cache_capacity),
            pool: EncodePool::new(&config.batch),
            compares: AtomicU64::new(0),
            rankings: AtomicU64::new(0),
            parses: AtomicU64::new(0),
            parse_memo_hits: AtomicU64::new(0),
            parse_failures: AtomicU64::new(0),
            started: Instant::now(),
            stage_hists: OnceLock::new(),
        }
    }

    /// Convenience: an engine serving one trained model as
    /// `default` v1.
    pub fn with_model(
        model: ccsa_model::pipeline::TrainedModel,
        config: &ServeConfig,
    ) -> ServeEngine {
        let mut registry = ModelRegistry::new();
        registry.register(DEFAULT_MODEL, 1, model);
        ServeEngine::new(registry, config)
    }

    /// Registers another model at runtime (A/B serving, reloads).
    /// Replacing a (name, version) coordinate is safe against in-flight
    /// requests: cache keys are salted by the registration's
    /// process-unique [`ServeModel::uid`], so codes encoded under the old
    /// weights can never be served for the new ones (stale entries simply
    /// age out of the LRU).
    pub fn register(&self, name: &str, version: u32, model: ccsa_model::pipeline::TrainedModel) {
        let live: Vec<u64> = {
            let mut registry = self.registry.write().expect("registry poisoned");
            registry.register(name, version, model);
            registry.entries().iter().map(|m| m.uid()).collect()
        };
        // A replaced registration's encode shard is unreachable from now
        // on (new requests resolve the new uid); collect it once drained
        // so repeated hot swaps cannot grow the shard table without
        // bound.
        self.pool.prune_retired(&live);
    }

    /// Scores one pair of sources: is the first slower than the second?
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on parse or model-resolution failure.
    pub fn compare(
        &self,
        selector: &ModelSelector,
        first: &str,
        second: &str,
    ) -> Result<CompareOutcome, ServeError> {
        let mut outcomes = self.compare_batch(selector, &[(first, second)])?;
        Ok(outcomes.pop().expect("one pair in, one outcome out"))
    }

    /// Scores a batch of pairs in one pass: all distinct trees across the
    /// whole batch are deduplicated, cache-checked and encoded together.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on the first parse failure (index = pair
    /// index × 2 + side) or on model-resolution failure.
    pub fn compare_batch(
        &self,
        selector: &ModelSelector,
        pairs: &[(&str, &str)],
    ) -> Result<Vec<CompareOutcome>, ServeError> {
        Ok(self.compare_batch_traced(selector, pairs)?.0)
    }

    /// Scores one pre-parsed pair — the steady-state fast path. With
    /// both codes cached (the warm case) this performs **zero heap
    /// allocations**: the memoized canonical hashes key the cache, hits
    /// hand back `Arc` clones, and the classifier head runs tape-free on
    /// a pooled scratch buffer. An integration test pins the zero-alloc claim
    /// with a counting global allocator. Scores are bit-identical to
    /// [`ServeEngine::compare`] on the same sources.
    ///
    /// Cache misses fall back to the batched encode pool (cold path —
    /// allocations allowed there).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on model-resolution or encode failure.
    pub fn compare_graphs(
        &self,
        selector: &ModelSelector,
        first: &Arc<AstGraph>,
        second: &Arc<AstGraph>,
    ) -> Result<CompareScore, ServeError> {
        let model = self.resolve(selector)?;
        let salt = model_salt(&model);
        let t = Instant::now();
        let ka = first.canonical_hash() ^ salt;
        let kb = second.canonical_hash() ^ salt;
        let ca = self.cache.get(ka);
        let cb = self.cache.get(kb);
        let cache_hits = ca.is_some() as usize + cb.is_some() as usize;
        model.note_cache_lookups(cache_hits as u64, 2 - cache_hits as u64);
        let cache_s = t.elapsed().as_secs_f64();

        let mut encode_s = 0.0;
        let (za, zb) = match (ca, cb) {
            (Some(za), Some(zb)) => (za, zb),
            (ca, cb) => {
                // Cold path: encode the misses through the worker pool
                // (deduplicated when both sides are the same tree).
                let t = Instant::now();
                let mut miss: Vec<Arc<AstGraph>> = Vec::with_capacity(2);
                if ca.is_none() {
                    miss.push(Arc::clone(first));
                }
                if cb.is_none() && kb != ka {
                    miss.push(Arc::clone(second));
                }
                let fresh = self.pool.encode(&model, &miss)?;
                let mut fresh = fresh.into_iter();
                let za = match ca {
                    Some(z) => z,
                    None => {
                        let z = fresh.next().expect("one code per missed tree");
                        self.cache.insert_tagged(ka, model.uid(), z.clone());
                        z
                    }
                };
                let zb = match cb {
                    Some(z) => z,
                    None if kb == ka => za.clone(),
                    None => {
                        let z = fresh.next().expect("one code per missed tree");
                        self.cache.insert_tagged(kb, model.uid(), z.clone());
                        z
                    }
                };
                encode_s = t.elapsed().as_secs_f64();
                (za, zb)
            }
        };

        // Relaxed: stats counter, read only by stats().
        self.compares.fetch_add(1, Ordering::Relaxed);
        let trained = &model.model;
        let t = Instant::now();
        let prob_first_slower = trained
            .comparator
            .predict_from_codes(&trained.params, &za, &zb);
        let stages = StageTimings {
            parse_s: 0.0,
            cache_s,
            encode_s,
            classify_s: t.elapsed().as_secs_f64(),
        };
        self.observe_stages(&stages);
        Ok(CompareScore {
            prob_first_slower,
            version: model.version,
            cache_hits,
        })
    }

    /// [`ServeEngine::compare_batch`] plus the per-stage wall-clock
    /// breakdown — transports thread the timings into stage histograms
    /// and sampled per-request trace records.
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::compare_batch`].
    pub fn compare_batch_traced(
        &self,
        selector: &ModelSelector,
        pairs: &[(&str, &str)],
    ) -> Result<(Vec<CompareOutcome>, StageTimings), ServeError> {
        let model = self.resolve(selector)?;
        let mut sources = Vec::with_capacity(pairs.len() * 2);
        for (a, b) in pairs {
            sources.push(*a);
            sources.push(*b);
        }
        let t = Instant::now();
        let parsed = self.parse_all(&sources)?;
        let parse_s = t.elapsed().as_secs_f64();
        let resolved = self.codes_for(&model, &parsed)?;

        // Relaxed: stats counter, read only by stats().
        self.compares
            .fetch_add(pairs.len() as u64, Ordering::Relaxed);
        let trained = &model.model;
        let t = Instant::now();
        let outcomes = (0..pairs.len())
            .map(|p| {
                let (ia, ib) = (2 * p, 2 * p + 1);
                CompareOutcome {
                    prob_first_slower: trained.comparator.predict_from_codes(
                        &trained.params,
                        &resolved.codes[ia],
                        &resolved.codes[ib],
                    ),
                    model: model.name.clone(),
                    version: model.version,
                    cache_hits: resolved.hit[ia] as usize + resolved.hit[ib] as usize,
                }
            })
            .collect();
        let stages = StageTimings {
            parse_s,
            cache_s: resolved.cache_s,
            encode_s: resolved.encode_s,
            classify_s: t.elapsed().as_secs_f64(),
        };
        self.observe_stages(&stages);
        Ok((outcomes, stages))
    }

    /// Ranks K candidate sources fastest-first by full round-robin
    /// comparison (see [`crate::rank`]). Each candidate is encoded at most
    /// once regardless of the K−1 comparisons it participates in.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on parse failure, model-resolution failure,
    /// fewer than two candidates, or more than [`MAX_RANK_CANDIDATES`].
    pub fn rank(
        &self,
        selector: &ModelSelector,
        candidates: &[&str],
    ) -> Result<RankOutcome, ServeError> {
        Ok(self.rank_traced(selector, candidates)?.0)
    }

    /// [`ServeEngine::rank`] plus the per-stage wall-clock breakdown
    /// (see [`ServeEngine::compare_batch_traced`]).
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::rank`].
    pub fn rank_traced(
        &self,
        selector: &ModelSelector,
        candidates: &[&str],
    ) -> Result<(RankOutcome, StageTimings), ServeError> {
        if candidates.len() < 2 {
            return Err(ServeError::TooFewCandidates(candidates.len()));
        }
        if candidates.len() > MAX_RANK_CANDIDATES {
            return Err(ServeError::TooManyCandidates(candidates.len()));
        }
        let model = self.resolve(selector)?;
        let t = Instant::now();
        let parsed = self.parse_all(candidates)?;
        let parse_s = t.elapsed().as_secs_f64();
        let resolved = self.codes_for(&model, &parsed)?;
        let codes = &resolved.codes;

        let k = candidates.len();
        let trained = &model.model;
        let t = Instant::now();
        // Symmetrised round-robin: both orderings of every unordered pair,
        // since the learned classifier is not exactly antisymmetric.
        let mut p_slower = vec![vec![0.5f64; k]; k];
        for i in 0..k {
            for j in (i + 1)..k {
                let pij =
                    trained
                        .comparator
                        .predict_from_codes(&trained.params, &codes[i], &codes[j]);
                let pji =
                    trained
                        .comparator
                        .predict_from_codes(&trained.params, &codes[j], &codes[i]);
                let sym = 0.5 * (pij as f64 + (1.0 - pji as f64));
                p_slower[i][j] = sym;
                p_slower[j][i] = 1.0 - sym;
            }
        }
        // Relaxed: stats counters, read only by stats().
        self.rankings.fetch_add(1, Ordering::Relaxed);
        self.compares
            .fetch_add((k * (k - 1) / 2) as u64, Ordering::Relaxed);
        let hits = resolved.hit.iter().filter(|&&h| h).count();
        let outcome = RankOutcome {
            ranking: rank_from_matrix(&p_slower),
            model: model.name.clone(),
            version: model.version,
            cache_hits: hits,
            encoded: resolved.encoded,
        };
        let stages = StageTimings {
            parse_s,
            cache_s: resolved.cache_s,
            encode_s: resolved.encode_s,
            classify_s: t.elapsed().as_secs_f64(),
        };
        self.observe_stages(&stages);
        Ok((outcome, stages))
    }

    /// Counter and component snapshot.
    pub fn stats(&self) -> EngineStats {
        // One shard-table snapshot feeds all three queue fields, so the
        // scalar depth always equals the sum of its own breakdown.
        let (queue_depths, shard_count) = self.pool.shard_snapshot();
        let queue_depth = queue_depths.iter().map(|(_, d)| d).sum();
        let registry = self.registry.read().expect("registry poisoned");
        let model_cache = registry
            .entries()
            .iter()
            .map(|m| {
                let (hits, misses) = m.cache_lookups();
                ModelCacheStats {
                    model: m.name.clone(),
                    version: m.version,
                    hits,
                    misses,
                }
            })
            .collect();
        // One per-stripe snapshot feeds both the aggregate and the
        // breakdown, so `cache`/`cache_len` always equal the sums of
        // `stripe_cache` — the same invariant the queue fields keep.
        let stripe_cache = self.cache.stripe_stats();
        let mut cache = CacheStats::default();
        let mut cache_len = 0;
        let mut cache_bytes = 0;
        for (s, len, bytes) in &stripe_cache {
            cache.hits += s.hits;
            cache.misses += s.misses;
            cache.evictions += s.evictions;
            cache.insertions += s.insertions;
            cache_len += len;
            cache_bytes += bytes;
        }
        EngineStats {
            // Relaxed: independent stats counters read at snapshot time.
            compares: self.compares.load(Ordering::Relaxed),
            pool: ccsa_tensor::pool::stats(),
            rankings: self.rankings.load(Ordering::Relaxed),
            parses: self.parses.load(Ordering::Relaxed),
            parse_memo_hits: self.parse_memo_hits.load(Ordering::Relaxed),
            parse_failures: self.parse_failures.load(Ordering::Relaxed),
            cache,
            cache_len,
            cache_bytes,
            stripe_cache,
            batch: self.pool.stats(),
            queue_depth,
            queue_depths,
            shard_count,
            cache_stripes: self.cache.stripe_count(),
            models: registry.list(),
            model_cache,
            uptime_seconds: self.started.elapsed().as_secs_f64(),
        }
    }

    /// Wires the engine into a [`MetricsRegistry`]: per-stage latency
    /// histograms (`ccsa_stage_duration_seconds{stage}`) observed on
    /// every request, plus a scrape-time collector exporting the full
    /// [`EngineStats`] snapshot — the exact atomics the `stats` verb
    /// reads, so `/metrics` and the JSON verbs can never disagree.
    ///
    /// The collector holds only a [`std::sync::Weak`] engine reference:
    /// a registry outliving its engine scrapes empty rather than
    /// keeping the worker pool alive.
    pub fn attach_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        let hist = |stage: &str| {
            registry.histogram(
                "ccsa_stage_duration_seconds",
                "Engine stage latency per request, in seconds.",
                &[("stage", stage)],
                &LATENCY_BUCKETS_S,
            )
        };
        let _ = self.stage_hists.set(StageHistograms {
            parse: hist("parse"),
            cache: hist("cache"),
            encode: hist("encode"),
            classify: hist("classify"),
        });
        let engine = Arc::downgrade(self);
        registry.register_collector(move || match engine.upgrade() {
            Some(engine) => engine_metric_families(&engine.stats()),
            None => Vec::new(),
        });
    }

    fn observe_stages(&self, stages: &StageTimings) {
        if let Some(h) = self.stage_hists.get() {
            h.parse.observe(stages.parse_s);
            h.cache.observe(stages.cache_s);
            h.encode.observe(stages.encode_s);
            h.classify.observe(stages.classify_s);
        }
    }

    /// Drops all cached embeddings and memoized parses (telemetry
    /// counters survive).
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.memo.clear();
    }

    /// Resolves a selector to its concrete `(name, version)` coordinate
    /// without touching caches or counters — transports use this to
    /// label per-route telemetry (e.g. matching a routing-table entry to
    /// its encode-shard queue depth).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Registry`] when the selector matches
    /// nothing.
    pub fn resolve_coordinates(
        &self,
        selector: &ModelSelector,
    ) -> Result<(String, u32), ServeError> {
        let model = self.resolve(selector)?;
        Ok((model.name.clone(), model.version))
    }

    /// Spills the selected model's cached embeddings to `path` so the
    /// next process can [`ServeEngine::warm_cache`] from it. Returns the
    /// number of entries written. The snapshot stores stable canonical
    /// AST hashes (un-salted) plus a digest of the model weights, so it
    /// is valid across restarts but refuses to warm different weights.
    ///
    /// The cache lock is held only while the entries are copied out —
    /// the file write happens unlocked, so snapshotting a live engine
    /// does not stall serving traffic.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on model-resolution or I/O failure.
    pub fn snapshot_cache(
        &self,
        selector: &ModelSelector,
        path: &Path,
    ) -> Result<usize, ServeError> {
        let model = self.resolve(selector)?;
        let file = std::fs::File::create(path).map_err(SnapshotError::Io)?;
        let mut w = std::io::BufWriter::new(file);
        let written = self.cache.snapshot_to(
            &mut w,
            model.uid(),
            model_salt(&model),
            model_digest(&model),
        )?;
        use std::io::Write as _;
        w.flush().map_err(SnapshotError::Io)?;
        Ok(written)
    }

    /// Loads a cache snapshot written by [`ServeEngine::snapshot_cache`]
    /// into the selected model's key space, so its first requests hit the
    /// cache instead of the encoder. Returns the number of entries read.
    ///
    /// A snapshot encodes latent codes of the weights that produced it,
    /// so loading verifies the stored weights digest: warming a
    /// *different* model (e.g. retrained weights at the same coordinate)
    /// fails with [`SnapshotError::WrongModel`] instead of silently
    /// serving stale embeddings.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on model-resolution failure, I/O failure,
    /// a malformed snapshot, or a weights mismatch.
    pub fn warm_cache(&self, selector: &ModelSelector, path: &Path) -> Result<usize, ServeError> {
        let model = self.resolve(selector)?;
        let file = std::fs::File::open(path).map_err(SnapshotError::Io)?;
        // load_from reads and verifies before touching any stripe, and a
        // failed load inserts nothing.
        Ok(self.cache.load_from(
            std::io::BufReader::new(file),
            model.uid(),
            model_salt(&model),
            model_digest(&model),
        )?)
    }

    fn resolve(&self, selector: &ModelSelector) -> Result<Arc<ServeModel>, RegistryError> {
        self.registry
            .read()
            .expect("registry poisoned")
            .resolve(selector)
    }

    fn parse_all(&self, sources: &[&str]) -> Result<Vec<Arc<AstGraph>>, ServeError> {
        sources
            .iter()
            .enumerate()
            .map(|(ix, src)| {
                if let Some(graph) = self.memo.get(src) {
                    // Relaxed: stats counter.
                    self.parse_memo_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(graph);
                }
                // Relaxed: stats counters (here and the failure below).
                self.parses.fetch_add(1, Ordering::Relaxed);
                match parse_program(src) {
                    Ok(program) => {
                        let graph = Arc::new(AstGraph::from_program(&program));
                        self.memo.insert(src, &graph);
                        Ok(graph)
                    }
                    Err(e) => {
                        // Relaxed: stats counter.
                        self.parse_failures.fetch_add(1, Ordering::Relaxed);
                        Err(ServeError::Parse(ix, e))
                    }
                }
            })
            .collect()
    }

    /// Resolves one latent code per input graph: cache hits first, one
    /// deduplicated batched encode for the misses, then cache fill.
    /// The returned [`ResolvedCodes`] carries the codes (input order),
    /// per-input hit flags, the distinct-tree encode count, and the
    /// cache/encode wall-clock split for stage telemetry.
    ///
    /// # Errors
    ///
    /// Propagates encoder failures from the worker pool.
    fn codes_for(
        &self,
        model: &Arc<ServeModel>,
        graphs: &[Arc<AstGraph>],
    ) -> Result<ResolvedCodes, ServeError> {
        let salt = model_salt(model);
        let keys: Vec<u64> = graphs.iter().map(|g| g.canonical_hash() ^ salt).collect();

        let mut codes: Vec<Option<Tensor>> = vec![None; graphs.len()];
        let mut hit = vec![false; graphs.len()];
        let mut cache_s = 0.0;
        let mut encode_s = 0.0;
        let t = Instant::now();
        // Distinct missing keys, first occurrence wins (dedup within the
        // request: K identical candidates encode once). The map gives
        // O(1) dedup and fill on the serving hot path.
        let mut miss_slots: HashMap<u64, usize> = HashMap::new();
        let mut miss_graphs: Vec<Arc<AstGraph>> = Vec::new();
        // Each lookup locks only its key's stripe: concurrent requests
        // proceed in parallel instead of convoying on one cache mutex.
        for (ix, &key) in keys.iter().enumerate() {
            if let Some(code) = self.cache.get(key) {
                codes[ix] = Some(code);
                hit[ix] = true;
            } else if let std::collections::hash_map::Entry::Vacant(slot) = miss_slots.entry(key) {
                slot.insert(miss_graphs.len());
                miss_graphs.push(Arc::clone(&graphs[ix]));
            }
        }

        cache_s += t.elapsed().as_secs_f64();

        let hit_count = hit.iter().filter(|&&h| h).count() as u64;
        model.note_cache_lookups(hit_count, graphs.len() as u64 - hit_count);

        let encoded = miss_graphs.len();
        if !miss_graphs.is_empty() {
            let t = Instant::now();
            let fresh = self.pool.encode(model, &miss_graphs)?;
            encode_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for (&key, &slot) in &miss_slots {
                self.cache
                    .insert_tagged(key, model.uid(), fresh[slot].clone());
            }
            for (ix, &key) in keys.iter().enumerate() {
                if codes[ix].is_none() {
                    let slot = *miss_slots.get(&key).expect("miss was queued");
                    codes[ix] = Some(fresh[slot].clone());
                }
            }
            cache_s += t.elapsed().as_secs_f64();
        }
        Ok(ResolvedCodes {
            codes: codes
                .into_iter()
                .map(|c| c.expect("every input resolved"))
                .collect(),
            hit,
            encoded,
            cache_s,
            encode_s,
        })
    }
}

/// Renders an [`EngineStats`] snapshot as Prometheus sample families —
/// the scrape-time half of [`ServeEngine::attach_metrics`]. Exposed so
/// tests can pin `/metrics` output against the `stats` verb: both read
/// the same snapshot shape, so a number shown by one is the number
/// shown by the other.
pub fn engine_metric_families(stats: &EngineStats) -> Vec<SampleFamily> {
    use MetricKind::{Counter, Gauge};
    let scalar = |name: &str, help: &str, kind: MetricKind, v: f64| {
        SampleFamily::new(name, help, kind, vec![Sample::value(v)])
    };
    let mut out = vec![
        scalar(
            "ccsa_compares_total",
            "Compare pairs scored (ranking round-robins included).",
            Counter,
            stats.compares as f64,
        ),
        scalar(
            "ccsa_rankings_total",
            "Ranking requests served.",
            Counter,
            stats.rankings as f64,
        ),
        scalar(
            "ccsa_parses_total",
            "Parser runs (sources the source memo did not hold).",
            Counter,
            stats.parses as f64,
        ),
        scalar(
            "ccsa_parse_memo_hits_total",
            "Sources answered by the source memo without parsing.",
            Counter,
            stats.parse_memo_hits as f64,
        ),
        scalar(
            "ccsa_parse_failures_total",
            "Sources rejected by the parser.",
            Counter,
            stats.parse_failures as f64,
        ),
        scalar(
            "ccsa_cache_stripes",
            "Embedding-cache stripe count.",
            Gauge,
            stats.cache_stripes as f64,
        ),
        scalar(
            "ccsa_encode_shards",
            "Encode shards currently materialised.",
            Gauge,
            stats.shard_count as f64,
        ),
        scalar(
            "ccsa_encode_batches_total",
            "Fused encoder forward passes executed.",
            Counter,
            stats.batch.batches as f64,
        ),
        scalar(
            "ccsa_encode_jobs_total",
            "Trees encoded.",
            Counter,
            stats.batch.jobs as f64,
        ),
        scalar(
            "ccsa_encode_steals_total",
            "Batches taken by a worker from a non-preferred shard.",
            Counter,
            stats.batch.steals as f64,
        ),
        scalar(
            "ccsa_fused_levels_total",
            "Fused level matmuls executed across all forward passes.",
            Counter,
            stats.batch.fused_levels as f64,
        ),
        scalar(
            "ccsa_fused_rows_total",
            "Node rows covered by fused level matmuls.",
            Counter,
            stats.batch.fused_rows as f64,
        ),
        scalar(
            "ccsa_fused_width_mean",
            "Mean node rows per fused level matmul.",
            Gauge,
            stats.batch.mean_fused_width(),
        ),
    ];

    // Per-stripe cache counters: the aggregate is the label-sum, so a
    // hot stripe is visible without a second metric family.
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    let mut evictions = Vec::new();
    let mut entries = Vec::new();
    let mut bytes = Vec::new();
    for (ix, (s, len, stripe_bytes)) in stats.stripe_cache.iter().enumerate() {
        let stripe = ix.to_string();
        let labels = [("stripe", stripe.as_str())];
        hits.push(Sample::new(&labels, s.hits as f64));
        misses.push(Sample::new(&labels, s.misses as f64));
        evictions.push(Sample::new(&labels, s.evictions as f64));
        entries.push(Sample::new(&labels, *len as f64));
        bytes.push(Sample::new(&labels, *stripe_bytes as f64));
    }
    out.push(SampleFamily::new(
        "ccsa_cache_hits_total",
        "Embedding-cache hits, per stripe.",
        Counter,
        hits,
    ));
    out.push(SampleFamily::new(
        "ccsa_cache_misses_total",
        "Embedding-cache misses, per stripe.",
        Counter,
        misses,
    ));
    out.push(SampleFamily::new(
        "ccsa_cache_evictions_total",
        "Embedding-cache evictions, per stripe.",
        Counter,
        evictions,
    ));
    out.push(SampleFamily::new(
        "ccsa_cache_entries",
        "Cached latent codes currently held, per stripe.",
        Gauge,
        entries,
    ));
    out.push(SampleFamily::new(
        "ccsa_cache_bytes",
        "Payload bytes of cached codes, per stripe.",
        Gauge,
        bytes,
    ));

    // Per-registration cache attribution (A/B arms separately).
    let mut model_hits = Vec::new();
    let mut model_misses = Vec::new();
    for m in &stats.model_cache {
        let version = m.version.to_string();
        let labels = [("model", m.model.as_str()), ("version", version.as_str())];
        model_hits.push(Sample::new(&labels, m.hits as f64));
        model_misses.push(Sample::new(&labels, m.misses as f64));
    }
    out.push(SampleFamily::new(
        "ccsa_model_cache_hits_total",
        "Embedding-cache hits attributed to a model registration.",
        Counter,
        model_hits,
    ));
    out.push(SampleFamily::new(
        "ccsa_model_cache_misses_total",
        "Embedding-cache misses attributed to a model registration.",
        Counter,
        model_misses,
    ));

    // Tensor buffer pool: steady state is hits ≫ misses with stable
    // tier gauges; rising misses mean the pool tiers are too small for
    // the live batch shapes.
    out.push(SampleFamily::new(
        "ccsa_pool_hits_total",
        "Buffer-pool takes served from a free list, by tier.",
        Counter,
        vec![
            Sample::new(&[("tier", "local")], stats.pool.local_hits as f64),
            Sample::new(&[("tier", "shared")], stats.pool.shared_hits as f64),
        ],
    ));
    out.push(SampleFamily::new(
        "ccsa_pool_misses_total",
        "Buffer-pool takes that fell through to the global allocator.",
        Counter,
        vec![Sample::value(stats.pool.misses as f64)],
    ));
    out.push(SampleFamily::new(
        "ccsa_pool_buffers",
        "Buffers currently parked for reuse, by tier.",
        Gauge,
        vec![
            Sample::new(&[("tier", "local")], stats.pool.local_buffers as f64),
            Sample::new(&[("tier", "shared")], stats.pool.shared_buffers as f64),
        ],
    ));
    out.push(SampleFamily::new(
        "ccsa_pool_bytes",
        "Capacity bytes parked for reuse, by tier.",
        Gauge,
        vec![
            Sample::new(&[("tier", "local")], stats.pool.local_bytes as f64),
            Sample::new(&[("tier", "shared")], stats.pool.shared_bytes as f64),
        ],
    ));

    // Per-shard admission backpressure, the signal transports shed on.
    out.push(SampleFamily::new(
        "ccsa_encode_queue_depth",
        "Trees waiting in an encode shard's queue right now.",
        Gauge,
        stats
            .queue_depths
            .iter()
            .map(|(shard, depth)| Sample::new(&[("shard", shard.as_str())], *depth as f64))
            .collect(),
    ));
    out
}

/// A content digest of a model's weights (FNV-1a over parameter names,
/// shapes and raw f32 bits). Stamped into cache snapshots so a snapshot
/// can only ever warm the exact weights that produced it — unlike the
/// [`model_salt`], this is stable across processes and registrations.
fn model_digest(model: &ServeModel) -> u64 {
    let mut h = crate::hash::Fnv1a::new();
    for (name, tensor) in model.model.params.iter() {
        h.write(name.as_bytes());
        for &d in tensor.shape().dims() {
            h.write(&(d as u64).to_le_bytes());
        }
        for &v in tensor.as_slice() {
            h.write(&v.to_le_bytes());
        }
    }
    h.finish()
}

/// A per-registration salt folded into cache keys so no two model
/// instances ever share embedding slots — not different (name, version)
/// coordinates, and not two registrations replacing each other at the
/// same coordinate (the [`ServeModel::uid`] is process-unique).
fn model_salt(model: &ServeModel) -> u64 {
    crate::hash::splitmix64(model.uid())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsa_model::comparator::{Comparator, EncoderConfig};
    use ccsa_model::pipeline::TrainedModel;
    use ccsa_nn::param::Params;
    use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn engine(cache_capacity: usize) -> ServeEngine {
        ServeEngine::with_model(
            tiny_model(1),
            &ServeConfig {
                cache_capacity,
                cache_stripes: 0,
                batch: BatchConfig {
                    workers: 2,
                    max_batch: 8,
                    ..BatchConfig::default()
                },
            },
        )
    }

    const FAST: &str = "int main() { int n; cin >> n; cout << n * (n + 1) / 2; return 0; }";
    const SLOW: &str = "int main() { int n; cin >> n; long long s = 0; \
                        for (int i = 0; i <= n; i++) for (int j = 0; j < i; j++) s++; \
                        cout << s; return 0; }";
    const MID: &str = "int main() { int n; cin >> n; long long s = 0; \
                       for (int i = 0; i < n; i++) s += i; cout << s; return 0; }";

    #[test]
    fn cached_and_uncached_scores_are_identical() {
        let with_cache = engine(64);
        let without_cache = engine(0);
        let direct = tiny_model(1);
        let a = Arc::new(AstGraph::from_program(
            &ccsa_cppast::parse_program(SLOW).unwrap(),
        ));
        let b = Arc::new(AstGraph::from_program(
            &ccsa_cppast::parse_program(FAST).unwrap(),
        ));
        let reference = direct.compare_graphs(&a, &b).prob_first_slower;

        let sel = ModelSelector::default();
        // Twice through the cached engine: miss pass, then hit pass.
        let cold = with_cache.compare(&sel, SLOW, FAST).unwrap();
        let warm = with_cache.compare(&sel, SLOW, FAST).unwrap();
        let uncached = without_cache.compare(&sel, SLOW, FAST).unwrap();

        assert_eq!(cold.prob_first_slower, reference);
        assert_eq!(warm.prob_first_slower, reference);
        assert_eq!(uncached.prob_first_slower, reference);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(warm.cache_hits, 2);
        assert_eq!(uncached.cache_hits, 0);
    }

    #[test]
    fn striped_engine_matches_global_lock_engine_bitwise() {
        // Cache striping is a locking change, not a numeric one: an
        // engine with 1 cache stripe (one global cache lock) and an
        // engine with the default stripe count must produce bit-identical
        // probabilities for the same request stream, cold and warm.
        let global = ServeEngine::with_model(
            tiny_model(1),
            &ServeConfig {
                cache_capacity: 64,
                cache_stripes: 1,
                batch: BatchConfig {
                    workers: 2,
                    max_batch: 8,
                    ..BatchConfig::default()
                },
            },
        );
        let striped = engine(64); // default stripes
        let sel = ModelSelector::default();
        for _pass in 0..2 {
            for (a, b) in [(SLOW, FAST), (FAST, MID), (MID, SLOW), (SLOW, SLOW)] {
                let pg = global.compare(&sel, a, b).unwrap();
                let ps = striped.compare(&sel, a, b).unwrap();
                assert_eq!(pg.prob_first_slower, ps.prob_first_slower);
                assert_eq!(pg.cache_hits, ps.cache_hits);
            }
        }
        // The observability surface reports the sharded layout.
        let s = striped.stats();
        assert!(s.cache_stripes >= 1);
        assert_eq!(s.shard_count, 1);
        assert_eq!(s.queue_depths, vec![("default@v1".to_string(), 0)]);
        assert_eq!(global.stats().cache_stripes, 1);
    }

    #[test]
    fn cache_counters_track_hits_and_misses() {
        let e = engine(64);
        let sel = ModelSelector::default();
        e.compare(&sel, SLOW, FAST).unwrap(); // 2 misses
        e.compare(&sel, SLOW, FAST).unwrap(); // 2 hits
        let third = e.compare(&sel, SLOW, MID).unwrap(); // 1 hit, 1 miss
        assert_eq!(third.cache_hits, 1);
        let stats = e.stats();
        assert_eq!(stats.cache.hits, 3);
        assert_eq!(stats.cache.misses, 3);
        assert_eq!(stats.cache_len, 3);
        assert_eq!(stats.compares, 3);
        // Six sources submitted, three distinct texts: each parsed once,
        // every resubmission answered by the source memo.
        assert_eq!(stats.parses, 3);
        assert_eq!(stats.parse_memo_hits, 3);
    }

    #[test]
    fn structural_identity_shares_cache_slots() {
        // Identifier renames and literal changes flatten to the same
        // graph, so the second compare is served fully from cache.
        let e = engine(64);
        let sel = ModelSelector::default();
        e.compare(
            &sel,
            "int main() { int alpha = 3; return alpha; }",
            "int main() { for (int i = 0; i < 5; i++) { } return 0; }",
        )
        .unwrap();
        let renamed = e
            .compare(
                &sel,
                "int main() { int beta = 7; return beta; }",
                "int main() { for (int j = 0; j < 9; j++) { } return 1; }",
            )
            .unwrap();
        assert_eq!(renamed.cache_hits, 2);
    }

    #[test]
    fn rank_deduplicates_and_orders() {
        let e = engine(64);
        let sel = ModelSelector::default();
        let candidates = [FAST, SLOW, MID, FAST]; // duplicate of FAST
        let outcome = e.rank(&sel, &candidates).unwrap();
        assert_eq!(outcome.ranking.len(), 4);
        // 4 candidates, but only 3 distinct trees were encoded and the
        // cold cache served none of them.
        assert_eq!(outcome.encoded, 3, "duplicate candidate must not re-encode");
        assert_eq!(outcome.cache_hits, 0);
        // Re-ranking the same candidates is served fully from cache.
        let warm = e.rank(&sel, &candidates).unwrap();
        assert_eq!(warm.encoded, 0);
        assert_eq!(warm.cache_hits, 4);
        let stats = e.stats();
        assert_eq!(stats.rankings, 2);
        assert_eq!(stats.compares, 12); // C(4,2) round robin, twice
                                        // Ranks are 1..=4 over all input indices.
        let mut ranks: Vec<usize> = outcome.ranking.iter().map(|r| r.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![1, 2, 3, 4]);
        let mut indices: Vec<usize> = outcome.ranking.iter().map(|r| r.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        // The duplicated sources must tie exactly in expected wins.
        let dup0 = outcome.ranking.iter().find(|r| r.index == 0).unwrap();
        let dup3 = outcome.ranking.iter().find(|r| r.index == 3).unwrap();
        assert!((dup0.expected_wins - dup3.expected_wins).abs() < 1e-9);
    }

    #[test]
    fn rank_matches_pairwise_compares() {
        // The ranking's pairwise probabilities must agree with compare():
        // same model, same codes, same classifier.
        let e = engine(64);
        let sel = ModelSelector::default();
        let outcome = e.rank(&sel, &[FAST, SLOW]).unwrap();
        let direct = e.compare(&sel, FAST, SLOW).unwrap();
        let fast_entry = outcome.ranking.iter().find(|r| r.index == 0).unwrap();
        // expected_wins of FAST = P(SLOW slower) = 1 - sym(FAST slower).
        let back = e.compare(&sel, SLOW, FAST).unwrap();
        let sym = 0.5 * (direct.prob_first_slower as f64 + (1.0 - back.prob_first_slower as f64));
        assert!((fast_entry.expected_wins - (1.0 - sym)).abs() < 1e-9);
    }

    #[test]
    fn parse_failures_are_typed_and_counted() {
        let e = engine(8);
        let sel = ModelSelector::default();
        let err = e.compare(&sel, "int main() {", FAST).unwrap_err();
        assert!(matches!(err, ServeError::Parse(0, _)));
        let err = e.rank(&sel, &[FAST, "while (", MID]).unwrap_err();
        assert!(matches!(err, ServeError::Parse(1, _)));
        assert!(matches!(
            e.rank(&sel, &[FAST]),
            Err(ServeError::TooFewCandidates(1))
        ));
        assert_eq!(e.stats().parse_failures, 2);
    }

    #[test]
    fn rank_rejects_oversized_candidate_lists() {
        // The K² tournament is bounded: an untrusted request with huge K
        // must be refused up front, before any parsing or allocation.
        let e = engine(8);
        let sel = ModelSelector::default();
        let many: Vec<&str> = (0..MAX_RANK_CANDIDATES + 1).map(|_| FAST).collect();
        assert!(matches!(
            e.rank(&sel, &many),
            Err(ServeError::TooManyCandidates(n)) if n == MAX_RANK_CANDIDATES + 1
        ));
        assert_eq!(e.stats().parses, 0, "no parsing before the cap check");
    }

    #[test]
    fn corrupt_model_fails_requests_without_killing_the_engine() {
        // A model whose weights are inconsistent with its architecture
        // panics in the encoder; the engine must turn that into a typed
        // error and keep serving healthy models.
        let e = engine(16);
        let config = EncoderConfig::TreeLstm(TreeLstmConfig {
            embed_dim: 6,
            hidden: 6,
            layers: 1,
            direction: Direction::Uni,
            sigmoid_candidate: false,
        });
        let mut scratch = Params::new();
        let comparator = Comparator::new(&config, &mut scratch, &mut StdRng::seed_from_u64(2));
        e.register(
            "corrupt",
            1,
            TrainedModel {
                comparator,
                params: Params::new(),
            },
        );
        let bad_sel = ModelSelector {
            name: Some("corrupt".into()),
            version: None,
        };
        assert!(matches!(
            e.compare(&bad_sel, SLOW, FAST),
            Err(ServeError::Encode(_))
        ));
        // The default model still works on the same engine/pool.
        let p = e
            .compare(&ModelSelector::default(), SLOW, FAST)
            .unwrap()
            .prob_first_slower;
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn unknown_model_is_a_registry_error() {
        let e = engine(8);
        let sel = ModelSelector {
            name: Some("missing".into()),
            version: None,
        };
        assert!(matches!(
            e.compare(&sel, FAST, SLOW),
            Err(ServeError::Registry(RegistryError::UnknownModel(_)))
        ));
    }

    #[test]
    fn hot_swapping_a_version_never_serves_stale_codes() {
        // Fill the cache under (default, v1), then replace that exact
        // coordinate with different weights: the next compare must match
        // the *new* model's direct prediction, not a cached embedding
        // from the old one (cache keys are salted by registration uid).
        let e = engine(64);
        let sel = ModelSelector::default();
        let old_p = e.compare(&sel, SLOW, FAST).unwrap().prob_first_slower;
        let _warm = e.compare(&sel, SLOW, FAST).unwrap(); // cached under old uid

        e.register(crate::registry::DEFAULT_MODEL, 1, tiny_model(7));
        let swapped = e.compare(&sel, SLOW, FAST).unwrap();
        let direct_new = tiny_model(7);
        let a = Arc::new(AstGraph::from_program(
            &ccsa_cppast::parse_program(SLOW).unwrap(),
        ));
        let b = Arc::new(AstGraph::from_program(
            &ccsa_cppast::parse_program(FAST).unwrap(),
        ));
        let expected = direct_new.compare_graphs(&a, &b).prob_first_slower;
        assert_eq!(swapped.prob_first_slower, expected);
        assert_ne!(
            swapped.prob_first_slower, old_p,
            "stale weights were served"
        );
        assert_eq!(
            swapped.cache_hits, 0,
            "old registration's codes must not hit"
        );
    }

    #[test]
    fn hot_swapping_twice_returns_shard_count_to_steady_state() {
        // Each swap retires the previous registration; its drained encode
        // shard must be collected, not accumulate — two swaps with
        // traffic in between land back at one shard, not three.
        let e = engine(64);
        let sel = ModelSelector::default();
        let _ = e.compare(&sel, SLOW, FAST).unwrap();
        assert_eq!(e.stats().shard_count, 1);

        e.register(crate::registry::DEFAULT_MODEL, 1, tiny_model(31));
        let _ = e.compare(&sel, SLOW, FAST).unwrap();
        e.register(crate::registry::DEFAULT_MODEL, 1, tiny_model(32));
        let _ = e.compare(&sel, SLOW, FAST).unwrap();

        // The swapped-out shards are empty (compare blocks until its
        // encodes finish), so the sweep at the *next* registration drops
        // them; assert the table is back at steady state afterwards.
        e.register("other", 1, tiny_model(33));
        let stats = e.stats();
        assert_eq!(
            stats.shard_count, 1,
            "hot-swap leftovers survived GC: {:?}",
            stats.queue_depths
        );
    }

    #[test]
    fn models_do_not_share_cache_entries() {
        // Same source under two models must produce each model's own
        // probability even with the cache shared between them.
        let e = engine(64);
        e.register("other", 1, tiny_model(2));
        let sel_default = ModelSelector::default();
        let sel_other = ModelSelector {
            name: Some("other".into()),
            version: None,
        };
        let p_default = e
            .compare(&sel_default, SLOW, FAST)
            .unwrap()
            .prob_first_slower;
        let p_other = e.compare(&sel_other, SLOW, FAST).unwrap().prob_first_slower;
        let direct_other = tiny_model(2);
        let a = Arc::new(AstGraph::from_program(
            &ccsa_cppast::parse_program(SLOW).unwrap(),
        ));
        let b = Arc::new(AstGraph::from_program(
            &ccsa_cppast::parse_program(FAST).unwrap(),
        ));
        assert_eq!(
            p_other,
            direct_other.compare_graphs(&a, &b).prob_first_slower
        );
        assert_ne!(
            p_default, p_other,
            "different weights must score differently"
        );
    }

    #[test]
    fn cache_snapshot_warms_a_restarted_engine() {
        // "Restart": two engines with the same weights but distinct
        // registrations (distinct uids → distinct salts). A snapshot from
        // the first must warm the second: first compare all hits, scores
        // bit-identical.
        let dir = std::env::temp_dir().join(format!(
            "ccsa-warm-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cache.ccsc");
        let sel = ModelSelector::default();

        let before = engine(64);
        let cold = before.compare(&sel, SLOW, FAST).unwrap();
        assert_eq!(before.snapshot_cache(&sel, &path).unwrap(), 2);

        let after = engine(64); // same tiny_model(1) weights, new uid
        assert_eq!(after.warm_cache(&sel, &path).unwrap(), 2);
        let warm = after.compare(&sel, SLOW, FAST).unwrap();
        assert_eq!(warm.cache_hits, 2, "warm start must hit immediately");
        assert_eq!(warm.prob_first_slower, cold.prob_first_slower);
        let stats = after.stats();
        assert_eq!(stats.batch.jobs, 0, "nothing should have been encoded");
        // Per-model attribution saw 2 hits, 0 misses.
        assert_eq!(stats.model_cache.len(), 1);
        assert_eq!(stats.model_cache[0].hits, 2);
        assert_eq!(stats.model_cache[0].misses, 0);
        assert_eq!(stats.model_cache[0].hit_rate(), 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_cache_rejects_snapshots_from_different_weights() {
        // tiny_model(1) spilled, tiny_model(9) warming: the digest check
        // must refuse — otherwise the new model would serve the old
        // model's embeddings.
        let dir = std::env::temp_dir().join(format!(
            "ccsa-warm-reject-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cache.ccsc");
        let sel = ModelSelector::default();

        let old = engine(64);
        old.compare(&sel, SLOW, FAST).unwrap();
        assert_eq!(old.snapshot_cache(&sel, &path).unwrap(), 2);

        let retrained = ServeEngine::with_model(
            tiny_model(9),
            &ServeConfig {
                cache_capacity: 64,
                cache_stripes: 0,
                batch: BatchConfig {
                    workers: 2,
                    max_batch: 8,
                    ..BatchConfig::default()
                },
            },
        );
        assert!(matches!(
            retrained.warm_cache(&sel, &path),
            Err(ServeError::Cache(SnapshotError::WrongModel { .. }))
        ));
        // Nothing leaked into the cache; the first compare is cold.
        let cold = retrained.compare(&sel, SLOW, FAST).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_cache_reports_missing_file_as_error() {
        let e = engine(8);
        assert!(matches!(
            e.warm_cache(
                &ModelSelector::default(),
                Path::new("/nonexistent/ccsa-cache.ccsc")
            ),
            Err(ServeError::Cache(SnapshotError::Io(_)))
        ));
    }

    #[test]
    fn engine_snapshots_carry_precision_and_refuse_cross_precision_warm() {
        // A spilled snapshot carries the f32 format byte (0). The same
        // file re-tagged as f16 (1), the tag narrow cache stores once
        // wrote, is refused as corrupt, and the engine stays cold rather
        // than serving codes it cannot read.
        let dir = std::env::temp_dir().join(format!(
            "ccsa-warm-precision-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cache.ccsc");
        let sel = ModelSelector::default();

        let before = engine(64);
        before.compare(&sel, SLOW, FAST).unwrap();
        assert_eq!(before.snapshot_cache(&sel, &path).unwrap(), 2);
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[16], 0, "format byte after magic, version, digest");

        bytes[16] = 1;
        std::fs::write(&path, &bytes).unwrap();
        let after = engine(64);
        assert!(matches!(
            after.warm_cache(&sel, &path),
            Err(ServeError::Cache(SnapshotError::Corrupt(_)))
        ));
        assert_eq!(after.stats().cache_len, 0);
        assert_eq!(after.compare(&sel, SLOW, FAST).unwrap().cache_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_requests_split_stage_timings() {
        let e = engine(64);
        let sel = ModelSelector::default();
        let (outcomes, cold) = e.compare_batch_traced(&sel, &[(SLOW, FAST)]).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(cold.encode_s > 0.0, "cold request must really encode");
        assert!(cold.total_s() >= cold.parse_s + cold.encode_s);
        // Fully warm: nothing reaches the encoder, so that stage is
        // exactly zero rather than merely small.
        let (_, warm) = e.compare_batch_traced(&sel, &[(SLOW, FAST)]).unwrap();
        assert_eq!(warm.encode_s, 0.0);
        let (ranked, stages) = e.rank_traced(&sel, &[FAST, SLOW, MID]).unwrap();
        assert_eq!(ranked.ranking.len(), 3);
        assert!(stages.classify_s > 0.0);
    }

    #[test]
    fn stats_stripe_breakdown_sums_to_aggregate() {
        let e = engine(64);
        let sel = ModelSelector::default();
        e.compare(&sel, SLOW, FAST).unwrap();
        e.compare(&sel, SLOW, MID).unwrap();
        let s = e.stats();
        assert_eq!(s.stripe_cache.len(), s.cache_stripes);
        let hits: u64 = s.stripe_cache.iter().map(|(c, _, _)| c.hits).sum();
        let misses: u64 = s.stripe_cache.iter().map(|(c, _, _)| c.misses).sum();
        let len: usize = s.stripe_cache.iter().map(|(_, l, _)| l).sum();
        let bytes: usize = s.stripe_cache.iter().map(|(_, _, b)| b).sum();
        assert_eq!(hits, s.cache.hits);
        assert_eq!(misses, s.cache.misses);
        assert_eq!(len, s.cache_len);
        assert_eq!(bytes, s.cache_bytes);
        assert!(s.cache_bytes > 0, "two cached codes must occupy bytes");
        assert!(s.uptime_seconds >= 0.0);
    }

    #[test]
    fn attached_registry_scrapes_the_same_numbers_as_stats() {
        let e = Arc::new(engine(64));
        let registry = crate::metrics::MetricsRegistry::new();
        e.attach_metrics(&registry);
        let sel = ModelSelector::default();
        e.compare(&sel, SLOW, FAST).unwrap();
        e.rank(&sel, &[FAST, SLOW, MID]).unwrap();

        let text = registry.render();
        // Every engine family (plus the registry built-ins and stage
        // histograms) is present on one scrape.
        for family in [
            "ccsa_compares_total",
            "ccsa_rankings_total",
            "ccsa_parses_total",
            "ccsa_parse_memo_hits_total",
            "ccsa_parse_failures_total",
            "ccsa_cache_hits_total",
            "ccsa_cache_misses_total",
            "ccsa_cache_evictions_total",
            "ccsa_cache_entries",
            "ccsa_cache_stripes",
            "ccsa_model_cache_hits_total",
            "ccsa_model_cache_misses_total",
            "ccsa_encode_queue_depth",
            "ccsa_encode_shards",
            "ccsa_encode_batches_total",
            "ccsa_encode_jobs_total",
            "ccsa_encode_steals_total",
            "ccsa_fused_levels_total",
            "ccsa_fused_rows_total",
            "ccsa_fused_width_mean",
            "ccsa_stage_duration_seconds",
            "ccsa_uptime_seconds",
            "ccsa_build_info",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "family {family} missing from scrape:\n{text}"
            );
        }
        // Single source of truth: the scrape shows the exact counters
        // the stats verb reads (4 pairs compared: 1 + C(3,2)).
        let stats = e.stats();
        assert_eq!(stats.compares, 4);
        assert!(text.contains(&format!("ccsa_compares_total {}", stats.compares)));
        assert!(text.contains(&format!("ccsa_rankings_total {}", stats.rankings)));
        assert!(text.contains(&format!("ccsa_parses_total {}", stats.parses)));
        assert!(text.contains(&format!(
            "ccsa_parse_memo_hits_total {}",
            stats.parse_memo_hits
        )));
        // Stage histograms observed one count per request.
        assert!(text.contains("ccsa_stage_duration_seconds_count{stage=\"parse\"} 2"));
        assert!(text.contains("ccsa_stage_duration_seconds_count{stage=\"encode\"} 2"));
        // Per-model attribution is labelled by coordinate.
        assert!(text.contains("ccsa_model_cache_hits_total{model=\"default\",version=\"1\"}"));
    }

    #[test]
    fn dropping_the_engine_empties_its_collector() {
        // The collector holds a Weak engine reference: once the engine
        // is gone the scrape must not keep it alive or panic.
        let registry = crate::metrics::MetricsRegistry::new();
        let e = Arc::new(engine(8));
        e.attach_metrics(&registry);
        assert!(registry.render().contains("# TYPE ccsa_compares_total"));
        drop(e);
        let text = registry.render();
        assert!(!text.contains("ccsa_compares_total"));
        assert!(text.contains("ccsa_uptime_seconds"), "built-ins survive");
    }

    #[test]
    fn batch_compare_scores_all_pairs() {
        let e = engine(64);
        let sel = ModelSelector::default();
        let outcomes = e
            .compare_batch(&sel, &[(SLOW, FAST), (FAST, SLOW), (MID, MID)])
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        // Antisymmetric inputs give complementary-ish outputs from the
        // same codes; identical inputs give a well-defined probability.
        let direct = e.compare(&sel, SLOW, FAST).unwrap().prob_first_slower;
        assert_eq!(outcomes[0].prob_first_slower, direct);
        assert!((0.0..=1.0).contains(&outcomes[2].prob_first_slower));
    }
}
