//! Pins the warm path's allocation counts with a counting global
//! allocator: once the cache and buffer pool are warm,
//! `ServeEngine::compare_graphs` performs **zero** heap allocations per
//! request, and a whole warm protocol line through `proto::handle_line`
//! (JSON in, source memo, cache, classifier, JSON out) stays under a
//! fixed small bound. The cold request is allowed to allocate (cache
//! fill, pool growth, lazy histograms); every request after the second
//! must not. A cold *encode* on a warmed worker scratch takes every
//! tensor buffer from the pool, and its remaining allocations stay
//! under a measured bound.
//!
//! The harness swaps in a `#[global_allocator]` that counts every
//! `alloc`/`realloc`/`alloc_zeroed`, so a single stray `Vec` or `Arc`
//! anywhere on the warm path fails the test rather than silently
//! re-introducing steady-state allocator churn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ccsa_corpus::{generate_program, ProblemSpec, ProblemTag};
use ccsa_cppast::tree::AstGraph;
use ccsa_model::comparator::{Comparator, EncoderConfig};
use ccsa_model::pipeline::TrainedModel;
use ccsa_nn::param::Params;
use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
use ccsa_nn::EncodeScratch;
use ccsa_serve::json::Json;
use ccsa_serve::{proto, BatchConfig, MetricsRegistry, ModelSelector, ServeConfig, ServeEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts allocation events; frees are uncounted (returning a pooled
/// buffer must not be scored as churn).
struct CountingAlloc;

thread_local! {
    // Per thread, so an engine's encode workers cannot charge their
    // allocations to the measuring thread's window. Const-initialised
    // and without a destructor, so touching it inside the allocator
    // neither allocates nor outlives the thread's storage.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: trait-required unsafe fn; delegates to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout obligations as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: trait-required unsafe fn; delegates to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: trait-required unsafe fn; delegates to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout obligations as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: trait-required unsafe fn; delegates to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged from our caller's obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation events on the calling thread so far. Warm compares run
/// entirely on the caller (both codes cached, no encode-worker hop).
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Every test here holds this lock: the cold-encode pin counts pool
/// misses, and the pool's counters are process-wide, so another test's
/// encode workers must not run beside its window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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

const FAST: &str = "int main() { int n; cin >> n; cout << n * (n + 1) / 2; return 0; }";
const SLOW: &str = "int main() { int n; cin >> n; long long s = 0; \
                    for (int i = 0; i <= n; i++) for (int j = 0; j < i; j++) s++; \
                    cout << s; return 0; }";

#[test]
fn warm_compare_requests_allocate_nothing() {
    let _serial = serial();
    let engine = ServeEngine::with_model(
        tiny_model(7),
        &ServeConfig {
            cache_capacity: 64,
            cache_stripes: 1,
            batch: BatchConfig {
                workers: 1,
                max_batch: 8,
                ..BatchConfig::default()
            },
        },
    );
    let a = Arc::new(AstGraph::from_program(
        &ccsa_cppast::parse_program(SLOW).expect("parse slow"),
    ));
    let b = Arc::new(AstGraph::from_program(
        &ccsa_cppast::parse_program(FAST).expect("parse fast"),
    ));
    let selector = ModelSelector::default();

    // Cold + first-warm requests: fill the cache, memoize the canonical
    // hashes, grow the classifier's pool buffers and the lazy stage
    // histograms. Allocation is expected and legal here.
    let cold = engine
        .compare_graphs(&selector, &a, &b)
        .expect("cold compare");
    assert_eq!(cold.cache_hits, 0, "first request must be a double miss");
    let first_warm = engine
        .compare_graphs(&selector, &a, &b)
        .expect("first warm compare");
    assert_eq!(first_warm.cache_hits, 2);

    // Steady state: second and later warm requests. Zero allocations,
    // and bit-identical scores to the cold pass.
    let before = allocs();
    let mut last = first_warm;
    for _ in 0..32 {
        last = engine
            .compare_graphs(&selector, &a, &b)
            .expect("warm compare");
    }
    let after = allocs();
    assert_eq!(last.cache_hits, 2, "steady state must stay fully cached");
    assert_eq!(
        last.prob_first_slower.to_bits(),
        cold.prob_first_slower.to_bits(),
        "warm score must be bit-identical to the cold score"
    );
    assert_eq!(
        after - before,
        0,
        "warm compare_graphs allocated {} time(s) over 32 requests",
        after - before
    );
}

#[test]
fn swapped_operands_stay_alloc_free_once_both_codes_are_cached() {
    let _serial = serial();
    let engine = ServeEngine::with_model(
        tiny_model(11),
        &ServeConfig {
            cache_capacity: 64,
            cache_stripes: 1,
            batch: BatchConfig {
                workers: 1,
                max_batch: 8,
                ..BatchConfig::default()
            },
        },
    );
    let a = Arc::new(AstGraph::from_program(
        &ccsa_cppast::parse_program(SLOW).expect("parse slow"),
    ));
    let b = Arc::new(AstGraph::from_program(
        &ccsa_cppast::parse_program(FAST).expect("parse fast"),
    ));
    let selector = ModelSelector::default();
    engine.compare_graphs(&selector, &a, &b).expect("cold");
    engine.compare_graphs(&selector, &b, &a).expect("warm-up");
    engine.compare_graphs(&selector, &a, &a).expect("warm-up");

    let before = allocs();
    for _ in 0..8 {
        engine.compare_graphs(&selector, &b, &a).expect("warm");
        engine.compare_graphs(&selector, &a, &a).expect("warm self");
    }
    let after = allocs();
    assert_eq!(after - before, 0, "operand order must not break pooling");
}

#[test]
fn a_warm_protocol_line_allocates_a_bounded_handful() {
    let _serial = serial();
    let engine = ServeEngine::with_model(
        tiny_model(13),
        &ServeConfig {
            cache_capacity: 64,
            cache_stripes: 1,
            batch: BatchConfig {
                workers: 1,
                max_batch: 8,
                ..BatchConfig::default()
            },
        },
    );
    // Multi-line sources, as clients send them: every `\n` is an escape
    // the JSON reader has to splice around.
    let spaced = |source: &str| source.replace("; ", ";\n  ");
    let line = Json::obj(vec![
        ("op", Json::str("compare")),
        ("client", Json::str("alloc-test")),
        ("first", Json::str(spaced(SLOW))),
        ("second", Json::str(spaced(FAST))),
    ])
    .to_string();
    let cold = proto::handle_line(&engine, &line);
    let first_warm = proto::handle_line(&engine, &line);
    assert_eq!(
        cold.replace("\"cache_hits\":0", "\"cache_hits\":2"),
        first_warm
    );

    const ROUNDS: u64 = 32;
    let before = allocs();
    for _ in 0..ROUNDS {
        let reply = proto::handle_line(&engine, &line);
        assert_eq!(reply, first_warm);
    }
    let per_line = (allocs() - before) / ROUNDS;
    let stats = engine.stats();
    assert_eq!(stats.parses, 2, "warm lines must not reach the parser");
    // What is left is the request's `Json` tree and strings, the reply's,
    // and the batch API's small vectors. It was ~1.4k per line when every
    // warm line re-parsed both sources.
    assert!(per_line <= 64, "{per_line} allocations per warm line");
}

/// `count` generated corpus submissions, parsed.
fn submissions(seed: u64, count: usize) -> Vec<AstGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let spec = ProblemSpec::curated(ProblemTag::ALL[i % ProblemTag::ALL.len()]);
            let strategy = spec.sample_strategy(&mut rng);
            AstGraph::from_program(&generate_program(&spec, strategy, &mut rng))
        })
        .collect()
}

#[test]
fn a_warmed_scratch_encodes_unseen_paper_width_trees_from_the_pool() {
    let _serial = serial();
    let mut params = Params::new();
    let model = Comparator::new(
        &EncoderConfig::TreeLstm(TreeLstmConfig::paper()),
        &mut params,
        &mut StdRng::seed_from_u64(5),
    );
    let mut scratch = EncodeScratch::new();
    for pair in submissions(1, 16).chunks(2) {
        let refs: Vec<&AstGraph> = pair.iter().collect();
        model.encode_codes_with_scratch(&params, &refs, &mut scratch);
    }
    let unseen = submissions(2, 2);
    let refs: Vec<&AstGraph> = unseen.iter().collect();

    let (misses, before) = (ccsa_tensor::pool::stats().misses, allocs());
    let (codes, _) = model.encode_codes_with_scratch(&params, &refs, &mut scratch);
    let (misses, during) = (
        ccsa_tensor::pool::stats().misses - misses,
        allocs() - before,
    );

    assert_eq!(codes, model.encode_codes(&params, &refs));
    let nodes: usize = unseen.iter().map(AstGraph::node_count).sum();
    assert_eq!(misses, 0, "every tensor buffer comes from the pool");
    // Not 0: every op's output tensor is a pooled buffer inside a new
    // `Arc`, and every level allocates its gather and segment index
    // lists. Both scale with levels and ops, not with node rows. These
    // two trees (289 nodes) measured 957.
    assert!(
        during <= 1_150,
        "{during} allocations to encode {nodes} nodes"
    );
}

#[test]
fn finding_an_existing_metric_series_allocates_nothing() {
    let _serial = serial();
    let registry = MetricsRegistry::new();
    let bump = |code: &str| {
        registry
            .counter(
                "ccsa_http_requests_total",
                "HTTP front-door requests, by path and status code.",
                &[("path", "/v1/compare"), ("code", code)],
            )
            .inc();
    };
    bump("200");
    bump("400");
    let before = allocs();
    for _ in 0..16 {
        bump("200");
        bump("400");
    }
    assert_eq!(allocs() - before, 0);
    assert!(registry
        .render()
        .contains("ccsa_http_requests_total{path=\"/v1/compare\",code=\"200\"} 17"));
}
