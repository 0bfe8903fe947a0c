//! `e2e` — the repository's benchmark: four workloads through the real
//! request path, end-to-end numbers with tracing off, and a traced pass
//! that attributes them to layers. See `README.md` beside `Cargo.toml` for
//! the metric glossary and how to compare two commits.
//!
//! ```sh
//! # one run, as the driver invokes it (prints one JSON object last);
//! # `run.sh` builds when a source is newer than the binary, then runs it:
//! bash e2e/run.sh --workload warm_http --seed 42 --seconds 20 --trace 0
//! # every workload, measured and traced, one JSON document:
//! bash e2e/run.sh run --seed 42
//! # two sets of ten runs per workload against the bounds in BENCHMARK.json:
//! bash e2e/run.sh aa
//! ```

mod alloc;
mod corpus;
mod load;
mod rig;
mod suite;
mod trace;

use std::time::{Duration, Instant};

use ccsa_corpus::Submission;
use ccsa_model::pipeline::TrainedModel;
use ccsa_serve::json::Json;
use ccsa_serve::ModelSelector;

use corpus::{build_pool, pairs_of, Op, Program, Stream, Workload};
use load::{Check, Load, LoopResult, Target, Until};
use rig::Rig;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

// The pinned settings. They are constants, not options: two result files
// are comparable only if these agree, and `run` prints them for that diff.

/// Closed loop: this system's callers (a CI gate, an editor plugin, the
/// fleet tier) each wait for the verdict before sending the next pair.
pub const CLIENTS: usize = 2;
pub const ENCODE_WORKERS: usize = 2;
pub const MAX_BATCH: usize = 16;
/// `ccsa_tensor::par` ways. Pinned to 1: with the default, two encode
/// workers calling `par::matmul` at once deadlock `cold_http` within
/// seconds on 2 cores (ROADMAP open item 1).
pub const PAR_THREADS: usize = 1;
/// A stall becomes a failed op, never a stuck run.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);
pub const ZIPF_S: f64 = 1.0;
pub const VIRTUAL_CLIENTS: usize = 512;
pub const RANK_SHARE: f64 = 0.1;
pub const RANK_K: usize = 8;
/// Pairs per optimizer step (16 trees).
pub const TRAIN_PAIRS: usize = 8;
/// On the workloads that cannot afford a reference answer per reply, one
/// reply in this many is checked.
pub const SAMPLE_EVERY: u64 = 16;
/// The measured window is this many closed loops; see [`measured`].
const WINDOW_PARTS: usize = 5;
/// A reference engine's cache is this many times its working set: the cache
/// splits its capacity evenly over stripes, keys do not split evenly, and a
/// reference that evicts re-encodes.
const REFERENCE_HEADROOM: usize = 4;
/// Share of `--seconds` the traced pass gives each of its two client loops.
const TRACED_LOOP_SHARE: f64 = 0.2;

/// `(name, unit, better)` of every end-to-end metric, as `BENCHMARK.json`
/// declares them; a test holds the two lists equal.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Likewise for the traced pass.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("tensor.matmul_gflops", "GFLOP/s", "higher"),
    ("tensor.pool_hit_rate", "share", "higher"),
    ("process.allocs_per_op", "count", "lower"),
    ("cppast.parse_us", "us", "lower"),
    ("cppast.hash_us", "us", "lower"),
    ("cppast.source_bytes", "bytes", "lower"),
    ("cppast.nodes_per_tree", "count", "lower"),
    ("nn.encode_us_per_tree", "us", "lower"),
    ("nn.fused_width", "rows", "higher"),
    ("nn.train_forward_ms", "ms", "lower"),
    ("nn.train_backward_ms", "ms", "lower"),
    ("core.classify_us", "us", "lower"),
    ("core.train_step_ms", "ms", "lower"),
    ("core.train_overhead_ms", "ms", "lower"),
    ("serve.json_parse_us", "us", "lower"),
    ("serve.json_write_us", "us", "lower"),
    ("serve.cache_get_ns", "ns", "lower"),
    ("serve.compare_graphs_us", "us", "lower"),
    ("serve.compare_us", "us", "lower"),
    ("serve.handle_line_us", "us", "lower"),
    ("serve.stage_parse_us", "us", "lower"),
    ("serve.stage_cache_us", "us", "lower"),
    ("serve.stage_encode_us", "us", "lower"),
    ("serve.stage_classify_us", "us", "lower"),
    ("serve.encode_handoff_us", "us", "lower"),
    ("serve.cache_hit_rate", "share", "higher"),
    ("serve.mean_batch_size", "trees", "higher"),
    ("serve.mean_fused_width", "rows", "higher"),
    ("gateway.tcp_roundtrip_us", "us", "lower"),
    ("gateway.http_roundtrip_us", "us", "lower"),
    ("gateway.tcp_added_us", "us", "lower"),
    ("gateway.http_added_us", "us", "lower"),
    ("gateway.errors", "count", "lower"),
    ("fleet.roundtrip_us", "us", "lower"),
    ("fleet.hop_added_us", "us", "lower"),
    ("fleet.replica_share_max", "share", "lower"),
    ("fleet.hedges", "count", "lower"),
    ("fleet.failovers", "count", "lower"),
    ("client.latency_p99_ms", "ms", "lower"),
    ("client.tail_percentile", "%", "higher"),
    ("client.samples", "count", "higher"),
    ("client.failed_share", "share", "lower"),
    ("budget.unattributed_share", "share", "lower"),
    ("budget.encode_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
];

/// The sizes that scale with how long a run may take. `full` is the
/// benchmark; `smoke` is the same code small enough for `cargo test`.
pub struct Plan {
    pub pool: usize,
    /// Programs `warm_http` draws from (a multiple of 4).
    pub warm_set: usize,
    pub window: Duration,
    /// Set-ups per measured run, each in a process of its own; `setup_s` is
    /// their median.
    pub setup_repeats: usize,
    /// Warm-up ops per client before the window.
    pub cold_warmup: u64,
    pub mixed_warmup: u64,
    pub train_warmup: u64,
    /// Ladder requests that fill caches, and those that are timed after:
    /// more where a request is all cache hits, two hundred times cheaper
    /// and that much more exposed to a passing disturbance.
    pub ladder_warm: usize,
    pub ladder_requests: usize,
    pub ladder_requests_hits: usize,
    /// Reported steps of the training probe.
    pub probe_steps: usize,
}

impl Plan {
    pub fn full(seconds: f64) -> Plan {
        Plan {
            pool: 2048,
            warm_set: 64,
            window: Duration::from_secs_f64(seconds),
            setup_repeats: 3,
            cold_warmup: 32,
            mixed_warmup: 256,
            train_warmup: 4,
            ladder_warm: 32,
            ladder_requests: 64,
            ladder_requests_hits: 1024,
            probe_steps: 5,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Plan {
        Plan {
            pool: 96,
            warm_set: 16,
            window: Duration::from_millis(600),
            setup_repeats: 1,
            cold_warmup: 2,
            mixed_warmup: 8,
            train_warmup: 1,
            ladder_warm: 8,
            ladder_requests: 8,
            ladder_requests_hits: 32,
            probe_steps: 1,
        }
    }
}

/// The serving shape a workload runs on (for `train_fused`, the shape its
/// ladder serves its training pairs on).
struct Shape {
    cache_capacity: usize,
    replicas: usize,
    fleet: bool,
    /// The ladder rung that is this workload's front door.
    outer: &'static str,
}

fn shape(workload: Workload) -> Shape {
    let (cache_capacity, replicas, fleet, outer) = match workload {
        Workload::WarmHttp => (4096, 1, false, "gateway.http"),
        Workload::ColdHttp => (64, 1, false, "gateway.http"),
        Workload::MixedFleet => (256, 2, true, "fleet.tcp"),
        Workload::TrainFused => (64, 0, false, "gateway.http"),
    };
    Shape {
        cache_capacity,
        replicas,
        fleet,
        outer,
    }
}

/// One run's result in the driver's shape.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Why `correct` is false, for the human reading stderr.
    pub note: Option<String>,
}

impl Report {
    /// The last-line JSON object; `declared` supplies units and is the
    /// exact metric set this run must have produced.
    pub fn to_json(&self, declared: &[(&str, &str, &str)]) -> Json {
        let metrics = declared
            .iter()
            .map(|(name, unit, _)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("run produced no {name}"))
                    .1;
                (
                    *name,
                    Json::obj(vec![
                        ("value", Json::num(value)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect();
        assert_eq!(
            self.metrics.len(),
            declared.len(),
            "undeclared metric produced"
        );
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Everything built before the first measured op.
struct Setup {
    workload: Workload,
    pool: Vec<Program>,
    model: TrainedModel,
    stream: Stream,
    rig: Option<Rig>,
    /// The pool as trainer input (`train_fused` only).
    subs: Vec<Submission>,
    /// `warm_set × warm_set` reference probabilities (`warm_http` only).
    table: Vec<f32>,
    warm_set: usize,
    /// Where each client's stream stands after warm-up.
    next_j: [u64; CLIENTS],
    warmup_failed: u64,
}

impl Setup {
    /// Corpus, model, rig, reference table, then warm-up by count: one pass
    /// over the working set where there is one, else enough ops to fill the
    /// caches and pools the workload leaves warm.
    fn new(workload: Workload, seed: u64, plan: &Plan) -> Setup {
        ccsa_tensor::par::set_threads(PAR_THREADS);
        let pool = build_pool(seed, plan.pool);
        let model = rig::model(seed);
        let shape = shape(workload);
        let rig = (shape.replicas > 0).then(|| {
            let engines = (0..shape.replicas)
                .map(|_| rig::engine(&model, shape.cache_capacity))
                .collect();
            Rig::spawn(engines, shape.fleet)
        });
        let mut setup = Setup {
            workload,
            stream: Stream::new(workload, seed, plan),
            subs: Vec::new(),
            table: Vec::new(),
            warm_set: plan.warm_set,
            next_j: [0; CLIENTS],
            warmup_failed: 0,
            pool,
            model,
            rig,
        };
        let warm = match workload {
            Workload::WarmHttp => {
                setup.table = reference_table(&setup.model, &setup.pool[..plan.warm_set]);
                let pass = |c: usize, j: u64| warm_pass_op(j * CLIENTS as u64 + c as u64);
                let each = Until::Count(plan.warm_set as u64 / 4);
                setup.load().run(&pass, [0; CLIENTS], each, false)
            }
            Workload::ColdHttp => setup.warm_up(plan.cold_warmup),
            Workload::MixedFleet => setup.warm_up(plan.mixed_warmup),
            Workload::TrainFused => {
                setup.subs = corpus::submissions(&setup.pool);
                setup.warm_up(plan.train_warmup)
            }
        };
        setup.warmup_failed = warm.failed;
        if workload != Workload::WarmHttp {
            setup.next_j = warm.next_j;
        }
        setup
    }

    /// The closed loop against this set-up's front door and checker.
    fn load(&self) -> Load<'_> {
        Load {
            target: match (&self.rig, self.workload) {
                (Some(rig), Workload::MixedFleet) => Target::Net(rig.fleet()),
                (Some(rig), _) => Target::Net(rig.http()),
                (None, _) => Target::Train {
                    model: &self.model,
                    subs: &self.subs,
                },
            },
            pool: &self.pool,
            check: match self.workload {
                Workload::WarmHttp => Check::Table {
                    probs: &self.table,
                    set: self.warm_set,
                },
                Workload::ColdHttp | Workload::MixedFleet => Check::Sample,
                Workload::TrainFused => Check::None,
            },
        }
    }

    fn warm_up(&self, ops_per_client: u64) -> LoopResult {
        self.stream_loop([0; CLIENTS], Until::Count(ops_per_client), false)
    }

    /// The workload's own stream, each client from `from`.
    fn stream_loop(&self, from: [u64; CLIENTS], until: Until, traced: bool) -> LoopResult {
        let ops = |c, j| self.stream.op(c, j);
        self.load().run(&ops, from, until, traced)
    }

    /// Checks the kept replies against a fresh engine that has seen nothing
    /// but them; returns how many disagree.
    fn wrong_answers(&self, kept: &[(Op, load::Answer)]) -> (u64, Option<String>) {
        if kept.is_empty() {
            return (0, None);
        }
        let engine = rig::engine(&self.model, REFERENCE_HEADROOM * self.pool.len());
        let mut wrong = 0;
        let mut first = None;
        for (op, got) in kept {
            let want = load::reference(&engine, op, &self.pool);
            if *got != want {
                wrong += 1;
                first.get_or_insert_with(|| format!("{op:?} answered {got:?}, reference {want:?}"));
            }
        }
        (wrong, first)
    }

    fn shutdown(self) {
        if let Some(rig) = self.rig {
            rig.shutdown();
        }
    }
}

/// Pair `i` of the pass that touches each of the warm set's programs once.
fn warm_pass_op(i: u64) -> Op {
    Op::Compare {
        a: 2 * i as u32,
        b: 2 * i as u32 + 1,
        client: 0,
    }
}

/// Every ordered pair of `set` through a fresh in-process engine.
fn reference_table(model: &TrainedModel, set: &[Program]) -> Vec<f32> {
    let engine = rig::engine(model, REFERENCE_HEADROOM * set.len());
    let selector = ModelSelector::default();
    let mut table = Vec::with_capacity(set.len() * set.len());
    for a in set {
        for b in set {
            let score = engine
                .compare_graphs(&selector, &a.graph, &b.graph)
                .expect("reference compare");
            table.push(score.prob_first_slower);
        }
    }
    table
}

/// The run the end-to-end metrics come from: tracing off.
///
/// The window is `WINDOW_PARTS` closed loops run one after the other, each
/// on fresh connections and threads, and every client-side number is the
/// median over the parts. On a shared 2-core host a neighbour's burst lasts
/// a second or two and should cost a part, not the run; and where the
/// scheduler happens to put four ping-ponging threads moves `warm_http` by
/// ten percent for as long as the threads live, so a run samples several
/// placements rather than betting on one.
pub fn measured(workload: Workload, seed: u64, plan: &Plan, process_start: Instant) -> Report {
    // Timed from process start, as a user sees it.
    let setup = Setup::new(workload, seed, plan);
    let mut parts: Vec<LoopResult> = Vec::with_capacity(WINDOW_PARTS);
    let mut next_j = setup.next_j;
    for _ in 0..WINDOW_PARTS {
        let each = Until::Elapsed(plan.window / WINDOW_PARTS as u32);
        let part = setup.stream_loop(next_j, each, false);
        next_j = part.next_j;
        parts.push(part);
    }
    let first_op = parts[0].started.expect("the window started");
    let mut setup_times = vec![(first_op - process_start).as_secs_f64()];
    let peak_rss_mib = load::peak_rss_mib();
    let kept: Vec<_> = parts.iter().flat_map(|p| p.kept.iter().cloned()).collect();
    let (wrong, wrong_note) = setup.wrong_answers(&kept);
    let warmup_failed = setup.warmup_failed;
    setup.shutdown();

    // `setup_s` is the median of several set-ups, every one from process
    // start: a second set-up in this process would find the allocator, the
    // tensor pool and every `OnceLock` warm, and start-up cost would never
    // show. The extra ones come after the window, so that the window and
    // the memory peak are those of a process that set up once.
    for _ in 1..plan.setup_repeats {
        setup_times.push(suite::setup_child(workload, seed));
    }

    let attempted: u64 = parts.iter().map(|p| p.ok + p.failed).sum();
    let failed = parts.iter().map(|p| p.failed).sum::<u64>() + wrong + warmup_failed;
    let answered: Vec<&LoopResult> = parts.iter().filter(|p| p.ok > 0).collect();
    let metrics = if answered.is_empty() {
        Vec::new()
    } else {
        let over_parts = |pick: &dyn Fn(&LoopResult) -> f64| {
            load::median(&answered.iter().map(|p| pick(p)).collect::<Vec<_>>())
        };
        let at = |p: &LoopResult, percent: f64| {
            let mut sorted = p.latencies_ms.clone();
            sorted.sort_by(f64::total_cmp);
            load::percentile(&sorted, percent)
        };
        vec![
            ("ops_per_s", over_parts(&|p| p.ops_per_s)),
            ("latency_p50_ms", over_parts(&|p| at(p, 50.0))),
            ("latency_p90_ms", over_parts(&|p| at(p, 90.0))),
            (
                "cpu_ms_per_op",
                over_parts(&|p| p.cpu_s * 1e3 / (p.ok + p.failed) as f64),
            ),
            ("peak_rss_mib", peak_rss_mib),
            ("setup_s", load::median(&setup_times)),
        ]
    };
    let note = parts.into_iter().find_map(|p| p.first_error).or(wrong_note);
    Report {
        correct: failed == 0 && !metrics.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        note,
    }
}

/// The run the per-layer metrics come from: the client loop untraced then
/// traced (the gap is the tracing overhead), the seam ladder, the training
/// probe and the kernel probe. Writes the spans where the build writes.
pub fn traced(workload: Workload, seed: u64, plan: &Plan) -> Report {
    let setup = Setup::new(workload, seed, plan);
    let part = Until::Elapsed(plan.window.mul_f64(TRACED_LOOP_SHARE));
    let untraced = setup.stream_loop(setup.next_j, part, false);

    let engines_before = setup.rig.as_ref().map(trace::engine_stats);
    let pool_before = ccsa_tensor::pool::stats();
    let (looped, allocs) = alloc::counted(|| setup.stream_loop(untraced.next_j, part, true));
    let pool_after = ccsa_tensor::pool::stats();
    let own = setup
        .rig
        .as_ref()
        .zip(engines_before.as_ref())
        .map(|(rig, before)| trace::counters(rig, before));

    let mut kept = untraced.kept;
    kept.extend(looped.kept.iter().cloned());
    let (wrong, wrong_note) = setup.wrong_answers(&kept);

    let shape = shape(workload);
    let (ops, warm) = ladder_ops(&setup, plan);
    let ladder = trace::ladder(
        &setup.model,
        &setup.pool,
        &ops,
        warm,
        shape.cache_capacity,
        shape.outer,
    );

    let mut spans = looped.spans;
    let built;
    let subs: &[Submission] = if setup.subs.is_empty() {
        built = corpus::submissions(&setup.pool);
        &built
    } else {
        &setup.subs
    };
    let probe_op = Op::Train {
        pairs: (0..)
            .flat_map(|j| pairs_of(&setup.stream.op(0, j)))
            .take(TRAIN_PAIRS)
            .collect(),
    };
    let probe = trace::train_probe(&setup.model, subs, &probe_op, plan.probe_steps, &mut spans);

    let attempted = untraced.ok + untraced.failed + looped.ok + looped.failed;
    let failed = untraced.failed + looped.failed + wrong + setup.warmup_failed;
    let mut sorted = looped.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let tail = load::highest_supported_percentile(sorted.len()).min(99.0);
    let takes = (pool_after.takes() - pool_before.takes()) as f64;
    let pool_hits = takes - (pool_after.misses - pool_before.misses) as f64;
    let counters = own.unwrap_or(ladder.counters);
    let (share_max, hedges, failovers) = counters
        .fleet
        .or(ladder.counters.fleet)
        .expect("the ladder's fleet rung reports");

    let mut metrics = vec![
        ("tensor.matmul_gflops", trace::matmul_gflops()),
        (
            "tensor.pool_hit_rate",
            if takes > 0.0 { pool_hits / takes } else { 0.0 },
        ),
        (
            "process.allocs_per_op",
            allocs as f64 / (looped.ok + looped.failed).max(1) as f64,
        ),
        ("serve.cache_hit_rate", counters.cache_hit_rate),
        ("serve.mean_batch_size", counters.mean_batch_size),
        ("serve.mean_fused_width", counters.mean_fused_width),
        ("gateway.errors", counters.gateway_errors),
        ("fleet.replica_share_max", share_max),
        ("fleet.hedges", hedges),
        ("fleet.failovers", failovers),
        ("client.tail_percentile", tail),
        ("client.samples", sorted.len() as f64),
        (
            "client.failed_share",
            failed as f64 / attempted.max(1) as f64,
        ),
        (
            "trace.overhead_share",
            // Both loops ran for the same time.
            1.0 - looped.ok as f64 / untraced.ok.max(1) as f64,
        ),
    ];
    if !sorted.is_empty() {
        metrics.push(("client.latency_p99_ms", load::percentile(&sorted, tail)));
    }
    metrics.extend(ladder.metrics.iter().copied());
    metrics.extend(probe.iter().copied());
    if workload == Workload::TrainFused {
        // This workload's outermost seam is the training step, and what the
        // probe cannot attribute to forward or backward is its residual.
        let of = |name: &str| {
            probe
                .iter()
                .find(|(n, _)| *n == name)
                .expect("probe metric")
                .1
        };
        let residual = of("core.train_overhead_ms") / of("core.train_step_ms");
        for metric in &mut metrics {
            if metric.0 == "budget.unattributed_share" {
                metric.1 = residual;
            }
        }
    }

    spans.extend(ladder.spans);
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let path = std::path::Path::new(&dir)
        .join("e2e")
        .join(format!("{}.trace.jsonl", workload.name()));
    if let Err(e) = trace::write_spans(&path, &spans) {
        eprintln!("e2e: could not write {}: {e}", path.display());
    }
    setup.shutdown();
    let note = looped
        .first_error
        .or(untraced.first_error)
        .or(wrong_note)
        .or((!ladder.consistent).then(|| "ladder rungs disagree on an answer".to_string()));
    Report {
        correct: failed == 0 && ladder.consistent && metrics.len() == PER_LAYER.len(),
        attempted: attempted.max(1),
        failed,
        metrics,
        note,
    }
}

/// The ladder's requests: cache-filling ones first (their count is the
/// second value), then a prefix of client 0's stream. A training step
/// contributes its pairs as compare requests.
fn ladder_ops(setup: &Setup, plan: &Plan) -> (Vec<Op>, usize) {
    let served = |op: Op| -> Vec<Op> {
        match op {
            Op::Train { pairs } => pairs
                .into_iter()
                .map(|(a, b)| Op::Compare { a, b, client: 0 })
                .collect(),
            op => vec![op],
        }
    };
    let stream = (0..).flat_map(|j| served(setup.stream.op(0, j)));
    if setup.workload == Workload::WarmHttp {
        let warm = plan.warm_set / 2;
        let pass = (0..warm as u64).map(warm_pass_op);
        (
            pass.chain(stream.take(plan.ladder_requests_hits)).collect(),
            warm,
        )
    } else {
        (
            stream
                .take(plan.ladder_warm + plan.ladder_requests)
                .collect(),
            plan.ladder_warm,
        )
    }
}

fn main() {
    let process_start = Instant::now();
    trace::now_ns();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cfg!(debug_assertions) {
        eprintln!(
            "e2e: refusing to measure a debug build (the lockdep shim is live); use --release"
        );
        std::process::exit(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("e2e: needs at least 2 cores for 2 clients beside the server, found {cores}");
        std::process::exit(2);
    }
    let code = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("aa") => suite::aa(),
        Some("setup") => setup_only(&args[1..], process_start),
        _ => single(&args, process_start),
    };
    std::process::exit(code);
}

/// `setup --workload W --seed N`: sets up, releases the clients for one op
/// each, and prints the seconds from process start to that release. What
/// [`measured`] runs, after its window, for its further set-up times.
fn setup_only(args: &[String], process_start: Instant) -> i32 {
    let parsed = suite::option::<String>(args, "--workload")
        .and_then(|w| Workload::parse(&w))
        .zip(suite::option::<u64>(args, "--seed"));
    let Some((workload, seed)) = parsed else {
        eprintln!("usage: e2e setup --workload <w> --seed <n>");
        return 2;
    };
    // The window length plays no part in set-up.
    let setup = Setup::new(workload, seed, &Plan::full(1.0));
    let first = setup.stream_loop(setup.next_j, Until::Count(1), false);
    let failed = setup.warmup_failed + first.failed;
    setup.shutdown();
    if failed > 0 {
        eprintln!("e2e: setup: {failed} ops failed: {:?}", first.first_error);
        return 1;
    }
    let first_op = first.started.expect("the clients were released");
    println!("{}", (first_op - process_start).as_secs_f64());
    0
}

/// `--workload W --seed N --seconds S --trace 0|1`, the driver's call.
fn single(args: &[String], process_start: Instant) -> i32 {
    let parsed = (|| {
        Some((
            Workload::parse(&suite::option::<String>(args, "--workload")?)?,
            suite::option::<u64>(args, "--seed")?,
            suite::option::<f64>(args, "--seconds").filter(|s| *s > 0.0)?,
            match suite::option::<u8>(args, "--trace")? {
                0 => false,
                1 => true,
                _ => return None,
            },
        ))
    })();
    let Some((workload, seed, seconds, trace)) = parsed else {
        eprintln!(
            "usage: e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       e2e run [--seed <n>]\n       e2e aa",
            Workload::ALL.map(Workload::name).join("|")
        );
        return 2;
    };
    let plan = Plan::full(seconds);
    let (report, declared) = if trace {
        (traced(workload, seed, &plan), PER_LAYER)
    } else {
        (measured(workload, seed, &plan, process_start), END_TO_END)
    };
    let stream_hash = Stream::new(workload, seed, &plan).hash();
    eprintln!(
        "e2e: {} seed {seed} workload.stream_hash {stream_hash:016x}",
        workload.name()
    );
    if let Some(note) = &report.note {
        eprintln!("e2e: {note}");
    }
    if report.metrics.len() != declared.len() {
        eprintln!("e2e: no op completed; nothing to report");
        return 1;
    }
    println!("{}", report.to_json(declared));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole suite at smoke size, in one test because the workloads
    /// share process globals (`par` ways, the buffer pool, the allocation
    /// counter). What it pins: every workload answers correctly, and the
    /// metric and workload names the binary emits are exactly the sets
    /// `BENCHMARK.json` declares, with the same units and directions.
    #[test]
    fn smoke_run_emits_exactly_the_declared_names() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let doc = ccsa_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String, String)> {
            let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect()
        };
        let owned = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

        let plan = Plan::smoke();
        let started = Instant::now();
        for workload in Workload::ALL {
            let report = measured(workload, 42, &plan, Instant::now());
            assert!(report.correct, "{}: {:?}", workload.name(), report.note);
            report.to_json(END_TO_END);
            let report = traced(workload, 42, &plan);
            assert!(
                report.correct,
                "{} traced: {:?}",
                workload.name(),
                report.note
            );
            report.to_json(PER_LAYER);
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "smoke suite took {:?}",
            started.elapsed()
        );
    }
}
