//! The traced pass: spans around the harness's own calls into each layer,
//! the seam ladder that replays one request stream at every public seam,
//! and the arithmetic that turns spans into per-layer numbers.
//!
//! Nothing here reaches inside the program; spans inside it are ROADMAP
//! item 5.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use ccsa_corpus::Submission;
use ccsa_cppast::{parse_program, AstGraph};
use ccsa_gateway::GatewayClient;
use ccsa_model::pipeline::TrainedModel;
use ccsa_model::trainer::train;
use ccsa_nn::param::Ctx;
use ccsa_nn::{EncodeScratch, FusedStats};
use ccsa_serve::json::Json;
use ccsa_serve::proto;
use ccsa_serve::{
    CompareOutcome, EngineStats, ModelSelector, RankOutcome, ServeEngine, ShardedCache,
    StageTimings,
};
use ccsa_tensor::Tape;

use crate::corpus::{render_line, sources_of, Op, Program};
use crate::load::{
    answer_of, labelled_pairs, median, order_of, reference, train_config, Answer, Conn,
};
use crate::rig::{self, Rig};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval. Spans of one request share `request`; `parent` names
/// the span that contains this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Times `f` as a span.
fn timed<T>(
    spans: &mut Vec<Span>,
    name: &'static str,
    parent: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    let start_ns = now_ns();
    let value = f();
    spans.push(Span {
        name,
        parent: Some(parent),
        request,
        start_ns,
        end_ns: now_ns(),
    });
    value
}

/// Per request (ascending id), the time spent in `outer` spans minus the
/// time spent in spans named in `inner`: with `inner` empty a duration,
/// with `inner` = the children a self time. Requests without an `outer`
/// span are left out.
pub fn self_times(spans: &[Span], outer: &str, inner: &[&str]) -> Vec<f64> {
    let mut by_request = std::collections::BTreeMap::<u64, (bool, f64)>::new();
    for span in spans {
        let entry = by_request.entry(span.request).or_default();
        if span.name == outer {
            entry.0 = true;
            entry.1 += span.ns();
        } else if inner.contains(&span.name) {
            entry.1 -= span.ns();
        }
    }
    by_request
        .into_values()
        .filter_map(|(has_outer, ns)| has_outer.then_some(ns))
        .collect()
}

pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            w,
            "{{\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Window counters a rig's own stats verbs report.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub cache_hit_rate: f64,
    pub mean_batch_size: f64,
    pub mean_fused_width: f64,
    pub gateway_errors: f64,
    /// `(replica_share_max, hedges, failovers)` when the rig has a fleet.
    pub fleet: Option<(f64, f64, f64)>,
}

pub fn engine_stats(rig: &Rig) -> Vec<EngineStats> {
    rig.engines.iter().map(|e| e.stats()).collect()
}

/// Counters over the window since `before`, summed over the rig's engines.
pub fn counters(rig: &Rig, before: &[EngineStats]) -> Counters {
    let after = engine_stats(rig);
    let delta = |pick: fn(&EngineStats) -> u64| -> f64 {
        after
            .iter()
            .zip(before)
            .map(|(a, b)| pick(a) - pick(b))
            .sum::<u64>() as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hits = delta(|s| s.cache.hits);
    let gateway_errors = rig
        .gateway_addrs()
        .into_iter()
        .map(|addr| {
            let mut client = GatewayClient::connect(addr).expect("routes session");
            let doc = client.routes().expect("routes verb");
            items(&doc, "routes")
                .iter()
                .map(|r| number(r, "errors"))
                .sum::<f64>()
        })
        .sum();
    let fleet = rig.fleet_addr().map(|addr| {
        let mut client = GatewayClient::connect(addr).expect("fleet session");
        let doc = client
            .request_line("{\"op\":\"fleet\"}")
            .expect("fleet verb");
        let requests: Vec<f64> = items(&doc, "replicas")
            .iter()
            .map(|r| number(r, "requests"))
            .collect();
        let total: f64 = requests.iter().sum();
        let max = requests.iter().copied().fold(0.0, f64::max);
        (
            ratio(max, total),
            number(&doc, "hedges"),
            number(&doc, "failovers"),
        )
    });
    Counters {
        cache_hit_rate: ratio(hits, hits + delta(|s| s.cache.misses)),
        mean_batch_size: ratio(delta(|s| s.batch.jobs), delta(|s| s.batch.batches)),
        mean_fused_width: ratio(
            delta(|s| s.batch.fused_rows),
            delta(|s| s.batch.fused_levels),
        ),
        gateway_errors,
        fleet,
    }
}

/// A numeric field of a stats reply; its absence is a protocol change.
fn number(doc: &Json, name: &str) -> f64 {
    doc.get(name)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats reply has no number {name}"))
}

fn items<'a>(doc: &'a Json, name: &str) -> &'a [Json] {
    doc.get(name)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("stats reply has no array {name}"))
}

/// What the `serve.compare` rung keeps for the component pass.
enum Outcome {
    Compare(CompareOutcome),
    Rank(RankOutcome),
}

pub struct Ladder {
    pub spans: Vec<Span>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Every rung gave every request the same answer.
    pub consistent: bool,
    /// From the fleet rung's rig, for workloads whose own rig lacks a layer.
    pub counters: Counters,
}

/// Requests a seam serves back to back before the next seam serves the same
/// ones. Small enough that the host's drift (a level shift of several
/// percent every few hundred milliseconds on a shared machine) is common to
/// all seams of a block and cancels in their differences; large enough
/// that a seam runs on warm processor caches, as a serving process does.
const LADDER_BLOCK: usize = 64;

/// Replays `ops` single-threaded at every public seam, each seam against
/// its own freshly built rig of identical configuration (the smallest that
/// has the seam, as the workloads' own rigs are) so cache state evolves
/// identically, and once more component by component, a block of requests
/// at a time. The first `warm` requests fill the cache: they count toward
/// per-unit costs (an encode is an encode) but not toward seam times and
/// the budget.
///
/// `outer` names the rung that is this workload's own front door.
pub fn ladder(
    model: &TrainedModel,
    pool: &[Program],
    ops: &[Op],
    warm: usize,
    cache_capacity: usize,
    outer: &'static str,
) -> Ladder {
    let selector = ModelSelector::default();
    let engine = || rig::engine(model, cache_capacity);
    let [graphs_engine, compare_engine, line_engine] = [engine(), engine(), engine()];
    // A gateway per door, and a fleet in front of one gateway (one replica,
    // so its cache sees the whole stream).
    let net = [
        (
            "gateway.tcp",
            Some("fleet.tcp"),
            Rig::spawn(vec![engine()], false),
        ),
        ("gateway.http", None, Rig::spawn(vec![engine()], false)),
        ("fleet.tcp", None, Rig::spawn(vec![engine()], true)),
    ];
    let mut conns = [net[0].2.tcp(), net[1].2.http(), net[2].2.fleet()]
        .map(|door| Conn::open(door).expect("ladder session"));
    let fleet_before = engine_stats(&net[2].2);
    let mut mirror = Mirror::new(cache_capacity);

    let mut spans: Vec<Span> = Vec::new();
    let mut consistent = true;
    // `serve.handle_line` sits under both gateway doors; the trace names
    // the one on this workload's path.
    let line_parent = if outer == "gateway.http" {
        outer
    } else {
        "gateway.tcp"
    };
    for (block_ix, block) in ops.chunks(LADDER_BLOCK).enumerate() {
        let ids = (block_ix * LADDER_BLOCK) as u64..;
        let lines: Vec<String> = block
            .iter()
            .map(|op| {
                let mut line = String::new();
                render_line(op, pool, &mut line).expect("ladder ops are served ops");
                line
            })
            .collect();

        // serve.compare_graphs: pre-parsed graphs in, score out. Rankings
        // have no graph-level entry point; they run untimed to keep this
        // rung's cache in step.
        let first: Vec<Answer> = block
            .iter()
            .zip(ids.clone())
            .map(|(op, i)| {
                if matches!(op, Op::Compare { .. }) {
                    timed(
                        &mut spans,
                        "serve.compare_graphs",
                        "serve.compare",
                        i,
                        || reference(&graphs_engine, op, pool),
                    )
                } else {
                    reference(&graphs_engine, op, pool)
                }
            })
            .collect();

        // serve.compare: sources in, outcome out, with the engine's own
        // stage timings laid end to end as child spans.
        let mut outcomes = Vec::with_capacity(block.len());
        for ((op, i), first) in block.iter().zip(ids.clone()).zip(&first) {
            let start_ns = now_ns();
            let (outcome, stages) = serve_traced(&compare_engine, &selector, op, pool);
            spans.push(Span {
                name: "serve.compare",
                parent: Some("serve.handle_line"),
                request: i,
                start_ns,
                end_ns: now_ns(),
            });
            let mut at = start_ns;
            for (name, seconds) in [
                ("serve.stage_parse", stages.parse_s),
                ("serve.stage_cache", stages.cache_s),
                ("serve.stage_encode", stages.encode_s),
                ("serve.stage_classify", stages.classify_s),
            ] {
                let ns = (seconds * 1e9) as u64;
                spans.push(Span {
                    name,
                    parent: Some("serve.compare"),
                    request: i,
                    start_ns: at,
                    end_ns: at + ns,
                });
                at += ns;
            }
            consistent &= *first
                == match &outcome {
                    Outcome::Compare(o) => Answer::Prob(o.prob_first_slower as f64),
                    Outcome::Rank(o) => order_of(o),
                };
            outcomes.push(outcome);
        }

        // serve.handle_line: protocol line in, protocol line out.
        for ((line, i), first) in lines.iter().zip(ids.clone()).zip(&first) {
            let reply = timed(&mut spans, "serve.handle_line", line_parent, i, || {
                proto::handle_line(&line_engine, line)
            });
            let reply = ccsa_serve::json::parse(&reply).expect("handle_line writes JSON");
            consistent &= answer_of(&reply).as_ref() == Some(first);
        }

        for ((name, parent, _), conn) in net.iter().zip(&mut conns) {
            for (((op, line), i), first) in block.iter().zip(&lines).zip(ids.clone()).zip(&first) {
                let start_ns = now_ns();
                let answer = conn.call(op, line).expect("ladder requests succeed");
                spans.push(Span {
                    name,
                    parent: *parent,
                    request: i,
                    start_ns,
                    end_ns: now_ns(),
                });
                consistent &= answer == *first;
            }
        }

        for (((op, line), i), outcome) in block.iter().zip(&lines).zip(ids).zip(&outcomes) {
            mirror.request(model, pool, i, op, line, outcome, &mut spans);
        }
    }

    drop(conns);
    let counters = counters(&net[2].2, &fleet_before);
    for (_, _, rig) in net {
        rig.shutdown();
    }
    let metrics = ladder_metrics(&spans, warm as u64, outer, &mirror);
    Ladder {
        spans,
        metrics,
        consistent,
        counters,
    }
}

fn serve_traced(
    engine: &ServeEngine,
    selector: &ModelSelector,
    op: &Op,
    pool: &[Program],
) -> (Outcome, StageTimings) {
    let sources = sources_of(op, pool);
    if let [first, second] = sources[..] {
        let (mut outcomes, stages) = engine
            .compare_batch_traced(selector, &[(first, second)])
            .expect("ladder compare");
        (Outcome::Compare(outcomes.remove(0)), stages)
    } else {
        let (outcome, stages) = engine.rank_traced(selector, &sources).expect("ladder rank");
        (Outcome::Rank(outcome), stages)
    }
}

/// The request path rebuilt from its public parts, one span per part:
/// parse, hash, cache read (against a cache of the rungs' capacity, so the
/// miss set is the rungs'), encode of the misses, classifier head, and the
/// protocol's JSON in and out. Keeps the work counts.
struct Mirror {
    cache: ShardedCache,
    /// A recycled tape, as each of the pool's workers keeps.
    scratch: EncodeScratch,
    seen_keys: Vec<u64>,
    source_bytes: f64,
    nodes: f64,
    sources: f64,
    /// Per direct encode call, its time per tree (ns).
    encode_ns_per_tree: Vec<f64>,
    fused: FusedStats,
}

impl Mirror {
    fn new(cache_capacity: usize) -> Mirror {
        Mirror {
            cache: ShardedCache::new(cache_capacity, 0),
            scratch: EncodeScratch::new(),
            seen_keys: Vec::new(),
            source_bytes: 0.0,
            nodes: 0.0,
            sources: 0.0,
            encode_ns_per_tree: Vec::new(),
            fused: FusedStats::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn request(
        &mut self,
        model: &TrainedModel,
        pool: &[Program],
        i: u64,
        op: &Op,
        line: &str,
        outcome: &Outcome,
        spans: &mut Vec<Span>,
    ) {
        let (comparator, params) = (&model.comparator, &model.params);
        timed(spans, "serve.json_parse", "serve.handle_line", i, || {
            proto::parse_request(line).expect("ladder lines parse")
        });
        let graphs: Vec<AstGraph> = sources_of(op, pool)
            .into_iter()
            .map(|source| {
                self.source_bytes += source.len() as f64;
                self.sources += 1.0;
                timed(spans, "cppast.parse", "serve.stage_parse", i, || {
                    AstGraph::from_program(&parse_program(source).expect("pool sources parse"))
                })
            })
            .collect();
        let keys: Vec<u64> = graphs
            .iter()
            .map(|g| {
                self.nodes += g.node_count() as f64;
                timed(spans, "cppast.hash", "serve.stage_cache", i, || {
                    g.canonical_hash()
                })
            })
            .collect();
        let mut codes: Vec<_> = timed(spans, "serve.cache_get", "serve.stage_cache", i, || {
            keys.iter().map(|&k| self.cache.get(k)).collect()
        });
        let misses: Vec<usize> = (0..codes.len()).filter(|&m| codes[m].is_none()).collect();
        if !misses.is_empty() {
            let miss_graphs: Vec<&AstGraph> = misses.iter().map(|&m| &graphs[m]).collect();
            let (fresh, fused) = timed(spans, "nn.encode", "serve.stage_encode", i, || {
                comparator.encode_codes_with_scratch(params, &miss_graphs, &mut self.scratch)
            });
            let ns = spans.last().expect("span just pushed").ns();
            self.encode_ns_per_tree.push(ns / misses.len() as f64);
            self.fused.merge(fused);
            for (&m, code) in misses.iter().zip(fresh) {
                self.cache.insert_tagged(keys[m], 0, code.clone());
                codes[m] = Some(code);
            }
        }
        self.seen_keys.extend(keys);
        let codes: Vec<_> = codes
            .into_iter()
            .map(|c| c.expect("hit or encoded"))
            .collect();
        timed(spans, "core.classify", "serve.stage_classify", i, || {
            let score = |x: usize, y: usize| {
                std::hint::black_box(comparator.predict_from_codes(params, &codes[x], &codes[y]));
            };
            // A compare scores its one ordered pair; a ranking scores both
            // orders of every pair, as the engine's round robin does.
            if codes.len() == 2 {
                score(0, 1);
            } else {
                for x in 0..codes.len() {
                    for y in (0..codes.len()).filter(|&y| y != x) {
                        score(x, y);
                    }
                }
            }
        });
        timed(
            spans,
            "serve.json_write",
            "serve.handle_line",
            i,
            || match outcome {
                Outcome::Compare(o) => proto::compare_response(o).to_string(),
                Outcome::Rank(o) => proto::rank_response(o).to_string(),
            },
        );
    }

    /// A cache read is shorter than a timer read; times a run of them over
    /// the keys the ladder touched.
    fn cache_get_ns(&self) -> f64 {
        let rounds = (20_000 / self.seen_keys.len().max(1)).max(1);
        let start = now_ns();
        for _ in 0..rounds {
            for &k in &self.seen_keys {
                std::hint::black_box(self.cache.get(k));
            }
        }
        (now_ns() - start) as f64 / (rounds * self.seen_keys.len()) as f64
    }
}

fn ladder_metrics(
    spans: &[Span],
    warm: u64,
    outer: &'static str,
    mirror: &Mirror,
) -> Vec<(&'static str, f64)> {
    let steady: Vec<Span> = spans
        .iter()
        .filter(|s| s.request >= warm)
        .cloned()
        .collect();
    let us = |ns: f64| ns / 1e3;
    // p50 over requests of a seam's duration or self time, warm-up excluded.
    let seam = |name: &str, inner: &[&str]| us(median_or_zero(&self_times(&steady, name, inner)));
    // p50 over single spans of a component, warm-up included.
    let unit = |name: &str| {
        let each: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect();
        us(median_or_zero(&each))
    };
    let attributed = [
        "cppast.parse",
        "cppast.hash",
        "serve.cache_get",
        "serve.stage_encode",
        "core.classify",
        "serve.json_parse",
        "serve.json_write",
    ];
    // The handle_line rung and the component pass are separate passes over
    // the same requests; pair them by request id.
    let residual = median_or_zero(&self_times(&steady, "serve.handle_line", &attributed));
    let outer_p50 = median_or_zero(&self_times(&steady, outer, &[]));
    // Direct-encode time per request, zero where nothing missed.
    let requests = spans.iter().map(|s| s.request + 1).max().unwrap_or(0);
    let mut encode = vec![0.0; requests as usize];
    for s in spans.iter().filter(|s| s.name == "nn.encode") {
        encode[s.request as usize] += s.ns();
    }
    // The requests that missed, warm-up included (on a warm workload they
    // are the only ones): the pool's encode stage as the engine timed it,
    // and what it adds to a direct encode of the same trees (queue + wake).
    let missed: Vec<Span> = spans
        .iter()
        .filter(|s| encode[s.request as usize] > 0.0)
        .cloned()
        .collect();
    let stage_encode = self_times(&missed, "serve.stage_encode", &[]);
    let handoff = self_times(&missed, "serve.stage_encode", &["nn.encode"]);
    vec![
        ("serve.compare_graphs_us", seam("serve.compare_graphs", &[])),
        ("serve.compare_us", seam("serve.compare", &[])),
        ("serve.handle_line_us", seam("serve.handle_line", &[])),
        ("serve.stage_parse_us", seam("serve.stage_parse", &[])),
        ("serve.stage_cache_us", seam("serve.stage_cache", &[])),
        ("serve.stage_encode_us", us(median_or_zero(&stage_encode))),
        ("serve.stage_classify_us", seam("serve.stage_classify", &[])),
        ("serve.encode_handoff_us", us(median_or_zero(&handoff))),
        ("gateway.tcp_roundtrip_us", seam("gateway.tcp", &[])),
        ("gateway.http_roundtrip_us", seam("gateway.http", &[])),
        ("fleet.roundtrip_us", seam("fleet.tcp", &[])),
        (
            "gateway.tcp_added_us",
            seam("gateway.tcp", &["serve.handle_line"]),
        ),
        (
            "gateway.http_added_us",
            seam("gateway.http", &["serve.handle_line"]),
        ),
        ("fleet.hop_added_us", seam("fleet.tcp", &["gateway.tcp"])),
        ("cppast.parse_us", unit("cppast.parse")),
        ("cppast.hash_us", unit("cppast.hash")),
        ("cppast.source_bytes", mirror.source_bytes / mirror.sources),
        ("cppast.nodes_per_tree", mirror.nodes / mirror.sources),
        (
            "nn.encode_us_per_tree",
            // The median call: the first ones also page in the kernels.
            us(median_or_zero(&mirror.encode_ns_per_tree)),
        ),
        ("nn.fused_width", mirror.fused.mean_width()),
        ("core.classify_us", unit("core.classify")),
        ("serve.json_parse_us", unit("serve.json_parse")),
        ("serve.json_write_us", unit("serve.json_write")),
        ("serve.cache_get_ns", mirror.cache_get_ns()),
        ("budget.unattributed_share", residual / outer_p50),
        (
            "budget.encode_share",
            median_or_zero(&encode[warm as usize..]) / outer_p50,
        ),
    ]
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The training step taken apart as `train_throughput` drives it: forward
/// (`logit_batch` + loss) and backward on one tape, beside the whole step
/// through `trainer::train`; what is left is clip, Adam and bookkeeping.
pub fn train_probe(
    model: &TrainedModel,
    subs: &[Submission],
    op: &Op,
    steps: usize,
    spans: &mut Vec<Span>,
) -> Vec<(&'static str, f64)> {
    let pairs = labelled_pairs(subs, op);
    let (mut step, mut forward, mut backward) = (Vec::new(), Vec::new(), Vec::new());
    // Step 0 warms allocator and pools and is not reported.
    for s in 0..=steps as u64 {
        let mut params = model.params.clone();
        let mut local = Vec::new();
        timed(&mut local, "core.train_step", "client.request", s, || {
            train(
                &model.comparator,
                &mut params,
                subs,
                &pairs,
                &train_config(pairs.len()),
            )
        });
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &model.params);
        let graphs: Vec<(&AstGraph, &AstGraph)> = pairs
            .iter()
            .map(|p| (&subs[p.a].graph, &subs[p.b].graph))
            .collect();
        let total = timed(&mut local, "nn.train_forward", "core.train_step", s, || {
            let losses: Vec<_> = model
                .comparator
                .logit_batch(&ctx, &graphs)
                .into_iter()
                .zip(&pairs)
                .map(|(logit, pair)| logit.sum().bce_with_logits(pair.label))
                .collect();
            ctx.tape.add_n(&losses)
        });
        timed(
            &mut local,
            "nn.train_backward",
            "core.train_step",
            s,
            || std::hint::black_box(ctx.grads(&tape.backward(total))),
        );
        if s > 0 {
            step.push(local[0].ns() / 1e6);
            forward.push(local[1].ns() / 1e6);
            backward.push(local[2].ns() / 1e6);
            spans.extend(local);
        }
    }
    let (step, forward, backward) = (median(&step), median(&forward), median(&backward));
    vec![
        ("core.train_step_ms", step),
        ("nn.train_forward_ms", forward),
        ("nn.train_backward_ms", backward),
        ("core.train_overhead_ms", step - forward - backward),
    ]
}

/// Achieved rate of the dispatched matmul kernel at the encoder's fused
/// gate shape, `[64, 120] × [120, 400]`.
pub fn matmul_gflops() -> f64 {
    let (m, k, n) = (64usize, 120usize, 400usize);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
    let mut out = vec![0.0f32; m * n];
    let kernel = ccsa_tensor::kernels::active().matmul;
    let calls = 40;
    let rates: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                out.fill(0.0);
                kernel(&a, &b, &mut out, m, k, n);
                std::hint::black_box(&out);
            }
            (2 * m * k * n * calls) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, request: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent: None,
            request,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_per_request() {
        let spans = vec![
            span("outer", 0, 0, 100),
            span("mid", 0, 10, 70),
            span("leaf", 0, 20, 30),
            span("leaf", 0, 40, 45),
            span("outer", 1, 200, 260),
            span("mid", 1, 210, 250),
            // A request the outer seam never saw is not reported.
            span("mid", 2, 300, 310),
        ];
        assert_eq!(self_times(&spans, "outer", &[]), vec![100.0, 60.0]);
        assert_eq!(self_times(&spans, "outer", &["mid"]), vec![40.0, 20.0]);
        assert_eq!(self_times(&spans, "mid", &["leaf"]), vec![45.0, 40.0, 10.0]);
        // Self times of a ladder add back up to its outermost seam.
        let total: f64 = [
            self_times(&spans, "outer", &["mid"])[0],
            self_times(&spans, "mid", &["leaf"])[0],
            self_times(&spans, "leaf", &[])[0],
        ]
        .iter()
        .sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn matmul_probe_reports_a_rate() {
        assert!(matmul_gflops() > 0.0);
    }
}
