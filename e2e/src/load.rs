//! The load generator: closed-loop clients, answer checking, and the
//! client-side numbers (latency percentiles, process CPU and memory).

use std::sync::Barrier;
use std::time::{Duration, Instant};

use ccsa_corpus::Submission;
use ccsa_gateway::{GatewayClient, HttpGatewayClient};
use ccsa_model::pair::Pair;
use ccsa_model::pipeline::TrainedModel;
use ccsa_model::trainer::{train, TrainConfig};
use ccsa_nn::param::Params;
use ccsa_serve::json::{self, Json};
use ccsa_serve::{ModelSelector, RankOutcome, ServeEngine};

use crate::corpus::{http_path, render_line, sources_of, Op, Program};
use crate::rig::Door;
use crate::trace::{now_ns, Span};

/// What a scored request answers; equality is bit equality.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Prob(f64),
    /// Candidate indices, fastest first.
    Order(Vec<u32>),
}

/// Reads the answer out of a protocol reply; `None` for `ok:false` or a
/// malformed one.
pub fn answer_of(reply: &Json) -> Option<Answer> {
    if reply.get("ok")?.as_bool()? {
        if let Some(p) = reply.get("prob_first_slower") {
            return Some(Answer::Prob(p.as_f64()?));
        }
        let ranking = reply.get("ranking")?.as_arr()?;
        return ranking
            .iter()
            .map(|r| r.get("candidate")?.as_u64().map(|c| c as u32))
            .collect::<Option<Vec<u32>>>()
            .map(Answer::Order);
    }
    None
}

pub fn order_of(outcome: &RankOutcome) -> Answer {
    Answer::Order(outcome.ranking.iter().map(|r| r.index as u32).collect())
}

/// The answer an engine gives in-process, no transport involved.
pub fn reference(engine: &ServeEngine, op: &Op, pool: &[Program]) -> Answer {
    let selector = ModelSelector::default();
    match op {
        Op::Compare { a, b, .. } => Answer::Prob(
            engine
                .compare_graphs(
                    &selector,
                    &pool[*a as usize].graph,
                    &pool[*b as usize].graph,
                )
                .expect("reference compare")
                .prob_first_slower as f64,
        ),
        Op::Rank { .. } => order_of(
            &engine
                .rank(&selector, &sources_of(op, pool))
                .expect("reference rank"),
        ),
        Op::Train { .. } => unreachable!("training steps have no served answer"),
    }
}

/// One keep-alive session on either transport.
pub enum Conn {
    Http(HttpGatewayClient),
    Tcp(GatewayClient),
}

impl Conn {
    /// Connects with the per-op timeout set, so a stalled server becomes a
    /// failed op, never a stuck run.
    pub fn open(door: Door) -> Result<Conn, String> {
        let timeout = Some(crate::OP_TIMEOUT);
        match door {
            Door::Http(addr) => {
                let mut c = HttpGatewayClient::connect(addr).map_err(|e| e.to_string())?;
                c.set_timeout(timeout).map_err(|e| e.to_string())?;
                Ok(Conn::Http(c))
            }
            Door::Tcp(addr) => {
                let mut c = GatewayClient::connect(addr).map_err(|e| e.to_string())?;
                c.set_timeout(timeout).map_err(|e| e.to_string())?;
                Ok(Conn::Tcp(c))
            }
        }
    }

    /// Sends `line` (a JSON-lines request; over HTTP the same object is the
    /// body) and returns the answer.
    pub fn call(&mut self, op: &Op, line: &str) -> Result<Answer, String> {
        let reply = match self {
            Conn::Http(c) => {
                let reply = c
                    .post(http_path(op), line, None)
                    .map_err(|e| e.to_string())?;
                if reply.status != 200 {
                    return Err(format!("http status {}", reply.status));
                }
                json::parse(&reply.body).map_err(|e| e.to_string())?
            }
            Conn::Tcp(c) => c.request_line(line).map_err(|e| e.to_string())?,
        };
        answer_of(&reply).ok_or_else(|| format!("not an ok answer: {reply}"))
    }
}

/// What the clients drive.
pub enum Target<'a> {
    Net(Door),
    Train {
        model: &'a TrainedModel,
        subs: &'a [Submission],
    },
}

/// How replies are checked against the reference engine.
pub enum Check<'a> {
    /// Every compare reply, against a precomputed `set × set` table.
    Table { probs: &'a [f32], set: usize },
    /// One reply in `SAMPLE_EVERY` is kept and checked after the window.
    Sample,
    /// Nothing to compare (training checks its loss instead).
    None,
}

#[derive(Default)]
pub struct LoopResult {
    /// Latency of every correct op.
    pub latencies_ms: Vec<f64>,
    pub ok: u64,
    pub failed: u64,
    /// Σ over clients of (correct ops ÷ that client's own elapsed time).
    pub ops_per_s: f64,
    /// Process CPU seconds spent between the clients' release and return.
    pub cpu_s: f64,
    /// Replies kept for checking after the window.
    pub kept: Vec<(Op, Answer)>,
    pub spans: Vec<Span>,
    /// Where each client's stream stands afterwards.
    pub next_j: [u64; crate::CLIENTS],
    pub first_error: Option<String>,
    /// When the clients were released.
    pub started: Option<Instant>,
}

/// How long a loop runs.
#[derive(Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    /// This many ops per client.
    Count(u64),
}

/// One client thread's connection or training state.
enum Worker<'a> {
    Net {
        door: Door,
        conn: Result<Conn, String>,
        line: String,
    },
    Train {
        model: &'a TrainedModel,
        subs: &'a [Submission],
        params: Params,
    },
}

impl Worker<'_> {
    fn perform(&mut self, op: &Op, pool: &[Program]) -> Result<Option<Answer>, String> {
        match self {
            Worker::Net { door, conn, line } => {
                render_line(op, pool, line).expect("served workloads have no training ops");
                let result = match conn {
                    Ok(live) => live.call(op, line),
                    Err(e) => Err(format!("not connected: {e}")),
                };
                if result.is_err() {
                    // A timed-out session may still receive the late reply;
                    // only a fresh one is in step with the requests again.
                    *conn = Conn::open(*door);
                }
                result.map(Some)
            }
            Worker::Train {
                model,
                subs,
                params,
            } => train_step(model, params, subs, op).map(|()| None),
        }
    }
}

/// The closed loop: `CLIENTS` clients, each sending its next op only after
/// the previous one answered.
pub struct Load<'a> {
    pub target: Target<'a>,
    pub pool: &'a [Program],
    pub check: Check<'a>,
}

impl Load<'_> {
    /// Runs client `c` over `ops(c, j)` for `j` from `start_j[c]`; clients
    /// start together behind a barrier.
    pub fn run(
        &self,
        ops: &(dyn Fn(usize, u64) -> Op + Sync),
        start_j: [u64; crate::CLIENTS],
        until: Until,
        traced: bool,
    ) -> LoopResult {
        let barrier = Barrier::new(crate::CLIENTS + 1);
        let mut merged = LoopResult::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..crate::CLIENTS)
                .map(|c| {
                    let barrier = &barrier;
                    scope.spawn(move || self.client(c, ops, start_j[c], until, traced, barrier))
                })
                .collect();
            barrier.wait();
            merged.started = Some(Instant::now());
            let cpu_before = cpu_seconds();
            for (c, handle) in handles.into_iter().enumerate() {
                let part = handle.join().expect("client thread panicked");
                merged.latencies_ms.extend(part.latencies_ms);
                merged.ok += part.ok;
                merged.failed += part.failed;
                merged.ops_per_s += part.ops_per_s;
                merged.kept.extend(part.kept);
                merged.spans.extend(part.spans);
                merged.next_j[c] = part.next_j[c];
                merged.first_error = merged.first_error.take().or(part.first_error);
            }
            merged.cpu_s = cpu_seconds() - cpu_before;
        });
        merged
    }

    fn client(
        &self,
        c: usize,
        ops: &(dyn Fn(usize, u64) -> Op + Sync),
        start_j: u64,
        until: Until,
        traced: bool,
        barrier: &Barrier,
    ) -> LoopResult {
        let mut out = LoopResult::default();
        let mut worker = match self.target {
            Target::Net(door) => Worker::Net {
                door,
                conn: Conn::open(door),
                line: String::new(),
            },
            Target::Train { model, subs } => Worker::Train {
                model,
                subs,
                params: model.params.clone(),
            },
        };
        barrier.wait();
        let start = Instant::now();
        let mut j = start_j;
        loop {
            match until {
                Until::Elapsed(window) if start.elapsed() >= window => break,
                Until::Count(n) if j - start_j >= n => break,
                _ => {}
            }
            let op = ops(c, j);
            let t0 = now_ns();
            let result = worker.perform(&op, self.pool);
            let t1 = now_ns();
            let verdict = result.and_then(|answer| match (&self.check, &op, answer) {
                (Check::Table { probs, set }, Op::Compare { a, b, .. }, Some(Answer::Prob(p))) => {
                    let want = probs[*a as usize * set + *b as usize] as f64;
                    if p == want {
                        Ok(())
                    } else {
                        Err(format!("compare({a},{b}) answered {p}, reference {want}"))
                    }
                }
                (Check::Sample, _, Some(answer)) => {
                    if j % crate::SAMPLE_EVERY == 0 {
                        out.kept.push((op.clone(), answer));
                    }
                    Ok(())
                }
                _ => Ok(()),
            });
            match verdict {
                Ok(()) => {
                    out.ok += 1;
                    out.latencies_ms.push((t1 - t0) as f64 / 1e6);
                }
                Err(e) => {
                    out.failed += 1;
                    out.first_error.get_or_insert(e);
                }
            }
            if traced {
                out.spans.push(Span {
                    name: "client.request",
                    parent: None,
                    request: j * crate::CLIENTS as u64 + c as u64,
                    start_ns: t0,
                    end_ns: t1,
                });
            }
            j += 1;
        }
        out.ops_per_s = out.ok as f64 / start.elapsed().as_secs_f64();
        out.next_j[c] = j;
        out
    }
}

/// One optimizer step through the trainer's public entry point; fails on a
/// non-finite loss. Labels are synthetic and deterministic (the larger tree
/// is "slower"): speed does not depend on them.
pub fn train_step(
    model: &TrainedModel,
    params: &mut Params,
    subs: &[Submission],
    op: &Op,
) -> Result<(), String> {
    let pairs = labelled_pairs(subs, op);
    let report = train(
        &model.comparator,
        params,
        subs,
        &pairs,
        &train_config(pairs.len()),
    );
    match report.epoch_loss.first() {
        Some(loss) if loss.is_finite() => Ok(()),
        other => Err(format!("training loss {other:?}")),
    }
}

pub fn labelled_pairs(subs: &[Submission], op: &Op) -> Vec<Pair> {
    crate::corpus::pairs_of(op)
        .into_iter()
        .map(|(a, b)| {
            let (a, b) = (a as usize, b as usize);
            let slower = subs[a].graph.node_count() >= subs[b].graph.node_count();
            Pair {
                a,
                b,
                label: slower as u8 as f32,
            }
        })
        .collect()
}

/// One epoch over `pairs` pairs in one batch = exactly one optimizer step.
pub fn train_config(pairs: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: pairs,
        lr: 0.01,
        clip: 5.0,
        threads: 1,
        seed: 0,
    }
}

/// Linear-interpolated percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it; below that a percentile is one or two outliers.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // In per mille, so that "ten beyond" is exact integer arithmetic.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) >= 10 * 1000)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// User + system CPU seconds of this process, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (100 per second on Linux).
    let after = &stat[stat.rfind(')').expect("comm field") + 2..];
    let ticks: u64 = after
        .split(' ')
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size of this process.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn answers_are_read_from_protocol_replies() {
        let compare =
            json::parse(r#"{"ok":true,"op":"compare","prob_first_slower":0.25}"#).unwrap();
        assert_eq!(answer_of(&compare), Some(Answer::Prob(0.25)));
        let rank = json::parse(
            r#"{"ok":true,"op":"rank","ranking":[{"rank":1,"candidate":2},{"rank":2,"candidate":0}]}"#,
        )
        .unwrap();
        assert_eq!(answer_of(&rank), Some(Answer::Order(vec![2, 0])));
        let refused = json::parse(r#"{"ok":false,"error":"x"}"#).unwrap();
        assert_eq!(answer_of(&refused), None);
    }

    #[test]
    fn proc_counters_read() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 1.0);
    }
}
