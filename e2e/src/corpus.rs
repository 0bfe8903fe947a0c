//! Inputs: the program pool and the four request streams, both pure
//! functions of the run's seed.

use std::collections::HashSet;
use std::sync::Arc;

use ccsa_corpus::{generate_program, ProblemKey, ProblemSpec, ProblemTag, Submission};
use ccsa_cppast::{parse_program, print_program, AstGraph};
use ccsa_serve::json::Json;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::Plan;

/// One generated submission, in every form a layer wants it.
pub struct Program {
    pub source: String,
    /// `source` as a JSON string literal, so a request body is a
    /// concatenation and the load generator stays cheap beside the server.
    pub escaped: String,
    /// Parsed back from `source`, as the engine will parse it.
    pub graph: Arc<AstGraph>,
    problem: ProblemKey,
    strategy: usize,
}

/// Draws programs from the nine curated problems until `size` of them have
/// pairwise-distinct canonical hashes: a cache keyed by that hash must see
/// exactly `size` keys. The judge is not run; nothing here needs runtimes.
pub fn build_pool(seed: u64, size: usize) -> Vec<Program> {
    let specs: Vec<ProblemSpec> = ProblemTag::ALL
        .iter()
        .map(|&tag| ProblemSpec::curated(tag))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
    let mut seen = HashSet::with_capacity(size);
    let mut pool = Vec::with_capacity(size);
    for draw in 0..size * 16 {
        if pool.len() == size {
            break;
        }
        let spec = &specs[draw % specs.len()];
        let strategy = spec.sample_strategy(&mut rng);
        let source = print_program(&generate_program(spec, strategy, &mut rng));
        let parsed = parse_program(&source).expect("generated programs parse");
        let graph = AstGraph::from_program(&parsed);
        if seen.insert(graph.canonical_hash()) {
            pool.push(Program {
                escaped: Json::str(source.as_str()).to_string(),
                source,
                graph: Arc::new(graph),
                problem: spec.key,
                strategy,
            });
        }
    }
    assert_eq!(
        pool.len(),
        size,
        "generator ran out of distinct program shapes"
    );
    stratify(pool)
}

/// Orders the pool so that every prefix has the whole pool's spread of tree
/// sizes: sorted by size, then visited in bit-reversed order (0, 1/2, 1/4,
/// 3/4, ...). Parse and encode cost follow size, and `warm_http`'s 64
/// programs and the head of `mixed_fleet`'s popularity ranking are
/// prefixes; unordered, which sizes they drew moved those workloads by
/// several percent from seed to seed.
fn stratify(mut pool: Vec<Program>) -> Vec<Program> {
    pool.sort_by_key(|p| (p.graph.node_count(), p.source.len()));
    let bits = usize::BITS - (pool.len().max(2) - 1).leading_zeros();
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.sort_by_key(|&i| i.reverse_bits() >> (usize::BITS - bits));
    let mut slots: Vec<Option<Program>> = pool.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each index once"))
        .collect()
}

/// The pool as the trainer's input type.
pub fn submissions(pool: &[Program]) -> Vec<Submission> {
    pool.iter()
        .enumerate()
        .map(|(id, p)| Submission {
            id: id as u32,
            problem: p.problem,
            strategy: p.strategy,
            source: p.source.clone(),
            graph: (*p.graph).clone(),
            runtime_ms: 0.0,
        })
        .collect()
}

/// Popularity ranks `0..n` with P(rank r) ∝ 1 / (r + 1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank a uniform draw `u` in `[0, 1)` lands on.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmHttp,
    ColdHttp,
    MixedFleet,
    TrainFused,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmHttp,
        Workload::ColdHttp,
        Workload::MixedFleet,
        Workload::TrainFused,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHttp => "warm_http",
            Workload::ColdHttp => "cold_http",
            Workload::MixedFleet => "mixed_fleet",
            Workload::TrainFused => "train_fused",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One operation of a stream, as indices into the pool.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Compare {
        a: u32,
        b: u32,
        client: u16,
    },
    Rank {
        candidates: Vec<u32>,
        client: u16,
    },
    /// One optimizer step over these pairs.
    Train {
        pairs: Vec<(u32, u32)>,
    },
}

/// Generates a workload's operations. Operation `j` of client `c` depends
/// on `(seed, c, j)` alone, so a stream can be entered anywhere: the ladder
/// replays client 0's prefix, the traced loop continues where the untraced
/// one stopped.
pub struct Stream {
    workload: Workload,
    seed: u64,
    pool: u32,
    warm_set: u32,
    clients: u64,
    zipf: Zipf,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, plan: &Plan) -> Stream {
        Stream {
            workload,
            seed,
            pool: plan.pool as u32,
            warm_set: plan.warm_set as u32,
            clients: crate::CLIENTS as u64,
            zipf: Zipf::new(plan.pool, crate::ZIPF_S),
        }
    }

    pub fn op(&self, client: usize, j: u64) -> Op {
        // Global index: the two clients interleave over one sequence.
        let g = j * self.clients + client as u64;
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ g.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((client as u64) << 56),
        );
        let pool = self.pool as u64;
        let start = self.seed % pool;
        match self.workload {
            Workload::WarmHttp => {
                let a = rng.random_range(0..self.warm_set);
                let b = (a + 1 + rng.random_range(0..self.warm_set - 1)) % self.warm_set;
                Op::Compare { a, b, client: 0 }
            }
            // Cyclic over the whole pool from a seeded start: a program
            // returns after `pool` others, far beyond any cache smaller
            // than the pool.
            Workload::ColdHttp => Op::Compare {
                a: ((start + 2 * g) % pool) as u32,
                b: ((start + 2 * g + 1) % pool) as u32,
                client: 0,
            },
            Workload::MixedFleet => {
                let client = rng.random_range(0..crate::VIRTUAL_CLIENTS as u32) as u16;
                let wanted = if rng.random_bool(crate::RANK_SHARE) {
                    crate::RANK_K
                } else {
                    2
                };
                let mut picks: Vec<u32> = Vec::with_capacity(wanted);
                while picks.len() < wanted {
                    let p = self.zipf.rank(rng.random::<f64>()) as u32;
                    if !picks.contains(&p) {
                        picks.push(p);
                    }
                }
                if wanted == 2 {
                    Op::Compare {
                        a: picks[0],
                        b: picks[1],
                        client,
                    }
                } else {
                    Op::Rank {
                        candidates: picks,
                        client,
                    }
                }
            }
            Workload::TrainFused => {
                let per_op = 2 * crate::TRAIN_PAIRS as u64;
                Op::Train {
                    pairs: (0..crate::TRAIN_PAIRS as u64)
                        .map(|p| {
                            let a = (start + g * per_op + 2 * p) % pool;
                            (a as u32, ((a + 1) % pool) as u32)
                        })
                        .collect(),
                }
            }
        }
    }

    /// FNV-1a over the first `HASHED_OPS` operations of every client.
    pub fn hash(&self) -> u64 {
        const HASHED_OPS: u64 = 512;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for client in 0..self.clients as usize {
            for j in 0..HASHED_OPS {
                match self.op(client, j) {
                    Op::Compare { a, b, client } => {
                        [1, a as u64, b as u64, client as u64]
                            .into_iter()
                            .for_each(&mut eat);
                    }
                    Op::Rank { candidates, client } => {
                        eat(2);
                        candidates.iter().for_each(|&c| eat(c as u64));
                        eat(client as u64);
                    }
                    Op::Train { pairs } => {
                        eat(3);
                        pairs.iter().for_each(|&(a, b)| {
                            eat(a as u64);
                            eat(b as u64);
                        });
                    }
                }
            }
        }
        h
    }
}

/// The sources of the programs a served op names, in request order.
pub fn sources_of<'a>(op: &Op, pool: &'a [Program]) -> Vec<&'a str> {
    let source = |p: &u32| pool[*p as usize].source.as_str();
    match op {
        Op::Compare { a, b, .. } => vec![source(a), source(b)],
        Op::Rank { candidates, .. } => candidates.iter().map(source).collect(),
        Op::Train { .. } => unreachable!("training steps are not served"),
    }
}

/// The compare pairs an op touches: its own pair, a ranking's first two
/// candidates, or a training step's pairs. The probes that need pairs on
/// every workload (ladder on `train_fused`, training probe on the serving
/// workloads) draw them from here.
pub fn pairs_of(op: &Op) -> Vec<(u32, u32)> {
    match op {
        Op::Compare { a, b, .. } => vec![(*a, *b)],
        Op::Rank { candidates, .. } => vec![(candidates[0], candidates[1])],
        Op::Train { pairs } => pairs.clone(),
    }
}

/// Renders an op as a JSON-lines request (`None` for a training step).
pub fn render_line(op: &Op, pool: &[Program], out: &mut String) -> Option<()> {
    out.clear();
    match op {
        Op::Compare { a, b, client } => {
            out.push_str("{\"op\":\"compare\",");
            push_client(out, *client);
            out.push_str("\"first\":");
            out.push_str(&pool[*a as usize].escaped);
            out.push_str(",\"second\":");
            out.push_str(&pool[*b as usize].escaped);
            out.push('}');
        }
        Op::Rank { candidates, client } => {
            out.push_str("{\"op\":\"rank\",");
            push_client(out, *client);
            out.push_str("\"candidates\":[");
            for (i, c) in candidates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&pool[*c as usize].escaped);
            }
            out.push_str("]}");
        }
        Op::Train { .. } => return None,
    }
    Some(())
}

fn push_client(out: &mut String, client: u16) {
    use std::fmt::Write;
    write!(out, "\"client\":\"vc{client}\",").expect("writing to a String");
}

/// The HTTP path whose body is the same object as the JSON line (the path
/// implies `op`; a body may repeat it).
pub fn http_path(op: &Op) -> &'static str {
    match op {
        Op::Rank { .. } => "/v1/rank",
        _ => "/v1/compare",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let plan = Plan::full(1.0);
        for w in Workload::ALL {
            let a = Stream::new(w, 7, &plan);
            let b = Stream::new(w, 7, &plan);
            assert_eq!(a.hash(), b.hash(), "{}", w.name());
            assert_eq!(a.op(1, 33), b.op(1, 33));
            assert_ne!(a.hash(), Stream::new(w, 8, &plan).hash(), "{}", w.name());
        }
    }

    #[test]
    fn pool_has_the_planned_number_of_distinct_hashes() {
        let plan = Plan::full(1.0);
        let pool = build_pool(42, plan.pool);
        let hashes: HashSet<u64> = pool.iter().map(|p| p.graph.canonical_hash()).collect();
        assert_eq!(hashes.len(), 2048);
        let again = build_pool(42, plan.pool);
        assert!(again.iter().zip(&pool).all(|(a, b)| a.source == b.source));
        assert!(build_pool(43, 64)
            .iter()
            .zip(&pool)
            .any(|(a, b)| a.source != b.source));
        // Any prefix is a size-stratified sample of the whole.
        let mean = |ps: &[Program]| {
            ps.iter().map(|p| p.graph.node_count() as f64).sum::<f64>() / ps.len() as f64
        };
        let (warm, all) = (mean(&pool[..plan.warm_set]), mean(&pool));
        assert!(
            (warm - all).abs() < 0.03 * all,
            "warm set {warm} vs pool {all}"
        );
    }

    #[test]
    fn zipf_frequencies_follow_one_over_rank() {
        let zipf = Zipf::new(2048, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 2048];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf.rank(rng.random::<f64>())] += 1;
        }
        let h: f64 = (1..=2048).map(|r| 1.0 / r as f64).sum();
        for rank in [0usize, 1, 9, 99] {
            let expected = draws as f64 / ((rank + 1) as f64 * h);
            let got = counts[rank] as f64;
            assert!(
                (got - expected).abs() < 0.15 * expected + 30.0,
                "rank {rank}: {got} vs {expected}"
            );
        }
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_999), 2047);
    }

    #[test]
    fn mixed_stream_has_the_planned_rank_share_and_distinct_candidates() {
        let stream = Stream::new(Workload::MixedFleet, 3, &Plan::full(1.0));
        let mut ranks = 0;
        for j in 0..2000 {
            if let Op::Rank { candidates, .. } = stream.op(0, j) {
                ranks += 1;
                let distinct: HashSet<_> = candidates.iter().collect();
                assert_eq!(distinct.len(), crate::RANK_K);
            }
        }
        assert!((140..=260).contains(&ranks), "{ranks} rank ops in 2000");
    }
}
