//! Problem definitions: the nine curated problems of Table I plus the
//! parametric multi-problem (MP) pool.
//!
//! Each [`ProblemSpec`] bundles (a) the paper's reference statistics where
//! applicable, (b) an input model the judge samples test cases from, and
//! (c) a family of solution *strategies* with distinct asymptotic cost that
//! the generator turns into submissions.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::interp::InputTok;

/// The nine curated problems (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProblemTag {
    /// 4 C — Registration (hashing).
    A,
    /// 230 B — T-Prime (binary search, number theory).
    B,
    /// 1027 C — Minimum Value Rectangle (greedy).
    C,
    /// 914 D — Bash and a Tough Math Puzzle (data structures, number theory).
    D,
    /// 1004 C — Sonya and Robots (constructive).
    E,
    /// 1006 E — Military Problem (DFS, graphs, trees).
    F,
    /// 1037 D — Valid BFS? (DFS/BFS, graphs, trees).
    G,
    /// 489 C — Given Length and Sum of Digits (dynamic programming).
    H,
    /// 919 D — Substring (DFS, DP, graphs).
    I,
}

impl ProblemTag {
    /// All nine tags in Table I order.
    pub const ALL: [ProblemTag; 9] = [
        ProblemTag::A,
        ProblemTag::B,
        ProblemTag::C,
        ProblemTag::D,
        ProblemTag::E,
        ProblemTag::F,
        ProblemTag::G,
        ProblemTag::H,
        ProblemTag::I,
    ];

    /// The Codeforces contest/problem this tag refers to in the paper.
    pub fn contest(self) -> &'static str {
        match self {
            ProblemTag::A => "4 C",
            ProblemTag::B => "230 B",
            ProblemTag::C => "1027 C",
            ProblemTag::D => "914 D",
            ProblemTag::E => "1004 C",
            ProblemTag::F => "1006 E",
            ProblemTag::G => "1037 D",
            ProblemTag::H => "489 C",
            ProblemTag::I => "919 D",
        }
    }

    /// The algorithm group listed in Table I.
    pub fn algorithms(self) -> &'static str {
        match self {
            ProblemTag::A => "Hashing",
            ProblemTag::B => "Binary search and number theory",
            ProblemTag::C => "Greedy",
            ProblemTag::D => "Data structure and number theory",
            ProblemTag::E => "Constructive algorithm",
            ProblemTag::F => "DFS, Graphs, and Trees",
            ProblemTag::G => "DFS, Graphs, and Trees",
            ProblemTag::H => "Dynamic programming (DP)",
            ProblemTag::I => "DFS, DP, Graphs",
        }
    }
}

impl std::fmt::Display for ProblemTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Reference runtime statistics from Table I (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperStats {
    /// Number of correct submissions the paper collected.
    pub count: usize,
    /// Minimum runtime.
    pub min_ms: f64,
    /// Median runtime.
    pub median_ms: f64,
    /// Maximum runtime.
    pub max_ms: f64,
    /// Standard deviation.
    pub stddev_ms: f64,
}

impl ProblemTag {
    /// Table I row for this problem.
    pub fn paper_stats(self) -> PaperStats {
        let (count, min, med, max, sd) = match self {
            ProblemTag::A => (6616, 86.0, 1269.0, 4063.0, 445.0),
            ProblemTag::B => (6099, 31.0, 658.0, 1872.0, 386.0),
            ProblemTag::C => (832, 72.0, 437.0, 1455.0, 344.0),
            ProblemTag::D => (612, 206.0, 534.0, 1965.0, 464.0),
            ProblemTag::E => (505, 3.0, 80.0, 137.0, 48.0),
            ProblemTag::F => (599, 51.0, 214.0, 1647.0, 471.0),
            ProblemTag::G => (207, 5.0, 90.0, 450.0, 63.0),
            ProblemTag::H => (5192, 2.0, 9.0, 29.0, 15.0),
            ProblemTag::I => (475, 2.0, 285.0, 800.0, 202.0),
        };
        PaperStats {
            count,
            min_ms: min,
            median_ms: med,
            max_ms: max,
            stddev_ms: sd,
        }
    }
}

/// Identifies a problem: one of the curated Table I problems or a member of
/// the parametric multi-problem pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProblemKey {
    /// A curated problem (A–I).
    Curated(ProblemTag),
    /// The `i`-th problem of the MP pool.
    Mp(u16),
}

impl std::fmt::Display for ProblemKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemKey::Curated(tag) => write!(f, "{tag}"),
            ProblemKey::Mp(i) => write!(f, "MP{i:03}"),
        }
    }
}

/// Input-distribution parameters the judge samples test cases from.
///
/// All sizes are deliberately small compared to real Codeforces limits: the
/// tree-walking interpreter charges identical *relative* costs at any
/// scale, and small inputs keep corpus generation fast.
#[derive(Debug, Clone, PartialEq)]
pub struct InputSpec {
    /// Primary size (elements, nodes, words — family specific).
    pub n: usize,
    /// Secondary size (queries, edges) where the family uses one.
    pub m: usize,
    /// Value ceiling for sampled numbers.
    pub max_value: i64,
    /// Word length for string problems.
    pub word_len: usize,
}

/// A solution strategy: one asymptotic approach to a problem family.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    /// Short human-readable name (e.g. `"sieve+bsearch"`).
    pub name: &'static str,
    /// Popularity weight used when sampling submissions.
    pub weight: f32,
    /// Coarse cost rank within the family (0 = fastest). Used only by
    /// tests and diagnostics — real runtimes come from the judge.
    pub cost_rank: u8,
}

/// A fully specified problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSpec {
    /// Which problem this is.
    pub key: ProblemKey,
    /// The template family that builds solution programs.
    pub family: ProblemTag,
    /// Input-distribution parameters.
    pub input: InputSpec,
    /// Available strategies (sampled by weight).
    pub strategies: Vec<Strategy>,
}

impl ProblemSpec {
    /// The spec for a curated problem, with input sizes tuned so the judged
    /// runtime distribution has the same *shape* as its Table I row.
    pub fn curated(tag: ProblemTag) -> ProblemSpec {
        let input = match tag {
            ProblemTag::A => InputSpec {
                n: 70,
                m: 0,
                max_value: 0,
                word_len: 8,
            },
            ProblemTag::B => InputSpec {
                n: 120,
                m: 0,
                max_value: 10_000,
                word_len: 0,
            },
            ProblemTag::C => InputSpec {
                n: 90,
                m: 0,
                max_value: 150,
                word_len: 0,
            },
            ProblemTag::D => InputSpec {
                n: 110,
                m: 50,
                max_value: 1_000,
                word_len: 0,
            },
            ProblemTag::E => InputSpec {
                n: 70,
                m: 0,
                max_value: 90,
                word_len: 0,
            },
            ProblemTag::F => InputSpec {
                n: 130,
                m: 60,
                max_value: 0,
                word_len: 0,
            },
            ProblemTag::G => InputSpec {
                n: 160,
                m: 0,
                max_value: 0,
                word_len: 0,
            },
            ProblemTag::H => InputSpec {
                n: 24,
                m: 90,
                max_value: 0,
                word_len: 0,
            },
            ProblemTag::I => InputSpec {
                n: 90,
                m: 200,
                max_value: 0,
                word_len: 4,
            },
        };
        ProblemSpec {
            key: ProblemKey::Curated(tag),
            family: tag,
            input,
            strategies: crate::problems::strategies(tag),
        }
    }

    /// A member of the parametric MP pool: a curated family with jittered
    /// input sizes and strategy weights, standing in for "one of 100
    /// different problems with sufficient variation in execution times".
    pub fn mp(index: u16, seed: u64) -> ProblemSpec {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x4d50 << 32) ^ index as u64);
        let family = ProblemTag::ALL[index as usize % ProblemTag::ALL.len()];
        let base = ProblemSpec::curated(family);
        let jitter = |v: usize, rng: &mut StdRng| -> usize {
            let f = rng.random_range(0.6..1.6);
            ((v as f64 * f) as usize).max(4)
        };
        let input = InputSpec {
            n: jitter(base.input.n, &mut rng),
            m: if base.input.m > 0 {
                jitter(base.input.m, &mut rng)
            } else {
                0
            },
            max_value: if base.input.max_value > 0 {
                (base.input.max_value as f64 * rng.random_range(0.5..2.0)) as i64
            } else {
                0
            },
            word_len: base.input.word_len,
        };
        let mut strategies = base.strategies;
        for s in &mut strategies {
            s.weight *= rng.random_range(0.5..2.0);
        }
        ProblemSpec {
            key: ProblemKey::Mp(index),
            family,
            input,
            strategies,
        }
    }

    /// Samples a strategy index according to the popularity weights.
    pub fn sample_strategy(&self, rng: &mut StdRng) -> usize {
        let total: f32 = self.strategies.iter().map(|s| s.weight).sum();
        let mut t = rng.random_range(0.0..total);
        for (i, s) in self.strategies.iter().enumerate() {
            if t < s.weight {
                return i;
            }
            t -= s.weight;
        }
        self.strategies.len() - 1
    }

    /// Generates one judge test case for this problem.
    pub fn generate_input(&self, rng: &mut StdRng) -> Vec<InputTok> {
        crate::problems::generate_input(self.family, &self.input, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_stats_match_paper() {
        let a = ProblemTag::A.paper_stats();
        assert_eq!(a.count, 6616);
        assert_eq!(a.median_ms, 1269.0);
        let h = ProblemTag::H.paper_stats();
        assert_eq!(h.median_ms, 9.0);
    }

    #[test]
    fn every_curated_problem_has_strategies() {
        for tag in ProblemTag::ALL {
            let spec = ProblemSpec::curated(tag);
            assert!(spec.strategies.len() >= 3, "{tag} has too few strategies");
            let total: f32 = spec.strategies.iter().map(|s| s.weight).sum();
            assert!(total > 0.0);
            // Cost ranks must include a fastest (0) and be distinct-ish.
            assert!(spec.strategies.iter().any(|s| s.cost_rank == 0));
        }
    }

    #[test]
    fn mp_pool_is_deterministic_and_varied() {
        let p1 = ProblemSpec::mp(7, 42);
        let p2 = ProblemSpec::mp(7, 42);
        assert_eq!(p1, p2, "same index+seed must give same spec");
        let p3 = ProblemSpec::mp(8, 42);
        assert_ne!(p1.key, p3.key);
        // 100 MP problems cover all nine families.
        let families: std::collections::HashSet<ProblemTag> =
            (0..100).map(|i| ProblemSpec::mp(i, 1).family).collect();
        assert_eq!(families.len(), 9);
    }

    #[test]
    fn strategy_sampling_respects_weights() {
        let spec = ProblemSpec::curated(ProblemTag::A);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; spec.strategies.len()];
        for _ in 0..2000 {
            counts[spec.sample_strategy(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "strategy {i} never sampled");
        }
    }

    #[test]
    fn display_keys() {
        assert_eq!(ProblemKey::Curated(ProblemTag::C).to_string(), "C");
        assert_eq!(ProblemKey::Mp(5).to_string(), "MP005");
    }
}
