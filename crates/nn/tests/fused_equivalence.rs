//! Property-based equivalence of the level-fused batched encoders
//! against the per-node sequential path, over randomly generated
//! corpus-style programs.
//!
//! The fused path reorders the computation (cross-tree level matmuls
//! instead of per-node matvecs) but is built to reproduce the sequential
//! accumulation order, so the two must agree to well under the 1e-5
//! budget on every tree, every stacking variant, and every encoder.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ccsa_cppast::{parse_program, AstGraph};
use ccsa_nn::gcn::{Activation, GcnConfig, GcnEncoder};
use ccsa_nn::param::{Ctx, Params};
use ccsa_nn::treelstm::{Direction, TreeLstmConfig, TreeLstmEncoder};
use ccsa_tensor::Tape;

/// Tolerance the fused path must meet against the sequential one.
const TOL: f32 = 1e-5;

/// A random mini-C++ expression of bounded depth.
fn random_expr(rng: &mut StdRng, depth: usize) -> String {
    if depth == 0 || rng.random_bool(0.4) {
        return match rng.random_range(0u32..4) {
            0 => format!("{}", rng.random_range(0i64..100)),
            1 => "x".to_string(),
            2 => "s".to_string(),
            _ => format!("{}", rng.random_range(0i64..10)),
        };
    }
    let a = random_expr(rng, depth - 1);
    let b = random_expr(rng, depth - 1);
    let op = ["+", "-", "*", "/", "%", "<", ">", "=="][rng.random_range(0usize..8)];
    format!("({a} {op} {b})")
}

/// A random statement; recursion bounded by `depth`.
fn random_stmt(rng: &mut StdRng, depth: usize, out: &mut String) {
    let choice = if depth == 0 {
        rng.random_range(0u32..2)
    } else {
        rng.random_range(0u32..6)
    };
    match choice {
        0 => out.push_str(&format!("s += {};", random_expr(rng, 1))),
        1 => out.push_str(&format!("x = {};", random_expr(rng, 2))),
        2 => {
            let n = rng.random_range(2i64..9);
            out.push_str(&format!("for (int i = 0; i < {n}; i++) {{ "));
            random_stmt(rng, depth - 1, out);
            out.push_str(" }");
        }
        3 => {
            out.push_str(&format!("if ({}) {{ ", random_expr(rng, 1)));
            random_stmt(rng, depth - 1, out);
            if rng.random_bool(0.5) {
                out.push_str(" } else { ");
                random_stmt(rng, depth - 1, out);
            }
            out.push_str(" }");
        }
        4 => {
            out.push_str("while (x < 20) { x++; ");
            random_stmt(rng, depth - 1, out);
            out.push_str(" }");
        }
        _ => {
            out.push_str("{ ");
            random_stmt(rng, depth - 1, out);
            out.push(' ');
            random_stmt(rng, depth - 1, out);
            out.push_str(" }");
        }
    }
}

/// A random parseable program with 1–2 functions and nested control flow.
fn random_program(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    if rng.random_bool(0.4) {
        src.push_str("int helper(int x) { int s = 1; ");
        random_stmt(&mut rng, 2, &mut src);
        src.push_str(" return s; } ");
    }
    src.push_str("int main() { int x = 1; int s = 0; ");
    let stmts = rng.random_range(1usize..4);
    for _ in 0..stmts {
        random_stmt(&mut rng, 3, &mut src);
        src.push(' ');
    }
    src.push_str("return s; }");
    src
}

fn random_batch(seed: u64, batch: usize) -> Vec<AstGraph> {
    (0..batch)
        .map(|k| {
            let src = random_program(seed.wrapping_mul(0x9e37_79b9).wrapping_add(k as u64));
            AstGraph::from_program(
                &parse_program(&src)
                    .unwrap_or_else(|e| panic!("generated source invalid: {e}\n{src}")),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fused_treelstm_matches_sequential(
        seed in 0u64..1_000_000,
        batch in 1usize..9,
        layers in 1usize..4,
        dir in prop::sample::select(vec![
            Direction::Uni,
            Direction::Bi,
            Direction::Alternating,
        ]),
    ) {
        let graphs = random_batch(seed, batch);
        let refs: Vec<&AstGraph> = graphs.iter().collect();
        let config = TreeLstmConfig {
            embed_dim: 6,
            hidden: 5,
            layers,
            direction: dir,
            sigmoid_candidate: seed % 2 == 0,
        };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let enc = TreeLstmEncoder::new(&config, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let fused = enc.encode_batch(&ctx, &refs);
        let sequential: Vec<_> = refs.iter().map(|g| enc.encode(&ctx, g)).collect();
        for (g, (f, s)) in fused.iter().zip(&sequential).enumerate() {
            let diff = f.value().max_abs_diff(&s.value());
            prop_assert!(
                diff <= TOL,
                "graph {g} ({} nodes, {dir} {layers}-layer): diff {diff}",
                graphs[g].node_count(),
            );
        }
    }

    #[test]
    fn fused_gcn_matches_sequential(
        seed in 0u64..1_000_000,
        batch in 1usize..9,
        layers in 1usize..5,
    ) {
        let graphs = random_batch(seed ^ 0x5a5a, batch);
        let refs: Vec<&AstGraph> = graphs.iter().collect();
        let config = GcnConfig {
            embed_dim: 6,
            hidden: 5,
            layers,
            activation: if seed % 2 == 0 { Activation::Relu } else { Activation::Tanh },
        };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let enc = GcnEncoder::new(&config, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let fused = enc.encode_batch(&ctx, &refs);
        let sequential: Vec<_> = refs.iter().map(|g| enc.encode(&ctx, g)).collect();
        for (g, (f, s)) in fused.iter().zip(&sequential).enumerate() {
            let diff = f.value().max_abs_diff(&s.value());
            prop_assert!(
                diff <= TOL,
                "graph {g} ({} nodes, {layers}-layer GCN): diff {diff}",
                graphs[g].node_count(),
            );
        }
    }

    #[test]
    fn fused_gradients_match_sequential_gradients(
        seed in 0u64..1_000_000,
        batch in 1usize..5,
    ) {
        // Training through the fused path must see the same loss surface:
        // parameter gradients of Σ tanh(code) agree with the sequential
        // graph's gradients within a small multiple of f32 noise.
        let graphs = random_batch(seed ^ 0x77, batch);
        let refs: Vec<&AstGraph> = graphs.iter().collect();
        let config = TreeLstmConfig {
            embed_dim: 4,
            hidden: 4,
            layers: 2,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x99);
        let enc = TreeLstmEncoder::new(&config, &mut params, &mut rng);

        let grads_of = |fused: bool| {
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, &params);
            let codes = if fused {
                enc.encode_batch(&ctx, &refs)
            } else {
                refs.iter().map(|g| enc.encode(&ctx, g)).collect()
            };
            let loss = tape.stack(&codes).tanh().sum();
            let grads = tape.backward(loss);
            ctx.grads(&grads)
        };
        let fused = grads_of(true);
        let sequential = grads_of(false);
        for (name, tensor) in params.iter() {
            // A parameter the loss genuinely does not depend on (e.g. the
            // forget gate of a final downward layer, whose only read node
            // is the parentless root) may be reported as an explicit zero
            // by one path and as absent by the other.
            let zeros = ccsa_tensor::Tensor::zeros(tensor.shape());
            let f = fused.get(name).unwrap_or(&zeros);
            let s = sequential.get(name).unwrap_or(&zeros);
            let diff = f.max_abs_diff(s);
            prop_assert!(diff <= 1e-4, "gradient for {name} diverged by {diff}");
        }
    }
}
