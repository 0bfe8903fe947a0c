//! Child-sum tree-LSTM encoders for ASTs (§III-B of the paper).
//!
//! The upward cell implements Eq. (4): per node `j` with children `C(j)`,
//!
//! ```text
//! h̃ = Σ_k h_k
//! i  = σ(W_i x_j + U_i h̃ + b_i)
//! f_k = σ(W_f x_j + U_f h_k + b_f)      (one forget gate per child)
//! o  = σ(W_o x_j + U_o h̃ + b_o)
//! u  = tanh(W_u x_j + U_u h̃ + b_u)
//! c  = i ⊙ u + Σ_k f_k ⊙ c_k
//! h  = o ⊙ tanh(c)
//! ```
//!
//! Three stacked-layer variants follow §IV-C / Figure 2:
//!
//! * [`Direction::Uni`] — upward passes only; layer *l* feeds its per-node
//!   hidden states to layer *l+1*.
//! * [`Direction::Bi`] — each layer runs an independent upward and
//!   downward pass and concatenates the two hidden states per node. The
//!   final layer runs upward only ("the downward pass in the final layer
//!   is not required" — the classifier consumes the root state).
//! * [`Direction::Alternating`] — layers alternate upward, downward,
//!   upward… with half the parameters of `Bi`; the paper's best performer.
//!
//! The downward pass treats the parent as the single "child": the root
//! starts from zero state and every node receives its parent's (h, c) —
//! "the parent node copies its representation to all its children".
//!
//! Note on Eq. (3)/(4): the paper's text writes `u = σ(…)`, while the
//! original Tai et al. formulation uses `tanh`. [`TreeLstmConfig::sigmoid_candidate`]
//! selects the paper-literal variant; the default follows Tai et al.
//!
//! The four gate projections of each cell are stored **fused**: one
//! `[4h, x_dim]` input matrix, one `[4h, h]` hidden matrix and one
//! `[4h]` bias, with gate row blocks ordered by [`GATE_ORDER`]. Both
//! the per-node cell and the level-fused batched pass compute a single
//! pre-activation per projection and split it per gate afterwards —
//! bit-identical to four separate projections, at a quarter of the
//! matmul launches.

use std::sync::Arc;

use rand::rngs::StdRng;

use ccsa_cppast::AstGraph;
use ccsa_tensor::{ChildSumIncoming, Var};

use crate::init;
use crate::param::{Ctx, Params};

/// Stacking scheme for multi-layer tree-LSTMs (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Leaf-to-root passes only.
    Uni,
    /// Independent up + down passes per layer, concatenated.
    Bi,
    /// Alternating up/down/up… passes.
    Alternating,
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::Uni => write!(f, "uni-directional"),
            Direction::Bi => write!(f, "bi-directional"),
            Direction::Alternating => write!(f, "alternating"),
        }
    }
}

/// Hyper-parameters of a tree-LSTM encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLstmConfig {
    /// Node-embedding dimensionality λ (paper: 120).
    pub embed_dim: usize,
    /// Hidden-state size d (paper: 100).
    pub hidden: usize,
    /// Number of stacked layers (paper explores 1–3).
    pub layers: usize,
    /// Stacking scheme.
    pub direction: Direction,
    /// Use the paper-literal `σ` candidate activation instead of Tai
    /// et al.'s `tanh`.
    pub sigmoid_candidate: bool,
}

impl TreeLstmConfig {
    /// The paper's best configuration: 3-layer alternating, d=100, λ=120.
    pub fn paper() -> TreeLstmConfig {
        TreeLstmConfig {
            embed_dim: 120,
            hidden: 100,
            layers: 3,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        }
    }

    /// A small configuration for tests and quick experiments.
    pub fn small(hidden: usize) -> TreeLstmConfig {
        TreeLstmConfig {
            embed_dim: hidden,
            hidden,
            layers: 1,
            direction: Direction::Uni,
            sigmoid_candidate: false,
        }
    }
}

/// Row-block order of the fused gate tensors: input, output, candidate,
/// forget. The forget block sits last so the i/o/u blocks the child-sum
/// pre-activation needs are one contiguous prefix.
pub const GATE_ORDER: [char; 4] = ['i', 'o', 'u', 'f'];

/// Concatenates four equal-width per-gate matrices (or vectors) into the
/// fused row-block layout of [`GATE_ORDER`]: `[h, d]` parts become
/// `[4h, d]`, `[h]` parts become `[4h]`.
///
/// # Panics
///
/// Panics if shapes disagree or parts are not all rank 1 or all rank 2.
fn fuse_gate_blocks(parts: [&ccsa_tensor::Tensor; 4]) -> ccsa_tensor::Tensor {
    let shape = parts[0].shape();
    let mut data = Vec::with_capacity(shape.len() * 4);
    for p in parts {
        assert_eq!(p.shape(), shape, "gate block shape mismatch");
        data.extend_from_slice(p.as_slice());
    }
    match shape.rank() {
        1 => ccsa_tensor::Tensor::from_vec(data, [4 * shape.len()]),
        2 => ccsa_tensor::Tensor::from_vec(data, [4 * shape.rows(), shape.cols()]),
        _ => panic!("gate blocks must be vectors or matrices, got {shape}"),
    }
}

/// One direction's gate parameters for one layer, fused: the four gate
/// projections live in single tensors (row blocks ordered by
/// [`GATE_ORDER`]) so each level runs one matmul per projection instead
/// of four.
#[derive(Debug, Clone)]
struct CellParams {
    /// `[4h, x_dim]` input projections (W row blocks).
    w: String,
    /// `[4h, h]` hidden projections (U row blocks).
    u: String,
    /// `[4h]` biases (forget block initialised to 1).
    b: String,
}

impl CellParams {
    fn new(
        prefix: &str,
        x_dim: usize,
        hidden: usize,
        params: &mut Params,
        rng: &mut StdRng,
    ) -> CellParams {
        // Draw the per-gate blocks in the historical registration order
        // (w_i, u_i, w_f, u_f, w_o, u_o, w_u, u_u) with per-gate Xavier
        // bounds, so the random stream — and therefore every seeded run
        // and previously trained checkpoint — is bit-identical to the
        // unfused layout.
        let w_i = init::xavier(hidden, x_dim, rng);
        let u_i = init::xavier(hidden, hidden, rng);
        let w_f = init::xavier(hidden, x_dim, rng);
        let u_f = init::xavier(hidden, hidden, rng);
        let w_o = init::xavier(hidden, x_dim, rng);
        let u_o = init::xavier(hidden, hidden, rng);
        let w_u = init::xavier(hidden, x_dim, rng);
        let u_u = init::xavier(hidden, hidden, rng);
        let w = format!("{prefix}.w");
        let u = format!("{prefix}.u");
        let b = format!("{prefix}.b");
        params.insert(&w, fuse_gate_blocks([&w_i, &w_o, &w_u, &w_f]));
        params.insert(&u, fuse_gate_blocks([&u_i, &u_o, &u_u, &u_f]));
        // Positive forget bias (last block): standard LSTM practice,
        // keeps early training from zeroing child states.
        let mut bias = vec![0.0f32; 4 * hidden];
        for v in &mut bias[3 * hidden..] {
            *v = 1.0;
        }
        params.insert(&b, ccsa_tensor::Tensor::from_vec(bias, [4 * hidden]));
        CellParams { w, u, b }
    }

    /// Applies the child-sum cell to one node. `children` supplies the
    /// (h, c) pairs being aggregated — actual children for the upward
    /// pass, the single parent for the downward pass.
    fn step<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        x: Var<'t>,
        children: &[(Var<'t>, Var<'t>)],
        sigmoid_candidate: bool,
        hidden: usize,
    ) -> (Var<'t>, Var<'t>) {
        let h_sum = if children.is_empty() {
            ctx.tape.zeros([hidden])
        } else {
            let hs: Vec<Var<'t>> = children.iter().map(|&(h, _)| h).collect();
            ctx.tape.add_n(&hs)
        };

        // One fused matvec per projection ([4h, d]·x + b, [4h, h]·h̃),
        // split into the gate blocks afterwards. Per-element arithmetic
        // is identical to four separate gate matvecs, so results match
        // the unfused cell bit-for-bit. The h̃ matvec includes the unused
        // forget block: avoiding it would need a per-node [3h, h] prefix
        // gather that costs more than the h² madds it saves (the fused
        // pass hoists that gather per *pass*, where it does pay off).
        let wxb = ctx.param(&self.w).affine(x, ctx.param(&self.b));
        let pre = wxb.add(ctx.param(&self.u).matvec(h_sum));
        let i = pre.slice_cols(0, hidden).sigmoid();
        let o = pre.slice_cols(hidden, hidden).sigmoid();
        let u_pre = pre.slice_cols(2 * hidden, hidden);
        let u = if sigmoid_candidate {
            u_pre.sigmoid()
        } else {
            u_pre.tanh()
        };

        let mut c = i.mul(u);
        if !children.is_empty() {
            // The forget gate aggregates per child: W_f x + b_f is the
            // fused pre-activation's last block, U_f the last row block
            // of the fused hidden projection.
            let fx = wxb.slice_cols(3 * hidden, hidden);
            let u_f = ctx
                .param(&self.u)
                .index_rows((3 * hidden..4 * hidden).collect::<Vec<usize>>());
            for &(h_k, c_k) in children {
                let f_k = fx.add(u_f.matvec(h_k)).sigmoid();
                c = c.add(f_k.mul(c_k));
            }
        }
        let h = o.mul(c.tanh());
        (h, c)
    }
}

/// The batch's global node numbering: graph `g`'s node `ix` lives at
/// global id `offsets[g] + ix`; `offsets` carries a final end sentinel.
struct BatchLayout<'g> {
    graphs: &'g [&'g AstGraph],
    offsets: Vec<usize>,
}

impl BatchLayout<'_> {
    fn total(&self) -> usize {
        *self.offsets.last().expect("offsets include the end")
    }

    /// The global ids that node `node` of graph `g` aggregates from:
    /// its children for the upward pass, its parent (none for a root)
    /// for the downward pass.
    fn incoming(&self, g: usize, node: usize, up: bool) -> impl Iterator<Item = usize> + '_ {
        let base = self.offsets[g];
        let ix = (node - base) as u32;
        let graph = self.graphs[g];
        let (children, parent): (&[u32], Option<u32>) = if up {
            (graph.children(ix), None)
        } else {
            (&[], (ix != graph.root()).then(|| graph.parent(ix)))
        };
        children
            .iter()
            .copied()
            .chain(parent)
            .map(move |src| base + src as usize)
    }
}

/// A pass within one layer.
// The variant payloads are name bundles of very different sizes; only a
// handful of LayerKind values exist per encoder, so boxing the large
// variant would add indirection for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum LayerKind {
    Up(CellParams),
    Down(CellParams),
    UpDown(CellParams, CellParams),
}

/// A multi-layer child-sum tree-LSTM encoder: AST → code vector.
#[derive(Debug, Clone)]
pub struct TreeLstmEncoder {
    config: TreeLstmConfig,
    embedding: crate::layers::Embedding,
    layers: Vec<LayerKind>,
}

impl TreeLstmEncoder {
    /// Registers all parameters for the configured stack.
    ///
    /// # Panics
    ///
    /// Panics if `config.layers == 0`.
    pub fn new(config: &TreeLstmConfig, params: &mut Params, rng: &mut StdRng) -> TreeLstmEncoder {
        assert!(config.layers > 0, "encoder needs at least one layer");
        let embedding = crate::layers::Embedding::new(
            "tree.emb",
            ccsa_cppast::VOCAB_SIZE,
            config.embed_dim,
            params,
            rng,
        );
        let h = config.hidden;
        let mut layers = Vec::with_capacity(config.layers);
        let mut x_dim = config.embed_dim;
        for l in 0..config.layers {
            let is_last = l + 1 == config.layers;
            let kind = match config.direction {
                Direction::Uni => {
                    let cell = CellParams::new(&format!("tree.l{l}.up"), x_dim, h, params, rng);
                    x_dim = h;
                    LayerKind::Up(cell)
                }
                Direction::Bi => {
                    if is_last {
                        // Final layer: upward only (classifier reads the root).
                        let cell = CellParams::new(&format!("tree.l{l}.up"), x_dim, h, params, rng);
                        x_dim = h;
                        LayerKind::Up(cell)
                    } else {
                        let up = CellParams::new(&format!("tree.l{l}.up"), x_dim, h, params, rng);
                        let down =
                            CellParams::new(&format!("tree.l{l}.down"), x_dim, h, params, rng);
                        x_dim = 2 * h;
                        LayerKind::UpDown(up, down)
                    }
                }
                Direction::Alternating => {
                    if l % 2 == 0 {
                        let cell = CellParams::new(&format!("tree.l{l}.up"), x_dim, h, params, rng);
                        x_dim = h;
                        LayerKind::Up(cell)
                    } else {
                        let cell =
                            CellParams::new(&format!("tree.l{l}.down"), x_dim, h, params, rng);
                        x_dim = h;
                        LayerKind::Down(cell)
                    }
                }
            };
            layers.push(kind);
        }
        TreeLstmEncoder {
            config: config.clone(),
            embedding,
            layers,
        }
    }

    /// The dimensionality of the produced code vector.
    pub fn output_dim(&self) -> usize {
        self.config.hidden
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &TreeLstmConfig {
        &self.config
    }

    /// Batched forward entry point — the serving hot path.
    ///
    /// Level-fused: nodes are bucketed by level *across every graph in
    /// the batch* and each gate runs one `[rows, d] · [d, h]` matmul per
    /// level instead of a matvec per node, so the whole mini-batch
    /// becomes a handful of large tensor ops per tree level. Parameters
    /// are bound once for the batch, and the fused ops all carry
    /// backward passes, so this path is differentiable end to end.
    ///
    /// The per-node reference is [`TreeLstmEncoder::encode`], graph by
    /// graph; the two agree to f32 equality (the fused ops reproduce the
    /// sequential accumulation order), which the equivalence property
    /// tests pin down.
    pub fn encode_batch<'t>(&self, ctx: &Ctx<'t, '_>, graphs: &[&AstGraph]) -> Vec<Var<'t>> {
        self.encode_batch_with_stats(ctx, graphs).0
    }

    /// [`TreeLstmEncoder::encode_batch`] plus fused-width telemetry (how
    /// many level matmuls ran and how many node rows they covered).
    pub fn encode_batch_with_stats<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        graphs: &[&AstGraph],
    ) -> (Vec<Var<'t>>, crate::FusedStats) {
        self.encode_batch_with_stats_in(ctx, graphs, &mut crate::SchedBufs::default())
    }

    /// [`TreeLstmEncoder::encode_batch_with_stats`] drawing its
    /// scheduling buffers from a caller-owned [`crate::SchedBufs`] —
    /// the steady-state serving entry, where a pool worker reuses one
    /// scratch across every batch it ever runs (see
    /// [`crate::EncodeScratch`]).
    pub fn encode_batch_with_stats_in<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        graphs: &[&AstGraph],
        sched: &mut crate::SchedBufs,
    ) -> (Vec<Var<'t>>, crate::FusedStats) {
        let mut stats = crate::FusedStats::default();
        if graphs.is_empty() {
            return (Vec::new(), stats);
        }
        sched.clear();
        // Global node numbering: graph g's node ix lives at
        // offsets[g] + ix. One embedding gather covers the whole batch.
        let mut offsets = Vec::with_capacity(graphs.len() + 1);
        let mut total = 0usize;
        for g in graphs {
            offsets.push(total);
            total += g.node_count();
            sched
                .ids
                .extend((0..g.node_count() as u32).map(|ix| g.kind_id(ix)));
        }
        offsets.push(total);
        let layout = BatchLayout { graphs, offsets };

        // On an inference tape each layer frees its input once its passes
        // have run: `input_from` marks where that input was recorded.
        let mut input_from = ctx.tape.len();
        let mut x = self.embedding.lookup(ctx, &sched.ids);
        let mut last = None;
        for layer in &self.layers {
            let layer_from = ctx.tape.len();
            let (h, next) = match layer {
                LayerKind::Up(cell) => {
                    let h = self.fused_pass(ctx, &layout, cell, x, true, &mut stats, sched);
                    (h, h)
                }
                LayerKind::Down(cell) => {
                    let h = self.fused_pass(ctx, &layout, cell, x, false, &mut stats, sched);
                    (h, h)
                }
                LayerKind::UpDown(up, down) => {
                    let hu = self.fused_pass(ctx, &layout, up, x, true, &mut stats, sched);
                    let hd = self.fused_pass(ctx, &layout, down, x, false, &mut stats, sched);
                    (hu, hu.concat_cols(hd))
                }
            };
            ctx.tape.release_since(input_from, &[h, next]);
            input_from = layer_from;
            last = Some(h);
            x = next;
        }
        // The code vector per graph: its root's hidden state in the final
        // pass (roots sit at each graph's global offset).
        let roots: Vec<usize> = layout.offsets[..graphs.len()].to_vec();
        let root_rows = last.expect("at least one layer").index_rows(roots);
        let codes = (0..graphs.len()).map(|g| root_rows.row(g)).collect();
        (codes, stats)
    }

    /// One level-scheduled pass (upward when `up`, else downward) over
    /// every graph in the batch. `x` is `[N, x_dim]` in global node
    /// order; the result is `[N, hidden]` in the same order.
    ///
    /// On an inference tape a level's temporaries are released as soon
    /// as its `h` and `c` rows exist, and the pass's per-level state as
    /// soon as the result is gathered, so a pass holds one level's gate
    /// buffers at a time instead of every level's.
    #[allow(clippy::too_many_arguments)]
    fn fused_pass<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        layout: &BatchLayout<'_>,
        cell: &CellParams,
        x: Var<'t>,
        up: bool,
        stats: &mut crate::FusedStats,
        sched: &mut crate::SchedBufs,
    ) -> Var<'t> {
        let total = layout.total();
        let hidden = self.config.hidden;
        // Schedule: upward levels are node heights (leaves first), so a
        // node runs only after all its children; downward levels are
        // depths (roots first), so a node runs only after its parent.
        // The level array and buckets live in the worker scratch —
        // capacity survives across batches.
        let level = &mut sched.level;
        level.clear();
        level.resize(total, 0);
        let mut max_level = 0usize;
        for (g, graph) in layout.graphs.iter().enumerate() {
            let base = layout.offsets[g];
            let n = graph.node_count();
            if up {
                // Children have higher indices than their parent
                // (construction invariant), so a reverse scan sees them
                // first.
                for ix in (0..n).rev() {
                    let mut h = 0usize;
                    for &c in graph.children(ix as u32) {
                        h = h.max(level[base + c as usize] + 1);
                    }
                    level[base + ix] = h;
                    max_level = max_level.max(h);
                }
            } else {
                for ix in 1..n {
                    let d = level[base + graph.parent(ix as u32) as usize] + 1;
                    level[base + ix] = d;
                    max_level = max_level.max(d);
                }
            }
        }
        if sched.levels.len() < max_level + 1 {
            sched.levels.resize_with(max_level + 1, Vec::new);
        }
        for bucket in &mut sched.levels {
            bucket.clear();
        }
        for (node, &l) in level.iter().enumerate().take(total) {
            sched.levels[l].push(node);
        }
        let levels = &sched.levels[..max_level + 1];

        // proc_row[node]: the node's row in processing order (levels are
        // appended as they complete). Each completed level stays its own
        // tensor in `level_h` / `level_c`; child/parent reads gather from
        // the level list directly (`gather_rows_multi`), so deep trees no
        // longer pay the old O(levels · N · h) per-level re-stacking copy.
        let mut proc_row = vec![usize::MAX; total];
        let mut level_h: Vec<Var<'t>> = Vec::new();
        let mut level_c: Vec<Var<'t>> = Vec::new();
        let mut done = 0usize;

        // Bound once per pass: the i/o/u prefix (first 3h rows) of the
        // fused `[4h, h]` hidden projection — the forget block never
        // multiplies h̃, so projecting against the prefix saves a quarter
        // of the level matmul — and the forget block (last h rows) for
        // the per-edge forget gate.
        let pass_from = ctx.tape.len();
        let u_iou = ctx
            .param(&cell.u)
            .index_rows((0..3 * hidden).collect::<Vec<usize>>());
        let u_f = ctx
            .param(&cell.u)
            .index_rows((3 * hidden..4 * hidden).collect::<Vec<usize>>());

        for sel in levels {
            let width = sel.len();
            let level_from = ctx.tape.len();

            // The incoming edges: children for the upward pass, the
            // parent for the downward pass, listed per node. The gathered
            // source rows (`hk`) feed both h̃ and the forget gates, and
            // the index lists are shared behind `Arc`s.
            let mut agg_rows: Vec<usize> = Vec::new();
            let mut agg_offsets: Vec<usize> = Vec::with_capacity(width + 1);
            agg_offsets.push(0);
            // A bucket lists its nodes in ascending global id, so the
            // owning graph only ever moves forward.
            let mut g = 0;
            for &node in sel {
                while node >= layout.offsets[g + 1] {
                    g += 1;
                }
                for src in layout.incoming(g, node, up) {
                    debug_assert_ne!(proc_row[src], usize::MAX, "level order violated");
                    agg_rows.push(proc_row[src]);
                }
                agg_offsets.push(agg_rows.len());
            }
            // A level either aggregates along every node or along none
            // (leaves going up, roots going down); with none, the cell
            // has no hidden projection of zero state to add.
            let incoming = (!agg_rows.is_empty()).then(|| {
                let agg_rows = Arc::new(agg_rows);
                let offsets = Arc::new(agg_offsets);
                let hk = ctx.tape.gather_rows_multi(&level_h, Arc::clone(&agg_rows));
                let h_tilde = ctx.tape.segment_sum(hk, Arc::clone(&offsets));
                ChildSumIncoming {
                    uh: h_tilde.matmul_nt(u_iou),
                    ufh: hk.matmul_nt(u_f),
                    ck: ctx.tape.gather_rows_multi(&level_c, agg_rows),
                    offsets,
                }
            });

            for (local, &node) in sel.iter().enumerate() {
                proc_row[node] = done + local;
            }
            // The one copy left: the bucket keeps its capacity for the
            // next batch, the tape op owns its index list.
            let xl = x.index_rows(sel.clone());

            // One matmul per projection for all four gates — the fused
            // `[width, d] · [d, 4h]` input projection (+ bias) here, the
            // `[width, h] · [h, 3h]` i/o/u and `[E, h] · [h, h]` forget
            // projections above — then one op for the cell's gate
            // algebra. Per element it runs the per-gate arithmetic of the
            // sequential cell, so the two agree bit for bit.
            let wxb = xl
                .matmul_nt(ctx.param(&cell.w))
                .add_row_broadcast(ctx.param(&cell.b));
            let (h_l, c_l) = ctx
                .tape
                .child_sum_cell(wxb, incoming, self.config.sigmoid_candidate);
            ctx.tape.release_since(level_from, &[h_l, c_l]);

            done += width;
            level_h.push(h_l);
            level_c.push(c_l);
            stats.levels += 1;
            stats.rows += width as u64;
        }

        // Back to global node order for the next layer / root readout.
        let perm: Vec<usize> = proc_row;
        let out = ctx.tape.gather_rows_multi(&level_h, perm);
        ctx.tape.release_since(pass_from, &[out]);
        out
    }

    /// Encodes an AST into its code vector (the root hidden state of the
    /// final upward pass; for a stack ending in a downward pass, the mean
    /// of leaf-ward states would discard the aggregation the paper relies
    /// on, so the root state of that pass is used as well).
    pub fn encode<'t>(&self, ctx: &Ctx<'t, '_>, graph: &AstGraph) -> Var<'t> {
        let n = graph.node_count();
        let ids: Vec<u16> = (0..n as u32).map(|ix| graph.kind_id(ix)).collect();
        let emb_rows = self.embedding.lookup(ctx, &ids);
        let mut inputs: Vec<Var<'t>> = (0..n).map(|i| emb_rows.row(i)).collect();

        let mut root_h = None;
        for layer in &self.layers {
            match layer {
                LayerKind::Up(cell) => {
                    let (hs, _cs) = self.upward(ctx, graph, cell, &inputs);
                    root_h = Some(hs[graph.root() as usize]);
                    inputs = hs;
                }
                LayerKind::Down(cell) => {
                    let hs = self.downward(ctx, graph, cell, &inputs);
                    root_h = Some(hs[graph.root() as usize]);
                    inputs = hs;
                }
                LayerKind::UpDown(up, down) => {
                    let (up_hs, _) = self.upward(ctx, graph, up, &inputs);
                    let down_hs = self.downward(ctx, graph, down, &inputs);
                    root_h = Some(up_hs[graph.root() as usize]);
                    inputs = up_hs
                        .iter()
                        .zip(&down_hs)
                        .map(|(&u, &d)| ctx.tape.concat(&[u, d]))
                        .collect();
                }
            }
        }
        root_h.expect("at least one layer")
    }

    /// Leaf-to-root pass: children processed before parents.
    fn upward<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        graph: &AstGraph,
        cell: &CellParams,
        inputs: &[Var<'t>],
    ) -> (Vec<Var<'t>>, Vec<Var<'t>>) {
        let n = graph.node_count();
        let mut hs: Vec<Option<Var<'t>>> = vec![None; n];
        let mut cs: Vec<Option<Var<'t>>> = vec![None; n];
        for ix in graph.post_order() {
            let children: Vec<(Var<'t>, Var<'t>)> = graph
                .children(ix)
                .iter()
                .map(|&c| (hs[c as usize].unwrap(), cs[c as usize].unwrap()))
                .collect();
            let (h, c) = cell.step(
                ctx,
                inputs[ix as usize],
                &children,
                self.config.sigmoid_candidate,
                self.config.hidden,
            );
            hs[ix as usize] = Some(h);
            cs[ix as usize] = Some(c);
        }
        (
            hs.into_iter().map(Option::unwrap).collect(),
            cs.into_iter().map(Option::unwrap).collect(),
        )
    }

    /// Root-to-leaf pass: each node aggregates its parent's state.
    fn downward<'t>(
        &self,
        ctx: &Ctx<'t, '_>,
        graph: &AstGraph,
        cell: &CellParams,
        inputs: &[Var<'t>],
    ) -> Vec<Var<'t>> {
        let n = graph.node_count();
        let mut hs: Vec<Option<Var<'t>>> = vec![None; n];
        let mut cs: Vec<Option<Var<'t>>> = vec![None; n];
        for ix in graph.pre_order() {
            let parents: Vec<(Var<'t>, Var<'t>)> = if ix == graph.root() {
                Vec::new()
            } else {
                let p = graph.parent(ix) as usize;
                vec![(hs[p].unwrap(), cs[p].unwrap())]
            };
            let (h, c) = cell.step(
                ctx,
                inputs[ix as usize],
                &parents,
                self.config.sigmoid_candidate,
                self.config.hidden,
            );
            hs[ix as usize] = Some(h);
            cs[ix as usize] = Some(c);
        }
        hs.into_iter().map(Option::unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsa_cppast::parse_program;
    use ccsa_tensor::Tape;
    use rand::SeedableRng;

    fn graph(src: &str) -> AstGraph {
        AstGraph::from_program(&parse_program(src).unwrap())
    }

    fn encode_with(config: &TreeLstmConfig, src: &str, seed: u64) -> Vec<f32> {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = TreeLstmEncoder::new(config, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        enc.encode(&ctx, &graph(src)).value().as_slice().to_vec()
    }

    #[test]
    fn all_variants_produce_finite_vectors() {
        for direction in [Direction::Uni, Direction::Bi, Direction::Alternating] {
            for layers in 1..=3 {
                let config = TreeLstmConfig {
                    embed_dim: 6,
                    hidden: 5,
                    layers,
                    direction,
                    sigmoid_candidate: false,
                };
                let v = encode_with(&config, "int main() { return 1 + 2 * 3; }", 7);
                assert_eq!(v.len(), 5, "{direction} {layers}-layer");
                assert!(
                    v.iter().all(|x| x.is_finite()),
                    "{direction} {layers}-layer: {v:?}"
                );
                assert!(
                    v.iter().any(|&x| x != 0.0),
                    "{direction} {layers}-layer all-zero"
                );
            }
        }
    }

    #[test]
    fn different_programs_different_codes() {
        let config = TreeLstmConfig::small(8);
        let a = encode_with(&config, "int main() { return 0; }", 3);
        let b = encode_with(
            &config,
            "int main() { for (int i = 0; i < 9; i++) { } return 0; }",
            3,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn child_order_permutation_invariance() {
        // The child-sum cell aggregates children by sum, so sibling order
        // must not change the root representation. Two functions in
        // different order produce mirrored root children.
        let config = TreeLstmConfig::small(6);
        let a = encode_with(
            &config,
            "int f() { return 1; } int g() { return 2 + 3; } int main() { return 0; }",
            5,
        );
        // Note: same multiset of subtrees under the root, different order.
        let b = encode_with(
            &config,
            "int g() { return 2 + 3; } int f() { return 1; } int main() { return 0; }",
            5,
        );
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() < 1e-5,
                "child-sum must be order invariant: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let config = TreeLstmConfig {
            embed_dim: 4,
            hidden: 4,
            layers: 3,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(11);
        let enc = TreeLstmEncoder::new(&config, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let g = graph("int main() { int x = 1; while (x < 5) x++; return x; }");
        let loss = enc.encode(&ctx, &g).sum();
        let grads = tape.backward(loss);
        let store = ctx.grads(&grads);
        for name in params.names() {
            assert!(
                store.get(name).is_some(),
                "parameter {name} received no gradient"
            );
        }
    }

    #[test]
    fn gradcheck_whole_encoder() {
        // End-to-end finite-difference check of the full 1-layer encoder —
        // embedding table, all eight gate matrices and four biases — on a
        // real (tiny) AST.
        let g = graph("int main() { return 1; }");
        let config = TreeLstmConfig::small(3);
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(2);
        let enc = TreeLstmEncoder::new(&config, &mut params, &mut rng);
        let tensors: Vec<ccsa_tensor::Tensor> = params.iter().map(|(_, t)| t.clone()).collect();
        let report = ccsa_tensor::grad_check(&tensors, 1e-2, |tape, vars| {
            let ctx = Ctx::with_bound(tape, &params, vars);
            ccsa_tensor::TapeScalar(enc.encode(&ctx, &g).tanh().sum())
        });
        assert!(
            report.passes(3e-2),
            "tree-LSTM gradient check failed: {report:?}"
        );
    }

    #[test]
    fn downward_pass_sees_ancestors() {
        // In an alternating 2-layer stack the second (downward) pass must
        // propagate root information to the leaves: two trees differing
        // only at the root's *other* child produce different per-node
        // states, observable at the root of the down pass.
        let config = TreeLstmConfig {
            embed_dim: 5,
            hidden: 5,
            layers: 2,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        };
        let a = encode_with(&config, "int main() { return 1; } int f() { return 2; }", 9);
        let b = encode_with(
            &config,
            "int main() { return 1; } int f() { return 2 + 3; }",
            9,
        );
        assert_ne!(a, b);
    }

    fn code_bits(codes: &[Var<'_>]) -> Vec<Vec<u32>> {
        codes
            .iter()
            .map(|c| c.value().as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Encodes each batch on a fresh recording tape and on one reused
    /// [`crate::EncodeScratch`] (an inference tape that releases as it
    /// goes); the codes must agree to the bit.
    fn assert_inference_matches_recording(
        what: &str,
        params: &Params,
        batches: &[Vec<&AstGraph>],
        encode: impl Fn(&Ctx<'_, '_>, &[&AstGraph], &mut crate::SchedBufs) -> Vec<Vec<u32>>,
    ) {
        let mut scratch = crate::EncodeScratch::new();
        for (b, batch) in batches.iter().enumerate() {
            let tape = Tape::new();
            let recorded = encode(
                &Ctx::new(&tape, params),
                batch,
                &mut crate::SchedBufs::default(),
            );
            scratch.reset();
            let (tape, sched) = scratch.parts();
            let inferred = encode(&Ctx::new(tape, params), batch, sched);
            assert_eq!(inferred, recorded, "{what}: batch {b}");
        }
    }

    #[test]
    fn fused_batch_matches_sequential_all_variants() {
        let sources = [
            "int main() { return 1 + 2 * 3; }",
            "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; return s; }",
            "int f(int x) { if (x > 0) { return x; } return -x; } int main() { return f(3); }",
            "int main() { return 0; }",
        ];
        let graphs: Vec<AstGraph> = sources.iter().map(|s| graph(s)).collect();
        let refs: Vec<&AstGraph> = graphs.iter().collect();
        // Three compositions for the inference arm: its scratch must not
        // carry anything from one batch into the next.
        let batches = [
            refs.clone(),
            refs.iter().rev().copied().collect(),
            vec![refs[2], refs[0]],
        ];
        for direction in [Direction::Uni, Direction::Bi, Direction::Alternating] {
            for layers in 1..=3 {
                for sigmoid_candidate in [false, true] {
                    let config = TreeLstmConfig {
                        embed_dim: 5,
                        hidden: 4,
                        layers,
                        direction,
                        sigmoid_candidate,
                    };
                    let mut params = Params::new();
                    let mut rng = StdRng::seed_from_u64(13);
                    let enc = TreeLstmEncoder::new(&config, &mut params, &mut rng);
                    let tape = Tape::new();
                    let ctx = Ctx::new(&tape, &params);
                    let (fused, stats) = enc.encode_batch_with_stats(&ctx, &refs);
                    let sequential: Vec<_> = refs.iter().map(|g| enc.encode(&ctx, g)).collect();
                    assert!(stats.levels > 0 && stats.rows > 0);
                    for (g, (f, s)) in fused.iter().zip(&sequential).enumerate() {
                        let diff = f.value().max_abs_diff(&s.value());
                        assert!(
                            diff < 1e-6,
                            "{direction} {layers}-layer sc={sigmoid_candidate} graph {g}: \
                             fused diverged by {diff}"
                        );
                    }
                    assert_inference_matches_recording(
                        &format!("{direction} {layers}-layer sc={sigmoid_candidate}"),
                        &params,
                        &batches,
                        |ctx: &Ctx<'_, '_>, batch: &[&AstGraph], sched: &mut crate::SchedBufs| {
                            code_bits(&enc.encode_batch_with_stats_in(ctx, batch, sched).0)
                        },
                    );
                }
            }
        }
        for activation in [crate::Activation::Relu, crate::Activation::Tanh] {
            let config = crate::GcnConfig {
                embed_dim: 5,
                hidden: 4,
                layers: 3,
                activation,
            };
            let mut params = Params::new();
            let mut rng = StdRng::seed_from_u64(13);
            let enc = crate::GcnEncoder::new(&config, &mut params, &mut rng);
            assert_inference_matches_recording(
                &format!("GCN {activation:?}"),
                &params,
                &batches,
                |ctx: &Ctx<'_, '_>, batch: &[&AstGraph], sched: &mut crate::SchedBufs| {
                    code_bits(&enc.encode_batch_with_stats_in(ctx, batch, sched).0)
                },
            );
        }
    }

    #[test]
    fn code_vector_is_bit_independent_of_batch_composition() {
        // Serving checks replies with `==` against a fresh engine, so a
        // tree's code may not depend on what it was batched with. Alone,
        // its rows sit in the kernel's remainder-row and masked-tail
        // tiles; among four other trees the same rows land in full
        // 4-row blocks at other level widths. Paper width, because
        // h = 100 and 3h = 300 are what exercise the column tails.
        let sources = [
            "int main() { int s = 0; for (int i = 0; i < 9; i++) { s += i * 2; } return s; }",
            "int main() { return 0; }",
            "int f(int x) { if (x > 0) { return x; } return -x; } int main() { return f(3) + f(4); }",
            "int main() { int a = 1; int b = 2; while (a < 50) { a = a + b; b++; } return a % 7; }",
            "int main() { return 1 + 2 * 3 - 4; }",
        ];
        let graphs: Vec<AstGraph> = sources.iter().map(|s| graph(s)).collect();
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(17);
        let enc = TreeLstmEncoder::new(&TreeLstmConfig::paper(), &mut params, &mut rng);
        let code_at = |batch: &[&AstGraph], at: usize| -> Vec<u32> {
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, &params);
            let codes = enc.encode_batch(&ctx, batch);
            codes[at]
                .value()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let target = &graphs[0];
        let alone = code_at(&[target], 0);
        let rest: Vec<&AstGraph> = graphs[1..].iter().collect();
        let first = [&[target], &rest[..]].concat();
        let last = [&rest[..], &[target]].concat();
        assert_eq!(code_at(&first, 0), alone, "first in a batch of 5");
        assert_eq!(code_at(&last, 4), alone, "last in a batch of 5");
    }

    #[test]
    fn fused_batch_gradients_flow_to_all_parameters() {
        let config = TreeLstmConfig {
            embed_dim: 4,
            hidden: 4,
            layers: 3,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(21);
        let enc = TreeLstmEncoder::new(&config, &mut params, &mut rng);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let g1 = graph("int main() { int x = 1; while (x < 5) x++; return x; }");
        let g2 = graph("int main() { return 2; }");
        let codes = enc.encode_batch(&ctx, &[&g1, &g2]);
        let loss = ctx.tape.stack(&codes).sum();
        let grads = tape.backward(loss);
        let store = ctx.grads(&grads);
        for name in params.names() {
            assert!(
                store.get(name).is_some(),
                "parameter {name} received no gradient through the fused path"
            );
        }
    }

    #[test]
    fn gradcheck_fused_batch_encoder() {
        // Finite-difference check of the whole fused path — two graphs on
        // one tape so cross-tree level fusion is actually exercised.
        let g1 = graph("int main() { return 1 + 2; }");
        let g2 = graph("int main() { return 0; }");
        let config = TreeLstmConfig {
            embed_dim: 3,
            hidden: 3,
            layers: 2,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = TreeLstmEncoder::new(&config, &mut params, &mut rng);
        let tensors: Vec<ccsa_tensor::Tensor> = params.iter().map(|(_, t)| t.clone()).collect();
        let report = ccsa_tensor::grad_check(&tensors, 1e-2, |tape, vars| {
            let ctx = Ctx::with_bound(tape, &params, vars);
            let codes = enc.encode_batch(&ctx, &[&g1, &g2]);
            ccsa_tensor::TapeScalar(tape.stack(&codes).tanh().sum())
        });
        assert!(
            report.passes(3e-2),
            "fused tree-LSTM gradient check failed: {report:?}"
        );
    }

    #[test]
    fn sigmoid_candidate_variant_differs() {
        let mut config = TreeLstmConfig::small(4);
        let a = encode_with(&config, "int main() { return 7; }", 4);
        config.sigmoid_candidate = true;
        let b = encode_with(&config, "int main() { return 7; }", 4);
        assert_ne!(a, b, "candidate activation must change the encoding");
    }
}
