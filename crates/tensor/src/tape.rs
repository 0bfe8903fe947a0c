//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a dynamic computation graph: every operation appends a
//! node holding the operation kind, its input node ids and the computed
//! value. Because nodes are appended in execution order the tape is already
//! topologically sorted, so [`Tape::backward`] is a single reverse sweep.
//!
//! Dynamic graphs are required by tree-structured models: every AST induces
//! a different circuit, so the graph is rebuilt per example (define-by-run,
//! as in PyTorch which the original paper used).
//!
//! # Two modes, one set of ops
//!
//! * A **recording** tape ([`Tape::new`]) keeps every node's operation,
//!   operand ids and value until [`Tape::reset`], because
//!   [`Tape::backward`] needs all three. Training uses it.
//! * An **inference** tape ([`Tape::inference`]) keeps values but no
//!   operations: each op still computes its value, through the same code,
//!   but records a payload-free node instead of its operand list. Calling
//!   [`Tape::backward`] on it panics. [`Tape::release_since`] drops the
//!   values of nodes the caller is done with, so their buffers go back to
//!   the [pool](crate::pool) while the pass is still running; the level-
//!   fused encoders call it after every level. Serving uses this mode.
//!
//! Both modes produce bit-identical values. On a recording tape
//! `release_since` does nothing.
//!
//! Either kind memoises the transposed right operand of
//! [`Var::matmul_nt`], keyed by the identity of the operand's buffer. An
//! entry outlives [`Tape::reset`] for as long as its source buffer is
//! alive somewhere, so a long-lived tape transposes each weight of a
//! model once, not once per batch.

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Weak};

use crate::tensor::PoolBuf;
use crate::{Shape, Tensor};

/// A row-normalised sparse adjacency operator for graph convolutions.
///
/// Holds `Â = D^{-1/2} (A + I) D^{-1/2}` for an undirected graph in a
/// row-list sparse format, together with its transpose (needed by the
/// backward pass of [`Var::spmm`]).
#[derive(Clone, Debug)]
pub struct Adjacency {
    n: usize,
    rows: Vec<Vec<(u32, f32)>>,
    rows_t: Vec<Vec<(u32, f32)>>,
}

impl Adjacency {
    /// Builds the symmetric-normalised adjacency `Â` from undirected edges
    /// over `n` nodes, adding self-loops (the standard GCN preprocessing of
    /// Kipf & Welling).
    ///
    /// Duplicate and self edges in the input are ignored.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn normalized_from_edges(n: usize, edges: &[(u32, u32)]) -> Adjacency {
        let mut neigh: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            let (a, b) = (a as usize, b as usize);
            assert!(a < n && b < n, "edge ({a},{b}) out of bounds for {n} nodes");
            if a == b {
                continue;
            }
            if !neigh[a].contains(&(b as u32)) {
                neigh[a].push(b as u32);
                neigh[b].push(a as u32);
            }
        }
        // Self-loops: degree = |neighbours| + 1.
        let deg: Vec<f32> = neigh.iter().map(|ns| (ns.len() + 1) as f32).collect();
        // pool-exempt: adjacency structure of (u32, f32) pairs, built once
        // per graph at parse time — not an f32 tensor buffer.
        let mut rows: Vec<Vec<(u32, f32)>> = Vec::with_capacity(n);
        for i in 0..n {
            // pool-exempt: same adjacency structure, per-row.
            let mut row = Vec::with_capacity(neigh[i].len() + 1);
            row.push((i as u32, 1.0 / deg[i]));
            for &j in &neigh[i] {
                row.push((j, 1.0 / (deg[i] * deg[j as usize]).sqrt()));
            }
            row.sort_unstable_by_key(|&(j, _)| j);
            rows.push(row);
        }
        // Â is symmetric by construction, so the transpose equals Â.
        let rows_t = rows.clone();
        Adjacency { n, rows, rows_t }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn apply(rows: &[Vec<(u32, f32)>], h: &Tensor) -> Tensor {
        let n = rows.len();
        let d = h.shape().cols();
        assert_eq!(
            h.shape().rows(),
            n,
            "spmm: H has {} rows, adjacency has {n}",
            h.shape().rows()
        );
        let src = h.as_slice();
        let mut out = crate::pool::take_zeroed(n * d);
        for (i, row) in rows.iter().enumerate() {
            let dst = &mut out[i * d..(i + 1) * d];
            for &(j, w) in row {
                let s = &src[j as usize * d..(j as usize + 1) * d];
                for (o, &v) in dst.iter_mut().zip(s.iter()) {
                    *o += w * v;
                }
            }
        }
        Tensor::from_vec(out, [n, d])
    }

    /// Dense product `Â · H` where `H` is `[n, d]`.
    ///
    /// # Panics
    ///
    /// Panics if `H` does not have `n` rows.
    pub fn matmul(&self, h: &Tensor) -> Tensor {
        Adjacency::apply(&self.rows, h)
    }

    /// Dense product `Âᵀ · H`.
    ///
    /// # Panics
    ///
    /// Panics if `H` does not have `n` rows.
    pub fn matmul_t(&self, h: &Tensor) -> Tensor {
        Adjacency::apply(&self.rows_t, h)
    }
}

/// The operation recorded at a tape node. Input operands are node ids.
enum Op {
    Leaf,
    /// Any non-leaf node of an inference tape: a value with no record of
    /// how it was computed.
    Value,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Scale(usize, f32),
    MatMul(usize, usize),
    /// `A · Bᵀ` (batched linear, weights stored `[out, in]`). The forward
    /// pass multiplies by a materialised `Bᵀ` that the tape transposes
    /// once per distinct `B` buffer (see [`Transposed`]); the backward
    /// pass needs `B` itself and reads `G` transposed in place
    /// ([`Tensor::matmul_tn`]), never `Bᵀ`.
    MatMulNt(usize, usize),
    /// Fused `W·x (+ b)` — the hot path of every LSTM gate.
    Linear {
        w: usize,
        x: usize,
        b: Option<usize>,
    },
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    Sum(usize),
    Mean(usize),
    Dot(usize, usize),
    Concat(Vec<usize>),
    AddN(Vec<usize>),
    Stack(Vec<usize>),
    /// Row-concatenation of matrices: `[n_i, d]` parts → `[Σn_i, d]`.
    StackRows(Vec<usize>),
    /// Column-concatenation of two matrices: `[n, da] ++ [n, db]` → `[n, da+db]`.
    ConcatCols(usize, usize),
    /// Contiguous column slice `[n, d] → [n, len]` (or element slice of a
    /// vector) — how the fused 4-gate pre-activation splits per gate.
    SliceCols {
        src: usize,
        start: usize,
    },
    /// Row gather from the *virtual* row-concatenation of several source
    /// matrices — the incremental replacement for re-stacking the
    /// cross-level state matrix every level.
    GatherRowsMulti {
        sources: Vec<usize>,
        indices: Arc<Vec<usize>>,
    },
    /// Per-segment row sums — the child sum `h̃` of the level-fused
    /// tree-LSTM — with an optional per-segment initial row, which only
    /// the tests' fold oracle sets.
    SegmentSum {
        m: usize,
        offsets: Arc<Vec<usize>>,
        init: Option<usize>,
    },
    Row(usize, usize),
    Gather {
        table: usize,
        indices: Arc<Vec<usize>>,
    },
    SpMm {
        adj: Arc<Adjacency>,
        h: usize,
    },
    MeanRows(usize),
    AddRowBroadcast {
        m: usize,
        v: usize,
    },
    BceWithLogits {
        logit: usize,
        target: f32,
    },
    /// Both outputs of [`Tape::child_sum_cell`] hold the one record.
    ChildSumCell(Arc<ChildSumRecord>),
}

/// What [`Tape::child_sum_cell`] hands its backward: the operand ids and
/// the activations the forward computed anyway.
struct ChildSumRecord {
    /// The output nodes; `h` was pushed right after `c`.
    c: usize,
    h: usize,
    wx: usize,
    b: usize,
    /// `(uh, ufh, ck)` and the edges, for a level with incoming state.
    incoming: Option<([usize; 3], ChildSumEdges)>,
    sigmoid_candidate: bool,
    /// `[w, 3h]`: `σ(pre_i) | σ(pre_o) | u` per row.
    gates: Tensor,
    /// `[E, h]`: each edge's forget gate.
    forget: Tensor,
    /// `[w, h]`: `tanh(c)`.
    tanh_c: Tensor,
}

impl ChildSumRecord {
    /// The gradients of `wx`, of `b` and, on a level with incoming
    /// state, of `[uh, ufh, ck]`, from those reaching `h` and `c` (either
    /// may be absent). `ck` is the incoming cells' value.
    ///
    /// Per node: `dc += dh·o·(1 − t²)`; `d pre_o = dh·t·o·(1 − o)`,
    /// `d pre_i = dc·u·i·(1 − i)`, `d pre_u = dc·i·u'`; per edge, in
    /// order, `d ufh_e = dc·c_e·f_e·(1 − f_e)`, added into the `f` block
    /// of `d wx`, and `d c_e = dc·f_e`. `d uh` is `d wx[:, :3h]`, and
    /// `d b` the column sums of `d wx` added row by row from zero — the
    /// sums [`Var::add_row_broadcast`]'s backward forms. With
    /// [`ChildSumEdges::Rows`], each node's `d uh`, `d ufh` and `d c`
    /// add into the operand row it read, in node order.
    fn backward(
        &self,
        dh: Option<&Tensor>,
        dc_out: Option<&Tensor>,
        ck: Option<&Tensor>,
    ) -> (Tensor, Tensor, Option<[Tensor; 3]>) {
        let (w, h3) = (self.gates.shape().rows(), self.gates.shape().cols());
        let hd = h3 / 3;
        let (h2, h4) = (2 * hd, 4 * hd);
        let (gates, tanh_c, forget) = (
            self.gates.as_slice(),
            self.tanh_c.as_slice(),
            self.forget.as_slice(),
        );
        let mut dwx = crate::pool::take_zeroed(w * h4);
        let mut dc = crate::pool::take_zeroed(hd);
        // One gradient row per row of `ufh` and `ck` — per edge, or per
        // shared row.
        let sources = ck.map_or(0, |ck| ck.shape().rows());
        let (mut dufh, mut dck) = if sources > 0 {
            (
                crate::pool::take_zeroed(sources * hd),
                crate::pool::take_zeroed(sources * hd),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        for r in 0..w {
            let rows = r * hd..(r + 1) * hd;
            let g = &gates[r * h3..(r + 1) * h3];
            let (i, o, u) = (&g[..hd], &g[hd..h2], &g[h2..]);
            let t = &tanh_c[rows.clone()];
            let dx = &mut dwx[r * h4..(r + 1) * h4];
            match dc_out {
                Some(d) => dc.copy_from_slice(&d.as_slice()[rows.clone()]),
                None => dc.fill(0.0),
            }
            if let Some(dh) = dh {
                let dh = &dh.as_slice()[rows];
                let d_o = &mut dx[hd..h2];
                for ((((dcv, dov), &dhv), &ov), &tv) in dc.iter_mut().zip(d_o).zip(dh).zip(o).zip(t)
                {
                    *dcv += dhv * ov * (1.0 - tv * tv);
                    *dov = dhv * tv * ov * (1.0 - ov);
                }
            }
            let (d_i, rest) = dx.split_at_mut(hd);
            for (((div, &dcv), &iv), &uv) in d_i.iter_mut().zip(&dc).zip(i).zip(u) {
                *div = dcv * uv * iv * (1.0 - iv);
            }
            let d_u = &mut rest[hd..h2];
            if self.sigmoid_candidate {
                for (((duv, &dcv), &iv), &uv) in d_u.iter_mut().zip(&dc).zip(i).zip(u) {
                    *duv = dcv * iv * uv * (1.0 - uv);
                }
            } else {
                for (((duv, &dcv), &iv), &uv) in d_u.iter_mut().zip(&dc).zip(i).zip(u) {
                    *duv = dcv * iv * (1.0 - uv * uv);
                }
            }
            let (Some((_, edges)), Some(ck)) = (&self.incoming, ck) else {
                continue;
            };
            let d_f = &mut rest[h2..];
            for e in edges.of(r) {
                let src = edges.row(e);
                let src = src * hd..(src + 1) * hd;
                let (f, cke) = (&forget[e * hd..(e + 1) * hd], &ck.as_slice()[src.clone()]);
                let rows = d_f
                    .iter_mut()
                    .zip(&mut dufh[src.clone()])
                    .zip(&mut dck[src]);
                for ((((dfx, dfh), dce), &dcv), (&fv, &kv)) in rows.zip(&dc).zip(f.iter().zip(cke))
                {
                    let d_pre = dcv * kv * fv * (1.0 - fv);
                    *dfh += d_pre;
                    *dfx += d_pre;
                    *dce += dcv * fv;
                }
            }
        }
        crate::pool::put(dc);
        let mut db = crate::pool::take_zeroed(h4);
        let accum = crate::kernels::active().seg_accum;
        for row in dwx.chunks_exact(h4) {
            accum(&mut db, row);
        }
        let dincoming = self.incoming.as_ref().map(|(_, edges)| {
            let duh = match edges {
                ChildSumEdges::Segments(_) => {
                    let mut duh = crate::pool::take_cap(w * h3);
                    for row in dwx.chunks_exact(h4) {
                        duh.extend_from_slice(&row[..h3]);
                    }
                    Tensor::from_vec(duh, [w, h3])
                }
                ChildSumEdges::Rows(rows) => {
                    let mut duh = crate::pool::take_zeroed(sources * h3);
                    for (row, &src) in dwx.chunks_exact(h4).zip(rows.iter()) {
                        accum(&mut duh[src * h3..(src + 1) * h3], &row[..h3]);
                    }
                    Tensor::from_vec(duh, [sources, h3])
                }
            };
            [
                duh,
                Tensor::from_vec(dufh, [sources, hd]),
                Tensor::from_vec(dck, [sources, hd]),
            ]
        });
        (
            Tensor::from_vec(dwx, [w, h4]),
            Tensor::from_vec(db, [h4]),
            dincoming,
        )
    }
}

/// The state a level of child-sum cells aggregates (see
/// [`Tape::child_sum_cell`]): projections of the incoming hidden states
/// and the incoming memory cells, `E` edges over `w` nodes.
#[derive(Clone, Debug)]
pub struct ChildSumIncoming<'t> {
    /// `h̃·U_iouᵀ`, `[w, 3h]`: each node's summed incoming hidden state
    /// through the input, output and candidate blocks of `U`.
    pub uh: Var<'t>,
    /// `h_k·U_fᵀ`, `[E, h]`: each edge's hidden state through the
    /// forget block of `U`.
    pub ufh: Var<'t>,
    /// `c_k`, `[E, h]`: each edge's memory cell.
    pub ck: Var<'t>,
    /// Which rows of `uh`, `ufh` and `ck` each node reads.
    pub edges: ChildSumEdges,
}

/// How the nodes of a [`ChildSumIncoming`] level find their rows.
#[derive(Clone, Debug)]
pub enum ChildSumEdges {
    /// `w + 1` ascending cut points from 0: node `r` reads row `r` of
    /// `uh`, and its edges are rows `offsets[r]..offsets[r + 1]` of
    /// `ufh` and `ck`.
    Segments(Arc<Vec<usize>>),
    /// One edge per node, into rows that several nodes may share: node
    /// `r` reads row `rows[r]` of `uh`, `ufh` and `ck`, which then have
    /// one row per source, not per node. Siblings in a downward pass
    /// read their parent's projections this way, in place.
    Rows(Arc<Vec<usize>>),
}

impl ChildSumEdges {
    /// Node `r`'s edges, numbered as the op's per-edge forget gates.
    fn of(&self, r: usize) -> std::ops::Range<usize> {
        match self {
            ChildSumEdges::Segments(offsets) => offsets[r]..offsets[r + 1],
            ChildSumEdges::Rows(_) => r..r + 1,
        }
    }

    /// The operand row node `r` reads of `uh`, or edge `r` of `ufh` and
    /// `ck` (with [`ChildSumEdges::Rows`], node `r`'s one edge is edge
    /// `r`).
    fn row(&self, r: usize) -> usize {
        match self {
            ChildSumEdges::Segments(_) => r,
            ChildSumEdges::Rows(rows) => rows[r],
        }
    }

    /// The edge count `E`.
    fn count(&self) -> usize {
        match self {
            ChildSumEdges::Segments(offsets) => offsets.last().copied().unwrap_or(0),
            ChildSumEdges::Rows(rows) => rows.len(),
        }
    }
}

struct Node {
    op: Op,
    /// `None` once [`Tape::release_since`] has dropped it.
    value: Option<Tensor>,
}

impl Node {
    /// The value, for [`Tape::backward`]: only inference tapes release
    /// values, and backward refuses those.
    fn value(&self) -> &Tensor {
        self.value
            .as_ref()
            .expect("a recording tape never releases a value")
    }
}

/// One memoised `Bᵀ` of [`Var::matmul_nt`]. `source` names `B`'s buffer
/// without keeping it alive: a tape never holds a strong reference to a
/// model's weights beyond its own nodes, so tapes that share a model
/// cannot keep each other's entries alive once the model is dropped.
/// The shape is part of the key because [`Tensor::reshape`] shares a
/// buffer between shapes.
struct Transposed {
    source: Weak<PoolBuf>,
    shape: Shape,
    value: Tensor,
}

/// A tape for reverse-mode automatic differentiation, recording or
/// inference-only (see the [module documentation](self)).
///
/// Create variables with [`Tape::leaf`], combine them with the methods on
/// [`Var`], then call [`Tape::backward`] on a scalar result.
///
/// A tape is intended to be built and consumed for a single example (or
/// mini-batch member); build a fresh tape per forward pass, or
/// [`Tape::reset`] a long-lived one.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Set by [`Tape::inference`]: record values but no operations.
    inference: bool,
    /// The transposes [`Var::matmul_nt`] has made. A level-fused encode
    /// multiplies each level by the same few weights, so this is a
    /// handful of entries found by linear scan. [`Tape::reset`] drops
    /// the entries whose source buffer has been freed, and only those.
    // pool-exempt: one small struct per distinct weight; the transposed
    // buffers themselves come from the pool.
    transposed: RefCell<Vec<Transposed>>,
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.borrow().len())
    }
}

/// A handle to a value recorded on a [`Tape`].
///
/// `Var` is `Copy`; all arithmetic methods append a new node to the
/// originating tape and return a handle to it.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
}

impl fmt::Debug for Var<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var(#{}, {:?})", self.id, self.value())
    }
}

impl Tape {
    /// Creates an empty recording tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Creates an empty inference tape: every op computes its value as
    /// on a recording tape, but the node keeps no operation or operands,
    /// [`Tape::release_since`] can free values early, and
    /// [`Tape::backward`] panics.
    pub fn inference() -> Tape {
        Tape {
            inference: true,
            ..Tape::default()
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears every recorded node while keeping the node list's
    /// capacity, so a long-lived scratch tape can run one forward/
    /// backward pass per batch without reallocating its spine. Dropping
    /// the node tensors returns their buffers to the
    /// [buffer pool](crate::pool) — `reset` is the arena-recycle point
    /// of the steady-state encode path.
    ///
    /// Any [`Var`] handed out before the reset is invalidated; using
    /// one afterwards panics (id out of range) or silently refers to a
    /// new node, exactly as with a fresh tape the borrow checker can't
    /// see. Callers own that discipline (the encode scratch types do).
    ///
    /// Memoised weight transposes survive the reset while their source
    /// buffer lives, so the next batch on this tape finds them. Entries
    /// whose source has been freed (a swapped-out model, a per-batch
    /// intermediate) are dropped here.
    pub fn reset(&self) {
        // Nodes first: they may hold the last strong handle on a source.
        self.nodes.borrow_mut().clear();
        self.transposed
            .borrow_mut()
            .retain(|t| t.source.strong_count() > 0);
    }

    /// Appends a node. `op` is only called on a recording tape, so an
    /// inference tape never builds an operand list it would throw away.
    fn push(&self, op: impl FnOnce() -> Op, value: Tensor) -> Var<'_> {
        self.push_node(if self.inference { Op::Value } else { op() }, value)
    }

    fn push_node(&self, op: Op, value: Tensor) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            op,
            value: Some(value),
        });
        Var {
            tape: self,
            id: nodes.len() - 1,
        }
    }

    /// Node `id`'s value.
    ///
    /// # Panics
    ///
    /// Panics if [`Tape::release_since`] has dropped it.
    fn value_of(&self, id: usize) -> Tensor {
        match &self.nodes.borrow()[id].value {
            Some(value) => value.clone(),
            None => panic!("the value of tape node {id} was released and cannot be read"),
        }
    }

    /// The transpose of node `id`'s value, made on first request and
    /// shared by every later request for the same buffer and shape.
    fn transposed_of(&self, id: usize) -> Tensor {
        let source = self.value_of(id);
        if source.shape().rank() < 2 {
            // Such a "transpose" is a view of the source's own buffer: a
            // memo entry would keep its source alive for ever.
            return source.t();
        }
        let mut memo = self.transposed.borrow_mut();
        if let Some(t) = memo
            .iter()
            .find(|t| t.shape == source.shape() && source.owns_buffer(&t.source))
        {
            return t.value.clone();
        }
        let value = source.t();
        memo.push(Transposed {
            source: source.buffer_handle(),
            shape: source.shape(),
            value: value.clone(),
        });
        value
    }

    /// Number of transposes the [`Var::matmul_nt`] memo holds, including
    /// those whose source has been freed since the last [`Tape::reset`].
    pub fn memo_len(&self) -> usize {
        self.transposed.borrow().len()
    }

    /// Drops the values of all non-leaf nodes recorded since `mark` (a
    /// [`Tape::len`] taken earlier) except those in `keep`, returning
    /// their buffers to the [pool](crate::pool). Reading a dropped value
    /// afterwards panics. Leaves stay, because a bound parameter's `Var`
    /// is reused long after it was recorded.
    ///
    /// On a recording tape this does nothing: [`Tape::backward`] needs
    /// every value.
    ///
    /// Never allocates.
    pub fn release_since(&self, mark: usize, keep: &[Var<'_>]) {
        if !self.inference {
            return;
        }
        let mut nodes = self.nodes.borrow_mut();
        for (id, node) in nodes.iter_mut().enumerate().skip(mark) {
            if !matches!(node.op, Op::Leaf) && !keep.iter().any(|k| k.id == id) {
                node.value = None;
            }
        }
    }

    /// Records an input or parameter leaf.
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        self.push_node(Op::Leaf, value)
    }

    /// A leaf of zeros of the given shape (used e.g. for the initial hidden
    /// state at AST leaves).
    pub fn zeros(&self, shape: impl Into<Shape>) -> Var<'_> {
        self.leaf(Tensor::zeros(shape))
    }

    /// Concatenates vectors into one vector.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or any part is not rank ≤ 1.
    pub fn concat(&self, parts: &[Var<'_>]) -> Var<'_> {
        assert!(!parts.is_empty(), "concat of zero parts");
        let total: usize = parts.iter().map(|p| self.value_of(p.id).len()).sum();
        let mut data = crate::pool::take_cap(total);
        for p in parts {
            let v = self.value_of(p.id);
            assert!(
                v.shape().rank() <= 1,
                "concat expects vectors, got {}",
                v.shape()
            );
            data.extend_from_slice(v.as_slice());
        }
        let n = data.len();
        self.push(
            || Op::Concat(parts.iter().map(|p| p.id).collect()),
            Tensor::from_vec(data, [n]),
        )
    }

    /// Sums any number of same-shape variables.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes differ.
    pub fn add_n(&self, parts: &[Var<'_>]) -> Var<'_> {
        assert!(!parts.is_empty(), "add_n of zero parts");
        let first = self.value_of(parts[0].id);
        let mut acc = crate::pool::take_copy(first.as_slice());
        for p in &parts[1..] {
            let v = self.value_of(p.id);
            assert_eq!(v.shape(), first.shape(), "add_n shape mismatch");
            for (a, &b) in acc.iter_mut().zip(v.as_slice()) {
                *a += b;
            }
        }
        let value = Tensor::from_vec(acc, first.shape());
        self.push(|| Op::AddN(parts.iter().map(|p| p.id).collect()), value)
    }

    /// Stacks `k` vectors of length `d` into a `[k, d]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the vectors disagree in length.
    pub fn stack(&self, parts: &[Var<'_>]) -> Var<'_> {
        assert!(!parts.is_empty(), "stack of zero parts");
        let d = self.value_of(parts[0].id).len();
        let mut data = crate::pool::take_cap(parts.len() * d);
        for p in parts {
            let v = self.value_of(p.id);
            assert_eq!(v.len(), d, "stack length mismatch");
            data.extend_from_slice(v.as_slice());
        }
        let k = parts.len();
        self.push(
            || Op::Stack(parts.iter().map(|p| p.id).collect()),
            Tensor::from_vec(data, [k, d]),
        )
    }

    /// Stacks matrices (or single row vectors) along the row axis:
    /// `[n_i, d]` matrix parts and `[d]` vector parts (one row each)
    /// become one `[Σn_i, d]` matrix. This is how the level-fused tree
    /// encoders grow the cross-tree hidden-state matrix one level at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, a part has rank > 2, or row widths
    /// disagree.
    pub fn stack_rows(&self, parts: &[Var<'_>]) -> Var<'_> {
        assert!(!parts.is_empty(), "stack_rows of zero parts");
        let d = stacked_rows_shape(&self.value_of(parts[0].id)).1;
        let total: usize = parts
            .iter()
            .map(|p| stacked_rows_shape(&self.value_of(p.id)).0)
            .sum();
        let mut rows = 0;
        let mut data = crate::pool::take_cap(total * d);
        for p in parts {
            let v = self.value_of(p.id);
            let (r, c) = stacked_rows_shape(&v);
            assert_eq!(c, d, "stack_rows width mismatch: {} vs {d} cols", v.shape());
            rows += r;
            data.extend_from_slice(v.as_slice());
        }
        self.push(
            || Op::StackRows(parts.iter().map(|p| p.id).collect()),
            Tensor::from_vec(data, [rows, d]),
        )
    }

    /// Gathers rows from the *virtual* row-concatenation of `sources`
    /// (each `[n_s, d]`, equal widths) without materialising the stacked
    /// matrix: index `ix` addresses row `ix - Σ n_{<s}` of the owning
    /// source `s`. Output is `[k, d]` for `k` indices; the backward pass
    /// scatter-adds each output row's gradient into its source row (a
    /// source no index touches receives no gradient, matching
    /// [`Var::index_rows`] on an untouched matrix).
    ///
    /// This is how the level-fused tree encoders read child/parent state:
    /// each completed level stays its own tensor and gathers pull from
    /// the level list directly, instead of re-stacking an O(N·h) prefix
    /// matrix every level.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, a source is not rank 2, widths
    /// disagree, or an index is out of range.
    pub fn gather_rows_multi<'t>(
        &'t self,
        sources: &[Var<'t>],
        indices: impl Into<Arc<Vec<usize>>>,
    ) -> Var<'t> {
        assert!(!sources.is_empty(), "gather_rows_multi of zero sources");
        let indices = indices.into();
        let vals: Vec<Tensor> = sources.iter().map(|s| self.value_of(s.id)).collect();
        let d = {
            let first = vals[0].shape();
            assert_eq!(
                first.rank(),
                2,
                "gather_rows_multi sources must be rank 2, got {first}"
            );
            first.cols()
        };
        // pool-exempt: usize offset table, bounded by op fan-in not node count.
        let mut offsets = Vec::with_capacity(vals.len() + 1);
        let mut total = 0usize;
        for v in &vals {
            let shape = v.shape();
            assert_eq!(
                shape.rank(),
                2,
                "gather_rows_multi sources must be rank 2, got {shape}"
            );
            assert_eq!(
                shape.cols(),
                d,
                "gather_rows_multi width mismatch: {shape} vs {d} cols"
            );
            offsets.push(total);
            total += shape.rows();
        }
        offsets.push(total);
        let mut data = crate::pool::take_cap(indices.len() * d);
        for &ix in indices.iter() {
            assert!(
                ix < total,
                "gather_rows_multi index {ix} out of range for {total} virtual rows"
            );
            let s = offsets.partition_point(|&o| o <= ix) - 1;
            let local = ix - offsets[s];
            data.extend_from_slice(&vals[s].as_slice()[local * d..(local + 1) * d]);
        }
        let k = indices.len();
        self.push(
            || Op::GatherRowsMulti {
                sources: sources.iter().map(|s| s.id).collect(),
                indices,
            },
            Tensor::from_vec(data, [k, d]),
        )
    }

    /// Sums contiguous row segments of a `[rows, d]` matrix `m`:
    /// `offsets` holds `S + 1` ascending cut points and the result is
    /// `[S, d]` with `out[s] = Σ m[offsets[s]..offsets[s+1]]` (an empty
    /// segment yields a zero row). The backward pass broadcasts each
    /// output row's gradient over its segment.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not rank 2, `offsets` is empty/non-ascending, or
    /// the final offset is not `m`'s row count.
    pub fn segment_sum<'t>(&'t self, m: Var<'t>, offsets: impl Into<Arc<Vec<usize>>>) -> Var<'t> {
        self.segment_sum_impl(m, offsets.into(), None)
    }

    /// Like [`Tape::segment_sum`] but every segment starts from the
    /// matching row of `init` (`[S, d]`) instead of zero, and rows are
    /// added in order: `out[s] = (…(init[s] + r_0) + r_1)…` — the forget
    /// fold of the per-node cell, and so the tests' oracle for
    /// [`Tape::child_sum_cell`]'s.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Tape::segment_sum`], or if
    /// `init` does not have shape `[S, d]`.
    #[cfg(test)]
    fn segment_sum_init<'t>(
        &'t self,
        init: Var<'t>,
        m: Var<'t>,
        offsets: impl Into<Arc<Vec<usize>>>,
    ) -> Var<'t> {
        self.segment_sum_impl(m, offsets.into(), Some(init))
    }

    fn segment_sum_impl<'t>(
        &'t self,
        m: Var<'t>,
        offsets: Arc<Vec<usize>>,
        init: Option<Var<'t>>,
    ) -> Var<'t> {
        let mv = self.value_of(m.id);
        assert_eq!(
            mv.shape().rank(),
            2,
            "segment_sum input must be rank 2, got {}",
            mv.shape()
        );
        let (rows, d) = (mv.shape().rows(), mv.shape().cols());
        assert!(!offsets.is_empty(), "segment_sum needs at least one offset");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "segment offsets must be ascending"
        );
        assert_eq!(
            *offsets.last().expect("non-empty"),
            rows,
            "final segment offset must equal the row count"
        );
        let segments = offsets.len() - 1;
        let mut out = match init {
            Some(iv) => {
                let t = self.value_of(iv.id);
                assert_eq!(
                    t.shape().dims(),
                    &[segments, d],
                    "segment_sum init must be [{segments}, {d}], got {}",
                    t.shape()
                );
                crate::pool::take_copy(t.as_slice())
            }
            None => crate::pool::take_zeroed(segments * d),
        };
        let src = mv.as_slice();
        // Row accumulation goes through the dispatched kernel layer
        // (AVX2 `vaddps` when available); per-element add order is
        // unchanged, so backends are bit-identical here.
        let accum = crate::kernels::active().seg_accum;
        for s in 0..segments {
            let dst = &mut out[s * d..(s + 1) * d];
            for r in offsets[s]..offsets[s + 1] {
                accum(dst, &src[r * d..(r + 1) * d]);
            }
        }
        self.push(
            || Op::SegmentSum {
                m: m.id,
                offsets,
                init: init.map(|v| v.id),
            },
            Tensor::from_vec(out, [segments, d]),
        )
    }

    /// One level of child-sum tree-LSTM cells (Eq. (4) of the paper) from
    /// its matmul outputs, as one op with outputs `(h, c)`, both `[w, h]`.
    ///
    /// `wx` is `W·x`, `[w, 4h]` with gate blocks `i | o | u | f`, and `b`
    /// the `[4h]` gate bias; `incoming` is `None` on a level that
    /// aggregates nothing (leaves going up, roots going down). Per
    /// element, in this order:
    ///
    /// ```text
    /// pre  = (wx[:, :3h] + b[:3h]) + uh       (+ 0.0 without incoming)
    /// i, o = σ(pre_i), σ(pre_o);  u = tanh(pre_u), or σ(pre_u) when `sigmoid_candidate`
    /// c    = i·u
    /// c    = c + σ((wx_f + b_f) + ufh_e)·c_e  for each edge e, in order
    /// h    = o·tanh(c)
    /// ```
    ///
    /// That is the IEEE sequence of the composed ops (`add_row_broadcast`,
    /// `slice_cols`, `add`, `sigmoid`, `tanh`, `mul`, `index_rows`,
    /// `segment_sum_init`), so the values are theirs to the bit, without
    /// their per-op buffers. `uh_r`, `ufh_e` and `c_e` are the rows
    /// [`ChildSumEdges`] names, read in place: a row several nodes share
    /// gives each of them the bits a copy of it would. On a recording
    /// tape the op keeps `i, o, u`, the forget gates and `tanh(c)` for
    /// its backward.
    ///
    /// # Panics
    ///
    /// Panics if `wx` is not `[w, 4h]` or `b` not `[4h]`; with
    /// [`ChildSumEdges::Segments`], if the offsets are not `w + 1`
    /// ascending cut points from 0 ending at `E`, `uh` not `[w, 3h]`, or
    /// `ufh` and `ck` not both `[E, h]`; with [`ChildSumEdges::Rows`], if
    /// there are not `w` rows, each below the `S` rows of `[S, 3h]` `uh`
    /// and `[S, h]` `ufh` and `ck`.
    pub fn child_sum_cell<'t>(
        &'t self,
        wx: Var<'t>,
        b: Var<'t>,
        incoming: Option<ChildSumIncoming<'t>>,
        sigmoid_candidate: bool,
    ) -> (Var<'t>, Var<'t>) {
        let wv = self.value_of(wx.id);
        let shape = wv.shape();
        assert!(
            shape.rank() == 2 && shape.cols() > 0 && shape.cols().is_multiple_of(4),
            "child_sum_cell wx must be [w, 4h], got {shape}"
        );
        let (w, hd) = (shape.rows(), shape.cols() / 4);
        let bv = self.value_of(b.id);
        assert_eq!(
            bv.shape().dims(),
            &[4 * hd],
            "child_sum_cell b must be [{}], got {}",
            4 * hd,
            bv.shape()
        );
        let in_vals = incoming.as_ref().map(|inc| {
            let (uh, ufh, ck) = (
                self.value_of(inc.uh.id),
                self.value_of(inc.ufh.id),
                self.value_of(inc.ck.id),
            );
            // The row counts `uh` and `ufh`, `ck` must have.
            let (uh_rows, src_rows) = match &inc.edges {
                ChildSumEdges::Segments(offsets) => {
                    assert!(
                        offsets.len() == w + 1
                            && offsets[0] == 0
                            && offsets.windows(2).all(|p| p[0] <= p[1]),
                        "child_sum_cell needs {} ascending edge offsets from 0",
                        w + 1
                    );
                    (w, offsets[w])
                }
                ChildSumEdges::Rows(rows) => {
                    let shared = ck.shape().rows();
                    assert!(
                        rows.len() == w && rows.iter().all(|&r| r < shared),
                        "child_sum_cell needs {w} rows below {shared}"
                    );
                    (shared, shared)
                }
            };
            assert_eq!(
                uh.shape().dims(),
                &[uh_rows, 3 * hd],
                "child_sum_cell uh must be [{uh_rows}, {}], got {}",
                3 * hd,
                uh.shape()
            );
            for (name, v) in [("ufh", &ufh), ("ck", &ck)] {
                assert_eq!(
                    v.shape().dims(),
                    &[src_rows, hd],
                    "child_sum_cell {name} must be [{src_rows}, {hd}], got {}",
                    v.shape()
                );
            }
            (uh, ufh, ck, &inc.edges)
        });
        let edges = in_vals.as_ref().map_or(0, |v| v.3.count());

        let kern = crate::kernels::active();
        let candidate = if sigmoid_candidate {
            kern.sigmoid
        } else {
            kern.tanh
        };
        let (h2, h3, h4) = (2 * hd, 3 * hd, 4 * hd);
        // `(wx + b)` then `+ uh` for i/o/u, and the biased forget block
        // `wx_f + b_f` the edges add their `ufh_e` to.
        let mut pre = crate::pool::take_zeroed(h4);
        let mut gates = crate::pool::take_zeroed(w * h3);
        // A zero-length take would count as a pool miss.
        let mut forget = if edges > 0 {
            crate::pool::take_zeroed(edges * hd)
        } else {
            Vec::new()
        };
        let mut c = crate::pool::take_zeroed(w * hd);
        let (x, (b_iou, b_f)) = (wv.as_slice(), bv.as_slice().split_at(h3));
        for r in 0..w {
            let (x_iou, x_f) = x[r * h4..(r + 1) * h4].split_at(h3);
            let (pre, pre_f) = pre.split_at_mut(h3);
            let biased = pre.iter_mut().zip(x_iou.iter().zip(b_iou));
            match &in_vals {
                Some((uh, .., edges)) => {
                    let row = edges.row(r);
                    let uh = &uh.as_slice()[row * h3..(row + 1) * h3];
                    for ((p, (&a, &bias)), &u) in biased.zip(uh) {
                        *p = (a + bias) + u;
                    }
                }
                // The `+ 0.0` of a zero `h̃·U` product: it turns a `-0.0`
                // pre-activation into `+0.0`, as that product did.
                None => {
                    for (p, (&a, &bias)) in biased {
                        *p = (a + bias) + 0.0;
                    }
                }
            }
            let g = &mut gates[r * h3..(r + 1) * h3];
            (kern.sigmoid)(&pre[..h2], &mut g[..h2]);
            candidate(&pre[h2..], &mut g[h2..]);
            let (i, u) = (&g[..hd], &g[h2..]);
            let c_row = &mut c[r * hd..(r + 1) * hd];
            for ((cv, &iv), &uv) in c_row.iter_mut().zip(i).zip(u) {
                *cv = iv * uv;
            }
            let Some((_, ufh, ck, edges)) = &in_vals else {
                continue;
            };
            for ((p, &a), &bias) in pre_f.iter_mut().zip(x_f).zip(b_f) {
                *p = a + bias;
            }
            for e in edges.of(r) {
                let src = edges.row(e);
                let src = src * hd..(src + 1) * hd;
                let f_pre = &mut pre[..hd];
                for ((p, &a), &u) in f_pre
                    .iter_mut()
                    .zip(&*pre_f)
                    .zip(&ufh.as_slice()[src.clone()])
                {
                    *p = a + u;
                }
                let f = &mut forget[e * hd..(e + 1) * hd];
                (kern.sigmoid)(f_pre, f);
                for ((cv, &fv), &kv) in c_row.iter_mut().zip(&*f).zip(&ck.as_slice()[src]) {
                    *cv += fv * kv;
                }
            }
        }
        crate::pool::put(pre);
        let mut tanh_c = crate::pool::take_zeroed(w * hd);
        (kern.tanh)(&c, &mut tanh_c);
        let mut h = crate::pool::take_cap(w * hd);
        for r in 0..w {
            let o = &gates[r * h3 + hd..r * h3 + h2];
            let t = &tanh_c[r * hd..(r + 1) * hd];
            h.extend(o.iter().zip(t).map(|(&ov, &tv)| ov * tv));
        }

        let record = if self.inference {
            for buf in [gates, forget, tanh_c] {
                crate::pool::put(buf);
            }
            None
        } else {
            let c_id = self.len();
            Some(Arc::new(ChildSumRecord {
                c: c_id,
                h: c_id + 1,
                wx: wx.id,
                b: b.id,
                incoming: incoming.map(|inc| ([inc.uh.id, inc.ufh.id, inc.ck.id], inc.edges)),
                sigmoid_candidate,
                gates: Tensor::from_vec(gates, [w, h3]),
                forget: Tensor::from_vec(forget, [edges, hd]),
                tanh_c: Tensor::from_vec(tanh_c, [w, hd]),
            }))
        };
        let op = || record.clone().map_or(Op::Value, Op::ChildSumCell);
        let c = self.push_node(op(), Tensor::from_vec(c, [w, hd]));
        let h = self.push_node(op(), Tensor::from_vec(h, [w, hd]));
        (h, c)
    }

    /// Gathers rows of an embedding `table` (`[v, d]`): output is `[k, d]`
    /// for `k` indices.
    ///
    /// The backward pass scatter-adds into the table gradient, which is how
    /// the paper's learnable node-kind embeddings receive updates.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not rank 2 or an index is out of range.
    pub fn gather<'t>(&'t self, table: Var<'t>, indices: impl Into<Arc<Vec<usize>>>) -> Var<'t> {
        let indices = indices.into();
        let t = self.value_of(table.id);
        assert_eq!(
            t.shape().rank(),
            2,
            "gather table must be rank 2, got {}",
            t.shape()
        );
        let (v, d) = (t.shape().rows(), t.shape().cols());
        let mut data = crate::pool::take_cap(indices.len() * d);
        for &ix in indices.iter() {
            assert!(
                ix < v,
                "gather index {ix} out of range for table with {v} rows"
            );
            data.extend_from_slice(&t.as_slice()[ix * d..(ix + 1) * d]);
        }
        let k = indices.len();
        self.push(
            || Op::Gather {
                table: table.id,
                indices,
            },
            Tensor::from_vec(data, [k, d]),
        )
    }

    /// Sparse-dense product `Â · H` for graph convolutions.
    ///
    /// # Panics
    ///
    /// Panics if `h` row count differs from the adjacency node count.
    pub fn spmm<'t>(&'t self, adj: Arc<Adjacency>, h: Var<'t>) -> Var<'t> {
        let hv = self.value_of(h.id);
        let value = adj.matmul(&hv);
        self.push(|| Op::SpMm { adj, h: h.id }, value)
    }

    /// Runs the reverse sweep from a scalar `root`, returning gradients for
    /// every recorded variable.
    ///
    /// # Panics
    ///
    /// Panics if this is an [inference tape](Tape::inference), or if
    /// `root` does not hold exactly one element or belongs to a different
    /// tape.
    pub fn backward(&self, root: Var<'_>) -> Gradients {
        assert!(
            !self.inference,
            "backward on an inference tape: it records values, not operations"
        );
        assert!(
            std::ptr::eq(root.tape, self),
            "backward: var from another tape"
        );
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[root.id].value().len(),
            1,
            "backward root must be scalar"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[root.id] = Some(Tensor::ones(nodes[root.id].value().shape()));

        for id in (0..=root.id).rev() {
            let Some(g) = grads[id].take() else { continue };
            let node = &nodes[id];
            match &node.op {
                Op::Leaf => {
                    grads[id] = Some(g);
                    continue;
                }
                Op::Value => unreachable!("a recording tape records every operation"),
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, g.clone(), &nodes);
                    accumulate(&mut grads, *b, g.clone(), &nodes);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *a, g.clone(), &nodes);
                    accumulate(&mut grads, *b, g.scale(-1.0), &nodes);
                }
                Op::Mul(a, b) => {
                    let av = nodes[*a].value();
                    let bv = nodes[*b].value();
                    accumulate(&mut grads, *a, g.mul(bv), &nodes);
                    accumulate(&mut grads, *b, g.mul(av), &nodes);
                }
                Op::Scale(a, s) => {
                    accumulate(&mut grads, *a, g.scale(*s), &nodes);
                }
                Op::MatMul(a, b) => {
                    let av = nodes[*a].value();
                    let bv = nodes[*b].value();
                    accumulate(&mut grads, *a, g.matmul(&bv.t()), &nodes);
                    accumulate(&mut grads, *b, av.matmul_tn(&g), &nodes);
                }
                Op::MatMulNt(a, b) => {
                    // y = A·Bᵀ ⇒ dA += G·B, dB += Gᵀ·A (`G` read in place).
                    let av = nodes[*a].value();
                    let bv = nodes[*b].value();
                    accumulate(&mut grads, *a, g.matmul(bv), &nodes);
                    accumulate(&mut grads, *b, g.matmul_tn(av), &nodes);
                }
                Op::Linear { w, x, b } => {
                    let wv = nodes[*w].value();
                    let xv = nodes[*x].value();
                    accumulate(&mut grads, *w, g.outer(xv), &nodes);
                    accumulate(&mut grads, *x, wv.t().matvec(&g), &nodes);
                    if let Some(b) = b {
                        accumulate(&mut grads, *b, g.clone(), &nodes);
                    }
                }
                Op::Sigmoid(a) => {
                    let y = node.value();
                    let dg = g.zip(y, |gi, yi| gi * yi * (1.0 - yi));
                    accumulate(&mut grads, *a, dg, &nodes);
                }
                Op::Tanh(a) => {
                    let y = node.value();
                    let dg = g.zip(y, |gi, yi| gi * (1.0 - yi * yi));
                    accumulate(&mut grads, *a, dg, &nodes);
                }
                Op::Relu(a) => {
                    let xv = nodes[*a].value();
                    let dg = g.zip(xv, |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                    accumulate(&mut grads, *a, dg, &nodes);
                }
                Op::Sum(a) => {
                    let gi = g.item();
                    accumulate(
                        &mut grads,
                        *a,
                        Tensor::full(nodes[*a].value().shape(), gi),
                        &nodes,
                    );
                }
                Op::Mean(a) => {
                    let n = nodes[*a].value().len().max(1) as f32;
                    let gi = g.item() / n;
                    accumulate(
                        &mut grads,
                        *a,
                        Tensor::full(nodes[*a].value().shape(), gi),
                        &nodes,
                    );
                }
                Op::Dot(a, b) => {
                    let gi = g.item();
                    let av = nodes[*a].value();
                    let bv = nodes[*b].value();
                    accumulate(&mut grads, *a, bv.scale(gi), &nodes);
                    accumulate(&mut grads, *b, av.scale(gi), &nodes);
                }
                Op::Concat(parts) => {
                    let gs = g.as_slice();
                    let mut off = 0;
                    for &p in parts {
                        let len = nodes[p].value().len();
                        let shape = nodes[p].value().shape();
                        let part =
                            Tensor::from_vec(crate::pool::take_copy(&gs[off..off + len]), shape);
                        accumulate(&mut grads, p, part, &nodes);
                        off += len;
                    }
                }
                Op::AddN(parts) => {
                    for &p in parts {
                        accumulate(&mut grads, p, g.clone(), &nodes);
                    }
                }
                Op::Stack(parts) => {
                    let d = nodes[parts[0]].value().len();
                    let gs = g.as_slice();
                    for (k, &p) in parts.iter().enumerate() {
                        let shape = nodes[p].value().shape();
                        let part = Tensor::from_vec(
                            crate::pool::take_copy(&gs[k * d..(k + 1) * d]),
                            shape,
                        );
                        accumulate(&mut grads, p, part, &nodes);
                    }
                }
                Op::StackRows(parts) => {
                    let gs = g.as_slice();
                    let d = node.value().shape().cols();
                    let mut off = 0;
                    for &p in parts {
                        let shape = nodes[p].value().shape();
                        let (rows, _) = stacked_rows_shape(nodes[p].value());
                        let part = Tensor::from_vec(
                            crate::pool::take_copy(&gs[off * d..(off + rows) * d]),
                            shape,
                        );
                        accumulate(&mut grads, p, part, &nodes);
                        off += rows;
                    }
                }
                Op::ConcatCols(a, b) => {
                    let (sa, sb) = (nodes[*a].value().shape(), nodes[*b].value().shape());
                    let (n, da, db) = (sa.rows(), sa.cols(), sb.cols());
                    let gs = g.as_slice();
                    let mut ga = crate::pool::take_zeroed(n * da);
                    let mut gb = crate::pool::take_zeroed(n * db);
                    for i in 0..n {
                        let row = &gs[i * (da + db)..(i + 1) * (da + db)];
                        ga[i * da..(i + 1) * da].copy_from_slice(&row[..da]);
                        gb[i * db..(i + 1) * db].copy_from_slice(&row[da..]);
                    }
                    accumulate(&mut grads, *a, Tensor::from_vec(ga, sa), &nodes);
                    accumulate(&mut grads, *b, Tensor::from_vec(gb, sb), &nodes);
                }
                Op::SliceCols { src, start } => {
                    let shape = nodes[*src].value().shape();
                    let mut scatter = Tensor::zeros(shape);
                    let gs = g.as_slice();
                    {
                        let dst = scatter.make_mut();
                        match shape.rank() {
                            1 => dst[*start..*start + gs.len()].copy_from_slice(gs),
                            _ => {
                                let (n, d) = (shape.rows(), shape.cols());
                                let len = node.value().shape().cols();
                                for i in 0..n {
                                    dst[i * d + start..i * d + start + len]
                                        .copy_from_slice(&gs[i * len..(i + 1) * len]);
                                }
                            }
                        }
                    }
                    accumulate(&mut grads, *src, scatter, &nodes);
                }
                Op::GatherRowsMulti { sources, indices } => {
                    let d = node.value().shape().cols();
                    let gs = g.as_slice();
                    // pool-exempt: usize offset table, bounded by op fan-in.
                    let mut offsets = Vec::with_capacity(sources.len() + 1);
                    let mut total = 0usize;
                    for &s in sources {
                        offsets.push(total);
                        total += nodes[s].value().shape().rows();
                    }
                    offsets.push(total);
                    // Rows add straight into the sources' gradients; a
                    // source no index touches gets none.
                    let accum = crate::kernels::active().seg_accum;
                    for (kth, &ix) in indices.iter().enumerate() {
                        let s = offsets.partition_point(|&o| o <= ix) - 1;
                        let local = ix - offsets[s];
                        let dst = grad_slot(&mut grads, sources[s], &nodes);
                        accum(
                            &mut dst[local * d..(local + 1) * d],
                            &gs[kth * d..(kth + 1) * d],
                        );
                    }
                }
                Op::SegmentSum { m, offsets, init } => {
                    if let Some(init) = init {
                        accumulate(&mut grads, *init, g.clone(), &nodes);
                    }
                    let shape = nodes[*m].value().shape();
                    let d = shape.cols();
                    let gs = g.as_slice();
                    let mut gm = crate::pool::take_zeroed(shape.len());
                    for s in 0..offsets.len() - 1 {
                        let grow = &gs[s * d..(s + 1) * d];
                        for r in offsets[s]..offsets[s + 1] {
                            gm[r * d..(r + 1) * d].copy_from_slice(grow);
                        }
                    }
                    accumulate(&mut grads, *m, Tensor::from_vec(gm, shape), &nodes);
                }
                Op::Row(a, r) => {
                    let shape = nodes[*a].value().shape();
                    let cols = shape.cols();
                    let mut scatter = Tensor::zeros(shape);
                    scatter.make_mut()[r * cols..(r + 1) * cols].copy_from_slice(g.as_slice());
                    accumulate(&mut grads, *a, scatter, &nodes);
                }
                Op::Gather { table, indices } => {
                    let d = nodes[*table].value().shape().cols();
                    let gs = g.as_slice();
                    let accum = crate::kernels::active().seg_accum;
                    let dst = grad_slot(&mut grads, *table, &nodes);
                    for (k, &ix) in indices.iter().enumerate() {
                        accum(&mut dst[ix * d..(ix + 1) * d], &gs[k * d..(k + 1) * d]);
                    }
                }
                Op::SpMm { adj, h } => {
                    accumulate(&mut grads, *h, adj.matmul_t(&g), &nodes);
                }
                Op::AddRowBroadcast { m, v } => {
                    accumulate(&mut grads, *m, g.clone(), &nodes);
                    // dv = column sums of g.
                    let shape = nodes[*m].value().shape();
                    let (n, d) = (shape.rows(), shape.cols());
                    let gs = g.as_slice();
                    let mut dv = crate::pool::take_zeroed(d);
                    for i in 0..n {
                        for j in 0..d {
                            dv[j] += gs[i * d + j];
                        }
                    }
                    accumulate(&mut grads, *v, Tensor::from_vec(dv, [d]), &nodes);
                }
                Op::MeanRows(a) => {
                    let shape = nodes[*a].value().shape();
                    let (n, d) = (shape.rows(), shape.cols());
                    let gs = g.as_slice();
                    let mut out = crate::pool::take_zeroed(n * d);
                    let inv = 1.0 / n.max(1) as f32;
                    for i in 0..n {
                        for j in 0..d {
                            out[i * d + j] = gs[j] * inv;
                        }
                    }
                    accumulate(&mut grads, *a, Tensor::from_vec(out, shape), &nodes);
                }
                Op::BceWithLogits { logit, target } => {
                    let z = nodes[*logit].value().item();
                    let sig = 1.0 / (1.0 + (-z).exp());
                    let d = (sig - target) * g.item();
                    accumulate(&mut grads, *logit, Tensor::scalar(d), &nodes);
                }
                Op::ChildSumCell(cell) => {
                    // The sweep meets `h` first, when every reader of `c`
                    // has already added its share, and runs the cell for
                    // both outputs. `c` runs it only if `h` got nothing.
                    let (dh, dc) = if id == cell.h {
                        (Some(g), grads[cell.c].take())
                    } else {
                        (None, Some(g))
                    };
                    let ck = cell.incoming.as_ref().map(|(ids, _)| nodes[ids[2]].value());
                    let (dwx, db, dincoming) = cell.backward(dh.as_ref(), dc.as_ref(), ck);
                    accumulate(&mut grads, cell.wx, dwx, &nodes);
                    accumulate(&mut grads, cell.b, db, &nodes);
                    if let (Some((ids, _)), Some(ds)) = (&cell.incoming, dincoming) {
                        for (&id, d) in ids.iter().zip(ds) {
                            accumulate(&mut grads, id, d, &nodes);
                        }
                    }
                }
            }
        }

        Gradients { grads }
    }
}

/// How a [`Tape::stack_rows`] part contributes rows: a matrix as its
/// `[rows, cols]`, a vector as one row of its length, a scalar as `[1, 1]`.
///
/// # Panics
///
/// Panics if the part has rank > 2.
fn stacked_rows_shape(v: &Tensor) -> (usize, usize) {
    let shape = v.shape();
    match shape.rank() {
        0 => (1, 1),
        1 => (1, v.len()),
        2 => (shape.rows(), shape.cols()),
        _ => panic!("stack_rows expects rows/matrices, got {shape}"),
    }
}

/// Node `id`'s gradient for adding into in place, zeros shaped like its
/// value until something has been added.
fn grad_slot<'g>(grads: &'g mut [Option<Tensor>], id: usize, nodes: &[Node]) -> &'g mut [f32] {
    grads[id]
        .get_or_insert_with(|| Tensor::zeros(nodes[id].value().shape()))
        .make_mut()
}

fn accumulate(grads: &mut [Option<Tensor>], id: usize, delta: Tensor, nodes: &[Node]) {
    debug_assert_eq!(
        delta.shape(),
        nodes[id].value().shape(),
        "gradient shape mismatch at node {id}"
    );
    match &mut grads[id] {
        Some(g) => g.axpy(1.0, &delta),
        slot @ None => *slot = Some(delta),
    }
}

impl<'t> Var<'t> {
    /// The identifier of this variable on its tape (stable for the lifetime
    /// of the tape; used to look gradients up in [`Gradients`]).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The current value of this variable (cheap `Arc` clone).
    pub fn value(&self) -> Tensor {
        self.tape.value_of(self.id)
    }

    fn same_tape(&self, other: &Var<'t>) {
        assert!(
            std::ptr::eq(self.tape, other.tape),
            "vars from different tapes"
        );
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or the variables come from different tapes.
    // Named after the tensor ops rather than std::ops traits: operator
    // impls cannot carry the tape lifetime bookkeeping these need.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        self.same_tape(&other);
        let v = self.value().add(&other.value());
        self.tape.push(|| Op::Add(self.id, other.id), v)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or the variables come from different tapes.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        self.same_tape(&other);
        let v = self.value().sub(&other.value());
        self.tape.push(|| Op::Sub(self.id, other.id), v)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or the variables come from different tapes.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        self.same_tape(&other);
        let v = self.value().mul(&other.value());
        self.tape.push(|| Op::Mul(self.id, other.id), v)
    }

    /// Multiplication by a constant.
    pub fn scale(self, s: f32) -> Var<'t> {
        let v = self.value().scale(s);
        self.tape.push(|| Op::Scale(self.id, s), v)
    }

    /// Matrix product `self · other` (`[m,k] · [k,n]`).
    ///
    /// # Panics
    ///
    /// Panics on rank/dimension mismatch.
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        self.same_tape(&other);
        let v = self.value().matmul(&other.value());
        self.tape.push(|| Op::MatMul(self.id, other.id), v)
    }

    /// Matrix product with transposed right operand: `self · otherᵀ`
    /// (`[n, k] · [m, k]ᵀ → [n, m]`) — the batched-linear layout where
    /// weights are stored `[out, in]`. `other` is transposed once per
    /// tape, however many products it takes part in.
    ///
    /// # Panics
    ///
    /// Panics on rank/dimension mismatch.
    pub fn matmul_nt(self, other: Var<'t>) -> Var<'t> {
        self.same_tape(&other);
        let v = self.value().matmul(&self.tape.transposed_of(other.id));
        self.tape.push(|| Op::MatMulNt(self.id, other.id), v)
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics on rank/dimension mismatch.
    pub fn matvec(self, x: Var<'t>) -> Var<'t> {
        self.same_tape(&x);
        let v = self.value().matvec(&x.value());
        self.tape.push(
            || Op::Linear {
                w: self.id,
                x: x.id,
                b: None,
            },
            v,
        )
    }

    /// Fused affine map `self · x + b` — one node instead of two, the hot
    /// path of every LSTM gate.
    ///
    /// # Panics
    ///
    /// Panics on rank/dimension mismatch.
    pub fn affine(self, x: Var<'t>, b: Var<'t>) -> Var<'t> {
        self.same_tape(&x);
        self.same_tape(&b);
        let v = self.value().matvec(&x.value()).add(&b.value());
        self.tape.push(
            || Op::Linear {
                w: self.id,
                x: x.id,
                b: Some(b.id),
            },
            v,
        )
    }

    /// Elementwise logistic sigmoid: within 2e-7 of exact, and the same
    /// bits under every kernel backend.
    pub fn sigmoid(self) -> Var<'t> {
        let v = self.value().map_kernel(crate::kernels::active().sigmoid);
        self.tape.push(|| Op::Sigmoid(self.id), v)
    }

    /// Elementwise hyperbolic tangent: within 2e-7 of exact, and the same
    /// bits under every kernel backend.
    pub fn tanh(self) -> Var<'t> {
        let v = self.value().map_kernel(crate::kernels::active().tanh);
        self.tape.push(|| Op::Tanh(self.id), v)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        let v = self.value().map(|x| x.max(0.0));
        self.tape.push(|| Op::Relu(self.id), v)
    }

    /// Sum of all elements (scalar result).
    pub fn sum(self) -> Var<'t> {
        let v = Tensor::scalar(self.value().sum());
        self.tape.push(|| Op::Sum(self.id), v)
    }

    /// Mean of all elements (scalar result).
    pub fn mean(self) -> Var<'t> {
        let v = Tensor::scalar(self.value().mean());
        self.tape.push(|| Op::Mean(self.id), v)
    }

    /// Dot product with another variable of the same length (scalar).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(self, other: Var<'t>) -> Var<'t> {
        self.same_tape(&other);
        let v = Tensor::scalar(self.value().dot(&other.value()));
        self.tape.push(|| Op::Dot(self.id, other.id), v)
    }

    /// Extracts row `r` of a matrix as a vector.
    ///
    /// # Panics
    ///
    /// Panics if not rank 2 or `r` out of bounds.
    pub fn row(self, r: usize) -> Var<'t> {
        let v = self.value().row(r);
        self.tape.push(|| Op::Row(self.id, r), v)
    }

    /// Selects rows of a rank-2 matrix by (repeatable) indices, producing
    /// `[k, d]` for `k` indices — the gather half of the level-fused tree
    /// encoders. The backward pass scatter-adds each output row's
    /// gradient into its source row.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or an index is out of range.
    pub fn index_rows(self, indices: impl Into<Arc<Vec<usize>>>) -> Var<'t> {
        self.tape.gather(self, indices)
    }

    /// Concatenates two matrices column-wise: `[n, da]` ++ `[n, db]` →
    /// `[n, da + db]` (the per-node up/down state concatenation of
    /// bidirectional stacks, fused across all nodes).
    ///
    /// # Panics
    ///
    /// Panics unless both operands are rank 2 with equal row counts.
    pub fn concat_cols(self, other: Var<'t>) -> Var<'t> {
        self.same_tape(&other);
        let a = self.value();
        let b = other.value();
        assert_eq!(
            a.shape().rank(),
            2,
            "concat_cols lhs must be rank 2, got {}",
            a.shape()
        );
        assert_eq!(
            b.shape().rank(),
            2,
            "concat_cols rhs must be rank 2, got {}",
            b.shape()
        );
        assert_eq!(
            a.shape().rows(),
            b.shape().rows(),
            "concat_cols row mismatch: {} vs {}",
            a.shape(),
            b.shape()
        );
        let (n, da, db) = (a.shape().rows(), a.shape().cols(), b.shape().cols());
        let (sa, sb) = (a.as_slice(), b.as_slice());
        let mut out = crate::pool::take_cap(n * (da + db));
        for i in 0..n {
            out.extend_from_slice(&sa[i * da..(i + 1) * da]);
            out.extend_from_slice(&sb[i * db..(i + 1) * db]);
        }
        self.tape.push(
            || Op::ConcatCols(self.id, other.id),
            Tensor::from_vec(out, [n, da + db]),
        )
    }

    /// Contiguous column slice: `[n, d] → [n, len]` taking columns
    /// `start..start + len` of a matrix, or elements `start..start + len`
    /// of a vector. The backward pass scatters the gradient back into
    /// the sliced region (zeros elsewhere).
    ///
    /// This is how the fused 4-gate tree-LSTM splits its `[rows, 4h]`
    /// pre-activation into the i/o/u/f gate blocks after a single matmul.
    ///
    /// # Panics
    ///
    /// Panics if `self` is rank 0, `len == 0`, or the slice exceeds the
    /// row width.
    pub fn slice_cols(self, start: usize, len: usize) -> Var<'t> {
        let v = self.value();
        assert!(len > 0, "slice_cols of zero width");
        match v.shape().rank() {
            1 => {
                assert!(
                    start + len <= v.len(),
                    "slice_cols {start}..{} out of range for {}",
                    start + len,
                    v.shape()
                );
                let out = crate::pool::take_copy(&v.as_slice()[start..start + len]);
                self.tape.push(
                    || Op::SliceCols {
                        src: self.id,
                        start,
                    },
                    Tensor::from_vec(out, [len]),
                )
            }
            2 => {
                let (n, d) = (v.shape().rows(), v.shape().cols());
                assert!(
                    start + len <= d,
                    "slice_cols {start}..{} out of range for {}",
                    start + len,
                    v.shape()
                );
                let src = v.as_slice();
                let mut out = crate::pool::take_cap(n * len);
                for i in 0..n {
                    out.extend_from_slice(&src[i * d + start..i * d + start + len]);
                }
                self.tape.push(
                    || Op::SliceCols {
                        src: self.id,
                        start,
                    },
                    Tensor::from_vec(out, [n, len]),
                )
            }
            _ => panic!("slice_cols on tensor of shape {}", v.shape()),
        }
    }

    /// Adds a `[d]` vector to every row of a `[n, d]` matrix — the bias
    /// term of a batched linear layer.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is rank 2 and `v` a vector of matching width.
    pub fn add_row_broadcast(self, v: Var<'t>) -> Var<'t> {
        self.same_tape(&v);
        let m = self.value();
        let b = v.value();
        assert_eq!(
            m.shape().rank(),
            2,
            "add_row_broadcast lhs must be rank 2, got {}",
            m.shape()
        );
        assert_eq!(
            m.shape().cols(),
            b.len(),
            "add_row_broadcast width mismatch: {} vs {}",
            m.shape(),
            b.shape()
        );
        let (n, d) = (m.shape().rows(), m.shape().cols());
        let mut out = crate::pool::take_copy(m.as_slice());
        for i in 0..n {
            for (o, &bv) in out[i * d..(i + 1) * d].iter_mut().zip(b.as_slice()) {
                *o += bv;
            }
        }
        self.tape.push(
            || Op::AddRowBroadcast {
                m: self.id,
                v: v.id,
            },
            Tensor::from_vec(out, [n, d]),
        )
    }

    /// Mean over the rows of a `[n, d]` matrix, producing a `[d]` vector —
    /// the GCN readout.
    ///
    /// # Panics
    ///
    /// Panics if not rank 2.
    pub fn mean_rows(self) -> Var<'t> {
        let v = self.value();
        assert_eq!(v.shape().rank(), 2, "mean_rows on {}", v.shape());
        let (n, d) = (v.shape().rows(), v.shape().cols());
        let mut out = crate::pool::take_zeroed(d);
        if d > 0 {
            for row in v.as_slice().chunks_exact(d).take(n) {
                for (o, &x) in out.iter_mut().zip(row) {
                    *o += x;
                }
            }
        }
        let inv = 1.0 / n.max(1) as f32;
        for o in &mut out {
            *o *= inv;
        }
        self.tape
            .push(|| Op::MeanRows(self.id), Tensor::from_vec(out, [d]))
    }

    /// Numerically stable binary cross-entropy between `sigmoid(self)` and a
    /// constant `target ∈ {0, 1}` (scalar logit → scalar loss).
    ///
    /// Uses `max(z,0) − z·y + ln(1 + e^{−|z|})`, never materialising the
    /// sigmoid in the forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a single-element tensor.
    pub fn bce_with_logits(self, target: f32) -> Var<'t> {
        let z = self.value().item();
        let loss = z.max(0.0) - z * target + (1.0 + (-z.abs()).exp()).ln();
        self.tape.push(
            || Op::BceWithLogits {
                logit: self.id,
                target,
            },
            Tensor::scalar(loss),
        )
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the backward root with respect to `var`, or a zero
    /// tensor of no particular shape if the variable did not influence the
    /// root. Prefer [`Gradients::get_or_zeros`] when a correctly shaped
    /// zero gradient is needed.
    pub fn get(&self, var: Var<'_>) -> Tensor {
        self.grads[var.id].clone().unwrap_or_default()
    }

    /// Like [`Gradients::get`] but returns zeros shaped like the variable's
    /// value when it received no gradient.
    pub fn get_or_zeros(&self, var: Var<'_>) -> Tensor {
        self.grads[var.id]
            .clone()
            .unwrap_or_else(|| Tensor::zeros(var.value().shape()))
    }

    /// Whether the variable received any gradient.
    pub fn contains(&self, var: Var<'_>) -> bool {
        self.grads[var.id].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Var::tanh`]'s kernel on one value.
    fn tanh(x: f32) -> f32 {
        let mut y = [0.0];
        (crate::kernels::active().tanh)(&[x], &mut y);
        y[0]
    }

    #[test]
    fn add_backward() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let b = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], [2]));
        let loss = a.add(b).sum();
        assert_eq!(loss.value().item(), 10.0);
        let g = tape.backward(loss);
        assert_eq!(g.get(a).as_slice(), &[1.0, 1.0]);
        assert_eq!(g.get(b).as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_backward() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![2.0, 3.0], [2]));
        let b = tape.leaf(Tensor::from_vec(vec![5.0, 7.0], [2]));
        let loss = a.mul(b).sum();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).as_slice(), &[5.0, 7.0]);
        assert_eq!(g.get(b).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn matvec_backward_hand_checked() {
        let tape = Tape::new();
        let w = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let x = tape.leaf(Tensor::from_vec(vec![5.0, 6.0], [2]));
        let y = w.matvec(x); // [17, 39]
        assert_eq!(y.value().as_slice(), &[17.0, 39.0]);
        let loss = y.sum();
        let g = tape.backward(loss);
        // dW = [1,1]ᵀ ⊗ x = [[5,6],[5,6]]; dx = Wᵀ·[1,1] = [4, 6]
        assert_eq!(g.get(w).as_slice(), &[5.0, 6.0, 5.0, 6.0]);
        assert_eq!(g.get(x).as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn sigmoid_at_zero() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(0.0));
        let y = x.sigmoid();
        assert!((y.value().item() - 0.5).abs() < 1e-7);
        let g = tape.backward(y.sum());
        assert!((g.get(x).item() - 0.25).abs() < 1e-7);
    }

    #[test]
    fn matmul_nt_after_reset_uses_the_new_operand() {
        // The hot-swap case: a worker's long-lived tape is reset and the
        // next batch binds a *different* weight to the node id the old
        // one had. A memo keyed by node id would answer with the retired
        // model's transpose, which outlives the reset.
        let tape = Tape::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let w_old = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], [2, 3]);
        let w_new = Tensor::from_vec(vec![0.0, 0.0, 2.0, 1.0, 1.0, 1.0], [2, 3]);
        let record = |w: &Tensor| {
            let xv = tape.leaf(x.clone());
            let wv = tape.leaf(w.clone());
            // Twice, so the second product is served from the memo.
            let first = xv.matmul_nt(wv).value();
            assert_eq!(xv.matmul_nt(wv).value(), first);
            (wv.id(), first)
        };
        let (id_old, y_old) = record(&w_old);
        assert_eq!(y_old.as_slice(), &[1.0, 2.0, 4.0, 5.0]);
        tape.reset();
        let (id_new, y_new) = record(&w_new);
        assert_eq!(id_old, id_new, "the new weight must reuse the old node id");
        assert_eq!(y_new, x.matmul(&w_new.t()));
        assert_eq!(y_new.as_slice(), &[6.0, 6.0, 12.0, 15.0]);
    }

    /// `[2, 3]` operands for the memo tests.
    fn memo_operands() -> (Tensor, Tensor) {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let w = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.25, -0.75], [2, 3]);
        (x, w)
    }

    #[test]
    fn matmul_nt_memo_survives_reset_while_its_source_lives() {
        let (x, w) = memo_operands();
        let tape = Tape::inference();
        let product = || tape.leaf(x.clone()).matmul_nt(tape.leaf(w.clone())).value();
        let first = product();
        assert_eq!(tape.memo_len(), 1);
        tape.reset();
        assert_eq!(tape.memo_len(), 1, "the weight is alive, so is its entry");
        assert_eq!(product(), first);
        assert_eq!(tape.memo_len(), 1, "the second batch found the entry");
        assert_eq!(first, x.matmul(&w.t()));
    }

    #[test]
    fn matmul_nt_memo_drops_an_entry_once_its_source_is_gone() {
        let (x, w) = memo_operands();
        let tape = Tape::inference();
        let _ = tape.leaf(x).matmul_nt(tape.leaf(w)).value();
        // Only the tape's leaf holds the weight now; the reset drops it,
        // and with it the entry.
        tape.reset();
        assert_eq!(tape.memo_len(), 0);
    }

    #[test]
    fn matmul_nt_memo_tells_reshaped_views_apart() {
        // `[2, 3]` and `[3, 2]` views of one buffer transpose differently.
        let (_, w) = memo_operands();
        let square = Tensor::from_vec((0..9).map(|v| v as f32).collect(), [3, 3]);
        let tall = w.reshape([3, 2]);
        let tape = Tape::inference();
        let a = tape.leaf(square.clone()).matmul_nt(tape.leaf(w.clone()));
        let b = tape
            .leaf(Tensor::from_vec(vec![1.0, -1.0], [1, 2]))
            .matmul_nt(tape.leaf(tall.clone()));
        assert_eq!(a.value(), square.matmul(&w.t()));
        assert_eq!(b.value().as_slice(), &[1.5, 0.5, 1.0]);
        assert_eq!(tape.memo_len(), 2);
    }

    #[test]
    fn matmul_nt_memo_sees_a_weight_updated_in_place() {
        // An optimizer step between batches writes the weight through
        // `make_mut`; the next batch must multiply by the new values.
        let (x, mut w) = memo_operands();
        let tape = Tape::inference();
        let product = |w: &Tensor| tape.leaf(x.clone()).matmul_nt(tape.leaf(w.clone())).value();
        let before = product(&w);
        tape.reset();
        w.make_mut()[0] = 10.0;
        let after = product(&w);
        assert_ne!(after, before);
        assert_eq!(after, x.matmul(&w.t()));
    }

    #[test]
    fn matmul_nt_memo_of_two_tapes_dies_with_the_shared_weight() {
        // Two workers' tapes share one model: neither may keep the
        // other's entry alive once the model is gone.
        let (x, w) = memo_operands();
        let tapes = [Tape::inference(), Tape::inference()];
        for tape in &tapes {
            let _ = tape.leaf(x.clone()).matmul_nt(tape.leaf(w.clone())).value();
            tape.reset();
            assert_eq!(tape.memo_len(), 1);
        }
        drop(w);
        for tape in &tapes {
            tape.reset();
            assert_eq!(tape.memo_len(), 0);
        }
    }

    #[test]
    fn release_drops_only_unkept_non_leaf_nodes_since_the_mark() {
        let tape = Tape::inference();
        let x = tape.leaf(Tensor::from_vec(vec![0.5, -1.0], [2]));
        let before = x.tanh();
        let mark = tape.len();
        let w = tape.leaf(Tensor::from_vec(vec![2.0, 3.0], [2]));
        let dead = before.mul(w);
        let kept = dead.sigmoid();
        let expect = kept.value();
        tape.release_since(mark, &[kept]);
        let released = |v: Var<'_>| tape.nodes.borrow()[v.id()].value.is_none();
        assert!(released(dead));
        for live in [x, before, w, kept] {
            assert!(!released(live), "node {} was dropped", live.id());
        }
        assert_eq!(kept.value(), expect);
    }

    #[test]
    fn release_on_a_recording_tape_keeps_everything() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![0.5, -1.0], [2]));
        let y = x.tanh();
        let loss = y.sum();
        tape.release_since(0, &[loss]);
        assert_eq!(
            y.value(),
            x.value().map_kernel(crate::kernels::active().tanh)
        );
        let g = tape.backward(loss);
        assert_eq!(g.get(x).len(), 2);
    }

    #[test]
    fn inference_tape_records_no_operations() {
        let tape = Tape::inference();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let parts = tape.stack_rows(&[a, a]);
        let g = tape.gather_rows_multi(&[a, parts], vec![5usize, 0]);
        assert_eq!(g.value().as_slice(), &[3.0, 4.0, 1.0, 2.0]);
        let nodes = tape.nodes.borrow();
        assert!(matches!(nodes[a.id()].op, Op::Leaf));
        assert!(matches!(nodes[parts.id()].op, Op::Value));
        assert!(matches!(nodes[g.id()].op, Op::Value));
    }

    #[test]
    #[should_panic(expected = "backward on an inference tape")]
    fn inference_tape_backward_panics_naming_the_mode() {
        let tape = Tape::inference();
        let x = tape.leaf(Tensor::scalar(0.5));
        let _ = tape.backward(x.sigmoid());
    }

    #[test]
    #[should_panic(expected = "tape node 1 was released")]
    fn release_then_read_panics_naming_the_node() {
        let tape = Tape::inference();
        let x = tape.leaf(Tensor::from_vec(vec![0.5, -1.0], [2]));
        let mark = tape.len();
        let dead = x.tanh();
        let kept = dead.sigmoid();
        tape.release_since(mark, &[kept]);
        let _ = dead.value();
    }

    #[test]
    fn matmul_nt_memo_keeps_operands_apart_and_gradients_intact() {
        // Two right operands on one tape, interleaved: each product must
        // see its own transpose, and backward (which never reads the
        // memo) must match the unfused `matmul(t())` graph.
        let a = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.25, -0.75], [2, 3]);
        let w1 = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0], [2, 3]);
        let w2 = Tensor::from_vec((0..12).map(|x| x as f32 * 0.1 - 0.4).collect(), [4, 3]);
        let tape = Tape::new();
        let (av, v1, v2) = (
            tape.leaf(a.clone()),
            tape.leaf(w1.clone()),
            tape.leaf(w2.clone()),
        );
        let y1 = av.matmul_nt(v1);
        let y2 = av.matmul_nt(v2);
        let y1_again = av.matmul_nt(v1);
        assert_eq!(y1.value(), a.matmul(&w1.t()));
        assert_eq!(y2.value(), a.matmul(&w2.t()));
        assert_eq!(y1_again.value(), y1.value());
        let g = tape.backward(y1.sum().add(y2.sum()).add(y1_again.sum()));
        // d/dW1 of 2·Σ(A·W1ᵀ) is 2·(column sums of A) in every row.
        let col = [2.0f32 * 2.0, 2.0 * -0.75, 2.0 * 1.25];
        assert_eq!(g.get(v1).as_slice(), [col, col].concat());
    }

    #[test]
    fn tanh_stays_within_2e7_of_f64() {
        // Dense around the polynomial/exponential split and the origin,
        // then out to where f32 saturates.
        let mut worst = (0.0f64, 0.0f32);
        let mut check = |x: f32| {
            let err = (tanh(x) as f64 - (x as f64).tanh()).abs();
            if err > worst.0 {
                worst = (err, x);
            }
        };
        for i in 0..=400_000 {
            let x = i as f32 * 5e-5; // [0, 20]
            check(x);
            check(-x);
        }
        for i in 0..=20_000 {
            check(0.625 + (i as f32 - 10_000.0) * 1e-7);
            check(i as f32 * 1e-9);
        }
        assert!(worst.0 <= 2e-7, "tanh off by {:e} at {}", worst.0, worst.1);
    }

    #[test]
    fn tanh_specials_and_oddness() {
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(88.0), 1.0);
        assert_eq!(tanh(-88.0), -1.0);
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        // Tiny inputs come back unchanged rather than flushed.
        assert_eq!(tanh(1e-30), 1e-30);
        assert_eq!(tanh(f32::MIN_POSITIVE / 4.0), f32::MIN_POSITIVE / 4.0);
        for i in 0..4_000 {
            let x = i as f32 * 0.005 + 1e-4;
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "odd at {x}");
            assert!(tanh(x) > 0.0 && tanh(x) <= 1.0, "range at {x}");
        }
    }

    #[test]
    fn tanh_backward_passes_grad_check_on_both_branches() {
        // Inputs on each side of the 0.625 split and near saturation.
        let x = Tensor::from_vec(vec![-2.5, -0.7, -0.6, -0.1, 0.0, 0.3, 0.62, 0.63, 1.4], [9]);
        let report = crate::grad_check(&[x], 1e-2, |_tape, vars| {
            crate::TapeScalar(vars[0].tanh().sum())
        });
        assert!(
            report.passes(1e-2),
            "tanh gradient check failed: {report:?}"
        );
    }

    #[test]
    fn reused_variable_accumulates_gradient() {
        // loss = (x + x).sum() → dx = 2
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0], [1]));
        let loss = x.add(x).sum();
        let g = tape.backward(loss);
        assert_eq!(g.get(x).as_slice(), &[2.0]);
    }

    #[test]
    fn concat_split_gradient() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let b = tape.leaf(Tensor::from_vec(vec![3.0], [1]));
        let c = tape.concat(&[a, b]);
        assert_eq!(c.value().as_slice(), &[1.0, 2.0, 3.0]);
        let w = tape.leaf(Tensor::from_vec(vec![1.0, 10.0, 100.0], [3]));
        let loss = c.mul(w).sum();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).as_slice(), &[1.0, 10.0]);
        assert_eq!(g.get(b).as_slice(), &[100.0]);
    }

    #[test]
    fn gather_scatters_gradient() {
        let tape = Tape::new();
        let table = tape.leaf(Tensor::from_vec((0..6).map(|x| x as f32).collect(), [3, 2]));
        let g = tape.gather(table, vec![2usize, 0, 2]);
        assert_eq!(g.value().as_slice(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        let loss = g.sum();
        let grads = tape.backward(loss);
        // Row 2 hit twice, row 0 once, row 1 never.
        assert_eq!(grads.get(table).as_slice(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn bce_loss_matches_closed_form() {
        let tape = Tape::new();
        let z = tape.leaf(Tensor::scalar(0.7));
        let loss = z.bce_with_logits(1.0);
        let expected = (1.0f32 + (-0.7f32).exp()).ln();
        assert!((loss.value().item() - expected).abs() < 1e-6);
        let g = tape.backward(loss);
        let sig = 1.0 / (1.0 + (-0.7f32).exp());
        assert!((g.get(z).item() - (sig - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn spmm_forward_and_backward_shapes() {
        let adj = Arc::new(Adjacency::normalized_from_edges(3, &[(0, 1), (1, 2)]));
        let tape = Tape::new();
        let h = tape.leaf(Tensor::from_vec((0..6).map(|x| x as f32).collect(), [3, 2]));
        let out = tape.spmm(Arc::clone(&adj), h);
        assert_eq!(out.value().shape().dims(), &[3, 2]);
        let g = tape.backward(out.sum());
        assert_eq!(g.get(h).shape().dims(), &[3, 2]);
    }

    #[test]
    fn adjacency_rows_sum_reasonably() {
        // Row sums of Â = D^{-1/2}(A+I)D^{-1/2} are positive and bounded by
        // a small constant (they equal 1 exactly on regular graphs).
        let adj = Adjacency::normalized_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let h = Tensor::ones([4, 1]);
        let out = adj.matmul(&h);
        for &v in out.as_slice() {
            assert!(v > 0.0 && v <= 1.5, "row sum {v} out of range");
        }
        // Complete graph K3 is regular: every row sum is exactly 1.
        let k3 = Adjacency::normalized_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let out = k3.matmul(&Tensor::ones([3, 1]));
        for &v in out.as_slice() {
            assert!((v - 1.0).abs() < 1e-6, "regular graph row sum {v} != 1");
        }
    }

    #[test]
    fn mean_rows_backward() {
        let tape = Tape::new();
        let h = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let m = h.mean_rows();
        assert_eq!(m.value().as_slice(), &[2.0, 3.0]);
        let g = tape.backward(m.sum());
        assert_eq!(g.get(h).as_slice(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn stack_and_row_roundtrip_gradient() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let b = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], [2]));
        let s = tape.stack(&[a, b]);
        let r = s.row(1);
        assert_eq!(r.value().as_slice(), &[3.0, 4.0]);
        let g = tape.backward(r.sum());
        assert_eq!(g.get(a).as_slice(), &[0.0, 0.0]);
        assert_eq!(g.get(b).as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn stack_rows_forward_and_backward() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let b = tape.leaf(Tensor::from_vec(vec![5.0, 6.0], [1, 2]));
        let s = tape.stack_rows(&[a, b]);
        assert_eq!(s.value().shape().dims(), &[3, 2]);
        assert_eq!(s.value().as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Weight row 2 so the split is visible in gradients.
        let w = tape.leaf(Tensor::from_vec(
            vec![1.0; 4].into_iter().chain([7.0, 7.0]).collect(),
            [3, 2],
        ));
        let g = tape.backward(s.mul(w).sum());
        assert_eq!(g.get(a).as_slice(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(g.get(b).as_slice(), &[7.0, 7.0]);
    }

    #[test]
    fn stack_rows_accepts_vectors_as_single_rows() {
        let tape = Tape::new();
        let m = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let v = tape.leaf(Tensor::from_vec(vec![5.0, 6.0], [2]));
        // A rank-1 [2] part is one row of width 2, not a [2, 1] column.
        let s = tape.stack_rows(&[m, v, m.row(0)]);
        assert_eq!(s.value().shape().dims(), &[4, 2]);
        assert_eq!(
            s.value().as_slice(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0, 2.0]
        );
        let w = tape.leaf(Tensor::from_vec(
            vec![1.0, 1.0, 1.0, 1.0, 3.0, 5.0, 7.0, 7.0],
            [4, 2],
        ));
        let g = tape.backward(s.mul(w).sum());
        assert_eq!(g.get(v).shape().dims(), &[2], "vector grad keeps rank 1");
        assert_eq!(g.get(v).as_slice(), &[3.0, 5.0]);
        // m is read directly (rows 0–1) and via row(0) (row 3's weights).
        assert_eq!(g.get(m).as_slice(), &[8.0, 8.0, 1.0, 1.0]);
    }

    #[test]
    fn index_rows_selects_and_scatters() {
        let tape = Tape::new();
        let m = tape.leaf(Tensor::from_vec((0..8).map(|x| x as f32).collect(), [4, 2]));
        let sel = m.index_rows(vec![3usize, 1, 3]);
        assert_eq!(sel.value().as_slice(), &[6.0, 7.0, 2.0, 3.0, 6.0, 7.0]);
        let g = tape.backward(sel.sum());
        // Row 3 hit twice, row 1 once.
        assert_eq!(
            g.get(m).as_slice(),
            &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0]
        );
    }

    #[test]
    fn segment_sum_handles_empty_segments() {
        let tape = Tape::new();
        let m = tape.leaf(Tensor::from_vec((0..6).map(|x| x as f32).collect(), [3, 2]));
        // Segments: [0..2), [2..2) empty, [2..3).
        let s = tape.segment_sum(m, vec![0usize, 2, 2, 3]);
        assert_eq!(s.value().shape().dims(), &[3, 2]);
        assert_eq!(s.value().as_slice(), &[2.0, 4.0, 0.0, 0.0, 4.0, 5.0]);
        let g = tape.backward(s.sum());
        assert_eq!(g.get(m).as_slice(), &[1.0; 6]);
    }

    #[test]
    fn segment_sum_init_matches_sequential_accumulation() {
        let tape = Tape::new();
        let init = tape.leaf(Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], [2, 2]));
        let m = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        // Both contribution rows land in segment 0; segment 1 keeps init.
        let s = tape.segment_sum_init(init, m, vec![0usize, 2, 2]);
        assert_eq!(s.value().as_slice(), &[14.0, 26.0, 30.0, 40.0]);
        let g = tape.backward(s.sum());
        assert_eq!(g.get(init).as_slice(), &[1.0; 4]);
        assert_eq!(g.get(m).as_slice(), &[1.0; 4]);
    }

    #[test]
    fn slice_cols_matrix_forward_and_backward() {
        let tape = Tape::new();
        let m = tape.leaf(Tensor::from_vec((0..8).map(|x| x as f32).collect(), [2, 4]));
        let s = m.slice_cols(1, 2);
        assert_eq!(s.value().shape().dims(), &[2, 2]);
        assert_eq!(s.value().as_slice(), &[1.0, 2.0, 5.0, 6.0]);
        let w = tape.leaf(Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], [2, 2]));
        let g = tape.backward(s.mul(w).sum());
        assert_eq!(
            g.get(m).as_slice(),
            &[0.0, 1.0, 3.0, 0.0, 0.0, 5.0, 7.0, 0.0]
        );
    }

    #[test]
    fn slice_cols_vector_forward_and_backward() {
        let tape = Tape::new();
        let v = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]));
        let s = v.slice_cols(2, 2);
        assert_eq!(s.value().shape().dims(), &[2]);
        assert_eq!(s.value().as_slice(), &[3.0, 4.0]);
        let w = tape.leaf(Tensor::from_vec(vec![5.0, 9.0], [2]));
        let g = tape.backward(s.mul(w).sum());
        assert_eq!(g.get(v).as_slice(), &[0.0, 0.0, 5.0, 9.0]);
    }

    #[test]
    fn slice_cols_reused_slices_accumulate() {
        // Two overlapping slices of the same source: gradients add.
        let tape = Tape::new();
        let m = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]));
        let a = m.slice_cols(0, 2);
        let b = m.slice_cols(1, 2);
        let g = tape.backward(a.sum().add(b.sum()));
        assert_eq!(g.get(m).as_slice(), &[1.0, 2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_cols_rejects_overflow() {
        let tape = Tape::new();
        let m = tape.leaf(Tensor::zeros([2, 3]));
        let _ = m.slice_cols(2, 2);
    }

    #[test]
    fn gather_rows_multi_selects_across_sources() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let b = tape.leaf(Tensor::from_vec(vec![5.0, 6.0], [1, 2]));
        let c = tape.leaf(Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0], [2, 2]));
        // Virtual rows: 0,1 from a; 2 from b; 3,4 from c.
        let g = tape.gather_rows_multi(&[a, b, c], vec![4usize, 0, 2, 4]);
        assert_eq!(g.value().shape().dims(), &[4, 2]);
        assert_eq!(
            g.value().as_slice(),
            &[9.0, 10.0, 1.0, 2.0, 5.0, 6.0, 9.0, 10.0]
        );
        // Matches index_rows over the materialised stack bit-for-bit.
        let stacked = tape.stack_rows(&[a, b, c]);
        let via_stack = stacked.index_rows(vec![4usize, 0, 2, 4]);
        assert_eq!(g.value().as_slice(), via_stack.value().as_slice());
    }

    #[test]
    fn gather_rows_multi_scatters_gradients_per_source() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let b = tape.leaf(Tensor::from_vec(vec![5.0, 6.0], [1, 2]));
        // Row 2 (b's row) gathered twice, row 1 once; a's row 0 untouched.
        let g = tape.gather_rows_multi(&[a, b], vec![2usize, 1, 2]);
        let grads = tape.backward(g.sum());
        assert_eq!(grads.get(a).as_slice(), &[0.0, 0.0, 1.0, 1.0]);
        assert_eq!(grads.get(b).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn gather_rows_multi_untouched_source_gets_no_gradient() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones([2, 2]));
        let b = tape.leaf(Tensor::ones([1, 2]));
        let g = tape.gather_rows_multi(&[a, b], vec![0usize]);
        let grads = tape.backward(g.sum());
        assert!(grads.contains(a));
        assert!(!grads.contains(b), "source b was never gathered");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rows_multi_rejects_bad_index() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::zeros([2, 2]));
        let _ = tape.gather_rows_multi(&[a], vec![2usize]);
    }

    #[test]
    fn concat_cols_forward_and_backward() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let b = tape.leaf(Tensor::from_vec(vec![5.0, 6.0], [2, 1]));
        let c = a.concat_cols(b);
        assert_eq!(c.value().shape().dims(), &[2, 3]);
        assert_eq!(c.value().as_slice(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        let w = tape.leaf(Tensor::from_vec(vec![1.0, 1.0, 9.0, 1.0, 1.0, 9.0], [2, 3]));
        let g = tape.backward(c.mul(w).sum());
        assert_eq!(g.get(a).as_slice(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(g.get(b).as_slice(), &[9.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "final segment offset")]
    fn segment_sum_rejects_bad_offsets() {
        let tape = Tape::new();
        let m = tape.leaf(Tensor::zeros([3, 2]));
        let _ = tape.segment_sum(m, vec![0usize, 2]);
    }

    #[test]
    fn row_gathers_add_into_one_gradient() {
        // Three row reads of one matrix, two repeating an index: each
        // adds its rows into the same gradient.
        let tape = Tape::new();
        let m = tape.leaf(Tensor::from_vec((0..6).map(|x| x as f32).collect(), [3, 2]));
        let a = m.index_rows(vec![0usize, 2, 0]);
        let b = tape.gather_rows_multi(&[m], vec![2usize]);
        let w = tape.leaf(Tensor::from_vec(vec![0.5, 4.0], [1, 2]));
        let loss = a.sum().add(b.mul(w).sum());
        let g = tape.backward(loss);
        assert_eq!(g.get(m).as_slice(), &[2.0, 2.0, 0.0, 0.0, 1.5, 5.0]);
        assert_eq!(g.get(w).as_slice(), &[4.0, 5.0]);
    }

    /// Hidden width of the child-sum tests: past a 16-lane vector, with a
    /// ragged tail in every gate block.
    const HD: usize = 19;

    /// `len` values spread over `[-2, 2]`, a different walk per `seed`.
    fn spread(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|x| ((x * 37 + seed * 101) % 97) as f32 / 24.0 - 2.0)
            .collect()
    }

    /// Leaves for one child-sum level of `offsets.len() - 1` nodes,
    /// `hd` wide: `wx`, `b`, and `(uh, ufh, ck)` when `offsets` has edges.
    struct CellLeaves {
        wx: Tensor,
        b: Tensor,
        incoming: Option<[Tensor; 3]>,
        offsets: Arc<Vec<usize>>,
    }

    impl CellLeaves {
        /// The operands in the order [`incoming_of`] reads them.
        fn on<'t>(&self, tape: &'t Tape) -> Vec<Var<'t>> {
            [&self.wx, &self.b]
                .into_iter()
                .chain(self.incoming.iter().flatten())
                .map(|t| tape.leaf(t.clone()))
                .collect()
        }
    }

    fn cell_leaves(offsets: &[usize], hd: usize) -> CellLeaves {
        let (w, edges) = (
            offsets.len() - 1,
            *offsets.last().expect("w + 1 cut points"),
        );
        let mut wx = spread(w * 4 * hd, 1);
        let mut b = spread(4 * hd, 8);
        // A `-0.0` pre-activation: `-0.0 + -0.0` keeps the sign, and
        // `+ 0.0` then turns it into `+0.0`, as the zero product of the
        // composed chain does.
        (wx[3], b[3]) = (-0.0, -0.0);
        CellLeaves {
            wx: Tensor::from_vec(wx, [w, 4 * hd]),
            b: Tensor::from_vec(b, [4 * hd]),
            incoming: (edges > 0).then(|| {
                [
                    Tensor::from_vec(spread(w * 3 * hd, 2), [w, 3 * hd]),
                    Tensor::from_vec(spread(edges * hd, 3), [edges, hd]),
                    Tensor::from_vec(spread(edges * hd, 4), [edges, hd]),
                ]
            }),
            offsets: Arc::new(offsets.to_vec()),
        }
    }

    /// `vars` as the op's operands: `wx, b`, then `uh, ufh, ck` if
    /// present.
    fn incoming_of<'t>(
        vars: &[Var<'t>],
        offsets: &Arc<Vec<usize>>,
    ) -> Option<ChildSumIncoming<'t>> {
        (vars.len() == 5).then(|| ChildSumIncoming {
            uh: vars[2],
            ufh: vars[3],
            ck: vars[4],
            edges: ChildSumEdges::Segments(Arc::clone(offsets)),
        })
    }

    /// The level as the tree-LSTM encoder composed it before
    /// [`Tape::child_sum_cell`] existed, op by op: the bias by
    /// `add_row_broadcast`, and the `zeros · U` hidden projection of a
    /// level without incoming state.
    fn composed_cell<'t>(
        tape: &'t Tape,
        wx: Var<'t>,
        b: Var<'t>,
        incoming: Option<&ChildSumIncoming<'t>>,
        sigmoid_candidate: bool,
    ) -> (Var<'t>, Var<'t>) {
        let wxb = wx.add_row_broadcast(b);
        let w = wxb.value().shape().rows();
        let uh = match incoming {
            Some(inc) => inc.uh,
            None => tape
                .zeros([w, HD])
                .matmul_nt(tape.leaf(Tensor::from_vec(spread(3 * HD * HD, 5), [3 * HD, HD]))),
        };
        let pre = wxb.slice_cols(0, 3 * HD).add(uh);
        let i = pre.slice_cols(0, HD).sigmoid();
        let o = pre.slice_cols(HD, HD).sigmoid();
        let u_pre = pre.slice_cols(2 * HD, HD);
        let u = if sigmoid_candidate {
            u_pre.sigmoid()
        } else {
            u_pre.tanh()
        };
        let iu = i.mul(u);
        let c = match incoming {
            None => iu,
            Some(inc) => {
                let ChildSumEdges::Segments(offsets) = &inc.edges else {
                    panic!("the composed chain reads one row per edge");
                };
                let edge_parent: Vec<usize> = offsets
                    .windows(2)
                    .enumerate()
                    .flat_map(|(r, p)| std::iter::repeat_n(r, p[1] - p[0]))
                    .collect();
                let fx = wxb.slice_cols(3 * HD, HD).index_rows(edge_parent);
                let f = fx.add(inc.ufh).sigmoid();
                tape.segment_sum_init(iu, f.mul(inc.ck), Arc::clone(offsets))
            }
        };
        (o.mul(c.tanh()), c)
    }

    /// No incoming state; a level mixing nodes with no, one and several
    /// edges; one edge per node.
    const CELL_LEVELS: [&[usize]; 3] = [&[0, 0, 0, 0], &[0, 2, 2, 5, 6], &[0, 1, 2]];

    fn tensor_bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn child_sum_cell_matches_the_composed_chain_to_the_bit() {
        let bits = |v: Var<'_>| tensor_bits(&v.value());
        for offsets in CELL_LEVELS {
            let leaves = cell_leaves(offsets, HD);
            for sigmoid_candidate in [false, true] {
                let what = format!("offsets {offsets:?}, σ candidate {sigmoid_candidate}");
                let oracle = Tape::new();
                let vars = leaves.on(&oracle);
                let incoming = incoming_of(&vars, &leaves.offsets);
                let (h, c) = composed_cell(
                    &oracle,
                    vars[0],
                    vars[1],
                    incoming.as_ref(),
                    sigmoid_candidate,
                );
                for tape in [Tape::new(), Tape::inference()] {
                    let vars = leaves.on(&tape);
                    let incoming = incoming_of(&vars, &leaves.offsets);
                    let (fh, fc) =
                        tape.child_sum_cell(vars[0], vars[1], incoming, sigmoid_candidate);
                    assert_eq!(bits(fh), bits(h), "h, {what}");
                    assert_eq!(bits(fc), bits(c), "c, {what}");
                }
            }
        }
    }

    #[test]
    fn child_sum_cell_backward_matches_the_composed_chain() {
        // Losses reading both outputs, only `h` and only `c` (whose
        // visit then runs the backward), with `c` weighted apart from `h`.
        type Loss = for<'t> fn(Var<'t>, Var<'t>, Var<'t>) -> Var<'t>;
        let losses: [(&str, Loss); 3] = [
            ("h and c", |h, c, w| h.mul(w).sum().add(c.tanh().sum())),
            ("h only", |h, _, w| h.mul(w).sum()),
            ("c only", |_, c, w| c.mul(w).sum()),
        ];
        for offsets in CELL_LEVELS {
            let leaves = cell_leaves(offsets, HD);
            let weight =
                Tensor::from_vec(spread((offsets.len() - 1) * HD, 6), [offsets.len() - 1, HD]);
            for sigmoid_candidate in [false, true] {
                for (name, loss) in losses {
                    let what =
                        format!("{name}, offsets {offsets:?}, σ candidate {sigmoid_candidate}");
                    let grads = |fused: bool| -> Vec<Tensor> {
                        let tape = Tape::new();
                        let vars = leaves.on(&tape);
                        let incoming = incoming_of(&vars, &leaves.offsets);
                        let (h, c) = if fused {
                            tape.child_sum_cell(vars[0], vars[1], incoming, sigmoid_candidate)
                        } else {
                            composed_cell(
                                &tape,
                                vars[0],
                                vars[1],
                                incoming.as_ref(),
                                sigmoid_candidate,
                            )
                        };
                        let g = tape.backward(loss(h, c, tape.leaf(weight.clone())));
                        vars.iter().map(|&v| g.get_or_zeros(v)).collect()
                    };
                    let (fused, composed) = (grads(true), grads(false));
                    for (k, (f, c)) in fused.iter().zip(&composed).enumerate() {
                        let diff = f.max_abs_diff(c);
                        assert!(diff <= 1e-6, "operand {k}, {what}: off by {diff:e}");
                    }
                    // `d b` is exactly the column sums `add_row_broadcast`'s
                    // backward forms from the cell's own `d wx`.
                    let tape = Tape::new();
                    let bias = tape.leaf(leaves.b.clone());
                    let rows = tape.zeros(leaves.wx.shape()).add_row_broadcast(bias);
                    let g = tape.backward(rows.mul(tape.leaf(fused[0].clone())).sum());
                    assert_eq!(
                        tensor_bits(&fused[1]),
                        tensor_bits(&g.get(bias)),
                        "db, {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn child_sum_cell_passes_grad_check_with_and_without_edges() {
        for offsets in [&[0usize, 0, 0][..], &[0, 2, 2, 3]] {
            // Narrow, so the loss stays small enough for f32 finite
            // differences to resolve every coordinate's gradient.
            let hd = 3;
            let leaves = cell_leaves(offsets, hd);
            let w = offsets.len() - 1;
            // Every operand is perturbed, the bias included.
            let inputs: Vec<Tensor> = [&leaves.wx, &leaves.b]
                .into_iter()
                .chain(leaves.incoming.iter().flatten())
                .cloned()
                .collect();
            let weight = Tensor::from_vec(spread(w * hd, 7), [w, hd]);
            let report = crate::grad_check(&inputs, 1e-2, |tape, vars| {
                let incoming = incoming_of(vars, &leaves.offsets);
                let (h, c) = tape.child_sum_cell(vars[0], vars[1], incoming, false);
                let w = tape.leaf(weight.clone());
                crate::TapeScalar(h.mul(w).sum().add(c.tanh().sum()))
            });
            assert!(
                report.passes(1e-2),
                "child_sum_cell gradient check failed at {offsets:?}: {report:?}"
            );
        }
    }

    #[test]
    fn child_sum_cell_reads_shared_rows_in_place_to_the_bit() {
        // Five nodes over three shared source rows, as siblings read a
        // parent: a run of three, then one row each, out of order. The
        // oracle is the same level with every row copied out per node.
        let rows = Arc::new(vec![1usize, 1, 1, 0, 2]);
        let (w, shared) = (rows.len(), 3);
        let leaves = cell_leaves(&[0, 0, 0, 0, 0, 0], HD);
        let sources = [
            Tensor::from_vec(spread(shared * 3 * HD, 2), [shared, 3 * HD]),
            Tensor::from_vec(spread(shared * HD, 3), [shared, HD]),
            Tensor::from_vec(spread(shared * HD, 4), [shared, HD]),
        ];
        let weight = Tensor::from_vec(spread(w * HD, 6), [w, HD]);
        let per_node = Arc::new((0..=w).collect::<Vec<usize>>());
        // `(h, c)` and, on a recording tape, the gradients of `wx`, `b`
        // and the three sources.
        let run = |tape: &Tape, copied: bool, sigmoid_candidate: bool| {
            let (wx, b) = (tape.leaf(leaves.wx.clone()), tape.leaf(leaves.b.clone()));
            let src = sources.clone().map(|t| tape.leaf(t));
            let (read, edges) = if copied {
                let read = src.map(|v| v.index_rows(Arc::clone(&rows)));
                (read, ChildSumEdges::Segments(Arc::clone(&per_node)))
            } else {
                (src, ChildSumEdges::Rows(Arc::clone(&rows)))
            };
            let incoming = ChildSumIncoming {
                uh: read[0],
                ufh: read[1],
                ck: read[2],
                edges,
            };
            let (h, c) = tape.child_sum_cell(wx, b, Some(incoming), sigmoid_candidate);
            let grads = (!tape.inference).then(|| {
                let loss = h.mul(tape.leaf(weight.clone())).sum().add(c.tanh().sum());
                let g = tape.backward(loss);
                [wx, b, src[0], src[1], src[2]].map(|v| g.get_or_zeros(v))
            });
            ([h.value(), c.value()], grads)
        };
        for sigmoid_candidate in [false, true] {
            let what = format!("σ candidate {sigmoid_candidate}");
            let (copied, copied_grads) = run(&Tape::new(), true, sigmoid_candidate);
            for tape in [Tape::new(), Tape::inference()] {
                let (read, grads) = run(&tape, false, sigmoid_candidate);
                for (name, (r, c)) in ["h", "c"].iter().zip(read.iter().zip(&copied)) {
                    assert_eq!(tensor_bits(r), tensor_bits(c), "{name}, {what}");
                }
                let (Some(grads), Some(oracle)) = (grads, &copied_grads) else {
                    continue;
                };
                for (k, (r, c)) in grads.iter().zip(oracle).enumerate() {
                    let diff = r.max_abs_diff(c);
                    assert!(diff <= 1e-6, "operand {k}, {what}: off by {diff:e}");
                }
            }
        }
    }

    #[test]
    fn segment_sum_init_passes_grad_check() {
        // Uneven segments folded onto their init rows, one of them empty.
        let m = Tensor::from_vec(spread(8, 1).iter().map(|x| x / 2.0).collect(), [4, 2]);
        let init = Tensor::from_vec(spread(6, 2).iter().map(|x| x / 2.0).collect(), [3, 2]);
        let report = crate::grad_check(&[m, init], 1e-2, |tape, vars| {
            let folded = tape.segment_sum_init(vars[1], vars[0], vec![0usize, 3, 3, 4]);
            crate::TapeScalar(folded.sigmoid().sum())
        });
        assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    #[should_panic(expected = "backward root must be scalar")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let _ = tape.backward(a);
    }
}
