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
//!   the [pool](crate::pool) while the encode is still running; the
//!   level-fused encoders call it after every layer. Serving uses this
//!   mode.
//!
//! Both modes produce bit-identical values. On a recording tape
//! `release_since` does nothing.
//!
//! Either kind memoises the transposed right operand of
//! [`Var::matmul_nt`], and the transposed row blocks of `U` a
//! [`Tape::child_sum_pass`] multiplies by, keyed by the identity of the
//! operand's buffer. An entry outlives [`Tape::reset`] for as long as its
//! source buffer is alive somewhere, so a long-lived tape transposes each
//! weight of a model once, not once per batch.
//!
//! # One op per tree-LSTM pass
//!
//! [`Tape::child_sum_pass`] runs a whole level-scheduled pass of
//! child-sum cells, every level's products and gate algebra, as one node
//! with its own backward. Its products' operands and outputs live in
//! scratch it reuses from level to level, never on the tape; it reads
//! shared rows in place and writes `h` in node order, so no row is copied
//! to feed the next level or the next layer. A recording tape keeps what
//! the backward reads — gates, forget gates, `tanh c` and `c` — and
//! nothing else; an inference tape keeps only `h`.

use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Weak};

use crate::tensor::PoolBuf;
use crate::{Shape, Tensor};

/// A row-normalised sparse adjacency operator for graph convolutions.
///
/// Holds `Â = D^{-1/2} (A + I) D^{-1/2}` for an undirected graph in a
/// row-list sparse format, together with its transpose (needed by the
/// backward pass of [`Tape::spmm`]).
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
    /// A whole [`Tape::child_sum_pass`].
    ChildSumPass(Box<PassRecord>),
}

/// What [`Tape::child_sum_pass`] hands its backward: the operand ids,
/// the schedule, and the activations the forward computed anyway.
struct PassRecord {
    /// The input: the per-kind projection, or the rows that `w` meets.
    x: usize,
    w: Option<usize>,
    b: usize,
    u: usize,
    schedule: PassSchedule,
    sigmoid_candidate: bool,
    /// `[N, 3h]`: `σ(pre_i) | σ(pre_o) | u`, in processing order.
    gates: Tensor,
    /// `[N, h]`: `tanh(c)`, in processing order.
    tanh_c: Tensor,
    /// `[E, h]`: the forget gates, in processing order.
    forget: Tensor,
    /// `[N, h]`: `c`, in node order.
    c: Tensor,
}

impl PassRecord {
    /// The gradients of the input (and `w`), `b` and `u`, from `dout`,
    /// the one reaching the output `h`.
    ///
    /// Levels run in reverse, so a node's `dh` and `dc` are whole when
    /// its level runs. Per node: `dc += dh·o·(1 − t²)`;
    /// `d pre_o = dh·t·o·(1 − o)`, `d pre_i = dc·u·i·(1 − i)`,
    /// `d pre_u = dc·i·u'`; per member `k`, in order,
    /// `d ufh_k += dc·c_k·f_k·(1 − f_k)`, added into the `f` block of
    /// `d wx` too, and `dc_k += dc·f_k`; `d uh` of the node's group adds
    /// `d wx[:3h]`. Per level: `d b` adds the column sums of `d wx` from
    /// zero, `dU_f` adds `d ufhᵀ·h_k` and `dU_iou` adds `d uhᵀ·h̃`, and
    /// each member's `dh` adds `d ufh·U_f + d uh·U_iou` of its group.
    /// `d x` rows are `d wx·W` (`dW` adding `d wxᵀ·x`), or `d wx` rows
    /// added into their kinds' rows. Those are the sums, in that order,
    /// that the per-level tape ops the pass replaces formed.
    fn backward(&self, dout: &Tensor, h: &Tensor, nodes: &[Node]) -> Vec<(usize, Tensor)> {
        let s = &self.schedule;
        let dims = s.dims();
        let n = s.order.len();
        let uv = nodes[self.u].value();
        let (u, hd) = (uv.as_slice(), uv.shape().cols());
        let (h3, h4) = (3 * hd, 4 * hd);
        let xv = nodes[self.x].value();
        let xd = xv.shape().cols();
        let wv = self.w.map(|w| nodes[w].value());
        let kern = crate::kernels::active();
        let accum = kern.seg_accum;
        let (take, zeroed) = (crate::pool::take_for_overwrite, crate::pool::take_zeroed);
        let (gates, tanh_c) = (self.gates.as_slice(), self.tanh_c.as_slice());
        let (forget, c, hv) = (self.forget.as_slice(), self.c.as_slice(), h.as_slice());
        // The pass's own state gradients, in node order.
        let mut dh = crate::pool::take_copy(dout.as_slice());
        let mut dc = zeroed(n * hd);
        let (mut db, mut du) = (zeroed(h4), zeroed(h4 * hd));
        // Rows: each node writes its own `dx` row. Kinds: nodes of one
        // kind add into its row.
        let mut dx = if wv.is_some() {
            take(n * xd)
        } else {
            zeroed(xv.len())
        };
        let mut dw = wv.as_ref().map(|_| zeroed(h4 * xd));
        let (mut dwx, mut duh) = (take(dims.nodes * h4), take(dims.groups * h3));
        let [mut dsum, mut sums] = [(); 2].map(|_| take(dims.groups * hd));
        let [mut dufh, mut dhk, mut hk] = [(); 3].map(|_| take(dims.members * hd));
        let rows_d = if wv.is_some() { xd } else { 0 };
        let [mut xl, mut dxl] = [(); 2].map(|_| take(dims.nodes * rows_d));
        let mut tmp = take((h3 * hd).max(h4 * rows_d));
        let (mut db_level, mut dcrow) = (take(h4), take(hd));
        let mut e_end = dims.edges;
        for l in (0..s.levels.len() - 1).rev() {
            let (level, groups, members) = s.level(l);
            let (width, gn, mn) = (level.len(), groups.len(), members.len());
            let mut e = e_end - s.edges(level.clone());
            e_end = e;
            duh[..gn * h3].fill(0.0);
            dufh[..mn * hd].fill(0.0);
            for (r, &node) in s.order[level.clone()].iter().enumerate() {
                let i = level.start + r;
                let (c0, cw) = (
                    r / CELL_ROWS * CELL_ROWS,
                    CELL_ROWS.min(width - r / CELL_ROWS * CELL_ROWS),
                );
                let gate =
                    |k: usize| &gates[(level.start + c0) * h3 + (k * cw + r - c0) * hd..][..hd];
                let (ig, og, ug) = (gate(0), gate(1), gate(2));
                let t = &tanh_c[i * hd..][..hd];
                let dxr = &mut dwx[r * h4..][..h4];
                let (d_i, rest) = dxr.split_at_mut(hd);
                let (d_o, rest) = rest.split_at_mut(hd);
                let (d_u, d_f) = rest.split_at_mut(hd);
                dcrow.copy_from_slice(&dc[node * hd..][..hd]);
                let dhr = &dh[node * hd..][..hd];
                for ((((dcv, dov), &dhv), &ov), &tv) in
                    dcrow.iter_mut().zip(d_o).zip(dhr).zip(og).zip(t)
                {
                    *dcv += dhv * ov * (1.0 - tv * tv);
                    *dov = dhv * tv * ov * (1.0 - ov);
                }
                for (((div, &dcv), &iv), &uv) in d_i.iter_mut().zip(&dcrow).zip(ig).zip(ug) {
                    *div = dcv * uv * iv * (1.0 - iv);
                }
                let d_u = d_u.iter_mut().zip(&dcrow).zip(ig).zip(ug);
                if self.sigmoid_candidate {
                    for (((duv, &dcv), &iv), &uv) in d_u {
                        *duv = dcv * iv * uv * (1.0 - uv);
                    }
                } else {
                    for (((duv, &dcv), &iv), &uv) in d_u {
                        *duv = dcv * iv * (1.0 - uv * uv);
                    }
                }
                d_f.fill(0.0);
                let group = s.group[i];
                if group == PassSchedule::NONE {
                    continue;
                }
                for m in s.groups[group]..s.groups[group + 1] {
                    let member = s.members[m];
                    let (f, ck) = (&forget[e * hd..][..hd], &c[member * hd..][..hd]);
                    let dufh_m = &mut dufh[(m - members.start) * hd..][..hd];
                    let dc_m = &mut dc[member * hd..][..hd];
                    let rows = d_f.iter_mut().zip(dufh_m).zip(dc_m).zip(&dcrow);
                    for ((((dfx, dfh), dce), &dcv), (&fv, &kv)) in rows.zip(f.iter().zip(ck)) {
                        let d_pre = dcv * kv * fv * (1.0 - fv);
                        *dfh += d_pre;
                        *dfx += d_pre;
                        *dce += dcv * fv;
                    }
                    e += 1;
                }
                let duh_g = &mut duh[(group - groups.start) * h3..][..h3];
                accum(duh_g, &dwx[r * h4..][..h3]);
            }
            db_level.fill(0.0);
            for row in dwx[..width * h4].chunks_exact(h4) {
                accum(&mut db_level, row);
            }
            accum(&mut db, &db_level);
            if gn > 0 {
                let (u_iou, u_f) = u.split_at(h3 * hd);
                s.child_sums(hv, hd, l, &mut hk, &mut sums);
                (kern.matmul)(&dufh, u_f, &mut dhk, mn, hd, hd);
                (kern.matmul_tn)(&dufh, &hk, &mut tmp, hd, mn, hd);
                accum(&mut du[h3 * hd..], &tmp[..hd * hd]);
                (kern.matmul)(&duh, u_iou, &mut dsum, gn, h3, hd);
                (kern.matmul_tn)(&duh, &sums, &mut tmp, h3, gn, hd);
                accum(&mut du[..h3 * hd], &tmp[..h3 * hd]);
                for g in groups.clone() {
                    let dsum_g = &dsum[(g - groups.start) * hd..][..hd];
                    for m in s.groups[g]..s.groups[g + 1] {
                        let dk = &mut dhk[(m - members.start) * hd..][..hd];
                        accum(dk, dsum_g);
                        accum(&mut dh[s.members[m] * hd..][..hd], dk);
                    }
                }
            }
            let level_nodes = &s.order[level];
            match (&wv, &mut dw) {
                (Some(wv), Some(dw)) => {
                    gather_rows(xv.as_slice(), xd, level_nodes, &mut xl);
                    (kern.matmul)(&dwx, wv.as_slice(), &mut dxl, width, h4, xd);
                    for (r, &node) in level_nodes.iter().enumerate() {
                        dx[node * xd..][..xd].copy_from_slice(&dxl[r * xd..][..xd]);
                    }
                    (kern.matmul_tn)(&dwx, &xl, &mut tmp, h4, width, xd);
                    accum(dw, &tmp[..h4 * xd]);
                }
                _ => {
                    for (r, &node) in level_nodes.iter().enumerate() {
                        let kind = s.kinds[node] as usize;
                        accum(&mut dx[kind * h4..][..h4], &dwx[r * h4..][..h4]);
                    }
                }
            }
        }
        for buf in [
            dh, dc, dwx, duh, dsum, sums, dufh, dhk, hk, xl, dxl, tmp, db_level, dcrow,
        ] {
            crate::pool::put(buf);
        }
        let mut grads = vec![
            (self.x, Tensor::from_vec(dx, xv.shape())),
            (self.b, Tensor::from_vec(db, [h4])),
            (self.u, Tensor::from_vec(du, [h4, hd])),
        ];
        if let (Some(w), Some(dw)) = (self.w, dw) {
            grads.push((w, Tensor::from_vec(dw, [h4, xd])));
        }
        grads
    }
}

/// The nodes of a level that one [`Tape::child_sum_pass`] runs through
/// its cells at a time: enough that each activation runs over thousands
/// of values at once, few enough that the run stays in cache.
const CELL_ROWS: usize = 32;

/// What a [`Tape::child_sum_pass`] node reads as its `W·x`.
#[derive(Clone, Copy, Debug)]
pub enum PassInput<'t> {
    /// `[K, 4h]` projections made once per node kind: node `n` reads row
    /// `kinds[n]` of the schedule, in place.
    Kinds(Var<'t>),
    /// `[N, d]` rows, one per node, and the `[4h, d]` `W` the op
    /// multiplies each level's rows by.
    Rows(Var<'t>, Var<'t>),
}

/// The order one [`Tape::child_sum_pass`] visits its nodes, and the state
/// each node aggregates.
///
/// Node ids index rows of the pass's `[N, h]` output. Levels run in
/// order, and a node may aggregate only nodes of earlier levels. What a
/// node aggregates is a *group*: the `(h, c)` rows of its members. Going
/// up, a node's group is its children; going down, the children of one
/// parent share the group holding that parent, so `h̃·U` runs once per
/// parent and each child reads the parent's rows in place.
#[derive(Clone, Debug, Default)]
pub struct PassSchedule {
    /// Each node's kind: the row of a [`PassInput::Kinds`] projection it
    /// reads.
    pub kinds: Vec<u16>,
    /// Node ids in processing order, level after level.
    pub order: Vec<usize>,
    /// `L + 1` ascending cut points into `order` from 0; no level is
    /// empty.
    pub levels: Vec<usize>,
    /// For each entry of `order`, its group, or [`PassSchedule::NONE`].
    /// A level's nodes all aggregate or none does (the leaves going up,
    /// the roots going down), and a level's groups follow on from the
    /// last level's, consecutive and in node order.
    pub group: Vec<usize>,
    /// `G + 1` ascending cut points into `members` from 0.
    pub groups: Vec<usize>,
    /// The node ids the groups aggregate, group after group.
    pub members: Vec<usize>,
}

/// What the buffers of a [`PassSchedule`]'s pass must hold.
#[derive(Default)]
struct PassDims {
    /// Forget gates over the pass: one per member of each node's group.
    edges: usize,
    /// The most nodes, forget gates, groups and members any one level
    /// has.
    nodes: usize,
    level_edges: usize,
    groups: usize,
    members: usize,
    /// The groups counted so far.
    next: usize,
}

impl PassSchedule {
    /// The group of a node that aggregates nothing.
    pub const NONE: usize = usize::MAX;

    /// Level `l`'s window of `order`, its groups, and their window of
    /// `members`.
    fn level(&self, l: usize) -> (Range<usize>, Range<usize>, Range<usize>) {
        let nodes = self.levels[l]..self.levels[l + 1];
        let groups = match self.group[nodes.start] {
            PassSchedule::NONE => 0..0,
            first => first..self.group[nodes.end - 1] + 1,
        };
        let members = self.groups[groups.start]..self.groups[groups.end];
        (nodes, groups, members)
    }

    /// The forget gates of the nodes at `nodes` of `order`.
    fn edges(&self, nodes: Range<usize>) -> usize {
        let sizes = self.group[nodes]
            .iter()
            .filter(|&&g| g != PassSchedule::NONE);
        sizes.map(|&g| self.groups[g + 1] - self.groups[g]).sum()
    }

    /// Level `l`'s members' rows of `h`, `d` wide, copied to the front of
    /// `hk`, and its groups' child sums `h̃` to the front of `sums`: each
    /// adds its members' rows in order from zero, as
    /// [`Tape::segment_sum`] does.
    fn child_sums(&self, h: &[f32], d: usize, l: usize, hk: &mut [f32], sums: &mut [f32]) {
        let (_, groups, members) = self.level(l);
        gather_rows(h, d, &self.members[members.clone()], hk);
        let accum = crate::kernels::active().seg_accum;
        let cuts = self.groups[groups.start..=groups.end].windows(2);
        for (sum, cut) in sums.chunks_exact_mut(d).zip(cuts) {
            sum.fill(0.0);
            for r in cut[0] - members.start..cut[1] - members.start {
                accum(sum, &hk[r * d..][..d]);
            }
        }
    }

    /// Checks the schedule's shape and measures it. In a debug build it
    /// also checks that every node runs once, after what it aggregates.
    ///
    /// # Panics
    ///
    /// Panics if the schedule breaks a rule of [`PassSchedule`].
    fn dims(&self) -> PassDims {
        let n = self.order.len();
        let cuts = |c: &[usize], end: usize, strict: bool| {
            c.first() == Some(&0)
                && c.last() == Some(&end)
                && c.windows(2).all(|p| p[0] < p[1] || !strict && p[0] == p[1])
        };
        assert!(
            cuts(&self.levels, n, true) && self.group.len() == n,
            "child_sum_pass levels must cut {n} nodes into non-empty levels"
        );
        assert!(
            cuts(&self.groups, self.members.len(), false),
            "child_sum_pass groups must cut the members"
        );
        let mut dims = PassDims::default();
        let mut done = vec![false; if cfg!(debug_assertions) { n } else { 0 }];
        for l in 0..self.levels.len() - 1 {
            let (nodes, groups, members) = self.level(l);
            let gs = &self.group[nodes.clone()];
            assert!(
                if groups.is_empty() {
                    gs.iter().all(|&g| g == PassSchedule::NONE)
                } else {
                    gs[0] == dims.next && gs.windows(2).all(|p| p[0] <= p[1] && p[1] <= p[0] + 1)
                },
                "child_sum_pass level {l} must aggregate consecutive groups from {}, or none",
                dims.next
            );
            if cfg!(debug_assertions) {
                let ready = self.members[members.clone()].iter().all(|&m| done[m]);
                assert!(
                    ready,
                    "child_sum_pass level {l} aggregates a node not yet run"
                );
                for &node in &self.order[nodes.clone()] {
                    let twice = std::mem::replace(&mut done[node], true);
                    assert!(!twice, "child_sum_pass runs node {node} twice");
                }
            }
            dims.next = dims.next.max(groups.end);
            let edges = self.edges(nodes.clone());
            dims.edges += edges;
            dims.level_edges = dims.level_edges.max(edges);
            dims.nodes = dims.nodes.max(nodes.len());
            dims.groups = dims.groups.max(groups.len());
            dims.members = dims.members.max(members.len());
        }
        dims
    }
}

/// Copies the rows `rows` of `src`, `d` wide, to the front of `dst`.
fn gather_rows(src: &[f32], d: usize, rows: &[usize], dst: &mut [f32]) {
    for (to, &r) in dst.chunks_exact_mut(d).zip(rows) {
        to.copy_from_slice(&src[r * d..][..d]);
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
/// buffer between shapes, and the rows because a pass multiplies by
/// row blocks of `U` (see [`Tape::child_sum_pass`]).
struct Transposed {
    source: Weak<PoolBuf>,
    shape: Shape,
    rows: Range<usize>,
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

    /// The transpose of node `id`'s value, or of its rows `block`, made
    /// on first request and shared by every later request for the same
    /// buffer, shape and rows.
    fn transposed_of(&self, id: usize, block: Option<Range<usize>>) -> Tensor {
        let source = self.value_of(id);
        if source.shape().rank() < 2 {
            // Such a "transpose" is a view of the source's own buffer: a
            // memo entry would keep its source alive for ever.
            return source.t();
        }
        let (all, cols) = (source.shape().rows(), source.shape().cols());
        let rows = block.unwrap_or(0..all);
        let mut memo = self.transposed.borrow_mut();
        if let Some(t) = memo
            .iter()
            .find(|t| t.shape == source.shape() && t.rows == rows && source.owns_buffer(&t.source))
        {
            return t.value.clone();
        }
        let value = if rows.len() == all {
            source.t()
        } else {
            let part =
                crate::pool::take_copy(&source.as_slice()[rows.start * cols..rows.end * cols]);
            Tensor::from_vec(part, [rows.len(), cols]).t()
        };
        memo.push(Transposed {
            source: source.buffer_handle(),
            shape: source.shape(),
            rows,
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
    /// No encoder calls it: [`Tape::child_sum_pass`] reads rows in
    /// place.
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
    /// [`Tape::child_sum_pass`]'s.
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

    /// One pass of child-sum tree-LSTM cells (Eq. (4) of the paper) over
    /// a forest, level by level, as one op with output `h`, `[N, h]` in
    /// node order.
    ///
    /// `input` gives each node's `W·x`, `b` is the `[4h]` gate bias and
    /// `u` the `[4h, h]` hidden projection, gate blocks `i | o | u | f`.
    /// A level multiplies its groups' child sums `h̃` by `U`'s i/o/u
    /// block and its members' `h_k` by the forget block, then runs each
    /// node, per element in this order:
    ///
    /// ```text
    /// pre  = (wx[:3h] + b[:3h]) + uh_group   (+ 0.0 without a group)
    /// i, o = σ(pre_i), σ(pre_o);  u = tanh(pre_u), or σ(pre_u) when `sigmoid_candidate`
    /// c    = i·u
    /// c    = c + σ((wx_f + b_f) + ufh_k)·c_k  for each member k, in order
    /// h    = o·tanh(c)
    /// ```
    ///
    /// with `h̃ = 0.0 + Σ h_k` added in member order. That is the IEEE
    /// sequence of the level composed from tape ops (`index_rows`,
    /// `segment_sum`, `matmul_nt`, `add_row_broadcast`, `slice_cols`,
    /// `sigmoid`, `tanh`, `mul`), so the values are theirs to the bit: a
    /// row of a product has the same bits whichever rows share it.
    ///
    /// The products' operands and outputs live in scratch the pass
    /// reuses from level to level; `W·x` rows of a [`PassInput::Kinds`]
    /// projection, `c_k` and shared rows are read in place. A recording
    /// tape keeps the gates, forget gates, `tanh c` and `c` for the
    /// backward; an inference tape keeps only `h`.
    ///
    /// # Panics
    ///
    /// Panics unless `u` is `[4h, h]` and `b` `[4h]`, a
    /// [`PassInput::Kinds`] projection is `[K, 4h]`, and
    /// [`PassInput::Rows`] are `[N, d]` with `W` `[4h, d]`; or if
    /// `schedule` breaks a rule of [`PassSchedule`].
    pub fn child_sum_pass<'t>(
        &'t self,
        input: PassInput<'t>,
        b: Var<'t>,
        u: Var<'t>,
        schedule: &PassSchedule,
        sigmoid_candidate: bool,
    ) -> Var<'t> {
        let s = schedule;
        let dims = s.dims();
        let n = s.order.len();
        let uv = self.value_of(u.id);
        let hd = uv.shape().cols();
        let (h3, h4) = (3 * hd, 4 * hd);
        assert!(
            hd > 0 && uv.shape().dims() == [h4, hd],
            "child_sum_pass u must be [4h, h], got {}",
            uv.shape()
        );
        let bv = self.value_of(b.id);
        assert_eq!(
            bv.shape().dims(),
            &[h4],
            "child_sum_pass b must be [{h4}], got {}",
            bv.shape()
        );
        let (xv, wt) = match input {
            PassInput::Kinds(p) => (self.value_of(p.id), None),
            PassInput::Rows(x, w) => {
                let (xs, ws) = (self.value_of(x.id).shape(), self.value_of(w.id).shape());
                assert!(
                    xs.rank() == 2 && xs.rows() == n && ws.dims() == [h4, xs.cols()],
                    "child_sum_pass needs [{n}, d] rows and a [{h4}, d] w, got {xs} and {ws}"
                );
                (self.value_of(x.id), Some(self.transposed_of(w.id, None)))
            }
        };
        let xd = xv.shape().cols();
        assert!(
            xv.shape().rank() == 2 && (wt.is_some() || xd == h4),
            "child_sum_pass projections must be [K, {h4}], got {}",
            xv.shape()
        );
        let u_t = [0..h3, h3..h4].map(|rows| self.transposed_of(u.id, Some(rows)));
        let kern = crate::kernels::active();
        let candidate = if sigmoid_candidate {
            kern.sigmoid
        } else {
            kern.tanh
        };
        // A level's gates, `tanh c` and forget gates are each one run, so
        // each activation runs once per level. A recording tape keeps the
        // runs for the backward, level after level, with the gates in
        // `i | o | u` blocks; an inference tape reuses one level's room.
        let record = !self.inference;
        let at = |row: usize| if record { row } else { 0 };
        let rows = |all: usize, level: usize| if record { all } else { level };
        let take = crate::pool::take_for_overwrite;
        let (mut h, mut c) = (take(n * hd), take(n * hd));
        let cells = dims.nodes.min(CELL_ROWS);
        let mut gates = take(rows(n, cells) * h3);
        let mut tanh_c = take(rows(n, cells) * hd);
        let mut forget = take(rows(dims.edges, dims.level_edges) * hd);
        let (mut pre, mut cl) = (take(cells * h3), take(cells * hd));
        let mut f_pre = take(dims.level_edges * hd);
        let (mut sums, mut uh) = (take(dims.groups * hd), take(dims.groups * h3));
        let (mut hk, mut ufh) = (take(dims.members * hd), take(dims.members * hd));
        let (mut xl, mut wx) = match wt {
            Some(_) => (take(dims.nodes * xd), take(dims.nodes * h4)),
            None => (Vec::new(), Vec::new()),
        };
        let (b_iou, b_f) = bv.as_slice().split_at(h3);
        let mut e0 = 0;
        for l in 0..s.levels.len() - 1 {
            let (level, groups, members) = s.level(l);
            let (w, gn, mn) = (level.len(), groups.len(), members.len());
            let (nodes, group) = (&s.order[level.clone()], &s.group[level.clone()]);
            if gn > 0 {
                s.child_sums(&h, hd, l, &mut hk, &mut sums);
                (kern.matmul)(&sums, u_t[0].as_slice(), &mut uh, gn, hd, h3);
                (kern.matmul)(&hk, u_t[1].as_slice(), &mut ufh, mn, hd, hd);
            }
            if let Some(wt) = &wt {
                gather_rows(xv.as_slice(), xd, nodes, &mut xl);
                (kern.matmul)(&xl, wt.as_slice(), &mut wx, w, xd, h4);
            }
            let x_of = |r: usize| match &wt {
                Some(_) => &wx[r * h4..][..h4],
                None => &xv.as_slice()[s.kinds[nodes[r]] as usize * h4..][..h4],
            };
            for c0 in (0..w).step_by(CELL_ROWS) {
                let cw = CELL_ROWS.min(w - c0);
                let (i0, nodes, group) =
                    (level.start + c0, &nodes[c0..c0 + cw], &group[c0..c0 + cw]);
                for (r, &g) in group.iter().enumerate() {
                    for k in 0..3 {
                        let p = &mut pre[(k * cw + r) * hd..][..hd];
                        let x = &x_of(c0 + r)[k * hd..];
                        let biased = p.iter_mut().zip(x.iter().zip(&b_iou[k * hd..]));
                        if g == PassSchedule::NONE {
                            // The `+ 0.0` of a zero `h̃·U` product: it
                            // turns a `-0.0` pre-activation into `+0.0`,
                            // as that product did.
                            for (p, (&a, &bias)) in biased {
                                *p = (a + bias) + 0.0;
                            }
                        } else {
                            let uh = &uh[(g - groups.start) * h3 + k * hd..];
                            for ((p, (&a, &bias)), &v) in biased.zip(uh) {
                                *p = (a + bias) + v;
                            }
                        }
                    }
                }
                let (io, gu) = gates[at(i0) * h3..][..cw * h3].split_at_mut(2 * cw * hd);
                (kern.sigmoid)(&pre[..2 * cw * hd], io);
                candidate(&pre[2 * cw * hd..cw * h3], gu);
                let (gi, go) = io.split_at(cw * hd);
                for ((cv, &iv), &uv) in cl.iter_mut().zip(gi).zip(&*gu) {
                    *cv = iv * uv;
                }
                if gn > 0 {
                    // `(wx_f + b_f) + ufh_k` for each member, in order,
                    // then the fold of `σ(·)·c_k` into `c`.
                    let mut e = 0;
                    for (r, &g) in group.iter().enumerate() {
                        let pre_f = &mut pre[..hd];
                        let x_f = &x_of(c0 + r)[h3..];
                        for ((p, &a), &bias) in pre_f.iter_mut().zip(x_f).zip(b_f) {
                            *p = a + bias;
                        }
                        for m in s.groups[g] - members.start..s.groups[g + 1] - members.start {
                            let (fp, uf) = (&mut f_pre[e * hd..][..hd], &ufh[m * hd..][..hd]);
                            for ((p, &a), &v) in fp.iter_mut().zip(&*pre_f).zip(uf) {
                                *p = a + v;
                            }
                            e += 1;
                        }
                    }
                    let f = &mut forget[at(e0) * hd..][..e * hd];
                    (kern.sigmoid)(&f_pre[..e * hd], f);
                    let mut fs = f.chunks_exact(hd);
                    for (cv, &g) in cl.chunks_exact_mut(hd).zip(group) {
                        for &member in &s.members[s.groups[g]..s.groups[g + 1]] {
                            let f = fs.next().expect("a gate per member");
                            for ((cv, &fv), &kv) in cv.iter_mut().zip(f).zip(&c[member * hd..]) {
                                *cv += fv * kv;
                            }
                        }
                    }
                    e0 += e;
                }
                let t = &mut tanh_c[at(i0) * hd..][..cw * hd];
                (kern.tanh)(&cl[..cw * hd], t);
                for (r, &node) in nodes.iter().enumerate() {
                    let (row, hr) = (r * hd..(r + 1) * hd, &mut h[node * hd..][..hd]);
                    c[node * hd..][..hd].copy_from_slice(&cl[row.clone()]);
                    for ((hv, &ov), &tv) in hr.iter_mut().zip(&go[row.clone()]).zip(&t[row]) {
                        *hv = ov * tv;
                    }
                }
            }
        }
        for buf in [sums, uh, hk, ufh, xl, wx, pre, cl, f_pre] {
            crate::pool::put(buf);
        }
        let h = Tensor::from_vec(h, [n, hd]);
        if !record {
            for buf in [c, gates, tanh_c, forget] {
                crate::pool::put(buf);
            }
            return self.push_node(Op::Value, h);
        }
        let (x, w) = match input {
            PassInput::Kinds(p) => (p.id, None),
            PassInput::Rows(x, w) => (x.id, Some(w.id)),
        };
        let record = PassRecord {
            x,
            w,
            b: b.id,
            u: u.id,
            schedule: schedule.clone(),
            sigmoid_candidate,
            gates: Tensor::from_vec(gates, [n, h3]),
            tanh_c: Tensor::from_vec(tanh_c, [n, hd]),
            forget: Tensor::from_vec(forget, [dims.edges, hd]),
            c: Tensor::from_vec(c, [n, hd]),
        };
        self.push_node(Op::ChildSumPass(Box::new(record)), h)
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
                Op::ChildSumPass(pass) => {
                    for (id, d) in pass.backward(&g, node.value(), &nodes) {
                        accumulate(&mut grads, id, d, &nodes);
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
        let v = self
            .value()
            .matmul(&self.tape.transposed_of(other.id, None));
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

    fn tensor_bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Nodes in [`forest_schedule`]'s forest.
    const NODES: usize = 8;

    /// A pass over two trees, `0 → {1, 2 → {3, 4}, 5 → 6}` and the
    /// root-only `7`, node `v` of kind `v % 3`: by height going up (a
    /// node with three children, one with two, one with one), by depth
    /// going down (three siblings share their parent's group).
    fn forest_schedule(up: bool) -> PassSchedule {
        const N: usize = PassSchedule::NONE;
        let [order, levels, group, groups, members]: [&[usize]; 5] = if up {
            [
                &[1, 3, 4, 6, 7, 2, 5, 0],
                &[0, 5, 7, 8],
                &[N, N, N, N, N, 0, 1, 2],
                &[0, 2, 3, 6],
                &[3, 4, 6, 1, 2, 5],
            ]
        } else {
            [
                &[0, 7, 1, 2, 5, 3, 4, 6],
                &[0, 2, 5, 8],
                &[N, N, 0, 0, 0, 1, 1, 2],
                &[0, 1, 2, 3],
                &[0, 2, 5],
            ]
        };
        PassSchedule {
            kinds: (0..NODES as u16).map(|v| v % 3).collect(),
            order: order.to_vec(),
            levels: levels.to_vec(),
            group: group.to_vec(),
            groups: groups.to_vec(),
            members: members.to_vec(),
        }
    }

    /// A root `0` with `k` leaf children: with `k` past [`CELL_ROWS`], a
    /// level the cells run through in more than one run.
    fn fan_schedule(k: usize, up: bool) -> PassSchedule {
        const N: usize = PassSchedule::NONE;
        let kids: Vec<usize> = (1..=k).collect();
        let (order, levels, group, groups, members) = if up {
            let group = [vec![N; k], vec![0]].concat();
            (
                [kids.clone(), vec![0]].concat(),
                vec![0, k, k + 1],
                group,
                vec![0, k],
                kids,
            )
        } else {
            let group = [vec![N], vec![0; k]].concat();
            (
                [vec![0], kids].concat(),
                vec![0, 1, k + 1],
                group,
                vec![0, 1],
                vec![0],
            )
        };
        let kinds = (0..=k as u16).map(|v| v % 3).collect();
        PassSchedule {
            kinds,
            order,
            levels,
            group,
            groups,
            members,
        }
    }

    /// A pass's operands over `n` nodes, `hd` wide: the input (`[3, 4h]`
    /// per-kind projections, or `[n, 5]` rows), `b`, `U` and, for rows,
    /// `W`.
    fn pass_leaves(hd: usize, n: usize, rows: bool) -> Vec<Tensor> {
        let mut input = if rows {
            Tensor::from_vec(spread(n * 5, 1), [n, 5])
        } else {
            Tensor::from_vec(spread(3 * 4 * hd, 1), [3, 4 * hd])
        };
        let mut b = spread(4 * hd, 8);
        // A `-0.0` pre-activation on kind 0: `-0.0 + -0.0` keeps the
        // sign, and `+ 0.0` then turns it into `+0.0`, as the zero
        // product of the composed chain does.
        if !rows {
            input.make_mut()[3] = -0.0;
            b[3] = -0.0;
        }
        let quarter = |len, seed| spread(len, seed).iter().map(|v| v / 4.0).collect();
        let mut leaves = vec![
            input,
            Tensor::from_vec(b, [4 * hd]),
            Tensor::from_vec(quarter(4 * hd * hd, 2), [4 * hd, hd]),
        ];
        if rows {
            leaves.push(Tensor::from_vec(quarter(4 * hd * 5, 3), [4 * hd, 5]));
        }
        leaves
    }

    /// `vars` from [`pass_leaves`] as the pass's input.
    fn input_of<'t>(vars: &[Var<'t>]) -> PassInput<'t> {
        match vars {
            [x, _, _, w] => PassInput::Rows(*x, *w),
            _ => PassInput::Kinds(vars[0]),
        }
    }

    /// One level's cells as the tree-LSTM encoder composed them before
    /// the child-sum ops existed, op by op: the bias by
    /// `add_row_broadcast`, the forget fold by `segment_sum_init`, and
    /// the `zeros · U` hidden projection of a level without incoming
    /// state. `incoming` is one `uh` row per node, one `ufh` and `c_k`
    /// row per edge, and the nodes' edge cut points.
    fn composed_cell<'t>(
        tape: &'t Tape,
        wx: Var<'t>,
        b: Var<'t>,
        incoming: Option<[Var<'t>; 3]>,
        offsets: Vec<usize>,
        sigmoid_candidate: bool,
    ) -> (Var<'t>, Var<'t>) {
        let hd = b.value().len() / 4;
        let wxb = wx.add_row_broadcast(b);
        let w = wxb.value().shape().rows();
        let uh = match incoming {
            Some([uh, ..]) => uh,
            None => tape
                .zeros([w, hd])
                .matmul_nt(tape.leaf(Tensor::from_vec(spread(3 * hd * hd, 5), [3 * hd, hd]))),
        };
        let pre = wxb.slice_cols(0, 3 * hd).add(uh);
        let i = pre.slice_cols(0, hd).sigmoid();
        let o = pre.slice_cols(hd, hd).sigmoid();
        let u_pre = pre.slice_cols(2 * hd, hd);
        let u = if sigmoid_candidate {
            u_pre.sigmoid()
        } else {
            u_pre.tanh()
        };
        let iu = i.mul(u);
        let c = match incoming {
            None => iu,
            Some([_, ufh, ck]) => {
                let edge_node: Vec<usize> = offsets
                    .windows(2)
                    .enumerate()
                    .flat_map(|(r, p)| std::iter::repeat_n(r, p[1] - p[0]))
                    .collect();
                let fx = wxb.slice_cols(3 * hd, hd).index_rows(edge_node);
                let f = fx.add(ufh).sigmoid();
                tape.segment_sum_init(iu, f.mul(ck), offsets)
            }
        };
        (o.mul(c.tanh()), c)
    }

    /// The pass as the tree-LSTM encoder composed it before
    /// [`Tape::child_sum_pass`] existed: per level, its input rows, the
    /// members' rows gathered from the levels run so far, their sums by
    /// `segment_sum`, the `U` products by `matmul_nt` over gathered row
    /// blocks of `U`, every node's and edge's rows copied out of those,
    /// and [`composed_cell`]; the levels' `h` back in node order last.
    fn composed_pass<'t>(
        tape: &'t Tape,
        input: PassInput<'t>,
        b: Var<'t>,
        u: Var<'t>,
        s: &PassSchedule,
        sigmoid_candidate: bool,
    ) -> Var<'t> {
        let hd = u.value().shape().cols();
        let u_iou = u.index_rows((0..3 * hd).collect::<Vec<usize>>());
        let u_f = u.index_rows((3 * hd..4 * hd).collect::<Vec<usize>>());
        let mut proc_row = vec![0; s.order.len()];
        let (mut hs, mut cs) = (Vec::new(), Vec::new());
        for l in 0..s.levels.len() - 1 {
            let (nodes, groups, members) = s.level(l);
            let sel = &s.order[nodes.clone()];
            let wx = match input {
                PassInput::Kinds(p) => {
                    p.index_rows(sel.iter().map(|&v| s.kinds[v] as usize).collect::<Vec<_>>())
                }
                PassInput::Rows(x, w) => x.index_rows(sel.to_vec()).matmul_nt(w),
            };
            let mut offsets = vec![0];
            let incoming = (!groups.is_empty()).then(|| {
                let rows: Vec<usize> = s.members[members.clone()]
                    .iter()
                    .map(|&m| proc_row[m])
                    .collect();
                let hk = tape.stack_rows(&hs).index_rows(rows.clone());
                let ck = tape.stack_rows(&cs).index_rows(rows);
                let cuts = s.groups[groups.start..=groups.end].iter();
                let cuts: Vec<usize> = cuts.map(|&m| m - members.start).collect();
                let uh = tape.segment_sum(hk, cuts).matmul_nt(u_iou);
                let ufh = hk.matmul_nt(u_f);
                let mut edges = Vec::new();
                for &g in &s.group[nodes.clone()] {
                    edges.extend(s.groups[g] - members.start..s.groups[g + 1] - members.start);
                    offsets.push(edges.len());
                }
                let node_group = s.group[nodes.clone()].iter().map(|&g| g - groups.start);
                let uh = uh.index_rows(node_group.collect::<Vec<_>>());
                [uh, ufh.index_rows(edges.clone()), ck.index_rows(edges)]
            });
            let (h, c) = composed_cell(tape, wx, b, incoming, offsets, sigmoid_candidate);
            for (r, &v) in sel.iter().enumerate() {
                proc_row[v] = nodes.start + r;
            }
            hs.push(h);
            cs.push(c);
        }
        tape.stack_rows(&hs).index_rows(proc_row)
    }

    /// The pass under test, or its [`composed_pass`] oracle.
    type Pass =
        for<'t> fn(&'t Tape, PassInput<'t>, Var<'t>, Var<'t>, &PassSchedule, bool) -> Var<'t>;
    const PASSES: [Pass; 2] = [Tape::child_sum_pass, composed_pass];

    /// For the forest and a wide fan, both inputs and both candidates,
    /// `h` of [`Tape::child_sum_pass`] on both tape kinds and the
    /// gradient of every operand on a recording tape, each beside
    /// [`composed_pass`]'s.
    fn check_against_the_composed_pass(up: bool) {
        let schedules = [forest_schedule(up), fan_schedule(CELL_ROWS + 9, up)];
        for (s, rows) in schedules.iter().flat_map(|s| [(s, false), (s, true)]) {
            let n = s.order.len();
            let leaves = pass_leaves(HD, n, rows);
            let weight = Tensor::from_vec(spread(n * HD, 6), [n, HD]);
            for sigmoid_candidate in [false, true] {
                let what = format!("{n} nodes, up {up}, rows {rows}, σ {sigmoid_candidate}");
                // `h`, and on a recording tape every operand's gradient.
                let run = |tape: &Tape, pass: Pass| {
                    let vars: Vec<Var<'_>> = leaves.iter().map(|t| tape.leaf(t.clone())).collect();
                    let h = pass(
                        tape,
                        input_of(&vars),
                        vars[1],
                        vars[2],
                        s,
                        sigmoid_candidate,
                    );
                    let grads = (!tape.inference).then(|| {
                        let loss = h.mul(tape.leaf(weight.clone())).sum().add(h.tanh().sum());
                        let g = tape.backward(loss);
                        vars.iter().map(|&v| g.get_or_zeros(v)).collect::<Vec<_>>()
                    });
                    (h.value(), grads)
                };
                let (h, grads) = run(&Tape::new(), PASSES[1]);
                let grads = grads.expect("a recording tape");
                for tape in [Tape::new(), Tape::inference()] {
                    let (fh, fgrads) = run(&tape, PASSES[0]);
                    assert_eq!(tensor_bits(&fh), tensor_bits(&h), "h, {what}");
                    for (k, (f, c)) in fgrads.iter().flatten().zip(&grads).enumerate() {
                        let diff = f.max_abs_diff(c);
                        assert!(diff <= 1e-6, "operand {k}, {what}: off by {diff:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn child_sum_cell_matches_the_composed_chain_to_the_bit() {
        // Going up: leaves without incoming state, a node with three
        // children, and a one-child node, each reading its children's
        // rows where they lie.
        check_against_the_composed_pass(true);
    }

    #[test]
    fn child_sum_cell_reads_shared_rows_in_place_to_the_bit() {
        // Going down: three siblings read one parent's projections and
        // `c` in place, beside roots without incoming state; the oracle
        // copies every row out per node.
        check_against_the_composed_pass(false);
    }

    #[test]
    fn child_sum_cell_backward_matches_the_composed_chain() {
        // Loss through `h` alone, and a pass stacked on another's output,
        // so the op's `dx` rows feed a second op's backward.
        let (down, up) = (forest_schedule(false), forest_schedule(true));
        let leaves = pass_leaves(HD, NODES, false);
        let upper = pass_leaves(HD, NODES, true);
        let run = |pass: Pass| -> Vec<Tensor> {
            let tape = Tape::new();
            let operands = leaves.iter().chain(&upper[1..]);
            let vars: Vec<Var<'_>> = operands.map(|t| tape.leaf(t.clone())).collect();
            let first = pass(&tape, input_of(&vars[..3]), vars[1], vars[2], &down, false);
            let w = tape.leaf(Tensor::from_vec(
                spread(4 * HD * HD, 9).iter().map(|v| v / 8.0).collect(),
                [4 * HD, HD],
            ));
            let second = pass(
                &tape,
                PassInput::Rows(first, w),
                vars[3],
                vars[4],
                &up,
                true,
            );
            let g = tape.backward(second.sum());
            vars.iter()
                .chain([&w])
                .map(|&v| g.get_or_zeros(v))
                .collect()
        };
        for (k, (f, c)) in run(PASSES[0]).iter().zip(&run(PASSES[1])).enumerate() {
            let diff = f.max_abs_diff(c);
            assert!(diff <= 1e-6, "operand {k}: off by {diff:e}");
        }
    }

    #[test]
    fn child_sum_cell_passes_grad_check_with_and_without_edges() {
        // Narrow, so the loss stays small enough for f32 finite
        // differences to resolve every coordinate's gradient, and a step
        // wide enough that rounding does not swamp the small `U` ones.
        // Every operand is perturbed, the bias included.
        for up in [true, false] {
            let s = forest_schedule(up);
            for rows in [false, true] {
                let inputs = pass_leaves(3, NODES, rows);
                let weight = Tensor::from_vec(spread(NODES * 3, 7), [NODES, 3]);
                let report = crate::grad_check(&inputs, 2e-2, |tape, vars| {
                    let h = tape.child_sum_pass(input_of(vars), vars[1], vars[2], &s, !up);
                    crate::TapeScalar(h.mul(tape.leaf(weight.clone())).sum())
                });
                assert!(
                    report.passes(1e-2),
                    "child_sum_pass gradient check failed, up {up}, rows {rows}: {report:?}"
                );
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
