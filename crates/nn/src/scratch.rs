//! Reusable per-worker encode scratch.
//!
//! A batched encode pass needs a tape (thousands of nodes for a real
//! batch) and several scheduling buffers (per-node level numbers, level
//! bucket lists, flattened kind ids). [`EncodeScratch`] keeps them alive
//! across batches: the tape spine and every scheduling vector retain
//! their capacity, and the tape's weight transposes survive from one
//! batch to the next while the model lives.
//!
//! The tape is an [inference tape](Tape::inference): it keeps values,
//! not operations. A tree-LSTM pass is one op whose scratch goes back to
//! the [pool](ccsa_tensor::pool) when it ends, and the encoder releases
//! each layer's input once the layer has run. A warmed worker's pass
//! therefore draws every tensor buffer from the pool, and its schedule
//! from these buffers. It is not allocation-free: each op's output
//! tensor still allocates the `Arc` around its pooled buffer. Encoding
//! two unseen paper-width trees (289 nodes) on a warmed scratch makes
//! ~16 heap allocations, a bound `ccsa-serve`'s `alloc_steady_state.rs`
//! pins.
//!
//! Each [`EncodePool`] worker owns one `EncodeScratch` for its whole
//! life; training code keeps using recording tapes.
//!
//! [`EncodePool`]: https://docs.rs/ccsa-serve

use ccsa_tensor::{PassSchedule, Tape};

/// Reusable scheduling buffers for one batched encode pass.
///
/// All fields are cleared (capacity kept) by [`EncodeScratch::reset`];
/// encoders treat the *contents* as garbage on entry.
#[derive(Debug, Default)]
pub struct SchedBufs {
    /// Per-node level number (height or depth) in global node order.
    pub level: Vec<usize>,
    /// Level buckets: `levels[l]` lists the global node ids at level
    /// `l`. Outer and inner capacities both survive reuse.
    pub levels: Vec<Vec<usize>>,
    /// The tree-LSTM pass being run: the batch's node kinds, and the
    /// visiting order each pass rebuilds.
    pub pass: PassSchedule,
}

impl SchedBufs {
    /// Clears every buffer, keeping capacity. Inner level buckets are
    /// kept allocated too — a batch with fewer levels than the last one
    /// simply ignores the tail.
    pub fn clear(&mut self) {
        self.level.clear();
        for bucket in &mut self.levels {
            bucket.clear();
        }
        let p = &mut self.pass;
        p.kinds.clear();
        for v in [
            &mut p.order,
            &mut p.levels,
            &mut p.group,
            &mut p.groups,
            &mut p.members,
        ] {
            v.clear();
        }
    }
}

/// A worker-owned arena for steady-state batched encoding: one
/// long-lived inference [`Tape`] plus the scheduling buffers, recycled
/// batch to batch.
///
/// ```
/// use ccsa_nn::EncodeScratch;
///
/// let mut scratch = EncodeScratch::new();
/// let (tape, _sched) = scratch.parts();
/// assert!(tape.is_empty());
/// ```
#[derive(Debug)]
pub struct EncodeScratch {
    tape: Tape,
    sched: SchedBufs,
}

impl Default for EncodeScratch {
    fn default() -> EncodeScratch {
        EncodeScratch {
            tape: Tape::inference(),
            sched: SchedBufs::default(),
        }
    }
}

impl EncodeScratch {
    /// An empty scratch; its buffers grow to steady-state size over the
    /// first few batches and then stop growing.
    pub fn new() -> EncodeScratch {
        EncodeScratch::default()
    }

    /// Prepares the scratch for a new batch: resets the tape (dropping
    /// the previous batch's node tensors back into the buffer pool,
    /// keeping the node spine's capacity and the transposes of weights
    /// that are still alive) and clears the scheduling buffers. Any
    /// `Var` from a previous batch is invalidated.
    pub fn reset(&mut self) {
        self.tape.reset();
        self.sched.clear();
    }

    /// Split access: the tape (shared, for `Ctx`/`Var` recording) and
    /// the scheduling buffers (mutable, for the encoder's level
    /// bookkeeping).
    pub fn parts(&mut self) -> (&Tape, &mut SchedBufs) {
        (&self.tape, &mut self.sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Ctx, Params};
    use crate::treelstm::{Direction, TreeLstmConfig, TreeLstmEncoder};
    use ccsa_cppast::{parse_program, AstGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> (TreeLstmEncoder, Params) {
        let config = TreeLstmConfig {
            embed_dim: 6,
            hidden: 5,
            layers: 3,
            direction: Direction::Alternating,
            sigmoid_candidate: false,
        };
        let mut params = Params::new();
        let enc = TreeLstmEncoder::new(&config, &mut params, &mut StdRng::seed_from_u64(seed));
        (enc, params)
    }

    fn graphs() -> Vec<AstGraph> {
        [
            "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; return s; }",
            "int f(int x) { if (x > 0) { return x; } return -x; } int main() { return f(3); }",
        ]
        .iter()
        .map(|s| AstGraph::from_program(&parse_program(s).unwrap()))
        .collect()
    }

    /// The codes' bits, encoded on `scratch`.
    fn encode(
        scratch: &mut EncodeScratch,
        (enc, params): &(TreeLstmEncoder, Params),
        graphs: &[AstGraph],
    ) -> Vec<Vec<u32>> {
        let refs: Vec<&AstGraph> = graphs.iter().collect();
        scratch.reset();
        let (tape, sched) = scratch.parts();
        let ctx = Ctx::new(tape, params);
        let (codes, _) = enc.encode_batch_with_stats_in(&ctx, &refs, sched);
        codes
            .iter()
            .map(|c| c.value().as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn one_scratch_serves_models_in_turn_like_fresh_scratches() {
        let graphs = graphs();
        let a = model(1);
        let b = model(2);
        let fresh_a = encode(&mut EncodeScratch::new(), &a, &graphs);
        let fresh_b = encode(&mut EncodeScratch::new(), &b, &graphs);
        assert_ne!(fresh_a, fresh_b);

        let mut scratch = EncodeScratch::new();
        assert_eq!(encode(&mut scratch, &a, &graphs), fresh_a, "A");
        assert_eq!(encode(&mut scratch, &b, &graphs), fresh_b, "B");
        assert_eq!(encode(&mut scratch, &a, &graphs), fresh_a, "A again");

        // What a scratch that only ever saw A keeps across a reset.
        let mut only_a = EncodeScratch::new();
        encode(&mut only_a, &a, &graphs);
        only_a.reset();
        let a_entries = only_a.tape.memo_len();
        assert!(a_entries > 0, "A's bound weights stay transposed");

        drop(b);
        scratch.reset();
        assert_eq!(scratch.tape.memo_len(), a_entries, "B's entries are gone");
        assert_eq!(
            encode(&mut scratch, &a, &graphs),
            fresh_a,
            "A after B dropped"
        );
    }

    #[test]
    fn scratches_sharing_a_model_keep_none_of_its_transposes_once_it_drops() {
        let graphs = graphs();
        let shared = model(3);
        let mut scratches = [EncodeScratch::new(), EncodeScratch::new()];
        for scratch in &mut scratches {
            encode(scratch, &shared, &graphs);
            scratch.reset();
            assert!(scratch.tape.memo_len() > 0);
        }
        drop(shared);
        for scratch in &mut scratches {
            scratch.reset();
            assert_eq!(scratch.tape.memo_len(), 0);
        }
    }

    #[test]
    fn a_pass_records_one_tape_node_however_many_levels_it_has() {
        // Parameters, the kind table's projection, one node per pass and
        // the root readout: a node per level would put hundreds here.
        let mut params = Params::new();
        let config = TreeLstmConfig::paper();
        let enc = TreeLstmEncoder::new(&config, &mut params, &mut StdRng::seed_from_u64(4));
        let graphs = graphs();
        let mut scratch = EncodeScratch::new();
        encode(&mut scratch, &(enc.clone(), params.clone()), &graphs);
        assert!(scratch.tape.len() <= 20, "{} nodes", scratch.tape.len());
        let sixteen: Vec<&AstGraph> = graphs.iter().cycle().take(16).collect();
        let tape = Tape::new();
        enc.encode_batch(&Ctx::new(&tape, &params), &sixteen);
        assert!(tape.len() <= 34, "{} nodes", tape.len());
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut s = EncodeScratch::new();
        s.sched.pass.kinds.extend_from_slice(&[1, 2, 3]);
        s.sched.level.extend_from_slice(&[0, 1, 1]);
        s.sched.levels.push(vec![0]);
        s.sched.levels.push(vec![1, 2]);
        let id_cap = s.sched.pass.kinds.capacity();
        let bucket_cap = s.sched.levels[1].capacity();
        s.reset();
        assert!(s.sched.pass.kinds.is_empty());
        assert!(s.sched.level.is_empty());
        assert!(s.sched.levels.iter().all(Vec::is_empty));
        assert_eq!(s.sched.pass.kinds.capacity(), id_cap);
        assert_eq!(s.sched.levels[1].capacity(), bucket_cap);
    }
}
