//! Sharded micro-batching encode queues over a persistent worker pool.
//!
//! Serving's hot cost is the encoder forward pass. Rather than encoding
//! each request's trees ad hoc on the caller's thread, every pending tree
//! becomes a job in a queue; workers drain queues in *batches* (up to
//! [`BatchConfig::max_batch`] consecutive jobs for the same model) and
//! run one batched forward pass per batch via
//! [`Comparator::encode_codes`](ccsa_model::comparator::Comparator::encode_codes),
//! which binds model parameters to a single tape for the whole batch.
//!
//! # Sharding
//!
//! The queue is *sharded per registered model*: each (name, version)
//! registration gets its own bounded sub-queue, keyed by the
//! registration's process-unique uid, created lazily on its first
//! encode. Shard `i` is *preferred* by worker `i % workers`; an idle
//! worker first drains its preferred shards (round-robin, so one busy
//! shard cannot monopolise it), then **steals** from any other
//! non-empty shard. The effect:
//!
//! * enqueueing locks only the target model's shard — concurrent
//!   requests for different models never contend on one global mutex;
//! * a hot A/B arm can no longer starve the others: the cold arm's
//!   shard is visited every scan rotation instead of its jobs queueing
//!   behind the hot arm's backlog in FIFO order;
//! * batches trivially never mix models (a shard holds one model's
//!   jobs), preserving the one-parameter-set-per-pass invariant.
//!
//! Each shard is bounded ([`BatchConfig::shard_capacity`]): a request
//! that would push a shard past its capacity is refused up front with a
//! typed error instead of growing the queue without limit — admission
//! backpressure is enforced per shard, so one flooded model sheds its
//! own traffic while the other shards keep admitting.
//!
//! Results return to callers over per-request channels, so a caller
//! blocks only on its own trees, never on the whole queue. Encoder
//! panics are caught per batch (`catch_unwind`), failing only that
//! batch's callers.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use crate::lockdep::{DMutex, DRwLock};
use std::thread::JoinHandle;

use ccsa_cppast::AstGraph;
use ccsa_tensor::Tensor;

use crate::registry::ServeModel;

/// Worker-pool shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Encoder worker threads.
    pub workers: usize,
    /// Maximum trees fused into one forward pass.
    pub max_batch: usize,
    /// Per-shard pending-job bound (0 = unbounded). A request that
    /// would overflow its model's shard is refused with a typed error —
    /// the admission backpressure limit.
    pub shard_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            workers: ccsa_nn::parallel::default_threads(),
            max_batch: 16,
            shard_capacity: 4096,
        }
    }
}

/// Pool observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Forward passes executed.
    pub batches: u64,
    /// Trees encoded.
    pub jobs: u64,
    /// Fused level matmuls executed across all forward passes.
    pub fused_levels: u64,
    /// Node rows those fused level matmuls covered.
    pub fused_rows: u64,
    /// Batches taken by a worker from a shard it does not prefer — the
    /// work-stealing traffic that keeps cold shards from starving.
    pub steals: u64,
}

impl BatchStats {
    /// Mean trees per forward pass (0 when idle).
    ///
    /// Counts *trees*, not work: a 1-tree flush of a deep tree and an
    /// 8-tree flush of shallow ones can cost the same. The tensor-level
    /// signal is [`BatchStats::mean_fused_width`], which reports how wide
    /// the fused per-level matmuls actually ran.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.jobs as f64 / self.batches as f64
        }
    }

    /// Mean node rows per fused level matmul (0 when idle) — the true
    /// fused width the level-scheduled encoder achieved. Cross-tree
    /// fusion shows up here: the same trees encoded in one pass instead
    /// of eight produce proportionally wider levels.
    pub fn mean_fused_width(&self) -> f64 {
        if self.fused_levels == 0 {
            0.0
        } else {
            self.fused_rows as f64 / self.fused_levels as f64
        }
    }
}

struct Job {
    model: Arc<ServeModel>,
    graph: Arc<AstGraph>,
    index: usize,
    tx: mpsc::Sender<(usize, Result<Tensor, String>)>,
}

/// One bounded sub-queue, holding exactly one registration's jobs.
struct Shard {
    /// `name@vN` of the owning registration.
    label: String,
    /// Position in the shard table; `index % workers` is the preferred
    /// worker.
    index: usize,
    queue: DMutex<VecDeque<Job>>,
    /// Pending jobs, maintained outside the queue mutex so scans and
    /// admission checks are lock-free. Incremented *before* the push
    /// (admission reserves the slots), decremented as jobs are popped.
    depth: AtomicUsize,
    /// Batches non-preferred workers took from this shard.
    steals: AtomicU64,
    /// Tombstone set by [`EncodePool::prune_retired`] just before the
    /// shard leaves the table. An enqueuer that raced the prune (it
    /// resolved this shard before the sweep) observes the flag after
    /// reserving its slots and re-resolves instead of queueing jobs no
    /// worker will ever scan again.
    retired: AtomicBool,
}

/// Grows lazily as models encode; [`EncodePool::prune_retired`] sweeps
/// out shards whose registration uid the registry no longer reports
/// (hot-swap leftovers), once drained — so the table tracks the set of
/// live registrations instead of growing monotonically across swaps.
#[derive(Default)]
struct ShardTable {
    shards: Vec<Arc<Shard>>,
    by_uid: HashMap<u64, usize>,
}

struct Shared {
    shards: DRwLock<ShardTable>,
    /// Parking lot for idle workers. The mutex guards nothing but the
    /// condvar protocol; enqueuers skip it entirely unless `sleepers`
    /// says someone is actually waiting, so the hot enqueue path never
    /// touches a global lock.
    park: Mutex<()>,
    available: Condvar,
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    batches: AtomicU64,
    jobs: AtomicU64,
    fused_levels: AtomicU64,
    fused_rows: AtomicU64,
    steals: AtomicU64,
}

impl Shared {
    /// Any shard with pending jobs? (Lock-free scan of depth gauges;
    /// SeqCst loads pair with the enqueuer's SeqCst reservation, see
    /// the sleep protocol in `worker_loop`.)
    fn has_pending(&self) -> bool {
        self.shards
            .read()
            .expect("shard table poisoned")
            .shards
            .iter()
            .any(|s| s.depth.load(Ordering::SeqCst) > 0) // SeqCst: see doc
    }

    /// Wakes sleeping workers — only takes the park lock when at least
    /// one worker is actually asleep (SeqCst pairs with the sleeper's
    /// depth re-check, so a worker can never sleep through this).
    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().expect("park lock poisoned");
            self.available.notify_all();
        }
    }
}

/// The persistent encoder worker pool.
pub struct EncodePool {
    shared: Arc<Shared>,
    max_batch: usize,
    shard_capacity: usize,
    workers: Vec<JoinHandle<()>>,
}

impl EncodePool {
    /// Spawns `config.workers` threads (at least one).
    pub fn new(config: &BatchConfig) -> EncodePool {
        let shared = Arc::new(Shared {
            shards: DRwLock::new("serve.batch.shards", ShardTable::default()),
            park: Mutex::new(()),
            available: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            batches: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            fused_levels: AtomicU64::new(0),
            fused_rows: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        let max_batch = config.max_batch.max(1);
        let worker_count = config.workers.max(1);
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ccsa-encode-{i}"))
                    .spawn(move || worker_loop(&shared, i, worker_count, max_batch))
                    .expect("failed to spawn encode worker")
            })
            .collect();
        EncodePool {
            shared,
            max_batch,
            shard_capacity: config.shard_capacity,
            workers,
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The batch-size cap.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            // Relaxed: independent monotonic counters read at snapshot
            // time; no cross-counter consistency is promised.
            batches: self.shared.batches.load(Ordering::Relaxed),
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            fused_levels: self.shared.fused_levels.load(Ordering::Relaxed),
            fused_rows: self.shared.fused_rows.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
        }
    }

    /// Trees currently waiting across all shards (instantaneous, not a
    /// counter). This is the aggregate admission backpressure signal:
    /// every pending encode across all connections queues here, so a
    /// growing depth means requests arrive faster than the workers
    /// drain them.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .shards
            .read()
            .expect("shard table poisoned")
            .shards
            .iter()
            // SeqCst: same gauge the admission/sleep protocol orders.
            .map(|s| s.depth.load(Ordering::SeqCst))
            .sum()
    }

    /// Pending jobs per shard label (`name@vN`), aggregated over shards
    /// sharing a label (a hot-swapped coordinate leaves its drained
    /// predecessor shard behind) and sorted by label.
    pub fn shard_depths(&self) -> Vec<(String, usize)> {
        self.shard_snapshot().0
    }

    /// One consistent view of the shard table: per-label pending depths
    /// (as in [`EncodePool::shard_depths`]) plus the materialised shard
    /// count, all under a single table read — so a stats snapshot's
    /// aggregate can never disagree with its own breakdown.
    pub fn shard_snapshot(&self) -> (Vec<(String, usize)>, usize) {
        let table = self.shared.shards.read().expect("shard table poisoned");
        let mut by_label: HashMap<&str, usize> = HashMap::new();
        for shard in &table.shards {
            // SeqCst: same gauge the admission/sleep protocol orders.
            *by_label.entry(shard.label.as_str()).or_default() +=
                shard.depth.load(Ordering::SeqCst);
        }
        let mut depths: Vec<(String, usize)> = by_label
            .into_iter()
            .map(|(label, depth)| (label.to_string(), depth))
            .collect();
        depths.sort();
        (depths, table.shards.len())
    }

    /// Shards currently materialised (lazily, one per model that has
    /// encoded).
    pub fn shard_count(&self) -> usize {
        self.shared
            .shards
            .read()
            .expect("shard table poisoned")
            .shards
            .len()
    }

    /// The shard for `model`, creating it on first use.
    fn shard_for(&self, model: &Arc<ServeModel>) -> Arc<Shard> {
        let uid = model.uid();
        {
            let table = self.shared.shards.read().expect("shard table poisoned");
            if let Some(&ix) = table.by_uid.get(&uid) {
                return Arc::clone(&table.shards[ix]);
            }
        }
        let mut table = self.shared.shards.write().expect("shard table poisoned");
        if let Some(&ix) = table.by_uid.get(&uid) {
            return Arc::clone(&table.shards[ix]);
        }
        let index = table.shards.len();
        let shard = Arc::new(Shard {
            label: format!("{}@v{}", model.name, model.version),
            index,
            queue: DMutex::new("serve.batch.shard_queue", VecDeque::new()),
            depth: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        });
        table.shards.push(Arc::clone(&shard));
        table.by_uid.insert(uid, index);
        shard
    }

    /// Sweeps out shards whose registration uid is not in `live_uids` —
    /// the GC for hot-swap-orphaned shards. A dead shard still holding
    /// jobs is left to drain (a later sweep collects it). Returns how
    /// many shards were dropped.
    ///
    /// Safe against concurrent enqueues: the sweep tombstones a shard
    /// *before* checking its depth, and [`EncodePool::encode`] re-checks
    /// the tombstone after reserving its slots — so either the sweep sees
    /// the reservation and keeps the shard, or the enqueuer sees the
    /// tombstone and re-resolves onto a fresh shard.
    pub fn prune_retired(&self, live_uids: &[u64]) -> usize {
        let mut table = self.shared.shards.write().expect("shard table poisoned");
        let uid_of: HashMap<usize, u64> =
            table.by_uid.iter().map(|(&uid, &ix)| (ix, uid)).collect();
        let before = table.shards.len();
        let mut shards = Vec::with_capacity(before);
        let mut by_uid = HashMap::with_capacity(before);
        for (ix, shard) in table.shards.iter().enumerate() {
            let uid = uid_of.get(&ix).copied();
            let live = uid.is_some_and(|u| live_uids.contains(&u));
            if !live {
                // Tombstone first, then read the depth: an enqueuer's
                // slot reservation is ordered against this pair (both
                // SeqCst), so a reservation this sweep misses implies the
                // enqueuer observes the tombstone.
                shard.retired.store(true, Ordering::SeqCst);
                // SeqCst: the read half of the pair described above.
                if shard.depth.load(Ordering::SeqCst) == 0 {
                    continue; // dead and drained: dropped
                }
                // SeqCst: still draining — untombstone for enqueuers.
                shard.retired.store(false, Ordering::SeqCst);
            }
            if let Some(uid) = uid {
                by_uid.insert(uid, shards.len());
            }
            shards.push(Arc::clone(shard));
        }
        table.shards = shards;
        table.by_uid = by_uid;
        before - table.shards.len()
    }

    /// Encodes `graphs` under `model`, blocking until every latent code is
    /// ready. Results come back in input order.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when the model's shard is at capacity
    /// (admission backpressure — nothing was enqueued, the caller should
    /// shed or retry) or when the encoder panicked on this batch (e.g. a
    /// corrupt model whose parameter shapes do not match its
    /// architecture). The pool survives either way: subsequent requests
    /// are served normally.
    pub fn encode(
        &self,
        model: &Arc<ServeModel>,
        graphs: &[Arc<AstGraph>],
    ) -> Result<Vec<Tensor>, EncodeError> {
        if graphs.is_empty() {
            return Ok(Vec::new());
        }
        assert!(
            // SeqCst: pairs with Drop's shutdown store.
            !self.shared.shutdown.load(Ordering::SeqCst),
            "encode pool already shut down"
        );
        let n = graphs.len();
        let (tx, rx) = mpsc::channel();
        loop {
            let shard = self.shard_for(model);
            // Admission: reserve the slots before queueing anything, so a
            // request either fits entirely or is refused without partial
            // enqueue. The reservation is visible to scanning workers
            // slightly before the jobs are — they treat a reserved-but-empty
            // queue as "nothing yet" and rescan.
            if self.shard_capacity != 0 && n > self.shard_capacity {
                // Larger than the bound itself: retrying can never help, so
                // say so instead of sending the caller into a retry loop.
                return Err(EncodeError::Shed(format!(
                    "request of {n} trees exceeds the {} encode-shard capacity {} — split it",
                    shard.label, self.shard_capacity
                )));
            }
            // SeqCst: the reservation is ordered against the workers'
            // depth scans, the sleep protocol's sleepers check, and the
            // prune sweep's retired/depth pair.
            let queued = shard.depth.fetch_add(n, Ordering::SeqCst);
            if self.shard_capacity != 0 && queued + n > self.shard_capacity {
                shard.depth.fetch_sub(n, Ordering::SeqCst);
                return Err(EncodeError::Shed(format!(
                    "encode queue for {} is full ({queued} pending, capacity {}) — retry later",
                    shard.label, self.shard_capacity
                )));
            }
            // SeqCst: reads the tombstone the prune sweep stores before
            // its drained check, closing the reserve-vs-retire race.
            if shard.retired.load(Ordering::SeqCst) {
                // Raced a prune sweep: this shard just left the table, so
                // no worker would ever scan these jobs. Release the
                // reservation and re-resolve (the lookup recreates a live
                // shard for this registration).
                shard.depth.fetch_sub(n, Ordering::SeqCst);
                continue;
            }
            {
                let mut queue = shard.queue.lock().expect("shard queue poisoned");
                for (index, graph) in graphs.iter().enumerate() {
                    queue.push_back(Job {
                        model: Arc::clone(model),
                        graph: Arc::clone(graph),
                        index,
                        tx: tx.clone(),
                    });
                }
            }
            break;
        }
        self.shared.wake();
        drop(tx); // workers hold the only remaining senders

        let mut codes: Vec<Option<Tensor>> = vec![None; graphs.len()];
        let mut received = 0;
        while received < graphs.len() {
            let (index, code) = rx.recv().map_err(|_| {
                EncodeError::Failed("encode worker exited before delivering results".into())
            })?;
            let code = code.map_err(EncodeError::Failed)?;
            debug_assert!(codes[index].is_none(), "duplicate result for job {index}");
            codes[index] = Some(code);
            received += 1;
        }
        Ok(codes
            .into_iter()
            .map(|c| c.expect("missing result slot"))
            .collect())
    }
}

/// An encode request failed. The two variants are operationally very
/// different and transports are expected to tell them apart: a shed is
/// intentional backpressure (retryable, or splittable when the request
/// alone exceeds the shard bound), while a failure means the encoder
/// panicked on this batch.
#[derive(Debug, Clone)]
pub enum EncodeError {
    /// Admission refused before anything was enqueued.
    Shed(String),
    /// An encoder forward pass panicked in the worker pool.
    Failed(String),
}

impl EncodeError {
    /// `true` when this was admission backpressure, not a broken model.
    pub fn is_shed(&self) -> bool {
        matches!(self, EncodeError::Shed(_))
    }

    /// The human-readable detail.
    pub fn message(&self) -> &str {
        match self {
            EncodeError::Shed(m) | EncodeError::Failed(m) => m,
        }
    }
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Shed(m) => write!(f, "encode admission refused: {m}"),
            EncodeError::Failed(m) => write!(f, "encoder failure: {m}"),
        }
    }
}

impl std::error::Error for EncodeError {}

impl Drop for EncodePool {
    fn drop(&mut self) {
        // SeqCst: workers re-check this flag under the park lock; the
        // store must not reorder past the notify below.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.park.lock().expect("park lock poisoned");
            self.shared.available.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pops one micro-batch from `shard`: up to `max_batch` jobs from the
/// front. A shard holds one registration's jobs, so a batch never mixes
/// parameter sets.
fn pop_batch(shard: &Shard, max_batch: usize) -> Vec<Job> {
    let mut queue = shard.queue.lock().expect("shard queue poisoned");
    let take = queue.len().min(max_batch);
    let batch: Vec<Job> = queue.drain(..take).collect();
    drop(queue);
    if !batch.is_empty() {
        // SeqCst: releases the admission reservation taken in encode().
        shard.depth.fetch_sub(batch.len(), Ordering::SeqCst);
    }
    batch
}

/// Finds the next batch for `worker_ix`: preferred shards first
/// (rotating through them from `cursor`, so one busy shard cannot
/// monopolise its worker), then a steal pass over everyone else's.
fn grab_batch(
    shared: &Shared,
    worker_ix: usize,
    worker_count: usize,
    cursor: &mut usize,
    max_batch: usize,
) -> Option<Vec<Job>> {
    let table = shared.shards.read().expect("shard table poisoned");
    let n = table.shards.len();
    if n == 0 {
        return None;
    }
    for steal_pass in [false, true] {
        for offset in 0..n {
            let ix = (*cursor + offset) % n;
            let shard = &table.shards[ix];
            let preferred = shard.index % worker_count == worker_ix;
            if preferred == steal_pass {
                continue;
            }
            // SeqCst: pairs with the enqueuer's reservation fetch_add.
            if shard.depth.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let batch = pop_batch(shard, max_batch);
            if batch.is_empty() {
                continue; // reservation raced ahead of the push; rescan
            }
            *cursor = (ix + 1) % n;
            if steal_pass {
                // Relaxed: stats counters, read only at snapshot time.
                shard.steals.fetch_add(1, Ordering::Relaxed);
                shared.steals.fetch_add(1, Ordering::Relaxed);
            }
            return Some(batch);
        }
    }
    None
}

fn worker_loop(shared: &Shared, worker_ix: usize, worker_count: usize, max_batch: usize) {
    // Per-worker rotation cursor; workers start offset from each other
    // so they fan out over the shard table instead of convoying.
    let mut cursor = worker_ix;
    // Worker-owned encode arena: the tape and scheduling buffers live
    // for the worker's whole life, so steady-state batches allocate ~0
    // (tensor buffers come from the thread-local pool tier, which this
    // thread also keeps warm).
    let mut scratch = ccsa_nn::EncodeScratch::new();
    loop {
        match grab_batch(shared, worker_ix, worker_count, &mut cursor, max_batch) {
            Some(batch) => run_batch(shared, batch, &mut scratch),
            None => {
                // Sleep protocol: advertise the intent to sleep, then
                // re-check for work *under the park lock*. An enqueuer
                // increments a shard depth before checking `sleepers`
                // (both SeqCst), so either this re-check sees its jobs
                // or it sees this sleeper and notifies.
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                let guard = shared.park.lock().expect("park lock poisoned");
                if shared.shutdown.load(Ordering::SeqCst) {
                    shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                if !shared.has_pending() {
                    let _guard = shared.available.wait(guard).expect("park lock poisoned");
                }
                // SeqCst: retract the sleep advertisement (symmetric
                // with the fetch_add opening this protocol).
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Runs one popped batch: a single fused forward pass, results fanned
/// back to each job's caller. A panicking pass (corrupt model, shape
/// mismatch) must not kill the worker: it is caught, this batch's
/// callers get the error, and the worker keeps serving. Encoders are
/// pure functions of (params, graph), so no shared state can be left
/// inconsistent.
fn run_batch(shared: &Shared, batch: Vec<Job>, scratch: &mut ccsa_nn::EncodeScratch) {
    let model = &batch[0].model.model;
    let graphs: Vec<&AstGraph> = batch.iter().map(|job| job.graph.as_ref()).collect();
    // A panicking pass may leave half-recorded nodes on the scratch
    // tape; `encode_codes_with_scratch` resets it on entry, so the next
    // batch starts clean either way.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        model
            .comparator
            .encode_codes_with_scratch(&model.params, &graphs, scratch)
    }));
    // Relaxed: stats counters, read only at snapshot time.
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared.jobs.fetch_add(batch.len() as u64, Ordering::Relaxed);
    match outcome {
        Ok((codes, fused)) => {
            // Relaxed: stats counters, read only at snapshot time.
            shared
                .fused_levels
                .fetch_add(fused.levels, Ordering::Relaxed);
            shared.fused_rows.fetch_add(fused.rows, Ordering::Relaxed);
            for (job, code) in batch.into_iter().zip(codes) {
                // A disappeared caller is not an error; drop its result.
                let _ = job.tx.send((job.index, Ok(code)));
            }
        }
        Err(panic) => {
            // `&*panic`: downcast the payload, not the Box around it.
            let message = panic_message(&*panic);
            for job in batch {
                let _ = job.tx.send((job.index, Err(message.clone())));
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "encoder panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use ccsa_cppast::parse_program;
    use ccsa_model::comparator::{Comparator, EncoderConfig};
    use ccsa_model::pipeline::TrainedModel;
    use ccsa_nn::param::Params;
    use ccsa_nn::treelstm::{Direction, TreeLstmConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_serve_model(seed: u64) -> Arc<ServeModel> {
        named_serve_model("t", seed)
    }

    fn named_serve_model(name: &str, seed: u64) -> Arc<ServeModel> {
        let config = EncoderConfig::TreeLstm(TreeLstmConfig {
            embed_dim: 6,
            hidden: 6,
            layers: 1,
            direction: Direction::Uni,
            sigmoid_candidate: false,
        });
        let mut params = Params::new();
        let comparator = Comparator::new(&config, &mut params, &mut StdRng::seed_from_u64(seed));
        let mut reg = ModelRegistry::new();
        reg.register(name, 1, TrainedModel { comparator, params });
        reg.resolve(&crate::registry::ModelSelector {
            name: Some(name.into()),
            version: None,
        })
        .unwrap()
    }

    fn graph(src: &str) -> Arc<AstGraph> {
        Arc::new(AstGraph::from_program(&parse_program(src).unwrap()))
    }

    fn sample_graphs(n: usize) -> Vec<Arc<AstGraph>> {
        (0..n)
            .map(|i| {
                let mut body = String::from("int s = 0;");
                for k in 0..(i % 4) {
                    body.push_str(&format!(
                        " for (int i{k} = 0; i{k} < {}; i{k}++) s += i{k};",
                        k + 2
                    ));
                }
                graph(&format!("int main() {{ {body} return s; }}"))
            })
            .collect()
    }

    /// Graphs whose encode is deliberately slow (deep statement chains)
    /// so saturation/stealing windows are wide enough to observe.
    fn heavy_graphs(n: usize) -> Vec<Arc<AstGraph>> {
        (0..n)
            .map(|i| {
                let mut body = String::from("int s = 0;");
                for k in 0..24 + (i % 3) {
                    body.push_str(&format!(" for (int j{k} = 0; j{k} < 3; j{k}++) s += j{k};"));
                }
                graph(&format!("int main() {{ {body} return s; }}"))
            })
            .collect()
    }

    fn pool(workers: usize, max_batch: usize) -> EncodePool {
        EncodePool::new(&BatchConfig {
            workers,
            max_batch,
            ..BatchConfig::default()
        })
    }

    #[test]
    fn pool_matches_direct_encoding_in_order() {
        let model = tiny_serve_model(1);
        let graphs = sample_graphs(9);
        let pool = pool(3, 4);
        let pooled = pool.encode(&model, &graphs).unwrap();

        let refs: Vec<&AstGraph> = graphs.iter().map(|g| g.as_ref()).collect();
        let direct = model
            .model
            .comparator
            .encode_codes(&model.model.params, &refs);
        assert_eq!(pooled.len(), direct.len());
        for (p, d) in pooled.iter().zip(&direct) {
            assert_eq!(
                p.as_slice(),
                d.as_slice(),
                "pooled encode diverged from direct"
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs, 9);
        assert!(
            stats.batches >= 1,
            "at least one forward pass must have run"
        );
        assert!(stats.mean_batch_size() >= 1.0);
        // The fused encoder must have reported its level telemetry: every
        // node row of every tree passes through exactly one fused level
        // matmul per pass (1-layer tree-LSTM ⇒ rows == total nodes).
        let total_nodes: u64 = graphs.iter().map(|g| g.node_count() as u64).sum();
        assert_eq!(stats.fused_rows, total_nodes);
        assert!(stats.fused_levels > 0);
        assert!(
            stats.mean_fused_width() >= 1.0,
            "fused width {}",
            stats.mean_fused_width()
        );
        // One model encoded ⇒ one materialised shard, labelled name@vN.
        assert_eq!(pool.shard_count(), 1);
        assert_eq!(pool.shard_depths(), vec![("t@v1".to_string(), 0)]);
    }

    #[test]
    fn wider_batches_report_wider_fused_levels() {
        // The same trees encoded in ONE pass must fuse wider levels than
        // when forced through one-tree passes — the signal
        // mean_batch_size cannot show (this is the "true fused width"
        // fix: 1-tree and 8-tree flushes differ by ~8× here).
        let model = tiny_serve_model(7);
        let graphs = sample_graphs(8);

        let fused_pool = pool(1, 8);
        let _ = fused_pool.encode(&model, &graphs).unwrap();
        let wide = fused_pool.stats();

        let narrow_pool = pool(1, 1);
        let _ = narrow_pool.encode(&model, &graphs).unwrap();
        let narrow = narrow_pool.stats();

        assert_eq!(wide.fused_rows, narrow.fused_rows, "same total node work");
        assert!(
            wide.mean_fused_width() > 2.0 * narrow.mean_fused_width(),
            "cross-tree fusion invisible: wide {} vs narrow {}",
            wide.mean_fused_width(),
            narrow.mean_fused_width()
        );
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let model = tiny_serve_model(2);
        let pool = Arc::new(pool(2, 8));
        let graphs = sample_graphs(6);
        let refs: Vec<&AstGraph> = graphs.iter().map(|g| g.as_ref()).collect();
        let direct = model
            .model
            .comparator
            .encode_codes(&model.model.params, &refs);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let model = Arc::clone(&model);
                    let graphs = graphs.clone();
                    scope.spawn(move || pool.encode(&model, &graphs).unwrap())
                })
                .collect();
            for handle in handles {
                let got = handle.join().unwrap();
                for (g, d) in got.iter().zip(&direct) {
                    assert_eq!(g.as_slice(), d.as_slice());
                }
            }
        });
        assert_eq!(pool.stats().jobs, 24);
    }

    #[test]
    fn batches_never_mix_models() {
        // Two distinct models queued interleaved: every result must match
        // its own model's direct encoding (per-model shards separate them
        // structurally).
        let m1 = tiny_serve_model(3);
        let m2 = tiny_serve_model(4);
        let graphs = sample_graphs(5);
        let refs: Vec<&AstGraph> = graphs.iter().map(|g| g.as_ref()).collect();
        let d1 = m1.model.comparator.encode_codes(&m1.model.params, &refs);
        let d2 = m2.model.comparator.encode_codes(&m2.model.params, &refs);
        // Sanity: the two models disagree, otherwise the test is vacuous.
        assert_ne!(d1[0].as_slice(), d2[0].as_slice());

        let pool = Arc::new(EncodePool::new(&BatchConfig {
            workers: 2,
            max_batch: 16,
            ..BatchConfig::default()
        }));
        std::thread::scope(|scope| {
            let p1 = Arc::clone(&pool);
            let g1 = graphs.clone();
            let h1 = scope.spawn(move || p1.encode(&m1, &g1).unwrap());
            let p2 = Arc::clone(&pool);
            let g2 = graphs.clone();
            let h2 = scope.spawn(move || p2.encode(&m2, &g2).unwrap());
            let r1 = h1.join().unwrap();
            let r2 = h2.join().unwrap();
            for (g, d) in r1.iter().zip(&d1) {
                assert_eq!(g.as_slice(), d.as_slice());
            }
            for (g, d) in r2.iter().zip(&d2) {
                assert_eq!(g.as_slice(), d.as_slice());
            }
        });
        assert_eq!(pool.shard_count(), 2);
    }

    #[test]
    fn prune_drops_only_dead_empty_shards() {
        let alive = named_serve_model("alive", 21);
        let dead = named_serve_model("dead", 22);
        let pool = pool(2, 4);
        let _ = pool.encode(&alive, &sample_graphs(3)).unwrap();
        let _ = pool.encode(&dead, &sample_graphs(3)).unwrap();
        assert_eq!(pool.shard_count(), 2);

        // Both uids live: nothing to collect.
        assert_eq!(pool.prune_retired(&[alive.uid(), dead.uid()]), 0);
        assert_eq!(pool.shard_count(), 2);

        // One registration retired: its drained shard goes, the live one
        // stays and keeps serving under its original uid mapping.
        assert_eq!(pool.prune_retired(&[alive.uid()]), 1);
        assert_eq!(pool.shard_count(), 1);
        assert_eq!(pool.shard_depths(), vec![("alive@v1".to_string(), 0)]);
        let codes = pool.encode(&alive, &sample_graphs(2)).unwrap();
        assert_eq!(codes.len(), 2);
        assert_eq!(pool.shard_count(), 1, "live shard must not be recreated");

        // A late request against the pruned registration recreates its
        // shard lazily — prune must never make encoding fail.
        let codes = pool.encode(&dead, &sample_graphs(1)).unwrap();
        assert_eq!(codes.len(), 1);
        assert_eq!(pool.shard_count(), 2);
    }

    #[test]
    fn empty_request_returns_immediately() {
        let model = tiny_serve_model(5);
        let pool = pool(1, 4);
        assert!(pool.encode(&model, &[]).unwrap().is_empty());
        assert_eq!(pool.stats().jobs, 0);
    }

    #[test]
    fn max_batch_caps_forward_pass_size() {
        let model = tiny_serve_model(6);
        let graphs = sample_graphs(10);
        // One worker, cap 3 → at least ceil(10/3) = 4 passes.
        let pool = pool(1, 3);
        let _ = pool.encode(&model, &graphs).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.jobs, 10);
        assert!(
            stats.batches >= 4,
            "batches {} under a cap of 3",
            stats.batches
        );
        assert!(stats.mean_batch_size() <= 3.0 + 1e-9);
    }

    #[test]
    fn encoder_panic_fails_the_request_but_not_the_pool() {
        // A model whose weights do not match its architecture makes the
        // forward pass panic. With a single worker this must surface as
        // EncodeError on the calling side — not hang the caller, and not
        // leave the pool dead for subsequent well-formed requests.
        let config = EncoderConfig::TreeLstm(TreeLstmConfig {
            embed_dim: 6,
            hidden: 6,
            layers: 1,
            direction: Direction::Uni,
            sigmoid_candidate: false,
        });
        let mut scratch = Params::new();
        let comparator = Comparator::new(&config, &mut scratch, &mut StdRng::seed_from_u64(1));
        // Pair the comparator with an EMPTY parameter store: every
        // ctx.param() lookup panics inside the encoder.
        let corrupt = TrainedModel {
            comparator,
            params: Params::new(),
        };
        let mut reg = ModelRegistry::new();
        reg.register("corrupt", 1, corrupt);
        let corrupt = reg
            .resolve(&crate::registry::ModelSelector {
                name: Some("corrupt".into()),
                version: None,
            })
            .unwrap();

        let pool = pool(1, 2);
        let graphs = sample_graphs(5);
        let err = pool.encode(&corrupt, &graphs).unwrap_err();
        assert!(!err.is_shed(), "a panic is a failure, not backpressure");
        assert!(
            err.message().contains("unknown parameter"),
            "panic payload should surface: {err}"
        );

        // The single worker survived: a healthy model still encodes.
        let healthy = tiny_serve_model(9);
        let codes = pool.encode(&healthy, &graphs).unwrap();
        assert_eq!(codes.len(), 5);
        // The panicked shard drained fully — nothing left pending.
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn shard_capacity_sheds_oversized_requests_without_queueing() {
        let model = tiny_serve_model(11);
        let pool = EncodePool::new(&BatchConfig {
            workers: 1,
            max_batch: 4,
            shard_capacity: 4,
        });
        // Over-capacity request: refused atomically, nothing enqueued —
        // and since 5 > 4 can never fit, the message must say "split",
        // not invite a futile retry.
        let err = pool.encode(&model, &sample_graphs(5)).unwrap_err();
        assert!(err.is_shed(), "admission refusal must be a shed: {err}");
        assert!(err.message().contains("split"), "got {err}");
        assert_eq!(pool.queue_depth(), 0, "refusal must not leave jobs behind");
        assert_eq!(pool.stats().jobs, 0);
        // At-capacity request: admitted and served.
        assert_eq!(pool.encode(&model, &sample_graphs(4)).unwrap().len(), 4);
        // capacity 0 = unbounded.
        let unbounded = EncodePool::new(&BatchConfig {
            workers: 1,
            max_batch: 4,
            shard_capacity: 0,
        });
        assert_eq!(
            unbounded.encode(&model, &sample_graphs(9)).unwrap().len(),
            9
        );
    }

    #[test]
    fn full_shard_sheds_retryable_requests() {
        // A request that WOULD fit an empty shard but not the current
        // backlog is shed with a retry hint (unlike the never-fits case,
        // which says "split"). One worker chews 1-tree batches of heavy
        // graphs; while ≥ 2 of the 4-job backlog remains, a 3-tree
        // request cannot fit the capacity-4 shard. On a loaded box the
        // observer can lose the scheduling race and find the backlog
        // already drained — re-arm with a fresh backlog instead of
        // spinning on a depth that will never rise again.
        let model = tiny_serve_model(15);
        let pool = Arc::new(EncodePool::new(&BatchConfig {
            workers: 1,
            max_batch: 1,
            shard_capacity: 4,
        }));
        let shed = std::thread::scope(|scope| {
            for _attempt in 0..20 {
                let bg_pool = Arc::clone(&pool);
                let bg_model = Arc::clone(&model);
                let backlog = heavy_graphs(4);
                let handle = scope.spawn(move || bg_pool.encode(&bg_model, &backlog).unwrap());
                // Give the background enqueue a bounded window to show
                // up before probing (never an unbounded spin: on a
                // 1-core box the worker may drain first and the depth
                // would then never rise again this attempt).
                for _ in 0..1000 {
                    if pool.queue_depth() >= 2 {
                        break;
                    }
                    std::thread::yield_now();
                }
                let mut observed = None;
                if pool.queue_depth() >= 2 {
                    // An Ok here means the backlog drained between the
                    // depth check and admission: attempt lost, re-arm.
                    if let Err(e) = pool.encode(&model, &sample_graphs(3)) {
                        observed = Some(e);
                    }
                }
                handle.join().unwrap();
                if observed.is_some() {
                    return observed;
                }
            }
            None
        });
        let err = shed.expect("never observed a full shard in 20 attempts");
        assert!(err.is_shed(), "{err}");
        assert!(err.message().contains("retry later"), "got {err}");
    }

    #[test]
    fn idle_workers_steal_from_a_saturated_shard() {
        // One hot model, two workers: worker 0 prefers the only shard,
        // worker 1 has no preferred work and must steal from it to help
        // drain the backlog.
        let model = tiny_serve_model(12);
        let pool = Arc::new(pool(2, 4));
        let graphs = heavy_graphs(24);
        std::thread::scope(|scope| {
            let handles: Vec<_> = graphs
                .chunks(8)
                .map(|chunk| {
                    let pool = Arc::clone(&pool);
                    let model = Arc::clone(&model);
                    let chunk = chunk.to_vec();
                    scope.spawn(move || pool.encode(&model, &chunk).unwrap())
                })
                .collect();
            for h in handles {
                let _ = h.join().unwrap();
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.jobs, 24);
        assert!(
            stats.steals >= 1,
            "worker 1 should have stolen from the hot shard (steals = {})",
            stats.steals
        );
    }

    #[test]
    fn cold_shard_is_not_starved_by_a_hot_backlog() {
        // The starvation story the sharding exists for: a single worker,
        // a hot model with a deep backlog, and one cold request arriving
        // after it. In FIFO order the cold request would wait for the
        // whole hot drain; with per-model shards and rotation it is
        // served after at most one in-flight batch — i.e. it must
        // complete while the hot backlog is still being chewed.
        use std::sync::atomic::AtomicBool;
        let hot = named_serve_model("hot", 13);
        let cold = named_serve_model("cold", 14);
        let pool = Arc::new(pool(1, 4));
        let hot_done = Arc::new(AtomicBool::new(false));
        let hot_backlog = heavy_graphs(40);
        let cold_graphs = sample_graphs(1);
        std::thread::scope(|scope| {
            let hot_pool = Arc::clone(&pool);
            let hot_model = Arc::clone(&hot);
            let done = Arc::clone(&hot_done);
            scope.spawn(move || {
                let _ = hot_pool.encode(&hot_model, &hot_backlog).unwrap();
                done.store(true, Ordering::SeqCst);
            });
            // Let the hot backlog enqueue and the worker sink its teeth in.
            while pool.stats().batches == 0 {
                std::thread::yield_now();
            }
            let cold_codes = pool.encode(&cold, &cold_graphs).unwrap();
            assert_eq!(cold_codes.len(), 1);
            assert!(
                !hot_done.load(Ordering::SeqCst),
                "cold request should finish while the hot backlog is still draining \
                 (it waited for the full hot queue — starvation)"
            );
        });
    }
}
