//! The source memo: resubmitted source text → its already-parsed graph.
//!
//! The embedding cache is keyed by canonical AST hash, so without this
//! layer even a fully cached request lexes, parses and flattens both of
//! its sources just to rediscover the keys it found last time — ~48 µs
//! per source against 2 µs of model work. Parsing is a pure function of
//! the text, so a bounded map from the text itself to the
//! `Arc<AstGraph>` it produced (whose canonical hash is memoized inside
//! the graph) skips all of that for byte-identical resubmissions — the
//! traffic performance-aware development generates.
//!
//! * **Keyed by the text.** A hit is full byte equality by construction
//!   (`HashMap<Arc<str>, _>` looked up by `&str`), so two programs can
//!   never alias, and the index keeps std's randomly keyed hasher, so a
//!   client cannot aim collisions at it. Whitespace or comment variants
//!   of one program are different keys: they miss here, parse, and meet
//!   again in the embedding cache under their shared canonical hash.
//! * **Bounded twice.** At most as many entries as the embedding cache
//!   has slots (capacity 0 disables both), and at most
//!   [`MEMO_SOURCE_BYTES`] of source text; least-recently-used entries
//!   go first, and a source larger than its stripe's share of the byte
//!   budget is simply not memoized.
//! * **Nothing invalidates it but [`SourceMemo::clear`]**: it does not
//!   depend on any model, so registrations and hot swaps leave it alone,
//!   and it is process-local state that no snapshot carries.
//! * **Only successes.** A failed parse is never stored; resubmitting
//!   bad source re-parses it to the same typed error.
//!
//! Striped like the embedding cache; the stripe lock is a lockdep leaf
//! (`serve.memo.stripe`): nothing is acquired under it and it is never
//! held across a parse.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;

use ccsa_cppast::AstGraph;

use crate::cache::DEFAULT_CACHE_STRIPES;
use crate::lockdep::DMutex;
use crate::lru::Lru;

/// The most source text the memo holds, summed over its entries. The
/// graphs held beside it weigh roughly ten times their source (≈ 55
/// bytes per node, a node per ≈ 5 bytes of text), so this bounds the
/// layer at about 180 MiB however large the submitted programs are; at
/// the typical 1 KiB per program the entry bound is reached long before.
pub(crate) const MEMO_SOURCE_BYTES: usize = 16 << 20;

struct Stripe {
    capacity: usize,
    lru: Lru<Arc<str>, Arc<AstGraph>>,
    /// Source bytes held, maintained on every insert and eviction.
    bytes: usize,
}

/// A bounded, striped LRU from source text to parsed graph.
pub(crate) struct SourceMemo {
    stripes: Vec<DMutex<Stripe>>,
    /// Picks the stripe; each stripe's index hashes with its own keys.
    stripe_hasher: RandomState,
    /// Each stripe's share of the source-byte budget.
    stripe_bytes: usize,
}

impl SourceMemo {
    /// A memo of at most `capacity` entries and [`MEMO_SOURCE_BYTES`] of
    /// source, both split evenly over the stripes. Capacity 0 disables
    /// it: every lookup misses without hashing, nothing is stored.
    pub(crate) fn new(capacity: usize) -> SourceMemo {
        let stripes = DEFAULT_CACHE_STRIPES.min(capacity);
        SourceMemo::with_bounds(capacity, stripes, MEMO_SOURCE_BYTES)
    }

    fn with_bounds(capacity: usize, n: usize, source_bytes: usize) -> SourceMemo {
        SourceMemo {
            stripe_bytes: source_bytes / n.max(1),
            stripes: (0..n)
                .map(|i| {
                    let per = capacity / n + usize::from(i < capacity % n);
                    DMutex::new(
                        "serve.memo.stripe",
                        Stripe {
                            capacity: per,
                            lru: Lru::with_capacity(per.min(1 << 16)),
                            bytes: 0,
                        },
                    )
                })
                .collect(),
            stripe_hasher: RandomState::new(),
        }
    }

    fn stripe_for(&self, source: &str) -> Option<&DMutex<Stripe>> {
        if self.stripes.is_empty() {
            return None;
        }
        let ix = self.stripe_hasher.hash_one(source) % self.stripes.len() as u64;
        Some(&self.stripes[ix as usize])
    }

    /// The graph `source` parsed to last time, if it is still held.
    pub(crate) fn get(&self, source: &str) -> Option<Arc<AstGraph>> {
        let mut stripe = self
            .stripe_for(source)?
            .lock()
            .expect("memo stripe poisoned");
        stripe.lru.get(source).map(|graph| Arc::clone(graph))
    }

    /// Remembers that `source` parses to `graph`, evicting the stripe's
    /// least-recently-used entries until both bounds hold again.
    pub(crate) fn insert(&self, source: &str, graph: &Arc<AstGraph>) {
        if source.len() > self.stripe_bytes {
            return;
        }
        let Some(stripe) = self.stripe_for(source) else {
            return;
        };
        // The copy of the text happens before the lock is taken.
        let key: Arc<str> = Arc::from(source);
        let mut stripe = stripe.lock().expect("memo stripe poisoned");
        if stripe.lru.get(source).is_some() {
            return; // a racing request memoized it first
        }
        while stripe.lru.len() >= stripe.capacity || stripe.bytes + source.len() > self.stripe_bytes
        {
            let (evicted, _) = stripe.lru.pop_lru().expect("bounds exceeded, so not empty");
            stripe.bytes -= evicted.len();
        }
        stripe.bytes += source.len();
        stripe.lru.insert(key, Arc::clone(graph));
    }

    /// Forgets everything.
    pub(crate) fn clear(&self) {
        for stripe in &self.stripes {
            let mut stripe = stripe.lock().expect("memo stripe poisoned");
            stripe.lru.clear();
            stripe.bytes = 0;
        }
    }

    /// `(entries, source bytes)` held right now.
    #[cfg(test)]
    fn usage(&self) -> (usize, usize) {
        self.stripes.iter().fold((0, 0), |(len, bytes), stripe| {
            let stripe = stripe.lock().expect("memo stripe poisoned");
            (len + stripe.lru.len(), bytes + stripe.bytes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(source: &str) -> Arc<AstGraph> {
        let program = ccsa_cppast::parse_program(source).expect("test source parses");
        Arc::new(AstGraph::from_program(&program))
    }

    fn program(i: usize) -> String {
        format!("int main() {{ int v{i} = {i}; return v{i}; }}")
    }

    #[test]
    fn hits_hand_back_the_same_graph_and_capacity_zero_stores_nothing() {
        let memo = SourceMemo::new(8);
        let source = program(1);
        assert!(memo.get(&source).is_none());
        let graph = graph_of(&source);
        memo.insert(&source, &graph);
        assert!(Arc::ptr_eq(&memo.get(&source).unwrap(), &graph));
        // One byte of difference is a different key.
        assert!(memo.get(&format!("{source} ")).is_none());
        // A second insert of a present key keeps the first graph.
        memo.insert(&source, &graph_of(&source));
        assert!(Arc::ptr_eq(&memo.get(&source).unwrap(), &graph));
        assert_eq!(memo.usage(), (1, source.len()));
        memo.clear();
        assert!(memo.get(&source).is_none());
        assert_eq!(memo.usage(), (0, 0));

        let off = SourceMemo::new(0);
        off.insert(&source, &graph);
        assert!(off.get(&source).is_none());
        assert_eq!(off.usage(), (0, 0));
    }

    #[test]
    fn eviction_keeps_entries_and_bytes_within_bounds() {
        // Ten times capacity in distinct sources: the entry bound holds
        // throughout, and the most recent source is always still there.
        let capacity = 24;
        let memo = SourceMemo::new(capacity);
        let graph = graph_of(&program(0));
        for i in 0..10 * capacity {
            let source = program(i);
            memo.insert(&source, &graph);
            let (len, bytes) = memo.usage();
            assert!(len <= capacity, "{len} entries after {i} inserts");
            assert!(bytes <= MEMO_SOURCE_BYTES);
            assert!(memo.get(&source).is_some());
        }
        assert!(
            memo.get(&program(0)).is_none(),
            "the oldest entry was evicted"
        );

        // The byte bound, on one stripe with room for 100 entries but
        // only 300 bytes: 100-byte sources fit three at a time, and one
        // larger than the budget is not memoized at all.
        let memo = SourceMemo::with_bounds(100, 1, 300);
        for i in 0..10 {
            let source = format!("{i:0100}"); // 100 bytes each
            memo.insert(&source, &graph);
            let (len, bytes) = memo.usage();
            assert_eq!((len, bytes), ((i + 1).min(3), 100 * (i + 1).min(3)));
        }
        memo.insert(&" ".repeat(301), &graph);
        assert_eq!(memo.usage(), (3, 300), "an oversize source evicts nothing");
    }

    #[test]
    fn two_threads_hammering_one_stripe_stay_consistent() {
        // One stripe of four slots, two threads cycling through six
        // sources each way: every hit must be the graph of exactly the
        // text asked for, and the bounds hold at the end.
        let memo = SourceMemo::with_bounds(4, 1, MEMO_SOURCE_BYTES);
        let sources: Vec<String> = (0..6)
            .map(|i| format!("int main() {{ {} return 0; }}", "f();".repeat(i)))
            .collect();
        let graphs: Vec<Arc<AstGraph>> = sources.iter().map(|s| graph_of(s)).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for thread in 0..2 {
                let (memo, sources, graphs, start) = (&memo, &sources, &graphs, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..2000 {
                        let i = if thread == 0 {
                            round % 6
                        } else {
                            5 - round % 6
                        };
                        match memo.get(&sources[i]) {
                            Some(hit) => assert_eq!(*hit, *graphs[i]),
                            None => memo.insert(&sources[i], &graphs[i]),
                        }
                    }
                });
            }
        });
        let (len, bytes) = memo.usage();
        assert!(len <= 4);
        assert!(bytes <= 4 * sources.iter().map(String::len).max().unwrap());
    }
}
