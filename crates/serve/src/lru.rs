//! The O(1) least-recently-used map under both serving caches: the
//! embedding cache's stripes ([`crate::cache`]) and the source memo's
//! ([`crate::memo`]).
//!
//! A dense slab of nodes threaded onto an intrusive doubly-linked recency
//! list, plus a `HashMap` from key to slab index. Lookup-with-promotion,
//! insert and eviction are all O(1); eviction fills the hole with the
//! slab's last node, so there is no free list and no vacant slot.
//! Capacity policy (entry counts, byte budgets) is the caller's: this
//! type only orders entries and hands back the oldest.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A map that remembers the order its entries were last touched in.
pub(crate) struct Lru<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map with room for `capacity` keys before the index
    /// rehashes.
    pub(crate) fn with_capacity(capacity: usize) -> Lru<K, V> {
        Lru {
            map: HashMap::with_capacity(capacity),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Looks `key` up, promoting the entry to most-recently-used.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let ix = *self.map.get(key)?;
        self.detach(ix);
        self.attach_front(ix);
        Some(&mut self.slab[ix].value)
    }

    /// Looks `key` up without touching recency.
    pub(crate) fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key).map(|&ix| &self.slab[ix].value)
    }

    /// Inserts an entry as most-recently-used. The key must be absent
    /// (callers refresh a present entry through [`Lru::get`]).
    pub(crate) fn insert(&mut self, key: K, value: V) {
        let ix = self.slab.len();
        let displaced = self.map.insert(key.clone(), ix);
        debug_assert!(displaced.is_none(), "Lru::insert of a present key");
        self.slab.push(Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        });
        self.attach_front(ix);
    }

    /// Removes and returns the least-recently-used entry.
    pub(crate) fn pop_lru(&mut self) -> Option<(K, V)> {
        let ix = self.tail;
        if ix == NIL {
            return None;
        }
        self.detach(ix);
        let node = self.slab.swap_remove(ix);
        self.map.remove(&node.key);
        // `swap_remove` moved the last node into the hole: repoint its
        // index entry and its neighbours at the new slot.
        if let Some(moved) = self.slab.get(ix) {
            let (prev, next) = (moved.prev, moved.next);
            *self
                .map
                .get_mut(&moved.key)
                .expect("every slab node is indexed") = ix;
            match prev {
                NIL => self.head = ix,
                p => self.slab[p].next = ix,
            }
            match next {
                NIL => self.tail = ix,
                n => self.slab[n].prev = ix,
            }
        }
        Some((node.key, node.value))
    }

    /// Entries from least- to most-recently used.
    pub(crate) fn iter_oldest_first(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut ix = self.tail;
        std::iter::from_fn(move || {
            let node = self.slab.get(ix)?;
            ix = node.prev;
            Some((&node.key, &node.value))
        })
    }

    fn detach(&mut self, ix: usize) {
        let (prev, next) = (self.slab[ix].prev, self.slab[ix].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == ix {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == ix {
            self.tail = prev;
        }
        self.slab[ix].prev = NIL;
        self.slab[ix].next = NIL;
    }

    fn attach_front(&mut self, ix: usize) {
        self.slab[ix].prev = NIL;
        self.slab[ix].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = ix;
        }
        self.head = ix;
        if self.tail == NIL {
            self.tail = ix;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(lru: &Lru<u32, &'static str>) -> Vec<u32> {
        lru.iter_oldest_first().map(|(k, _)| *k).collect()
    }

    #[test]
    fn get_promotes_and_pop_takes_the_oldest() {
        let mut lru = Lru::with_capacity(4);
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.insert(3, "c");
        assert_eq!(order(&lru), vec![1, 2, 3]);
        assert_eq!(lru.get(&1).copied(), Some("a"));
        assert_eq!(order(&lru), vec![2, 3, 1]);
        assert_eq!(lru.peek(&2), Some(&"b"));
        assert_eq!(order(&lru), vec![2, 3, 1], "peek leaves recency alone");
        assert_eq!(lru.pop_lru(), Some((2, "b")));
        assert_eq!(lru.get(&2), None);
        assert_eq!(order(&lru), vec![3, 1]);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn eviction_keeps_index_and_links_consistent() {
        // Every pop moves the slab's last node into the hole; replay a
        // long mixed sequence against a plain Vec model of the order.
        let mut lru: Lru<u32, u32> = Lru::with_capacity(8);
        let mut model: Vec<u32> = Vec::new(); // oldest first
        let mut state = 0x9e37_79b9u32;
        for step in 0..4000u32 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let key = (state >> 16) % 24;
            match lru.get(&key) {
                Some(v) => {
                    assert_eq!(*v, key * 7);
                    model.retain(|&k| k != key);
                    model.push(key);
                }
                None => {
                    if lru.len() == 8 {
                        let (old, v) = lru.pop_lru().unwrap();
                        assert_eq!((old, v), (model.remove(0), old * 7));
                    }
                    lru.insert(key, key * 7);
                    model.push(key);
                }
            }
            if step % 97 == 0 {
                let got: Vec<u32> = lru.iter_oldest_first().map(|(k, _)| *k).collect();
                assert_eq!(got, model);
            }
        }
        lru.clear();
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.pop_lru(), None);
        lru.insert(5, 35);
        assert_eq!(lru.peek(&5), Some(&35));
    }
}
