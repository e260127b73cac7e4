//! Exact recency order over weighted entries, with no policy in it.
//!
//! Every per-node cache in the tree — the block cache's two tiers and its
//! ghost, the resident footers, a leaf's SmartIndex entries — evicts the
//! least recently used entry once some byte or key bound is passed, and
//! each has its own idea of the bound, of what happens to a victim and of
//! what may not be evicted at all. [`Lru`] is the part they share: a map
//! whose entries also sit on one doubly linked list from least to most
//! recently used, and the sum of the weights their owners gave them.
//! Capacity loops, admission, pins and expiry stay with the caller.
//!
//! The list is threaded through a slab by index, so an entry has exactly
//! one recency record for as long as it lives, a touch relinks two
//! neighbours and allocates nothing, and the order is the order of the
//! last `insert` or `get` of each key with nothing to compact.

use crate::hash::FxHashMap;
use std::borrow::Borrow;
use std::hash::Hash;

/// "No slot": the `prev` of the coldest entry, the `next` of the hottest.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    weight: u64,
    /// The next colder entry.
    prev: usize,
    /// The next hotter entry.
    next: usize,
}

/// A map in recency order that knows the total weight it holds.
#[derive(Debug)]
pub struct Lru<K, V> {
    index: FxHashMap<K, usize>,
    /// `None` slots are free and listed in `free`.
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    coldest: usize,
    hottest: usize,
    weight: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            index: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            coldest: NIL,
            hottest: NIL,
            weight: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Sum of the weights of the entries held.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    fn slot(&self, at: usize) -> &Slot<K, V> {
        self.slots[at].as_ref().expect("linked slot is occupied")
    }

    fn slot_mut(&mut self, at: usize) -> &mut Slot<K, V> {
        self.slots[at].as_mut().expect("linked slot is occupied")
    }

    fn unlink(&mut self, at: usize) {
        let (prev, next) = (self.slot(at).prev, self.slot(at).next);
        match prev {
            NIL => self.coldest = next,
            p => self.slot_mut(p).next = next,
        }
        match next {
            NIL => self.hottest = prev,
            n => self.slot_mut(n).prev = prev,
        }
    }

    fn link_hottest(&mut self, at: usize) {
        let prev = self.hottest;
        let slot = self.slot_mut(at);
        (slot.prev, slot.next) = (prev, NIL);
        match prev {
            NIL => self.coldest = at,
            p => self.slot_mut(p).next = at,
        }
        self.hottest = at;
    }

    /// Unlinks and frees an occupied slot; taking its key out of the index
    /// is the caller's.
    fn release(&mut self, at: usize) -> (K, V) {
        self.unlink(at);
        let slot = self.slots[at].take().expect("linked slot is occupied");
        self.free.push(at);
        self.weight -= slot.weight;
        (slot.key, slot.value)
    }

    /// The value under `key`, which becomes the most recently used entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let at = *self.index.get(key)?;
        if self.hottest != at {
            self.unlink(at);
            self.link_hottest(at);
        }
        Some(&mut self.slot_mut(at).value)
    }

    /// The value under `key`; the order does not change.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.get(key).map(|&at| &self.slot(at).value)
    }

    /// Puts `value` under `key` as the most recently used entry and
    /// returns the value it replaced, if any.
    pub fn insert(&mut self, key: K, value: V, weight: u64) -> Option<V> {
        let old = self.remove(&key);
        let slot = Some(Slot {
            key: key.clone(),
            value,
            weight,
            prev: NIL,
            next: NIL,
        });
        let at = match self.free.pop() {
            Some(at) => {
                self.slots[at] = slot;
                at
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.link_hottest(at);
        self.index.insert(key, at);
        self.weight += weight;
        old
    }

    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let at = self.index.remove(key)?;
        Some(self.release(at).1)
    }

    /// Removes the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        self.pop_lru_where(|_, _| true)
    }

    /// Removes the least recently used entry that `accept` takes; the
    /// entries it turns down stay where they are.
    pub fn pop_lru_where(&mut self, mut accept: impl FnMut(&K, &V) -> bool) -> Option<(K, V)> {
        let (at, _) = self
            .walk()
            .find(|(_, slot)| accept(&slot.key, &slot.value))?;
        let (key, value) = self.release(at);
        self.index.remove(&key);
        Some((key, value))
    }

    fn walk(&self) -> impl Iterator<Item = (usize, &Slot<K, V>)> {
        let mut at = self.coldest;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let here = (at, self.slot(at));
            at = here.1.next;
            Some(here)
        })
    }

    /// Entries from least to most recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.walk().map(|(_, slot)| (&slot.key, &slot.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(lru: &Lru<&'static str, u32>) -> Vec<&'static str> {
        lru.iter().map(|(k, _)| *k).collect()
    }

    #[test]
    fn get_and_insert_move_to_the_hot_end_and_peek_does_not() {
        let mut lru = Lru::new();
        for (k, w) in [("a", 1), ("b", 2), ("c", 3)] {
            assert_eq!(lru.insert(k, 0u32, w), None);
        }
        assert_eq!(order(&lru), ["a", "b", "c"]);
        assert!(lru.peek("a").is_some());
        assert_eq!(order(&lru), ["a", "b", "c"]);
        *lru.get("a").unwrap() += 7;
        assert_eq!(order(&lru), ["b", "c", "a"]);
        // A re-insert replaces value and weight and lands hot.
        assert_eq!(lru.insert("b", 1, 10), Some(0));
        assert_eq!(order(&lru), ["c", "a", "b"]);
        assert_eq!((lru.len(), lru.weight()), (3, 14));
        assert_eq!(lru.pop_lru(), Some(("c", 0)));
        assert_eq!(lru.remove("a"), Some(7));
        assert_eq!(lru.pop_lru(), Some(("b", 1)));
        assert_eq!(lru.pop_lru(), None);
        assert_eq!((lru.len(), lru.weight()), (0, 0));
    }

    #[test]
    fn pop_lru_where_takes_the_coldest_match_and_leaves_the_rest_in_place() {
        let mut lru = Lru::new();
        for (k, v) in [("a", 1u32), ("b", 2), ("c", 1), ("d", 2)] {
            lru.insert(k, v, 1);
        }
        assert_eq!(lru.pop_lru_where(|_, v| *v == 2), Some(("b", 2)));
        assert_eq!(order(&lru), ["a", "c", "d"]);
        assert_eq!(lru.pop_lru_where(|_, v| *v == 3), None);
        assert_eq!(order(&lru), ["a", "c", "d"]);
    }

    /// One recency record per entry however often it is touched, and the
    /// slab is reused rather than grown.
    #[test]
    fn ten_thousand_hits_leave_one_record_per_entry() {
        let mut lru = Lru::new();
        lru.insert("hot", 0u32, 1);
        lru.insert("cold", 0, 1);
        for _ in 0..10_000 {
            *lru.get("hot").unwrap() += 1;
        }
        for round in 0..100 {
            lru.insert("churn", round, 1);
            lru.remove("churn");
        }
        assert_eq!(lru.iter().count(), lru.len());
        assert_eq!(lru.slots.len(), 3, "records == entries, plus one reused");
        assert_eq!(lru.pop_lru(), Some(("cold", 0)));
        assert_eq!(lru.pop_lru(), Some(("hot", 10_000)));
    }
}
