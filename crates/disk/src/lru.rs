//! A small, allocation-friendly LRU cache used for page frames and
//! decoded node records.
//!
//! Implemented as a `HashMap` keyed by `K` plus an intrusive doubly-linked
//! list threaded through a slab of entries — `O(1)` get/insert/evict, no
//! per-operation allocation once warm.
//!
//! The map hashes with `KeyHasher`, one multiply per integer key: both
//! caches of this crate are keyed by `u64` (page index, record offset)
//! and are looked up once per page touch and once per visited node, so
//! the hash sits on a query's hot path. The keys are positions in files
//! this process wrote, and a cache holds at most `capacity` of them, so
//! there is no flooding for a keyed hash to defend against.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use warptree_obs::Counter;

const NIL: usize = usize::MAX;

/// Multiply-and-fold hasher for small integer keys. The product's high
/// half is well mixed and the low half is not, and the map reads both
/// (bucket index from the low bits, control byte from the top seven),
/// so `finish` folds the high half down.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An LRU cache holding at most `capacity` entries.
///
/// ```
/// use warptree_disk::lru::LruCache;
/// let mut c = LruCache::new(2);
/// c.insert("a", 1);
/// c.insert("b", 2);
/// c.get(&"a");            // refresh "a"
/// c.insert("c", 3);       // evicts "b", the least recently used
/// assert_eq!(c.get(&"b"), None);
/// assert_eq!(c.get(&"a"), Some(&1));
/// ```
pub struct LruCache<K, V> {
    map: HashMap<K, usize, BuildHasherDefault<KeyHasher>>,
    slab: Vec<Entry<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
    /// This cache's own lookup totals — what [`hits`](Self::hits) and
    /// [`misses`](Self::misses) report, whoever else is listening.
    hits: u64,
    misses: u64,
    /// Where each lookup is also reported (no-ops until
    /// [`set_counters`](Self::set_counters)). Several caches may
    /// forward to the same registry cells; their counts sum there.
    forward_hits: Counter,
    forward_misses: Counter,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache with the given capacity (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            map: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            forward_hits: Counter::noop(),
            forward_misses: Counter::noop(),
        }
    }

    /// Forwards every later lookup to `hits` / `misses` as well —
    /// typically registry-backed handles, so the cache meters into a
    /// shared [`MetricsRegistry`](warptree_obs::MetricsRegistry). The
    /// cache's own totals keep counting from where they were; lookups
    /// made before the call are not replayed into the new counters.
    pub fn set_counters(&mut self, hits: Counter, misses: Counter) {
        self.forward_hits = hits;
        self.forward_misses = misses;
    }

    /// Total lookups this cache served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups on this cache that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking it most-recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.forward_hits.incr();
                if self.head != idx {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                Some(&self.slab[idx].value)
            }
            None => {
                self.misses += 1;
                self.forward_misses.incr();
                None
            }
        }
    }

    /// Inserts `key -> value`, evicting the least-recently-used entry if
    /// full. Replaces the value if the key is present. Returns the value
    /// this displaced — the evicted entry's or the replaced one — so a
    /// caller with expensive values (page frames) can reuse it.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&idx) = self.map.get(&key) {
            let old = std::mem::replace(&mut self.slab[idx].value, value);
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return Some(old);
        }
        let (idx, displaced) = if self.slab.len() < self.capacity {
            self.slab.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            (self.slab.len() - 1, None)
        } else {
            // Evict the tail.
            let idx = self.tail;
            self.unlink(idx);
            let old_key = std::mem::replace(&mut self.slab[idx].key, key.clone());
            self.map.remove(&old_key);
            let old = std::mem::replace(&mut self.slab[idx].value, value);
            (idx, Some(old))
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        displaced
    }

    /// Drops all entries, keeping the counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn counters_can_meter_into_a_registry() {
        // Two caches metering into the same registry cells: the registry
        // sees the sum, each cache still reports its own traffic, and
        // lookups made before the wiring stay local.
        let reg = warptree_obs::MetricsRegistry::new();
        let (mut a, mut b) = (LruCache::new(2), LruCache::new(2));
        a.insert(1, "a");
        a.get(&1);
        for c in [&mut a, &mut b] {
            c.set_counters(reg.counter("cache.hits"), reg.counter("cache.misses"));
        }
        a.get(&1);
        a.get(&2);
        b.get(&7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["cache.hits"], 1);
        assert_eq!(snap.counters["cache.misses"], 2);
        assert_eq!((a.hits(), a.misses()), (2, 1));
        assert_eq!((b.hits(), b.misses()), (0, 1));
    }

    #[test]
    fn insert_returns_what_it_displaced() {
        let mut c = LruCache::new(2);
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.insert(2, 20), None);
        assert_eq!(c.insert(1, 11), Some(10)); // replaced in place
        assert_eq!(c.insert(3, 30), Some(20)); // 2 was least recently used
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn key_hasher_spreads_page_strided_offsets() {
        // Record offsets cluster by page and page indexes are dense:
        // both halves of the hash the map reads must vary over them.
        use std::collections::HashSet;
        let hash = |v: u64| {
            let mut h = KeyHasher::default();
            h.write_u64(v);
            h.finish()
        };
        let (mut low, mut top) = (HashSet::new(), HashSet::new());
        for i in 0..4096u64 {
            for key in [i, i * 8188, i * 64] {
                low.insert(hash(key) & 0xFFF);
                top.insert(hash(key) >> 57);
            }
        }
        assert!(low.len() > 3500, "low bits collapse: {}", low.len());
        assert_eq!(top.len(), 128, "control bits collapse");
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(&1); // 2 is now LRU
        c.insert(3, 30);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh 1; 2 becomes LRU
        c.insert(3, 30);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        c.insert('a', 1);
        c.insert('b', 2);
        assert_eq!(c.get(&'a'), None);
        assert_eq!(c.get(&'b'), Some(&2));
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.insert(i, i * 2);
        }
        assert_eq!(c.len(), 8);
        for i in 992..1000 {
            assert_eq!(c.get(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        c.clear();
        assert!(c.is_empty());
        c.insert(2, 2);
        assert_eq!(c.get(&2), Some(&2));
    }
}
