//! The two small, allocation-friendly caches of this crate: [`LruCache`]
//! for decoded node records and [`TwoQueue`], the page pool's 2Q.
//!
//! Each is a `HashMap` keyed by `K` plus intrusive doubly-linked lists
//! threaded through a slab of entries — `O(1)` get/insert/evict, no
//! per-operation allocation once warm.
//!
//! The maps hash with `KeyHasher`, one multiply per integer key: both
//! caches are keyed by `u64` (page index, record offset) and the pool is
//! looked up once per visited node, so the hash sits on a query's hot
//! path. The keys are positions in files this process wrote, and a cache
//! holds a bounded number of them, so there is no flooding for a keyed
//! hash to defend against.

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

/// A cache's lookup counts.
struct Lookups {
    /// The cache's own totals — what its `hits()` and `misses()` report,
    /// whoever else is listening.
    hits: u64,
    misses: u64,
    /// Where each lookup is also reported (no-ops until the cache's
    /// `set_counters`). Several caches may forward to the same registry
    /// cells; their counts sum there.
    forward_hits: Counter,
    forward_misses: Counter,
}

impl Lookups {
    fn new() -> Self {
        Lookups {
            hits: 0,
            misses: 0,
            forward_hits: Counter::noop(),
            forward_misses: Counter::noop(),
        }
    }

    fn hit(&mut self) {
        self.hits += 1;
        self.forward_hits.incr();
    }

    fn miss(&mut self) {
        self.misses += 1;
        self.forward_misses.incr();
    }

    fn forward_to(&mut self, hits: Counter, misses: Counter) {
        self.forward_hits = hits;
        self.forward_misses = misses;
    }
}

/// One doubly-linked list through a slab of [`Entry`]s, most recently
/// pushed first. Several lists may share a slab; an entry is on at most
/// one of them.
struct List {
    head: usize,
    tail: usize,
    len: usize,
}

impl List {
    const fn new() -> Self {
        List {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn unlink<K, V>(&mut self, slab: &mut [Entry<K, V>], idx: usize) {
        let (prev, next) = (slab[idx].prev, slab[idx].next);
        if prev != NIL {
            slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.len -= 1;
    }

    fn push_front<K, V>(&mut self, slab: &mut [Entry<K, V>], idx: usize) {
        slab[idx].prev = NIL;
        slab[idx].next = self.head;
        if self.head != NIL {
            slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.len += 1;
    }

    /// Makes `idx`, an entry of this list, its most recent.
    fn touch<K, V>(&mut self, slab: &mut [Entry<K, V>], idx: usize) {
        if self.head != idx {
            self.unlink(slab, idx);
            self.push_front(slab, idx);
        }
    }
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
    list: List,
    capacity: usize,
    lookups: Lookups,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache with the given capacity (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            map: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            list: List::new(),
            capacity,
            lookups: Lookups::new(),
        }
    }

    /// Forwards every later lookup to `hits` / `misses` as well —
    /// typically registry-backed handles, so the cache meters into a
    /// shared [`MetricsRegistry`](warptree_obs::MetricsRegistry). The
    /// cache's own totals keep counting from where they were; lookups
    /// made before the call are not replayed into the new counters.
    pub fn set_counters(&mut self, hits: Counter, misses: Counter) {
        self.lookups.forward_to(hits, misses);
    }

    /// Total lookups this cache served.
    pub fn hits(&self) -> u64 {
        self.lookups.hits
    }

    /// Total lookups on this cache that found nothing.
    pub fn misses(&self) -> u64 {
        self.lookups.misses
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.lookups.hit();
                self.list.touch(&mut self.slab, idx);
                Some(&self.slab[idx].value)
            }
            None => {
                self.lookups.miss();
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
            self.list.touch(&mut self.slab, idx);
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
            let idx = self.list.tail;
            self.list.unlink(&mut self.slab, idx);
            let old_key = std::mem::replace(&mut self.slab[idx].key, key.clone());
            self.map.remove(&old_key);
            let old = std::mem::replace(&mut self.slab[idx].value, value);
            (idx, Some(old))
        };
        self.map.insert(key, idx);
        self.list.push_front(&mut self.slab, idx);
        displaced
    }

    /// Drops all entries, keeping the counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.list = List::new();
    }
}

/// Probation's share of a [`TwoQueue`]'s capacity is one in this many.
const PROBATION_DIV: usize = 16;
/// A [`TwoQueue`] remembers one ghost key for every this many values it
/// may hold.
const GHOST_DIV: usize = 2;

/// Which of a [`TwoQueue`]'s lists an entry is on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Queue {
    Probation,
    Ghost,
    Hot,
}

/// What a [`TwoQueue`] keeps under a key: the list it is on, and the
/// cached value unless it is a ghost.
struct Slot<V> {
    on: Queue,
    cached: Option<V>,
}

/// A 2Q cache (Johnson & Shasha, VLDB 1994) of at most `capacity` values.
///
/// An index traversal touches most of a file's pages once per query, in
/// the same depth-first order every time. Under LRU a pool a little
/// smaller than that loop evicts each page just before its next use and
/// misses on every one. 2Q keeps part of the loop resident instead:
///
/// * a new key enters **probation**, a FIFO of a sixteenth of the
///   capacity: touching it there changes nothing, and it leaves in
///   arrival order;
/// * the key (not the value) of what probation drops is remembered on a
///   **ghost** FIFO, half the capacity long;
/// * a key asked for while it is a ghost has come round again: it enters
///   the **hot** LRU, which keeps the rest of the capacity and gives a
///   value up only when probation is within its share.
///
/// The two fractions were chosen on recorded page traces of the repo
/// benchmark (DESIGN.md §18 has the table): a short probation wins at
/// every pool size tried, and a ghost list under half the capacity
/// forgets a page before a pool well short of the loop sees it again.
///
/// Eviction is a function of the sequence of `get`s and `insert`s alone —
/// no clock, no random choice — so two runs of one workload miss alike.
///
/// ```
/// use warptree_disk::lru::TwoQueue;
/// let mut c = TwoQueue::new(4);
/// for lap in 0..3 {
///     for k in 0..6 {
///         if c.get(&k).is_none() {
///             c.insert(k, lap);
///         }
///     }
/// }
/// // An LRU of 4 misses all 18 lookups of this loop over 6 keys.
/// assert!(c.misses() < 18 && c.len() <= 4);
/// ```
pub struct TwoQueue<K, V> {
    map: HashMap<K, usize, BuildHasherDefault<KeyHasher>>,
    slab: Vec<Entry<K, Slot<V>>>,
    /// Slab slots of dropped ghosts, free for the next new key.
    free: Vec<usize>,
    probation: List,
    ghosts: List,
    hot: List,
    capacity: usize,
    lookups: Lookups,
}

impl<K: Eq + Hash + Clone, V> TwoQueue<K, V> {
    /// Creates a cache holding at most `capacity` values (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = capacity + capacity / GHOST_DIV + 1;
        Self {
            map: HashMap::with_capacity_and_hasher(slots, Default::default()),
            slab: Vec::with_capacity(slots),
            free: Vec::new(),
            probation: List::new(),
            ghosts: List::new(),
            hot: List::new(),
            capacity,
            lookups: Lookups::new(),
        }
    }

    /// Forwards every later lookup to `hits` / `misses` as well, like
    /// [`LruCache::set_counters`].
    pub fn set_counters(&mut self, hits: Counter, misses: Counter) {
        self.lookups.forward_to(hits, misses);
    }

    /// Total lookups this cache served.
    pub fn hits(&self) -> u64 {
        self.lookups.hits
    }

    /// Total lookups on this cache that found no value.
    pub fn misses(&self) -> u64 {
        self.lookups.misses
    }

    /// Number of cached values (remembered keys without one not counted).
    pub fn len(&self) -> usize {
        self.probation.len + self.hot.len
    }

    /// `true` when no value is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`. A hit on the hot list makes it that list's most
    /// recent; a hit in probation leaves the order alone.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let resident = self.map.get(key).copied();
        let resident = resident.filter(|&idx| self.slab[idx].value.on != Queue::Ghost);
        match resident {
            Some(idx) => {
                self.lookups.hit();
                if self.slab[idx].value.on == Queue::Hot {
                    self.hot.touch(&mut self.slab, idx);
                }
                self.slab[idx].value.cached.as_ref()
            }
            None => {
                self.lookups.miss();
                None
            }
        }
    }

    /// Inserts `key -> value`: onto the hot list when the key is
    /// remembered as a ghost, into probation otherwise (a key that is
    /// already cached keeps its place and takes the new value). Returns
    /// the value this displaced — the evicted one or the replaced one —
    /// so a caller with expensive values (page frames) can reuse it.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let known = self.map.get(&key).copied();
        if let Some(idx) = known.filter(|&idx| self.slab[idx].value.on != Queue::Ghost) {
            return self.slab[idx].value.cached.replace(value);
        }
        // Off the ghost list first: the eviction below may push the
        // oldest ghost out, and this one is not to be forgotten.
        if let Some(ghost) = known {
            self.ghosts.unlink(&mut self.slab, ghost);
        }
        let displaced = (self.len() == self.capacity).then(|| self.evict());
        match known {
            Some(ghost) => {
                self.slab[ghost].value = Slot {
                    on: Queue::Hot,
                    cached: Some(value),
                };
                self.hot.push_front(&mut self.slab, ghost);
            }
            None => {
                let entry = Entry {
                    key: key.clone(),
                    value: Slot {
                        on: Queue::Probation,
                        cached: Some(value),
                    },
                    prev: NIL,
                    next: NIL,
                };
                let idx = match self.free.pop() {
                    Some(idx) => {
                        self.slab[idx] = entry;
                        idx
                    }
                    None => {
                        self.slab.push(entry);
                        self.slab.len() - 1
                    }
                };
                self.map.insert(key, idx);
                self.probation.push_front(&mut self.slab, idx);
            }
        }
        displaced
    }

    /// Takes the value of the entry whose turn it is to go: probation's
    /// oldest while probation is over its share (its key stays behind as
    /// a ghost), the hot list's least recent otherwise.
    fn evict(&mut self) -> V {
        let from_probation =
            self.probation.len > self.capacity / PROBATION_DIV || self.hot.len == 0;
        let idx = if from_probation {
            let idx = self.probation.tail;
            self.probation.unlink(&mut self.slab, idx);
            self.slab[idx].value.on = Queue::Ghost;
            self.ghosts.push_front(&mut self.slab, idx);
            if self.ghosts.len > self.capacity / GHOST_DIV {
                self.forget(self.ghosts.tail);
            }
            idx
        } else {
            let idx = self.hot.tail;
            self.forget(idx);
            idx
        };
        let cached = self.slab[idx].value.cached.take();
        cached.expect("a resident entry holds a value")
    }

    /// Drops entry `idx` — a ghost, or the hot entry being evicted — from
    /// its list and the map.
    fn forget(&mut self, idx: usize) {
        match self.slab[idx].value.on {
            Queue::Ghost => self.ghosts.unlink(&mut self.slab, idx),
            Queue::Hot => self.hot.unlink(&mut self.slab, idx),
            Queue::Probation => unreachable!("probation leaves through the ghost list"),
        }
        self.map.remove(&self.slab[idx].key);
        self.free.push(idx);
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

    /// `get`, and on a miss `insert`, as the page pool does.
    fn touch(c: &mut TwoQueue<u32, u32>, key: u32) -> bool {
        let hit = c.get(&key).is_some();
        if !hit {
            c.insert(key, key);
        }
        hit
    }

    #[test]
    fn two_queue_promotes_what_comes_back() {
        // Capacity 32: probation holds 2, 16 ghosts are remembered.
        let mut c = TwoQueue::new(32);
        for key in 0..32 {
            assert!(!touch(&mut c, key));
        }
        assert_eq!(c.len(), 32);
        // Full: each new key pushes probation's oldest out, as a ghost.
        assert!(!touch(&mut c, 100));
        assert!(c.get(&0).is_none(), "0 was probation's oldest");
        assert!(touch(&mut c, 31), "a hit in probation");
        // 0 comes back while remembered: it is hot now, and a scan of
        // new keys twice the capacity long does not push it out...
        assert!(!touch(&mut c, 0));
        for key in 200..264 {
            assert!(!touch(&mut c, key));
        }
        assert!(touch(&mut c, 0));
        assert_eq!(c.len(), 32);
        // ...while 31, only ever seen in probation, went with the scan.
        assert!(!touch(&mut c, 31));
        assert_eq!(c.hits() + c.misses(), 32 + 4 + 64 + 2);
    }

    #[test]
    fn two_queue_keeps_part_of_a_loop_an_lru_loses() {
        // 20 laps over 1.4 × capacity keys, in one order: the traffic of
        // a depth-first traversal a little larger than the pool.
        let (capacity, distinct, laps) = (40usize, 56u32, 20u64);
        let mut two_q = TwoQueue::new(capacity);
        let mut lru = LruCache::new(capacity);
        let mut last_lap = 0;
        for lap in 0..laps {
            let before = two_q.misses();
            for key in 0..distinct {
                touch(&mut two_q, key);
                if lru.get(&key).is_none() {
                    lru.insert(key, key);
                }
                assert!(two_q.len() <= capacity);
            }
            last_lap = two_q.misses() - before;
            assert!(
                lap < 2 || last_lap < distinct as u64,
                "lap {lap}: {last_lap}"
            );
        }
        assert_eq!(lru.misses(), laps * distinct as u64, "an LRU misses on all");
        // Settled: what does not fit goes round probation, the rest stays.
        assert!(last_lap <= distinct as u64 / 2, "{last_lap} misses a lap");
    }

    #[test]
    fn two_queue_insert_returns_what_it_displaced() {
        let mut c = TwoQueue::new(2);
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.insert(2, 20), None);
        assert_eq!(c.insert(1, 11), Some(10)); // replaced in place
        assert_eq!(c.insert(3, 30), Some(11)); // 1 was probation's oldest
        assert_eq!(c.insert(1, 12), Some(20)); // back from the ghosts, for 2
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(&12));
        assert_eq!(c.get(&3), Some(&30));
        // Capacity one: there is a value to give back on every insert.
        let mut one = TwoQueue::new(1);
        assert_eq!(one.insert('a', 1), None);
        assert_eq!(one.insert('b', 2), Some(1));
        assert_eq!(one.get(&'a'), None);
        assert_eq!(one.get(&'b'), Some(&2));
        assert!(!one.is_empty());
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
