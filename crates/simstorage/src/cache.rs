//! The RAID controller's battery-backed storage cache (§II.E.2).
//!
//! The cache is partitioned three ways, mirroring Table II:
//!
//! * a **preload** partition (500 MB) pinning whole P1 data items so their
//!   reads never reach a disk enclosure (§IV.F, Fig. 3);
//! * a **write-delay** partition (500 MB) buffering writes to selected P2
//!   items; the buffer flushes *in one go* when the dirty fraction reaches
//!   the configured dirty-block rate (50 %), creating Long write intervals
//!   (§IV.E, §V.B, Fig. 4);
//! * the remaining **general** read cache, a plain extent-granular LRU that
//!   models the enterprise array's ordinary caching.
//!
//! The cache is battery-backed, so buffered writes are durable the moment
//! they are acknowledged — this is what lets the paper keep the DBMS's
//! ACID guarantee while delaying physical writes (§II.E.2).

use ees_iotrace::{DataItemId, DenseItemMap, Micros, MIB};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Cache geometry and behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total cache size (Table II: 2 GB).
    pub total_bytes: u64,
    /// Bytes reserved for the preload function (Table II: 500 MB).
    pub preload_bytes: u64,
    /// Bytes reserved for the write-delay function (Table II: 500 MB).
    pub write_delay_bytes: u64,
    /// Fraction of the write-delay partition that may be dirty before a
    /// bulk flush (Table II: 50 %).
    pub dirty_block_rate: f64,
    /// Latency of a cache hit / cache-acknowledged write.
    pub hit_latency: Micros,
    /// Extent size of the general read cache.
    pub extent_bytes: u64,
}

impl CacheConfig {
    /// The test bed's cache (Table II).
    pub fn ams2500() -> Self {
        CacheConfig {
            total_bytes: 2048 * MIB,
            preload_bytes: 500 * MIB,
            write_delay_bytes: 500 * MIB,
            dirty_block_rate: 0.5,
            hit_latency: Micros(200),
            extent_bytes: MIB,
        }
    }

    /// Bytes left for the general read cache.
    pub fn general_bytes(&self) -> u64 {
        self.total_bytes
            .saturating_sub(self.preload_bytes + self.write_delay_bytes)
    }

    /// Dirty-byte threshold that triggers a write-delay flush.
    pub fn flush_threshold(&self) -> u64 {
        (self.write_delay_bytes as f64 * self.dirty_block_rate) as u64
    }
}

/// Multiply-rotate hasher for the LRU's key → slot map (the FxHash
/// step, with a final rotate that moves the product's well-mixed high
/// bits down to where the table takes its bucket index). Deterministic
/// and a few cycles per word, against SipHash's per-record cost on the
/// serve path. The map is never iterated, so the hash cannot change
/// which key gets evicted. It gives up SipHash's resistance to crafted
/// collisions: extents come from trace offsets, but the map never holds
/// more than the LRU's capacity, which bounds any collision chain.
#[derive(Debug, Clone, Copy, Default)]
struct MulRotHasher(u64);

impl MulRotHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for MulRotHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    // The (item, extent) key hashes as one u32 and one u64 word.
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
}

/// A fixed-capacity LRU set with O(1) touch/insert/evict, used for the
/// general read cache (capacity counted in entries, i.e. extents).
#[derive(Debug, Clone)]
pub struct LruSet<K: std::hash::Hash + Eq + Clone> {
    map: HashMap<K, usize, BuildHasherDefault<MulRotHasher>>,
    slots: Vec<Slot<K>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

#[derive(Debug, Clone)]
struct Slot<K> {
    key: K,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<K: std::hash::Hash + Eq + Clone> LruSet<K> {
    /// Creates an LRU set holding at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        let reserve = capacity.min(1 << 20);
        LruSet {
            // One spare entry: an eviction inserts the new key before it
            // removes the victim's, and must not trigger a table grow.
            map: HashMap::with_capacity_and_hasher(reserve + 1, Default::default()),
            slots: Vec::with_capacity(reserve),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `key` up, inserting it (and evicting the LRU key if full) on a
    /// miss. Returns `true` on a hit. The key is hashed once: a miss
    /// inserts through the vacant entry the lookup found.
    pub fn touch(&mut self, key: K) -> bool {
        if self.capacity == 0 {
            return false;
        }
        match self.map.entry(key) {
            Entry::Occupied(e) => {
                let idx = *e.get();
                self.unlink(idx);
                self.push_front(idx);
                true
            }
            Entry::Vacant(e) => {
                // `slots` grows in step with the map, so its length is
                // the resident count before this insert.
                let full = self.slots.len() >= self.capacity;
                let idx = if full { self.tail } else { self.slots.len() };
                debug_assert_ne!(idx, NIL);
                let key = e.key().clone();
                e.insert(idx);
                if full {
                    self.unlink(idx);
                    let old = std::mem::replace(&mut self.slots[idx].key, key);
                    self.map.remove(&old);
                } else {
                    self.slots.push(Slot {
                        key,
                        prev: NIL,
                        next: NIL,
                    });
                }
                self.push_front(idx);
                false
            }
        }
    }

    /// Drops every key.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Dirty bytes to be written back, per data item, produced by a flush.
pub type FlushSet = Vec<(DataItemId, u64)>;

/// Write-delay slot value of an item with no dirty bytes buffered.
const CLEAN: u32 = u32::MAX;

/// The storage cache.
///
/// Everything the per-record path asks is answered from dense per-item
/// maps: preload membership from a flag map, write-delay membership and
/// the item's dirty-byte entry from one slot map. Ids at or above
/// [`DENSE_ID_LIMIT`](ees_iotrace::DENSE_ID_LIMIT) spill to the maps'
/// ordered side tables, so sparse ids stay correct.
#[derive(Debug, Clone)]
pub struct StorageCache {
    cfg: CacheConfig,
    /// Items pinned by the preload function, with their sizes, in id
    /// order (for the load diff and [`preloaded_items`](Self::preloaded_items)).
    preload: BTreeMap<DataItemId, u64>,
    /// Membership flags mirroring `preload`'s keys.
    preloaded: DenseItemMap<()>,
    /// Items under write delay → index of their entry in `dirty`, or
    /// [`CLEAN`] while they have none.
    write_delay: DenseItemMap<u32>,
    /// Dirty bytes per write-delayed item, in first-write order; sorted
    /// by id when flushed, so every flush set is in ascending id order.
    dirty: Vec<(DataItemId, u64)>,
    dirty_total: u64,
    /// General read cache over (item, extent) pairs.
    general: LruSet<(DataItemId, u64)>,
    /// Counters.
    preload_hits: u64,
    general_hits: u64,
    general_misses: u64,
    buffered_writes: u64,
    flushes: u64,
}

impl StorageCache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let general_entries = (cfg.general_bytes() / cfg.extent_bytes.max(1)) as usize;
        StorageCache {
            cfg,
            preload: BTreeMap::new(),
            preloaded: DenseItemMap::new(),
            write_delay: DenseItemMap::new(),
            dirty: Vec::new(),
            dirty_total: 0,
            general: LruSet::new(general_entries),
            preload_hits: 0,
            general_hits: 0,
            general_misses: 0,
            buffered_writes: 0,
            flushes: 0,
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Replaces the preload set (§V.C): items no longer selected are
    /// dropped, already-resident items are kept, and the returned list is
    /// what must now be read from the enclosures (newly selected items).
    ///
    /// # Panics
    /// Panics if the requested set exceeds the preload partition — the
    /// selection algorithm (§IV.F) budgets against the partition size.
    pub fn set_preload(&mut self, items: Vec<(DataItemId, u64)>) -> Vec<(DataItemId, u64)> {
        let total: u64 = items.iter().map(|(_, s)| *s).sum();
        assert!(
            total <= self.cfg.preload_bytes,
            "preload selection ({total} B) exceeds the preload partition"
        );
        let new: BTreeMap<DataItemId, u64> = items.into_iter().collect();
        let to_load: Vec<(DataItemId, u64)> = new
            .iter()
            .filter(|(&id, _)| !self.preloaded.contains(id))
            .map(|(&id, &s)| (id, s))
            .collect();
        self.preloaded.clear();
        for &id in new.keys() {
            self.preloaded.insert(id, ());
        }
        self.preload = new;
        to_load
    }

    /// Whether reads of `item` are served from the preload partition.
    pub fn is_preloaded(&self, item: DataItemId) -> bool {
        self.preloaded.contains(item)
    }

    /// Items currently pinned by the preload function.
    pub fn preloaded_items(&self) -> impl Iterator<Item = DataItemId> + '_ {
        self.preload.keys().copied()
    }

    /// Replaces the write-delay set (§V.B). Dirty bytes of items that left
    /// the set must be written out immediately (§V.B: "indicates to write
    /// updated data items onto disk enclosures when the *write delay
    /// applied* data items are changed"); they are returned as a flush
    /// set, in ascending id order.
    pub fn set_write_delay(&mut self, items: impl IntoIterator<Item = DataItemId>) -> FlushSet {
        self.write_delay.clear();
        for id in items {
            self.write_delay.insert(id, CLEAN);
        }
        self.dirty.sort_unstable_by_key(|&(id, _)| id);
        let mut out = Vec::new();
        let mut kept = 0;
        let (write_delay, dirty_total) = (&mut self.write_delay, &mut self.dirty_total);
        self.dirty
            .retain(|&(id, bytes)| match write_delay.get_mut(id) {
                Some(slot) => {
                    *slot = kept;
                    kept += 1;
                    true
                }
                None => {
                    *dirty_total -= bytes;
                    out.push((id, bytes));
                    false
                }
            });
        out
    }

    /// Whether writes to `item` are buffered by the write-delay function.
    pub fn is_write_delayed(&self, item: DataItemId) -> bool {
        self.write_delay.contains(item)
    }

    /// Buffers one write to a write-delayed item. Returns a flush set when
    /// the dirty threshold is crossed — all dirty bytes are then written
    /// back in one go.
    ///
    /// # Panics
    /// Panics if `item` is not under write delay.
    pub fn buffer_write(&mut self, item: DataItemId, len: u32) -> Option<FlushSet> {
        let slot = self
            .write_delay
            .get_mut(item)
            .expect("buffer_write on an item not under write delay");
        if *slot == CLEAN {
            *slot = u32::try_from(self.dirty.len()).expect("fewer dirty items than ids");
            self.dirty.push((item, 0));
        }
        self.dirty[*slot as usize].1 += len as u64;
        self.dirty_total += len as u64;
        self.buffered_writes += 1;
        if self.dirty_total >= self.cfg.flush_threshold() {
            Some(self.flush_all())
        } else {
            None
        }
    }

    /// Flushes all dirty bytes (threshold crossing, set change, or end of
    /// run) and returns them per item, in ascending id order.
    pub fn flush_all(&mut self) -> FlushSet {
        if self.dirty.is_empty() {
            return Vec::new();
        }
        self.flushes += 1;
        self.dirty_total = 0;
        for &(id, _) in &self.dirty {
            *self
                .write_delay
                .get_mut(id)
                .expect("dirty items are under write delay") = CLEAN;
        }
        self.dirty.sort_unstable_by_key(|&(id, _)| id);
        std::mem::take(&mut self.dirty)
    }

    /// Dirty bytes currently buffered.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_total
    }

    /// Looks up a read in the cache hierarchy: preload partition first,
    /// then the general extent LRU (which also admits on miss). Returns
    /// `true` when the read is absorbed by the cache.
    pub fn read_lookup(&mut self, item: DataItemId, offset: u64) -> bool {
        if self.preloaded.contains(item) {
            self.preload_hits += 1;
            return true;
        }
        let extent = offset / self.cfg.extent_bytes.max(1);
        if self.general.touch((item, extent)) {
            self.general_hits += 1;
            true
        } else {
            self.general_misses += 1;
            false
        }
    }

    /// Cache-hit latency for absorbed requests.
    pub fn hit_latency(&self) -> Micros {
        self.cfg.hit_latency
    }

    /// (preload hits, general hits, general misses, buffered writes,
    /// flush count) counters for reports.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.preload_hits,
            self.general_hits,
            self.general_misses,
            self.buffered_writes,
            self.flushes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> StorageCache {
        StorageCache::new(CacheConfig::ams2500())
    }

    #[test]
    fn config_partitions() {
        let c = CacheConfig::ams2500();
        assert_eq!(c.general_bytes(), 1048 * MIB);
        assert_eq!(c.flush_threshold(), 250 * MIB);
    }

    #[test]
    fn lru_basic_hit_miss_evict() {
        let mut lru = LruSet::new(2);
        assert!(!lru.touch("a"));
        assert!(!lru.touch("b"));
        assert!(lru.touch("a")); // hit; order now a, b
        assert!(!lru.touch("c")); // evicts b
        assert!(!lru.touch("b")); // b was evicted → miss, evicts a
        assert!(lru.touch("c"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_zero_capacity_never_hits() {
        let mut lru = LruSet::new(0);
        assert!(!lru.touch(1));
        assert!(!lru.touch(1));
        assert!(lru.is_empty());
    }

    #[test]
    fn lru_single_slot() {
        let mut lru = LruSet::new(1);
        assert!(!lru.touch(1));
        assert!(lru.touch(1));
        assert!(!lru.touch(2));
        assert!(!lru.touch(1));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn lru_clear() {
        let mut lru = LruSet::new(4);
        lru.touch(1);
        lru.touch(2);
        lru.clear();
        assert!(lru.is_empty());
        assert!(!lru.touch(1));
    }

    #[test]
    fn preload_set_reports_only_new_items() {
        let mut c = cache();
        let load = c.set_preload(vec![(DataItemId(1), 100 * MIB), (DataItemId(2), 100 * MIB)]);
        assert_eq!(load.len(), 2);
        // Keeping item 1, adding item 3: only 3 needs loading (§V.C keeps
        // already-preloaded items).
        let load = c.set_preload(vec![(DataItemId(1), 100 * MIB), (DataItemId(3), 50 * MIB)]);
        assert_eq!(load, vec![(DataItemId(3), 50 * MIB)]);
        assert!(c.is_preloaded(DataItemId(1)));
        assert!(!c.is_preloaded(DataItemId(2)));
        assert!(c.is_preloaded(DataItemId(3)));
    }

    #[test]
    #[should_panic(expected = "exceeds the preload partition")]
    fn preload_over_budget_panics() {
        let mut c = cache();
        c.set_preload(vec![(DataItemId(1), 600 * MIB)]);
    }

    #[test]
    fn preloaded_reads_always_hit() {
        let mut c = cache();
        c.set_preload(vec![(DataItemId(7), 10 * MIB)]);
        assert!(c.read_lookup(DataItemId(7), 0));
        assert!(c.read_lookup(DataItemId(7), 999 * MIB));
        assert_eq!(c.counters().0, 2);
    }

    #[test]
    fn general_cache_hits_on_reaccess() {
        let mut c = cache();
        assert!(!c.read_lookup(DataItemId(1), 0));
        assert!(c.read_lookup(DataItemId(1), 1000)); // same 1 MiB extent
        assert!(!c.read_lookup(DataItemId(1), 2 * MIB)); // different extent
        let (_, hits, misses, _, _) = c.counters();
        assert_eq!(hits, 1);
        assert_eq!(misses, 2);
    }

    #[test]
    fn write_delay_buffers_until_threshold() {
        let mut c = cache();
        c.set_write_delay(vec![DataItemId(5)]);
        assert!(c.is_write_delayed(DataItemId(5)));
        // 250 MB threshold; buffer 249 MiB → no flush.
        for _ in 0..249 {
            assert!(c.buffer_write(DataItemId(5), MIB as u32).is_none());
        }
        assert_eq!(c.dirty_bytes(), 249 * MIB);
        // Crossing the threshold flushes everything in one go.
        let flush = c.buffer_write(DataItemId(5), 2 * MIB as u32).unwrap();
        assert_eq!(flush, vec![(DataItemId(5), 251 * MIB)]);
        assert_eq!(c.dirty_bytes(), 0);
    }

    #[test]
    fn write_delay_set_change_flushes_departing_items() {
        let mut c = cache();
        c.set_write_delay(vec![DataItemId(1), DataItemId(2)]);
        c.buffer_write(DataItemId(1), 1024);
        c.buffer_write(DataItemId(2), 2048);
        // Item 2 leaves the set → its dirty bytes flush; item 1 stays.
        let flushed = c.set_write_delay(vec![DataItemId(1)]);
        assert_eq!(flushed, vec![(DataItemId(2), 2048)]);
        assert_eq!(c.dirty_bytes(), 1024);
        assert!(!c.is_write_delayed(DataItemId(2)));
    }

    #[test]
    fn flush_all_drains_and_counts() {
        let mut c = cache();
        c.set_write_delay(vec![DataItemId(1)]);
        c.buffer_write(DataItemId(1), 4096);
        let f = c.flush_all();
        assert_eq!(f, vec![(DataItemId(1), 4096)]);
        assert!(c.flush_all().is_empty(), "second flush is a no-op");
        assert_eq!(c.counters().4, 1, "empty flushes are not counted");
    }
}
