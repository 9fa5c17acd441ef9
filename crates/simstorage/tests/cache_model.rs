//! Model test of [`StorageCache`]: random sequences of preload and
//! write-delay swaps, reads, buffered writes and flushes must return
//! exactly what the ordered-map cache it replaced returns — the same
//! flush sets in the same order, the same dirty bytes, and the same five
//! counters after every operation. That cache is kept below, verbatim
//! apart from naming, as the oracle.

use ees_iotrace::{DataItemId, Micros, DENSE_ID_LIMIT, MIB};
use ees_simstorage::{CacheConfig, FlushSet, StorageCache};
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The `LruSet` the oracle cache was built on: a std `HashMap` (SipHash)
/// from key to slot plus an intrusive recency list.
struct OracleLru<K: std::hash::Hash + Eq + Clone> {
    map: HashMap<K, usize>,
    slots: Vec<(K, usize, usize)>, // (key, prev, next)
    head: usize,
    tail: usize,
    capacity: usize,
}

const NIL: usize = usize::MAX;

impl<K: std::hash::Hash + Eq + Clone> OracleLru<K> {
    fn new(capacity: usize) -> Self {
        OracleLru {
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn touch(&mut self, key: K) -> bool {
        if self.capacity == 0 {
            return false;
        }
        match self.map.entry(key.clone()) {
            Entry::Occupied(e) => {
                let idx = *e.get();
                self.unlink(idx);
                self.push_front(idx);
                true
            }
            Entry::Vacant(_) => {
                if self.map.len() >= self.capacity {
                    let victim = self.tail;
                    self.unlink(victim);
                    let old = std::mem::replace(&mut self.slots[victim].0, key.clone());
                    self.map.remove(&old);
                    self.map.insert(key, victim);
                    self.push_front(victim);
                } else {
                    let idx = self.slots.len();
                    self.slots.push((key.clone(), NIL, NIL));
                    self.map.insert(key, idx);
                    self.push_front(idx);
                }
                false
            }
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].1, self.slots[idx].2);
        if prev != NIL {
            self.slots[prev].2 = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].1 = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].1 = NIL;
        self.slots[idx].2 = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].1 = NIL;
        self.slots[idx].2 = self.head;
        if self.head != NIL {
            self.slots[self.head].1 = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// The ordered-map storage cache: `BTreeMap`/`BTreeSet` partitions and
/// dirty map, `OracleLru` general cache.
struct OracleCache {
    cfg: CacheConfig,
    preload: BTreeMap<DataItemId, u64>,
    write_delay: BTreeSet<DataItemId>,
    dirty: BTreeMap<DataItemId, u64>,
    dirty_total: u64,
    general: OracleLru<(DataItemId, u64)>,
    counters: (u64, u64, u64, u64, u64),
}

impl OracleCache {
    fn new(cfg: CacheConfig) -> Self {
        let general_entries = (cfg.general_bytes() / cfg.extent_bytes.max(1)) as usize;
        OracleCache {
            cfg,
            preload: BTreeMap::new(),
            write_delay: BTreeSet::new(),
            dirty: BTreeMap::new(),
            dirty_total: 0,
            general: OracleLru::new(general_entries),
            counters: (0, 0, 0, 0, 0),
        }
    }

    fn set_preload(&mut self, items: Vec<(DataItemId, u64)>) -> Vec<(DataItemId, u64)> {
        let new: BTreeMap<DataItemId, u64> = items.into_iter().collect();
        let to_load = new
            .iter()
            .filter(|(id, _)| !self.preload.contains_key(id))
            .map(|(&id, &s)| (id, s))
            .collect();
        self.preload = new;
        to_load
    }

    fn set_write_delay(&mut self, items: impl IntoIterator<Item = DataItemId>) -> FlushSet {
        let new: BTreeSet<DataItemId> = items.into_iter().collect();
        let mut out = Vec::new();
        let removed: Vec<DataItemId> = self
            .dirty
            .keys()
            .filter(|id| !new.contains(id))
            .copied()
            .collect();
        for id in removed {
            if let Some(bytes) = self.dirty.remove(&id) {
                self.dirty_total -= bytes;
                out.push((id, bytes));
            }
        }
        self.write_delay = new;
        out
    }

    fn buffer_write(&mut self, item: DataItemId, len: u32) -> Option<FlushSet> {
        *self.dirty.entry(item).or_insert(0) += len as u64;
        self.dirty_total += len as u64;
        self.counters.3 += 1;
        if self.dirty_total >= self.cfg.flush_threshold() {
            Some(self.flush_all())
        } else {
            None
        }
    }

    fn flush_all(&mut self) -> FlushSet {
        if self.dirty.is_empty() {
            return Vec::new();
        }
        self.counters.4 += 1;
        self.dirty_total = 0;
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    fn read_lookup(&mut self, item: DataItemId, offset: u64) -> bool {
        if self.preload.contains_key(&item) {
            self.counters.0 += 1;
            return true;
        }
        let extent = offset / self.cfg.extent_bytes.max(1);
        if self.general.touch((item, extent)) {
            self.counters.1 += 1;
            true
        } else {
            self.counters.2 += 1;
            false
        }
    }
}

/// Ids the operations draw from: dense ids, ids either side of the
/// dense/spill boundary, and the largest id.
const POOL: [u32; 12] = [
    0,
    1,
    2,
    3,
    5,
    8,
    13,
    40,
    DENSE_ID_LIMIT - 1,
    DENSE_ID_LIMIT,
    DENSE_ID_LIMIT + 7,
    u32::MAX,
];

/// One drawn operation: (kind, id index, magnitude, id-index list).
type Op = (u8, usize, u64, Vec<usize>);

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..5,
        0usize..POOL.len(),
        0u64..(96 * MIB),
        prop::collection::vec(0usize..POOL.len(), 0..8),
    )
}

/// Runs `ops` on both caches, asserting every observable agrees after
/// each step.
fn check(cfg: CacheConfig, ops: &[Op]) {
    let mut cache = StorageCache::new(cfg);
    let mut oracle = OracleCache::new(cfg);
    for (step, (kind, at, magnitude, list)) in ops.iter().enumerate() {
        let id = DataItemId(POOL[*at]);
        match kind {
            0 => {
                // Sizes up to 24 MiB × 8 items stay inside the 500 MiB
                // preload partition; duplicate ids keep the last size.
                let items: Vec<(DataItemId, u64)> = list
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (DataItemId(POOL[k]), (magnitude % (24 * MIB)) + i as u64))
                    .collect();
                assert_eq!(
                    cache.set_preload(items.clone()),
                    oracle.set_preload(items),
                    "step {step}: set_preload"
                );
            }
            1 => {
                let items: Vec<DataItemId> = list.iter().map(|&k| DataItemId(POOL[k])).collect();
                assert_eq!(
                    cache.set_write_delay(items.clone()),
                    oracle.set_write_delay(items),
                    "step {step}: set_write_delay"
                );
            }
            2 => {
                let offset = magnitude % (24 * MIB);
                assert_eq!(
                    cache.read_lookup(id, offset),
                    oracle.read_lookup(id, offset),
                    "step {step}: read_lookup({id}, {offset})"
                );
            }
            3 => {
                // Writes go only to write-delayed items (the serve path's
                // contract); zero-length writes still open a dirty slot.
                if oracle.write_delay.contains(&id) {
                    let len = if magnitude % 7 == 0 {
                        0
                    } else {
                        *magnitude as u32
                    };
                    assert_eq!(
                        cache.buffer_write(id, len),
                        oracle.buffer_write(id, len),
                        "step {step}: buffer_write({id}, {len})"
                    );
                }
            }
            _ => assert_eq!(cache.flush_all(), oracle.flush_all(), "step {step}: flush"),
        }
        assert_eq!(cache.dirty_bytes(), oracle.dirty_total, "step {step}");
        assert_eq!(cache.counters(), oracle.counters, "step {step}");
        for &raw in &POOL {
            let id = DataItemId(raw);
            assert_eq!(
                cache.is_preloaded(id),
                oracle.preload.contains_key(&id),
                "step {step}: is_preloaded({id})"
            );
            assert_eq!(
                cache.is_write_delayed(id),
                oracle.write_delay.contains(&id),
                "step {step}: is_write_delayed({id})"
            );
        }
        assert!(
            cache.preloaded_items().eq(oracle.preload.keys().copied()),
            "step {step}: preloaded_items"
        );
    }
    assert_eq!(cache.flush_all(), oracle.flush_all(), "final flush");
    assert_eq!(cache.counters(), oracle.counters, "final counters");
}

/// A cache whose general partition holds only `extents` extents, so the
/// LRU evicts within a short sequence.
fn small_general(extents: u64) -> CacheConfig {
    CacheConfig {
        total_bytes: 1000 * MIB + extents * MIB,
        preload_bytes: 500 * MIB,
        write_delay_bytes: 500 * MIB,
        dirty_block_rate: 0.5,
        hit_latency: Micros(200),
        extent_bytes: MIB,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Small general cache: eviction-heavy reads between swaps.
    #[test]
    fn cache_matches_ordered_map_oracle(
        extents in 0u64..12,
        ops in prop::collection::vec(op(), 0..120),
    ) {
        check(small_general(extents), &ops);
    }

    /// The Table II cache (1,048 general extents).
    #[test]
    fn ams2500_cache_matches_ordered_map_oracle(
        ops in prop::collection::vec(op(), 0..200),
    ) {
        check(CacheConfig::ams2500(), &ops);
    }
}
