//! Microbenchmark: storage-cache hot paths — LRU lookups and write-delay
//! buffering (per-I/O costs on the replay fast path).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ees_iotrace::DataItemId;
use ees_simstorage::{CacheConfig, LruSet, StorageCache};

fn bench_cache(c: &mut Criterion) {
    c.bench_function("lru_touch_hit", |b| {
        let mut lru = LruSet::new(1024);
        for i in 0..1024u64 {
            lru.touch(i);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 1024;
            black_box(lru.touch(i))
        })
    });

    // The general cache's production geometry: 1,048 one-MiB extents
    // (Table II), keyed by (item, extent). Every touch misses and evicts.
    c.bench_function("lru_touch_miss_evict", |b| {
        let cfg = CacheConfig::ams2500();
        let mut lru = LruSet::new((cfg.general_bytes() / cfg.extent_bytes) as usize);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(lru.touch((DataItemId((i % 360) as u32), i)))
        })
    });

    c.bench_function("cache_read_lookup", |b| {
        let mut cache = StorageCache::new(CacheConfig::ams2500());
        cache.set_preload(vec![(DataItemId(1), 100 << 20)]);
        let mut off = 0u64;
        b.iter(|| {
            off = (off + 8192) % (1 << 30);
            black_box(cache.read_lookup(DataItemId(2), off))
        })
    });

    c.bench_function("cache_buffer_write", |b| {
        let mut cache = StorageCache::new(CacheConfig::ams2500());
        cache.set_write_delay(vec![DataItemId(3)]);
        b.iter(|| {
            if let Some(flush) = cache.buffer_write(DataItemId(3), 8192) {
                black_box(flush);
            }
        })
    });
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
