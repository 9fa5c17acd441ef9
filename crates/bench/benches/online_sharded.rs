//! Benchmarks for the sharded online pipeline: the zero-copy parse path
//! the parser threads run and the end-to-end monitor drivers (serial
//! inline parse vs. the sharded parallel front end) over the same
//! in-memory NDJSON stream.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ees_core::{merge_shard_reports, ItemReport, ProposedConfig};
use ees_iotrace::ndjson::{parse_event, parse_event_borrowed};
use ees_iotrace::{DataItemId, EnclosureId, IoKind, LatencyHistogram, LogicalIoRecord, Micros};
use ees_online::{run_monitor_serial, run_monitor_sharded, shard_of, IncrementalClassifier};
use ees_replay::CatalogItem;
use ees_simstorage::{Access, PlacementMap, StorageConfig};
use std::collections::BTreeSet;
use std::io::Cursor;

const EVENTS: u64 = 20_000;
const ITEMS: u32 = 32;
const ENCLOSURES: u16 = 4;

fn catalog() -> Vec<CatalogItem> {
    (0..ITEMS)
        .map(|i| CatalogItem {
            id: DataItemId(i),
            size: 32 << 20,
            enclosure: EnclosureId((i % ENCLOSURES as u32) as u16),
            access: Access::Random,
        })
        .collect()
}

fn trace() -> String {
    let mut s = String::with_capacity(EVENTS as usize * 64);
    for i in 0..EVENTS {
        s.push_str(&format!(
            "{{\"ts\":{},\"item\":{},\"offset\":{},\"len\":8192,\"kind\":\"{}\"}}\n",
            i * 5_000,
            i % ITEMS as u64,
            (i * 8192) % (1 << 30),
            if i % 4 == 0 { "Write" } else { "Read" },
        ));
    }
    s
}

fn policy() -> ProposedConfig {
    ProposedConfig {
        initial_period: Micros::from_secs(30),
        ..ProposedConfig::default()
    }
}

fn bench_online_sharded(c: &mut Criterion) {
    let text = trace();
    let lines: Vec<&str> = text.lines().collect();
    let items = catalog();
    let storage = StorageConfig::ams2500(ENCLOSURES);

    c.bench_function("ndjson_parse_owned_20k", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for line in &lines {
                n += parse_event(black_box(line)).unwrap().len as u64;
            }
            black_box(n)
        })
    });

    c.bench_function("ndjson_parse_borrowed_20k", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for line in &lines {
                n += parse_event_borrowed(black_box(line)).unwrap().len as u64;
            }
            black_box(n)
        })
    });

    c.bench_function("monitor_serial_20k", |b| {
        b.iter(|| {
            let out = run_monitor_serial(
                Cursor::new(text.clone()),
                &items,
                ENCLOSURES,
                &storage,
                policy(),
                None,
            )
            .unwrap();
            black_box(out.plans.len())
        })
    });

    // The parallel front end at one reader per shard (the default).
    for shards in [2usize, 4] {
        let name = format!("monitor_sharded_20k_{shards}_parallel");
        c.bench_function(&name, |b| {
            b.iter(|| {
                let out = run_monitor_sharded(
                    Cursor::new(text.clone()),
                    &items,
                    ENCLOSURES,
                    &storage,
                    policy(),
                    None,
                    shards,
                )
                .unwrap();
                black_box(out.plans.len())
            })
        });
    }
}

/// The coordinator-side merge the overlapped rollover runs off the hot
/// path: reassemble 4 shards' placement-ordered report slices into the
/// full placement order. 256 items, one period of classification each.
fn bench_merge_shard_reports(c: &mut Criterion) {
    const MERGE_ITEMS: u32 = 256;
    const MERGE_SHARDS: usize = 4;
    let mut placement = PlacementMap::new();
    for i in 0..MERGE_ITEMS {
        placement.insert(
            DataItemId(i),
            EnclosureId((i % ENCLOSURES as u32) as u16),
            32 << 20,
        );
    }
    let sequential = BTreeSet::new();
    let build_shards = || -> Vec<Vec<ItemReport>> {
        (0..MERGE_SHARDS)
            .map(|s| {
                let mut cls = IncrementalClassifier::new(Micros::ZERO, Micros::from_secs(52));
                for i in 0..(MERGE_ITEMS as u64 * 4) {
                    cls.observe(&LogicalIoRecord {
                        ts: Micros(i * 25_000),
                        item: DataItemId((i % MERGE_ITEMS as u64) as u32),
                        offset: i * 8192,
                        len: 8192,
                        kind: if i % 4 == 0 {
                            IoKind::Write
                        } else {
                            IoKind::Read
                        },
                    });
                }
                cls.rollover_filtered(Micros::from_secs(30), &placement, &sequential, 1.0, |id| {
                    shard_of(id, MERGE_SHARDS) == s
                })
            })
            .collect()
    };
    let shard_reports = build_shards();
    c.bench_function("merge_shard_reports_256x4", |b| {
        b.iter(|| {
            let merged = merge_shard_reports(&placement, shard_reports.clone(), |id| {
                shard_of(id, MERGE_SHARDS)
            });
            black_box(merged.len())
        })
    });
}

/// End-to-end rollover-stall distribution under the overlapped sharded
/// driver, folded into a [`LatencyHistogram`] — the same shape the
/// `online_smoke` p99 gate samples, but with the full quantile spread
/// visible instead of a single point.
fn bench_rollover_latency_histogram(c: &mut Criterion) {
    let text = trace();
    let items = catalog();
    let storage = StorageConfig::ams2500(ENCLOSURES);
    c.bench_function("rollover_stall_histogram_sharded_20k_4", |b| {
        b.iter(|| {
            let out = run_monitor_sharded(
                Cursor::new(text.clone()),
                &items,
                ENCLOSURES,
                &storage,
                policy(),
                None,
                4,
            )
            .unwrap();
            let mut hist = LatencyHistogram::new();
            for &us in &out.rollover_micros {
                hist.record(Micros(us));
            }
            black_box((hist.count(), hist.quantile(0.5), hist.quantile(0.99)))
        })
    });
}

criterion_group!(
    benches,
    bench_online_sharded,
    bench_merge_shard_reports,
    bench_rollover_latency_histogram
);
criterion_main!(benches);
