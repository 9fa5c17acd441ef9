//! Microbenchmarks for the online controller subsystem: the per-event
//! cost of incremental classification (`ees-online`'s hot path) against
//! the batch analysis it replaces, NDJSON event codec throughput, and
//! the ingest front end's per-chunk line parse on both of its routes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ees_iotrace::ndjson::{format_event, parse_event};
use ees_iotrace::{DataItemId, IoKind, LogicalIoRecord, Micros};
use ees_online::{parse_lines, IncrementalClassifier};
use ees_simstorage::PlacementMap;
use std::collections::BTreeSet;

fn make_stream(n: usize, items: u32) -> Vec<LogicalIoRecord> {
    (0..n)
        .map(|i| LogicalIoRecord {
            ts: Micros(i as u64 * 20_000),
            item: DataItemId(i as u32 % items),
            offset: (i as u64 * 8192) % (1 << 30),
            len: 8192,
            kind: if i % 4 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            },
        })
        .collect()
}

fn bench_online(c: &mut Criterion) {
    let be = Micros::from_secs(52);
    let stream = make_stream(10_000, 16);
    let end = Micros(10_000 * 20_000);
    let mut placement = PlacementMap::new();
    for item in 0..16 {
        placement.insert(DataItemId(item), ees_iotrace::EnclosureId(0), 1 << 20);
    }
    let sequential = BTreeSet::new();

    c.bench_function("online_fold_10k_events_16_items", |b| {
        b.iter(|| {
            let mut cl = IncrementalClassifier::new(Micros::ZERO, be);
            for rec in &stream {
                cl.observe(black_box(rec));
            }
            black_box(cl.rollover(end, &placement, &sequential, 1.0))
        })
    });

    let lines: Vec<String> = stream.iter().map(format_event).collect();
    c.bench_function("ndjson_parse_10k_events", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for line in &lines {
                n += parse_event(black_box(line)).unwrap().len as u64;
            }
            black_box(n)
        })
    });

    // One default-size (256 KiB) chunk of whole lines, as the front end
    // hands a parser thread: canonical `format_event` bytes take the
    // fast path; the same lines with one leading space decline it and
    // take the general route (UTF-8 check, trim, full grammar).
    let chunk_of = |prefix: &str| {
        let mut chunk = Vec::with_capacity(256 * 1024 + 128);
        for rec in stream.iter().cycle() {
            if chunk.len() >= 256 * 1024 {
                break;
            }
            chunk.extend_from_slice(prefix.as_bytes());
            chunk.extend_from_slice(format_event(rec).as_bytes());
            chunk.push(b'\n');
        }
        chunk
    };
    for (name, chunk) in [
        ("frontend_parse_lines_canonical_256k", chunk_of("")),
        ("frontend_parse_lines_fallback_256k", chunk_of(" ")),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let parsed = parse_lines(0, 1, black_box(&chunk));
                assert!(parsed.error.is_none());
                black_box(parsed.records.len())
            })
        });
    }

    c.bench_function("ndjson_format_10k_events", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for rec in &stream {
                n += format_event(black_box(rec)).len();
            }
            black_box(n)
        })
    });
}

criterion_group!(benches, bench_online);
criterion_main!(benches);
