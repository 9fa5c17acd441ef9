//! Per-layer benchmarks of the `ees online` coordinator's serial path,
//! timed without the daemon benchmark's ingest front end:
//!
//! * `StreamHarness::serve` over a read-heavy File Server slice (preload
//!   and general-cache lookups) and over a write-heavy cloud-block slice
//!   (write-delay buffering and flushes), each behind the plan the daemon
//!   had installed at that point of the trace;
//! * `Planner::plan` over 20k item reports with a write-delay history of
//!   5,000 items that the §V.C retention rule keeps.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ees_core::{ItemReport, LogicalIoPattern, Planner, ProposedConfig};
use ees_iotrace::{
    DataItemId, EnclosureId, IopsSeries, ItemIntervalStats, LogicalIoRecord, Micros, Span, MIB,
};
use ees_online::ColocatedDaemon;
use ees_policy::{EnclosureView, ManagementPlan};
use ees_replay::{CatalogItem, StreamHarness};
use ees_simstorage::StorageConfig;
use ees_workloads::{cloudblock, fileserver, CloudBlockParams, FileServerParams, Workload};

/// Records served per benchmark iteration.
const SLICE: usize = 100_000;

/// A harness input: the catalog, the plan the daemon had applied when
/// the slice begins, and the slice itself.
struct ServeCase {
    catalog: Vec<CatalogItem>,
    num_enclosures: u16,
    storage: StorageConfig,
    plan_at: Micros,
    plan: ManagementPlan,
    slice: Vec<LogicalIoRecord>,
}

/// Steps a daemon over `workload` until it has produced `plans` plans,
/// then takes the next [`SLICE`] records.
fn serve_case(workload: &Workload, period: Option<Micros>, plans: usize) -> ServeCase {
    let num_enclosures = workload
        .items
        .iter()
        .map(|i| i.enclosure.0 + 1)
        .max()
        .unwrap_or(1);
    let catalog: Vec<CatalogItem> = workload
        .items
        .iter()
        .map(|i| CatalogItem {
            id: i.id,
            size: i.size,
            enclosure: i.enclosure,
            access: i.access,
        })
        .collect();
    let storage = StorageConfig::ams2500(num_enclosures);
    let mut policy = ProposedConfig::default();
    if let Some(p) = period {
        policy.initial_period = p;
    }
    let mut daemon = ColocatedDaemon::new(&catalog, num_enclosures, &storage, policy);
    let records = workload.trace.records();
    let mut seen = Vec::new();
    let mut at = 0;
    while seen.len() < plans && at < records.len() {
        seen.extend(daemon.step(records[at]).expect("catalog items only"));
        at += 1;
    }
    let last = seen.pop().expect("the trace yields the plans asked for");
    ServeCase {
        catalog,
        num_enclosures,
        storage,
        plan_at: last.period.end,
        plan: last.plan,
        slice: records[at..(at + SLICE).min(records.len())].to_vec(),
    }
}

fn bench_serve(c: &mut Criterion) {
    let fs = fileserver::generate(5, &FileServerParams::scaled(0.05));
    let mut cb_params = CloudBlockParams::scaled(0.02);
    cb_params.num_volumes = 20_000;
    let cb = cloudblock::generate(5, &cb_params);
    let cases = [
        ("fileserver_read", serve_case(&fs, None, 2)),
        (
            "cloudblock_write_delay",
            serve_case(&cb, Some(Micros::from_secs(30)), 4),
        ),
    ];
    let mut group = c.benchmark_group("harness_serve");
    for (name, case) in &cases {
        group.throughput(Throughput::Elements(case.slice.len() as u64));
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut h = StreamHarness::new(&case.catalog, case.num_enclosures, &case.storage);
                h.apply_plan(case.plan_at, &case.plan);
                let mut physical = 0u64;
                for rec in &case.slice {
                    physical += h.serve(black_box(*rec)).physical as u64;
                }
                black_box(physical)
            })
        });
    }
    group.finish();
}

const ITEMS: u32 = 20_000;
const ENCLOSURES: u16 = 12;
const HISTORY: u32 = 5_000;

/// 20k reports on 12 enclosures: a few hundred loaded P3 items on the
/// first two enclosures, P1/P2 items spread over the rest, and quiet P0
/// items everywhere else.
fn reports(period: Span) -> Vec<ItemReport> {
    (0..ITEMS)
        .map(|i| {
            let (pattern, enc, reads, writes) = match i % 20 {
                0 => (LogicalIoPattern::P3, (i % 2) as u16, 3_000, 1_000),
                1 | 2 => (LogicalIoPattern::P1, 2 + (i % 10) as u16, 400, 10),
                3 | 4 => (LogicalIoPattern::P2, 2 + (i % 10) as u16, 10, 400),
                _ => (LogicalIoPattern::P0, 2 + (i % 10) as u16, 0, 0),
            };
            let id = DataItemId(i);
            ItemReport {
                id,
                enclosure: EnclosureId(enc),
                size: 4 * MIB,
                pattern,
                stats: ItemIntervalStats {
                    item: id,
                    period,
                    long_intervals: Vec::new(),
                    sequences: Vec::new(),
                    reads,
                    writes,
                    bytes_read: reads * 65_536,
                    bytes_written: writes * 65_536,
                },
                iops: IopsSeries::from_timestamps(
                    (0..(reads + writes) / 100).map(|s| period.start + Micros::from_secs(s % 60)),
                    period,
                ),
                sequential: false,
                seq_factor: 900.0 / 2800.0,
            }
        })
        .collect()
}

fn bench_plan(c: &mut Criterion) {
    let cfg = ProposedConfig::default();
    let first = Span {
        start: Micros::ZERO,
        end: Micros::from_secs(600),
    };
    let mut reports = reports(first);
    let views: Vec<EnclosureView> = (0..ENCLOSURES)
        .map(|e| EnclosureView {
            id: EnclosureId(e),
            capacity: 1_700 * 1_000 * MIB,
            used: reports
                .iter()
                .filter(|r| r.enclosure.0 == e)
                .map(|r| r.size)
                .sum(),
            max_iops: 900.0,
            max_seq_iops: 2800.0,
            served_ios: 0,
            spin_ups: 0,
        })
        .collect();
    // The history: quiet P0 items on cold enclosures, which retention
    // keeps in the write-delay set plan after plan.
    let mut state = Planner::new(cfg).export_state();
    state.last_write_delay = (0..ITEMS)
        .filter(|i| i % 20 >= 5)
        .take(HISTORY as usize)
        .map(DataItemId)
        .collect();
    let mut planner = Planner::from_state(cfg, state);
    let mut period = first;
    c.bench_function("planner_plan_20k_items_5k_write_delay_history", |b| {
        b.iter(|| {
            let out = planner.plan(period, Micros::from_secs(52), &mut reports, &views);
            period = Span {
                start: period.end,
                end: period.end + Micros::from_secs(600),
            };
            black_box(out.plan.write_delay.len())
        })
    });
}

criterion_group!(benches, bench_serve, bench_plan);
criterion_main!(benches);
