//! The subsystem's contract: online == batch.
//!
//! * Property test: for arbitrary per-item I/O streams, the incremental
//!   classifier emits the same P0–P3 labels, Long-Interval counts, and
//!   read ratios as the batch analysis of the buffered period.
//! * Plan-sequence test: the colocated daemon fed a workload's records
//!   produces the same plans, period for period, as the batch replay
//!   engine running [`EnergyEfficientPolicy`] over the same workload.
//! * Determinism test: the same NDJSON stream ingested twice yields
//!   identical plan sequences and summaries.

use ees_core::{analyze_snapshot, EnergyEfficientPolicy, ProposedConfig};
use ees_iotrace::{ndjson, DataItemId, IoKind, LogicalIoRecord, Micros, Span};
use ees_online::{
    ColocatedDaemon, IncrementalClassifier, OverflowPolicy, PlanEnvelope, RolloverReason,
};
use ees_policy::{ManagementPlan, MonitorSnapshot, PolicyReaction, PowerPolicy, RuntimeEvent};
use ees_replay::{CatalogItem, ReplayOptions};
use ees_simstorage::{PlacementMap, StorageConfig};
use ees_workloads::{fileserver, FileServerParams, Workload};
use proptest::prelude::*;
use std::io::Cursor;

const BE: Micros = Micros(52_000_000);

// ---------------------------------------------------------------------
// Classifier equivalence (property-based).
// ---------------------------------------------------------------------

fn arb_stream() -> impl Strategy<Value = Vec<LogicalIoRecord>> {
    // Up to 120 records over up to 4 items across a 200 s period:
    // enough room for leading/trailing gaps, multi-item interleaving,
    // and records exactly at the period end.
    let rec = (
        0u64..200_000_001u64, // ts (upper bound inclusive of the period end)
        0u32..4u32,           // item
        prop::bool::ANY,      // read?
        1u32..65_536u32,      // len
    );
    prop::collection::vec(rec, 0..120).prop_map(|raw| {
        let mut recs: Vec<LogicalIoRecord> = raw
            .into_iter()
            .map(|(ts, item, is_read, len)| LogicalIoRecord {
                ts: Micros(ts),
                item: DataItemId(item),
                offset: 0,
                len,
                kind: if is_read { IoKind::Read } else { IoKind::Write },
            })
            .collect();
        recs.sort_by_key(|r| r.ts);
        recs
    })
}

proptest! {
    /// Incremental classification over a record stream equals batch
    /// classification of the buffered period: same labels, same
    /// Long-Interval counts, same read ratios, same IOPS buckets.
    #[test]
    fn incremental_matches_batch(recs in arb_stream()) {
        let period = Span { start: Micros::ZERO, end: Micros(200_000_000) };
        let mut placement = PlacementMap::new();
        for i in 0..4 {
            placement.insert(DataItemId(i), ees_iotrace::EnclosureId((i % 2) as u16), 1000);
        }

        let mut inc = IncrementalClassifier::new(period.start, BE);
        for rec in &recs {
            inc.observe(rec);
        }
        let ours = inc.rollover(period.end, &placement, &ees_policy::NO_SEQUENTIAL, 1.0);

        let batch = analyze_snapshot(&MonitorSnapshot {
            period,
            break_even: BE,
            logical: &recs,
            physical: &[],
            placement: &placement,
            enclosures: &[],
            sequential: &ees_policy::NO_SEQUENTIAL,
        });

        prop_assert_eq!(ours.len(), batch.len());
        for (a, b) in ours.iter().zip(batch.iter()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.pattern, b.pattern, "label of item {}", a.id);
            prop_assert_eq!(
                a.stats.long_intervals.len(),
                b.stats.long_intervals.len(),
                "Long-Interval count of item {}", a.id
            );
            prop_assert_eq!(&a.stats, &b.stats, "interval stats of item {}", a.id);
            prop_assert_eq!(
                (a.stats.reads, a.stats.writes),
                (b.stats.reads, b.stats.writes),
                "read ratio of item {}", a.id
            );
            prop_assert_eq!(&a.iops.buckets, &b.iops.buckets, "IOPS of item {}", a.id);
        }
    }

    /// Splitting the stream at an arbitrary cut (a trigger-style early
    /// rollover) then rolling the remainder keeps each window's reports
    /// equal to batch analysis of that window.
    #[test]
    fn trigger_cut_windows_match_batch(recs in arb_stream(), cut_us in 1u64..200_000_000u64) {
        let cut = Micros(cut_us);
        let mut placement = PlacementMap::new();
        placement.insert(DataItemId(0), ees_iotrace::EnclosureId(0), 1000);
        placement.insert(DataItemId(1), ees_iotrace::EnclosureId(1), 1000);
        let recs: Vec<LogicalIoRecord> =
            recs.into_iter().filter(|r| r.item.0 < 2).collect();

        let first: Vec<LogicalIoRecord> =
            recs.iter().copied().filter(|r| r.ts <= cut).collect();
        let second: Vec<LogicalIoRecord> =
            recs.iter().copied().filter(|r| r.ts > cut).collect();

        let mut inc = IncrementalClassifier::new(Micros::ZERO, BE);
        for rec in &first {
            inc.observe(rec);
        }
        let w1 = inc.rollover(cut, &placement, &ees_policy::NO_SEQUENTIAL, 1.0);
        for rec in &second {
            inc.observe(rec);
        }
        let w2 = inc.rollover(Micros(200_000_000), &placement, &ees_policy::NO_SEQUENTIAL, 1.0);

        for (win, logical, span) in [
            (&w1, &first, Span { start: Micros::ZERO, end: cut }),
            (&w2, &second, Span { start: cut, end: Micros(200_000_000) }),
        ] {
            let batch = analyze_snapshot(&MonitorSnapshot {
                period: span,
                break_even: BE,
                logical,
                physical: &[],
                placement: &placement,
                enclosures: &[],
                sequential: &ees_policy::NO_SEQUENTIAL,
            });
            for (a, b) in win.iter().zip(batch.iter()) {
                prop_assert_eq!(a.pattern, b.pattern);
                prop_assert_eq!(&a.stats, &b.stats);
                prop_assert_eq!(&a.iops.buckets, &b.iops.buckets);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Plan-sequence equivalence against the batch engine.
// ---------------------------------------------------------------------

/// Wraps the batch policy and records every plan it emits.
struct RecordingPolicy {
    inner: EnergyEfficientPolicy,
    plans: Vec<ManagementPlan>,
}

impl RecordingPolicy {
    fn with_defaults() -> Self {
        RecordingPolicy {
            inner: EnergyEfficientPolicy::with_defaults(),
            plans: Vec::new(),
        }
    }
}

impl PowerPolicy for RecordingPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn initial_period(&self) -> Micros {
        self.inner.initial_period()
    }
    fn on_period_end(&mut self, snapshot: &MonitorSnapshot<'_>) -> ManagementPlan {
        let plan = self.inner.on_period_end(snapshot);
        self.plans.push(plan.clone());
        plan
    }
    fn on_event(&mut self, event: &RuntimeEvent) -> PolicyReaction {
        self.inner.on_event(event)
    }
}

fn catalog(w: &Workload) -> Vec<CatalogItem> {
    w.items
        .iter()
        .map(|i| CatalogItem {
            id: i.id,
            size: i.size,
            enclosure: i.enclosure,
            access: i.access,
        })
        .collect()
}

fn run_daemon(w: &Workload, cfg: &StorageConfig) -> (Vec<PlanEnvelope>, ees_online::OnlineSummary) {
    let mut daemon = ColocatedDaemon::new(
        &catalog(w),
        w.num_enclosures,
        cfg,
        ProposedConfig::default(),
    );
    let mut envelopes = Vec::new();
    for rec in w.trace.records() {
        envelopes.extend(daemon.step(*rec).expect("daemon step failed"));
    }
    let summary = daemon.finish(Some(w.duration));
    (envelopes, summary)
}

/// The acceptance bar for the subsystem: `ees online` (the daemon)
/// replaying a trace end-to-end produces the same plan sequence as the
/// batch harness on the same input — including §V.D trigger cuts.
#[test]
fn daemon_plans_equal_batch_engine_plans() {
    let w = fileserver::generate(7, &FileServerParams::scaled(0.05)); // 18 min
    let cfg = StorageConfig::ams2500(w.num_enclosures);

    let mut recording = RecordingPolicy::with_defaults();
    let report = ees_replay::run(&w, &mut recording, &cfg, &ReplayOptions::default());

    let (envelopes, summary) = run_daemon(&w, &cfg);

    assert_eq!(
        envelopes.len(),
        recording.plans.len(),
        "same number of management invocations"
    );
    for (i, (env, batch)) in envelopes.iter().zip(recording.plans.iter()).enumerate() {
        assert_eq!(&env.plan, batch, "plan #{i} (period {:?})", env.period);
    }
    // The storage side agrees too: identical spin-up and period counts,
    // identical energy outcome.
    assert_eq!(summary.periods, report.periods);
    assert_eq!(summary.spin_ups, report.spin_ups);
    assert!(
        (summary.avg_power_watts - report.avg_power_watts).abs() < 1e-9,
        "daemon {} W vs engine {} W",
        summary.avg_power_watts,
        report.avg_power_watts
    );
    // The workload is bursty enough that the triggers actually exercise
    // the mid-period path in both harnesses.
    assert!(envelopes.len() as u64 >= 2, "at least two plans");
}

// ---------------------------------------------------------------------
// NDJSON determinism.
// ---------------------------------------------------------------------

fn ndjson_of(w: &Workload) -> String {
    let mut buf = Vec::new();
    ndjson::write_events(w.trace.records(), &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn run_daemon_over_ndjson(
    text: &str,
    w: &Workload,
    cfg: &StorageConfig,
) -> (Vec<PlanEnvelope>, ees_online::OnlineSummary) {
    let (rx, pool, _counters, handle) = ees_online::spawn_reader_parallel(
        Cursor::new(text.to_string()),
        4,
        64,
        OverflowPolicy::Block,
        1,
        0,
    );
    let mut daemon = ColocatedDaemon::new(
        &catalog(w),
        w.num_enclosures,
        cfg,
        ProposedConfig::default(),
    );
    let mut envelopes = Vec::new();
    for mut batch in rx {
        for rec in batch.drain(..) {
            envelopes.extend(daemon.step(rec).expect("daemon step failed"));
        }
        pool.recycle(batch);
    }
    let stats = handle.join().unwrap().unwrap();
    assert_eq!(stats.dropped, 0);
    (envelopes, daemon.finish(Some(w.duration)))
}

/// The same NDJSON stream ingested twice produces identical plans — and
/// the codec round-trip loses nothing relative to stepping the in-memory
/// trace directly.
#[test]
fn ndjson_ingest_is_deterministic_and_lossless() {
    let w = fileserver::generate(11, &FileServerParams::scaled(0.03));
    let cfg = StorageConfig::ams2500(w.num_enclosures);
    let text = ndjson_of(&w);

    let (e1, s1) = run_daemon_over_ndjson(&text, &w, &cfg);
    let (e2, s2) = run_daemon_over_ndjson(&text, &w, &cfg);
    assert_eq!(e1.len(), e2.len());
    for (a, b) in e1.iter().zip(e2.iter()) {
        assert_eq!(a.period, b.period);
        assert_eq!(a.reason, b.reason);
        assert_eq!(a.plan, b.plan);
    }
    assert_eq!(s1, s2);

    let (direct, s3) = run_daemon(&w, &cfg);
    assert_eq!(e1.len(), direct.len(), "codec round-trip loses nothing");
    for (a, b) in e1.iter().zip(direct.iter()) {
        assert_eq!(a.plan, b.plan);
    }
    assert_eq!(s1, s3);
    assert!(s1.periods >= 1);
}

/// Scheduled boundaries and trigger cuts are both represented in the
/// envelope stream, and periods chain without gaps.
#[test]
fn envelopes_chain_contiguously() {
    let w = fileserver::generate(3, &FileServerParams::scaled(0.05));
    let cfg = StorageConfig::ams2500(w.num_enclosures);
    let (envelopes, summary) = run_daemon(&w, &cfg);
    assert_eq!(summary.periods, envelopes.len() as u64);
    let mut prev_end = Micros::ZERO;
    for env in &envelopes {
        assert_eq!(env.period.start, prev_end, "periods must chain");
        assert!(env.period.end > env.period.start);
        prev_end = env.period.end;
    }
    assert_eq!(
        summary.trigger_cuts,
        envelopes
            .iter()
            .filter(|e| e.reason == RolloverReason::Trigger)
            .count() as u64
    );
}
