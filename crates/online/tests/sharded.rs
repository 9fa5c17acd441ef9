//! The sharded controller's contract: sharded == single-threaded,
//! plan for plan, for any shard count.
//!
//! * Property test: for arbitrary record streams (including streams that
//!   cut periods mid-way via §V.D triggers), a [`ShardedController`]
//!   with 1, 2, 3, 4, or 8 shards driven through the daemon flow emits
//!   exactly the plan sequence of the single-threaded
//!   [`OnlineController`] on the same input.
//! * Deterministic test: a bursty file-server workload exercises actual
//!   trigger cuts and the equality still holds.
//! * Pipeline property test: the sharded monitor pipeline
//!   ([`run_monitor_sharded`]) matches the serial reference driver
//!   ([`run_monitor_serial`]) over the NDJSON rendering of the stream.
//! * Overlapped-rollover tests: driving every cut through the split
//!   `rollover_begin` → `rollover_ready` → `rollover_finish` epoch
//!   machinery (including with a worker panicking while the cut is in
//!   flight) still reproduces the serial plan sequence byte-for-byte.
//! * Parallel-front-end tests: the chunked ingest front end
//!   ([`run_monitor_sharded_with`], one reader included) across the
//!   readers × shards matrix at tiny chunk targets — arbitrary streams,
//!   mid-period trigger cuts, inputs smaller than the parser pool,
//!   error-line parity, and crash/restore from `ees.checkpoint.v1`
//!   mid-ingest — all byte-identical to the serial driver.

use ees_core::ProposedConfig;
use ees_iotrace::wire::{encode_events, encode_events_framed};
use ees_iotrace::{ndjson, DataItemId, EnclosureId, IoKind, LogicalIoRecord, Micros};
use ees_online::{
    read_checkpoint_file, run_monitor_serial, run_monitor_sharded, run_monitor_sharded_slice,
    run_monitor_sharded_with, shard_of, silence_injected_panics, spawn_reader_parallel,
    write_checkpoint_file, ColocatedDaemon, OnlineController, OverflowPolicy, PanicSchedule,
    PlanEnvelope, RolloverReason, ShardOptions, ShardedController,
};
use ees_policy::EnclosureView;
use ees_replay::{CatalogItem, StreamHarness};
use ees_simstorage::{Access, PlacementMap, StorageConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::Cursor;

const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

/// The common controller surface, so one driver can exercise both
/// flavors through the exact per-record flow the daemon uses.
trait ControllerLike {
    fn needs_rollover(&self, ts: Micros) -> bool;
    fn boundary(&self) -> Micros;
    fn period_start(&self) -> Micros;
    fn observe(&mut self, rec: &LogicalIoRecord);
    fn observe_io_event(&mut self, t: Micros, e: EnclosureId) -> bool;
    fn observe_spin_up(&mut self, t: Micros, e: EnclosureId) -> bool;
    fn rollover(
        &mut self,
        t: Micros,
        reason: RolloverReason,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
        views: &[EnclosureView],
    ) -> PlanEnvelope;
}

macro_rules! impl_controller_like {
    // The sharded flavor's rollover is fallible (worker supervision can
    // surface a fatal error); in these equivalence tests any failure is
    // a test failure, so unwrap at the trait boundary.
    ($ty:ty, fallible) => {
        impl ControllerLike for $ty {
            fn needs_rollover(&self, ts: Micros) -> bool {
                <$ty>::needs_rollover(self, ts)
            }
            fn boundary(&self) -> Micros {
                <$ty>::boundary(self)
            }
            fn period_start(&self) -> Micros {
                <$ty>::period_start(self)
            }
            fn observe(&mut self, rec: &LogicalIoRecord) {
                <$ty>::observe(self, rec)
            }
            fn observe_io_event(&mut self, t: Micros, e: EnclosureId) -> bool {
                <$ty>::observe_io_event(self, t, e)
            }
            fn observe_spin_up(&mut self, t: Micros, e: EnclosureId) -> bool {
                <$ty>::observe_spin_up(self, t, e)
            }
            fn rollover(
                &mut self,
                t: Micros,
                reason: RolloverReason,
                placement: &PlacementMap,
                sequential: &BTreeSet<DataItemId>,
                views: &[EnclosureView],
            ) -> PlanEnvelope {
                <$ty>::rollover(self, t, reason, placement, sequential, views)
                    .expect("sharded rollover failed")
            }
        }
    };
    ($ty:ty) => {
        impl ControllerLike for $ty {
            fn needs_rollover(&self, ts: Micros) -> bool {
                <$ty>::needs_rollover(self, ts)
            }
            fn boundary(&self) -> Micros {
                <$ty>::boundary(self)
            }
            fn period_start(&self) -> Micros {
                <$ty>::period_start(self)
            }
            fn observe(&mut self, rec: &LogicalIoRecord) {
                <$ty>::observe(self, rec)
            }
            fn observe_io_event(&mut self, t: Micros, e: EnclosureId) -> bool {
                <$ty>::observe_io_event(self, t, e)
            }
            fn observe_spin_up(&mut self, t: Micros, e: EnclosureId) -> bool {
                <$ty>::observe_spin_up(self, t, e)
            }
            fn rollover(
                &mut self,
                t: Micros,
                reason: RolloverReason,
                placement: &PlacementMap,
                sequential: &BTreeSet<DataItemId>,
                views: &[EnclosureView],
            ) -> PlanEnvelope {
                <$ty>::rollover(self, t, reason, placement, sequential, views)
            }
        }
    };
}

impl_controller_like!(OnlineController);
impl_controller_like!(ShardedController, fallible);

/// Replays `recs` through a controller with the daemon's per-record
/// flow: boundary rollovers before the record, classify before serving,
/// spin-up then I/O trigger events after, a trigger cut only when `t` is
/// strictly past the period start.
fn drive<C: ControllerLike>(
    mut ctl: C,
    recs: &[LogicalIoRecord],
    catalog: &[CatalogItem],
    enclosures: u16,
    cfg: &StorageConfig,
) -> Vec<PlanEnvelope> {
    let mut harness = StreamHarness::new(catalog, enclosures, cfg);
    let mut plans: Vec<PlanEnvelope> = Vec::new();
    fn invoke<C: ControllerLike>(
        harness: &mut StreamHarness,
        ctl: &mut C,
        t: Micros,
        reason: RolloverReason,
    ) -> PlanEnvelope {
        harness.refresh_views();
        let env = ctl.rollover(
            t,
            reason,
            harness.placement(),
            harness.sequential(),
            harness.views(),
        );
        harness.apply_plan(t, &env.plan);
        harness.begin_period();
        env
    }
    for rec in recs {
        while ctl.needs_rollover(rec.ts) {
            let t = ctl.boundary();
            plans.push(invoke(&mut harness, &mut ctl, t, RolloverReason::Boundary));
        }
        ctl.observe(rec);
        let served = harness.serve(*rec);
        let mut fire = false;
        if served.spun_up {
            fire |= ctl.observe_spin_up(rec.ts, served.enclosure);
        }
        fire |= ctl.observe_io_event(rec.ts, served.enclosure);
        if fire && rec.ts > ctl.period_start() {
            plans.push(invoke(
                &mut harness,
                &mut ctl,
                rec.ts,
                RolloverReason::Trigger,
            ));
        }
    }
    plans
}

/// Like [`drive`], but every cut goes through the split overlapped API:
/// `rollover_begin` ships the in-band cut, the coordinator polls
/// `rollover_ready` (the window where the pipeline reads ahead and
/// stages records), and `rollover_finish` collects the merge and plans.
/// The composed `rollover` is exactly `begin` + `finish`, so this driver
/// pins the *polled* path — including cuts that land while a worker is
/// dead mid-respawn.
fn drive_overlapped(
    mut ctl: ShardedController,
    recs: &[LogicalIoRecord],
    catalog: &[CatalogItem],
    enclosures: u16,
    cfg: &StorageConfig,
) -> Vec<PlanEnvelope> {
    let mut harness = StreamHarness::new(catalog, enclosures, cfg);
    let mut plans: Vec<PlanEnvelope> = Vec::new();
    fn cut(
        harness: &mut StreamHarness,
        ctl: &mut ShardedController,
        t: Micros,
        reason: RolloverReason,
    ) -> PlanEnvelope {
        harness.refresh_views();
        ctl.rollover_begin(
            t,
            reason,
            harness.placement(),
            harness.sequential(),
            harness.views(),
        )
        .expect("rollover_begin");
        while !ctl.rollover_ready() {
            std::thread::yield_now();
        }
        let env = ctl.rollover_finish().expect("rollover_finish");
        harness.apply_plan(t, &env.plan);
        harness.begin_period();
        env
    }
    for rec in recs {
        while ctl.needs_rollover(rec.ts) {
            let t = ctl.boundary();
            plans.push(cut(&mut harness, &mut ctl, t, RolloverReason::Boundary));
        }
        ctl.observe(rec);
        let served = harness.serve(*rec);
        let mut fire = false;
        if served.spun_up {
            fire |= ctl.observe_spin_up(rec.ts, served.enclosure);
        }
        fire |= ctl.observe_io_event(rec.ts, served.enclosure);
        if fire && rec.ts > ctl.period_start() {
            plans.push(cut(&mut harness, &mut ctl, rec.ts, RolloverReason::Trigger));
        }
    }
    plans
}

fn assert_same_plans(single: &[PlanEnvelope], sharded: &[PlanEnvelope], shards: usize) {
    assert_eq!(single.len(), sharded.len(), "plan count, shards = {shards}");
    for (i, (a, b)) in single.iter().zip(sharded).enumerate() {
        assert_eq!(a.period, b.period, "plan #{i} period, shards = {shards}");
        assert_eq!(a.reason, b.reason, "plan #{i} reason, shards = {shards}");
        assert_eq!(a.plan, b.plan, "plan #{i}, shards = {shards}");
    }
}

fn synthetic_catalog(items: u32, enclosures: u16) -> Vec<CatalogItem> {
    (0..items)
        .map(|i| CatalogItem {
            id: DataItemId(i),
            size: 64 << 20,
            enclosure: EnclosureId((i % enclosures as u32) as u16),
            access: Access::Random,
        })
        .collect()
}

fn arb_stream() -> impl Strategy<Value = Vec<LogicalIoRecord>> {
    // Up to 250 records over 8 items across a 400 s window with a short
    // (60 s) initial period: several rollovers, bursts dense enough to
    // make §V.D trigger cuts possible.
    let rec = (
        0u64..400_000_001u64,
        0u32..8u32,
        prop::bool::ANY,
        1u32..65_536u32,
    );
    prop::collection::vec(rec, 0..250).prop_map(|raw| {
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

fn short_period_policy() -> ProposedConfig {
    ProposedConfig {
        initial_period: Micros::from_secs(60),
        ..ProposedConfig::default()
    }
}

fn read_rec(ts: u64, item: u32) -> LogicalIoRecord {
    LogicalIoRecord {
        ts: Micros(ts),
        item: DataItemId(item),
        offset: 0,
        len: 4096,
        kind: IoKind::Read,
    }
}

/// A trace shaped to fire a §V.D trigger (i) cut: items 0 and 1 run hot
/// (continuous, ≥5 rand-equivalent IOPS → P3) through the first 60 s
/// period so their enclosures re-arm as the hot set, then fall silent
/// while sweep I/O on quiet items keeps the idle clocks observed. Once
/// the hot gap passes break-even (52 s on `ams2500`), the sweep cuts the
/// period mid-way.
fn trigger_trace(hot_step: u64, sweeps: &[(u64, u32)]) -> Vec<LogicalIoRecord> {
    let mut recs = Vec::new();
    let mut t = 0u64;
    while t < 60_000_000 {
        recs.push(read_rec(t, 0));
        recs.push(read_rec(t + hot_step / 2, 1));
        t += hot_step;
    }
    for &(ts, item) in sweeps {
        recs.push(read_rec(ts, item));
    }
    // Guaranteed sweeps past the 112 s idle horizon so the cut cannot
    // depend on the arbitrary sweep placement alone.
    recs.push(read_rec(113_000_000, 2));
    recs.push(read_rec(116_000_000, 2));
    recs.sort_by_key(|r| r.ts);
    recs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary streams: every shard count produces the single-threaded
    /// plan sequence through the full daemon flow (boundary rollovers
    /// and trigger cuts alike).
    #[test]
    fn sharded_controller_plans_equal_single(recs in arb_stream()) {
        let enclosures = 3u16;
        let catalog = synthetic_catalog(8, enclosures);
        let cfg = StorageConfig::ams2500(enclosures);
        let policy = short_period_policy();
        let break_even = StreamHarness::new(&catalog, enclosures, &cfg).break_even();

        let single = drive(
            OnlineController::new(policy, break_even),
            &recs, &catalog, enclosures, &cfg,
        );
        for shards in SHARD_COUNTS {
            let sharded = drive(
                ShardedController::new(policy, break_even, shards),
                &recs, &catalog, enclosures, &cfg,
            );
            assert_same_plans(&single, &sharded, shards);
        }
    }

    /// The sharded monitor pipeline (one reader per shard) matches the
    /// serial driver over the NDJSON rendering of the same stream.
    #[test]
    fn sharded_pipeline_plans_equal_serial(recs in arb_stream()) {
        let enclosures = 3u16;
        let catalog = synthetic_catalog(8, enclosures);
        let cfg = StorageConfig::ams2500(enclosures);
        let policy = short_period_policy();
        let mut text = Vec::new();
        ndjson::write_events(recs.iter(), &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();

        let serial = run_monitor_serial(
            Cursor::new(text.clone()), &catalog, enclosures, &cfg, policy, None,
        ).unwrap();
        for shards in SHARD_COUNTS {
            let sharded = run_monitor_sharded(
                Cursor::new(text.clone()), &catalog, enclosures, &cfg, policy, None, shards,
            ).unwrap();
            prop_assert_eq!(serial.events, sharded.events);
            assert_same_plans(&serial.plans, &sharded.plans, shards);
        }
    }

    /// The parallel ingest front end across the full readers × shards
    /// matrix, at arbitrary (tiny) chunk targets that force lines to be
    /// stitched across chunk boundaries: every combination reproduces
    /// the serial driver's plans byte for byte, with and without a
    /// trailing newline on the final line.
    #[test]
    fn parallel_frontend_plans_equal_serial(
        recs in arb_stream(),
        chunk in 8usize..512,
        trailing_newline in prop::bool::ANY,
    ) {
        let enclosures = 3u16;
        let catalog = synthetic_catalog(8, enclosures);
        let cfg = StorageConfig::ams2500(enclosures);
        let policy = short_period_policy();
        let mut text = Vec::new();
        ndjson::write_events(recs.iter(), &mut text).unwrap();
        let mut text = String::from_utf8(text).unwrap();
        if !trailing_newline && text.ends_with('\n') {
            text.pop();
        }

        let serial = run_monitor_serial(
            Cursor::new(text.clone()), &catalog, enclosures, &cfg, policy, None,
        ).unwrap();
        for readers in [1usize, 2, 4] {
            for shards in [1usize, 4, 8] {
                let options = ShardOptions { readers, chunk_bytes: chunk, ..ShardOptions::default() };
                let sharded = run_monitor_sharded_with(
                    Cursor::new(text.clone()), &catalog, enclosures, &cfg, policy, None,
                    shards, options,
                ).unwrap();
                prop_assert_eq!(
                    serial.events, sharded.events,
                    "readers = {}, shards = {}", readers, shards
                );
                assert_same_plans(&serial.plans, &sharded.plans, shards);
            }
        }
    }

    /// A framed `ees.event.v1` rendering of the stream — streamed or
    /// memory-mapped, at adversarially small block targets — produces
    /// plans byte-identical to the NDJSON text across the full
    /// readers × shards matrix {1,4} × {1,4,8}, and so does the
    /// unframed binary rendering through the serial-decode fallback.
    #[test]
    fn binary_frontend_plans_equal_ndjson(
        recs in arb_stream(),
        block_bytes in 32usize..512,
    ) {
        let enclosures = 3u16;
        let catalog = synthetic_catalog(8, enclosures);
        let cfg = StorageConfig::ams2500(enclosures);
        let policy = short_period_policy();
        let mut text = Vec::new();
        ndjson::write_events(recs.iter(), &mut text).unwrap();
        let framed = encode_events_framed(&recs, block_bytes);
        let flat = encode_events(&recs);

        let serial = run_monitor_serial(
            Cursor::new(text.clone()), &catalog, enclosures, &cfg, policy, None,
        ).unwrap();
        for readers in [1usize, 4] {
            for shards in [1usize, 4, 8] {
                let options = ShardOptions { readers, ..ShardOptions::default() };
                // Streamed framed binary (pipe-shaped input)…
                let streamed = run_monitor_sharded_with(
                    Cursor::new(framed.clone()), &catalog, enclosures, &cfg, policy, None,
                    shards, options.clone(),
                ).unwrap();
                prop_assert_eq!(
                    serial.events, streamed.events,
                    "streamed framed, readers = {}, shards = {}", readers, shards
                );
                assert_same_plans(&serial.plans, &streamed.plans, shards);
                // …the same bytes as an mmap-style slice…
                let sliced = run_monitor_sharded_slice(
                    &framed, &catalog, enclosures, &cfg, policy, None, shards, options.clone(),
                ).unwrap();
                prop_assert_eq!(
                    serial.events, sliced.events,
                    "sliced framed, readers = {}, shards = {}", readers, shards
                );
                assert_same_plans(&serial.plans, &sliced.plans, shards);
                // …and the unframed stream through the serial-decode path.
                let unframed = run_monitor_sharded_with(
                    Cursor::new(flat.clone()), &catalog, enclosures, &cfg, policy, None,
                    shards, options,
                ).unwrap();
                prop_assert_eq!(
                    serial.events, unframed.events,
                    "unframed, readers = {}, shards = {}", readers, shards
                );
                assert_same_plans(&serial.plans, &unframed.plans, shards);
            }
        }
    }

    /// Arbitrary traces that *do* cut periods mid-way: a randomized
    /// hot-burst-then-silence shape guarantees a §V.D trigger fires, and
    /// every shard count must reproduce the cut at the same timestamp
    /// with the same plan.
    #[test]
    fn sharded_controller_matches_single_through_trigger_cuts(
        hot_step in 80_000u64..120_000u64,
        sweeps in prop::collection::vec((60_500_000u64..119_000_000u64, 0u32..2u32), 0..30),
    ) {
        let enclosures = 3u16;
        let catalog = synthetic_catalog(6, enclosures);
        let cfg = StorageConfig::ams2500(enclosures);
        let policy = short_period_policy();
        let break_even = StreamHarness::new(&catalog, enclosures, &cfg).break_even();
        // Sweep only items that live on the cold enclosure (2 and 5 on
        // e2): sweeps on e0/e1 items would keep the hot idle clocks
        // fresh and mask the cut.
        let sweeps: Vec<(u64, u32)> =
            sweeps.into_iter().map(|(ts, i)| (ts, [2u32, 5][i as usize])).collect();
        let recs = trigger_trace(hot_step, &sweeps);

        let single = drive(
            OnlineController::new(policy, break_even),
            &recs, &catalog, enclosures, &cfg,
        );
        let cuts = single
            .iter()
            .filter(|e| e.reason == RolloverReason::Trigger)
            .count();
        prop_assert!(cuts >= 1, "fixture must exercise mid-period trigger cuts");
        for shards in SHARD_COUNTS {
            let sharded = drive(
                ShardedController::new(policy, break_even, shards),
                &recs, &catalog, enclosures, &cfg,
            );
            assert_same_plans(&single, &sharded, shards);
        }
    }

    /// Arbitrary streams through the *overlapped* cut protocol
    /// (`rollover_begin` → poll `rollover_ready` → `rollover_finish`):
    /// every shard count still reproduces the single-threaded plans.
    #[test]
    fn overlapped_rollover_plans_equal_single(recs in arb_stream()) {
        let enclosures = 3u16;
        let catalog = synthetic_catalog(8, enclosures);
        let cfg = StorageConfig::ams2500(enclosures);
        let policy = short_period_policy();
        let break_even = StreamHarness::new(&catalog, enclosures, &cfg).break_even();

        let single = drive(
            OnlineController::new(policy, break_even),
            &recs, &catalog, enclosures, &cfg,
        );
        for shards in SHARD_COUNTS {
            let sharded = drive_overlapped(
                ShardedController::new(policy, break_even, shards),
                &recs, &catalog, enclosures, &cfg,
            );
            assert_same_plans(&single, &sharded, shards);
        }
    }
}

/// The deterministic pin for the trigger-cut shape (the proptest above
/// randomizes it): a 60 s hot burst then silence cuts at ~112.5 s, and
/// the sharded pipeline reproduces it at every shard count.
#[test]
fn sharded_pipeline_matches_serial_through_trigger_cuts() {
    let enclosures = 3u16;
    let catalog = synthetic_catalog(6, enclosures);
    let cfg = StorageConfig::ams2500(enclosures);
    let policy = short_period_policy();
    let recs = trigger_trace(100_000, &[]);
    let mut text = Vec::new();
    ndjson::write_events(recs.iter(), &mut text).unwrap();
    let text = String::from_utf8(text).unwrap();

    let serial = run_monitor_serial(
        Cursor::new(text.clone()),
        &catalog,
        enclosures,
        &cfg,
        policy,
        None,
    )
    .unwrap();
    let cuts = serial
        .plans
        .iter()
        .filter(|e| e.reason == RolloverReason::Trigger)
        .count();
    assert!(cuts >= 1, "fixture must exercise §V.D trigger cuts");
    for shards in SHARD_COUNTS {
        let sharded = run_monitor_sharded(
            Cursor::new(text.clone()),
            &catalog,
            enclosures,
            &cfg,
            policy,
            None,
            shards,
        )
        .unwrap();
        assert_eq!(serial.events, sharded.events);
        assert_same_plans(&serial.plans, &sharded.plans, shards);
    }
}

/// The overlapped cut protocol through *mid-period §V.D trigger cuts*:
/// the deterministic ~112.5 s trigger fixture driven entirely via
/// `rollover_begin`/`rollover_ready`/`rollover_finish` matches the
/// single-threaded controller for every shard count.
#[test]
fn overlapped_rollover_matches_single_through_trigger_cuts() {
    let enclosures = 3u16;
    let catalog = synthetic_catalog(6, enclosures);
    let cfg = StorageConfig::ams2500(enclosures);
    let policy = short_period_policy();
    let break_even = StreamHarness::new(&catalog, enclosures, &cfg).break_even();
    let recs = trigger_trace(100_000, &[]);

    let single = drive(
        OnlineController::new(policy, break_even),
        &recs,
        &catalog,
        enclosures,
        &cfg,
    );
    let cuts = single
        .iter()
        .filter(|e| e.reason == RolloverReason::Trigger)
        .count();
    assert!(cuts >= 1, "fixture must exercise §V.D trigger cuts");
    for shards in SHARD_COUNTS {
        let sharded = drive_overlapped(
            ShardedController::new(policy, break_even, shards),
            &recs,
            &catalog,
            enclosures,
            &cfg,
        );
        assert_same_plans(&single, &sharded, shards);
    }
}

/// A worker panicking while a cut is in flight: each shard's panic point
/// is its *last* pre-boundary record, which `rollover_begin`'s flush
/// hands the worker together with the in-band cut — so the panic lands
/// between `begin` and `finish`, and `finish`'s revival rounds must
/// respawn the worker, replay its journal, re-ask the cut, and still
/// produce the serial plans byte-for-byte.
#[test]
fn worker_panic_during_in_flight_cut_keeps_plans_identical() {
    silence_injected_panics();
    let enclosures = 3u16;
    let catalog = synthetic_catalog(6, enclosures);
    let cfg = StorageConfig::ams2500(enclosures);
    let policy = short_period_policy();
    let break_even = StreamHarness::new(&catalog, enclosures, &cfg).break_even();
    let recs = trigger_trace(100_000, &[]);

    let single = drive(
        OnlineController::new(policy, break_even),
        &recs,
        &catalog,
        enclosures,
        &cfg,
    );
    for shards in [2usize, 4] {
        // Records each shard folds before the first 60 s boundary; the
        // panic fires on the last one, i.e. inside the batch the cut's
        // flush delivers.
        let mut pre_boundary = vec![0u64; shards];
        for rec in recs.iter().filter(|r| r.ts < Micros(60_000_000)) {
            pre_boundary[shard_of(rec.item, shards)] += 1;
        }
        let schedule = PanicSchedule::new(
            pre_boundary
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(s, &n)| (s, n - 1)),
        );
        let options = ShardOptions {
            panic_schedule: Some(schedule.clone()),
            ..ShardOptions::default()
        };
        let sharded = drive_overlapped(
            ShardedController::with_options(policy, break_even, shards, options),
            &recs,
            &catalog,
            enclosures,
            &cfg,
        );
        assert_eq!(
            schedule.remaining(),
            0,
            "every scheduled mid-cut panic must actually fire (shards = {shards})"
        );
        assert_same_plans(&single, &sharded, shards);
    }
}

/// The parallel front end through mid-period §V.D trigger cuts, with a
/// chunk target tiny enough that the cut lands while many chunks are
/// still in flight across the parser pool: plans (including the
/// ~112.5 s trigger cut) match the serial driver for the whole
/// readers × shards matrix.
#[test]
fn parallel_frontend_matches_serial_through_trigger_cuts() {
    let enclosures = 3u16;
    let catalog = synthetic_catalog(6, enclosures);
    let cfg = StorageConfig::ams2500(enclosures);
    let policy = short_period_policy();
    let recs = trigger_trace(100_000, &[]);
    let mut text = Vec::new();
    ndjson::write_events(recs.iter(), &mut text).unwrap();
    let text = String::from_utf8(text).unwrap();

    let serial = run_monitor_serial(
        Cursor::new(text.clone()),
        &catalog,
        enclosures,
        &cfg,
        policy,
        None,
    )
    .unwrap();
    let cuts = serial
        .plans
        .iter()
        .filter(|e| e.reason == RolloverReason::Trigger)
        .count();
    assert!(cuts >= 1, "fixture must exercise §V.D trigger cuts");
    for readers in [1usize, 2, 4] {
        for shards in [1usize, 4, 8] {
            let options = ShardOptions {
                readers,
                chunk_bytes: 96,
                ..ShardOptions::default()
            };
            let sharded = run_monitor_sharded_with(
                Cursor::new(text.clone()),
                &catalog,
                enclosures,
                &cfg,
                policy,
                None,
                shards,
                options,
            )
            .unwrap();
            assert_eq!(serial.events, sharded.events, "readers = {readers}");
            assert_same_plans(&serial.plans, &sharded.plans, shards);
        }
    }
}

/// The framed binary front end through mid-period §V.D trigger cuts:
/// with blocks small enough that the ~112.5 s cut lands while many
/// blocks are still in flight across the decoder pool, plans match the
/// serial NDJSON driver for the whole readers × shards matrix, streamed
/// and sliced alike.
#[test]
fn binary_frontend_matches_serial_through_trigger_cuts() {
    let enclosures = 3u16;
    let catalog = synthetic_catalog(6, enclosures);
    let cfg = StorageConfig::ams2500(enclosures);
    let policy = short_period_policy();
    let recs = trigger_trace(100_000, &[]);
    let mut text = Vec::new();
    ndjson::write_events(recs.iter(), &mut text).unwrap();
    let framed = encode_events_framed(&recs, 96);

    let serial =
        run_monitor_serial(Cursor::new(text), &catalog, enclosures, &cfg, policy, None).unwrap();
    let cuts = serial
        .plans
        .iter()
        .filter(|e| e.reason == RolloverReason::Trigger)
        .count();
    assert!(cuts >= 1, "fixture must exercise §V.D trigger cuts");
    for readers in [1usize, 4] {
        for shards in [1usize, 4, 8] {
            let options = ShardOptions {
                readers,
                ..ShardOptions::default()
            };
            let streamed = run_monitor_sharded_with(
                Cursor::new(framed.clone()),
                &catalog,
                enclosures,
                &cfg,
                policy,
                None,
                shards,
                options.clone(),
            )
            .unwrap();
            assert_eq!(serial.events, streamed.events, "readers = {readers}");
            assert_same_plans(&serial.plans, &streamed.plans, shards);
            let sliced = run_monitor_sharded_slice(
                &framed, &catalog, enclosures, &cfg, policy, None, shards, options,
            )
            .unwrap();
            assert_eq!(serial.events, sliced.events, "readers = {readers}");
            assert_same_plans(&serial.plans, &sliced.plans, shards);
        }
    }
}

/// Early-reader-EOF edges: inputs with fewer chunks than parser threads
/// (empty, comment-only, a single record, an unterminated final line,
/// CRLF endings). The idle readers must wind down cleanly and the event
/// count and plans must match the serial driver exactly.
#[test]
fn parallel_frontend_handles_inputs_smaller_than_the_pool() {
    let enclosures = 3u16;
    let catalog = synthetic_catalog(6, enclosures);
    let cfg = StorageConfig::ams2500(enclosures);
    let policy = short_period_policy();
    let one = "{\"ts\":5,\"item\":1,\"offset\":0,\"len\":4096,\"kind\":\"Read\"}";
    let fixtures: Vec<String> = vec![
        String::new(),
        "# only a comment\n".into(),
        "\n\n  \n".into(),
        format!("{one}\n"),
        one.to_string(),                         // no trailing newline
        format!("# head\r\n{one}\r\n\r\n{one}"), // CRLF + unterminated
    ];
    for (i, text) in fixtures.iter().enumerate() {
        let serial = run_monitor_serial(
            Cursor::new(text.clone()),
            &catalog,
            enclosures,
            &cfg,
            policy,
            None,
        )
        .unwrap();
        for readers in [1usize, 2, 8] {
            let options = ShardOptions {
                readers,
                chunk_bytes: 1 << 20,
                ..ShardOptions::default()
            };
            let sharded = run_monitor_sharded_with(
                Cursor::new(text.clone()),
                &catalog,
                enclosures,
                &cfg,
                policy,
                None,
                4,
                options,
            )
            .unwrap();
            assert_eq!(
                serial.events, sharded.events,
                "fixture #{i}, readers = {readers}"
            );
            assert_same_plans(&serial.plans, &sharded.plans, 4);
        }
    }
}

/// A malformed line under the parallel front end surfaces the serial
/// reader's exact error — same line number, same message — regardless of
/// reader count or where the chunk cuts land, and the good prefix is
/// still folded.
#[test]
fn parallel_frontend_reports_the_serial_error_line() {
    let enclosures = 3u16;
    let catalog = synthetic_catalog(6, enclosures);
    let cfg = StorageConfig::ams2500(enclosures);
    let policy = short_period_policy();
    let recs = trigger_trace(100_000, &[]);
    let mut text = Vec::new();
    ndjson::write_events(recs.iter(), &mut text).unwrap();
    let mut text = String::from_utf8(text).unwrap();
    text.push_str("{\"ts\":999000000,\"item\":1,\"offset\":0,\"len\":4096,\"kind\":\"Nope\"}\n");

    let serial_err = run_monitor_serial(
        Cursor::new(text.clone()),
        &catalog,
        enclosures,
        &cfg,
        policy,
        None,
    )
    .unwrap_err();
    for (readers, chunk) in [(1usize, 64usize), (2, 64), (4, 1), (4, 4096)] {
        let options = ShardOptions {
            readers,
            chunk_bytes: chunk,
            ..ShardOptions::default()
        };
        let sharded_err = run_monitor_sharded_with(
            Cursor::new(text.clone()),
            &catalog,
            enclosures,
            &cfg,
            policy,
            None,
            4,
            options,
        )
        .unwrap_err();
        assert_eq!(
            serial_err.to_string(),
            sharded_err.to_string(),
            "readers = {readers}, chunk = {chunk}"
        );
    }
}

/// Drives a daemon over `text` through the parallel reader, crashing
/// (dropping everything) after `crash_after` events and writing an
/// `ees.checkpoint.v1` file mid-ingest; `crash_after == None` runs to
/// EOF. Returns the plans emitted before the crash/end.
#[allow(clippy::too_many_arguments)]
fn run_daemon_parallel(
    text: &str,
    shards: usize,
    readers: usize,
    resume_from: Option<&std::path::Path>,
    crash_after: Option<u64>,
    checkpoint_out: Option<&std::path::Path>,
    catalog: &[CatalogItem],
    enclosures: u16,
    cfg: &StorageConfig,
    policy: ProposedConfig,
) -> Vec<PlanEnvelope> {
    let options = ShardOptions {
        readers,
        chunk_bytes: 64,
        ..ShardOptions::default()
    };
    let mut resume_skip = 0u64;
    let mut daemon = match resume_from {
        Some(path) => {
            let cp = read_checkpoint_file(path).expect("read checkpoint");
            let d = ColocatedDaemon::resume_with_options(
                catalog, enclosures, cfg, policy, shards, options, &cp,
            )
            .expect("resume");
            resume_skip = d.events();
            d
        }
        None => ColocatedDaemon::with_shard_options(
            catalog, enclosures, cfg, policy, None, shards, options,
        ),
    };
    let (rx, pool, _live, reader) = spawn_reader_parallel(
        Cursor::new(text.to_string()),
        16,
        8,
        OverflowPolicy::Block,
        readers,
        64,
    );
    let mut plans = Vec::new();
    let mut skipped = 0u64;
    let mut seen = 0u64;
    'stream: for mut batch in rx {
        for rec in batch.drain(..) {
            if skipped < resume_skip {
                skipped += 1;
                continue;
            }
            if let Some(limit) = crash_after {
                if seen >= limit {
                    break 'stream; // simulated crash mid-ingest
                }
            }
            seen += 1;
            plans.extend(daemon.step(rec).expect("step"));
        }
        pool.recycle(batch);
    }
    if let Some(path) = checkpoint_out {
        let cp = daemon.checkpoint().expect("checkpoint");
        write_checkpoint_file(path, &cp).expect("write checkpoint");
    }
    if crash_after.is_none() {
        reader.join().unwrap().expect("reader");
    }
    plans
}

/// Crash/restore mid-ingest under the parallel front end: a daemon dies
/// partway through the stream (mid-period, with chunks still in flight
/// across the parser pool), a fresh process resumes from its
/// `ees.checkpoint.v1` file over a *new* parallel reader, and the
/// combined plan sequence is byte-identical to an uninterrupted run —
/// for the full readers × shards matrix.
#[test]
fn parallel_frontend_crash_restore_keeps_plans_identical() {
    let enclosures = 3u16;
    let catalog = synthetic_catalog(6, enclosures);
    let cfg = StorageConfig::ams2500(enclosures);
    let policy = short_period_policy();
    let recs = trigger_trace(100_000, &[]);
    let mut text = Vec::new();
    ndjson::write_events(recs.iter(), &mut text).unwrap();
    let text = String::from_utf8(text).unwrap();
    let total = recs.len() as u64;

    for (readers, shards) in [(1usize, 1usize), (1, 4), (2, 1), (2, 4), (4, 8)] {
        let baseline = run_daemon_parallel(
            &text, shards, readers, None, None, None, &catalog, enclosures, &cfg, policy,
        );
        let cp_path = std::env::temp_dir().join(format!(
            "ees-sharded-crash-{}-{readers}x{shards}.ckpt",
            std::process::id()
        ));
        // Crash mid-period: 40% of the stream is folded, the checkpoint
        // is written, and everything else (staged chunks included) dies.
        let before = run_daemon_parallel(
            &text,
            shards,
            readers,
            None,
            Some(total * 2 / 5),
            Some(&cp_path),
            &catalog,
            enclosures,
            &cfg,
            policy,
        );
        let after = run_daemon_parallel(
            &text,
            shards,
            readers,
            Some(&cp_path),
            None,
            None,
            &catalog,
            enclosures,
            &cfg,
            policy,
        );
        std::fs::remove_file(&cp_path).ok();
        let mut combined = before;
        combined.extend(after);
        assert_same_plans(&baseline, &combined, shards);
    }
}
