//! The colocated daemon: the online controller driving the same
//! storage-side harness the batch replay engine uses.
//!
//! [`ColocatedDaemon::step`] mirrors the replay engine's per-record flow
//! exactly — boundary rollovers *before* the record, classification
//! *before* serving, trigger events *after* serving (spin-up first), a
//! trigger cut only when `t` is strictly past the period start — so a
//! daemon fed a workload's NDJSON stream produces the same plan sequence,
//! period for period, as `ees_replay::run` over the same workload. The
//! `equivalence` test suite asserts this plan-for-plan.

use crate::checkpoint::ControllerCheckpoint;
use crate::controller::{OnlineController, PlanEnvelope, RolloverReason};
use crate::error::OnlineError;
use crate::shard::{ShardOptions, ShardedController};
use ees_core::ProposedConfig;
use ees_iotrace::{DataItemId, EnclosureId, LogicalIoRecord, Micros};
use ees_policy::EnclosureView;
use ees_replay::{CatalogItem, StreamHarness};
use ees_simstorage::PlacementMap;
use ees_simstorage::StorageConfig;
use std::collections::BTreeSet;

/// Either controller flavor behind one dispatch point: the daemon's flow
/// is identical for both, and the sharded flavor is plan-for-plan
/// identical to the single-threaded one by construction.
// Exactly one instance lives per daemon, so the variant size gap
// costs nothing.
#[allow(clippy::large_enum_variant)]
enum DaemonController {
    Single(OnlineController),
    Sharded(ShardedController),
}

impl DaemonController {
    fn period_start(&self) -> Micros {
        match self {
            DaemonController::Single(c) => c.period_start(),
            DaemonController::Sharded(c) => c.period_start(),
        }
    }

    fn boundary(&self) -> Micros {
        match self {
            DaemonController::Single(c) => c.boundary(),
            DaemonController::Sharded(c) => c.boundary(),
        }
    }

    fn needs_rollover(&self, ts: Micros) -> bool {
        match self {
            DaemonController::Single(c) => c.needs_rollover(ts),
            DaemonController::Sharded(c) => c.needs_rollover(ts),
        }
    }

    fn periods(&self) -> u64 {
        match self {
            DaemonController::Single(c) => c.periods(),
            DaemonController::Sharded(c) => c.periods(),
        }
    }

    fn trigger_cuts(&self) -> u64 {
        match self {
            DaemonController::Single(c) => c.trigger_cuts(),
            DaemonController::Sharded(c) => c.trigger_cuts(),
        }
    }

    fn observe(&mut self, rec: &LogicalIoRecord) {
        match self {
            DaemonController::Single(c) => c.observe(rec),
            DaemonController::Sharded(c) => c.observe(rec),
        }
    }

    fn observe_io_event(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        match self {
            DaemonController::Single(c) => c.observe_io_event(t, enclosure),
            DaemonController::Sharded(c) => c.observe_io_event(t, enclosure),
        }
    }

    fn observe_spin_up(&mut self, t: Micros, enclosure: EnclosureId) -> bool {
        match self {
            DaemonController::Single(c) => c.observe_spin_up(t, enclosure),
            DaemonController::Sharded(c) => c.observe_spin_up(t, enclosure),
        }
    }

    fn rollover(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
        views: &[EnclosureView],
    ) -> Result<PlanEnvelope, OnlineError> {
        match self {
            DaemonController::Single(c) => {
                Ok(c.rollover(t_end, reason, placement, sequential, views))
            }
            DaemonController::Sharded(c) => c.rollover(t_end, reason, placement, sequential, views),
        }
    }

    fn export_state(
        &mut self,
        placement: &PlacementMap,
        sequential: &BTreeSet<DataItemId>,
        events: u64,
        last_ts: Micros,
    ) -> Result<ControllerCheckpoint, OnlineError> {
        match self {
            DaemonController::Single(c) => Ok(ControllerCheckpoint {
                events,
                last_ts,
                placement: placement
                    .iter()
                    .map(|(id, pl)| (id, pl.enclosure, pl.size))
                    .collect(),
                sequential: sequential.iter().copied().collect(),
                names: Vec::new(),
                state: c.export_state(),
            }),
            DaemonController::Sharded(c) => c.checkpoint(events, last_ts, placement, sequential),
        }
    }
}

/// Run-level counters reported when the stream ends.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSummary {
    /// Stream end (time the meters were settled at).
    pub duration: Micros,
    /// Logical records processed.
    pub events: u64,
    /// Management invocations (scheduled + trigger cuts).
    pub periods: u64,
    /// How many invocations were §V.D trigger cuts.
    pub trigger_cuts: u64,
    /// Mean storage-unit power over the run, in watts.
    pub avg_power_watts: f64,
    /// Enclosure spin-ups over the run.
    pub spin_ups: u64,
    /// Mean response time across all served records.
    pub avg_response: Micros,
}

/// The online controller colocated with (a simulation of) the storage
/// unit it manages: events in, plans out, applied in place.
pub struct ColocatedDaemon {
    harness: StreamHarness,
    controller: DaemonController,
    events: u64,
    response_sum: f64,
    last_ts: Micros,
}

impl ColocatedDaemon {
    /// Builds the daemon over `items` on a storage unit from `cfg` with
    /// `num_enclosures` enclosures.
    pub fn new(
        items: &[CatalogItem],
        num_enclosures: u16,
        storage: &StorageConfig,
        policy: ProposedConfig,
    ) -> Self {
        let harness = StreamHarness::new(items, num_enclosures, storage);
        let break_even = harness.break_even();
        Self::from_parts(harness, policy, break_even)
    }

    /// Like [`new`](Self::new), but classifies and arms triggers against
    /// an explicit break-even time instead of the one derived from the
    /// storage model (`ees online --break-even`).
    pub fn with_break_even(
        items: &[CatalogItem],
        num_enclosures: u16,
        storage: &StorageConfig,
        policy: ProposedConfig,
        break_even: Micros,
    ) -> Self {
        let harness = StreamHarness::new(items, num_enclosures, storage);
        Self::from_parts(harness, policy, break_even)
    }

    /// Like [`with_break_even`](Self::with_break_even) (pass
    /// `break_even: None` for the storage model's own value), but
    /// classification runs on `shards` worker threads behind a
    /// [`ShardedController`] — same plans, period for period, as the
    /// single-threaded daemon. `shards <= 1` stays single-threaded.
    pub fn with_shards(
        items: &[CatalogItem],
        num_enclosures: u16,
        storage: &StorageConfig,
        policy: ProposedConfig,
        break_even: Option<Micros>,
        shards: usize,
    ) -> Self {
        Self::with_shard_options(
            items,
            num_enclosures,
            storage,
            policy,
            break_even,
            shards,
            ShardOptions::default(),
        )
    }

    /// [`with_shards`](Self::with_shards) with explicit [`ShardOptions`]
    /// — supervision policy and per-shard transport queue depth (the
    /// `ees online --queue` knob reaches the workers through here).
    /// Ignored when `shards <= 1` keeps the daemon single-threaded.
    #[allow(clippy::too_many_arguments)]
    pub fn with_shard_options(
        items: &[CatalogItem],
        num_enclosures: u16,
        storage: &StorageConfig,
        policy: ProposedConfig,
        break_even: Option<Micros>,
        shards: usize,
        options: ShardOptions,
    ) -> Self {
        let harness = StreamHarness::new(items, num_enclosures, storage);
        let break_even = break_even.unwrap_or_else(|| harness.break_even());
        let controller = if shards > 1 {
            DaemonController::Sharded(ShardedController::with_options(
                policy, break_even, shards, options,
            ))
        } else {
            DaemonController::Single(OnlineController::new(policy, break_even))
        };
        ColocatedDaemon {
            harness,
            controller,
            events: 0,
            response_sum: 0.0,
            last_ts: Micros::ZERO,
        }
    }

    fn from_parts(harness: StreamHarness, policy: ProposedConfig, break_even: Micros) -> Self {
        let controller = DaemonController::Single(OnlineController::new(policy, break_even));
        ColocatedDaemon {
            harness,
            controller,
            events: 0,
            response_sum: 0.0,
            last_ts: Micros::ZERO,
        }
    }

    /// Rebuilds a daemon from a checkpoint taken by
    /// [`checkpoint`](Self::checkpoint). Every item is re-pinned to its
    /// checkpointed enclosure, the controller's dynamic state (planner
    /// history, trigger arming, mid-period classification) is restored,
    /// and the event counter resumes at `cp.events` — the caller skips
    /// that many already-folded events before feeding the rest of the
    /// stream. The storage-side power meters restart at zero: plan
    /// equivalence is a controller property (property-tested in
    /// `tests/chaos.rs`), while run-level power/response summaries cover
    /// only the post-restart tail.
    pub fn resume(
        items: &[CatalogItem],
        num_enclosures: u16,
        storage: &StorageConfig,
        policy: ProposedConfig,
        shards: usize,
        cp: &ControllerCheckpoint,
    ) -> Result<Self, OnlineError> {
        Self::resume_with_options(
            items,
            num_enclosures,
            storage,
            policy,
            shards,
            ShardOptions::default(),
            cp,
        )
    }

    /// [`resume`](Self::resume) with explicit [`ShardOptions`] for the
    /// rebuilt sharded controller (ignored when `shards <= 1`).
    #[allow(clippy::too_many_arguments)]
    pub fn resume_with_options(
        items: &[CatalogItem],
        num_enclosures: u16,
        storage: &StorageConfig,
        policy: ProposedConfig,
        shards: usize,
        options: ShardOptions,
        cp: &ControllerCheckpoint,
    ) -> Result<Self, OnlineError> {
        let by_id: std::collections::BTreeMap<DataItemId, (EnclosureId, u64)> = cp
            .placement
            .iter()
            .map(|&(id, enc, size)| (id, (enc, size)))
            .collect();
        let mut catalog: Vec<CatalogItem> = items.to_vec();
        for it in &mut catalog {
            if let Some(&(enc, size)) = by_id.get(&it.id) {
                it.enclosure = enc;
                it.size = size;
            }
        }
        let harness = StreamHarness::new(&catalog, num_enclosures, storage);
        let controller = if shards > 1 {
            DaemonController::Sharded(ShardedController::from_checkpoint(
                policy, shards, options, cp,
            )?)
        } else {
            DaemonController::Single(OnlineController::from_state(policy, cp.state.clone()))
        };
        Ok(ColocatedDaemon {
            harness,
            controller,
            events: cp.events,
            response_sum: 0.0,
            last_ts: cp.last_ts,
        })
    }

    /// Snapshots the daemon into a versioned [`ControllerCheckpoint`]:
    /// controller dynamic state plus the current placement view and
    /// ingest position. Pair with [`resume`](Self::resume).
    pub fn checkpoint(&mut self) -> Result<ControllerCheckpoint, OnlineError> {
        self.controller.export_state(
            self.harness.placement(),
            self.harness.sequential(),
            self.events,
            self.last_ts,
        )
    }

    /// Events processed so far (resumes from the checkpointed count
    /// after [`resume`](Self::resume)).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Classification shard workers behind the controller (1 when
    /// single-threaded).
    pub fn shards(&self) -> usize {
        match &self.controller {
            DaemonController::Single(_) => 1,
            DaemonController::Sharded(c) => c.shards(),
        }
    }

    /// The storage-side harness (placement, power meters).
    pub fn harness(&self) -> &StreamHarness {
        &self.harness
    }

    /// Flushes the classification shards and surfaces any fatal
    /// supervision failure (a quarantined shard). Rollover barriers run
    /// this health check implicitly; call it after the *last* record too
    /// — a stream that ends mid-period never reaches another barrier, so
    /// without this check a quarantine in the final period would report
    /// success. No-op for the single-threaded controller.
    pub fn sync(&mut self) -> Result<(), OnlineError> {
        match &mut self.controller {
            DaemonController::Single(_) => Ok(()),
            DaemonController::Sharded(c) => c.sync(),
        }
    }

    fn invoke(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
    ) -> Result<PlanEnvelope, OnlineError> {
        self.harness.refresh_views();
        let envelope = self.controller.rollover(
            t_end,
            reason,
            self.harness.placement(),
            self.harness.sequential(),
            self.harness.views(),
        )?;
        self.harness.apply_plan(t_end, &envelope.plan);
        self.harness.begin_period();
        Ok(envelope)
    }

    /// Processes one logical record; returns the plans this record caused
    /// (zero or more scheduled boundaries it crossed, plus at most one
    /// trigger cut). `Err` for a record whose item the storage unit does
    /// not place ([`OnlineError::UnknownItem`], returned before any state
    /// changes) and for fatal supervision failures (a quarantined shard,
    /// or a worker the supervisor could not rebuild) — recoverable
    /// incidents are absorbed and the fold continues.
    pub fn step(&mut self, rec: LogicalIoRecord) -> Result<Vec<PlanEnvelope>, OnlineError> {
        if self.harness.home(rec.item).is_none() {
            return Err(OnlineError::UnknownItem {
                record: self.events + 1,
                item: rec.item,
            });
        }
        let mut plans = Vec::new();
        // Period boundaries at or before this record.
        while self.controller.needs_rollover(rec.ts) {
            let t_end = self.controller.boundary();
            plans.push(self.invoke(t_end, RolloverReason::Boundary)?);
        }

        let t = rec.ts;
        self.last_ts = self.last_ts.max(t);
        self.events += 1;
        self.controller.observe(&rec);
        let served = self.harness.serve(rec);
        self.response_sum += served.response.as_secs_f64();

        // Stream events; either may cut the period short (§V.D).
        let mut invoke_now = false;
        if served.spun_up {
            invoke_now |= self.controller.observe_spin_up(t, served.enclosure);
        }
        invoke_now |= self.controller.observe_io_event(t, served.enclosure);
        if invoke_now && t > self.controller.period_start() {
            plans.push(self.invoke(t, RolloverReason::Trigger)?);
        }
        Ok(plans)
    }

    /// Ends the stream at `end` (defaults to the last record's timestamp
    /// when `None`), settles the power meters, and reports the run.
    pub fn finish(mut self, end: Option<Micros>) -> OnlineSummary {
        let end = end.unwrap_or(self.last_ts);
        self.harness.finish(end);
        let controller = self.harness.controller();
        OnlineSummary {
            duration: end,
            events: self.events,
            periods: self.controller.periods(),
            trigger_cuts: self.controller.trigger_cuts(),
            avg_power_watts: controller.average_watts(end),
            spin_ups: controller.total_spin_ups(),
            avg_response: Micros::from_secs_f64(self.response_sum / self.events.max(1) as f64),
        }
    }
}
