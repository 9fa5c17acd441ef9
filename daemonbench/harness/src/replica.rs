//! `ColocatedDaemon::step`'s flow rebuilt from each layer's public calls,
//! so the benchmark can time the calls into every layer from outside the
//! program.
//!
//! A pass maps the input and reads it through the same ingest front end
//! `ees online` uses for a regular file (`spawn_reader_parallel_mapped`,
//! `Block` backpressure, default queue and batch). The coordinator loop
//! then mirrors `ColocatedDaemon::step` call for call: boundary
//! rollovers before the record, `observe` before `serve`, spin-up then
//! I/O triggers after it, and a trigger cut only past the period start.
//! The report it prints must equal the daemon's, which proves the copy
//! faithful.
//!
//! With `TRACE = true`:
//! - one record in `sample` has its `observe`, `serve` and trigger calls
//!   timed (timing every call doubles the loop);
//! - every rollover is timed in its three parts (`refresh_views`,
//!   `rollover` with `Planner::plan` inside, `apply_plan` with
//!   `begin_period`);
//! - each batch costs one clock read, which splits the coordinator's
//!   time into waiting for the batch and stepping through it.
//!
//! With `TRACE = false` the clock reads compile away.

use crate::DaemonSetup;
use ees_cli::jsonout::online_json;
use ees_iotrace::wire::{sniff_format_checked, BlockSplitter, StreamFormat};
use ees_iotrace::{map_file, LogicalIoRecord, Micros};
use ees_online::{
    spawn_reader_parallel_mapped, OnlineController, OnlineSummary, OverflowPolicy, PlanEnvelope,
    RolloverReason, ShardedController,
};
use ees_replay::StreamHarness;
use std::fs::File;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The daemon's controller dispatch: one in-line controller at one
/// shard, the sharded controller above.
#[allow(clippy::large_enum_variant)]
enum Controller {
    Single(OnlineController),
    Sharded(ShardedController),
}

macro_rules! dispatch {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            Controller::Single($c) => $body,
            Controller::Sharded($c) => $body,
        }
    };
}

impl Controller {
    fn new(setup: &DaemonSetup, break_even: Micros) -> Controller {
        if setup.shards > 1 {
            Controller::Sharded(ShardedController::with_options(
                setup.policy,
                break_even,
                setup.shards,
                setup.options.clone(),
            ))
        } else {
            Controller::Single(OnlineController::new(setup.policy, break_even))
        }
    }

    fn rollover(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        harness: &StreamHarness,
    ) -> Result<PlanEnvelope, String> {
        let (placement, sequential, views) =
            (harness.placement(), harness.sequential(), harness.views());
        match self {
            Controller::Single(c) => Ok(c.rollover(t_end, reason, placement, sequential, views)),
            Controller::Sharded(c) => c
                .rollover(t_end, reason, placement, sequential, views)
                .map_err(|e| e.to_string()),
        }
    }

    fn sync(&mut self) -> Result<(), String> {
        match self {
            Controller::Single(_) => Ok(()),
            Controller::Sharded(c) => c.sync().map_err(|e| e.to_string()),
        }
    }
}

/// Sampled timings of one per-record call.
#[derive(Default)]
struct Sampled {
    samples: u64,
    total: Duration,
}

impl Sampled {
    fn add(&mut self, from: Option<Instant>, to: Option<Instant>) {
        if let (Some(a), Some(b)) = (from, to) {
            self.samples += 1;
            self.total += b - a;
        }
    }

    /// Mean time per sampled call, less `clock_ns`, the cost of the
    /// clock read each timed interval contains.
    fn mean_ns(&self, clock_ns: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        (self.total.as_nanos() as f64 / self.samples as f64 - clock_ns).max(0.0)
    }
}

/// The mean cost of one `Instant::now()`, measured over back-to-back
/// reads.
pub fn clock_ns() -> f64 {
    const READS: u32 = 100_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..READS {
        last = black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(READS)
}

/// What a traced pass measured; all zero on an untraced pass.
#[derive(Default)]
struct Spans {
    batches: u64,
    wait: Duration,
    step: Duration,
    observe: Sampled,
    serve: Sampled,
    trigger: Sampled,
    trigger_calls: u64,
    refresh_views: Duration,
    rollovers: Vec<Duration>,
    apply_plan: Duration,
    cache_hits: u64,
}

/// The coordinator's state: `ColocatedDaemon`'s fields.
struct Replica {
    harness: StreamHarness,
    controller: Controller,
    events: u64,
    response_sum: f64,
    last_ts: Micros,
    plans: Vec<PlanEnvelope>,
}

impl Replica {
    fn new(setup: &DaemonSetup) -> Replica {
        let harness = StreamHarness::new(&setup.catalog, setup.num_enclosures, &setup.storage);
        let controller = Controller::new(setup, harness.break_even());
        Replica {
            harness,
            controller,
            events: 0,
            response_sum: 0.0,
            last_ts: Micros::ZERO,
            plans: Vec::new(),
        }
    }

    fn invoke<const TRACE: bool>(
        &mut self,
        t_end: Micros,
        reason: RolloverReason,
        spans: &mut Spans,
    ) -> Result<(), String> {
        let t0 = TRACE.then(Instant::now);
        self.harness.refresh_views();
        let t1 = TRACE.then(Instant::now);
        let envelope = self.controller.rollover(t_end, reason, &self.harness)?;
        let t2 = TRACE.then(Instant::now);
        self.harness.apply_plan(t_end, &envelope.plan);
        self.harness.begin_period();
        if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
            spans.refresh_views += t1 - t0;
            spans.rollovers.push(t2 - t1);
            spans.apply_plan += t2.elapsed();
        }
        self.plans.push(envelope);
        Ok(())
    }

    fn step<const TRACE: bool>(
        &mut self,
        rec: LogicalIoRecord,
        sample: u64,
        spans: &mut Spans,
    ) -> Result<(), String> {
        while dispatch!(&self.controller, c => c.needs_rollover(rec.ts)) {
            let t_end = dispatch!(&self.controller, c => c.boundary());
            self.invoke::<TRACE>(t_end, RolloverReason::Boundary, spans)?;
        }
        let t = rec.ts;
        self.last_ts = self.last_ts.max(t);
        self.events += 1;
        let sampled = TRACE && self.events.is_multiple_of(sample);
        let t0 = sampled.then(Instant::now);
        dispatch!(&mut self.controller, c => c.observe(&rec));
        let t1 = sampled.then(Instant::now);
        let served = self.harness.serve(rec);
        let t2 = sampled.then(Instant::now);
        self.response_sum += served.response.as_secs_f64();

        let mut invoke_now = false;
        if served.spun_up {
            invoke_now |=
                dispatch!(&mut self.controller, c => c.observe_spin_up(t, served.enclosure));
        }
        invoke_now |= dispatch!(&mut self.controller, c => c.observe_io_event(t, served.enclosure));
        let t3 = sampled.then(Instant::now);
        if TRACE {
            spans.observe.add(t0, t1);
            spans.serve.add(t1, t2);
            spans.trigger.add(t2, t3);
            spans.trigger_calls += 1 + u64::from(served.spun_up);
            spans.cache_hits += u64::from(!served.physical);
        }
        if invoke_now && t > dispatch!(&self.controller, c => c.period_start()) {
            self.invoke::<TRACE>(t, RolloverReason::Trigger, spans)?;
        }
        Ok(())
    }
}

/// One pass over the input: wall time from input open to report, the
/// report in `ees.report.v1` form, and the layer measurements.
pub struct Pass {
    wall: Duration,
    report: String,
    spans: Spans,
    summary: OnlineSummary,
    storage: StorageCounts,
}

struct StorageCounts {
    preload_hits: u64,
    general_hits: u64,
    buffered_writes: u64,
    flushes: u64,
    spin_ups: u64,
    migrations: u64,
    migrated_bytes: u64,
}

fn join_reader<T>(r: std::thread::Result<std::io::Result<T>>) -> Result<T, String> {
    r.map_err(|_| "ingest thread panicked".to_string())?
        .map_err(|e| e.to_string())
}

pub fn run_pass<const TRACE: bool>(
    setup: &DaemonSetup,
    input: &Path,
    sample: u64,
) -> Result<Pass, String> {
    let mut replica = Replica::new(setup);
    let mut spans = Spans::default();

    let start = Instant::now();
    let file = File::open(input).map_err(|e| format!("{}: {e}", input.display()))?;
    let map = map_file(&file)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("{}: not a regular file", input.display()))?;
    let format = sniff_format_checked(&map)?;
    let (rx, pool, live, reader) = spawn_reader_parallel_mapped(
        map,
        setup.capacity,
        setup.batch,
        OverflowPolicy::Block,
        setup.readers,
        0,
    );
    let mut mark = TRACE.then(Instant::now);
    for mut batch in rx {
        let got = TRACE.then(Instant::now);
        for rec in batch.drain(..) {
            replica.step::<TRACE>(rec, sample, &mut spans)?;
        }
        pool.recycle(batch);
        if let (Some(m), Some(g)) = (mark, got) {
            let done = Instant::now();
            spans.batches += 1;
            spans.wait += g - m;
            spans.step += done - g;
            mark = Some(done);
        }
    }
    join_reader(reader.join())?;
    replica.controller.sync()?;
    let ingest = live.snapshot();

    // `ColocatedDaemon::finish`.
    let end = replica.last_ts;
    replica.harness.finish(end);
    let storage = replica.harness.controller();
    let summary = OnlineSummary {
        duration: end,
        events: replica.events,
        periods: dispatch!(&replica.controller, c => c.periods()),
        trigger_cuts: dispatch!(&replica.controller, c => c.trigger_cuts()),
        avg_power_watts: storage.average_watts(end),
        spin_ups: storage.total_spin_ups(),
        avg_response: Micros::from_secs_f64(replica.response_sum / replica.events.max(1) as f64),
    };
    let format_name = format.to_string();
    let report = online_json(
        &input.display().to_string(),
        &summary,
        &ingest,
        crate::QUEUE,
        crate::BATCH,
        setup.shards,
        setup.readers,
        Some(&format_name),
        None,
        &[],
        &replica.plans,
    );
    let wall = start.elapsed();

    let (preload_hits, general_hits, _misses, buffered_writes, flushes) =
        storage.cache().counters();
    let storage = StorageCounts {
        preload_hits,
        general_hits,
        buffered_writes,
        flushes,
        spin_ups: storage.total_spin_ups(),
        migrations: storage.migration_count(),
        migrated_bytes: storage.migrated_bytes(),
    };
    Ok(Pass {
        wall,
        report,
        spans,
        summary,
        storage,
    })
}

/// Renders `(name, value)` pairs as a JSON object.
fn json_object(fields: &[(&str, f64)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl Pass {
    /// One JSON line: the pass kind, its wall time, its report, and (for
    /// a traced pass) the layer metrics, with `clock_ns` taken off every
    /// sampled mean.
    pub fn to_json(&self, kind: &str, setup: &DaemonSetup, clock_ns: f64) -> String {
        let s = &self.spans;
        let calls = self.summary.events as f64;
        let events = calls.max(1.0);
        let secs = |d: Duration| d.as_secs_f64();
        let rollover_total: Duration = s.rollovers.iter().sum();
        let mut rollovers = s.rollovers.clone();
        rollovers.sort();
        let rollover_p50 = rollovers
            .get(rollovers.len().saturating_sub(1) / 2)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3);
        let layers = json_object(&[
            (
                "ingest.wait_share",
                secs(s.wait) / secs(s.wait + s.step).max(1e-9),
            ),
            ("ingest.wait_s", secs(s.wait)),
            ("ingest.batches", s.batches as f64),
            ("ingest.events_per_batch", calls / s.batches.max(1) as f64),
            ("controller.observe_calls", calls),
            (
                "controller.observe_ns_per_event",
                s.observe.mean_ns(clock_ns),
            ),
            (
                "controller.observe_busy_s",
                s.observe.mean_ns(clock_ns) * events / 1e9,
            ),
            ("controller.trigger_calls", s.trigger_calls as f64),
            (
                "controller.trigger_ns_per_event",
                s.trigger.mean_ns(clock_ns),
            ),
            (
                "controller.trigger_busy_s",
                s.trigger.mean_ns(clock_ns) * events / 1e9,
            ),
            ("controller.rollover_calls", s.rollovers.len() as f64),
            ("controller.rollover_s", secs(rollover_total)),
            ("controller.rollover_ms_p50", rollover_p50),
            ("controller.plans", self.summary.periods as f64),
            ("controller.trigger_cuts", self.summary.trigger_cuts as f64),
            ("harness.serve_calls", calls),
            ("harness.serve_ns_per_event", s.serve.mean_ns(clock_ns)),
            (
                "harness.serve_busy_s",
                s.serve.mean_ns(clock_ns) * events / 1e9,
            ),
            ("harness.refresh_views_calls", s.rollovers.len() as f64),
            ("harness.refresh_views_s", secs(s.refresh_views)),
            ("harness.apply_plan_calls", s.rollovers.len() as f64),
            ("harness.apply_plan_s", secs(s.apply_plan)),
            ("storage.cache_hit_share", s.cache_hits as f64 / events),
            ("storage.preload_hits", self.storage.preload_hits as f64),
            ("storage.general_hits", self.storage.general_hits as f64),
            (
                "storage.buffered_writes",
                self.storage.buffered_writes as f64,
            ),
            ("storage.flushes", self.storage.flushes as f64),
            ("storage.spin_ups", self.storage.spin_ups as f64),
            ("storage.migrations", self.storage.migrations as f64),
            ("storage.migrated_bytes", self.storage.migrated_bytes as f64),
            ("daemon.step_calls", calls),
            (
                "daemon.step_ns_per_event",
                s.step.as_nanos() as f64 / events,
            ),
            ("daemon.step_busy_s", secs(s.step)),
            ("daemon.wall_s", secs(self.wall)),
            ("trace.clock_ns", clock_ns),
        ]);
        format!(
            "{{\"pass\": \"{kind}\", \"wall_s\": {}, \"shards\": {}, \"readers\": {}, \"report\": {}, \"layers\": {layers}}}",
            secs(self.wall),
            setup.shards,
            setup.readers,
            self.report.replace('\n', " ")
        )
    }
}

/// Times the decoder the input needs, outside the pipeline: every
/// `sample`-th NDJSON line through `ndjson::parse_event_borrowed`, or
/// every framed block through `wire::decode_block`, less `clock_ns` per
/// timed call. Returns one JSON line with the `iotrace.*` metrics.
pub fn decode_profile(input: &Path, sample: u64, clock_ns: f64) -> Result<String, String> {
    let file = File::open(input).map_err(|e| format!("{}: {e}", input.display()))?;
    let map = map_file(&file)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("{}: not a regular file", input.display()))?;
    let bytes: &[u8] = &map;
    let mut events = 0u64;
    let mut calls = 0u64;
    let mut timed = Sampled::default();
    let busy = match sniff_format_checked(bytes)? {
        StreamFormat::Ndjson => {
            let mut rest = bytes;
            while !rest.is_empty() {
                let end = ees_iotrace::scan::find_byte(rest, b'\n').unwrap_or(rest.len());
                let line = &rest[..end];
                rest = rest.get(end + 1..).unwrap_or(&[]);
                if line.is_empty() {
                    continue;
                }
                events += 1;
                calls += 1;
                if events.is_multiple_of(sample) {
                    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
                    let t0 = Instant::now();
                    let rec = ees_iotrace::ndjson::parse_event_borrowed(black_box(text));
                    let t1 = Instant::now();
                    black_box(rec?);
                    timed.add(Some(t0), Some(t1));
                }
            }
            timed.mean_ns(clock_ns) * events as f64 / 1e9
        }
        StreamFormat::Binary => {
            for block in BlockSplitter::new(bytes).map_err(|e| e.to_string())? {
                let block = block.map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                let decoded = ees_iotrace::wire::decode_block(black_box(block));
                let t1 = Instant::now();
                if let Some((rec, msg)) = decoded.error {
                    return Err(format!("block {}: record {rec}: {msg}", calls + 1));
                }
                calls += 1;
                events += decoded.events.len() as u64;
                timed.add(Some(t0), Some(t1));
            }
            timed.mean_ns(clock_ns) * calls as f64 / 1e9
        }
    };
    Ok(format!(
        "{{\"pass\": \"decode\", \"layers\": {}}}",
        json_object(&[
            ("iotrace.decode_events", events as f64),
            ("iotrace.decode_calls", calls as f64),
            (
                "iotrace.decode_ns_per_event",
                busy * 1e9 / events.max(1) as f64
            ),
            ("iotrace.decode_busy_s", busy),
        ])
    ))
}
