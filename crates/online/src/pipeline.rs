//! Monitor-mode pipeline drivers: NDJSON stream in, plan sequence out,
//! with no per-record storage simulation — the shape of a controller
//! watching a real storage unit rather than replaying against the
//! simulator.
//!
//! Two drivers over identical plan semantics:
//!
//! * [`run_monitor_serial`] — the reference: parses the stream inline on
//!   the calling thread ([`EventReader`]) and folds it through the
//!   single-threaded [`OnlineController`].
//! * [`run_monitor_sharded`] — the sharded shape: a splitter cuts the
//!   input into newline-aligned chunks (or framed binary blocks) and
//!   [`ShardOptions::readers`] parser threads run the full parse off the
//!   coordinator ([`ParallelScanner`], DESIGN.md §13); the coordinator
//!   shrinks to re-sequencing chunks and walking records in file order —
//!   rollover sequencing, [`observe`](ShardedController::observe)
//!   routing into the shard rings, and the §V.D trigger sweep. One
//!   reader is the degenerate case of the same front end.
//!
//! Both return the same plans on the same input (property-tested by
//! the `sharded` suite); the throughput smoke in `ci.sh` times one
//! against the other to produce `BENCH_online.json`.
//!
//! The sharded driver overlaps rollover with ingest (DESIGN.md §12): at
//! a period cut it calls
//! [`rollover_begin`](ShardedController::rollover_begin), parks on the
//! parser channel with a timeout ([`ParallelScanner::stage_one`]) and
//! stages completed chunks — up to `STAGE_MAX` records — in its
//! reorder buffer while the workers drain their queues and snapshot in
//! parallel, then collects the merge in
//! [`rollover_finish`](ShardedController::rollover_finish). Staged
//! records are *not* routed or trigger-swept until the plan lands,
//! because routing feeds the next cut and the §V.D sweep depends on the
//! plan's placement and re-armed triggers — staging is what keeps the
//! plan sequence byte-identical to the serial controller.
//!
//! [`EventReader`]: ees_iotrace::ndjson::EventReader

use crate::controller::RolloverReason;
use crate::frontend::{ParallelScanner, ScanSource, CUT_PARK};
use crate::ingest::RetryingReader;
use crate::shard::{ShardOptions, ShardedController};
use crate::{OnlineController, PlanEnvelope};
use ees_core::ProposedConfig;
use ees_iotrace::ndjson::EventReader;
use ees_iotrace::parallel::threads;
use ees_iotrace::Micros;
use ees_replay::{CatalogItem, StreamHarness};
use ees_simstorage::StorageConfig;
use std::io::BufRead;
use std::time::Instant;

/// What a monitor run produced, with per-plan latency samples.
#[derive(Debug, Clone)]
pub struct MonitorOutcome {
    /// Logical records ingested.
    pub events: u64,
    /// The plan sequence, one envelope per period rollover.
    pub plans: Vec<PlanEnvelope>,
    /// Wall-clock ingest **stall** per rollover, in microseconds. For
    /// the serial driver this is the whole cut (classify + plan). For
    /// the sharded driver it is the time the driver thread was *blocked*
    /// on the cut — `rollover_begin` (flush + cut broadcast) plus
    /// `rollover_finish` (reply wait + merge + plan) — explicitly
    /// excluding the read-ahead park loop in between, which is forward
    /// progress, not stall.
    pub rollover_micros: Vec<u64>,
}

impl MonitorOutcome {
    /// Nearest-rank p99 of the per-rollover ingest-to-plan latency, in
    /// microseconds (0 when no plan was emitted).
    pub fn p99_rollover_micros(&self) -> u64 {
        if self.rollover_micros.is_empty() {
            return 0;
        }
        let mut sorted = self.rollover_micros.clone();
        sorted.sort_unstable();
        let rank = (sorted.len() as f64 * 0.99).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// Runs the monitor over `input` serially: every line is parsed inline
/// on the calling thread and folded into an [`OnlineController`] — the
/// reference the sharded driver is tested against. Transient read
/// errors are absorbed by a [`RetryingReader`]; a malformed line fails
/// the run with a `line N:` error. `break_even` defaults to the storage
/// model's own break-even time.
pub fn run_monitor_serial<R: BufRead>(
    input: R,
    items: &[CatalogItem],
    num_enclosures: u16,
    storage: &StorageConfig,
    policy: ProposedConfig,
    break_even: Option<Micros>,
) -> std::io::Result<MonitorOutcome> {
    let mut harness = StreamHarness::new(items, num_enclosures, storage);
    let break_even = break_even.unwrap_or_else(|| harness.break_even());
    let mut controller = OnlineController::new(policy, break_even);
    let mut events = 0u64;
    let mut plans = Vec::new();
    let mut rollover_micros = Vec::new();
    for rec in EventReader::new(RetryingReader::new(input)) {
        let rec = rec?;
        while controller.needs_rollover(rec.ts) {
            let t_end = controller.boundary();
            let started = Instant::now();
            harness.refresh_views();
            let env = controller.rollover(
                t_end,
                RolloverReason::Boundary,
                harness.placement(),
                harness.sequential(),
                harness.views(),
            );
            harness.apply_plan(t_end, &env.plan);
            harness.begin_period();
            rollover_micros.push(started.elapsed().as_micros() as u64);
            plans.push(env);
        }
        controller.observe(&rec);
        events += 1;
        // §V.D trigger (i): the idle-hot sweep runs on every I/O, resolved
        // to the enclosure the item currently lives on. Monitor mode has
        // no power simulation, so spin-up events (trigger ii) don't occur.
        let enclosure = harness.placement().enclosure_of(rec.item);
        if let Some(enclosure) = enclosure {
            if controller.observe_io_event(rec.ts, enclosure) && rec.ts > controller.period_start()
            {
                let started = Instant::now();
                harness.refresh_views();
                let env = controller.rollover(
                    rec.ts,
                    RolloverReason::Trigger,
                    harness.placement(),
                    harness.sequential(),
                    harness.views(),
                );
                harness.apply_plan(rec.ts, &env.plan);
                harness.begin_period();
                rollover_micros.push(started.elapsed().as_micros() as u64);
                plans.push(env);
            }
        }
    }
    Ok(MonitorOutcome {
        events,
        plans,
        rollover_micros,
    })
}

/// How many records the sharded driver stages in the reorder buffer
/// while a cut is in flight before it stops reading ahead and waits on
/// the merge — bounds the driver's memory at one period's read-ahead,
/// independent of how long the merge takes.
const STAGE_MAX: usize = 4096;

/// Runs the monitor over `input` with the sharded pipeline: `shards`
/// workers (`0` → [`threads()`], the `EES_THREADS` convention) fold in
/// parallel, fed by the parallel ingest front end (one parser thread per
/// shard by default — see [`ShardOptions::readers`]). NDJSON and
/// `ees.event.v1` binary input are both accepted; the format is sniffed
/// from the stream. Emits the same plan sequence as
/// [`run_monitor_serial`] on the same input, including the same
/// `line N:` error on the same malformed line.
pub fn run_monitor_sharded<R>(
    input: R,
    items: &[CatalogItem],
    num_enclosures: u16,
    storage: &StorageConfig,
    policy: ProposedConfig,
    break_even: Option<Micros>,
    shards: usize,
) -> std::io::Result<MonitorOutcome>
where
    R: BufRead + Send,
{
    run_monitor_sharded_with(
        input,
        items,
        num_enclosures,
        storage,
        policy,
        break_even,
        shards,
        ShardOptions::default(),
    )
}

/// [`run_monitor_sharded`] with explicit [`ShardOptions`] (supervision
/// policy, per-shard transport queue depth, ingest front-end shape).
#[allow(clippy::too_many_arguments)]
pub fn run_monitor_sharded_with<R>(
    input: R,
    items: &[CatalogItem],
    num_enclosures: u16,
    storage: &StorageConfig,
    policy: ProposedConfig,
    break_even: Option<Micros>,
    shards: usize,
    options: ShardOptions,
) -> std::io::Result<MonitorOutcome>
where
    R: BufRead + Send,
{
    let shards = if shards == 0 { threads() } else { shards };
    run_monitor_parallel_source(
        ScanSource::Reader(input),
        items,
        num_enclosures,
        storage,
        policy,
        break_even,
        shards,
        options,
    )
}

/// Cuts the period at `t_end` under the parallel front end: the workers
/// drain and snapshot while the coordinator **parks** on the parser
/// channel ([`ParallelScanner::stage_one`], [`CUT_PARK`] at a time, never
/// a spin), staging completed chunks — bounded by [`STAGE_MAX`] records —
/// into the reorder buffer. The recorded stall is begin plus finish wall
/// time; the park loop is read-ahead, not stall.
fn parallel_cut(
    scanner: &mut ParallelScanner<'_>,
    controller: &mut ShardedController,
    harness: &mut StreamHarness,
    plans: &mut Vec<PlanEnvelope>,
    rollover_micros: &mut Vec<u64>,
    t_end: Micros,
    reason: RolloverReason,
) -> std::io::Result<()> {
    let started = Instant::now();
    harness.refresh_views();
    controller.rollover_begin(
        t_end,
        reason,
        harness.placement(),
        harness.sequential(),
        harness.views(),
    )?;
    let begin_stall = started.elapsed();
    while !controller.rollover_ready() {
        scanner.stage_one(CUT_PARK, STAGE_MAX);
    }
    let finishing = Instant::now();
    let env = controller.rollover_finish()?;
    harness.apply_plan(t_end, &env.plan);
    harness.begin_period();
    rollover_micros.push((begin_stall + finishing.elapsed()).as_micros() as u64);
    plans.push(env);
    Ok(())
}

/// The zero-copy flavor of the sharded monitor: drives the parallel
/// front end over an in-memory trace (typically an mmap'd file —
/// [`map_file`](ees_iotrace::mmap::map_file)), so NDJSON chunks and
/// framed binary blocks reach the parser threads without copying.
/// Format sniffing, plan output, and error text are identical to the
/// streamed drivers byte for byte.
#[allow(clippy::too_many_arguments)]
pub fn run_monitor_sharded_slice(
    bytes: &[u8],
    items: &[CatalogItem],
    num_enclosures: u16,
    storage: &StorageConfig,
    policy: ProposedConfig,
    break_even: Option<Micros>,
    shards: usize,
    options: ShardOptions,
) -> std::io::Result<MonitorOutcome> {
    let shards = if shards == 0 { threads() } else { shards };
    run_monitor_parallel_source(
        ScanSource::<std::io::Empty>::Slice(bytes),
        items,
        num_enclosures,
        storage,
        policy,
        break_even,
        shards,
        options,
    )
}

/// The parallel-front-end monitor driver (DESIGN.md §13): parsing fans
/// out over [`ShardOptions::resolved_readers`] threads, and this —
/// coordinator — thread walks the re-sequenced records in exact file
/// order through the same per-record flow as the serial driver (boundary
/// rollovers, [`observe`](ShardedController::observe) routing into the
/// shard rings, §V.D trigger sweep). Record order is what the plan
/// sequence depends on, so plans are byte-identical to
/// [`run_monitor_serial`] by construction; errors surface in stream
/// order with the serial error text.
#[allow(clippy::too_many_arguments)]
fn run_monitor_parallel_source<R>(
    source: ScanSource<'_, R>,
    items: &[CatalogItem],
    num_enclosures: u16,
    storage: &StorageConfig,
    policy: ProposedConfig,
    break_even: Option<Micros>,
    shards: usize,
    options: ShardOptions,
) -> std::io::Result<MonitorOutcome>
where
    R: std::io::Read + Send,
{
    let mut harness = StreamHarness::new(items, num_enclosures, storage);
    let break_even = break_even.unwrap_or_else(|| harness.break_even());
    let readers = options.resolved_readers(shards);
    let chunk_bytes = options.chunk_bytes;
    let mut controller = ShardedController::with_options(policy, break_even, shards, options);
    std::thread::scope(|scope| {
        let mut scanner = ParallelScanner::spawn_source(scope, source, readers, chunk_bytes);
        let mut events = 0u64;
        let mut plans = Vec::new();
        let mut rollover_micros = Vec::new();
        while let Some(chunk) = scanner.next_ordered()? {
            for rec in &chunk.records {
                while controller.needs_rollover(rec.ts) {
                    let t_end = controller.boundary();
                    parallel_cut(
                        &mut scanner,
                        &mut controller,
                        &mut harness,
                        &mut plans,
                        &mut rollover_micros,
                        t_end,
                        RolloverReason::Boundary,
                    )?;
                }
                controller.observe(rec);
                events += 1;
                // Same §V.D trigger (i) sweep as the serial driver; the
                // cut's shard flush covers the just-routed record.
                let enclosure = harness.placement().enclosure_of(rec.item);
                if let Some(enclosure) = enclosure {
                    if controller.observe_io_event(rec.ts, enclosure)
                        && rec.ts > controller.period_start()
                    {
                        parallel_cut(
                            &mut scanner,
                            &mut controller,
                            &mut harness,
                            &mut plans,
                            &mut rollover_micros,
                            rec.ts,
                            RolloverReason::Trigger,
                        )?;
                    }
                }
            }
            if let Some(err) = chunk.error {
                // In-band stream error, positioned after the chunk's good
                // records — the serial reader would abort exactly here.
                return Err(err.to_io_error());
            }
        }
        controller.sync()?;
        Ok(MonitorOutcome {
            events,
            plans,
            rollover_micros,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{DataItemId, EnclosureId};
    use ees_simstorage::Access;
    use std::io::Cursor;

    fn catalog(n: u32) -> Vec<CatalogItem> {
        (0..n)
            .map(|i| CatalogItem {
                id: DataItemId(i),
                size: 1 << 20,
                enclosure: EnclosureId((i % 4) as u16),
                access: Access::Random,
            })
            .collect()
    }

    fn trace(events: u64, items: u32) -> String {
        let mut s = String::from("# monitor pipeline fixture\n");
        for i in 0..events {
            s.push_str(&format!(
                "{{\"ts\":{},\"item\":{},\"offset\":0,\"len\":4096,\"kind\":\"{}\"}}\n",
                i * 500_000,
                i % items as u64,
                if i % 3 == 0 { "Write" } else { "Read" },
            ));
        }
        s
    }

    #[test]
    fn serial_and_sharded_agree_plan_for_plan() {
        let items = catalog(12);
        let storage = StorageConfig::ams2500(4);
        let input = trace(4000, 12);
        let serial = run_monitor_serial(
            Cursor::new(input.clone()),
            &items,
            4,
            &storage,
            ProposedConfig::default(),
            None,
        )
        .unwrap();
        for shards in [1usize, 2, 3, 8] {
            let sharded = run_monitor_sharded(
                Cursor::new(input.clone()),
                &items,
                4,
                &storage,
                ProposedConfig::default(),
                None,
                shards,
            )
            .unwrap();
            assert_eq!(serial.events, sharded.events, "shards = {shards}");
            assert_eq!(serial.plans.len(), sharded.plans.len(), "shards = {shards}");
            for (a, b) in serial.plans.iter().zip(&sharded.plans) {
                assert_eq!(a.period, b.period, "shards = {shards}");
                assert_eq!(a.plan, b.plan, "shards = {shards}");
            }
        }
    }

    #[test]
    fn sharded_reports_the_serial_error_line() {
        let items = catalog(4);
        let storage = StorageConfig::ams2500(4);
        let mut input = trace(50, 4);
        input
            .push_str("{\"ts\":26000000,\"item\":1,\"offset\":0,\"len\":4096,\"kind\":\"Nope\"}\n");
        let serial_err = run_monitor_serial(
            Cursor::new(input.clone()),
            &items,
            4,
            &storage,
            ProposedConfig::default(),
            None,
        )
        .unwrap_err();
        let sharded_err = run_monitor_sharded(
            Cursor::new(input),
            &items,
            4,
            &storage,
            ProposedConfig::default(),
            None,
            3,
        )
        .unwrap_err();
        assert_eq!(serial_err.to_string(), sharded_err.to_string());
    }

    #[test]
    fn p99_is_nearest_rank() {
        let outcome = MonitorOutcome {
            events: 0,
            plans: Vec::new(),
            rollover_micros: (1..=100).collect(),
        };
        assert_eq!(outcome.p99_rollover_micros(), 99);
        let empty = MonitorOutcome {
            events: 0,
            plans: Vec::new(),
            rollover_micros: Vec::new(),
        };
        assert_eq!(empty.p99_rollover_micros(), 0);
    }
}
