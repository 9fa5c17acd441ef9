//! The 100k-event online throughput smoke: times the serial monitor
//! driver (parse and fold inline on one thread) against the sharded one
//! (parallel ingest front end, one reader per shard) — on the NDJSON
//! text and on its
//! framed `ees.event.v1` binary rendering through the zero-copy slice
//! path a memory-mapped file takes — and writes the figures to a flat
//! all-`u64` JSON file (`BENCH_online.json`) that
//! `ees_iotrace::ndjson::parse_flat_object` can read back.
//!
//! ```text
//! online_smoke <out.json> [baseline.json]
//! ```
//!
//! Each driver is timed three times (after a warm-up pass) and the
//! **median** run is reported — best-of-N flatters a lucky scheduler
//! slot; the median is what a rerun actually reproduces.
//!
//! When `baseline.json` exists the run is a regression gate:
//!
//! * serial and sharded events/sec — and the raw NDJSON parse rate
//!   (`ndjson_parse_events_per_sec`, the borrowed-line parser alone on
//!   one core, the figure the SIMD scan kernels move directly) and the
//!   front end's per-chunk parse rate (`frontend_parse_events_per_sec`,
//!   `parse_lines` over the stream's 256 KiB slice chunks on one core,
//!   the figure the canonical-line fast path moves) — must each stay
//!   within 20% of the baseline figure;
//! * sharded p99 rollover stall must stay within 2× the baseline;
//! * scaling efficiency (`sharded / (serial × shards)`, reported as
//!   `scaling_efficiency_x1000`) must stay ≥ 80% of the baseline;
//! * framed-binary events/sec must stay within 20% of the baseline;
//! * on a machine with ≥ 4 CPUs, scaling efficiency must additionally be
//!   ≥ 70% (`scaling_efficiency_x1000 ≥ 700` — the parallel ingest front
//!   end keeps the shards fed, so near-linear scaling is the contract,
//!   not a stretch goal), the sharded p99 rollover stall ≤ 200 µs, and
//!   framed-binary file ingest must run ≥ 1.5× the sharded NDJSON
//!   events/sec — block decode skips the JSON parse entirely, so the
//!   speedup is the point of the format (on smaller machines all three
//!   absolute bars are only reported).
//!
//! `ci.sh` checks the first run's output in as the baseline.

use ees_core::ProposedConfig;
use ees_iotrace::chunk::{SliceChunker, DEFAULT_CHUNK_BYTES};
use ees_iotrace::ndjson::{parse_event_borrowed, parse_flat_object};
use ees_iotrace::parallel::threads;
use ees_iotrace::wire::transcode_ndjson_to_binary_blocks;
use ees_iotrace::{DataItemId, EnclosureId, Micros};
use ees_online::{
    parse_lines, run_monitor_serial, run_monitor_sharded, run_monitor_sharded_slice,
    MonitorOutcome, ShardOptions,
};
use ees_replay::CatalogItem;
use ees_simstorage::{Access, StorageConfig};
use std::io::Cursor;
use std::process::ExitCode;
use std::time::Instant;

const EVENTS: u64 = 100_000;
const ITEMS: u32 = 64;
const ENCLOSURES: u16 = 4;
/// Allowed events/sec drop relative to the checked-in baseline (also
/// applied to the raw NDJSON and front-end parse rates).
const MAX_REGRESSION: f64 = 0.20;
/// Allowed sharded p99 rollover-stall growth relative to the baseline.
const MAX_P99_GROWTH: f64 = 2.0;
/// Allowed scaling-efficiency drop relative to the baseline.
const MAX_EFFICIENCY_DROP: f64 = 0.20;
/// Absolute sharded p99 rollover-stall bar on a real multi-core box.
const P99_BAR_MICROS: u64 = 200;
/// Absolute scaling-efficiency bar on a real multi-core box: with the
/// parallel front end feeding the shards, ≥ 70% of linear is the
/// contract (the single-reader front end measured ~29% at 4 shards).
const EFFICIENCY_BAR_X1000: u64 = 700;
/// Absolute framed-binary speedup bar on a real multi-core box: block
/// decode over an mmap-shaped slice must beat the sharded NDJSON parse
/// by at least this factor.
const BINARY_SPEEDUP_BAR: f64 = 1.5;

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

/// A fixed file-server-shaped stream: 100k events over 64 items, 5 ms
/// apart (500 s of trace → ~16 periods at the 30 s monitoring period).
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

fn events_per_sec(events: u64, elapsed_secs: f64) -> u64 {
    (events as f64 / elapsed_secs.max(1e-9)) as u64
}

fn run(shards: Option<usize>, text: &str) -> (MonitorOutcome, u64) {
    let items = catalog();
    let storage = StorageConfig::ams2500(ENCLOSURES);
    let started = Instant::now();
    let out = match shards {
        None => run_monitor_serial(
            Cursor::new(text.to_string()),
            &items,
            ENCLOSURES,
            &storage,
            policy(),
            None,
        ),
        Some(n) => run_monitor_sharded(
            Cursor::new(text.to_string()),
            &items,
            ENCLOSURES,
            &storage,
            policy(),
            None,
            n,
        ),
    }
    .expect("smoke trace must parse");
    let rate = events_per_sec(out.events, started.elapsed().as_secs_f64());
    (out, rate)
}

/// The framed-binary file dimension: the same stream as a blocked
/// `ees.event.v1` byte slice through the zero-copy splitter — exactly
/// what `ees online trace.eev` does after mmap'ing the file.
fn run_binary(shards: usize, bytes: &[u8]) -> (MonitorOutcome, u64) {
    let items = catalog();
    let storage = StorageConfig::ams2500(ENCLOSURES);
    let started = Instant::now();
    let out = run_monitor_sharded_slice(
        bytes,
        &items,
        ENCLOSURES,
        &storage,
        policy(),
        None,
        shards,
        ShardOptions::default(),
    )
    .expect("smoke binary must decode");
    let rate = events_per_sec(out.events, started.elapsed().as_secs_f64());
    (out, rate)
}

/// The parser microbenchmark: every line of the smoke trace through
/// [`parse_event_borrowed`] on one core — no queues, no monitor, no
/// plan machinery. This is the figure the `ees_iotrace::scan` kernels
/// act on directly, so it gates their regressions without the noise of
/// the full pipeline around them.
fn ndjson_parse_rate(text: &str) -> u64 {
    let started = Instant::now();
    let mut parsed = 0u64;
    let mut bytes = 0u64;
    for line in text.lines() {
        let rec = parse_event_borrowed(line).expect("smoke line parses");
        parsed += 1;
        bytes += rec.len as u64;
    }
    assert_eq!(parsed, EVENTS);
    assert!(bytes > 0);
    events_per_sec(parsed, started.elapsed().as_secs_f64())
}

/// The front end's parser-thread work alone: the smoke trace cut into
/// the default 256 KiB slice chunks (what an mmap'd file feeds the
/// parser pool) and every chunk through [`parse_lines`] on one core —
/// the canonical-line fast path plus its per-line fallback routing.
fn frontend_parse_rate(text: &str) -> u64 {
    let started = Instant::now();
    let mut parsed = 0u64;
    for chunk in SliceChunker::new(text.as_bytes(), DEFAULT_CHUNK_BYTES) {
        let out = parse_lines(chunk.seq, chunk.first_lineno, chunk.bytes);
        assert!(out.error.is_none(), "smoke chunk parses");
        parsed += out.records.len() as u64;
    }
    assert_eq!(parsed, EVENTS);
    events_per_sec(parsed, started.elapsed().as_secs_f64())
}

fn read_baseline(path: &str) -> Option<Vec<(String, u64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().collect::<Vec<_>>().join(" ");
    let fields = parse_flat_object(line.trim()).ok()?;
    Some(
        fields
            .into_iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k, n)))
            .collect(),
    )
}

fn baseline_value(baseline: &[(String, u64)], key: &str) -> Option<u64> {
    baseline.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_online.json");
    let baseline_path = args.get(1).map(String::as_str);

    let text = trace();
    let shards = threads().max(4);
    // Warm-up pass so the first measured run doesn't pay one-time costs,
    // then median-of-3 per driver: this gate runs on developer machines,
    // not a quiet perf rig, and the median both damps scheduler noise
    // and refuses to be flattered by one lucky pass.
    let _ = run(None, &text);
    let median = |shards: Option<usize>| {
        let mut runs: Vec<(MonitorOutcome, u64)> = (0..3).map(|_| run(shards, &text)).collect();
        runs.sort_by_key(|&(_, rate)| rate);
        runs.swap_remove(1)
    };

    let (serial, serial_rate) = median(None);
    let (sharded, sharded_rate) = median(Some(shards));
    assert_eq!(
        serial.plans.len(),
        sharded.plans.len(),
        "serial and sharded drivers must emit the same plan sequence"
    );

    // The same stream as a framed ees.event.v1 slice — the path an
    // mmap'd binary trace file takes.
    let mut framed = Vec::new();
    let (binary_events, binary_blocks) =
        transcode_ndjson_to_binary_blocks(text.as_bytes(), &mut framed, 0)
            .expect("smoke trace must transcode");
    assert_eq!(binary_events, EVENTS);
    let _ = run_binary(shards, &framed);
    let mut binary_runs: Vec<(MonitorOutcome, u64)> =
        (0..3).map(|_| run_binary(shards, &framed)).collect();
    binary_runs.sort_by_key(|&(_, rate)| rate);
    let (binary, binary_rate) = binary_runs.swap_remove(1);
    assert_eq!(
        serial.plans.len(),
        binary.plans.len(),
        "NDJSON and framed-binary ingest must emit the same plan sequence"
    );

    // Fixed-point so the flat JSON stays all-u64: 1000 = perfect linear
    // scaling across `shards` workers.
    let efficiency_x1000 =
        (sharded_rate as f64 * 1000.0 / (serial_rate.max(1) as f64 * shards as f64)) as u64;
    let serial_p99 = serial.p99_rollover_micros();
    let sharded_p99 = sharded.p99_rollover_micros();

    // Fixed-point binary-over-NDJSON speedup at the same shard count.
    let binary_speedup_x1000 = (binary_rate as f64 * 1000.0 / sharded_rate.max(1) as f64) as u64;

    // The parser rates, median-of-3 after a warm-up like the rest.
    let median_rate = |pass: fn(&str) -> u64| {
        let _ = pass(&text);
        let mut rates: Vec<u64> = (0..3).map(|_| pass(&text)).collect();
        rates.sort_unstable();
        rates[1]
    };
    let parse_rate = median_rate(ndjson_parse_rate);
    let frontend_rate = median_rate(frontend_parse_rate);

    // `scan_isa` is the one non-u64 field: the baseline reader keeps
    // only u64s, so it documents the kernel set without ever gating.
    let json = format!(
        "{{\"events\": {}, \"shards\": {}, \"readers\": {}, \"plans\": {}, \
         \"scan_isa\": \"{}\", \
         \"serial_events_per_sec\": {}, \"sharded_events_per_sec\": {}, \
         \"ndjson_parse_events_per_sec\": {}, \"frontend_parse_events_per_sec\": {}, \
         \"binary_events_per_sec\": {}, \"binary_blocks\": {}, \
         \"binary_speedup_x1000\": {}, \"scaling_efficiency_x1000\": {}, \
         \"serial_p99_rollover_micros\": {}, \"sharded_p99_rollover_micros\": {}}}\n",
        EVENTS,
        shards,
        // The sharded run uses the default front end: one reader/shard.
        shards,
        serial.plans.len(),
        ees_iotrace::scan::active_isa_name(),
        serial_rate,
        sharded_rate,
        parse_rate,
        frontend_rate,
        binary_rate,
        binary_blocks,
        binary_speedup_x1000,
        efficiency_x1000,
        serial_p99,
        sharded_p99,
    );
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("online_smoke: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "online_smoke[{}]: serial {serial_rate} ev/s, sharded({shards}) {sharded_rate} ev/s \
         (efficiency {:.2}), parse {parse_rate} ev/s, front-end parse {frontend_rate} ev/s, \
         binary {binary_rate} ev/s \
         ({:.2}x, {binary_blocks} blocks), p99 rollover {serial_p99} us / {sharded_p99} us \
         -> {out_path}",
        ees_iotrace::scan::active_isa_name(),
        efficiency_x1000 as f64 / 1000.0,
        binary_speedup_x1000 as f64 / 1000.0,
    );

    let mut failed = false;
    if let Some(baseline) = baseline_path.and_then(read_baseline) {
        for (key, measured) in [
            ("serial_events_per_sec", serial_rate),
            ("sharded_events_per_sec", sharded_rate),
            ("ndjson_parse_events_per_sec", parse_rate),
            ("frontend_parse_events_per_sec", frontend_rate),
            ("binary_events_per_sec", binary_rate),
        ] {
            let Some(base) = baseline_value(&baseline, key) else {
                continue;
            };
            let floor = (base as f64 * (1.0 - MAX_REGRESSION)) as u64;
            if measured < floor {
                eprintln!(
                    "online_smoke: REGRESSION {key}: {measured} ev/s < {floor} \
                     (baseline {base} - {:.0}%)",
                    MAX_REGRESSION * 100.0
                );
                failed = true;
            }
        }
        if let Some(base) = baseline_value(&baseline, "sharded_p99_rollover_micros") {
            let ceiling = (base as f64 * MAX_P99_GROWTH) as u64;
            if sharded_p99 > ceiling {
                eprintln!(
                    "online_smoke: REGRESSION sharded_p99_rollover_micros: \
                     {sharded_p99} us > {ceiling} (baseline {base} x {MAX_P99_GROWTH})"
                );
                failed = true;
            }
        }
        if let Some(base) = baseline_value(&baseline, "scaling_efficiency_x1000") {
            let floor = (base as f64 * (1.0 - MAX_EFFICIENCY_DROP)) as u64;
            if efficiency_x1000 < floor {
                eprintln!(
                    "online_smoke: REGRESSION scaling_efficiency_x1000: \
                     {efficiency_x1000} < {floor} (baseline {base} - {:.0}%)",
                    MAX_EFFICIENCY_DROP * 100.0
                );
                failed = true;
            }
        }
    } else if let Some(path) = baseline_path {
        println!("online_smoke: no baseline at {path}; this run seeds it");
    }

    // The absolute scaling and stall bars only make sense with real
    // cores to scale onto.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus >= 4 {
        if efficiency_x1000 < EFFICIENCY_BAR_X1000 {
            eprintln!(
                "online_smoke: scaling efficiency {efficiency_x1000} < \
                 {EFFICIENCY_BAR_X1000} (x1000) at {shards} shards on a {cpus}-CPU machine"
            );
            failed = true;
        }
        if sharded_p99 > P99_BAR_MICROS {
            eprintln!(
                "online_smoke: sharded p99 rollover stall {sharded_p99} us > \
                 {P99_BAR_MICROS} us on a {cpus}-CPU machine"
            );
            failed = true;
        }
        if (binary_speedup_x1000 as f64) < BINARY_SPEEDUP_BAR * 1000.0 {
            eprintln!(
                "online_smoke: framed-binary ingest {binary_rate} ev/s is only {:.2}x the \
                 sharded NDJSON {sharded_rate} ev/s (< {BINARY_SPEEDUP_BAR}x) on a \
                 {cpus}-CPU machine",
                binary_speedup_x1000 as f64 / 1000.0,
            );
            failed = true;
        }
    } else {
        println!(
            "online_smoke: {cpus} CPU(s); skipping the {EFFICIENCY_BAR_X1000} (x1000) \
             efficiency, {P99_BAR_MICROS} us p99, and {BINARY_SPEEDUP_BAR}x binary bars \
             (efficiency {efficiency_x1000}, p99 {sharded_p99} us, binary speedup \
             {:.2}x reported only)",
            binary_speedup_x1000 as f64 / 1000.0,
        );
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
