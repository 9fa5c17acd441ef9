//! Colocated online daemon: stream a workload's events over the NDJSON
//! wire into the bounded-queue ingest front end and let the online controller
//! classify, plan, and re-plan live — no buffered trace anywhere.
//!
//! ```text
//! cargo run --release --example colocated_daemon
//! ```
//!
//! The same plans the batch replay engine would derive appear here one
//! by one as the stream crosses period boundaries (or a §V.D trigger
//! cuts a period short).

use ees::iotrace::ndjson::write_events;
use ees::online::{spawn_reader_parallel, ColocatedDaemon, OverflowPolicy, RolloverReason};
use ees::prelude::*;
use ees::replay::CatalogItem;
use std::io::Cursor;

fn main() {
    // 5 % of the paper's 6 h File Server run, serialized to the NDJSON
    // wire format — the same bytes `ees gen` writes and a live tap would
    // emit.
    let workload = ees::workloads::fileserver::generate(42, &FileServerParams::scaled(0.05));
    let mut wire = Vec::new();
    write_events(workload.trace.iter(), &mut wire).unwrap();
    println!(
        "streaming {} events ({} items, {} enclosures) through the daemon",
        workload.trace.len(),
        workload.items.len(),
        workload.num_enclosures
    );

    let items: Vec<CatalogItem> = workload
        .items
        .iter()
        .map(|i| CatalogItem {
            id: i.id,
            size: i.size,
            enclosure: i.enclosure,
            access: i.access,
        })
        .collect();
    let storage = StorageConfig::ams2500(workload.num_enclosures);
    let mut daemon = ColocatedDaemon::new(
        &items,
        workload.num_enclosures,
        &storage,
        ProposedConfig::default(),
    );

    // A queue of 4 batches of 64 events with the lossless policy, parsed
    // by one reader thread: ingest blocks when the daemon falls behind (a
    // live tap would use `OverflowPolicy::DropNewest` instead and count
    // the gap). Drained batch buffers go back to the pool for reuse.
    let (rx, pool, _live, reader) =
        spawn_reader_parallel(Cursor::new(wire), 4, 64, OverflowPolicy::Block, 1, 0);
    for mut batch in rx {
        for rec in batch.drain(..) {
            for env in daemon.step(rec).expect("daemon step failed") {
                println!(
                    "[{:7.1} s .. {:7.1} s] {:<8} migrations {:<2} preload {:<2} \
                     write-delay {:<2}",
                    env.period.start.as_secs_f64(),
                    env.period.end.as_secs_f64(),
                    match env.reason {
                        RolloverReason::Boundary => "boundary",
                        RolloverReason::Trigger => "trigger",
                    },
                    env.plan.migrations.len(),
                    env.plan.preload.len(),
                    env.plan.write_delay.len(),
                );
            }
        }
        pool.recycle(batch);
    }
    let ingest = reader.join().unwrap().unwrap();
    let summary = daemon.finish(Some(workload.duration));

    println!();
    println!(
        "ingested:      {} events ({} dropped)",
        ingest.accepted, ingest.dropped
    );
    println!(
        "periods:       {} ({} trigger cuts)",
        summary.periods, summary.trigger_cuts
    );
    println!("unit power:    {:.1} W", summary.avg_power_watts);
    println!("spin-ups:      {}", summary.spin_ups);
    println!(
        "avg response:  {:.2} ms",
        summary.avg_response.as_millis_f64()
    );
}
