//! `ees online` on a record whose item is not in the catalog: the run
//! fails with a typed error naming the record and the item instead of
//! panicking in the storage harness, for NDJSON and binary input alike.

use ees_cli::run_cli;
use ees_iotrace::ndjson::parse_event;
use ees_iotrace::wire::BinaryEventWriter;
use ees_iotrace::{DataItemId, IoKind, LogicalIoRecord, Micros};
use std::path::{Path, PathBuf};

/// Records taken from the generated trace before the bad one.
const PREFIX: usize = 200;

fn run(args: &[&str]) -> Result<String, String> {
    let mut buf = Vec::new();
    match run_cli(args.iter().map(|s| s.to_string()).collect(), &mut buf) {
        Ok(()) => Ok(String::from_utf8(buf).expect("output is UTF-8")),
        Err(e) => Err(e.to_string()),
    }
}

/// Generates a small File Server workload; returns its directory and
/// the first [`PREFIX`] NDJSON lines of its trace.
fn workload(tag: &str) -> (PathBuf, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("ees-cli-unknown-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    run(&[
        "gen",
        "fileserver",
        "--scale",
        "0.002",
        "--seed",
        "7",
        "--out",
        &dir.to_string_lossy(),
    ])
    .expect("gen failed");
    let trace = std::fs::read_to_string(dir.join("fileserver.trace.jsonl")).unwrap();
    let lines = trace.lines().take(PREFIX).map(str::to_string).collect();
    (dir, lines)
}

fn online(dir: &Path, trace: &Path) -> Result<String, String> {
    run(&[
        "online",
        &trace.to_string_lossy(),
        &dir.join("fileserver.items.json").to_string_lossy(),
        "--period",
        "1",
        "--json",
    ])
}

fn unknown(item: u32) -> LogicalIoRecord {
    LogicalIoRecord {
        ts: Micros(1_000_000),
        item: DataItemId(item),
        offset: 0,
        len: 4096,
        kind: IoKind::Read,
    }
}

#[test]
fn ndjson_record_for_an_unknown_item_fails_with_its_number() {
    let (dir, mut lines) = workload("ndjson");
    let trace = dir.join("bad.jsonl");
    lines.push(r#"{"ts":1000000,"item":99999,"offset":0,"len":4096,"kind":"Read"}"#.into());
    std::fs::write(&trace, lines.join("\n") + "\n").unwrap();
    let err = online(&dir, &trace).expect_err("an unknown item must fail the run");
    assert!(
        err.contains(&format!("record {}", PREFIX + 1)),
        "record number missing: {err}"
    );
    assert!(err.contains("item id 99999"), "item id missing: {err}");

    // The same trace without the bad record runs clean.
    lines.pop();
    std::fs::write(&trace, lines.join("\n") + "\n").unwrap();
    online(&dir, &trace).expect("the catalog-only prefix runs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_records_outside_the_catalog_fail_with_their_number() {
    let (dir, lines) = workload("binary");
    let records: Vec<LogicalIoRecord> = lines.iter().map(|l| parse_event(l).unwrap()).collect();
    let encode = |bad: &dyn Fn(&mut BinaryEventWriter<Vec<u8>>)| {
        let mut w = BinaryEventWriter::with_block_bytes(Vec::new(), 0);
        for rec in &records {
            w.event(rec).unwrap();
        }
        bad(&mut w);
        w.finish().unwrap()
    };

    // A numeric item id no catalog entry carries.
    let trace = dir.join("numeric.eev");
    std::fs::write(&trace, encode(&|w| w.event(&unknown(99_999)).unwrap())).unwrap();
    let err = online(&dir, &trace).expect_err("an unknown item must fail the run");
    assert!(
        err.contains(&format!("record {}", PREFIX + 1)),
        "record number missing: {err}"
    );
    assert!(err.contains("item id 99999"), "item id missing: {err}");

    // A Define binding the event's wire id to a name outside the catalog.
    let trace = dir.join("define.eev");
    std::fs::write(
        &trace,
        encode(&|w| {
            w.define(7, "no/such/volume").unwrap();
            w.event(&unknown(7)).unwrap();
        }),
    )
    .unwrap();
    let err = online(&dir, &trace).expect_err("an unknown item name must fail the run");
    assert!(err.contains("record "), "record number missing: {err}");
    assert!(err.contains("no/such/volume"), "item name missing: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
