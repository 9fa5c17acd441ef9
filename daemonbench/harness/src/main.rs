//! Harness for the `ees online` daemon benchmark (`daemonbench/run.py`).
//!
//! ```text
//! daemonbench-harness prepare --generator <fileserver|cloudblock|tpch> --scale X
//!     [--volumes N] --format <ndjson|binary> --seed N [--period SECS] --out DIR
//! daemonbench-harness trace --input FILE --items FILE [--period SECS] --shards N
//!     --sample N --seconds S
//! ```
//!
//! `prepare` generates one workload from its seed with the in-repo
//! generators and writes, into `--out`:
//! - `input.jsonl` or `input.eev` (framed `ees.event.v1`, transcoded with
//!   `ees_iotrace::wire`), the file `ees online` reads;
//! - `first.jsonl` or `first.eev`, the first event alone in the same
//!   format, for timing set-up;
//! - `items.json`, the catalog;
//! - `expected.json`, the `ees.report.v1` report of a single-threaded
//!   `ColocatedDaemon` stepped over the generator's own records, outside
//!   any timed path. Every timed run must reproduce its plans, power and
//!   response.
//!
//! `trace` feeds the input through the real ingest front end into a copy
//! of `ColocatedDaemon::step`'s flow assembled from each layer's public
//! calls ([`replica`]). It alternates an untraced pass and a traced pass
//! until `--seconds` have passed, and prints one JSON line per pass.

mod replica;

use ees_cli::jsonout::online_json;
use ees_core::ProposedConfig;
use ees_iotrace::ndjson::json_escape;
use ees_iotrace::wire::transcode_ndjson_to_binary_blocks;
use ees_iotrace::{LogicalIoRecord, Micros};
use ees_online::{ColocatedDaemon, IngestStats, ShardOptions};
use ees_replay::CatalogItem;
use ees_simstorage::StorageConfig;
use ees_workloads::{
    cloudblock, dss, fileserver, items_from_json, items_to_json, CloudBlockParams, DataItemSpec,
    DssParams, FileServerParams, Workload,
};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The `ees online` defaults for `--queue` and `--batch`; the benchmark
/// passes neither flag, so the replica uses the same transport sizes.
const QUEUE: usize = 1024;
const BATCH: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "prepare" => Flags::parse(rest).and_then(|f| prepare(&f)),
        Some((cmd, rest)) if cmd == "trace" => Flags::parse(rest).and_then(|f| trace(&f)),
        _ => Err("expected a subcommand: prepare | trace".to_string()),
    };
    if let Err(e) = result {
        eprintln!("daemonbench-harness: {e}");
        std::process::exit(2);
    }
}

/// `--key value` pairs.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{key}'"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    }

    /// `--period SECS`, parsed exactly as `ees online` parses it.
    fn period(&self) -> Result<Option<Micros>, String> {
        match self.0.get("period") {
            None => Ok(None),
            Some(_) => Ok(Some(Micros::from_secs_f64(self.num::<f64>("period")?))),
        }
    }
}

/// The daemon configuration `ees online <input> <items> [--period P]
/// --shards N` builds, derived from the catalog the same way.
pub struct DaemonSetup {
    pub catalog: Vec<CatalogItem>,
    pub num_enclosures: u16,
    pub storage: StorageConfig,
    pub policy: ProposedConfig,
    pub shards: usize,
    pub options: ShardOptions,
    pub readers: usize,
    /// Reader channel depth in batches.
    pub capacity: usize,
    pub batch: usize,
}

impl DaemonSetup {
    fn new(items: &[DataItemSpec], period: Option<Micros>, shards: usize) -> DaemonSetup {
        let num_enclosures = items.iter().map(|i| i.enclosure.0 + 1).max().unwrap_or(1);
        let catalog = items
            .iter()
            .map(|i| CatalogItem {
                id: i.id,
                size: i.size,
                enclosure: i.enclosure,
                access: i.access,
            })
            .collect();
        let mut policy = ProposedConfig::default();
        if let Some(p) = period {
            policy.initial_period = p;
        }
        let options = ShardOptions {
            queue: QUEUE.div_ceil(BATCH).max(2),
            ..ShardOptions::default()
        };
        let readers = options.resolved_readers(shards);
        DaemonSetup {
            catalog,
            num_enclosures,
            storage: StorageConfig::ams2500(num_enclosures),
            policy,
            shards,
            options,
            readers,
            capacity: QUEUE.div_ceil(BATCH).max(1),
            batch: BATCH,
        }
    }
}

fn generate(flags: &Flags) -> Result<Workload, String> {
    let seed: u64 = flags.num("seed")?;
    let scale: f64 = flags.num("scale")?;
    Ok(match flags.str("generator")? {
        "fileserver" => fileserver::generate(seed, &FileServerParams::scaled(scale)),
        "tpch" => dss::generate(seed, &DssParams::scaled(scale)),
        "cloudblock" => {
            let mut p = CloudBlockParams::scaled(scale);
            p.num_volumes = flags.num("volumes")?;
            cloudblock::generate(seed, &p)
        }
        other => return Err(format!("unknown generator '{other}'")),
    })
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// Writes `records` as NDJSON to `path`, then, for `binary`, transcodes
/// that file to framed `ees.event.v1` at `path` with an `.eev` extension
/// and removes the NDJSON. Returns the file the daemon reads.
fn write_input(path: &Path, records: &[LogicalIoRecord], binary: bool) -> Result<PathBuf, String> {
    let mut w = BufWriter::new(File::create(path).map_err(io_err(path))?);
    for rec in records {
        writeln!(w, "{}", ees_iotrace::ndjson::format_event(rec)).map_err(io_err(path))?;
    }
    w.flush().map_err(io_err(path))?;
    drop(w);
    if !binary {
        return Ok(path.to_path_buf());
    }
    let eev = path.with_extension("eev");
    let src = BufReader::new(File::open(path).map_err(io_err(path))?);
    let mut dst = BufWriter::new(File::create(&eev).map_err(io_err(&eev))?);
    transcode_ndjson_to_binary_blocks(src, &mut dst, 0).map_err(io_err(&eev))?;
    dst.flush().map_err(io_err(&eev))?;
    std::fs::remove_file(path).map_err(io_err(path))?;
    Ok(eev)
}

fn prepare(flags: &Flags) -> Result<(), String> {
    let out = PathBuf::from(flags.str("out")?);
    let binary = match flags.str("format")? {
        "ndjson" => false,
        "binary" => true,
        other => return Err(format!("unknown format '{other}'")),
    };
    let workload = generate(flags)?;
    let records = workload.trace.records();
    if records.is_empty() {
        return Err("the generator produced no events".into());
    }
    std::fs::create_dir_all(&out).map_err(io_err(&out))?;
    let input = write_input(&out.join("input.jsonl"), records, binary)?;
    let first = write_input(&out.join("first.jsonl"), &records[..1], binary)?;
    let items_path = out.join("items.json");
    std::fs::write(&items_path, items_to_json(&workload.items)).map_err(io_err(&items_path))?;

    // The reference: the daemon itself, single-threaded, over the
    // generator's records — no file, no decoder, no front end.
    let setup = DaemonSetup::new(&workload.items, flags.period()?, 1);
    let mut daemon = ColocatedDaemon::new(
        &setup.catalog,
        setup.num_enclosures,
        &setup.storage,
        setup.policy,
    );
    let mut plans = Vec::new();
    for rec in records {
        plans.extend(daemon.step(*rec).map_err(|e| e.to_string())?);
    }
    let events = daemon.events();
    let summary = daemon.finish(None);
    let ingest = IngestStats {
        accepted: events,
        dropped: 0,
    };
    let report = online_json(
        "reference",
        &summary,
        &ingest,
        QUEUE,
        BATCH,
        1,
        1,
        Some(if binary { "binary" } else { "ndjson" }),
        None,
        &[],
        &plans,
    );
    let expected = out.join("expected.json");
    std::fs::write(&expected, report).map_err(io_err(&expected))?;
    println!(
        "{{\"events\": {events}, \"items\": {}, \"input\": \"{}\", \"first\": \"{}\"}}",
        workload.items.len(),
        json_escape(&input.display().to_string()),
        json_escape(&first.display().to_string())
    );
    Ok(())
}

fn trace(flags: &Flags) -> Result<(), String> {
    let input = PathBuf::from(flags.str("input")?);
    let items_path = PathBuf::from(flags.str("items")?);
    let text = std::fs::read_to_string(&items_path).map_err(io_err(&items_path))?;
    let items = items_from_json(&text).map_err(|e| format!("{}: {e}", items_path.display()))?;
    let setup = DaemonSetup::new(&items, flags.period()?, flags.num("shards")?);
    let sample: u64 = flags.num::<u64>("sample")?.max(1);
    let seconds: f64 = flags.num("seconds")?;

    let clock_ns = replica::clock_ns();
    println!("{}", replica::decode_profile(&input, sample, clock_ns)?);

    // Untraced and traced passes alternate, so drift on the machine
    // hits both sides alike; at least two of each.
    let start = std::time::Instant::now();
    let mut pairs = 0;
    while pairs < 2 || start.elapsed().as_secs_f64() < seconds {
        let untraced = replica::run_pass::<false>(&setup, &input, sample)?;
        println!("{}", untraced.to_json("untraced", &setup, clock_ns));
        let traced = replica::run_pass::<true>(&setup, &input, sample)?;
        println!("{}", traced.to_json("traced", &setup, clock_ns));
        pairs += 1;
    }
    Ok(())
}
