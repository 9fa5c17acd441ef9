#!/usr/bin/env python3
"""Benchmark of the `ees online` daemon: end to end, and layer by layer.

    python3 daemonbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the `ees` binary from
the repository's workspace and the harness in `daemonbench/harness`, then:

1. generates the workload's input from `--seed` with the in-repo
   generators (`harness prepare`), together with a reference report
   computed outside any timed path;
2. with `--trace 0`, runs `ees online <input> <items> [--period P]
   --shards N --json` once untimed (page cache warm-up), then for
   `--seconds` alternates set-up runs over a one-event input with full
   runs, and prints the end-to-end metrics;
3. with `--trace 1`, runs `harness trace`, which times the calls into
   each layer over the real ingest front end, and prints the per-layer
   metrics.

Every run's plans, power and response must equal the reference. Events
of a diverging run, and dropped events, count as failed. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it stamps where the
figures came from. Progress goes to standard error. See
`daemonbench/README.md` for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# name -> how to generate the input, and the `ees online` flags it runs
# with. `scale` multiplies by `--scale-factor` (the tests shrink it).
WORKLOADS = {
    "fileserver-ndjson": {
        "generator": "fileserver", "scale": 0.2, "volumes": None,
        "format": "ndjson", "period": None, "shards": 1,
    },
    "cloudblock-binary": {
        "generator": "cloudblock", "scale": 0.05, "volumes": 20000,
        "format": "binary", "period": 30, "shards": 2,
    },
    "tpch-triggers": {
        "generator": "tpch", "scale": 0.2, "volumes": None,
        "format": "ndjson", "period": None, "shards": 1,
    },
}

END_TO_END_UNITS = {
    "events_per_sec": "events/s",
    "cpu_s_per_mevent": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "avg_power_w": "W",
    "sim_response_ms": "ms",
}

PER_LAYER_UNITS = {
    "iotrace.decode_events": "count",
    "iotrace.decode_calls": "count",
    "iotrace.decode_ns_per_event": "ns",
    "iotrace.decode_busy_s": "s",
    "ingest.wait_share": "ratio",
    "ingest.wait_s": "s",
    "ingest.batches": "count",
    "ingest.events_per_batch": "count",
    "controller.observe_calls": "count",
    "controller.observe_ns_per_event": "ns",
    "controller.observe_busy_s": "s",
    "controller.trigger_calls": "count",
    "controller.trigger_ns_per_event": "ns",
    "controller.trigger_busy_s": "s",
    "controller.rollover_calls": "count",
    "controller.rollover_s": "s",
    "controller.rollover_ms_p50": "ms",
    "controller.plans": "count",
    "controller.trigger_cuts": "count",
    "harness.serve_calls": "count",
    "harness.serve_ns_per_event": "ns",
    "harness.serve_busy_s": "s",
    "harness.refresh_views_calls": "count",
    "harness.refresh_views_s": "s",
    "harness.apply_plan_calls": "count",
    "harness.apply_plan_s": "s",
    "storage.cache_hit_share": "ratio",
    "storage.preload_hits": "count",
    "storage.general_hits": "count",
    "storage.buffered_writes": "count",
    "storage.flushes": "count",
    "storage.spin_ups": "count",
    "storage.migrations": "count",
    "storage.migrated_bytes": "B",
    "daemon.step_calls": "count",
    "daemon.step_ns_per_event": "ns",
    "daemon.step_busy_s": "s",
    "daemon.wall_s": "s",
    "trace.clock_ns": "ns",
    "trace.overhead_share": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
}

# The traced run times one record in SAMPLE_EVERY per call site.
SAMPLE_EVERY = 32
# Set-up runs per full run in the timed loop.
SETUP_PER_RUN = 3
# Fewest full runs (trace mode: traced/untraced pairs) a measurement takes.
MIN_RUNS = 3
# Report fields that must equal the reference.
CHECKED_FIELDS = ("events", "avg_power_watts", "avg_response_ms", "periods",
                  "trigger_cuts", "spin_ups", "plans")
# A single `ees online` run that takes longer than this is killed.
RUN_TIMEOUT_S = 60


def log(msg):
    print(f"daemonbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def target_dir():
    """Where cargo builds: `$CARGO_TARGET_DIR` (relative to the checkout
    root), else `.bench_build` at the root."""
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds `ees` in the repository's own workspace (so its release
    profile applies) and the harness in the benchmark's workspace."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for extra in (["-p", "ees-cli"],
                  ["--manifest-path", str(BENCH_DIR / "harness" / "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", *extra]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "ees", release / "daemonbench-harness"


def cpu_ticks():
    """(stolen, total) CPU ticks since boot from the first line of
    /proc/stat, or None where it does not exist. Stolen ticks are time a
    virtual CPU was ready to run while its host ran something else."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]
    except OSError:
        return None
    ticks = [int(f) for f in fields] + [0] * (8 - len(fields))
    return ticks[7], sum(ticks)


def steal_share(before, after):
    """Share of CPU time stolen by the host between two `cpu_ticks()`."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_process(cmd, stderr_path):
    """Runs `cmd` to completion; returns (exit code, stdout text, wall s,
    user+sys CPU s, peak RSS KiB) for that one process."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out.decode(), wall, cpu, usage.ru_maxrss


def divergence(report, expected):
    """Why `report` differs from the reference, or None if it does not."""
    for field in CHECKED_FIELDS:
        if report.get(field) != expected.get(field):
            return f"'{field}' differs from the reference"
    return None


class Tally:
    """Attempted and failed events across the measured runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, report, expected, what):
        events = expected["events"]
        self.attempted += events
        why = divergence(report, expected)
        if why is not None:
            self.failed += events
            self.errors.append(f"{what}: {why}")
        else:
            lost = min(events, report["ingest"]["dropped"])
            self.failed += lost
            if lost:
                self.errors.append(f"{what}: {lost} events dropped")


def prepare(harness, spec, seed, scale_factor, work):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(harness), "prepare", "--generator", spec["generator"],
           "--scale", repr(spec["scale"] * scale_factor), "--format", spec["format"],
           "--seed", str(seed), "--out", str(work)]
    if spec["volumes"] is not None:
        cmd += ["--volumes", str(spec["volumes"])]
    if spec["period"] is not None:
        cmd += ["--period", str(spec["period"])]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail("input generation failed")
    meta = json.loads(done.stdout.strip().splitlines()[-1])
    meta["expected"] = json.loads((work / "expected.json").read_text())
    return meta


def online_cmd(ees, spec, input_path, items_path):
    cmd = [str(ees), "online", str(input_path), str(items_path)]
    if spec["period"] is not None:
        cmd += ["--period", str(spec["period"])]
    return cmd + ["--shards", str(spec["shards"]), "--json"]


def measure_end_to_end(ees, spec, meta, work, seconds, tally):
    items = work / "items.json"
    full = online_cmd(ees, spec, meta["input"], items)
    first = online_cmd(ees, spec, meta["first"], items)
    expected = meta["expected"]
    errlog = work / "stderr.txt"

    def online(cmd):
        code, out, wall, cpu, rss = run_process(cmd, errlog)
        if code != 0:
            fail(f"ees online exited {code}: {errlog.read_text().strip()}")
        return json.loads(out), wall, cpu, rss

    # Untimed warm-up, so the input sits in the page cache.
    online(full)

    setups, rates, cpus, rsss = [], [], [], []
    start = time.perf_counter()
    while len(rates) < MIN_RUNS or time.perf_counter() - start < seconds:
        for _ in range(SETUP_PER_RUN):
            one, wall, _, _ = online(first)
            if one.get("events") != 1:
                fail("the one-event set-up run did not take its event")
            setups.append(wall)
        report, wall, cpu, rss = online(full)
        tally.check(report, expected, f"run {len(rates) + 1}")
        events = expected["events"]
        rates.append(events / wall)
        cpus.append(cpu / (events / 1e6))
        rsss.append(rss / 1024)
        log(f"run {len(rates)}: {wall:.3f} s wall, {cpu:.3f} s cpu, {rss / 1024:.1f} MiB")

    metrics = {
        "events_per_sec": statistics.median(rates),
        "cpu_s_per_mevent": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rsss),
        "avg_power_w": report["avg_power_watts"],
        "sim_response_ms": report["avg_response_ms"],
    }
    stamp = {"shards": report["shards"], "readers": report["readers"],
             "scan_isa": report["ingest"].get("scan_isa"),
             "runs": len(rates), "setup_runs": len(setups)}
    return metrics, END_TO_END_UNITS, stamp


def measure_layers(harness, spec, meta, work, seconds, tally):
    cmd = [str(harness), "trace", "--input", meta["input"], "--items", str(work / "items.json"),
           "--shards", str(spec["shards"]), "--sample", str(SAMPLE_EVERY),
           "--seconds", str(seconds)]
    if spec["period"] is not None:
        cmd += ["--period", str(spec["period"])]
    code, out, _, _, _ = run_process(cmd, work / "stderr.txt")
    if code != 0:
        fail(f"harness trace exited {code}: {(work / 'stderr.txt').read_text().strip()}")
    passes = [json.loads(line) for line in out.splitlines() if line.strip()]
    decode = next(p["layers"] for p in passes if p["pass"] == "decode")
    untraced = [p for p in passes if p["pass"] == "untraced"]
    traced = [p for p in passes if p["pass"] == "traced"]
    if len(traced) < 1 or len(untraced) < 1:
        fail("harness trace printed no passes")
    for i, p in enumerate(untraced + traced):
        tally.check(p["report"], meta["expected"], f"{p['pass']} pass {i + 1}")

    metrics = dict(decode)
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(p["layers"][name] for p in traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    report = traced[0]["report"]
    stamp = {"shards": traced[0]["shards"], "readers": traced[0]["readers"],
             "scan_isa": report["ingest"].get("scan_isa"), "runs": len(traced),
             "sample_every": SAMPLE_EVERY}
    return metrics, PER_LAYER_UNITS, stamp


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale-factor", type=float, default=1.0,
                    help="multiplies every workload's generator scale (tests use a tiny one)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: alter one reference plan, so every run must fail the check")
    args = ap.parse_args(argv)

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml and crates/)")
    spec = WORKLOADS[args.workload]
    ees, harness = build()
    work = ROOT / ".bench_work" / args.workload
    try:
        meta = prepare(harness, spec, args.seed, args.scale_factor, work)
        if args.corrupt_reference:
            plans = meta["expected"]["plans"]
            if not plans:
                fail("--corrupt-reference needs a workload scale that yields a plan")
            plans[-1]["migrations"] += 1
        log(f"{args.workload} seed {args.seed}: {meta['events']} events, {meta['items']} items")
        tally = Tally()
        measure = measure_layers if args.trace else measure_end_to_end
        tool = harness if args.trace else ees
        ticks = cpu_ticks()
        metrics, units, stamp = measure(tool, spec, meta, work, args.seconds, tally)
        stamp["steal_share"] = steal_share(ticks, cpu_ticks())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in tally.errors[:5]:
        log(err)
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    provenance = {"workload": args.workload, "seed": args.seed, "events": meta["events"],
                  "items": meta["items"], "format": spec["format"],
                  "nproc": os.cpu_count(), "cpus_usable": affinity, **stamp}
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
