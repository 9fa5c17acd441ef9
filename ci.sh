#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from the repository root; pass extra cargo args after `--` if needed.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== cargo test (forced-SWAR scan kernels) =="
# The scan dispatch picks the widest ISA the host supports, so the
# portable SWAR fallback never runs on modern x86 unless forced. Pin it:
# the iotrace suite (scan/ndjson/chunk property tests included) must
# pass byte-for-byte with the fallback kernels selected, and so must the
# front end's line tests, whose non-canonical lines take the general
# route through the dispatched scan kernels.
EES_SCAN_ISA=swar cargo test -p ees-iotrace -q
EES_SCAN_ISA=swar cargo test -p ees-online -q frontend

echo "== cargo build --release =="
cargo build --release --workspace

echo "== daemon benchmark self-test (tiny scale) =="
# The benchmark harness in daemonbench/ compiles against the crates'
# public API and replays `ColocatedDaemon::step` call for call; its own
# tests run every workload in both modes at tiny scale and check each
# run against the daemon's report. An API change that breaks the harness,
# or a daemon change its replica no longer matches, fails here.
python3 -m unittest daemonbench/test_run.py

echo "== online subsystem tests =="
cargo test -q -p ees-online

echo "== ees online smoke (1k-event NDJSON stream) =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run --release -q -p ees-cli --bin ees -- \
    gen fileserver --scale 0.002 --seed 7 --out "$SMOKE_DIR" >/dev/null
head -n 1000 "$SMOKE_DIR/fileserver.trace.jsonl" > "$SMOKE_DIR/events.ndjsonl"
cargo run --release -q -p ees-cli --bin ees -- \
    online "$SMOKE_DIR/events.ndjsonl" "$SMOKE_DIR/fileserver.items.json" \
    --period 1 --json > "$SMOKE_DIR/online.json"
grep -q '"mode": "online"' "$SMOKE_DIR/online.json"
grep -q '"reason":"boundary"' "$SMOKE_DIR/online.json" \
    || { echo "online smoke: no plan emitted"; exit 1; }
echo "online smoke OK"

echo "== online throughput smoke (100k events -> BENCH_online.json) =="
# Times the serial monitor driver (parse and fold inline on one thread)
# against the sharded one (parallel ingest front end: one reader per
# shard) on a fixed 100k-event stream,
# plus the same stream as a framed ees.event.v1 slice through the
# zero-copy binary front end (median of 3 runs per driver, after a
# warm-up). It also times the borrowed-line NDJSON parser alone
# (ndjson_parse_events_per_sec) — the figure the dispatched scan
# kernels move directly — and the front end's per-chunk line parse
# (frontend_parse_events_per_sec) — the figure the canonical-line fast
# path moves. With a checked-in baseline the run is a gate:
# >20% events/sec regression on any of the three drivers or on either
# parse rate fails, sharded p99
# rollover stall may not grow past 2x the baseline, scaling efficiency
# (scaling_efficiency_x1000 = sharded / (serial x shards)) may not drop
# below 80% of the baseline, and on >=4-CPU machines three absolute
# bars apply: scaling efficiency >= 70% (x1000 >= 700), sharded p99
# rollover stall <= 200 us, and framed-binary file ingest >= 1.5x the
# sharded NDJSON events/sec. The first run seeds the baseline.
BENCH_BASE="results/BENCH_online.baseline.json"
cargo run --release -q -p ees-bench --bin online_smoke -- \
    results/BENCH_online.json "$BENCH_BASE"
if [ ! -f "$BENCH_BASE" ]; then
    cp results/BENCH_online.json "$BENCH_BASE"
    echo "online bench: baseline seeded at $BENCH_BASE (check it in)"
fi
echo "online bench smoke OK"

echo "== net ingest smoke (1M events, 4 senders -> BENCH_net.json) =="
# Streams the same 1M-event set over a Unix socket from 4 concurrent
# senders — once as NDJSON, once as ees.event.v1 binary — through the
# k-way watermark merge (median of 3 runs per format, after a warm-up).
# Two absolute bars always apply: the merge must be lossless and binary
# ingest must run >= 1.5x the NDJSON events/sec. With a checked-in
# baseline the run is also a gate: >25% events/sec regression on either
# format fails, and peak RSS (VmHWM) may not grow past 1.5x the
# baseline. The first run seeds the baseline.
NET_BASE="results/BENCH_net.baseline.json"
cargo run --release -q -p ees-bench --bin net_smoke -- \
    results/BENCH_net.json "$NET_BASE"
if [ ! -f "$NET_BASE" ]; then
    cp results/BENCH_net.json "$NET_BASE"
    echo "net bench: baseline seeded at $NET_BASE (check it in)"
fi
echo "net bench smoke OK"

echo "== chaos gate (8 seeds x {1,4} shards) =="
# Differential fault-injection sweep (DESIGN.md §11): each seed runs the
# full hardened pipeline — malformed/truncated/duplicated/reordered
# input, reader stalls, worker panics, crash/restore through the
# checkpoint codec — and compares plans against a fault-free serial run.
# `ees chaos` exits non-zero on any plan divergence or escaped panic.
for CHAOS_SHARDS in 1 4; do
    cargo run --release -q -p ees-cli --bin ees -- \
        chaos --seed 1 --seeds 8 --shards "$CHAOS_SHARDS" --events 3000
done
echo "chaos gate OK"

echo "== endurance gate (50 periods x cloudblock -> BENCH_endure.json) =="
# Long-horizon soak in smoke form (DESIGN.md §16): a seeded 50-period
# cloud-block run through the sharded controller with worker panics and
# periodic checkpoint/restore cycles injected, plus a fault-free serial
# leg that must reproduce every per-period row byte for byte. Absolute
# bars: back-half savings drift within ±0.01/period, back-half savings
# >= 15%, and a 60 s wall-clock budget. With a checked-in baseline the
# seeded vitals (events, savings, drift, p99, trigger cuts) must match
# it exactly — the run is bit-reproducible, so any difference is a
# behaviour change, not noise. The first run seeds the baseline.
ENDURE_BASE="results/BENCH_endure.baseline.json"
cargo run --release -q -p ees-bench --bin endure_smoke -- \
    results/BENCH_endure.json "$ENDURE_BASE"
if [ ! -f "$ENDURE_BASE" ]; then
    cp results/BENCH_endure.json "$ENDURE_BASE"
    echo "endurance bench: baseline seeded at $ENDURE_BASE (check it in)"
fi
# The CLI surface of the same contract: `ees endure` must hold the
# drift bar itself (exits non-zero past it) at a different seed.
cargo run --release -q -p ees-cli --bin ees -- \
    endure --seed 11 --periods 50 --shards 4 --drift-bar 0.01 >/dev/null
echo "endurance gate OK"

echo "CI gate passed."
