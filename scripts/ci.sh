#!/usr/bin/env bash
# The full pre-merge gate, in the order fastest-feedback-first.
# Everything here must pass on a clean checkout with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo ">>> cargo fmt --check"
cargo fmt --all -- --check

echo ">>> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo ">>> cargo build --release (workspace + examples)"
cargo build --release --quiet
cargo build --release --quiet --examples

echo ">>> cargo test -q"
cargo test -q

echo ">>> cargo test -q --release"
cargo test -q --release

echo ">>> benchmark package tests (workload smokes + digest self-checks)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo ">>> fault sweep (pinned seed 165: auditor must stay clean)"
PPM_FAULT_SEED=165 cargo test -q --release --test fault_injection
cargo run --release --quiet -p ppm --bin ppm-sim -- \
  --scheme ppm --workload l1 --duration 20 --faults 165 --audit > /dev/null

echo ">>> bench_sweep --check (parallel sweep == serial, bit-for-bit)"
cargo run --release --quiet -p ppm-bench --bin bench_sweep -- --check

echo ">>> telemetry smoke (ppm-sim --trace/--metrics/--profile + artifact validation)"
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
cargo run --release --quiet -p ppm --bin ppm-sim -- \
  --scheme ppm --workload m1 --duration 10 \
  --trace "$obs_tmp/m1.trace.json" --metrics "$obs_tmp/m1.csv" --profile > /dev/null
cargo run --release --quiet -p ppm --bin ppm-sim -- \
  --scheme ppm --workload m1 --duration 10 \
  --metrics "$obs_tmp/m1.jsonl" > /dev/null
cargo run --release --quiet -p ppm-obs --bin obs_validate -- \
  "$obs_tmp/m1.trace.json" "$obs_tmp/m1.csv" "$obs_tmp/m1.jsonl"

echo ">>> bench_obs (recorder overhead trajectory -> BENCH_obs.json)"
cargo run --release --quiet -p ppm-bench --bin bench_obs -- "$obs_tmp/BENCH_obs.json"
cargo run --release --quiet -p ppm-obs --bin obs_validate -- "$obs_tmp/BENCH_obs.json"

echo ">>> fleet smoke (pinned-seed faulted fleet, exchange books + chip auditors clean)"
cargo run --release --quiet -p ppm --bin ppm-sim -- fleet \
  --chips 4 --cap 12 --duration 5 --faults 165 --threads 2 \
  --trace "$obs_tmp/fleet.trace.json" --metrics "$obs_tmp/fleet.csv" > /dev/null
cargo run --release --quiet -p ppm-bench --bin bench_fleet -- --check quick

echo ">>> bench_fleet (fleet stepping throughput -> BENCH_fleet.json)"
cargo run --release --quiet -p ppm-bench --bin bench_fleet -- "$obs_tmp/BENCH_fleet.json"
cargo run --release --quiet -p ppm-obs --bin obs_validate -- "$obs_tmp/BENCH_fleet.json"

echo ">>> open-loop smoke (pinned-seed request traffic: auditor clean, stream whole)"
cargo run --release --quiet -p ppm --bin ppm-sim -- \
  --scheme ppm --workload openloop --duration 10 --audit \
  --stream "$obs_tmp/openloop.jsonl" > /dev/null
cargo run --release --quiet -p ppm-obs --bin obs_validate -- "$obs_tmp/openloop.jsonl"

echo ">>> bench_openloop --check (tape digest pinned, p99 within SLO, auditor clean)"
cargo run --release --quiet -p ppm-bench --bin bench_openloop -- --check

echo ">>> live scrape smoke (serving fleet on port 0, obs_validate scrapes both endpoints)"
cargo run --release --quiet -p ppm --bin ppm-sim -- fleet \
  --chips 4 --cap 12 --duration 3 --serve 127.0.0.1:0 --alerts --linger 60 \
  > "$obs_tmp/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 300); do
  # Wait for the post-run audit report so the scrape lands inside the
  # linger window (a post-run scrape is what ends the linger early).
  if grep -q '# fleet audit' "$obs_tmp/serve.log"; then
    addr="$(sed -n 's|^serving.*http://\([^/]*\)/metrics$|\1|p' "$obs_tmp/serve.log")"
    break
  fi
  sleep 0.1
done
[ -n "$addr" ] || { echo "serving fleet never reached its audit report"; exit 1; }
cargo run --release --quiet -p ppm-obs --bin obs_validate -- --scrape "$addr"
wait "$serve_pid"

echo "ci: all green"
