#!/usr/bin/env bash
# The full pre-merge gate, in the order fastest-feedback-first.
# Everything here must pass on a clean checkout with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo ">>> cargo fmt --check"
cargo fmt --all -- --check

echo ">>> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo ">>> cargo doc -D warnings (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo ">>> cargo build --release (workspace + examples)"
cargo build --release --quiet
cargo build --release --quiet --examples

echo ">>> cargo test -q"
cargo test -q

echo ">>> cargo test -q --release"
cargo test -q --release

echo ">>> 256-chip V64/C8 acceptance epochs (ignored in tier-1; release only)"
cargo test -q --release -p ppm-fleet large_fleet_epoch_is_auditor_clean -- --ignored
cargo test -q --release --test fleet openloop_fleet_256_chips_is_auditor_clean -- --ignored

echo ">>> Table 7 (the constrained-core scan and the whole-chip pass print their 12 grid rows and the scaling line)"
table7_out="$(cargo run --release --quiet -p ppm-bench --bin table7)"
table7_rows="$(grep -cE '^\| [0-9]+ \| [0-9]+ \| [0-9]+ \| [0-9]+ \|' <<< "$table7_out" || true)"
if [ "$table7_rows" -ne 12 ] || ! grep -q '^scaling: ' <<< "$table7_out"; then
  echo "table7 printed $table7_rows of 12 grid rows or no scaling line:"
  echo "$table7_out"
  exit 1
fi

echo ">>> benchmark package tests (workload smokes + digest self-checks)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo ">>> fault sweep (pinned seed 165: auditor must stay clean)"
PPM_FAULT_SEED=165 cargo test -q --release --test fault_injection
cargo run --release --quiet -p ppm --bin ppm-sim -- \
  --scheme ppm --workload l1 --duration 20 --faults 165 --audit > /dev/null

echo ">>> lazy task capture (the lazy-vs-eager snapshot property again, second pinned seed)"
PROPTEST_SEED=1303 cargo test -q --release --test substrate_properties lazy_task_capture_matches_eager_capture

echo ">>> LBT reference (the incremental pass against the whole-cluster reference, second pinned seed)"
PROPTEST_SEED=1303 cargo test -q --release --test lbt_properties decide_move_matches_the_whole_cluster_reference

echo ">>> heartbeat windows (the executor's time-major ring against per-task reference monitors, release, second pinned seed)"
PROPTEST_SEED=1303 cargo test -q --release --test substrate_properties heartbeat_windows_match_the_reference_monitors

echo ">>> render identity (the stream writer's cached rows against the reference renderer, release, second pinned seed)"
PROPTEST_SEED=1303 cargo test -q --release -p ppm-obs cached_rows_match_the_reference_renderer

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

echo ">>> fleet smoke (pinned-seed faulted fleet, exchange books + chip auditors clean)"
cargo run --release --quiet -p ppm --bin ppm-sim -- fleet \
  --chips 4 --cap 12 --duration 5 --faults 165 --threads 2 \
  --trace "$obs_tmp/fleet.trace.json" --metrics "$obs_tmp/fleet.csv" > /dev/null
cargo run --release --quiet -p ppm-obs --bin obs_validate -- \
  "$obs_tmp/fleet.trace.json" "$obs_tmp/fleet.csv"
# A .json that is neither a trace nor a scrape snapshot must be rejected.
echo '{}' > "$obs_tmp/plain.json"
if cargo run --release --quiet -p ppm-obs --bin obs_validate -- "$obs_tmp/plain.json" 2> /dev/null; then
  echo "obs_validate accepted a plain {} document"
  exit 1
fi

echo ">>> open-loop smoke (pinned-seed request traffic: auditor clean, stream whole)"
cargo run --release --quiet -p ppm --bin ppm-sim -- \
  --scheme ppm --workload openloop --duration 10 --audit \
  --stream "$obs_tmp/openloop.jsonl" --metrics "$obs_tmp/openloop.post.jsonl" > /dev/null
cargo run --release --quiet -p ppm-obs --bin obs_validate -- "$obs_tmp/openloop.jsonl"
# Streamed during the run == exported after it, byte for byte.
cmp "$obs_tmp/openloop.jsonl" "$obs_tmp/openloop.post.jsonl"

echo ">>> pinned stream bytes (streamed JSONL and CSV of the open-loop run)"
for pinned in \
  "jsonl 481d324b449add56c65c11911ad2c4959b4d74147f75c834014fa814c515abac" \
  "csv 33143f70fa880b3d5b5dab5c8e36432f8d67f54d22c49536378a38a7e09eb356"; do
  ext="${pinned%% *}"
  cargo run --release --quiet -p ppm --bin ppm-sim -- \
    --scheme ppm --workload openloop --duration 10 \
    --stream "$obs_tmp/pinned.$ext" > /dev/null
  echo "${pinned#* }  $obs_tmp/pinned.$ext" | sha256sum --check --quiet -
done

echo ">>> live scrape smoke (serving chip and fleet on port 0, obs_validate scrapes both endpoints)"
# Serve one run, wait for its post-run report line so the scrape lands
# inside the linger window (a post-run scrape is what ends the linger
# early), scrape and validate both endpoints, and wait for a clean exit.
serve_smoke() {
  local name="$1" done_line="$2"
  shift 2
  cargo run --release --quiet -p ppm --bin ppm-sim -- "$@" > "$obs_tmp/$name.log" &
  local pid=$! addr=""
  for _ in $(seq 1 300); do
    if grep -q "$done_line" "$obs_tmp/$name.log"; then
      addr="$(sed -n 's|^serving.*http://\([^/]*\)/metrics$|\1|p' "$obs_tmp/$name.log")"
      break
    fi
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "serving $name never reached '$done_line'"; exit 1; }
  cargo run --release --quiet -p ppm-obs --bin obs_validate -- --scrape "$addr"
  wait "$pid"
}
serve_smoke chip '^alert tape:' \
  --workload ol2 --tdp 4 --duration 3 --serve 127.0.0.1:0 --alerts --linger 60
serve_smoke fleet '# fleet audit' \
  fleet --chips 4 --cap 12 --duration 3 --serve 127.0.0.1:0 --alerts --linger 60

echo "ci: all green"
