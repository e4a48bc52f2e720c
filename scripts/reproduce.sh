#!/usr/bin/env bash
# Regenerate every experiment output under docs/results/.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p docs/results
for bin in table1_2_3 workloads migration_costs fig4_fig5 fig6 fig7 fig8 table7 ablations; do
    echo ">>> $bin"
    cargo run --quiet --release -p ppm-bench --bin "$bin" > "docs/results/$bin.md" 2>/dev/null
done
echo "done; outputs in docs/results/"
