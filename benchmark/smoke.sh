#!/usr/bin/env bash
# Smoke test of the benchmark's machinery: every workload, both modes, on
# the Scale::Quick fabrics with one replay each. Checks exit codes and the
# correctness checks, not performance. Run from anywhere; under 20 s once
# built.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/scda-replay-bench"

for workload in video_full dc_write_full hyper_read_churn busy_full; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed 1 --seconds 1 --trace "$trace" --quick \
            --out benchmark/out/smoke | tail -n 1 | grep -q '^{"correct":true,' ||
            { echo "smoke: $workload --trace $trace failed" >&2; exit 1; }
        echo "smoke: $workload --trace $trace ok"
    done
done
