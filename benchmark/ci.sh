#!/usr/bin/env bash
# Smoke path for CI: build, unit tests, two quick runs of every workload,
# and a compare of the two. Lives here because the benchmark PR may not
# touch files outside benchmark/ (so it is not wired into
# .github/workflows yet).
#
# Quick runs are a tenth of the size and too short to resolve the bounds,
# so a `regressed` verdict between two runs of the same code is reported
# and not fatal; a run that fails its reference check, a metric that is
# missing, or a result file that does not parse is.
set -euo pipefail
cd "$(dirname "$0")"

run() { cargo run --release --offline --quiet -- "$@"; }
out="${STEM_BENCH_DIR:-$PWD/out}"

cargo build --release --offline
cargo test --offline --quiet
run run --workload all --quick --out "$out/ci-a.json"
run run --workload all --quick --out "$out/ci-b.json"
status=0
run compare "$out/ci-a.json" "$out/ci-b.json" || status=$?
if [ "$status" -eq 1 ]; then
    echo "ci.sh: compare flagged a regression between two quick runs of the same code (noise at this size)"
elif [ "$status" -ne 0 ]; then
    exit "$status"
fi
echo "ci.sh: ok"
