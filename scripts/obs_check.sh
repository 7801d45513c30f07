#!/usr/bin/env bash
# Observability end-to-end check:
#   1. builds the obs test suite and the obs_e2e example,
#   2. runs the `obs`-labeled ctest suite (registry, trace, exporters),
#   3. runs the full pipeline (faulty web -> crawl -> analysis flow) with
#      tracing enabled, including the multiprocess leg: the flow re-runs on
#      8 forked socketpair workers, each ships its trace ring + metrics
#      snapshot back in its end-of-run control frame, and obs_e2e
#      validates both the single-process Chrome trace and the stitched
#      multi-pid trace (balanced B/E per thread, monotone timestamps,
#      merged counters == per-shard sums) and fails on error,
#   4. greps the Prometheus dump against scripts/obs_required_metrics.txt
#      so no instrumented subsystem silently loses its metrics.
# Usage: scripts/obs_check.sh [build_dir]  (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_DIR="$BUILD_DIR/obs_check"
TRACE="$OUT_DIR/trace.json"
PROM="$OUT_DIR/metrics.prom"
MANIFEST="scripts/obs_required_metrics.txt"
FORK_SHARDS=8

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target obs_test obs_e2e
mkdir -p "$OUT_DIR"

echo "== obs-labeled unit suite =="
(cd "$BUILD_DIR" && ctest -L obs --output-on-failure)

echo "== end-to-end run with tracing ($FORK_SHARDS forked workers) =="
"$BUILD_DIR/examples/obs_e2e" "$TRACE" "$PROM" "$FORK_SHARDS"
[[ -s "$TRACE.stitched.json" ]] || {
  echo "obs check FAILED: stitched trace $TRACE.stitched.json missing"
  exit 1
}

echo "== required-metrics manifest =="
missing=0
while IFS= read -r pattern; do
  [[ -z "$pattern" || "$pattern" == \#* ]] && continue
  if ! grep -qF "$pattern" "$PROM"; then
    echo "MISSING metric: $pattern"
    missing=$((missing + 1))
  fi
done < "$MANIFEST"
if [[ "$missing" -gt 0 ]]; then
  echo "obs check FAILED: $missing metric(s) missing from $PROM"
  exit 1
fi
echo "all $(grep -cv '^\s*\(#\|$\)' "$MANIFEST") manifest metrics present"
echo "obs check passed (trace: $TRACE, stitched: $TRACE.stitched.json," \
     "metrics: $PROM)"
