#!/usr/bin/env bash
# One-shot benchmark sweep: builds every fig/micro bench in Release and
# runs them with --json summaries, collecting BENCH_<name>.json into
# bench/out/ (plus each bench's stdout as <name>.log). The JSON files are
# the same machine-readable summaries CI consumes one-by-one; this script
# exists so a perf investigation can regenerate the whole set with one
# command and diff against a prior bench/out/.
#
#   scripts/bench_all.sh [build_dir]     (default: build-bench)
#
# Knobs:
#   WSIE_BENCH_SCALE   corpus-size multiplier (default 1.0) — forwarded to
#                      every bench; use 0.2 for a quick smoke sweep.
#   WSIE_BENCH_ONLY    space-separated bench names to restrict the sweep,
#                      e.g. WSIE_BENCH_ONLY="fig5 micro_ingest".
#
# serve_loadgen is deliberately not here (scripts/serve_check.sh runs it
# with its determinism diff); micro_components is google-benchmark-based
# and emits no BENCH json, so it runs last and only logs.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
OUT_DIR="bench/out"

fail() {
  echo "bench_all FAILED: $*" >&2
  exit 1
}

# Benches that speak --json (bench_util's ParseBenchFlags/JsonSummary).
JSON_BENCHES=(
  fig3_tool_runtimes
  fig4_scale_up
  fig5_scale_out
  fig6_linguistic_properties
  fig7_entity_incidence
  fig7_semantic
  fig8_annotation_overlap
  micro_ingest
  micro_obs_overhead
  micro_store_qps
)

if [[ -n "${WSIE_BENCH_ONLY:-}" ]]; then
  filter() {
    local kept=()
    for b in "$@"; do
      for want in $WSIE_BENCH_ONLY; do
        [[ "$b" == "$want" ]] && kept+=("$b")
      done
    done
    echo "${kept[@]:-}"
  }
  read -r -a JSON_BENCHES <<<"$(filter "${JSON_BENCHES[@]}")"
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target \
  ${JSON_BENCHES[@]+"${JSON_BENCHES[@]}"} \
  || fail "build"

mkdir -p "$OUT_DIR"

for bench in ${JSON_BENCHES[@]+"${JSON_BENCHES[@]}"}; do
  echo "== $bench =="
  "$BUILD_DIR/bench/$bench" --json="$OUT_DIR/BENCH_${bench}.json" \
    >"$OUT_DIR/${bench}.log" 2>&1 \
    || fail "$bench (see $OUT_DIR/${bench}.log)"
  [[ -s "$OUT_DIR/BENCH_${bench}.json" ]] \
    || fail "$bench: BENCH_${bench}.json missing or empty"
done

echo
echo "bench sweep complete -> $OUT_DIR/"
ls -l "$OUT_DIR"/BENCH_*.json 2>/dev/null || true
