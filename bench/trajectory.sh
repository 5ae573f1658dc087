#!/usr/bin/env sh
# Runs the perf-trajectory benches (async throughput + aggregation scale +
# wire codec + checkpoint + population scale + telemetry overhead) and
# merges their JSON summaries into one trajectory file.
#
#   sh bench/trajectory.sh [OUT_JSON] [BUILD_DIR]
#
# Defaults: OUT_JSON=BENCH_10.json, BUILD_DIR=build. Honors the benches'
# environment knobs (GLUEFL_ROUNDS, GLUEFL_FULL, GLUEFL_AGG_*,
# GLUEFL_WIRE_DIM, GLUEFL_CKPT_SCALE_PCT, GLUEFL_POP_MAX,
# GLUEFL_TELEMETRY_REPS); CI passes GLUEFL_ROUNDS=1 for a
# fast smoke, the committed repo-root BENCH_10.json is produced with the
# defaults (the wire bench's default dimension and the checkpoint bench's
# default population are already OpenImage scale; the population bench
# runs one arm per population, 10k, 100k and 1M clients; the telemetry
# bench gates the <1% disabled-path AND flight-recorder-off overhead
# budgets from DESIGN.md §10/§12).
set -eu

out=${1:-BENCH_10.json}
bindir=${2:-build}

for bin in bench_async_throughput bench_agg_scale bench_wire_codec \
    bench_ckpt bench_population_scale bench_telemetry_overhead; do
  if [ ! -x "$bindir/$bin" ]; then
    echo "error: $bindir/$bin not built (cmake --build $bindir --target $bin)" >&2
    exit 1
  fi
done

tmp_async=$(mktemp)
tmp_agg=$(mktemp)
tmp_wire=$(mktemp)
tmp_ckpt=$(mktemp)
tmp_pop=$(mktemp)
tmp_tel=$(mktemp)
trap 'rm -f "$tmp_async" "$tmp_agg" "$tmp_wire" "$tmp_ckpt" "$tmp_pop" "$tmp_tel"' EXIT

GLUEFL_BENCH_JSON="$tmp_async" "$bindir/bench_async_throughput" >/dev/null
GLUEFL_BENCH_JSON="$tmp_agg" "$bindir/bench_agg_scale" >/dev/null
GLUEFL_BENCH_JSON="$tmp_wire" "$bindir/bench_wire_codec" >/dev/null
GLUEFL_BENCH_JSON="$tmp_ckpt" "$bindir/bench_ckpt" >/dev/null
GLUEFL_BENCH_JSON="$tmp_pop" "$bindir/bench_population_scale" >/dev/null
GLUEFL_BENCH_JSON="$tmp_tel" "$bindir/bench_telemetry_overhead" >/dev/null

# The bench summaries are single-line JSON objects; compose without jq.
printf '{"schema": "gluefl.trajectory.v1", "async": %s, "agg_scale": %s, "wire_codec": %s, "ckpt": %s, "population_scale": %s, "telemetry_overhead": %s}\n' \
  "$(cat "$tmp_async")" "$(cat "$tmp_agg")" "$(cat "$tmp_wire")" \
  "$(cat "$tmp_ckpt")" "$(cat "$tmp_pop")" "$(cat "$tmp_tel")" > "$out"
echo "trajectory written to $out"
