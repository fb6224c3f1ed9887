#!/usr/bin/env bash
# bench_pipeline.sh — runs the canonical pipeline benchmark configurations
# and aggregates their machine-readable reports into one
# BENCH_pipeline.json (schema gaurast-bench-pipeline/v7):
#
#   {"schema":"gaurast-bench-pipeline/v7","quick":<bool>,
#    "micro":      <gaurast-bench-micro/v1 report>,
#    "service":    <gaurast-bench-service/v1 report>,
#    "wire":       <gaurast-bench-service-wire/v1 report>,
#    "fleet":      <gaurast-bench-service-fleet/v1 report>,
#    "faults":     <gaurast-bench-service-faults/v1 report>,
#    "scene_store":<gaurast-bench-service-scenes/v1 report>}
#
# The canonical (non-quick) configuration is bench_micro's flag defaults
# (20000 Gaussians at 320x240, warmup 2, repeat 5 — the config the recorded
# perf trajectory tracks) plus one bench_service_throughput run per
# comparison, on the software backend with the fast kernel:
#
#   --compare workers  closed-loop service sweep over worker counts
#   --compare wire     in-process vs loopback TCP (net::Server/net::Client)
#                      on the canonical 20000-Gaussian 320x240 scene
#   --compare fleet    direct-to-shard vs routed through cluster::Router
#                      over 2 loopback shards (routed/direct throughput
#                      ratio, per-frame route overhead)
#   --compare faults   clean vs a seeded 1%-forward-error / 5%-10ms-delay
#                      plan, every request deadlined (faulted/clean ratio,
#                      faulted p99, deadline hit rate)
#   --compare scenes   unbounded vs a scene-store budget of half the
#                      catalogue's bytes (budgeted/unbounded ratio, hit
#                      rate, evictions, post-drain residency vs budget)
#
# Every two-sided comparison runs its sides as interleaved pass pairs.
# --quick shrinks everything to a small scene and a few jobs per pass, so
# CI can exercise the JSON paths and both kernels on every PR in seconds.
# It keeps the canonical pass counts: bench_micro's 5 repeats, so
# micro.raster_fast_speedup is a median the bench gate can hold to its
# floor, and the serving comparisons' warmup pass plus 3 measured passes,
# so no side is measured cold.
#
# Usage: tools/bench_pipeline.sh [--build-dir DIR] [--out FILE] [--quick]
set -euo pipefail

BUILD_DIR=build
OUT=BENCH_pipeline.json
QUICK=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR=${2:?--build-dir needs a value}; shift 2 ;;
    --out) OUT=${2:?--out needs a value}; shift 2 ;;
    --quick) QUICK=1; shift ;;
    -h|--help)
      # Print the header comment block (everything between the shebang and
      # the first non-comment line).
      awk 'NR > 1 { if (!/^#/) exit; sub(/^# ?/, ""); print }' "$0"
      exit 0 ;;
    *) echo "bench_pipeline.sh: unknown argument '$1'" >&2; exit 1 ;;
  esac
done

MICRO="$BUILD_DIR/bench/bench_micro"
SERVICE="$BUILD_DIR/bench/bench_service_throughput"
for bin in "$MICRO" "$SERVICE"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_pipeline.sh: missing $bin (build the tree first:" \
         "cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

MICRO_FLAGS=()
SERVICE_FLAGS=(--compare workers --backend sw --kernel fast)
WIRE_FLAGS=(--compare wire --backend sw --kernel fast)
FLEET_FLAGS=(--compare fleet --backend sw --kernel fast)
FAULTS_FLAGS=(--compare faults --backend sw --kernel fast)
SCENES_FLAGS=(--compare scenes --backend sw --kernel fast)
if [[ "$QUICK" == 1 ]]; then
  MICRO_FLAGS+=(--synthetic 4000 --width 160 --height 120 --warmup 1 --repeat 5)
  SERVICE_FLAGS+=(--jobs 6 --width 96 --height 72 --warmup 1 --repeat 3)
  WIRE_FLAGS+=(--jobs 4 --width 96 --height 72 --scene-size 2000
               --workers 1 --clients 2 --warmup 1 --repeat 3)
  FLEET_FLAGS+=(--jobs 4 --width 96 --height 72
                --workers 1 --clients 2 --warmup 1 --repeat 3)
  FAULTS_FLAGS+=(--jobs 4 --width 96 --height 72
                 --workers 1 --clients 2 --warmup 1 --repeat 3)
  SCENES_FLAGS+=(--jobs 8 --width 96 --height 72
                 --workers 1 --warmup 1 --repeat 3)
else
  # Canonical: bench_micro defaults; a fuller service sweep. The fleet
  # comparison keeps the default mixed scene sizes so the
  # rendezvous hash actually spreads load across both shards.
  SERVICE_FLAGS+=(--jobs 24 --warmup 1 --repeat 3)
  WIRE_FLAGS+=(--jobs 16 --width 320 --height 240 --scene-size 20000
               --workers 2 --clients 4 --warmup 1 --repeat 3)
  FLEET_FLAGS+=(--jobs 16 --width 320 --height 240
                --workers 2 --clients 4 --warmup 1 --repeat 3)
  # Same fleet shape as the routed comparison; the default deadline and
  # seeded fault plan come from the bench binary's flag defaults so the
  # tracked configuration lives in one place.
  FAULTS_FLAGS+=(--jobs 16 --width 320 --height 240
                 --workers 2 --clients 4 --warmup 1 --repeat 3)
  # Scene-store comparison: the widened scene-size mix and the budget (half
  # the catalogue's bytes) are fixed by the bench binary's scenes mode.
  SCENES_FLAGS+=(--jobs 24 --width 320 --height 240
                 --workers 2 --warmup 1 --repeat 3)
fi

# ${arr[@]+...} guards: expanding an empty array under `set -u` is an
# 'unbound variable' error on bash < 4.4 (macOS ships 3.2), and MICRO_FLAGS
# is empty exactly in canonical mode.
echo "== bench_micro ${MICRO_FLAGS[*]:-<canonical defaults>}"
"$MICRO" ${MICRO_FLAGS[@]+"${MICRO_FLAGS[@]}"} --json "$TMP/micro.json"
echo "== bench_service_throughput ${SERVICE_FLAGS[*]}"
"$SERVICE" "${SERVICE_FLAGS[@]}" --json "$TMP/service.json"
echo "== bench_service_throughput ${WIRE_FLAGS[*]}"
"$SERVICE" "${WIRE_FLAGS[@]}" --json "$TMP/wire.json"
echo "== bench_service_throughput ${FLEET_FLAGS[*]}"
"$SERVICE" "${FLEET_FLAGS[@]}" --json "$TMP/fleet.json"
echo "== bench_service_throughput ${FAULTS_FLAGS[*]}"
"$SERVICE" "${FAULTS_FLAGS[@]}" --json "$TMP/faults.json"
echo "== bench_service_throughput ${SCENES_FLAGS[*]}"
"$SERVICE" "${SCENES_FLAGS[@]}" --json "$TMP/scene_store.json"

{
  printf '{"schema":"gaurast-bench-pipeline/v7","quick":%s,"micro":' \
         "$([[ "$QUICK" == 1 ]] && echo true || echo false)"
  tr -d '\n' < "$TMP/micro.json"
  printf ',"service":'
  tr -d '\n' < "$TMP/service.json"
  printf ',"wire":'
  tr -d '\n' < "$TMP/wire.json"
  printf ',"fleet":'
  tr -d '\n' < "$TMP/fleet.json"
  printf ',"faults":'
  tr -d '\n' < "$TMP/faults.json"
  printf ',"scene_store":'
  tr -d '\n' < "$TMP/scene_store.json"
  printf '}\n'
} > "$OUT"

SPEEDUP=$(sed -n 's/.*"raster_fast_speedup":\([0-9.]*\).*/\1/p' "$OUT")
WIRE_REL=$(sed -n 's/.*"wire_relative_throughput":\([0-9.]*\).*/\1/p' "$OUT")
FLEET_REL=$(sed -n 's/.*"routed_relative_throughput":\([0-9.]*\).*/\1/p' "$OUT")
FAULT_REL=$(sed -n 's/.*"faulted_relative_throughput":\([0-9.]*\).*/\1/p' "$OUT")
STORE_REL=$(sed -n 's/.*"budgeted_relative_throughput":\([0-9.]*\).*/\1/p' "$OUT")
echo "Wrote $OUT (raster fast-vs-reference speedup: ${SPEEDUP:-n/a}x," \
     "wire-vs-in-process serve: ${WIRE_REL:-n/a}x," \
     "routed-vs-direct fleet: ${FLEET_REL:-n/a}x," \
     "faulted-vs-clean fleet: ${FAULT_REL:-n/a}x," \
     "budgeted-vs-unbounded scene store: ${STORE_REL:-n/a}x)"
