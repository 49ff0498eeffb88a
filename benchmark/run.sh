#!/usr/bin/env bash
# Build the benchmark, run all six workloads end to end (untraced), then
# the traced pass for the per-layer numbers, and print both tables.
#
#   benchmark/run.sh                 full run, 10 s per run (~4 min)
#   benchmark/run.sh --smoke         1 s per run, one set-up, every check
#                                    on (for CI, ~1 min)
#   SEED=12 benchmark/run.sh         another seed (default 11)
#
# Results: benchmark/out/results.jsonl (one line per run; feed two of
# these to `bench compare`), benchmark/out/trace-<workload>.jsonl (spans).
# Exits non-zero if any analysis failed its golden or known-answer check.
set -u
cd "$(dirname "$0")"

seconds=10
setups=3
if [ "${1:-}" = "--smoke" ]; then
  seconds=1
  setups=1
fi
seed="${SEED:-11}"
workloads="cold-broadleaf cold-shopizer warm edit-one fleet-open fleet-closed"

cargo build --release --offline --quiet || exit 2
bench="${CARGO_TARGET_DIR:-target}/release/bench"
BENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_REV

mkdir -p out
results=out/results.jsonl
rm -f "$results"
status=0
for trace in 0 1; do
  for w in $workloads; do
    "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" --setups "$setups" --out "$results" >/dev/null || status=1
  done
done
"$bench" table "$results" || status=1
exit $status
