#!/usr/bin/env bash
# Alternating A/B runs of the frozen benchmark: <parent> against the
# working tree, every run kept.
#
#   scripts/ab.sh <parent> [pairs] [workloads...]
#
# <parent>'s benchmark/ is built in a temporary `git worktree` with its own
# CARGO_TARGET_DIR; the working tree's benchmark/ builds into
# $CARGO_TARGET_DIR/ab (default ./target/ab). Then, [pairs] times (default
# 10), every workload (default: all six) runs once on each side, with the
# flags of one benchmark run (`--seed $SEED --seconds $SECS --trace $TRACE`;
# defaults 11, 10, 0; see benchmark/README.md). The side that goes first
# alternates from pair to pair. Every result line is appended to
# $OUT/parent.jsonl and $OUT/change.jsonl ($OUT defaults to a new
# directory under /tmp).
#
# Prints `bench compare parent.jsonl change.jsonl` (bounds from the working
# tree's BENCHMARK.json; with equal seeds it also checks the exact counts),
# then each side's min-max per workload and end-to-end metric. Exits with
# `bench compare`'s status. `scripts/ab.sh HEAD` on a clean tree is an A/A
# run: it shows a workload's own spread next to its bound.
#
# Also writes the trajectory file trajectory/BENCH_<short-sha>.json (one
# line of JSON), named after the working tree's commit (`-dirty` when
# tracked files differ from it, `-traced` for TRACE=1 runs): every run of
# both sides, each side's median and min-max per workload and metric, and
# the `bench compare` verdicts (`unresolved` included) with its other
# findings.
set -euo pipefail

parent=${1:?usage: scripts/ab.sh <parent> [pairs] [workloads...]}
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
workloads=${*:-cold-broadleaf cold-shopizer warm edit-one fleet-open fleet-closed}
seed=${SEED:-11}
secs=${SECS:-10}
trace=${TRACE:-0}
root=$(git rev-parse --show-toplevel)
out=${OUT:-$(mktemp -d /tmp/ab.XXXXXX)}
mkdir -p "$out"
work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/src" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/src" "$parent"

# build <source dir> <target dir>: the benchmark runner, release.
build() {
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$work/src" "$work/target"
change_target=$(realpath -m "${CARGO_TARGET_DIR:-$root/target}/ab")
build "$root" "$change_target"

# run <side> <runner> <workload>: one run, its result appended to the side's file.
run() {
    echo "pair $pair: $1 $3" >&2
    "$2" --workload "$3" --seed "$seed" --seconds "$secs" --trace "$trace" \
        --out "$out/$1.jsonl" >/dev/null || echo "pair $pair: $1 $3 exited non-zero" >&2
}
for pair in $(seq 1 "$pairs"); do
    for w in $workloads; do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$work/target/release/bench" "$w"
            run change "$change_target/release/bench" "$w"
        else
            run change "$change_target/release/bench" "$w"
            run parent "$work/target/release/bench" "$w"
        fi
    done
done

echo "runs kept in $out"
status=0
"$change_target/release/bench" compare "$out/parent.jsonl" "$out/change.jsonl" |
    tee "$out/compare.txt" || status=$?
echo
printf '%-7s %-15s %-15s %12s %12s %4s\n' side workload metric min max runs
for side in parent change; do
    jq -rs --arg side "$side" '
        group_by(.workload)[] as $g
        | ("wall_ms_p50", "verdicts_per_s", "peak_rss_mb", "setup_s") as $m
        | [$g[].result.metrics[$m].value | numbers] as $xs
        | select($xs | length > 0)
        | [$side, $g[0].workload, $m, ($xs | min), ($xs | max), ($xs | length)]
        | @tsv' "$out/$side.jsonl" |
        while IFS=$'\t' read -r s w m lo hi n; do
            printf '%-7s %-15s %-15s %12.3f %12.3f %4d\n' "$s" "$w" "$m" "$lo" "$hi" "$n"
        done
done

# The trajectory file. `bench compare` rows are `workload metric A B worse
# bound verdict…`; its other lines (failed runs, count checks) are notes.
sha=$(git -C "$root" rev-parse --short HEAD)
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    sha="$sha-dirty"
fi
[ "$trace" = 0 ] || sha="$sha-traced"
mkdir -p "$root/trajectory"
trajectory="$root/trajectory/BENCH_$sha.json"
jq -cn \
    --arg parent "$(git -C "$root" rev-parse --short "$parent")" --arg change "$sha" \
    --argjson pairs "$pairs" --argjson seed "$seed" --argjson seconds "$secs" \
    --argjson trace "$trace" --arg workloads "$workloads" --argjson status "$status" \
    --slurpfile a "$out/parent.jsonl" --slurpfile b "$out/change.jsonl" \
    --rawfile compare "$out/compare.txt" '
    def median: sort | length as $n
        | if $n == 0 then null elif $n % 2 == 1 then .[($n - 1) / 2]
          else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
    def sides($runs): $runs | group_by(.workload) | map({
        key: .[0].workload,
        value: ([.[].result.metrics | to_entries[]] | group_by(.key) | map({
            key: .[0].key,
            value: ([.[].value.value | numbers] as $xs
                | {median: ($xs | median), min: ($xs | min), max: ($xs | max), runs: ($xs | length)})
        }) | from_entries)
    }) | from_entries;
    ($compare | split("\n") | map(select(length > 0))) as $lines
    | {
        parent: $parent, change: $change, pairs: $pairs, seed: $seed,
        seconds: $seconds, trace: $trace, workloads: ($workloads | split(" ")),
        summary: {parent: sides($a), change: sides($b)},
        compare: {
            status: $status,
            verdicts: [$lines[1:][] | capture("^(?<workload>\\S+)\\s+(?<metric>\\S+)\\s+(?<parent_median>\\S+)\\s+(?<change_median>\\S+)\\s+(?<worse_pct>\\S+)%\\s+(?<bound_pct>\\S+)%\\s+(?<verdict>.+)$")
                | .parent_median |= tonumber | .change_median |= tonumber
                | .worse_pct |= tonumber | .bound_pct |= tonumber],
            notes: [$lines[1:][] | select(test("^\\S+\\s+\\S+\\s+\\S+\\s+\\S+\\s+\\S+%\\s+\\S+%\\s") | not)]
        },
        runs: {parent: $a, change: $b}
    }' >"$trajectory"
echo "trajectory: $trajectory"
exit $status
