#!/usr/bin/env bash
# Byte-identity gate for refactors: build <rev> and the working tree, run
# the fixed artifact set on both builds, and `cmp` each artifact.
#
#   scripts/identity.sh <rev>
#
# <rev> is built in a temporary `git worktree` with its own
# CARGO_TARGET_DIR; the working tree builds into $CARGO_TARGET_DIR (default
# ./target). Artifacts, per build:
#   * `reproduce table2 baseline` stdout at --threads 1 and 4;
#   * `--witness-out` at --threads 1 and 4;
#   * `--verdicts-out`;
#   * `--isolation <level> --anomaly-out` at every isolation level;
#   * the `--store` sequence cold (4 threads) -> warm (1 thread) ->
#     `--dirty Ship` (4 threads): each run's stdout and the store bytes
#     after it;
#   * `reproduce pruning` stdout (the Sec. IV path-condition counts).
# Prints one line per artifact and exits non-zero if any differs.
set -euo pipefail

rev=${1:?usage: scripts/identity.sh <rev>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/src" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/src" "$rev"

# build <source dir> <target dir>: the `reproduce` binary, release.
build() {
    CARGO_TARGET_DIR=$2 cargo build --release --quiet \
        --manifest-path "$1/Cargo.toml" -p weseer-bench --bin reproduce
}
build "$work/src" "$work/target"
# Absolute, since `artifacts` runs the binary from another directory.
change_target=$(realpath -m "${CARGO_TARGET_DIR:-$root/target}")
build "$root" "$change_target"

# artifacts <reproduce binary> <output dir>
artifacts() (
    bin=$1
    mkdir -p "$2"
    cd "$2"
    "$bin" table2 baseline --threads 1 > table2-t1.txt
    "$bin" table2 baseline --threads 4 > table2-t4.txt
    "$bin" --witness-out witness-t1.jsonl --threads 1 > /dev/null
    "$bin" --witness-out witness-t4.jsonl --threads 4 > /dev/null
    "$bin" --verdicts-out verdicts.ndjson > /dev/null
    for level in read-committed repeatable-read snapshot serializable; do
        "$bin" --isolation "$level" --anomaly-out "anomaly-$level.jsonl" > /dev/null
    done
    "$bin" table2 baseline --store s.store --threads 4 > store-cold.txt
    cp s.store store-cold.bin
    "$bin" table2 baseline --store s.store --threads 1 > store-warm.txt
    cp s.store store-warm.bin
    "$bin" table2 baseline --store s.store --dirty Ship --threads 4 > store-dirty.txt
    cp s.store store-dirty.bin
    "$bin" pruning > pruning.txt
)
artifacts "$work/target/release/reproduce" "$work/base"
artifacts "$change_target/release/reproduce" "$work/change"

status=0
for f in table2-t1.txt table2-t4.txt witness-t1.jsonl witness-t4.jsonl \
    verdicts.ndjson anomaly-read-committed.jsonl anomaly-repeatable-read.jsonl \
    anomaly-snapshot.jsonl anomaly-serializable.jsonl store-cold.txt \
    store-cold.bin store-warm.txt store-warm.bin store-dirty.txt store-dirty.bin \
    pruning.txt; do
    if cmp -s "$work/base/$f" "$work/change/$f"; then
        echo "same     $f"
    else
        echo "DIFFERS  $f"
        status=1
    fi
done
exit $status
