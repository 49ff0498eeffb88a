#!/usr/bin/env bash
# Non-test lines of code per crate and in total, over crates/*/src.
#
#   scripts/loc.sh
#
# A line counts when it is non-blank, does not start with `//` (comments
# and doc comments), and comes before the file's first `#[cfg(test)]`.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
