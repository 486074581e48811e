#!/bin/sh
# Prints the workspace's two line counts:
#
#   1. `wc -l` over every `.rs` file under crates/ src/ tests/ examples/;
#   2. per crate, the non-test lines: for each `.rs` file under the
#      crate's `src/`, the lines before its first column-0 `#[cfg(test)]`
#      (the whole file when it has none), summed over the crate.
#
# Usage: scripts/loc.sh   (from any directory; it reads the repo it sits in)

set -eu
cd "$(dirname "$0")/.."

total=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
echo "workspace .rs lines (crates/ src/ tests/ examples/): $total"

non_test() {
    find "$1" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
        awk '{ s += $1 } END { print s + 0 }'
}

echo "non-test lines (src/ lines before the first #[cfg(test)]):"
printf '  %-10s %6d\n' realm "$(non_test src)"
for dir in crates/*/; do
    crate=$(basename "$dir")
    printf '  %-10s %6d\n' "$crate" "$(non_test "$dir/src")"
done
