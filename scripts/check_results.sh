#!/usr/bin/env bash
# Regenerates every checked-in result that results/MANIFEST lists with a
# command, and fails on any byte change outside the columns the manifest
# marks as timings, on a command that exits nonzero, or on a CSV in
# results/ that the manifest does not list.
#
# Usage: scripts/check_results.sh [BIN_DIR]
#   BIN_DIR holds the experiment binaries (default target/release); build
#   them first with `cargo build --release -p mdrep-bench`.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin_dir=$(cd "${1:-$root/target/release}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Prints a CSV with the named columns (header names, comma-separated)
# replaced by `*` below the header.
mask() {
    awk -F, -v OFS=, -v cols="$2" '
        NR == 1 {
            n = split(cols, want, ",")
            for (i = 1; i <= NF; i++) for (j = 1; j <= n; j++) if ($i == want[j]) skip[i] = 1
        }
        NR > 1 { for (i in skip) $i = "*" }
        { print }' "$1"
}

trim() { sed 's/^[[:space:]]*//; s/[[:space:]]*$//' <<<"$1"; }

status=0
declare -A ran listed
while IFS='|' read -r csv command timing; do
    csv=$(trim "$csv")
    [[ -z "$csv" || "$csv" == \#* ]] && continue
    command=$(trim "$command")
    timing=$(trim "$timing")
    [[ "$timing" == - ]] && timing=""
    listed[$csv]=1
    [[ "$command" == recorded ]] && continue
    if [[ -z "${ran[$command]:-}" ]]; then
        ran[$command]=1
        start=$SECONDS
        # shellcheck disable=SC2086 # the command's arguments split on spaces
        if ! (cd "$work" && env -u CARGO_MANIFEST_DIR "$bin_dir"/$command >"$work/log" 2>&1); then
            echo "FAIL: \`$command\` exited nonzero:"
            tail -20 "$work/log"
            status=1
        fi
        echo "ran \`$command\` in $((SECONDS - start)) s"
    fi
    if [[ ! -f "$work/results/$csv" ]]; then
        echo "FAIL: \`$command\` did not write $csv"
        status=1
    elif ! diff -u --label "results/$csv" --label "regenerated" \
        <(mask "$root/results/$csv" "$timing") <(mask "$work/results/$csv" "$timing"); then
        echo "DRIFT: results/$csv differs from what \`$command\` writes"
        status=1
    fi
done <"$root/results/MANIFEST"

for path in "$root"/results/*.csv; do
    csv=$(basename "$path")
    if [[ -z "${listed[$csv]:-}" ]]; then
        echo "FAIL: results/$csv is not listed in results/MANIFEST"
        status=1
    fi
done
[[ $status == 0 ]] && echo "results: every listed CSV regenerates"
exit $status
