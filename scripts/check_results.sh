#!/usr/bin/env bash
# Regenerates every checked-in result that results/MANIFEST lists with a
# command, and fails on any byte change outside the columns the manifest
# marks as timings, on a command that exits nonzero, or on a CSV in
# results/ that the manifest does not list. Each `===== <binary> =====`
# block of results/all_experiments.txt must also be that binary's stdout
# from the same run, byte for byte outside its timing lines (a line with a
# number followed by ns, us, µs, ms or s).
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

# Replaces each timing line on stdin by `*`.
mask_timing() { sed -E 's/.*[0-9] ?(ns|us|µs|ms|s)([^[:alnum:]_]|$).*/*/'; }

# Prints the body of block `$2` of the experiments log `$1`.
block() {
    awk -v header="===== $2 =====" '
        /^===== .* =====$/ { on = ($0 == header); next }
        on' "$1"
}

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
        stdout="$work/stdout.${command// /_}"
        # shellcheck disable=SC2086 # the command's arguments split on spaces
        if ! (cd "$work" && env -u CARGO_MANIFEST_DIR "$bin_dir"/$command >"$stdout" 2>"$work/log"); then
            echo "FAIL: \`$command\` exited nonzero:"
            tail -20 "$stdout" "$work/log"
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
log="$root/results/all_experiments.txt"
while read -r binary; do
    if [[ -z "${ran[$binary]:-}" ]]; then
        echo "FAIL: all_experiments.txt block $binary is no command in results/MANIFEST"
        status=1
    elif ! diff -u --label "all_experiments.txt: $binary" --label "regenerated" \
        <(block "$log" "$binary" | mask_timing) <(mask_timing <"$work/stdout.$binary"); then
        echo "DRIFT: the $binary block of results/all_experiments.txt differs from its stdout"
        status=1
    fi
done < <(sed -n 's/^===== \(.*\) =====$/\1/p' "$log")
[[ $status == 0 ]] && echo "results: every listed CSV and experiments-log block regenerates"
exit $status
