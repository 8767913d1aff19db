#!/usr/bin/env bash
# A/B run of the repository benchmark between two revisions. PARENT and
# CHANGE are checked out into two temporary git worktrees, and
# `bash bench/run.sh --workload W --seed S --seconds N` runs in each, one
# run per side per pair, for K pairs; the side that goes first alternates
# from pair to pair. Each run prints its value of every end-to-end metric
# of BENCHMARK.json as it finishes, so both sides of every pair are on
# screen. It then prints, for every end-to-end metric, both sides' medians, the parent's interquartile range,
# and in how many pairs the change was better, and says whether the
# deterministic metrics (cost_per_slot, certified_ratio) matched bit for
# bit in every pair. Runs that report `correct false` or failed operations
# are counted. Nothing is fetched and nothing under bench/ is touched: each
# worktree builds its own benchmark binary under its own .bench_build/.
#
#   scripts/bench_ab.sh [--workload W] [--seed S] [--seconds N] [--pairs K] PARENT [CHANGE]
#   make bench-ab PARENT=<rev> [CHANGE=<rev>] [WORKLOAD=W] [SEED=S] [RUN_SECONDS=N] [PAIRS=K]
#
# Defaults: rome_exact, seed 1, 16 s, 10 pairs, CHANGE = HEAD. Ten pairs is
# the least a claimed gain is judged on: the change must win at least nine
# of ten, and its median must beat the parent's by more than the parent's
# interquartile range. Uncommitted work is not in any worktree: commit it
# (or pass a stash's revision) first. Keep the machine otherwise idle while
# it runs.
set -euo pipefail

workload=rome_exact seed=1 secs=16 pairs=10
while [ $# -gt 0 ]; do
    case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) secs="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    -*) echo "bench_ab: unknown flag $1" >&2; exit 2 ;;
    *) break ;;
    esac
done
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 [--workload W] [--seed S] [--seconds N] [--pairs K] PARENT [CHANGE]" >&2
    exit 2
fi
parent_rev="$1" change_rev="${2:-HEAD}"

cd "$(dirname "$0")/.."
git rev-parse --verify -q "$parent_rev^{commit}" >/dev/null || { echo "bench_ab: no revision $parent_rev" >&2; exit 2; }
git rev-parse --verify -q "$change_rev^{commit}" >/dev/null || { echo "bench_ab: no revision $change_rev" >&2; exit 2; }

tmp="$(mktemp -d)"
cleanup() {
    for side in parent change; do
        [ -d "$tmp/$side" ] && git worktree remove --force "$tmp/$side" 2>/dev/null
    done
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM
git worktree add -q --detach "$tmp/parent" "$parent_rev"
git worktree add -q --detach "$tmp/change" "$change_rev"

# run SIDE PAIR: one benchmark run, its last JSON line appended to SIDE.jsonl
# and its value of every end-to-end metric printed.
run() {
    local out
    out="$(cd "$tmp/$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$secs" 2>&1)" || {
        echo "$out" >&2
        echo "bench_ab: $1 run of pair $2 failed" >&2
        exit 1
    }
    grep '^{"correct"' <<<"$out" | tail -n 1 >>"$tmp/$1.jsonl" || {
        echo "bench_ab: $1 run of pair $2 printed no result line" >&2
        exit 1
    }
    local line name vals=""
    line="$(tail -n 1 "$tmp/$1.jsonl")"
    for name in $names; do vals="$vals $(printf '%14s' "$(value "$name" <<<"$line")")"; done
    printf '  %4d %-6s%s\n' "$2" "$1" "$vals"
}

# value METRIC: the metric's value in each JSON line on stdin, as printed.
value() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"; }

# The end-to-end metrics and which way is better, from BENCHMARK.json.
metrics="$(awk '/"end_to_end"/ { e = 1 }
    e && /"name"/ { gsub(/[",]/, "", $2); n = $2 }
    e && /"better"/ { gsub(/[",]/, "", $2); print n, $2 }
    e && /^[ \t]*\]/ { e = 0 }' "$tmp/change/BENCHMARK.json")"

names="$(cut -d ' ' -f 1 <<<"$metrics")"

echo "== $workload seed $seed, ${secs} s, $pairs pairs: parent $(git rev-parse --short "$parent_rev"), change $(git rev-parse --short "$change_rev")"
printf '  %4s %-6s' pair side
for name in $names; do printf ' %14s' "$name"; done
echo
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then run parent "$p"; run change "$p"; else run change "$p"; run parent "$p"; fi
done

echo
printf '%-18s %14s %14s %9s %12s %6s\n' metric parent change delta parent_IQR wins
while read -r name better; do
    paste -d ' ' <(value "$name" <"$tmp/parent.jsonl") <(value "$name" <"$tmp/change.jsonl") |
        awk -v name="$name" -v better="$better" '
        function q(a, n, f,   pos, lo) {
            pos = 1 + f * (n - 1); lo = int(pos)
            return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
        }
        function sort(a, n,   i, j, v) {
            for (i = 2; i <= n; i++) { v = a[i]; for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v }
        }
        NF == 2 {
            n++; pa[n] = $1 + 0; ch[n] = $2 + 0
            if (better == "lower" ? ch[n] < pa[n] : ch[n] > pa[n]) wins++
        }
        END {
            if (n == 0) exit
            sort(pa, n); sort(ch, n)
            mp = q(pa, n, 0.5); mc = q(ch, n, 0.5)
            printf "%-18s %14.6g %14.6g %+8.2f%% %12.4g %3d/%d\n", name, mp, mc,
                mp == 0 ? 0 : 100 * (mc - mp) / mp, q(pa, n, 0.75) - q(pa, n, 0.25), wins, n
        }'
done <<<"$metrics"

echo
for name in cost_per_slot certified_ratio; do
    if diff -q <(value "$name" <"$tmp/parent.jsonl") <(value "$name" <"$tmp/change.jsonl") >/dev/null &&
        [ "$(value "$name" <"$tmp/parent.jsonl" | sort -u | wc -l)" -eq 1 ]; then
        echo "$name bit-identical in every pair: $(value "$name" <"$tmp/parent.jsonl" | head -n 1)"
    else
        echo "$name DIFFERS: parent $(value "$name" <"$tmp/parent.jsonl" | sort -u | tr '\n' ' ')/ change $(value "$name" <"$tmp/change.jsonl" | sort -u | tr '\n' ' ')"
    fi
done
for side in parent change; do
    bad="$(grep -c -v '"correct":true,"attempted":[0-9]*,"failed":0,' "$tmp/$side.jsonl" || true)"
    echo "$side runs with correct false or failed operations: $bad of $pairs"
done
