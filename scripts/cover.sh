#!/bin/sh
# Per-package coverage gate for the guarantee-bearing packages (`make
# cover`). Floors sit a few points under the measured values recorded in
# DESIGN.md §8, so genuine regressions trip the gate while refactors have
# headroom. Raise a floor when a package's coverage durably improves.
set -eu

cd "$(dirname "$0")/.."

# package floor%
floors='
internal/core 95
internal/conform 90
internal/model 90
internal/numkernel 95
internal/sim 90
internal/solver/alm 90
internal/solver/fista 95
internal/solver/par 95
internal/solver/shard 90
internal/solver/shardrpc 80
internal/solver/simplex 90
internal/solver/smooth 95
internal/solver/transport 95
internal/serve 86
internal/route 75
internal/loadgen 75
internal/telemetry 90
'

status=0
echo "$floors" | while read -r pkg floor; do
    [ -z "$pkg" ] && continue
    line="$(go test -cover "./$pkg/" | tail -1)"
    pct="$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"
    if [ -z "$pct" ]; then
        echo "FAIL  $pkg: no coverage figure in: $line"
        exit 1
    fi
    ok="$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')"
    if [ "$ok" = 1 ]; then
        echo "ok    $pkg: ${pct}% >= ${floor}%"
    else
        echo "FAIL  $pkg: ${pct}% < floor ${floor}%"
        exit 1
    fi
done || status=1

exit $status
