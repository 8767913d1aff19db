#!/usr/bin/env bash
# Mutation check: every seeded mutant under scripts/mutants/ must be killed
# by the tests its header names.
#
# A mutant is a patch that git apply reads, preceded by a header:
#
#   Mutant: what the patch breaks (free text, may wrap)
#   Package: the go test package pattern(s), e.g. ./internal/core
#   Run: the go test -run regexp naming the tests that must fail
#   Arch: amd64   (optional) the named tests only run on this GOARCH
#
# The tracked and untracked-but-not-ignored files of the working tree are
# copied once into a temporary directory; the working tree itself is never
# written. Each distinct Package/Run pair must first pass on that clean
# copy, so a test that is already red kills nothing. Then each patch is
# applied to the copy, its packages must still compile,
# `go test -count=1 -run <Run> <Package>` must fail, and the patch is
# reversed before the next one. A named test that fails on the clean copy,
# a patch that no longer applies, a mutant that does not compile and a
# mutant its tests survive each fail the run, which names them at the end.
# A mutant whose Arch: differs from `go env GOARCH` is skipped and said so:
# its tests skip themselves there (the golden digests are recorded on
# amd64), so it would read as a survivor.
#
# Usage: scripts/mutate.sh [patch ...]   (default: every scripts/mutants/*.patch)
set -uo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
if [ $# -eq 0 ]; then
	set -- scripts/mutants/*.patch
fi
goarch=$(go env GOARCH)

tree=$(mktemp -d "${TMPDIR:-/tmp}/edgealloc-mutate.XXXXXX")
trap 'rm -rf "$tree"' EXIT
git ls-files -z --cached --others --exclude-standard ':(exclude)bench' |
	tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$tree"

field() { sed -n "s/^$1: *//p" "$2" | head -n 1; }

failed=""
skipped=0
mutants=""
pairs=""
for patch in "$@"; do
	name=$(basename "$patch" .patch)
	pkgs=$(field Package "$patch")
	run=$(field Run "$patch")
	arch=$(field Arch "$patch")
	if [ -z "$pkgs" ] || [ -z "$run" ]; then
		echo "== $name: header lacks Package: or Run:"
		failed="$failed $name(header)"
		continue
	fi
	if [ -n "$arch" ] && [ "$arch" != "$goarch" ]; then
		echo "== $name: skipped (its tests run on $arch, this is $goarch)"
		skipped=$((skipped + 1))
		continue
	fi
	mutants="$mutants $patch"
	pair="$pkgs	$run"
	if ! printf '%s\n' "$pairs" | grep -Fxq -- "$pair"; then
		pairs="$pairs$pair"$'\n'
	fi
done

# The named tests must pass before any mutant is applied.
while IFS=$'\t' read -r pkgs run; do
	[ -n "$pkgs" ] || continue
	# shellcheck disable=SC2086 # pkgs may name several packages
	if ! (cd "$tree" && go test -count=1 -run "$run" $pkgs >"$tree/.clean.log" 2>&1); then
		echo "== clean copy: $run in $pkgs fails before any mutant"
		tail -n 20 "$tree/.clean.log"
		failed="$failed clean($run)"
	fi
done <<<"$pairs"
rm -f "$tree/.clean.log"
if [ -n "$failed" ]; then
	echo "mutate: failed:$failed"
	exit 1
fi

for patch in $mutants; do
	name=$(basename "$patch" .patch)
	abs=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
	pkgs=$(field Package "$patch")
	run=$(field Run "$patch")
	if ! (cd "$tree" && git apply "$abs"); then
		echo "== $name: patch no longer applies"
		failed="$failed $name(stale)"
		continue
	fi
	# shellcheck disable=SC2086 # pkgs may name several packages
	if ! (cd "$tree" && go test -count=1 -run '^$' $pkgs >/dev/null 2>&1); then
		echo "== $name: mutant does not compile"
		failed="$failed $name(build)"
	elif (cd "$tree" && go test -count=1 -run "$run" $pkgs >"$tree/.mutant.log" 2>&1); then
		echo "== $name: SURVIVED ($run in $pkgs)"
		failed="$failed $name"
	else
		echo "== $name: killed by $(grep -Eo -- '--- FAIL: [^ ]+' "$tree/.mutant.log" | head -n 3 | sed 's/--- FAIL: //' | paste -sd, -)"
	fi
	if ! (cd "$tree" && git apply -R "$abs"); then
		echo "mutate: cannot reverse $name; stopping"
		exit 1
	fi
done
rm -f "$tree/.mutant.log"

if [ -n "$failed" ]; then
	echo "mutate: failed:$failed"
	exit 1
fi
killed=$(($# - skipped))
if [ "$skipped" -gt 0 ]; then
	echo "mutate: all $killed mutants killed; $skipped skipped on $goarch"
else
	echo "mutate: all $killed mutants killed"
fi
