#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-gnp-scalar --seed 1 --seconds 28 --trace 0
#
# The Go build cache, module cache and toolchain config all live under
# .bench_build/, so a build writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
