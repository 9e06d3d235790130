#!/bin/sh
# Print the non-test Go line count of the module: every .go file except
# tests, the perfbench benchmark module, and benchmark build output.
# Run from anywhere inside the repository:
#
#   scripts/loc.sh
set -e
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' | xargs cat | wc -l
