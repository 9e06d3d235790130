#!/bin/sh
# Print the exported API surface of the public radiomis facade — every
# exported constant, function, type, and method signature, one per line —
# in a stable order. CI diffs this against the committed API_baseline.txt
# and fails on any difference, so unintentional facade changes are caught;
# intentional changes regenerate the baseline:
#
#   scripts/apisurface.sh > API_baseline.txt
set -e
cd "$(dirname "$0")/.."
go doc -short radiomis
