#!/usr/bin/env bash
# Builds SoftWatt's benchmark from the sources of the checkout it is run in
# and runs it. Run from the root of the checkout:
#
#   bash swbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/swbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/swbench" .)
rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
exec "$out/swbench" -dir "$here" -build "$out" -rev "$rev" "$@"
