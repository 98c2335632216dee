#!/usr/bin/env bash
# Builds the daemon and the benchmark from the source tree this script
# sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload serve-bursty --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/gapschedd" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/gapschedd here)" >&2
	exit 2
fi
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$build/bin/gapschedd" ./cmd/gapschedd
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -daemon "$build/bin/gapschedd" "$@"
