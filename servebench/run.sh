#!/usr/bin/env bash
# Builds rups-serve and the servebench program from this source tree, then
# runs one benchmark run. Run it from the repository root:
#
#   bash servebench/run.sh --workload fleet-cold --seed 1 --seconds 26 --trace 0
#
# Build output, the Go build cache and every temporary file stay under
# .bench_build/servebench in the tree.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/rups-serve || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the root of the rups source tree" >&2
	exit 2
fi

out=$PWD/.bench_build/servebench
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/rups-serve" ./cmd/rups-serve
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -server "$out/rups-serve" -state "$out/results" "$@"
