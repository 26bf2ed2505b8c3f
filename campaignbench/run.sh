#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout that
# holds this script, then runs it with the given arguments, e.g.
#
#   bash campaignbench/run.sh --workload table2 --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write lands in .bench_build/ at the
# checkout root: the Go build cache, the binary and the scratch stores.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/experiment" ]]; then
	echo "campaignbench: $root holds no robotack sources to build" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root/campaignbench" && go build -trimpath -buildvcs=false -o "$build/campaignbench" .)
exec "$build/campaignbench" -root "$root" -work "$build/work" "$@"
