#!/usr/bin/env bash
# run.sh builds the benchmark from the sources of the checkout it sits
# in and runs it with every argument passed through. Run it from the
# checkout root:
#
#   bash bench/run.sh --workload fleet-idle --seed 42 --seconds 15 --trace 0
#   bash bench/run.sh -compare bench/out/a/runs.jsonl bench/out/b/runs.jsonl
#
# The binary, the Go build cache and everything else the toolchain
# writes stay inside the checkout, under $CARGO_TARGET_DIR when set and
# bench/out/build otherwise. No network is used: the benchmark module has
# no dependency beyond the repository module beside it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-$here/out/build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOMODCACHE=$build/gomodcache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$here" && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" "$@"
