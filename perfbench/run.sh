#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload alexnet-roomy --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the repository root: the Go build cache, the go command's own
# counter files (XDG_CONFIG_HOME), the binary, and the result and span
# files. No network access is attempted (GOPROXY=off).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
