#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload attack --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (binary, Go build cache, Go config,
# temporary files) stays under .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Telemetry off: otherwise the go command may leave a child process behind.
go telemetry off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
