#!/usr/bin/env bash
# Builds the benchmark and tracetrackerd from this checkout's source into
# .bench_build, then runs one workload. Arguments pass through:
#
#   bash perfbench/run.sh --workload prxy-ftl --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporaries,
# telemetry) stays under .bench_build too.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOMODCACHE="$out/go/mod" GOPATH="$out/go/path"
export XDG_CONFIG_HOME="$out/go/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/tracetrackerd" repro/cmd/tracetrackerd >&2
cd "$root"
exec "$out/perfbench" --daemon-bin "$out/tracetrackerd" --workdir "$out" "$@"
