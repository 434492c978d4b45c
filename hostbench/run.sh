#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it. Run it from the
# repository root:
#
#   bash hostbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
#
# Build output, Go caches, result stores, CPU profiles and Perfetto traces
# all go under $CARGO_TARGET_DIR (default .bench_build), so the benchmark
# writes nothing outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/go/tmp"
export GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOPATH="$out/go/path" \
	GOMODCACHE="$out/go/mod" XDG_CONFIG_HOME="$out/go/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$out/bin/hostbench" .)
exec "$out/bin/hostbench" -out "$out" "$@"
