#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every flag
# is passed through (see perfbench/WORKLOADS.md). Everything the build and
# the run leave behind stays under .bench_build/ in the current directory,
# which must be the repository root.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -out "$out" "$@"
