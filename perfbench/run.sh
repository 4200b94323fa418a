#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ssb-exec --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) of the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" == /* ]] || out="$(pwd)/$out"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
