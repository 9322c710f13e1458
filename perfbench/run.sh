#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload kv-hot --seed 1 --seconds 30 --trace 0
#
# The benchmark is a Go module of its own that uses the repository's labstor
# module through a replace directive, so it must run inside a full checkout.
# Every build artefact (binary, Go build cache, temp files, trace output)
# stays under .bench_build/ at the repository root. The benchmark's own
# tests (determinism, payload model) run with: cd perfbench && go test .
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
