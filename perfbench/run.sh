#!/usr/bin/env bash
# Builds the repository benchmark from the source in this checkout and
# runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload sim-regmutex --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, the compiler's temporary files and
# Go's own config/telemetry files all stay under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/sim" ]; then
	echo "perfbench: $root holds no regmutex source tree to measure" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
