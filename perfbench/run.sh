#!/usr/bin/env bash
# Builds perfbench from the simulator sources in this checkout and runs
# it with the given arguments.  Every file the Go toolchain writes stays
# under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" ]]; then
	echo "perfbench: no simulator sources in $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Keep the go command from starting its telemetry upload process.
if [[ ! -f "$out/config/go/telemetry/mode" ]]; then
	go telemetry off
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
