#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# with the given arguments. Run from anywhere; every build artefact, cache
# and output file stays under .bench_build/perfbench at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
