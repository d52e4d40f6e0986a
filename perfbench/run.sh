#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload chase --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/
# (or $CARGO_TARGET_DIR when set) in the current directory: the Go
# build cache, temporary files, the binary, scratch run caches, spans
# and profiles.
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out=$CARGO_TARGET_DIR ;; esac
mkdir -p "$out/go-cache" "$out/go-mod" "$out/go-path" "$out/tmp" "$out/config" "$out/perfbench"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off

# Build with ulmtsim's profile-guided-optimization profile when the
# checkout has one, so the simulator is measured as ulmtsim ships it.
pgo=off
if [ -f "$root/cmd/ulmtsim/default.pgo" ]; then
	pgo="$root/cmd/ulmtsim/default.pgo"
fi
go -C "$root/perfbench" build -pgo="$pgo" -o "$out/perfbench/perfbench" .

exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
