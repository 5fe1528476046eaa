#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload fig8 --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, result caches, profiles) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 1
fi

args=()
while [[ $# -gt 0 ]]; do
	case "$1" in
	--workload | --seed | --seconds | --trace)
		[[ $# -ge 2 ]] || { echo "perfbench: $1 needs a value" >&2; exit 2; }
		args+=("-${1#--}" "$2")
		shift 2
		;;
	*)
		echo "perfbench: unknown argument $1" >&2
		exit 2
		;;
	esac
done

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "${args[@]}" -refs "$root/perfbench/refs" -workdir "$build/work"
