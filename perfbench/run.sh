#!/usr/bin/env bash
# Builds coopserve and the benchmark runner from the checkout in the current
# directory, then runs one workload:
#
#   bash perfbench/run.sh --workload serve-hot-b1 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included). The layer arms are built only for
# traced runs (--trace 1).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off

trace=0
prev=
for a in "$@"; do
	case "$prev" in --trace | -trace) trace=$a ;; esac
	case "$a" in --trace=* | -trace=*) trace=${a#*=} ;; esac
	prev=$a
done

go build -o "$out/bin/coopserve" ./cmd/coopserve
(cd perfbench && go build -o "$out/bin/bench" ./cmd/bench)
if [ "$trace" = 1 ]; then
	(cd perfbench && go build -o "$out/bin/layers" ./cmd/layers)
fi
exec "$out/bin/bench" -root "$root" -bin "$out/bin" "$@"
