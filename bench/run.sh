#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the build writes (go build cache, the
# binary) lands under .bench_build/, so nothing outside the checkout is
# touched; a warm rebuild is a cache hit and costs about a second.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
(cd "$root/bench" && go build -o "$build/servebench" .)
cd "$root"
exec "$build/servebench" "$@"
