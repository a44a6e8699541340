#!/bin/sh
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes -- Go's build cache, module path
# and per-user configuration, and the binary -- goes to .bench_build at
# the root of the checkout; results go to benchmark/out.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
cd "$here"
env GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local go build -o "$build/dbtbench" .
exec "$build/dbtbench" "$@"
