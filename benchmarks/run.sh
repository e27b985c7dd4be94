#!/usr/bin/env bash
# Builds aeoperf from source into the checkout's .bench_build/ and runs it
# with the given arguments. The Go build cache and temp files are kept under
# .bench_build/ too, so a run reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off
(cd "$here" && go build -o "$build/aeoperf" ./aeoperf)
exec "$build/aeoperf" -out "$here/out" "$@"
