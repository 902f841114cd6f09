#!/usr/bin/env bash
# Builds the dvfsd benchmark from source and runs one workload.
#
#   bash dvfsbench/run.sh --workload cold-gpt3 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, span dumps) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -buildvcs=false -o "$out/dvfsbench" .)

commit=unknown
if [ -e "$root/.git" ] && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
exec "$out/dvfsbench" --commit "$commit" --spans "$out" "$@"
