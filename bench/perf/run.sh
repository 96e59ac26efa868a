#!/bin/sh
# Build the benchmark from source and run it. Every argument goes to
# perf.exe, e.g.
#   sh bench/perf/run.sh --workload fork_cow --seed 3 --seconds 4 --trace 0
# Works from any directory; builds in the checkout's _build.
set -e
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --display quiet bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
