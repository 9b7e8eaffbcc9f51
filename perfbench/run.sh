#!/usr/bin/env bash
# Builds the request-path benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#   bash perfbench/run.sh --workload file_hot --seed 1 --seconds 15 --trace 0
# The build goes to .bench_build; build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib/server ] || [ ! -d lib/cluster ]; then
  echo "perfbench: $root is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/perfbench.exe 1>&2
exec ./.bench_build/default/perfbench/perfbench.exe "$@"
