#!/usr/bin/env bash
# Build the server and the benchmark from this checkout, then run one
# workload:
#   bash perfbench/run.sh --workload serve-point --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/lfdict.ml ] || [ ! -d lib ]; then
  echo "perfbench: not a checkout of the repository (no dune-project, bin/ or lib/)" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet \
  ./bin/lfdict.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
