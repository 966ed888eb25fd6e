#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash perfbench/run.sh --list
# Build output goes to stderr so the result stays the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "perfbench: dune is not installed" >&2
  exit 3
fi
"${dune[@]}" build --root . --cache=disabled ./perfbench/bin/perfbench.exe 1>&2
exec ./_build/default/perfbench/bin/perfbench.exe "$@"
