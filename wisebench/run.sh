#!/usr/bin/env bash
# Builds the wisebench executable from the checkout this script lives in
# and runs it from the checkout's root with the given arguments, e.g.
#
#   bash wisebench/run.sh --workload registry --seed 1 --seconds 15 --trace 0
#
# See wisebench/README.md for the workloads, metrics and other modes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# no shared dune cache: the build writes only under _build/
DUNE_CACHE=disabled dune build --root . --display quiet ./wisebench/wisebench.exe >&2
exec ./_build/default/wisebench/wisebench.exe "$@"
