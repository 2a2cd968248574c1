#!/usr/bin/env bash
# Build lvmbench from source and run it, passing every argument through.
#
#   bash benchmark/run.sh --workload tpca-rlvm --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build goes to .bench_build/, with
# dune's shared cache off and the compiler's temporary files kept there
# too; its messages go to stderr, and stdout carries only lvmbench's
# output.
set -euo pipefail

export DUNE_CACHE=disabled
build="$PWD/.bench_build"
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --build-dir "$build/dune" --display quiet \
  ./benchmark/lvmbench.exe 1>&2
exec "$build/dune/default/benchmark/lvmbench.exe" "$@"
