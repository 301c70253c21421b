#!/bin/sh
# Build the benchmark from source, then run it with the given arguments
# from the repository root. See benchmark/README.md.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark: $root holds no dune-project and lib/: not a checkout of the repository" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
# The shared dune cache lives outside the checkout; keep the build inside.
DUNE_CACHE=disabled dune build --root . -j 2 ./benchmark/main.exe >&2
# One malloc arena: with glibc's per-thread arenas, which arena a new
# worker domain lands in is a matter of timing, and the peak RSS of
# identical fuzz runs ranged from 58 to 81 MB.
export MALLOC_ARENA_MAX=1
exec ./_build/default/benchmark/main.exe "$@"
