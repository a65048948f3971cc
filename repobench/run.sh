#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources (Release, into
# .bench_build/) and runs it:
#
#   bash repobench/run.sh --workload solve-batch --seed 1 --seconds 40 --trace 0
#   bash repobench/run.sh --workload all --seed 1 --seconds 40 --trace 1
#
# `all` runs solve-batch and serve-mix in turn and exits non-zero
# if any of them fails a check. Build output goes to stderr; for a single
# workload the last stdout line is the result JSON. Without the repository's
# sources next to repobench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/repobench"

if [[ ! -f "$build/Makefile" ]]; then
  cmake -S "$here" -B "$build" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target repobench -j "$(nproc)" >&2

# Attribution: the git SHA where there is one, and always a digest of src/
# (benchmark checkouts need not be git repositories).
sha="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
digest="$(cd "$root" && find src -type f -print0 | sort -z |
  xargs -0 sha256sum | sha256sum | cut -c1-16)"
run() {
  "$build/repobench" --out-dir "$root/.bench_build/out" --git-sha "$sha" \
    --source-digest "$digest" --benchmark-json "$root/BENCHMARK.json" \
    --layers-json "$here/LAYERS.json" "$@"
}

args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == "--workload" && "${args[i + 1]:-}" == "all" ]]; then
    status=0
    for w in solve-batch serve-mix; do
      args[i + 1]="$w"
      run "${args[@]}" || status=1
    done
    exit "$status"
  fi
done
run "$@"
