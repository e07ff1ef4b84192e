#!/usr/bin/env bash
# One-command wrapper around the harness, for people and for CI.
#
#   benchmark/run.sh                  smoke sizes, all workloads, all checks (< 20 s after the build)
#   benchmark/run.sh run              the full benchmark, tracing off
#   benchmark/run.sh trace            the full benchmark plus the traced pass and per-layer metrics
#   benchmark/run.sh compare A B      check two result files against the bounds
#
# Exit code 0: every correctness check passed (compare: every metric within its bound).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then
    set -- run --smoke
fi
exec cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"
