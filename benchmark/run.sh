#!/usr/bin/env bash
# Builds the benchmark driver from source into build-bench/ and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke] [--log FILE]
#
# With --workload it runs that one workload and the last line of stdout
# is the JSON result.  Without it, it runs every workload, each in its own
# process so that peak_rss_mb belongs to that workload, and exits nonzero
# if any check failed.  Every run writes build-bench/results/<W>.json and
# appends one line to the log (default build-bench/results/runs.jsonl),
# the input of benchmark/compare.py.  Build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"
results="$build/results"

workload=""
seed=1
seconds=20
trace=0
smoke=()
log="$results/runs.jsonl"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=(--smoke); shift ;;
    --log) log="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

{
  if [ ! -f "$build/Makefile" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target acic_benchmark -j 4
} >&2
mkdir -p "$results"

run() {
  "$build/acic_benchmark" --workload "$1" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" --out-dir "$results" \
    --log "$log" "${smoke[@]}"
}

if [ -n "$workload" ]; then
  run "$workload"
  exit
fi

status=0
for w in rmat16 uniform16 serve-static serve-churn; do
  echo "# $w"
  if ! run "$w"; then
    echo "run.sh: $w failed" >&2
    status=1
  fi
done
exit "$status"
