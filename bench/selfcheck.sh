#!/usr/bin/env bash
# Run the full workload set RUNS times (default 2) on this commit, each time
# with another seed, and print per workload x end-to-end metric the values,
# their spread and the bound from BENCHMARK.json. Fails when a spread
# exceeds its bound. With RUNS >= 4 the spread is the interquartile range
# over the median, the rule the benchmark is accepted by.
#
#   bash bench/selfcheck.sh            # seeds 1 and 2
#   RUNS=10 bash bench/selfcheck.sh    # seeds 1..10
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
runs="${RUNS:-2}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
mkdir -p .bench_build
files=()
for seed in $(seq 1 "$runs"); do
  out=".bench_build/selfcheck-$seed.json"
  bash "$here/run.sh" -workload all -seed "$seed" -seconds "$seconds" -out "$out" >".bench_build/selfcheck-$seed.log"
  files+=("$out")
done
bash "$here/run.sh" -summarize "${files[@]}"
