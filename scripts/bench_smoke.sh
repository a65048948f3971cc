#!/usr/bin/env bash
# Release-mode bench smoke: run every bench binary for a few iterations so a
# perf-path crash (OOB table index, allocation blow-up, divergent loop) fails
# CI instead of the next person's perf run. Also runs the solver examples and
# exercises the shared --json reporting.
# Usage: scripts/bench_smoke.sh <build-dir> [out-dir]
set -euo pipefail

build_dir=${1:?usage: bench_smoke.sh <build-dir> [out-dir]}
out_dir=${2:-"$build_dir/bench-json"}
mkdir -p "$out_dir"

runs=2
threads=2

run() {
  echo "--- $* ---"
  "$@" > /dev/null
}

run "$build_dir/bench_table1_success_rate" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_fig8_solution_distribution" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_fig9_distinct_solutions" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_fig10_time_to_solution" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_scaling" $runs --threads $threads --json "$out_dir/"
run "$build_dir/bench_tiled_scaling" 1 --threads $threads --json "$out_dir/"
run "$build_dir/bench_service_throughput" 6 --threads $threads --json "$out_dir/"
run "$build_dir/bench_serve_throughput" 3 --threads $threads --json "$out_dir/"
run "$build_dir/bench_store" 8 --json "$out_dir/"
run "$build_dir/bench_fig2_fefet_idvg"
run "$build_dir/bench_fig5_wta_cell"
run "$build_dir/bench_fig7a_crossbar_linearity"
run "$build_dir/bench_fig7b_wta_corners"
run "$build_dir/bench_ablation_quantization" $runs
run "$build_dir/bench_ablation_variability" $runs
run "$build_dir/bench_ablation_faults" $runs
run "$build_dir/bench_ablation_mlc" $runs
run "$build_dir/bench_ablation_squbo" $runs
run "$build_dir/quickstart" --threads $threads
run "$build_dir/mixed_strategy_hunt" --threads $threads
run "$build_dir/repeated_pd_tournament" --threads $threads
if [ -x "$build_dir/bench_micro_vmv" ]; then
  run "$build_dir/bench_micro_vmv" --benchmark_min_time=0.01 --json "$out_dir/"
fi

echo "bench smoke OK; JSON reports in $out_dir:"
ls "$out_dir"
