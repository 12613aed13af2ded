#!/usr/bin/env bash
# Tier-1 verification, in stages:
#   1. docs lint: every bench binary has an EXPERIMENTS.md and a
#      docs/BENCHMARKS.md section, every registered metric and trace stage
#      an entry in docs/OBSERVABILITY.md;
#   2. default build, ctest, and bench_pm / bench_alloc / bench_sim smoke
#      runs (the PM-layer, allocator and simulator-host-path microbenches
#      must keep building and running);
#   3. bench_openloop, bench_slicer and bench_repl smokes, each run twice
#      and compared bytewise (determinism);
#   4. admin plane armed but unscraped: byte-identical to the baseline;
#   5. admin plane scraped at 500 Hz: under 1% of p99;
#   6. flight-recorder crash sweep: no acked record lost, no phantom,
#      byte-identical reruns;
#   7. ASan+UBSan build (-DPAPM_SANITIZE=ON) + ctest;
#   8. exhaustive crash-point sweep under ASan+UBSan.
# Every feature is compiled into both builds and switched at runtime.
# Prints each stage's elapsed wall-clock seconds and the total.
# Run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

t_start=$SECONDS
t_stage=$SECONDS
stage_name=""
end_stage() {
  if [ -n "$stage_name" ]; then
    echo "-- tier-1 time: $stage_name: $((SECONDS - t_stage)) s"
  fi
}
stage() {
  end_stage
  stage_name="$1"
  t_stage=$SECONDS
  echo "== tier-1: $1 =="
}

stage "docs lint"
scripts/check_docs.sh

stage "default build"
cmake --preset default >/dev/null
cmake --build build -j

stage "default ctest"
ctest --test-dir build --output-on-failure -j

stage "PM microbench smoke"
# This Google Benchmark build takes min_time as bare seconds ("0.01").
build/bench/bench_pm --benchmark_min_time=0.01
build/bench/bench_alloc --benchmark_min_time=0.01

stage "sim microbench smoke"
build/bench/bench_sim --benchmark_min_time=0.01

stage "open-loop smoke + determinism (byte-identical reruns)"
build/bench/bench_openloop --conns 1000 --seconds 1 --json build/openloop_a.json
build/bench/bench_openloop --conns 1000 --seconds 1 --json build/openloop_b.json
cmp build/openloop_a.json build/openloop_b.json
echo "bench_openloop: reruns byte-identical"

stage "slicer smoke + determinism (byte-identical reruns)"
build/bench/bench_slicer --quick --json build/slicer_a.json
build/bench/bench_slicer --quick --json build/slicer_b.json
cmp build/slicer_a.json build/slicer_b.json
echo "bench_slicer: reruns byte-identical"

stage "repl smoke + determinism (byte-identical reruns)"
build/bench/bench_repl --quick --json build/repl_a.json
build/bench/bench_repl --quick --json build/repl_b.json
cmp build/repl_a.json build/repl_b.json
echo "bench_repl: reruns byte-identical (and zero acked writes lost)"

stage "admin plane armed-but-unscraped is free (byte-identity)"
# An --admin run must be bit-identical to the baseline: the endpoint
# branch only runs for admin targets, so arming the plane costs zero
# simulated time. Only the recorded flag itself may differ.
build/bench/bench_openloop --conns 1000 --seconds 1 --admin --json build/openloop_admin.json
sed 's/"admin": 1/"admin": 0/' build/openloop_admin.json | cmp - build/openloop_a.json
echo "bench_openloop: --admin run bit-identical to baseline"

stage "admin overhead budget (<1% of p99, scraped at 500 Hz)"
build/bench/bench_openloop --admin-overhead --seconds 0.1
echo "bench_openloop: admin overhead within budget"

stage "flight-recorder crash sweep (acked prefix, no phantoms)"
build/bench/bench_recovery --flightrec --json build/flightrec_a.json
build/bench/bench_recovery --flightrec --json build/flightrec_b.json
cmp build/flightrec_a.json build/flightrec_b.json
echo "bench_recovery: flightrec sweep clean and byte-identical"

stage "ASan+UBSan build"
cmake --preset asan >/dev/null
cmake --build build-asan -j

stage "ASan+UBSan ctest"
ctest --test-dir build-asan --output-on-failure -j

stage "exhaustive crash-point sweep (ASan+UBSan)"
PAPM_CRASH_EXHAUSTIVE=1 \
  ctest --test-dir build-asan -R test_crash_recovery --output-on-failure

end_stage
echo "== tier-1: OK (total $((SECONDS - t_start)) s) =="
