#!/usr/bin/env bash
# Byte-identity oracle for host-side changes: runs the simulated benches
# from two build trees and diffs their outputs. Simulated time is a pure
# function of the code's cost charges, so a change that only makes the
# host faster must reproduce every record byte for byte.
#
#   scripts/bench_identity.sh <parent-build> <change-build>
#
# Each argument is a CMake build tree of this repository (the directory
# holding bench/). Benches with a --json record are compared on that
# record with its git_sha field removed; the others on their stdout, with
# the output paths they echo normalised. A run whose arguments name a
# trace file (@TRACE@) has that file compared too. The flagged runs cover
# the harness's optional branches: replication inside run_experiment,
# span tracing and attribution, the metrics sections, the admin scrape
# probe, the rebalancer, and software checksums on the zero-copy GET
# path (openloop-nocsum: heads and frags of any length, summed in
# software on both hosts). bench_tcp covers TCP itself under loss and
# reorder, the only run here that loses packets. The three recovery runs drive PChain,
# PSkipList, PmMemtable and the WAL outside any server; --crashpoints
# prints the flush/fence index each cut landed at, so any change in the
# persistence event sequence shows. Prints one line per run and exits
# non-zero if any output differs or any bench fails. Its 23 runs take
# about 18 s per build tree on a 4-core machine.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
parent=$1
change=$2
for b in "$parent" "$change"; do
  if [ ! -x "$b/bench/bench_table1" ]; then
    echo "$0: $b/bench/bench_table1 not found (build the tree first)" >&2
    exit 2
  fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# name | binary | arguments | compared output ("json" or "stdout")
runs=(
  "table1|bench_table1||json"
  "fig2|bench_fig2||json"
  "pktstore|bench_pktstore||json"
  "scaling|bench_scaling|--quick|json"
  "slicer|bench_slicer|--quick|json"
  "repl|bench_repl|--quick|json"
  "recovery|bench_recovery|--flightrec|json"
  "openloop|bench_openloop|--conns 1000 --seconds 1|json"
  "mica|bench_mica||stdout"
  "ablations|bench_ablations||stdout"
  "homa|bench_homa||stdout"
  "transport|bench_transport||stdout"
  "tcp|bench_tcp||stdout"
  "table1-flags|bench_table1|--repl --check-attribution --metrics --trace @TRACE@|stdout"
  "fig2-metrics|bench_fig2|--metrics|stdout"
  "openloop-admin|bench_openloop|--conns 1000 --seconds 1 --admin-overhead|stdout"
  "openloop-rebalance|bench_openloop|--conns 1000 --seconds 1 --rebalance --metrics|stdout"
  "openloop-nocsum|bench_openloop|--conns 1000 --seconds 1 --no-csum-offload --metrics|stdout"
  "scaling-rebalance|bench_scaling|--quick --rebalance|json"
  "repl-trace|bench_repl|--quick --trace @TRACE@|stdout"
  "recovery-a3|bench_recovery||stdout"
  "recovery-unshadowed|bench_recovery|--shadow-index off|stdout"
  "recovery-crashpoints|bench_recovery|--crashpoints|stdout"
)

# run <build> <side> <name> <binary> <args> <kind>: leaves the compared
# output in $out/<side>.<name> (and a trace in $out/<side>.<name>.trace).
run() {
  local build=$1 side=$2 name=$3 bin=$4 args=$5 kind=$6
  local dst="$out/$side.$name"
  args=${args//@TRACE@/$dst.trace}
  # $args is deliberately unquoted: it is a word list.
  if [ "$kind" = json ]; then
    "$build/bench/$bin" $args --json "$dst.raw" >/dev/null || return 1
    sed 's/"git_sha": "[^"]*", //' "$dst.raw" >"$dst"
  else
    "$build/bench/$bin" $args >"$dst.raw" || return 1
    sed "s|$dst|@OUT@|g" "$dst.raw" >"$dst"
  fi
}

# same <name>: whether both sides' outputs (and traces, if any) match.
same() {
  cmp -s "$out/parent.$1" "$out/change.$1" || return 1
  [ ! -e "$out/parent.$1.trace" ] ||
    cmp -s "$out/parent.$1.trace" "$out/change.$1.trace"
}

status=0
for entry in "${runs[@]}"; do
  IFS='|' read -r name bin args kind <<<"$entry"
  if ! run "$parent" parent "$name" "$bin" "$args" "$kind" ||
     ! run "$change" change "$name" "$bin" "$args" "$kind"; then
    echo "FAIL       $name ($bin $args): bench exited non-zero"
    status=1
  elif same "$name"; then
    echo "identical  $name ($kind)"
  else
    echo "DIFFERENT  $name ($kind)"
    diff "$out/parent.$name" "$out/change.$name" | head -20 || true
    if [ -e "$out/parent.$name.trace" ]; then
      cmp "$out/parent.$name.trace" "$out/change.$name.trace" || true
    fi
    status=1
  fi
done

if [ $status -eq 0 ]; then
  echo "bench_identity: all ${#runs[@]} runs byte-identical"
else
  echo "bench_identity: outputs differ" >&2
fi
exit $status
