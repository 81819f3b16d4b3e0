#!/usr/bin/env bash
# Tier-1 verify line (see ROADMAP.md): configure, build, run the full test
# suite. Any argument is forwarded to cmake configure (e.g. -DIRS_SANITIZE=thread).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . "$@"
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# Forensics smoke: one traced serving run end-to-end through the
# per-request causal decomposition — the cause table, the violating-window
# root-cause rows, and the CSV renderer must all produce output.
./build/tools/irs_trace_dump --fg specjbb --strategy Xen \
    --forensics --csv > /dev/null

# Open-loop front-end smoke: a short fig08_open arm (frontend workload
# under a hog, tail-drop policy) through the trace dump's conservation
# ledger table — the arrival pipeline, overload accounting, and the
# queue-wait forensics cause must all render end-to-end.
./build/tools/irs_trace_dump --fg frontend --strategy IRS \
    --frontend --fe-overload drop --csv > /dev/null

# Attribution smoke: the per-task steal breakdown (the runstate replay's
# classified steal windows) with the guest lanes and counter tracks in the
# timeline, under IRS (SA windows) and under PLE (pause-loop exits).
for strategy in IRS PLE; do
  ./build/tools/irs_trace_dump --fg streamcluster --strategy "$strategy" \
      --attribution --guest-lanes --counters \
      build/attribution_smoke_trace.json > /dev/null
done

# Cluster smoke: the two-host virtual datacenter end-to-end — a protected
# "ab" server fixed on host 0 plus one migratable hog VM, admitted by the
# random baseline and by the IRS-informed policy. The placement/migration
# ledger table and the per-host timelines (trace.json + trace.host1.json)
# must all render.
for pol in random irs; do
  ./build/tools/irs_trace_dump --cluster --cluster-policy "$pol" \
      --fg ab --inter 2 --bg-vms 1 --csv \
      build/cluster_smoke_trace.json > /dev/null
done

# Bad-input smoke: each input must exit with its usage status and a
# message, never crash or run on a silent default — irs_trace_dump, the
# bench binaries and bench_report exit 2, irs_sweep 64. A numeric flag
# takes the whole argument and nothing below its bound.
expect_bad() {
  local want="$1"
  shift
  local status=0
  "$@" > /dev/null 2> build/bad_input.err || status=$?
  if [[ "$status" != "$want" || ! -s build/bad_input.err ]]; then
    echo "FAIL: $* exited $status (want $want with a message)" >&2
    exit 1
  fi
}
for bad in "--inter 9" "--inter -1" "--bg-vms -3" "--cluster-policy bogus" \
           "--fg nope" "--bg nope" "--fg frontend --fe-overload nope" \
           "--fg frontend --fe-arrival nope" "--fg frontend --fe-rate -5" \
           "--fg frontend --fe-queue-cap -1" "--seed abc" "--seed -1" \
           "--inter 2x" "--bg-vms 1x" "--fg frontend --fe-rate abc" \
           "--fg frontend --fe-queue-cap 8x" "--capacity 12abc" \
           "--capacity -1" "--cluster --cluster-hosts 1" \
           "--cluster-hosts -4"; do
  # shellcheck disable=SC2086  # word-split the flag and its value
  expect_bad 2 ./build/tools/irs_trace_dump $bad build/bad_config_trace.json
done
for bad in "--jobs 2x" "--seeds 2abc" "--jobs 0" "--seeds -1" \
           "--jobs 99999999999" "--fig nope"; do
  # shellcheck disable=SC2086  # word-split the flag and its value
  expect_bad 64 ./build/tools/irs_sweep --fig fig02 $bad
done
# A misspelt queue backend must fail, not quietly run the default wheel
# (the oracle below would then compare the wheel with itself).
expect_bad 2 env IRS_ENGINE_QUEUE=bogus ./build/tools/irs_trace_dump \
    build/bad_config_trace.json
expect_bad 64 env IRS_ENGINE_QUEUE=bogus ./build/tools/irs_sweep --fig fig02
for bad in "IRS_BENCH_SEEDS=abc" "IRS_BENCH_SEEDS=0" "IRS_BENCH_SEEDS=-2" \
           "IRS_BENCH_SEEDS=2x" "IRS_BENCH_JOBS=zz"; do
  expect_bad 64 env "$bad" ./build/tools/irs_sweep --fig fig02
  expect_bad 2 env "$bad" ./build/bench/fig02_utilization
done
expect_bad 2 env IRS_BENCH_JOBS=zz ./build/bench/fig01_motivation
expect_bad 2 env IRS_BENCH_JOBS=zz ./build/bench/bench_report \
    build/bad_input_report.json

# Every paper binary renders its trimmed registry grid (see the script).
scripts/bench_smoke.sh build

# Queue oracle on whole grids: the default hybrid wheel must produce
# byte-identical NDJSON to the binary-heap oracle on a compute grid
# (fig05), the PLE spin grid (fig06, where the dormant PLE watch and the
# re-armed timers run at volume), the single-host servers with SLO
# windows (fig08: specjbb and ab), the only open-loop front-end grid
# (fig08_open), the multi-host grid (fig_cluster), the only grid with
# Delay-Preempt and IRS-Pull (abl_extensions) and the grid with the
# deepest single-host queues (fig10, up to 323 entries).
for fig in fig05 fig06 fig08 fig08_open fig_cluster abl_extensions fig10; do
  for q in binary wheel; do
    IRS_ENGINE_QUEUE="$q" ./build/tools/irs_sweep --fig "$fig" --jobs 4 \
        --ndjson "build/oracle_${fig}_${q}.ndjson" > /dev/null
  done
  a=$(md5sum < "build/oracle_${fig}_binary.ndjson")
  b=$(md5sum < "build/oracle_${fig}_wheel.ndjson")
  if [[ "$a" != "$b" ]]; then
    echo "FAIL: $fig NDJSON differs between the binary and wheel queues" >&2
    exit 1
  fi
done

# Gate check: bench_report prints a PASS/FAIL line for each of its seven
# timing gates and fails (exit 1) if any tripped — trace ns/record more
# than 2x the previous report, sampler >= 6%, serial fig05 on the default
# queue backend slower than 0.9x its binary-heap time
# (wheel_fig05_speedup_vs_binary), SLO or forensics recording >= 5%, the
# forensics analyzer >= 150
# ns/record, or the open-loop front-end >= 5% per completed request. The
# determinism checks (serial = parallel sweeps, fold identity through
# result_json, offline forensics replay, histogram memory, front-end
# conservation) are ctest cases, run above. IRS_BENCH_FAST keeps the grid
# slices smoke-sized.
IRS_BENCH_FAST=1 ./build/bench/bench_report build/BENCH_tier1_smoke.json

# Optional UBSan pass (separate build tree, ~one extra compile): set
# IRS_TIER1_UBSAN=1 to run scripts/sanitize.sh undefined as part of the
# tier-1 line.
if [[ "${IRS_TIER1_UBSAN:-0}" == "1" ]]; then
  scripts/sanitize.sh undefined
fi
