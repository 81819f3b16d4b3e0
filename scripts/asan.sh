#!/usr/bin/env bash
# Memory-safety pass: build with AddressSanitizer in a separate build tree
# and run the full unit suite plus the dedicated jobs registered under
# -DIRS_SANITIZE=address: obs_pipeline_asan (trace records move from the
# ring through rotated snapshots, request-span merges, and exporters),
# engine_queue_asan (wheel buckets / due list / compaction move raw
# 24-byte entries), and forensics_asan (the request-forensics replay
# indexes flat per-vCPU/task state by trace ids and reads half-open spans
# after ring wrap, fuzzed over randomized ring capacities), and
# frontend_asan (the bounded accept
# FIFO's push/pop churn and lazily sized per-connection keepalive
# counters under the overload fault matrix), and cluster_asan (replica
# gates are heap booleans captured by parked behaviors and migration
# closures outlive the decision that made them) — exactly the kind of
# ownership bug ASan catches and TSan does not.
set -euo pipefail
cd "$(dirname "$0")/.."

# Asserts on: RelWithDebInfo's -O2 -g without its -DNDEBUG, so every
# assert in src/ runs under the sanitizer too.
cmake -B build-asan -S . -DIRS_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build build-asan -j --target irs_tests irs_sweep irs_sweep_merge
cd build-asan && ctest --output-on-failure -j
