#!/usr/bin/env bash
# Undefined-behaviour pass: build with UBSan (findings fatal via
# -fno-sanitize-recover) in a separate build tree and run the full unit
# suite plus the dedicated jobs registered under -DIRS_SANITIZE=undefined:
# obs_pipeline_ubsan (trace/export/JSON integer round-trips) and slo_ubsan
# (the SLO histogram's bucket-index shifts, 128-bit sums, FNV digest
# mixing, and StatAccumulator moment folds — the arithmetic-heaviest code
# in the repo, where signed overflow or an out-of-range shift would
# otherwise hide behind whatever the optimiser happened to emit), and
# forensics_ubsan (segment arithmetic over trace timestamps and the
# 128-bit per-cause sums behind the exact-sum contract), and
# frontend_ubsan (arrival-gap rate/Duration conversions through doubles
# and the conservation-ledger digest mixing), and cluster_ubsan (the
# placement-ledger digest's 64-bit mixing, steal/downtime arithmetic over
# vCPU state times, and the burn threshold's double conversion).
set -euo pipefail
cd "$(dirname "$0")/.."

# Asserts on: RelWithDebInfo's -O2 -g without its -DNDEBUG, so every
# assert in src/ runs under the sanitizer too.
cmake -B build-ubsan -S . -DIRS_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build build-ubsan -j --target irs_tests irs_sweep irs_sweep_merge
cd build-ubsan && ctest --output-on-failure -j
