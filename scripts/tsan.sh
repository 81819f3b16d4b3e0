#!/usr/bin/env bash
# Prove the parallel sweep pool is race-free: build with ThreadSanitizer in
# a separate build tree and run the sweep determinism suite plus the
# observability pipeline (sampler/trace/export) under the pool — the
# sweep_determinism_tsan, obs_pipeline_tsan, engine_queue_tsan,
# forensics_tsan (per-run trace replay + fold/digest
# under worker threads), frontend_tsan (the open-loop front-end's
# shared accept pipe/FIFO/ledger under the sweep pool), and cluster_tsan
# (N HostNodes on one engine plus the cluster determinism battery across
# sweep thread counts) CTest jobs registered under -DIRS_SANITIZE=thread.
set -euo pipefail
cd "$(dirname "$0")/.."

# Asserts on: RelWithDebInfo's -O2 -g without its -DNDEBUG, so every
# assert in src/ runs under the sanitizer too.
cmake -B build-tsan -S . -DIRS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build build-tsan -j --target irs_tests
cd build-tsan && ctest --output-on-failure -R 'sweep_determinism_tsan|obs_pipeline_tsan|engine_queue_tsan|forensics_tsan|frontend_tsan|cluster_tsan'
