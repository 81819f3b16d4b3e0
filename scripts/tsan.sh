#!/usr/bin/env bash
# Race pass: build with ThreadSanitizer in a separate build tree and run
# the full unit suite under it — the sweep pool's work-stealing queues and
# in-order consumer, and every test that drives runs (samplers, trace
# rings, forensics, the front-end, the cluster layer) across sweep thread
# counts, must never share state between workers.
set -euo pipefail
cd "$(dirname "$0")/.."

# Asserts on: RelWithDebInfo's -O2 -g without its -DNDEBUG, so every
# assert in src/ runs under the sanitizer too.
cmake -B build-tsan -S . -DIRS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build build-tsan -j --target irs_tests
cd build-tsan && ctest --output-on-failure -j
