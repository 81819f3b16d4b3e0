#!/usr/bin/env bash
# Memory-safety pass: build with AddressSanitizer in a separate build tree
# and run the full unit suite under it — trace records moving through ring
# snapshots and exporters, queue entries moving between wheel buckets, and
# lifetimes across cluster migrations are the kind of ownership bug ASan
# catches and TSan does not.
set -euo pipefail
cd "$(dirname "$0")/.."

# Asserts on: RelWithDebInfo's -O2 -g without its -DNDEBUG, so every
# assert in src/ runs under the sanitizer too.
cmake -B build-asan -S . -DIRS_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build build-asan -j --target irs_tests
cd build-asan && ctest --output-on-failure -j
