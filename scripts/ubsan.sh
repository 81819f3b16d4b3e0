#!/usr/bin/env bash
# Undefined-behaviour pass: build with UBSan (findings fatal via
# -fno-sanitize-recover) in a separate build tree and run the full unit
# suite under it — the SLO histogram's bucket shifts and 128-bit sums,
# digest mixing, arrival-gap conversions through doubles, and the JSON
# integer round-trips are where a signed overflow or bad shift would hide
# behind whatever the optimiser happened to emit.
set -euo pipefail
cd "$(dirname "$0")/.."

# Asserts on: RelWithDebInfo's -O2 -g without its -DNDEBUG, so every
# assert in src/ runs under the sanitizer too.
cmake -B build-ubsan -S . -DIRS_SANITIZE=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build build-ubsan -j --target irs_tests
cd build-ubsan && ctest --output-on-failure -j
