#!/usr/bin/env bash
# Sanitizer pass: build with one sanitizer in a build tree of its own and
# run the full unit suite under it, with asserts on.
#
#   scripts/sanitize.sh address    build-asan: memory safety — trace records
#       moving through ring snapshots and exporters, queue entries moving
#       between wheel buckets, lifetimes across cluster migrations. Builds
#       the whole tree and also runs every paper binary.
#   scripts/sanitize.sh thread     build-tsan: races — the sweep pool's
#       work-stealing queues and in-order consumer, and every test that
#       drives runs (samplers, trace rings, forensics, the front-end, the
#       cluster layer) across sweep thread counts, must never share state
#       between workers.
#   scripts/sanitize.sh undefined  build-ubsan: undefined behaviour, every
#       finding fatal (-fno-sanitize-recover) — the SLO histogram's bucket
#       shifts and 128-bit sums, digest mixing, arrival-gap conversions
#       through doubles, and the JSON integer round-trips.
set -euo pipefail
cd "$(dirname "$0")/.."

sanitizer="${1:-}"
case "$sanitizer" in
  address) dir=build-asan; targets=() ;;
  thread) dir=build-tsan; targets=(--target irs_tests irs_alloc_tests) ;;
  undefined) dir=build-ubsan; targets=(--target irs_tests irs_alloc_tests) ;;
  *)
    echo "usage: $0 address|thread|undefined" >&2
    exit 2
    ;;
esac

# Asserts on: RelWithDebInfo's -O2 -g without its -DNDEBUG, so every
# assert in src/ runs under the sanitizer too.
cmake -B "$dir" -S . -DIRS_SANITIZE="$sanitizer" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build "$dir" -j "${targets[@]}"
(cd "$dir" && ctest --output-on-failure -j)

# The paper binaries too: each renders registry grids through the cells
# bench/bench_util.h hands out, whose lifetimes ASan checks.
if [[ "$sanitizer" == address ]]; then
  scripts/bench_smoke.sh "$dir"
fi
