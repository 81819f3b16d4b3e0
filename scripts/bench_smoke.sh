#!/usr/bin/env bash
# Paper-binary smoke: every bench/fig* and bench/abl_* binary, run on its
# trimmed registry grid (IRS_BENCH_FAST=1), must exit 0 and print its
# banner, and fig05's stdout must not depend on the sweep's worker count.
# Usage: scripts/bench_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
b="${1:-build}"

for bin in "$b"/bench/fig* "$b"/bench/abl_*; do
  out=$(IRS_BENCH_FAST=1 "$bin") || { echo "FAIL: $bin exited $?" >&2; exit 1; }
  if ! grep -q '^=== ' <<< "$out"; then
    echo "FAIL: $bin printed no banner" >&2
    exit 1
  fi
done
one=$(IRS_BENCH_FAST=1 IRS_BENCH_JOBS=1 "$b/bench/fig05_parsec" | md5sum)
four=$(IRS_BENCH_FAST=1 IRS_BENCH_JOBS=4 "$b/bench/fig05_parsec" | md5sum)
if [[ "$one" != "$four" ]]; then
  echo "FAIL: fig05 stdout differs between 1 and 4 sweep workers" >&2
  exit 1
fi
