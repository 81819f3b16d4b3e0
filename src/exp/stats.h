// Streaming fold of sweep results.
//
// A consumer that wants sweep-wide totals should not have to materialise a
// std::vector<RunResult> first. SweepStats folds results one at a time,
// e.g. from run_sweep's streaming consumer: run and finished counts plus
// the exact fold of every result block. The repo benchmark (perfbench)
// folds its passes through it.
#pragma once

#include <cstdint>

#include "src/exp/runner.h"

namespace irs::exp {

class SweepStats {
 public:
  /// Fold one run. The block fold is order-independent (see fold_blocks).
  void add(const RunResult& r) {
    ++runs_;
    if (r.finished) ++finished_;
    fold_blocks(blocks_, r);
  }

  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] std::uint64_t finished() const { return finished_; }

  /// Sweep-wide block fold: every run's result blocks folded exactly and
  /// their digests XORed (see fold_blocks). Only the block and *_digest
  /// fields are set; a block stays empty when no run carried it.
  [[nodiscard]] const RunResult& blocks() const { return blocks_; }

 private:
  std::uint64_t runs_ = 0;
  std::uint64_t finished_ = 0;
  RunResult blocks_;
};

}  // namespace irs::exp
