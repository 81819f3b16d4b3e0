#include "src/core/strategy.h"

namespace irs::core {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kBaseline: return "Xen";
    case Strategy::kPle: return "PLE";
    case Strategy::kRelaxedCo: return "Relaxed-Co";
    case Strategy::kIrs: return "IRS";
    case Strategy::kDelayPreempt: return "Delay-Preempt";
    case Strategy::kIrsPull: return "IRS-Pull";
  }
  return "?";
}

const std::vector<Strategy>& all_strategies() {
  static const std::vector<Strategy> kAll = {
      Strategy::kBaseline, Strategy::kPle, Strategy::kRelaxedCo,
      Strategy::kIrs};
  return kAll;
}

}  // namespace irs::core
