// The four scheduling strategies compared in the paper's evaluation (§5.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace irs::core {

enum class Strategy : std::uint8_t {
  kBaseline,      // vanilla Xen credit scheduler + vanilla Linux guest
  kPle,           // hardware pause-loop exiting (HVM)
  kRelaxedCo,     // VMware-style relaxed co-scheduling (paper's Xen port)
  kIrs,           // interference-resilient scheduling (this paper)
  kDelayPreempt,  // Uhlig-style lock-holder delay (related work, §2.2)
  kIrsPull,       // IRS + pull-based "running task" migration (paper §6)
};

const char* strategy_name(Strategy s);

/// Baseline first, then the paper's comparison order: PLE, Relaxed-Co, IRS.
const std::vector<Strategy>& all_strategies();

}  // namespace irs::core
