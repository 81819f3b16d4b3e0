#include "src/wl/npb.h"

#include <cstdio>
#include <cstdlib>

namespace irs::wl {

using sim::milliseconds;
using sim::microseconds;

namespace {

struct NpbParams {
  const char* name;
  sim::Duration work;
  sim::Duration gran;
  double jitter;
  double mem;
};

// Granularities follow the paper's descriptions where it gives them
// (lu syncs every ~30 s and ua every 1-2 s at class-C scale; CG/IS/MG/SP
// are fine-grained), scaled to this simulation's ~1-2 s virtual runtimes.
constexpr NpbParams kParams[] = {
    {"BT", milliseconds(1200), milliseconds(20), 0.12, 1.2},
    {"LU", milliseconds(1000), milliseconds(30), 0.12, 1.2},
    {"CG", milliseconds(800), microseconds(1500), 0.10, 1.4},
    {"EP", milliseconds(1200), milliseconds(80), 0.08, 0.5},
    {"FT", milliseconds(1000), milliseconds(15), 0.12, 1.5},
    {"IS", milliseconds(600), milliseconds(1), 0.15, 1.3},
    {"MG", milliseconds(900), milliseconds(2), 0.12, 1.4},
    {"SP", milliseconds(1100), microseconds(2500), 0.12, 1.2},
    {"UA", milliseconds(900), milliseconds(25), 0.15, 1.3},
};

AppSpec to_spec(const NpbParams& p, bool spinning) {
  AppSpec s;
  s.name = p.name;
  s.sync = spinning ? SyncType::kBarrierSpinning : SyncType::kBarrierBlocking;
  s.work_per_thread = p.work;
  s.granularity = p.gran;
  s.jitter = p.jitter;
  s.memory_intensity = p.mem;
  return s;
}

}  // namespace

std::vector<std::string> npb_names() {
  std::vector<std::string> names;
  for (const auto& p : kParams) names.emplace_back(p.name);
  return names;
}

AppSpec npb_spec(const std::string& name, bool spinning) {
  for (const auto& p : kParams) {
    if (name == p.name) return to_spec(p, spinning);
  }
  std::fprintf(stderr, "unknown NPB app: %s\n", name.c_str());
  std::abort();
}

}  // namespace irs::wl
