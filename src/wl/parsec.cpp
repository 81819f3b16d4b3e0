#include "src/wl/parsec.h"

#include <cstdio>
#include <cstdlib>

namespace irs::wl {

using sim::milliseconds;
using sim::microseconds;

const std::vector<AppSpec>& parsec_specs() {
  static const std::vector<AppSpec> kSpecs = {
      {.name = "blackscholes",
       .sync = SyncType::kBarrierBlocking,
       .work_per_thread = milliseconds(1200),
       .granularity = milliseconds(10),
       .jitter = 0.10,
       .memory_intensity = 0.6},
      {.name = "dedup",
       .sync = SyncType::kPipeline,
       .work_per_thread = milliseconds(600),
       .granularity = microseconds(1500),
       .jitter = 0.35,
       .memory_intensity = 1.5,
       .stages = 4},
      {.name = "streamcluster",
       .sync = SyncType::kBarrierBlocking,
       .work_per_thread = milliseconds(900),
       .granularity = microseconds(1500),
       .jitter = 0.10,
       .memory_intensity = 1.5},
      {.name = "canneal",
       .sync = SyncType::kBarrierBlocking,
       .work_per_thread = milliseconds(1000),
       .granularity = milliseconds(6),
       .jitter = 0.15,
       .memory_intensity = 1.8},
      {.name = "fluidanimate",
       .sync = SyncType::kMutexBarrier,
       .work_per_thread = milliseconds(900),
       .granularity = microseconds(1500),
       .cs_fraction = 0.12,
       .jitter = 0.12,
       .memory_intensity = 1.2},
      {.name = "vips",
       .sync = SyncType::kBarrierBlocking,
       .work_per_thread = milliseconds(1000),
       .granularity = milliseconds(4),
       .jitter = 0.15,
       .memory_intensity = 1.1},
      {.name = "bodytrack",
       .sync = SyncType::kMutexBarrier,
       .work_per_thread = milliseconds(1000),
       .granularity = milliseconds(2),
       .cs_fraction = 0.15,
       .jitter = 0.20,
       .memory_intensity = 1.0},
      {.name = "ferret",
       .sync = SyncType::kPipeline,
       .work_per_thread = milliseconds(600),
       .granularity = microseconds(1200),
       .jitter = 0.30,
       .memory_intensity = 1.2,
       .stages = 5},
      {.name = "swaptions",
       .sync = SyncType::kBarrierBlocking,
       .work_per_thread = milliseconds(1200),
       .granularity = milliseconds(25),
       .jitter = 0.08,
       .memory_intensity = 0.7},
      {.name = "x264",
       .sync = SyncType::kMutex,
       .work_per_thread = milliseconds(1000),
       .granularity = milliseconds(3),
       .cs_fraction = 0.10,
       .jitter = 0.25,
       .memory_intensity = 1.0},
      {.name = "raytrace",
       .sync = SyncType::kWorkSteal,
       .work_per_thread = milliseconds(1000),
       .granularity = milliseconds(4),
       .jitter = 0.20,
       .memory_intensity = 0.8},
      {.name = "facesim",
       .sync = SyncType::kBarrierBlocking,
       .work_per_thread = milliseconds(1200),
       .granularity = microseconds(2500),
       .jitter = 0.15,
       .memory_intensity = 1.3},
  };
  return kSpecs;
}

std::vector<std::string> parsec_names() {
  std::vector<std::string> names;
  for (const auto& s : parsec_specs()) names.push_back(s.name);
  return names;
}

AppSpec parsec_spec(const std::string& name) {
  for (const auto& s : parsec_specs()) {
    if (s.name == name) return s;
  }
  std::fprintf(stderr, "unknown PARSEC app: %s\n", name.c_str());
  std::abort();
}

}  // namespace irs::wl
