#include "src/wl/hog.h"

namespace irs::wl {

void HogWorkload::instantiate(guest::GuestKernel& k) {
  sync_ = std::make_unique<sync::SyncContext>(k);
  k.set_memory_intensity(0.1);  // "almost zero memory footprint"
  for (int i = 0; i < n_hogs_; ++i) {
    behaviors_.push_back(std::make_unique<HogBehavior>(gate_));
    tasks_.push_back(
        &k.create_task("hog." + std::to_string(i), *behaviors_.back(),
                       i % k.n_cpus()));
  }
}

}  // namespace irs::wl
