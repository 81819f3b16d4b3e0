#include "src/core/world.h"

#include <cassert>

namespace irs::core {

World::World(const WorldConfig& cfg)
    : OwnedEngine(cfg.queue), HostNode(owned_engine, cfg) {
  if (cfg.trace_capacity > 0) owned_engine.set_trace(&host().trace());
}

void World::run_for(sim::Duration d) {
  assert(started());
  owned_engine.run_until(owned_engine.now() + d);
}

}  // namespace irs::core
